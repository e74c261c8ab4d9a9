//! The chunk walk: bulk classification in 32-row feature blocks, for
//! resident deployment workers and scoped-thread batch runs alike.
//!
//! Rows move in feature blocks (structure-of-arrays): up to `BLOCK_ROWS`
//! rows are quantized into one contiguous block and streamed through the
//! kernels, instead of gathering, quantizing, and dispatching per packet.
//! It is the walk per-row [`CompiledPipeline::classify`] runs, over more
//! rows at once — a layout change, not a semantic one.
//!
//! A `Deployment` worker calls `classify_chunk` once per dispatched chunk
//! with the tenant's `NormTiles`; [`CompiledPipeline::classify_batch`]
//! calls it once per `std::thread::scope` shard, each with a private
//! [`Scratch`], and normalizes nothing.
//!
//! # One ingress pass
//!
//! A block is read where it lies in the ticket's matrix and normalized as
//! it is quantized: `(v - mean) / std`, then the fixed-point round, in one
//! branch-free loop (`PackedFixed::quantize_normalized_into_packed` on the
//! packed tier). The loop reads `mean` and `std` at each value's own
//! index, from a tenant's normalizer tiled `BLOCK_ROWS` times, which is
//! built once when the tenant is registered: built on every call, the
//! tiles would make a 16-row ticket pay for 32 rows of them (a prototype
//! that did so: CHANGES.md, *say each thing once in the serving stack*). Each z-score is the one
//! `Normalizer::apply` computes, in the same `f32` operations, so the
//! quantized block is bit-identical to normalizing a copy row by row and
//! then quantizing it, as the per-row reference does
//! (`Normalizer::apply`, then [`CompiledPipeline::classify`]).

use crate::pipeline::{BlockNorm, CompiledPipeline, Scratch, BLOCK_ROWS};
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::tensor::Matrix;

/// A normalizer's `mean` and `std`, each repeated once per row of a full
/// block, so that the `i`-th value of any block starting on a row
/// boundary is normalized by the `i`-th entry of each.
#[derive(Debug)]
pub(crate) struct NormTiles {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl NormTiles {
    pub(crate) fn new(normalizer: &Normalizer) -> Self {
        NormTiles {
            mean: normalizer.mean.repeat(BLOCK_ROWS),
            std: normalizer.std.repeat(BLOCK_ROWS),
        }
    }

    /// The statistics for a block of `rows` rows, `width` features wide.
    ///
    /// # Panics
    ///
    /// Panics with "dimensionality mismatch" unless the normalizer is
    /// `width` features wide.
    fn block(&self, rows: usize, width: usize) -> BlockNorm<'_> {
        let full = BLOCK_ROWS * width;
        assert!(
            self.mean.len() == full && self.std.len() == full,
            "dimensionality mismatch: a {width}-feature block against a normalizer of {} \
             means and {} stds",
            self.mean.len() / BLOCK_ROWS,
            self.std.len() / BLOCK_ROWS
        );
        (&self.mean[..rows * width], &self.std[..rows * width])
    }
}

impl CompiledPipeline {
    /// Classifies every row of `x` using up to `workers` threads.
    ///
    /// `workers` is clamped to `[1, x.rows()]`; with one worker the call
    /// degenerates to a single-threaded block loop with one reused
    /// scratch. Output order matches row order regardless of sharding.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.n_features()`.
    pub fn classify_batch(&self, x: &Matrix, workers: usize) -> Vec<usize> {
        let n = x.rows();
        let mut out = vec![0usize; n];
        if n == 0 {
            return out;
        }
        let workers = workers.clamp(1, n);
        if workers == 1 {
            let mut scratch = Scratch::new();
            self.classify_chunk(x, 0, None, &mut out, &mut scratch);
            return out;
        }
        let chunk = n.div_ceil(workers);
        std::thread::scope(|scope| {
            for (shard, out_chunk) in out.chunks_mut(chunk).enumerate() {
                let start = shard * chunk;
                scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    self.classify_chunk(x, start, None, out_chunk, &mut scratch);
                });
            }
        });
        out
    }

    /// Classifies rows `start..start + out.len()` of `x` into `out`, at
    /// most `BLOCK_ROWS` at a time, each block read in place and, with
    /// `tiles`, normalized in the quantize pass. Panics if `x` or the
    /// normalizer is not `self.n_features()` wide.
    pub(crate) fn classify_chunk(
        &self,
        x: &Matrix,
        start: usize,
        tiles: Option<&NormTiles>,
        out: &mut [usize],
        scratch: &mut Scratch,
    ) {
        let nf = x.cols();
        let mut offset = 0;
        while offset < out.len() {
            let rows = (out.len() - offset).min(BLOCK_ROWS);
            let from = (start + offset) * nf;
            let block = &x.as_slice()[from..from + rows * nf];
            let norm = tiles.map(|t| t.block(rows, nf));
            self.classify_block(block, norm, &mut out[offset..offset + rows], scratch);
            offset += rows;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{classify_rows, CompiledPipeline};
    use homunculus_backends::model::{DnnIr, KMeansIr, ModelIr, SvmIr};
    use homunculus_ml::kmeans::{KMeans, KMeansConfig};
    use homunculus_ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
    use homunculus_ml::quantize::FixedPoint;

    fn pipeline_and_data(rows: usize) -> (CompiledPipeline, Matrix) {
        let x = Matrix::from_fn(rows, 3, |r, c| ((r * 5 + c * 3) % 11) as f32 / 11.0 - 0.5);
        let y: Vec<usize> = (0..rows).map(|r| r % 2).collect();
        let arch = MlpArchitecture::new(3, vec![6], 2);
        let mut net = Mlp::new(&arch, 2).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(10))
            .unwrap();
        let pipeline = CompiledPipeline::from_ir(
            &ModelIr::Dnn(DnnIr::from_mlp(&net)),
            FixedPoint::taurus_default(),
        )
        .unwrap();
        (pipeline, x)
    }

    #[test]
    fn batch_matches_single_threaded_for_any_worker_count() {
        let (pipeline, x) = pipeline_and_data(97);
        let reference = classify_rows(&pipeline, &x);
        for workers in [1, 2, 3, 8, 97, 500] {
            assert_eq!(
                pipeline.classify_batch(&x, workers),
                reference,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn batch_matches_per_row_on_the_scalar_tier() {
        let x = Matrix::from_fn(70, 2, |r, _| (r % 3) as f32 * 4.0 + 0.1);
        let km = KMeans::fit(&x, &KMeansConfig::new(3)).unwrap();
        let ir = ModelIr::KMeans(KMeansIr::from_kmeans(&km, 2));
        let scalar = CompiledPipeline::from_ir_scalar(&ir, FixedPoint::taurus_default()).unwrap();
        assert!(!scalar.is_packed());
        assert_eq!(scalar.classify_batch(&x, 4), classify_rows(&scalar, &x));
    }

    /// Values and statistics at every awkward magnitude: tiny, huge,
    /// subnormal, zero of either sign, NaN and ±∞ (a std of those is one
    /// `Normalizer::validate` refuses at decode, but registration does
    /// not, so the walk must still agree with `apply` on it), and raws
    /// that fall on a rounding tie.
    const AWKWARD: [f32; 18] = [
        0.25,
        -1.5,
        1e-12,
        1e30,
        -1e38,
        1e-42,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        7.999,
        -8.000_5,
        0.5 / 4096.0,
        3.0,
        f32::MIN_POSITIVE,
        1.0,
        -1.5 / 4096.0,
    ];

    fn awkward(i: usize) -> f32 {
        AWKWARD[i % AWKWARD.len()]
    }

    /// A `width`-feature binary SVM on both tiers: packed, then scalar.
    fn svm_tiers(width: usize) -> [CompiledPipeline; 2] {
        let ir = ModelIr::Svm(SvmIr {
            n_features: width,
            n_classes: 2,
            planes: Some((
                vec![(0..width).map(|c| 0.5 - c as f32 / 8.0).collect()],
                vec![0.1],
            )),
        });
        let q = FixedPoint::taurus_default();
        [
            CompiledPipeline::from_ir(&ir, q).unwrap(),
            CompiledPipeline::from_ir_scalar(&ir, q).unwrap(),
        ]
    }

    #[test]
    fn tiled_normalize_matches_apply_bit_for_bit() {
        for width in 1..=16 {
            let normalizer = Normalizer {
                mean: (0..width).map(|c| awkward(c * 5 + 2)).collect(),
                std: (0..width).map(|c| awkward(c * 3 + width)).collect(),
            };
            let tiles = NormTiles::new(&normalizer);
            let x = Matrix::from_fn(40, width, |r, c| awkward(r * 7 + c * 11 + width));
            let mut applied = x.clone();
            for r in 0..applied.rows() {
                normalizer.apply(applied.row_mut(r));
            }
            for pipeline in svm_tiers(width) {
                let mut scratch = Scratch::new();
                // Every partial block, from a start that is no block
                // boundary of the matrix.
                for rows in 1..=BLOCK_ROWS {
                    let start = 40 - rows - (rows % 3);
                    let mut out = vec![0usize; rows];
                    pipeline.classify_chunk(&x, start, Some(&tiles), &mut out, &mut scratch);
                    let want = &applied.as_slice()[start * width..(start + rows) * width];
                    let want: Vec<i32> = want
                        .iter()
                        .map(|&v| pipeline.format().quantize(v))
                        .collect();
                    let tier = if pipeline.is_packed() {
                        "packed"
                    } else {
                        "scalar"
                    };
                    assert_eq!(
                        scratch.quantized(&pipeline),
                        want,
                        "{tier}, width {width}, {rows} rows"
                    );
                    let verdicts: Vec<usize> = (start..start + rows)
                        .map(|r| pipeline.classify(applied.row(r), &mut Scratch::new()))
                        .collect();
                    assert_eq!(out, verdicts, "{tier}, width {width}, {rows} rows");
                }
            }
        }
    }

    #[test]
    fn a_chunk_of_many_blocks_matches_the_per_row_reference() {
        let (pipeline, x) = pipeline_and_data(97);
        let normalizer = Normalizer {
            mean: vec![0.1, -0.2, 0.05],
            std: vec![0.5, 2.0, 0.25],
        };
        let mut applied = x.clone();
        for r in 0..applied.rows() {
            normalizer.apply(applied.row_mut(r));
        }
        let mut out = vec![0usize; 90];
        let tiles = NormTiles::new(&normalizer);
        pipeline.classify_chunk(&x, 5, Some(&tiles), &mut out, &mut Scratch::new());
        assert_eq!(out, classify_rows(&pipeline, &applied)[5..95]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn a_normalizer_of_another_width_panics_in_the_walk() {
        let [pipeline, _] = svm_tiers(2);
        let tiles = NormTiles::new(&Normalizer {
            mean: vec![0.0],
            std: vec![1.0],
        });
        let x = Matrix::zeros(3, 2);
        pipeline.classify_chunk(&x, 0, Some(&tiles), &mut [0; 3], &mut Scratch::new());
    }

    #[test]
    fn batch_handles_empty_matrix() {
        let (pipeline, _) = pipeline_and_data(4);
        let empty = Matrix::zeros(0, 3);
        assert!(pipeline.classify_batch(&empty, 4).is_empty());
    }

    #[test]
    fn batch_zero_workers_clamps_to_one() {
        let (pipeline, x) = pipeline_and_data(10);
        assert_eq!(pipeline.classify_batch(&x, 0), classify_rows(&pipeline, &x));
    }
}
