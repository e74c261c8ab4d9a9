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
//! with the tenant's normalizer; [`CompiledPipeline::classify_batch`] calls
//! it once per `std::thread::scope` shard, each with a private [`Scratch`].

use crate::pipeline::{CompiledPipeline, Scratch, BLOCK_ROWS};
use homunculus_ml::preprocess::Normalizer;
use homunculus_ml::tensor::Matrix;

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
    /// most `BLOCK_ROWS` at a time. With a `normalizer`, each block is
    /// normalized in the scratch's staging block; with none, the matrix's
    /// own rows go straight to the kernels. Panics if `x` or the
    /// normalizer is not `self.n_features()` wide.
    pub(crate) fn classify_chunk(
        &self,
        x: &Matrix,
        start: usize,
        normalizer: Option<&Normalizer>,
        out: &mut [usize],
        scratch: &mut Scratch,
    ) {
        let nf = x.cols();
        let mut offset = 0;
        while offset < out.len() {
            let rows = (out.len() - offset).min(BLOCK_ROWS);
            let from = (start + offset) * nf;
            let block = &x.as_slice()[from..from + rows * nf];
            let out = &mut out[offset..offset + rows];
            match normalizer {
                None => self.classify_block(block, out, scratch),
                Some(normalizer) => {
                    // Taken out so the block can be read while the rest
                    // of the scratch is written.
                    let mut staged = std::mem::take(&mut scratch.staged);
                    staged.clear();
                    staged.extend_from_slice(block);
                    for r in 0..rows {
                        normalizer.apply(&mut staged[r * nf..(r + 1) * nf]);
                    }
                    self.classify_block(&staged, out, scratch);
                    scratch.staged = staged;
                }
            }
            offset += rows;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{classify_rows, Compile, CompiledPipeline};
    use homunculus_backends::model::{DnnIr, KMeansIr, ModelIr};
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
        let pipeline = ModelIr::Dnn(DnnIr::from_mlp(&net))
            .compile(FixedPoint::taurus_default())
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
