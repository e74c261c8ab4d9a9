//! Soundness of the static analyzer against the exact runtime semantics.
//!
//! For random models across all five families, random fixed-point
//! formats, and random (arbitrarily out-of-range) inputs:
//!
//! - every intermediate value the saturating scalar replay
//!   ([`CompiledPipeline::trace`]) produces lies inside the interval the
//!   analyzer derived for that stage at lowering time;
//! - every pipeline certified saturation-free observes **zero** clamping
//!   saturating operations in the replay;
//! - the replay verdict equals [`CompiledPipeline::classify`] on the
//!   packed per-row path, the block path (`classify_batch`) and the
//!   scalar reference tier, and `scores()` is the dequantized final trace
//!   stage on both tiers;
//! - the `homunculus-analysis` certificates agree with the runtime's
//!   [`KernelFact`]s they re-surface.
//!
//! [`CompiledPipeline::trace`]: homunculus::runtime::CompiledPipeline::trace
//! [`CompiledPipeline::classify`]: homunculus::runtime::CompiledPipeline::classify
//! [`KernelFact`]: homunculus::runtime::pipeline::KernelFact

use homunculus::analysis::{analyze_model, ModelInput};
use homunculus::backends::model::{
    DnnIr, ForestIr, KMeansIr, LayerParams, ModelIr, SvmIr, TreeIr, TreeNodeIr,
};
use homunculus::ml::bounds::Interval;
use homunculus::ml::mlp::MlpArchitecture;
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::pipeline::KernelFact;
use homunculus::runtime::{CompiledPipeline, Scratch};
use proptest::prelude::*;

/// The formats the lowering is exercised under: the Taurus word format,
/// a couple of narrow ones (easy to saturate), and a 29-bit one that is
/// too wide for any packed lane (scalar tier).
fn format(idx: usize) -> FixedPoint {
    let (int_bits, frac_bits) = [(3, 12), (7, 8), (2, 4), (12, 16)][idx % 4];
    FixedPoint::new(int_bits, frac_bits).unwrap()
}

/// Weight pools are drawn from `-9.0..9.0` — beyond every format's
/// representable range, so quantization clamps some of them; the
/// analyzer must stay sound through that.
struct Pool {
    values: Vec<f32>,
    next: usize,
}

impl Pool {
    fn new(values: Vec<f32>) -> Self {
        Pool { values, next: 0 }
    }

    fn draw(&mut self) -> f32 {
        let v = self.values[self.next % self.values.len()];
        self.next += 1;
        v
    }
}

/// A complete binary tree of `depth` laid out level by level: internal
/// nodes `0..2^depth - 1`, leaves after them — a valid arena for any
/// feature/threshold assignment.
fn full_tree(depth: usize, n_features: usize, n_classes: usize, pool: &mut Pool) -> TreeIr {
    let internal = (1usize << depth) - 1;
    let total = (1usize << (depth + 1)) - 1;
    let nodes: Vec<TreeNodeIr> = (0..total)
        .map(|i| {
            if i < internal {
                TreeNodeIr::Split {
                    feature: i % n_features,
                    threshold: pool.draw(),
                    left: 2 * i + 1,
                    right: 2 * i + 2,
                }
            } else {
                TreeNodeIr::Leaf {
                    class: i % n_classes,
                }
            }
        })
        .collect();
    TreeIr {
        depth,
        n_features,
        leaves: 1 << depth,
        n_classes: Some(n_classes),
        nodes: Some(nodes),
    }
}

/// An unbalanced tree of `depth`: every split's left child is a leaf (the
/// first at depth 1) and its right child the next split — so some rows
/// reach a leaf levels above the tree's height.
fn spine_tree(depth: usize, n_features: usize, n_classes: usize, pool: &mut Pool) -> TreeIr {
    let nodes: Vec<TreeNodeIr> = (0..=2 * depth)
        .map(|i| {
            if i % 2 == 0 && i < 2 * depth {
                TreeNodeIr::Split {
                    feature: (i / 2) % n_features,
                    threshold: pool.draw(),
                    left: i + 1,
                    right: i + 2,
                }
            } else {
                TreeNodeIr::Leaf {
                    class: i % n_classes,
                }
            }
        })
        .collect();
    TreeIr {
        depth,
        n_features,
        leaves: depth + 1,
        n_classes: Some(n_classes),
        nodes: Some(nodes),
    }
}

/// One tree of a shape picked by `shape`: a full tree of depth 1–3 (twice
/// as likely), a depth-6 spine (depth 0 is a lone leaf, height 0).
fn any_tree(shape: usize, n_features: usize, n_classes: usize, pool: &mut Pool) -> TreeIr {
    match shape % 4 {
        2 => spine_tree(6, n_features, n_classes, pool),
        3 => spine_tree(0, n_features, n_classes, pool),
        _ => full_tree(1 + shape % 3, n_features, n_classes, pool),
    }
}

/// Builds one trained model of the chosen family, all parameters drawn
/// from the pool. `a`/`b`/`c` are small dimension seeds.
fn build_model(family: usize, a: usize, b: usize, c: usize, pool: &mut Pool) -> ModelIr {
    match family % 5 {
        0 => {
            let arch = MlpArchitecture::new(a, vec![b], 2 + c % 3);
            let params = arch
                .layer_dims()
                .iter()
                .map(|&(rows, cols)| LayerParams {
                    weights: Matrix::from_fn(rows, cols, |_, _| pool.draw()),
                    bias: (0..cols).map(|_| pool.draw()).collect(),
                })
                .collect();
            ModelIr::Dnn(DnnIr {
                arch,
                params: Some(params),
            })
        }
        1 => {
            let n_classes = 2 + c % 3;
            let planes = if n_classes == 2 { 1 } else { n_classes };
            let weights: Vec<Vec<f32>> = (0..planes)
                .map(|_| (0..a).map(|_| pool.draw()).collect())
                .collect();
            let biases: Vec<f32> = (0..planes).map(|_| pool.draw()).collect();
            ModelIr::Svm(SvmIr {
                n_features: a,
                n_classes,
                planes: Some((weights, biases)),
            })
        }
        2 => {
            let k = 1 + b % 5;
            let centroids: Vec<Vec<f32>> = (0..k)
                .map(|_| (0..a).map(|_| pool.draw()).collect())
                .collect();
            ModelIr::KMeans(KMeansIr {
                k,
                n_features: a,
                centroids: Some(centroids),
            })
        }
        3 => ModelIr::Tree(any_tree(b, a, 2 + c % 3, pool)),
        _ => {
            // Tree counts on every side of an 8-cursor lane group, members
            // of mixed shapes and heights.
            let n_classes = 2 + c % 3;
            let trees: Vec<TreeIr> = (0..[1, 7, 8, 9, 24, 25][c % 6])
                .map(|i| any_tree(b + i, a, n_classes, pool))
                .collect();
            ModelIr::Forest(ForestIr {
                n_features: a,
                n_classes,
                trees,
            })
        }
    }
}

/// The analyzer interval a trace stage's values must lie in, when a
/// matching [`KernelFact`] exists. Trace labels suffix the fact labels
/// (`"dense layer 0 pre-activation"` → fact `"dense layer 0"`).
fn stage_intervals<'f>(label: &str, facts: &'f [KernelFact]) -> Option<&'f [Interval]> {
    if let Some(fact_label) = label.strip_suffix(" pre-activation") {
        return facts
            .iter()
            .find(|f| f.label == fact_label)
            .map(|f| f.pre.as_slice());
    }
    if let Some(fact_label) = label.strip_suffix(" activation") {
        return facts
            .iter()
            .find(|f| f.label == fact_label)
            .map(|f| f.post.as_slice());
    }
    let fact_label = match label {
        "svm scores" => "svm planes",
        other => other,
    };
    facts
        .iter()
        .find(|f| f.label == fact_label)
        .map(|f| f.post.as_slice())
}

/// The `scores()` a trace implies: its final stage holds the raw
/// per-class scores of the score-shaped families, dequantized the way
/// `CompiledPipeline::scores` documents (`[-s, s]` around a binary SVM's
/// single plane score, negated KMeans distances).
fn trace_scores(pipeline: &CompiledPipeline, fmt: FixedPoint, raw: &[i32]) -> Option<Vec<f32>> {
    match pipeline.family() {
        "dnn" => Some(raw.iter().map(|&r| fmt.dequantize(r)).collect()),
        "svm" if raw.len() == 1 => {
            let s = fmt.dequantize(raw[0]);
            Some(vec![-s, if raw[0] == 0 { f32::MIN_POSITIVE } else { s }])
        }
        "svm" => Some(raw.iter().map(|&r| fmt.dequantize(r)).collect()),
        "kmeans" => Some(raw.iter().map(|&r| -fmt.dequantize(r)).collect()),
        _ => None,
    }
}

/// The core soundness oracle: replay the exact saturating scalar
/// semantics, hold every recorded intermediate to the analyzer's
/// predictions, and hold every inference path — packed per-row, block,
/// scalar tier — to the replay. Returns whether any row's replay clamped.
fn check_soundness(ir: &ModelIr, fmt: FixedPoint, rows: &[Vec<f32>]) -> bool {
    let pipeline = CompiledPipeline::from_ir(ir, fmt).unwrap();
    let scalar = CompiledPipeline::from_ir_scalar(ir, fmt).unwrap();
    let facts = pipeline.kernel_facts();
    let mut scratch = Scratch::new();
    let mut saturated = false;
    let mut verdicts = Vec::with_capacity(rows.len());
    for features in rows {
        let trace = pipeline.trace(features);
        assert_eq!(
            trace.verdict,
            pipeline.classify(features, &mut scratch),
            "trace and classify disagree"
        );
        assert_eq!(
            trace.verdict,
            scalar.classify(features, &mut scratch),
            "trace and the scalar tier disagree"
        );
        let expected = trace_scores(&pipeline, fmt, &trace.stages.last().unwrap().values);
        assert_eq!(
            pipeline.scores(features, &mut scratch),
            expected,
            "scores drifted from the trace"
        );
        assert_eq!(
            scalar.scores(features, &mut scratch),
            expected,
            "scalar-tier scores drifted from the trace"
        );
        if pipeline.saturation_certified() {
            assert!(
                !trace.saturated,
                "certified pipeline observed a clamping saturating op"
            );
        }
        for stage in &trace.stages {
            if stage.label == "quantized features" {
                let iv = Interval::quantized(fmt);
                for &v in &stage.values {
                    assert!(iv.contains(v), "{}: {v} outside {iv:?}", stage.label);
                }
                continue;
            }
            let Some(intervals) = stage_intervals(&stage.label, facts) else {
                continue;
            };
            assert_eq!(
                intervals.len(),
                stage.values.len(),
                "fact width mismatch at '{}'",
                stage.label
            );
            for (j, (&v, iv)) in stage.values.iter().zip(intervals).enumerate() {
                assert!(
                    iv.contains(v),
                    "{}[{j}]: value {v} outside predicted {iv:?}",
                    stage.label
                );
            }
        }
        saturated |= trace.saturated;
        verdicts.push(trace.verdict);
    }
    let block = pipeline.classify_batch(&Matrix::from_rows(rows).unwrap(), 1);
    assert_eq!(block, verdicts, "trace and the block path disagree");
    saturated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn prop_runtime_stays_inside_predicted_intervals(
        family in 0usize..5,
        a in 1usize..8,
        b in 1usize..8,
        c in 0usize..9,
        fmt_idx in 0usize..4,
        pool in proptest::collection::vec(-9.0f32..9.0, 40..200),
        rows in proptest::collection::vec(-100.0f32..100.0, 10..60),
    ) {
        let ir = build_model(family, a, b, c, &mut Pool::new(pool));
        let nf = ir.n_features();
        let rows: Vec<Vec<f32>> = rows
            .chunks(nf)
            .map(|row| row.iter().copied().cycle().take(nf).collect())
            .collect();
        check_soundness(&ir, format(fmt_idx), &rows);
    }

    #[test]
    fn prop_certificates_mirror_kernel_facts(
        family in 0usize..5,
        a in 1usize..8,
        b in 1usize..8,
        c in 0usize..9,
        fmt_idx in 0usize..4,
        pool in proptest::collection::vec(-9.0f32..9.0, 40..200),
    ) {
        let ir = build_model(family, a, b, c, &mut Pool::new(pool));
        let fmt = format(fmt_idx);
        let pipeline = CompiledPipeline::from_ir(&ir, fmt).unwrap();
        let analysis = analyze_model(&ModelInput {
            name: "prop",
            ir: &ir,
            format: fmt,
            normalizer: None,
            word_bits: None,
        });
        assert!(analysis.analyzed);
        let facts = pipeline.kernel_facts();
        assert_eq!(analysis.certificates.len(), facts.len());
        for (cert, fact) in analysis.certificates.iter().zip(facts) {
            assert_eq!(cert.kernel, fact.label);
            assert_eq!(cert.certified, fact.certified);
            assert_eq!(cert.abs_bound, fact.abs_bound);
        }
        assert_eq!(analysis.saturation_certified(), pipeline.saturation_certified());
    }

    #[test]
    fn prop_extreme_inputs_stay_inside_intervals(
        family in 0usize..5,
        a in 1usize..8,
        b in 1usize..8,
        c in 0usize..9,
        fmt_idx in 0usize..4,
        pool in proptest::collection::vec(-9.0f32..9.0, 40..200),
    ) {
        // Quantization clamps everything — including non-finite floats —
        // into [min_raw, max_raw], so even these inputs are "admissible"
        // and the derived intervals must hold.
        let ir = build_model(family, a, b, c, &mut Pool::new(pool));
        let rows: Vec<Vec<f32>> =
            [f32::MAX, f32::MIN, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0]
                .iter()
                .map(|&fill| vec![fill; ir.n_features()])
                .collect();
        check_soundness(&ir, format(fmt_idx), &rows);
    }
}

/// Kernels too long for a no-saturation certificate, run for real: a
/// 16 384-input Q3.12 dense layer, SVM plane and KMeans centroid of ±7.9
/// weights. Their accumulators do clamp on extreme rows, so only the
/// per-call guard's sequential replay can match the scalar semantics — a
/// packed kernel that took the re-orderable fast loop here would diverge.
#[test]
fn uncertified_kernels_match_the_trace_when_accumulators_clamp() {
    const N: usize = 16_384;
    let fmt = FixedPoint::taurus_default();
    // A long positive run, then a shorter negative one: against an
    // all-positive row the partial sum clamps at `i32::MAX` and the tail
    // pulls it back down, so the result depends on evaluation order.
    let weight = |i: usize| if i < 3 * N / 4 { 7.9f32 } else { -7.9 };
    let arch = MlpArchitecture::new(N, vec![2], 2);
    let params = arch
        .layer_dims()
        .iter()
        .map(|&(rows, cols)| LayerParams {
            weights: Matrix::from_fn(
                rows,
                cols,
                |r, c| if c == 0 { weight(r) } else { -weight(r) },
            ),
            bias: vec![0.5; cols],
        })
        .collect();
    let models = [
        ModelIr::Dnn(DnnIr {
            arch,
            params: Some(params),
        }),
        ModelIr::Svm(SvmIr {
            n_features: N,
            n_classes: 2,
            planes: Some((vec![(0..N).map(weight).collect()], vec![0.25])),
        }),
        ModelIr::KMeans(KMeansIr {
            k: 2,
            n_features: N,
            centroids: Some(vec![
                (0..N).map(weight).collect(),
                (0..N).map(|i| -weight(i)).collect(),
            ]),
        }),
    ];
    let rows: Vec<Vec<f32>> = vec![
        vec![7.9; N],
        vec![-7.9; N],
        (0..N).map(weight).collect(),
        (0..N).map(|i| (i % 7) as f32 * 0.01 - 0.03).collect(),
    ];
    for ir in &models {
        let pipeline = CompiledPipeline::from_ir(ir, fmt).unwrap();
        assert!(pipeline.is_packed(), "{}", ir.family());
        assert!(!pipeline.saturation_certified(), "{}", ir.family());
        assert!(
            check_soundness(ir, fmt, &rows),
            "{}: no probe row clamped an accumulator",
            ir.family()
        );
    }
}
