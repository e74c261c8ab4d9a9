//! Cross-tenant isolation under a contended worker pool.
//!
//! Eight tenants spanning every model family — four of them sigmoid DNNs
//! sharing one activation LUT — are served over a 2-worker pool at
//! single-row dispatch granularity (maximum interleaving: workers hop
//! between tenants on every packet, reusing their scratch buffers across
//! tenants). Every tenant's verdicts must be bit-identical to running
//! that tenant alone on one thread: any cross-tenant scratch or LUT
//! aliasing would show up here.

use homunculus::backends::model::{DnnIr, KMeansIr, ModelIr, SvmIr, TreeIr};
use homunculus::datasets::dataset::Normalizer;
use homunculus::ml::mlp::{Activation, Mlp, MlpArchitecture};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::ml::tree::{DecisionTreeClassifier, TreeConfig};
use homunculus::runtime::{classify_rows, CompiledPipeline, Deployment, TenantBatch};

/// Deterministic pseudo-random value in `[-bound, bound]`.
fn value(seed: u64, row: usize, col: usize, bound: f32) -> f32 {
    let mix = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add((row * 31 + col * 7 + 1) as u64)
        .wrapping_mul(0xD1B54A32D192ED03);
    ((mix >> 33) as f32 / (u32::MAX >> 1) as f32 - 1.0) * bound
}

const FEATURES: usize = 5;

fn tenant_irs() -> Vec<ModelIr> {
    let mut irs: Vec<ModelIr> = Vec::new();
    // Four sigmoid DNNs with distinct weights: all share one LUT.
    for seed in 0..4u64 {
        let arch =
            MlpArchitecture::new(FEATURES, vec![8, 4], 3).with_activation(Activation::Sigmoid);
        irs.push(ModelIr::Dnn(DnnIr::from_mlp(
            &Mlp::new(&arch, seed).unwrap(),
        )));
    }
    // One tanh DNN (second LUT in the same format).
    let arch = MlpArchitecture::new(FEATURES, vec![6], 2).with_activation(Activation::Tanh);
    irs.push(ModelIr::Dnn(DnnIr::from_mlp(&Mlp::new(&arch, 9).unwrap())));
    // One multiclass SVM.
    irs.push(ModelIr::Svm(SvmIr {
        n_features: FEATURES,
        n_classes: 3,
        planes: Some((
            (0..3)
                .map(|p| (0..FEATURES).map(|c| value(77, p, c, 1.0)).collect())
                .collect(),
            (0..3).map(|p| value(78, p, 0, 0.5)).collect(),
        )),
    }));
    // One KMeans.
    irs.push(ModelIr::KMeans(KMeansIr {
        k: 4,
        n_features: FEATURES,
        centroids: Some(
            (0..4)
                .map(|i| (0..FEATURES).map(|c| value(79, i, c, 2.0)).collect())
                .collect(),
        ),
    }));
    // One decision tree, fitted on deterministic data.
    let x = Matrix::from_fn(60, FEATURES, |r, c| value(80, r, c, 2.0));
    let y: Vec<usize> = (0..60)
        .map(|r| usize::from(value(80, r, 0, 2.0) > 0.0))
        .collect();
    let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().max_depth(4)).unwrap();
    irs.push(ModelIr::Tree(TreeIr::from_tree(&tree)));
    irs
}

/// A per-tenant normalizer with non-trivial shift/scale, so the serving
/// path's normalize-then-classify is exercised and any buffer reuse
/// across tenants would corrupt inputs.
fn normalizer_for(index: usize) -> Normalizer {
    Normalizer {
        mean: (0..FEATURES).map(|c| (index + c) as f32 * 0.1).collect(),
        std: (0..FEATURES).map(|c| 1.0 + c as f32 * 0.25).collect(),
    }
}

/// Tenant `index`'s raw stream (different seeds, different sizes, so
/// chunks interleave unevenly).
fn stream_for(index: usize) -> Matrix {
    Matrix::from_fn(50 + index * 13, FEATURES, |r, c| {
        value(index as u64, r, c, 2.0)
    })
}

/// Isolated reference: one tenant at a time, row by row on the scalar
/// tier, with the normalizer applied by hand.
fn isolated_verdicts(irs: &[ModelIr], format: FixedPoint) -> Vec<Vec<usize>> {
    irs.iter()
        .enumerate()
        .map(|(index, ir)| {
            let mut features = stream_for(index);
            let normalizer = normalizer_for(index);
            for r in 0..features.rows() {
                normalizer.apply(features.row_mut(r));
            }
            classify_rows(
                &CompiledPipeline::from_ir_scalar(ir, format).unwrap(),
                &features,
            )
        })
        .collect()
}

#[test]
fn eight_tenants_on_two_workers_match_isolated_runs() {
    let format = FixedPoint::taurus_default();
    let irs = tenant_irs();
    assert_eq!(irs.len(), 8);
    let isolated = isolated_verdicts(&irs, format);

    // 2-worker pool, one-row chunks: maximal cross-tenant interleaving.
    // Then other pool shapes: results must never depend on them.
    for (workers, chunk) in [(2, 1), (2, 17), (8, 3), (3, 0)] {
        let deployment = Deployment::builder()
            .workers(workers)
            .chunk_rows(chunk)
            .build();
        let ids: Vec<_> = irs
            .iter()
            .enumerate()
            .map(|(index, ir)| {
                deployment
                    .add_model(
                        &format!("tenant{index}"),
                        ir,
                        format,
                        Some(normalizer_for(index)),
                    )
                    .unwrap()
            })
            .collect();
        // LUT sharing across the schedule: 4 sigmoid tenants + 1 tanh
        // tenant materialize exactly 2 tables, never one per model.
        assert_eq!(deployment.luts().builds(), 2);
        assert_eq!(deployment.luts().hits(), 3);

        let tickets: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(index, &id)| {
                deployment
                    .submit(TenantBatch::new(id, stream_for(index)))
                    .unwrap()
            })
            .collect();
        for (index, (ticket, solo)) in tickets.into_iter().zip(&isolated).enumerate() {
            assert_eq!(
                &ticket.wait().into_vec(),
                solo,
                "tenant{index} verdicts diverged under contention \
                 (workers={workers} chunk={chunk})"
            );
        }

        // Stats cover all 8 tenants with the right packet counts.
        for (index, stats) in deployment.stats_snapshot().tenants.iter().enumerate() {
            assert_eq!(stats.packets, 50 + index * 13, "tenant{index} packet count");
            assert_eq!(stats.verdict_histogram.iter().sum::<usize>(), stats.packets);
        }
        deployment.shutdown();
    }
}

/// The same eight tenants, but admitted concurrently. (The name predates
/// the monitor ingress and is kept because tier-1 lists it.) What it
/// contends on now: eight producer threads behind `queue_depth(2)`, so
/// six of them are asleep waiting for room at any time and every
/// completion wakes them to race for it, while two workers take one-row
/// chunks off the scheduler lock the producers also need. Contended
/// admission must leak exactly as little across tenants as the
/// sequential path: nothing.
#[test]
fn eight_tenants_through_the_ring_ingress_match_isolated_runs() {
    let format = FixedPoint::taurus_default();
    let irs = tenant_irs();
    let isolated = isolated_verdicts(&irs, format);

    let deployment = Deployment::builder()
        .workers(2)
        .chunk_rows(1)
        .queue_depth(2)
        .build();
    let ids: Vec<_> = irs
        .iter()
        .enumerate()
        .map(|(index, ir)| {
            deployment
                .add_tenant(
                    &format!("tenant{index}"),
                    CompiledPipeline::from_ir(ir, format).unwrap(),
                    Some(normalizer_for(index)),
                )
                .unwrap()
        })
        .collect();

    let served: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(index, &id)| {
                let deployment = &deployment;
                scope.spawn(move || {
                    deployment
                        .submit(TenantBatch::new(id, stream_for(index)))
                        .unwrap()
                        .wait()
                        .into_vec()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    for (index, (got, solo)) in served.iter().zip(&isolated).enumerate() {
        assert_eq!(
            got, solo,
            "tenant{index} verdicts diverged under contended admission"
        );
    }
    deployment.shutdown();
}
