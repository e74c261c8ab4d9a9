//! Lifecycle and QoS guarantees of the persistent `Deployment`.
//!
//! Three contracts the redesign makes, each pinned here:
//!
//! 1. **Graceful teardown** — `drain()` and `shutdown()` complete every
//!    already-accepted ticket; only *new* submissions are refused
//!    (`RuntimeError::Serve`) after shutdown.
//! 2. **Runtime tenancy** — tenants added mid-flight serve immediately;
//!    removed tenants refuse new work while their queued work completes.
//! 3. **Weighted QoS** — under a staged backlog the dispatch sequence is
//!    a deterministic function of the policies, and every tenant's
//!    observed share of dispatched rows tracks its weight share within a
//!    chunk-granularity bound (property-tested over random weights and
//!    batch mixes), with `min_share` floors holding a starved tenant at
//!    its guaranteed fraction.

use homunculus::backends::model::{ModelIr, SvmIr};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::{
    classify_rows, CompiledPipeline, Deployment, RuntimeError, SchedulePolicy, TenantBatch,
};
use proptest::prelude::*;

fn q() -> FixedPoint {
    FixedPoint::taurus_default()
}

/// A hand-built binary SVM: class 1 iff `w . x + b >= 0`.
fn svm_pipeline(weights: Vec<f32>, bias: f32) -> CompiledPipeline {
    CompiledPipeline::from_ir(
        &ModelIr::Svm(SvmIr {
            n_features: weights.len(),
            n_classes: 2,
            planes: Some((vec![weights], vec![bias])),
        }),
        q(),
    )
    .unwrap()
}

fn packets(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 13 + c * 7 + seed as usize * 3) % 29) as f32 / 29.0 - 0.5
    })
}

#[test]
fn drain_completes_every_in_flight_ticket() {
    let deployment = Deployment::builder()
        .workers(2)
        .chunk_rows(3)
        .queue_depth(32)
        .build();
    let id = deployment
        .add_tenant("app", svm_pipeline(vec![1.0, -0.5], 0.1), None)
        .unwrap();
    let reference = svm_pipeline(vec![1.0, -0.5], 0.1);

    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for round in 0..12 {
        let features = packets(17 + round, 2, round as u64);
        expected.push(classify_rows(&reference, &features));
        tickets.push(deployment.submit(TenantBatch::new(id, features)).unwrap());
    }
    deployment.drain();
    for (ticket, expected) in tickets.into_iter().zip(expected) {
        assert!(ticket.is_done(), "drain left a ticket incomplete");
        assert_eq!(ticket.wait().into_vec(), expected);
    }
    // Drain leaves the ingress open: new submissions still serve.
    let verdicts = deployment
        .submit(TenantBatch::new(id, packets(5, 2, 99)))
        .unwrap()
        .wait();
    assert_eq!(verdicts.len(), 5);
}

#[test]
fn shutdown_completes_in_flight_and_rejects_new_submissions() {
    let deployment = Deployment::builder().workers(2).queue_depth(32).build();
    let id = deployment
        .add_tenant("app", svm_pipeline(vec![1.0], 0.0), None)
        .unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|round| {
            deployment
                .submit(TenantBatch::new(id, packets(64, 1, round)))
                .unwrap()
        })
        .collect();
    deployment.shutdown();
    for ticket in tickets {
        assert!(ticket.is_done(), "shutdown left a ticket incomplete");
        assert_eq!(ticket.wait().len(), 64);
    }
    match deployment.submit(TenantBatch::new(id, packets(4, 1, 0))) {
        Err(RuntimeError::Serve(message)) => {
            assert!(
                message.contains("shut down"),
                "unexpected message: {message}"
            );
        }
        other => panic!("post-shutdown submit must fail with RuntimeError::Serve, got {other:?}"),
    }
    assert!(
        deployment
            .try_submit(TenantBatch::new(id, packets(4, 1, 0)))
            .is_err(),
        "post-shutdown try_submit must fail too"
    );
}

#[test]
fn tenants_added_and_removed_at_runtime() {
    let deployment = Deployment::builder().workers(2).paused(true).build();
    let first = deployment
        .add_tenant("first", svm_pipeline(vec![1.0], 0.0), None)
        .unwrap();
    // Queue work for `first`, then remove it while the work is still
    // staged: the accepted ticket must complete, new submits must not.
    let staged = deployment
        .submit(TenantBatch::new(first, packets(20, 1, 0)))
        .unwrap();
    deployment.remove_tenant(first).unwrap();
    assert!(deployment
        .submit(TenantBatch::new(first, packets(4, 1, 1)))
        .is_err());

    // A tenant added mid-flight serves immediately (indices never reuse).
    let second = deployment
        .add_tenant("second", svm_pipeline(vec![-1.0], 0.0), None)
        .unwrap();
    assert_ne!(first.index(), second.index());
    let fresh = deployment
        .submit(TenantBatch::new(second, packets(10, 1, 2)))
        .unwrap();
    deployment.resume();
    deployment.drain();
    assert_eq!(staged.wait().len(), 20, "removed tenant's queued work ran");
    assert_eq!(fresh.wait().len(), 10);

    let snapshot = deployment.stats_snapshot();
    assert!(!snapshot.tenants[first.index()].active);
    assert!(snapshot.tenants[second.index()].active);
    assert_eq!(snapshot.tenants[first.index()].packets, 20);
}

#[test]
fn removed_tenant_with_queued_ingress_rows_completes_accepted_tickets() {
    // Regression for the PR 4 follow-on bug class: removal must only
    // refuse *new* submissions. Accepted tickets whose rows are still
    // sitting in the tenant's lane when the tenant goes away must
    // complete with bit-correct verdicts — under live workers and a deep
    // backlog, not just a paused staging area.
    let deployment = Deployment::builder()
        .workers(2)
        .chunk_rows(2)
        .queue_depth(64)
        .build();
    let doomed = deployment
        .add_tenant("doomed", svm_pipeline(vec![1.0, -0.5], 0.1), None)
        .unwrap();
    let survivor = deployment
        .add_tenant("survivor", svm_pipeline(vec![-1.0, 0.25], 0.0), None)
        .unwrap();
    let doomed_reference = svm_pipeline(vec![1.0, -0.5], 0.1);

    // A deep interleaved backlog: the doomed tenant's rows are spread
    // across many queued chunks when the removal lands.
    let mut doomed_tickets = Vec::new();
    let mut expected = Vec::new();
    for round in 0..16 {
        let features = packets(23, 2, round);
        expected.push(classify_rows(&doomed_reference, &features));
        doomed_tickets.push(
            deployment
                .submit(TenantBatch::new(doomed, features))
                .unwrap(),
        );
        deployment
            .submit(TenantBatch::new(survivor, packets(23, 2, round + 100)))
            .unwrap();
    }
    deployment.remove_tenant(doomed).unwrap();
    // Removal is immediate for new work...
    assert!(matches!(
        deployment.submit(TenantBatch::new(doomed, packets(4, 2, 0))),
        Err(RuntimeError::Serve(_))
    ));
    assert!(deployment.tenant_id("doomed").is_none());
    // ...but every accepted ticket still completes, bit-identically.
    deployment.drain();
    for (ticket, expected) in doomed_tickets.into_iter().zip(expected) {
        assert!(ticket.is_done(), "drain left a removed tenant's ticket");
        assert_eq!(ticket.wait().into_vec(), expected);
    }
    let snapshot = deployment.stats_snapshot();
    assert_eq!(snapshot.tenants[doomed.index()].packets, 16 * 23);
    assert!(!snapshot.tenants[doomed.index()].active);
    assert_eq!(snapshot.queued_rows, 0);
    deployment.shutdown();
}

/// Stages `batches_per_tenant` equal batches per weighted tenant on a
/// paused deployment, resumes, drains, and returns the dispatch log plus
/// per-tenant total rows.
fn staged_weighted_run(
    weights: &[f64],
    min_shares: &[f64],
    batch_rows: usize,
    chunk_rows: usize,
    batches_per_tenant: usize,
    workers: usize,
) -> (Vec<(usize, usize)>, u64) {
    let deployment = Deployment::builder()
        .workers(workers)
        .chunk_rows(chunk_rows)
        .queue_depth(weights.len() * batches_per_tenant)
        .paused(true)
        .record_dispatch(true)
        .build();
    let ids: Vec<_> = weights
        .iter()
        .zip(min_shares)
        .enumerate()
        .map(|(t, (&weight, &min_share))| {
            deployment
                .add_tenant_with(
                    &format!("tenant{t}"),
                    svm_pipeline(vec![1.0, 0.0], 0.0),
                    None,
                    SchedulePolicy { weight, min_share },
                )
                .unwrap()
        })
        .collect();
    let mut tickets = Vec::new();
    for round in 0..batches_per_tenant {
        for &id in &ids {
            tickets.push(
                deployment
                    .submit(TenantBatch::new(id, packets(batch_rows, 2, round as u64)))
                    .unwrap(),
            );
        }
    }
    deployment.resume();
    deployment.drain();
    for ticket in tickets {
        assert!(ticket.is_done());
    }
    let log = deployment.dispatch_log().expect("dispatch recording on");
    deployment.shutdown();
    (log, (batch_rows * batches_per_tenant) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random weight vectors and batch mixes, every tenant's observed
    /// share of dispatched rows over any all-lanes-backlogged prefix
    /// stays within a chunk-granularity bound of its weight share.
    #[test]
    fn prop_weighted_share_error_is_bounded(
        raw_weights in proptest::collection::vec(1u32..16, 2..5),
        chunk_pick in 0usize..3,
        batches_per_tenant in 6usize..14,
        workers in 1usize..4,
    ) {
        let chunk_rows = [4usize, 8, 16][chunk_pick];
        let batch_rows = chunk_rows * 3;
        let weights: Vec<f64> = raw_weights.iter().map(|&w| w as f64).collect();
        let min_shares = vec![0.0; weights.len()];
        let (log, per_tenant_total) = staged_weighted_run(
            &weights,
            &min_shares,
            batch_rows,
            chunk_rows,
            batches_per_tenant,
            workers,
        );
        let weight_sum: f64 = weights.iter().sum();

        // Replay the dispatch sequence and check every prefix after a
        // short warmup, stopping once any lane drains (the remaining
        // lanes then split its share by design).
        let warmup_rows = (chunk_rows * weights.len() * 3) as u64;
        let mut served = vec![0u64; weights.len()];
        let mut total = 0u64;
        for &(lane, rows) in &log {
            served[lane] += rows as u64;
            total += rows as u64;
            if served.iter().any(|&s| s >= per_tenant_total) {
                break;
            }
            if total < warmup_rows {
                continue;
            }
            // Stride scheduling lags the ideal fluid schedule by at most
            // ~one chunk per lane at any instant.
            let bound = (chunk_rows * weights.len()) as f64 / total as f64 + 1e-9;
            for (index, &rows_served) in served.iter().enumerate() {
                let share = rows_served as f64 / total as f64;
                let expected = weights[index] / weight_sum;
                prop_assert!(
                    (share - expected).abs() <= bound,
                    "lane {index}: share {share:.4} vs expected {expected:.4} \
                     (bound {bound:.4}, prefix {total} rows)"
                );
            }
        }
        prop_assert!(total > 0, "no rows dispatched");
    }

    /// The staged dispatch sequence is a deterministic function of the
    /// policies: identical runs produce identical logs under any worker
    /// count.
    #[test]
    fn prop_staged_dispatch_order_is_deterministic(
        raw_weights in proptest::collection::vec(1u32..8, 2..4),
        workers_a in 1usize..4,
        workers_b in 1usize..4,
    ) {
        let weights: Vec<f64> = raw_weights.iter().map(|&w| w as f64).collect();
        let min_shares = vec![0.0; weights.len()];
        let (log_a, _) = staged_weighted_run(&weights, &min_shares, 12, 4, 5, workers_a);
        let (log_b, _) = staged_weighted_run(&weights, &min_shares, 12, 4, 5, workers_b);
        prop_assert_eq!(log_a, log_b);
    }
}

#[test]
fn min_share_floor_holds_a_starved_tenant_at_its_guarantee() {
    // Tenant 0 has a tiny weight but a 0.3 floor; tenants 1 and 2 carry
    // the weight. Without the floor tenant 0's proportional share would
    // be 0.05/8.05 ≈ 0.6%; the floor must hold it at ~30% of dispatched
    // rows over every backlogged prefix.
    let weights = [0.05, 4.0, 4.0];
    let min_shares = [0.3, 0.0, 0.0];
    let chunk_rows = 8;
    let (log, per_tenant_total) = staged_weighted_run(&weights, &min_shares, 24, chunk_rows, 10, 2);

    let warmup_rows = (chunk_rows * weights.len() * 4) as u64;
    let mut served = vec![0u64; weights.len()];
    let mut total = 0u64;
    let mut checked = 0usize;
    for &(lane, rows) in &log {
        served[lane] += rows as u64;
        total += rows as u64;
        if served.iter().any(|&s| s >= per_tenant_total) {
            break;
        }
        if total < warmup_rows {
            continue;
        }
        let share = served[0] as f64 / total as f64;
        let slack = chunk_rows as f64 / total as f64;
        assert!(
            share >= min_shares[0] - slack,
            "floored tenant share {share:.4} fell below its {} guarantee (prefix {total} rows)",
            min_shares[0]
        );
        checked += 1;
    }
    assert!(checked > 10, "too few backlogged prefixes checked");
}
