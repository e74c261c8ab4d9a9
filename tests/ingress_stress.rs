//! Concurrency stress tests for the deployment ingress.
//!
//! The ingress is one monitor — the scheduler mutex and two condition
//! variables (`runtime::deploy` module docs) — so what can go wrong is a
//! wake-up that is never sent: a run that hangs, not one that fails.
//! These tests hammer the paths a single-threaded suite never exercises,
//! and `make stress` repeats them under a time limit:
//!
//! 1. **Multi-producer races** — many submit threads × many tenants, with
//!    cancellation and `drain()` racing the producers, behind a queue
//!    depth as small as the producer count so submitters block and are
//!    woken all the way through. No ticket may be lost or duplicated, and
//!    every uncancelled ticket's verdicts must be bit-identical to a
//!    sequential replay.
//! 2. **A full ingress never deadlocks** — blocked admission is bounded
//!    by the submit deadline even when the deployment is paused and every
//!    gate is saturated; accepted work still completes after `resume()`.
//! 3. **Windowed fairness floors** (property test) — over arbitrary
//!    backlogged submission prefixes, a floored tenant's share of
//!    dispatched rows holds its guarantee under the decaying window
//!    accounting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use homunculus::backends::model::{ModelIr, SvmIr};
use homunculus::ml::quantize::FixedPoint;
use homunculus::ml::tensor::Matrix;
use homunculus::runtime::{
    classify_rows, CompiledPipeline, Deployment, RuntimeError, SchedulePolicy, TenantBatch,
};
use proptest::prelude::*;

/// A hand-built binary SVM: class 1 iff `w . x + b >= 0`.
fn svm_pipeline(weights: Vec<f32>, bias: f32) -> CompiledPipeline {
    CompiledPipeline::from_ir(
        &ModelIr::Svm(SvmIr {
            n_features: weights.len(),
            n_classes: 2,
            planes: Some((vec![weights], vec![bias])),
        }),
        FixedPoint::taurus_default(),
    )
    .unwrap()
}

fn tenant_pipeline(tenant: usize) -> CompiledPipeline {
    let t = tenant as f32;
    svm_pipeline(vec![1.0 - t * 0.4, t * 0.3 - 0.5], 0.05 * t)
}

fn packets(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 13 + c * 7 + seed as usize * 3) % 29) as f32 / 29.0 - 0.5
    })
}

#[test]
fn multi_producer_hammer_preserves_every_ticket_bitwise() {
    const TENANTS: usize = 3;
    const PRODUCERS: usize = 4;
    const BATCHES_PER_PRODUCER: usize = 24;

    // Four tickets of depth under 4 producers (and `drain()` on the same
    // condvar): every producer blocks for room and is woken by a
    // completion over and over, so admission runs saturated for the whole
    // test.
    let deployment = Deployment::builder()
        .workers(2)
        .chunk_rows(5)
        .queue_depth(4)
        .build();
    let ids: Vec<_> = (0..TENANTS)
        .map(|t| {
            deployment
                .add_tenant(&format!("tenant{t}"), tenant_pipeline(t), None)
                .unwrap()
        })
        .collect();
    let references: Vec<_> = (0..TENANTS).map(tenant_pipeline).collect();

    let accepted = AtomicUsize::new(0);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for producer in 0..PRODUCERS {
            let deployment = &deployment;
            let ids = &ids;
            let accepted = &accepted;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                for iteration in 0..BATCHES_PER_PRODUCER {
                    let tenant = (producer + iteration) % TENANTS;
                    let rows = 1 + (producer * 7 + iteration * 3) % 33;
                    let seed = (producer * 1000 + iteration) as u64;
                    let ticket = deployment
                        .submit(TenantBatch::new(ids[tenant], packets(rows, 2, seed)))
                        .unwrap();
                    accepted.fetch_add(1, Ordering::Relaxed);
                    // Race a cancellation against the workers on every
                    // fifth ticket; either side may win.
                    if iteration % 5 == 4 {
                        ticket.cancel();
                    }
                    local.push((tenant, rows, seed, ticket));
                }
                local
            }));
        }
        // Race teardown-adjacent traffic against the producers: drain is
        // documented to complete accepted work while leaving the ingress
        // open, so it must be safe mid-hammer.
        for _ in 0..4 {
            deployment.drain();
            std::thread::yield_now();
        }
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap())
            .collect()
    });
    deployment.drain();

    assert_eq!(outcomes.len(), PRODUCERS * BATCHES_PER_PRODUCER);
    for (tenant, rows, seed, ticket) in outcomes {
        assert!(ticket.is_done(), "drain left a hammered ticket incomplete");
        let cancelled = ticket.is_cancelled();
        let verdicts = ticket.wait();
        assert_eq!(verdicts.len(), rows, "ticket verdict count drifted");
        let replay = classify_rows(&references[tenant], &packets(rows, 2, seed));
        if verdicts.cancelled_rows() == 0 {
            assert_eq!(
                verdicts.as_slice(),
                &replay[..],
                "uncancelled ticket diverged from sequential replay"
            );
        } else {
            assert!(cancelled);
            // A cancelled chunk leaves its slots at the zero verdict; an
            // already-classified chunk keeps its exact replay bytes.
            for (slot, (&got, &want)) in verdicts.as_slice().iter().zip(&replay).enumerate() {
                assert!(
                    got == want || got == 0,
                    "cancelled ticket slot {slot}: verdict {got} is neither \
                     the replay value {want} nor the zero fill"
                );
            }
        }
    }

    // No ticket lost, none duplicated: the deployment's own accounting
    // agrees with what the producers observed.
    let stats = deployment.stats_snapshot();
    assert_eq!(
        stats.submitted_tickets,
        accepted.load(Ordering::Relaxed) as u64
    );
    assert_eq!(stats.completed_tickets, stats.submitted_tickets);
    assert_eq!(stats.queued_rows, 0, "drain left queued rows behind");
    deployment.shutdown();
}

#[test]
fn saturated_admission_deadlines_instead_of_deadlocking() {
    // Pause the deployment so nothing drains, saturate the two-ticket
    // admission gate from eight threads, and rely on the submit deadline
    // to bound every blocked producer. The test completing at all is the
    // no-deadlock assertion; the accepted tickets must still serve after
    // resume.
    let deployment = Deployment::builder()
        .workers(1)
        .chunk_rows(16)
        .queue_depth(2)
        .submit_deadline(Duration::from_millis(50))
        .paused(true)
        .build();
    let id = deployment
        .add_tenant("app", tenant_pipeline(0), None)
        .unwrap();
    let reference = tenant_pipeline(0);

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|producer| {
                let deployment = &deployment;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for attempt in 0..4u64 {
                        let seed = producer * 100 + attempt;
                        local.push((
                            seed,
                            deployment.submit(TenantBatch::new(id, packets(16, 2, seed))),
                        ));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap())
            .collect()
    });

    let mut admitted = Vec::new();
    let mut deadlined = 0usize;
    for (seed, result) in results {
        match result {
            Ok(ticket) => admitted.push((seed, ticket)),
            Err(RuntimeError::Deadline(_)) => deadlined += 1,
            Err(other) => panic!("saturated submit failed with {other}"),
        }
    }
    // With a two-ticket gate and a paused pipeline, the vast majority of
    // the 32 attempts must bounce off the deadline — and at least the
    // first ones through must be admitted.
    assert!(!admitted.is_empty(), "no submission was ever admitted");
    assert!(
        deadlined >= admitted.len(),
        "expected most saturated submissions to deadline, got {deadlined}"
    );

    deployment.resume();
    deployment.drain();
    for (seed, ticket) in admitted {
        let expected = classify_rows(&reference, &packets(16, 2, seed));
        assert_eq!(
            ticket.wait().into_vec(),
            expected,
            "admitted ticket diverged after the deadline storm"
        );
    }
    deployment.shutdown();
}

/// Stages arbitrary per-tenant backlogs on a paused deployment with a
/// small fairness window, resumes, drains, and returns the dispatch log
/// plus the per-lane staged row totals.
fn staged_windowed_run(
    weights: &[f64],
    min_shares: &[f64],
    batch_rows: usize,
    chunk_rows: usize,
    batches_per_tenant: usize,
    window_rows: u64,
    workers: usize,
) -> (Vec<(usize, usize)>, u64) {
    let deployment = Deployment::builder()
        .workers(workers)
        .chunk_rows(chunk_rows)
        .queue_depth(weights.len() * batches_per_tenant)
        .fairness_window_rows(window_rows)
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Windowed floor accounting: tenant 0 carries a tiny weight but a
    /// guaranteed floor, the other tenants carry arbitrary weights. Over
    /// every all-lanes-backlogged prefix past warmup, the floored
    /// tenant's observed share must hold its guarantee to within the
    /// window's chunk-granularity resolution — for arbitrary backlog
    /// mixes, worker counts, and window sizes.
    #[test]
    fn prop_windowed_floor_holds_over_backlogged_prefixes(
        raw_weights in proptest::collection::vec(2u32..10, 1..3),
        floor_percent in 12u32..35,
        batches_per_tenant in 6usize..12,
        window_pick in 0usize..3,
        workers in 1usize..3,
    ) {
        let chunk_rows = 8usize;
        let batch_rows = 24usize;
        let window_rows = [512u64, 1024, 2048][window_pick];
        let floor = floor_percent as f64 / 100.0;

        let mut weights = vec![0.05];
        weights.extend(raw_weights.iter().map(|&w| w as f64));
        let mut min_shares = vec![floor];
        min_shares.extend(std::iter::repeat_n(0.0, raw_weights.len()));

        let (log, per_tenant_total) = staged_windowed_run(
            &weights,
            &min_shares,
            batch_rows,
            chunk_rows,
            batches_per_tenant,
            window_rows,
            workers,
        );

        let lanes = weights.len();
        let warmup_rows = (chunk_rows * lanes * 4) as u64;
        let mut served = vec![0u64; lanes];
        let mut total = 0u64;
        let mut checked = 0usize;
        for &(lane, rows) in &log {
            served[lane] += rows as u64;
            total += rows as u64;
            if served.iter().any(|&s| s >= per_tenant_total) {
                // A drained lane forfeits its share to the rest.
                break;
            }
            if total < warmup_rows {
                continue;
            }
            let share = served[0] as f64 / total as f64;
            // The decaying window caps accounting resolution at roughly
            // one chunk per lane per window, on top of the one-chunk
            // quantization any prefix carries.
            let slack = (chunk_rows * lanes) as f64 / (total.min(window_rows) as f64);
            prop_assert!(
                share >= floor - slack,
                "floored tenant share {share:.4} fell below its {floor:.2} \
                 guarantee (slack {slack:.4}, prefix {total} rows, \
                 window {window_rows})"
            );
            checked += 1;
        }
        prop_assert!(checked > 5, "too few backlogged prefixes checked");
    }
}
