//! Traffic replay and end-to-end streaming evaluation.
//!
//! The paper's testbed uses two 80-core servers running MoonGen to pump
//! traffic through the switch+FPGA pipeline (§5.2). This module is the
//! simulated equivalent: a labeled feature stream is replayed through a
//! timing model (taken from the grid or MAT simulator), the model under
//! test classifies every packet, and the harness reports both *accuracy*
//! (F1) and *timing* (throughput, per-packet reaction time).
//!
//! The headline reaction-time claim — botnet verdicts "in a few hundred
//! nanoseconds" instead of waiting 3,600 s for flow-level histograms
//! (§5.1.2) — is measured exactly here: reaction time = admission-to-
//! verdict latency of the packet that first flips the classification.

use crate::{Result, SimError};
use homunculus_ml::metrics::{accuracy, f1_binary, f1_macro};
use homunculus_runtime::{CompiledPipeline, Scratch};

/// One labeled packet-equivalent in a replayed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// Feature vector the data plane extracted for this packet.
    pub features: Vec<f32>,
    /// Ground-truth class.
    pub label: usize,
}

/// Timing parameters of the pipeline under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Nanoseconds between packet admissions (1 / throughput).
    pub inter_packet_gap_ns: f64,
    /// Admission-to-verdict latency per packet, in ns.
    pub pipeline_latency_ns: f64,
}

impl TimingModel {
    /// From a grid-simulator report.
    pub fn from_grid(report: &crate::grid::SimReport) -> Self {
        TimingModel {
            inter_packet_gap_ns: 1.0 / report.throughput_gpps,
            pipeline_latency_ns: report.latency_ns,
        }
    }

    /// From a MAT-simulator report.
    pub fn from_mat(report: &crate::mat::MatReport) -> Self {
        TimingModel {
            inter_packet_gap_ns: 1.0 / report.throughput_gpps,
            pipeline_latency_ns: report.latency_ns,
        }
    }

    /// A fixed-parameter model.
    pub fn fixed(gap_ns: f64, latency_ns: f64) -> Self {
        TimingModel {
            inter_packet_gap_ns: gap_ns,
            pipeline_latency_ns: latency_ns,
        }
    }
}

/// Results of an end-to-end streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Packets classified.
    pub packets: usize,
    /// Binary F1 (positive class = 1); NaN when labels exceed binary.
    pub f1: f64,
    /// Macro F1 over all observed classes.
    pub macro_f1: f64,
    /// Plain accuracy.
    pub accuracy: f64,
    /// Wall-clock of the replay in ns (admission of last packet + drain).
    pub elapsed_ns: f64,
    /// Achieved throughput in GPkt/s.
    pub achieved_gpps: f64,
    /// Per-packet reaction time (admission -> verdict) in ns.
    pub reaction_time_ns: f64,
}

/// The streaming evaluation harness.
///
/// # Example
///
/// ```
/// use homunculus_sim::pktgen::{LabeledSample, StreamHarness, TimingModel};
///
/// # fn main() -> Result<(), homunculus_sim::SimError> {
/// let stream: Vec<LabeledSample> = (0..100)
///     .map(|i| LabeledSample {
///         features: vec![i as f32],
///         label: usize::from(i >= 50),
///     })
///     .collect();
/// let harness = StreamHarness::new(TimingModel::fixed(1.0, 100.0));
/// let report = harness.run(&stream, |f| usize::from(f[0] > 49.5))?;
/// assert_eq!(report.packets, 100);
/// assert!((report.f1 - 1.0).abs() < 1e-9);
/// assert_eq!(report.reaction_time_ns, 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamHarness {
    timing: TimingModel,
}

impl StreamHarness {
    /// Creates a harness with the given timing model.
    pub fn new(timing: TimingModel) -> Self {
        StreamHarness { timing }
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Replays `stream` through `classify`, collecting accuracy + timing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty stream.
    pub fn run<F>(&self, stream: &[LabeledSample], mut classify: F) -> Result<StreamReport>
    where
        F: FnMut(&[f32]) -> usize,
    {
        if stream.is_empty() {
            return Err(SimError::InvalidConfig("empty packet stream".into()));
        }
        let mut y_true = Vec::with_capacity(stream.len());
        let mut y_pred = Vec::with_capacity(stream.len());
        for sample in stream {
            y_true.push(sample.label);
            y_pred.push(classify(&sample.features));
        }
        self.report_for(&y_true, &y_pred)
    }

    /// Builds a [`StreamReport`] from truth/prediction vectors under this
    /// harness's timing model. Replay is per packet: every verdict is
    /// available one pipeline latency after its own admission.
    fn report_for(&self, y_true: &[usize], y_pred: &[usize]) -> Result<StreamReport> {
        let n_classes = y_true.iter().chain(y_pred).copied().max().unwrap_or(0) + 1;
        let f1 = if n_classes <= 2 {
            f1_binary(y_true, y_pred).map_err(|e| SimError::InvalidConfig(e.to_string()))?
        } else {
            f64::NAN
        };
        let macro_f1 = f1_macro(n_classes.max(2), y_true, y_pred)
            .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        let acc = accuracy(y_true, y_pred).map_err(|e| SimError::InvalidConfig(e.to_string()))?;

        let n = y_true.len() as f64;
        let elapsed_ns =
            (n - 1.0) * self.timing.inter_packet_gap_ns + self.timing.pipeline_latency_ns;
        Ok(StreamReport {
            packets: y_true.len(),
            f1,
            macro_f1,
            accuracy: acc,
            elapsed_ns,
            achieved_gpps: n / elapsed_ns.max(f64::MIN_POSITIVE),
            reaction_time_ns: self.timing.pipeline_latency_ns,
        })
    }

    /// Replays `stream` through a compiled integer pipeline — the
    /// deployment-faithful path: the same fixed-point arithmetic the
    /// generated data-plane code executes, with one scratch reused across
    /// all packets (zero allocation per packet).
    ///
    /// The float-closure [`StreamHarness::run`] stays available as the
    /// reference oracle for agreement tests; this entry is that replay
    /// behind a per-packet width check (a stream is input from outside the
    /// program, and `classify` panics on a ragged row).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty stream or when the
    /// stream's feature width disagrees with the pipeline.
    ///
    /// # Example
    ///
    /// ```
    /// use homunculus_backends::model::{DnnIr, ModelIr};
    /// use homunculus_ml::mlp::{Mlp, MlpArchitecture};
    /// use homunculus_ml::quantize::FixedPoint;
    /// use homunculus_runtime::Compile;
    /// use homunculus_sim::pktgen::{LabeledSample, StreamHarness, TimingModel};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let net = Mlp::new(&MlpArchitecture::new(2, vec![4], 2), 1)?;
    /// let pipeline = ModelIr::Dnn(DnnIr::from_mlp(&net)).compile(FixedPoint::taurus_default())?;
    /// let stream: Vec<LabeledSample> = (0..10)
    ///     .map(|i| LabeledSample { features: vec![i as f32 * 0.1, 0.5], label: i % 2 })
    ///     .collect();
    /// let harness = StreamHarness::new(TimingModel::fixed(1.0, 100.0));
    /// let report = harness.run_compiled(&stream, &pipeline)?;
    /// assert_eq!(report.packets, 10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_compiled(
        &self,
        stream: &[LabeledSample],
        pipeline: &CompiledPipeline,
    ) -> Result<StreamReport> {
        check_stream_width(stream, pipeline.n_features())?;
        let mut scratch = Scratch::new();
        self.run(stream, |features| pipeline.classify(features, &mut scratch))
    }
}

/// Streams can be ragged (samples carry their own vectors) — check every
/// packet up front rather than panicking mid-replay inside classify().
fn check_stream_width(stream: &[LabeledSample], expected: usize) -> Result<()> {
    for (index, sample) in stream.iter().enumerate() {
        if sample.features.len() != expected {
            return Err(SimError::InvalidConfig(format!(
                "stream packet {index} has {} features but pipeline expects {expected}",
                sample.features.len()
            )));
        }
    }
    Ok(())
}

/// The sequential reference result of a multi-hop path replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PathReport {
    /// Packets replayed.
    pub packets: usize,
    /// Hops each packet can traverse.
    pub hops: usize,
    /// Per-packet verdict of the *last hop the packet reached* —
    /// `None` only for the impossible zero-hop path.
    pub final_verdicts: Vec<Option<usize>>,
    /// Per-hop count of packets gated (dropped) at that hop.
    pub gated_per_hop: Vec<usize>,
    /// Packets that survived every hop.
    pub delivered: usize,
}

/// Replays `stream` through a linear chain of `hops` classifiers, one
/// packet at a time — the hand-computable *reference semantics* for
/// graph-routed fleet serving (`homunculus-fleet` must agree with this
/// on any linear path).
///
/// Per packet: a tag starts at `0.0`; each hop calls
/// `classify(hop, features, tag)`; a verdict equal to `drop_class` gates
/// the packet (it visits no further hop); otherwise, when `retag` is
/// set, the verdict becomes the tag the next hop sees.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an empty stream or zero hops.
pub fn replay_path<F>(
    stream: &[LabeledSample],
    hops: usize,
    drop_class: Option<usize>,
    retag: bool,
    mut classify: F,
) -> Result<PathReport>
where
    F: FnMut(usize, &[f32], f32) -> usize,
{
    if stream.is_empty() {
        return Err(SimError::InvalidConfig("empty stream".into()));
    }
    if hops == 0 {
        return Err(SimError::InvalidConfig(
            "a path needs at least one hop".into(),
        ));
    }
    let mut final_verdicts = Vec::with_capacity(stream.len());
    let mut gated_per_hop = vec![0usize; hops];
    let mut delivered = 0usize;
    for sample in stream {
        let mut tag = 0.0f32;
        let mut last = None;
        let mut survived = true;
        for (hop, gate_count) in gated_per_hop.iter_mut().enumerate() {
            let verdict = classify(hop, &sample.features, tag);
            last = Some(verdict);
            if drop_class == Some(verdict) {
                *gate_count += 1;
                survived = false;
                break;
            }
            if retag {
                tag = verdict as f32;
            }
        }
        if survived {
            delivered += 1;
        }
        final_verdicts.push(last);
    }
    Ok(PathReport {
        packets: stream.len(),
        hops,
        final_verdicts,
        gated_per_hop,
        delivered,
    })
}

/// A point on a reaction-time curve: quality after observing a prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactionPoint {
    /// Packets of each flow observed before predicting.
    pub packets_seen: usize,
    /// F1 at that horizon.
    pub f1: f64,
    /// Reaction time in nanoseconds: time until the verdict for the
    /// `packets_seen`-th packet is available.
    pub reaction_time_ns: f64,
}

/// Builds the reaction-time curve of the paper's §5.1.1 argument: how
/// classification quality grows as more packets (and thus fuller partial
/// histograms) are observed, and what that costs in reaction time.
///
/// `evaluate` maps a packets-seen horizon to `(y_true, y_pred)` vectors;
/// `mean_inter_packet_gap_ns` converts horizons to waiting time.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for empty horizons or evaluation
/// outputs.
pub fn reaction_time_curve<F>(
    horizons: &[usize],
    mean_inter_packet_gap_ns: f64,
    pipeline_latency_ns: f64,
    mut evaluate: F,
) -> Result<Vec<ReactionPoint>>
where
    F: FnMut(usize) -> (Vec<usize>, Vec<usize>),
{
    if horizons.is_empty() {
        return Err(SimError::InvalidConfig("no horizons".into()));
    }
    horizons
        .iter()
        .map(|&packets_seen| {
            let (y_true, y_pred) = evaluate(packets_seen);
            if y_true.is_empty() {
                return Err(SimError::InvalidConfig("empty evaluation".into()));
            }
            let f1 =
                f1_binary(&y_true, &y_pred).map_err(|e| SimError::InvalidConfig(e.to_string()))?;
            Ok(ReactionPoint {
                packets_seen,
                f1,
                reaction_time_ns: packets_seen.saturating_sub(1) as f64 * mean_inter_packet_gap_ns
                    + pipeline_latency_ns,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<LabeledSample> {
        (0..n)
            .map(|i| LabeledSample {
                features: vec![i as f32, (n - i) as f32],
                label: usize::from(i % 2 == 0),
            })
            .collect()
    }

    #[test]
    fn replay_path_gates_and_tags() {
        let s = stream(10);
        // Hop 0 classifies by parity; later hops echo the incoming tag.
        // Gating class 0 at any hop means odd-indexed packets (parity 0)
        // die at hop 0 and even-indexed ones survive all three hops.
        let report = replay_path(&s, 3, Some(0), true, |hop, f, tag| {
            if hop == 0 {
                usize::from((f[0] as usize) % 2 == 0)
            } else {
                tag as usize
            }
        })
        .unwrap();
        assert_eq!(report.packets, 10);
        assert_eq!(report.gated_per_hop, vec![5, 0, 0]);
        assert_eq!(report.delivered, 5);
        for (i, v) in report.final_verdicts.iter().enumerate() {
            assert_eq!(*v, Some(usize::from(i % 2 == 0)));
        }
    }

    #[test]
    fn replay_path_without_retag_keeps_zero_tag() {
        let s = stream(4);
        // Every hop returns tag + 1 truncated; with retag off the tag
        // stays 0, so every hop sees the same input and verdicts stay 1.
        let report = replay_path(&s, 3, None, false, |_, _, tag| tag as usize + 1).unwrap();
        assert!(report.final_verdicts.iter().all(|v| *v == Some(1)));
        assert_eq!(report.delivered, 4);
    }

    #[test]
    fn replay_path_rejects_degenerate_inputs() {
        assert!(replay_path(&[], 2, None, true, |_, _, _| 0).is_err());
        assert!(replay_path(&stream(2), 0, None, true, |_, _, _| 0).is_err());
    }

    #[test]
    fn perfect_classifier_yields_unit_scores() {
        let s = stream(50);
        let harness = StreamHarness::new(TimingModel::fixed(1.0, 120.0));
        let report = harness
            .run(&s, |f| usize::from((f[0] as usize) % 2 == 0))
            .unwrap();
        assert!((report.f1 - 1.0).abs() < 1e-12);
        assert!((report.accuracy - 1.0).abs() < 1e-12);
        assert_eq!(report.reaction_time_ns, 120.0);
    }

    #[test]
    fn throughput_reflects_gap() {
        let s = stream(1001);
        let harness = StreamHarness::new(TimingModel::fixed(1.0, 0.0));
        let report = harness.run(&s, |_| 0).unwrap();
        // 1 ns gap => ~1 GPkt/s.
        assert!(
            (report.achieved_gpps - 1.0).abs() < 0.01,
            "{}",
            report.achieved_gpps
        );
    }

    #[test]
    fn empty_stream_rejected() {
        let harness = StreamHarness::new(TimingModel::fixed(1.0, 1.0));
        assert!(matches!(
            harness.run(&[], |_| 0),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn multiclass_stream_reports_macro_f1() {
        let s: Vec<LabeledSample> = (0..30)
            .map(|i| LabeledSample {
                features: vec![i as f32],
                label: i % 3,
            })
            .collect();
        let harness = StreamHarness::new(TimingModel::fixed(1.0, 1.0));
        let report = harness.run(&s, |f| (f[0] as usize) % 3).unwrap();
        assert!(report.f1.is_nan(), "binary f1 undefined for 3 classes");
        assert!((report.macro_f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_compiled_matches_float_oracle() {
        use homunculus_backends::model::{DnnIr, ModelIr};
        use homunculus_ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
        use homunculus_ml::quantize::FixedPoint;
        use homunculus_ml::tensor::Matrix;
        use homunculus_runtime::Compile;

        let x = Matrix::from_fn(60, 2, |r, c| {
            let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
            sign * (0.9 + 0.05 * c as f32)
        });
        let y: Vec<usize> = (0..60).map(|r| r % 2).collect();
        let mut net = Mlp::new(&MlpArchitecture::new(2, vec![6], 2), 4).unwrap();
        net.train(&x, &y, &TrainConfig::default().epochs(60))
            .unwrap();
        let pipeline = ModelIr::Dnn(DnnIr::from_mlp(&net))
            .compile(FixedPoint::taurus_default())
            .unwrap();

        let stream: Vec<LabeledSample> = (0..x.rows())
            .map(|i| LabeledSample {
                features: x.row(i).to_vec(),
                label: y[i],
            })
            .collect();
        let harness = StreamHarness::new(TimingModel::fixed(1.0, 120.0));
        let compiled_report = harness.run_compiled(&stream, &pipeline).unwrap();
        let float_report = harness
            .run(&stream, |f| net.predict_row(f).unwrap())
            .unwrap();
        assert_eq!(compiled_report.packets, 60);
        assert_eq!(compiled_report.reaction_time_ns, 120.0);
        // The integer path preserves the float path's quality on a
        // comfortably separable stream.
        assert!(
            (compiled_report.f1 - float_report.f1).abs() < 0.05,
            "float f1 {} vs compiled f1 {}",
            float_report.f1,
            compiled_report.f1
        );
    }

    #[test]
    fn run_compiled_rejects_feature_width_mismatch() {
        use homunculus_backends::model::{DnnIr, ModelIr};
        use homunculus_ml::mlp::{Mlp, MlpArchitecture};
        use homunculus_ml::quantize::FixedPoint;
        use homunculus_runtime::Compile;

        let net = Mlp::new(&MlpArchitecture::new(3, vec![4], 2), 0).unwrap();
        let pipeline = ModelIr::Dnn(DnnIr::from_mlp(&net))
            .compile(FixedPoint::taurus_default())
            .unwrap();
        let harness = StreamHarness::new(TimingModel::fixed(1.0, 1.0));
        let stream = vec![LabeledSample {
            features: vec![1.0, 2.0],
            label: 0,
        }];
        assert!(matches!(
            harness.run_compiled(&stream, &pipeline),
            Err(SimError::InvalidConfig(_))
        ));

        // Ragged stream: the first packet is fine, a later one is not —
        // still an error, never a mid-replay panic.
        let ragged = vec![
            LabeledSample {
                features: vec![1.0, 2.0, 3.0],
                label: 0,
            },
            LabeledSample {
                features: vec![1.0, 2.0],
                label: 1,
            },
        ];
        assert!(matches!(
            harness.run_compiled(&ragged, &pipeline),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn timing_model_conversions() {
        let grid_report = crate::grid::SimReport {
            packets: 10,
            total_cycles: 100,
            initiation_interval: 2,
            pipeline_latency_cycles: 40,
            latency_ns: 40.0,
            throughput_gpps: 0.5,
        };
        let t = TimingModel::from_grid(&grid_report);
        assert_eq!(t.inter_packet_gap_ns, 2.0);
        assert_eq!(t.pipeline_latency_ns, 40.0);

        let mat_report = crate::mat::MatReport {
            packets: 10,
            tables_used: 5,
            stages_used: 2,
            latency_ns: 116.0,
            throughput_gpps: 1.0,
        };
        let t = TimingModel::from_mat(&mat_report);
        assert_eq!(t.inter_packet_gap_ns, 1.0);
        assert_eq!(t.pipeline_latency_ns, 116.0);
    }

    #[test]
    fn reaction_curve_improves_with_horizon() {
        // Simulated: more packets seen => better predictions.
        let points = reaction_time_curve(&[1, 5, 25], 1000.0, 100.0, |seen| {
            let quality = (seen as f64 / 25.0).min(1.0);
            let n = 100;
            let y_true: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let y_pred: Vec<usize> = (0..n)
                .map(|i| {
                    if (i as f64 / n as f64) < quality {
                        i % 2
                    } else {
                        1 - (i % 2)
                    }
                })
                .collect();
            (y_true, y_pred)
        })
        .unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[2].f1 > points[0].f1);
        // Reaction time grows linearly with packets waited.
        assert_eq!(points[0].reaction_time_ns, 100.0);
        assert_eq!(points[1].reaction_time_ns, 4.0 * 1000.0 + 100.0);
    }

    #[test]
    fn reaction_curve_rejects_empty() {
        assert!(reaction_time_curve(&[], 1.0, 1.0, |_| (vec![], vec![])).is_err());
        assert!(reaction_time_curve(&[1], 1.0, 1.0, |_| (vec![], vec![])).is_err());
    }
}
