//! The sequential reference for multi-hop serving.
//!
//! [`replay_path`] walks a labeled stream through a linear chain of
//! classifiers one packet at a time: the hand-computable semantics that
//! graph-routed fleet serving must reproduce on any linear path.

use crate::{Result, SimError};

/// One labeled packet-equivalent in a replayed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSample {
    /// Feature vector the data plane extracted for this packet.
    pub features: Vec<f32>,
    /// Ground-truth class.
    pub label: usize,
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
}
