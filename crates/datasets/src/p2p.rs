//! Synthetic P2P/botnet flow traces (the FlowLens BD application).
//!
//! The paper's botnet-detection dataset "consists of P2P applications that
//! include traces from botnets (such as Storm and Waledac) as well as
//! benign traces from uTorrent, Vuze, eMule, and Frostwire" (§5). Botnets
//! are separable because they "communicate via low-volume and
//! high-duration flows compared to benign P2P applications" (§5.1.1) —
//! their packet-size and inter-arrival-time histograms look different
//! *early*, with few packets observed, which is the paper's motivation for
//! per-packet (partial-histogram) inference.
//!
//! This generator produces whole conversations ([`FlowTrace`]) so the
//! benchmarks can build:
//!
//! - Figure 6's averaged PL/IPT histograms,
//! - full-flow flowmarker datasets (training),
//! - per-packet *partial* histogram datasets (evaluation), and
//! - streaming reaction-time experiments.

use crate::dataset::Dataset;
use crate::histogram::{Flowmarker, FlowmarkerConfig};
use crate::packet::{Packet, Protocol};
use crate::sampling::{categorical, log_normal, normal};
use homunculus_ml::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// The six P2P applications in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum P2pApp {
    /// Storm botnet.
    Storm,
    /// Waledac botnet.
    Waledac,
    /// uTorrent file sharing.
    UTorrent,
    /// Vuze file sharing.
    Vuze,
    /// eMule file sharing.
    EMule,
    /// FrostWire file sharing.
    FrostWire,
}

impl P2pApp {
    /// Whether the application is a botnet.
    pub fn is_botnet(self) -> bool {
        matches!(self, P2pApp::Storm | P2pApp::Waledac)
    }

    /// Binary label: benign = 0, botnet = 1.
    pub fn label(self) -> usize {
        usize::from(self.is_botnet())
    }
}

/// One conversation: the application, its label, and its packet train.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTrace {
    /// Which P2P application produced the flow.
    pub app: P2pApp,
    /// Binary label (1 = botnet).
    pub label: usize,
    /// The packets, in timestamp order.
    pub packets: Vec<Packet>,
}

impl FlowTrace {
    /// Builds the full-flow flowmarker of this trace.
    pub fn flowmarker(&self, config: FlowmarkerConfig) -> Flowmarker {
        let mut marker = Flowmarker::new(config).expect("valid shape");
        for pkt in &self.packets {
            marker.observe(pkt);
        }
        marker
    }

    /// Builds the *partial* flowmarker after only `packets_seen` packets.
    pub fn partial_flowmarker(&self, config: FlowmarkerConfig, packets_seen: usize) -> Flowmarker {
        let mut marker = Flowmarker::new(config).expect("valid shape");
        for pkt in self.packets.iter().take(packets_seen) {
            marker.observe(pkt);
        }
        marker
    }

    /// Flow duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => (b.timestamp_ns - a.timestamp_ns) as f64 / 1e9,
            _ => 0.0,
        }
    }
}

/// Knobs for the P2P generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pConfig {
    /// Fraction of botnet conversations.
    pub botnet_fraction: f64,
    /// Mean packets per benign flow (botnet flows are ~10x sparser).
    pub benign_mean_packets: f64,
    /// Probability a label is corrupted.
    pub label_noise: f64,
}

impl Default for P2pConfig {
    fn default() -> Self {
        P2pConfig {
            botnet_fraction: 0.4,
            benign_mean_packets: 160.0,
            label_noise: 0.03,
        }
    }
}

/// Deterministic generator for the synthetic P2P/botnet corpus.
///
/// # Example
///
/// ```
/// use homunculus_datasets::p2p::P2pTrafficGenerator;
///
/// let flows = P2pTrafficGenerator::new(3).generate_flows(50);
/// assert_eq!(flows.len(), 50);
/// assert!(flows.iter().any(|f| f.label == 1));
/// assert!(flows.iter().any(|f| f.label == 0));
/// ```
#[derive(Debug, Clone)]
pub struct P2pTrafficGenerator {
    seed: u64,
    config: P2pConfig,
}

impl P2pTrafficGenerator {
    /// Creates a generator with default knobs.
    pub fn new(seed: u64) -> Self {
        P2pTrafficGenerator {
            seed,
            config: P2pConfig::default(),
        }
    }

    /// Creates a generator with explicit knobs.
    pub fn with_config(seed: u64, config: P2pConfig) -> Self {
        P2pTrafficGenerator { seed, config }
    }

    /// Generates `n` conversations.
    pub fn generate_flows(&self, n: usize) -> Vec<FlowTrace> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..n).map(|i| self.generate_flow(&mut rng, i)).collect()
    }

    fn generate_flow(&self, rng: &mut StdRng, index: usize) -> FlowTrace {
        let botnet = rng.gen_bool(self.config.botnet_fraction);
        let app = if botnet {
            [P2pApp::Storm, P2pApp::Waledac][categorical(rng, &[0.5, 0.5])]
        } else {
            [
                P2pApp::UTorrent,
                P2pApp::Vuze,
                P2pApp::EMule,
                P2pApp::FrostWire,
            ][categorical(rng, &[0.3, 0.25, 0.25, 0.2])]
        };

        let packets = if botnet {
            self.botnet_packets(rng, app, index)
        } else {
            self.benign_packets(rng, app, index)
        };

        let mut label = app.label();
        if rng.gen_bool(self.config.label_noise) {
            label = 1 - label;
        }
        FlowTrace {
            app,
            label,
            packets,
        }
    }

    /// Botnet C&C: low volume (tens of packets), high duration (~1 h),
    /// small keepalive-sized packets with a couple of command modes, long
    /// inter-arrival gaps (minutes) — so PL mass sits in the low bins and
    /// IPT mass pushes into the *high* bins.
    fn botnet_packets(&self, rng: &mut StdRng, app: P2pApp, index: usize) -> Vec<Packet> {
        let n = (normal(rng, 38.0, 10.0).max(8.0)) as usize;
        // Per-app size modes: keepalive + small command payload.
        let modes: &[(f64, f64)] = match app {
            P2pApp::Storm => &[(76.0, 6.0), (180.0, 18.0)],
            _ => &[(92.0, 8.0), (240.0, 24.0)],
        };
        let (src, dst) = self.endpoints(rng, index, true);
        let mut t_ns = rng.gen_range(0..1_000_000_000u64);
        let mut packets = Vec::with_capacity(n);
        for _ in 0..n {
            let (mean, std) = modes[categorical(rng, &[0.8, 0.2])];
            let size = normal(rng, mean, std).clamp(60.0, 1500.0) as u32;
            packets.push(self.packet(rng, src, dst, size, t_ns));
            // Long gaps: log-normal centered around ~90 s, heavy tail into
            // the 512 s+ bins.
            let gap_s = log_normal(rng, 4.5, 0.9).clamp(2.0, 3_000.0);
            t_ns += (gap_s * 1e9) as u64;
        }
        packets
    }

    /// Benign P2P: bursty, high volume, full range of packet sizes
    /// (requests + maximum-size data pieces), sub-second gaps with
    /// occasional idle periods.
    fn benign_packets(&self, rng: &mut StdRng, app: P2pApp, index: usize) -> Vec<Packet> {
        let n = (normal(rng, self.config.benign_mean_packets, 40.0).max(20.0)) as usize;
        let data_bias: f64 = match app {
            P2pApp::UTorrent | P2pApp::Vuze => 0.55,
            _ => 0.4,
        };
        let (src, dst) = self.endpoints(rng, index, false);
        let mut t_ns = rng.gen_range(0..1_000_000_000u64);
        let mut packets = Vec::with_capacity(n);
        for _ in 0..n {
            // Modes: control (small), mid-chunks, full data pieces.
            let mode = categorical(rng, &[1.0 - data_bias, 0.25, data_bias]);
            let size = match mode {
                0 => normal(rng, 120.0, 40.0),
                1 => normal(rng, 700.0, 180.0),
                _ => normal(rng, 1_380.0, 60.0),
            }
            .clamp(60.0, 1500.0) as u32;
            packets.push(self.packet(rng, src, dst, size, t_ns));
            // Mostly sub-second bursts; occasional think-time gaps.
            let gap_s = if rng.gen_bool(0.9) {
                log_normal(rng, -2.5, 0.8).clamp(0.0005, 2.0)
            } else {
                log_normal(rng, 3.0, 1.0).clamp(2.0, 1_200.0)
            };
            t_ns += (gap_s * 1e9) as u64;
        }
        packets
    }

    fn endpoints(&self, rng: &mut StdRng, index: usize, botnet: bool) -> (Ipv4Addr, Ipv4Addr) {
        let subnet = if botnet { 66 } else { 99 };
        let src = Ipv4Addr::new(10, subnet, (index >> 8) as u8, (index & 0xFF) as u8);
        let dst = Ipv4Addr::new(172, 16, rng.gen_range(0..16), rng.gen_range(1..255));
        (src, dst)
    }

    fn packet(
        &self,
        rng: &mut StdRng,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        size: u32,
        t_ns: u64,
    ) -> Packet {
        Packet::builder()
            .timestamp_ns(t_ns)
            .size_bytes(size)
            .src_ip(src)
            .dst_ip(dst)
            .src_port(rng.gen_range(32_768..61_000))
            .dst_port(rng.gen_range(32_768..61_000))
            .protocol(Protocol::Udp)
            .build()
    }
}

/// Feature names for an `n`-bin flowmarker dataset: `pl_0.., ipt_0..`.
pub fn flowmarker_feature_names(config: FlowmarkerConfig) -> Vec<String> {
    let mut names: Vec<String> = (0..config.pl_bins).map(|i| format!("pl_{i}")).collect();
    names.extend((0..config.ipt_bins).map(|i| format!("ipt_{i}")));
    names
}

/// Builds a dataset of **full-flow** flowmarkers (the training view:
/// "training was done on full flow-level histograms", §5.1.2).
pub fn flowmarker_dataset(flows: &[FlowTrace], config: FlowmarkerConfig) -> Dataset {
    dataset_from_markers(
        flows
            .iter()
            .map(|f| (f.flowmarker(config).feature_vector(), f.label)),
        config,
    )
}

/// Builds a dataset of **partial** flowmarkers after `packets_seen`
/// packets per flow (the evaluation view: "F1 scores are reported on the
/// per-packet-level partial histograms", §5.1.2).
pub fn partial_histogram_dataset(
    flows: &[FlowTrace],
    config: FlowmarkerConfig,
    packets_seen: usize,
) -> Dataset {
    dataset_from_markers(
        flows.iter().map(|f| {
            (
                f.partial_flowmarker(config, packets_seen).feature_vector(),
                f.label,
            )
        }),
        config,
    )
}

/// Builds a **per-packet training corpus**: every flow contributes one
/// sample per horizon (prefix length), so a model trained on it learns to
/// classify *partial* histograms directly — the "per-packet model" the
/// paper's intro highlights (F1 86.5 without waiting for the flow).
pub fn mixed_partial_histogram_dataset(
    flows: &[FlowTrace],
    config: FlowmarkerConfig,
    horizons: &[usize],
) -> Dataset {
    dataset_from_markers(
        flows.iter().flat_map(|f| {
            horizons.iter().map(move |&h| {
                let seen = h.min(f.packets.len());
                (f.partial_flowmarker(config, seen).feature_vector(), f.label)
            })
        }),
        config,
    )
}

fn dataset_from_markers(
    rows: impl Iterator<Item = (Vec<f32>, usize)>,
    config: FlowmarkerConfig,
) -> Dataset {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for (row, label) in rows {
        features.push(row);
        labels.push(label);
    }
    let matrix = Matrix::from_rows(&features).expect("uniform marker length");
    Dataset::new(matrix, labels, 2, flowmarker_feature_names(config)).expect("consistent")
}

/// Average (per-flow mean) PL and IPT histograms for each class — the data
/// behind Figure 6. Returns `(benign_pl, botnet_pl, benign_ipt, botnet_ipt)`
/// as per-bin mean counts.
pub fn averaged_class_histograms(
    flows: &[FlowTrace],
    config: FlowmarkerConfig,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut benign_pl = vec![0.0f64; config.pl_bins];
    let mut botnet_pl = vec![0.0f64; config.pl_bins];
    let mut benign_ipt = vec![0.0f64; config.ipt_bins];
    let mut botnet_ipt = vec![0.0f64; config.ipt_bins];
    let mut benign_count = 0usize;
    let mut botnet_count = 0usize;
    for flow in flows {
        let marker = flow.flowmarker(config);
        let (pl_acc, ipt_acc) = if flow.app.is_botnet() {
            botnet_count += 1;
            (&mut botnet_pl, &mut botnet_ipt)
        } else {
            benign_count += 1;
            (&mut benign_pl, &mut benign_ipt)
        };
        for (acc, &c) in pl_acc.iter_mut().zip(marker.packet_length().counts()) {
            *acc += c as f64;
        }
        for (acc, &c) in ipt_acc.iter_mut().zip(marker.inter_packet_time().counts()) {
            *acc += c as f64;
        }
    }
    let norm = |acc: &mut [f64], n: usize| {
        if n > 0 {
            for v in acc.iter_mut() {
                *v /= n as f64;
            }
        }
    };
    norm(&mut benign_pl, benign_count);
    norm(&mut botnet_pl, botnet_count);
    norm(&mut benign_ipt, benign_count);
    norm(&mut botnet_ipt, botnet_count);
    (benign_pl, botnet_pl, benign_ipt, botnet_ipt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_and_labels() {
        let g = P2pTrafficGenerator::new(5);
        let a = g.generate_flows(40);
        let b = g.generate_flows(40);
        assert_eq!(a, b);
        for f in &a {
            assert_eq!(f.app.is_botnet(), f.app.label() == 1);
        }
    }

    #[test]
    fn botnet_flows_are_low_volume_high_duration() {
        let flows = P2pTrafficGenerator::new(1).generate_flows(120);
        let bot: Vec<&FlowTrace> = flows.iter().filter(|f| f.app.is_botnet()).collect();
        let ben: Vec<&FlowTrace> = flows.iter().filter(|f| !f.app.is_botnet()).collect();
        assert!(!bot.is_empty() && !ben.is_empty());
        let bot_pkts: f64 =
            bot.iter().map(|f| f.packets.len() as f64).sum::<f64>() / bot.len() as f64;
        let ben_pkts: f64 =
            ben.iter().map(|f| f.packets.len() as f64).sum::<f64>() / ben.len() as f64;
        assert!(
            ben_pkts > bot_pkts * 2.0,
            "benign {ben_pkts} pkts vs botnet {bot_pkts}"
        );
        let bot_dur: f64 = bot.iter().map(|f| f.duration_seconds()).sum::<f64>() / bot.len() as f64;
        let ben_dur: f64 = ben.iter().map(|f| f.duration_seconds()).sum::<f64>() / ben.len() as f64;
        assert!(
            bot_dur > ben_dur,
            "botnet duration {bot_dur}s vs benign {ben_dur}s"
        );
    }

    #[test]
    fn timestamps_are_monotonic() {
        let flows = P2pTrafficGenerator::new(2).generate_flows(20);
        for f in &flows {
            for w in f.packets.windows(2) {
                assert!(w[0].timestamp_ns <= w[1].timestamp_ns);
            }
        }
    }

    /// The Figure 6 shape: botnets leave most high PL bins empty while
    /// benign P2P fills them; botnet IPT mass sits in higher bins.
    #[test]
    fn class_histograms_differ_like_figure6() {
        let flows = P2pTrafficGenerator::new(3).generate_flows(200);
        let config = FlowmarkerConfig::figure6();
        let (ben_pl, bot_pl, ben_ipt, bot_ipt) = averaged_class_histograms(&flows, config);

        // Benign fills the high PL bins (data pieces ~1380 B => bin 21),
        // botnets do not.
        let high_bins = 15..config.pl_bins;
        let ben_high: f64 = high_bins.clone().map(|i| ben_pl[i]).sum();
        let bot_high: f64 = high_bins.map(|i| bot_pl[i]).sum();
        assert!(
            ben_high > bot_high * 5.0 + 1.0,
            "benign high-bin mass {ben_high} vs botnet {bot_high}"
        );

        // Botnet IPT mass beyond the first bin (>512 s gaps accumulated
        // relative to their low packet count) exceeds benign's tail share.
        let ben_total: f64 = ben_ipt.iter().sum();
        let bot_total: f64 = bot_ipt.iter().sum();
        let ben_tail = ben_ipt[1..].iter().sum::<f64>() / ben_total.max(1e-9);
        let bot_tail = bot_ipt[1..].iter().sum::<f64>() / bot_total.max(1e-9);
        assert!(
            bot_tail > ben_tail,
            "botnet IPT tail share {bot_tail} vs benign {ben_tail}"
        );
    }

    #[test]
    fn flowmarker_datasets_have_expected_shapes() {
        let flows = P2pTrafficGenerator::new(4).generate_flows(60);
        let config = FlowmarkerConfig::paper_reduced();
        let full = flowmarker_dataset(&flows, config);
        assert_eq!(full.len(), 60);
        assert_eq!(full.n_features(), 30);
        let partial = partial_histogram_dataset(&flows, config, 5);
        assert_eq!(partial.n_features(), 30);
        // Partial markers only saw 5 packets: feature rows still normalized.
        for r in 0..partial.len() {
            let row_sum: f32 = (0..30).map(|c| partial.features()[(r, c)]).sum();
            assert!(row_sum > 0.0 && row_sum < 2.1, "row sum {row_sum}");
        }
    }

    #[test]
    fn partial_converges_to_full() {
        let flows = P2pTrafficGenerator::new(6).generate_flows(10);
        let config = FlowmarkerConfig::paper_reduced();
        for f in &flows {
            let full = f.flowmarker(config);
            let partial = f.partial_flowmarker(config, f.packets.len());
            assert_eq!(full, partial);
        }
    }

    #[test]
    fn feature_names_match_bins() {
        let config = FlowmarkerConfig::paper_reduced();
        let names = flowmarker_feature_names(config);
        assert_eq!(names.len(), 30);
        assert_eq!(names[0], "pl_0");
        assert_eq!(names[23], "ipt_0");
    }
}
