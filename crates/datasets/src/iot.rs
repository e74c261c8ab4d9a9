//! Synthetic IoT traffic-classification dataset (the IIsy TC application).
//!
//! The paper's TC application "is built from IoT device traces in a data
//! center and requires that an application correctly identifies the device
//! type from packet-header features (packet size, Ethernet and IPv4
//! headers)" (§5). IIsy's original models are statistical (SVM, KMeans,
//! decision trees); the paper additionally hand-writes a DNN baseline with
//! 3 hidden layers (10, 10, 5 neurons).
//!
//! This generator emits actual [`Packet`]s per device archetype and runs
//! them through the real header-feature extractor, so the dataset exercises
//! the same code path a switch pipeline would.

use crate::dataset::Dataset;
use crate::features::{header_features, HEADER_FEATURE_NAMES};
use crate::packet::{Packet, Protocol};
use crate::sampling::{categorical, normal};
use homunculus_ml::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// The five IoT device classes to identify (one per traffic cluster;
/// Figure 7 builds KMeans models with up to 5 clusters for them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// IP camera: large steady UDP video packets.
    Camera,
    /// Thermostat: rare tiny TLS posts.
    Thermostat,
    /// Smart speaker: mid-size audio streaming.
    Speaker,
    /// Smart bulb: tiny CoAP keepalives.
    Bulb,
    /// Home hub: mixed control-plane chatter.
    Hub,
}

impl DeviceClass {
    /// All five classes, in label order.
    pub const ALL: [DeviceClass; 5] = [
        DeviceClass::Camera,
        DeviceClass::Thermostat,
        DeviceClass::Speaker,
        DeviceClass::Bulb,
        DeviceClass::Hub,
    ];

    /// The class label (index into [`DeviceClass::ALL`]).
    pub fn label(self) -> usize {
        DeviceClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("member of ALL")
    }

    /// Lowercase device name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Camera => "camera",
            DeviceClass::Thermostat => "thermostat",
            DeviceClass::Speaker => "speaker",
            DeviceClass::Bulb => "bulb",
            DeviceClass::Hub => "hub",
        }
    }
}

/// Difficulty knobs for the IoT generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IotConfig {
    /// Global multiplier on per-class spreads (>1 = more class overlap).
    pub spread_scale: f64,
    /// Probability a label is corrupted.
    pub label_noise: f64,
    /// Fraction of packets drawn from the *hard* regime: ambiguous
    /// mid-size traffic whose device identity alternates in fine stripes
    /// along a (packet size, source port) projection — firmware-specific
    /// MTU/port-allocation patterns. A first hidden layer needs roughly
    /// one unit per stripe boundary, so narrow hand-tuned nets underfit
    /// (Table 2's Base-TC vs Hom-TC gap).
    pub hard_fraction: f64,
    /// Number of class stripes across the hard regime's span.
    pub hard_stripes: usize,
}

impl Default for IotConfig {
    fn default() -> Self {
        IotConfig {
            spread_scale: 1.0,
            label_noise: 0.04,
            hard_fraction: 0.45,
            hard_stripes: 15,
        }
    }
}

/// Deterministic generator for the synthetic IoT TC corpus.
///
/// # Example
///
/// ```
/// use homunculus_datasets::iot::IotTrafficGenerator;
///
/// let ds = IotTrafficGenerator::new(1).generate(500);
/// assert_eq!(ds.n_classes(), 5);
/// assert_eq!(ds.n_features(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct IotTrafficGenerator {
    seed: u64,
    config: IotConfig,
}

impl IotTrafficGenerator {
    /// Creates a generator with default difficulty.
    pub fn new(seed: u64) -> Self {
        IotTrafficGenerator {
            seed,
            config: IotConfig::default(),
        }
    }

    /// Creates a generator with explicit knobs.
    pub fn with_config(seed: u64, config: IotConfig) -> Self {
        IotTrafficGenerator { seed, config }
    }

    /// Generates one synthetic packet from the given device class.
    pub fn sample_packet(&self, rng: &mut StdRng, class: DeviceClass, timestamp_ns: u64) -> Packet {
        let s = self.config.spread_scale;
        // (size mean, size std, protocol, dst port choices, subnet)
        let (mean, std, protocol, ports, subnet): (f64, f64, Protocol, &[u16], u8) = match class {
            DeviceClass::Camera => (1_100.0, 160.0 * s, Protocol::Udp, &[554, 8554], 10),
            DeviceClass::Thermostat => (140.0, 30.0 * s, Protocol::Tcp, &[443], 20),
            DeviceClass::Speaker => (620.0, 110.0 * s, Protocol::Udp, &[443, 4070], 30),
            DeviceClass::Bulb => (70.0, 10.0 * s, Protocol::Udp, &[5683], 40),
            DeviceClass::Hub => (320.0, 180.0 * s, Protocol::Tcp, &[8080, 1883, 443], 50),
        };
        let size = normal(rng, mean, std).clamp(60.0, 1500.0) as u32;
        let port = ports[rng.gen_range(0..ports.len())];
        let host = rng.gen_range(1..=30u8);
        Packet::builder()
            .timestamp_ns(timestamp_ns)
            .size_bytes(size)
            .src_ip(Ipv4Addr::new(10, 0, subnet, host))
            .dst_ip(Ipv4Addr::new(10, 0, 0, 1))
            .src_port(rng.gen_range(32_768..61_000))
            .dst_port(port)
            .protocol(protocol)
            .build()
    }

    /// One hard-regime packet: uniform mid-range (size, src-port) traffic
    /// whose device class is the stripe its size+port projection lands
    /// in, cycling through the five classes. Only a model with enough
    /// first-layer width can carve per-stripe decision regions.
    fn hard_sample(&self, rng: &mut StdRng, timestamp_ns: u64) -> (Packet, usize) {
        let size = rng.gen_range(80.0..1_400.0f64);
        let sport = rng.gen_range(32_768..61_000u16);
        let dports = [443u16, 8080, 554, 5683, 1883];
        let dport = dports[rng.gen_range(0..dports.len())];
        let pkt = Packet::builder()
            .timestamp_ns(timestamp_ns)
            .size_bytes(size as u32)
            .src_ip(Ipv4Addr::new(10, 0, 60, rng.gen_range(1..=30)))
            .dst_ip(Ipv4Addr::new(10, 0, 0, 1))
            .src_port(sport)
            .dst_port(dport)
            .protocol(if rng.gen_bool(0.5) {
                Protocol::Udp
            } else {
                Protocol::Tcp
            })
            .build();
        // Projection in *feature* units (size/256 + sport/8192 as in
        // `header_features`), striped into `hard_stripes` cells cycling
        // through the device classes.
        let u = size / 256.0 + f64::from(sport) / 8_192.0;
        let (u_min, u_max) = (80.0 / 256.0 + 4.0, 1_400.0 / 256.0 + 61_000.0 / 8_192.0);
        let stripe_width = (u_max - u_min) / self.config.hard_stripes as f64;
        let stripe = ((u - u_min) / stripe_width).floor().max(0.0) as usize;
        (pkt, stripe % 5)
    }

    /// Generates `n` labeled samples with balanced classes.
    pub fn generate(&self, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let weights = [1.0f64; 5];
        for i in 0..n {
            let (pkt, mut label) = if rng.gen_bool(self.config.hard_fraction) {
                self.hard_sample(&mut rng, i as u64 * 1_000)
            } else {
                let class = DeviceClass::ALL[categorical(&mut rng, &weights)];
                let pkt = self.sample_packet(&mut rng, class, i as u64 * 1_000);
                (pkt, class.label())
            };
            rows.push(header_features(&pkt).to_vec());
            if rng.gen_bool(self.config.label_noise) {
                label = (label + rng.gen_range(1..5)) % 5;
            }
            labels.push(label);
        }
        let features = Matrix::from_rows(&rows).expect("uniform rows");
        let names = HEADER_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        Dataset::new(features, labels, 5, names).expect("generator is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_ml::kmeans::{KMeans, KMeansConfig};
    use homunculus_ml::metrics::v_measure;

    #[test]
    fn shapes_and_determinism() {
        let g = IotTrafficGenerator::new(11);
        let a = g.generate(400);
        let b = g.generate(400);
        assert_eq!(a, b);
        assert_eq!(a.n_classes(), 5);
        assert_eq!(a.n_features(), 7);
    }

    #[test]
    fn all_classes_present_and_roughly_balanced() {
        let ds = IotTrafficGenerator::new(1).generate(2_000);
        for (c, &count) in ds.class_counts().iter().enumerate() {
            assert!(count > 250, "class {c} has only {count} samples");
        }
    }

    #[test]
    fn device_labels_stable() {
        assert_eq!(DeviceClass::Camera.label(), 0);
        assert_eq!(DeviceClass::Hub.label(), 4);
        assert_eq!(DeviceClass::Bulb.name(), "bulb");
    }

    #[test]
    fn packet_sizes_respect_archetypes() {
        let g = IotTrafficGenerator::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let cam: f64 = (0..200)
            .map(|i| g.sample_packet(&mut rng, DeviceClass::Camera, i).size_bytes as f64)
            .sum::<f64>()
            / 200.0;
        let bulb: f64 = (0..200)
            .map(|i| g.sample_packet(&mut rng, DeviceClass::Bulb, i).size_bytes as f64)
            .sum::<f64>()
            / 200.0;
        assert!(cam > 800.0, "camera mean {cam}");
        assert!(bulb < 120.0, "bulb mean {bulb}");
    }

    /// The calibration contract behind Figure 7: with k = 5 clusters the
    /// device classes must be partially recoverable by KMeans (the hard
    /// regime deliberately blurs 45% of traffic), and degenerate
    /// single-cluster solutions must score worse.
    #[test]
    fn kmeans_recovers_devices_with_five_clusters() {
        // The easy regime alone clusters cleanly...
        let easy = IotTrafficGenerator::with_config(
            4,
            IotConfig {
                hard_fraction: 0.0,
                ..IotConfig::default()
            },
        )
        .generate(1_500);
        let norm = easy.fit_normalizer();
        let nds = easy.normalized(&norm).unwrap();
        let k5 = KMeans::fit(nds.features(), &KMeansConfig::new(5).seed(0)).unwrap();
        let v5_easy = v_measure(nds.labels(), &k5.predict(nds.features())).unwrap();
        assert!(v5_easy.v_measure > 0.5, "easy v@5: {}", v5_easy.v_measure);

        // ...and on the full (hard) mix, k=5 still beats k=2.
        let ds = IotTrafficGenerator::new(4).generate(1_500);
        let norm = ds.fit_normalizer();
        let nds = ds.normalized(&norm).unwrap();
        let k5 = KMeans::fit(nds.features(), &KMeansConfig::new(5).seed(0)).unwrap();
        let v5 = v_measure(nds.labels(), &k5.predict(nds.features())).unwrap();
        let k2 = KMeans::fit(nds.features(), &KMeansConfig::new(2).seed(0)).unwrap();
        let v2 = v_measure(nds.labels(), &k2.predict(nds.features())).unwrap();
        assert!(
            v5.v_measure > v2.v_measure,
            "k=5 ({}) should beat k=2 ({})",
            v5.v_measure,
            v2.v_measure
        );
    }
}
