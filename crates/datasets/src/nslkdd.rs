//! Synthetic NSL-KDD-like anomaly-detection dataset.
//!
//! The paper's AD application trains on NSL-KDD packet-level traces with
//! the multi-class attacks collapsed to binary labels (Figure 3 loads
//! `train_ad.csv` and maps attacks to *benign*/*malicious*). This generator
//! reproduces the *structure* that matters for the evaluation:
//!
//! - 7 features with the [`homunculus_dataplane::features::PACKET_FEATURE_NAMES`]
//!   layout (Table 2: `Features = 7`);
//! - benign traffic drawn from several service archetypes (web, DNS, SSH,
//!   mail, streaming, ephemeral P2P);
//! - malicious traffic drawn from four NSL-KDD attack families (DoS,
//!   probe, R2L, U2R), some of which deliberately shadow benign archetypes
//!   so that *marginal* feature distributions overlap and only non-linear
//!   feature interactions separate the classes;
//! - irreducible label noise, bounding achievable F1 below 1.0.
//!
//! The mixture is calibrated so a small hand-tuned DNN (≈200 parameters)
//! underfits — landing near the paper's baseline F1 — while larger
//! BO-searched models recover most of the remaining gap (Table 2's
//! 71.1 → 83.1 shape).

use crate::dataset::Dataset;
use crate::sampling::{categorical, normal};
use homunculus_dataplane::features::PACKET_FEATURE_NAMES;
use homunculus_ml::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// NSL-KDD attack families (plus benign) used as generation archetypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Normal traffic.
    Benign,
    /// Denial of service (syn/udp floods).
    Dos,
    /// Port scans and probes.
    Probe,
    /// Remote-to-local (password guessing over remote services).
    R2l,
    /// User-to-root (privilege escalation inside otherwise-normal flows).
    U2r,
}

impl TrafficClass {
    /// Binary label: benign = 0, any attack = 1.
    pub fn binary_label(self) -> usize {
        usize::from(self != TrafficClass::Benign)
    }
}

/// One generation archetype: a Gaussian cluster in 7-d feature space.
#[derive(Debug, Clone)]
struct Archetype {
    class: TrafficClass,
    /// Mixture weight within its class.
    weight: f64,
    /// Cluster center in feature space (see the feature scales on
    /// `homunculus_dataplane::features::PACKET_FEATURE_NAMES`).
    center: [f64; 7],
    /// Per-dimension standard deviation.
    spread: [f64; 7],
}

/// Feature order: packet_size, protocol, service, dst_port,
/// flow_duration, flow_bytes, flow_mean_ipt (all pre-scaled).
fn archetypes() -> Vec<Archetype> {
    use TrafficClass::*;
    vec![
        // ----- benign -----
        Archetype {
            class: Benign,
            weight: 0.30,
            // web browsing: mid-size packets, tcp, web service, short flows
            center: [2.0, 0.19, 0.0, 0.054, 0.8, 1.0, 1.2],
            spread: [1.0, 0.01, 0.2, 0.02, 0.5, 0.8, 0.8],
        },
        Archetype {
            class: Benign,
            weight: 0.15,
            // dns: tiny udp bursts
            center: [0.3, 0.53, 1.0, 0.0065, 0.1, 0.05, 0.4],
            spread: [0.1, 0.01, 0.2, 0.002, 0.1, 0.05, 0.3],
        },
        Archetype {
            class: Benign,
            weight: 0.15,
            // ssh interactive: small packets, long duration, long ipt
            center: [0.5, 0.19, 2.0, 0.0027, 2.8, 0.8, 3.2],
            spread: [0.2, 0.01, 0.2, 0.001, 0.7, 0.5, 0.8],
        },
        Archetype {
            class: Benign,
            weight: 0.10,
            // mail: mid packets, moderate everything
            center: [1.4, 0.19, 3.0, 0.003, 1.2, 1.5, 1.5],
            spread: [0.6, 0.01, 0.2, 0.001, 0.5, 0.7, 0.6],
        },
        Archetype {
            class: Benign,
            weight: 0.18,
            // streaming: large packets, many bytes, steady small ipt
            center: [5.2, 0.53, 4.0, 0.6, 2.2, 3.4, 0.3],
            spread: [0.6, 0.01, 0.3, 0.25, 0.6, 0.7, 0.2],
        },
        Archetype {
            class: Benign,
            weight: 0.12,
            // ephemeral p2p-ish: mixed sizes, high ports
            center: [2.8, 0.40, 4.0, 3.5, 1.6, 2.0, 1.0],
            spread: [1.4, 0.18, 0.4, 1.8, 0.8, 0.9, 0.7],
        },
        // ----- dos -----
        Archetype {
            class: Dos,
            weight: 0.30,
            // syn flood: tiny packets at web service, near-zero ipt,
            // short-lived "flows" (each spoofed source is one flow)
            center: [0.25, 0.19, 0.0, 0.054, 0.15, 0.12, 0.05],
            spread: [0.06, 0.01, 0.2, 0.02, 0.12, 0.08, 0.05],
        },
        Archetype {
            class: Dos,
            weight: 0.25,
            // udp amplification: mid packets, dns service — shadows benign
            // dns except for the joint (bytes, ipt) region
            center: [1.1, 0.53, 1.0, 0.0065, 0.3, 1.6, 0.06],
            spread: [0.35, 0.01, 0.2, 0.002, 0.2, 0.5, 0.05],
        },
        Archetype {
            class: Dos,
            weight: 0.45,
            // http flood: shadows benign web in size/service; differs in the
            // joint (duration, ipt, bytes) interaction
            center: [2.0, 0.19, 0.0, 0.054, 1.9, 2.6, 0.12],
            spread: [0.9, 0.01, 0.2, 0.02, 0.6, 0.6, 0.10],
        },
        // ----- probe -----
        Archetype {
            class: Probe,
            weight: 0.55,
            // fast port scan: tiny packets, random ports, tiny flows
            center: [0.25, 0.19, 4.5, 3.8, 0.05, 0.03, 0.15],
            spread: [0.06, 0.08, 1.0, 2.2, 0.04, 0.02, 0.12],
        },
        Archetype {
            class: Probe,
            weight: 0.45,
            // slow/stealth scan: like the fast scan but with long gaps —
            // the ipt dimension alone separates it from dos probes
            center: [0.25, 0.19, 4.5, 3.8, 2.6, 0.06, 4.2],
            spread: [0.06, 0.08, 1.0, 2.2, 0.8, 0.04, 0.9],
        },
        // ----- r2l -----
        Archetype {
            class: R2l,
            weight: 0.60,
            // ssh brute force: shadows benign ssh (same service/ports/
            // duration); joint (ipt small, bytes small) is the tell
            center: [0.5, 0.19, 2.0, 0.0027, 2.6, 0.9, 0.7],
            spread: [0.2, 0.01, 0.2, 0.001, 0.7, 0.5, 0.4],
        },
        Archetype {
            class: R2l,
            weight: 0.40,
            // mail credential stuffing: shadows benign mail except joint
            // (size small, ipt small)
            center: [0.7, 0.19, 3.0, 0.003, 1.3, 1.4, 0.5],
            spread: [0.3, 0.01, 0.2, 0.001, 0.5, 0.6, 0.3],
        },
        // ----- u2r -----
        Archetype {
            class: U2r,
            weight: 1.0,
            // privilege escalation inside web session: shadows benign web
            // except a subtle shift in (bytes, duration) interaction
            center: [2.4, 0.19, 0.0, 0.054, 1.7, 2.2, 1.6],
            spread: [1.0, 0.01, 0.2, 0.02, 0.55, 0.7, 0.8],
        },
    ]
}

/// Tunable difficulty knobs for the generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NslKddConfig {
    /// Fraction of malicious samples.
    pub malicious_fraction: f64,
    /// Probability a label is flipped (irreducible noise; bounds F1).
    pub label_noise: f64,
    /// Global multiplier on archetype spreads (>1 = more overlap).
    pub spread_scale: f64,
    /// Relative weights of the four attack families (DoS, Probe, R2L, U2R).
    pub attack_mix: [f64; 4],
    /// Fraction of samples drawn from the *hard* regime: overlap-region
    /// traffic whose label alternates in fine *stripes* along a fixed
    /// direction in feature space (an intensity/rate threshold pattern,
    /// like escalating attack phases). A first hidden layer needs roughly
    /// one hyperplane per stripe boundary to model it, so narrow
    /// hand-tuned nets underfit — this creates the capacity-driven gap
    /// behind Table 2 (hand-tuned ~200-parameter nets at ~0.71 F1 vs
    /// searched larger nets at ~0.83).
    pub hard_fraction: f64,
    /// Number of label stripes across the hard-regime's +/-2 sigma span.
    /// Must exceed the baseline's first-layer width to force underfitting.
    pub hard_stripes: usize,
}

impl Default for NslKddConfig {
    fn default() -> Self {
        NslKddConfig {
            malicious_fraction: 0.45,
            label_noise: 0.035,
            spread_scale: 1.45,
            attack_mix: [0.40, 0.25, 0.25, 0.10],
            hard_fraction: 0.5,
            hard_stripes: 14,
        }
    }
}

/// Deterministic generator for the synthetic NSL-KDD-like corpus.
///
/// # Example
///
/// ```
/// use homunculus_datasets::nslkdd::NslKddGenerator;
///
/// let dataset = NslKddGenerator::new(42).generate(1_000);
/// assert_eq!(dataset.len(), 1_000);
/// assert_eq!(dataset.n_features(), 7);
/// assert_eq!(dataset.n_classes(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NslKddGenerator {
    seed: u64,
    config: NslKddConfig,
}

impl NslKddGenerator {
    /// Creates a generator with default difficulty.
    pub fn new(seed: u64) -> Self {
        NslKddGenerator {
            seed,
            config: NslKddConfig::default(),
        }
    }

    /// Creates a generator with explicit difficulty knobs.
    pub fn with_config(seed: u64, config: NslKddConfig) -> Self {
        NslKddGenerator { seed, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &NslKddConfig {
        &self.config
    }

    /// Generates `n` samples with binary labels (0 = benign, 1 = attack).
    pub fn generate(&self, n: usize) -> Dataset {
        let (dataset, _) = self.generate_with_classes(n);
        dataset
    }

    /// Generates `n` samples, also returning the fine-grained class of
    /// each (useful for analysis and the multi-class examples).
    pub fn generate_with_classes(&self, n: usize) -> (Dataset, Vec<TrafficClass>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let archetypes = archetypes();

        // Partition archetypes by family for weighted selection.
        let benign: Vec<&Archetype> = archetypes
            .iter()
            .filter(|a| a.class == TrafficClass::Benign)
            .collect();
        let families = [
            TrafficClass::Dos,
            TrafficClass::Probe,
            TrafficClass::R2l,
            TrafficClass::U2r,
        ];

        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            // Hard regime: striped overlap-region traffic (see
            // `NslKddConfig::hard_fraction`).
            if rng.gen_bool(self.config.hard_fraction) {
                let (row, label, class) = self.hard_sample(&mut rng);
                rows.push(row);
                labels.push(label);
                classes.push(class);
                continue;
            }
            let malicious = rng.gen_bool(self.config.malicious_fraction);
            let archetype = if malicious {
                let family = families[categorical(&mut rng, &self.config.attack_mix)];
                let members: Vec<&Archetype> =
                    archetypes.iter().filter(|a| a.class == family).collect();
                let weights: Vec<f64> = members.iter().map(|a| a.weight).collect();
                members[categorical(&mut rng, &weights)]
            } else {
                let weights: Vec<f64> = benign.iter().map(|a| a.weight).collect();
                benign[categorical(&mut rng, &weights)]
            };

            let mut row = Vec::with_capacity(7);
            for d in 0..7 {
                let v = normal(
                    &mut rng,
                    archetype.center[d],
                    archetype.spread[d] * self.config.spread_scale,
                );
                // Features are physically non-negative.
                row.push(v.max(0.0) as f32);
            }
            rows.push(row);
            classes.push(archetype.class);

            let mut label = archetype.class.binary_label();
            if rng.gen_bool(self.config.label_noise) {
                label = 1 - label;
            }
            labels.push(label);
        }

        let features = Matrix::from_rows(&rows).expect("rows are uniform");
        let names = PACKET_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        let dataset = Dataset::new(features, labels, 2, names).expect("generator is consistent");
        (dataset, classes)
    }

    /// One hard-regime sample: interactive overlap-region traffic whose
    /// (duration, inter-arrival-time) intensity plane is striped —
    /// escalating attack phases alternate with benign lulls. The labels
    /// alternate along `u = duration_norm + ipt_norm`; a first hidden
    /// layer needs roughly one unit per stripe boundary, so width binds.
    fn hard_sample(&self, rng: &mut StdRng) -> (Vec<f32>, usize, TrafficClass) {
        // duration (index 4) and ipt (index 6) span the stripe plane,
        // drawn uniformly so every stripe is equally populated.
        let duration = rng.gen_range(0.2..3.2f64);
        let ipt = rng.gen_range(0.2..3.2f64);
        // The remaining features sit in the benign/malicious overlap.
        let center = [1.6, 0.36, 2.4, 0.04, 0.0, 1.5, 0.0];
        let spread = [0.8, 0.10, 1.3, 0.02, 0.0, 0.75, 0.0];
        let mut row = Vec::with_capacity(7);
        for d in 0..7 {
            let v = match d {
                4 => duration,
                6 => ipt,
                _ => normal(rng, center[d], spread[d]).max(0.0),
            };
            row.push(v as f32);
        }
        // u in [0.4, 6.4): `hard_stripes` stripes across the span.
        let u = duration + ipt;
        let stripe_width = 6.0 / self.config.hard_stripes as f64;
        let stripe = ((u - 0.4) / stripe_width).floor().max(0.0) as i64;
        let mut label = stripe.rem_euclid(2) as usize;
        if rng.gen_bool(self.config.label_noise) {
            label = 1 - label;
        }
        let class = if label == 1 {
            // Attribute hard attacks to the stealthier families.
            if rng.gen_bool(0.6) {
                TrafficClass::R2l
            } else {
                TrafficClass::U2r
            }
        } else {
            TrafficClass::Benign
        };
        (row, label, class)
    }

    /// Generates the dataset split into two disjoint halves (used by the
    /// model-fusion experiment, Table 4: "divides the dataset of our AD
    /// application into two separate models").
    ///
    /// The halves share the feature schema (full overlap) and the traffic
    /// distribution — two operators each curating a capture of the same
    /// network — so each half demands a similar model, and a fused model
    /// over both costs about as much as one of them.
    pub fn generate_halves(&self, n: usize) -> (Dataset, Dataset) {
        let (full, _) = self.generate_with_classes(n);
        let a_idx: Vec<usize> = (0..full.len()).filter(|i| i % 2 == 0).collect();
        let b_idx: Vec<usize> = (0..full.len()).filter(|i| i % 2 == 1).collect();
        (full.subset(&a_idx), full.subset(&b_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_ml::metrics::f1_binary;
    use homunculus_ml::mlp::{Mlp, MlpArchitecture, TrainConfig};

    #[test]
    fn shapes_and_determinism() {
        let g = NslKddGenerator::new(7);
        let a = g.generate(500);
        let b = g.generate(500);
        assert_eq!(a, b);
        assert_eq!(a.n_features(), 7);
        assert_eq!(a.feature_names()[0], "packet_size");
        let c = NslKddGenerator::new(8).generate(500);
        assert_ne!(a, c);
    }

    #[test]
    fn class_balance_near_configured_fraction() {
        let ds = NslKddGenerator::new(1).generate(4_000);
        let counts = ds.class_counts();
        let frac = counts[1] as f64 / ds.len() as f64;
        // 45% malicious +/- label noise and sampling error.
        assert!((0.38..0.52).contains(&frac), "malicious fraction {frac}");
    }

    #[test]
    fn features_non_negative_and_finite() {
        let ds = NslKddGenerator::new(2).generate(1_000);
        assert!(!ds.features().has_non_finite());
        assert!(ds.features().as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fine_classes_cover_all_families() {
        let (_, classes) = NslKddGenerator::new(3).generate_with_classes(4_000);
        for family in [
            TrafficClass::Benign,
            TrafficClass::Dos,
            TrafficClass::Probe,
            TrafficClass::R2l,
            TrafficClass::U2r,
        ] {
            assert!(classes.contains(&family), "{family:?} missing");
        }
    }

    #[test]
    fn halves_share_schema_and_partition_samples() {
        let g = NslKddGenerator::new(4);
        let (a, b) = g.generate_halves(2_000);
        assert_eq!(a.feature_names(), b.feature_names());
        assert_eq!(a.len() + b.len(), 2_000);
        assert!(a.len() > 200 && b.len() > 200, "{} / {}", a.len(), b.len());
        assert_eq!(a.feature_overlap(&b), 1.0);
    }

    /// The calibration contract behind Table 2's AD row: the dataset must
    /// be learnable (well above chance) but capacity-limited models must
    /// leave measurable headroom.
    #[test]
    fn small_dnn_underfits_but_beats_chance() {
        let ds = NslKddGenerator::new(5).generate(3_000);
        let split = ds.stratified_split(0.3, 0).unwrap();
        let norm = split.train.fit_normalizer();
        let train = split.train.normalized(&norm).unwrap();
        let test = split.test.normalized(&norm).unwrap();

        let arch = MlpArchitecture::new(7, vec![8], 2);
        let mut net = Mlp::new(&arch, 0).unwrap();
        net.train(
            train.features(),
            train.labels(),
            &TrainConfig::default().epochs(30),
        )
        .unwrap();
        let pred = net.predict(test.features()).unwrap();
        let f1 = f1_binary(test.labels(), &pred).unwrap();
        assert!(f1 > 0.55, "tiny net should beat chance, f1 = {f1}");
        assert!(f1 < 0.95, "tiny net should not saturate, f1 = {f1}");
    }
}
