//! Shared activation lookup tables.
//!
//! Every compiled DNN with a sigmoid/tanh hidden activation needs a lookup
//! table over the format's representable input range. The table depends
//! only on the `(FixedPoint, Activation)` pair — never on the model — so a
//! many-model schedule should build each table **once** and share it
//! across all tenants. [`LutCache`] owns that sharing: lowered pipelines
//! hold an `Arc<ActLut>`, and a server compiling a whole schedule through
//! one cache materializes at most one table per format/activation pair.

use homunculus_ml::mlp::Activation;
use homunculus_ml::quantize::FixedPoint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of index bits in an activation lookup table (2048 entries for a
/// 16-bit format).
const LUT_BITS: u32 = 11;

/// One materialized sigmoid/tanh lookup table in a fixed-point format —
/// the same strategy the hardware templates use ("implemented via LUT on
/// hardware"). Immutable once built, so it is shared across pipelines via
/// `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ActLut {
    table: Vec<i32>,
    shift: u32,
    min_raw: i32,
    max_raw: i32,
    /// Lipschitz constant of the approximated function (for error
    /// bounds): 0.25 for sigmoid, 1.0 for tanh.
    lipschitz: f32,
}

impl ActLut {
    /// Builds the table for `activation` over `format`'s full range.
    ///
    /// # Panics
    ///
    /// Panics if `activation` is not LUT-shaped (ReLU/Linear never take
    /// this path).
    pub(crate) fn build(format: FixedPoint, activation: Activation) -> Self {
        assert!(
            matches!(activation, Activation::Sigmoid | Activation::Tanh),
            "only sigmoid/tanh are LUT-implemented"
        );
        let min_raw = format.quantize(f32::NEG_INFINITY);
        let max_raw = format.quantize(f32::INFINITY);
        let range_bits = format.total_bits();
        let shift = range_bits.saturating_sub(LUT_BITS);
        let entries = (((i64::from(max_raw) - i64::from(min_raw)) >> shift) + 1) as usize;
        let half_step = (1i64 << shift) / 2;
        let table = (0..entries)
            .map(|i| {
                let raw_mid = i64::from(min_raw) + ((i as i64) << shift) + half_step;
                format.quantize(activation.apply(format.dequantize(raw_mid as i32)))
            })
            .collect();
        ActLut {
            table,
            shift,
            min_raw,
            max_raw,
            lipschitz: if activation == Activation::Sigmoid {
                0.25
            } else {
                1.0
            },
        }
    }

    /// Applies the table to one raw fixed-point value.
    #[inline]
    pub(crate) fn apply(&self, raw: i32) -> i32 {
        let clamped = raw.clamp(self.min_raw, self.max_raw);
        let index = ((i64::from(clamped) - i64::from(self.min_raw)) >> self.shift) as usize;
        self.table[index.min(self.table.len() - 1)]
    }

    /// Worst-case float error the LUT adds on top of an exact activation
    /// (input discretization times Lipschitz constant, plus output
    /// quantization), and the Lipschitz constant itself.
    pub(crate) fn error_terms(&self, format: FixedPoint) -> (f32, f32) {
        let input_step = (1u64 << self.shift) as f32 / format.scale();
        (
            self.lipschitz * input_step + format.max_error(),
            self.lipschitz,
        )
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Largest absolute raw value the table can emit.
    ///
    /// Table entries are quantized activations, so they are format raws by
    /// construction; the packed inference tier uses this bound to prove
    /// statically that LUT outputs always fit the `i16` lane and
    /// skip the per-layer range scan.
    pub fn output_bound(&self) -> i32 {
        self.table
            .iter()
            .map(|v| v.saturating_abs())
            .max()
            .unwrap_or(0)
    }

    /// Exact image of `ActLut::apply` over an input interval: the
    /// `(min, max)` of the table entries reachable from any raw in
    /// `[lo, hi]`. Because `apply` clamps and then indexes, the
    /// reachable entries are exactly the contiguous slice between the
    /// clamped endpoints' indices — so this is a *derived* fact about
    /// the table, not a heuristic bound. The interval analyzer uses it
    /// as the activation transfer function; the whole-table call
    /// `output_range(i32::MIN, i32::MAX)` subsumes
    /// [`ActLut::output_bound`].
    pub fn output_range(&self, lo: i32, hi: i32) -> (i32, i32) {
        let index = |raw: i32| -> usize {
            let clamped = raw.clamp(self.min_raw, self.max_raw);
            let i = ((i64::from(clamped) - i64::from(self.min_raw)) >> self.shift) as usize;
            i.min(self.table.len() - 1)
        };
        let (a, b) = (index(lo.min(hi)), index(lo.max(hi)));
        let slice = &self.table[a..=b];
        (
            slice.iter().copied().min().unwrap_or(0),
            slice.iter().copied().max().unwrap_or(0),
        )
    }
}

/// A per-`(FixedPoint, Activation)` cache of [`ActLut`]s, shared across
/// every pipeline compiled through it.
///
/// Thread-safe: compile from multiple threads freely. The counters let
/// callers assert the sharing actually happened (`builds()` stays at the
/// number of *distinct* format/activation pairs no matter how many models
/// were lowered).
///
/// # Example
///
/// ```
/// use homunculus_ml::mlp::Activation;
/// use homunculus_ml::quantize::FixedPoint;
/// use homunculus_runtime::lut::LutCache;
///
/// let cache = LutCache::new();
/// let q = FixedPoint::taurus_default();
/// let a = cache.get_or_build(q, Activation::Sigmoid).unwrap();
/// let b = cache.get_or_build(q, Activation::Sigmoid).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.builds(), 1);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Default)]
pub struct LutCache {
    entries: Mutex<HashMap<(FixedPoint, Activation), Arc<ActLut>>>,
    builds: AtomicUsize,
    hits: AtomicUsize,
}

impl LutCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        LutCache::default()
    }

    /// Returns the shared table for `(format, activation)`, building it on
    /// first use; `None` for activations that are not LUT-implemented
    /// (ReLU/Linear).
    pub fn get_or_build(&self, format: FixedPoint, activation: Activation) -> Option<Arc<ActLut>> {
        match activation {
            Activation::Sigmoid | Activation::Tanh => {}
            Activation::Relu | Activation::Linear => return None,
        }
        let mut entries = self.entries.lock().expect("lut cache poisoned");
        if let Some(existing) = entries.get(&(format, activation)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(existing));
        }
        let built = Arc::new(ActLut::build(format, activation));
        entries.insert((format, activation), Arc::clone(&built));
        self.builds.fetch_add(1, Ordering::Relaxed);
        Some(built)
    }

    /// Number of tables actually materialized.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of lookups served from an already-built table.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct `(format, activation)` pairs cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("lut cache poisoned").len()
    }

    /// Whether the cache holds no tables yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_linear_take_no_table() {
        let cache = LutCache::new();
        let q = FixedPoint::taurus_default();
        assert!(cache.get_or_build(q, Activation::Relu).is_none());
        assert!(cache.get_or_build(q, Activation::Linear).is_none());
        assert_eq!(cache.builds(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn distinct_formats_and_activations_build_distinct_tables() {
        let cache = LutCache::new();
        let q = FixedPoint::taurus_default();
        let q8 = FixedPoint::new(2, 8).unwrap();
        let a = cache.get_or_build(q, Activation::Sigmoid).unwrap();
        let b = cache.get_or_build(q, Activation::Tanh).unwrap();
        let c = cache.get_or_build(q8, Activation::Sigmoid).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.builds(), 3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn repeated_requests_share_one_table() {
        let cache = LutCache::new();
        let q = FixedPoint::taurus_default();
        let first = cache.get_or_build(q, Activation::Tanh).unwrap();
        for _ in 0..7 {
            let again = cache.get_or_build(q, Activation::Tanh).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
        }
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn concurrent_compiles_build_at_most_one_table() {
        let cache = LutCache::new();
        let q = FixedPoint::taurus_default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let lut = cache.get_or_build(q, Activation::Sigmoid).unwrap();
                    assert!(lut.entries() > 0);
                });
            }
        });
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn table_matches_direct_build() {
        let q = FixedPoint::taurus_default();
        let cache = LutCache::new();
        let shared = cache.get_or_build(q, Activation::Sigmoid).unwrap();
        let direct = ActLut::build(q, Activation::Sigmoid);
        assert_eq!(*shared, direct);
        // Sigmoid near 0 is near 0.5 — the table evaluates at bucket
        // midpoints, so allow the midpoint offset: half a bucket
        // (16 raw steps for Q3.12) times the 0.25 Lipschitz constant,
        // plus a rounding step.
        assert!((shared.apply(0) - q.quantize(0.5)).abs() <= 5);
    }
}
