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
use homunculus_ml::quantize::{FixedPoint, PackedFixed};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of index bits in an activation lookup table (2048 entries for a
/// 16-bit format).
const LUT_BITS: u32 = 11;

/// Most entries a table can have: `shift = total_bits − LUT_BITS`
/// (saturating) leaves at most `LUT_BITS` bits of index.
const LUT_ENTRIES: usize = 1 << LUT_BITS;

/// One materialized sigmoid/tanh lookup table in a fixed-point format —
/// the same strategy the hardware templates use ("implemented via LUT on
/// hardware"). Immutable once built, so it is shared across pipelines via
/// `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ActLut {
    table: Vec<i32>,
    /// The table as `i16` lanes, padded to [`LUT_ENTRIES`] with its last
    /// entry, for formats that pack (every entry is then a format raw
    /// that fits a lane); `None` for wider formats. See [`LaneLut`].
    lanes: Option<Box<[i16; LUT_ENTRIES]>>,
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
        let table: Vec<i32> = (0..entries)
            .map(|i| {
                let raw_mid = i64::from(min_raw) + ((i as i64) << shift) + half_step;
                format.quantize(activation.apply(format.dequantize(raw_mid as i32)))
            })
            .collect();
        let lanes = PackedFixed::new(format).map(|_| {
            let mut lanes = Box::new([0i16; LUT_ENTRIES]);
            let last = *table.last().expect("a table has at least one entry");
            for (lane, &v) in lanes
                .iter_mut()
                .zip(table.iter().chain(std::iter::repeat(&last)))
            {
                *lane = i16::try_from(v).expect("a packable format's raws fit a lane");
            }
            lanes
        });
        ActLut {
            table,
            lanes,
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

    /// The table's 8-wide lane form, for a format that packs; `None` for
    /// wider formats, which never run the packed tier.
    pub(crate) fn lanes(&self) -> Option<LaneLut<'_>> {
        Some(LaneLut {
            table: self.lanes.as_deref()?,
            shift: self.shift,
            min_raw: self.min_raw,
            max_raw: self.max_raw,
        })
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

/// An [`ActLut`] as the packed DNN walk applies it: to the eight
/// accumulators of one dense tile at once, straight into `i16` lanes.
///
/// The fields are copied out of the table once per layer, so the tile's
/// epilogue keeps them in registers. The index is computed 8-wide as
/// `(clamp(v, min_raw, max_raw) − min_raw) >> shift`, which is
/// [`ActLut::apply`]'s index: the clamped value minus `min_raw` lies in
/// `[0, max_raw − min_raw]`, so it is exact as a `u32`, and it is at most
/// `table.len() − 1` (the table has `((max_raw − min_raw) >> shift) + 1`
/// entries), so `apply`'s `min(len − 1)` never bites. The index is then
/// masked to [`LUT_ENTRIES`]` − 1`, which changes no index (every table
/// has at most that many entries) and proves every lookup in bounds, so
/// the eight loads carry no bounds check. Lanes past the table's end are
/// padding, never read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneLut<'a> {
    table: &'a [i16; LUT_ENTRIES],
    shift: u32,
    min_raw: i32,
    max_raw: i32,
}

impl LaneLut<'_> {
    /// [`ActLut::apply`] of each of `acc`, narrowed to a lane.
    #[inline(always)]
    pub(crate) fn apply8(self, acc: &[i32; PackedFixed::TILE]) -> [i16; PackedFixed::TILE] {
        let mut index = [0u32; PackedFixed::TILE];
        for (i, &v) in index.iter_mut().zip(acc) {
            let clamped = v.max(self.min_raw).min(self.max_raw);
            *i = ((clamped - self.min_raw) as u32 >> self.shift) & (LUT_ENTRIES as u32 - 1);
        }
        index.map(|i| self.table[i as usize])
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

    /// The two LUT activations at Q3.12 and at the 8-bit Q2.5.
    fn lane_tables() -> Vec<ActLut> {
        let formats = [FixedPoint::taurus_default(), FixedPoint::new(2, 5).unwrap()];
        let activations = [Activation::Sigmoid, Activation::Tanh];
        formats
            .iter()
            .flat_map(|&f| activations.map(|a| ActLut::build(f, a)))
            .collect()
    }

    /// `n` 8-wide [`LaneLut::apply8`] calls from `first`, wrapping past
    /// `i32::MAX`; the `(input, lane, apply)` of up to 8 that differ.
    fn lane_mismatches(lut: &ActLut, first: i32, n: usize) -> Vec<(i32, i16, i32)> {
        let lanes = lut.lanes().expect("a packable format has lanes");
        let mut found = Vec::new();
        for call in 0..n {
            let base = first.wrapping_add((call * 8) as i32);
            let acc = std::array::from_fn(|i| base.wrapping_add(i as i32));
            for (&v, lane) in acc.iter().zip(lanes.apply8(&acc)) {
                if i32::from(lane) != lut.apply(v) && found.len() < 8 {
                    found.push((v, lane, lut.apply(v)));
                }
            }
        }
        found
    }

    #[test]
    fn lane_lut_matches_apply_around_every_edge() {
        for lut in lane_tables() {
            let (min, max) = (lut.min_raw, lut.max_raw);
            let step = 1i32 << lut.shift;
            // The ends of i32, both clamp edges, and every bucket boundary
            // of the table: the index the 8-wide form computes is exact
            // everywhere or it parts from `apply` at one of these.
            let mut starts = vec![i32::MIN, i32::MAX - 7, min - 8, max - 4, -4];
            starts.extend((0..lut.entries() as i32).map(|i| min + i * step - 4));
            for first in starts {
                assert_eq!(
                    lane_mismatches(&lut, first, 1),
                    [],
                    "[{min}, {max}] >> {}",
                    lut.shift
                );
            }
        }
        let wide = FixedPoint::new(14, 16).unwrap();
        assert!(ActLut::build(wide, Activation::Tanh).lanes().is_none());
    }

    #[test]
    #[ignore = "2^34 lookups: run in release, by `make exhaustive`"]
    fn lane_lut_matches_apply_on_every_i32() {
        const CHUNK: usize = 1 << 16;
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(8);
        for lut in lane_tables() {
            let mismatches: Vec<(i32, i16, i32)> = std::thread::scope(|scope| {
                let lut = &lut;
                let workers: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut found = Vec::new();
                            let mut chunk = t;
                            while chunk * CHUNK < 1 << 32 {
                                let first = (chunk * CHUNK) as u32 as i32;
                                found.extend(lane_mismatches(lut, first, CHUNK / 8));
                                chunk += threads;
                            }
                            found
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap())
                    .collect()
            });
            assert!(
                mismatches.is_empty(),
                "[{}, {}] >> {}: (input, lane, apply) {mismatches:?}",
                lut.min_raw,
                lut.max_raw,
                lut.shift
            );
        }
    }

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
