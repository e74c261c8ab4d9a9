//! Packed-integer kernels: the vectorizable tier under [`FixedPoint`].
//!
//! Taurus computes in a Q3.12 **16-bit** word, yet the scalar kernels in
//! [`crate::quantize`] store every weight as a full `i32` and widen each
//! product to `i64`. This module packs format-bounded raws into contiguous
//! `i16` — plain `Vec<i16>` / `&[i16]`, one lane type for every format of
//! up to 16 total bits — and runs the hot loops over fixed-width lanes —
//! `[i16; 8]` chunks with widening `i32` multiplies — which the compiler
//! auto-vectorizes. There is one build: every kernel below is portable,
//! safe Rust.
//!
//! # The bit-equality contract
//!
//! Every packed kernel returns **bit-identical** results to its scalar
//! counterpart ([`FixedPoint::fixed_dot`] / [`FixedPoint::fixed_matvec`] /
//! [`FixedPoint::fixed_squared_distance`]) on the same raws, saturation
//! points included. The scalar kernels accumulate **sequentially with
//! saturation**, which is order-dependent only if saturation actually
//! occurs. Packed operands are bounded — weights/features by the format's
//! raw range, hidden activations by the `i16` lane — so each kernel
//! derives a static per-element term bound and checks, per call, whether
//! `|bias| + n * term_bound` can reach `i32::MAX`:
//!
//! - **No** (the overwhelmingly common case — Q3.12 dots are safe to
//!   8191 elements): no saturation is possible anywhere, so plain
//!   re-orderable lane sums produce the very bits the sequential
//!   saturating loop would.
//! - **Yes**: the kernel runs the scalar kernel itself on the lanes (the
//!   [`FixedPoint`] kernels are generic over the stored word) — the same
//!   sequential loop, hence the same bits, just not vectorized.
//!
//! The proptests at the bottom pin this equivalence across random
//! formats (8-bit and narrower ones included: they share the `i16` lane),
//! lengths (including non-multiple-of-lane remainders), and
//! saturation-inducing inputs that force the replay path.
//!
//! # The packers write in place
//!
//! [`PackedFixed::pack_into`], [`PackedFixed::pack_checked`] and
//! [`PackedFixed::quantize_into_packed`] size the output with
//! `resize(n, 0)` and then fill it through `iter_mut().zip(..)`. Spelled
//! as `out.clear(); out.extend(values.iter().map(..))` the same packers
//! cost about 15 ns more per row on every family of the serving path
//! (readings: CHANGES.md, *one packed lane, one build*), so they stay
//! in-place loops.
//!
//! # Quantizing without branches
//!
//! [`FixedPoint::quantize`] rounds `y = v · 2^frac` half away from zero
//! in `f64` and clamps in `i64`; neither step vectorizes on baseline
//! x86-64, and at ~3 ns per value it cost as much per served row as a
//! small kernel. [`PackedFixed::quantize_into_packed`] reaches the same
//! raw in `f32`/`i32` selects only, so rustc turns its loop into 4-wide
//! SSE2:
//!
//! 1. `a = min(|y|, max_raw + 2)`. Anything at or past `max_raw + 2`
//!    saturates either way, and `min_raw = −(max_raw + 1)`, so the
//!    clamped magnitude still lands on the right edge after rounding.
//!    For a packable format `max_raw < 2^15`, so `a < 2^22`.
//! 2. `a + 2^23` lies in `[2^23, 2^24)`, where the `f32` step is exactly
//!    1: the add rounds `a` to the nearest integer, ties to even, and
//!    that integer is the sum's bits minus the bits of `2^23`.
//! 3. `a − rne(a)` is exact (the two are within ½ of each other), so
//!    `a − rne(a) ≥ 0.5` holds exactly on a tie that went to the even
//!    neighbour below; adding 1 there turns ties-to-even into
//!    ties-away-from-zero, the rounding `FixedPoint::quantize` does.
//! 4. The sign of `y` is restored with a two's-complement flip (so
//!    `−0.0` gives 0), NaN is mapped to 0 (as `FixedPoint::quantize`
//!    does), and the result is clamped to `[min_raw, max_raw]`. `±∞`
//!    and every `|y|` past the limit saturate there.
//!
//! Subnormal inputs need nothing special: `y` is then far below ½ and
//! rounds to 0. An exhaustive check over all 2^32 `f32` bit patterns, at
//! Q3.12 and at an 8-bit format, is an ignored test here
//! (`quantize_into_packed_matches_scalar_on_every_f32`, run by
//! `make exhaustive`); a proptest over random packable formats, biased to
//! ties, range edges and non-finite inputs, runs with the tier-1 suite.

use crate::quantize::FixedPoint;

/// Number of lanes the chunked loops process per step.
const LANES: usize = 8;

/// A [`FixedPoint`] format narrow enough to pack into `i16` lanes, with
/// the precomputed per-element term bounds that decide fast-path
/// eligibility.
///
/// Construct with [`PackedFixed::new`]; it returns `None` for formats
/// wider than 16 bits (those stay on the scalar `i32` tier).
///
/// # Example
///
/// ```
/// use homunculus_ml::quantize::{FixedPoint, PackedFixed};
///
/// let q = FixedPoint::taurus_default(); // Q3.12
/// let p = PackedFixed::new(q).unwrap();
/// let a = p.pack(&q.quantize_slice(&[0.5, -1.25, 2.0, 0.125]));
/// let b = p.pack(&q.quantize_slice(&[1.0, 0.75, -0.5, 3.0]));
/// let packed = p.packed_dot(&a, &b, false);
/// let scalar = q.fixed_dot(
///     &q.quantize_slice(&[0.5, -1.25, 2.0, 0.125]),
///     &q.quantize_slice(&[1.0, 0.75, -0.5, 3.0]),
/// );
/// assert_eq!(packed, scalar); // bit-identical, not merely close
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedFixed {
    format: FixedPoint,
    /// Max `|term|` of a dot product of two format-bounded raws.
    dot_term: i64,
    /// Max `|term|` of a matvec with lane-bounded inputs and
    /// format-bounded weights.
    mat_term: i64,
    /// Max `|term|` of a squared distance of two format-bounded raws.
    sq_term: i64,
    /// Max `|raw|` the format can produce (`2^(int_bits + frac_bits)`).
    raw_bound: i64,
}

impl PackedFixed {
    /// Output columns of one dense tile: the accumulators
    /// [`PackedFixed::packed_dense_block_lanes`] hands its epilogue.
    pub const TILE: usize = LANES;

    /// Smallest value a packed lane holds.
    pub const LANE_MIN: i32 = i16::MIN as i32;
    /// Largest value a packed lane holds.
    pub const LANE_MAX: i32 = i16::MAX as i32;

    /// Narrows a value the caller has proven lane-bounded; debug builds
    /// assert the bound.
    #[inline(always)]
    pub fn narrow(v: i32) -> i16 {
        debug_assert!((Self::LANE_MIN..=Self::LANE_MAX).contains(&v));
        v as i16
    }

    /// Wraps `format` if its raws fit an `i16` lane (≤ 16 total bits).
    pub fn new(format: FixedPoint) -> Option<Self> {
        if format.total_bits() > 16 {
            return None;
        }
        let magnitude = format.int_bits() + format.frac_bits();
        let raw_bound = 1i64 << magnitude;
        // Lane bound is a power of two: |LANE_MIN| = LANE_MAX + 1.
        let lane_bound = i64::from(Self::LANE_MAX) + 1;
        let f = format.frac_bits();
        Some(PackedFixed {
            format,
            dot_term: (raw_bound * raw_bound) >> f,
            mat_term: (lane_bound * raw_bound) >> f,
            sq_term: (4 * raw_bound * raw_bound) >> f,
            raw_bound,
        })
    }

    /// The wrapped format.
    pub fn format(&self) -> FixedPoint {
        self.format
    }

    /// Longest dot product of format-bounded operands that provably
    /// cannot saturate an `i32` accumulator (8191 for Q3.12). Longer
    /// inputs stay bit-identical via the sequential replay path.
    pub fn safe_dot_len(&self) -> usize {
        (i64::from(i32::MAX) / self.dot_term.max(1)) as usize
    }

    /// Packs format-bounded raws (from [`FixedPoint::quantize`]) into
    /// contiguous lanes.
    ///
    /// # Panics
    ///
    /// Panics if any raw is outside the format's range — packed kernels
    /// derive their no-saturation proofs from that bound.
    pub fn pack(&self, raw: &[i32]) -> Vec<i16> {
        for &v in raw {
            assert!(
                i64::from(v) >= -self.raw_bound && i64::from(v) < self.raw_bound,
                "raw {v} outside the format's range (+-{})",
                self.raw_bound
            );
        }
        raw.iter().map(|&v| v as i16).collect()
    }

    /// Packs `v` into `out` only if every value fits the lane range;
    /// returns whether it did. This is the per-layer check the runtime
    /// uses on intermediate DNN activations (ReLU outputs can exceed the
    /// lane even when the format fits it).
    pub fn pack_checked(&self, v: &[i32], out: &mut Vec<i16>) -> bool {
        let lanes = Self::LANE_MIN..=Self::LANE_MAX;
        if v.iter().any(|t| !lanes.contains(t)) {
            return false;
        }
        self.pack_into(v, out);
        true
    }

    /// Packs values the caller has already proven lane-bounded — e.g. LUT
    /// activation outputs, which are format raws by construction — without
    /// the range scan [`PackedFixed::pack_checked`] pays.
    ///
    /// Debug builds still assert the bound per lane.
    pub fn pack_into(&self, v: &[i32], out: &mut Vec<i16>) {
        out.resize(v.len(), 0);
        for (lane, &t) in out.iter_mut().zip(v) {
            *lane = Self::narrow(t);
        }
    }

    /// Quantizes floats straight into packed lanes (no intermediate `i32`
    /// buffer) — one packet's features, or a contiguous row-major block
    /// of them for [`PackedFixed::packed_matvec_block`]. Bit-identical to
    /// [`FixedPoint::quantize`] on every `f32`, in one branch-free pass
    /// (see *Quantizing without branches* above).
    pub fn quantize_into_packed(&self, values: &[f32], out: &mut Vec<i16>) {
        let rounder = Rounder::new(self.format);
        out.resize(values.len(), 0);
        for (lane, &v) in out.iter_mut().zip(values) {
            *lane = rounder.lane(v);
        }
    }

    /// [`PackedFixed::quantize_into_packed`] of the z-scores
    /// `(v - mean) / std`, element by element, in the same pass: `mean`
    /// and `std` are read at the index of each value, so a block of rows
    /// is normalized against a normalizer tiled once per row. Each
    /// z-score is computed exactly as `Normalizer::apply` computes it
    /// (one `f32` subtraction, then one division), so the lanes are those
    /// of `apply` followed by [`FixedPoint::quantize`], bit for bit (held
    /// to that by the runtime's chunk-walk tests, for 1–16 features and
    /// 1–32 rows).
    ///
    /// # Panics
    ///
    /// Panics if `mean` or `std` is shorter than `values`.
    pub fn quantize_normalized_into_packed(
        &self,
        values: &[f32],
        mean: &[f32],
        std: &[f32],
        out: &mut Vec<i16>,
    ) {
        let n = values.len();
        let (mean, std) = (&mean[..n], &std[..n]);
        let rounder = Rounder::new(self.format);
        out.resize(n, 0);
        for (((lane, &v), &m), &s) in out.iter_mut().zip(values).zip(mean).zip(std) {
            *lane = rounder.lane((v - m) / s);
        }
    }

    /// Packed fixed-point dot product, bit-identical to
    /// [`FixedPoint::fixed_dot`] on the widened raws.
    ///
    /// `certified` is the caller's [`crate::bounds`] proof that no partial
    /// sum can leave `i32` for any admissible input: it selects the
    /// re-orderable fast loop without the per-call worst-case guard. Pass
    /// `false` without one; the guard then decides.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn packed_dot(&self, a: &[i16], b: &[i16], certified: bool) -> i32 {
        assert_eq!(a.len(), b.len(), "packed_dot length mismatch");
        if certified || (a.len() as i64) * self.dot_term <= i64::from(i32::MAX) {
            dot_fast(self.format.frac_bits(), a, b)
        } else {
            self.format.fixed_dot(a, b)
        }
    }

    /// Dense-layer kernel (`out = bias + x * W`, weights row-major
    /// `input x output`) over packed weights but **unpacked** `i32`
    /// inputs — the fallback when an intermediate activation overflowed
    /// the lane range. This is [`FixedPoint::fixed_matvec`] itself, on the
    /// packed weights.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn packed_matvec_wide(&self, weights: &[i16], bias: &[i32], x: &[i32], out: &mut [i32]) {
        self.format.fixed_matvec(weights, bias, x, out);
    }

    /// Block dense-layer kernel: `rows` independent row vectors stored
    /// contiguously in `xblock` (row-major `rows x input`) against one
    /// weight matrix (row-major `input x output`), filling `out` row-major
    /// `rows x output`. Weights stay cache-hot across the whole block;
    /// each row's result is bit-identical to [`FixedPoint::fixed_matvec`]
    /// on the widened raws. `xblock` may carry any lane-bounded values
    /// (hidden activations), not just format-bounded ones. `certified` as
    /// for [`PackedFixed::packed_dot`].
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn packed_matvec_block(
        &self,
        weights: &[i16],
        bias: &[i32],
        xblock: &[i16],
        rows: usize,
        out: &mut [i32],
        certified: bool,
    ) {
        let output = bias.len();
        assert!(output > 0, "packed_matvec_block needs outputs");
        let input = weights.len() / output;
        assert_eq!(weights.len(), input * output, "ragged weight matrix");
        assert_eq!(xblock.len(), rows * input, "packed_matvec_block x shape");
        assert_eq!(out.len(), rows * output, "packed_matvec_block out shape");
        if input == 0 {
            for or in out.chunks_exact_mut(output) {
                or.copy_from_slice(bias);
            }
            return;
        }
        let fast = self.fast_block(bias, input, certified);
        let f = self.format.frac_bits();
        for (xr, or) in xblock.chunks_exact(input).zip(out.chunks_exact_mut(output)) {
            if fast {
                matvec_fast(f, weights, bias, xr, or);
            } else {
                self.format.fixed_matvec(weights, bias, xr, or);
            }
        }
    }

    /// A hidden dense layer with its activation fused into the tile: each
    /// row's accumulators are formed eight outputs at a time as in
    /// [`PackedFixed::packed_matvec_block`], and while they are still in
    /// registers `epilogue` maps them to the eight `i16` lanes written to
    /// `out` (row-major `rows x output`), the next layer's packed input.
    /// The `i32` sums are never stored.
    ///
    /// Runs only on the fast path: returns `false`, writing nothing, when
    /// the block's saturation guard fails (`certified` as for
    /// [`PackedFixed::packed_dot`]), and the caller then runs
    /// [`PackedFixed::packed_matvec_block`] and the activation itself.
    /// The outputs are the epilogue of the very sums that kernel returns,
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or the output width is not a whole
    /// number of [`PackedFixed::TILE`]-wide tiles.
    #[allow(clippy::too_many_arguments)]
    pub fn packed_dense_block_lanes(
        &self,
        weights: &[i16],
        bias: &[i32],
        xblock: &[i16],
        rows: usize,
        out: &mut [i16],
        certified: bool,
        epilogue: impl Fn(&[i32; LANES]) -> [i16; LANES],
    ) -> bool {
        let output = bias.len();
        assert!(
            output > 0 && output % LANES == 0,
            "packed_dense_block_lanes needs whole tiles, got {output} outputs"
        );
        let input = weights.len() / output;
        assert_eq!(weights.len(), input * output, "ragged weight matrix");
        assert_eq!(
            xblock.len(),
            rows * input,
            "packed_dense_block_lanes x shape"
        );
        assert_eq!(
            out.len(),
            rows * output,
            "packed_dense_block_lanes out shape"
        );
        if !self.fast_block(bias, input, certified) {
            return false;
        }
        let f = self.format.frac_bits();
        for (r, or) in out.chunks_exact_mut(output).enumerate() {
            let xr = &xblock[r * input..(r + 1) * input];
            for (start, lanes) in (0..output).step_by(LANES).zip(or.chunks_exact_mut(LANES)) {
                let mut acc = [0i32; LANES];
                acc.copy_from_slice(&bias[start..start + LANES]);
                matvec_tile(f, weights, output, start, xr, &mut acc);
                lanes.copy_from_slice(&epilogue(&acc));
            }
        }
        true
    }

    /// Whether a dense block over `input` lane-bounded inputs runs the
    /// re-orderable fast loop: certified at lowering, or no partial sum
    /// can leave `i32` by the worst-case guard. The bound depends only on
    /// the bias and the input length, both shared by every row, so it is
    /// decided once per block.
    fn fast_block(&self, bias: &[i32], input: usize, certified: bool) -> bool {
        certified || {
            let bias_bound = bias.iter().map(|&b| i64::from(b).abs()).max().unwrap_or(0);
            bias_bound + (input as i64) * self.mat_term <= i64::from(i32::MAX)
        }
    }

    /// Packed squared Euclidean distance, bit-identical to
    /// [`FixedPoint::fixed_squared_distance`] on the widened raws.
    /// `certified` as for [`PackedFixed::packed_dot`].
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn packed_squared_distance(&self, a: &[i16], b: &[i16], certified: bool) -> i32 {
        assert_eq!(a.len(), b.len(), "packed_squared_distance length mismatch");
        if certified || (a.len() as i64) * self.sq_term <= i64::from(i32::MAX) {
            sq_fast(self.format.frac_bits(), a, b)
        } else {
            self.format.fixed_squared_distance(a, b)
        }
    }
}

/// `2^23`: added to a float in `[0, 2^22)`, it leaves that float rounded
/// to the nearest integer (ties to even) in the low mantissa bits.
const MAGIC: f32 = 8_388_608.0;

/// The constants of one branch-free quantize pass over a format.
#[derive(Clone, Copy)]
struct Rounder {
    scale: f32,
    /// `max_raw + 2`: every `|y|` at or beyond it saturates, and below
    /// `2^22` the magic add is exact.
    limit: f32,
    min_raw: i32,
    max_raw: i32,
}

impl Rounder {
    fn new(format: FixedPoint) -> Self {
        Rounder {
            scale: format.scale(),
            limit: (format.max_raw() + 2) as f32,
            min_raw: format.min_raw(),
            max_raw: format.max_raw(),
        }
    }

    /// [`FixedPoint::quantize`] of `v`, narrowed to a lane, with no
    /// data-dependent branch: every step is a select, so a loop of these
    /// vectorizes.
    #[inline(always)]
    fn lane(self, v: f32) -> i16 {
        let y = v * self.scale;
        let a = y.abs();
        // A NaN `a` compares false and takes the limit; it is zeroed below.
        let a = if a < self.limit { a } else { self.limit };
        let biased = a + MAGIC;
        let nearest_even = biased.to_bits() as i32 - MAGIC.to_bits() as i32;
        let away = i32::from(a - (biased - MAGIC) >= 0.5);
        let sign = (y.to_bits() as i32) >> 31;
        let k = ((nearest_even + away) ^ sign) - sign;
        let k = if y.is_nan() { 0 } else { k };
        PackedFixed::narrow(k.clamp(self.min_raw, self.max_raw))
    }
}

// ---------------------------------------------------------------------
// Chunked-lane bodies. The `_fast` variants require the caller to have
// proven no saturation can occur (see the guard math above) — products
// fit i32 and plain lane sums are re-orderable, so rustc's
// auto-vectorizer is free to turn them into SIMD. Without that proof a
// kernel calls the scalar `FixedPoint` kernel on the lanes instead.
//
// The dense layer is output-stationary: `matvec_fast` takes `LANES`
// outputs at a time and keeps their accumulators in a local array across
// the whole input loop — one bias load and one store per output, where
// accumulating into `out[]` cost a load and a store per output per input
// element (measured on the 7-16-8-2 serving DNN, Q3.12, 2 vCPUs: 202 ->
// 140 ns per row on the block walk). Each output still sums its products
// in input order with the per-product `>> f`, so the bits are those of
// `FixedPoint::fixed_matvec`; a zero input is multiplied like any other
// (its products are 0) rather than branched around. rustc compiles the
// tile to SSE2 mullo/mulhi pairs on x86_64; a hand-written intrinsic
// twin measured no faster (151 against 136 ns per row).
// A row-in-lane form over a transposed block needs the block
// column-major through quantize, activation and argmax, and an in-tree
// walk of that form read x0.82 on a 7-2 net and x1.00 on the served
// 7-16-8-2 net, in-process against this one: the further 17 ns per row a
// prototype once sized it at did not hold (ROADMAP item 4b, *Bulk
// kernels*).
//
// The epilogue. `packed_dense_block_lanes` hands each whole tile's eight
// accumulators, still in registers, to the caller's epilogue (a hidden
// layer's activation) and stores the eight `i16` lanes it returns as the
// next layer's packed input: the `i32` sums are never written, read back
// for the activation, or read a third time to repack. The lanes are the
// epilogue of the very sums `matvec_fast` would store, so nothing about
// the bits changes; the fused tile runs only on the fast path and
// declines the block otherwise. It takes whole tiles only: the runtime
// pads every packed layer's outputs to a multiple of `LANES` with zero
// weight columns and zero bias, and the next layer's matching inputs
// with zero weight rows. That padding is exact on both paths: a padded
// output's every product is `(x * 0) >> f = 0`, so it is 0 before its
// activation, and a padded input meets only zero weights, so whatever
// its activation made of it, each of its terms is 0 too. Adding a zero
// term changes no accumulator, whether the sum is re-ordered or replays
// the saturating loop (`saturating_add(0)` is the identity), so every
// real output keeps its bits. The fused tile compiles to `pmaddwd`
// products and a `psrad` by a register count, not to scalar `imul`: a
// second tile with the shift a constant at Q3.12 (`psrad $0xc`) read
// level against it (CHANGES.md, *one pass per dense tile*), so there is
// one tile for every format. Under an identity epilogue rustc even keeps
// the sums in 16-bit lanes (`paddw`), which gives the same bits: `as i16`
// keeps a sum modulo 2^16, and two's-complement addition commutes with
// that truncation.
// ---------------------------------------------------------------------

fn dot_fast(f: u32, a: &[i16], b: &[i16]) -> i32 {
    let mut lanes = [0i32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
            *lane += (i32::from(x) * i32::from(y)) >> f;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += (i32::from(x) * i32::from(y)) >> f;
    }
    acc
}

fn matvec_fast(f: u32, weights: &[i16], bias: &[i32], x: &[i16], out: &mut [i32]) {
    let output = out.len();
    let full = output - output % LANES;
    for start in (0..full).step_by(LANES) {
        let mut acc = [0i32; LANES];
        acc.copy_from_slice(&bias[start..start + LANES]);
        matvec_tile(f, weights, output, start, x, &mut acc);
        out[start..start + LANES].copy_from_slice(&acc);
    }
    if full < output {
        let mut acc = [0i32; LANES];
        let acc = &mut acc[..output - full];
        acc.copy_from_slice(&bias[full..]);
        matvec_tile(f, weights, output, full, x, acc);
        out[full..].copy_from_slice(acc);
    }
}

/// Adds every input's products into `acc`, the accumulators of the
/// `acc.len()` outputs from column `start`. Inlined so that a full tile's
/// length is a constant and its accumulators are registers.
#[inline(always)]
fn matvec_tile(f: u32, weights: &[i16], output: usize, start: usize, x: &[i16], acc: &mut [i32]) {
    for (k, &xv) in x.iter().enumerate() {
        let xv = i32::from(xv);
        let tile = &weights[k * output + start..][..acc.len()];
        for (a, &w) in acc.iter_mut().zip(tile) {
            *a += (xv * i32::from(w)) >> f;
        }
    }
}

fn sq_fast(f: u32, a: &[i16], b: &[i16]) -> i32 {
    let mut lanes = [0i32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
            // The difference fits i32 but its square may not: square in
            // i64, shift, then narrow (the guard bounds the shifted term).
            let d = i64::from(i32::from(x) - i32::from(y));
            *lane += ((d * d) >> f) as i32;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = i64::from(i32::from(x) - i32::from(y));
        acc += ((d * d) >> f) as i32;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q312() -> PackedFixed {
        PackedFixed::new(FixedPoint::taurus_default()).unwrap()
    }

    /// Deterministic format-bounded raws from a seed (covers negatives,
    /// zeros, and the extreme raws of the format).
    fn raws(format: FixedPoint, seed: u64, n: usize) -> Vec<i32> {
        let span = (i64::from(format.max_raw()) - i64::from(format.min_raw()) + 1) as u64;
        (0..n as u64)
            .map(|i| {
                let h = (seed ^ i)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (i64::from(format.min_raw()) + (h % span) as i64) as i32
            })
            .collect()
    }

    /// One-row form of the block kernel, for tests that pin a single
    /// matvec against [`FixedPoint::fixed_matvec`].
    fn matvec_row(p: &PackedFixed, w: &[i32], bias: &[i32], x: &[i32]) -> Vec<i32> {
        let mut out = vec![0i32; bias.len()];
        p.packed_matvec_block(&p.pack(w), bias, &p.pack(x), 1, &mut out, false);
        out
    }

    #[test]
    fn width_selection_tracks_total_bits() {
        // Every format of up to 16 total bits packs (narrow ones share the
        // i16 lane); anything wider stays on the scalar tier.
        for (int_bits, frac_bits) in [(0u32, 1u32), (3, 4), (2, 5), (7, 8), (3, 12), (14, 1)] {
            let q = FixedPoint::new(int_bits, frac_bits).unwrap();
            assert!(q.total_bits() <= 16);
            assert!(PackedFixed::new(q).is_some(), "Q{int_bits}.{frac_bits}");
        }
        for (int_bits, frac_bits) in [(4u32, 12u32), (3, 13), (14, 16)] {
            let q = FixedPoint::new(int_bits, frac_bits).unwrap();
            assert!(q.total_bits() > 16);
            assert!(PackedFixed::new(q).is_none(), "Q{int_bits}.{frac_bits}");
        }
    }

    #[test]
    fn q312_safe_dot_len_is_8191() {
        assert_eq!(q312().safe_dot_len(), 8191);
    }

    #[test]
    fn pack_rejects_out_of_range_raws() {
        let p = q312();
        assert!(std::panic::catch_unwind(|| p.pack(&[1 << 20])).is_err());
    }

    #[test]
    fn pack_checked_detects_lane_overflow() {
        let p = q312();
        let mut out = Vec::new();
        assert!(p.pack_checked(&[1000, -32768, 32767], &mut out));
        assert_eq!(out, [1000, -32768, 32767]);
        assert!(!p.pack_checked(&[1000, 40_000], &mut out));
    }

    #[test]
    fn quantize_into_packed_matches_scalar_quantize() {
        let p = q312();
        let values = [0.5f32, -7.99, 123.0, f32::NAN, -0.25, 7.999_756];
        let mut out = Vec::new();
        p.quantize_into_packed(&values, &mut out);
        for (&lane, &v) in out.iter().zip(&values) {
            assert_eq!(i32::from(lane), p.format().quantize(v), "value {v}");
        }
        assert_eq!(out.len(), values.len());
    }

    /// `n` inputs from `seed`, most of them where a branch-free rounding
    /// could part from [`FixedPoint::quantize`] on `format`: ties `k ± ½`
    /// and their neighbours one ulp away, `±(max_raw + ½)`,
    /// `±(max_raw + 1½)` and the raws around the clamp limit, NaNs with
    /// any payload and sign, `±∞`, `±0.0` and subnormals; the rest are
    /// arbitrary bit patterns.
    fn edge_inputs(format: FixedPoint, seed: u64, n: usize) -> Vec<f32> {
        let scale = format.scale();
        let max = format.max_raw() as f32;
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let h = next();
                let sign = if h & 1 == 0 { 1.0f32 } else { -1.0 };
                let sign_bit = (h as u32 & 1) << 31;
                let k = ((h >> 8) % (u64::from(format.max_raw().unsigned_abs()) + 4)) as f32;
                let tie = sign * (k + 0.5) / scale;
                match (h >> 4) % 12 {
                    0 | 1 => tie,
                    2 => f32::from_bits(tie.to_bits() + 1),
                    3 => f32::from_bits(tie.to_bits().saturating_sub(1)),
                    4 => sign * (max + 0.5) / scale,
                    5 => sign * (max + 1.5) / scale,
                    6 => sign * (max + ((h >> 40) % 8) as f32 * 0.5) / scale,
                    7 => f32::from_bits(
                        0x7F80_0000 | sign_bit | ((h >> 32) as u32 & 0x7F_FFFF).max(1),
                    ),
                    8 => sign * f32::INFINITY,
                    9 => sign * 0.0,
                    10 => f32::from_bits(sign_bit | ((h >> 32) as u32 & 0x7F_FFFF)),
                    _ => f32::from_bits((h >> 32) as u32),
                }
            })
            .collect()
    }

    #[test]
    fn edge_inputs_cover_every_edge() {
        let q = FixedPoint::taurus_default();
        let inputs = edge_inputs(q, 7, 4096);
        let raw = |v: f32| v * q.scale();
        assert!(inputs.iter().any(|v| v.is_nan()));
        assert!(inputs.contains(&f32::INFINITY));
        assert!(inputs.contains(&f32::NEG_INFINITY));
        assert!(inputs.iter().any(|&v| v == 0.0 && v.is_sign_negative()));
        assert!(inputs.iter().any(|&v| v.is_subnormal()));
        assert!(inputs
            .iter()
            .any(|&v| raw(v) == -(q.max_raw() as f32 + 1.5)));
        assert!(inputs.iter().any(|&v| raw(v).fract().abs() == 0.5));
    }

    #[test]
    #[ignore = "2^33 quantizations: run in release, by `make exhaustive`"]
    fn quantize_into_packed_matches_scalar_on_every_f32() {
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(8) as u64;
        for format in [FixedPoint::taurus_default(), FixedPoint::new(2, 5).unwrap()] {
            let p = PackedFixed::new(format).unwrap();
            let mismatches: Vec<(u32, i16, i32)> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let (mut values, mut lanes, mut found) =
                                (Vec::new(), Vec::new(), Vec::new());
                            let mut chunk = t;
                            while chunk * CHUNK < 1 << 32 {
                                let first = chunk * CHUNK;
                                values.clear();
                                values.extend(
                                    (first..first + CHUNK).map(|b| f32::from_bits(b as u32)),
                                );
                                p.quantize_into_packed(&values, &mut lanes);
                                for (&v, &lane) in values.iter().zip(&lanes) {
                                    let want = format.quantize(v);
                                    if i32::from(lane) != want && found.len() < 8 {
                                        found.push((v.to_bits(), lane, want));
                                    }
                                }
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
                "{format:?}: (bits, lane, quantize) {mismatches:x?}"
            );
        }
    }

    #[test]
    fn packed_dot_matches_scalar_on_q312() {
        let p = q312();
        let q = p.format();
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100] {
            let a = raws(q, 7 + n as u64, n);
            let b = raws(q, 1000 + n as u64, n);
            assert_eq!(
                p.packed_dot(&p.pack(&a), &p.pack(&b), false),
                q.fixed_dot(&a, &b),
                "n = {n}"
            );
        }
    }

    #[test]
    fn packed_matvec_matches_scalar_on_q312() {
        let p = q312();
        let q = p.format();
        for (input, output) in [(1usize, 1usize), (7, 16), (16, 4), (13, 5), (8, 8)] {
            let w = raws(q, 3, input * output);
            let bias = raws(q, 4, output);
            let x = raws(q, 5, input);
            let mut scalar = vec![0i32; output];
            q.fixed_matvec(&w, &bias, &x, &mut scalar);
            assert_eq!(matvec_row(&p, &w, &bias, &x), scalar, "{input}x{output}");
        }
    }

    #[test]
    fn packed_matvec_wide_matches_scalar_with_huge_activations() {
        // Inputs beyond the lane range (what a ReLU can emit) go through
        // the wide path and still match the scalar kernel bit for bit.
        let p = q312();
        let q = p.format();
        let (input, output) = (6usize, 3usize);
        let w = raws(q, 11, input * output);
        let bias = raws(q, 12, output);
        let x = vec![1_000_000, -5, 0, i32::MAX / 2, 77, -40_000];
        let mut scalar = vec![0i32; output];
        q.fixed_matvec(&w, &bias, &x, &mut scalar);
        let mut packed = vec![0i32; output];
        p.packed_matvec_wide(&p.pack(&w), &bias, &x, &mut packed);
        assert_eq!(packed, scalar);
    }

    #[test]
    fn packed_squared_distance_matches_scalar_on_q312() {
        let p = q312();
        let q = p.format();
        for n in [0usize, 1, 7, 8, 9, 31, 64, 65] {
            let a = raws(q, 21 + n as u64, n);
            let b = raws(q, 87 + n as u64, n);
            assert_eq!(
                p.packed_squared_distance(&p.pack(&a), &p.pack(&b), false),
                q.fixed_squared_distance(&a, &b),
                "n = {n}"
            );
        }
    }

    #[test]
    fn saturating_formats_take_the_replay_path_and_still_match() {
        // Q14.1: dot terms reach 2^29, so 8 max-magnitude raws saturate
        // the accumulator — order suddenly matters and only the replay
        // path can match. This pins the guard actually routing there.
        let q = FixedPoint::new(14, 1).unwrap();
        let p = PackedFixed::new(q).unwrap();
        assert!(p.safe_dot_len() < 8);
        let a = vec![q.min_raw(); 20];
        let b = vec![q.min_raw(); 20];
        assert_eq!(
            p.packed_dot(&p.pack(&a), &p.pack(&b), false),
            q.fixed_dot(&a, &b)
        );
        let mixed: Vec<i32> = (0..20)
            .map(|i| if i % 3 == 0 { q.max_raw() } else { q.min_raw() })
            .collect();
        assert_eq!(
            p.packed_dot(&p.pack(&a), &p.pack(&mixed), false),
            q.fixed_dot(&a, &mixed)
        );
        assert_eq!(
            p.packed_squared_distance(&p.pack(&a), &p.pack(&mixed), false),
            q.fixed_squared_distance(&a, &mixed)
        );
        let mut scalar = vec![0i32; 4];
        q.fixed_matvec(&a, &[q.max_raw(); 4], &mixed[..5], &mut scalar);
        assert_eq!(matvec_row(&p, &a, &[q.max_raw(); 4], &mixed[..5]), scalar);
    }

    #[test]
    fn fused_tiles_are_the_epilogue_of_the_block_sums() {
        // A 16-bit and an 8-bit format; an empty input leaves each tile
        // its bias.
        let epilogue = |acc: &[i32; LANES]| acc.map(|v| (v >> 3) as i16);
        for q in [FixedPoint::taurus_default(), FixedPoint::new(2, 5).unwrap()] {
            let p = PackedFixed::new(q).unwrap();
            for (input, output) in [(0usize, 8usize), (1, 8), (7, 16), (16, 8), (9, 24)] {
                let rows = 5usize;
                let w = raws(q, 41, input * output);
                let bias = raws(q, 42, output);
                let block = p.pack(&raws(q, 43, rows * input));
                let mut sums = vec![0i32; rows * output];
                p.packed_matvec_block(&p.pack(&w), &bias, &block, rows, &mut sums, false);
                let want: Vec<i16> = sums.iter().map(|&v| (v >> 3) as i16).collect();
                let mut lanes = vec![0i16; rows * output];
                let w = p.pack(&w);
                assert!(p.packed_dense_block_lanes(
                    &w, &bias, &block, rows, &mut lanes, false, epilogue
                ));
                assert_eq!(lanes, want, "{q:?} {input}x{output}");
            }
        }
        // Past the saturation guard the fused tile declines and writes
        // nothing: the caller replays the block exactly.
        let q = FixedPoint::new(14, 1).unwrap();
        let p = PackedFixed::new(q).unwrap();
        let w = p.pack(&vec![q.min_raw(); 20 * 8]);
        let block = p.pack(&[q.min_raw(); 20]);
        let mut lanes = vec![7i16; 8];
        assert!(!p.packed_dense_block_lanes(&w, &[0; 8], &block, 1, &mut lanes, false, epilogue));
        assert_eq!(lanes, [7; 8]);
    }

    #[test]
    fn block_matvec_rows_match_single_row_calls() {
        // A 16-bit and an 8-bit format; output widths on every side of a
        // LANES-wide tile; an empty input; rows that are all or partly zero.
        for q in [FixedPoint::taurus_default(), FixedPoint::new(2, 5).unwrap()] {
            let p = PackedFixed::new(q).unwrap();
            for output in [1usize, 2, 7, 8, 9, 16, 17] {
                for input in [0usize, 1, 7, 16] {
                    let rows = 5usize;
                    let w = raws(q, 31, input * output);
                    let bias = raws(q, 32, output);
                    let mut flat = raws(q, 33, rows * input);
                    flat[..input].fill(0);
                    for v in flat.iter_mut().step_by(3) {
                        *v = 0;
                    }
                    let block = p.pack(&flat);
                    let mut out = vec![0i32; rows * output];
                    p.packed_matvec_block(&p.pack(&w), &bias, &block, rows, &mut out, false);
                    for r in 0..rows {
                        let mut single = vec![0i32; output];
                        q.fixed_matvec(&w, &bias, &flat[r * input..(r + 1) * input], &mut single);
                        assert_eq!(
                            &out[r * output..(r + 1) * output],
                            &single[..],
                            "{q:?} {input}x{output} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eight_bit_formats_match_scalar_on_i16_lanes() {
        let q = FixedPoint::new(2, 5).unwrap(); // 8 total bits
        let p = PackedFixed::new(q).unwrap();
        let a = raws(q, 5, 33);
        let b = raws(q, 6, 33);
        let (pa, pb) = (p.pack(&a), p.pack(&b));
        assert_eq!(p.packed_dot(&pa, &pb, false), q.fixed_dot(&a, &b));
        assert_eq!(
            p.packed_squared_distance(&pa, &pb, false),
            q.fixed_squared_distance(&a, &b)
        );
    }

    /// Random format generator: int/frac bits with 1..=15 total magnitude
    /// bits, so every format fits the packed lane (8-bit and narrower ones
    /// included) and some saturate easily.
    struct AnyPackableFormat;

    impl Strategy for AnyPackableFormat {
        type Value = FixedPoint;

        fn sample(&self, rng: &mut rand::rngs::StdRng) -> FixedPoint {
            use rand::Rng;
            let i = rng.gen_range(0u32..15);
            let f = rng.gen_range(1u32..=15 - i);
            FixedPoint::new(i, f).unwrap()
        }
    }

    fn any_packable_format() -> AnyPackableFormat {
        AnyPackableFormat
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_quantize_into_packed_bit_equal_at_the_edges(
            format in any_packable_format(),
            seed in 0u64..1_000_000_000,
        ) {
            let p = PackedFixed::new(format).unwrap();
            let values = edge_inputs(format, seed, 256);
            let mut lanes = Vec::new();
            p.quantize_into_packed(&values, &mut lanes);
            for (&v, &lane) in values.iter().zip(&lanes) {
                prop_assert_eq!(i32::from(lane), format.quantize(v), "{:?} at {:#x}", format, v.to_bits());
            }
        }

        #[test]
        fn prop_packed_dot_bit_equal(
            q in any_packable_format(),
            seed in 0u64..1_000_000,
            n in 0usize..70,
        ) {
            let p = PackedFixed::new(q).unwrap();
            let a = raws(q, seed, n);
            let b = raws(q, seed.wrapping_add(0xABCD), n);
            prop_assert_eq!(
                p.packed_dot(&p.pack(&a), &p.pack(&b), false),
                q.fixed_dot(&a, &b)
            );
        }

        #[test]
        fn prop_packed_squared_distance_bit_equal(
            format in any_packable_format(),
            seed in 0u64..1_000_000,
            n in 0usize..70,
        ) {
            let p = PackedFixed::new(format).unwrap();
            let a = raws(format, seed, n);
            let b = raws(format, seed.wrapping_add(0x1234), n);
            prop_assert_eq!(
                p.packed_squared_distance(&p.pack(&a), &p.pack(&b), false),
                format.fixed_squared_distance(&a, &b)
            );
        }

        #[test]
        fn prop_packed_matvec_bit_equal(
            format in any_packable_format(),
            seed in 0u64..1_000_000,
            input in 0usize..24,
            output in 1usize..20,
            zero_every in 1usize..5,
        ) {
            let p = PackedFixed::new(format).unwrap();
            let w = raws(format, seed, input * output);
            let bias = raws(format, seed.wrapping_add(1), output);
            let mut x = raws(format, seed.wrapping_add(2), input);
            for v in x.iter_mut().step_by(zero_every) {
                *v = 0;
            }
            let mut scalar = vec![0i32; output];
            format.fixed_matvec(&w, &bias, &x, &mut scalar);
            prop_assert_eq!(matvec_row(&p, &w, &bias, &x), scalar);
        }

        #[test]
        fn prop_saturation_inducing_dots_bit_equal(
            int_bits in 10u32..15,
            seed in 0u64..1_000_000,
            n in 1usize..40,
        ) {
            // Small frac bits + large int bits: terms near 2^29, so most
            // lengths overflow and exercise the sequential replay path.
            let q = FixedPoint::new(int_bits, 15 - int_bits).unwrap();
            let p = PackedFixed::new(q).unwrap();
            // Extreme-magnitude raws with pseudorandom signs.
            let extremes = |s: u64| -> Vec<i32> {
                (0..n as u64)
                    .map(|i| {
                        let h = (s ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
                        if h % 2 == 0 { q.max_raw() } else { q.min_raw() }
                    })
                    .collect()
            };
            let a = extremes(seed);
            let b = extremes(seed.wrapping_add(999));
            prop_assert_eq!(
                p.packed_dot(&p.pack(&a), &p.pack(&b), false),
                q.fixed_dot(&a, &b)
            );
            prop_assert_eq!(
                p.packed_squared_distance(&p.pack(&a), &p.pack(&b), false),
                q.fixed_squared_distance(&a, &b)
            );
        }
    }
}
