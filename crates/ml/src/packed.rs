//! Packed-integer kernels: the vectorizable tier under [`FixedPoint`].
//!
//! Taurus computes in a Q3.12 **16-bit** word, yet the scalar kernels in
//! [`crate::quantize`] store every weight as a full `i32` and widen each
//! product to `i64`. This module packs format-bounded raws into contiguous
//! `i16` (or `i8` when the format fits 8 bits) and runs the hot loops over
//! fixed-width lanes — `[i16; 8]` chunks with widening `i32` multiplies —
//! which the compiler auto-vectorizes. With the `simd` cargo feature the
//! `i16` dot product swaps in explicit `core::arch` SSE2 intrinsics.
//!
//! # The bit-equality contract
//!
//! Every packed kernel returns **bit-identical** results to its scalar
//! counterpart ([`FixedPoint::fixed_dot`] / [`FixedPoint::fixed_matvec`] /
//! [`FixedPoint::fixed_squared_distance`]) on the same raws, saturation
//! points included. The scalar kernels accumulate **sequentially with
//! saturation**, which is order-dependent only if saturation actually
//! occurs. Packed operands are bounded — weights/features by the format's
//! raw range, hidden activations by the lane width — so each kernel
//! derives a static per-element term bound and checks, per call, whether
//! `|bias| + n * term_bound` can reach `i32::MAX`:
//!
//! - **No** (the overwhelmingly common case — Q3.12 dots are safe to
//!   8191 elements): no saturation is possible anywhere, so plain
//!   re-orderable lane sums produce the very bits the sequential
//!   saturating loop would.
//! - **Yes**: the kernel replays the scalar loop element-exactly over
//!   widened lanes — still bit-identical, just not vectorized.
//!
//! The proptests at the bottom pin this equivalence across random
//! formats, lengths (including non-multiple-of-lane remainders), and
//! saturation-inducing inputs that force the replay path.

use crate::quantize::FixedPoint;

/// Number of lanes the portable chunked loops process per step.
const LANES: usize = 8;

/// Storage width of a packed lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackedWidth {
    /// One byte per raw value (formats of up to 8 total bits).
    I8,
    /// Two bytes per raw value (formats of up to 16 total bits — Q3.12,
    /// the Taurus word).
    I16,
}

impl PackedWidth {
    /// The narrowest width whose lane range covers `format`'s raws, or
    /// `None` when the format needs more than 16 bits.
    pub fn for_format(format: FixedPoint) -> Option<Self> {
        match format.total_bits() {
            0..=8 => Some(PackedWidth::I8),
            9..=16 => Some(PackedWidth::I16),
            _ => None,
        }
    }

    /// Smallest representable lane value.
    pub fn lane_min(self) -> i32 {
        match self {
            PackedWidth::I8 => i32::from(i8::MIN),
            PackedWidth::I16 => i32::from(i16::MIN),
        }
    }

    /// Largest representable lane value.
    pub fn lane_max(self) -> i32 {
        match self {
            PackedWidth::I8 => i32::from(i8::MAX),
            PackedWidth::I16 => i32::from(i16::MAX),
        }
    }

    /// Bytes per packed value (the cache-footprint win over `i32`).
    pub fn bytes(self) -> usize {
        match self {
            PackedWidth::I8 => 1,
            PackedWidth::I16 => 2,
        }
    }
}

/// Contiguous packed raw values (weights, biases-as-thresholds, centroids,
/// or quantized features) at one [`PackedWidth`].
#[derive(Debug, Clone, PartialEq)]
pub enum PackedVec {
    /// 8-bit lanes.
    I8(Vec<i8>),
    /// 16-bit lanes.
    I16(Vec<i16>),
}

impl Default for PackedVec {
    fn default() -> Self {
        PackedVec::I16(Vec::new())
    }
}

impl PackedVec {
    /// An empty vector of the given width.
    pub fn new(width: PackedWidth) -> Self {
        match width {
            PackedWidth::I8 => PackedVec::I8(Vec::new()),
            PackedWidth::I16 => PackedVec::I16(Vec::new()),
        }
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        match self {
            PackedVec::I8(v) => v.len(),
            PackedVec::I16(v) => v.len(),
        }
    }

    /// Whether the vector holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage width.
    pub fn width(&self) -> PackedWidth {
        match self {
            PackedVec::I8(_) => PackedWidth::I8,
            PackedVec::I16(_) => PackedWidth::I16,
        }
    }

    /// Resizes to `len` values of `width`, switching representation if a
    /// previous user left a different width behind (scratch buffers are
    /// reused across pipelines of different formats).
    pub fn ensure(&mut self, width: PackedWidth, len: usize) {
        if self.width() != width {
            *self = PackedVec::new(width);
        }
        match self {
            PackedVec::I8(v) => v.resize(len, 0),
            PackedVec::I16(v) => v.resize(len, 0),
        }
    }

    /// Borrows the whole vector as a width-tagged slice.
    pub fn as_slice(&self) -> PackedSlice<'_> {
        match self {
            PackedVec::I8(v) => PackedSlice::I8(v),
            PackedVec::I16(v) => PackedSlice::I16(v),
        }
    }

    /// Borrows `len` values starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn slice(&self, start: usize, len: usize) -> PackedSlice<'_> {
        match self {
            PackedVec::I8(v) => PackedSlice::I8(&v[start..start + len]),
            PackedVec::I16(v) => PackedSlice::I16(&v[start..start + len]),
        }
    }

    /// The value at `index`, widened to `i32`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> i32 {
        match self {
            PackedVec::I8(v) => i32::from(v[index]),
            PackedVec::I16(v) => i32::from(v[index]),
        }
    }

    /// Heap bytes the packed values occupy.
    pub fn storage_bytes(&self) -> usize {
        self.len() * self.width().bytes()
    }
}

/// A width-tagged borrowed slice of packed values (what the kernels
/// actually consume — lets callers pass rows of a larger block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PackedSlice<'a> {
    /// 8-bit lanes.
    I8(&'a [i8]),
    /// 16-bit lanes.
    I16(&'a [i16]),
}

impl PackedSlice<'_> {
    /// Number of packed values.
    pub fn len(&self) -> usize {
        match self {
            PackedSlice::I8(v) => v.len(),
            PackedSlice::I16(v) => v.len(),
        }
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `index`, widened to `i32`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> i32 {
        match self {
            PackedSlice::I8(v) => i32::from(v[index]),
            PackedSlice::I16(v) => i32::from(v[index]),
        }
    }
}

/// A lane type the generic kernel bodies monomorphize over.
trait Lane: Copy {
    const LANE_MIN: i32;
    const LANE_MAX: i32;
    fn widen(self) -> i32;
    fn narrow(v: i32) -> Self;
}

impl Lane for i8 {
    const LANE_MIN: i32 = i8::MIN as i32;
    const LANE_MAX: i32 = i8::MAX as i32;
    #[inline(always)]
    fn widen(self) -> i32 {
        i32::from(self)
    }
    #[inline(always)]
    fn narrow(v: i32) -> Self {
        debug_assert!((Self::LANE_MIN..=Self::LANE_MAX).contains(&v));
        v as i8
    }
}

impl Lane for i16 {
    const LANE_MIN: i32 = i16::MIN as i32;
    const LANE_MAX: i32 = i16::MAX as i32;
    #[inline(always)]
    fn widen(self) -> i32 {
        i32::from(self)
    }
    #[inline(always)]
    fn narrow(v: i32) -> Self {
        debug_assert!((Self::LANE_MIN..=Self::LANE_MAX).contains(&v));
        v as i16
    }
}

/// A [`FixedPoint`] format narrow enough to pack, with the precomputed
/// per-element term bounds that decide fast-path eligibility.
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
/// let packed = p.packed_dot(a.as_slice(), b.as_slice(), false);
/// let scalar = q.fixed_dot(
///     &q.quantize_slice(&[0.5, -1.25, 2.0, 0.125]),
///     &q.quantize_slice(&[1.0, 0.75, -0.5, 3.0]),
/// );
/// assert_eq!(packed, scalar); // bit-identical, not merely close
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedFixed {
    format: FixedPoint,
    width: PackedWidth,
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
    /// Wraps `format` if it fits a packed width (≤ 16 total bits).
    pub fn new(format: FixedPoint) -> Option<Self> {
        let width = PackedWidth::for_format(format)?;
        let magnitude = format.int_bits() + format.frac_bits();
        let raw_bound = 1i64 << magnitude;
        // Lane bound is a power of two: |lane_min| = lane_max + 1.
        let lane_bound = i64::from(width.lane_max()) + 1;
        let f = format.frac_bits();
        Some(PackedFixed {
            format,
            width,
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

    /// The storage width raws pack into.
    pub fn width(&self) -> PackedWidth {
        self.width
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
    pub fn pack(&self, raw: &[i32]) -> PackedVec {
        for &v in raw {
            assert!(
                i64::from(v) >= -self.raw_bound && i64::from(v) < self.raw_bound,
                "raw {v} outside the format's range (+-{})",
                self.raw_bound
            );
        }
        match self.width {
            PackedWidth::I8 => PackedVec::I8(raw.iter().map(|&v| v as i8).collect()),
            PackedWidth::I16 => PackedVec::I16(raw.iter().map(|&v| v as i16).collect()),
        }
    }

    /// Packs `v` into `out` only if every value fits the lane range;
    /// returns whether it did. One pass — this is the per-layer check the
    /// runtime uses on intermediate DNN activations (ReLU outputs can
    /// exceed the lane width even when the format fits it).
    pub fn pack_checked(&self, v: &[i32], out: &mut PackedVec) -> bool {
        let lanes = self.width.lane_min()..=self.width.lane_max();
        if v.iter().any(|t| !lanes.contains(t)) {
            return false;
        }
        out.ensure(self.width, v.len());
        match out {
            PackedVec::I8(lanes) => {
                for (lane, &t) in lanes.iter_mut().zip(v) {
                    *lane = i8::narrow(t);
                }
            }
            PackedVec::I16(lanes) => {
                for (lane, &t) in lanes.iter_mut().zip(v) {
                    *lane = i16::narrow(t);
                }
            }
        }
        true
    }

    /// Packs values the caller has already proven lane-bounded — e.g. LUT
    /// activation outputs, which are format raws by construction — without
    /// the range scan [`PackedFixed::pack_checked`] pays.
    ///
    /// Debug builds still assert the bound per lane.
    pub fn pack_into(&self, v: &[i32], out: &mut PackedVec) {
        out.ensure(self.width, v.len());
        match out {
            PackedVec::I8(lanes) => {
                for (lane, &t) in lanes.iter_mut().zip(v) {
                    *lane = i8::narrow(t);
                }
            }
            PackedVec::I16(lanes) => {
                for (lane, &t) in lanes.iter_mut().zip(v) {
                    *lane = i16::narrow(t);
                }
            }
        }
    }

    /// Quantizes floats straight into packed lanes (no intermediate `i32`
    /// buffer) — one packet's features, or a contiguous row-major block
    /// of them for [`PackedFixed::packed_matvec_block`].
    pub fn quantize_into_packed(&self, values: &[f32], out: &mut PackedVec) {
        out.ensure(self.width, values.len());
        match out {
            PackedVec::I8(lanes) => {
                for (lane, &v) in lanes.iter_mut().zip(values) {
                    *lane = i8::narrow(self.format.quantize(v));
                }
            }
            PackedVec::I16(lanes) => {
                for (lane, &v) in lanes.iter_mut().zip(values) {
                    *lane = i16::narrow(self.format.quantize(v));
                }
            }
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
    /// Panics if lengths or widths disagree.
    pub fn packed_dot(&self, a: PackedSlice<'_>, b: PackedSlice<'_>, certified: bool) -> i32 {
        assert_eq!(a.len(), b.len(), "packed_dot length mismatch");
        let fast = certified || (a.len() as i64) * self.dot_term <= i64::from(i32::MAX);
        match (a, b) {
            (PackedSlice::I8(a), PackedSlice::I8(b)) => {
                if fast {
                    dot_fast(self.format.frac_bits(), a, b)
                } else {
                    dot_exact(self.format, a, b)
                }
            }
            (PackedSlice::I16(a), PackedSlice::I16(b)) => {
                if fast {
                    dot_fast_i16(self.format.frac_bits(), a, b)
                } else {
                    dot_exact(self.format, a, b)
                }
            }
            _ => panic!("packed_dot width mismatch"),
        }
    }

    /// Packed dense-layer kernel (`out = bias + x * W`, weights row-major
    /// `input x output`), bit-identical to [`FixedPoint::fixed_matvec`] on
    /// the widened raws. `x` may carry any lane-bounded values (hidden
    /// activations), not just format-bounded ones. `certified` as for
    /// [`PackedFixed::packed_dot`].
    ///
    /// # Panics
    ///
    /// Panics if shapes or widths disagree.
    pub fn packed_matvec(
        &self,
        weights: PackedSlice<'_>,
        bias: &[i32],
        x: PackedSlice<'_>,
        out: &mut [i32],
        certified: bool,
    ) {
        assert_eq!(
            weights.len(),
            x.len() * out.len(),
            "packed_matvec weight shape mismatch"
        );
        assert_eq!(bias.len(), out.len(), "packed_matvec bias length mismatch");
        let fast = certified || {
            let bias_bound = bias.iter().map(|&b| i64::from(b).abs()).max().unwrap_or(0);
            bias_bound + (x.len() as i64) * self.mat_term <= i64::from(i32::MAX)
        };
        match (weights, x) {
            (PackedSlice::I8(w), PackedSlice::I8(x)) => {
                if fast {
                    matvec_fast(self.format.frac_bits(), w, bias, x, out);
                } else {
                    matvec_exact(self.format, w, bias, x, out);
                }
            }
            (PackedSlice::I16(w), PackedSlice::I16(x)) => {
                if fast {
                    matvec_fast(self.format.frac_bits(), w, bias, x, out);
                } else {
                    matvec_exact(self.format, w, bias, x, out);
                }
            }
            _ => panic!("packed_matvec width mismatch"),
        }
    }

    /// Dense-layer kernel over packed weights but **unpacked** `i32`
    /// inputs — the fallback when an intermediate activation overflowed
    /// the lane range. Element-order-exact replay of
    /// [`FixedPoint::fixed_matvec`] with the weights widened on the fly.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn packed_matvec_wide(
        &self,
        weights: PackedSlice<'_>,
        bias: &[i32],
        x: &[i32],
        out: &mut [i32],
    ) {
        assert_eq!(
            weights.len(),
            x.len() * out.len(),
            "packed_matvec_wide weight shape mismatch"
        );
        assert_eq!(
            bias.len(),
            out.len(),
            "packed_matvec_wide bias length mismatch"
        );
        match weights {
            PackedSlice::I8(w) => matvec_wide(self.format, w, bias, x, out),
            PackedSlice::I16(w) => matvec_wide(self.format, w, bias, x, out),
        }
    }

    /// Block dense-layer kernel: `rows` independent row vectors stored
    /// contiguously in `xblock` (row-major `rows x input`) against one
    /// weight matrix, filling `out` row-major `rows x output`. Weights
    /// stay cache-hot across the whole block; each row's result is
    /// bit-identical to a [`PackedFixed::packed_matvec`] call.
    /// `certified` as for [`PackedFixed::packed_dot`].
    ///
    /// # Panics
    ///
    /// Panics if shapes or widths disagree.
    pub fn packed_matvec_block(
        &self,
        weights: PackedSlice<'_>,
        bias: &[i32],
        xblock: &PackedVec,
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
        // Hoist the saturation guard out of the row loop: the bound only
        // depends on the bias and the input length, both shared by every
        // row in the block.
        let fast = certified || {
            let bias_bound = bias.iter().map(|&b| i64::from(b).abs()).max().unwrap_or(0);
            bias_bound + (input as i64) * self.mat_term <= i64::from(i32::MAX)
        };
        let f = self.format.frac_bits();
        match (weights, xblock.as_slice()) {
            (PackedSlice::I8(w), PackedSlice::I8(x)) => {
                for r in 0..rows {
                    let xr = &x[r * input..(r + 1) * input];
                    let or = &mut out[r * output..(r + 1) * output];
                    if fast {
                        matvec_fast(f, w, bias, xr, or);
                    } else {
                        matvec_exact(self.format, w, bias, xr, or);
                    }
                }
            }
            (PackedSlice::I16(w), PackedSlice::I16(x)) => {
                for r in 0..rows {
                    let xr = &x[r * input..(r + 1) * input];
                    let or = &mut out[r * output..(r + 1) * output];
                    if fast {
                        matvec_fast(f, w, bias, xr, or);
                    } else {
                        matvec_exact(self.format, w, bias, xr, or);
                    }
                }
            }
            _ => unreachable!("a PackedVec and its owner share one width"),
        }
    }

    /// Packed squared Euclidean distance, bit-identical to
    /// [`FixedPoint::fixed_squared_distance`] on the widened raws.
    /// `certified` as for [`PackedFixed::packed_dot`].
    ///
    /// # Panics
    ///
    /// Panics if lengths or widths disagree.
    pub fn packed_squared_distance(
        &self,
        a: PackedSlice<'_>,
        b: PackedSlice<'_>,
        certified: bool,
    ) -> i32 {
        assert_eq!(a.len(), b.len(), "packed_squared_distance length mismatch");
        let fast = certified || (a.len() as i64) * self.sq_term <= i64::from(i32::MAX);
        match (a, b) {
            (PackedSlice::I8(a), PackedSlice::I8(b)) => {
                if fast {
                    sq_fast(self.format.frac_bits(), a, b)
                } else {
                    sq_exact(self.format, a, b)
                }
            }
            (PackedSlice::I16(a), PackedSlice::I16(b)) => {
                if fast {
                    sq_fast(self.format.frac_bits(), a, b)
                } else {
                    sq_exact(self.format, a, b)
                }
            }
            _ => panic!("packed_squared_distance width mismatch"),
        }
    }
}

// ---------------------------------------------------------------------
// Portable chunked-lane bodies. The `_fast` variants require the caller
// to have proven no saturation can occur (see the guard math above) —
// products fit i32 and plain lane sums are re-orderable, so rustc's
// auto-vectorizer is free to turn them into SIMD. The `_exact` variants
// replay the scalar kernels element-for-element.
//
// The dense layer is output-stationary: `matvec_fast` takes `LANES`
// outputs at a time and keeps their accumulators in a local array across
// the whole input loop — one bias load and one store per output, where
// accumulating into `out[]` cost a load and a store per output per input
// element (measured on the 7-16-8-2 serving DNN, Q3.12, 2 vCPUs: 202 ->
// 140 ns per row on the block walk). Each output still sums its products
// in input order with the per-product `>> f`, so the bits are those of
// `FixedPoint::fixed_matvec`; a zero input is multiplied like any other
// (its products are 0) rather than branched around. A row-in-lane form
// over a transposed block was sized at a further 17 ns per row by a
// prototype (ROADMAP item 4b) but needs the block column-major through
// quantize, activation and argmax.
// ---------------------------------------------------------------------

fn dot_fast<L: Lane>(f: u32, a: &[L], b: &[L]) -> i32 {
    let mut lanes = [0i32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
            *lane += (x.widen() * y.widen()) >> f;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += (x.widen() * y.widen()) >> f;
    }
    acc
}

fn dot_exact<L: Lane>(format: FixedPoint, a: &[L], b: &[L]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc = acc.saturating_add(format.fixed_mul(x.widen(), y.widen()));
    }
    acc
}

fn matvec_fast<L: Lane>(f: u32, weights: &[L], bias: &[i32], x: &[L], out: &mut [i32]) {
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
fn matvec_tile<L: Lane>(
    f: u32,
    weights: &[L],
    output: usize,
    start: usize,
    x: &[L],
    acc: &mut [i32],
) {
    for (k, &xv) in x.iter().enumerate() {
        let xv = xv.widen();
        let tile = &weights[k * output + start..][..acc.len()];
        for (a, &w) in acc.iter_mut().zip(tile) {
            *a += (xv * w.widen()) >> f;
        }
    }
}

fn matvec_exact<L: Lane>(
    format: FixedPoint,
    weights: &[L],
    bias: &[i32],
    x: &[L],
    out: &mut [i32],
) {
    let output = out.len();
    out.copy_from_slice(bias);
    for (k, &xv) in x.iter().enumerate() {
        let xv = xv.widen();
        if xv == 0 {
            continue;
        }
        let row = &weights[k * output..(k + 1) * output];
        for (o, &w) in out.iter_mut().zip(row) {
            *o = o.saturating_add(format.fixed_mul(xv, w.widen()));
        }
    }
}

fn matvec_wide<L: Lane>(
    format: FixedPoint,
    weights: &[L],
    bias: &[i32],
    x: &[i32],
    out: &mut [i32],
) {
    let output = out.len();
    out.copy_from_slice(bias);
    for (k, &xv) in x.iter().enumerate() {
        if xv == 0 {
            continue;
        }
        let row = &weights[k * output..(k + 1) * output];
        for (o, &w) in out.iter_mut().zip(row) {
            *o = o.saturating_add(format.fixed_mul(xv, w.widen()));
        }
    }
}

fn sq_fast<L: Lane>(f: u32, a: &[L], b: &[L]) -> i32 {
    let mut lanes = [0i32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
            // The difference fits i32 but its square may not: square in
            // i64, shift, then narrow (the guard bounds the shifted term).
            let d = i64::from(x.widen() - y.widen());
            *lane += ((d * d) >> f) as i32;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = i64::from(x.widen() - y.widen());
        acc += ((d * d) >> f) as i32;
    }
    acc
}

fn sq_exact<L: Lane>(format: FixedPoint, a: &[L], b: &[L]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        let d = x.widen().saturating_sub(y.widen());
        acc = acc.saturating_add(format.fixed_mul(d, d));
    }
    acc
}

// ---------------------------------------------------------------------
// SIMD tier: explicit SSE2 intrinsics for the i16 dot product, swapped
// in by the `simd` feature on x86_64 (SSE2 is baseline there, so no
// runtime detection is needed). `_mm_madd_epi16` is deliberately NOT
// used: it sums adjacent products *before* the per-element `>> f` shift,
// which would change the bits. Instead each 16x16 product is rebuilt as
// a full i32 from mullo/mulhi halves, shifted per lane, then accumulated.
// Everything here stays on the proven-no-saturation fast path, so the
// lane sums are re-orderable and bit-identical to the portable loops.
// The dense layer has no intrinsic body: rustc compiles `matvec_fast`'s
// tile to the same mullo/mulhi sequence, and a hand-written twin with the
// same register accumulators measured no faster (151 against 136 ns per
// row, same host and minute).
// ---------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod sse2 {
    use core::arch::x86_64::*;

    #[inline]
    pub fn dot_i16(f: u32, a: &[i16], b: &[i16]) -> i32 {
        let chunks = a.len() / 8;
        let mut acc;
        // SAFETY: loads are unaligned (`loadu`) and stay inside the
        // slices (`i < chunks * 8 <= len`); SSE2 is baseline on x86_64.
        unsafe {
            let shift = _mm_cvtsi32_si128(f as i32);
            let mut vacc = _mm_setzero_si128();
            for i in 0..chunks {
                let va = _mm_loadu_si128(a.as_ptr().add(i * 8).cast());
                let vb = _mm_loadu_si128(b.as_ptr().add(i * 8).cast());
                let lo = _mm_mullo_epi16(va, vb);
                let hi = _mm_mulhi_epi16(va, vb);
                let p0 = _mm_sra_epi32(_mm_unpacklo_epi16(lo, hi), shift);
                let p1 = _mm_sra_epi32(_mm_unpackhi_epi16(lo, hi), shift);
                vacc = _mm_add_epi32(vacc, _mm_add_epi32(p0, p1));
            }
            let mut lanes = [0i32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr().cast(), vacc);
            acc = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        }
        for i in chunks * 8..a.len() {
            acc += (i32::from(a[i]) * i32::from(b[i])) >> f;
        }
        acc
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn dot_fast_i16(f: u32, a: &[i16], b: &[i16]) -> i32 {
    sse2::dot_i16(f, a, b)
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn dot_fast_i16(f: u32, a: &[i16], b: &[i16]) -> i32 {
    dot_fast(f, a, b)
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

    #[test]
    fn width_selection_tracks_total_bits() {
        assert_eq!(
            PackedWidth::for_format(FixedPoint::new(3, 4).unwrap()),
            Some(PackedWidth::I8)
        );
        assert_eq!(
            PackedWidth::for_format(FixedPoint::taurus_default()),
            Some(PackedWidth::I16)
        );
        assert_eq!(
            PackedWidth::for_format(FixedPoint::new(14, 16).unwrap()),
            None
        );
        assert!(PackedFixed::new(FixedPoint::new(14, 16).unwrap()).is_none());
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
        let mut out = PackedVec::default();
        assert!(p.pack_checked(&[1000, -32768, 32767], &mut out));
        assert_eq!(out.get(1), -32768);
        assert!(!p.pack_checked(&[1000, 40_000], &mut out));
    }

    #[test]
    fn quantize_into_packed_matches_scalar_quantize() {
        let p = q312();
        let values = [0.5f32, -7.99, 123.0, f32::NAN, -0.25, 7.999_756];
        let mut out = PackedVec::default();
        p.quantize_into_packed(&values, &mut out);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(out.get(i), p.format().quantize(v), "value {v}");
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
                p.packed_dot(p.pack(&a).as_slice(), p.pack(&b).as_slice(), false),
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
            let mut packed = vec![0i32; output];
            p.packed_matvec(
                p.pack(&w).as_slice(),
                &bias,
                p.pack(&x).as_slice(),
                &mut packed,
                false,
            );
            assert_eq!(packed, scalar, "{input}x{output}");
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
        p.packed_matvec_wide(p.pack(&w).as_slice(), &bias, &x, &mut packed);
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
                p.packed_squared_distance(p.pack(&a).as_slice(), p.pack(&b).as_slice(), false),
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
            p.packed_dot(p.pack(&a).as_slice(), p.pack(&b).as_slice(), false),
            q.fixed_dot(&a, &b)
        );
        let mixed: Vec<i32> = (0..20)
            .map(|i| if i % 3 == 0 { q.max_raw() } else { q.min_raw() })
            .collect();
        assert_eq!(
            p.packed_dot(p.pack(&a).as_slice(), p.pack(&mixed).as_slice(), false),
            q.fixed_dot(&a, &mixed)
        );
        assert_eq!(
            p.packed_squared_distance(p.pack(&a).as_slice(), p.pack(&mixed).as_slice(), false),
            q.fixed_squared_distance(&a, &mixed)
        );
        let mut scalar = vec![0i32; 4];
        q.fixed_matvec(&a, &[q.max_raw(); 4], &mixed[..5], &mut scalar);
        let mut packed = vec![0i32; 4];
        p.packed_matvec(
            p.pack(&a).as_slice(),
            &[q.max_raw(); 4],
            p.pack(&mixed[..5]).as_slice(),
            &mut packed,
            false,
        );
        assert_eq!(packed, scalar);
    }

    #[test]
    fn block_matvec_rows_match_single_row_calls() {
        // Both lane widths; output widths on every side of a LANES-wide
        // tile; an empty input; rows that are all or partly zero.
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
                    p.packed_matvec_block(
                        p.pack(&w).as_slice(),
                        &bias,
                        &block,
                        rows,
                        &mut out,
                        false,
                    );
                    for r in 0..rows {
                        let mut single = vec![0i32; output];
                        q.fixed_matvec(&w, &bias, &flat[r * input..(r + 1) * input], &mut single);
                        assert_eq!(
                            &out[r * output..(r + 1) * output],
                            &single[..],
                            "{:?} {input}x{output} row {r}",
                            p.width()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn i8_formats_pack_to_one_byte_and_match_scalar() {
        let q = FixedPoint::new(2, 5).unwrap(); // 8 total bits
        let p = PackedFixed::new(q).unwrap();
        assert_eq!(p.width(), PackedWidth::I8);
        let a = raws(q, 5, 33);
        let b = raws(q, 6, 33);
        let pa = p.pack(&a);
        assert_eq!(pa.storage_bytes(), 33);
        assert_eq!(
            p.packed_dot(pa.as_slice(), p.pack(&b).as_slice(), false),
            q.fixed_dot(&a, &b)
        );
        assert_eq!(
            p.packed_squared_distance(pa.as_slice(), p.pack(&b).as_slice(), false),
            q.fixed_squared_distance(&a, &b)
        );
    }

    /// Random format generator: int/frac bits with 1..=15 total magnitude
    /// bits, so every format fits a packed width and some saturate easily.
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
        fn prop_packed_dot_bit_equal(
            q in any_packable_format(),
            seed in 0u64..1_000_000,
            n in 0usize..70,
        ) {
            let p = PackedFixed::new(q).unwrap();
            let a = raws(q, seed, n);
            let b = raws(q, seed.wrapping_add(0xABCD), n);
            prop_assert_eq!(
                p.packed_dot(p.pack(&a).as_slice(), p.pack(&b).as_slice(), false),
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
                p.packed_squared_distance(p.pack(&a).as_slice(), p.pack(&b).as_slice(), false),
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
            let mut packed = vec![0i32; output];
            p.packed_matvec(p.pack(&w).as_slice(), &bias, p.pack(&x).as_slice(), &mut packed, false);
            prop_assert_eq!(packed, scalar);
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
                p.packed_dot(p.pack(&a).as_slice(), p.pack(&b).as_slice(), false),
                q.fixed_dot(&a, &b)
            );
            prop_assert_eq!(
                p.packed_squared_distance(p.pack(&a).as_slice(), p.pack(&b).as_slice(), false),
                q.fixed_squared_distance(&a, &b)
            );
        }
    }
}
