//! Fixed-point quantization for data-plane deployment.
//!
//! Programmable data planes do not have floating-point units: Taurus'
//! MapReduce grid and MAT pipelines operate on fixed-point integers. When
//! the backend generators emit code, trained `f32` weights are quantized to
//! a signed fixed-point format `Q(int_bits).(frac_bits)`; this module owns
//! that conversion and its error bounds.

use crate::tensor::Matrix;
use crate::{MlError, Result};

pub use crate::packed::PackedFixed;

/// A signed fixed-point format with `int_bits` integer bits (excluding
/// sign) and `frac_bits` fractional bits.
///
/// The representable range is `[-2^int_bits, 2^int_bits - 2^-frac_bits]`
/// and the quantization step is `2^-frac_bits`.
///
/// # Example
///
/// ```
/// use homunculus_ml::quantize::FixedPoint;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let q = FixedPoint::new(3, 12)?; // Q3.12, the Taurus default
/// let raw = q.quantize(1.5);
/// assert_eq!(q.dequantize(raw), 1.5);
/// assert!(q.max_error() <= 0.5 / 4096.0 + f32::EPSILON);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedPoint {
    int_bits: u32,
    frac_bits: u32,
}

impl FixedPoint {
    /// Creates a format with the given integer and fractional bit widths.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidArgument`] when the total width (including
    /// the sign bit) exceeds 31 bits or `frac_bits == 0`.
    pub fn new(int_bits: u32, frac_bits: u32) -> Result<Self> {
        if int_bits
            .checked_add(frac_bits)
            .map_or(true, |bits| bits >= 31)
        {
            return Err(MlError::InvalidArgument(format!(
                "fixed-point width {}+{}+sign exceeds 31 bits",
                int_bits, frac_bits
            )));
        }
        if frac_bits == 0 {
            return Err(MlError::InvalidArgument(
                "frac_bits must be positive".into(),
            ));
        }
        Ok(FixedPoint {
            int_bits,
            frac_bits,
        })
    }

    /// The Q3.12 format used by the Taurus templates (16-bit words).
    pub fn taurus_default() -> Self {
        FixedPoint {
            int_bits: 3,
            frac_bits: 12,
        }
    }

    /// Number of integer bits (excluding sign).
    pub fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Number of fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Total bit width including the sign bit.
    pub fn total_bits(&self) -> u32 {
        self.int_bits + self.frac_bits + 1
    }

    /// Scale factor `2^frac_bits`.
    #[inline]
    pub fn scale(&self) -> f32 {
        (1u64 << self.frac_bits) as f32
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        self.dequantize(self.max_raw())
    }

    /// Smallest (most negative) representable value.
    pub fn min_value(&self) -> f32 {
        self.dequantize(self.min_raw())
    }

    /// Largest representable raw value, `2^(int_bits + frac_bits) - 1`.
    #[inline]
    pub fn max_raw(&self) -> i32 {
        ((1i64 << (self.int_bits + self.frac_bits)) - 1) as i32
    }

    /// Smallest (most negative) raw value, `-2^(int_bits + frac_bits)`.
    #[inline]
    pub fn min_raw(&self) -> i32 {
        -(1i64 << (self.int_bits + self.frac_bits)) as i32
    }

    /// Worst-case round-off error for in-range values: half a step.
    pub fn max_error(&self) -> f32 {
        0.5 / self.scale()
    }

    /// Quantizes a value with round-to-nearest and saturation.
    ///
    /// Non-finite inputs saturate (NaN maps to 0).
    #[inline]
    pub fn quantize(&self, value: f32) -> i32 {
        if value.is_nan() {
            return 0;
        }
        // Widen to i64 before the clamp: `as` saturates float->int
        // overflow, but against i64's range, not the format's — the
        // clamp re-targets it at [min_raw, max_raw]. (A 30-bit format's
        // max_raw is not exactly representable as f32, so comparing in
        // float space would mis-rank values within one ulp of the edge;
        // the integer clamp has no such edge.)
        //
        // Round half away from zero without `f32::round`, which lowers
        // to a `roundf` libcall on baseline x86-64 (no SSE4.1) and
        // dominates the per-packet quantize cost. In f64, `y ± 0.5` is
        // exact for every f32-magnitude input (any f32 >= 2^52 is a
        // multiple of 2^28, so the add rounds straight back), and
        // truncation of the sum equals round-half-away-from-zero:
        // trunc(y + 0.5) = floor(y + 0.5) for y >= 0, trunc(y - 0.5) =
        // ceil(y - 0.5) for y < 0. Bit-identical to `.round() as i64`
        // on all non-NaN inputs, in native instructions only.
        let y = f64::from(value * self.scale());
        let scaled = (y + 0.5f64.copysign(y)) as i64;
        scaled.clamp(i64::from(self.min_raw()), i64::from(self.max_raw())) as i32
    }

    /// Converts a raw fixed-point integer back to `f32`.
    pub fn dequantize(&self, raw: i32) -> f32 {
        raw as f32 / self.scale()
    }

    /// Quantizes a slice.
    pub fn quantize_slice(&self, values: &[f32]) -> Vec<i32> {
        values.iter().map(|&v| self.quantize(v)).collect()
    }

    /// Quantize-dequantize round trip of a slice ("fake quantization").
    pub fn roundtrip_slice(&self, values: &[f32]) -> Vec<f32> {
        values
            .iter()
            .map(|&v| self.dequantize(self.quantize(v)))
            .collect()
    }

    /// Quantize-dequantize round trip of a whole matrix.
    pub fn roundtrip_matrix(&self, m: &Matrix) -> Matrix {
        m.map(|v| self.dequantize(self.quantize(v)))
    }

    // -----------------------------------------------------------------
    // Integer layer kernels
    //
    // These are the per-packet arithmetic primitives the compiled runtime
    // executes: every op works on raw fixed-point integers, widens to i64
    // only for the product, shifts back by `frac_bits` (arithmetic shift,
    // i.e. truncation toward negative infinity — what the hardware's
    // barrel shifter does), and saturates into i32.
    // -----------------------------------------------------------------

    /// Quantizes `values` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != values.len()`.
    pub fn quantize_into(&self, values: &[f32], out: &mut [i32]) {
        assert_eq!(values.len(), out.len(), "quantize_into length mismatch");
        for (o, &v) in out.iter_mut().zip(values) {
            *o = self.quantize(v);
        }
    }

    /// Fixed-point product of two raw values: `(a * b) >> frac_bits`,
    /// saturated to the i32 range.
    #[inline]
    pub fn fixed_mul(&self, a: i32, b: i32) -> i32 {
        saturate_i64((i64::from(a) * i64::from(b)) >> self.frac_bits)
    }

    /// Fixed-point dot product with a saturating i32 accumulator.
    ///
    /// The kernels here are the reference every tier is held to. They are
    /// generic over the stored word (`i32` raws, or the packed tier's
    /// `i16` lanes), which each product widens before it multiplies, so
    /// the packed tier's saturating path is this very loop.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn fixed_dot<T: Copy + Into<i32>>(&self, a: &[T], b: &[T]) -> i32 {
        assert_eq!(a.len(), b.len(), "fixed_dot length mismatch");
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            acc = acc.saturating_add(self.fixed_mul(x.into(), y.into()));
        }
        acc
    }

    /// Fixed-point squared Euclidean distance with a saturating i32
    /// accumulator (each squared difference is shifted back by
    /// `frac_bits`, so the result stays in the same Q format).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn fixed_squared_distance<T: Copy + Into<i32>>(&self, a: &[T], b: &[T]) -> i32 {
        assert_eq!(a.len(), b.len(), "fixed_squared_distance length mismatch");
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            let d = x.into().saturating_sub(y.into());
            acc = acc.saturating_add(self.fixed_mul(d, d));
        }
        acc
    }

    /// Dense-layer kernel: `out = bias + x * W` on raw fixed-point values,
    /// with `W` stored row-major as `input x output`.
    ///
    /// The loop order is k-then-j (the i-k-j order of a 1-row matmul), so
    /// the inner loop streams contiguously over one weight row and the
    /// output accumulators — the same dataflow the Taurus map/reduce
    /// template implements in hardware.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != x.len() * out.len()` or
    /// `bias.len() != out.len()`.
    pub fn fixed_matvec<W: Copy + Into<i32>, X: Copy + Into<i32>>(
        &self,
        weights: &[W],
        bias: &[i32],
        x: &[X],
        out: &mut [i32],
    ) {
        let output = out.len();
        assert_eq!(
            weights.len(),
            x.len() * output,
            "fixed_matvec weight shape mismatch"
        );
        assert_eq!(bias.len(), output, "fixed_matvec bias length mismatch");
        out.copy_from_slice(bias);
        for (k, &xv) in x.iter().enumerate() {
            let xv: i32 = xv.into();
            if xv == 0 {
                continue;
            }
            let row = &weights[k * output..(k + 1) * output];
            for (o, &w) in out.iter_mut().zip(row) {
                *o = o.saturating_add(self.fixed_mul(xv, w.into()));
            }
        }
    }
}

/// Saturates a 64-bit intermediate into the i32 range.
#[inline]
pub fn saturate_i64(v: i64) -> i32 {
    v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
}

/// Fixed-point ReLU: `max(0, raw)` (format-independent).
#[inline]
pub fn fixed_relu(raw: i32) -> i32 {
    raw.max(0)
}

/// Statistics of quantizing a trained model's weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationReport {
    /// Number of values quantized.
    pub count: usize,
    /// Number of values that saturated at the format limits.
    pub saturated: usize,
    /// Maximum absolute error across all values.
    pub max_abs_error: f32,
    /// Mean absolute error across all values.
    pub mean_abs_error: f32,
}

/// Quantizes all values and reports the incurred error.
pub fn quantize_with_report(format: FixedPoint, values: &[f32]) -> (Vec<i32>, QuantizationReport) {
    let mut saturated = 0usize;
    let mut max_err = 0.0f32;
    let mut sum_err = 0.0f32;
    let raw: Vec<i32> = values
        .iter()
        .map(|&v| {
            let q = format.quantize(v);
            if v.is_finite() && (v > format.max_value() || v < format.min_value()) {
                saturated += 1;
            }
            let err = (v - format.dequantize(q)).abs();
            if v.is_finite() {
                max_err = max_err.max(err);
                sum_err += err;
            }
            q
        })
        .collect();
    let report = QuantizationReport {
        count: values.len(),
        saturated,
        max_abs_error: max_err,
        mean_abs_error: if values.is_empty() {
            0.0
        } else {
            sum_err / values.len() as f32
        },
    };
    (raw, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_values_roundtrip() {
        let q = FixedPoint::new(3, 12).unwrap();
        for v in [0.0f32, 1.0, -1.0, 0.5, -0.25, 1.5, 7.0, -8.0] {
            assert_eq!(q.dequantize(q.quantize(v)), v, "value {v}");
        }
    }

    #[test]
    fn saturation_at_limits() {
        let q = FixedPoint::new(3, 12).unwrap();
        assert_eq!(q.quantize(100.0), q.quantize(q.max_value()));
        assert_eq!(q.quantize(-100.0), q.quantize(q.min_value()));
        assert!((q.max_value() - (8.0 - 1.0 / 4096.0)).abs() < 1e-6);
        assert_eq!(q.min_value(), -8.0);
    }

    #[test]
    fn nan_maps_to_zero_and_inf_saturates() {
        let q = FixedPoint::new(2, 8).unwrap();
        assert_eq!(q.quantize(f32::NAN), 0);
        assert_eq!(q.dequantize(q.quantize(f32::INFINITY)), q.max_value());
        assert_eq!(q.dequantize(q.quantize(f32::NEG_INFINITY)), q.min_value());
    }

    #[test]
    fn quantize_saturates_at_range_edges_for_every_width() {
        // Regression for the old bare `scaled as i32` tail: the float->int
        // conversion must saturate at the format's edges, including wide
        // formats whose max_raw is not exactly representable as f32 and
        // inputs far beyond f32's integer-exact range.
        for (int_bits, frac_bits) in [(3u32, 12u32), (1, 4), (0, 15), (14, 16), (0, 30)] {
            let q = FixedPoint::new(int_bits, frac_bits).unwrap();
            assert_eq!(q.quantize(f32::MAX), q.max_raw(), "Q{int_bits}.{frac_bits}");
            assert_eq!(q.quantize(f32::MIN), q.min_raw(), "Q{int_bits}.{frac_bits}");
            assert_eq!(q.quantize(f32::INFINITY), q.max_raw());
            assert_eq!(q.quantize(f32::NEG_INFINITY), q.min_raw());
            assert_eq!(q.quantize(f32::NAN), 0);
            // Exactly at the edges and one step beyond.
            assert_eq!(q.quantize(q.max_value()), q.max_raw());
            assert_eq!(q.quantize(q.min_value()), q.min_raw());
            assert_eq!(q.quantize(q.max_value() + 1.0), q.max_raw());
            assert_eq!(q.quantize(q.min_value() - 1.0), q.min_raw());
            // In-range values still pass through untouched.
            assert_eq!(q.quantize(0.0), 0);
        }
    }

    #[test]
    fn invalid_formats_rejected() {
        assert!(FixedPoint::new(16, 16).is_err());
        assert!(FixedPoint::new(3, 0).is_err());
        assert!(FixedPoint::new(u32::MAX, 1).is_err());
        assert!(FixedPoint::new(3, 12).is_ok());
    }

    #[test]
    fn taurus_default_is_q3_12() {
        let q = FixedPoint::taurus_default();
        assert_eq!(q.int_bits(), 3);
        assert_eq!(q.frac_bits(), 12);
        assert_eq!(q.total_bits(), 16);
    }

    #[test]
    fn report_counts_saturation() {
        let q = FixedPoint::new(1, 4).unwrap(); // range [-2, 1.9375]
        let values = [0.5f32, 10.0, -10.0, 0.1];
        let (raw, report) = quantize_with_report(q, &values);
        assert_eq!(raw.len(), 4);
        assert_eq!(report.count, 4);
        assert_eq!(report.saturated, 2);
        assert!(report.max_abs_error >= 8.0); // 10.0 -> ~1.94
    }

    #[test]
    fn matrix_roundtrip_close() {
        let q = FixedPoint::new(3, 12).unwrap();
        let m = Matrix::from_fn(4, 4, |r, c| (r as f32 - c as f32) * 0.37);
        let rt = q.roundtrip_matrix(&m);
        for (a, b) in m.as_slice().iter().zip(rt.as_slice()) {
            assert!((a - b).abs() <= q.max_error() + 1e-7);
        }
    }

    #[test]
    fn fixed_mul_matches_float_product() {
        let q = FixedPoint::new(3, 12).unwrap();
        for (a, b) in [(1.5f32, 2.0f32), (-0.75, 0.5), (3.25, -1.25), (0.0, 4.0)] {
            let raw = q.fixed_mul(q.quantize(a), q.quantize(b));
            let err = (q.dequantize(raw) - a * b).abs();
            assert!(
                err <= 2.0 * q.max_error() + 1.0 / q.scale(),
                "{a} * {b}: err {err}"
            );
        }
    }

    #[test]
    fn fixed_mul_saturates_instead_of_wrapping() {
        let q = FixedPoint::new(3, 12).unwrap();
        let big = i32::MAX / 2;
        assert_eq!(q.fixed_mul(big, big), i32::MAX);
        assert_eq!(q.fixed_mul(big, -big), i32::MIN);
    }

    #[test]
    fn fixed_dot_matches_float_dot() {
        let q = FixedPoint::new(3, 12).unwrap();
        let a = [0.5f32, -1.25, 2.0, 0.125];
        let b = [1.0f32, 0.75, -0.5, 3.0];
        let qa = q.quantize_slice(&a);
        let qb = q.quantize_slice(&b);
        let float: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let fixed = q.dequantize(q.fixed_dot(&qa, &qb));
        assert!((float - fixed).abs() < 0.01, "float {float} fixed {fixed}");
    }

    #[test]
    fn fixed_squared_distance_matches_float() {
        let q = FixedPoint::new(3, 12).unwrap();
        let a = [0.5f32, -1.0, 2.0];
        let b = [1.5f32, 0.0, -0.25];
        let float: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        let fixed =
            q.dequantize(q.fixed_squared_distance(&q.quantize_slice(&a), &q.quantize_slice(&b)));
        assert!((float - fixed).abs() < 0.02, "float {float} fixed {fixed}");
    }

    #[test]
    fn fixed_matvec_matches_float_layer() {
        let q = FixedPoint::new(3, 12).unwrap();
        // 2-input, 3-output layer, row-major input x output.
        let w = [0.5f32, -1.0, 0.25, 1.5, 0.75, -0.5];
        let bias = [0.125f32, -0.25, 0.0];
        let x = [1.0f32, -2.0];
        let qw = q.quantize_slice(&w);
        let qb = q.quantize_slice(&bias);
        let qx = q.quantize_slice(&x);
        let mut out = [0i32; 3];
        q.fixed_matvec(&qw, &qb, &qx, &mut out);
        for j in 0..3 {
            let float = bias[j] + x[0] * w[j] + x[1] * w[3 + j];
            let fixed = q.dequantize(out[j]);
            assert!(
                (float - fixed).abs() < 0.01,
                "out[{j}]: float {float} fixed {fixed}"
            );
        }
    }

    #[test]
    fn quantize_into_matches_quantize_slice() {
        let q = FixedPoint::new(2, 8).unwrap();
        let values = [0.1f32, -1.7, 3.9, 0.0];
        let mut out = [0i32; 4];
        q.quantize_into(&values, &mut out);
        assert_eq!(out.to_vec(), q.quantize_slice(&values));
    }

    #[test]
    fn fixed_relu_clamps_negative() {
        assert_eq!(fixed_relu(-5), 0);
        assert_eq!(fixed_relu(0), 0);
        assert_eq!(fixed_relu(7), 7);
    }

    #[test]
    fn saturate_i64_bounds() {
        assert_eq!(saturate_i64(i64::MAX), i32::MAX);
        assert_eq!(saturate_i64(i64::MIN), i32::MIN);
        assert_eq!(saturate_i64(-42), -42);
    }

    proptest! {
        #[test]
        fn prop_in_range_error_bounded(v in -7.9f32..7.9) {
            let q = FixedPoint::new(3, 12).unwrap();
            let err = (v - q.dequantize(q.quantize(v))).abs();
            prop_assert!(err <= q.max_error() + 1e-6, "err {err} for {v}");
        }

        #[test]
        fn prop_quantize_monotonic(a in -7.9f32..7.9, b in -7.9f32..7.9) {
            let q = FixedPoint::new(3, 12).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(q.quantize(lo) <= q.quantize(hi));
        }

        #[test]
        fn prop_dequantize_quantize_identity_on_grid(raw in -32768i32..32767) {
            let q = FixedPoint::new(3, 12).unwrap();
            let v = q.dequantize(raw);
            prop_assert_eq!(q.quantize(v), raw);
        }

        #[test]
        fn prop_more_frac_bits_less_error(v in -1.9f32..1.9) {
            let coarse = FixedPoint::new(2, 4).unwrap();
            let fine = FixedPoint::new(2, 12).unwrap();
            let ce = (v - coarse.dequantize(coarse.quantize(v))).abs();
            let fe = (v - fine.dequantize(fine.quantize(v))).abs();
            prop_assert!(fe <= ce + 1e-6);
        }

        #[test]
        fn prop_fixed_mul_error_bounded(a in -2.0f32..2.0, b in -2.0f32..2.0) {
            let q = FixedPoint::new(3, 12).unwrap();
            let fixed = q.dequantize(q.fixed_mul(q.quantize(a), q.quantize(b)));
            // Input quantization contributes |a|*eps + |b|*eps + eps^2, the
            // post-product shift at most one step.
            let bound = (a.abs() + b.abs() + 1.0) * q.max_error() + 1.0 / q.scale() + 1e-6;
            prop_assert!((fixed - a * b).abs() <= bound, "a={a} b={b} fixed={fixed}");
        }

        #[test]
        fn prop_fixed_dot_is_commutative(seed in 0u64..200) {
            let q = FixedPoint::new(3, 12).unwrap();
            let a: Vec<i32> = (0..8).map(|i| ((seed as i64 * 37 + i * 911) % 4096) as i32 - 2048).collect();
            let b: Vec<i32> = (0..8).map(|i| ((seed as i64 * 71 + i * 577) % 4096) as i32 - 2048).collect();
            prop_assert_eq!(q.fixed_dot(&a, &b), q.fixed_dot(&b, &a));
        }
    }
}
