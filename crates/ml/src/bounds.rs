//! Interval bound derivation for the fixed-point kernels.
//!
//! The packed kernel tier ([`crate::quantize::PackedFixed`]) guards its
//! re-orderable fast loops with worst-case per-term bounds (`dot_term`,
//! `mat_term`, `sq_term`): every operand is assumed to sit at the format's
//! magnitude extreme. This module derives the *actual* reachable value
//! intervals from the concrete weights instead, by abstract interpretation
//! over an interval domain whose transfer functions mirror the scalar
//! fixed-point semantics ([`FixedPoint::fixed_mul`] and friends) bit for
//! bit.
//!
//! The payoff is a [`KernelBound`] per dense kernel: a per-output interval
//! that provably contains every value the kernel can produce, plus a
//! `certified` flag proving that no `i32` accumulator can saturate for
//! *any* admissible input. Certification uses the triangle inequality —
//! `|bias| + sum of max |term|` bounds every partial sum in every
//! evaluation order — so a certified kernel may run the re-orderable
//! (auto-vectorizable) fast loops unconditionally while staying
//! bit-identical to the saturating scalar reference.
//!
//! Everything here is pure arithmetic on the quantized weights; the
//! runtime consumes it during lowering and the `homunculus-analysis`
//! crate re-surfaces it as no-saturation certificates.

use crate::quantize::FixedPoint;

/// An inclusive range of `i32` runtime values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value the abstracted quantity can take.
    pub lo: i32,
    /// Largest value the abstracted quantity can take.
    pub hi: i32,
}

impl Interval {
    /// The interval containing exactly `v`.
    pub fn point(v: i32) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The full `i32` range — the top element of the domain.
    pub fn full() -> Self {
        Interval {
            lo: i32::MIN,
            hi: i32::MAX,
        }
    }

    /// The range [`FixedPoint::quantize`] clamps every input into:
    /// `[min_raw, max_raw]`. This is the sound entry fact for feature
    /// vectors — quantization bounds arbitrary (even non-finite) floats.
    pub fn quantized(format: FixedPoint) -> Self {
        Interval {
            lo: format.min_raw(),
            hi: format.max_raw(),
        }
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(self, v: i32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether every value of `self` lies inside `other`.
    pub fn subset_of(self, other: Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// Smallest interval containing both operands.
    pub fn union(self, other: Interval) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Largest absolute value in the interval, widened to `i64` so
    /// `i32::MIN` does not overflow.
    pub fn abs_bound(self) -> i64 {
        i64::from(self.lo).abs().max(i64::from(self.hi).abs())
    }

    /// Image under `max(v, 0)` — the transfer function of
    /// [`crate::quantize::fixed_relu`].
    pub fn relu(self) -> Self {
        Interval {
            lo: self.lo.max(0),
            hi: self.hi.max(0),
        }
    }

    /// Image under `saturating_add(rhs)` for a known `rhs`. Saturating
    /// addition is monotone, so the endpoint images bound the interval
    /// exactly.
    pub fn saturating_add(self, rhs: i32) -> Self {
        Interval {
            lo: self.lo.saturating_add(rhs),
            hi: self.hi.saturating_add(rhs),
        }
    }
}

/// Result of bounding one dense kernel (matvec / dot / distance).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelBound {
    /// Per-output guaranteed value range. Exact interval arithmetic when
    /// `certified`; widened to a sound over-approximation otherwise
    /// (interleaved saturation breaks plain interval sums).
    pub out: Vec<Interval>,
    /// Proven: no `i32` accumulator can saturate for any admissible
    /// input, in any evaluation order. Certified kernels may take the
    /// re-orderable fast loops unconditionally.
    pub certified: bool,
    /// Worst-case accumulator magnitude over all outputs —
    /// `max_j (|bias_j| + sum_k max |term_kj|)`. Certification is
    /// `abs_bound <= i32::MAX`; the slack below `i32::MAX` is how far
    /// the proof is from the saturation cliff.
    pub abs_bound: i64,
}

/// Image of `fixed_mul(w, x)` for a fixed weight over `x` in the
/// interval. The product `w * x` is monotone in `x` (direction set by
/// the sign of `w`), and arithmetic shift plus saturation preserve
/// monotonicity, so the endpoint images bound the image exactly.
pub fn term_interval(format: FixedPoint, w: i32, x: Interval) -> Interval {
    let a = format.fixed_mul(w, x.lo);
    let b = format.fixed_mul(w, x.hi);
    Interval {
        lo: a.min(b),
        hi: a.max(b),
    }
}

/// Bounds `out = bias + x * W` ([`FixedPoint::fixed_matvec`] /
/// `packed_matvec_block`), weights row-major `input x output`, for inputs
/// ranging over `x` per coordinate.
///
/// # Panics
///
/// Panics if `weights.len() != x.len() * bias.len()`.
pub fn matvec_bound(
    format: FixedPoint,
    weights: &[i32],
    bias: &[i32],
    x: &[Interval],
) -> KernelBound {
    let output = bias.len();
    assert_eq!(
        weights.len(),
        x.len() * output,
        "matvec_bound weight shape mismatch"
    );
    let mut lo: Vec<i64> = bias.iter().map(|&b| i64::from(b)).collect();
    let mut hi = lo.clone();
    let mut abs: Vec<i64> = bias.iter().map(|&b| i64::from(b).abs()).collect();
    for (k, &xk) in x.iter().enumerate() {
        let row = &weights[k * output..(k + 1) * output];
        for (j, &w) in row.iter().enumerate() {
            let t = term_interval(format, w, xk);
            lo[j] += i64::from(t.lo);
            hi[j] += i64::from(t.hi);
            abs[j] += t.abs_bound();
        }
    }
    finish_bound(lo, hi, abs)
}

/// Bounds `fixed_dot(w, x)` — an `i32` accumulator starting at zero with
/// per-term saturating adds — for inputs ranging over `x` per
/// coordinate. Single-output [`KernelBound`]. Note the kernel does *not*
/// add a bias; callers that `saturating_add` one afterwards can apply
/// [`Interval::saturating_add`] to the result, which stays exact (and
/// bit-identical between tiers) even if that final add clamps.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn dot_bound(format: FixedPoint, weights: &[i32], x: &[Interval]) -> KernelBound {
    assert_eq!(weights.len(), x.len(), "dot_bound length mismatch");
    let (mut lo, mut hi, mut abs) = (0i64, 0i64, 0i64);
    for (&w, &xk) in weights.iter().zip(x) {
        let t = term_interval(format, w, xk);
        lo += i64::from(t.lo);
        hi += i64::from(t.hi);
        abs += t.abs_bound();
    }
    finish_bound(vec![lo], vec![hi], vec![abs])
}

/// Bounds `fixed_squared_distance(x, c)` — `sum fixed_mul(d, d)` with
/// `d = x_k.saturating_sub(c_k)` — for inputs ranging over `x` per
/// coordinate. Single-output [`KernelBound`]. Terms are non-negative, so
/// even the uncertified result keeps a non-trivial lower bound: the
/// saturating accumulator is monotone non-decreasing.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn squared_distance_bound(format: FixedPoint, centroid: &[i32], x: &[Interval]) -> KernelBound {
    assert_eq!(
        centroid.len(),
        x.len(),
        "squared_distance_bound length mismatch"
    );
    let (mut lo, mut hi, mut abs) = (0i64, 0i64, 0i64);
    for (&c, &xk) in centroid.iter().zip(x) {
        // saturating_sub is monotone in x, so d's interval is the
        // endpoint image.
        let d = Interval {
            lo: xk.lo.saturating_sub(c),
            hi: xk.hi.saturating_sub(c),
        };
        // fixed_mul(d, d) is monotone in |d|: max at the larger-|d|
        // endpoint, min at zero if the interval straddles it, else at
        // the smaller-|d| endpoint.
        let far = if i64::from(d.lo).abs() >= i64::from(d.hi).abs() {
            d.lo
        } else {
            d.hi
        };
        let tmax = format.fixed_mul(far, far);
        let tmin = if d.lo <= 0 && d.hi >= 0 {
            0
        } else {
            let near = if i64::from(d.lo).abs() <= i64::from(d.hi).abs() {
                d.lo
            } else {
                d.hi
            };
            format.fixed_mul(near, near)
        };
        lo += i64::from(tmin);
        hi += i64::from(tmax);
        abs += i64::from(tmax);
    }
    let certified = abs <= i64::from(i32::MAX);
    let out = if certified {
        Interval {
            lo: lo as i32,
            hi: hi as i32,
        }
    } else {
        // Saturating non-negative accumulation: the result never drops
        // below min(sum of term minima, i32::MAX) and never exceeds
        // i32::MAX.
        Interval {
            lo: lo.min(i64::from(i32::MAX)) as i32,
            hi: i32::MAX,
        }
    };
    KernelBound {
        out: vec![out],
        certified,
        abs_bound: abs,
    }
}

fn finish_bound(lo: Vec<i64>, hi: Vec<i64>, abs: Vec<i64>) -> KernelBound {
    let abs_bound = abs.iter().copied().max().unwrap_or(0);
    let certified = abs_bound <= i64::from(i32::MAX);
    let out = if certified {
        // |every partial sum| <= abs_bound <= i32::MAX, so no add
        // saturates and the plain interval sums are exact i32 values.
        lo.iter()
            .zip(&hi)
            .map(|(&l, &h)| Interval {
                lo: l as i32,
                hi: h as i32,
            })
            .collect()
    } else {
        vec![Interval::full(); lo.len()]
    };
    KernelBound {
        out,
        certified,
        abs_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::FixedPoint;

    fn q312() -> FixedPoint {
        FixedPoint::new(3, 12).unwrap()
    }

    #[test]
    fn term_interval_brackets_every_input() {
        let f = q312();
        for &w in &[-9000, -1, 0, 1, 7, 8191] {
            let x = Interval { lo: -50, hi: 120 };
            let t = term_interval(f, w, x);
            for v in x.lo..=x.hi {
                assert!(t.contains(f.fixed_mul(w, v)), "w={w} v={v}");
            }
        }
    }

    #[test]
    fn matvec_bound_matches_exhaustive_small_case() {
        let f = q312();
        let weights = vec![4096, -4096, 2048, 2048]; // 2 inputs x 2 outputs
        let bias = vec![100, -100];
        let x = vec![Interval { lo: -3, hi: 5 }, Interval { lo: 0, hi: 2 }];
        let b = matvec_bound(f, &weights, &bias, &x);
        assert!(b.certified);
        let mut out = [0i32; 2];
        for x0 in -3..=5 {
            for x1 in 0..=2 {
                f.fixed_matvec(&weights, &bias, &[x0, x1], &mut out);
                for (o, iv) in out.iter().zip(&b.out) {
                    assert!(iv.contains(*o), "out {o} outside {iv:?}");
                }
            }
        }
    }

    #[test]
    fn certification_is_tighter_than_worst_case_guard() {
        // A long dot product of *small* weights: the worst-case
        // dot_term guard assumes format-extreme operands and rejects,
        // while the weight-aware bound certifies.
        let f = q312();
        let n = 20_000usize;
        let weights = vec![1i32; n]; // tiny weights
        let x = vec![Interval::quantized(f); n];
        let b = dot_bound(f, &weights, &x);
        assert!(b.certified);
        // Worst-case guard from PackedFixed: n * ((2^15)^2 >> 12) would
        // be far past i32::MAX at this length.
        let dot_term = (1i64 << 30) >> 12;
        assert!((n as i64) * dot_term > i64::from(i32::MAX));
    }

    #[test]
    fn uncertified_squared_distance_keeps_nonneg_floor() {
        let f = q312();
        let n = 600_000usize;
        let centroid = vec![f.max_raw(); n];
        let x = vec![Interval::point(f.min_raw()); n];
        let b = squared_distance_bound(f, &centroid, &x);
        assert!(!b.certified);
        assert_eq!(b.out[0].hi, i32::MAX);
        assert!(b.out[0].lo >= 0);
    }

    #[test]
    fn saturating_add_interval_is_exact_at_clamp() {
        let iv = Interval {
            lo: i32::MAX - 5,
            hi: i32::MAX,
        };
        let shifted = iv.saturating_add(10);
        assert_eq!(shifted.hi, i32::MAX);
        assert_eq!(shifted.lo, i32::MAX);
    }
}
