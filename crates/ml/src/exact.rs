//! `f32` multiply, divide and square root, bit-identical to the native
//! operations, without the FPU's subnormal assist.
//!
//! An `f32` multiply, divide or square root whose operand or result is
//! subnormal takes a microcode assist on x86, ~40 ns against ~1.4 ns; an
//! `f32`↔`f64` conversion costs nothing extra, whether its operand or its
//! result is subnormal (the `mlp` module docs have the costs and the nets
//! that pay them). So [`mul`], [`div`] and [`sqrt`] compute in `f64`,
//! where every `f32` value is normal, and [`narrow`] converts the wide
//! result back, which rounds it to the nearest `f32`, ties to even, into
//! the subnormal range too:
//!
//! - The `f64` product of two `f32`s is exact (24 + 24 ≤ 53 significand
//!   bits), so rounding it once is the correctly rounded `f32` product.
//! - An `f64` quotient or square root is rounded twice, first to 53 bits
//!   and then to 24 or fewer. Double rounding is harmless when the wide
//!   precision is at least twice the narrow one plus two (53 ≥ 2·24 + 2),
//!   so the result is again the correctly rounded `f32`.
//!
//! LLVM knows both facts and folds `(a as f64 * b as f64) as f32` back into
//! the `f32` multiply (and likewise a quotient or a square root), assist
//! included. One operand therefore enters as a [`Wide`]: an `f32` widened
//! behind `black_box`, which LLVM cannot see is a widened `f32`. A loop
//! that multiplies or divides by the same factor widens it once.
//!
//! An exact operation costs a few times a native one in a vectorized
//! loop, so callers take it only where a subnormal can occur:
//! `Matrix::matmul` for an axpy whose products can leave the normal range,
//! and the MLP's Adam step for an element whose gradient, weight or
//! moments hold a nonzero below 2^-63. Both paths give the same bits, so
//! the choice is only a matter of speed. An exhaustive check against the
//! native operations on every `f32` is an ignored test here, run by
//! `make exhaustive`.

use std::hint::black_box;

/// `f32::MIN_POSITIVE` (2^-126), the smallest normal `f32`, widened.
const MIN_NORMAL: f64 = f32::MIN_POSITIVE as f64;
/// The bit pattern of 2^-63, the magnitude below which [`is_tiny`] holds.
const TINY_BITS: u32 = (127 - 63) << 23;
/// 2^-63: [`normal_floor`] of values that hold no nonzero below it.
pub(crate) const TINY: f32 = 1.0 / 9_223_372_036_854_775_808.0;

/// An `f32` widened to `f64` behind an optimization barrier, as one
/// operand of exact operations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wide(f64);

impl Wide {
    /// Widens `x`.
    #[inline]
    pub(crate) fn new(x: f32) -> Self {
        Wide(black_box(f64::from(x)))
    }

    /// `self * x`, bit for bit.
    #[inline]
    pub(crate) fn times(self, x: f32) -> f32 {
        narrow(self.0 * f64::from(x))
    }

    /// `x / self`, bit for bit.
    #[inline]
    pub(crate) fn quotient_of(self, x: f32) -> f32 {
        narrow(f64::from(x) / self.0)
    }
}

/// Rounds `x` to the nearest `f32`, ties to even: the conversion, exact
/// into the subnormal range and free of the assist.
#[inline]
pub(crate) fn narrow(x: f64) -> f32 {
    x as f32
}

/// `a * b`, bit for bit.
#[inline]
pub(crate) fn mul(a: f32, b: f32) -> f32 {
    Wide::new(a).times(b)
}

/// `a / b`, bit for bit.
#[inline]
pub(crate) fn div(a: f32, b: f32) -> f32 {
    Wide::new(b).quotient_of(a)
}

/// `a.sqrt()`, bit for bit.
#[inline]
pub(crate) fn sqrt(a: f32) -> f32 {
    narrow(Wide::new(a).0.sqrt())
}

/// Whether `x` is nonzero with a magnitude below 2^-63: a factor whose
/// product with another `f32` of magnitude below 2^63 can be subnormal,
/// the mark of a collapsing layer. Branch-free, so loops that count it
/// still vectorize.
#[inline]
pub(crate) fn is_tiny(x: f32) -> bool {
    (x.to_bits() & 0x7fff_ffff).wrapping_sub(1) < TINY_BITS - 1
}

/// The smallest nonzero magnitude in `values`, or `0.0` when every value
/// is zero. Branch-free, so it vectorizes.
#[inline]
fn min_magnitude(values: &[f32]) -> f32 {
    // Zero wraps to `u32::MAX` and so never wins the minimum.
    let least = values.iter().fold(u32::MAX, |least, &v| {
        least.min((v.to_bits() & 0x7fff_ffff).wrapping_sub(1))
    });
    f32::from_bits(least.wrapping_add(1))
}

/// A positive floor on `|l|` above which `l * r` takes no assist for any
/// `r` in `values`: `l` is normal, and every product is normal or zero.
/// With no nonzero of `values` below 2^-63 it is 2^-63, found by the
/// cheaper of two branch-free scans; otherwise it comes from their
/// smallest nonzero magnitude, and is infinite when that is subnormal.
#[inline]
pub(crate) fn normal_floor(values: &[f32]) -> f32 {
    if !values.iter().fold(false, |any, &v| any | is_tiny(v)) {
        return TINY;
    }
    let min = min_magnitude(values);
    if min < f32::MIN_POSITIVE {
        return f32::INFINITY;
    }
    // `|l| ≥ 2^-126 / min` keeps `|l| · min` normal; round the bound up.
    let bound = MIN_NORMAL / f64::from(min);
    let floor = (bound as f32).max(f32::MIN_POSITIVE);
    if f64::from(floor) < bound {
        f32::from_bits(floor.to_bits() + 1)
    } else {
        floor
    }
}

/// Per-thread tallies of the work that took the exact path, so tests can
/// see a silent fall back into the FPU's assist.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    thread_local! {
        static AXPYS: Cell<u64> = const { Cell::new(0) };
        static ADAM: Cell<u64> = const { Cell::new(0) };
    }

    /// One `Matrix::matmul` axpy took the exact path.
    pub(crate) fn axpy() {
        AXPYS.with(|c| c.set(c.get() + 1));
    }

    /// `n` Adam weight updates took the exact path.
    pub(crate) fn adam(n: usize) {
        ADAM.with(|c| c.set(c.get() + n as u64));
    }

    /// `(axpys, adam elements)` since the last call, on this thread.
    pub(crate) fn take() -> (u64, u64) {
        (AXPYS.with(|c| c.replace(0)), ADAM.with(|c| c.replace(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Native and exact results agree bit for bit, or are both NaN.
    fn same(exact: f32, native: f32) -> bool {
        exact.to_bits() == native.to_bits() || (exact.is_nan() && native.is_nan())
    }

    /// Operands that training multiplies and divides by: weight decay,
    /// β1, 1 − β1, β2 and 1 − β2.
    fn training_operands() -> [f32; 5] {
        let (beta1, beta2) = (0.9f32, 0.999f32);
        [1e-4, beta1, 1.0 - beta1, beta2, 1.0 - beta2]
    }

    /// A spread of normal, zero, infinite and NaN operands. Subnormal
    /// operands are the swept side's: every subnormal `a` meets each of
    /// these, and products commute.
    const SPREAD: [f32; 6] = [-3.0, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

    #[test]
    fn normal_floor_keeps_products_normal() {
        // No value below 2^-63: the fixed floor, and 2^-63 · 2^-63 is normal.
        assert_eq!(
            normal_floor(&[0.5, -3.0, 0.0, 2f32.powi(-63)]),
            2f32.powi(-63)
        );
        assert_eq!(normal_floor(&[]), 2f32.powi(-63));
        // Below it: the least factor that keeps the product normal.
        for min in [f32::MIN_POSITIVE, 1e-30, 3.3e-20] {
            let floor = normal_floor(&[1.0, 0.0, -min]);
            assert!(floor >= f32::MIN_POSITIVE);
            assert!(f64::from(floor) * f64::from(min) >= MIN_NORMAL, "{min:e}");
            let below = f32::from_bits(floor.to_bits() - 1);
            assert!(
                below < f32::MIN_POSITIVE || f64::from(below) * f64::from(min) < MIN_NORMAL,
                "{min:e}: {below:e} is safe too"
            );
        }
        assert_eq!(normal_floor(&[0.0, -0.0]), 2f32.powi(-63));
        assert_eq!(normal_floor(&[1.0, f32::from_bits(7)]), f32::INFINITY);
        assert_eq!(min_magnitude(&[0.0, -3.0, 0.5, -0.0]), 0.5);
        assert_eq!(min_magnitude(&[0.0, -0.0]), 0.0);
        assert_eq!(min_magnitude(&[1.0, -f32::from_bits(9)]), f32::from_bits(9));
    }

    #[test]
    fn constants() {
        assert_eq!(f32::from_bits(TINY_BITS), 2f32.powi(-63));
        assert_eq!(TINY, 2f32.powi(-63));
        assert!(is_tiny(-2f32.powi(-64)) && is_tiny(f32::from_bits(1)));
        assert!(!is_tiny(2f32.powi(-63)) && !is_tiny(0.0) && !is_tiny(-0.0));
        assert!(!is_tiny(f32::NAN) && !is_tiny(f32::INFINITY));
    }

    #[test]
    fn edges_of_the_subnormal_range() {
        let tiny = f32::from_bits(1);
        let cases = [
            (tiny, 0.5),                       // a tie to even: rounds to 0
            (f32::from_bits(3), 0.5),          // a tie to even: rounds to 2 steps
            (-tiny, 0.5),                      // underflow keeps its sign
            (f32::MIN_POSITIVE, 0.999_999_94), // a tie up into MIN_POSITIVE
            (f32::MIN_POSITIVE, 0.999_999_9),  // the largest subnormal
            (f32::MAX, 2.0),                   // overflow
            (1e-30, 1e-30),                    // underflow to zero
        ];
        for (a, b) in cases {
            assert!(same(mul(a, b), a * b), "{a:e} * {b:e}");
            assert!(same(div(a, 1.0 / b), a / (1.0 / b)), "{a:e} / {b:e}");
        }
    }

    #[test]
    #[ignore = "2^32 operands, 17 operations each: run in release, by `make exhaustive`"]
    fn exact_ops_match_native_on_every_f32() {
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(8) as u64;
        let mismatches: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut found = Vec::new();
                        let mut chunk = t;
                        while chunk * CHUNK < 1 << 32 {
                            for bits in chunk * CHUNK..(chunk + 1) * CHUNK {
                                let a = f32::from_bits(bits as u32);
                                if !same(sqrt(a), a.sqrt()) {
                                    found.push(format!("sqrt({a:e})"));
                                }
                                for b in training_operands() {
                                    if !same(div(a, b), a / b) {
                                        found.push(format!("{a:e} / {b:e}"));
                                    }
                                }
                                for b in training_operands().into_iter().chain(SPREAD) {
                                    if !same(mul(a, b), a * b) {
                                        found.push(format!("{a:e} * {b:e}"));
                                    }
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
                .flat_map(|w| w.join().expect("sweep worker panicked"))
                .collect()
        });
        assert!(
            mismatches.is_empty(),
            "{} mismatches, first {:?}",
            mismatches.len(),
            &mismatches[..mismatches.len().min(8)]
        );
    }

    proptest! {
        #[test]
        fn prop_exact_ops_match_native_on_random_bits(a in 0..=u32::MAX, b in 0..=u32::MAX) {
            let (a, b) = (f32::from_bits(a), f32::from_bits(b));
            prop_assert!(same(mul(a, b), a * b), "{a:e} * {b:e}");
            prop_assert!(same(div(a, b), a / b), "{a:e} / {b:e}");
            prop_assert!(same(sqrt(a), a.sqrt()), "sqrt({a:e})");
        }

        #[test]
        fn prop_exact_ops_match_native_near_the_subnormal_range(
            ea in 0u32..160, ma in 0u32..(1 << 23), eb in 0u32..160, mb in 0u32..(1 << 23),
            signs in 0u32..4,
        ) {
            // Exponents biased low, so most products and quotients land
            // in or near the subnormal range.
            let a = f32::from_bits((signs & 1) << 31 | ea << 23 | ma);
            let b = f32::from_bits((signs >> 1) << 31 | eb << 23 | mb);
            prop_assert!(same(mul(a, b), a * b), "{a:e} * {b:e}");
            prop_assert!(same(div(a, b), a / b), "{a:e} / {b:e}");
            prop_assert!(same(sqrt(a), a.sqrt()), "sqrt({a:e})");
        }
    }
}
