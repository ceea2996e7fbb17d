//! The generators' random draws as integer compares.
//!
//! `rng.gen::<f64>()` is `(x >> 11) · 2⁻⁵³` for the next word `x`. Both that
//! product and `p · 2⁵³` are exact in `f64`, so a float test against a
//! probability `p` is an integer test of the 53-bit draw `x >> 11` against
//! [`below`]`(p)`: the same draws decide the same outcomes, bit for bit,
//! without converting any draw to a float.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// `2⁵³`, the scale of a 53-bit unit draw.
const UNIT: f64 = (1u64 << 53) as f64;

/// The next 53-bit unit draw, `x >> 11` (what `gen::<f64>()` scales by
/// `2⁻⁵³`).
#[inline]
pub(crate) fn unit(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 11
}

/// The number of 53-bit draws below `p`: `⌈p · 2⁵³⌉`, saturating at `0`
/// and `u64::MAX`. For every `p` but NaN, `u · 2⁻⁵³ < p` exactly when
/// `u < below(p)`, and so `u · 2⁻⁵³ ≥ p` exactly when `u ≥ below(p)`.
pub(crate) fn below(p: f64) -> u64 {
    (p * UNIT).ceil() as u64
}

/// `len` values in draw order, each pruned with probability `sparsity`:
/// an entry draws `gen::<f64>() ≥ sparsity` to survive, and a survivor
/// then draws its value with `value` (zero stays the pruned value).
pub(crate) fn pruned<T: Copy + Default>(
    rng: &mut StdRng,
    len: usize,
    sparsity: f64,
    mut value: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let kept_from = below(sparsity);
    let mut values = vec![T::default(); len];
    for slot in &mut values {
        if unit(rng) >= kept_from {
            *slot = value(rng);
        }
    }
    values
}

/// A non-zero 8-bit weight: a magnitude in `1..=127`, then its sign.
pub(crate) fn signed_weight(rng: &mut StdRng) -> i8 {
    let magnitude = rng.gen_range(1..=127i8);
    if rng.gen::<bool>() {
        magnitude
    } else {
        -magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// `gen::<f64>()`'s value for the 53-bit draw `u`.
    fn as_float(u: u64) -> f64 {
        u as f64 * (1.0 / UNIT)
    }

    /// Probes around `p`: the draws just below, at and above its
    /// threshold, kept inside the 53-bit range.
    fn draws_near(p: f64) -> Vec<u64> {
        let edge = below(p).min(1 << 53);
        [edge.saturating_sub(1), edge, edge + 1]
            .into_iter()
            .filter(|&u| u < 1 << 53)
            .collect()
    }

    fn assert_exact(u: u64, p: f64) {
        assert_eq!(as_float(u) < p, u < below(p), "u = {u}, p = {p:e}");
        assert_eq!(as_float(u) >= p, u >= below(p), "u = {u}, p = {p:e}");
    }

    proptest! {
        #[test]
        fn integer_threshold_equals_the_float_compare(
            x in any::<u64>(),
            bits in any::<u64>(),
            k in 0u64..=(1 << 53),
            unit_p in 0.0f64..1.0,
        ) {
            let u = x >> 11;
            // A grid point `k·2⁻⁵³` and its float neighbours, an arbitrary
            // probability, values outside [0, 1], and any non-NaN float.
            let grid = k as f64 / UNIT;
            let mut probabilities = vec![
                grid,
                f64::from_bits(grid.to_bits() + 1),
                unit_p,
                unit_p * 4.0 - 2.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            if grid > 0.0 {
                probabilities.push(f64::from_bits(grid.to_bits() - 1));
            }
            if !f64::from_bits(bits).is_nan() {
                probabilities.push(f64::from_bits(bits));
            }
            for p in probabilities {
                assert_exact(u, p);
                draws_near(p).into_iter().for_each(|near| assert_exact(near, p));
            }
        }
    }

    #[test]
    fn pruned_draws_match_the_float_loop() {
        for sparsity in [0.0, 0.3, 0.982, 1.0] {
            let mut rng = StdRng::seed_from_u64(5);
            let fast = pruned(&mut rng, 500, sparsity, signed_weight);
            let mut rng = StdRng::seed_from_u64(5);
            let slow: Vec<i8> = (0..500)
                .map(|_| {
                    if rng.gen::<f64>() >= sparsity {
                        let magnitude = rng.gen_range(1..=127) as i8;
                        if rng.gen::<bool>() {
                            magnitude
                        } else {
                            -magnitude
                        }
                    } else {
                        0
                    }
                })
                .collect();
            assert_eq!(fast, slow, "sparsity {sparsity}");
        }
    }
}
