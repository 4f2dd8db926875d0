//! Fixed-point requantization arithmetic.
//!
//! A real-valued multiplier `m ∈ (0, 1)` (e.g. `s_x·s_w/s_y`) is
//! represented as `m = m0 · 2^(-31-shift)` with `m0 ∈ [2^30, 2^31)`,
//! exactly the scheme of Jacob et al. and of TFLite kernels: one 32×32
//! multiply, a rounding right shift — cheap in DSP blocks.

/// A positive fixed-point multiplier `m0 · 2^(-31-shift)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedMul {
    /// Normalised mantissa in `[2^30, 2^31)` (or 0 for multiplier 0).
    pub m0: i32,
    /// Extra right shift beyond the implicit 31.
    pub shift: i32,
}

impl FixedMul {
    /// The identity multiplier (×1).
    pub fn one() -> FixedMul {
        // 1.0 = 2^31/2^31 needs m0 = 2^31 which overflows; use
        // m0 = 2^30, shift = -1.
        FixedMul {
            m0: 1 << 30,
            shift: -1,
        }
    }

    /// Apply to an i32 accumulator: `acc·m0 / 2^(31+shift)` rounded to
    /// the nearest integer, ties away from zero, then truncated to
    /// `i32` (a no-op for any multiplier below 1).
    ///
    /// Branch-free: `|acc·m0| < 2^62`, so the product's magnitude and
    /// the rounding half fit an `i64`, and the sign is reapplied with
    /// its all-ones-or-zero mask. On a run of accumulators under one
    /// multiplier the loop autovectorizes.
    pub fn apply(&self, acc: i32) -> i32 {
        let prod = i64::from(acc) * i64::from(self.m0);
        let total_shift = 31 + self.shift;
        debug_assert!((1..63).contains(&total_shift), "shift out of range");
        let sign = prod >> 63;
        let mag = (prod ^ sign) - sign;
        let r = (mag + (1 << (total_shift - 1))) >> total_shift;
        ((r ^ sign) - sign) as i32
    }

    /// The represented real value.
    pub fn value(&self) -> f64 {
        f64::from(self.m0) * (2f64).powi(-31 - self.shift)
    }
}

/// Convert a real multiplier in `(0, 1]`-ish range to fixed point.
///
/// # Panics
///
/// Panics if `m` is not finite and positive, or too small/large to
/// represent (`2^-24 < m < 2^6` is accepted, far wider than any
/// requantization ratio arising from 8-bit scales).
pub fn quantize_multiplier(m: f64) -> FixedMul {
    assert!(
        m.is_finite() && m > 0.0,
        "multiplier must be positive, got {m}"
    );
    assert!(
        m > 2f64.powi(-24) && m < 64.0,
        "multiplier {m} out of supported range"
    );
    // Normalise to [0.5, 1) · 2^e.
    let mut shift = 0i32;
    let mut frac = m;
    while frac >= 1.0 {
        frac /= 2.0;
        shift -= 1;
    }
    while frac < 0.5 {
        frac *= 2.0;
        shift += 1;
    }
    let mut m0 = (frac * 2f64.powi(31)).round() as i64;
    if m0 == 1i64 << 31 {
        m0 >>= 1;
        shift -= 1;
    }
    FixedMul {
        m0: m0 as i32,
        shift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_roundtrip_precision() {
        for &m in &[
            0.3301f64,
            0.0042,
            0.99,
            1.0,
            1.3333333,
            7.5,
            0.5,
            2.0_f64.powi(-20),
        ] {
            if m <= 2f64.powi(-24) {
                continue;
            }
            let fm = quantize_multiplier(m);
            let rel = (fm.value() - m).abs() / m;
            assert!(rel < 1e-8, "m {m}: value {} rel err {rel}", fm.value());
        }
    }

    #[test]
    fn apply_matches_float_rounding() {
        let fm = quantize_multiplier(0.0123);
        for &acc in &[
            0i32,
            1,
            -1,
            127,
            -128,
            100_000,
            -100_000,
            2_000_000,
            i32::MAX / 4,
        ] {
            let expected = (f64::from(acc) * 0.0123).round() as i32;
            let got = fm.apply(acc);
            assert!(
                (got - expected).abs() <= 1,
                "acc {acc}: got {got}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn one_is_identity() {
        let fm = FixedMul::one();
        for &acc in &[0i32, 5, -7, 32000, -32000, 1_000_000] {
            assert_eq!(fm.apply(acc), acc);
        }
    }

    #[test]
    fn four_thirds_dropout_scale() {
        // The DU's 1/(1-0.25) rescale.
        let fm = quantize_multiplier(4.0 / 3.0);
        assert_eq!(fm.apply(96), 128);
        assert_eq!(fm.apply(-96), -128);
        assert_eq!(fm.apply(3), 4);
    }

    #[test]
    fn rounding_is_nearest() {
        let fm = quantize_multiplier(0.5);
        assert_eq!(fm.apply(3), 2, "1.5 rounds away from zero to 2");
        assert_eq!(fm.apply(-3), -2, "-1.5 rounds away from zero");
        assert_eq!(fm.apply(4), 2);
        assert_eq!(fm.apply(5), 3, "2.5 -> 3");
    }

    /// `acc·m0 / 2^ts` in `i128`, rounded half away from zero, then
    /// truncated to `i32` as [`FixedMul::apply`] documents.
    fn reference(acc: i32, m0: i32, ts: i32) -> i32 {
        let prod = i128::from(acc) * i128::from(m0);
        let half = 1i128 << (ts - 1);
        let mag = (prod.abs() + half) >> ts;
        (if prod < 0 { -mag } else { mag }) as i32
    }

    #[test]
    fn apply_is_round_half_away_from_zero_bit_for_bit() {
        let ends = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX];
        let mut ties = 0;
        for m0 in [0, 1 << 30, i32::MAX, 3 << 29, 0x5555_5555] {
            for ts in 1..=62 {
                let fm = FixedMul { m0, shift: ts - 31 };
                // Exact ties: `acc·m0` an odd multiple of `2^(ts−1)`,
                // i.e. `acc` an odd multiple of `2^(ts − 1 − v2(m0))`.
                let e = ts - 1 - m0.trailing_zeros() as i32;
                let tie_accs = (0..=30).contains(&e).then(|| {
                    let top = i32::MAX >> e | 1;
                    [1, 3, top, -1, -3, -top].map(|o| o << e)
                });
                for acc in ends.into_iter().chain(tie_accs.into_iter().flatten()) {
                    let prod = i128::from(acc) * i128::from(m0);
                    if prod.abs() % (1i128 << ts) == 1i128 << (ts - 1) {
                        ties += 1;
                    }
                    assert_eq!(
                        fm.apply(acc),
                        reference(acc, m0, ts),
                        "acc {acc}, m0 {m0}, 31 + shift = {ts}"
                    );
                }
            }
        }
        assert!(ties > 100, "only {ties} exact ties checked");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_multiplier_rejected() {
        let _ = quantize_multiplier(0.0);
    }
}
