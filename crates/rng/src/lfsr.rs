//! Fibonacci linear feedback shift registers.
//!
//! The accelerator's Bernoulli sampler (paper Figure 3) is built from
//! 128-bit 4-tap LFSRs. This module implements the general Fibonacci
//! form for widths up to 128 bits, with the tap tables used by the
//! paper (Xilinx XAPP052 maximal-length polynomials).

/// Tap positions of a maximal-length LFSR polynomial.
///
/// Positions are 1-indexed from the register input, matching the usual
/// application-note convention: tap `i` refers to state bit `i - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TapSpec {
    /// Register width in bits (1..=128).
    pub width: u32,
    /// Tap positions (1-indexed, each `<= width`). Unused entries are 0.
    pub taps: [u32; 4],
}

impl TapSpec {
    /// Known maximal-length tap configuration for a register width.
    ///
    /// Returns `None` for widths without an entry in the built-in table.
    /// Widths with 2-tap maximal polynomials use two taps; the rest use
    /// four, like the paper's 128-bit register.
    pub fn maximal(width: u32) -> Option<TapSpec> {
        let taps: [u32; 4] = match width {
            3 => [3, 2, 0, 0],
            4 => [4, 3, 0, 0],
            5 => [5, 3, 0, 0],
            6 => [6, 5, 0, 0],
            7 => [7, 6, 0, 0],
            8 => [8, 6, 5, 4],
            9 => [9, 5, 0, 0],
            10 => [10, 7, 0, 0],
            11 => [11, 9, 0, 0],
            12 => [12, 6, 4, 1],
            15 => [15, 14, 0, 0],
            16 => [16, 15, 13, 4],
            17 => [17, 14, 0, 0],
            20 => [20, 17, 0, 0],
            24 => [24, 23, 22, 17],
            31 => [31, 28, 0, 0],
            32 => [32, 22, 2, 1],
            64 => [64, 63, 61, 60],
            128 => [128, 126, 101, 99],
            _ => return None,
        };
        Some(TapSpec { width, taps })
    }

    /// Number of active taps.
    pub fn tap_count(&self) -> usize {
        self.taps.iter().filter(|&&t| t != 0).count()
    }
}

/// A Fibonacci LFSR of up to 128 bits.
///
/// The register shifts left one position per cycle; the feedback bit is
/// the XOR of the tapped bits and becomes the new least-significant
/// bit. The produced output bit is the bit shifted out of the
/// most-significant position. A non-zero seed is enforced (the all-zero
/// state is the XOR-form lock-up state).
///
/// # Example
///
/// ```
/// use bnn_rng::Lfsr;
///
/// let mut lfsr = Lfsr::paper_128(1);
/// let first: Vec<bool> = (0..8).map(|_| lfsr.step()).collect();
/// assert_eq!(first.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u128,
    spec: TapSpec,
    mask: u128,
    cycles: u64,
}

impl Lfsr {
    /// Create an LFSR with the given tap specification and seed.
    ///
    /// The seed is masked to the register width; if the masked seed is
    /// zero, the state is set to 1 so the register never locks up.
    ///
    /// # Panics
    ///
    /// Panics if `spec.width` is 0 or greater than 128, or if a tap
    /// exceeds the width — these are programming errors in the tap
    /// table, not runtime conditions.
    pub fn new(spec: TapSpec, seed: u128) -> Lfsr {
        assert!(
            spec.width >= 1 && spec.width <= 128,
            "LFSR width out of range"
        );
        for &t in &spec.taps {
            assert!(t <= spec.width, "tap position exceeds register width");
        }
        let mask = if spec.width == 128 {
            u128::MAX
        } else {
            (1u128 << spec.width) - 1
        };
        let mut state = seed & mask;
        if state == 0 {
            state = 1;
        }
        Lfsr {
            state,
            spec,
            mask,
            cycles: 0,
        }
    }

    /// The paper's 128-bit 4-tap LFSR (taps 128, 126, 101, 99).
    ///
    /// The paper notes such a register clocked at 160 MHz would take
    /// centuries to exhaust its sequence; we rely on the same property
    /// for independence of the per-filter mask bits.
    pub fn paper_128(seed: u128) -> Lfsr {
        let spec = TapSpec::maximal(128).expect("128-bit entry exists");
        Lfsr::new(spec, seed)
    }

    /// Maximal-length LFSR of the given width seeded from a 64-bit seed.
    ///
    /// Returns `None` when no maximal tap entry is known for `width`.
    pub fn maximal(width: u32, seed: u64) -> Option<Lfsr> {
        TapSpec::maximal(width).map(|s| Lfsr::new(s, seed as u128))
    }

    /// Current register state (masked to the register width).
    pub fn state(&self) -> u128 {
        self.state
    }

    /// Tap specification in use.
    pub fn spec(&self) -> TapSpec {
        self.spec
    }

    /// Number of cycles the register has been stepped.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Step one cycle, returning the bit shifted out of the MSB.
    pub fn step(&mut self) -> bool {
        let mut fb = false;
        for &t in &self.spec.taps {
            if t != 0 {
                fb ^= (self.state >> (t - 1)) & 1 == 1;
            }
        }
        let out = (self.state >> (self.spec.width - 1)) & 1 == 1;
        self.state = ((self.state << 1) | u128::from(fb)) & self.mask;
        self.cycles += 1;
        out
    }

    /// Step `n` cycles, collecting the output bits into a `u64`
    /// (first bit produced becomes the most significant of the result).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn step_word(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "step_word collects at most 64 bits");
        let mut w = 0u64;
        for _ in 0..n {
            w = (w << 1) | u64::from(self.step());
        }
        w
    }
}

/// A bank of independently-seeded LFSRs stepped in lock-step.
///
/// Used wherever the hardware instantiates several physical LFSRs in
/// parallel: the Bernoulli gate network (one register per gate input)
/// and the CLT Gaussian sampler (one register per accumulated uniform).
#[derive(Debug, Clone)]
pub struct LfsrBank {
    regs: Vec<Lfsr>,
}

impl LfsrBank {
    /// Create `n` LFSRs of `width` bits with seeds derived from `seed`
    /// by SplitMix64 so the registers start in decorrelated states.
    ///
    /// # Panics
    ///
    /// Panics if no maximal tap table entry exists for `width`.
    pub fn new(n: usize, width: u32, seed: u64) -> LfsrBank {
        let spec = TapSpec::maximal(width)
            .unwrap_or_else(|| panic!("no maximal LFSR taps known for width {width}"));
        let mut s = crate::SoftRng::new(seed);
        let regs = (0..n)
            .map(|_| {
                let hi = s.next_u64() as u128;
                let lo = s.next_u64() as u128;
                Lfsr::new(spec, (hi << 64) | lo)
            })
            .collect();
        LfsrBank { regs }
    }

    /// Number of registers in the bank.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Step every register once, returning the output bits LSB-first:
    /// bit `i` of the result is register `i`'s output.
    pub fn step_all(&mut self) -> u128 {
        let mut w = 0u128;
        for (i, r) in self.regs.iter_mut().enumerate() {
            if r.step() {
                w |= 1u128 << i;
            }
        }
        w
    }

    /// Mutable access to an individual register.
    pub fn reg_mut(&mut self, i: usize) -> &mut Lfsr {
        &mut self.regs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_rejects_zero_seed() {
        let l = Lfsr::maximal(8, 0).expect("8-bit taps known");
        assert_ne!(l.state(), 0, "zero seed must be coerced to non-zero");
    }

    #[test]
    fn lfsr_period_is_maximal_8bit() {
        let spec = TapSpec::maximal(8).expect("entry");
        let mut l = Lfsr::new(spec, 0x5A);
        let start = l.state();
        let mut period = 0u64;
        loop {
            l.step();
            period += 1;
            if l.state() == start {
                break;
            }
            assert!(period <= 1 << 9, "period exceeded 2^9, not maximal");
        }
        assert_eq!(period, 255, "8-bit maximal LFSR period must be 2^8-1");
    }

    #[test]
    fn lfsr_period_is_maximal_16bit() {
        let mut l = Lfsr::maximal(16, 0xACE1).expect("entry");
        let start = l.state();
        let mut period = 0u64;
        loop {
            l.step();
            period += 1;
            if l.state() == start {
                break;
            }
            assert!(period <= 1 << 17);
        }
        assert_eq!(period, 65_535);
    }

    #[test]
    fn lfsr_visits_every_nonzero_state_12bit() {
        // Maximality means the orbit covers all 2^n - 1 non-zero states.
        let mut l = Lfsr::maximal(12, 1).expect("entry");
        let mut seen = vec![false; 1 << 12];
        for _ in 0..(1 << 12) - 1 {
            let s = l.state() as usize;
            assert!(!seen[s], "state revisited before full period");
            seen[s] = true;
            l.step();
        }
        assert!(!seen[0], "all-zero state must never occur");
        assert_eq!(seen.iter().filter(|&&b| b).count(), (1 << 12) - 1);
    }

    #[test]
    fn paper_128_runs_and_is_balanced() {
        let mut l = Lfsr::paper_128(0xDEAD_BEEF_0BAD_F00D_u128);
        let n = 100_000;
        let ones: u32 = (0..n).map(|_| u32::from(l.step())).sum();
        let frac = f64::from(ones) / f64::from(n);
        assert!((frac - 0.5).abs() < 0.01, "bit bias too large: {frac}");
    }

    #[test]
    fn paper_128_serial_correlation_is_small() {
        let mut l = Lfsr::paper_128(12345);
        let n = 100_000usize;
        let bits: Vec<f64> = (0..n).map(|_| f64::from(u8::from(l.step()))).collect();
        let mean = bits.iter().sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n - 1 {
            num += (bits[i] - mean) * (bits[i + 1] - mean);
        }
        for b in &bits {
            den += (b - mean) * (b - mean);
        }
        let rho = num / den;
        assert!(rho.abs() < 0.02, "lag-1 correlation too large: {rho}");
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        // Low-entropy seeds like 1 and 2 emit identical all-zero
        // prefixes from the MSB tap, so use spread seeds as LfsrBank does.
        let mut a = Lfsr::paper_128(0x1234_5678_9ABC_DEF0_1111_2222_3333_4444);
        let mut b = Lfsr::paper_128(0x0FED_CBA9_8765_4321_5555_6666_7777_8888);
        let wa = a.step_word(64);
        let wb = b.step_word(64);
        assert_ne!(wa, wb);
    }

    #[test]
    fn bank_steps_lock_step() {
        let mut bank = LfsrBank::new(4, 16, 99);
        assert_eq!(bank.len(), 4);
        let _ = bank.step_all();
        for i in 0..4 {
            assert_eq!(bank.reg_mut(i).cycles(), 1);
        }
    }

    #[test]
    fn step_word_collects_msb_first() {
        let mut l = Lfsr::maximal(8, 0xF0).expect("entry");
        let mut reference = Lfsr::maximal(8, 0xF0).expect("entry");
        let w = l.step_word(8);
        for i in 0..8 {
            let bit = reference.step();
            assert_eq!((w >> (7 - i)) & 1 == 1, bit);
        }
    }
}
