//! Deterministic software PRNG used by experiments (dataset synthesis,
//! weight initialisation, software-mode dropout).
//!
//! The crate deliberately avoids `rand`: every stochastic experiment in
//! the reproduction must be bit-for-bit reproducible from a single
//! `u64` seed, and the hardware models provide their own entropy
//! (LFSRs). SplitMix64 is small, fast and passes BigCrush when used as
//! a 64-bit generator.

/// SplitMix64-based software PRNG with convenience samplers.
///
/// # Example
///
/// ```
/// use bnn_rng::SoftRng;
///
/// let mut rng = SoftRng::new(42);
/// let x = rng.next_f32();
/// assert!((0.0..1.0).contains(&x));
/// let n = rng.normal_f32(0.0, 1.0);
/// assert!(n.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftRng {
    state: u64,
    cached_normal: Option<u64>, // bit pattern of an f64
}

impl SoftRng {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> SoftRng {
        SoftRng {
            state: seed,
            cached_normal: None,
        }
    }

    /// Derive an independent child generator (for parallel streams).
    pub fn fork(&mut self) -> SoftRng {
        SoftRng::new(self.next_u64() ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` as `f32`.
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be non-zero");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * bound,
        // negligible for the dataset sizes used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `[lo, hi)` as `f32`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.range_f64(f64::from(lo), f64::from(hi)) as f32
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// `len` independent Bernoulli draws with probability `p` of
    /// `true`.
    ///
    /// When `p` is exactly representable as `k/256` — which covers the
    /// paper's `p = 0.25` and every hardware-legal [`crate::DropProbability`]
    /// with at most 8 fractional bits — the draws come eight at a time
    /// from the bytes of one [`SoftRng::next_u64`]: each byte is
    /// uniform over `0..256`, so `byte < k` is exactly Bernoulli(k/256).
    /// That makes bulk mask drawing ~4× cheaper than per-draw
    /// [`SoftRng::bernoulli`], which matters because the MCD engine
    /// draws all `S` sample masks *serially* before fanning out.
    /// Other `p` fall back to one draw per decision. Either way the
    /// stream is a pure function of the seed.
    pub fn bernoulli_many(&mut self, p: f64, len: usize) -> Vec<bool> {
        self.decisions(p, len, false)
    }

    /// `len` keep decisions at drop probability `p`: exactly
    /// `!bernoulli_many(p, len)`, from the same stream, written in one
    /// pass instead of a draw pass and a negating pass — on the
    /// `k/256` grid each byte of a word becomes `byte ≥ k` straight
    /// into the sized vector. This is what a dropout mask needs, and
    /// what `bnn-nn`'s `MaskSet::sample_software` draws.
    pub fn keep_many(&mut self, p: f64, len: usize) -> Vec<bool> {
        self.decisions(p, len, true)
    }

    /// The body of [`SoftRng::bernoulli_many`] (`negate = false`) and
    /// [`SoftRng::keep_many`] (`negate = true`).
    fn decisions(&mut self, p: f64, len: usize, negate: bool) -> Vec<bool> {
        let scaled = p * 256.0;
        if scaled.fract() == 0.0 && (0.0..=256.0).contains(&scaled) {
            let t = scaled as u16;
            let mut out = vec![false; len];
            for chunk in out.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                for (d, &byte) in chunk.iter_mut().zip(&bytes) {
                    *d = (u16::from(byte) < t) != negate;
                }
            }
            out
        } else {
            (0..len).map(|_| self.bernoulli(p) != negate).collect()
        }
    }

    /// Standard normal draw (Box–Muller, cached pair).
    pub fn normal_f64(&mut self, mean: f64, std: f64) -> f64 {
        if let Some(bits) = self.cached_normal.take() {
            return mean + std * f64::from_bits(bits);
        }
        // Avoid u1 == 0 exactly.
        let u1 = (self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let z0 = r * theta.cos();
        let z1 = r * theta.sin();
        self.cached_normal = Some(z1.to_bits());
        mean + std * z0
    }

    /// Standard normal draw as `f32`.
    pub fn normal_f32(&mut self, mean: f32, std: f32) -> f32 {
        self.normal_f64(f64::from(mean), f64::from(std)) as f32
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = SoftRng::new(7);
        let mut b = SoftRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut a = SoftRng::new(7);
        let mut c = a.fork();
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SoftRng::new(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "uniform mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SoftRng::new(5);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal_f64(2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 2.0).abs() < 0.05, "normal mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "normal var {var}");
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SoftRng::new(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b), "all buckets should be hit");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SoftRng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = SoftRng::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.25)).count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.25).abs() < 0.01, "bernoulli rate {rate}");
    }
}
