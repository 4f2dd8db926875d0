//! The paper's Bernoulli sampler (Figure 3): LFSR bank + gate network
//! + serial-in-parallel-out register + FIFO.
//!
//! MCD is applied filter-wise, so each layer needs one Bernoulli
//! random variable per output filter. A single LFSR emits bits with
//! `P(1) = 0.5`; dropout probabilities `p = k / 2^m` are synthesised by
//! combining `m` independent LFSR bits through a comparator (the paper
//! describes the special case `p = 0.25` as "two LFSRs with an extra
//! AND gate", which is the comparator with `k = 1, m = 2`).

use crate::fifo::Fifo;
use crate::lfsr::LfsrBank;

/// A dropout probability representable in hardware as `k / 2^m`.
///
/// `m` LFSR bits form an `m`-bit uniform word `u`; the mask bit *drops*
/// the filter when `u < k`. With `k = 1, m = 2` this degenerates to the
/// paper's two-LFSR AND gate (`u = 0b00` ⇔ AND of the inverted bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DropProbability {
    numerator: u32,
    log2_denominator: u32,
}

impl DropProbability {
    /// Create `p_drop = numerator / 2^log2_denominator`.
    ///
    /// Returns `None` unless `0 < numerator < 2^log2_denominator` and
    /// `log2_denominator <= 16` (the widest gate network the model
    /// supports; hardware rarely exceeds 4).
    pub fn new(numerator: u32, log2_denominator: u32) -> Option<DropProbability> {
        if log2_denominator == 0 || log2_denominator > 16 {
            return None;
        }
        if numerator == 0 || numerator >= (1 << log2_denominator) {
            return None;
        }
        Some(DropProbability {
            numerator,
            log2_denominator,
        })
    }

    /// The paper's default `p = 0.25` (two LFSRs + AND gate).
    pub fn quarter() -> DropProbability {
        DropProbability {
            numerator: 1,
            log2_denominator: 2,
        }
    }

    /// `p = 0.5` (single LFSR).
    pub fn half() -> DropProbability {
        DropProbability {
            numerator: 1,
            log2_denominator: 1,
        }
    }

    /// The probability as a float.
    pub fn value(&self) -> f64 {
        f64::from(self.numerator) / f64::from(1u32 << self.log2_denominator)
    }

    /// Number of LFSRs (= gate-network inputs) required.
    pub fn lfsr_count(&self) -> usize {
        self.log2_denominator as usize
    }

    /// Numerator `k` of `k / 2^m`.
    pub fn numerator(&self) -> u32 {
        self.numerator
    }

    /// `m` of `k / 2^m`.
    pub fn log2_denominator(&self) -> u32 {
        self.log2_denominator
    }
}

/// The gate network combining `m` LFSR bit-streams into a keep/drop
/// decision with `P(drop) = k / 2^m`.
#[derive(Debug, Clone)]
pub struct GateNetwork {
    bank: LfsrBank,
    p: DropProbability,
    produced: u64,
    dropped: u64,
}

impl GateNetwork {
    /// Build a gate network for probability `p`, seeding the LFSR bank
    /// from `seed`.
    pub fn new(p: DropProbability, seed: u64) -> GateNetwork {
        GateNetwork {
            bank: LfsrBank::new(p.lfsr_count(), 128, seed),
            p,
            produced: 0,
            dropped: 0,
        }
    }

    /// Advance one cycle: returns the mask bit (`true` = keep filter,
    /// `false` = drop filter).
    pub fn next_keep_bit(&mut self) -> bool {
        let word = self.bank.step_all() as u32 & ((1u32 << self.p.log2_denominator()) - 1);
        let drop = word < self.p.numerator();
        self.produced += 1;
        if drop {
            self.dropped += 1;
        }
        !drop
    }

    /// Configured drop probability.
    pub fn probability(&self) -> DropProbability {
        self.p
    }

    /// Total bits produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Total drop decisions so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Serial-in-parallel-out register assembling single mask bits into
/// `P_F`-bit words (one bit per processed filter lane).
#[derive(Debug, Clone)]
pub struct Sipo {
    bits: Vec<bool>,
    width: usize,
}

impl Sipo {
    /// Create a SIPO of `width` bits (`P_F` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Sipo {
        assert!(width > 0, "SIPO width must be non-zero");
        Sipo {
            bits: Vec::with_capacity(width),
            width,
        }
    }

    /// Shift one bit in; returns the completed word when the register
    /// fills (and resets it).
    pub fn shift_in(&mut self, bit: bool) -> Option<Vec<bool>> {
        self.bits.push(bit);
        if self.bits.len() == self.width {
            let word = std::mem::replace(&mut self.bits, Vec::with_capacity(self.width));
            Some(word)
        } else {
            None
        }
    }

    /// Configured width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bits currently latched (for inspection in tests).
    pub fn pending(&self) -> usize {
        self.bits.len()
    }
}

/// Occupancy and throughput statistics of a [`BernoulliSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplerStats {
    /// Cycles the sampler has been ticked.
    pub cycles: u64,
    /// Mask bits produced by the gate network.
    pub bits_produced: u64,
    /// Mask bits that were drop decisions.
    pub bits_dropped: u64,
    /// Words currently waiting in the FIFO.
    pub fifo_occupancy: usize,
    /// Maximum FIFO occupancy observed.
    pub fifo_high_water: usize,
    /// Cycles in which the sampler stalled on a full FIFO.
    pub stall_cycles: u64,
}

/// The complete Bernoulli sampler pipeline of paper Figure 3.
///
/// One gate-network bit is produced per cycle, assembled into
/// `P_F`-bit words by the SIPO and buffered in the FIFO until the
/// dropout unit pops them. When the FIFO is full the sampler stalls
/// (hardware back-pressure), which the stats expose so FIFO depth can
/// be sized.
///
/// # Example
///
/// ```
/// use bnn_rng::{BernoulliSampler, DropProbability};
///
/// let mut s = BernoulliSampler::new(DropProbability::quarter(), 8, 16, 42);
/// let mask = s.generate_mask(20); // 20 filters => 3 FIFO words popped
/// assert_eq!(mask.len(), 20);
/// let kept = mask.iter().filter(|&&b| b).count();
/// assert!(kept >= 10, "with p=0.25 most filters are kept");
/// ```
#[derive(Debug, Clone)]
pub struct BernoulliSampler {
    gate: GateNetwork,
    sipo: Sipo,
    fifo: Fifo<Vec<bool>>,
    cycles: u64,
    stalls: u64,
}

impl BernoulliSampler {
    /// Create a sampler producing `pf`-bit mask words with drop
    /// probability `p`, buffered in a FIFO of `fifo_depth` words.
    pub fn new(p: DropProbability, pf: usize, fifo_depth: usize, seed: u64) -> BernoulliSampler {
        BernoulliSampler {
            gate: GateNetwork::new(p, seed),
            sipo: Sipo::new(pf),
            fifo: Fifo::new(fifo_depth),
            cycles: 0,
            stalls: 0,
        }
    }

    /// Advance one hardware cycle.
    ///
    /// If the FIFO has room, a new bit is generated and shifted into
    /// the SIPO; a completed word is pushed to the FIFO. If the FIFO is
    /// full and the SIPO has a completed word pending, the sampler
    /// stalls for the cycle.
    pub fn tick(&mut self) {
        self.cycles += 1;
        if self.fifo.is_full() && self.sipo.pending() + 1 == self.sipo.width() {
            // Completing the word this cycle would have nowhere to go.
            self.stalls += 1;
            return;
        }
        let bit = self.gate.next_keep_bit();
        if let Some(word) = self.sipo.shift_in(bit) {
            // Capacity was checked above; a push failure would be a bug.
            self.fifo
                .push(word)
                .expect("fifo capacity checked before shift");
        }
    }

    /// Pop one `P_F`-bit mask word, ticking the sampler until a word is
    /// available.
    pub fn pop_word(&mut self) -> Vec<bool> {
        loop {
            if let Some(w) = self.fifo.pop() {
                return w;
            }
            self.tick();
        }
    }

    /// Generate a filter-wise mask for a layer with `filters` output
    /// filters: `true` = keep (scale by `1/(1-p)` downstream),
    /// `false` = drop.
    pub fn generate_mask(&mut self, filters: usize) -> Vec<bool> {
        let mut mask = Vec::with_capacity(filters);
        while mask.len() < filters {
            let w = self.pop_word();
            let take = (filters - mask.len()).min(w.len());
            mask.extend_from_slice(&w[..take]);
            // Remaining bits of a partially-consumed word correspond to
            // hardware lanes beyond the layer's filter count; they are
            // discarded exactly as the RTL ignores unused lanes.
        }
        mask
    }

    /// Run the sampler for `n` idle cycles (models the engine busy
    /// elsewhere while the sampler fills its FIFO ahead of time).
    pub fn run_ahead(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> SamplerStats {
        SamplerStats {
            cycles: self.cycles,
            bits_produced: self.gate.produced(),
            bits_dropped: self.gate.dropped(),
            fifo_occupancy: self.fifo.len(),
            fifo_high_water: self.fifo.high_water(),
            stall_cycles: self.stalls,
        }
    }

    /// Configured drop probability.
    pub fn probability(&self) -> DropProbability {
        self.gate.probability()
    }

    /// Mask word width (`P_F`).
    pub fn pf(&self) -> usize {
        self.sipo.width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_probability_validation() {
        assert!(
            DropProbability::new(0, 2).is_none(),
            "p=0 not representable"
        );
        assert!(
            DropProbability::new(4, 2).is_none(),
            "p=1 not representable"
        );
        assert!(DropProbability::new(1, 0).is_none());
        assert!(DropProbability::new(1, 17).is_none());
        let p = DropProbability::new(3, 3).expect("3/8 valid");
        assert!((p.value() - 0.375).abs() < 1e-12);
        assert_eq!(p.lfsr_count(), 3);
    }

    #[test]
    fn quarter_uses_two_lfsrs() {
        let p = DropProbability::quarter();
        assert_eq!(p.lfsr_count(), 2, "paper: two LFSRs + AND gate for p=0.25");
        assert!((p.value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gate_network_empirical_rate_quarter() {
        let mut g = GateNetwork::new(DropProbability::quarter(), 7);
        let n = 200_000u64;
        let mut drops = 0u64;
        for _ in 0..n {
            if !g.next_keep_bit() {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!(
            (rate - 0.25).abs() < 0.005,
            "empirical drop rate {rate} != 0.25"
        );
    }

    #[test]
    fn gate_network_empirical_rate_three_eighths() {
        let p = DropProbability::new(3, 3).expect("valid");
        let mut g = GateNetwork::new(p, 11);
        let n = 200_000u64;
        let mut drops = 0u64;
        for _ in 0..n {
            if !g.next_keep_bit() {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!(
            (rate - 0.375).abs() < 0.005,
            "empirical drop rate {rate} != 0.375"
        );
    }

    #[test]
    fn sipo_assembles_words() {
        let mut s = Sipo::new(3);
        assert_eq!(s.shift_in(true), None);
        assert_eq!(s.shift_in(false), None);
        let w = s.shift_in(true).expect("word complete");
        assert_eq!(w, vec![true, false, true]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn sampler_mask_lengths() {
        let mut s = BernoulliSampler::new(DropProbability::quarter(), 8, 4, 3);
        for filters in [1usize, 7, 8, 9, 64, 100] {
            let m = s.generate_mask(filters);
            assert_eq!(m.len(), filters);
        }
    }

    #[test]
    fn sampler_empirical_drop_rate() {
        let mut s = BernoulliSampler::new(DropProbability::quarter(), 64, 8, 17);
        let mut total = 0u64;
        let mut dropped = 0u64;
        for _ in 0..400 {
            let m = s.generate_mask(64);
            total += m.len() as u64;
            dropped += m.iter().filter(|&&b| !b).count() as u64;
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.02, "mask drop rate {rate} != 0.25");
    }

    #[test]
    fn sampler_stalls_when_fifo_full() {
        let mut s = BernoulliSampler::new(DropProbability::half(), 2, 1, 5);
        // 1-word FIFO, 2-bit words: after 2 ticks the FIFO is full;
        // further ticks must eventually stall rather than drop words.
        s.run_ahead(32);
        let st = s.stats();
        assert!(st.stall_cycles > 0, "expected stalls with tiny FIFO");
        assert_eq!(st.fifo_high_water, 1);
    }

    #[test]
    fn run_ahead_fills_fifo() {
        let mut s = BernoulliSampler::new(DropProbability::quarter(), 4, 16, 5);
        s.run_ahead(64);
        assert_eq!(
            s.stats().fifo_occupancy,
            16,
            "64 cycles / 4-bit words = 16 words"
        );
    }

    #[test]
    fn distinct_seeds_distinct_masks() {
        let mut a = BernoulliSampler::new(DropProbability::quarter(), 64, 8, 1);
        let mut b = BernoulliSampler::new(DropProbability::quarter(), 64, 8, 2);
        assert_ne!(a.generate_mask(64), b.generate_mask(64));
    }

    #[test]
    fn same_seed_reproducible() {
        let mut a = BernoulliSampler::new(DropProbability::quarter(), 64, 8, 9);
        let mut b = BernoulliSampler::new(DropProbability::quarter(), 64, 8, 9);
        for _ in 0..10 {
            assert_eq!(a.generate_mask(33), b.generate_mask(33));
        }
    }
}
