//! Sources of MCD dropout masks.

use bnn_nn::MaskSet;
use bnn_rng::{BernoulliSampler, DropProbability, SoftRng};

/// A source of per-pass dropout masks for the active sites.
pub trait MaskSource {
    /// Produce one [`MaskSet`] covering `active.len()` sites;
    /// `channels[i]` is the mask length for site `i` and `p` the drop
    /// probability.
    fn next_masks(&mut self, active: &[bool], channels: &[usize], p: f32) -> MaskSet;
}

/// Software mask source: SplitMix64-driven Bernoulli draws.
#[derive(Debug)]
pub struct SoftwareMaskSource {
    rng: SoftRng,
}

impl SoftwareMaskSource {
    /// Create from a seed.
    pub fn new(seed: u64) -> SoftwareMaskSource {
        SoftwareMaskSource {
            rng: SoftRng::new(seed),
        }
    }
}

impl MaskSource for SoftwareMaskSource {
    fn next_masks(&mut self, active: &[bool], channels: &[usize], p: f32) -> MaskSet {
        // `sample_software` itself routes through `MaskSet::draw`, the
        // same helper the hardware paths call.
        MaskSet::sample_software(active, channels, p, &mut self.rng)
    }
}

/// Hardware mask source: masks drawn from the bit-exact LFSR Bernoulli
/// sampler pipeline (paper Figure 3).
///
/// The drop probability must be representable as `k/2^m`
/// ([`DropProbability`]); the paper uses `p = 0.25`.
#[derive(Debug)]
pub struct HardwareMaskSource {
    sampler: BernoulliSampler,
    p: DropProbability,
}

impl HardwareMaskSource {
    /// Create with the paper's defaults: `P_F`-bit words and a FIFO of
    /// `fifo_depth` words.
    ///
    /// Returns `None` if `p_num/2^p_log2den` is not a valid probability.
    pub fn new(
        p_num: u32,
        p_log2den: u32,
        pf: usize,
        fifo_depth: usize,
        seed: u64,
    ) -> Option<HardwareMaskSource> {
        let p = DropProbability::new(p_num, p_log2den)?;
        Some(HardwareMaskSource {
            sampler: BernoulliSampler::new(p, pf, fifo_depth, seed),
            p,
        })
    }

    /// The paper's configuration: `p = 0.25`, `P_F = 64`, FIFO depth 64.
    pub fn paper_default(seed: u64) -> HardwareMaskSource {
        HardwareMaskSource {
            sampler: BernoulliSampler::new(DropProbability::quarter(), 64, 64, seed),
            p: DropProbability::quarter(),
        }
    }

    /// The sampler's exact drop probability.
    pub fn probability(&self) -> f64 {
        self.p.value()
    }
}

impl MaskSource for HardwareMaskSource {
    fn next_masks(&mut self, active: &[bool], channels: &[usize], p: f32) -> MaskSet {
        assert!(
            (f64::from(p) - self.p.value()).abs() < 1e-9,
            "hardware sampler built for p = {}, asked for {p}",
            self.p.value()
        );
        let sampler = &mut self.sampler;
        MaskSet::draw(active, channels, p, |c| sampler.generate_mask(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_source_is_reproducible() {
        let mut a = SoftwareMaskSource::new(5);
        let mut b = SoftwareMaskSource::new(5);
        let (act, ch) = (vec![true, false], vec![8usize, 4]);
        let ma = a.next_masks(&act, &ch, 0.25);
        let mb = b.next_masks(&act, &ch, 0.25);
        assert_eq!(
            ma.get(0).map(|m| m.keep.clone()),
            mb.get(0).map(|m| m.keep.clone())
        );
        assert!(ma.get(1).is_none());
    }

    #[test]
    fn hardware_source_produces_expected_rate() {
        let mut src = HardwareMaskSource::paper_default(3);
        let act = vec![true];
        let ch = vec![64usize];
        let mut dropped = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let ms = src.next_masks(&act, &ch, 0.25);
            let m = ms.get(0).expect("site active");
            dropped += m.keep.iter().filter(|&&k| !k).count();
            total += m.keep.len();
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.02, "hardware drop rate {rate}");
    }

    #[test]
    #[should_panic(expected = "hardware sampler built for p")]
    fn hardware_source_rejects_mismatched_p() {
        let mut src = HardwareMaskSource::paper_default(3);
        let _ = src.next_masks(&[true], &[4], 0.5);
    }

    #[test]
    fn hardware_source_invalid_probability_is_none() {
        assert!(HardwareMaskSource::new(0, 2, 64, 64, 1).is_none());
        assert!(HardwareMaskSource::new(4, 2, 64, 64, 1).is_none());
    }

    #[test]
    fn mask_scale_is_inverse_keep_probability() {
        let mut src = HardwareMaskSource::paper_default(9);
        let ms = src.next_masks(&[true], &[16], 0.25);
        let m = ms.get(0).expect("active");
        assert!((m.scale - 4.0 / 3.0).abs() < 1e-6);
    }
}
