//! The seeded plan: which request goes out in which slot of which
//! connection. Everything the program receives — class, pinned mask
//! seed, input image, arrival gap — is a pure function of
//! `(seed, connection, slot)`, so a run can be replayed offline and
//! two runs with one seed ask the same questions in the same order.
//! Wall-clock only decides how far down its stream a connection gets.

use bnn_fpga::rng::SoftRng;
use bnn_fpga::Priority;

/// Images in the input pool every slot draws from.
pub const INPUT_POOL: usize = 64;

/// One request class of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Class {
    /// Relative weight in the mix.
    pub weight: u32,
    /// Admission class requested.
    pub priority: Priority,
    /// Tenant id sent on the wire.
    pub tenant: &'static str,
    /// Queue-time budget, if the class carries one.
    pub deadline_us: Option<u64>,
}

/// The request mix of the four serving workloads — `high`, `normal`,
/// `deadline`, in that order. No rate-limited
/// tenant: a wall-clock token bucket would make the refusal count
/// differ run to run. The deadline is exercised, never expected to
/// fire (250 ms against millisecond queue times).
pub const MIX: [Class; 3] = [
    Class {
        weight: 1,
        priority: Priority::High,
        tenant: "gold",
        deadline_us: None,
    },
    Class {
        weight: 5,
        priority: Priority::Normal,
        tenant: "",
        deadline_us: None,
    },
    Class {
        weight: 2,
        priority: Priority::Normal,
        tenant: "",
        deadline_us: Some(250_000),
    },
];

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Index into [`MIX`].
    pub class: usize,
    /// The mask-stream seed pinned on the request.
    pub seed: u64,
    /// Index into the input pool.
    pub input: usize,
    /// Exponential inter-arrival gap before this slot, in µs (used by
    /// the open loop only; drawn always, so every mode sees one
    /// stream).
    pub gap_us: u64,
}

/// Scramble `(seed, lane)` into an independent stream seed: the
/// stack's own `request_seed`, with lanes counted from 1 so that lane 0
/// is not the seed itself.
pub fn derive(seed: u64, lane: u64) -> u64 {
    bnn_fpga::request_seed(seed, lane.wrapping_add(1))
}

/// The slot stream of one connection. Each connection owns its own
/// generator, so adding a connection never reshuffles the others.
#[derive(Debug)]
pub struct SlotStream {
    rng: SoftRng,
    mean_gap_us: f64,
}

impl SlotStream {
    /// The stream of connection `conn` under `seed`. `rate_per_s` is
    /// the Poisson arrival rate the gaps are drawn for.
    pub fn new(seed: u64, conn: usize, rate_per_s: f64) -> SlotStream {
        SlotStream {
            rng: SoftRng::new(derive(seed, conn as u64)),
            mean_gap_us: 1e6 / rate_per_s,
        }
    }
}

impl SlotStream {
    /// The next planned slot; the stream never ends.
    pub fn next_slot(&mut self) -> Slot {
        let total: u32 = MIX.iter().map(|c| c.weight).sum();
        let mut pick = self.rng.next_below(total as usize) as u32;
        let mut class = 0;
        for (i, c) in MIX.iter().enumerate() {
            if pick < c.weight {
                class = i;
                break;
            }
            pick -= c.weight;
        }
        let seed = self.rng.next_u64();
        let input = self.rng.next_below(INPUT_POOL);
        // Inverse-CDF exponential; 1 − u ∈ (0, 1] keeps ln finite.
        let gap_us = (-(1.0 - self.rng.next_f64()).ln() * self.mean_gap_us) as u64;
        Slot {
            class,
            seed,
            input,
            gap_us,
        }
    }
}

impl Iterator for SlotStream {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        Some(self.next_slot())
    }
}

/// FNV-1a over a stream of `f32` bit patterns: the output digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one reply's probabilities in.
    pub fn update(&mut self, probs: &[f32]) {
        for p in probs {
            for byte in p.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, conn: usize, n: usize) -> Vec<Slot> {
        SlotStream::new(seed, conn, 500.0).take(n).collect()
    }

    #[test]
    fn same_seed_same_slots_and_a_new_connection_reshuffles_nothing() {
        assert_eq!(take(7, 0, 200), take(7, 0, 200));
        assert_eq!(take(7, 1, 200), take(7, 1, 200));
        // Connection 0 is the same stream whether or not connection 1
        // exists, and the two are different streams.
        assert_ne!(take(7, 0, 200), take(7, 1, 200));
    }

    #[test]
    fn a_different_seed_changes_classes_seeds_inputs_and_gaps() {
        let (a, b) = (take(7, 0, 200), take(8, 0, 200));
        assert!(a.iter().zip(&b).any(|(x, y)| x.class != y.class));
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
        assert!(a.iter().zip(&b).any(|(x, y)| x.input != y.input));
        assert!(a.iter().zip(&b).any(|(x, y)| x.gap_us != y.gap_us));
    }

    #[test]
    fn mix_weights_inputs_and_gaps_follow_the_plan() {
        let slots = take(3, 0, 8000);
        let share = |c: usize| slots.iter().filter(|s| s.class == c).count() as f64 / 8000.0;
        assert!((share(0) - 1.0 / 8.0).abs() < 0.02, "high {}", share(0));
        assert!((share(1) - 5.0 / 8.0).abs() < 0.02, "normal {}", share(1));
        assert!((share(2) - 2.0 / 8.0).abs() < 0.02, "deadline {}", share(2));
        assert!(slots.iter().all(|s| s.input < INPUT_POOL));
        let mean_gap = slots.iter().map(|s| s.gap_us as f64).sum::<f64>() / 8000.0;
        assert!((mean_gap - 2000.0).abs() < 100.0, "mean gap {mean_gap}");
    }

    #[test]
    fn digest_is_order_and_bit_sensitive_and_repeats() {
        let mut a = Digest::default();
        a.update(&[0.25, 0.75]);
        let mut b = Digest::default();
        b.update(&[0.25, 0.75]);
        assert_eq!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.update(&[0.75, 0.25]);
        assert_ne!(a, c);
        let mut d = Digest::default();
        d.update(&[0.25, f32::from_bits(0.75f32.to_bits() + 1)]);
        assert_ne!(a, d);
        assert_eq!(a.hex().len(), 16);
    }
}
