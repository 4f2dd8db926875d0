//! Hardware-faithful random number generation for the BNN accelerator.
//!
//! This crate models the random-number subsystem of the DAC'21 FPGA
//! accelerator for Monte Carlo Dropout (MCD) Bayesian neural networks:
//!
//! * [`Lfsr`] — bit-accurate Fibonacci linear feedback shift registers,
//!   including the paper's 128-bit 4-tap configuration
//!   ([`Lfsr::paper_128`]).
//! * [`BernoulliSampler`] — the paper's Figure 3 pipeline: a bank of
//!   LFSRs combined by a gate network, a serial-in-parallel-out (SIPO)
//!   register forming `P_F`-bit dropout masks and a FIFO decoupling the
//!   sampler from the neural network engine.
//! * [`CltGaussianSampler`] / [`BoxMullerFixedSampler`] — fixed-point
//!   Gaussian samplers of the kind used by weight-sampling BNN
//!   accelerators such as VIBNN (reproduced as a baseline in
//!   `bnn-platforms`).
//! * [`SoftRng`] — a deterministic SplitMix64-based software PRNG used
//!   everywhere the *experiments* (not the hardware model) need
//!   randomness, so every run is reproducible from a seed.
//!
//! # Example
//!
//! Generate a filter-wise MCD mask exactly like the hardware would:
//!
//! ```
//! use bnn_rng::{BernoulliSampler, DropProbability};
//!
//! // p = 0.25 via two LFSRs and an AND gate, as in the paper.
//! let p = DropProbability::new(1, 2).expect("1/2^2 = 0.25");
//! let mut sampler = BernoulliSampler::new(p, 64, 128, 0xB00Bu64);
//! let mask = sampler.generate_mask(64);
//! assert_eq!(mask.len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernoulli;
mod fifo;
mod gaussian;
mod lfsr;
mod soft;

pub use bernoulli::{BernoulliSampler, DropProbability, GateNetwork, SamplerStats, Sipo};
pub use fifo::{Fifo, FifoFullError};
pub use gaussian::{BoxMullerFixedSampler, CltGaussianSampler, GaussianSampler};
pub use lfsr::{Lfsr, LfsrBank, TapSpec};
pub use soft::SoftRng;
