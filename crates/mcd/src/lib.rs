//! Monte Carlo Dropout (MCD) Bayesian inference and uncertainty
//! metrics.
//!
//! Implements the algorithmic side of the paper: partial Bayesian
//! inference over the last `L` of `N` weight layers, `S`-sample
//! predictive averaging, and the evaluation metrics — accuracy, average
//! predictive entropy (aPE) and expected calibration error (ECE).
//!
//! Mask bits can come from a software PRNG ([`SoftwareMaskSource`]) or
//! from the bit-exact hardware Bernoulli sampler model
//! ([`HardwareMaskSource`], built on `bnn-rng`'s LFSR pipeline) so the
//! algorithmic experiments can run against the exact bit stream the
//! accelerator would produce.
//!
//! Every prediction is one [`Engine::run`] of a [`Plan`] (one tensor,
//! a batched dataset, or independently-seeded requests) on a
//! [`BayesBackend`] substrate; see [`backend`] for the five-method
//! contract. [`FloatBackend`] is the f32 substrate of this crate, in
//! its per-sample ([`FloatBackend::new`]) and batched-sample fusion
//! ([`FloatBackend::fused`]) cuts.
//!
//! # Example
//!
//! ```
//! use bnn_mcd::{BayesConfig, Engine, FloatBackend, Plan, RequestResult, SoftwareMaskSource};
//! use bnn_nn::models;
//! use bnn_tensor::{Shape4, Tensor};
//!
//! let net = models::lenet5(10, 1, 28, 1);
//! let x = Tensor::zeros(Shape4::new(2, 1, 28, 28));
//! let cfg = BayesConfig::new(2, 5); // last 2 layers Bayesian, 5 samples
//! let predict = |mut backend: FloatBackend| {
//!     let mut src = SoftwareMaskSource::new(42);
//!     RequestResult::single(Engine::serial().run(&mut backend, Plan::one(&x, &mut src), cfg))
//! };
//! let out = predict(FloatBackend::fused(&net));
//! assert_eq!(out.passes.len(), 5);
//! let row: f32 = out.probs.item(0).iter().sum();
//! assert!((row - 1.0).abs() < 1e-4, "predictive rows are distributions");
//! // The per-sample reference walk gives the same bits.
//! assert_eq!(predict(FloatBackend::new(&net)).probs.as_slice(), out.probs.as_slice());
//! ```

// `deny` rather than `forbid`: the worker pool's lifetime erasure in
// `pool.rs` is the one audited exception (see its SAFETY comment);
// everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod chaos;
pub mod conformance;
mod metrics;
pub mod pool;
mod predict;
mod source;
pub mod uncertainty;

pub use backend::{
    BayesBackend, CostReport, Engine, FloatBackend, HardwareModel, ModelCost, ModelInfo, Plan,
    RequestResult,
};
pub use chaos::{fault_at, ChaosBackend, ChaosConfig, Fault};
pub use conformance::{assert_backend_agrees, assert_chaos_agrees, Tolerance};
pub use metrics::{accuracy, avg_predictive_entropy, ece, mutual_information, nll, Calibration};
pub use pool::WorkerPool;
pub use predict::{active_sites, mean_probs, BayesConfig, ParallelConfig};
pub use source::{HardwareMaskSource, MaskSource, SoftwareMaskSource};
pub use uncertainty::Uncertainty;
