//! Cycle-approximate, functionally bit-exact simulator of the DAC'21
//! FPGA accelerator for Monte Carlo Dropout Bayesian neural networks.
//!
//! This crate is the reproduction's *primary contribution*: a Rust
//! model of the paper's hardware (Figure 2) detailed enough to
//! regenerate every hardware number in the evaluation.
//!
//! Components, mirroring the paper's architecture:
//!
//! * [`AccelConfig`] — the `P_C` / `P_F` / `P_V` parallelism knobs,
//!   clock, DDR interface and board power.
//! * [`ResourceModel`] — the Section IV-B resource model (DSP, M20K,
//!   plus calibrated ALM/register estimates) against an
//!   [`FpgaDevice`] budget (Arria 10 SX660 built in) → Table II.
//! * [`PerfModel`] — the per-layer cycle model: tiled matrix-engine
//!   compute overlapped with double-buffered DDR transfers, per-layer
//!   control overhead, intermediate-layer caching (IC) → Tables I/III,
//!   throughput for Table IV.
//! * [`Accelerator`] — the functional neural network engine: executes
//!   a quantized [`bnn_quant::QGraph`] through `bnn-quant`'s integer
//!   kernel in the PE array's `(P_F, P_V, P_C)` tile order, the FU
//!   chain (BN folded → ReLU → pool → shortcut) and a dropout unit
//!   driven by the bit-exact LFSR Bernoulli sampler. Its outputs are
//!   bit-identical to the `bnn-quant` reference executor — tested, not
//!   assumed — and the tiles its kernel runs are the tiles
//!   [`PerfModel`] charges, also tested. The *serving* substrate
//!   ([`Accelerator::into_backend`]) is the int8 backend, the same
//!   kernel at a register-sized tile, with the models above attached
//!   for its costs.
//! * [`pe_clocked`] — a small clocked model of one processing-unit
//!   tile that cross-validates the analytic cycle formula.
//!
//! # Example
//!
//! ```
//! use bnn_accel::{Accelerator, AccelConfig};
//! use bnn_mcd::BayesConfig;
//! use bnn_nn::models;
//! use bnn_quant::Quantizer;
//! use bnn_tensor::{Shape4, Tensor};
//!
//! let net = models::lenet5(10, 1, 16, 1).fold_batch_norm();
//! let calib = Tensor::zeros(Shape4::new(2, 1, 16, 16));
//! let qg = Quantizer::new(&net).calibrate(&calib).quantize();
//! let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
//! let run = accel.run(&calib.select_item(0), BayesConfig::new(2, 3), 7);
//! assert_eq!(run.predictive.shape().c, 10);
//! assert!(run.timing.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod engine;
pub mod pe_clocked;
mod perf;
mod resource;

pub use config::{AccelConfig, DdrConfig};
pub use engine::{AccelRun, Accelerator, MemTraffic};
pub use perf::{LayerTiming, NetworkTiming, PerfModel};
pub use resource::{FpgaDevice, ResourceModel, ResourceUsage};
