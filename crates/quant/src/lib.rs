//! 8-bit linear quantization (Jacob et al., CVPR'18), the tiled int8
//! kernel and its reference executor.
//!
//! The paper's accelerator computes in 8-bit precision ("the 8-bit
//! linear quantization (ref. 21) is applied on the trained models", two
//! multipliers per DSP). This crate provides the deployment pipeline:
//!
//! 1. [`Quantizer::calibrate`] — record per-node activation ranges of a
//!    BN-folded f32 graph over calibration data (with MCD masks, so the
//!    `1/(1-p)` rescale is inside the calibrated range),
//! 2. [`Quantizer::quantize`] — lower to a [`QGraph`]: u8 asymmetric
//!    activations, i8 symmetric per-output-channel weights, i32 bias
//!    and accumulators, fixed-point requantization multipliers,
//! 3. [`QGraph::forward`] — bit-exact integer execution, including the
//!    dropout unit's fixed-point rescale by the mask's `1/(1-p)`, applied
//!    through a 256-entry table of the kept codes.
//!
//! The accelerator simulator (`bnn-accel`) executes the *same*
//! [`QGraph`], so "simulator output == reference output" is a
//! bit-exactness test, not an approximation check. Every integer pass
//! in the stack is a projection of one node-range walk,
//! [`QGraph::walk`], parameterized by a write-into node executor: two
//! executors share it. [`exec_qnode_tiled`] runs convolutions and
//! linear layers through one integer matrix kernel,
//! `bnn_tensor::gemm_bt_u8i8` on raw `u8` codes (a convolution's im2row
//! rows, a linear layer's items), in the loop nest of its [`Tile`]: the
//! [`Int8Backend`] that serves both the `int8` and the `accel`
//! substrate runs it at a register-sized tile, the simulator at its PE
//! array's. [`exec_qnode`]'s direct loops are the reference
//! behind [`QGraph::forward`] that both are tested against. Like the
//! f32 walk, the walk writes each node's output into that node's slot,
//! sized by the one shape rule `bnn_nn::out_shape` and overwritten in
//! place by every later pass, so a mis-shaped input is refused with the
//! f32 graph's message; and like it, one walk can carry many Monte
//! Carlo samples stacked along the item axis, which is how the backend
//! runs a sample chunk's suffix.
//!
//! # Example
//!
//! ```
//! use bnn_nn::{models, MaskSet};
//! use bnn_quant::Quantizer;
//! use bnn_tensor::{Shape4, Tensor};
//!
//! let net = models::lenet5(10, 1, 16, 1).fold_batch_norm();
//! let calib = Tensor::zeros(Shape4::new(4, 1, 16, 16));
//! let qgraph = Quantizer::new(&net).calibrate(&calib).quantize();
//! let logits = qgraph.forward(&calib, &MaskSet::none());
//! assert_eq!(logits.shape().c, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod fixed;
mod kernel;
mod qgraph;
mod quantizer;

pub use backend::Int8Backend;
pub use fixed::{quantize_multiplier, FixedMul};
pub use kernel::{exec_qnode_tiled, Tile};
pub use qgraph::{exec_qnode, QGraph, QNode, QNodeOp, QParams, QTensor};
pub use quantizer::Quantizer;
