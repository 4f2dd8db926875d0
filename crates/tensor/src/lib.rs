//! Minimal NCHW tensor library underpinning the BNN reproduction.
//!
//! Provides exactly the kernels the rest of the stack needs — nothing
//! more: a dense f32 [`Tensor`] in NCHW layout, row-major [`gemm`]
//! and [`gemm_rows`] (its `b` rows at offsets, which with
//! [`pad_phases_into`] runs a convolution without im2col),
//! [`im2col`]/[`col2im`] for training's convolution lowering, pooling
//! kernels, numerically-stable softmax, and [`gemm_bt_u8i8`], the
//! `u8 × i8` product of a quantized layer. [`gemm`]'s register tile,
//! [`gemm_bt`] and [`gemm_bt_u8i8`] run AVX-512 kernels where the CPU
//! has them, detected at run time, in the crate's one `unsafe` module;
//! a safe kernel of the same bytes is the fallback and the reference.
//!
//! # Example
//!
//! ```
//! use bnn_tensor::{Tensor, Shape4};
//!
//! let x = Tensor::zeros(Shape4::new(1, 3, 8, 8));
//! assert_eq!(x.len(), 3 * 64);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod gemm;
mod im2col;
mod ops;
mod pool;
mod shape;
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod simd;
mod tensor;

pub use gemm::{gemm, gemm_at, gemm_bt, gemm_bt_stacked, gemm_bt_u8i8, gemm_rows, gemm_stacked};
pub use im2col::{col2im, conv_out_dim, im2col, im2col_stacked_into, pad_phases_into};
pub use ops::{add_inplace, log_softmax_rows, relu_inplace, softmax_rows};
pub use pool::{global_avg_pool_into, max_pool, max_pool_backward, max_pool_into};
pub use shape::Shape4;
pub use tensor::Tensor;
