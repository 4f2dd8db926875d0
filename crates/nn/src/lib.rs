//! Layer-graph neural network IR with f32 inference, backprop and SGD
//! training.
//!
//! The graph plays the role of a *netlist*: every consumer in the stack
//! — the f32 executor here, the int8 reference executor in `bnn-quant`,
//! the accelerator compiler in `bnn-accel` and the CPU/GPU latency
//! models in `bnn-platforms` — walks the same [`Graph`] so they are
//! guaranteed to describe the same network.
//!
//! Monte Carlo Dropout sites are first-class: every weight layer's
//! input carries a [`Op::McdSite`] node. A site is *active* when the
//! Bayesian configuration enables it (the paper's "last `L` layers");
//! inactive sites are identities, so a single graph serves every
//! partial-Bayesian configuration.
//!
//! # Example
//!
//! ```
//! use bnn_nn::{models, MaskSet};
//! use bnn_tensor::{Shape4, Tensor};
//!
//! let mut net = models::lenet5(10, 1, 28, 7);
//! let x = Tensor::zeros(Shape4::new(1, 1, 28, 28));
//! // Standard (non-Bayesian) forward: no masks.
//! let logits = net.forward(&x, &MaskSet::none());
//! assert_eq!(logits.shape().c, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
mod exec;
mod graph;
mod loss;
pub mod models;
mod param;
mod train;

pub use exec::{Activations, ExecScratch, Mask, MaskSet};
pub use graph::{out_shape, Geometry, Graph, GraphBuilder, Node, NodeId, Op, SiteId};
pub use loss::{cross_entropy, CrossEntropyOutput};
pub use param::{ParamId, ParamStore};
pub use train::{evaluate_accuracy, Batcher, SgdConfig, Trainer};
