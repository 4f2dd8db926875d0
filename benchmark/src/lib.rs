//! The repo benchmark: five seeded workloads, eight end-to-end
//! metrics, layer probes and a traced pass. `BENCHMARK.json` at the
//! repo root declares it; `README.md` beside this crate explains what
//! each number is for.
//!
//! The benchmark reaches the stack only through the `bnn-fpga` facade,
//! the way a user does, and adds no knob to it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod drivers;
pub mod env;
pub mod json;
pub mod plan;
pub mod probe;
pub mod run;
pub mod spans;
pub mod stack;
pub mod stats;
pub mod workload;
