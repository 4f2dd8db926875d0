//! `bnn-net` — the dependency-free TCP front door over the
//! `bnn-serve` admission layer.
//!
//! The source paper's FPGA accelerator (Fan et al., DAC 2021) wins by
//! making Bayesian inference fast enough for real-time serving; this
//! crate is where those predictions stop being a library call and
//! start being a service. It is deliberately dependency-free — a
//! hand-rolled event loop on `std::net` (resident acceptor thread,
//! one worker per connection) rather than an async runtime, so the
//! offline build stays hermetic and the audited threading patterns
//! stay small enough to read in one sitting.
//!
//! Two framings share one port, sniffed from the first four bytes:
//!
//! * the **length-prefixed binary protocol** ([`wire`]) — request
//!   frames carry tenant id, priority, optional deadline, optional
//!   seed and an f32 input tensor; responses are a reply frame
//!   (probs + [`bnn_mcd::Uncertainty`] + [`bnn_mcd::CostReport`]
//!   slice, with the effective seed echoed for offline
//!   reproducibility) or a typed error frame. Version 2 adds a
//!   client-chosen correlation id, which unlocks **pipelining**: a
//!   [`PipelinedClient`] keeps up to `depth` requests in flight per
//!   connection, and the server upgrades that connection to a
//!   reader/writer pair bounded by [`NetConfig::max_pipeline`].
//!   Corr-less (v1) peers keep the lock-step loop unchanged;
//! * **minimal HTTP/1.1** — `GET /status` returns live JSON
//!   telemetry from the rolling-window [`monitor`] (p50/p99 latency,
//!   queue-depth and in-flight gauges, batch-size histogram,
//!   per-substrate cost aggregates, shed/expired/rejected counters);
//!   `GET /metrics` renders the same counters plus cumulative latency
//!   and per-stage span histograms as a Prometheus-style text
//!   exposition; `GET /trace` drains the `bnn-trace` span rings as a
//!   Chrome trace-event JSON document (empty unless tracing is
//!   enabled via [`bnn_trace::set_enabled`]).
//!
//! Admission is tenant-aware ([`tenant`]): each tenant gets a
//! priority ceiling and a token-bucket rate limit, mapped onto the
//! serve layer's priority scheduler, so the wire boundary cannot be
//! used to jump the queue.
//!
//! This crate is the front door and nothing else: load is driven and
//! measured by the repo benchmark (`benchmark/`), and the quiesce
//! contract — client tallies by [`ErrorCode`] equal `/status`, the
//! `/metrics` latency count equals served, `/trace` carries every
//! pipeline stage — is gated by `tests/reconcile.rs`.
//!
//! ```no_run
//! use bnn_net::{http_get, NetClient, NetConfig, NetServer, Request, Timeouts};
//! # fn demo(server: bnn_serve::Server, x: bnn_tensor::Tensor) -> std::io::Result<()> {
//! let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default())?;
//! let mut client = NetClient::connect(front.local_addr())?;
//! let response = client.send(&Request::new(x).seed(42))?;
//! let status_json = http_get(front.local_addr(), "/status", Timeouts::default())?;
//! # let _ = (response, status_json);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod monitor;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{http_get, NetClient, PipelinedClient, Submitted, Timeouts};
pub use monitor::{Monitor, MonitorSnapshot};
pub use server::{NetConfig, NetServer};
pub use tenant::{RateLimited, TenantGate, TenantPolicy, TenantTable};
pub use wire::{
    DecodeError, EncodeError, ErrorCode, Request, Response, WireError, WireReply, MAX_FRAME,
    PROTOCOL_V2, PROTOCOL_VERSION,
};

use std::sync::{Mutex, MutexGuard};

/// Poisoning policy: a poisoned mutex here means another connection
/// worker panicked mid-update; the guarded state (telemetry rings,
/// token buckets, join handles) stays structurally valid, and
/// propagating the panic would take down an unrelated connection —
/// so every lock in this crate recovers the guard and continues.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
