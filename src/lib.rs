//! **bnn-fpga** — a Rust reproduction of *"High-Performance FPGA-based
//! Accelerator for Bayesian Neural Networks"* (DAC 2021).
//!
//! # Serving: one engine, four substrates
//!
//! The paper's point is that a Monte Carlo Dropout workload — `S`
//! forward passes over a partially-Bayesian network — retargets
//! across execution substrates. This crate's [`Session`] API makes
//! that the front door: train → quantize → serve is one fluent
//! pipeline, and swapping the substrate is one builder call. The
//! four substrate names are two executors: the f32 graph walk, once
//! per sample (`Backend::Float`, the conformance reference) or once
//! per sample chunk with batched-sample GEMM fusion (`Backend::Fused`
//! — weights stream once per layer instead of once per sample,
//! bit-identical results, the fastest software path at large `S`);
//! and the int8 integer walk over a quantized graph, bare
//! (`Backend::Int8`) or as the simulated accelerator
//! (`Backend::Accel` — the same integer arithmetic, which is exactly
//! the 8-bit datapath's, with every prediction costed by the
//! accelerator's analytic cycle/traffic model). Both walk their
//! Bayesian suffix once per sample chunk, the samples stacked along the
//! item axis as in the fused f32 walk, and both run one integer kernel;
//! the simulator runs it one sample at a time in its PE array's tile
//! order, with the same bytes, and the quantized graph's direct loops
//! stay the reference in tests.
//!
//! ```no_run
//! use bnn_fpga::accel::{AccelConfig, Accelerator};
//! use bnn_fpga::mcd::{BayesConfig, ParallelConfig};
//! use bnn_fpga::nn::models;
//! use bnn_fpga::quant::Quantizer;
//! use bnn_fpga::tensor::{Shape4, Tensor};
//! use bnn_fpga::{Backend, Session};
//!
//! let net = models::lenet5(10, 1, 28, 7).fold_batch_norm();
//! let calib = Tensor::zeros(Shape4::new(8, 1, 28, 28));
//! let qgraph = Quantizer::new(&net).calibrate(&calib).quantize();
//! let accel = Accelerator::new(AccelConfig::default(), &net, &qgraph, calib.shape());
//!
//! // Same protocol, same seeded mask stream — pick a substrate:
//! let mut float = Session::for_graph(&net)
//!     .bayes(BayesConfig::new(2, 10))
//!     .parallel(ParallelConfig::max_parallel())
//!     .seed(42)
//!     .build();
//! let mut fpga = Session::for_graph(&net)
//!     .backend(Backend::Accel(accel))
//!     .bayes(BayesConfig::new(2, 10))
//!     .seed(42)
//!     .build();
//!
//! let x = calib.select_item(0);
//! let p_sw = float.predictive(&x);
//! let p_hw = fpga.predictive(&x);
//! let cost = fpga.last_cost().unwrap();
//! println!("fpga: {} cycles, {:.3} ms modelled",
//!     cost.model.unwrap().cycles, cost.model.unwrap().latency_ms);
//! # let _ = (p_sw, p_hw);
//! ```
//!
//! Every substrate implements [`mcd::BayesBackend`]; the sampling
//! engine (mask pre-draw, Monte Carlo samples fanned over a
//! persistent [`mcd::WorkerPool`], averaging, cost accounting) exists
//! once, behind one entry point — [`mcd::Engine::run`] of a
//! [`mcd::Plan`] (one tensor, a batched dataset, or
//! independently-seeded requests) — and new substrates are drop-in
//! implementations. [`Session`]'s four predictive methods and the
//! [`Server`] dispatcher are thin callers of exactly that. Each
//! [`Session`] owns (or shares) its pool, so no predictive call pays
//! per-call thread spawn. The conformance
//! harness in [`mcd::conformance`] gives any new backend
//! cross-substrate agreement coverage (shared mask stream, thread and
//! pool-size invariance, batched-vs-unbatched serving, coalescing
//! invariance) in one `assert_backend_agrees` call —
//! see `tests/backends.rs`.
//!
//! # Serving concurrent traffic: the `bnn-serve` front door
//!
//! A [`Session`] is the right shape for *batch* work — one owner, one
//! mask stream, dataset-sized calls. Concurrent single-input traffic
//! goes through [`Server`] (crate `bnn-serve`, re-exported as
//! [`serve`]): callers submit through cheap cloneable [`Handle`]s, a
//! resident dispatcher coalesces queued requests into micro-batches
//! under a [`BatchPolicy`] (`max_batch`, `queue_cap` backpressure, and
//! an opt-in `max_wait` hold — by default the dispatcher never sleeps
//! on a queued request, and a batch is whatever arrived while the
//! previous one was computing), and every caller gets back its
//! probabilities plus a
//! per-request [`mcd::Uncertainty`] summary (max-prob confidence,
//! predictive entropy, mutual information) and its own
//! [`mcd::CostReport`] slice. The load-bearing guarantee is
//! **coalescing invariance**: each request's masks derive from its own
//! seed (`serve::request_seed`, or pinned via
//! `Handle::request(x).seed(s)`), so its reply is bit-identical
//! whether it is served alone or coalesced with arbitrary neighbors —
//! on every substrate, at any pool size. See `examples/quickstart.rs` for the
//! multi-client tour and [`Session::serve_requests`] for the
//! synchronous in-thread form.
//!
//! # Failure modes and guarantees
//!
//! The front door's contract under stress is that **every accepted
//! request resolves to exactly one typed outcome** — a served
//! [`Reply`] or a [`ServeError`] — and that nothing a caller does can
//! wedge the dispatcher:
//!
//! * **Overload** — the queue is bounded (`queue_cap`). A
//!   non-blocking submission against a full queue is handed back as
//!   [`ServeError::Rejected`] *with its input*
//!   ([`SubmitError::into_input`]), so the caller can retry. Requests
//!   carry a [`Priority`]; when a higher-priority request arrives at
//!   capacity it sheds the youngest strictly-lower-priority entry
//!   instead of being turned away, and micro-batches always drain the
//!   highest class first (FIFO within a class).
//! * **Deadlines** — a submission may attach a queue-time budget
//!   (`Submission::deadline`). A request whose budget lapses before
//!   its micro-batch forms resolves to
//!   [`ServeError::DeadlineExceeded`]; it is swept out at batch
//!   formation, never served late.
//! * **Backend faults** — a panicking micro-batch is quarantined:
//!   exactly its own requests resolve to
//!   [`ServeError::BackendFailed`] and the dispatcher keeps serving.
//!   A run of consecutive panics (builder knob
//!   `ServerBuilder::breaker_after`) trips a circuit breaker: queued
//!   requests fail over to `BackendFailed`, later submissions are
//!   refused at the door, and shutdown stays clean.
//! * **Shutdown** — closing the server drains every accepted request
//!   (bit-identically) and resolves late arrivals to
//!   [`ServeError::Shutdown`]; deadlines keep expiring during the
//!   drain.
//! * **Mis-shaped input** — a submission that is not one item, or
//!   whose shape the served graph's one shape rule refuses
//!   (`nn::Graph::try_infer_shapes`), is refused at the door with
//!   [`ServeError::BadInput`] (not retryable; counted as `rejected`).
//!   It never reaches the backend, so it cannot fail its coalesced
//!   neighbours or trip the breaker, and the same input panics with
//!   the same message on all four substrates when run in-process.
//!
//! Observability: [`Server::stats`] counts served / shed / expired /
//! failed / rejected requests, plus live `queued` / `in_flight`
//! backlog gauges. The whole contract is exercised by a
//! deterministic fault-injection harness — [`mcd::ChaosBackend`]
//! injects seeded panics and delays at a pure, replayable per-call
//! schedule ([`mcd::fault_at`]), threaded through
//! `ServerBuilder::chaos`, and conformance check 7
//! ([`mcd::conformance::assert_chaos_agrees`]) pins fault containment
//! and bit-identical survivors on all four substrates.
//!
//! # Wire protocol: the `bnn-net` TCP front door
//!
//! [`NetServer`] (crate `bnn-net`, re-exported as [`net`]) puts the
//! admission layer on a TCP port with zero external dependencies — a
//! resident acceptor thread plus one worker per connection, speaking
//! two framings sniffed from the first four bytes of each connection
//! (`b"GET "` decodes as an impossible frame length, so they can
//! never be confused):
//!
//! **Binary protocol v1** — every frame is a little-endian `u32`
//! payload length followed by the payload; integers are little-endian
//! and floats travel as IEEE-754 bit patterns (replies are
//! bit-identical to the engine output). Payload layouts:
//!
//! | frame | layout |
//! |---|---|
//! | request (kind 1) | `ver u8, kind u8, flags u8, priority u8, tenant_len u8, tenant utf8, [deadline_us u64], [seed u64], n·c·h·w 4×u32, data (c·h·w)×f32` |
//! | reply (kind 2) | `ver, kind, id u64, seed u64, coalesced u32, k u32, probs k×f32, predicted u32, confidence f32, entropy f64, mutual_info f64, samples u64, batch u64, wall_ms f64, has_model u8, [cycles u64, latency_ms f64, mem_bytes u64]` |
//! | error (kind 3) | `ver, kind, code u8, flags u8, [id u64], [seed u64]` |
//!
//! Error codes: `1` Rejected, `2` DeadlineExceeded, `3`
//! BackendFailed, `4` Shutdown and `7` BadInput (the five
//! [`ServeError`]s; a mis-shaped request leaves the connection open),
//! plus wire-only `5` RateLimited (the tenant's token bucket was
//! empty) and `6` Malformed (undecodable frame; the server closes the
//! connection after sending it). Malformed input of any kind —
//! truncated frame, oversized length prefix, bad version byte,
//! non-UTF-8 tenant id — resolves to a typed
//! [`net::DecodeError`], never a panic (the
//! `panic` audit rule covers `crates/net/src`).
//!
//! **Seed echo (reproducibility contract)** — every reply carries the
//! request's *effective* mask-stream seed: the one the client pinned,
//! or the server-derived [`request_seed`]`(base_seed, id)`. Serving
//! the same input through an offline [`Session`] seeded with the
//! echoed value reproduces the reply's probabilities bit for bit, so
//! any answer that ever crossed the wire can be re-derived and
//! audited after the fact (`tests/net_loopback.rs` pins this on all
//! four substrates).
//!
//! **Protocol v2: pipelining** — a request carrying a client-chosen
//! correlation id (`Request::corr`, flag bit `0x04`) upgrades the
//! frame to version 2 and the connection to pipelined mode: the
//! server keeps up to `NetConfig::max_pipeline` requests from one
//! connection in flight concurrently and echoes each id on the
//! matching reply or error frame, so responses correlate even when
//! admission reorders completion. Corr-less requests encode
//! byte-identical v1 frames, so lock-step peers keep working
//! unchanged. [`PipelinedClient`] is the client half: `submit` keeps
//! up to `depth` requests outstanding (draining the oldest response
//! when full), `recv`/`drain` correlate replies by echoed id, a typed
//! error frame mid-pipeline resolves only its own id, and every
//! socket wait is bounded by [`net::Timeouts`] surfacing as typed
//! `TimedOut` instead of hanging. `tests/net_pipeline.rs` pins
//! pipelined replies bit-identical to lock-step v1 on all four
//! substrates.
//!
//! **HTTP `GET /status`** — one-shot JSON telemetry from a
//! rolling-window monitor: nearest-rank p50/p99 latency over a ring
//! buffer, the admission counters and backlog gauges (exactly
//! [`Server::stats`]), a batch-size histogram, per-substrate cost
//! aggregates, and net-layer counters (connections, rate-limited,
//! malformed). Per-tenant policy ([`net::TenantPolicy`])
//! maps tenant ids to a priority ceiling plus a token-bucket rate
//! limit, enforced before admission so the wire boundary cannot jump
//! the in-process queue.
//!
//! ## Observability: `bnn-trace` spans, `GET /trace`, `GET /metrics`
//!
//! Every request that crosses the front door is decomposed into
//! stage spans by [`trace`] (`bnn-trace`): `decode` → `admission` →
//! `submit` on the socket thread, `queue_wait` → `batch_form` →
//! `compute` → `write` inside the serving engine, `writer_wait` on
//! the reply path, all nested under one `request` root span per
//! frame. The recorder is a per-thread bounded ring (oldest events
//! evicted, never blocking), gated behind one atomic flag: with
//! tracing disabled every instrumentation point is a single relaxed
//! load, and replies stay bit-identical either way — timestamps are
//! telemetry, never inputs (`tests/trace.rs` pins this on all four
//! substrates). Two export surfaces:
//!
//! * **`GET /trace`** drains the rings as Chrome trace-event JSON —
//!   load it in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)
//!   to see queueing, batching and compute laid out on a timeline.
//!   [`serve::Server::drain_trace`] is the in-process equivalent.
//! * **`GET /metrics`** renders Prometheus-style text: the rolling
//!   monitor's cumulative log2 request-latency histogram
//!   (`bnn_request_latency_us`), admission/net counters and backlog
//!   gauges, plus per-stage duration histograms
//!   (`bnn_stage_duration_us{stage=...}`) folded at record time — the
//!   stage aggregates survive `/trace` drains, so scrapes and trace
//!   pulls don't fight over the same data.
//!
//! The one wall-clock intake is `trace::clock`, a single audited
//! waiver site; everything downstream of it is display-only.
//!
//! Load is driven and measured by `benchmark/` (the `wire_*` workloads);
//! the counters-at-quiesce gate is `crates/net/tests/reconcile.rs`.
//!
//! # Invariants (statically enforced by `bnn-audit`)
//!
//! Bit-identical replies — solo vs. coalesced, at any thread count,
//! on any substrate — are only as strong as the invariants the code
//! keeps everywhere, not just on the shapes the conformance harness
//! samples. `cargo run -p bnn-audit --release` (a CI gate) proves the
//! code *can't* reach for nondeterminism, via five named rules:
//!
//! * **`unsafe-audit`** — `unsafe` only in `crates/mcd/src/pool.rs`
//!   (the worker pool's lifetime erasure) and
//!   `crates/tensor/src/simd.rs` (the AVX-512 `gemm_bt` and VNNI
//!   `gemm_bt_u8i8` kernels' dispatch calls, loads and stores), each
//!   use immediately preceded by a `SAFETY:` argument, and every crate
//!   roof carries `#![deny(unsafe_code)]` or stricter (`bnn-quant`'s
//!   `forbid`s it: its convolutions and linear layers reach the VNNI
//!   kernel only through the safe `gemm_bt_u8i8`, one kernel for
//!   both). Two audited modules must not quietly
//!   become three.
//! * **`determinism`** — the engine/kernel crates (`tensor`, `nn`,
//!   `rng`, `quant`, the deterministic modules of `mcd`, plus the
//!   `trace` recorder — whose only wall-clock intake is the
//!   single waived `trace::clock` module) may
//!   consume only seed-derived state: no `HashMap`/`HashSet`
//!   (hash-order iteration), no `Instant::now`/`SystemTime`
//!   (wall-clock), no OS randomness, no env-dependent branching.
//!   This is what makes "same seed, same reply" provable.
//! * **`concurrency`** — all data-parallel fan-out routes through
//!   [`mcd::WorkerPool`] (the one audited spawn site —
//!   order-preserving, caller-helps, panic-poisoning; no other file
//!   of the engine/kernel crates creates a thread, waiver or not), and
//!   every `Mutex` unwrap in `serve`/`pool` states its poisoning
//!   policy.
//! * **`panic`** — no `unwrap`/`expect`/`panic!` on `bnn-serve`
//!   dispatcher paths outside `#[cfg(test)]`: a dispatcher panic
//!   kills the thread every `Handle` depends on, so any failure there
//!   must resolve to a typed [`ServeError`] instead.
//! * **`lint-headers`** — every crate roof keeps
//!   `#![warn(missing_docs)]` or stricter.
//!
//! Exceptions are inline, named and justified —
//! `audit:allow(<rule>) reason...` as the leading text of a regular
//! comment, covering its own line (trailing) or the next code line
//! (standalone). A waiver without a written reason is itself a
//! finding, so `grep -rn audit:allow` always returns the complete,
//! justified exception list; `AUDIT.json` tracks the counts (and the
//! per-crate source-line table) as part of the repo trajectory.
//!
//! # Workspace map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`accel`] | `bnn-accel` | the accelerator simulator: the integer kernel at the PE array's tile, one sample per suffix walk (its tile counts checked against the cycle model), cycle model, resource model, IC; `Accelerator::into_backend` attaches its cost model to the integer backend, which serves the `accel` substrate with stacked samples |
//! | [`rng`] | `bnn-rng` | LFSRs, Bernoulli sampler, fixed-point Gaussian samplers |
//! | [`tensor`] | `bnn-tensor` | NCHW tensors, GEMM (and the `u8 × i8` `gemm_bt_u8i8`), im2col, pooling |
//! | [`nn`] | `bnn-nn` | layer-graph IR, f32 executor, backprop, SGD, model builders |
//! | [`data`] | `bnn-data` | synthetic MNIST/SVHN/CIFAR-like datasets, OOD noise |
//! | [`mcd`] | `bnn-mcd` | the `BayesBackend` trait (`info`, `prepare`, `scratches`, `forward_batch`, `model_cost`), the one MC `Engine`, `FloatBackend` (one sample per walk `new` / batched-sample `fused`, same kernels), conformance harness, uncertainty metrics |
//! | [`serve`] | `bnn-serve` | the request-coalescing serving front door: `Server`, `Handle`, `BatchPolicy` |
//! | [`net`] | `bnn-net` | the TCP front door: binary protocol v1/v2 (pipelining), `GET /status` / `/metrics` / `/trace` telemetry, tenant gate, blocking clients |
//! | [`trace`] | `bnn-trace` | stage-span recorder: per-thread rings, log2 histograms, Chrome-trace export behind `/trace` + `/metrics` |
//! | [`quant`] | `bnn-quant` | 8-bit linear quantization, the tiled integer executor (one kernel for both arms: `bnn_tensor::gemm_bt_u8i8` on raw `u8` codes with the zero point hoisted, over a convolution's `u8` im2row rows or a linear layer's items where they sit) and its reference executor over one node-range walk (Monte Carlo samples stacked on its item axis, a table-driven dropout site), `Int8Backend` (the `int8` and `accel` substrates: one suffix walk per sample chunk) |
//! | [`platforms`] | `bnn-platforms` | CPU/GPU latency models, VIBNN and BYNQNet baselines |
//! | [`framework`] | `bnn-framework` | the automatic hardware/algorithm optimization framework |
//!
//! See `examples/quickstart.rs` for the end-to-end tour: train → fold
//! BN → quantize → serve the same seeded prediction on all four
//! backends → compare against the paper's CPU/GPU baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod session;

pub use bnn_accel as accel;
pub use bnn_data as data;
pub use bnn_framework as framework;
pub use bnn_mcd as mcd;
pub use bnn_net as net;
pub use bnn_net::{NetClient, NetConfig, NetServer, PipelinedClient, Timeouts};
pub use bnn_nn as nn;
pub use bnn_platforms as platforms;
pub use bnn_quant as quant;
pub use bnn_rng as rng;
pub use bnn_serve as serve;
// One substrate enum; the second name exists because `benchmark/`
// imports both.
pub use bnn_serve::Backend as ServeBackend;
pub use bnn_serve::{
    request_seed, Backend, BatchPolicy, Handle, Pending, Priority, Reply, ServeError, ServeStats,
    Server, Submission, SubmitError,
};
pub use bnn_tensor as tensor;
pub use bnn_trace as trace;
pub use session::{Session, SessionBuilder};
