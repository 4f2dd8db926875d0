//! `bnn-serve` — the request-coalescing serving front door.
//!
//! The paper's accelerator earns its throughput by batching Monte
//! Carlo work so weights stream once per layer; the software engine
//! mirrors that (fused chunks, samples pooled over threads). This
//! crate closes the remaining gap for *serving*: concurrent callers
//! each submitting one input no longer own a whole session and pay
//! the dispatch cost alone. A [`Server`] runs one resident dispatcher
//! thread over one hot backend; callers submit through cheap
//! cloneable [`Handle`]s, the dispatcher coalesces queued requests
//! into micro-batches under a [`BatchPolicy`], runs one
//! request-serving engine pass
//! ([`bnn_mcd::Engine::run`] of a [`bnn_mcd::Plan::requests`] plan)
//! over the shared [`WorkerPool`], and hands each caller its own probabilities plus a
//! per-request [`Uncertainty`] summary and [`CostReport`] slice.
//!
//! The dispatcher is work-conserving: it never sleeps while a request
//! is queued, and it never holds an under-full batch open. A
//! micro-batch is whatever arrived while the previous batch was
//! computing, so a lone request waits for nothing and a loaded server
//! coalesces from its backlog.
//!
//! # Coalescing invariance
//!
//! The load-bearing guarantee: **a request's reply is bit-identical
//! whether it is served alone or coalesced with arbitrary
//! neighbors**, at any pool size, on every backend. Each request
//! carries its own mask-stream seed (derived from the server seed and
//! the request id via [`request_seed`], or pinned explicitly with
//! [`Submission::seed`]), and the engine derives each request's
//! Monte Carlo masks from that seed alone — never from one serial
//! stream in batch order — so timing, queue depth and neighbor
//! composition cannot move a byte. The conformance harness
//! (`bnn_mcd::conformance`) and this crate's property tests assert
//! exactly that, over the float and fused backends at pool sizes
//! `{1, 4}`.
//!
//! # Admission control
//!
//! Every submission carries a [`Priority`] (default
//! [`Priority::Normal`]) and, optionally, a deadline — set both
//! through the [`Handle::request`] builder. The dispatcher dequeues
//! strictly by priority class (High before Normal before Low, FIFO
//! within a class), and the bounded queue
//! ([`BatchPolicy::queue_cap`]) sheds load by priority: when a
//! submission arrives at a full queue, the *youngest request of the
//! lowest class strictly below it* is evicted and resolved
//! [`ServeError::Rejected`] — so low-priority work absorbs overload
//! while high-priority latency stays bounded by the queue depth.
//! Submissions that find no lower-priority victim block
//! ([`Submission::submit`]) or are themselves rejected with the input
//! handed back ([`Submission::try_submit`]; overload is transient,
//! so the caller may simply submit it again). A queued request whose
//! deadline passes before it is taken into a micro-batch resolves
//! [`ServeError::DeadlineExceeded`] instead of silently aging in
//! place. An input the served graph cannot execute (not one item, or a
//! shape the graph's shape rule refuses) is turned away at the door
//! with [`ServeError::BadInput`]: it never reaches the backend, so it
//! cannot fail its coalesced neighbours or count towards the breaker.
//!
//! # Failure containment
//!
//! Every request resolves with a definite outcome — a [`Reply`] or a
//! typed [`ServeError`] — never a hang. A backend panic is
//! quarantined to its own micro-batch: its requests resolve
//! [`ServeError::BackendFailed`], the dispatcher survives. After
//! `breaker_after` *consecutive* micro-batch panics
//! ([`ServerBuilder::breaker_after`]) the per-server circuit breaker
//! trips: queued work is failed fast with `BackendFailed` and new
//! submissions are rejected at the door instead of accepting doomed
//! work ([`Server::breaker_tripped`] observes the state).
//! [`Server::shutdown`] (and `Drop`) closes the queue, drains every
//! already-accepted request through the normal serving path
//! (deadlines still honoured mid-drain), and joins the dispatcher.
//! All of it is provoked on demand, deterministically, by the chaos
//! harness: [`ServerBuilder::chaos`] wraps the resident backend in
//! [`bnn_mcd::ChaosBackend`], injecting seeded panics and delays on a
//! replayable schedule. [`Server::stats`] exposes the admission
//! counters (served / shed / expired / failed / rejected).
//!
//! # Example
//!
//! ```
//! use bnn_serve::{BatchPolicy, Backend, Server};
//! use bnn_mcd::BayesConfig;
//! use bnn_nn::models;
//! use bnn_tensor::{Shape4, Tensor};
//! use std::sync::Arc;
//!
//! let net = Arc::new(models::lenet5(10, 1, 16, 1));
//! let server = Server::for_graph(net)
//!     .backend(Backend::Fused)
//!     .bayes(BayesConfig::new(2, 5))
//!     .seed(42)
//!     .start();
//! let handle = server.handle();
//! let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.1);
//! let reply = handle.request(x).submit().wait().expect("served");
//! let sum: f32 = reply.probs.item(0).iter().sum();
//! assert!((sum - 1.0).abs() < 1e-4);
//! assert!(reply.uncertainty.entropy >= 0.0);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bnn_accel::Accelerator;
use bnn_mcd::{
    BayesBackend, BayesConfig, ChaosBackend, ChaosConfig, CostReport, Engine, FloatBackend,
    ParallelConfig, Plan, Uncertainty, WorkerPool,
};
use bnn_nn::Graph;
use bnn_quant::{Int8Backend, QGraph};
use bnn_rng::SoftRng;
use bnn_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the dispatcher forms micro-batches from the request queue: it
/// takes up to `max_batch` of whatever is queued as soon as it is
/// free, and never holds an under-full batch open for late arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most requests coalesced into one engine pass. `1` disables
    /// coalescing (pure FIFO serving). Normalized to at least 1.
    pub max_batch: usize,
    /// Bound on queued (accepted, not yet dispatched) requests: the
    /// backpressure knob. [`Submission::submit`] blocks at the cap,
    /// [`Submission::try_submit`] rejects — and an arriving submission
    /// sheds the youngest strictly-lower-priority queued request
    /// first (resolved [`ServeError::Rejected`]). Normalized to at
    /// least 1.
    pub queue_cap: usize,
}

impl Default for BatchPolicy {
    /// Micro-batches of up to 16 and a 256-request queue.
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch: 16,
            queue_cap: 256,
        }
    }
}

impl BatchPolicy {
    fn normalized(mut self) -> BatchPolicy {
        self.max_batch = self.max_batch.max(1);
        self.queue_cap = self.queue_cap.max(1);
        self
    }
}

/// Which execution substrate a `Session` or a [`Server`] runs on: the
/// stack's one substrate choice, so deployment code picks once and
/// serves both batch jobs and concurrent single-input traffic from it
/// (the `bnn-fpga` facade re-exports it as `Backend` and, because
/// `benchmark/` imports that name too, as `ServeBackend`).
///
/// `Float` and `Fused` execute the f32 graph directly (one sample per
/// suffix walk vs. batched-sample GEMM fusion — the same kernels, with
/// bit-identical results); `Int8` and `Accel` carry their own compiled
/// artefacts (a quantized graph, an accelerator instance) produced by
/// the deployment pipeline, and run on the one integer backend.
#[derive(Clone)]
pub enum Backend {
    /// f32 software execution, one sample per suffix walk (the
    /// conformance reference).
    Float,
    /// f32 software execution with batched-sample GEMM fusion: each
    /// worker's Monte Carlo samples walk the Bayesian suffix *once*
    /// with sample-stacked activations, so every weight matrix streams
    /// once per layer instead of once per sample. Bit-identical to
    /// [`Backend::Float`] under the same seed at any thread count;
    /// prefer it whenever `S` is large relative to the batch (the
    /// serving common case — compare `mcd.fused.s100_us` with
    /// `mcd.float.s100_us` in the `benchmark/` layer probes).
    Fused,
    /// int8 integer execution of a quantized graph.
    Int8(QGraph),
    /// The simulated FPGA accelerator (batch-1 inputs): int8 execution
    /// of its quantized graph, every prediction costed by its analytic
    /// cycle/latency/traffic model.
    Accel(Accelerator),
}

impl Backend {
    /// The substrate's name — `"float"`, `"fused"`, `"int8"` or
    /// `"accel"` — as the built backend's own `ModelInfo::name` and
    /// `backend_name()` on `Session` and [`Server`] report it.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Float => "float",
            Backend::Fused => "fused",
            Backend::Int8(_) => "int8",
            Backend::Accel(_) => "accel",
        }
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backend({})", self.name())
    }
}

/// Derive a request's private mask-stream seed from the server seed
/// and the request id.
///
/// One SplitMix64 scramble over `base ^ id·φ64`: consecutive ids get
/// decorrelated streams, and the mapping is a documented pure
/// function so any reply can be reproduced offline
/// (`SoftwareMaskSource::new(request_seed(base, id))`).
pub fn request_seed(base: u64, request_id: u64) -> u64 {
    SoftRng::new(base ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A request's admission class. Ordered: `Low < Normal < High`. The
/// dispatcher dequeues higher classes first (FIFO within a class),
/// and at queue saturation an arriving submission sheds the youngest
/// queued request of the lowest class *strictly below* its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Sheddable background work — first to go under overload.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work: served first, never shed by arrivals
    /// (nothing outranks it).
    High,
}

/// The number of priority classes (one queue per class).
const PRIORITIES: usize = 3;

impl Priority {
    fn index(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

/// Why a request failed — the definite-outcome taxonomy: every
/// accepted request resolves with a [`Reply`] or exactly one of
/// these, never a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Shed by admission control: the queue was at
    /// [`BatchPolicy::queue_cap`] and this request was (or would have
    /// been) the lowest-priority work. Retryable: overload is
    /// transient.
    Rejected,
    /// The request's deadline passed while it was still queued; it
    /// was resolved at batch-formation time instead of silently
    /// aging.
    DeadlineExceeded,
    /// The backend panicked while serving this request's micro-batch
    /// (quarantined: the dispatcher survives), or the circuit breaker
    /// was already tripped and the request was failed fast.
    BackendFailed,
    /// The server was shut down before this request could be served.
    Shutdown,
    /// Refused at the door: the input is not one item
    /// (`n != 1`) or its shape does not fit the served graph
    /// (`bnn_nn::Graph::try_infer_shapes`). Not retryable — the same
    /// input is refused again — and it never reaches the backend, so a
    /// mis-shaped request can neither fail its coalesced neighbours
    /// nor count towards the circuit breaker.
    BadInput,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeError::Rejected => "request shed by admission control (queue at capacity)",
            ServeError::DeadlineExceeded => "request deadline passed while queued",
            ServeError::BackendFailed => "backend failed while serving the request",
            ServeError::Shutdown => "server shut down before the request was served",
            ServeError::BadInput => "input shape does not fit the served graph",
        })
    }
}

impl std::error::Error for ServeError {}

/// A rejected submission: the typed reason plus the input tensor,
/// handed back so the caller can retry without re-building it.
#[derive(Debug)]
pub struct SubmitError {
    /// Why the submission was not accepted ([`ServeError::Rejected`],
    /// [`ServeError::BadInput`], [`ServeError::Shutdown`], or —
    /// breaker tripped — [`ServeError::BackendFailed`]).
    pub error: ServeError,
    /// The input, returned to the caller.
    pub input: Tensor,
}

impl SubmitError {
    /// Recover the input tensor for a retry.
    pub fn into_input(self) -> Tensor {
        self.input
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "submission rejected: {}", self.error)
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A point-in-time snapshot of a server's admission counters
/// ([`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests served with a [`Reply`].
    pub served: u64,
    /// Queued requests evicted by a higher-priority arrival
    /// (resolved [`ServeError::Rejected`]).
    pub shed: u64,
    /// Queued requests whose deadline passed (resolved
    /// [`ServeError::DeadlineExceeded`]).
    pub expired: u64,
    /// Requests failed by a backend panic or the tripped breaker
    /// (resolved [`ServeError::BackendFailed`]).
    pub failed: u64,
    /// Submissions rejected at the door (non-blocking submit at
    /// capacity, a mis-shaped input ([`ServeError::BadInput`]), or any
    /// submit after the breaker tripped).
    pub rejected: u64,
    /// **Gauge** (not monotonic): requests accepted into the queue
    /// but not yet taken into a micro-batch. Updated under the same
    /// lock as the queues themselves, so a snapshot is consistent
    /// with the queue state that produced it.
    pub queued: u64,
    /// **Gauge** (not monotonic): requests taken into a micro-batch
    /// whose replies have not yet been delivered. Incremented under
    /// the queue lock at batch formation; decremented — like the
    /// monotonic counters — *before* reply delivery, so a woken
    /// waiter never reads a stale in-flight count for its own
    /// request.
    pub in_flight: u64,
}

/// One served prediction, as delivered to the caller.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The request's id (its seed is `request_seed(server_seed, id)`
    /// unless it was pinned with [`Submission::seed`]).
    pub id: u64,
    /// Predictive probabilities `(1, k)` — bit-identical to serving
    /// this request alone.
    pub probs: Tensor,
    /// Per-request uncertainty summary (max-prob confidence,
    /// predictive entropy, mutual information).
    pub uncertainty: Uncertainty,
    /// This request's slice of the engine cost: its own wall time,
    /// sample count and model cost.
    pub cost: CostReport,
    /// How many requests were coalesced into this request's
    /// micro-batch (including itself) — the observability hook for
    /// tuning [`BatchPolicy`].
    pub coalesced: usize,
}

/// One queued request.
struct Queued {
    x: Tensor,
    seed: u64,
    id: u64,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<Reply, ServeError>>,
    /// Root trace span this request nests under (0 = untraced). The
    /// dispatcher parents its queue-wait / batch-form / compute /
    /// write spans here, so a drained trace reconstructs the
    /// request's full cross-layer timeline.
    trace: u64,
}

struct QState {
    /// One FIFO per priority class, indexed by [`Priority::index`]
    /// (0 = Low).
    queues: [VecDeque<Queued>; PRIORITIES],
    closed: bool,
    /// Circuit breaker state: once tripped, queued work is failed
    /// fast and new submissions are rejected at the door.
    tripped: bool,
    next_id: u64,
}

impl QState {
    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Dequeue the next request: highest class first, FIFO within.
    fn pop_highest(&mut self) -> Option<Queued> {
        self.queues.iter_mut().rev().find_map(VecDeque::pop_front)
    }

    /// Evict the youngest queued request of the lowest non-empty
    /// class strictly below `incoming` (the load-shedding victim), if
    /// any.
    fn shed_below(&mut self, incoming: Priority) -> Option<Queued> {
        self.queues[..incoming.index()]
            .iter_mut()
            .find(|q| !q.is_empty())?
            .pop_back()
    }
}

/// Monotonic admission counters plus the two backlog gauges, written
/// lock-free from both sides of the queue; [`ServeStats`] is their
/// snapshot. The gauges (`queued`, `in_flight`) are only ever bumped
/// while the queue lock is held, so they track the queues exactly.
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    queued: AtomicU64,
    in_flight: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    fn drop_gauge(counter: &AtomicU64, by: u64) {
        counter.fetch_sub(by, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
        }
    }
}

struct SharedQ {
    state: Mutex<QState>,
    /// The served graph: every submission's shape is checked against
    /// it before it is queued.
    graph: Arc<Graph>,
    /// Signals the dispatcher: work arrived, or the server closed.
    work: Condvar,
    /// Signals blocked producers: queue space freed, or closed.
    space: Condvar,
    queue_cap: usize,
    base_seed: u64,
    counters: Counters,
}

/// Lock ignoring poisoning: queue state is only mutated outside
/// serving (backend panics are caught before unwinding here), so a
/// poisoned lock still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A cheap cloneable submission handle to a running [`Server`].
#[derive(Clone)]
pub struct Handle {
    shared: Arc<SharedQ>,
}

/// A pending reply: the blocking receiver side of one request.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<Reply, ServeError>>,
    id: Option<u64>,
}

impl Pending {
    /// The id the server assigned this request, or `None` if the
    /// submission was never accepted (its [`Pending::wait`] resolves
    /// to the typed rejection, e.g. [`ServeError::Shutdown`]).
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Block until the outcome arrives. A dispatcher that disappears
    /// without answering (shutdown racing the submission) reads as
    /// [`ServeError::Shutdown`].
    pub fn wait(self) -> Result<Reply, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Non-blocking poll: `None` while the request is still in
    /// flight.
    pub fn try_wait(&self) -> Option<Result<Reply, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Shutdown)),
        }
    }
}

impl Handle {
    /// Snapshot of the server's admission counters and backlog
    /// gauges — the same numbers as [`Server::stats`], readable from
    /// any handle (a status endpoint typically only holds a handle).
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// Start building a submission for one single-item input: set
    /// [`Submission::priority`], [`Submission::deadline`] and
    /// [`Submission::seed`], then [`Submission::submit`] (blocking)
    /// or [`Submission::try_submit`] (non-blocking) — the one
    /// submission path.
    ///
    /// An input that is not single-item (`n != 1`; batch datasets go
    /// through `Session::predictive_batched`) or does not fit the
    /// graph is refused with [`ServeError::BadInput`].
    pub fn request(&self, x: Tensor) -> Submission<'_> {
        Submission {
            handle: self,
            x,
            priority: Priority::Normal,
            deadline: None,
            seed: None,
            trace: 0,
        }
    }

    /// The one admission path behind [`Submission::submit`] (`block`)
    /// and [`Submission::try_submit`].
    fn submit(submission: Submission<'_>, block: bool) -> Result<Pending, SubmitError> {
        let Submission {
            handle,
            x,
            priority,
            deadline,
            seed,
            trace,
        } = submission;
        let shared = &handle.shared;
        if x.shape().n != 1 || shared.graph.try_infer_shapes(x.shape()).is_err() {
            Counters::bump(&shared.counters.rejected, 1);
            return Err(SubmitError {
                error: ServeError::BadInput,
                input: x,
            });
        }
        let mut st = lock(&shared.state);
        loop {
            if st.closed {
                return Err(SubmitError {
                    error: ServeError::Shutdown,
                    input: x,
                });
            }
            if st.tripped {
                // Breaker tripped: fail fast instead of accepting
                // doomed work.
                Counters::bump(&shared.counters.rejected, 1);
                return Err(SubmitError {
                    error: ServeError::BackendFailed,
                    input: x,
                });
            }
            if st.len() >= shared.queue_cap {
                if let Some(victim) = st.shed_below(priority) {
                    // Shed the youngest strictly-lower-priority
                    // request to admit this one. Counter and gauge
                    // move before the victim learns its fate.
                    Counters::bump(&shared.counters.shed, 1);
                    Counters::drop_gauge(&shared.counters.queued, 1);
                    let _ = victim.reply.send(Err(ServeError::Rejected));
                } else if block {
                    st = shared
                        .space
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    continue;
                } else {
                    Counters::bump(&shared.counters.rejected, 1);
                    return Err(SubmitError {
                        error: ServeError::Rejected,
                        input: x,
                    });
                }
            }
            // One wall-clock read per submission, shared by the
            // enqueue timestamp and the deadline derivation below.
            let now = Instant::now();
            let id = st.next_id;
            st.next_id += 1;
            let seed = seed.unwrap_or_else(|| request_seed(shared.base_seed, id));
            // `checked_add`: an astronomical deadline (`Duration::MAX`
            // as "no deadline, really") must not panic — it simply
            // never expires.
            let deadline = deadline.and_then(|d| now.checked_add(d));
            let (tx, rx) = mpsc::channel();
            st.queues[priority.index()].push_back(Queued {
                x,
                seed,
                id,
                enqueued: now,
                deadline,
                reply: tx,
                trace,
            });
            Counters::bump(&shared.counters.queued, 1);
            drop(st);
            shared.work.notify_all();
            return Ok(Pending { rx, id: Some(id) });
        }
    }
}

/// An in-flight submission builder; see [`Handle::request`].
pub struct Submission<'h> {
    handle: &'h Handle,
    x: Tensor,
    priority: Priority,
    deadline: Option<Duration>,
    seed: Option<u64>,
    trace: u64,
}

impl Submission<'_> {
    /// Set the admission class (default [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Give the request a queue deadline, measured from submission:
    /// if it is still queued when the deadline passes, it resolves
    /// [`ServeError::DeadlineExceeded`] instead of being served.
    /// (A request already taken into a micro-batch is served to
    /// completion — deadlines bound *queue* time, not service time.)
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(after);
        self
    }

    /// Pin the request's mask-stream seed (default: derived via
    /// [`request_seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attach a root trace span id (from [`bnn_trace::new_span`]):
    /// the dispatcher's queue-wait / batch-form / compute / write
    /// spans for this request parent under it. 0 (the default) means
    /// untraced — spans still record while tracing is enabled, just
    /// parentless. Trace ids never influence the reply.
    pub fn trace(mut self, span: u64) -> Self {
        self.trace = span;
        self
    }

    /// Submit, blocking while the queue is at capacity with nothing
    /// to shed. Non-queue rejections (shutdown, tripped breaker)
    /// come back as an immediately-resolved [`Pending`].
    pub fn submit(self) -> Pending {
        match Handle::submit(self, true) {
            Ok(pending) => pending,
            Err(err) => resolved_pending(err.error),
        }
    }

    /// Submit without blocking: a full queue with no lower-priority
    /// victim rejects with [`ServeError::Rejected`] and the input
    /// handed back.
    pub fn try_submit(self) -> Result<Pending, SubmitError> {
        Handle::submit(self, false)
    }
}

/// A [`Pending`] that resolves immediately to `error` (the submission
/// was never accepted; no id was assigned).
fn resolved_pending(error: ServeError) -> Pending {
    let (tx, rx) = mpsc::channel();
    let _ = tx.send(Err(error));
    Pending { rx, id: None }
}

/// Builder for a [`Server`]; see [`Server::for_graph`].
pub struct ServerBuilder {
    graph: Arc<Graph>,
    backend: Backend,
    bayes: BayesConfig,
    parallel: ParallelConfig,
    policy: BatchPolicy,
    seed: u64,
    pool: Option<Arc<WorkerPool>>,
    breaker_after: usize,
    chaos: Option<ChaosConfig>,
}

impl ServerBuilder {
    /// Select the resident execution substrate (default:
    /// [`Backend::Fused`], the fastest software path for the
    /// serving common case of large `S` over single inputs).
    pub fn backend(mut self, backend: Backend) -> ServerBuilder {
        self.backend = backend;
        self
    }

    /// Bayesian configuration `{L, S, p}` served to every request
    /// (default: `L = 1, S = 10, p = 0.25`).
    pub fn bayes(mut self, bayes: BayesConfig) -> ServerBuilder {
        self.bayes = bayes;
        self
    }

    /// The engine schedule each micro-batch runs under: the coalesced
    /// requests run in order on the resident backend, and `threads`
    /// splits each request's samples (default: serial; replies are
    /// bit-identical at any setting).
    pub fn parallel(mut self, parallel: ParallelConfig) -> ServerBuilder {
        self.parallel = parallel;
        self
    }

    /// The micro-batching policy (default: [`BatchPolicy::default`] —
    /// no hold; batches form from backlog).
    pub fn policy(mut self, policy: BatchPolicy) -> ServerBuilder {
        self.policy = policy;
        self
    }

    /// Base seed for per-request mask-stream derivation
    /// ([`request_seed`]; default 0).
    pub fn seed(mut self, seed: u64) -> ServerBuilder {
        self.seed = seed;
        self
    }

    /// Share an existing [`WorkerPool`] instead of letting the server
    /// create its own (e.g. the pool of a `Session` serving batch
    /// jobs next to this front door).
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> ServerBuilder {
        self.pool = Some(pool);
        self
    }

    /// Trip the circuit breaker after this many *consecutive*
    /// micro-batch panics (default 8; normalized to at least 1; a
    /// successful batch resets the count; `usize::MAX` effectively
    /// disables the breaker). Once tripped, queued requests are
    /// failed fast with [`ServeError::BackendFailed`] and new
    /// submissions are rejected at the door.
    pub fn breaker_after(mut self, consecutive_panics: usize) -> ServerBuilder {
        self.breaker_after = consecutive_panics;
        self
    }

    /// Wrap the resident backend in a [`ChaosBackend`] injecting
    /// seeded panics and delays per `chaos` — the deterministic
    /// fault-injection hook the chaos suite drives. Not for
    /// production serving.
    pub fn chaos(mut self, chaos: ChaosConfig) -> ServerBuilder {
        self.chaos = Some(chaos);
        self
    }

    /// Start the dispatcher thread and return the running server.
    pub fn start(self) -> Server {
        let policy = self.policy.normalized();
        let parallel = self.parallel.normalized();
        let pool = self
            .pool
            .unwrap_or_else(|| Arc::new(WorkerPool::new(parallel.pool_workers())));
        let shared = Arc::new(SharedQ {
            state: Mutex::new(QState {
                queues: Default::default(),
                closed: false,
                tripped: false,
                next_id: 0,
            }),
            graph: Arc::clone(&self.graph),
            work: Condvar::new(),
            space: Condvar::new(),
            queue_cap: policy.queue_cap,
            base_seed: self.seed,
            counters: Counters::default(),
        });
        let ctx = DispatchCtx {
            shared: Arc::clone(&shared),
            bayes: self.bayes,
            parallel,
            policy,
            pool: Arc::clone(&pool),
            breaker_after: self.breaker_after.max(1),
        };
        let graph = self.graph;
        let backend = self.backend;
        let backend_name = backend.name();
        let chaos = self.chaos;
        // audit:allow(concurrency) one resident dispatcher thread per Server — an owner loop, not data-parallel fan-out (which routes through WorkerPool).
        let dispatcher = std::thread::Builder::new()
            .name("bnn-serve".into())
            .spawn(move || match backend {
                Backend::Float => launch(FloatBackend::new(&graph), chaos, &ctx),
                Backend::Fused => launch(FloatBackend::fused(&graph), chaos, &ctx),
                Backend::Int8(qgraph) => launch(Int8Backend::new(qgraph), chaos, &ctx),
                Backend::Accel(accel) => launch(accel.into_backend(), chaos, &ctx),
            })
            // audit:allow(panic) OS thread creation at Server construction: no dispatcher exists yet to field requests, so there is no typed reply path — failing the build loudly is the only option.
            .expect("spawn serve dispatcher");
        Server {
            shared,
            pool,
            dispatcher: Some(dispatcher),
            backend_name,
        }
    }
}

/// Everything the dispatcher thread needs besides its backend.
struct DispatchCtx {
    shared: Arc<SharedQ>,
    bayes: BayesConfig,
    parallel: ParallelConfig,
    policy: BatchPolicy,
    pool: Arc<WorkerPool>,
    /// Consecutive micro-batch panics that trip the breaker.
    breaker_after: usize,
}

/// Enter the dispatcher, optionally under chaos fault injection (one
/// generic wrapping point for every substrate).
fn launch<B: BayesBackend + Send>(backend: B, chaos: Option<ChaosConfig>, ctx: &DispatchCtx) {
    match chaos {
        Some(cfg) => dispatch(ChaosBackend::new(backend, cfg), ctx),
        None => dispatch(backend, ctx),
    }
}

/// A running serving front door: one dispatcher thread, one resident
/// backend, one bounded request queue.
///
/// Construct with [`Server::for_graph`]; submit through
/// [`Server::handle`]. Dropping the server shuts it down gracefully
/// (queue closed, accepted requests drained, dispatcher joined).
pub struct Server {
    shared: Arc<SharedQ>,
    pool: Arc<WorkerPool>,
    dispatcher: Option<JoinHandle<()>>,
    backend_name: &'static str,
}

impl Server {
    /// Start building a server over a graph (the f32 source of truth;
    /// [`Backend::Int8`] / [`Backend::Accel`] carry their
    /// own compiled artefacts lowered from it).
    pub fn for_graph(graph: Arc<Graph>) -> ServerBuilder {
        ServerBuilder {
            graph,
            backend: Backend::Fused,
            bayes: BayesConfig::new(1, 10),
            parallel: ParallelConfig::default(),
            policy: BatchPolicy::default(),
            seed: 0,
            pool: None,
            breaker_after: 8,
            chaos: None,
        }
    }

    /// A new submission handle (cheap; clone freely across client
    /// threads).
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The server's worker pool (shareable with sessions).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Snapshot of the admission counters (served / shed / expired /
    /// failed / rejected since start) and the backlog gauges
    /// (queued / in-flight right now).
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot()
    }

    /// The base seed auto-derived request mask streams spring from
    /// ([`request_seed`]`(base_seed, id)`) — exposed so a wire layer
    /// can echo the effective seed of any reply it forwards.
    pub fn base_seed(&self) -> u64 {
        self.shared.base_seed
    }

    /// Name of the resident execution substrate (`"float"`,
    /// `"fused"`, `"int8"` or `"accel"` — the same names the
    /// session-level API reports).
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Whether the circuit breaker has tripped (the server now fails
    /// fast; see [`ServerBuilder::breaker_after`]).
    pub fn breaker_tripped(&self) -> bool {
        lock(&self.shared.state).tripped
    }

    /// Graceful shutdown: close the queue (new submissions fail
    /// [`ServeError::Shutdown`]), serve every already-accepted
    /// request (queue deadlines still honoured mid-drain), and join
    /// the dispatcher.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.closed = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            // The dispatcher only exits through its drain path; a join
            // error would mean it panicked outside the per-batch
            // catch_unwind, in which case waiting callers resolve to
            // Shutdown through their dropped channels.
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("Server")
            .field("queued", &st.len())
            .field("closed", &st.closed)
            .field("tripped", &st.tripped)
            .field("next_id", &st.next_id)
            .field("pool_workers", &self.pool.workers())
            .finish()
    }
}

/// Dispatcher body: form micro-batches until the closed queue drains,
/// counting consecutive batch panics into the circuit breaker.
fn dispatch<B: BayesBackend + Send>(mut backend: B, ctx: &DispatchCtx) {
    let mut consecutive_panics = 0usize;
    while let Some(batch) = next_batch(&ctx.shared, &ctx.policy) {
        if serve_batch(&mut backend, batch, ctx) {
            consecutive_panics = 0;
        } else {
            consecutive_panics += 1;
            if consecutive_panics >= ctx.breaker_after {
                trip_breaker(&ctx.shared);
            }
        }
    }
}

/// Trip the circuit breaker: queued and future work now fails fast.
/// Both condvars are notified — the dispatcher must wake to drain the
/// queue with `BackendFailed`, and backpressure-blocked producers
/// must wake to be rejected.
fn trip_breaker(shared: &SharedQ) {
    lock(&shared.state).tripped = true;
    shared.work.notify_all();
    shared.space.notify_all();
}

/// Resolve every queued request whose deadline has passed with
/// [`ServeError::DeadlineExceeded`]; returns how many expired.
fn expire_overdue(st: &mut QState, shared: &SharedQ) -> usize {
    let now = Instant::now();
    // Bump the counter *before* delivering any reply: a waiter woken
    // by its `DeadlineExceeded` may read `Server::stats()` immediately.
    let mut overdue = Vec::new();
    for queue in st.queues.iter_mut() {
        queue.retain(|q| {
            if q.deadline.is_some_and(|d| d <= now) {
                overdue.push(q.reply.clone());
                false
            } else {
                true
            }
        });
    }
    let expired = overdue.len();
    if expired > 0 {
        Counters::bump(&shared.counters.expired, expired as u64);
        Counters::drop_gauge(&shared.counters.queued, expired as u64);
        for reply in overdue {
            let _ = reply.send(Err(ServeError::DeadlineExceeded));
        }
        shared.space.notify_all();
    }
    expired
}

/// Fail-fast drain after the breaker tripped: every queued request
/// resolves [`ServeError::BackendFailed`] immediately.
fn fail_queued(st: &mut QState, shared: &SharedQ) {
    // Counter first, replies second: a woken waiter may read
    // `Server::stats()` immediately (same ordering as `serve_batch`
    // and `expire_overdue`).
    let dropped: Vec<_> = st
        .queues
        .iter_mut()
        .flat_map(|queue| queue.drain(..))
        .collect();
    if !dropped.is_empty() {
        Counters::bump(&shared.counters.failed, dropped.len() as u64);
        Counters::drop_gauge(&shared.counters.queued, dropped.len() as u64);
        for q in dropped {
            let _ = q.reply.send(Err(ServeError::BackendFailed));
        }
        shared.space.notify_all();
    }
}

/// Pop the next micro-batch. Sweep the queue (fail queued work once
/// the breaker has tripped, expire overdue requests), block for work
/// only while the queue is empty, then take everything queued up to
/// `max_batch`, highest priority first and FIFO within a class: the
/// batch is whatever arrived while the previous one was computing.
/// Returns `None` when the queue is closed and empty.
fn next_batch(shared: &SharedQ, policy: &BatchPolicy) -> Option<Vec<Queued>> {
    let mut st = lock(&shared.state);
    loop {
        if st.tripped {
            fail_queued(&mut st, shared);
        }
        expire_overdue(&mut st, shared);
        if !st.is_empty() && !st.tripped {
            break;
        }
        if st.closed && st.is_empty() {
            return None;
        }
        st = shared
            .work
            .wait(st)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let depth = st.len();
    let take = depth.min(policy.max_batch);
    let mut batch = Vec::with_capacity(take);
    batch.extend(std::iter::from_fn(|| st.pop_highest()).take(take));
    // Gauge handoff under the queue lock: the popped requests
    // leave `queued` and enter `in_flight` atomically with the
    // queue mutation, so the two gauges never double-count a
    // request between them.
    Counters::drop_gauge(&shared.counters.queued, batch.len() as u64);
    Counters::bump(&shared.counters.in_flight, batch.len() as u64);
    drop(st);
    shared.space.notify_all();
    if bnn_trace::enabled() {
        // Queue-wait spans, recorded outside the queue lock: one
        // per dequeued request, spanning enqueue to dequeue and
        // carrying the queue depth the batch was taken from —
        // backlog is the only reason a request waits.
        let now = bnn_trace::clock::now_us();
        for q in &batch {
            let dur = q.enqueued.elapsed().as_micros() as u64;
            bnn_trace::record(
                bnn_trace::Stage::QueueWait,
                bnn_trace::new_span(),
                q.trace,
                now.saturating_sub(dur),
                dur,
                depth as u64,
            );
        }
    }
    Some(batch)
}

/// Serve one micro-batch through the request-coalescing engine pass
/// and deliver each caller its reply. A backend panic fails the
/// batch's requests ([`ServeError::BackendFailed`]) but not the
/// dispatcher. Returns whether the batch was served cleanly (the
/// breaker counts the `false`s).
fn serve_batch<B: BayesBackend + Send>(
    backend: &mut B,
    batch: Vec<Queued>,
    ctx: &DispatchCtx,
) -> bool {
    let coalesced = batch.len();
    let form_start = bnn_trace::start();
    let requests: Vec<(&Tensor, u64)> = batch.iter().map(|q| (&q.x, q.seed)).collect();
    let compute_start = bnn_trace::start();
    if let (Some(f0), Some(c0)) = (form_start, compute_start) {
        // Batch-form spans: dequeue to compute start, one per
        // request, carrying the coalesce size as payload.
        for q in &batch {
            bnn_trace::record(
                bnn_trace::Stage::BatchForm,
                bnn_trace::new_span(),
                q.trace,
                f0,
                c0.saturating_sub(f0),
                coalesced as u64,
            );
        }
    }
    let served = catch_unwind(AssertUnwindSafe(|| {
        Engine::new(&ctx.pool, ctx.parallel).run(backend, Plan::requests(&requests), ctx.bayes)
    }));
    drop(requests);
    if let Some(c0) = compute_start {
        // Compute spans: the engine pass serving this micro-batch,
        // one per coalesced request (same interval, distinct roots).
        let now = bnn_trace::clock::now_us();
        for q in &batch {
            bnn_trace::record(
                bnn_trace::Stage::Compute,
                bnn_trace::new_span(),
                q.trace,
                c0,
                now.saturating_sub(c0),
                coalesced as u64,
            );
        }
    }
    match served {
        Ok(outs) => {
            // Counter and gauge move before any reply is delivered
            // (a woken waiter may read `Server::stats()` immediately).
            Counters::bump(&ctx.shared.counters.served, coalesced as u64);
            Counters::drop_gauge(&ctx.shared.counters.in_flight, coalesced as u64);
            for (q, out) in batch.into_iter().zip(outs) {
                let uncertainty = Uncertainty::summarize(&out.probs, &out.passes, 0);
                let write_start = bnn_trace::start();
                let trace = q.trace;
                let _ = q.reply.send(Ok(Reply {
                    id: q.id,
                    probs: out.probs,
                    uncertainty,
                    cost: out.cost,
                    coalesced,
                }));
                bnn_trace::finish(write_start, bnn_trace::Stage::Write, trace, 0);
            }
            true
        }
        Err(_) => {
            Counters::bump(&ctx.shared.counters.failed, coalesced as u64);
            Counters::drop_gauge(&ctx.shared.counters.in_flight, coalesced as u64);
            for q in batch {
                let _ = q.reply.send(Err(ServeError::BackendFailed));
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_mcd::{RequestResult, SoftwareMaskSource};
    use bnn_nn::models;
    use bnn_tensor::Shape4;

    fn test_net() -> Graph {
        models::lenet5(10, 1, 16, 5)
    }

    fn test_input(fill: f32) -> Tensor {
        Tensor::full(Shape4::new(1, 1, 16, 16), fill)
    }

    /// Solo reference: the bit-exact prediction for `(x, seed)`.
    fn solo(net: &Graph, x: &Tensor, cfg: BayesConfig, seed: u64) -> Tensor {
        let mut backend = FloatBackend::new(net);
        RequestResult::single(Engine::serial().run(
            &mut backend,
            Plan::one(x, &mut SoftwareMaskSource::new(seed)),
            cfg,
        ))
        .probs
    }

    #[test]
    fn served_reply_matches_solo_prediction() {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 6);
        let server = Server::for_graph(Arc::clone(&net))
            .backend(Backend::Fused)
            .bayes(cfg)
            .seed(9)
            .start();
        let handle = server.handle();
        let x = test_input(0.2);
        let reply = handle
            .request(x.clone())
            .seed(1234)
            .submit()
            .wait()
            .expect("served");
        let want = solo(&net, &x, cfg, 1234);
        assert_eq!(reply.probs.as_slice(), want.as_slice());
        assert_eq!(reply.cost.samples, cfg.s);
        assert!(reply.coalesced >= 1);
        // Uncertainty summary is consistent with the probabilities.
        let (pred, conf) = bnn_mcd::uncertainty::max_prob(reply.probs.item(0));
        assert_eq!(reply.uncertainty.predicted, pred);
        assert_eq!(reply.uncertainty.confidence, conf);
        server.shutdown();
    }

    #[test]
    fn auto_seeds_follow_the_documented_derivation() {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 4);
        let base = 77u64;
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .seed(base)
            .start();
        let handle = server.handle();
        let x = test_input(0.1);
        let pending = handle.request(x.clone()).submit();
        let id = pending.id().expect("accepted submissions carry an id");
        let reply = pending.wait().expect("served");
        assert_eq!(reply.id, id);
        let want = solo(&net, &x, cfg, request_seed(base, id));
        assert_eq!(
            reply.probs.as_slice(),
            want.as_slice(),
            "auto-derived seed must be reproducible offline"
        );
        server.shutdown();
    }

    #[test]
    fn backpressure_rejects_while_dispatcher_is_busy() {
        let net = Arc::new(test_net());
        // A slow micro-batch (large S) occupies the dispatcher; the
        // bounded queue then fills behind it and `try_submit` must
        // reject, handing the input back.
        let cfg = BayesConfig::new(1, 800);
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .policy(BatchPolicy {
                max_batch: 2,
                queue_cap: 2,
            })
            .start();
        let handle = server.handle();
        let a = handle.request(test_input(0.1)).seed(1).submit();
        // Wait until the dispatcher has taken the first request into
        // its (long-running) batch, then fill the queue behind it.
        while server.stats().queued > 0 {
            std::thread::yield_now();
        }
        let b = handle.request(test_input(0.2)).seed(2).submit();
        let c = handle.request(test_input(0.3)).seed(3).submit();
        match handle.request(test_input(0.4)).try_submit() {
            Err(SubmitError {
                error: ServeError::Rejected,
                input,
            }) => assert_eq!(input.shape().n, 1),
            other => panic!("expected Rejected, got {other:?}"),
        }
        // Everything accepted is served bit-exactly once the backlog
        // drains.
        for (pending, fill, seed) in [(a, 0.1f32, 1u64), (b, 0.2, 2), (c, 0.3, 3)] {
            let reply = pending.wait().expect("served");
            assert_eq!(
                reply.probs.as_slice(),
                solo(&net, &test_input(fill), cfg, seed).as_slice()
            );
        }
        server.shutdown();
    }

    #[test]
    fn submissions_after_shutdown_resolve_closed() {
        let net = Arc::new(test_net());
        let server = Server::for_graph(net).bayes(BayesConfig::new(1, 2)).start();
        let handle = server.handle();
        server.shutdown();
        assert_eq!(
            handle.request(test_input(0.1)).submit().wait().map(|_| ()),
            Err(ServeError::Shutdown)
        );
        match handle.request(test_input(0.1)).try_submit() {
            Err(SubmitError {
                error: ServeError::Shutdown,
                input,
            }) => assert_eq!(input.shape().n, 1),
            other => panic!("expected Shutdown, got {other:?}"),
        }
    }

    #[test]
    fn priority_orders_and_sheds_below() {
        assert!(Priority::Low < Priority::Normal && Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
        let mut st = QState {
            queues: Default::default(),
            closed: false,
            tripped: false,
            next_id: 0,
        };
        let queued = |id: u64| {
            let (tx, _rx) = mpsc::channel();
            Queued {
                x: Tensor::zeros(bnn_tensor::Shape4::new(1, 1, 1, 1)),
                seed: 0,
                id,
                enqueued: Instant::now(),
                deadline: None,
                reply: tx,
                trace: 0,
            }
        };
        st.queues[Priority::Low.index()].push_back(queued(0));
        st.queues[Priority::Low.index()].push_back(queued(1));
        st.queues[Priority::Normal.index()].push_back(queued(2));
        st.queues[Priority::High.index()].push_back(queued(3));
        // High outranks nothing above it; shedding takes the
        // *youngest* of the *lowest* class strictly below.
        assert_eq!(st.shed_below(Priority::High).map(|q| q.id), Some(1));
        assert_eq!(st.shed_below(Priority::Low).map(|q| q.id), None);
        // Dequeue order: High, then Normal, then the remaining Low.
        let order: Vec<u64> = std::iter::from_fn(|| st.pop_highest().map(|q| q.id)).collect();
        assert_eq!(order, vec![3, 2, 0]);
    }

    #[test]
    fn serve_errors_are_std_errors() {
        use std::error::Error;
        let submit = SubmitError {
            error: ServeError::Rejected,
            input: Tensor::zeros(bnn_tensor::Shape4::new(1, 1, 1, 1)),
        };
        assert!(submit.to_string().contains("admission control"));
        assert_eq!(
            submit.source().map(|s| s.to_string()),
            Some(ServeError::Rejected.to_string())
        );
        assert_eq!(submit.into_input().shape().n, 1);
        for err in [
            ServeError::Rejected,
            ServeError::DeadlineExceeded,
            ServeError::BackendFailed,
            ServeError::Shutdown,
            ServeError::BadInput,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn stats_gauges_track_queue_and_flight() {
        let net = Arc::new(test_net());
        // An injected 50 ms delay in every `prepare` pins the dispatcher
        // while we inspect the gauges behind it: compute alone is too
        // short in release, and missing it spins on `in_flight` forever.
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(BayesConfig::new(1, 4))
            .policy(BatchPolicy {
                max_batch: 1,
                queue_cap: 8,
            })
            .chaos(ChaosConfig {
                delay_prob: 1.0,
                delay: Duration::from_millis(50),
                ..ChaosConfig::disabled(0)
            })
            .start();
        let handle = server.handle();
        let a = handle.request(test_input(0.1)).seed(1).submit();
        // Wait for the dispatcher to take request `a` in flight.
        while server.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        let b = handle.request(test_input(0.2)).seed(2).submit();
        let c = handle.request(test_input(0.3)).seed(3).submit();
        let stats = server.stats();
        assert_eq!(stats.queued, 2, "b and c wait behind the slow batch");
        assert_eq!(stats.in_flight, 1, "a is being served");
        // Handles read the same counters.
        assert_eq!(handle.stats().queued, 2);
        for pending in [a, b, c] {
            pending.wait().expect("served");
        }
        let quiesced = server.stats();
        assert_eq!(quiesced.served, 3);
        assert_eq!(quiesced.queued, 0, "gauges return to zero at quiesce");
        assert_eq!(quiesced.in_flight, 0);
        server.shutdown();
    }

    #[test]
    fn multi_item_submissions_are_rejected() {
        let net = Arc::new(test_net());
        let server = Server::for_graph(net).start();
        let handle = server.handle();
        let batch = Tensor::zeros(Shape4::new(2, 1, 16, 16));
        match handle.request(batch).try_submit() {
            Err(SubmitError {
                error: ServeError::BadInput,
                input,
            }) => assert_eq!(input.shape().n, 2),
            other => panic!("expected BadInput, got {other:?}"),
        }
        assert_eq!(server.stats().rejected, 1);
    }
}
