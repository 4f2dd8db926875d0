//! **bnn-trace** — low-overhead, dependency-free request tracing for
//! the serving stack.
//!
//! A request's life crosses four crates: `bnn-net` decodes and admits
//! it, `bnn-serve` queues and coalesces it, `bnn-mcd` computes it, and
//! `bnn-net` writes the reply. This crate is the one place they all
//! report to: a span recorder cheap enough to leave compiled into
//! every hot path.
//!
//! # Design
//!
//! * **One atomic gate.** Disabled tracing — the default — costs a
//!   single `Relaxed` load per instrumentation site ([`enabled`]).
//!   Nothing else runs: no clock reads, no allocation, no locks. The
//!   conformance suite pins that replies are bit-identical with
//!   tracing on or off; the gate is why "off" is also *free*.
//! * **Per-thread bounded rings.** Each recording thread owns a ring
//!   of [`RING_CAP`] [`Event`]s; when full, the oldest event is
//!   overwritten. Recording never blocks on another thread's ring and
//!   never grows without bound — a tracer that can stall or OOM the
//!   hot path is worse than no tracer.
//! * **Spans, not logs.** An event is `{span_id, parent, stage,
//!   t_start_us, dur_us, meta}`. The net layer allocates one root span
//!   per request ([`new_span`]) and threads its id through admission,
//!   the serve queue and the reply writer, so a drained trace
//!   reconstructs the request's full decode → admission → queue-wait →
//!   batch-form → compute → write timeline. Engine-internal spans
//!   (prepare/forward/per-chunk) are recorded parentless — they line
//!   up on their worker-thread track by time.
//! * **Two export surfaces.** [`drain_chrome_json`] renders the rings
//!   as Chrome trace-event JSON (load it at `chrome://tracing` or
//!   [ui.perfetto.dev](https://ui.perfetto.dev)); [`stage_histograms`]
//!   exposes per-stage log2 latency histograms ([`LogHistogram`],
//!   folded O(1) at record time) for Prometheus-style `/metrics`
//!   exposition via [`metrics`].
//!
//! # Determinism boundary
//!
//! Span timestamps are wall-clock by definition, which the `bnn-audit`
//! determinism rule bans from engine crates. The entire clock intake
//! is therefore confined to [`clock`] — one waived `Instant::now`
//! site — and instrumented crates consume only the monotonic µs it
//! hands out. Trace data is telemetry: it never feeds computation, so
//! "same seed, same reply" survives tracing verbatim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
mod hist;
pub mod metrics;

pub use hist::{
    bucket_bounds, bucket_of, percentile_in_buckets, push_json_str, JsonArr, JsonObj, LogHistogram,
    LOG2_BUCKETS,
};

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Capacity of each per-thread event ring. When a thread records more
/// than this between drains, the oldest events are overwritten — the
/// hot path never blocks and never allocates past the ring.
pub const RING_CAP: usize = 4096;

/// The instrumented stages of a request's life, in pipeline order.
///
/// `Request` is the root span (whole wire round-trip, net layer);
/// everything else nests under it by `parent` id except the engine
/// stages (`Prepare`/`Forward`/`Chunk`), which are recorded parentless
/// on their worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Whole request: first frame byte in to last reply byte out.
    Request,
    /// Wire frame decode (`bnn-net`).
    Decode,
    /// Tenant gate + priority ceiling (`bnn-net`).
    Admission,
    /// Queue submission, including any blocking backpressure wait.
    Submit,
    /// Enqueue to dequeue: time spent waiting in the serve queue
    /// (payload: the queue depth its batch was taken from).
    QueueWait,
    /// Dequeue to compute start: micro-batch assembly overhead.
    BatchForm,
    /// The engine call serving this request's micro-batch.
    Compute,
    /// Backend input preparation (im2col, quantize, DMA model).
    Prepare,
    /// Monte-Carlo sample sweep over the prepared input.
    Forward,
    /// One sample chunk inside a `WorkerPool` task.
    Chunk,
    /// Pipelined writer waiting for this reply to resolve.
    WriterWait,
    /// Reply encode + socket write.
    Write,
}

impl Stage {
    /// Every stage, in pipeline order (the `/metrics` row order).
    pub const ALL: [Stage; 12] = [
        Stage::Request,
        Stage::Decode,
        Stage::Admission,
        Stage::Submit,
        Stage::QueueWait,
        Stage::BatchForm,
        Stage::Compute,
        Stage::Prepare,
        Stage::Forward,
        Stage::Chunk,
        Stage::WriterWait,
        Stage::Write,
    ];

    /// Stable lowercase name (Chrome event name, `/metrics` label).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::Submit => "submit",
            Stage::QueueWait => "queue_wait",
            Stage::BatchForm => "batch_form",
            Stage::Compute => "compute",
            Stage::Prepare => "prepare",
            Stage::Forward => "forward",
            Stage::Chunk => "chunk",
            Stage::WriterWait => "writer_wait",
            Stage::Write => "write",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// This span's id (0 only for spans recorded while disabled —
    /// those are dropped before they reach a ring).
    pub span_id: u64,
    /// Enclosing span id, 0 for roots and engine-internal spans.
    pub parent: u64,
    /// Which pipeline stage this span measures.
    pub stage: Stage,
    /// Start, µs since the shared trace epoch ([`clock::now_us`]).
    pub t_start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Stage-specific payload (batch size, frame bytes, chunk samples).
    pub meta: u64,
}

/// One thread's drained events, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Stable per-thread track id (registration order, from 1).
    pub tid: u32,
    /// Events still in the ring at drain time, oldest first.
    pub events: Vec<Event>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

struct Ring {
    tid: u32,
    events: Vec<Event>,
    next: usize,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() < RING_CAP {
            self.events.push(ev);
        } else {
            // Full: overwrite the oldest slot. Eviction is the
            // bounded-memory guarantee — recording never blocks.
            self.events[self.next] = ev;
        }
        self.next = (self.next + 1) % RING_CAP;
    }

    fn drain_ordered(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.events.len());
        if self.events.len() == RING_CAP {
            out.extend_from_slice(&self.events[self.next..]);
            out.extend_from_slice(&self.events[..self.next]);
        } else {
            out.extend_from_slice(&self.events);
        }
        self.events.clear();
        self.next = 0;
        out
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn stage_hists() -> &'static Vec<Mutex<LogHistogram>> {
    static HISTS: OnceLock<Vec<Mutex<LogHistogram>>> = OnceLock::new();
    HISTS.get_or_init(|| {
        Stage::ALL
            .iter()
            .map(|_| Mutex::new(LogHistogram::new()))
            .collect()
    })
}

// Poisoning policy for every lock below: trace state is pure
// telemetry and each critical section is a handful of copies, so a
// panicking recorder cannot leave it mid-invariant — recover the
// guard and keep going rather than propagate.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static LOCAL: Arc<Mutex<Ring>> = {
        let ring = Arc::new(Mutex::new(Ring {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
            next: 0,
        }));
        relock(registry()).push(Arc::clone(&ring));
        ring
    };
}

/// Whether tracing is on. One `Relaxed` atomic load — this is the
/// whole cost of a disabled instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on or off, process-wide. Spans already in rings stay
/// until drained; span-id allocation keeps counting across toggles.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocate a fresh span id, or 0 (the "untraced" sentinel) while
/// disabled. Ids are process-unique and never reused.
#[inline]
pub fn new_span() -> u64 {
    if enabled() {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Start-of-span marker: the current trace clock when tracing is on,
/// `None` when off (so the disabled path never reads the clock).
#[inline]
pub fn start() -> Option<u64> {
    enabled().then(clock::now_us)
}

/// Close a span begun with [`start`]: records `[t0, now)` under a
/// fresh span id. No-op when `started` is `None`.
pub fn finish(started: Option<u64>, stage: Stage, parent: u64, meta: u64) {
    if let Some(t0) = started {
        let dur = clock::now_us().saturating_sub(t0);
        record(stage, new_span(), parent, t0, dur, meta);
    }
}

/// Record one fully-formed span. No-op while disabled. Folds the
/// duration into the stage's histogram and appends to the calling
/// thread's ring (evicting the oldest event when full).
pub fn record(stage: Stage, span_id: u64, parent: u64, t_start_us: u64, dur_us: u64, meta: u64) {
    if !enabled() {
        return;
    }
    relock(&stage_hists()[stage.index()]).record(dur_us);
    LOCAL.with(|ring| {
        relock(ring).push(Event {
            span_id,
            parent,
            stage,
            t_start_us,
            dur_us,
            meta,
        });
    });
}

/// Take every thread's buffered events (oldest first per thread),
/// clearing the rings. Thread tracks appear in registration order.
/// Stage histograms are *not* cleared — see [`reset`].
pub fn drain() -> Vec<ThreadTrace> {
    let rings: Vec<Arc<Mutex<Ring>>> = relock(registry()).iter().map(Arc::clone).collect();
    let mut out = Vec::with_capacity(rings.len());
    for ring in rings {
        let mut guard = relock(&ring);
        let events = guard.drain_ordered();
        let tid = guard.tid;
        drop(guard);
        if !events.is_empty() {
            out.push(ThreadTrace { tid, events });
        }
    }
    out
}

/// Drain every ring and render the result as Chrome trace-event JSON
/// (see [`chrome::chrome_trace_json`]).
pub fn drain_chrome_json() -> String {
    chrome::chrome_trace_json(&drain())
}

/// Snapshot the per-stage duration histograms, in [`Stage::ALL`]
/// order. Histograms accumulate from process start (or the last
/// [`reset`]) regardless of ring eviction.
pub fn stage_histograms() -> Vec<(Stage, LogHistogram)> {
    Stage::ALL
        .iter()
        .map(|&stage| (stage, relock(&stage_hists()[stage.index()]).clone()))
        .collect()
}

/// Clear all rings and stage histograms (test isolation; span ids
/// keep counting so ids never repeat within a process).
pub fn reset() {
    for ring in relock(registry()).iter() {
        let mut guard = relock(ring);
        guard.events.clear();
        guard.next = 0;
    }
    for hist in stage_hists() {
        *relock(hist) = LogHistogram::new();
    }
}

#[cfg(test)]
mod tests {
    // The enabled-flag is process-global and the test harness runs
    // threads concurrently, so every test that toggles it serializes
    // on this lock (poisoning: into_inner — a failed test must not
    // cascade).
    use super::*;

    fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = flag_guard();
        set_enabled(false);
        reset();
        assert_eq!(new_span(), 0);
        assert_eq!(start(), None);
        record(Stage::Compute, 1, 0, 0, 10, 0);
        finish(None, Stage::Compute, 0, 0);
        assert!(drain().is_empty());
        assert!(stage_histograms().iter().all(|(_, h)| h.total() == 0));
    }

    #[test]
    fn spans_round_trip_through_drain_and_histograms() {
        let _g = flag_guard();
        set_enabled(true);
        reset();
        let root = new_span();
        assert!(root > 0);
        record(Stage::Request, root, 0, 100, 50, 0);
        let child = new_span();
        assert!(child > root);
        record(Stage::Compute, child, root, 110, 30, 4);
        let threads = drain();
        set_enabled(false);
        let events: Vec<Event> = threads.into_iter().flat_map(|t| t.events).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::Request);
        assert_eq!(events[1].parent, root);
        assert_eq!(events[1].meta, 4);
        // Second drain is empty; histograms survive the drain.
        assert!(drain().is_empty());
        let hists = stage_histograms();
        let compute = hists.iter().find(|(s, _)| *s == Stage::Compute).unwrap();
        assert_eq!(compute.1.total(), 1);
        assert_eq!(compute.1.max_us(), Some(30));
    }

    #[test]
    fn full_ring_evicts_oldest_without_blocking() {
        let _g = flag_guard();
        set_enabled(true);
        reset();
        let extra = 7;
        for i in 0..(RING_CAP + extra) as u64 {
            record(Stage::Chunk, i + 1, 0, i, 1, 0);
        }
        let threads = drain();
        set_enabled(false);
        let mine: Vec<Event> = threads.into_iter().flat_map(|t| t.events).collect();
        assert_eq!(mine.len(), RING_CAP, "ring stays bounded");
        // Oldest `extra` events were evicted; order is preserved.
        assert_eq!(mine[0].span_id, extra as u64 + 1);
        assert_eq!(mine[RING_CAP - 1].span_id, (RING_CAP + extra) as u64);
        assert!(mine.windows(2).all(|w| w[0].span_id < w[1].span_id));
    }

    #[test]
    fn start_finish_measures_a_nonnegative_span() {
        let _g = flag_guard();
        set_enabled(true);
        reset();
        let t0 = start();
        assert!(t0.is_some());
        finish(t0, Stage::Decode, 0, 9);
        let threads = drain();
        set_enabled(false);
        let ev = threads
            .into_iter()
            .flat_map(|t| t.events)
            .find(|e| e.stage == Stage::Decode)
            .unwrap();
        assert_eq!(ev.meta, 9);
        assert!(ev.span_id > 0);
    }

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 12);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "duplicate stage name");
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
