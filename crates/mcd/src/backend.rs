//! The [`BayesBackend`] trait and the one Monte Carlo sampling
//! [`Engine`].
//!
//! The paper's central claim is that one Bayesian workload — `S`
//! Monte Carlo forward passes over a partially-Bayesian network — can
//! be retargeted across execution substrates: f32 software, int8
//! integer arithmetic, and the FPGA accelerator. This module encodes
//! that claim in the type system. A substrate implements
//! [`BayesBackend`] — five methods: `info`, `prepare`, `scratches`,
//! `forward_batch` and the optional `model_cost` — and the engine
//! supplies everything else, through exactly one entry point,
//! [`Engine::run`]`(backend, plan, cfg)`:
//!
//! * a [`Plan`] names the inputs as a sequence of *groups* — one
//!   tensor ([`Plan::one`]), item ranges of a dataset
//!   ([`Plan::batched`]) or independent requests
//!   ([`Plan::requests`]) — and where each group's masks come from
//!   (one serial [`MaskSource`] consumed in group order, or one
//!   private [`SoftwareMaskSource`] seed per group);
//! * the engine computes the active sites (`last L of N`) and
//!   executes the groups in order on the resident backend, drawing
//!   each group's masks serially right before it runs (so the
//!   deterministic stream never depends on thread timing);
//! * every group is one timed `prepare` plus its sample chunks fanned
//!   over [`ParallelConfig::threads`] on the engine's [`WorkerPool`]
//!   — the engine's one fan-out — averaged ([`mean_probs`]) and
//!   costed ([`CostReport`]), returned as a [`RequestResult`]. That
//!   single per-group core is what makes solo and coalesced serving
//!   bit-identical by construction, not merely by test;
//! * the backend owns one scratch per sample chunk
//!   ([`BayesBackend::scratches`]) and the engine lends chunk `i`
//!   scratch `i`, so the workspaces a chunk sizes stay warm across
//!   groups and calls and nothing else in the stack keeps one.
//!
//! Callers project the result vector with [`RequestResult::single`]
//! (a one-group plan) or [`RequestResult::stacked`] (a dataset's rows
//! and accumulated cost); `Session` and `bnn-serve` are thin callers
//! of exactly this.
//!
//! [`FloatBackend`] (below) is the one f32 substrate: the [`Graph`]
//! executor's intermediate-layer-caching suffix re-runs, walked once
//! per sample ([`FloatBackend::new`], the conformance reference) or
//! once per sample chunk with batched-sample GEMM fusion
//! ([`FloatBackend::fused`]: weights stream once per layer instead of
//! once per sample, bit-identical results); `bnn-quant` provides
//! `Int8Backend`, the one integer substrate (its suffix likewise walked
//! once per sample chunk, samples stacked), which `bnn-accel` turns
//! into the accelerator substrate by attaching its analytic
//! [`HardwareModel`] (`Accelerator::into_backend`), and the
//! `bnn-fpga` facade ties them together behind a `Session` builder.
//! Any future substrate (SIMD kernels, sharded serving) is a drop-in
//! `impl BayesBackend`, and the conformance harness in
//! [`crate::conformance`] gives it agreement coverage in one line.

use crate::pool::WorkerPool;
use crate::predict::{active_sites, mean_probs, BayesConfig, ParallelConfig};
use crate::source::{MaskSource, SoftwareMaskSource};
use bnn_nn::{Activations, ExecScratch, Graph, MaskSet, Node, Op};
use bnn_tensor::{softmax_rows, Shape4, Tensor};
use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

/// Analytic cost of one `{L, S}` predictive run.
///
/// The accelerator populates every field (cycles, latency at its
/// configured clock, off-chip traffic). The software backends model
/// memory traffic only — the weight bytes a `{L, S}` prediction
/// streams through the GEMM kernels, which is exactly the quantity
/// batched-sample fusion changes — and report zero cycles/latency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelCost {
    /// Modelled execution cycles for the complete prediction (zero for
    /// software backends, which have no cycle model).
    pub cycles: u64,
    /// Modelled latency in milliseconds at the backend's clock (zero
    /// for software backends).
    pub latency_ms: f64,
    /// Modelled memory traffic in bytes: off-chip traffic on the
    /// accelerator, weight-streaming traffic on the software backends.
    pub mem_bytes: u64,
}

/// An analytic hardware model a backend can carry beside its
/// arithmetic: `bnn-accel`'s `Accelerator` implements it, and
/// `bnn-quant`'s `Int8Backend` — which sits below that crate — holds
/// one as a value and reports it from [`BayesBackend::model_cost`].
pub trait HardwareModel: std::fmt::Debug + Send + Sync {
    /// Modelled cost of one complete `{L, S}` prediction of one image.
    fn model_cost(&self, bayes: BayesConfig) -> ModelCost;
}

/// Cost report of one predictive run through the generic engine.
///
/// Wall-clock time is measured by the engine for every backend; the
/// `model` field carries the backend's analytic hardware cost when it
/// has one (CPU paths report `None`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostReport {
    /// Monte Carlo samples requested (`S`, summed over batches). A
    /// fully deterministic run (`L = 0`) executes one pass and
    /// replicates it, so this is not a per-pass work count there.
    pub samples: usize,
    /// Input items predicted.
    pub batch: usize,
    /// Measured wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// The backend's analytic cost model, if it has one (summed over
    /// batches).
    pub model: Option<ModelCost>,
}

impl CostReport {
    /// Fold another run's cost into this one (batched prediction).
    pub fn accumulate(&mut self, other: &CostReport) {
        self.samples += other.samples;
        self.batch += other.batch;
        self.wall_ms += other.wall_ms;
        self.model = match (self.model, other.model) {
            (Some(a), Some(b)) => Some(ModelCost {
                cycles: a.cycles + b.cycles,
                latency_ms: a.latency_ms + b.latency_ms,
                mem_bytes: a.mem_bytes + b.mem_bytes,
            }),
            (a, b) => a.or(b),
        };
    }
}

/// What the engine must know about a backend's compiled network
/// before it binds an input: who it is and the geometry its masks and
/// outputs take for one input shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Short backend name for logs, benches and cost reports.
    pub name: &'static str,
    /// Number of MCD sites in the compiled network (the paper's `N`).
    pub n_sites: usize,
    /// Mask length per site (the channel count each site's Bernoulli
    /// draw must cover).
    pub site_channels: Vec<usize>,
    /// Output classes `K`.
    pub output_classes: usize,
}

/// One Bayesian execution substrate (float, int8, accelerator, ...).
///
/// A backend executes Monte Carlo passes for one *prepared* input; the
/// generic engine ([`Engine::run`]) owns mask pre-draw, thread
/// fan-out, averaging and cost accounting. The contract:
///
/// 1. [`BayesBackend::info`] answers for any input shape, prepared or
///    not: the engine reads a group's mask geometry before that group
///    is bound.
/// 2. [`BayesBackend::prepare`] binds an input batch and precomputes
///    whatever is shared across samples — typically the deterministic
///    prefix under intermediate-layer caching.
/// 3. [`BayesBackend::forward_batch`] runs one pass per mask set over
///    the prepared input and returns *softmax probabilities* `(n, k)`.
///    It takes `&self` plus one sample chunk's
///    [`BayesBackend::Scratch`], so the engine may fan chunks out
///    across threads.
/// 4. The backend keeps the scratches ([`BayesBackend::scratches`]):
///    one per sample chunk, lent by the engine for the duration of a
///    group and handed back after it, so they stay warm across groups
///    and calls. A scratch lost to a panicking pass is rebuilt from
///    `Default`.
/// 5. Results must not depend on scratch contents or thread count —
///    the engine's bit-identical-at-any-parallelism guarantee extends
///    to every backend.
pub trait BayesBackend: Sync {
    /// One sample chunk's mutable state (scratch buffers), reused by
    /// every group's chunk at the same position. `Default` is the
    /// empty scratch the chunk's first pass sizes. Use `()` if none
    /// is needed.
    type Scratch: Default + Send;

    /// Name and geometry of the compiled network for an input shape.
    fn info(&self, input: Shape4) -> ModelInfo;

    /// Bind an input batch and precompute per-input state shared by
    /// all samples. Called exactly once before a group of
    /// [`BayesBackend::forward_batch`] calls.
    fn prepare(&mut self, x: &Tensor, active: &[bool]);

    /// The resident scratches, one per sample chunk: the engine takes
    /// the vector for a group, grows it with `Default` to the group's
    /// chunk count and puts it back.
    fn scratches(&mut self) -> &mut Vec<Self::Scratch>;

    /// A group of Monte Carlo passes over the prepared input: one
    /// `(n, k)` probability tensor per mask set, in mask-set order.
    ///
    /// The engine hands each worker its whole contiguous sample chunk
    /// through this hook (and a deterministic group as one empty mask
    /// set). A backend may fuse the chunk (one suffix walk with the
    /// samples stacked on the item axis: the fused f32 cut and the
    /// integer backend) or loop over it; either way it must return exactly
    /// `mask_sets.len()` tensors and every sample must be
    /// bit-identical at *any* sub-chunking of the sample list, because
    /// the engine's chunk boundaries move with the thread count.
    fn forward_batch(&self, mask_sets: &[MaskSet], scratch: &mut Self::Scratch) -> Vec<Tensor>;

    /// Analytic cost of a full `{L, S}` prediction, if the backend
    /// models one (the accelerator's cycle/traffic models, the
    /// software backends' weight-streaming traffic).
    fn model_cost(&self, bayes: BayesConfig) -> Option<ModelCost> {
        let _ = bayes;
        None
    }
}

/// The one Monte Carlo sampling engine: a [`WorkerPool`] and the
/// [`ParallelConfig`] schedule that spreads work over it.
///
/// Every prediction in the stack — a `Session` call, a `bnn-serve`
/// micro-batch, a conformance check — is one [`Engine::run`] over a
/// [`Plan`]. The engine is a cheap `Copy` view: build one per call
/// from whatever owns the pool.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'p> {
    pool: &'p WorkerPool,
    parallel: ParallelConfig,
}

impl Engine<'static> {
    /// The fully serial engine ([`ParallelConfig::serial`]) on a
    /// process-wide zero-worker pool: everything runs inline on the
    /// caller and no thread is ever spawned.
    pub fn serial() -> Engine<'static> {
        Engine {
            pool: WorkerPool::inline(),
            parallel: ParallelConfig::serial(),
        }
    }
}

impl<'p> Engine<'p> {
    /// An engine executing `parallel` on `pool`. The schedule is
    /// validated here, once ([`ParallelConfig::normalized`]).
    pub fn new(pool: &'p WorkerPool, parallel: ParallelConfig) -> Engine<'p> {
        Engine {
            pool,
            parallel: parallel.normalized(),
        }
    }

    /// Run a plan: one [`RequestResult`] per group, in group order.
    ///
    /// Each group is one [`BayesBackend::prepare`] plus `cfg.s` passes
    /// whose mask sets are drawn serially, in group order, from the
    /// plan's mask origin — so the deterministic stream never depends
    /// on thread timing. With no active Bayesian site a group is
    /// deterministic: one pass, replicated, and no mask is drawn.
    ///
    /// Groups execute in order on the resident `backend`, each one's
    /// masks drawn and items sliced immediately before it runs, and
    /// each one's samples split over [`ParallelConfig::threads`] on the
    /// pool. Every group goes through the same `run_request`, so
    /// results are bit-identical at any thread count and pool size,
    /// and a group of a [`Plan::requests`] plan is bit-identical to
    /// running it alone.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.s == 0`.
    pub fn run<B: BayesBackend>(
        &self,
        backend: &mut B,
        plan: Plan<'_>,
        cfg: BayesConfig,
    ) -> Vec<RequestResult> {
        assert!(cfg.s > 0, "at least one Monte Carlo sample required");
        let Plan { inputs, mut masks } = plan;
        let groups = inputs.groups();
        if groups == 0 {
            return Vec::new();
        }
        let active = active_sites(backend.info(inputs.shape(0)).n_sites, cfg.l);
        // The resident backend keeps its prefix buffers and chunk
        // scratches hot across the groups.
        (0..groups)
            .map(|g| {
                let channels = backend.info(inputs.shape(g)).site_channels;
                let masks = masks.draw(g, &active, &channels, cfg);
                let x = inputs.get(g);
                run_request(backend, &x, &masks, &active, cfg, self.parallel, self.pool)
            })
            .collect()
    }
}

/// Serially draw one group's mask sets: `S` sets when any site is
/// active, none (and no stream consumption) otherwise.
fn draw_mask_sets(
    active: &[bool],
    channels: &[usize],
    cfg: BayesConfig,
    src: &mut dyn MaskSource,
) -> Vec<MaskSet> {
    if !active.iter().any(|&a| a) {
        return Vec::new();
    }
    (0..cfg.s)
        .map(|_| src.next_masks(active, channels, cfg.p))
        .collect()
}

/// The passes of a prepared group: its mask sets split into
/// `ceil(S / threads)`-sample chunks, chunk `i` run on the pool with
/// scratch `i` (`scratches` grown with `Default` to the chunk count).
/// Samples are returned in mask-set order. An empty `mask_sets` is the
/// deterministic short-circuit — one pass, replicated `s` times.
///
/// Each task receives its whole contiguous chunk through
/// [`BayesBackend::forward_batch`], so fusing backends amortize weight
/// streaming across the chunk; a single chunk runs inline on the
/// caller ([`WorkerPool::run`]).
fn run_samples<B: BayesBackend>(
    backend: &B,
    s: usize,
    mask_sets: &[MaskSet],
    scratches: &mut Vec<B::Scratch>,
    parallel: ParallelConfig,
    pool: &WorkerPool,
) -> Vec<Tensor> {
    let none = [MaskSet::none()];
    let sets = if mask_sets.is_empty() {
        &none[..]
    } else {
        mask_sets
    };
    let chunk = sets.len().div_ceil(parallel.threads.clamp(1, sets.len()));
    let chunks = sets.chunks(chunk);
    if scratches.len() < chunks.len() {
        scratches.resize_with(chunks.len(), B::Scratch::default);
    }
    // Results join in chunk order, which keeps the samples in stream
    // order.
    let tasks: Vec<Box<dyn FnOnce() -> Vec<Tensor> + Send + '_>> = chunks
        .zip(scratches.iter_mut())
        .map(|(ms, scratch)| {
            Box::new(move || {
                let span = bnn_trace::start();
                let probs = backend.forward_batch(ms, scratch);
                bnn_trace::finish(span, bnn_trace::Stage::Chunk, 0, ms.len() as u64);
                probs
            }) as Box<dyn FnOnce() -> Vec<Tensor> + Send + '_>
        })
        .collect();
    let mut probs: Vec<Tensor> = pool.run(tasks).into_iter().flatten().collect();
    assert_eq!(
        probs.len(),
        sets.len(),
        "forward_batch must return one tensor per mask set"
    );
    if mask_sets.is_empty() {
        probs = vec![probs.remove(0); s];
    }
    probs
}

/// What one [`Engine::run`] executes: which inputs, as a sequence of
/// *groups* (one [`BayesBackend::prepare`] each), and where each
/// group's masks come from.
pub struct Plan<'a> {
    inputs: Inputs<'a>,
    masks: Masks<'a>,
}

impl<'a> Plan<'a> {
    /// One input batch as a single group, its masks the next `S` sets
    /// of `src`.
    pub fn one(x: &'a Tensor, src: &'a mut dyn MaskSource) -> Plan<'a> {
        Plan {
            inputs: Inputs::One(x),
            masks: Masks::Stream(src),
        }
    }

    /// A dataset in groups of at most `batch` items, `src` consumed in
    /// group order (at `batch = 1`, exactly the stream a per-input
    /// loop of [`Plan::one`] runs would consume).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn batched(xs: &'a Tensor, batch: usize, src: &'a mut dyn MaskSource) -> Plan<'a> {
        assert!(batch > 0, "batch must be non-zero");
        Plan {
            inputs: Inputs::Batched { xs, batch },
            masks: Masks::Stream(src),
        }
    }

    /// Independent `(input, seed)` requests (shapes may differ), one
    /// group each, every group drawing from its *own*
    /// [`SoftwareMaskSource`] seeded by the request — the
    /// cross-call-batching plan behind `bnn-serve`.
    ///
    /// A request's masks come from its own seed, never from one serial
    /// stream in batch order, so its prediction cannot depend on which
    /// neighbors it is coalesced with or on its position among them.
    /// (Per-request groups are also *required* for that guarantee:
    /// dropout masks are channel-wise and shared across the items of
    /// one forward pass, so folding strangers' inputs into one tensor
    /// would force them to share one mask stream.) What coalescing
    /// buys is everything around the math: one dispatcher wake-up and
    /// one pool submission per micro-batch, and one resident backend
    /// whose prefix buffers and chunk scratches stay hot.
    pub fn requests(requests: &'a [(&'a Tensor, u64)]) -> Plan<'a> {
        Plan {
            inputs: Inputs::Requests(requests),
            masks: Masks::Seeds(requests),
        }
    }
}

/// The inputs of a [`Plan`], addressable by group.
enum Inputs<'a> {
    One(&'a Tensor),
    Batched { xs: &'a Tensor, batch: usize },
    Requests(&'a [(&'a Tensor, u64)]),
}

impl<'a> Inputs<'a> {
    fn groups(&self) -> usize {
        match *self {
            Inputs::One(_) => 1,
            Inputs::Batched { xs, batch } => xs.shape().n.div_ceil(batch),
            Inputs::Requests(requests) => requests.len(),
        }
    }

    /// Item range of group `g` of a dataset split every `batch` items.
    fn items(xs: &Tensor, batch: usize, g: usize) -> Range<usize> {
        g * batch..((g + 1) * batch).min(xs.shape().n)
    }

    fn shape(&self, g: usize) -> Shape4 {
        match *self {
            Inputs::One(x) => x.shape(),
            Inputs::Batched { xs, batch } => xs.shape().with_n(Self::items(xs, batch, g).len()),
            Inputs::Requests(requests) => requests[g].0.shape(),
        }
    }

    /// Group `g`'s input tensor; a dataset group is copied out here,
    /// when the group is about to run.
    fn get(&self, g: usize) -> Cow<'a, Tensor> {
        match *self {
            Inputs::One(x) => Cow::Borrowed(x),
            Inputs::Batched { xs, batch } => Cow::Owned(slice_items(xs, Self::items(xs, batch, g))),
            Inputs::Requests(requests) => Cow::Borrowed(requests[g].0),
        }
    }
}

/// Where a [`Plan`]'s groups draw their masks from.
enum Masks<'a> {
    /// One serial stream, consumed in group order.
    Stream(&'a mut dyn MaskSource),
    /// Group `g` draws from a fresh software stream seeded by request
    /// `g`, exactly as its solo serving would.
    Seeds(&'a [(&'a Tensor, u64)]),
}

impl Masks<'_> {
    /// Group `g`'s mask sets ([`draw_mask_sets`] on its stream).
    fn draw(
        &mut self,
        g: usize,
        active: &[bool],
        channels: &[usize],
        cfg: BayesConfig,
    ) -> Vec<MaskSet> {
        match self {
            Masks::Stream(src) => draw_mask_sets(active, channels, cfg, &mut **src),
            Masks::Seeds(requests) => {
                let mut src = SoftwareMaskSource::new(requests[g].1);
                draw_mask_sets(active, channels, cfg, &mut src)
            }
        }
    }
}

/// One group's result from [`Engine::run`].
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// The `S` per-sample softmax probability tensors `(n, k)`, in the
    /// group's mask-stream order (what an uncertainty decomposition
    /// consumes, and what the paper's `S` sweep averages prefixes of).
    pub passes: Vec<Tensor>,
    /// The predictive mean `(n, k)` over those passes (the paper's
    /// `1/S Σ p(y|x, M_s)`).
    pub probs: Tensor,
    /// This group's slice of the run's cost: its own wall time,
    /// sample count and model cost.
    pub cost: CostReport,
}

impl RequestResult {
    /// The result of a one-group plan ([`Plan::one`]).
    ///
    /// # Panics
    ///
    /// Panics unless `results` holds exactly one group.
    pub fn single(mut results: Vec<RequestResult>) -> RequestResult {
        assert_eq!(results.len(), 1, "expected a one-group plan");
        results.remove(0)
    }

    /// All groups' predictive rows stacked in group order into one
    /// `(n, k)` tensor, with their costs accumulated (`wall_ms` sums
    /// the per-group wall times).
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    pub fn stacked(results: &[RequestResult]) -> (Tensor, CostReport) {
        let first = results.first().expect("dataset is non-empty");
        let k = first.probs.shape().item_len();
        let mut rows = Vec::new();
        let mut cost = CostReport::default();
        for r in results {
            cost.accumulate(&r.cost);
            rows.extend_from_slice(r.probs.as_slice());
        }
        (Tensor::from_vec(Shape4::vec(rows.len() / k, k), rows), cost)
    }
}

/// Bind one input and execute its pre-drawn mask sets: timed
/// prepare, sample passes, predictive mean and cost accounting.
/// *The* per-group core — [`Engine::run`] runs exactly this for every
/// group of every plan, which is what makes solo and coalesced
/// serving bit-identical by construction.
fn run_request<B: BayesBackend>(
    backend: &mut B,
    x: &Tensor,
    masks: &[MaskSet],
    active: &[bool],
    cfg: BayesConfig,
    parallel: ParallelConfig,
    pool: &WorkerPool,
) -> RequestResult {
    // audit:allow(determinism) wall_ms is CostReport telemetry; it never feeds the computation, so replies stay bit-identical.
    let t0 = Instant::now();
    let prepare_span = bnn_trace::start();
    backend.prepare(x, active);
    bnn_trace::finish(
        prepare_span,
        bnn_trace::Stage::Prepare,
        0,
        x.shape().n as u64,
    );
    let forward_span = bnn_trace::start();
    // Lent for the group and handed back; a panicking pass drops them,
    // and the next group rebuilds them from `Default`.
    let mut scratches = std::mem::take(backend.scratches());
    let passes = run_samples(&*backend, cfg.s, masks, &mut scratches, parallel, pool);
    *backend.scratches() = scratches;
    bnn_trace::finish(forward_span, bnn_trace::Stage::Forward, 0, cfg.s as u64);
    let probs = mean_probs(&passes, passes.len());
    let cost = CostReport {
        samples: cfg.s,
        batch: x.shape().n,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        model: backend.model_cost(cfg),
    };
    RequestResult {
        passes,
        probs,
        cost,
    }
}

/// Copy an item range of `xs` into a fresh batch tensor.
fn slice_items(xs: &Tensor, items: Range<usize>) -> Tensor {
    let s = xs.shape();
    let mut bx = Tensor::zeros(Shape4::new(items.len(), s.c, s.h, s.w));
    for (i, item) in items.enumerate() {
        bx.item_mut(i).copy_from_slice(xs.item(item));
    }
    bx
}

/// The f32 software backend: the deterministic prefix runs once per
/// input through the scratch-backed prefix pass
/// ([`Graph::forward_prefix_with`], reusing the previous call's
/// buffers), and the Monte Carlo passes re-run only the Bayesian
/// suffix ([`Graph::forward_from_stacked`]) — the software analogue of
/// the accelerator's intermediate-layer caching.
///
/// One type, two cuts of the sample chunk the engine hands over:
///
/// * [`FloatBackend::new`] walks the suffix with one sample per walk,
///   paying the weight traffic of every suffix layer `S` times. It is
///   the conformance reference the other substrates are compared
///   against.
/// * [`FloatBackend::fused`] walks it *once per chunk* with the
///   samples stacked along the batch axis — fully-connected layers
///   through one row-stacked GEMM, convolutions one GEMM per stacked
///   item straight on its zero-padded input — so each weight matrix
///   streams once per layer per chunk (a convolution's stays
///   cache-resident between its items, so `weight_stream_bytes` still
///   counts it once): the software analogue of the accelerator's
///   weight-streaming dataflow.
///
/// Both cuts run the same kernels and differ only in how many mask
/// sets share a walk. The kernels give every element the same f32
/// operation sequence at any stacking (see `bnn_tensor::gemm`),
/// so both give **bit-identical** predictions under the same seed and
/// mask stream, at any thread count; they differ in wall-clock time,
/// in `name` (`"float"` / `"fused"`) and in the weight-streaming
/// traffic `model_cost` reports.
#[derive(Debug)]
pub struct FloatBackend<'g> {
    graph: &'g Graph,
    /// Whether a sample chunk is walked stacked (else cut to 1).
    fused: bool,
    prepared: Option<FloatPrepared>,
    /// Convolution workspace of the prefix pass, kept across
    /// `prepare` calls.
    prefix_cols: Vec<f32>,
    /// One suffix workspace per sample chunk, kept across calls:
    /// building one is allocation- and page-fault-heavy (hundreds of
    /// microseconds at `S = 100`).
    scratches: Vec<Option<ExecScratch>>,
}

#[derive(Debug)]
struct FloatPrepared {
    /// Shape of the bound input (sizes the suffix scratch).
    shape: Shape4,
    /// Node outputs of the deterministic prefix `0..=from`.
    prefix: Activations,
    /// Suffix boundary: the node feeding the first active MCD site,
    /// or the output node when the run is fully deterministic (the
    /// suffix is then empty and the prefix holds the logits).
    from: usize,
}

/// Node id of the first active MCD site in a graph, if any.
fn first_active_site_node(graph: &Graph, active: &[bool]) -> Option<usize> {
    graph
        .nodes()
        .iter()
        .enumerate()
        .find_map(|(id, node)| match node.op {
            Op::McdSite { site, .. } if active.get(site.0).copied().unwrap_or(false) => Some(id),
            _ => None,
        })
}

/// Analytic weight-streaming traffic of one `{L, S}` prediction over a
/// float graph: every weight layer's parameter bytes, counted once for
/// the deterministic prefix and — per sample for the per-sample cut,
/// once per layer for the fused cut — for the Bayesian suffix.
///
/// This is the quantity the paper's accelerator dataflow (and the
/// software batched-sample fusion) optimizes: with `fused_suffix` the
/// suffix term loses its factor of `S`. With no active site the whole
/// network counts once on either cut — the generic engine
/// short-circuits a deterministic predictive to a single pass and
/// replicates it, so no weight is streamed `S` times there.
fn weight_stream_bytes(graph: &Graph, bayes: BayesConfig, fused_suffix: bool) -> u64 {
    let active = active_sites(graph.n_sites(), bayes.l);
    let split = first_active_site_node(graph, &active).unwrap_or(graph.nodes().len());
    let layer_bytes = |node: &Node| -> u64 {
        match node.op {
            Op::Conv { w, b, .. } | Op::Linear { w, b, .. } => {
                4 * (graph.params().get(w).len() + graph.params().get(b).len()) as u64
            }
            _ => 0,
        }
    };
    graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(id, node)| {
            let bytes = layer_bytes(node);
            if id < split || fused_suffix {
                bytes
            } else {
                bytes * bayes.s as u64
            }
        })
        .sum()
}

impl<'g> FloatBackend<'g> {
    /// The per-sample backend over a graph (`"float"`).
    pub fn new(graph: &'g Graph) -> FloatBackend<'g> {
        FloatBackend {
            graph,
            fused: false,
            prepared: None,
            prefix_cols: Vec::new(),
            scratches: Vec::new(),
        }
    }

    /// The batched-sample fusion backend over a graph (`"fused"`).
    pub fn fused(graph: &'g Graph) -> FloatBackend<'g> {
        FloatBackend {
            fused: true,
            ..FloatBackend::new(graph)
        }
    }

    fn prepared(&self) -> &FloatPrepared {
        self.prepared
            .as_ref()
            .expect("FloatBackend::prepare not called")
    }
}

impl BayesBackend for FloatBackend<'_> {
    /// One chunk's suffix workspace, rebuilt only when it was not
    /// built for the prepared input, boundary and walk size.
    type Scratch = Option<ExecScratch>;

    fn info(&self, input: Shape4) -> ModelInfo {
        ModelInfo {
            name: if self.fused { "fused" } else { "float" },
            n_sites: self.graph.n_sites(),
            site_channels: self.graph.site_channels(input),
            output_classes: self.graph.infer_shapes(input)[self.graph.output_id()].item_len(),
        }
    }

    fn prepare(&mut self, x: &Tensor, active: &[bool]) {
        let from = first_active_site_node(self.graph, active)
            .map_or(self.graph.output_id(), |site_node| site_node - 1);
        let reuse = self.prepared.take().map(|p| p.prefix);
        self.prepared = Some(FloatPrepared {
            shape: x.shape(),
            prefix: self.graph.forward_prefix_with(
                x,
                from,
                &MaskSet::none(),
                reuse,
                &mut self.prefix_cols,
            ),
            from,
        });
    }

    fn scratches(&mut self) -> &mut Vec<Option<ExecScratch>> {
        &mut self.scratches
    }

    fn forward_batch(
        &self,
        mask_sets: &[MaskSet],
        scratch: &mut Option<ExecScratch>,
    ) -> Vec<Tensor> {
        let p = self.prepared();
        let cut = if self.fused { mask_sets.len() } else { 1 };
        let mut passes = Vec::with_capacity(mask_sets.len());
        for chunk in mask_sets.chunks(cut.max(1)) {
            let workspace = match scratch {
                Some(sc) if sc.built_for(p.shape, p.from, chunk.len()) => sc,
                _ => scratch.insert(
                    self.graph
                        .stacked_scratch_after(p.shape, p.from, chunk.len()),
                ),
            };
            let mut logits = self
                .graph
                .forward_from_stacked(&p.prefix, p.from, chunk, workspace);
            let (rows, k) = (logits.shape().n, logits.shape().item_len());
            softmax_rows(logits.as_mut_slice(), rows, k);
            // Split the stacked (s·n, k) rows back into per-sample
            // (n, k) probability tensors.
            let base = rows / chunk.len();
            passes.extend((0..chunk.len()).map(|si| {
                let sample = &logits.as_slice()[si * base * k..(si + 1) * base * k];
                Tensor::from_vec(Shape4::vec(base, k), sample.to_vec())
            }));
        }
        passes
    }

    fn model_cost(&self, bayes: BayesConfig) -> Option<ModelCost> {
        Some(ModelCost {
            cycles: 0,
            latency_ms: 0.0,
            mem_bytes: weight_stream_bytes(self.graph, bayes, self.fused),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::models;

    /// One-group run on a fresh software stream.
    fn solo<B: BayesBackend>(
        engine: Engine<'_>,
        backend: &mut B,
        x: &Tensor,
        cfg: BayesConfig,
        seed: u64,
    ) -> RequestResult {
        let mut src = SoftwareMaskSource::new(seed);
        RequestResult::single(engine.run(backend, Plan::one(x, &mut src), cfg))
    }

    #[test]
    fn deterministic_run_does_not_consume_masks() {
        let net = models::lenet5(10, 1, 16, 4);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.2);
        let cfg = BayesConfig {
            l: 0,
            s: 3,
            p: 0.25,
        };
        let mut backend = FloatBackend::new(&net);
        let mut src = SoftwareMaskSource::new(3);
        let passes =
            RequestResult::single(Engine::serial().run(&mut backend, Plan::one(&x, &mut src), cfg))
                .passes;
        assert_eq!(passes.len(), 3);
        for p in &passes[1..] {
            assert_eq!(p.as_slice(), passes[0].as_slice());
        }
        // The untouched source still matches a fresh one.
        let mut fresh = SoftwareMaskSource::new(3);
        let a = src.next_masks(&[true], &[8], 0.25);
        let b = fresh.next_masks(&[true], &[8], 0.25);
        assert_eq!(
            a.get(0).map(|m| m.keep.clone()),
            b.get(0).map(|m| m.keep.clone())
        );
    }

    #[test]
    fn batched_engine_accumulates_cost() {
        let net = models::lenet5(10, 1, 16, 6);
        let xs = Tensor::full(Shape4::new(5, 1, 16, 16), 0.1);
        let cfg = BayesConfig::new(1, 2);
        let mut backend = FloatBackend::new(&net);
        let mut src = SoftwareMaskSource::new(9);
        let (probs, cost) = RequestResult::stacked(&Engine::serial().run(
            &mut backend,
            Plan::batched(&xs, 2, &mut src),
            cfg,
        ));
        assert_eq!(probs.shape(), Shape4::vec(5, 10));
        assert_eq!(cost.batch, 5);
        assert_eq!(cost.samples, 3 * 2, "S per batch, summed over 3 batches");
    }

    #[test]
    fn fused_backend_bit_identical_to_float_backend() {
        let net = models::lenet5(10, 1, 16, 13);
        let x = Tensor::from_vec(
            Shape4::new(3, 1, 16, 16),
            (0..3 * 256)
                .map(|i| ((i * 11 % 23) as f32 / 11.0) - 1.0)
                .collect(),
        );
        for l in [1usize, 3, 5] {
            let cfg = BayesConfig::new(l, 7);
            let mut float = FloatBackend::new(&net);
            let want = solo(Engine::serial(), &mut float, &x, cfg, 42).probs;
            let pool = WorkerPool::new(3);
            for threads in [1usize, 4] {
                let mut fused = FloatBackend::fused(&net);
                let engine = Engine::new(&pool, ParallelConfig::with_threads(threads));
                let got = solo(engine, &mut fused, &x, cfg, 42);
                assert_eq!(
                    got.probs.as_slice(),
                    want.as_slice(),
                    "fused(L={l}, threads={threads}) diverged from float"
                );
                assert_eq!(got.cost.samples, cfg.s);
            }
        }
    }

    #[test]
    fn fused_per_sample_probs_match_float_per_sample() {
        // Not just the mean: every individual sample tensor agrees.
        let net = models::lenet5(10, 1, 16, 4);
        let x = Tensor::full(Shape4::new(2, 1, 16, 16), 0.3);
        let cfg = BayesConfig::new(2, 5);
        let mut float = FloatBackend::new(&net);
        let mut fused = FloatBackend::fused(&net);
        let a = solo(Engine::serial(), &mut float, &x, cfg, 8).passes;
        let b = solo(Engine::serial(), &mut fused, &x, cfg, 8).passes;
        assert_eq!(a.len(), b.len());
        for (s, (pa, pb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(pa.as_slice(), pb.as_slice(), "sample {s} diverged");
        }
    }

    #[test]
    fn fused_deterministic_fallback_matches_float() {
        let net = models::lenet5(10, 1, 16, 5);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.2);
        let cfg = BayesConfig {
            l: 0,
            s: 3,
            p: 0.25,
        };
        let mut float = FloatBackend::new(&net);
        let mut fused = FloatBackend::fused(&net);
        let want = solo(Engine::serial(), &mut float, &x, cfg, 1).probs;
        let got = solo(Engine::serial(), &mut fused, &x, cfg, 1).probs;
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn served_request_bit_identical_solo_vs_coalesced() {
        // The coalescing-invariance contract at the engine level: a
        // request's probabilities are a pure function of (input, seed,
        // config) — never of its neighbors, its position, the
        // schedule or the pool.
        let net = models::lenet5(10, 1, 16, 9);
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| {
                Tensor::from_vec(
                    Shape4::new(1, 1, 16, 16),
                    (0..256)
                        .map(|j| ((i * 7 + j * 3) % 17) as f32 / 8.5 - 1.0)
                        .collect(),
                )
            })
            .collect();
        let cfg = BayesConfig::new(3, 6);

        // Solo reference per request, from a fresh backend each time.
        let alone: Vec<Tensor> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let mut backend = FloatBackend::new(&net);
                solo(Engine::serial(), &mut backend, x, cfg, 100 + i as u64).probs
            })
            .collect();

        let requests: Vec<(&Tensor, u64)> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| (x, 100 + i as u64))
            .collect();
        let pool = WorkerPool::new(4);
        for parallel in [
            ParallelConfig::serial(),
            ParallelConfig::with_threads(3),
            ParallelConfig::with_threads(6),
        ] {
            // One resident backend serving the coalesced micro-batch —
            // and, crucially, the same backend reused across calls with
            // different neighbor sets.
            let mut float = FloatBackend::new(&net);
            let mut fused = FloatBackend::fused(&net);
            let engine = Engine::new(&pool, parallel);
            for subset in [&requests[..], &requests[2..3], &requests[1..4]] {
                for (req, out) in
                    subset
                        .iter()
                        .zip(engine.run(&mut float, Plan::requests(subset), cfg))
                {
                    let want = &alone[(req.1 - 100) as usize];
                    assert_eq!(
                        out.probs.as_slice(),
                        want.as_slice(),
                        "float request seed {} diverged under {parallel:?}",
                        req.1
                    );
                    assert_eq!(out.passes.len(), cfg.s);
                    assert_eq!(out.cost.samples, cfg.s);
                    assert_eq!(out.cost.batch, 1);
                }
                for (req, out) in
                    subset
                        .iter()
                        .zip(engine.run(&mut fused, Plan::requests(subset), cfg))
                {
                    let want = &alone[(req.1 - 100) as usize];
                    assert_eq!(
                        out.probs.as_slice(),
                        want.as_slice(),
                        "fused request seed {} diverged under {parallel:?}",
                        req.1
                    );
                }
            }
        }
    }

    #[test]
    fn served_request_matches_solo_sample_probs_per_pass() {
        // Not just the mean: every per-sample pass agrees with solo
        // serving, which is what the uncertainty decomposition eats.
        let net = models::lenet5(10, 1, 16, 4);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.3);
        let other = Tensor::full(Shape4::new(1, 1, 16, 16), -0.4);
        let cfg = BayesConfig::new(2, 5);
        let mut backend = FloatBackend::new(&net);
        let want = solo(Engine::serial(), &mut backend, &x, cfg, 77).passes;
        let requests = [(&other, 1), (&x, 77)];
        let out = Engine::serial().run(&mut backend, Plan::requests(&requests), cfg);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].passes.len(), want.len());
        for (s, (a, b)) in want.iter().zip(&out[1].passes).enumerate() {
            assert_eq!(a.as_slice(), b.as_slice(), "pass {s} diverged");
        }
    }

    #[test]
    fn served_requests_deterministic_and_empty_edges() {
        let net = models::lenet5(10, 1, 16, 3);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.2);
        // L = 0: no active site, seeds are irrelevant, the passes
        // replicate one deterministic forward.
        let cfg = BayesConfig {
            l: 0,
            s: 3,
            p: 0.25,
        };
        let mut backend = FloatBackend::new(&net);
        let requests = [(&x, 1), (&x, 2)];
        let out = Engine::serial().run(&mut backend, Plan::requests(&requests), cfg);
        assert_eq!(out[0].probs.as_slice(), out[1].probs.as_slice());
        // Empty micro-batch: no work, no panic.
        let none = Engine::serial().run(&mut backend, Plan::requests(&[]), cfg);
        assert!(none.is_empty());
    }

    #[test]
    fn fused_counts_suffix_weight_traffic_once_per_layer() {
        let net = models::lenet5(10, 1, 16, 2);
        let float = FloatBackend::new(&net);
        let fused = FloatBackend::fused(&net);
        let float_cost = |cfg: BayesConfig| float.model_cost(cfg).unwrap().mem_bytes;
        let fused_cost = |cfg: BayesConfig| fused.model_cost(cfg).unwrap().mem_bytes;

        // Fused traffic is independent of S; float grows linearly.
        assert_eq!(
            fused_cost(BayesConfig::new(2, 10)),
            fused_cost(BayesConfig::new(2, 50))
        );
        let (f10, f50) = (
            float_cost(BayesConfig::new(2, 10)),
            float_cost(BayesConfig::new(2, 50)),
        );
        assert!(f50 > f10, "float weight traffic must grow with S");
        // The regression identity: float(S) = prefix + S·suffix and
        // fused = prefix + suffix, so the slope recovers the suffix.
        let suffix = (f10 - fused_cost(BayesConfig::new(2, 10))) / 9;
        assert!(suffix > 0, "the Bayesian suffix contains weight layers");
        assert_eq!(
            f50 - f10,
            40 * suffix,
            "float slope must be the suffix weight bytes"
        );
        // Deterministic runs stream everything exactly once on both.
        let det = BayesConfig {
            l: 0,
            s: 25,
            p: 0.25,
        };
        assert_eq!(float_cost(det), fused_cost(det));
    }
}
