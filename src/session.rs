//! The `Session` serving API: one fluent pipeline from a trained
//! graph to Bayesian predictions on any execution substrate.
//!
//! A [`Session`] binds a graph, a [`Backend`] (float, int8 or the
//! simulated accelerator), a Bayesian configuration `{L, S, p}`, a
//! thread fan-out and a seeded mask source, and then serves
//! predictions through the *one* generic sampling engine
//! ([`bnn_mcd::Engine::run`]). The same seeded session produces the same
//! mask stream on every backend, so cross-substrate comparisons (the
//! paper's CPU/GPU/FPGA tables) are one-line diffs:
//!
//! ```
//! use bnn_fpga::mcd::BayesConfig;
//! use bnn_fpga::nn::models;
//! use bnn_fpga::tensor::{Shape4, Tensor};
//! use bnn_fpga::Session;
//!
//! let net = models::lenet5(10, 1, 16, 1);
//! let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.1);
//! let mut session = Session::for_graph(&net)
//!     .bayes(BayesConfig::new(2, 5))
//!     .seed(42)
//!     .build();
//! let probs = session.predictive(&x);
//! let sum: f32 = probs.item(0).iter().sum();
//! assert!((sum - 1.0).abs() < 1e-4);
//! assert!(session.last_cost().is_some());
//! ```

use bnn_mcd::{
    BayesBackend, BayesConfig, CostReport, Engine, FloatBackend, HardwareMaskSource, MaskSource,
    ModelInfo, ParallelConfig, Plan, RequestResult, SoftwareMaskSource, WorkerPool,
};
use bnn_nn::Graph;
use bnn_quant::Int8Backend;
use bnn_serve::Backend;
use bnn_tensor::{Shape4, Tensor};
use std::sync::Arc;

enum BackendImpl<'g> {
    /// [`Backend::Float`] and [`Backend::Fused`]: one type, two cuts
    /// of the sample chunk.
    F32(FloatBackend<'g>),
    /// [`Backend::Int8`] and [`Backend::Accel`]: one type, without and
    /// with the accelerator's analytic cost model attached.
    Int8(Int8Backend),
}

/// Dispatch a generic call to the session's concrete backend.
macro_rules! with_backend {
    ($inner:expr, $b:ident => $body:expr) => {
        match $inner {
            BackendImpl::F32($b) => $body,
            BackendImpl::Int8($b) => $body,
        }
    };
}

impl BackendImpl<'_> {
    /// The one engine call of the session, on its concrete backend.
    fn run(&mut self, engine: Engine<'_>, plan: Plan<'_>, cfg: BayesConfig) -> Vec<RequestResult> {
        with_backend!(self, b => engine.run(b, plan, cfg))
    }
}

enum SourceChoice {
    /// Software PRNG masks from a seed (the default).
    Software(u64),
    /// Bit-exact hardware LFSR Bernoulli masks from a seed
    /// (`p` must be 0.25, the paper's configuration).
    Hardware(u64),
}

/// Builder for a [`Session`]; see [`Session::for_graph`].
pub struct SessionBuilder<'g> {
    graph: &'g Graph,
    backend: Backend,
    bayes: BayesConfig,
    parallel: ParallelConfig,
    source: SourceChoice,
    pool: Option<Arc<WorkerPool>>,
}

impl<'g> SessionBuilder<'g> {
    /// Select the execution substrate (default: [`Backend::Fused`],
    /// as for a [`crate::Server`] — bit-identical to the per-sample
    /// reference [`Backend::Float`], and faster).
    pub fn backend(mut self, backend: Backend) -> SessionBuilder<'g> {
        self.backend = backend;
        self
    }

    /// Bayesian configuration `{L, S, p}` (default: `L = 1, S = 10,
    /// p = 0.25`).
    pub fn bayes(mut self, bayes: BayesConfig) -> SessionBuilder<'g> {
        self.bayes = bayes;
        self
    }

    /// The work schedule — how many `threads` the Monte Carlo passes
    /// of each input batch are split over (default:
    /// [`ParallelConfig::serial`]; results are bit-identical at any
    /// setting).
    pub fn parallel(mut self, parallel: ParallelConfig) -> SessionBuilder<'g> {
        self.parallel = parallel;
        self
    }

    /// Use this [`WorkerPool`] instead of the session's own (default:
    /// one sized by [`ParallelConfig::pool_workers`] — zero resident
    /// workers, i.e. inline execution, for the serial default). Pass a
    /// shared pool to serve several sessions from one resident thread
    /// team.
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> SessionBuilder<'g> {
        self.pool = Some(pool);
        self
    }

    /// Seed the software mask source (default seed 0).
    pub fn seed(mut self, seed: u64) -> SessionBuilder<'g> {
        self.source = SourceChoice::Software(seed);
        self
    }

    /// Draw masks from the bit-exact hardware LFSR Bernoulli sampler
    /// instead of the software PRNG (requires `p = 0.25`).
    pub fn hardware_masks(mut self, seed: u64) -> SessionBuilder<'g> {
        self.source = SourceChoice::Hardware(seed);
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Session<'g> {
        let backend_name = self.backend.name();
        let inner = match self.backend {
            Backend::Float => BackendImpl::F32(FloatBackend::new(self.graph)),
            Backend::Fused => BackendImpl::F32(FloatBackend::fused(self.graph)),
            Backend::Int8(qg) => BackendImpl::Int8(Int8Backend::new(qg)),
            Backend::Accel(accel) => BackendImpl::Int8(accel.into_backend()),
        };
        let source: Box<dyn MaskSource + Send> = match self.source {
            SourceChoice::Software(seed) => Box::new(SoftwareMaskSource::new(seed)),
            SourceChoice::Hardware(seed) => Box::new(HardwareMaskSource::paper_default(seed)),
        };
        let pool = self
            .pool
            .unwrap_or_else(|| Arc::new(WorkerPool::new(self.parallel.pool_workers())));
        Session {
            inner,
            backend_name,
            bayes: self.bayes,
            parallel: self.parallel,
            source,
            pool,
            last_cost: None,
        }
    }
}

/// A serving session: train → quantize → serve as one fluent
/// pipeline, generic over the execution substrate.
///
/// Construct with [`Session::for_graph`]. Every predictive call
/// advances the session's mask stream (like a [`MaskSource`]), so a
/// sequence of calls is one reproducible experiment, and
/// [`Session::last_cost`] reports the most recent run's wall time
/// plus — on the accelerator — its modelled cycles, latency and
/// off-chip traffic.
///
/// # Pool configuration
///
/// Every session owns (or shares) a persistent [`WorkerPool`]: its
/// worker threads are created once at `build` and every predictive
/// call executes its sample chunks on them, so no call pays per-call
/// thread spawn. The pool is sized by the configured
/// [`ParallelConfig`] — the serial default gets a zero-worker pool
/// that runs inline — and can be replaced or shared across sessions
/// with [`SessionBuilder::pool`]. Predictions are bit-identical at
/// *any* pool size and any [`ParallelConfig`]: the schedule (`threads`
/// over each batch's Monte Carlo samples; the batch groups of
/// [`Session::predictive_batched`] run in order) only changes
/// wall-clock time.
pub struct Session<'g> {
    inner: BackendImpl<'g>,
    /// What the backend's own [`ModelInfo::name`] reads, known here
    /// without an input shape.
    backend_name: &'static str,
    bayes: BayesConfig,
    parallel: ParallelConfig,
    source: Box<dyn MaskSource + Send>,
    pool: Arc<WorkerPool>,
    last_cost: Option<CostReport>,
}

impl<'g> Session<'g> {
    /// Start building a session for a graph.
    ///
    /// The graph is the f32 source of truth; backends carrying their
    /// own compiled artefacts ([`Backend::Int8`], [`Backend::Accel`])
    /// must have been lowered from it (same site layout).
    pub fn for_graph(graph: &'g Graph) -> SessionBuilder<'g> {
        SessionBuilder {
            graph,
            backend: Backend::Fused,
            bayes: BayesConfig::new(1, 10),
            parallel: ParallelConfig::default(),
            source: SourceChoice::Software(0),
            pool: None,
        }
    }

    /// Predictive distribution `(n, k)` for an input batch
    /// (mean of `S` per-sample softmax probabilities). Updates
    /// [`Session::last_cost`].
    ///
    /// # Panics
    ///
    /// Panics on [`Backend::Accel`] if `x` has more than one item —
    /// the accelerator processes one image at a time; feed datasets
    /// through [`Session::predictive_batched`] with `batch = 1`.
    pub fn predictive(&mut self, x: &Tensor) -> Tensor {
        self.run_one(x).probs
    }

    /// Per-sample softmax probabilities (the paper's `S` sweep reuses
    /// prefixes of this list). Updates [`Session::last_cost`].
    pub fn sample_probs(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.run_one(x).passes
    }

    /// `x` as a one-group plan on the session's own mask stream.
    fn run_one(&mut self, x: &Tensor) -> RequestResult {
        let engine = Engine::new(&self.pool, self.parallel);
        let plan = Plan::one(x, self.source.as_mut());
        let out = RequestResult::single(self.inner.run(engine, plan, self.bayes));
        self.last_cost = Some(out.cost);
        out
    }

    /// Predictive over a dataset in batches of at most `batch` items.
    /// Updates [`Session::last_cost`] with the accumulated cost.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, or (on [`Backend::Accel`]) if
    /// `batch != 1`.
    pub fn predictive_batched(&mut self, xs: &Tensor, batch: usize) -> Tensor {
        let engine = Engine::new(&self.pool, self.parallel);
        let plan = Plan::batched(xs, batch, self.source.as_mut());
        let (probs, cost) = RequestResult::stacked(&self.inner.run(engine, plan, self.bayes));
        self.last_cost = Some(cost);
        probs
    }

    /// Serve a micro-batch of independently-seeded requests in one
    /// coalesced engine pass — the synchronous, in-thread form of the
    /// `bnn_fpga::serve::Server` front door.
    ///
    /// Each `(input, seed)` pair runs as its own batch group with its
    /// own mask stream, so every result is **bit-identical** to a
    /// solo `predictive` call on a fresh session seeded with that
    /// request's seed, whatever its neighbors (coalescing
    /// invariance). Unlike [`Session::predictive`], this does *not*
    /// consume the session's own mask stream — the seeds are the
    /// requests'. Each [`RequestResult`] carries the per-sample
    /// passes, the predictive mean and that request's cost slice.
    pub fn serve_requests(&mut self, requests: &[(&Tensor, u64)]) -> Vec<RequestResult> {
        let engine = Engine::new(&self.pool, self.parallel);
        self.inner.run(engine, Plan::requests(requests), self.bayes)
    }

    /// Cost report of the most recent predictive call.
    pub fn last_cost(&self) -> Option<&CostReport> {
        self.last_cost.as_ref()
    }

    /// The session's worker pool (share it with another session via
    /// [`SessionBuilder::pool`]).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The active backend's name (`"float"`, `"fused"`, `"int8"`,
    /// `"accel"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// The session's Bayesian configuration.
    pub fn bayes(&self) -> BayesConfig {
        self.bayes
    }

    /// The served network's geometry for an input shape: MCD site
    /// count, per-site mask lengths and output classes.
    pub fn info(&self, input: Shape4) -> ModelInfo {
        with_backend!(&self.inner, b => b.info(input))
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend_name())
            .field("bayes", &self.bayes)
            .field("parallel", &self.parallel)
            .field("pool_workers", &self.pool.workers())
            .field("last_cost", &self.last_cost)
            .finish()
    }
}
