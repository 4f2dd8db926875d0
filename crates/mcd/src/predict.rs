//! The configuration types of Monte Carlo predictive inference —
//! [`BayesConfig`] (`{L, S, p}`) and the [`ParallelConfig`] work
//! schedule — plus the two pure helpers every front end shares
//! ([`active_sites`], [`mean_probs`]).
//!
//! The `S` Monte Carlo forward passes are embarrassingly parallel —
//! the insight both the DAC'21 accelerator and VIBNN bank sampler
//! units around. The software analogue lives in
//! [`crate::backend::Engine`]: all mask sets are drawn *serially* from
//! the mask source (so the deterministic stream is identical whatever
//! the thread count), then the Bayesian-suffix re-runs execute as
//! contiguous chunks on a persistent [`crate::WorkerPool`]. The
//! predictive mean is reduced in sample order, making every
//! [`ParallelConfig`] schedule bit-identical to the serial one.

use bnn_tensor::Tensor;
use std::num::NonZeroUsize;

/// A partial Bayesian configuration: the last `l` of the network's `N`
/// weight layers are Bayesian and the predictive distribution averages
/// `s` Monte Carlo samples at dropout probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BayesConfig {
    /// Trailing Bayesian layers `L` (clamped to `N` at use).
    pub l: usize,
    /// Monte Carlo samples `S`.
    pub s: usize,
    /// Dropout probability (paper default 0.25).
    pub p: f32,
}

impl BayesConfig {
    /// Config with the paper's `p = 0.25`.
    pub fn new(l: usize, s: usize) -> BayesConfig {
        BayesConfig { l, s, p: 0.25 }
    }

    /// The paper's `S` sweep domain.
    pub fn s_domain() -> &'static [usize] {
        &[3, 4, 5, 6, 7, 8, 9, 10, 20, 50, 100]
    }

    /// The paper's `L` sweep domain for an `N`-layer network:
    /// `{1, N/3, N/2, 2N/3, N}` (deduplicated, ascending).
    pub fn l_domain(n: usize) -> Vec<usize> {
        let mut ls = vec![
            1,
            (n as f64 / 3.0).ceil() as usize,
            (n as f64 / 2.0).ceil() as usize,
            (2.0 * n as f64 / 3.0).ceil() as usize,
            n,
        ];
        ls.sort_unstable();
        ls.dedup();
        ls
    }
}

/// The engine's work schedule: how the `S` Monte Carlo samples of one
/// group spread over a [`crate::WorkerPool`] — the engine's one
/// fan-out, as the paper's accelerator spreads them over its PEs.
///
/// [`ParallelConfig::threads`] splits a group's suffix re-runs into
/// `threads` contiguous sample chunks of `ceil(S / threads)` samples
/// each (the last one shorter), and a fusing backend stacks one chunk
/// per GEMM. The groups of a plan (dataset batches, coalesced
/// requests) always run in order on the one resident backend. The
/// mask stream is drawn serially and chunk results join in task
/// order, so the prediction is bit-identical at every thread count;
/// this only selects how the work is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Sample-axis fan-out for the suffix re-runs. `1` is the fully
    /// serial engine.
    pub threads: usize,
}

impl ParallelConfig {
    /// One sample-axis worker per available CPU.
    pub fn max_parallel() -> ParallelConfig {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        ParallelConfig { threads }
    }

    /// Serial sampling: no sample-level workers, and no kernel below
    /// the engine creates a thread, so the whole pass runs on the
    /// caller.
    pub fn serial() -> ParallelConfig {
        ParallelConfig { threads: 1 }
    }

    /// Exactly `threads` sample-axis workers (clamped to at least
    /// one).
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// The validated form of this schedule: at least one thread.
    ///
    /// [`ParallelConfig::with_threads`] already clamps, but plain
    /// struct construction can still produce zero `threads` — a
    /// meaningless schedule (there is no way to run samples on zero
    /// workers; the calling thread always participates).
    /// [`crate::Engine::new`] normalizes through here, exactly once,
    /// so a zero behaves as the serial setting instead of panicking
    /// deep in the engine.
    pub fn normalized(mut self) -> ParallelConfig {
        self.threads = self.threads.max(1);
        self
    }

    /// Resident workers a dedicated [`crate::WorkerPool`] needs so
    /// this schedule never waits on a busy worker: one per sample
    /// chunk minus the calling thread (which always helps). The
    /// serial default wants zero — a pool that executes inline.
    pub fn pool_workers(&self) -> usize {
        self.normalized().threads - 1
    }
}

impl Default for ParallelConfig {
    /// [`ParallelConfig::serial`] — deterministic, spawns nothing.
    /// Builder APIs (`Session`) compose from this predictable default;
    /// opt into threads with [`ParallelConfig::max_parallel`] or
    /// [`ParallelConfig::with_threads`]. (Results are bit-identical
    /// either way; only wall-clock changes.)
    fn default() -> ParallelConfig {
        ParallelConfig::serial()
    }
}

/// Active-site flags for "last `l` of `n` sites".
pub fn active_sites(n: usize, l: usize) -> Vec<bool> {
    let l = l.min(n);
    let mut v = vec![false; n];
    for site in v.iter_mut().skip(n - l) {
        *site = true;
    }
    v
}

/// Average the first `s` per-pass probability tensors.
///
/// # Panics
///
/// Panics if `s == 0` or `s > passes.len()`.
pub fn mean_probs(passes: &[Tensor], s: usize) -> Tensor {
    assert!(s > 0 && s <= passes.len(), "invalid sample count {s}");
    let shape = passes[0].shape();
    let mut acc = Tensor::zeros(shape);
    for p in &passes[..s] {
        bnn_tensor::add_inplace(acc.as_mut_slice(), p.as_slice());
    }
    let inv = 1.0 / s as f32;
    acc.map_inplace(|v| v * inv);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Engine, FloatBackend, Plan, RequestResult};
    use crate::pool::WorkerPool;
    use crate::source::{MaskSource, SoftwareMaskSource};
    use bnn_nn::{models, Graph};
    use bnn_tensor::{softmax_rows, Shape4};

    /// One-group float-backend run on a pool sized for `parallel`.
    fn run_float(
        net: &Graph,
        parallel: ParallelConfig,
        x: &Tensor,
        cfg: BayesConfig,
        src: &mut dyn MaskSource,
    ) -> RequestResult {
        let pool = WorkerPool::new(parallel.pool_workers());
        let mut backend = FloatBackend::new(net);
        RequestResult::single(Engine::new(&pool, parallel).run(
            &mut backend,
            Plan::one(x, src),
            cfg,
        ))
    }

    #[test]
    fn l_domain_matches_paper() {
        assert_eq!(BayesConfig::l_domain(18), vec![1, 6, 9, 12, 18]);
        assert_eq!(BayesConfig::l_domain(11), vec![1, 4, 6, 8, 11]);
        assert_eq!(BayesConfig::l_domain(5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn active_sites_trailing() {
        assert_eq!(active_sites(5, 2), vec![false, false, false, true, true]);
        assert_eq!(active_sites(3, 99), vec![true, true, true]);
    }

    #[test]
    fn predictive_rows_are_distributions() {
        let net = models::lenet5(10, 1, 16, 3);
        let x = Tensor::full(Shape4::new(3, 1, 16, 16), 0.1);
        let mut src = SoftwareMaskSource::new(1);
        let cfg = BayesConfig::new(3, 4);
        let out = run_float(&net, ParallelConfig::max_parallel(), &x, cfg, &mut src);
        for i in 0..3 {
            let s: f32 = out.probs.item(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        assert_eq!(out.cost.samples, 4);
        assert_eq!(out.cost.batch, 3);
        assert!(out.cost.wall_ms >= 0.0);
        let model = out.cost.model.expect("software paths model weight traffic");
        assert_eq!(model.cycles, 0, "CPU path has no cycle model");
        assert!(model.mem_bytes > 0, "weight traffic must be reported");
    }

    #[test]
    fn ic_path_matches_full_forward() {
        // Prefix caching must give bit-identical logits to running the
        // whole network with the same masks.
        let net = models::lenet5(10, 1, 16, 5);
        let x = Tensor::full(Shape4::new(2, 1, 16, 16), 0.2);
        let cfg = BayesConfig::new(2, 3);
        let mut src_a = SoftwareMaskSource::new(7);
        let mut src_b = SoftwareMaskSource::new(7);

        let fast = run_float(&net, ParallelConfig::max_parallel(), &x, cfg, &mut src_a).passes;

        // Reference: full forward per pass with the same mask stream.
        let active = active_sites(net.n_sites(), cfg.l);
        let channels = net.site_channels(x.shape());
        for f in fast.iter().take(cfg.s) {
            let masks = src_b.next_masks(&active, &channels, cfg.p);
            let mut logits = net.forward(&x, &masks);
            let s = logits.shape();
            softmax_rows(logits.as_mut_slice(), s.n, s.item_len());
            assert!(
                f.max_abs_diff(&logits) < 1e-6,
                "IC path diverged from full forward"
            );
        }
    }

    #[test]
    fn zero_l_gives_deterministic_predictive() {
        let net = models::lenet5(10, 1, 16, 5);
        let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.3);
        let mut src = SoftwareMaskSource::new(2);
        let cfg = BayesConfig {
            l: 0,
            s: 4,
            p: 0.25,
        };
        let passes = run_float(&net, ParallelConfig::max_parallel(), &x, cfg, &mut src).passes;
        for p in &passes[1..] {
            assert_eq!(p.as_slice(), passes[0].as_slice());
        }
    }

    #[test]
    fn zeroed_schedule_axes_normalize_to_serial() {
        // Plain struct construction bypasses the clamping builder;
        // `normalized` is the one place that fixes it up.
        let zeroed = ParallelConfig { threads: 0 };
        assert_eq!(zeroed.normalized().threads, 1);
        assert_eq!(zeroed.pool_workers(), 0, "zero threads want no workers");
        assert_eq!(
            ParallelConfig::serial().normalized(),
            ParallelConfig::serial()
        );

        // The engine serves a zeroed schedule bit-identically to the
        // serial one instead of panicking.
        let net = models::lenet5(10, 1, 16, 2);
        let x = Tensor::full(Shape4::new(2, 1, 16, 16), 0.1);
        let cfg = BayesConfig::new(2, 3);
        let mut src = SoftwareMaskSource::new(4);
        let want = run_float(&net, ParallelConfig::serial(), &x, cfg, &mut src).probs;
        let mut src = SoftwareMaskSource::new(4);
        let got = run_float(&net, zeroed, &x, cfg, &mut src).probs;
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn mean_probs_prefix_average() {
        let a = Tensor::from_vec(Shape4::vec(1, 2), vec![1.0, 0.0]);
        let b = Tensor::from_vec(Shape4::vec(1, 2), vec![0.0, 1.0]);
        let m = mean_probs(&[a, b], 2);
        assert_eq!(m.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn batched_predictive_matches_single() {
        let net = models::lenet5(10, 1, 16, 8);
        let xs = Tensor::full(Shape4::new(5, 1, 16, 16), 0.1);
        let cfg = BayesConfig::new(1, 2);
        // With batch = n the masks align; just check shape + rows.
        let mut src = SoftwareMaskSource::new(3);
        let mut backend = FloatBackend::new(&net);
        let (probs, _) = RequestResult::stacked(&Engine::serial().run(
            &mut backend,
            Plan::batched(&xs, 5, &mut src),
            cfg,
        ));
        assert_eq!(probs.shape(), Shape4::vec(5, 10));
        // One group covering the dataset is the unbatched predictive.
        let single = run_float(
            &net,
            ParallelConfig::serial(),
            &xs,
            cfg,
            &mut SoftwareMaskSource::new(3),
        );
        assert_eq!(probs.as_slice(), single.probs.as_slice());
    }
}
