//! Timeout-guarded stress tests for the persistent worker pool and
//! the pooled sampling engine.
//!
//! What these pin down, beyond the bit-identity properties:
//!
//! * one shared [`WorkerPool`] survives many sequential *and*
//!   concurrent predictive calls (several callers' sample chunks
//!   queued at once) without deadlock — every test body runs under a
//!   hard watchdog deadline, so a wedged queue fails loudly instead of
//!   hanging CI;
//! * the zero-sample and single-sample edges behave: `S = 0` panics
//!   the *call* (cleanly, pool intact), `S = 1` serves;
//! * a panicking backend poisons its own call, not the process — the
//!   pool's workers keep serving afterwards, and so does the resident
//!   backend, its lent scratches rebuilt from `Default`.

use bnn_mcd::{
    BayesBackend, BayesConfig, CostReport, Engine, FloatBackend, MaskSource, ModelInfo,
    ParallelConfig, Plan, RequestResult, SoftwareMaskSource, WorkerPool,
};
use bnn_nn::{models, Graph, MaskSet};
use bnn_tensor::{Shape4, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Run `body` on a fresh thread and fail the test if it has not
/// finished within `secs` — the deadlock guard for everything below.
fn with_deadline<F: FnOnce() + Send + 'static>(secs: u64, body: F) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("stress body panicked"),
        Err(_) => panic!("stress test exceeded {secs}s — engine deadlock?"),
    }
}

/// Unbatched predictive of `x` under `parallel` on `pool`.
fn predictive<B: BayesBackend>(
    backend: &mut B,
    x: &Tensor,
    cfg: BayesConfig,
    src: &mut dyn MaskSource,
    parallel: ParallelConfig,
    pool: &WorkerPool,
) -> (Tensor, CostReport) {
    let out =
        RequestResult::single(Engine::new(pool, parallel).run(backend, Plan::one(x, src), cfg));
    (out.probs, out.cost)
}

/// `xs` served one item per group under `parallel` on `pool`.
fn predictive_by_item<B: BayesBackend>(
    backend: &mut B,
    xs: &Tensor,
    cfg: BayesConfig,
    src: &mut dyn MaskSource,
    parallel: ParallelConfig,
    pool: &WorkerPool,
) -> Tensor {
    RequestResult::stacked(&Engine::new(pool, parallel).run(
        backend,
        Plan::batched(xs, 1, src),
        cfg,
    ))
    .0
}

fn test_net() -> Graph {
    models::lenet5(10, 1, 16, 7)
}

fn test_input(n: usize) -> Tensor {
    Tensor::from_vec(
        Shape4::new(n, 1, 16, 16),
        (0..n * 256)
            .map(|i| ((i * 13 % 31) as f32 / 15.0) - 1.0)
            .collect(),
    )
}

#[test]
fn shared_pool_serves_sequential_and_concurrent_calls() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let pool = Arc::new(WorkerPool::new(4));
        let cfg = BayesConfig::new(3, 6);
        let x = test_input(2);

        // Reference prediction per seed, on an inline pool.
        let reference = |seed: u64| {
            let inline = WorkerPool::new(0);
            let mut backend = FloatBackend::new(&net);
            predictive(
                &mut backend,
                &x,
                cfg,
                &mut SoftwareMaskSource::new(seed),
                ParallelConfig::serial(),
                &inline,
            )
            .0
        };

        // Many sequential calls through the one pool, mixed schedules.
        let mut backend = FloatBackend::new(&net);
        for round in 0..12u64 {
            let parallel = match round % 3 {
                0 => ParallelConfig::with_threads(4),
                1 => ParallelConfig::with_threads(6),
                _ => ParallelConfig::serial(),
            };
            let (probs, _) = predictive(
                &mut backend,
                &x,
                cfg,
                &mut SoftwareMaskSource::new(round),
                parallel,
                &pool,
            );
            assert_eq!(
                probs.as_slice(),
                reference(round).as_slice(),
                "sequential call {round} diverged"
            );
        }

        // Concurrent callers (each its own backend + seed) sharing the
        // pool, each fanning its samples out over it.
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let net = Arc::clone(&net);
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let xs = test_input(3);
                let mut backend = FloatBackend::new(&net);
                let parallel = ParallelConfig::with_threads(4);
                let mut results = Vec::new();
                for round in 0..4u64 {
                    let seed = t * 1000 + round;
                    let probs = predictive_by_item(
                        &mut backend,
                        &xs,
                        cfg,
                        &mut SoftwareMaskSource::new(seed),
                        parallel,
                        &pool,
                    );
                    results.push((seed, probs));
                }
                results
            }));
        }
        for join in joins {
            for (seed, probs) in join.join().expect("caller thread survived") {
                let inline = WorkerPool::new(0);
                let mut serial = FloatBackend::new(&net);
                let xs = test_input(3);
                let want = predictive_by_item(
                    &mut serial,
                    &xs,
                    cfg,
                    &mut SoftwareMaskSource::new(seed),
                    ParallelConfig::serial(),
                    &inline,
                );
                assert_eq!(
                    probs.as_slice(),
                    want.as_slice(),
                    "concurrent call (seed {seed}) diverged"
                );
            }
        }
    });
}

#[test]
fn zero_and_single_sample_edges() {
    with_deadline(60, || {
        let net = test_net();
        let pool = WorkerPool::new(4);
        let x = test_input(1);

        // S = 0 must panic the call — cleanly, without wedging the pool.
        let err = catch_unwind(AssertUnwindSafe(|| {
            let mut backend = FloatBackend::new(&net);
            predictive(
                &mut backend,
                &x,
                BayesConfig {
                    l: 2,
                    s: 0,
                    p: 0.25,
                },
                &mut SoftwareMaskSource::new(1),
                ParallelConfig::with_threads(4),
                &pool,
            )
        }));
        assert!(err.is_err(), "S = 0 must panic the predictive call");

        // S = 1 serves on every schedule, through the same pool.
        let inline = WorkerPool::new(0);
        let mut serial = FloatBackend::new(&net);
        let cfg = BayesConfig::new(2, 1);
        let (want, _) = predictive(
            &mut serial,
            &x,
            cfg,
            &mut SoftwareMaskSource::new(7),
            ParallelConfig::serial(),
            &inline,
        );
        for parallel in [
            ParallelConfig::with_threads(4),
            ParallelConfig::with_threads(1),
        ] {
            let mut backend = FloatBackend::new(&net);
            let (got, cost) = predictive(
                &mut backend,
                &x,
                cfg,
                &mut SoftwareMaskSource::new(7),
                parallel,
                &pool,
            );
            assert_eq!(got.as_slice(), want.as_slice(), "S = 1 diverged");
            assert_eq!(cost.samples, 1);
        }
    });
}

/// A toy backend whose first pass panics. Its scratch owns heap memory
/// that every pass writes through, so the lent `&mut` crosses the
/// pool's lifetime-erasing `unsafe` as a real borrow (what the Miri job
/// over this file checks).
#[derive(Default)]
struct FlakyBackend {
    /// Set once the injected panic has fired.
    fired: AtomicBool,
    input: Vec<f32>,
    scratches: Vec<Vec<f32>>,
}

impl BayesBackend for FlakyBackend {
    type Scratch = Vec<f32>;

    fn info(&self, input: Shape4) -> ModelInfo {
        ModelInfo {
            name: "flaky",
            n_sites: 1,
            site_channels: vec![input.item_len()],
            output_classes: 2,
        }
    }

    fn prepare(&mut self, x: &Tensor, _active: &[bool]) {
        self.input = x.as_slice().to_vec();
    }

    fn scratches(&mut self) -> &mut Vec<Vec<f32>> {
        &mut self.scratches
    }

    /// Per sample: the masked, rescaled input staged in the scratch,
    /// its sum squashed into a two-class distribution.
    fn forward_batch(&self, mask_sets: &[MaskSet], scratch: &mut Vec<f32>) -> Vec<Tensor> {
        if !self.fired.swap(true, Ordering::SeqCst) {
            panic!("injected backend panic");
        }
        mask_sets
            .iter()
            .map(|masks| {
                let mask = masks.get(0).expect("the one site is active");
                scratch.clear();
                scratch.extend(self.input.iter().zip(&mask.keep).map(|(&v, &keep)| {
                    if keep {
                        v * mask.scale
                    } else {
                        0.0
                    }
                }));
                let p = 1.0 / (1.0 + (-scratch.iter().sum::<f32>()).exp());
                Tensor::from_vec(Shape4::vec(1, 2), vec![p, 1.0 - p])
            })
            .collect()
    }
}

#[test]
fn worker_panic_poisons_the_call_not_the_process() {
    with_deadline(60, || {
        let pool = WorkerPool::new(4);
        let x = test_input(1);
        let cfg = BayesConfig::new(1, 8);
        let four = ParallelConfig::with_threads(4);

        // One of this call's four sample chunks panics on the pool; the
        // call must re-throw on the caller and nothing else.
        let mut backend = FlakyBackend::default();
        let err = catch_unwind(AssertUnwindSafe(|| {
            predictive(
                &mut backend,
                &x,
                cfg,
                &mut SoftwareMaskSource::new(3),
                four,
                &pool,
            )
        }))
        .expect_err("backend panic must poison the predictive call");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "injected backend panic");
        assert!(
            backend.scratches().is_empty(),
            "the unwind dropped the lent scratches"
        );

        // The same pool and the same resident backend keep serving: its
        // scratches are rebuilt from `Default`, bit-identical to a fresh
        // backend's.
        let fresh = || FlakyBackend {
            fired: AtomicBool::new(true),
            ..FlakyBackend::default()
        };
        let inline = WorkerPool::new(0);
        let (want, _) = predictive(
            &mut fresh(),
            &x,
            cfg,
            &mut SoftwareMaskSource::new(9),
            ParallelConfig::serial(),
            &inline,
        );
        let (got, _) = predictive(
            &mut backend,
            &x,
            cfg,
            &mut SoftwareMaskSource::new(9),
            four,
            &pool,
        );
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "the resident backend must survive a poisoned call"
        );
        assert_eq!(backend.scratches().len(), 4, "one scratch per chunk");
    });
}
