//! The parallel sampling engine against the serial one.
//!
//! The engine's contract is strict: because all `S` mask sets are
//! drawn serially before any worker starts, and the predictive mean
//! reduces in sample order, the result must be *bit-identical* for
//! every thread count — which trivially satisfies the 1e-6 acceptance
//! bound.

use bnn_mcd::{
    BayesConfig, Engine, FloatBackend, MaskSource, ParallelConfig, Plan, RequestResult,
    SoftwareMaskSource, WorkerPool,
};
use bnn_nn::{models, Graph};
use bnn_tensor::{Shape4, Tensor};
use proptest::prelude::*;

/// One float-backend run of `x` at `threads` sample-axis workers, on a
/// pool sized for them, continuing `src`.
fn run(
    net: &Graph,
    threads: usize,
    x: &Tensor,
    cfg: BayesConfig,
    src: &mut dyn MaskSource,
) -> RequestResult {
    let parallel = ParallelConfig::with_threads(threads);
    let pool = WorkerPool::new(parallel.pool_workers());
    let mut backend = FloatBackend::new(net);
    RequestResult::single(Engine::new(&pool, parallel).run(&mut backend, Plan::one(x, src), cfg))
}

fn input(n: usize, hw: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let data = (0..n * hw * hw)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(Shape4::new(n, 1, hw, hw), data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `predictive` with `threads > 1` is bit-identical to the serial
    /// path given the same `MaskSource` seed.
    #[test]
    fn parallel_predictive_matches_serial(
        seed in 0u64..1000,
        l in 1usize..4,
        s in 1usize..9,
        threads in 2usize..6,
        batch in 1usize..3,
    ) {
        let net = models::lenet5(10, 1, 16, seed % 17);
        let x = input(batch, 16, seed);
        let cfg = BayesConfig::new(l, s);

        let serial = run(&net, 1, &x, cfg, &mut SoftwareMaskSource::new(seed)).probs;
        let parallel = run(&net, threads, &x, cfg, &mut SoftwareMaskSource::new(seed)).probs;

        prop_assert_eq!(
            serial.as_slice(),
            parallel.as_slice(),
            "thread count changed the predictive distribution"
        );
    }

    /// The per-sample probability tensors (not just their mean) agree,
    /// and both paths consume the mask stream at the same rate: a
    /// source re-used after one engine hands the *other* engine the
    /// same continuation stream.
    #[test]
    fn sample_stream_alignment_across_engines(seed in 0u64..500, s in 2usize..6) {
        let net = models::lenet5(10, 1, 16, 3);
        let x = input(1, 16, seed);
        let cfg = BayesConfig::new(2, s);

        let mut src_serial = SoftwareMaskSource::new(seed);
        let mut src_parallel = SoftwareMaskSource::new(seed);

        // Round 1: the per-sample tensors agree element-wise.
        let a = run(&net, 1, &x, cfg, &mut src_serial).passes;
        let b = run(&net, 4, &x, cfg, &mut src_parallel).passes;
        prop_assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            prop_assert!(pa.max_abs_diff(pb) == 0.0, "per-sample probabilities diverged");
        }

        // Round 2: cross over the sources — both engines must have
        // advanced their streams identically.
        let a2 = run(&net, 1, &x, cfg, &mut src_parallel).probs;
        let b2 = run(&net, 4, &x, cfg, &mut src_serial).probs;
        prop_assert_eq!(a2.as_slice(), b2.as_slice(), "mask streams advanced differently");
    }
}

#[test]
fn oversubscribed_thread_count_is_clamped() {
    // More threads than samples must still produce the exact stream.
    let net = models::lenet5(10, 1, 16, 2);
    let x = input(1, 16, 9);
    let cfg = BayesConfig::new(2, 3);
    let serial = run(&net, 1, &x, cfg, &mut SoftwareMaskSource::new(5)).probs;
    let wide = run(&net, 64, &x, cfg, &mut SoftwareMaskSource::new(5)).probs;
    assert_eq!(serial.as_slice(), wide.as_slice());
}

#[test]
fn default_parallelism_is_at_least_one_thread() {
    assert!(ParallelConfig::default().threads >= 1);
    assert_eq!(ParallelConfig::serial().threads, 1);
    assert_eq!(ParallelConfig::with_threads(0).threads, 1);
}
