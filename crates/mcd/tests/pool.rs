//! Property tests for the pooled engine schedule.
//!
//! The engine contract: predictions are a pure function of the graph,
//! the Bayesian config and the mask-source seed — *never* of the
//! schedule. These properties drive the sample axis through random
//! input counts, sample counts, thread counts (and with them uneven
//! `ceil(S / threads)` chunks) and pool sizes and require byte
//! equality against the simplest possible references: a serial
//! per-input loop of one-group runs, and the serial engine.

use bnn_mcd::{
    BayesConfig, Engine, FloatBackend, ParallelConfig, Plan, RequestResult, SoftwareMaskSource,
    WorkerPool,
};
use bnn_nn::models;
use bnn_tensor::{Shape4, Tensor};
use proptest::prelude::*;

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

/// Reference: one serial predictive per input item, continuing the
/// same mask stream — exactly what `Plan::batched` at `batch = 1`
/// promises to reproduce.
fn per_input_reference(net: &bnn_nn::Graph, xs: &Tensor, cfg: BayesConfig, seed: u64) -> Tensor {
    let mut backend = FloatBackend::new(net);
    let mut src = SoftwareMaskSource::new(seed);
    let n = xs.shape().n;
    let mut out: Option<Tensor> = None;
    for i in 0..n {
        let x = xs.select_item(i);
        let probs =
            RequestResult::single(Engine::serial().run(&mut backend, Plan::one(&x, &mut src), cfg))
                .probs;
        let k = probs.shape().item_len();
        let all = out.get_or_insert_with(|| Tensor::zeros(Shape4::vec(n, k)));
        all.item_mut(i).copy_from_slice(probs.item(0));
    }
    out.expect("at least one input item")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A `Plan::batched` run at `batch = 1` with any sample-axis split
    /// is bit-identical to the per-input serial loop, on both the
    /// per-sample and the fused float backends, at any pool size.
    #[test]
    fn batch_parallel_matches_per_input_loop(
        seed in 0u64..1000,
        n in 1usize..7,
        l in 1usize..4,
        s in 1usize..8,
        threads in 1usize..9,
        workers in 0usize..5,
        fused in any::<bool>(),
    ) {
        let net = models::lenet5(10, 1, 16, 3);
        let xs = input(n, 16, seed);
        let cfg = BayesConfig::new(l, s);
        let want = per_input_reference(&net, &xs, cfg, seed);

        let pool = WorkerPool::new(workers);
        let mut src = SoftwareMaskSource::new(seed);
        let engine = Engine::new(&pool, ParallelConfig::with_threads(threads));
        let plan = Plan::batched(&xs, 1, &mut src);
        let (got, cost) = RequestResult::stacked(&if fused {
            engine.run(&mut FloatBackend::fused(&net), plan, cfg)
        } else {
            engine.run(&mut FloatBackend::new(&net), plan, cfg)
        });
        prop_assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "sample split changed the prediction (fused={}, workers={}, threads={})",
            fused, workers, threads
        );
        prop_assert_eq!(cost.samples, n * s, "S per input item");
        prop_assert_eq!(cost.batch, n);
    }

    /// The sample chunks `threads` cuts never move a byte, at any pool
    /// size (the fused backend stacks one `ceil(S / threads)`-sample
    /// chunk per GEMM, and the last chunk is shorter whenever `threads`
    /// does not divide `S`, so this also pins the stacked kernels'
    /// any-sub-chunking contract).
    #[test]
    fn sample_chunking_is_bit_identical(
        seed in 0u64..1000,
        s in 1usize..10,
        threads in 1usize..11,
        workers in 0usize..4,
    ) {
        let net = models::lenet5(10, 1, 16, 5);
        let x = input(2, 16, seed);
        let cfg = BayesConfig::new(3, s);

        let mut serial = FloatBackend::fused(&net);
        let want = RequestResult::single(Engine::serial().run(
            &mut serial,
            Plan::one(&x, &mut SoftwareMaskSource::new(seed)),
            cfg,
        ))
        .probs;

        let pool = WorkerPool::new(workers);
        let mut chunked = FloatBackend::fused(&net);
        let got = RequestResult::single(
            Engine::new(&pool, ParallelConfig::with_threads(threads)).run(
                &mut chunked,
                Plan::one(&x, &mut SoftwareMaskSource::new(seed)),
                cfg,
            ),
        )
        .probs;
        prop_assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "threads={} workers={} changed the prediction",
            threads, workers
        );
    }
}
