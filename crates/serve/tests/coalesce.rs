//! Coalescing-invariance property tests: random interleavings of
//! concurrent requests — varying micro-batch composition, `max_batch`,
//! schedule and pool size — come back **bit-identical** to solo
//! serving, on both the float and the fused backend.
//!
//! Each proptest case starts a fresh [`Server`], submits its requests
//! from one thread per request (so the queue order, and therefore the
//! micro-batch composition, is decided by the OS scheduler — a
//! different interleaving every run), and checks every reply byte
//! against the engine's solo prediction for that request's `(input,
//! seed)` pair. The float backend is always the reference, so fused
//! serving is simultaneously checked against the cross-backend
//! bit-identity contract.

use bnn_mcd::{
    BayesConfig, Engine, FloatBackend, ParallelConfig, Plan, RequestResult, SoftwareMaskSource,
    WorkerPool,
};
use bnn_nn::{models, Graph};
use bnn_serve::{Backend, BatchPolicy, Server};
use bnn_tensor::{Shape4, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic pseudo-random single-item input.
fn request_input(seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let data = (0..256)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(Shape4::new(1, 1, 16, 16), data)
}

/// Ground truth: the solo prediction for `(x, seed)` — a fresh float
/// backend, serial schedule, inline pool.
fn solo(net: &Graph, x: &Tensor, cfg: BayesConfig, seed: u64) -> Tensor {
    let mut backend = FloatBackend::new(net);
    RequestResult::single(Engine::serial().run(
        &mut backend,
        Plan::one(x, &mut SoftwareMaskSource::new(seed)),
        cfg,
    ))
    .probs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn concurrent_requests_bit_identical_to_solo_serving(
        case_seed in 0u64..1000,
        n_requests in 1usize..9,
        max_batch in 1usize..6,
        threads in 1usize..7,
        pool_large in any::<bool>(),
        fused in any::<bool>(),
        l in 1usize..4,
        s in 1usize..6,
    ) {
        let net = Arc::new(models::lenet5(10, 1, 16, 3));
        let cfg = BayesConfig::new(l, s);
        // The ISSUE's pool sizes {1, 4}.
        let workers = if pool_large { 4 } else { 1 };
        let server = Server::for_graph(Arc::clone(&net))
            .backend(if fused { Backend::Fused } else { Backend::Float })
            .bayes(cfg)
            .parallel(ParallelConfig::with_threads(threads))
            .policy(BatchPolicy {
                max_batch,
                queue_cap: 64,
            })
            .pool(Arc::new(WorkerPool::new(workers)))
            .start();

        // One client thread per request: arrival order — and with it
        // every micro-batch's composition — is a fresh random
        // interleaving each case.
        let mut clients = Vec::new();
        for i in 0..n_requests {
            let handle = server.handle();
            let seed = case_seed.wrapping_mul(1000).wrapping_add(i as u64);
            clients.push(std::thread::spawn(move || {
                let pending = handle.request(request_input(seed)).seed(seed).submit();
                (seed, pending.wait())
            }));
        }
        let mut replies = Vec::new();
        for client in clients {
            replies.push(client.join().expect("client thread survived"));
        }
        server.shutdown();

        for (seed, reply) in replies {
            let reply = reply.expect("request served");
            let want = solo(&net, &request_input(seed), cfg, seed);
            prop_assert_eq!(
                reply.probs.as_slice(),
                want.as_slice(),
                "request (seed {}) diverged from solo serving \
                 (fused={}, max_batch={}, coalesced={}, workers={}, \
                  threads={})",
                seed, fused, max_batch, reply.coalesced, workers, threads
            );
            prop_assert!(reply.coalesced >= 1 && reply.coalesced <= max_batch.max(1));
            prop_assert_eq!(reply.cost.samples, cfg.s);
        }
    }
}
