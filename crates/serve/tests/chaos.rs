//! Server-level fault-injection (chaos) suite.
//!
//! The [`ChaosBackend`] wrapper from `bnn-mcd` is threaded through the
//! server via [`ServerBuilder::chaos`]; these tests pin down the
//! containment contract on every substrate:
//!
//! * with `max_batch: 1` and a sequential client, the chaos call
//!   index maps 1:1 onto submission order, so the outcome of every
//!   request is *predicted* by the pure [`fault_at`] schedule — a
//!   scheduled panic fails exactly that request with
//!   [`ServeError::BackendFailed`], nothing else;
//! * every non-faulted request's reply is **bit-identical** to the
//!   fault-free run of the same server (same substrate, same seeds);
//! * the same chaos seed replays the same outcome vector;
//! * delay-only injection under real coalescing perturbs timing but
//!   never bits;
//! * a persistently panicking backend trips the circuit breaker:
//!   in-flight requests fail with `BackendFailed`, later submissions
//!   are rejected at the door with the same error, and shutdown stays
//!   clean.
//!
//! Everything runs under the watchdog from `stress.rs` so a deadlock
//! fails loudly instead of hanging CI.

use bnn_accel::{AccelConfig, Accelerator};
use bnn_mcd::{
    fault_at, BayesConfig, ChaosConfig, Engine, Fault, FloatBackend, ParallelConfig, Plan,
    RequestResult, SoftwareMaskSource,
};
use bnn_nn::{models, Graph};
use bnn_quant::Quantizer;
use bnn_serve::{Backend, BatchPolicy, ServeError, Server, SubmitError};
use bnn_tensor::{Shape4, Tensor};
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
        Ok(()) => worker.join().expect("chaos body panicked"),
        Err(_) => panic!("chaos test exceeded {secs}s — server deadlock?"),
    }
}

fn request_input(seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
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

const N_REQUESTS: usize = 8;

/// Deterministically search out a chaos config whose first
/// `N_REQUESTS` scheduled faults contain at least one `Panic` *and*
/// at least two fault-free calls (so bit-identity is actually
/// checked). Pure in `base`, so the whole test stays replayable.
fn mixed_chaos(base: u64) -> ChaosConfig {
    for k in 0..10_000u64 {
        let cfg = ChaosConfig::new(base.wrapping_add(k), 0.35, 0.35);
        let schedule = cfg.schedule(N_REQUESTS as u64);
        let panics = schedule.iter().filter(|f| **f == Fault::Panic).count();
        let clean = schedule.iter().filter(|f| **f == Fault::None).count();
        if panics >= 1 && clean >= 2 {
            return cfg;
        }
    }
    unreachable!("no mixed fault schedule within 10k candidate seeds");
}

/// Serve `N_REQUESTS` sequentially (one in flight at a time, so with
/// `max_batch: 1` the chaos call index equals the request index) and
/// return each request's typed outcome, with served replies reduced
/// to their probability bytes.
fn run_sequential(
    net: &Arc<Graph>,
    backend: Backend,
    cfg: BayesConfig,
    chaos: Option<ChaosConfig>,
) -> Vec<Result<Vec<f32>, ServeError>> {
    let mut builder = Server::for_graph(Arc::clone(net))
        .backend(backend)
        .bayes(cfg)
        .parallel(ParallelConfig::serial())
        .policy(BatchPolicy {
            max_batch: 1,
            queue_cap: 16,
        })
        .breaker_after(usize::MAX);
    if let Some(chaos) = chaos {
        builder = builder.chaos(chaos);
    }
    let server = builder.start();
    let handle = server.handle();
    let outcomes = (0..N_REQUESTS as u64)
        .map(|i| {
            handle
                .request(request_input(i))
                .seed(7000 + i)
                .submit()
                .wait()
                .map(|reply| reply.probs.as_slice().to_vec())
        })
        .collect();
    server.shutdown();
    outcomes
}

/// The containment contract on one substrate: outcomes follow the
/// pure fault schedule, survivors are bit-identical to the fault-free
/// run, and the same chaos seed replays the same outcome vector.
fn assert_chaos_contained(net: &Arc<Graph>, make_backend: &dyn Fn() -> Backend, chaos_base: u64) {
    let cfg = BayesConfig::new(2, 3);
    let chaos = mixed_chaos(chaos_base);

    let reference = run_sequential(net, make_backend(), cfg, None);
    let faulted = run_sequential(net, make_backend(), cfg, Some(chaos));
    let replay = run_sequential(net, make_backend(), cfg, Some(chaos));

    for (i, outcome) in faulted.iter().enumerate() {
        match fault_at(&chaos, i as u64) {
            Fault::Panic => assert_eq!(
                outcome.as_ref().err(),
                Some(&ServeError::BackendFailed),
                "request {i}: scheduled panic must fail exactly that request"
            ),
            Fault::Delay | Fault::None => {
                let got = outcome.as_ref().expect("non-faulted request served");
                let want = reference[i].as_ref().expect("fault-free run served all");
                assert_eq!(
                    got, want,
                    "request {i} diverged from the fault-free run under chaos"
                );
            }
        }
    }
    assert_eq!(
        faulted, replay,
        "same chaos seed must replay bit-identically"
    );
}

#[test]
fn chaos_containment_on_software_substrates() {
    with_deadline(120, || {
        let net = Arc::new(models::lenet5(10, 1, 16, 3));
        assert_chaos_contained(&net, &|| Backend::Float, 0xC0A5_0001);
        assert_chaos_contained(&net, &|| Backend::Fused, 0xC0A5_0002);
    });
}

#[test]
fn chaos_containment_on_integer_substrates() {
    with_deadline(180, || {
        let folded = models::lenet5(10, 1, 16, 5).fold_batch_norm();
        // Calibration over a small deterministic batch is enough: the
        // reference and the chaos run share the exact same QGraph.
        let calib_data: Vec<f32> = (0..8u64)
            .flat_map(|i| {
                let x = request_input(100 + i);
                x.as_slice().to_vec()
            })
            .collect();
        let calib = Tensor::from_vec(Shape4::new(8, 1, 16, 16), calib_data);
        let qg = Quantizer::new(&folded).calibrate(&calib).quantize();
        let accel = Accelerator::new(
            AccelConfig::default(),
            &folded,
            &qg,
            Shape4::new(1, 1, 16, 16),
        );
        let net = Arc::new(folded);
        let qg_ref = &qg;
        let accel_ref = &accel;
        assert_chaos_contained(&net, &|| Backend::Int8(qg_ref.clone()), 0xC0A5_0003);
        assert_chaos_contained(&net, &|| Backend::Accel(accel_ref.clone()), 0xC0A5_0004);
    });
}

#[test]
fn delay_only_chaos_is_bit_transparent_under_coalescing() {
    with_deadline(120, || {
        let net = Arc::new(models::lenet5(10, 1, 16, 3));
        let cfg = BayesConfig::new(2, 3);
        // Every call delayed, none panicked: timing is perturbed on
        // every micro-batch while the math must stay untouched.
        let chaos = ChaosConfig::new(0xDE1A_F00D, 0.0, 1.0);
        assert!(chaos
            .schedule(24)
            .iter()
            .all(|fault| *fault == Fault::Delay));

        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .policy(BatchPolicy {
                max_batch: 4,
                queue_cap: 32,
            })
            .chaos(chaos)
            .start();
        let mut clients = Vec::new();
        for t in 0..6u64 {
            let handle = server.handle();
            clients.push(std::thread::spawn(move || {
                (0..4u64)
                    .map(|round| {
                        let seed = t * 1000 + round;
                        (
                            seed,
                            handle
                                .request(request_input(seed))
                                .seed(seed)
                                .submit()
                                .wait(),
                        )
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for client in clients {
            for (seed, outcome) in client.join().expect("client thread survived") {
                let reply = outcome.expect("delay-only chaos must not fail requests");
                let want = RequestResult::single(Engine::serial().run(
                    &mut FloatBackend::new(&net),
                    Plan::one(&request_input(seed), &mut SoftwareMaskSource::new(seed)),
                    cfg,
                ))
                .probs;
                assert_eq!(
                    reply.probs.as_slice(),
                    want.as_slice(),
                    "request (seed {seed}) diverged under delay injection"
                );
            }
        }
        server.shutdown();
    });
}

#[test]
fn persistent_panics_trip_the_breaker_and_fail_fast() {
    with_deadline(60, || {
        let net = Arc::new(models::lenet5(10, 1, 16, 3));
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(BayesConfig::new(2, 2))
            .policy(BatchPolicy {
                max_batch: 1,
                queue_cap: 8,
            })
            // Every single call panics; three strikes trip the breaker.
            .chaos(ChaosConfig::new(7, 1.0, 0.0))
            .breaker_after(3)
            .start();
        let handle = server.handle();

        for i in 0..3u64 {
            assert_eq!(
                handle.request(request_input(i)).submit().wait().map(|_| ()),
                Err(ServeError::BackendFailed),
                "request {i}: a panicking micro-batch fails its own requests"
            );
        }
        // The third consecutive panic trips the breaker; the flag is
        // set by the dispatcher right after the failing batch, so give
        // it a bounded moment to land.
        while !server.breaker_tripped() {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Fail-fast at the door, for both submission flavours.
        match handle.request(request_input(90)).try_submit() {
            Err(SubmitError {
                error: ServeError::BackendFailed,
                ..
            }) => {}
            other => panic!("tripped breaker must reject at the door, got {other:?}"),
        }
        assert_eq!(
            handle
                .request(request_input(91))
                .submit()
                .wait()
                .map(|_| ()),
            Err(ServeError::BackendFailed),
            "blocking submission must also fail fast once tripped"
        );
        let stats = server.stats();
        assert!(stats.failed >= 3, "failed={} < 3", stats.failed);
        assert!(stats.rejected >= 2, "rejected={} < 2", stats.rejected);
        server.shutdown();
    });
}
