//! Timeout-guarded stress tests for the serving front door.
//!
//! What these pin down, beyond the bit-identity properties in
//! `coalesce.rs`:
//!
//! * many client threads hammering one server with a small
//!   `max_batch` and a small bounded queue make progress —
//!   blocking submissions, rejections and micro-batch formation all
//!   interleave without deadlock (every body runs under a hard
//!   watchdog deadline, so a wedged queue fails loudly instead of
//!   hanging CI);
//! * shutdown under load is graceful: every accepted request is
//!   served (bit-identically), every request that raced the close
//!   resolves to `Shutdown`, and nothing hangs — including when
//!   queued deadlines expire mid-drain;
//! * a panicking backend fails its own micro-batch, not the server —
//!   later requests are served normally.

use bnn_mcd::{
    BayesConfig, ChaosConfig, Engine, Fault, FloatBackend, ParallelConfig, Plan, RequestResult,
    SoftwareMaskSource, WorkerPool,
};
use bnn_nn::{models, Graph};
use bnn_serve::{Backend, BatchPolicy, Priority, ServeError, Server, SubmitError};
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
        Ok(()) => worker.join().expect("stress body panicked"),
        Err(_) => panic!("stress test exceeded {secs}s — server deadlock?"),
    }
}

fn test_net() -> Graph {
    models::lenet5(10, 1, 16, 7)
}

fn request_input(seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
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
fn many_clients_backlog_coalesces_under_bounded_queue() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 3);
        let server = Server::for_graph(Arc::clone(&net))
            .backend(Backend::Fused)
            .bayes(cfg)
            .parallel(ParallelConfig::with_threads(4))
            .policy(BatchPolicy {
                max_batch: 4,
                queue_cap: 8,
            })
            .pool(Arc::new(WorkerPool::new(4)))
            .start();

        // 8 clients × 12 requests through blocking submission (the
        // bounded queue forces real backpressure stalls), plus
        // interleaved `try_submit` traffic that may be rejected.
        let mut clients = Vec::new();
        for t in 0..8u64 {
            let handle = server.handle();
            clients.push(std::thread::spawn(move || {
                let mut replies = Vec::new();
                for round in 0..12u64 {
                    let seed = t * 1000 + round;
                    let pending = handle.request(request_input(seed)).seed(seed).submit();
                    if round % 3 == 0 {
                        // Fire-and-maybe-reject traffic on top.
                        match handle
                            .request(request_input(seed + 500))
                            .seed(seed + 500)
                            .try_submit()
                        {
                            Ok(extra) => replies.push((seed + 500, extra.wait())),
                            Err(SubmitError {
                                error: ServeError::Rejected,
                                ..
                            }) => {}
                            Err(other) => {
                                panic!("unexpected rejection during the load phase: {other}")
                            }
                        }
                    }
                    replies.push((seed, pending.wait()));
                }
                replies
            }));
        }
        let mut max_coalesced = 0usize;
        for client in clients {
            for (seed, reply) in client.join().expect("client thread survived") {
                let reply = reply.expect("accepted request must be served");
                let want = solo(&net, &request_input(seed), cfg, seed);
                assert_eq!(
                    reply.probs.as_slice(),
                    want.as_slice(),
                    "request (seed {seed}) diverged under load"
                );
                assert!(reply.coalesced >= 1 && reply.coalesced <= 4);
                max_coalesced = max_coalesced.max(reply.coalesced);
            }
        }
        // With 8 clients queueing behind the dispatcher, at least
        // *some* micro-batch must have coalesced from the backlog —
        // otherwise this test isn't exercising the path it claims to.
        assert!(
            max_coalesced >= 2,
            "no micro-batch ever coalesced under 8-client load"
        );
        server.shutdown();
    });
}

#[test]
fn shutdown_under_load_drains_accepted_requests() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 2);
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .policy(BatchPolicy {
                max_batch: 4,
                queue_cap: 16,
            })
            .start();

        // Clients submit continuously *until they observe the close*;
        // the main thread shuts the server down mid-flight. Every
        // reply must be either the bit-exact served result or a clean
        // `Shutdown` — never a hang, never a wrong answer.
        let mut clients = Vec::new();
        for t in 0..6u64 {
            let handle = server.handle();
            clients.push(std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                let mut round = 0u64;
                loop {
                    let seed = t * 100_000 + round;
                    round += 1;
                    let pending = handle.request(request_input(seed)).seed(seed).submit();
                    let outcome = pending.wait();
                    let done = matches!(outcome, Err(ServeError::Shutdown));
                    outcomes.push((seed, outcome));
                    if done {
                        break;
                    }
                }
                outcomes
            }));
        }
        // Let some traffic through, then pull the plug. The clients
        // keep submitting until the close lands, so `closed` outcomes
        // are guaranteed; the 30 ms head start guarantees `served`
        // ones.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();

        let (mut served, mut closed) = (0usize, 0usize);
        for client in clients {
            for (seed, outcome) in client.join().expect("client thread survived") {
                match outcome {
                    Ok(reply) => {
                        served += 1;
                        let want = solo(&net, &request_input(seed), cfg, seed);
                        assert_eq!(
                            reply.probs.as_slice(),
                            want.as_slice(),
                            "request (seed {seed}) diverged across shutdown"
                        );
                    }
                    Err(ServeError::Shutdown) => closed += 1,
                    Err(other) => {
                        panic!("healthy backend reported {other:?} (seed {seed})")
                    }
                }
            }
        }
        assert!(served > 0, "shutdown raced ahead of every submission");
        assert!(
            closed > 0,
            "every request beat the shutdown — not a race test"
        );
    });
}

#[test]
fn backend_panic_fails_the_batch_not_the_server() {
    with_deadline(60, || {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 2);
        // The injected fault: a schedule whose first `prepare` panics
        // and whose second is clean (a mis-shaped input can no longer
        // be the fault — it is refused before it is queued).
        let chaos = (0..10_000u64)
            .map(|seed| ChaosConfig::new(seed, 0.5, 0.0))
            .find(|c| c.schedule(2) == [Fault::Panic, Fault::None])
            .expect("a panic-then-clean schedule within 10k seeds");
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .policy(BatchPolicy {
                max_batch: 2,
                queue_cap: 8,
            })
            .chaos(chaos)
            .start();
        let handle = server.handle();

        let bad = handle.request(request_input(7)).seed(7).submit();
        assert_eq!(
            bad.wait().map(|_| ()),
            Err(ServeError::BackendFailed),
            "a panicking micro-batch must fail, not hang"
        );

        // The dispatcher survives and keeps serving.
        let seed = 42u64;
        let reply = handle
            .request(request_input(seed))
            .seed(seed)
            .submit()
            .wait()
            .expect("server must survive a poisoned batch");
        let want = solo(&net, &request_input(seed), cfg, seed);
        assert_eq!(reply.probs.as_slice(), want.as_slice());
        server.shutdown();
    });
}

#[test]
fn shutdown_races_expiring_deadlines_without_hanging() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        // A deliberately slow backend (large S) so the drain takes
        // long enough for queued deadlines to expire mid-drain.
        let cfg = BayesConfig::new(2, 40);
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .policy(BatchPolicy {
                max_batch: 1,
                queue_cap: 64,
            })
            .start();

        // Clients race deadlines against the shutdown below: each
        // submits a burst of 12 requests *before* waiting on any
        // reply, so the queue holds a mix while the drain runs. Per
        // round the budget is: none (must be served once accepted),
        // zero (expires at the next batch-formation sweep — a
        // deterministic expiry in any build profile, since a request
        // can only be popped after passing the sweep), or a tight
        // 2 ms (genuinely racing the drain; either outcome is legal).
        // Every single handle must resolve to exactly one typed
        // outcome.
        let mut clients = Vec::new();
        for t in 0..6u64 {
            let handle = server.handle();
            clients.push(std::thread::spawn(move || {
                let pendings: Vec<_> = (0..12u64)
                    .map(|round| {
                        let seed = t * 1000 + round;
                        let submission = handle.request(request_input(seed)).seed(seed).priority(
                            if round % 2 == 0 {
                                Priority::Normal
                            } else {
                                Priority::Low
                            },
                        );
                        let submission = match round % 3 {
                            1 => submission.deadline(Duration::ZERO),
                            2 => submission.deadline(Duration::from_millis(2)),
                            _ => submission,
                        };
                        (seed, submission.submit())
                    })
                    .collect();
                pendings
                    .into_iter()
                    .map(|(seed, pending)| (seed, pending.wait()))
                    .collect::<Vec<_>>()
            }));
        }
        std::thread::sleep(Duration::from_millis(10));
        server.shutdown();

        let (mut served, mut expired, mut other) = (0usize, 0usize, 0usize);
        for client in clients {
            for (seed, outcome) in client.join().expect("client thread survived") {
                match outcome {
                    Ok(reply) => {
                        served += 1;
                        let want = solo(&net, &request_input(seed), cfg, seed);
                        assert_eq!(
                            reply.probs.as_slice(),
                            want.as_slice(),
                            "request (seed {seed}) diverged across the deadline race"
                        );
                    }
                    Err(ServeError::DeadlineExceeded) | Err(ServeError::Rejected) => {
                        expired += 1;
                    }
                    Err(ServeError::Shutdown) => other += 1,
                    Err(e @ (ServeError::BackendFailed | ServeError::BadInput)) => {
                        panic!("healthy backend, well-formed input reported {e:?} (seed {seed})")
                    }
                }
            }
        }
        // The race must actually have produced both kinds of outcome
        // to mean anything: zero-budget requests can never be served
        // (the sweep runs before every batch forms), and each
        // client's first burst entry is accepted before the 10 ms
        // head start elapses, so both counters are structural, not
        // timing-dependent.
        assert!(served > 0, "every deadline expired before any service");
        assert!(
            expired > 0,
            "no deadline expired mid-drain — not a race test"
        );
        let _ = other;
    });
}
