//! Admission-control integration tests: priorities, load shedding,
//! deadlines, batching from the backlog (no hold) and retry after a
//! rejection, all against a live server (the pure queue mechanics are
//! unit tested inside the crate; these pin the end-to-end
//! behaviour).

use bnn_accel::{AccelConfig, Accelerator};
use bnn_mcd::{
    BayesBackend, BayesConfig, ChaosConfig, Engine, FloatBackend, ParallelConfig, Plan,
    RequestResult, SoftwareMaskSource, WorkerPool,
};
use bnn_nn::{models, Graph};
use bnn_quant::{Int8Backend, Quantizer};
use bnn_serve::{Backend, BatchPolicy, Priority, ServeError, Server, SubmitError};
use bnn_tensor::{Shape4, Tensor};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `body` on a fresh thread and fail the test if it has not
/// finished within `secs` — the deadlock guard for everything below.
fn with_deadline<F: FnOnce() + Send + 'static>(secs: u64, body: F) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("admission body panicked"),
        Err(_) => panic!("admission test exceeded {secs}s — server deadlock?"),
    }
}

fn test_net() -> Graph {
    models::lenet5(10, 1, 16, 9)
}

fn request_input(seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
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
    solo_with(FloatBackend::new(net), x, cfg, seed)
}

fn solo_with(
    mut backend: impl BayesBackend + Send,
    x: &Tensor,
    cfg: BayesConfig,
    seed: u64,
) -> Tensor {
    RequestResult::single(Engine::serial().run(
        &mut backend,
        Plan::one(x, &mut SoftwareMaskSource::new(seed)),
        cfg,
    ))
    .probs
}

/// The deliberately slow per-batch config behind `slow_server`: large
/// `S` on a serial schedule keeps the dispatcher busy for tens of
/// milliseconds per micro-batch.
fn slow_cfg() -> BayesConfig {
    BayesConfig::new(2, 200)
}

/// A server whose dispatcher is busy for a while per micro-batch, so
/// the queue can be filled and inspected deterministically behind it.
fn slow_server(net: &Arc<Graph>, queue_cap: usize) -> Server {
    Server::for_graph(Arc::clone(net))
        .bayes(slow_cfg())
        .parallel(ParallelConfig::serial())
        .pool(Arc::new(WorkerPool::new(0)))
        .policy(BatchPolicy {
            max_batch: 1,
            queue_cap,
        })
        .start()
}

#[test]
fn high_priority_sheds_the_youngest_low_request_at_capacity() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let server = slow_server(&net, 4);
        let handle = server.handle();

        // Occupy the dispatcher, then give it a moment to pop the
        // blocker off the queue so exactly `queue_cap` slots remain.
        let blocker = handle.request(request_input(0)).seed(0).submit();
        while server.stats().queued > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }

        // Fill the whole queue with low-priority work.
        let lows: Vec<_> = (1..=4u64)
            .map(|i| {
                handle
                    .request(request_input(i))
                    .seed(i)
                    .priority(Priority::Low)
                    .try_submit()
                    .expect("queue has space for the low flood")
            })
            .collect();

        // A same-priority arrival at capacity is refused at the door…
        match handle
            .request(request_input(50))
            .priority(Priority::Low)
            .try_submit()
        {
            Err(SubmitError {
                error: ServeError::Rejected,
                ..
            }) => {}
            other => panic!("equal-priority overflow must be Rejected, got {other:?}"),
        }

        // …but a high-priority arrival shoves out the *youngest* low
        // request instead of being turned away.
        let high = handle
            .request(request_input(60))
            .seed(60)
            .priority(Priority::High)
            .try_submit()
            .expect("high priority must displace low work, not be rejected");
        let victim = lows.last().expect("four low submissions");
        assert_eq!(
            victim.try_wait().map(|outcome| outcome.map(|_| ())),
            Some(Err(ServeError::Rejected)),
            "the shed victim must already hold a Rejected outcome"
        );

        // Everyone else — blocker, surviving lows, the high request —
        // drains to a bit-exact served reply.
        for (seed, pending) in [(0u64, blocker), (60u64, high)]
            .into_iter()
            .chain((1..=3u64).zip(lows.into_iter().take(3)))
        {
            let reply = pending.wait().expect("accepted request drained");
            let want = solo(&net, &request_input(seed), slow_cfg(), seed);
            assert_eq!(reply.probs.as_slice(), want.as_slice(), "seed {seed}");
        }
        let stats = server.stats();
        assert_eq!(stats.shed, 1, "exactly one request was shed");
        assert!(stats.rejected >= 1, "the door turned away the overflow");
        assert_eq!(stats.served, 5, "blocker + 3 lows + 1 high");
        server.shutdown();
    });
}

#[test]
fn queued_deadlines_expire_behind_a_busy_dispatcher() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let server = slow_server(&net, 8);
        let handle = server.handle();

        let blocker = handle.request(request_input(0)).seed(0).submit();
        while server.stats().queued > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        // A zero queue budget expires the moment the dispatcher next
        // forms a batch — deterministically, in any build profile
        // (a small-but-nonzero budget raced the blocker batch under
        // release codegen, where S=200 finishes in under 1 ms).
        let doomed = handle
            .request(request_input(1))
            .seed(1)
            .deadline(Duration::ZERO)
            .submit();
        assert_eq!(
            doomed.wait().map(|_| ()),
            Err(ServeError::DeadlineExceeded),
            "a deadline that expires while queued must be reported as such"
        );
        let reply = blocker.wait().expect("the blocker itself is served");
        let want = solo(&net, &request_input(0), slow_cfg(), 0);
        assert_eq!(reply.probs.as_slice(), want.as_slice());
        assert!(server.stats().expired >= 1);
        server.shutdown();
    });
}

#[test]
fn closed_loop_overload_serves_every_high_priority_request() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 12);
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .policy(BatchPolicy {
                max_batch: 4,
                queue_cap: 8,
            })
            .start();

        // Two closed-loop high-priority clients (submit, wait, repeat)
        // riding over four open-loop low-priority flooders.
        let mut highs = Vec::new();
        for t in 0..2u64 {
            let handle = server.handle();
            highs.push(std::thread::spawn(move || {
                (0..10u64)
                    .map(|round| {
                        let seed = 10_000 + t * 1000 + round;
                        let start = Instant::now();
                        let outcome = handle
                            .request(request_input(seed))
                            .seed(seed)
                            .priority(Priority::High)
                            .submit()
                            .wait();
                        (seed, outcome, start.elapsed())
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut floods = Vec::new();
        for t in 0..4u64 {
            let handle = server.handle();
            floods.push(std::thread::spawn(move || {
                let mut pendings = Vec::new();
                let mut turned_away = 0usize;
                for round in 0..40u64 {
                    let seed = t * 1000 + round;
                    match handle
                        .request(request_input(seed))
                        .seed(seed)
                        .priority(Priority::Low)
                        .try_submit()
                    {
                        Ok(pending) => pendings.push((seed, pending)),
                        Err(SubmitError {
                            error: ServeError::Rejected,
                            ..
                        }) => turned_away += 1,
                        Err(other) => panic!("unexpected flood outcome: {other}"),
                    }
                }
                // Every accepted flood request still resolves to a
                // definite outcome: served bits or a shed Rejection.
                let outcomes: Vec<_> = pendings
                    .into_iter()
                    .map(|(seed, p)| (seed, p.wait()))
                    .collect();
                (outcomes, turned_away)
            }));
        }

        let mut latencies = Vec::new();
        for client in highs {
            for (seed, outcome, latency) in client.join().expect("high client survived") {
                let reply = outcome.expect("every high-priority request is served");
                let want = solo(&net, &request_input(seed), cfg, seed);
                assert_eq!(
                    reply.probs.as_slice(),
                    want.as_slice(),
                    "high-priority request (seed {seed}) diverged under overload"
                );
                latencies.push(latency);
            }
        }
        let mut low_pressure = 0usize;
        for client in floods {
            let (outcomes, turned_away) = client.join().expect("flood client survived");
            low_pressure += turned_away;
            for (seed, outcome) in outcomes {
                match outcome {
                    Ok(reply) => {
                        let want = solo(&net, &request_input(seed), cfg, seed);
                        assert_eq!(reply.probs.as_slice(), want.as_slice(), "seed {seed}");
                    }
                    Err(ServeError::Rejected) => low_pressure += 1,
                    Err(other) => panic!("flood request (seed {seed}) hit {other:?}"),
                }
            }
        }
        assert!(
            low_pressure > 0,
            "160 open-loop floods over an 8-slot queue shed nothing — not an overload test"
        );
        // A *very* generous p99 bound: on a loaded CI box each
        // micro-batch is tens of milliseconds, and high priority skips
        // at most one in-flight batch plus the high queue itself.
        latencies.sort();
        let p99 = latencies[latencies.len() - 1];
        assert!(
            p99 < Duration::from_secs(30),
            "high-priority worst-case latency {p99:?} is unbounded under flood"
        );
        server.shutdown();
    });
}

#[test]
fn backlog_coalesces_without_a_window() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 3);
        assert!(BatchPolicy::default().max_batch >= 5);
        // Every request's `prepare` sleeps 20 ms, so the dispatcher is
        // provably busy with the blocker while the five queue up.
        let server = Server::for_graph(Arc::clone(&net))
            .bayes(cfg)
            .chaos(ChaosConfig {
                delay_prob: 1.0,
                delay: Duration::from_millis(20),
                ..ChaosConfig::disabled(3)
            })
            .start();
        let handle = server.handle();

        let blocker = handle.request(request_input(0)).seed(0).submit();
        while server.stats().queued > 0 {
            std::thread::yield_now();
        }
        let backlog: Vec<_> = (1..=5u64)
            .map(|i| (i, handle.request(request_input(i)).seed(i).submit()))
            .collect();

        // No hold: the lone blocker was taken alone, at once…
        let reply = blocker.wait().expect("blocker served");
        assert_eq!(
            reply.coalesced, 1,
            "a lone request must not wait for company"
        );
        assert_eq!(
            reply.probs.as_slice(),
            solo(&net, &request_input(0), cfg, 0).as_slice()
        );
        // …and what queued up behind it is one batch, for free.
        for (seed, pending) in backlog {
            let reply = pending.wait().expect("backlog served");
            assert_eq!(
                reply.coalesced, 5,
                "seed {seed}: backlog must form one batch"
            );
            assert_eq!(
                reply.probs.as_slice(),
                solo(&net, &request_input(seed), cfg, seed).as_slice(),
                "seed {seed}"
            );
        }
        server.shutdown();
    });
}

#[test]
fn retry_helper_rides_out_a_transiently_full_queue() {
    with_deadline(120, || {
        let net = Arc::new(test_net());
        let server = slow_server(&net, 2);
        let handle = server.handle();

        let blocker = handle.request(request_input(0)).seed(0).submit();
        while server.stats().queued > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        let fillers: Vec<_> = (1..=2u64)
            .map(|i| {
                handle
                    .request(request_input(i))
                    .seed(i)
                    .try_submit()
                    .expect("fill the queue")
            })
            .collect();

        // The queue is full now, but the dispatcher keeps draining it:
        // a rejected `try_submit` hands its input back, and
        // resubmitting it must get through once a slot frees.
        let mut input = request_input(9);
        let mut attempts = 0;
        let pending = loop {
            match handle.request(input).seed(9).try_submit() {
                Ok(pending) => break pending,
                Err(e) => {
                    assert_eq!(e.error, ServeError::Rejected, "only overload is transient");
                    attempts += 1;
                    assert!(attempts < 5000, "the overload never cleared");
                    input = e.into_input();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        server.shutdown();

        let reply = pending.wait().expect("retried request served");
        let want = solo(&net, &request_input(9), slow_cfg(), 9);
        assert_eq!(reply.probs.as_slice(), want.as_slice());
        for (i, filler) in (1u64..).zip(fillers) {
            let reply = filler.wait().expect("filler served");
            let want = solo(&net, &request_input(i), slow_cfg(), i);
            assert_eq!(reply.probs.as_slice(), want.as_slice());
        }
        blocker.wait().expect("blocker served");
    });
}

#[test]
fn submission_builder_seed_pins_the_solo_prediction() {
    with_deadline(60, || {
        let net = Arc::new(test_net());
        let cfg = BayesConfig::new(2, 3);
        let server = Server::for_graph(Arc::clone(&net))
            .backend(Backend::Fused)
            .bayes(cfg)
            .start();
        let handle = server.handle();
        let seed = 1234u64;
        let blocking = handle
            .request(request_input(seed))
            .seed(seed)
            .submit()
            .wait()
            .expect("blocking submission served");
        let non_blocking = handle
            .request(request_input(seed))
            .seed(seed)
            .try_submit()
            .expect("idle queue admits")
            .wait()
            .expect("non-blocking submission served");
        let want = solo(&net, &request_input(seed), cfg, seed);
        assert_eq!(blocking.probs.as_slice(), want.as_slice());
        assert_eq!(non_blocking.probs.as_slice(), want.as_slice());
        server.shutdown();
    });
}

#[test]
fn mis_shaped_requests_are_refused_at_the_door_on_every_substrate() {
    with_deadline(120, || {
        let folded = test_net().fold_batch_norm();
        let calib: Vec<f32> = (100..104u64)
            .flat_map(|i| request_input(i).as_slice().to_vec())
            .collect();
        let calib = Tensor::from_vec(Shape4::new(4, 1, 16, 16), calib);
        let qg = Quantizer::new(&folded).calibrate(&calib).quantize();
        let accel = Accelerator::new(
            AccelConfig::default(),
            &folded,
            &qg,
            Shape4::new(1, 1, 16, 16),
        );
        let net = Arc::new(folded);
        let cfg = BayesConfig::new(2, 4);
        let bad = [
            Shape4::new(1, 1, 32, 32),
            Shape4::new(1, 3, 16, 16),
            Shape4::new(1, 1, 20, 20),
        ];
        for backend in [
            Backend::Float,
            Backend::Fused,
            Backend::Int8(qg),
            Backend::Accel(accel),
        ] {
            let name = backend.name();
            let server = Server::for_graph(Arc::clone(&net))
                .backend(backend.clone())
                .bayes(cfg)
                .start();
            let handle = server.handle();
            // Nine: one more than the breaker's default run of eight
            // consecutive failures, had any of them reached the backend.
            for i in 0..9 {
                let x = Tensor::full(bad[i % bad.len()], 0.1);
                assert_eq!(
                    handle.request(x).submit().wait().map(|_| ()),
                    Err(ServeError::BadInput),
                    "{name}: mis-shaped request {i}"
                );
            }
            assert!(
                !server.breaker_tripped(),
                "{name}: refusals tripped the breaker"
            );
            let x = request_input(5);
            let reply = handle
                .request(x.clone())
                .seed(5)
                .submit()
                .wait()
                .expect("a well-formed request is served after the refusals");
            let want = match backend {
                Backend::Float => solo_with(FloatBackend::new(&net), &x, cfg, 5),
                Backend::Fused => solo_with(FloatBackend::fused(&net), &x, cfg, 5),
                Backend::Int8(qg) => solo_with(Int8Backend::new(qg), &x, cfg, 5),
                Backend::Accel(accel) => solo_with(accel.into_backend(), &x, cfg, 5),
            };
            assert_eq!(reply.probs.as_slice(), want.as_slice(), "{name}");
            let stats = server.stats();
            assert_eq!(
                (stats.rejected, stats.failed, stats.served),
                (9, 0, 1),
                "{name}: refusals count as rejected, never failed"
            );
            server.shutdown();
        }
    });
}
