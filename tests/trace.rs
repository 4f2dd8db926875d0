//! Trace correctness (ISSUE 10 acceptance): tracing must observe the
//! serving stack without perturbing it.
//!
//! * replies are **bit-identical** with tracing enabled vs disabled,
//!   on all four substrates — the recorder's timestamps are telemetry
//!   and never feed computed values;
//! * the stage spans of one traced request (queue wait, batch
//!   formation, compute, reply write) all nest under the caller's
//!   root span id, appear exactly once, are time-ordered, and their
//!   durations sum to no more than the end-to-end latency;
//! * on library defaults a lone request's median queue wait is no
//!   longer than its median compute (the dispatcher never holds a
//!   queued request), and its `queue_wait` span carries the queue
//!   depth its batch was taken from;
//! * on the wire, lock-step and pipelined alike, a request's
//!   `admission` / `submit` / `writer_wait` spans start no earlier
//!   than the `request` root they nest under;
//! * a batched predictive on a shared pool is as visible as a lone
//!   one: every group records its `prepare` and `forward` spans, and
//!   every sample chunk its `chunk` span whichever worker runs it;
//! * a full per-thread ring evicts oldest events instead of blocking
//!   the recording thread;
//! * the front door's `/metrics` and `/trace` endpoints round-trip
//!   the same data over HTTP.
//!
//! The trace flag is process-global, so every test here serializes on
//! one mutex and restores the disabled state on exit (panic
//! included) — this file must stay the only facade test binary that
//! toggles tracing.

use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::data::synth_mnist;
use bnn_fpga::mcd::{BayesConfig, ParallelConfig, WorkerPool};
use bnn_fpga::quant::Quantizer;
use bnn_fpga::tensor::Tensor;
use bnn_fpga::trace::{self, Stage};
use bnn_fpga::{Backend, Server, Session};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serialize the suite on the process-global trace flag; the guard
/// disables tracing again when dropped, even on panic.
struct FlagGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FlagGuard {
    fn drop(&mut self) {
        trace::set_enabled(false);
    }
}

fn flag_guard() -> FlagGuard {
    static GUARD: Mutex<()> = Mutex::new(());
    FlagGuard(GUARD.lock().unwrap_or_else(|e| e.into_inner()))
}

/// A briefly-trained LeNet-5 with its dataset, trained once and
/// shared by the whole suite.
fn trained_lenet() -> (bnn_fpga::nn::Graph, bnn_fpga::data::Dataset) {
    static SHARED: std::sync::OnceLock<(bnn_fpga::nn::Graph, bnn_fpga::data::Dataset)> =
        std::sync::OnceLock::new();
    SHARED
        .get_or_init(|| {
            let ds = synth_mnist(320, 64, 23);
            let mut net = bnn_fpga::nn::models::lenet5(10, 1, 28, 3);
            let mut tr =
                bnn_fpga::nn::Trainer::new(&net, bnn_fpga::nn::SgdConfig::default(), 2, 0.25, 5);
            for _ in 0..2 {
                let _ = tr.train_epoch(&mut net, &ds.train_x, &ds.train_y, 32);
            }
            (net.fold_batch_norm(), ds)
        })
        .clone()
}

/// The four substrates as facade `Backend`s over the folded graph.
fn substrates(
    folded: &bnn_fpga::nn::Graph,
    ds: &bnn_fpga::data::Dataset,
) -> Vec<(&'static str, Backend)> {
    let qg = Quantizer::new(folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), folded, &qg, ds.image_shape());
    vec![
        ("float", Backend::Float),
        ("fused", Backend::Fused),
        ("int8", Backend::Int8(qg)),
        ("accel", Backend::Accel(accel)),
    ]
}

/// Serve one seeded request through a fresh `Server` on `backend` and
/// return the reply probabilities as exact bit patterns.
fn served_bits(
    graph: &Arc<bnn_fpga::nn::Graph>,
    backend: Backend,
    cfg: BayesConfig,
    seed: u64,
    x: &Tensor,
) -> Vec<u32> {
    let server = Server::for_graph(Arc::clone(graph))
        .backend(backend)
        .bayes(cfg)
        .seed(0xBEEF)
        .start();
    let reply = server
        .handle()
        .request(x.clone())
        .seed(seed)
        .submit()
        .wait()
        .expect("served");
    let bits = reply.probs.as_slice().iter().map(|p| p.to_bits()).collect();
    server.shutdown();
    bits
}

#[test]
fn tracing_toggle_keeps_replies_bit_identical_on_all_substrates() {
    let _guard = flag_guard();
    let (folded, ds) = trained_lenet();
    let graph = Arc::new(folded.clone());
    let cfg = BayesConfig::new(2, 4);
    let x = ds.test_x.select_item(3);

    for (name, backend) in substrates(&folded, &ds) {
        trace::set_enabled(false);
        let quiet = served_bits(&graph, backend.clone(), cfg, 4242, &x);
        trace::set_enabled(true);
        let traced = served_bits(&graph, backend, cfg, 4242, &x);
        trace::set_enabled(false);
        assert_eq!(
            quiet, traced,
            "{name}: enabling tracing changed the reply bits"
        );
        assert!(!quiet.is_empty(), "{name}: reply carried no probabilities");
    }
    trace::reset();
}

#[test]
fn stage_spans_nest_under_one_request_and_fit_its_latency() {
    let _guard = flag_guard();
    let (folded, ds) = trained_lenet();
    let server = Server::for_graph(Arc::new(folded))
        .bayes(BayesConfig::new(2, 4))
        .seed(77)
        .start();
    trace::set_enabled(true);
    trace::reset();

    let root = trace::new_span();
    assert_ne!(root, 0, "enabled tracing must hand out nonzero span ids");
    let t0 = Instant::now();
    server
        .handle()
        .request(ds.test_x.select_item(0))
        .seed(9001)
        .trace(root)
        .submit()
        .wait()
        .expect("served");
    let e2e_us = t0.elapsed().as_micros() as u64;

    // The reply-write span is recorded by the batch worker just after
    // the reply is delivered; wait for it before draining.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let wrote = trace::stage_histograms()
            .iter()
            .any(|(stage, hist)| *stage == Stage::Write && hist.total() >= 1);
        if wrote {
            break;
        }
        assert!(Instant::now() < deadline, "write span never recorded");
        std::thread::sleep(Duration::from_millis(2));
    }
    trace::set_enabled(false);
    let events: Vec<trace::Event> = trace::drain()
        .into_iter()
        .flat_map(|t| t.events)
        .filter(|e| e.parent == root)
        .collect();
    server.shutdown();

    let mut picked = Vec::new();
    for stage in [
        Stage::QueueWait,
        Stage::BatchForm,
        Stage::Compute,
        Stage::Write,
    ] {
        let matches: Vec<&trace::Event> = events.iter().filter(|e| e.stage == stage).collect();
        assert_eq!(
            matches.len(),
            1,
            "{}: one request must record exactly one {} span under its root, got {matches:?}",
            stage.name(),
            stage.name()
        );
        picked.push(*matches[0]);
    }
    for pair in picked.windows(2) {
        assert!(
            pair[0].t_start_us <= pair[1].t_start_us,
            "stage starts out of order: {pair:?}"
        );
    }
    let sum: u64 = picked.iter().map(|e| e.dur_us).sum();
    // The stages are sequential inside the submit→reply window; allow
    // a little slack for microsecond truncation on each boundary.
    assert!(
        sum <= e2e_us + 100,
        "stage durations {sum}us exceed end-to-end {e2e_us}us"
    );
    trace::reset();
}

#[test]
fn lone_requests_wait_less_than_they_compute_on_library_defaults() {
    let _guard = flag_guard();
    let (folded, ds) = trained_lenet();
    // Library defaults throughout: fused substrate, default policy.
    let server = Server::for_graph(Arc::new(folded)).seed(13).start();
    let handle = server.handle();
    trace::set_enabled(true);
    trace::reset();

    const SENT: usize = 40;
    for i in 0..SENT {
        handle
            .request(ds.test_x.select_item(i % 8))
            .submit()
            .wait()
            .expect("served");
    }
    // Queue-wait and compute spans are recorded before the reply is
    // delivered, so all of them are in the dispatcher's ring by now.
    trace::set_enabled(false);
    let events: Vec<trace::Event> = trace::drain().into_iter().flat_map(|t| t.events).collect();
    server.shutdown();

    let of = |stage: Stage| -> Vec<&trace::Event> {
        events.iter().filter(|e| e.stage == stage).collect()
    };
    let median = |spans: &[&trace::Event]| -> u64 {
        let mut durs: Vec<u64> = spans.iter().map(|e| e.dur_us).collect();
        durs.sort_unstable();
        durs[durs.len() / 2]
    };
    let (waits, computes) = (of(Stage::QueueWait), of(Stage::Compute));
    assert_eq!(waits.len(), SENT);
    assert_eq!(computes.len(), SENT);
    // A ratio, not a time: with no hold, a lone request's queue wait
    // is the hand-off to the dispatcher — a small fraction of the
    // engine pass it waits for, on any machine.
    let (wait_us, compute_us) = (median(&waits), median(&computes));
    assert!(
        wait_us <= compute_us,
        "a lone request waited {wait_us} us (median) for {compute_us} us of compute"
    );
    // The queue-wait payload is the depth the batch was taken from:
    // a lone request was the whole queue.
    assert!(
        waits.iter().all(|e| e.meta == 1),
        "lone requests must record a queue depth of 1: {waits:?}"
    );
    assert!(computes.iter().all(|e| e.meta == 1), "nothing coalesced");
    trace::reset();
}

#[test]
fn wire_stage_spans_start_inside_their_request_root() {
    use bnn_fpga::net::{Request, Response};
    use bnn_fpga::{NetClient, NetConfig, NetServer, PipelinedClient};

    let _guard = flag_guard();
    let (folded, ds) = trained_lenet();
    let server = Server::for_graph(Arc::new(folded))
        .bayes(BayesConfig::new(2, 4))
        .seed(91)
        .start();
    let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind");
    let addr = front.local_addr();
    trace::set_enabled(true);
    trace::reset();

    const SENT: usize = 4;
    let request = |i: usize| Request::new(ds.test_x.select_item(i)).seed(700 + i as u64);
    // Lock-step (protocol v1): admitted and answered on one thread.
    let mut lock_step = NetClient::connect(addr).expect("connect lock-step");
    for i in 0..SENT {
        let response = lock_step.send(&request(i)).expect("send");
        assert!(matches!(response, Response::Reply(_)), "{response:?}");
    }
    drop(lock_step);
    // Pipelined (protocol v2): admitted on the connection's reader,
    // answered on its writer.
    let mut pipelined = PipelinedClient::connect(addr, 2).expect("connect pipelined");
    let mut replies = 0;
    for i in 0..SENT {
        let submitted = pipelined.submit(&request(i)).expect("submit");
        replies += usize::from(submitted.drained.is_some());
    }
    replies += pipelined.drain().expect("drain").len();
    assert_eq!(replies, SENT);
    drop(pipelined);
    // A root span is recorded after its reply is written; joining the
    // connection workers guarantees every one is in a ring.
    front.shutdown();
    trace::set_enabled(false);

    let events: Vec<trace::Event> = trace::drain().into_iter().flat_map(|t| t.events).collect();
    let roots: Vec<&trace::Event> = events
        .iter()
        .filter(|e| e.stage == Stage::Request)
        .collect();
    assert_eq!(roots.len(), 2 * SENT, "one request root per served frame");
    for root in roots {
        for stage in [Stage::Admission, Stage::Submit, Stage::WriterWait] {
            let nested: Vec<&trace::Event> = events
                .iter()
                .filter(|e| e.parent == root.span_id && e.stage == stage)
                .collect();
            assert_eq!(nested.len(), 1, "{}: {nested:?}", stage.name());
            assert!(
                nested[0].t_start_us >= root.t_start_us,
                "{} starts at {} us, before its request root at {} us",
                stage.name(),
                nested[0].t_start_us,
                root.t_start_us
            );
        }
    }
    trace::reset();
}

#[test]
fn batch_parallel_predictive_records_prepare_and_forward_spans() {
    let _guard = flag_guard();
    let (folded, ds) = trained_lenet();
    let mut xs = Tensor::zeros(ds.image_shape().with_n(4));
    for i in 0..4 {
        xs.item_mut(i).copy_from_slice(ds.test_x.item(i));
    }
    let pool = Arc::new(WorkerPool::new(2));
    let session = |parallel: ParallelConfig| {
        Session::for_graph(&folded)
            .bayes(BayesConfig::new(2, 4))
            .parallel(parallel)
            .pool(Arc::clone(&pool))
            .seed(31)
            .build()
    };
    let want = session(ParallelConfig::serial()).predictive_batched(&xs, 1);

    trace::set_enabled(true);
    trace::reset();
    let mut split = session(ParallelConfig::with_threads(2));
    let got = split.predictive_batched(&xs, 1);
    trace::set_enabled(false);
    let events: Vec<trace::Event> = trace::drain().into_iter().flat_map(|t| t.events).collect();
    for (stage, per_group) in [(Stage::Prepare, 1), (Stage::Forward, 1), (Stage::Chunk, 2)] {
        assert_eq!(
            events.iter().filter(|e| e.stage == stage).count(),
            4 * per_group,
            "{per_group} {} span(s) per group at two sample-axis threads",
            stage.name()
        );
    }
    assert_eq!(
        got.as_slice(),
        want.as_slice(),
        "the sample split moved the prediction"
    );
    trace::reset();
}

#[test]
fn full_ring_evicts_oldest_without_blocking() {
    let _guard = flag_guard();
    trace::set_enabled(true);
    trace::reset();
    let extra = 9;
    for i in 0..(trace::RING_CAP + extra) {
        trace::record(Stage::Chunk, 1_000_000 + i as u64, 0, i as u64, 1, 0);
    }
    trace::set_enabled(false);
    let ours: Vec<trace::Event> = trace::drain()
        .into_iter()
        .flat_map(|t| t.events)
        .filter(|e| e.span_id >= 1_000_000)
        .collect();
    assert_eq!(ours.len(), trace::RING_CAP, "ring must cap, not grow");
    // Oldest `extra` events were evicted; the survivors stay ordered.
    assert_eq!(ours[0].t_start_us, extra as u64);
    for pair in ours.windows(2) {
        assert_eq!(pair[1].t_start_us, pair[0].t_start_us + 1);
    }
    trace::reset();
}

#[test]
fn metrics_and_trace_endpoints_round_trip() {
    use bnn_fpga::net::{http_get, NetClient, Request, Response};
    use bnn_fpga::{NetConfig, NetServer, Timeouts};

    let _guard = flag_guard();
    let (folded, ds) = trained_lenet();
    let server = Server::for_graph(Arc::new(folded))
        .bayes(BayesConfig::new(2, 4))
        .seed(55)
        .start();
    let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind");
    let addr = front.local_addr();
    trace::set_enabled(true);
    trace::reset();

    let mut client = NetClient::connect(addr).expect("connect");
    const SENT: usize = 4;
    for i in 0..SENT {
        let response = client
            .send(&Request::new(ds.test_x.select_item(i)).seed(100 + i as u64))
            .expect("send");
        assert!(
            matches!(response, Response::Reply(_)),
            "unexpected error frame: {response:?}"
        );
    }
    drop(client);

    let metrics = http_get(addr, "/metrics", Timeouts::default()).expect("GET /metrics");
    let count_line = metrics
        .lines()
        .find(|l| l.starts_with("bnn_request_latency_us_count"))
        .expect("latency histogram count sample");
    assert!(
        count_line.ends_with(&format!(" {SENT}")),
        "histogram count must reconcile with {SENT} served replies: {count_line}"
    );
    assert!(
        metrics.contains("# TYPE bnn_stage_duration_us histogram"),
        "stage histograms missing while tracing is enabled:\n{metrics}"
    );

    let trace_json = http_get(addr, "/trace", Timeouts::default()).expect("GET /trace");
    trace::set_enabled(false);
    assert!(
        trace_json.starts_with("{\"traceEvents\":["),
        "not a chrome trace document: {}",
        &trace_json[..trace_json.len().min(80)]
    );
    // Stages recorded before the reply write are guaranteed present
    // by the time the client has its replies.
    for stage in [
        "decode",
        "admission",
        "submit",
        "queue_wait",
        "batch_form",
        "compute",
    ] {
        assert!(
            trace_json.contains(&format!("\"name\":\"{stage}\"")),
            "trace has no `{stage}` spans"
        );
    }
    front.shutdown();
    trace::reset();
}
