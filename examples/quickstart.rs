//! Quickstart: the full pipeline on one page.
//!
//! Train a small Bayesian LeNet-5 on the synthetic MNIST stand-in,
//! fold batch norm, quantize to int8, then serve the *same* seeded
//! Monte Carlo prediction through one `Session` API on all four
//! execution substrates — f32 software, f32 with batched-sample GEMM
//! fusion (`Backend::Fused`: bit-identical to `Backend::Float` but
//! each suffix weight matrix streams once per layer instead of once
//! per sample — prefer it when `S` is large), int8 integer, and the
//! simulated FPGA accelerator — compare against the paper's CPU/GPU
//! baselines, serve four concurrent clients through the
//! request-coalescing `bnn-serve` front door, and finish with the
//! same server on a TCP socket: a binary-protocol prediction with
//! its seed echoed for offline replay, plus a `GET /status`
//! telemetry fetch (what `curl http://host:port/status` would see).
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::data::synth_mnist;
use bnn_fpga::mcd::{BayesConfig, ParallelConfig};
use bnn_fpga::net::{http_get, NetClient, NetConfig, NetServer, Request, Response, Timeouts};
use bnn_fpga::nn::{arch::extract_layers, models, SgdConfig, Trainer};
use bnn_fpga::platforms::PlatformModel;
use bnn_fpga::quant::Quantizer;
use bnn_fpga::{Backend, Priority, ServeError, Server, Session};

fn main() {
    // 1. Data + model. LeNet-5 has N = 5 weight layers, each guarded
    //    by an MCD site; we make the last L = 2 Bayesian.
    let ds = synth_mnist(1200, 128, 42);
    let mut net = models::lenet5(10, 1, 28, 7);
    let bayes = BayesConfig::new(2, 10); // L = 2, S = 10, p = 0.25

    // 2. Train with MCD active at the Bayesian sites (a few quick epochs).
    let mut trainer = Trainer::new(&net, SgdConfig::default(), bayes.l, bayes.p, 1);
    for epoch in 0..5 {
        let (loss, acc) = trainer.train_epoch(&mut net, &ds.train_x, &ds.train_y, 32);
        println!("epoch {epoch}: loss {loss:.3}, train acc {acc:.3}");
    }

    // 3. Deployment: fold BN, calibrate, quantize to int8, compile the
    //    accelerator (the paper's 64/64/1 configuration at 225 MHz).
    let folded = net.fold_batch_norm();
    let qgraph = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qgraph, ds.image_shape());

    // 4. Serve: one Session per substrate, same Bayesian protocol,
    //    same seed -> same mask stream everywhere. Each session owns a
    //    persistent WorkerPool sized by its ParallelConfig (serial ->
    //    zero resident workers, inline execution); on a multi-core
    //    host, split the Monte Carlo samples over threads with e.g.
    //    `.parallel(ParallelConfig::with_threads(4))` or share one
    //    pool across sessions via `.pool(..)` — the predictions are
    //    bit-identical under every schedule.
    let image = ds.test_x.select_item(0);
    let build = |backend: Backend| {
        Session::for_graph(&folded)
            .backend(backend)
            .bayes(bayes)
            .parallel(ParallelConfig::serial())
            .seed(2024)
            .build()
    };
    println!(
        "\n== the same prediction on four substrates (truth {}) ==",
        ds.test_y[0]
    );
    for backend in [
        Backend::Float,
        Backend::Fused,
        Backend::Int8(qgraph.clone()),
        Backend::Accel(accel),
    ] {
        let mut session = build(backend);
        let probs = session.predictive(&image);
        let pred = probs.argmax_item(0);
        let conf = probs.item(0)[pred];
        let cost = session.last_cost().expect("predictive records cost");
        print!(
            "{:>6}: class {pred} (confidence {conf:.3}), wall {:.3} ms",
            session.backend_name(),
            cost.wall_ms
        );
        match cost.model {
            // The accelerator carries a full hardware cost model; the
            // software paths model weight-streaming traffic only (the
            // quantity `Backend::Fused` cuts by its factor of S).
            Some(m) if m.cycles > 0 => println!(
                ", modelled {:.3} ms ({} cycles, {:.1} KiB off-chip)",
                m.latency_ms,
                m.cycles,
                m.mem_bytes as f64 / 1024.0
            ),
            Some(m) => println!(
                ", {:.1} KiB weights streamed (modelled)",
                m.mem_bytes as f64 / 1024.0
            ),
            None => println!(),
        }
    }

    // 5. Compare against the paper's software baselines.
    let layers = extract_layers(&folded, ds.image_shape());
    let cpu = PlatformModel::i9_9900k().bayes_latency_ms(&layers, bayes);
    let gpu = PlatformModel::rtx_2080_super().bayes_latency_ms(&layers, bayes);
    println!(
        "\nbaselines ({} MC samples, no IC): CPU {cpu:.3} ms, GPU {gpu:.3} ms",
        bayes.s
    );

    // 6. Concurrent serving: the bnn-serve front door. Many clients
    //    submit single inputs through cheap cloneable handles; one
    //    resident dispatcher coalesces them into micro-batches and
    //    hands each caller its probabilities plus an uncertainty
    //    summary and its own cost slice. Each request's masks derive
    //    from its own seed, so a reply is bit-identical whether the
    //    request was served alone or coalesced with strangers. The
    //    dispatcher never holds a queued request: the first of the
    //    four clients' requests typically runs alone, and the rest
    //    coalesce from the backlog that queued up behind it.
    let server = Server::for_graph(std::sync::Arc::new(folded.clone()))
        .backend(Backend::Fused)
        .bayes(bayes)
        .seed(2024)
        .start();
    println!("\n== 4 concurrent clients through one coalescing server ==");
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let handle = server.handle();
            let x = ds.test_x.select_item(client);
            let truth = ds.test_y[client];
            scope.spawn(move || {
                let reply = handle.request(x).submit().wait().expect("served");
                let u = reply.uncertainty;
                println!(
                    "client {client}: class {} (truth {truth}, confidence {:.3}), \
                     entropy {:.3} nats (epistemic {:.3}), \
                     coalesced x{}, {:.3} ms",
                    u.predicted,
                    u.confidence,
                    u.entropy,
                    u.mutual_information,
                    reply.coalesced,
                    reply.cost.wall_ms
                );
            });
        }
    });

    // 7. Admission control: requests carry a priority and an optional
    //    queue-time budget, and every outcome is a typed `ServeError`.
    //    A latency-critical caller submits High with a deadline; if
    //    the queue can't reach it in time it gets a clean
    //    `DeadlineExceeded` back instead of a late answer.
    let handle = server.handle();
    let urgent = handle
        .request(ds.test_x.select_item(5))
        .priority(Priority::High)
        .deadline(std::time::Duration::from_millis(250))
        .seed(7)
        .submit();
    match urgent.wait() {
        Ok(reply) => println!(
            "\nurgent client: class {} in time (confidence {:.3})",
            reply.uncertainty.predicted, reply.uncertainty.confidence
        ),
        Err(ServeError::DeadlineExceeded) => {
            println!("\nurgent client: queue budget lapsed — fall back")
        }
        Err(err) => println!("\nurgent client: {err}"),
    }
    let stats = server.stats();
    println!(
        "server totals: {} served, {} shed, {} expired",
        stats.served, stats.shed, stats.expired
    );

    // 8. Over the wire: the bnn-net TCP front door puts that same
    //    admission layer on a socket — binary protocol v1 for
    //    predictions (every reply echoes its effective mask seed, so
    //    it can be reproduced offline bit-for-bit) and HTTP/1.1
    //    `GET /status` for live telemetry. The curl equivalent of the
    //    status fetch below:
    //
    //        curl http://127.0.0.1:<port>/status
    let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
        .expect("bind loopback front door");
    let addr = front.local_addr();
    println!("\n== the same server over TCP ({addr}) ==");
    let mut client = NetClient::connect(addr).expect("connect");
    let response = client
        .send(
            &Request::new(ds.test_x.select_item(6))
                .tenant("quickstart")
                .seed(99),
        )
        .expect("round trip");
    match response {
        Response::Reply(reply) => println!(
            "wire client: class {} (confidence {:.3}), seed echo {} — \
             replay offline with Session::seed({})",
            reply.uncertainty.predicted, reply.uncertainty.confidence, reply.seed, reply.seed
        ),
        Response::Error(err) => println!("wire client: typed error {:?}", err.code),
    }
    let status = http_get(addr, "/status", Timeouts::default()).expect("GET /status");
    println!("GET /status -> {status}");
    front.shutdown();
}
