//! Loopback conformance for the TCP front door (ISSUE 8 acceptance):
//!
//! * a reply served over TCP is **bit-identical** to the same request
//!   served through an in-process `Session` with the same seed, on
//!   all four substrates;
//! * the seed echoed in every reply reproduces that reply offline —
//!   including server-derived seeds the client never chose;
//! * `GET /status` returns well-formed JSON whose served/shed/expired
//!   counters match `Server::stats()` at quiesce;
//! * the tenant gate, the malformed-frame path and a mis-shaped input
//!   answer with typed error frames over the wire.

use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::data::synth_mnist;
use bnn_fpga::mcd::BayesConfig;
use bnn_fpga::net::{
    http_get, ErrorCode, NetClient, NetConfig, NetServer, Request, Response, TenantPolicy,
    TenantTable, Timeouts,
};
use bnn_fpga::nn::{models, SgdConfig, Trainer};
use bnn_fpga::quant::Quantizer;
use bnn_fpga::tensor::{Shape4, Tensor};
use bnn_fpga::{request_seed, Backend, Priority, Server, Session};
use std::sync::Arc;

/// A briefly-trained LeNet-5 with its dataset, trained once and
/// shared by the whole suite.
fn trained_lenet() -> (bnn_fpga::nn::Graph, bnn_fpga::data::Dataset) {
    static SHARED: std::sync::OnceLock<(bnn_fpga::nn::Graph, bnn_fpga::data::Dataset)> =
        std::sync::OnceLock::new();
    SHARED
        .get_or_init(|| {
            let ds = synth_mnist(320, 64, 19);
            let mut net = models::lenet5(10, 1, 28, 3);
            let mut tr = Trainer::new(&net, SgdConfig::default(), 2, 0.25, 5);
            for _ in 0..2 {
                let _ = tr.train_epoch(&mut net, &ds.train_x, &ds.train_y, 32);
            }
            (net, ds)
        })
        .clone()
}

/// The four substrates as facade `Backend`s over one folded graph.
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

fn solo_probs(
    folded: &bnn_fpga::nn::Graph,
    backend: Backend,
    cfg: BayesConfig,
    seed: u64,
    x: &Tensor,
) -> Vec<f32> {
    Session::for_graph(folded)
        .backend(backend)
        .bayes(cfg)
        .seed(seed)
        .build()
        .predictive(x)
        .as_slice()
        .to_vec()
}

#[test]
fn tcp_replies_bit_identical_to_in_process_session_on_all_substrates() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let cfg = BayesConfig::new(2, 4);
    let graph = Arc::new(folded.clone());
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 2;

    for (name, backend) in substrates(&folded, &ds) {
        let server = Server::for_graph(Arc::clone(&graph))
            .backend(backend.clone())
            .bayes(cfg)
            .seed(0xD0C0 + name.len() as u64)
            .start();
        let front =
            NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind loopback");
        let addr = front.local_addr();

        // N concurrent binary clients, each its own connection.
        let mut joins = Vec::new();
        for t in 0..CLIENTS {
            let xs: Vec<Tensor> = (0..PER_CLIENT)
                .map(|i| ds.test_x.select_item((t * PER_CLIENT + i) % 16))
                .collect();
            joins.push(std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut got = Vec::new();
                for (i, x) in xs.into_iter().enumerate() {
                    let seed = 7000 + (t * PER_CLIENT + i) as u64;
                    let response = client
                        .send(&Request::new(x.clone()).seed(seed).tenant("conformance"))
                        .expect("send");
                    match response {
                        Response::Reply(reply) => got.push((x, seed, reply)),
                        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
                    }
                }
                got
            }));
        }
        let mut total = 0usize;
        for join in joins {
            for (x, seed, reply) in join.join().expect("client thread") {
                assert_eq!(reply.seed, seed, "{name}: pinned seed must echo");
                let want = solo_probs(&folded, backend.clone(), cfg, seed, &x);
                let got_bits: Vec<u32> = reply.probs.iter().map(|p| p.to_bits()).collect();
                let want_bits: Vec<u32> = want.iter().map(|p| p.to_bits()).collect();
                assert_eq!(
                    got_bits, want_bits,
                    "{name}: TCP reply diverged from the in-process session"
                );
                assert_eq!(reply.cost.samples, cfg.s, "{name}: cost slice samples");
                assert!(reply.coalesced >= 1);
                total += 1;
            }
        }
        assert_eq!(total, CLIENTS * PER_CLIENT);

        let stats = front.stats();
        assert_eq!(stats.served, total as u64, "{name}: served counter");
        assert_eq!(stats.queued, 0, "{name}: queue empty at quiesce");
        assert_eq!(stats.in_flight, 0, "{name}: nothing in flight at quiesce");
        front.shutdown();
    }
}

#[test]
fn server_derived_seed_echo_reproduces_offline() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let cfg = BayesConfig::new(2, 4);
    let base_seed = 0xABCD;
    let server = Server::for_graph(Arc::new(folded.clone()))
        .bayes(cfg)
        .seed(base_seed)
        .start();
    let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind");
    let mut client = NetClient::connect(front.local_addr()).expect("connect");

    let x = ds.test_x.select_item(0);
    // No pinned seed: the server derives one and must echo it.
    let reply = match client.send(&Request::new(x.clone())).expect("send") {
        Response::Reply(reply) => reply,
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    };
    assert_eq!(
        reply.seed,
        request_seed(base_seed, reply.id),
        "echoed seed must be the documented derivation"
    );
    // The echoed seed reproduces the reply offline, bit for bit —
    // the wire-level reproducibility contract.
    let offline = solo_probs(&folded, Backend::Fused, cfg, reply.seed, &x);
    let got: Vec<u32> = reply.probs.iter().map(|p| p.to_bits()).collect();
    let want: Vec<u32> = offline.iter().map(|p| p.to_bits()).collect();
    assert_eq!(got, want);
    front.shutdown();
}

#[test]
fn status_json_is_well_formed_and_matches_stats_at_quiesce() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let cfg = BayesConfig::new(1, 3);
    let server = Server::for_graph(Arc::new(folded.clone()))
        .bayes(cfg)
        .seed(5)
        .start();
    let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind");
    let addr = front.local_addr();

    let mut client = NetClient::connect(addr).expect("connect");
    for i in 0..5 {
        let x = ds.test_x.select_item(i);
        match client
            .send(&Request::new(x).seed(40 + i as u64))
            .expect("send")
        {
            Response::Reply(_) => {}
            Response::Error(e) => panic!("unexpected error frame: {e:?}"),
        }
    }

    let body = http_get(addr, "/status", Timeouts::default()).expect("GET /status");
    assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
    assert_eq!(
        body.matches('{').count(),
        body.matches('}').count(),
        "unbalanced JSON: {body}"
    );
    let stats = front.stats();
    assert_eq!(stats.served, 5);
    for (key, value) in [
        ("\"served\":", stats.served),
        ("\"shed\":", stats.shed),
        ("\"expired\":", stats.expired),
        ("\"failed\":", stats.failed),
        ("\"rejected\":", stats.rejected),
        ("\"queued\":", stats.queued),
        ("\"in_flight\":", stats.in_flight),
    ] {
        assert!(
            body.contains(&format!("{key}{value}")),
            "status JSON does not carry {key}{value}: {body}"
        );
    }
    assert!(body.contains("\"substrate\":\"fused\""));
    assert!(body.contains("\"p50_us\":"));
    // The in-process renderer is the same document the socket served.
    let direct = front.status_json();
    assert_eq!(direct, body);

    // Unknown paths and methods get proper HTTP errors, not hangs.
    assert!(
        http_get(addr, "/status", Timeouts::default()).is_ok(),
        "status stays up"
    );
    front.shutdown();
}

#[test]
fn tenant_rate_limit_and_priority_ceiling_are_enforced_on_the_wire() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let cfg = BayesConfig::new(1, 2);
    let server = Server::for_graph(Arc::new(folded.clone()))
        .bayes(cfg)
        .seed(9)
        .start();
    let tenants = TenantTable::default().tenant(
        "metered",
        // One-token bucket that never refills: request #2 must be
        // refused at the gate, before it touches the admission queue.
        TenantPolicy::limited(Priority::Low, 0.0, 1.0),
    );
    let net_cfg = NetConfig {
        tenants,
        ..NetConfig::default()
    };
    let front = NetServer::bind("127.0.0.1:0", server, net_cfg).expect("bind");
    let mut client = NetClient::connect(front.local_addr()).expect("connect");

    let x = ds.test_x.select_item(0);
    let first = client
        .send(
            &Request::new(x.clone())
                .tenant("metered")
                .priority(Priority::High)
                .seed(77),
        )
        .expect("send");
    assert!(
        matches!(first, Response::Reply(_)),
        "first request rides the burst token: {first:?}"
    );
    let second = client
        .send(&Request::new(x.clone()).tenant("metered").seed(78))
        .expect("send");
    match second {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::RateLimited);
            assert_eq!(e.seed, Some(78), "rate-limit errors still echo the seed");
        }
        other => panic!("expected RateLimited, got {other:?}"),
    }
    // Other tenants are unaffected by the metered bucket.
    let other = client.send(&Request::new(x).seed(79)).expect("send");
    assert!(matches!(other, Response::Reply(_)));

    let stats = front.stats();
    assert_eq!(
        stats.served, 2,
        "gate-refused request never reached admission"
    );
    front.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_never_a_dead_socket() {
    use std::io::{Read, Write};

    let (net, _ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let server = Server::for_graph(Arc::new(folded))
        .bayes(BayesConfig::new(1, 2))
        .seed(1)
        .start();
    let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind");

    // A framed payload that decodes to BadVersion: the server answers
    // with a Malformed error frame, then closes the connection.
    let mut stream = std::net::TcpStream::connect(front.local_addr()).expect("connect");
    let payload = [99u8, 1, 0, 1, 0]; // bad version byte
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("len");
    stream.write_all(&payload).expect("payload");
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("error frame length");
    let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut frame).expect("error frame body");
    match bnn_fpga::net::wire::decode_response(&frame) {
        Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("expected Malformed error frame, got {other:?}"),
    }
    // The connection is closed after a malformed frame…
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());

    // …but the front door itself survives and serves new connections.
    assert!(http_get(front.local_addr(), "/status", Timeouts::default()).is_ok());
    assert!(front.status_json().contains("\"malformed\":1"));
    front.shutdown();
}

#[test]
fn mis_shaped_input_gets_bad_input_and_the_connection_stays_open() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let cfg = BayesConfig::new(1, 2);
    let server = Server::for_graph(Arc::new(folded.clone()))
        .bayes(cfg)
        .seed(3)
        .start();
    let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind");
    let mut client = NetClient::connect(front.local_addr()).expect("connect");

    // A 32×32 image for a 28×28 LeNet-5: the frame decodes, the graph
    // refuses the shape at admission.
    let bad = Tensor::full(Shape4::new(1, 1, 32, 32), 0.1);
    match client.send(&Request::new(bad).seed(5)).expect("send") {
        Response::Error(e) => {
            assert_eq!((e.code, e.code.as_u8()), (ErrorCode::BadInput, 7));
            assert_eq!(e.seed, Some(5), "a refusal still echoes the seed");
        }
        other => panic!("expected a BadInput error frame, got {other:?}"),
    }
    // The same connection then serves a well-formed request.
    let x = ds.test_x.select_item(0);
    let reply = match client.send(&Request::new(x.clone()).seed(6)).expect("send") {
        Response::Reply(reply) => reply,
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    };
    let want = solo_probs(&folded, Backend::Fused, cfg, 6, &x);
    let got: Vec<u32> = reply.probs.iter().map(|p| p.to_bits()).collect();
    let want: Vec<u32> = want.iter().map(|p| p.to_bits()).collect();
    assert_eq!(got, want);
    let stats = front.stats();
    assert_eq!((stats.rejected, stats.served), (1, 1));
    front.shutdown();
}
