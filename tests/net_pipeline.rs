//! Pipelined-wire conformance against the real front door (ISSUE 9
//! acceptance):
//!
//! * a reply received over a pipelined (protocol v2) connection is
//!   **bit-identical** to the same request sent lock-step (v1) with
//!   the same pinned seed, on all four substrates — pipelining
//!   changes scheduling, never arithmetic;
//! * proptest drives random in-flight depths and submit/recv
//!   interleavings and asserts the same bit-identity against an
//!   in-process `Session`;
//! * a typed error frame mid-pipeline (tenant gate refusal on the
//!   real server) fails only its own correlation id — neighbors on
//!   the same connection are served normally.

use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::data::synth_mnist;
use bnn_fpga::mcd::BayesConfig;
use bnn_fpga::net::{
    ErrorCode, NetClient, NetConfig, NetServer, PipelinedClient, Request, Response, TenantPolicy,
    TenantTable,
};
use bnn_fpga::nn::{models, SgdConfig, Trainer};
use bnn_fpga::quant::Quantizer;
use bnn_fpga::tensor::Tensor;
use bnn_fpga::{Backend, Priority, Server, Session};
use proptest::prelude::*;
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

fn probs_bits(reply: &bnn_fpga::net::WireReply) -> Vec<u32> {
    reply.probs.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn pipelined_replies_bit_identical_to_lock_step_on_all_substrates() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let cfg = BayesConfig::new(2, 4);
    let graph = Arc::new(folded.clone());
    const REQUESTS: usize = 6;
    const DEPTH: usize = 3;

    for (name, backend) in substrates(&folded, &ds) {
        let server = Server::for_graph(Arc::clone(&graph))
            .backend(backend.clone())
            .bayes(cfg)
            .seed(0x91 + name.len() as u64)
            .start();
        let front =
            NetServer::bind("127.0.0.1:0", server, NetConfig::default()).expect("bind loopback");
        let addr = front.local_addr();

        let inputs: Vec<(u64, Tensor)> = (0..REQUESTS)
            .map(|i| (4100 + i as u64, ds.test_x.select_item(i % 16)))
            .collect();

        // Pipelined pass: up to DEPTH requests in flight on one
        // protocol-v2 connection.
        let mut pipelined = PipelinedClient::connect(addr, DEPTH).expect("connect pipelined");
        let mut got: Vec<Option<Vec<u32>>> = vec![None; REQUESTS];
        let mut note = |corr: u64, response: Response| match response {
            Response::Reply(reply) => {
                assert_eq!(reply.seed, got_seed(corr), "{name}: pinned seed must echo");
                got[corr as usize] = Some(probs_bits(&reply));
            }
            Response::Error(e) => panic!("{name}: unexpected error frame: {e:?}"),
        };
        fn got_seed(corr: u64) -> u64 {
            4100 + corr
        }
        for (seed, x) in &inputs {
            let submitted = pipelined
                .submit(&Request::new(x.clone()).seed(*seed))
                .expect("submit");
            if let Some((corr, response)) = submitted.drained {
                note(corr, response);
            }
        }
        for (corr, response) in pipelined.drain().expect("drain") {
            note(corr, response);
        }
        drop(pipelined);

        // Lock-step pass: same requests, same seeds, protocol v1.
        let mut lock_step = NetClient::connect(addr).expect("connect lock-step");
        for (i, (seed, x)) in inputs.iter().enumerate() {
            let response = lock_step
                .send(&Request::new(x.clone()).seed(*seed))
                .expect("send");
            let reply = match response {
                Response::Reply(reply) => reply,
                Response::Error(e) => panic!("{name}: unexpected error frame: {e:?}"),
            };
            let pipelined_bits = got[i].as_ref().expect("every corr resolved");
            assert_eq!(
                &probs_bits(&reply),
                pipelined_bits,
                "{name}: pipelined reply diverged from lock-step for seed {seed}"
            );
            // Both must equal the in-process session — the substrate
            // arithmetic is a function of (input, seed) alone.
            let want: Vec<u32> = solo_probs(&folded, backend.clone(), cfg, *seed, x)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(
                pipelined_bits, &want,
                "{name}: pipelined reply diverged from the in-process session"
            );
        }

        let stats = front.stats();
        assert_eq!(stats.served, 2 * REQUESTS as u64, "{name}: served counter");
        assert_eq!(stats.in_flight, 0, "{name}: quiesce");
        front.shutdown();
    }
}

proptest! {
    // Each case spins four servers; keep the case count low — the
    // space is (depth, count, interleaving), and divergence, if any,
    // would be systematic rather than rare.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random in-flight depths and submit/recv interleavings on all
    /// four substrates: every reply stays bit-identical to the same
    /// request answered by an in-process `Session` with the same
    /// pinned seed.
    #[test]
    fn random_depths_and_interleavings_stay_bit_identical(
        depth in 1usize..6,
        count in 2usize..8,
        recv_first in proptest::collection::vec(any::<bool>(), 8..9),
        seed_base in 5000u64..9000,
    ) {
        let (net, ds) = trained_lenet();
        let folded = net.fold_batch_norm();
        let cfg = BayesConfig::new(1, 2);
        let graph = Arc::new(folded.clone());
        for (name, backend) in substrates(&folded, &ds) {
            let server = Server::for_graph(Arc::clone(&graph))
                .backend(backend.clone())
                .bayes(cfg)
                .seed(seed_base ^ name.len() as u64)
                .start();
            let front = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
                .expect("bind loopback");

            let mut client =
                PipelinedClient::connect(front.local_addr(), depth).expect("connect");
            let inputs: Vec<(u64, Tensor)> = (0..count)
                .map(|i| (seed_base + i as u64, ds.test_x.select_item(i % 16)))
                .collect();
            let mut responses: Vec<(u64, Response)> = Vec::new();
            for (i, (seed, x)) in inputs.iter().enumerate() {
                // Randomized interleaving: sometimes eagerly collect a
                // response before the next submit, sometimes run at
                // full depth and let submit() drain.
                if recv_first[i % recv_first.len()] && client.in_flight() > 0 {
                    responses.push(client.recv().expect("recv"));
                }
                let submitted = client
                    .submit(&Request::new(x.clone()).seed(*seed))
                    .expect("submit");
                prop_assert_eq!(submitted.corr, i as u64);
                if let Some(pair) = submitted.drained {
                    responses.push(pair);
                }
            }
            responses.extend(client.drain().expect("drain"));
            prop_assert_eq!(responses.len(), count);

            for (corr, response) in responses {
                let (seed, x) = &inputs[corr as usize];
                let reply = match response {
                    Response::Reply(reply) => reply,
                    Response::Error(e) => panic!("{name}: unexpected error frame: {e:?}"),
                };
                prop_assert_eq!(reply.seed, *seed);
                let got: Vec<u32> = reply.probs.iter().map(|p| p.to_bits()).collect();
                let want: Vec<u32> = solo_probs(&folded, backend.clone(), cfg, *seed, x)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                prop_assert_eq!(got, want, "{} diverged at depth {}", name, depth);
            }
            front.shutdown();
        }
    }
}

#[test]
fn typed_error_mid_pipeline_fails_only_its_own_id() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let cfg = BayesConfig::new(1, 2);
    let server = Server::for_graph(Arc::new(folded.clone()))
        .bayes(cfg)
        .seed(17)
        .start();
    let tenants = TenantTable::default().tenant(
        "metered",
        // One-token bucket that never refills: the second metered
        // request must be refused at the gate mid-pipeline.
        TenantPolicy::limited(Priority::Low, 0.0, 1.0),
    );
    let front = NetServer::bind(
        "127.0.0.1:0",
        server,
        NetConfig {
            tenants,
            ..NetConfig::default()
        },
    )
    .expect("bind");

    let mut client = PipelinedClient::connect(front.local_addr(), 4).expect("connect");
    let x = ds.test_x.select_item(0);
    // corr 0: anonymous (served), corr 1: metered (burst token,
    // served), corr 2: metered (refused), corr 3: anonymous (served).
    let plan: [(&str, u64); 4] = [("", 900), ("metered", 901), ("metered", 902), ("", 903)];
    for (tenant, seed) in plan {
        client
            .submit(&Request::new(x.clone()).tenant(tenant).seed(seed))
            .expect("submit");
    }
    let responses = client.drain().expect("drain");
    assert_eq!(responses.len(), 4);
    for (corr, response) in responses {
        match (corr, response) {
            (2, Response::Error(err)) => {
                assert_eq!(err.code, ErrorCode::RateLimited);
                assert_eq!(err.corr, Some(2), "the error carries its own id");
                assert_eq!(err.seed, Some(902), "rate-limit errors still echo the seed");
            }
            (2, Response::Reply(_)) => panic!("corr 2 should have been rate-limited"),
            (corr, Response::Reply(reply)) => {
                assert_eq!(
                    reply.seed, plan[corr as usize].1,
                    "neighbor served normally"
                );
            }
            (corr, Response::Error(err)) => {
                panic!(
                    "corr {corr} failed with {:?}; only corr 2 may fail",
                    err.code
                )
            }
        }
    }
    let stats = front.stats();
    assert_eq!(stats.served, 3, "gate refusal never reached admission");
    assert_eq!(stats.in_flight, 0);
    front.shutdown();
}
