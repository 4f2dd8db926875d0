//! Layer probes: every layer timed from outside, by calling its public
//! functions in isolation — up to 200 timed calls each after a
//! warm-up, median reported. They answer "which layer got faster"
//! where the workloads answer "did a user notice". FLOPs and bytes
//! are computed from shapes, not measured.
//!
//! All probes use the benchmark's one model (LeNet-5 28×28, `L = 3`,
//! `p = 0.25`), so the kernel shapes are the ones the workloads issue:
//! with `L = 3` the Bayesian suffix is the three fully-connected
//! layers (the Fused walk issues `gemm_bt_stacked` only) and both
//! convolutions sit in the deterministic prefix (`im2col` + `gemm`).
//! `gemm_stacked` and `im2col_stacked` are probed at conv2's shape,
//! which the Fused walk issues from `L = 4` up — no workload moves
//! with them today.

use crate::stack::{Inputs, Model};
use crate::stats::median;
use crate::workload::{Substrate, BAYES_LAYERS};
use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::mcd::{active_sites, BayesConfig, MaskSource, ParallelConfig, SoftwareMaskSource};
use bnn_fpga::net::wire;
use bnn_fpga::net::{http_get, Request, Response};
use bnn_fpga::nn::{MaskSet, Op};
use bnn_fpga::quant::Quantizer;
use bnn_fpga::rng::{BernoulliSampler, DropProbability, SoftRng};
use bnn_fpga::tensor::{gemm, gemm_bt, gemm_bt_stacked, gemm_stacked, im2col_stacked_into};
use bnn_fpga::{trace, Backend, NetClient, NetConfig, NetServer, Reply, Server, Session, Timeouts};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed calls per probe, budget permitting.
const CALLS: usize = 200;
/// Timed calls a probe makes even when one call overruns the budget.
const MIN_CALLS: usize = 5;

/// Median ns per call of `f`: 3 warm-up samples, then up to [`CALLS`]
/// timed samples of `inner` calls each, stopping early (never below
/// [`MIN_CALLS`]) once `budget` is spent.
fn time_ns(budget: Duration, inner: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 * inner {
        f();
    }
    let started = Instant::now();
    let mut samples = Vec::with_capacity(CALLS);
    while samples.len() < CALLS && (samples.len() < MIN_CALLS || started.elapsed() < budget) {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / inner as f64);
    }
    median(&samples).unwrap_or(0.0)
}

struct Probes {
    budget: Duration,
    out: Vec<(String, f64)>,
}

impl Probes {
    fn set(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.out
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Time `f` and store it under `name`, converted by `scale`
    /// (ns → the metric's unit). Returns the median ns.
    fn time(&mut self, name: &str, inner: usize, scale: f64, f: impl FnMut()) -> f64 {
        let ns = time_ns(self.budget, inner, f);
        self.set(name, ns * scale);
        ns
    }
}

const NS_TO_US: f64 = 1e-3;

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run(seed: u64, inputs: &Inputs, budget: Duration) -> Vec<(String, f64)> {
    let mut p = Probes {
        budget,
        out: Vec::new(),
    };
    tensor_probes(&mut p);
    rng_probes(&mut p, seed);
    let fused = Model::build(Substrate::Fused, 10, seed, inputs);
    nn_probes(&mut p, &fused, inputs, seed);
    mcd_probes(&mut p, &fused, inputs, seed);
    serve_and_net_probes(&mut p, &fused, inputs, seed);
    trace_probes(&mut p);
    p.out
}

fn filled(len: usize, rng: &mut SoftRng) -> Vec<f32> {
    (0..len).map(|_| rng.range_f32(-1.0, 1.0)).collect()
}

fn tensor_probes(p: &mut Probes) {
    let mut rng = SoftRng::new(1);
    // (metric, m, k, n, stacked samples): conv2 as the prefix issues
    // it, fc1 for one sample, and both stacked 100 deep.
    const S: usize = 100;
    let (cm, ck, cn) = (16, 150, 100);
    let (fm, fk, fnn) = (1, 400, 120);

    let a = filled(cm * ck, &mut rng);
    let b = filled(ck * cn * S, &mut rng);
    let mut c = vec![0.0f32; cm * cn * S];
    let mut kernel = |name: &str, flops: f64, f: &mut dyn FnMut()| {
        let ns = p.time(&format!("tensor.{name}.ns_per_call"), 1, 1.0, f);
        p.set(&format!("tensor.{name}.gflops"), flops / ns.max(1e-9));
    };
    kernel("gemm", (2 * cm * ck * cn) as f64, &mut || {
        gemm(cm, ck, cn, &a, &b[..ck * cn], &mut c[..cm * cn]);
        black_box(&mut c);
    });
    kernel("gemm_stacked", (2 * cm * ck * cn * S) as f64, &mut || {
        gemm_stacked(cm, ck, cn, S, &a, &b, &mut c);
        black_box(&mut c);
    });
    let x = filled(S * fm * fk, &mut rng);
    let w = filled(fnn * fk, &mut rng);
    let mut y = vec![0.0f32; S * fm * fnn];
    kernel("gemm_bt", (2 * fm * fk * fnn) as f64, &mut || {
        gemm_bt(fm, fk, fnn, &x[..fm * fk], &w, &mut y[..fm * fnn]);
        black_box(&mut y);
    });
    kernel(
        "gemm_bt_stacked",
        (2 * fm * fk * fnn * S) as f64,
        &mut || {
            gemm_bt_stacked(fm, fk, fnn, S, &x, &w, &mut y);
            black_box(&mut y);
        },
    );

    // conv2's im2col: one 6×14×14 image into its block of a 100-sample
    // stacked column matrix. Bytes = image read + block written.
    let (ic, ih, iw, ik) = (6, 14, 14, 5);
    let block = 10 * 10;
    let image = filled(ic * ih * iw, &mut rng);
    let mut cols = vec![0.0f32; ic * ik * ik * block * S];
    let mut at = 0;
    let ns = p.time("tensor.im2col_stacked.ns_per_call", 1, 1.0, || {
        im2col_stacked_into(
            &image,
            ic,
            ih,
            iw,
            ik,
            1,
            0,
            &mut cols,
            block * S,
            at * block,
        );
        at = (at + 1) % S;
        black_box(&mut cols);
    });
    let bytes = 4 * (ic * ih * iw + ic * ik * ik * block);
    p.set(
        "tensor.im2col_stacked.gbytes_s",
        bytes as f64 / ns.max(1e-9),
    );

    // Roofline references, as compiled: 10 independent 8-lane
    // accumulators that never leave registers (2 flops per lane per
    // step), and a copy far larger than any cache (bytes read +
    // bytes written).
    const STEPS: usize = 4096;
    let mut acc = [[1.0f32; 8]; 10];
    let (mul, add) = (black_box(0.999_f32), black_box(0.001_f32));
    let ns = time_ns(p.budget, 1, || {
        for _ in 0..STEPS {
            for lane in &mut acc {
                for v in lane.iter_mut() {
                    *v = if cfg!(target_feature = "fma") {
                        v.mul_add(mul, add)
                    } else {
                        *v * mul + add
                    };
                }
            }
        }
        black_box(&mut acc);
    });
    p.set(
        "tensor.peak_fma_gflops",
        (2 * 8 * 10 * STEPS) as f64 / ns.max(1e-9),
    );
    let src = vec![1.0f32; 8 << 20];
    let mut dst = vec![0.0f32; 8 << 20];
    let ns = time_ns(p.budget, 1, || {
        dst.copy_from_slice(&src);
        black_box(&mut dst);
    });
    p.set(
        "tensor.peak_copy_gbytes_s",
        (2 * 4 * src.len()) as f64 / ns.max(1e-9),
    );
}

/// Mask lengths of the three active sites (fc1, fc2, fc3 inputs).
const SITE_CHANNELS: usize = 400;

fn rng_probes(p: &mut Probes, seed: u64) {
    let mut soft = SoftRng::new(seed);
    p.time(
        "rng.bernoulli_many.ns_per_draw",
        1,
        1.0 / SITE_CHANNELS as f64,
        || {
            black_box(soft.bernoulli_many(0.25, SITE_CHANNELS));
        },
    );
    // The paper's sampler: P_F = 64-bit words, FIFO depth 64.
    let mut hard = BernoulliSampler::new(DropProbability::quarter(), 64, 64, seed);
    p.time(
        "rng.lfsr_mask.ns_per_draw",
        1,
        1.0 / SITE_CHANNELS as f64,
        || {
            black_box(hard.generate_mask(SITE_CHANNELS));
        },
    );
}

fn nn_probes(p: &mut Probes, model: &Model, inputs: &Inputs, seed: u64) {
    let graph = &*model.graph;
    let x = &inputs.images[0];
    let active = active_sites(graph.n_sites(), BAYES_LAYERS);
    let channels = graph.site_channels(x.shape());
    let mut source = SoftwareMaskSource::new(seed);
    p.time("mcd.draw_masks.s100_us", 1, NS_TO_US, || {
        for _ in 0..100 {
            black_box(source.next_masks(&active, &channels, 0.25));
        }
    });
    // The suffix resumes after the node feeding the first active site.
    let Some(site_node) = graph.nodes().iter().position(
        |n| matches!(n.op, Op::McdSite { site, .. } if active.get(site.0).copied().unwrap_or(false)),
    ) else {
        return;
    };
    let from = site_node - 1;
    let mut cols = Vec::new();
    let mut prefix = Some(graph.forward_prefix_with(x, from, &MaskSet::none(), None, &mut cols));
    p.time("nn.prefix.us", 1, NS_TO_US, || {
        prefix =
            Some(graph.forward_prefix_with(x, from, &MaskSet::none(), prefix.take(), &mut cols));
    });
    let Some(prefix) = prefix else { return };
    let masks: Vec<MaskSet> = (0..100)
        .map(|_| source.next_masks(&active, &channels, 0.25))
        .collect();
    let mut scratch = graph.scratch_after(x.shape(), from).serial_conv();
    let mut i = 0;
    p.time("nn.suffix_per_sample.us", 1, NS_TO_US, || {
        black_box(graph.forward_from_with(&prefix, from, &masks[i % 100], &mut scratch));
        i += 1;
    });
    let mut stacked = graph.stacked_scratch_after(x.shape(), from, 100);
    p.time("nn.suffix_stacked.s100.us", 1, NS_TO_US, || {
        black_box(graph.forward_from_stacked(&prefix, from, &masks, &mut stacked));
    });
}

fn mcd_probes(p: &mut Probes, fused: &Model, inputs: &Inputs, seed: u64) {
    let graph = &*fused.graph;
    let x = &inputs.images[0];
    let qgraph = {
        let mut built = None;
        p.time("quant.quantize_us", 1, NS_TO_US, || {
            built = Some(Quantizer::new(graph).calibrate(&inputs.calib).quantize());
        });
        built.unwrap_or_else(|| Quantizer::new(graph).calibrate(&inputs.calib).quantize())
    };
    let accel = {
        let mut built = None;
        p.time("accel.build_us", 1, NS_TO_US, || {
            built = Some(Accelerator::new(
                AccelConfig::default(),
                graph,
                &qgraph,
                x.shape(),
            ));
        });
        built.unwrap_or_else(|| Accelerator::new(AccelConfig::default(), graph, &qgraph, x.shape()))
    };
    let session = |backend: Backend, s: usize, parallel: ParallelConfig| {
        Session::for_graph(graph)
            .backend(backend)
            .bayes(BayesConfig::new(BAYES_LAYERS, s))
            .parallel(parallel)
            .seed(seed)
            .build()
    };
    let backends: [(&str, Backend); 4] = [
        ("float", Backend::Float),
        ("fused", Backend::Fused),
        ("int8", Backend::Int8(qgraph.clone())),
        ("accel", Backend::Accel(accel)),
    ];
    for (name, backend) in backends {
        let mut at = [0.0f64; 2];
        for (slot, s) in [10usize, 100].into_iter().enumerate() {
            let mut sess = session(backend.clone(), s, ParallelConfig::serial());
            at[slot] = p.time(&format!("mcd.{name}.s{s}_us"), 1, NS_TO_US, || {
                black_box(sess.predictive(x));
            }) * NS_TO_US;
            let model_cost = sess.last_cost().and_then(|c| c.model);
            if let (Some(cost), "accel") = (model_cost, name) {
                p.set(&format!("accel.model.cycles_s{s}"), cost.cycles as f64);
                p.set(
                    &format!("accel.model.mem_bytes_s{s}"),
                    cost.mem_bytes as f64,
                );
                p.set(&format!("accel.model.latency_ms_s{s}"), cost.latency_ms);
            }
            if let (Some(cost), "fused", 100) = (model_cost, name, s) {
                p.set("mcd.fused.model_mem_bytes_s100", cost.mem_bytes as f64);
            }
        }
        // Two points fix the line: cost = fixed + S · per_sample.
        let per_sample = (at[1] - at[0]) / 90.0;
        p.set(&format!("mcd.{name}.per_sample_us"), per_sample);
        p.set(&format!("mcd.{name}.fixed_us"), at[0] - 10.0 * per_sample);
    }
    let mut fan = session(Backend::Fused, 10, ParallelConfig::with_threads(2));
    let fan_ns = time_ns(p.budget, 1, || {
        black_box(fan.predictive(x));
    });
    p.set(
        "mcd.pool.fanout2_delta_us",
        fan_ns * NS_TO_US - p.get("mcd.fused.s10_us"),
    );
    let mut sess = session(Backend::Fused, 10, ParallelConfig::serial());
    let requests: Vec<_> = (0..8u64)
        .map(|i| (&inputs.images[i as usize], seed ^ i))
        .collect();
    let b8 = p.time(
        "mcd.serve_requests.b8_us_per_req",
        1,
        NS_TO_US / 8.0,
        || {
            black_box(sess.serve_requests(&requests));
        },
    ) * NS_TO_US
        / 8.0;
    p.set(
        "mcd.coalesce_gain",
        p.get("mcd.fused.s10_us") / b8.max(1e-9),
    );
}

fn serve_and_net_probes(p: &mut Probes, fused: &Model, inputs: &Inputs, seed: u64) {
    let x = &inputs.images[0];
    let server = Server::for_graph(Arc::clone(&fused.graph))
        .bayes(fused.bayes)
        .seed(seed)
        .start();
    let handle = server.handle();
    let mut last: Option<Reply> = None;
    let rtt = p.time("serve.handle_rtt_us", 1, NS_TO_US, || {
        last = handle.request(x.clone()).seed(seed).submit().wait().ok();
    }) * NS_TO_US;
    p.set("serve.overhead_us", rtt - p.get("mcd.fused.s10_us"));

    // The codecs alone, on a request and the reply it got.
    let request = Request::new(x.clone()).tenant("gold").seed(seed).corr(7);
    let mut frame = Vec::new();
    p.time("net.encode_request_ns", 16, 1.0, || {
        black_box(wire::encode_request(&request, &mut frame).is_ok());
    });
    p.time("net.decode_request_ns", 16, 1.0, || {
        black_box(wire::decode_request(&frame).is_ok());
    });
    if let Some(reply) = &last {
        let mut out = Vec::new();
        p.time("net.encode_reply_ns", 16, 1.0, || {
            wire::encode_reply(reply, seed, Some(7), &mut out);
            black_box(&mut out);
        });
        p.time("net.decode_response_ns", 16, 1.0, || {
            black_box(wire::decode_response(&out).is_ok());
        });
    }

    // The same server behind a front door: what the socket adds.
    let Ok(net) = NetServer::bind("127.0.0.1:0", server, NetConfig::default()) else {
        return;
    };
    let addr = net.local_addr();
    if let Ok(mut client) = NetClient::connect(addr) {
        let pinned = Request::new(x.clone()).seed(seed);
        let wire_rtt = time_ns(p.budget, 1, || {
            black_box(matches!(client.send(&pinned), Ok(Response::Reply(_))));
        }) * NS_TO_US;
        p.set("net.overhead_us", wire_rtt - rtt);
    }
    // Fewer connects than the server's connection cap, whatever the
    // budget: each leaves a worker that exits on its own schedule.
    let saved = p.budget;
    p.budget = saved.min(Duration::from_millis(50));
    p.time("net.connect_us", 1, NS_TO_US, || {
        black_box(NetClient::connect(addr).is_ok());
    });
    p.time("net.status_get_us", 1, NS_TO_US, || {
        black_box(http_get(addr, "/status", Timeouts::default()).is_ok());
    });
    p.time("net.metrics_get_us", 1, NS_TO_US, || {
        black_box(http_get(addr, "/metrics", Timeouts::default()).is_ok());
    });
    p.budget = saved;
    net.shutdown();
}

fn trace_probes(p: &mut Probes) {
    p.time("trace.disabled_ns", 64, 1.0, || {
        trace::finish(black_box(trace::start()), trace::Stage::Chunk, 0, 0);
    });
    trace::set_enabled(true);
    p.time("trace.span_ns", 64, 1.0, || {
        trace::finish(black_box(trace::start()), trace::Stage::Chunk, 0, 0);
    });
    trace::set_enabled(false);
    trace::reset();
}
