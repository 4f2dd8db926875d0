//! Cross-backend agreement: the `Session` API on its four execution
//! substrates against each other and against the bare engine.
//!
//! The pairwise contracts run through the reusable conformance
//! harness (`bnn_fpga::mcd::conformance::assert_backend_agrees`:
//! shared mask stream, threads ∈ {1, 4}, batched vs. unbatched), in
//! decreasing strictness:
//!
//! * `FloatBackend::fused` is *bit-identical* to `FloatBackend::new`:
//!   batched-sample GEMM fusion (every sample of a chunk in one walk)
//!   is an exact re-scheduling of one sample per walk — the two run
//!   the same kernels and differ in how many mask sets share a walk.
//! * The `accel` substrate (`Accelerator::into_backend`) is the `int8`
//!   substrate with the analytic cost model attached, and both are
//!   *bit-identical* to the simulator's run
//!   (`Accelerator::run_with_masks`): the one integer kernel at the PE
//!   array's tile instead of the serving tile, an exact re-scheduling.
//! * `Int8Backend` stays within quantization tolerance of
//!   `FloatBackend` on a trained LeNet-5.
//! * `Session` is a thin caller of `Engine::run`: its batched
//!   predictive is *bit-identical* to a bare `Plan::batched` run over
//!   a `FloatBackend` for the same seed.
//! * All four substrates lowered from one graph answer `info(shape)`
//!   with the same geometry, and `Backend` / `ServeBackend` are one
//!   type with one name table.
//! * Every substrate survives deterministic fault injection
//!   (`assert_chaos_agrees`): disabled chaos is bit-transparent and
//!   scheduled faults are contained and replayable.
//! * Every resident backend keeps one scratch per sample chunk warm
//!   across requests: a second request of the same shape reallocates
//!   nothing the first one sized.

use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::data::synth_mnist;
use bnn_fpga::mcd::conformance::{assert_backend_agrees, assert_chaos_agrees, Tolerance};
use bnn_fpga::mcd::{
    active_sites, BayesBackend, BayesConfig, Engine, FloatBackend, MaskSource, ParallelConfig,
    Plan, RequestResult, SoftwareMaskSource, WorkerPool,
};
use bnn_fpga::nn::{models, MaskSet, Op, SgdConfig, Trainer};
use bnn_fpga::quant::{Int8Backend, Quantizer};
use bnn_fpga::tensor::{softmax_rows, Shape4, Tensor};
use bnn_fpga::{Backend, ServeBackend, Session};

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
            for _ in 0..3 {
                let _ = tr.train_epoch(&mut net, &ds.train_x, &ds.train_y, 32);
            }
            (net, ds)
        })
        .clone()
}

fn test_batch(ds: &bnn_fpga::data::Dataset, n: usize) -> Tensor {
    let mut t = Tensor::zeros(Shape4::new(n, 1, 28, 28));
    for i in 0..n {
        t.item_mut(i).copy_from_slice(ds.test_x.item(i));
    }
    t
}

#[test]
fn conformance_fused_bit_identical_to_float() {
    let (net, ds) = trained_lenet();
    // Batch > 1 plus L sweeping from FC-only to conv-containing
    // suffixes, so the fused im2col/GEMM stacking is exercised on both
    // layer kinds.
    for l in [2usize, 5] {
        assert_backend_agrees(
            &mut FloatBackend::new(&net),
            &mut FloatBackend::fused(&net),
            &test_batch(&ds, 3),
            BayesConfig::new(l, 9),
            77,
            Tolerance::BitExact,
        );
    }
}

#[test]
fn conformance_accel_bit_identical_to_int8() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    // Single-item input: the accelerator processes one image at a time.
    let x = ds.test_x.select_item(0);
    let (cfg, seed) = (BayesConfig::new(3, 8), 123);
    let mut backend = accel.clone().into_backend();
    // Checks 1–6 on the accel name: the attached model moves no byte.
    assert_backend_agrees(
        &mut Int8Backend::new(qg),
        &mut backend,
        &x,
        cfg,
        seed,
        Tolerance::BitExact,
    );

    // Both names run the kernel at the serving tile through the one
    // slot walk, so the pair above cannot see the simulator. Its run
    // (`run_with_masks`: the kernel at the PE array's tile) must equal
    // the engine's passes, softmaxed, under the same masks; the golden
    // constants below and `bnn-quant`'s kernel proptest pin both to the
    // direct reference loops.
    let info = backend.info(x.shape());
    let active = active_sites(info.n_sites, cfg.l);
    let mut src = SoftwareMaskSource::new(seed);
    let mask_sets: Vec<MaskSet> = (0..cfg.s)
        .map(|_| src.next_masks(&active, &info.site_channels, cfg.p))
        .collect();
    let tiled = accel.run_with_masks(&x, cfg, &mask_sets);
    let passes = RequestResult::single(Engine::serial().run(
        &mut backend,
        Plan::one(&x, &mut SoftwareMaskSource::new(seed)),
        cfg,
    ))
    .passes;
    assert_eq!(passes.len(), cfg.s);
    for (s, (pass, logits)) in passes.iter().zip(&tiled.logits_per_sample).enumerate() {
        let mut reference = logits.clone();
        let shape = reference.shape();
        softmax_rows(reference.as_mut_slice(), shape.n, shape.item_len());
        assert_eq!(
            pass.as_slice(),
            reference.as_slice(),
            "sample {s}: the accel substrate diverged from the simulator's run"
        );
    }
}

#[test]
fn golden_bytes_are_pinned_on_all_substrates() {
    // Every other test here compares two substrates with each other, so
    // a kernel change that moves one ulp on both sides alike passes
    // them all. These two constants pin the bytes themselves: the
    // trained weights (the training kernels), one served request's
    // predictive mean and its S per-sample rows. They must not depend
    // on the build profile or the vector ISA (CI runs this under
    // `-C target-cpu=x86-64` too); a PR that means to move them says
    // so and re-baselines the benchmark's `output_digest`s with them.
    const FLOAT_FUSED: u64 = 0x57f1_6d5b_3c48_9dcc;
    const INT8_ACCEL: u64 = 0xbe19_c2c2_b8a0_cb91;

    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    let x = ds.test_x.select_item(0);
    for (backend, want) in [
        (Backend::Float, FLOAT_FUSED),
        (Backend::Fused, FLOAT_FUSED),
        (Backend::Int8(qg), INT8_ACCEL),
        (Backend::Accel(accel), INT8_ACCEL),
    ] {
        let name = backend.name();
        let mut session = Session::for_graph(&folded)
            .backend(backend)
            .bayes(BayesConfig::new(3, 10))
            .build();
        let out = RequestResult::single(session.serve_requests(&[(&x, 0x60_1d)]));
        // FNV-1a-64 over the little-endian bytes of every f32.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let tensors = std::iter::once(&out.probs).chain(&out.passes);
        for v in tensors.flat_map(Tensor::iter) {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, want, "{name}: output bytes moved (got {hash:#018x})");
    }
}

#[test]
fn mis_shaped_inputs_are_refused_alike_on_all_substrates() {
    // One shape rule behind both graphs (`bnn_nn::out_shape`): a
    // LeNet-5 built for 28×28 refuses an input it cannot execute with
    // the same message on every substrate — the integer walk does not
    // answer it with ten "probabilities".
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    let substrates = [
        Backend::Float,
        Backend::Fused,
        Backend::Int8(qg),
        Backend::Accel(accel),
    ];
    for (shape, check) in [
        (Shape4::new(1, 1, 32, 32), "feature mismatch"),
        (Shape4::new(1, 3, 28, 28), "channel mismatch"),
        (Shape4::new(1, 1, 6, 6), "kernel larger than padded input"),
    ] {
        let x = Tensor::full(shape, 0.1);
        let messages: Vec<String> = substrates
            .iter()
            .map(|backend| {
                let mut session = Session::for_graph(&folded)
                    .backend(backend.clone())
                    .bayes(BayesConfig::new(2, 3))
                    .build();
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.predictive(&x)
                }));
                let Err(payload) = run else {
                    panic!("{}: {shape:?} was served, not refused", backend.name())
                };
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            })
            .collect();
        assert!(
            messages[0].ends_with(check),
            "{shape:?}: float refused with {:?}, want {check:?}",
            messages[0]
        );
        for (backend, message) in substrates.iter().zip(&messages) {
            assert_eq!(message, &messages[0], "{}: {shape:?}", backend.name());
        }
    }
}

#[test]
fn conformance_chaos_containment_on_all_substrates() {
    // Conformance check 7: deterministic fault injection. On every
    // substrate, disabled chaos is bit-transparent, a scheduled panic
    // fails exactly its own request, survivors are bit-identical to
    // the fault-free run, and the same seed replays the same faults.
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    // Single-item input: the accelerator processes one image at a time.
    let x = ds.test_x.select_item(0);
    let cfg = BayesConfig::new(2, 4);
    assert_chaos_agrees(|| FloatBackend::new(&folded), &x, cfg, 0xFA01);
    assert_chaos_agrees(|| FloatBackend::fused(&folded), &x, cfg, 0xFA02);
    assert_chaos_agrees(|| Int8Backend::new(qg.clone()), &x, cfg, 0xFA03);
    assert_chaos_agrees(|| accel.clone().into_backend(), &x, cfg, 0xFA04);
}

#[test]
fn geometry_is_one_answer_across_substrates() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    let shape = ds.image_shape().with_n(1);
    let float = FloatBackend::new(&folded).info(shape);
    assert_eq!(
        (
            float.n_sites,
            float.site_channels.len(),
            float.output_classes
        ),
        (5, 5, 10)
    );
    let backends = [
        (Backend::Float, float.clone()),
        (Backend::Fused, FloatBackend::fused(&folded).info(shape)),
        (Backend::Int8(qg.clone()), Int8Backend::new(qg).info(shape)),
        (
            Backend::Accel(accel.clone()),
            accel.into_backend().info(shape),
        ),
    ];
    let names = ["float", "fused", "int8", "accel"];
    for ((backend, info), name) in backends.into_iter().zip(names) {
        // One enum under two names (`benchmark/` imports both), one
        // name table.
        let backend: ServeBackend = backend;
        assert_eq!(backend.name(), name);
        assert_eq!(info.n_sites, float.n_sites, "{name}: n_sites");
        assert_eq!(info.site_channels, float.site_channels, "{name}: channels");
        assert_eq!(info.output_classes, float.output_classes, "{name}: classes");
        assert_eq!(info.name, name);
        // The session answers what its backend does.
        let session = Session::for_graph(&folded).backend(backend).build();
        assert_eq!(session.backend_name(), name);
        assert_eq!(session.info(shape), info);
    }
}

#[test]
fn conformance_int8_within_quantization_tolerance_of_float() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    assert_backend_agrees(
        &mut FloatBackend::new(&folded),
        &mut Int8Backend::new(qg),
        &test_batch(&ds, 4),
        BayesConfig::new(2, 16),
        31,
        Tolerance::L1(0.35),
    );
}

#[test]
fn fused_session_bit_identical_to_float_session() {
    let (net, ds) = trained_lenet();
    let x = test_batch(&ds, 4);
    let cfg = BayesConfig::new(3, 12);

    let mut float = Session::for_graph(&net)
        .backend(Backend::Float)
        .bayes(cfg)
        .parallel(ParallelConfig::serial())
        .seed(55)
        .build();
    let want = float.predictive(&x);

    for threads in [1usize, 4] {
        let mut fused = Session::for_graph(&net)
            .backend(Backend::Fused)
            .bayes(cfg)
            .parallel(ParallelConfig::with_threads(threads))
            .seed(55)
            .build();
        assert_eq!(fused.backend_name(), "fused");
        let probs = fused.predictive(&x);
        assert_eq!(
            probs.as_slice(),
            want.as_slice(),
            "Session(fused, threads={threads}) diverged from Session(float)"
        );
    }
}

#[test]
fn fused_session_counts_weight_traffic_once_per_layer() {
    let (net, ds) = trained_lenet();
    let x = ds.test_x.select_item(0);
    let mem_at = |backend: Backend, s: usize| -> u64 {
        let mut session = Session::for_graph(&net)
            .backend(backend)
            .bayes(BayesConfig::new(2, s))
            .seed(9)
            .build();
        let _ = session.predictive(&x);
        session
            .last_cost()
            .and_then(|c| c.model)
            .expect("software paths model weight traffic")
            .mem_bytes
    };
    let (float10, float50) = (mem_at(Backend::Float, 10), mem_at(Backend::Float, 50));
    let (fused10, fused50) = (mem_at(Backend::Fused, 10), mem_at(Backend::Fused, 50));
    // Fused streams suffix weights once per layer: traffic is flat in
    // S. The per-sample float path pays the suffix S times — the
    // regression identity float(S) = fused + (S-1)·suffix must hold.
    assert_eq!(
        fused10, fused50,
        "fused weight traffic must not scale with S"
    );
    assert!(fused10 < float10, "fusion must reduce weight traffic");
    let suffix = (float10 - fused10) / 9;
    assert!(suffix > 0, "Bayesian suffix contains weight layers");
    assert_eq!(
        float50 - float10,
        40 * suffix,
        "float weight traffic must grow by exactly the suffix bytes per sample"
    );
}

#[test]
fn float_session_batched_matches_legacy_batched() {
    let (net, ds) = trained_lenet();
    let xs = test_batch(&ds, 6);
    let cfg = BayesConfig::new(2, 4);

    // The bare engine over a float backend, serial schedule.
    let (bare, _) = RequestResult::stacked(&Engine::serial().run(
        &mut FloatBackend::new(&net),
        Plan::batched(&xs, 2, &mut SoftwareMaskSource::new(5)),
        cfg,
    ));
    let mut session = Session::for_graph(&net)
        .bayes(cfg)
        .parallel(ParallelConfig::max_parallel())
        .seed(5)
        .build();
    let probs = session.predictive_batched(&xs, 2);
    assert_eq!(probs.as_slice(), bare.as_slice());
    let cost = session.last_cost().expect("cost recorded");
    assert_eq!(cost.batch, 6);
    assert_eq!(cost.samples, 3 * cfg.s, "S per batch over 3 batches");
}

#[test]
fn sample_probs_records_last_cost() {
    let (net, ds) = trained_lenet();
    let mut session = Session::for_graph(&net)
        .bayes(BayesConfig::new(2, 5))
        .build();
    let passes = session.sample_probs(&ds.test_x.select_item(0));
    assert_eq!(
        session.last_cost().map(|c| c.samples),
        Some(passes.len()),
        "sample_probs must record its run's cost like predictive does"
    );
}

#[test]
fn sessions_sharing_one_pool_serve_identically() {
    // One resident worker team behind several sessions (the serving
    // deployment shape): serial and sample-parallel, single and
    // batched — every call must produce the session's canonical bytes.
    let (net, ds) = trained_lenet();
    let xs = test_batch(&ds, 4);
    let cfg = BayesConfig::new(2, 6);
    let pool = std::sync::Arc::new(WorkerPool::new(4));

    let mut serial = Session::for_graph(&net).bayes(cfg).seed(21).build();
    let want_single = serial.predictive(&xs);
    let mut serial = Session::for_graph(&net).bayes(cfg).seed(21).build();
    let want_batched = serial.predictive_batched(&xs, 1);

    for fused in [false, true] {
        // Fresh seeded sessions per check: predictive calls advance
        // the mask stream, and the references above started at seed.
        let build = || {
            Session::for_graph(&net)
                .backend(if fused {
                    Backend::Fused
                } else {
                    Backend::Float
                })
                .bayes(cfg)
                .parallel(ParallelConfig::with_threads(4))
                .pool(std::sync::Arc::clone(&pool))
                .seed(21)
                .build()
        };
        let mut session = build();
        assert_eq!(session.pool().workers(), 4, "builder must adopt the pool");
        let got = session.predictive(&xs);
        assert_eq!(
            got.as_slice(),
            want_single.as_slice(),
            "{}: shared-pool predictive diverged",
            session.backend_name()
        );
        let mut session = build();
        let got = session.predictive_batched(&xs, 1);
        assert_eq!(
            got.as_slice(),
            want_batched.as_slice(),
            "{}: shared-pool batched serving diverged",
            session.backend_name()
        );
    }
}

#[test]
fn int8_argmax_agrees_with_float_on_trained_model() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let x = test_batch(&ds, 8);
    let cfg = BayesConfig::new(2, 16);

    let mut float = Session::for_graph(&folded)
        .backend(Backend::Float)
        .bayes(cfg)
        .seed(31)
        .build();
    let mut int8 = Session::for_graph(&folded)
        .backend(Backend::Int8(qg))
        .bayes(cfg)
        .seed(31)
        .build();

    let pf = float.predictive(&x);
    let pq = int8.predictive(&x);
    let mut agree = 0usize;
    for i in 0..x.shape().n {
        if pf.argmax_item(i) == pq.argmax_item(i) {
            agree += 1;
        }
    }
    assert!(
        agree >= x.shape().n - 1,
        "int8/float argmax agreement {agree}/{}",
        x.shape().n
    );
}

#[test]
fn accel_session_reports_cycle_cost() {
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    let cfg = BayesConfig::new(2, 10);

    let mut session = Session::for_graph(&folded)
        .backend(Backend::Accel(accel))
        .bayes(cfg)
        .seed(7)
        .build();
    let _ = session.predictive(&ds.test_x.select_item(1));

    let cost = session.last_cost().expect("cost recorded");
    let model = cost.model.expect("accelerator reports a hardware model");
    assert!(model.cycles > 0, "cycle count must be reported");
    assert!(model.latency_ms > 0.0, "latency must be reported");
    assert!(model.mem_bytes > 0, "off-chip traffic must be reported");
    assert_eq!(cost.samples, cfg.s);

    // More samples cost more cycles (the suffix re-runs per sample).
    let accel2 = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    session = Session::for_graph(&folded)
        .backend(Backend::Accel(accel2))
        .bayes(BayesConfig::new(2, 40))
        .seed(7)
        .build();
    let _ = session.predictive(&ds.test_x.select_item(1));
    let model40 = session.last_cost().unwrap().model.unwrap();
    assert!(
        model40.cycles > model.cycles,
        "S=40 must cost more cycles than S=10"
    );
}

#[test]
fn hardware_masks_flow_through_session() {
    let (net, _ds) = trained_lenet();
    let x = Tensor::full(Shape4::new(1, 1, 28, 28), 0.2);
    let cfg = BayesConfig::new(2, 6);
    let mut a = Session::for_graph(&net)
        .bayes(cfg)
        .hardware_masks(9)
        .build();
    let mut b = Session::for_graph(&net)
        .bayes(cfg)
        .hardware_masks(9)
        .build();
    let pa = a.predictive(&x);
    let pb = b.predictive(&x);
    assert_eq!(
        pa.as_slice(),
        pb.as_slice(),
        "hardware-mask sessions must be reproducible from the seed"
    );
    let mut c = Session::for_graph(&net)
        .bayes(cfg)
        .hardware_masks(10)
        .build();
    assert_ne!(pa.as_slice(), c.predictive(&x).as_slice());
}

#[test]
fn session_serve_requests_bit_identical_on_all_substrates() {
    // The coalesced request path (`Session::serve_requests` — the
    // synchronous form of the bnn-serve front door) on every
    // substrate: each (input, seed) request must come back byte-equal
    // to a fresh solo session seeded with that request's seed,
    // whatever its neighbors in the micro-batch.
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    let cfg = BayesConfig::new(2, 5);
    // Single-item inputs: the shape every backend (incl. the batch-1
    // accelerator) serves.
    let inputs: Vec<Tensor> = (0..3).map(|i| ds.test_x.select_item(i)).collect();
    let seeds = [401u64, 402, 403];

    type MakeBackend = Box<dyn Fn() -> Backend>;
    let backends: Vec<(&str, MakeBackend)> = vec![
        ("float", Box::new(|| Backend::Float)),
        ("fused", Box::new(|| Backend::Fused)),
        (
            "int8",
            Box::new({
                let qg = qg.clone();
                move || Backend::Int8(qg.clone())
            }),
        ),
        (
            "accel",
            Box::new({
                let accel = accel.clone();
                move || Backend::Accel(accel.clone())
            }),
        ),
    ];
    for (label, make) in backends {
        // Solo references: one fresh session per request, seeded with
        // the request's own seed.
        let solo: Vec<Tensor> = inputs
            .iter()
            .zip(seeds)
            .map(|(x, seed)| {
                Session::for_graph(&folded)
                    .backend(make())
                    .bayes(cfg)
                    .seed(seed)
                    .build()
                    .predictive(x)
            })
            .collect();
        for parallel in [ParallelConfig::serial(), ParallelConfig::with_threads(3)] {
            let mut session = Session::for_graph(&folded)
                .backend(make())
                .bayes(cfg)
                .parallel(parallel)
                .build();
            let requests: Vec<(&Tensor, u64)> = inputs.iter().zip(seeds).collect();
            let served = session.serve_requests(&requests);
            assert_eq!(served.len(), 3);
            for (i, (out, want)) in served.iter().zip(&solo).enumerate() {
                assert_eq!(
                    out.probs.as_slice(),
                    want.as_slice(),
                    "{label}: coalesced request {i} diverged from solo serving \
                     (threads={})",
                    parallel.threads
                );
                assert_eq!(out.passes.len(), cfg.s);
                assert_eq!(out.cost.samples, cfg.s);
            }
        }
    }
}

#[test]
fn server_front_door_serves_integer_substrates() {
    // The threaded Server over the substrates the serve crate's own
    // tests don't cover (int8, accelerator), from the same `Backend`
    // value a `Session` takes: replies must be byte-equal to solo
    // sessions with the same seeds.
    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    let cfg = BayesConfig::new(2, 4);
    let graph = std::sync::Arc::new(folded.clone());

    for backend in [Backend::Int8(qg.clone()), Backend::Accel(accel.clone())] {
        let name = backend.name();
        let solo = |x: &Tensor, seed: u64, backend: Backend| {
            Session::for_graph(&folded)
                .backend(backend)
                .bayes(cfg)
                .seed(seed)
                .build()
                .predictive(x)
        };
        let server = bnn_fpga::Server::for_graph(std::sync::Arc::clone(&graph))
            .backend(backend)
            .bayes(cfg)
            .start();
        let handle = server.handle();
        let pendings: Vec<_> = (0..3u64)
            .map(|i| {
                let x = ds.test_x.select_item(i as usize);
                (i, handle.request(x).seed(900 + i).submit())
            })
            .collect();
        for (i, pending) in pendings {
            let reply = pending.wait().expect("served");
            let x = ds.test_x.select_item(i as usize);
            let rebuilt = if name == "int8" {
                Backend::Int8(qg.clone())
            } else {
                Backend::Accel(accel.clone())
            };
            let want = solo(&x, 900 + i, rebuilt);
            assert_eq!(
                reply.probs.as_slice(),
                want.as_slice(),
                "{name}: served reply {i} diverged from the solo session"
            );
            assert_eq!(reply.uncertainty.predicted, reply.probs.argmax_item(0));
        }
        server.shutdown();
    }
}

#[test]
fn resident_backends_keep_one_warm_scratch_per_chunk() {
    // The backend owns one scratch per sample chunk and the engine
    // lends them, so a second request of the same shape reuses every
    // buffer the first one sized. S = 8 over 3 threads is chunks of 3,
    // 3 and 2. At L = 4 the suffix holds a convolution and the pooled
    // output before its site crosses the boundary.
    fn serve<B: BayesBackend>(engine: Engine<'_>, backend: &mut B, x: &Tensor, seed: u64) {
        let mut src = SoftwareMaskSource::new(seed);
        let _ = engine.run(backend, Plan::one(x, &mut src), BayesConfig::new(4, 8));
    }
    /// Every suffix slot and crossing replica, the operand buffer of
    /// each chunk's scratch (conv2's padded plane and im2row rows, the
    /// suffix's largest convolution), and the prepared input.
    type Addresses = (Vec<Vec<*const u8>>, Vec<*const u8>, *const u8);
    fn addresses(backend: &mut Int8Backend) -> Addresses {
        let input = backend.prepared_input().expect("prepared").data.as_ptr();
        let scratches = backend.scratches();
        let slots = scratches
            .iter()
            .map(|(slots, _)| slots.iter().map(|t| t.data.as_ptr()).collect())
            .collect();
        (
            slots,
            scratches.iter().map(|(_, ops)| ops.as_ptr()).collect(),
            input,
        )
    }

    let (net, ds) = trained_lenet();
    let folded = net.fold_batch_norm();
    let qg = Quantizer::new(&folded).calibrate(&ds.train_x).quantize();
    let accel = Accelerator::new(AccelConfig::default(), &folded, &qg, ds.image_shape());
    let (x, next) = (ds.test_x.select_item(0), ds.test_x.select_item(1));
    let chunks = [3usize, 3, 2];
    let pool = WorkerPool::new(2);
    let engine = Engine::new(&pool, ParallelConfig::with_threads(3));
    let active = active_sites(folded.n_sites(), 4);
    let crossing = qg.nodes()[qg.suffix_split(&active)].inputs[0];

    for mut backend in [Int8Backend::new(qg.clone()), accel.into_backend()] {
        let name = backend.info(x.shape()).name;
        serve(engine, &mut backend, &x, 1);
        let warm = addresses(&mut backend);
        let scratches = backend.scratches();
        assert_eq!(
            scratches.len(),
            chunks.len(),
            "{name}: one scratch per chunk"
        );
        for ((slots, ops), samples) in scratches.iter().zip(chunks) {
            assert_eq!(slots[crossing].shape.n, samples, "{name}: crossing replica");
            assert!(!ops.is_empty(), "{name}: the suffix ran no kernel");
        }
        serve(engine, &mut backend, &next, 2);
        assert_eq!(
            addresses(&mut backend),
            warm,
            "{name}: a warm request reallocated a slot, a crossing replica, \
             an operand buffer or the prepared input"
        );
    }

    let from = folded
        .nodes()
        .iter()
        .position(|node| matches!(node.op, Op::McdSite { site, .. } if active[site.0]))
        .expect("an active site")
        - 1;
    for (mut backend, fused) in [
        (FloatBackend::new(&folded), false),
        (FloatBackend::fused(&folded), true),
    ] {
        serve(engine, &mut backend, &x, 1);
        serve(engine, &mut backend, &next, 2);
        let scratches = backend.scratches();
        assert_eq!(scratches.len(), chunks.len(), "one scratch per chunk");
        for (scratch, samples) in scratches.iter().zip(chunks) {
            let walk = if fused { samples } else { 1 };
            assert!(
                scratch
                    .as_ref()
                    .is_some_and(|sc| sc.built_for(x.shape(), from, walk)),
                "fused = {fused}: chunk of {samples} holds no fitting workspace"
            );
        }
    }
}
