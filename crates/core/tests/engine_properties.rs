//! Property test: the accelerator engine (the integer kernel in the PE
//! array's tile order) is bit-exact against the int8 reference
//! executor for *randomly generated* networks, mask patterns and
//! parallelism configurations — not just the hand-picked models — the
//! one integer node-range walk (`QGraph::walk`) is the same function at
//! every prefix/suffix cut under either node executor, and the tiles
//! the kernel runs are the tiles the cycle model charges.

use bnn_accel::{AccelConfig, Accelerator, PerfModel};
use bnn_mcd::{active_sites, BayesConfig};
use bnn_nn::arch::first_bayesian_layer;
use bnn_nn::{models, Graph, GraphBuilder, MaskSet};
use bnn_quant::{exec_qnode, exec_qnode_tiled, QNode, QTensor, Quantizer};
use bnn_rng::SoftRng;
use bnn_tensor::{Shape4, Tensor};
use proptest::prelude::*;

/// Build a random small conv/pool/fc network from a recipe of choices.
fn random_net(
    seed: u64,
    conv_blocks: usize,
    widths: &[usize],
    kernel: usize,
    use_pool: bool,
    residual: bool,
) -> (Graph, Shape4) {
    let img = 8usize;
    let in_c = 2usize;
    let mut b = GraphBuilder::new("prop", seed);
    let x = b.input();
    let mut cur = x;
    let mut c_in = in_c;
    let mut hw = img;
    for i in 0..conv_blocks {
        let c_out = widths[i % widths.len()];
        let m = b.mcd(cur, 0.25);
        let conv = b.conv(m, c_in, c_out, kernel, 1, kernel / 2);
        let bn = b.batch_norm(conv, c_out);
        let r = b.relu(bn);
        cur = if residual && c_in == c_out && kernel % 2 == 1 {
            // Identity-shaped residual: add the masked block input.
            b.add(r, m)
        } else {
            r
        };
        if use_pool && hw >= 4 && i + 1 < conv_blocks {
            cur = b.max_pool(cur, 2, 2);
            hw /= 2;
        }
        c_in = c_out;
    }
    let g = b.global_avg_pool(cur);
    let f = b.flatten(g);
    let m = b.mcd(f, 0.25);
    let fc = b.linear(m, c_in, 4);
    (b.finish(fc), Shape4::new(1, in_c, img, img))
}

proptest! {
    // Each case trains nothing and runs tiny tensors; keep the count
    // moderate so the suite stays fast in debug CI.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_bit_exact_on_random_networks(
        seed in 0u64..10_000,
        conv_blocks in 1usize..4,
        w0 in 2usize..7,
        w1 in 2usize..7,
        kernel in prop_oneof![Just(1usize), Just(3usize)],
        use_pool in any::<bool>(),
        residual in any::<bool>(),
        pc in prop_oneof![Just(4usize), Just(16), Just(64)],
        pf in prop_oneof![Just(4usize), Just(32)],
        pv in prop_oneof![Just(1usize), Just(8)],
    ) {
        let (net, input_shape) = random_net(seed, conv_blocks, &[w0, w1], kernel, use_pool, residual);
        let folded = net.fold_batch_norm();

        // Random calibration data and probe image.
        let mut rng = SoftRng::new(seed ^ 0xCAFE);
        let calib_shape = input_shape.with_n(3);
        let calib = Tensor::from_vec(
            calib_shape,
            (0..calib_shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let qg = Quantizer::new(&folded).calibrate(&calib).quantize();
        let accel = Accelerator::new(
            AccelConfig::with_parallelism(pc, pf, pv),
            &folded,
            &qg,
            input_shape,
        );

        // Random full-MCD masks.
        let channels = folded.site_channels(input_shape);
        let active = vec![true; folded.n_sites()];
        let masks = MaskSet::sample_software(&active, &channels, 0.25, &mut rng);

        let img = calib.select_item(0);
        let run = accel.run_with_masks(
            &img,
            BayesConfig { l: folded.n_sites(), s: 1, p: 0.25 },
            std::slice::from_ref(&masks),
        );
        let reference = qg.forward(&img, &masks);
        prop_assert_eq!(
            run.logits_per_sample[0].as_slice(),
            reference.as_slice(),
            "random net (blocks={}, k={}, pool={}, res={}) diverged at ({},{},{})",
            conv_blocks, kernel, use_pool, residual, pc, pf, pv
        );
    }

    #[test]
    fn ic_invariant_on_random_networks(
        seed in 0u64..10_000,
        l in 1usize..4,
        s in 1usize..4,
    ) {
        // Prefix caching never changes the per-sample logits.
        let (net, input_shape) = random_net(seed, 2, &[3, 5], 3, true, false);
        let folded = net.fold_batch_norm();
        let mut rng = SoftRng::new(seed ^ 0x1C);
        let calib_shape = input_shape.with_n(2);
        let calib = Tensor::from_vec(
            calib_shape,
            (0..calib_shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let qg = Quantizer::new(&folded).calibrate(&calib).quantize();
        let accel =
            Accelerator::new(AccelConfig::paper_default(), &folded, &qg, input_shape);

        let channels = folded.site_channels(input_shape);
        let active = bnn_mcd::active_sites(folded.n_sites(), l);
        let mask_sets: Vec<MaskSet> = (0..s)
            .map(|_| MaskSet::sample_software(&active, &channels, 0.25, &mut rng))
            .collect();
        let img = calib.select_item(1);
        let run = accel.run_with_masks(&img, BayesConfig { l, s, p: 0.25 }, &mask_sets);
        for (i, masks) in mask_sets.iter().enumerate() {
            let full = qg.forward(&img, masks);
            prop_assert_eq!(run.logits_per_sample[i].as_slice(), full.as_slice());
        }
    }

    #[test]
    fn walk_projections_equal_forward_trace_at_every_split(
        seed in 0u64..10_000,
        residual in any::<bool>(),
        use_pool in any::<bool>(),
    ) {
        // Prefix + suffix projections of `QGraph::walk` — with the
        // reference executor and with the tiled kernel — against
        // `forward_trace`, node by node, at every split point. One slot
        // vector serves every walk, and each suffix is first run under
        // other masks, so an executor that failed to overwrite its
        // whole slot (a stale suffix output, which a residual `Add`
        // would read across the cut) cannot pass.
        let (net, input_shape) = random_net(seed, 2, &[3, 3], 3, use_pool, residual);
        let folded = net.fold_batch_norm();
        let mut rng = SoftRng::new(seed ^ 0x3A1C);
        let calib_shape = input_shape.with_n(2);
        let calib = Tensor::from_vec(
            calib_shape,
            (0..calib_shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let qg = Quantizer::new(&folded).calibrate(&calib).quantize();
        let tile = AccelConfig::with_parallelism(4, 4, 8).tile();
        let mut ops = Vec::new();
        let mut station =
            |node: &QNode, outs: &[QTensor], input: &QTensor, masks: &[MaskSet], y: &mut QTensor| {
                exec_qnode_tiled(tile, &mut ops, node, outs, input, masks, y);
            };

        let channels = folded.site_channels(input_shape);
        let active = vec![true; folded.n_sites()];
        let masks = [MaskSet::sample_software(&active, &channels, 0.25, &mut rng)];
        let other = [MaskSet::sample_software(&active, &channels, 0.25, &mut rng)];
        let input = qg.quantize_input(&calib.select_item(0));
        let trace = qg.forward_trace(&input, &masks[0]);
        let n = qg.nodes().len();
        prop_assert_eq!(trace.len(), n);

        let mut outs = qg.slots();
        for split in 0..=n {
            qg.walk(0..split, &input, &masks, &mut outs, exec_qnode);
            qg.walk(split..n, &input, &other, &mut outs, exec_qnode);
            qg.walk(split..n, &input, &masks, &mut outs, exec_qnode);
            prop_assert_eq!(&outs, &trace, "exec_qnode walk diverged at split {}", split);
            qg.walk(0..split, &input, &masks, &mut outs, &mut station);
            qg.walk(split..n, &input, &other, &mut outs, &mut station);
            qg.walk(split..n, &input, &masks, &mut outs, &mut station);
            prop_assert_eq!(&outs, &trace, "tiled walk diverged at split {}", split);
        }
    }
}

/// Random calibration data and its quantization of a BN-folded graph.
fn quantize(folded: &Graph, input: Shape4, seed: u64) -> (bnn_quant::QGraph, Tensor) {
    let mut rng = SoftRng::new(seed);
    let shape = input.with_n(2);
    let calib = Tensor::from_vec(
        shape,
        (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
    );
    (Quantizer::new(folded).calibrate(&calib).quantize(), calib)
}

#[test]
fn kernel_tile_counts_equal_the_cycle_models() {
    // The cycle model charges `PerfModel::tiles` compute cycles per
    // layer invocation; the kernel that computes the bytes counts the
    // tiles it runs. Over one `run_with_masks` the two must agree layer
    // by layer: once per prefix layer, S times per suffix layer. The
    // last tile, (pc, pf, pv) = (3, 7, 5), leaves a partial tile on
    // most filter, pixel and reduction extents of both nets.
    let (lenet, lenet_shape) = (
        models::lenet5(10, 1, 16, 3).fold_batch_norm(),
        Shape4::new(1, 1, 16, 16),
    );
    let (random, random_shape) = random_net(11, 3, &[3, 5], 3, true, true);
    let s = 3;
    for (net, input) in [
        (lenet, lenet_shape),
        (random.fold_batch_norm(), random_shape),
    ] {
        let (qg, calib) = quantize(&net, input, 5);
        let img = calib.select_item(0);
        for (pc, pf, pv) in [(64, 64, 1), (8, 8, 1), (16, 32, 4), (3, 7, 5)] {
            let cfg = AccelConfig::with_parallelism(pc, pf, pv);
            let accel = Accelerator::new(cfg, &net, &qg, input);
            for l in [1, net.n_sites()] {
                let active = active_sites(net.n_sites(), l);
                let channels = net.site_channels(input);
                let mut rng = SoftRng::new(l as u64);
                let mask_sets: Vec<MaskSet> = (0..s)
                    .map(|_| MaskSet::sample_software(&active, &channels, 0.25, &mut rng))
                    .collect();
                let run = accel.run_with_masks(&img, BayesConfig { l, s, p: 0.25 }, &mask_sets);
                let split = first_bayesian_layer(accel.layers(), l);
                let want: Vec<u64> = accel
                    .layers()
                    .iter()
                    .enumerate()
                    .map(|(i, layer)| {
                        let runs = if i < split { 1 } else { s as u64 };
                        PerfModel::new(cfg).tiles(layer) * runs
                    })
                    .collect();
                assert_eq!(
                    run.tiles,
                    want,
                    "{}: tiles at (pc, pf, pv) = ({pc}, {pf}, {pv}), L = {l}",
                    net.name()
                );
            }
        }
    }
}
