//! The executor has one node walk; every public pass is a projection
//! of it. These properties pin that the projections agree bit for bit
//! wherever the network is cut.

use bnn_nn::{models, ExecScratch, Graph, GraphBuilder, MaskSet, Op};
use bnn_rng::SoftRng;
use bnn_tensor::{Shape4, Tensor};

fn random_input(shape: Shape4, seed: u64) -> Tensor {
    let mut rng = SoftRng::new(seed);
    Tensor::from_vec(
        shape,
        (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
    )
}

/// A residual block (shortcut around a Bayesian conv) and a Bayesian
/// classifier head: for every cut between `r1` and `sum`, the `Add`
/// reads its shortcut operand across the suffix boundary.
fn residual_net() -> Graph {
    let mut b = GraphBuilder::new("residual", 17);
    let x = b.input();
    let c1 = b.conv(x, 2, 4, 3, 1, 1);
    let r1 = b.relu(c1);
    let m1 = b.mcd(r1, 0.25);
    let c2 = b.conv(m1, 4, 4, 3, 1, 1);
    let bn = b.batch_norm(c2, 4);
    let sum = b.add(bn, r1);
    let r2 = b.relu(sum);
    let gap = b.global_avg_pool(r2);
    let f = b.flatten(gap);
    let m2 = b.mcd(f, 0.25);
    let fc = b.linear(m2, 4, 3);
    b.finish(fc)
}

/// For every suffix boundary `from` and sample chunkings `{1, 3, S}`:
/// prefix + per-sample suffix and prefix + stacked suffix equal
/// `forward_full` under the same masks, through scratches that are
/// reused across two different inputs.
fn check_every_cut(net: &Graph, shape: Shape4) {
    const S: usize = 5;
    let inputs = [random_input(shape, 1), random_input(shape, 2)];
    let channels = net.site_channels(shape);
    let mut site_nodes = vec![0usize; net.n_sites()];
    for (id, node) in net.nodes().iter().enumerate() {
        if let Op::McdSite { site, .. } = node.op {
            site_nodes[site.0] = id;
        }
    }
    for from in 0..net.nodes().len() {
        // Only sites inside the suffix may be Bayesian, or the prefix
        // would not be shared by the samples.
        let active: Vec<bool> = site_nodes.iter().map(|&id| id > from).collect();
        let mut rng = SoftRng::new(from as u64);
        let masks: Vec<MaskSet> = (0..S)
            .map(|_| MaskSet::sample_software(&active, &channels, 0.25, &mut rng))
            .collect();
        let mut scratches: Vec<ExecScratch> = Vec::new();
        let mut cols = Vec::new();
        let mut cache = None;
        for x in &inputs {
            let want: Vec<f32> = masks
                .iter()
                .flat_map(|m| net.forward_full(x, m).logits(net).as_slice().to_vec())
                .collect();
            let prefix =
                net.forward_prefix_with(x, from, &MaskSet::none(), cache.take(), &mut cols);
            for chunk in [1, 3, S] {
                let mut got: Vec<f32> = Vec::new();
                for ms in masks.chunks(chunk) {
                    let held = scratches
                        .iter()
                        .position(|s| s.built_for(shape, from, ms.len()))
                        .unwrap_or_else(|| {
                            scratches.push(net.stacked_scratch_after(shape, from, ms.len()));
                            scratches.len() - 1
                        });
                    let scratch = &mut scratches[held];
                    let logits = match ms {
                        [one] => net.forward_from_with(&prefix, from, one, scratch),
                        _ => net.forward_from_stacked(&prefix, from, ms, scratch),
                    };
                    got.extend_from_slice(logits.as_slice());
                }
                assert_eq!(
                    got,
                    want,
                    "{}: cut after node {from}, chunks of {chunk}",
                    net.name()
                );
            }
            cache = Some(prefix);
        }
    }
}

#[test]
fn prefix_plus_suffix_equals_forward_full_at_every_cut() {
    check_every_cut(&models::lenet5(10, 1, 16, 3), Shape4::new(2, 1, 16, 16));
    check_every_cut(&residual_net(), Shape4::new(2, 2, 6, 6));
}

#[test]
fn training_walk_equals_eval_walk_without_batch_norm() {
    // BN is the only op whose arithmetic differs between the modes.
    let mut net = models::lenet5(10, 1, 16, 5).fold_batch_norm();
    let shape = Shape4::new(3, 1, 16, 16);
    let x = random_input(shape, 9);
    let mut rng = SoftRng::new(4);
    let masks = MaskSet::sample_software(
        &vec![true; net.n_sites()],
        &net.site_channels(shape),
        0.25,
        &mut rng,
    );
    let eval = net.forward_full(&x, &masks);
    let train = net.forward_train(&x, &masks);
    for id in 0..net.nodes().len() {
        assert_eq!(
            train.output(id).as_slice(),
            eval.output(id).as_slice(),
            "node {id} differs between the training and evaluation walks"
        );
    }
}
