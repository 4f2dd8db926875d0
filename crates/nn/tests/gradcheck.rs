//! Numerical gradient checks of the backward pass.
//!
//! Every op family (conv, linear, BN, ReLU, max/avg/global pooling,
//! residual add, MCD masks) is covered by a small network whose
//! analytic gradients are compared against central finite differences.

use bnn_nn::{cross_entropy, Graph, GraphBuilder, Mask, MaskSet};
use bnn_rng::SoftRng;
use bnn_tensor::{Shape4, Tensor};

/// Loss of a graph at its current parameters (training-mode forward so
/// BN uses batch statistics, matching what backward differentiates).
fn loss_of(graph: &Graph, x: &Tensor, labels: &[usize], masks: &MaskSet) -> f32 {
    let mut g = graph.clone();
    let acts = g.forward_train(x, masks);
    cross_entropy(acts.logits(&g), labels).loss
}

/// Compare analytic and numeric gradients for every trainable scalar.
fn check_gradients(graph: &mut Graph, x: &Tensor, labels: &[usize], masks: &MaskSet, tol: f32) {
    graph.params_mut().zero_grads();
    let acts = graph.forward_train(x, masks);
    let out = cross_entropy(acts.logits(graph), labels);
    graph.backward(&acts, masks, out.dlogits);

    // Small enough to avoid crossing ReLU kinks, large enough to stay
    // above f32 cancellation noise (verified by a convergence study).
    let eps = 3e-3f32;
    let ids: Vec<_> = graph.params().ids().collect();
    let mut checked = 0usize;
    for id in ids {
        if !graph.params().is_trainable(id) {
            continue;
        }
        let len = graph.params().get(id).len();
        // Sample a handful of coordinates per tensor to keep runtime sane.
        let stride = (len / 7).max(1);
        for j in (0..len).step_by(stride) {
            let orig = graph.params().get(id).as_slice()[j];
            let analytic = graph.params().grad(id).as_slice()[j];

            graph.params_mut().get_mut(id).as_mut_slice()[j] = orig + eps;
            let lp = loss_of(graph, x, labels, masks);
            graph.params_mut().get_mut(id).as_mut_slice()[j] = orig - eps;
            let lm = loss_of(graph, x, labels, masks);
            graph.params_mut().get_mut(id).as_mut_slice()[j] = orig;

            let numeric = (lp - lm) / (2.0 * eps);
            let denom = analytic.abs().max(numeric.abs()).max(1.0);
            assert!(
                (analytic - numeric).abs() / denom < tol,
                "param {:?}[{j}]: analytic {analytic} vs numeric {numeric}",
                id
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "gradient check must cover many coordinates");
}

fn rand_input(shape: Shape4, seed: u64) -> Tensor {
    let mut rng = SoftRng::new(seed);
    Tensor::from_vec(
        shape,
        (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
    )
}

#[test]
fn gradcheck_conv_bn_relu_maxpool_fc() {
    let mut b = GraphBuilder::new("g1", 3);
    let x = b.input();
    let c = b.conv(x, 2, 3, 3, 1, 1);
    let bn = b.batch_norm(c, 3);
    let r = b.relu(bn);
    let p = b.max_pool(r, 2, 2);
    let f = b.flatten(p);
    let fc = b.linear(f, 3 * 2 * 2, 3);
    let mut net = b.finish(fc);
    let x = rand_input(Shape4::new(3, 2, 4, 4), 10);
    check_gradients(&mut net, &x, &[0, 1, 2], &MaskSet::none(), 2e-2);
}

#[test]
fn gradcheck_conv_conv_gap_fc() {
    let mut b = GraphBuilder::new("g2", 4);
    let x = b.input();
    let c = b.conv(x, 1, 4, 3, 1, 1);
    let c2 = b.conv(c, 4, 4, 3, 1, 1);
    let g = b.global_avg_pool(c2);
    let f = b.flatten(g);
    let fc = b.linear(f, 4, 2);
    let mut net = b.finish(fc);
    let x = rand_input(Shape4::new(2, 1, 6, 6), 11);
    check_gradients(&mut net, &x, &[0, 1], &MaskSet::none(), 2e-2);
}

#[test]
fn gradcheck_residual_add_with_projection() {
    let mut b = GraphBuilder::new("g3", 5);
    let x = b.input();
    let c1 = b.conv(x, 2, 4, 3, 2, 1);
    let bn1 = b.batch_norm(c1, 4);
    let proj = b.conv(x, 2, 4, 1, 2, 0);
    let add = b.add(bn1, proj);
    let r = b.relu(add);
    let f = b.flatten(r);
    let fc = b.linear(f, 4 * 2 * 2, 2);
    let mut net = b.finish(fc);
    let x = rand_input(Shape4::new(2, 2, 4, 4), 12);
    check_gradients(&mut net, &x, &[1, 0], &MaskSet::none(), 2e-2);
}

#[test]
fn gradcheck_with_active_mcd_masks() {
    // Masks are fixed, so the loss stays deterministic and
    // differentiable; gradients must flow only through kept channels.
    let mut b = GraphBuilder::new("g4", 6);
    let x = b.input();
    let m0 = b.mcd(x, 0.25);
    let c = b.conv(m0, 2, 4, 3, 1, 1);
    let r = b.relu(c);
    let f = b.flatten(r);
    let m1 = b.mcd(f, 0.25);
    let fc = b.linear(m1, 4 * 16, 3);
    let mut net = b.finish(fc);
    let masks = MaskSet::from_masks(vec![
        Some(Mask {
            keep: vec![true, false],
            scale: 4.0 / 3.0,
        }),
        Some(Mask {
            keep: vec![true; 64],
            scale: 4.0 / 3.0,
        }),
    ]);
    let x = rand_input(Shape4::new(2, 2, 4, 4), 13);
    check_gradients(&mut net, &x, &[2, 0], &masks, 2e-2);
}

#[test]
fn dropped_input_channel_gets_no_gradient() {
    let mut b = GraphBuilder::new("g5", 7);
    let x = b.input();
    let m0 = b.mcd(x, 0.25);
    let c = b.conv(m0, 2, 2, 1, 1, 0);
    let f = b.flatten(c);
    let fc = b.linear(f, 2 * 4, 2);
    let mut net = b.finish(fc);
    let masks = MaskSet::from_masks(vec![Some(Mask {
        keep: vec![true, false],
        scale: 4.0 / 3.0,
    })]);
    let x = rand_input(Shape4::new(1, 2, 2, 2), 14);

    net.params_mut().zero_grads();
    let acts = net.forward_train(&x, &masks);
    let out = cross_entropy(acts.logits(&net), &[0]);
    net.backward(&acts, &masks, out.dlogits);

    // Conv weight is [out=2, in=2, 1, 1]: the column reading the
    // dropped channel (in=1) must have exactly zero gradient.
    let wgrad = net
        .params()
        .grad(net.params().ids().next().expect("conv w"));
    assert_eq!(wgrad.at(0, 1, 0, 0), 0.0);
    assert_eq!(wgrad.at(1, 1, 0, 0), 0.0);
    assert!(wgrad.at(0, 0, 0, 0) != 0.0 || wgrad.at(1, 0, 0, 0) != 0.0);
}
