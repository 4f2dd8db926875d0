//! The paper's evaluation networks.
//!
//! * [`lenet5`] — LeNet-5 for (synthetic) MNIST, `N = 5` weight layers.
//! * [`vgg11`] — channel-reduced VGG-11 for SVHN-like data, `N = 11`.
//! * [`resnet18`] — channel-reduced ResNet-18 for CIFAR-like data,
//!   `N = 18` main-path weight layers (plus three 1×1 downsamples).
//!
//! Every weight layer's input carries an MCD site, so any partial
//! Bayesian configuration `L ∈ {1 .. N}` can be run on the same graph.
//! The paper reduces VGG-11/ResNet-18 channel counts to fit its
//! accelerator memory; the `width_div` / `base` parameters play the
//! same role here (and additionally keep pure-Rust training tractable).

use crate::graph::{Graph, GraphBuilder, NodeId};

/// The paper's MCD dropout probability.
pub const MCD_P: f32 = 0.25;

/// LeNet-5 (paper's MNIST network): two 5×5 conv+BN+ReLU+pool blocks
/// and three fully-connected layers. `img` must be even and ≥ 12.
///
/// # Panics
///
/// Panics if the image geometry does not fit the LeNet-5 pipeline.
pub fn lenet5(classes: usize, in_c: usize, img: usize, seed: u64) -> Graph {
    assert!(
        img >= 12 && img.is_multiple_of(2),
        "lenet5 needs an even image size >= 12"
    );
    let mut b = GraphBuilder::new("lenet5", seed);
    let x = b.input();

    let m0 = b.mcd(x, MCD_P);
    let c1 = b.conv(m0, in_c, 6, 5, 1, 2);
    let bn1 = b.batch_norm(c1, 6);
    let r1 = b.relu(bn1);
    let p1 = b.max_pool(r1, 2, 2); // img/2

    let m1 = b.mcd(p1, MCD_P);
    let c2 = b.conv(m1, 6, 16, 5, 1, 0);
    let bn2 = b.batch_norm(c2, 16);
    let r2 = b.relu(bn2);
    let p2 = b.max_pool(r2, 2, 2); // (img/2 - 4)/2

    let side = (img / 2 - 4) / 2;
    let f = b.flatten(p2);
    let m2 = b.mcd(f, MCD_P);
    let fc1 = b.linear(m2, 16 * side * side, 120);
    let r3 = b.relu(fc1);
    let m3 = b.mcd(r3, MCD_P);
    let fc2 = b.linear(m3, 120, 84);
    let r4 = b.relu(fc2);
    let m4 = b.mcd(r4, MCD_P);
    let fc3 = b.linear(m4, 84, classes);
    b.finish(fc3)
}

/// Channel-reduced VGG-11 (paper's SVHN network): eight 3×3 conv
/// blocks with five max-pools, then three FC layers. Standard VGG-11
/// channels `[64,128,256,256,512,512,512,512]` are divided by
/// `width_div` (the paper "reduced the channel size ... to fit into
/// memory").
///
/// # Panics
///
/// Panics unless `img` is divisible by 32 (five 2× pools).
pub fn vgg11(classes: usize, in_c: usize, img: usize, width_div: usize, seed: u64) -> Graph {
    assert!(img.is_multiple_of(32), "vgg11 needs img divisible by 32");
    assert!(width_div >= 1, "width divisor must be >= 1");
    let ch = |c: usize| (c / width_div).max(2);
    let mut b = GraphBuilder::new("vgg11", seed);
    let x = b.input();

    // (out_channels, pool_after)
    let cfg = [
        (ch(64), true),
        (ch(128), true),
        (ch(256), false),
        (ch(256), true),
        (ch(512), false),
        (ch(512), true),
        (ch(512), false),
        (ch(512), true),
    ];
    let mut cur = x;
    let mut prev_c = in_c;
    for &(c, pool) in &cfg {
        let m = b.mcd(cur, MCD_P);
        let conv = b.conv(m, prev_c, c, 3, 1, 1);
        let bn = b.batch_norm(conv, c);
        let r = b.relu(bn);
        cur = if pool { b.max_pool(r, 2, 2) } else { r };
        prev_c = c;
    }
    // After five pools a 32-divisible image is (img/32)².
    let side = img / 32;
    let feat = prev_c * side * side;
    let f = b.flatten(cur);
    let hidden = ch(512);
    let m = b.mcd(f, MCD_P);
    let fc1 = b.linear(m, feat, hidden);
    let r = b.relu(fc1);
    let m = b.mcd(r, MCD_P);
    let fc2 = b.linear(m, hidden, hidden);
    let r = b.relu(fc2);
    let m = b.mcd(r, MCD_P);
    let fc3 = b.linear(m, hidden, classes);
    b.finish(fc3)
}

/// One ResNet basic block: two 3×3 convs with BN, identity or 1×1
/// projection shortcut, post-add ReLU. MCD sites guard both conv
/// inputs; the projection reads the same masked tensor the first conv
/// does (the mask is applied to the shared feature map, as in the
/// accelerator's dropout unit).
fn basic_block(
    b: &mut GraphBuilder,
    x: NodeId,
    in_c: usize,
    out_c: usize,
    stride: usize,
) -> NodeId {
    let m1 = b.mcd(x, MCD_P);
    let c1 = b.conv(m1, in_c, out_c, 3, stride, 1);
    let bn1 = b.batch_norm(c1, out_c);
    let r1 = b.relu(bn1);
    let m2 = b.mcd(r1, MCD_P);
    let c2 = b.conv(m2, out_c, out_c, 3, 1, 1);
    let bn2 = b.batch_norm(c2, out_c);
    let shortcut = if stride != 1 || in_c != out_c {
        let sc = b.conv(m1, in_c, out_c, 1, stride, 0);
        b.batch_norm(sc, out_c)
    } else {
        x
    };
    let a = b.add(bn2, shortcut);
    b.relu(a)
}

/// Channel-reduced ResNet-18 (paper's CIFAR-10 network): 3×3 stem,
/// four stages of two basic blocks at widths `base·{1,2,4,8}`, global
/// average pool and an FC classifier. `N = 18` MCD sites.
pub fn resnet18(classes: usize, in_c: usize, base: usize, seed: u64) -> Graph {
    assert!(base >= 2, "base width must be >= 2");
    let mut b = GraphBuilder::new("resnet18", seed);
    let x = b.input();

    let m0 = b.mcd(x, MCD_P);
    let c0 = b.conv(m0, in_c, base, 3, 1, 1);
    let bn0 = b.batch_norm(c0, base);
    let mut cur = b.relu(bn0);

    let widths = [base, base * 2, base * 4, base * 8];
    let mut prev = base;
    for (stage, &w) in widths.iter().enumerate() {
        let stride = if stage == 0 { 1 } else { 2 };
        cur = basic_block(&mut b, cur, prev, w, stride);
        cur = basic_block(&mut b, cur, w, w, 1);
        prev = w;
    }

    let g = b.global_avg_pool(cur);
    let f = b.flatten(g);
    let m = b.mcd(f, MCD_P);
    let fc = b.linear(m, prev, classes);
    b.finish(fc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::MaskSet;
    use bnn_tensor::{Shape4, Tensor};

    #[test]
    fn lenet5_shapes_and_sites() {
        let net = lenet5(10, 1, 28, 1);
        assert_eq!(net.n_sites(), 5, "paper: N = 5 weight layers");
        let y = net.forward(&Tensor::zeros(Shape4::new(2, 1, 28, 28)), &MaskSet::none());
        assert_eq!(y.shape(), Shape4::vec(2, 10));
    }

    #[test]
    fn vgg11_shapes_and_sites() {
        let net = vgg11(10, 3, 32, 8, 1);
        assert_eq!(net.n_sites(), 11, "paper: N = 11 weight layers");
        let y = net.forward(&Tensor::zeros(Shape4::new(1, 3, 32, 32)), &MaskSet::none());
        assert_eq!(y.shape(), Shape4::vec(1, 10));
    }

    #[test]
    fn resnet18_shapes_and_sites() {
        let net = resnet18(10, 3, 8, 1);
        assert_eq!(net.n_sites(), 18, "paper: N = 18 main-path weight layers");
        let y = net.forward(&Tensor::zeros(Shape4::new(1, 3, 32, 32)), &MaskSet::none());
        assert_eq!(y.shape(), Shape4::vec(1, 10));
    }

    #[test]
    fn lenet5_classic_feature_size() {
        // 28x28 input must reproduce the classic 400-feature flatten.
        let net = lenet5(10, 1, 28, 1);
        let shapes = net.infer_shapes(Shape4::new(1, 1, 28, 28));
        let flat = shapes
            .iter()
            .find(|s| s.h == 1 && s.w == 1 && s.c == 400)
            .expect("classic LeNet flatten is 400 features");
        assert_eq!(flat.c, 400);
    }

    #[test]
    fn macs_ordering_matches_network_size() {
        let lenet = lenet5(10, 1, 28, 1).macs(Shape4::new(1, 1, 28, 28));
        let vgg = vgg11(10, 3, 32, 8, 1).macs(Shape4::new(1, 3, 32, 32));
        let resnet = resnet18(10, 3, 8, 1).macs(Shape4::new(1, 3, 32, 32));
        assert!(lenet < vgg, "lenet {lenet} < vgg {vgg}");
        assert!(lenet < resnet, "lenet {lenet} < resnet {resnet}");
    }

    #[test]
    fn resnet_projection_stages_change_width() {
        let net = resnet18(10, 3, 8, 1);
        let shapes = net.infer_shapes(Shape4::new(1, 3, 32, 32));
        // Final pre-GAP feature map must be base*8 = 64 channels at 4x4.
        assert!(shapes.iter().any(|s| s.c == 64 && s.h == 4 && s.w == 4));
    }

    #[test]
    fn masked_forward_differs_from_clean() {
        let net = resnet18(10, 3, 8, 3);
        let x = Tensor::full(Shape4::new(1, 3, 32, 32), 0.5);
        let clean = net.forward(&x, &MaskSet::none());
        let channels = net.site_channels(x.shape());
        let mut rng = bnn_rng::SoftRng::new(5);
        let active = vec![true; net.n_sites()];
        let masks = MaskSet::sample_software(&active, &channels, 0.25, &mut rng);
        let noisy = net.forward(&x, &masks);
        assert!(clean.max_abs_diff(&noisy) > 1e-6);
    }
}
