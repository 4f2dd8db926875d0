//! An independent reference for the executor's one convolution.
//!
//! Every other convolution test compares the kernel — one GEMM per
//! item reading the zero-padded input through tap offsets — with
//! itself at another stacking (stacked vs. one sample per walk, a
//! prefix and suffix vs. one full pass). This one compares it with a
//! direct seven-loop convolution written here, on single-conv graphs
//! whose shapes walk the operand's geometry: kernel sizes, strides
//! (the phase planes), padding up to `K − 1`, a one-column output,
//! batches, and reductions past one GEMM depth panel.

use bnn_nn::{GraphBuilder, MaskSet, Op};
use bnn_rng::SoftRng;
use bnn_tensor::{conv_out_dim, Shape4, Tensor};

/// `y[n,f,oy,ox] = b[f] + Σ_{c,ky,kx} w[f,c,ky,kx] · x[n,c,oy·s+ky−p,ox·s+kx−p]`,
/// out-of-range taps reading zero. The sum runs in `(c, ky, kx)` order
/// from `0.0` and the bias is added last — the order of one GEMM depth
/// panel, so the kernel must match it exactly while `C·K·K` fits one
/// panel.
fn direct_conv(x: &Tensor, w: &Tensor, b: &Tensor, k: usize, stride: usize, pad: usize) -> Tensor {
    let (si, f) = (x.shape(), w.shape().n);
    let (ho, wo) = (
        conv_out_dim(si.h, k, stride, pad),
        conv_out_dim(si.w, k, stride, pad),
    );
    let mut y = Tensor::zeros(Shape4::new(si.n, f, ho, wo));
    for n in 0..si.n {
        for fi in 0..f {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for c in 0..si.c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                                if iy < pad || ix < pad || iy - pad >= si.h || ix - pad >= si.w {
                                    continue;
                                }
                                acc += w.at(fi, c, ky, kx) * x.at(n, c, iy - pad, ix - pad);
                            }
                        }
                    }
                    *y.at_mut(n, fi, oy, ox) = acc + b.as_slice()[fi];
                }
            }
        }
    }
    y
}

#[test]
fn conv_matches_a_direct_loop_at_every_block_shape() {
    // (C, F, K, stride, pad, H, W, N) and what the shape exercises.
    let cases = [
        // A 32-wide padded plane over 3 items.
        (8, 8, 3, 1, 1, 32, 32, 3),
        // LeNet-5 conv1: 892 wide columns, 4 wrap columns per row.
        (1, 6, 5, 1, 2, 28, 28, 5),
        // Odd F takes the GEMM's row-remainder path.
        (2, 3, 3, 1, 1, 6, 6, 4),
        // Stride 2 with padding on a non-square image.
        (3, 5, 3, 2, 1, 9, 7, 2),
        // An empty batch runs no GEMM.
        (2, 3, 3, 1, 1, 6, 6, 0),
        // C·K·K = 288 spans two depth panels (see below).
        (32, 7, 3, 1, 1, 6, 6, 2),
        // K = 1 at stride 2 (ResNet's shortcut): one phase plane of
        // four is read.
        (4, 6, 1, 2, 0, 8, 8, 2),
        // K = 7 at stride 2, pad 3 (a ResNet stem): taps in all four
        // phase planes, three rows and columns deep.
        (3, 5, 7, 2, 3, 16, 15, 1),
        // Stride 3: nine phase planes, odd plane sides.
        (2, 3, 3, 3, 1, 10, 11, 2),
        // pad = K − 1: corner taps see one pixel.
        (2, 4, 3, 1, 2, 5, 6, 1),
        // Wo = 1: every wide row is one real column and its wrap.
        (2, 3, 3, 1, 0, 5, 3, 2),
        // N > 1 at stride 2: each item's planes rewritten in place.
        (3, 4, 3, 2, 1, 7, 7, 4),
    ];
    // Then every small geometry: K 1–7, stride 1–3, pad 0..K, odd F.
    let sweep = (1..=7).flat_map(|k| {
        (1..=3).flat_map(move |stride| (0..k).map(move |pad| (2, 3, k, stride, pad, 9, 8, 2)))
    });
    for (c, f, k, stride, pad, h, w, n) in cases.into_iter().chain(sweep) {
        let mut b = GraphBuilder::new("one-conv", 23);
        let input = b.input();
        let conv = b.conv(input, c, f, k, stride, pad);
        let mut net = b.finish(conv);
        let Op::Conv { w: wid, b: bid, .. } = net.nodes()[conv].op else {
            unreachable!("node {conv} is the conv");
        };
        // The builder's bias is zero; make it count.
        let bias = net.params_mut().get_mut(bid).as_mut_slice();
        for (i, v) in bias.iter_mut().enumerate() {
            *v = 0.25 * i as f32 - 0.6;
        }
        let shape = Shape4::new(n, c, h, w);
        let mut rng = SoftRng::new(n as u64 + 1);
        let x = Tensor::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let tag = format!("C{c} F{f} K{k} s{stride} p{pad} {h}x{w} N{n}");

        let got = net.forward(&x, &MaskSet::none());
        let want = direct_conv(
            &x,
            net.params().get(wid),
            net.params().get(bid),
            k,
            stride,
            pad,
        );
        assert_eq!(got.shape(), want.shape(), "{tag}");
        if c * k * k <= 256 {
            // One depth panel: the kernel's per-element operation
            // sequence is the direct loop's, so the bytes are equal.
            assert_eq!(got.as_slice(), want.as_slice(), "{tag}: not exact");
        } else {
            // Two panels are summed separately and then added, which
            // rounds differently from one running sum.
            assert!(got.max_abs_diff(&want) <= 1e-4, "{tag}: beyond 1e-4");
        }

        // Batch invariance: each item run alone gives the batch's bytes.
        for i in 0..n {
            let one = Tensor::from_vec(shape.with_n(1), x.item(i).to_vec());
            assert_eq!(
                net.forward(&one, &MaskSet::none()).as_slice(),
                got.item(i),
                "{tag}: item {i} alone differs from the batch run"
            );
        }
    }
}
