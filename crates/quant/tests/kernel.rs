//! The tiled integer kernel against the direct reference loops of
//! `exec_qnode`, over random layer geometry — stride 2, padding other
//! than `k/2`, batches, every input zero point class, extreme weights —
//! and random tiles, including 1 and non-divisors of every extent; and
//! the u8 pools against an indexed reference.

use bnn_nn::MaskSet;
use bnn_quant::{exec_qnode, exec_qnode_tiled, quantize_multiplier, QNode, QNodeOp, QTensor, Tile};
use bnn_rng::SoftRng;
use bnn_tensor::{conv_out_dim, Shape4};
use proptest::prelude::*;

fn tile_extent() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(5),
        Just(7),
        Just(16),
        Just(64),
        Just(usize::MAX)
    ]
}

fn random_u8(rng: &mut SoftRng, shape: Shape4) -> QTensor {
    QTensor {
        data: (0..shape.len()).map(|_| rng.next_u64() as u8).collect(),
        shape,
    }
}

/// `rows × len` i8 weights spanning the full quantized range, with both
/// extremes present.
fn weights(rng: &mut SoftRng, rows: usize, len: usize) -> Vec<i8> {
    let mut w: Vec<i8> = (0..rows * len)
        .map(|_| (rng.next_below(255) as i32 - 127) as i8)
        .collect();
    let last = w.len() - 1;
    (w[0], w[last]) = (127, -127);
    w
}

/// Per-channel biases and requantization multipliers scaled so a
/// `reduction`-term accumulator lands mostly inside the u8 range.
fn requant(
    rng: &mut SoftRng,
    channels: usize,
    reduction: usize,
) -> (Vec<i32>, Vec<bnn_quant::FixedMul>) {
    let bias = (0..channels)
        .map(|_| rng.next_below(40_001) as i32 - 20_000)
        .collect();
    let mul = (0..channels)
        .map(|_| {
            let m = rng.range_f64(0.25, 1.25) / (reduction as f64 * 64.0);
            quantize_multiplier(m)
        })
        .collect();
    (bias, mul)
}

/// Run `node` on input `x` through both executors (the tiled one over
/// a dirty operand buffer and a dirty slot) and compare bytes; returns
/// the tiles the kernel ran.
fn both(node: &QNode, x: &QTensor, out: Shape4, tile: Tile) -> u64 {
    let outs = vec![x.clone()];
    let mut want = QTensor::zeros(out);
    exec_qnode(node, &outs, x, &[MaskSet::none()], &mut want);
    let mut got = QTensor {
        data: vec![0xA5; out.len()],
        shape: out,
    };
    let mut ops = vec![0xA5; 37];
    let ran = exec_qnode_tiled(tile, &mut ops, node, &outs, x, &[MaskSet::none()], &mut got);
    assert_eq!(
        got, want,
        "{}: tiled kernel at {tile:?} diverged",
        node.name
    );
    ran
}

/// The indexed pooling loop the slice walk replaced.
fn pool_reference(x: &QTensor, k: usize, stride: usize) -> QTensor {
    let s = x.shape;
    let (ho, wo) = (
        conv_out_dim(s.h, k, stride, 0),
        conv_out_dim(s.w, k, stride, 0),
    );
    let mut y = QTensor::zeros(Shape4::new(s.n, s.c, ho, wo));
    for n in 0..s.n {
        for c in 0..s.c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let taps = (0..k).flat_map(|ky| (0..k).map(move |kx| (ky, kx)));
                    let at = |(ky, kx): (usize, usize)| {
                        x.item(n)[(c * s.h + oy * stride + ky) * s.w + ox * stride + kx]
                    };
                    y.item_mut(n)[(c * ho + oy) * wo + ox] = taps.map(at).max().unwrap_or(0);
                }
            }
        }
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tiled_conv_matches_the_reference_loops(
        seed in 0u64..1_000_000,
        n in 1usize..4,
        // Reductions `c·k²` past the kernel's 64- and 128-byte operands.
        c in 1usize..9,
        // Tap rows shorter than, equal to and longer than a span copy.
        k in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(7), Just(8), Just(9)],
        stride in prop_oneof![Just(1usize), Just(2)],
        pad_draw in 0usize..5,
        // Up to 11 × 11 outputs at stride 1: past a 64-pixel
        // accumulator block.
        extra_h in 0usize..11,
        extra_w in 0usize..11,
        out_c in 1usize..11,
        zx in prop_oneof![Just(0i32), Just(128), Just(255)],
        pf in tile_extent(),
        pv in tile_extent(),
        pc in tile_extent(),
        // Or the accelerator's default PE array, `(64, 1, 64)`.
        pe_array in any::<bool>(),
    ) {
        let mut rng = SoftRng::new(seed);
        let pad = pad_draw % k;
        // The smallest input the padded kernel fits, plus a margin.
        let (h, w) = (k.saturating_sub(2 * pad).max(1) + extra_h, k.saturating_sub(2 * pad).max(1) + extra_w);
        let (ho, wo) = (conv_out_dim(h, k, stride, pad), conv_out_dim(w, k, stride, pad));
        let reduction = c * k * k;
        let (bias, mul) = requant(&mut rng, out_c, reduction);
        let node = QNode {
            op: QNodeOp::Conv {
                in_c: c,
                out_c,
                k,
                stride,
                pad,
                w: weights(&mut rng, out_c, reduction),
                bias,
                requant: mul,
                zx,
                zy: rng.next_below(256) as i32,
            },
            inputs: vec![0],
            name: format!("conv c{c} {h}x{w} k{k} s{stride} p{pad} f{out_c}"),
        };
        let x = random_u8(&mut rng, Shape4::new(n, c, h, w));
        let tile = if pe_array { Tile { pf: 64, pv: 1, pc: 64 } } else { Tile { pf, pv, pc } };
        let ran = both(&node, &x, Shape4::new(n, out_c, ho, wo), tile);
        let per_item = out_c.div_ceil(tile.pf) * (ho * wo).div_ceil(tile.pv) * reduction.div_ceil(tile.pc);
        prop_assert_eq!(ran, (n * per_item) as u64);
    }

    #[test]
    fn tiled_linear_matches_the_reference_loops(
        seed in 0u64..1_000_000,
        // A lone item, stacked items in full and short register blocks
        // of four rows, and one item past a 64-item accumulator block.
        n in prop_oneof![1usize..11, Just(65)],
        // Reductions around the kernel's 64-byte operand, and fc1's 400.
        in_f in prop_oneof![1usize..300, Just(63), Just(64), Just(65), Just(128), Just(400)],
        out_f in 1usize..40,
        zx in prop_oneof![Just(0i32), Just(128), Just(255)],
        pf in tile_extent(),
        pv in tile_extent(),
        pc in tile_extent(),
    ) {
        let mut rng = SoftRng::new(seed);
        let (bias, mul) = requant(&mut rng, out_f, in_f);
        let node = QNode {
            op: QNodeOp::Linear {
                in_f,
                out_f,
                w: weights(&mut rng, out_f, in_f),
                bias,
                requant: mul,
                zx,
                zy: rng.next_below(256) as i32,
            },
            inputs: vec![0],
            name: format!("linear {in_f}x{out_f}"),
        };
        let x = random_u8(&mut rng, Shape4::vec(n, in_f));
        let ran = both(&node, &x, Shape4::vec(n, out_f), Tile { pf, pv, pc });
        prop_assert_eq!(ran, (n * out_f.div_ceil(pf) * in_f.div_ceil(pc)) as u64);
    }

    #[test]
    fn pools_match_the_indexed_reference(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        k in 1usize..4,
        stride in 1usize..4,
        extra_h in 0usize..8,
        extra_w in 0usize..8,
    ) {
        let mut rng = SoftRng::new(seed);
        let x = random_u8(&mut rng, Shape4::new(n, c, k + extra_h, k + extra_w));
        let want = pool_reference(&x, k, stride);
        let node = QNode {
            op: QNodeOp::MaxPool { k, stride },
            inputs: vec![0],
            name: format!("pool k{k} s{stride}"),
        };
        let mut got = QTensor { data: vec![0xA5; want.shape.len()], shape: want.shape };
        exec_qnode(&node, std::slice::from_ref(&x), &x, &[MaskSet::none()], &mut got);
        prop_assert_eq!(got, want);
    }
}
