//! The tiled node executor over the integer matrix kernels.
//!
//! A quantized convolution or linear layer is one matrix product per
//! batch item,
//!
//! ```text
//! y[f, v] = zy + requant_f(bias_f + Σ_r w[f, r] · (x[r, v] − zx))
//! ```
//!
//! over `F` output channels, `V` output pixels (1 for a linear layer)
//! and a reduction of `R = C·K²` taps (the input width for a linear
//! layer). The `i8` weights are read where the quantizer left them,
//! products accumulate in `i32`, and the per-channel [`FixedMul`]
//! requantizes.
//!
//! A convolution materialises its operand `x − zx` once per item, as
//! `i16`: the im2col matrix, one row per tap across the output pixels,
//! with a padding tap written as 0 so the zero point drops out of the
//! padding. A linear layer materialises nothing. It hoists the zero
//! point, `Σ_r w · (x − zx) = Σ_r w · x − zx · Σ_r w`, so
//! [`bnn_tensor::gemm_bt_u8i8`] multiplies the raw `u8` codes of its
//! items — the Monte Carlo samples a stacked suffix walk puts on the
//! item axis — by the weight rows where both sit.
//!
//! The loop nest is the accelerator's PE array ([`Tile`]): filter tiles
//! of `P_F` × pixel tiles of `P_V`, each streaming its reduction through
//! `P_C`-wide adder trees. Integer accumulation is exact, so every tile
//! gives the bytes of the direct reference loops behind [`exec_qnode`].
//! The tile decides only the order, and how many tiles the kernel runs:
//! the count the accelerator's cycle model charges. A linear layer
//! calls its matrix kernel once per filter tile × reduction tile, and
//! counts the tiles per item.

use crate::fixed::FixedMul;
use crate::qgraph::{exec_qnode, QNode, QNodeOp, QTensor};
use bnn_nn::MaskSet;
use bnn_tensor::{gemm_bt_u8i8, Shape4};
use std::ops::Range;

/// The extents of one matrix-kernel tile: the accelerator's PE array
/// of `P_F` processing units × `P_V` MAC modules × `P_C` multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Output channels per tile (`P_F`).
    pub pf: usize,
    /// Output pixels per tile (`P_V`).
    pub pv: usize,
    /// Reduction terms per tile (`P_C`).
    pub pc: usize,
}

impl Tile {
    /// The software serving tile: one register block of [`FILTERS`] ×
    /// [`LANES`] outputs, each reduced in one pass (an adder tree as
    /// wide as the reduction, so a dot product vectorises end to end).
    pub(crate) const SERVE: Tile = Tile {
        pf: FILTERS,
        pv: LANES,
        pc: usize::MAX,
    };
}

/// Execute one quantized node into its slot `y` like [`exec_qnode`],
/// with Conv and Linear through the tiled integer kernel at `tile` and
/// every other op through [`exec_qnode`] itself: the node executor of
/// the int8 backend (at a register-sized tile) and of the accelerator
/// simulator (at its `(P_F, P_V, P_C)`).
///
/// `ops` is a convolution's `i16` operand buffer. It grows to the
/// largest operand it has held and is then reused; a linear layer
/// reads its input codes in place and keeps its sums on the stack, so
/// a warm executor allocates nothing. Returns the number of tiles the
/// kernel ran (0 for an op without one).
///
/// # Panics
///
/// Panics if a tile extent is 0, or if a layer's input zero point is
/// not a `u8` code (the quantizer only makes those).
pub fn exec_qnode_tiled(
    tile: Tile,
    ops: &mut Vec<i16>,
    node: &QNode,
    outs: &[QTensor],
    input: &QTensor,
    masks: &[MaskSet],
    y: &mut QTensor,
) -> u64 {
    assert!(
        tile.pf > 0 && tile.pv > 0 && tile.pc > 0,
        "tile extents must be non-zero: {tile:?}"
    );
    let x = || &outs[node.inputs[0]];
    match &node.op {
        QNodeOp::Conv {
            k,
            stride,
            pad,
            w,
            bias,
            requant,
            zx,
            zy,
            ..
        } => {
            let (x, zx) = (x(), i16::from(zero_point(*zx)));
            let v = y.shape.h * y.shape.w;
            let cols = operand(ops, x.shape.c * k * k * row_stride(v));
            (0..x.shape.n)
                .map(|n| {
                    im2col(x, n, *k, *stride, *pad, zx, y.shape, cols);
                    qgemm(tile, w, cols, v, bias, requant, *zy, y.item_mut(n))
                })
                .sum()
        }
        QNodeOp::Linear {
            w,
            bias,
            requant,
            zx,
            zy,
            ..
        } => {
            let (x, zx) = (x(), zero_point(*zx));
            let (n, r, f_n) = (x.shape.n, x.shape.item_len(), bias.len());
            let red_tiles = r.div_ceil(tile.pc);
            let mut tiles = 0;
            let mut acc = [0i32; ITEMS * FILTERS];
            for i0 in (0..n).step_by(ITEMS) {
                let m = ITEMS.min(n - i0);
                let (xs, ys) = (&x.data[i0 * r..], &mut y.data[i0 * f_n..]);
                for f0 in (0..f_n).step_by(tile.pf) {
                    let f1 = (f0 + tile.pf).min(f_n);
                    tiles += (m * red_tiles) as u64;
                    for g0 in (f0..f1).step_by(FILTERS) {
                        let g = FILTERS.min(f1 - g0);
                        // Item `i`'s sums are `acc[i·g..(i + 1)·g]`, from
                        // the block's biases.
                        let acc = &mut acc[..m * g];
                        for (c, &b) in acc.iter_mut().zip(bias[g0..g0 + g].iter().cycle()) {
                            *c = b;
                        }
                        for rt in reduction_tiles(r, tile.pc, red_tiles) {
                            let (a, b) = (&xs[rt.start..], &w[g0 * r + rt.start..]);
                            gemm_bt_u8i8(m, rt.len(), g, a, r, zx, b, r, acc);
                        }
                        for (yrow, crow) in ys.chunks_mut(f_n).zip(acc.chunks_exact(g)) {
                            for (f, (o, &c)) in (g0..).zip(yrow[g0..].iter_mut().zip(crow)) {
                                *o = (*zy + requant[f].apply(c)).clamp(0, 255) as u8;
                            }
                        }
                    }
                }
            }
            tiles
        }
        _ => {
            exec_qnode(node, outs, input, masks, y);
            0
        }
    }
}

/// Output pixels per register block: one vector of `i32` accumulators
/// per filter.
const LANES: usize = 16;

/// Filters per register block.
const FILTERS: usize = 4;

/// Items of a linear layer (stacked Monte Carlo samples) per
/// accumulator block: the block's `ITEMS × FILTERS` `i32` sums live on
/// the stack, and its input rows stay in cache while the weight rows
/// stream past.
const ITEMS: usize = 64;

/// The operand's row stride for `v` output pixels: each row carries
/// `LANES − 1` zero columns, so a register block may start at any
/// pixel of its tile.
fn row_stride(v: usize) -> usize {
    v + LANES - 1
}

/// A zero point as the `u8` code the quantizer makes.
fn zero_point(zx: i32) -> u8 {
    assert!(
        (0..=255).contains(&zx),
        "input zero point {zx} is not a u8 code"
    );
    zx as u8
}

/// The `pc`-wide tiles of an `r`-term reduction, given their count
/// `r.div_ceil(pc)`: integer division is slow next to a short dot
/// product, so the caller divides once.
fn reduction_tiles(
    r: usize,
    pc: usize,
    count: usize,
) -> impl Iterator<Item = Range<usize>> + Clone {
    (0..count).map(move |t| t * pc..(t * pc).saturating_add(pc).min(r))
}

/// The first `len` elements of the operand buffer, grown (never
/// shrunk) to fit. The caller overwrites all of them.
fn operand(ops: &mut Vec<i16>, len: usize) -> &mut [i16] {
    if ops.len() < len {
        ops.resize(len, 0);
    }
    &mut ops[..len]
}

/// Item `n`'s im2col matrix as `x − zx`: row `r = (c, ky, kx)` holds
/// that tap for every output pixel, a padding tap written as 0, then
/// the row's zero columns up to [`row_stride`]. Every element of `cols`
/// is written.
#[allow(clippy::too_many_arguments)]
fn im2col(
    x: &QTensor,
    n: usize,
    k: usize,
    stride: usize,
    pad: usize,
    zx: i16,
    y: Shape4,
    cols: &mut [i16],
) {
    let (s, xi) = (x.shape, x.item(n));
    let (wo, v) = (y.w, y.h * y.w);
    let vp = row_stride(v);
    // Integer division is slow next to a span copy: none per span.
    let ceil = |a: usize| if stride == 1 { a } else { a.div_ceil(stride) };
    for kx in 0..k {
        // Output columns whose tap lands on a pixel,
        // `pad ≤ ox·stride + kx < w + pad`: one interval per tap, empty
        // when the tap lies wholly in the padding.
        let ox_lo = ceil(pad.saturating_sub(kx)).min(wo);
        let ox_hi = ceil((s.w + pad).saturating_sub(kx)).clamp(ox_lo, wo);
        for c in 0..s.c {
            for ky in 0..k {
                let row = &mut cols[((c * k + ky) * k + kx) * vp..][..vp];
                let (pixels, zeros) = row.split_at_mut(v);
                zeros.fill(0);
                for (oy, dst) in pixels.chunks_exact_mut(wo).enumerate() {
                    let iy = oy * stride + ky;
                    let (lo, hi) = if (pad..s.h + pad).contains(&iy) {
                        (ox_lo, ox_hi)
                    } else {
                        (0, 0)
                    };
                    // Most spans have no padding tap: skip the empty fills.
                    if lo > 0 {
                        dst[..lo].fill(0);
                    }
                    if hi < wo {
                        dst[hi..].fill(0);
                    }
                    if lo == hi {
                        continue;
                    }
                    let src = &xi[(c * s.h + iy - pad) * s.w + lo * stride + kx - pad..];
                    let dst = &mut dst[lo..hi];
                    if stride == 1 {
                        let src = &src[..dst.len()];
                        for (d, &q) in dst.iter_mut().zip(src) {
                            *d = i16::from(q) - zx;
                        }
                    } else {
                        for (d, &q) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = i16::from(q) - zx;
                        }
                    }
                }
            }
        }
    }
}

/// One item's `y[f·V + v] = zy + requant_f(bias_f + Σ_r w[f, r] ·
/// ops[r, v])` over `F = bias.len()` filters, `V = v_n` pixels and the
/// reduction `R = w.len() / F`, in `tile`'s loop nest: filter tiles ×
/// pixel tiles, each output's reduction streamed through `pc`-wide
/// adder trees. Returns the tiles run.
///
/// Within a tile, outputs go in register blocks of [`FILTERS`] filters ×
/// [`LANES`] pixels: each operand column is loaded once and multiplied
/// by every filter's broadcast weight, as one input vector feeds all of
/// the PE array's processing units. A lone pixel runs the same block,
/// its other lanes the row's zero columns.
#[allow(clippy::too_many_arguments)]
// Inlined into the executor, the register block below ran at a third
// of its speed.
#[inline(never)]
fn qgemm(
    tile: Tile,
    w: &[i8],
    ops: &[i16],
    v_n: usize,
    bias: &[i32],
    requant: &[FixedMul],
    zy: i32,
    y: &mut [u8],
) -> u64 {
    let (f_n, vp) = (bias.len(), row_stride(v_n));
    let r = w.len() / f_n;
    assert_eq!(ops.len(), r * vp, "kernel operand does not fit its layer");
    assert_eq!(y.len(), f_n * v_n, "kernel output does not fit its slot");
    let out = |f: usize, acc: i32| (zy + requant[f].apply(acc)).clamp(0, 255) as u8;
    let red_tiles = r.div_ceil(tile.pc);
    let mut tiles = 0;
    for f0 in (0..f_n).step_by(tile.pf) {
        let f1 = (f0 + tile.pf).min(f_n);
        for v0 in (0..v_n).step_by(tile.pv) {
            let v1 = (v0 + tile.pv).min(v_n);
            tiles += red_tiles as u64;
            for g0 in (f0..f1).step_by(FILTERS) {
                // A short last block repeats its last filter; the
                // repeats' sums are dropped.
                let block: [usize; FILTERS] = std::array::from_fn(|j| (g0 + j).min(f1 - 1));
                // Indexed, not `block.map`: an out-of-line `map` hides
                // the rows' common length and leaves a bounds check per
                // filter in the loop below.
                let wrows: [&[i8]; FILTERS] = std::array::from_fn(|j| &w[block[j] * r..][..r]);
                for b0 in (v0..v1).step_by(LANES) {
                    let mut acc = block.map(|f| [bias[f]; LANES]);
                    for ri in reduction_tiles(r, tile.pc, red_tiles).flatten() {
                        let col: &[i16; LANES] = ops[ri * vp + b0..][..LANES]
                            .try_into()
                            .expect("a register block is LANES wide");
                        for (acc, wrow) in acc.iter_mut().zip(&wrows) {
                            let wv = i32::from(wrow[ri]);
                            for (a, &x) in acc.iter_mut().zip(col) {
                                *a += wv * i32::from(x);
                            }
                        }
                    }
                    let b1 = v1.min(b0 + LANES);
                    for (f, acc) in (g0..f1.min(g0 + FILTERS)).zip(&acc) {
                        for (o, &a) in y[f * v_n + b0..f * v_n + b1].iter_mut().zip(acc) {
                            *o = out(f, a);
                        }
                    }
                }
            }
        }
    }
    tiles
}
