//! The tiled node executor over the one integer matrix kernel.
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
//! products accumulate in `i32`, and the per-channel
//! [`FixedMul`](crate::FixedMul) requantizes.
//!
//! Both arms run [`bnn_tensor::gemm_bt_u8i8`] on raw `u8` codes, with
//! the zero point hoisted, `Σ_r w · (x − zx) = Σ_r w · x − zx · Σ_r w`,
//! through one block loop. A linear layer passes its items' rows where
//! they sit — the Monte Carlo samples a stacked suffix walk puts on the
//! item axis. A convolution first writes its item's im2row matrix, one
//! `u8` row per output pixel with the taps in weight order, from an
//! input plane padded with the code `zx`, so `(q − zx)` is 0 on a
//! padding tap: a fully connected layer is a convolution with one
//! output pixel, as on the accelerator's one PE array.
//!
//! The loop nest is that PE array ([`Tile`]): filter tiles of `P_F` ×
//! pixel tiles of `P_V`, each streaming its reduction through
//! `P_C`-wide adder trees. Integer accumulation is exact, so every tile
//! gives the bytes of the direct reference loops behind [`exec_qnode`].
//! The tile decides only the order, and how many tiles the kernel runs:
//! the count the accelerator's cycle model charges. Filter and
//! reduction tiles are the kernel's loops; the rows of one tile are
//! counted, `⌈V / P_V⌉` pixel tiles per convolution item and one per
//! linear item.

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
    /// The software serving tile: one register block of [`FILTERS`]
    /// filters, each output reduced in one pass (an adder tree as wide
    /// as the reduction), and one pixel tile per item. `pv` shapes no
    /// loop: operand rows go in accumulator blocks of [`ROWS`] at any
    /// tile, and pixel tiles are only counted.
    pub(crate) const SERVE: Tile = Tile {
        pf: FILTERS,
        pv: usize::MAX,
        pc: usize::MAX,
    };
}

/// Execute one quantized node into its slot `y` like [`exec_qnode`],
/// with Conv and Linear through the tiled integer kernel at `tile` and
/// every other op through [`exec_qnode`] itself: the node executor of
/// the int8 backend (at a register-sized tile) and of the accelerator
/// simulator (at its `(P_F, P_V, P_C)`).
///
/// `ops` is a convolution's `u8` operand buffer: its item's
/// zero-point-padded input plane, then its im2row rows. It grows to the
/// largest operand it has held and is then reused; a linear layer
/// reads its input codes in place, and both keep their sums on the
/// stack, so a warm executor allocates nothing. Returns the number of
/// tiles the kernel ran (0 for an op without one).
///
/// # Panics
///
/// Panics if a tile extent is 0, or if a layer's input zero point is
/// not a `u8` code (the quantizer only makes those).
pub fn exec_qnode_tiled(
    tile: Tile,
    ops: &mut Vec<u8>,
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
            let (x, zx, zy) = (x(), zero_point(*zx), *zy);
            let (s, k) = (x.shape, *k);
            let (hp, wp) = (s.h + 2 * pad, s.w + 2 * pad);
            let (v, r) = (y.shape.h * y.shape.w, s.c * k * k);
            let plane_len = s.c * hp * wp + SPAN;
            let (plane, rows) = operand(ops, plane_len + v * (r + SPAN)).split_at_mut(plane_len);
            let mut tiles = 0;
            for n in 0..s.n {
                pad_plane(x.item(n), s, *pad, zx, plane);
                im2row(plane, s.c, (hp, wp), k, *stride, y.shape, rows);
                let y = y.item_mut(n);
                let per_row =
                    tiled_gemm(tile, v, rows, r + SPAN, zx, w, bias, move |i0, fs, acc| {
                        // `acc` is pixel-major; the slot is filter-major.
                        let m = acc.len() / fs.len();
                        let mut t = [0i32; ROWS * FILTERS];
                        for (i, row) in acc.chunks_exact(fs.len()).enumerate() {
                            for (j, &c) in row.iter().enumerate() {
                                t[j * ROWS + i] = c;
                            }
                        }
                        for (f, t) in fs.zip(t.chunks_exact(ROWS)) {
                            let rq = requant[f];
                            for (o, &c) in y[f * v + i0..][..m].iter_mut().zip(t) {
                                *o = (zy + rq.apply(c)).clamp(0, 255) as u8;
                            }
                        }
                    });
                tiles += per_row * v.div_ceil(tile.pv) as u64;
            }
            tiles
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
            let (y, zy) = (&mut y.data, *zy);
            let per_row = tiled_gemm(tile, n, &x.data, r, zx, w, bias, move |i0, fs, acc| {
                let ys = y[i0 * f_n..].chunks_mut(f_n);
                for (yrow, crow) in ys.zip(acc.chunks_exact(fs.len())) {
                    for (f, (o, &c)) in fs.clone().zip(yrow[fs.start..].iter_mut().zip(crow)) {
                        *o = (zy + requant[f].apply(c)).clamp(0, 255) as u8;
                    }
                }
            });
            per_row * n as u64
        }
        _ => {
            exec_qnode(node, outs, input, masks, y);
            0
        }
    }
}

/// Filters per accumulator block.
const FILTERS: usize = 4;

/// Operand rows per accumulator block — a convolution's output pixels,
/// a linear layer's items (the stacked Monte Carlo samples): the
/// block's `ROWS × FILTERS` `i32` sums live on the stack, and its
/// operand rows stay in cache while the weight rows stream past.
const ROWS: usize = 64;

/// The bytes a tap span is copied in, and the slack after the input
/// plane and after each im2row row that lets a span's last chunk run
/// past its end.
const SPAN: usize = 8;

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

/// The first `len` bytes of the operand buffer, grown (never shrunk)
/// to fit.
fn operand(ops: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if ops.len() < len {
        ops.resize(len, 0);
    }
    &mut ops[..len]
}

/// Item `xi` of shape `s` into `plane`: each channel widened by `pad`
/// codes of `zx` on every side, so that `(q − zx)` is 0 on a padding
/// tap, then [`SPAN`] bytes of slack. Every byte of `plane` is written.
fn pad_plane(xi: &[u8], s: Shape4, pad: usize, zx: u8, plane: &mut [u8]) {
    let (hp, wp) = (s.h + 2 * pad, s.w + 2 * pad);
    plane.fill(zx);
    for (c, src) in xi.chunks_exact(s.h * s.w).enumerate() {
        let dst = plane[(c * hp + pad) * wp..].chunks_mut(wp);
        for (d, src) in dst.zip(src.chunks_exact(s.w)) {
            d[pad..pad + s.w].copy_from_slice(src);
        }
    }
}

/// The im2row matrix of a `k`×`k` convolution over a padded `plane` of
/// `c_n` channels, `hp`×`wp` each: one row per output pixel of `y`,
/// `C·K² + SPAN` bytes apart, its taps in weight order `(c, ky, kx)`.
/// A tap row `(c, ky)` is `k` adjacent plane bytes at any stride. It is
/// copied in fixed [`SPAN`]-byte chunks, one output row of pixels at a
/// time and in ascending tap order for each pixel, so what a chunk
/// writes past its tap row is overwritten by the next one or lands in
/// the row's slack, which no kernel reads.
fn im2row(
    plane: &[u8],
    c_n: usize,
    (hp, wp): (usize, usize),
    k: usize,
    stride: usize,
    y: Shape4,
    rows: &mut [u8],
) {
    let lda = c_n * k * k + SPAN;
    for (oy, rows) in rows.chunks_exact_mut(y.w * lda).enumerate() {
        let mut tap = 0;
        for c in 0..c_n {
            for ky in 0..k {
                let at = (c * hp + oy * stride + ky) * wp;
                for t in (0..k).step_by(SPAN) {
                    let src = plane[at + t..].windows(SPAN).step_by(stride);
                    for (dst, src) in rows[tap + t..].chunks_mut(lda).zip(src) {
                        dst[..SPAN].copy_from_slice(src);
                    }
                }
                tap += k;
            }
        }
    }
}

/// `bias + (a − zx) · wᵀ` over `m` operand rows of `a`, `lda` apart,
/// and the `F = bias.len()` weight rows of `w`, each `R = w.len() / F`
/// long, in `tile`'s loop nest: accumulator blocks of [`ROWS`] rows ×
/// filter tiles of `pf`, in register blocks of [`FILTERS`], each
/// streaming its reduction through `pc`-wide tiles of
/// [`gemm_bt_u8i8`]. `store(i0, fs, acc)` takes each finished block:
/// rows `i0..`, filters `fs`, `acc` row-major. Returns the tiles of one
/// row: filter tiles × reduction tiles.
#[allow(clippy::too_many_arguments)]
// Inlined into the executor, one copy per arm, the linear layers ran
// ≈ 5 % slower.
#[inline(never)]
fn tiled_gemm(
    tile: Tile,
    m: usize,
    a: &[u8],
    lda: usize,
    zx: u8,
    w: &[i8],
    bias: &[i32],
    mut store: impl FnMut(usize, Range<usize>, &[i32]),
) -> u64 {
    let f_n = bias.len();
    let r = w.len() / f_n;
    let red_tiles = r.div_ceil(tile.pc);
    let mut tiles = 0;
    let mut acc = [0i32; ROWS * FILTERS];
    for i0 in (0..m).step_by(ROWS) {
        let (rows, a) = (ROWS.min(m - i0), &a[i0 * lda..]);
        for f0 in (0..f_n).step_by(tile.pf) {
            let f1 = (f0 + tile.pf).min(f_n);
            // Every row runs the same tiles: count the first block's.
            if i0 == 0 {
                tiles += red_tiles as u64;
            }
            for g0 in (f0..f1).step_by(FILTERS) {
                let fs = g0..f1.min(g0 + FILTERS);
                // Row `i`'s sums are `acc[i·g..(i + 1)·g]` for the
                // block's `g` filters, from their biases.
                let acc = &mut acc[..rows * fs.len()];
                for (c, &b) in acc.iter_mut().zip(bias[fs.clone()].iter().cycle()) {
                    *c = b;
                }
                for rt in reduction_tiles(r, tile.pc, red_tiles) {
                    let (ar, wr) = (&a[rt.start..], &w[g0 * r + rt.start..]);
                    gemm_bt_u8i8(rows, rt.len(), fs.len(), ar, lda, zx, wr, r, acc);
                }
                store(i0, fs, acc);
            }
        }
    }
    tiles
}
