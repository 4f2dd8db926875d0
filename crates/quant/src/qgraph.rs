//! The quantized graph and its integer reference executor.

use crate::fixed::{quantize_multiplier, FixedMul};
use bnn_nn::{out_shape, Geometry, MaskSet};
use bnn_tensor::{Shape4, Tensor};
use std::ops::Range;

/// Affine quantization parameters of an activation tensor:
/// `real = scale · (q − zero)`, `q ∈ [0, 255]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QParams {
    /// Step size.
    pub scale: f32,
    /// Zero point (the u8 code representing real 0).
    pub zero: i32,
}

impl QParams {
    /// Derive parameters from a calibrated real range; the range is
    /// widened to include 0 so zero padding is exactly representable.
    pub fn from_range(min: f32, max: f32) -> QParams {
        let lo = min.min(0.0);
        let hi = max.max(0.0).max(lo + 1e-6);
        let scale = (hi - lo) / 255.0;
        let zero = (-lo / scale).round().clamp(0.0, 255.0) as i32;
        QParams { scale, zero }
    }

    /// Quantize one real value.
    pub fn quantize(&self, x: f32) -> u8 {
        ((x / self.scale).round() as i32 + self.zero).clamp(0, 255) as u8
    }

    /// Dequantize one code.
    pub fn dequantize(&self, q: u8) -> f32 {
        (i32::from(q) - self.zero) as f32 * self.scale
    }
}

/// A u8 activation tensor in NCHW layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    /// Raw codes.
    pub data: Vec<u8>,
    /// Shape.
    pub shape: Shape4,
}

impl QTensor {
    /// Zero-filled (code 0, *not* real zero) tensor.
    pub fn zeros(shape: Shape4) -> QTensor {
        QTensor {
            data: vec![0; shape.len()],
            shape,
        }
    }

    /// Slice of one batch item.
    pub fn item(&self, n: usize) -> &[u8] {
        let sz = self.shape.item_len();
        &self.data[n * sz..(n + 1) * sz]
    }

    /// Mutable slice of one batch item.
    pub fn item_mut(&mut self, n: usize) -> &mut [u8] {
        let sz = self.shape.item_len();
        &mut self.data[n * sz..(n + 1) * sz]
    }
}

/// Quantized operations. Weight layers carry their integer parameters
/// inline (the accelerator's compiler reads them to fill its buffers).
#[derive(Debug, Clone)]
pub enum QNodeOp {
    /// Graph input.
    Input,
    /// Quantized convolution with per-output-channel requantization.
    Conv {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// i8 weights `[out_c, in_c·k·k]` row-major.
        w: Vec<i8>,
        /// i32 bias per output channel (scale `s_x·s_w,c`).
        bias: Vec<i32>,
        /// Per-channel requantization multiplier `s_x·s_w,c / s_y`.
        requant: Vec<FixedMul>,
        /// Input zero point.
        zx: i32,
        /// Output zero point.
        zy: i32,
    },
    /// Quantized fully-connected layer.
    Linear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// i8 weights `[out_f, in_f]`.
        w: Vec<i8>,
        /// i32 bias.
        bias: Vec<i32>,
        /// Per-output requantization multipliers.
        requant: Vec<FixedMul>,
        /// Input zero point.
        zx: i32,
        /// Output zero point.
        zy: i32,
    },
    /// ReLU: clamp at the zero point.
    Relu {
        /// Zero point of the (shared) input/output scale.
        z: i32,
    },
    /// Max pooling (order-preserving on u8).
    MaxPool {
        /// Window.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling.
    GlobalAvgPool,
    /// Flatten.
    Flatten,
    /// Residual addition: both inputs rescaled to the output scale.
    Add {
        /// `s_a / s_y`.
        ma: FixedMul,
        /// `s_b / s_y`.
        mb: FixedMul,
        /// Zero point of input a.
        za: i32,
        /// Zero point of input b.
        zb: i32,
        /// Output zero point.
        zy: i32,
    },
    /// MCD dropout site: multiplexer + fixed-point `1/(1-p)` rescale.
    McdSite {
        /// Site index (mask selector).
        site: usize,
        /// Fixed-point `1/(1-p)` at the graph's own `p`: the rescale of a
        /// mask carrying that scale (a mask drawn at another `p` is
        /// rescaled by its own `Mask::scale`).
        mul: FixedMul,
        /// Zero point (dropped channels are set to it).
        z: i32,
    },
}

/// A quantized node.
#[derive(Debug, Clone)]
pub struct QNode {
    /// Operation.
    pub op: QNodeOp,
    /// Producer nodes.
    pub inputs: Vec<usize>,
    /// Name carried over from the f32 graph.
    pub name: String,
}

/// A fully-quantized network ready for integer execution.
#[derive(Debug, Clone)]
pub struct QGraph {
    pub(crate) nodes: Vec<QNode>,
    pub(crate) input: usize,
    pub(crate) output: usize,
    pub(crate) n_sites: usize,
    pub(crate) input_q: QParams,
    pub(crate) output_q: QParams,
    pub(crate) name: String,
}

impl QGraph {
    /// Nodes in topological order.
    pub fn nodes(&self) -> &[QNode] {
        &self.nodes
    }

    /// Input node id.
    pub fn input_id(&self) -> usize {
        self.input
    }

    /// Output node id.
    pub fn output_id(&self) -> usize {
        self.output
    }

    /// Number of MCD sites.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Input quantization parameters.
    pub fn input_qparams(&self) -> QParams {
        self.input_q
    }

    /// Output (logits) quantization parameters.
    pub fn output_qparams(&self) -> QParams {
        self.output_q
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output shape of every node for an input shape, by the same rule
    /// as `bnn_nn::Graph::infer_shapes` ([`out_shape`]).
    ///
    /// # Panics
    ///
    /// Panics with the f32 graph's message (`"{node}: {failed check}"`)
    /// if the input does not fit the graph.
    pub fn infer_shapes(&self, input: Shape4) -> Vec<Shape4> {
        let mut shapes: Vec<Shape4> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let s = node.out_shape(input, |id| shapes[id]);
            shapes.push(s);
        }
        shapes
    }

    /// Channel count seen by each MCD site for a given input shape
    /// (the mask length the Bernoulli sampler must produce).
    pub fn site_channels(&self, input: Shape4) -> Vec<usize> {
        let shapes = self.infer_shapes(input);
        let mut out = vec![0usize; self.n_sites];
        for (id, node) in self.nodes.iter().enumerate() {
            if let QNodeOp::McdSite { site, .. } = &node.op {
                out[*site] = shapes[id].c;
            }
        }
        out
    }

    /// Number of output classes `K` for a given input shape.
    pub fn output_classes(&self, input: Shape4) -> usize {
        self.infer_shapes(input)[self.output].item_len()
    }

    /// First node of the Bayesian suffix for a set of active sites:
    /// the earliest [`QNodeOp::McdSite`] whose site is active, or
    /// `nodes.len()` when none is (fully deterministic execution).
    ///
    /// Both the int8 backend and the accelerator simulator split their
    /// intermediate-layer caching here, so the two substrates cannot
    /// disagree on the prefix/suffix boundary.
    pub fn suffix_split(&self, active: &[bool]) -> usize {
        self.nodes
            .iter()
            .position(|n| match n.op {
                QNodeOp::McdSite { site, .. } => active.get(site).copied().unwrap_or(false),
                _ => false,
            })
            .unwrap_or(self.nodes.len())
    }

    /// Quantize a real-valued input batch.
    pub fn quantize_input(&self, x: &Tensor) -> QTensor {
        let mut q = QTensor::zeros(x.shape());
        self.quantize_input_into(x, &mut q);
        q
    }

    /// Quantize a real-valued input batch into `q`, re-sizing it only
    /// on a shape change.
    pub fn quantize_input_into(&self, x: &Tensor, q: &mut QTensor) {
        if q.shape != x.shape() {
            *q = QTensor::zeros(x.shape());
        }
        for (qv, &xv) in q.data.iter_mut().zip(x.iter()) {
            *qv = self.input_q.quantize(xv);
        }
    }

    /// Dequantize logits.
    pub fn dequantize_output(&self, q: &QTensor) -> Tensor {
        let data = q
            .data
            .iter()
            .map(|&v| self.output_q.dequantize(v))
            .collect();
        Tensor::from_vec(q.shape, data)
    }

    /// Integer forward pass returning dequantized logits.
    pub fn forward(&self, x: &Tensor, masks: &MaskSet) -> Tensor {
        let outs = self.forward_trace(&self.quantize_input(x), masks);
        self.dequantize_output(&outs[self.output])
    }

    /// Integer forward pass returning every node's u8 output
    /// (the accelerator simulator cross-checks against this trace).
    pub fn forward_trace(&self, input: &QTensor, masks: &MaskSet) -> Vec<QTensor> {
        let mut outs = self.slots();
        self.walk(
            0..self.nodes.len(),
            input,
            std::slice::from_ref(masks),
            &mut outs,
            exec_qnode,
        );
        outs
    }

    /// One unsized output slot per node: what [`QGraph::walk`] writes
    /// into, sizing each slot on first use.
    pub fn slots(&self) -> Vec<QTensor> {
        vec![QTensor::zeros(Shape4::vec(0, 0)); self.nodes.len()]
    }

    /// The one integer node-range walk: execute nodes `range` in order,
    /// each through `exec` into its own slot of `outs` (sized here by
    /// the shared shape rule, [`out_shape`], on first use or on a shape
    /// change), reading its predecessors from the slots below it — the
    /// f32 walk's convention.
    ///
    /// `masks` holds one set per Monte Carlo sample, the samples
    /// stacked along the item axis sample-major (sample `s` owns items
    /// `s·n .. (s+1)·n` of every slot the range touches), as in the f32
    /// walk: a dropout site applies each set to its sample's item group,
    /// and every other op sees a batch of items. One walk over `S` sets
    /// therefore streams each suffix weight once for all `S` samples.
    /// Integer arithmetic is exact, so every sample's bytes equal a walk
    /// of its set alone.
    ///
    /// Slots below `range.start` must hold those nodes' outputs (for a
    /// stacked walk, the ones the range reads replicated per sample);
    /// slots from `range.start` on may hold anything, because every
    /// executor overwrites its whole slot. So one slot vector serves any
    /// number of suffix re-runs over a cached prefix, and once warm a
    /// re-run allocates nothing. [`QGraph::forward_trace`], the int8
    /// backend's prefix and stacked suffix passes and the accelerator
    /// simulator's run are projections of this loop; they differ only
    /// in the range, the mask sets and the write-into node executor
    /// ([`exec_qnode`], or [`crate::exec_qnode_tiled`] at a tile).
    ///
    /// # Panics
    ///
    /// Panics if `masks` is empty, if `outs` does not hold one slot per
    /// node, if the range runs past the last node, or with the shape
    /// rule's message if the input does not fit the graph.
    pub fn walk(
        &self,
        range: Range<usize>,
        input: &QTensor,
        masks: &[MaskSet],
        outs: &mut [QTensor],
        mut exec: impl FnMut(&QNode, &[QTensor], &QTensor, &[MaskSet], &mut QTensor),
    ) {
        assert!(!masks.is_empty(), "walk needs at least one mask set");
        assert_eq!(outs.len(), self.nodes.len(), "walk needs one slot per node");
        for id in range {
            let node = &self.nodes[id];
            let (done, rest) = outs.split_at_mut(id);
            let shape = node.out_shape(input.shape, |j| done[j].shape);
            if rest[0].shape != shape {
                rest[0] = QTensor::zeros(shape);
            }
            exec(node, done, input, masks, &mut rest[0]);
        }
    }
}

impl QNodeOp {
    /// The shape-relevant view of this op: the integer graph sizes its
    /// outputs through the f32 graph's rule ([`out_shape`]).
    pub(crate) fn geometry(&self) -> Geometry {
        match *self {
            QNodeOp::Input => Geometry::Input,
            QNodeOp::Conv {
                in_c,
                out_c,
                k,
                stride,
                pad,
                ..
            } => Geometry::Conv(in_c, out_c, k, stride, pad),
            QNodeOp::Linear { in_f, out_f, .. } => Geometry::Linear(in_f, out_f),
            QNodeOp::Relu { .. } | QNodeOp::McdSite { .. } => Geometry::Same,
            QNodeOp::MaxPool { k, stride } => Geometry::Pool(k, stride),
            QNodeOp::GlobalAvgPool => Geometry::GlobalAvgPool,
            QNodeOp::Flatten => Geometry::Flatten,
            QNodeOp::Add { .. } => Geometry::Add,
        }
    }
}

impl QNode {
    /// This node's output shape given its predecessors' shapes
    /// (`get(id)`), panicking with the shape rule's message for an
    /// input that does not fit.
    fn out_shape(&self, input: Shape4, get: impl Fn(usize) -> Shape4) -> Shape4 {
        out_shape(self.op.geometry(), &self.name, input, |i| {
            get(self.inputs[i])
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Execute one quantized node against its predecessors' outputs into
/// its slot `y` (already sized by [`QGraph::walk`]; every element is
/// overwritten): the reference executor behind [`QGraph::forward`],
/// whose convolution and linear layers are direct loops.
///
/// The tiled executor ([`crate::exec_qnode_tiled`]) reuses it for the
/// functional-unit ops (ReLU/pool/add/dropout) and runs the matrix ops
/// through its kernel instead.
pub fn exec_qnode(
    node: &QNode,
    outs: &[QTensor],
    input: &QTensor,
    masks: &[MaskSet],
    y: &mut QTensor,
) {
    let x = |i: usize| &outs[node.inputs[i]];
    match &node.op {
        QNodeOp::Input => y.data.copy_from_slice(&input.data),
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
        } => qconv(x(0), *k, *stride, *pad, w, bias, requant, *zx, *zy, y),
        QNodeOp::Linear {
            w,
            bias,
            requant,
            zx,
            zy,
            ..
        } => qlinear(x(0), w, bias, requant, *zx, *zy, y),
        QNodeOp::Relu { z } => {
            let z8 = (*z).clamp(0, 255) as u8;
            for (d, &v) in y.data.iter_mut().zip(&x(0).data) {
                *d = v.max(z8);
            }
        }
        QNodeOp::MaxPool { k, stride } => qmaxpool(x(0), *k, *stride, y),
        QNodeOp::GlobalAvgPool => qgap(x(0), y),
        // NCHW flatten is a relabeling; the buffer layout is identical.
        QNodeOp::Flatten => y.data.copy_from_slice(&x(0).data),
        QNodeOp::Add { ma, mb, za, zb, zy } => {
            for ((d, &qa), &qb) in y.data.iter_mut().zip(&x(0).data).zip(&x(1).data) {
                let va = ma.apply(i32::from(qa) - za);
                let vb = mb.apply(i32::from(qb) - zb);
                *d = (va + vb + zy).clamp(0, 255) as u8;
            }
        }
        QNodeOp::McdSite { site, mul, z } => {
            apply_qmask(x(0), masks, *site, *mul, *z, &node.name, y);
        }
    }
}

/// The dropout unit over one walk: one masked copy of `x` into `y` per
/// sample group (`masks[s]` on items `s·n .. (s+1)·n`; a set without
/// this site copies its group unchanged). A dropped channel is written
/// as the zero point `z`, a kept code `v` as `clamp(z + m·(v − z))` under
/// its mask's rescale `m` ([`site_multiplier`]). At a fully-connected
/// site (one element per channel) the kept code is computed for every
/// element and selected against `z` by the keep byte-mask, a loop
/// without branches that vectorizes.
fn apply_qmask(
    x: &QTensor,
    masks: &[MaskSet],
    site: usize,
    mul: FixedMul,
    z: i32,
    name: &str,
    y: &mut QTensor,
) {
    let s = x.shape;
    let (plane, item) = (s.h * s.w, s.item_len());
    let z8 = z.clamp(0, 255) as u8;
    let group = s.n / masks.len() * item;
    let groups = x
        .data
        .chunks_exact(group)
        .zip(y.data.chunks_exact_mut(group));
    for (set, (src, dst)) in masks.iter().zip(groups) {
        let Some(mask) = set.get(site) else {
            dst.copy_from_slice(src);
            continue;
        };
        assert_eq!(mask.keep.len(), s.c, "{name}: mask length != channels");
        let kept = site_multiplier(mul, mask.scale, name);
        let kept_code = |v: u8| (z + kept.apply(i32::from(v) - z)).clamp(0, 255) as u8;
        for (src, dst) in src.chunks_exact(item).zip(dst.chunks_exact_mut(item)) {
            if plane == 1 {
                // A branch per channel would mispredict on random keep
                // bits: the kept code and the zero point are selected
                // by a byte mask.
                for ((d, &v), &keep) in dst.iter_mut().zip(src).zip(&mask.keep) {
                    let m = u8::from(keep).wrapping_neg();
                    *d = (kept_code(v) & m) | (z8 & !m);
                }
                continue;
            }
            let planes = src.chunks_exact(plane).zip(dst.chunks_exact_mut(plane));
            for ((src, dst), &keep) in planes.zip(&mask.keep) {
                if keep {
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d = kept_code(v);
                    }
                } else {
                    dst.fill(z8);
                }
            }
        }
    }
}

/// The fixed-point rescale of a mask's kept channels at a site whose
/// quantizer baked `baked` (its graph's `1/(1-p)`): `baked` itself when
/// the mask's `f32` scale is that multiplier up to the two `f32`
/// roundings of `1/(1-p)`, so a mask drawn at the graph's `p` moves no
/// byte; else the mask's scale, quantized — the f32 walk rescales by
/// the mask too.
///
/// # Panics
///
/// Panics, naming `p`, if the scale is beyond the fixed-point range
/// (`p ≥ 63/64`).
fn site_multiplier(baked: FixedMul, scale: f32, name: &str) -> FixedMul {
    let s = f64::from(scale);
    if (baked.value() - s).abs() <= 2.0 * s * f64::from(f32::EPSILON) {
        return baked;
    }
    assert!(
        s < 64.0,
        "{name}: drop probability p = {} rescales kept channels by {scale}, \
         beyond the integer dropout unit's range (p < 63/64)",
        1.0 - 1.0 / s
    );
    quantize_multiplier(s)
}

/// Integer convolution into `y`, whose shape fixes the output
/// channels and spatial extent (the walk sized it).
#[allow(clippy::too_many_arguments)]
fn qconv(
    x: &QTensor,
    k: usize,
    stride: usize,
    pad: usize,
    w: &[i8],
    bias: &[i32],
    requant: &[FixedMul],
    zx: i32,
    zy: i32,
    y: &mut QTensor,
) {
    let s = x.shape;
    let Shape4 {
        c: out_c,
        h: ho,
        w: wo,
        ..
    } = y.shape;
    let ckk = s.c * k * k;
    for n in 0..s.n {
        let xi = x.item(n);
        let yi = y.item_mut(n);
        for f in 0..out_c {
            let wrow = &w[f * ckk..(f + 1) * ckk];
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = bias[f];
                    for c in 0..s.c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= s.h as isize {
                                // Padding contributes (zx - zx) * w = 0.
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= s.w as isize {
                                    continue;
                                }
                                let xv =
                                    i32::from(xi[(c * s.h + iy as usize) * s.w + ix as usize]) - zx;
                                let wv = i32::from(wrow[(c * k + ky) * k + kx]);
                                acc += xv * wv;
                            }
                        }
                    }
                    let q = (zy + requant[f].apply(acc)).clamp(0, 255) as u8;
                    yi[(f * ho + oy) * wo + ox] = q;
                }
            }
        }
    }
}

/// Integer fully-connected layer into `y` (`y`'s item length is the
/// output width).
fn qlinear(
    x: &QTensor,
    w: &[i8],
    bias: &[i32],
    requant: &[FixedMul],
    zx: i32,
    zy: i32,
    y: &mut QTensor,
) {
    let (in_f, out_f) = (x.shape.item_len(), y.shape.item_len());
    for n in 0..x.shape.n {
        let xi = x.item(n);
        let yi = y.item_mut(n);
        for f in 0..out_f {
            let wrow = &w[f * in_f..(f + 1) * in_f];
            let mut acc = bias[f];
            for (j, &wv) in wrow.iter().enumerate() {
                acc += (i32::from(xi[j]) - zx) * i32::from(wv);
            }
            yi[f] = (zy + requant[f].apply(acc)).clamp(0, 255) as u8;
        }
    }
}

/// Max pooling into `y` (its shape fixes the output extent): every
/// output row `(n, c, oy)` folds the `k` input rows its windows cover
/// (`oy·stride` and down). No padding and a floored output size, so no
/// window leaves the input.
fn qmaxpool(x: &QTensor, k: usize, stride: usize, y: &mut QTensor) {
    let (s, Shape4 { h: ho, w: wo, .. }) = (x.shape, y.shape);
    for (plane, out_plane) in y.data.chunks_exact_mut(ho * wo).enumerate() {
        for (oy, out) in out_plane.chunks_exact_mut(wo).enumerate() {
            let top = (plane * s.h + oy * stride) * s.w;
            out.fill(0);
            for row in x.data[top..top + k * s.w].chunks_exact(s.w) {
                for kx in 0..k {
                    for (o, &v) in out.iter_mut().zip(row[kx..].iter().step_by(stride)) {
                        *o = (*o).max(v);
                    }
                }
            }
        }
    }
}

/// Global average pooling into `y`.
fn qgap(x: &QTensor, y: &mut QTensor) {
    let s = x.shape;
    let div = (s.h * s.w) as u32;
    for n in 0..s.n {
        let xi = x.item(n);
        let yi = y.item_mut(n);
        for c in 0..s.c {
            let sum: u32 = xi[c * s.h * s.w..(c + 1) * s.h * s.w]
                .iter()
                .map(|&v| u32::from(v))
                .sum();
            yi[c] = ((sum + div / 2) / div) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qparams_cover_zero() {
        let q = QParams::from_range(0.5, 2.0); // range widened to [0, 2]
        assert_eq!(q.quantize(0.0), q.zero as u8);
        let q2 = QParams::from_range(-1.0, 1.0);
        let z = q2.zero as u8;
        assert_eq!(q2.quantize(0.0), z);
        assert!((q2.dequantize(z)).abs() < 1e-6);
    }

    #[test]
    fn qparams_roundtrip_error_bounded() {
        let q = QParams::from_range(-3.0, 3.0);
        for i in 0..100 {
            let x = -3.0 + 6.0 * (i as f32) / 99.0;
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.scale * 0.5 + 1e-6, "x {x}: err {err}");
        }
    }

    #[test]
    fn qmask_sets_dropped_channels_to_zero_point() {
        let x = QTensor {
            data: vec![200, 200, 10, 10],
            shape: Shape4::new(1, 2, 1, 2),
        };
        let mut y = QTensor::zeros(x.shape);
        let masks = [MaskSet::from_masks(vec![Some(bnn_nn::Mask {
            keep: vec![false, true],
            scale: 4.0 / 3.0,
        })])];
        apply_qmask(
            &x,
            &masks,
            0,
            quantize_multiplier(4.0 / 3.0),
            128,
            "t",
            &mut y,
        );
        assert_eq!(&y.data[0..2], &[128, 128], "dropped -> zero point");
        // kept: 128 + (10-128)*4/3 = 128 - 157.33 -> clamp 0.
        assert_eq!(&y.data[2..4], &[0, 0]);
    }

    #[test]
    fn qmaxpool_takes_max() {
        let t = QTensor {
            data: vec![1, 9, 3, 4],
            shape: Shape4::new(1, 1, 2, 2),
        };
        let mut y = QTensor::zeros(Shape4::new(1, 1, 1, 1));
        qmaxpool(&t, 2, 2, &mut y);
        assert_eq!(y.data, vec![9]);
    }

    #[test]
    fn qconv_padding_is_zero_point_neutral() {
        // Single 1x1 input, 3x3 kernel of ones, pad 1: only the centre
        // tap sees data; padding must contribute nothing.
        let x = QTensor {
            data: vec![130],
            shape: Shape4::new(1, 1, 1, 1),
        };
        let w = vec![1i8; 9];
        let bias = vec![0i32];
        let requant = vec![FixedMul::one()];
        let mut y = QTensor::zeros(Shape4::new(1, 1, 1, 1));
        qconv(&x, 3, 1, 1, &w, &bias, &requant, 128, 0, &mut y);
        // acc = (130-128)*1 = 2 (centre tap only), zy=0 -> q=2.
        assert_eq!(y.data, vec![2]);
    }
}
