//! The quantized graph and its integer reference executor.

use crate::fixed::FixedMul;
use bnn_nn::MaskSet;
use bnn_tensor::{conv_out_dim, Shape4, Tensor};
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
    /// Average pooling with round-to-nearest integer division.
    AvgPool {
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
        /// Fixed-point `1/(1-p)`.
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

    /// Output shape of every node for an input shape (the integer
    /// mirror of `bnn_nn::Graph::infer_shapes`).
    ///
    /// # Panics
    ///
    /// Panics if the graph is malformed (construction bug).
    pub fn infer_shapes(&self, input: Shape4) -> Vec<Shape4> {
        let mut shapes: Vec<Shape4> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let s = qnode_out_shape(node, input, |id| shapes[id]);
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
        for (qv, &xv) in q.data.iter_mut().zip(x.iter()) {
            *qv = self.input_q.quantize(xv);
        }
        q
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
        let mut outs = Vec::with_capacity(self.nodes.len());
        self.walk(0..self.nodes.len(), input, masks, &mut outs, exec_qnode);
        outs
    }

    /// The one integer node-range walk: execute nodes `range` in order
    /// with `exec`, each reading its predecessors from `outs` and
    /// appending its own output.
    ///
    /// `outs` must hold the outputs of every node below `range.start`
    /// (more is fine: it is truncated back to that boundary first, and
    /// a walk never writes below it), so one vector serves any number
    /// of suffix re-runs over a cached prefix. On return it holds
    /// nodes `..range.end`. [`QGraph::forward_trace`], the int8
    /// backend's prefix and suffix passes and the accelerator
    /// simulator's tiled reference run are projections of this loop;
    /// they differ only in the range and in the node executor
    /// ([`exec_qnode`], or the simulator's tiled PE stations).
    ///
    /// # Panics
    ///
    /// Panics if `outs` is shorter than `range.start` or the range
    /// runs past the last node.
    pub fn walk(
        &self,
        range: Range<usize>,
        input: &QTensor,
        masks: &MaskSet,
        outs: &mut Vec<QTensor>,
        exec: impl Fn(&QNode, &[QTensor], &QTensor, &MaskSet) -> QTensor,
    ) {
        assert!(
            outs.len() >= range.start,
            "walk from node {} needs every output below it, got {}",
            range.start,
            outs.len()
        );
        outs.truncate(range.start);
        for node in &self.nodes[range] {
            let y = exec(node, outs, input, masks);
            outs.push(y);
        }
    }
}

/// Output shape of one quantized node given its predecessors' shapes.
fn qnode_out_shape(node: &QNode, input: Shape4, get: impl Fn(usize) -> Shape4) -> Shape4 {
    let of = |i: usize| get(node.inputs[i]);
    match &node.op {
        QNodeOp::Input => input,
        QNodeOp::Conv {
            out_c,
            k,
            stride,
            pad,
            ..
        } => {
            let s = of(0);
            Shape4::new(
                s.n,
                *out_c,
                conv_out_dim(s.h, *k, *stride, *pad),
                conv_out_dim(s.w, *k, *stride, *pad),
            )
        }
        QNodeOp::Linear { out_f, .. } => Shape4::vec(of(0).n, *out_f),
        QNodeOp::Relu { .. } | QNodeOp::McdSite { .. } | QNodeOp::Add { .. } => of(0),
        QNodeOp::MaxPool { k, stride } | QNodeOp::AvgPool { k, stride } => {
            let s = of(0);
            Shape4::new(
                s.n,
                s.c,
                conv_out_dim(s.h, *k, *stride, 0),
                conv_out_dim(s.w, *k, *stride, 0),
            )
        }
        QNodeOp::GlobalAvgPool => {
            let s = of(0);
            Shape4::new(s.n, s.c, 1, 1)
        }
        QNodeOp::Flatten => {
            let s = of(0);
            Shape4::vec(s.n, s.item_len())
        }
    }
}

/// Execute one quantized node against its predecessors' outputs: the
/// node executor every serving path hands to [`QGraph::walk`].
///
/// The accelerator simulator's tiled executor reuses it for the
/// functional-unit ops (ReLU/pool/add/dropout) while supplying its own
/// tiled matrix kernels.
pub fn exec_qnode(node: &QNode, outs: &[QTensor], input: &QTensor, masks: &MaskSet) -> QTensor {
    match &node.op {
        QNodeOp::Input => input.clone(),
        QNodeOp::Conv {
            in_c,
            out_c,
            k,
            stride,
            pad,
            w,
            bias,
            requant,
            zx,
            zy,
        } => {
            let x = &outs[node.inputs[0]];
            qconv(
                x, *in_c, *out_c, *k, *stride, *pad, w, bias, requant, *zx, *zy,
            )
        }
        QNodeOp::Linear {
            in_f,
            out_f,
            w,
            bias,
            requant,
            zx,
            zy,
        } => {
            let x = &outs[node.inputs[0]];
            qlinear(x, *in_f, *out_f, w, bias, requant, *zx, *zy)
        }
        QNodeOp::Relu { z } => {
            let x = &outs[node.inputs[0]];
            let z8 = (*z).clamp(0, 255) as u8;
            QTensor {
                data: x.data.iter().map(|&v| v.max(z8)).collect(),
                shape: x.shape,
            }
        }
        QNodeOp::MaxPool { k, stride } => qmaxpool(&outs[node.inputs[0]], *k, *stride),
        QNodeOp::AvgPool { k, stride } => qavgpool(&outs[node.inputs[0]], *k, *stride),
        QNodeOp::GlobalAvgPool => qgap(&outs[node.inputs[0]]),
        QNodeOp::Flatten => {
            let x = &outs[node.inputs[0]];
            QTensor {
                data: x.data.clone(),
                shape: Shape4::vec(x.shape.n, x.shape.item_len()),
            }
        }
        QNodeOp::Add { ma, mb, za, zb, zy } => {
            let a = &outs[node.inputs[0]];
            let b = &outs[node.inputs[1]];
            let data = a
                .data
                .iter()
                .zip(&b.data)
                .map(|(&qa, &qb)| {
                    let va = ma.apply(i32::from(qa) - za);
                    let vb = mb.apply(i32::from(qb) - zb);
                    (va + vb + zy).clamp(0, 255) as u8
                })
                .collect();
            QTensor {
                data,
                shape: a.shape,
            }
        }
        QNodeOp::McdSite { site, mul, z } => {
            let x = &outs[node.inputs[0]];
            let mut y = x.clone();
            if let Some(mask) = masks.get(*site) {
                apply_qmask(&mut y, &mask.keep, *mul, *z, &node.name);
            }
            y
        }
    }
}

/// The dropout unit's integer behaviour: dropped channels are set to
/// the zero point; kept channels are rescaled by the fixed-point
/// `1/(1-p)` multiplier around the zero point.
pub fn apply_qmask(x: &mut QTensor, keep: &[bool], mul: FixedMul, z: i32, name: &str) {
    let s = x.shape;
    assert_eq!(keep.len(), s.c, "{name}: mask length != channels");
    let plane = s.h * s.w;
    for n in 0..s.n {
        let item = x.item_mut(n);
        for (c, &kept) in keep.iter().enumerate() {
            let sl = &mut item[c * plane..(c + 1) * plane];
            if kept {
                for v in sl {
                    *v = (z + mul.apply(i32::from(*v) - z)).clamp(0, 255) as u8;
                }
            } else {
                sl.fill(z.clamp(0, 255) as u8);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn qconv(
    x: &QTensor,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    w: &[i8],
    bias: &[i32],
    requant: &[FixedMul],
    zx: i32,
    zy: i32,
) -> QTensor {
    let s = x.shape;
    debug_assert_eq!(s.c, in_c, "channel mismatch");
    let ho = conv_out_dim(s.h, k, stride, pad);
    let wo = conv_out_dim(s.w, k, stride, pad);
    let mut y = QTensor::zeros(Shape4::new(s.n, out_c, ho, wo));
    let ckk = in_c * k * k;
    for n in 0..s.n {
        let xi = x.item(n);
        let yi = y.item_mut(n);
        for f in 0..out_c {
            let wrow = &w[f * ckk..(f + 1) * ckk];
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = bias[f];
                    for c in 0..in_c {
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
    y
}

#[allow(clippy::too_many_arguments)]
fn qlinear(
    x: &QTensor,
    in_f: usize,
    out_f: usize,
    w: &[i8],
    bias: &[i32],
    requant: &[FixedMul],
    zx: i32,
    zy: i32,
) -> QTensor {
    let s = x.shape;
    debug_assert_eq!(s.item_len(), in_f, "feature mismatch");
    let mut y = QTensor::zeros(Shape4::vec(s.n, out_f));
    for n in 0..s.n {
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
    y
}

fn qmaxpool(x: &QTensor, k: usize, stride: usize) -> QTensor {
    let s = x.shape;
    let ho = conv_out_dim(s.h, k, stride, 0);
    let wo = conv_out_dim(s.w, k, stride, 0);
    let mut y = QTensor::zeros(Shape4::new(s.n, s.c, ho, wo));
    for n in 0..s.n {
        let xi = x.item(n);
        let yi = y.item_mut(n);
        for c in 0..s.c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = 0u8;
                    for ky in 0..k {
                        for kx in 0..k {
                            let v = xi[(c * s.h + oy * stride + ky) * s.w + ox * stride + kx];
                            best = best.max(v);
                        }
                    }
                    yi[(c * ho + oy) * wo + ox] = best;
                }
            }
        }
    }
    y
}

fn qavgpool(x: &QTensor, k: usize, stride: usize) -> QTensor {
    let s = x.shape;
    let ho = conv_out_dim(s.h, k, stride, 0);
    let wo = conv_out_dim(s.w, k, stride, 0);
    let mut y = QTensor::zeros(Shape4::new(s.n, s.c, ho, wo));
    let div = (k * k) as u32;
    for n in 0..s.n {
        let xi = x.item(n);
        let yi = y.item_mut(n);
        for c in 0..s.c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut sum = 0u32;
                    for ky in 0..k {
                        for kx in 0..k {
                            sum += u32::from(
                                xi[(c * s.h + oy * stride + ky) * s.w + ox * stride + kx],
                            );
                        }
                    }
                    yi[(c * ho + oy) * wo + ox] = ((sum + div / 2) / div) as u8;
                }
            }
        }
    }
    y
}

fn qgap(x: &QTensor) -> QTensor {
    let s = x.shape;
    let mut y = QTensor::zeros(Shape4::new(s.n, s.c, 1, 1));
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
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::quantize_multiplier;

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
        let mut t = QTensor {
            data: vec![200, 200, 10, 10],
            shape: Shape4::new(1, 2, 1, 2),
        };
        apply_qmask(
            &mut t,
            &[false, true],
            quantize_multiplier(4.0 / 3.0),
            128,
            "t",
        );
        assert_eq!(&t.data[0..2], &[128, 128], "dropped -> zero point");
        // kept: 128 + (10-128)*4/3 = 128 - 157.33 -> clamp 0.
        assert_eq!(&t.data[2..4], &[0, 0]);
    }

    #[test]
    fn qmaxpool_takes_max() {
        let t = QTensor {
            data: vec![1, 9, 3, 4],
            shape: Shape4::new(1, 1, 2, 2),
        };
        let y = qmaxpool(&t, 2, 2);
        assert_eq!(y.data, vec![9]);
    }

    #[test]
    fn qavgpool_rounds_to_nearest() {
        let t = QTensor {
            data: vec![1, 2, 3, 5],
            shape: Shape4::new(1, 1, 2, 2),
        };
        let y = qavgpool(&t, 2, 2);
        assert_eq!(y.data, vec![3], "11/4 = 2.75 -> 3");
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
        let y = qconv(&x, 1, 1, 3, 1, 1, &w, &bias, &requant, 128, 0);
        // acc = (130-128)*1 = 2 (centre tap only), zy=0 -> q=2.
        assert_eq!(y.data, vec![2]);
    }
}
