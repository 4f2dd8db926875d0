//! Calibration and lowering from a BN-folded f32 [`Graph`] to a
//! [`QGraph`].

use crate::fixed::{quantize_multiplier, FixedMul};
use crate::qgraph::{QGraph, QNode, QNodeOp, QParams};
use bnn_nn::{Graph, MaskSet, Op};
use bnn_rng::SoftRng;
use bnn_tensor::Tensor;

/// Post-training quantizer: records activation ranges over calibration
/// data, then lowers the graph to integers.
///
/// The input graph must be BN-free (run
/// [`Graph::fold_batch_norm`] first); the constructor enforces this.
#[derive(Debug)]
pub struct Quantizer<'g> {
    graph: &'g Graph,
    ranges: Vec<(f32, f32)>,
    calibrated: bool,
}

impl<'g> Quantizer<'g> {
    /// Create a quantizer.
    ///
    /// # Panics
    ///
    /// Panics if the graph still contains BatchNorm nodes.
    pub fn new(graph: &'g Graph) -> Quantizer<'g> {
        assert!(
            !graph
                .nodes()
                .iter()
                .any(|n| matches!(n.op, Op::BatchNorm { .. })),
            "quantizer requires a BN-folded graph (call fold_batch_norm first)"
        );
        Quantizer {
            graph,
            ranges: vec![(f32::INFINITY, f32::NEG_INFINITY); graph.nodes().len()],
            calibrated: false,
        }
    }

    /// Record activation ranges over a calibration batch.
    ///
    /// Three passes are run: one deterministic and two with full-MCD
    /// masks. A dropout site reuses its input's range, so a kept code
    /// whose `1/(1-p)` rescale leaves it clips (54.7 % of LeNet-5's
    /// `mcd0` codes, ROADMAP item 16). Can be called again with more batches.
    pub fn calibrate(&mut self, xs: &Tensor) -> &mut Self {
        let channels = self.graph.site_channels(xs.shape());
        let mut rng = SoftRng::new(0xCA11_B8A7E);
        let all_active = vec![true; self.graph.n_sites()];
        let last = self.graph.nodes().len() - 1;
        // The passes re-execute into one set of node outputs and one
        // convolution workspace, released when calibration returns.
        let (mut acts, mut cols) = (None, Vec::new());
        for pass in 0..3 {
            let masks = match pass {
                0 => MaskSet::none(),
                _ => MaskSet::sample_software(&all_active, &channels, 0.25, &mut rng),
            };
            let outs = self
                .graph
                .forward_prefix_with(xs, last, &masks, acts.take(), &mut cols);
            for (id, range) in self.ranges.iter_mut().enumerate() {
                let out = outs.output(id);
                range.0 = range.0.min(out.min());
                range.1 = range.1.max(out.max());
            }
            acts = Some(outs);
        }
        self.calibrated = true;
        self
    }

    /// Lower to a quantized graph.
    ///
    /// # Panics
    ///
    /// Panics if [`Quantizer::calibrate`] has not been called.
    pub fn quantize(&self) -> QGraph {
        assert!(self.calibrated, "calibrate() must run before quantize()");
        let nodes = self.graph.nodes();
        let params = self.graph.params();

        // Activation qparams per node. Shape-preserving ops share their
        // input's parameters so ReLU/pool/flatten/dropout stay pure
        // integer ops without rescaling.
        let mut qp: Vec<QParams> = Vec::with_capacity(nodes.len());
        for (id, node) in nodes.iter().enumerate() {
            let own = || {
                let (lo, hi) = self.ranges[id];
                QParams::from_range(lo, hi)
            };
            let p = match node.op {
                Op::Relu
                | Op::MaxPool { .. }
                | Op::GlobalAvgPool
                | Op::Flatten
                | Op::McdSite { .. } => qp[node.inputs[0]],
                _ => own(),
            };
            qp.push(p);
        }

        let mut qnodes: Vec<QNode> = Vec::with_capacity(nodes.len());
        for (id, node) in nodes.iter().enumerate() {
            let op = match &node.op {
                Op::Input => QNodeOp::Input,
                Op::Conv {
                    w,
                    b,
                    in_c,
                    out_c,
                    k,
                    stride,
                    pad,
                } => {
                    let (wq, bq, rq) = quantize_weights(
                        params.get(*w).as_slice(),
                        params.get(*b).as_slice(),
                        *out_c,
                        qp[node.inputs[0]],
                        qp[id],
                    );
                    QNodeOp::Conv {
                        in_c: *in_c,
                        out_c: *out_c,
                        k: *k,
                        stride: *stride,
                        pad: *pad,
                        w: wq,
                        bias: bq,
                        requant: rq,
                        zx: qp[node.inputs[0]].zero,
                        zy: qp[id].zero,
                    }
                }
                Op::Linear { w, b, in_f, out_f } => {
                    let (wq, bq, rq) = quantize_weights(
                        params.get(*w).as_slice(),
                        params.get(*b).as_slice(),
                        *out_f,
                        qp[node.inputs[0]],
                        qp[id],
                    );
                    QNodeOp::Linear {
                        in_f: *in_f,
                        out_f: *out_f,
                        w: wq,
                        bias: bq,
                        requant: rq,
                        zx: qp[node.inputs[0]].zero,
                        zy: qp[id].zero,
                    }
                }
                Op::BatchNorm { .. } => unreachable!("graph is BN-folded"),
                Op::Relu => QNodeOp::Relu { z: qp[id].zero },
                Op::MaxPool { k, stride } => QNodeOp::MaxPool {
                    k: *k,
                    stride: *stride,
                },
                Op::GlobalAvgPool => QNodeOp::GlobalAvgPool,
                Op::Flatten => QNodeOp::Flatten,
                Op::Add => {
                    let a = qp[node.inputs[0]];
                    let b = qp[node.inputs[1]];
                    let y = qp[id];
                    QNodeOp::Add {
                        ma: quantize_multiplier(f64::from(a.scale / y.scale)),
                        mb: quantize_multiplier(f64::from(b.scale / y.scale)),
                        za: a.zero,
                        zb: b.zero,
                        zy: y.zero,
                    }
                }
                Op::McdSite { site, p } => QNodeOp::McdSite {
                    site: site.0,
                    mul: quantize_multiplier(1.0 / (1.0 - f64::from(*p))),
                    z: qp[id].zero,
                },
            };
            qnodes.push(QNode {
                op,
                inputs: node.inputs.clone(),
                name: node.name.clone(),
            });
        }

        QGraph {
            nodes: qnodes,
            input: self.graph.input_id(),
            output: self.graph.output_id(),
            n_sites: self.graph.n_sites(),
            input_q: qp[self.graph.input_id()],
            output_q: qp[self.graph.output_id()],
            name: format!("{}-int8", self.graph.name()),
        }
    }
}

/// Symmetric per-output-channel weight quantization plus bias and
/// requantization multipliers.
fn quantize_weights(
    w: &[f32],
    b: &[f32],
    out_ch: usize,
    x_q: QParams,
    y_q: QParams,
) -> (Vec<i8>, Vec<i32>, Vec<FixedMul>) {
    let per_ch = w.len() / out_ch;
    let mut wq = vec![0i8; w.len()];
    let mut bq = vec![0i32; out_ch];
    let mut rq = Vec::with_capacity(out_ch);
    for c in 0..out_ch {
        let row = &w[c * per_ch..(c + 1) * per_ch];
        let absmax = row.iter().fold(1e-8f32, |m, &v| m.max(v.abs()));
        let sw = absmax / 127.0;
        let qrow = &mut wq[c * per_ch..(c + 1) * per_ch];
        for (dst, &src) in qrow.iter_mut().zip(row) {
            *dst = (src / sw).round().clamp(-127.0, 127.0) as i8;
        }
        if qrow.iter().all(|&q| q == 0) {
            // A pruned channel is its bias alone. The floored `absmax`
            // would give it a multiplier far below what fixed point
            // represents; a weight scale of `s_y / s_x` makes it exactly
            // 1, and the channel's output `zy + round(b / s_y)`.
            bq[c] = (b[c] / y_q.scale).round() as i32;
            rq.push(FixedMul::one());
            continue;
        }
        bq[c] = (b[c] / (x_q.scale * sw)).round() as i32;
        rq.push(quantize_multiplier(f64::from(x_q.scale * sw / y_q.scale)));
    }
    (wq, bq, rq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::models;
    use bnn_tensor::Shape4;

    fn calib_input(shape: Shape4, seed: u64) -> Tensor {
        let mut rng = SoftRng::new(seed);
        Tensor::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        )
    }

    /// Quantize `net` over random calibration data and check the
    /// integer forward against f32 in logit space: max error well under
    /// the logit spread.
    fn assert_tracks_f32(net: &Graph) {
        let xs = calib_input(Shape4::new(8, 1, 16, 16), 1);
        let q = Quantizer::new(net).calibrate(&xs).quantize();
        let probe = calib_input(Shape4::new(4, 1, 16, 16), 2);
        let yf = net.forward(&probe, &MaskSet::none());
        let yq = q.forward(&probe, &MaskSet::none());
        let spread = yf.max() - yf.min();
        let err = yf.max_abs_diff(&yq);
        assert!(
            err < 0.15 * spread.max(1.0),
            "int8 error {err} vs spread {spread}"
        );
    }

    #[test]
    fn quantized_forward_tracks_f32() {
        assert_tracks_f32(&models::lenet5(10, 1, 16, 3).fold_batch_norm());
    }

    #[test]
    fn a_pruned_channel_quantizes_and_tracks_f32() {
        // An all-zero conv filter and an all-zero linear row used to
        // panic in `quantize_multiplier` (multiplier ~1e-11).
        let mut net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
        let rows: Vec<_> = net
            .nodes()
            .iter()
            .filter_map(|n| match n.op {
                Op::Conv { w, in_c, k, .. } => Some((w, in_c * k * k)),
                Op::Linear { w, in_f, .. } => Some((w, in_f)),
                _ => None,
            })
            .collect();
        let (conv, linear) = (rows[0], rows[2]);
        for (w, len) in [conv, linear] {
            net.params_mut().get_mut(w).as_mut_slice()[..len].fill(0.0);
        }
        assert_tracks_f32(&net);
    }

    #[test]
    fn quantized_argmax_mostly_agrees() {
        let net = models::resnet18(10, 3, 4, 5).fold_batch_norm();
        let xs = calib_input(Shape4::new(6, 3, 16, 16), 3);
        let q = Quantizer::new(&net).calibrate(&xs).quantize();
        let probe = calib_input(Shape4::new(6, 3, 16, 16), 4);
        let yf = net.forward(&probe, &MaskSet::none());
        let yq = q.forward(&probe, &MaskSet::none());
        let agree = (0..6)
            .filter(|&i| yf.argmax_item(i) == yq.argmax_item(i))
            .count();
        assert!(agree >= 4, "argmax agreement {agree}/6 too low");
    }

    #[test]
    #[should_panic(expected = "BN-folded")]
    fn rejects_unfolded_graph() {
        let net = models::lenet5(10, 1, 16, 3);
        let _ = Quantizer::new(&net);
    }

    #[test]
    #[should_panic(expected = "calibrate")]
    fn rejects_uncalibrated_quantize() {
        let net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
        let _ = Quantizer::new(&net).quantize();
    }

    #[test]
    fn masked_quantized_forward_runs() {
        let net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
        let xs = calib_input(Shape4::new(4, 1, 16, 16), 1);
        let q = Quantizer::new(&net).calibrate(&xs).quantize();
        let channels = net.site_channels(xs.shape());
        let mut rng = SoftRng::new(9);
        let masks = MaskSet::sample_software(&vec![true; net.n_sites()], &channels, 0.25, &mut rng);
        let y = q.forward(&xs, &masks);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn weight_quantization_is_per_channel() {
        // Two output channels with very different magnitudes must get
        // different scales (small channel keeps resolution).
        let w = vec![10.0, -10.0, 0.01, -0.01];
        let b = vec![0.0, 0.0];
        let (wq, _bq, rq) = quantize_weights(
            &w,
            &b,
            2,
            QParams {
                scale: 0.1,
                zero: 0,
            },
            QParams {
                scale: 0.1,
                zero: 0,
            },
        );
        assert_eq!(&wq[0..2], &[127, -127]);
        assert_eq!(&wq[2..4], &[127, -127], "small channel uses its own scale");
        assert!(rq[0].value() > rq[1].value());
    }
}
