//! Fused layer descriptors — the interface between the graph IR and
//! the hardware models.
//!
//! The accelerator processes one *fused layer* at a time: a conv or FC
//! matrix multiply followed by the functional-unit chain
//! (BN → ReLU → Pool → Shortcut) and the dropout unit. This module
//! extracts that fused view from a [`Graph`] and also provides a
//! hand-built descriptor list for ResNet-101 (used for the paper's
//! Table IV throughput comparison, where only layer geometry matters).

use crate::graph::{Graph, Op};
use bnn_tensor::Shape4;

/// Whether the matrix engine runs a convolution or an FC layer
/// (FC is a 1×1 convolution on a 1×1 feature map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Fully-connected layer.
    Linear,
}

/// Pooling fused after the layer, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolDesc {
    /// Window (0 for global pooling).
    pub k: usize,
    /// Stride (ignored for global pooling).
    pub stride: usize,
    /// Global average pool to 1×1.
    pub global: bool,
}

/// One fused accelerator layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDesc {
    /// Diagnostic name (from the conv/linear node).
    pub name: String,
    /// Matrix-engine mode.
    pub kind: LayerKind,
    /// Input channels `C`.
    pub in_c: usize,
    /// Output channels / filters `F`.
    pub out_c: usize,
    /// Kernel size `K` (1 for FC).
    pub k: usize,
    /// Stride (1 for FC).
    pub stride: usize,
    /// Padding (0 for FC).
    pub pad: usize,
    /// Input feature-map height (1 for FC).
    pub in_h: usize,
    /// Input feature-map width (1 for FC).
    pub in_w: usize,
    /// Matrix-engine output height before pooling.
    pub out_h: usize,
    /// Matrix-engine output width before pooling.
    pub out_w: usize,
    /// Stored output height (after fused pooling).
    pub stored_h: usize,
    /// Stored output width (after fused pooling).
    pub stored_w: usize,
    /// Batch normalization fused in the FU chain.
    pub has_bn: bool,
    /// ReLU fused in the FU chain.
    pub has_relu: bool,
    /// Pooling fused in the FU chain.
    pub pool: Option<PoolDesc>,
    /// Residual shortcut addition fused in the FU chain.
    pub shortcut_add: bool,
    /// MCD site guarding this layer's *input*, if any.
    pub input_site: Option<usize>,
}

impl LayerDesc {
    /// Multiply-accumulate operations of the matrix engine.
    pub fn macs(&self) -> u64 {
        (self.out_c * self.out_h * self.out_w * self.in_c * self.k * self.k) as u64
    }

    /// Operations (2 × MACs, the GOP convention used in Table IV).
    pub fn ops(&self) -> u64 {
        2 * self.macs()
    }

    /// Weight footprint in bytes at `dw`-byte precision.
    pub fn weight_bytes(&self, dw: usize) -> u64 {
        (self.out_c * self.in_c * self.k * self.k * dw) as u64
    }

    /// Input feature-map footprint in bytes.
    pub fn input_bytes(&self, dw: usize) -> u64 {
        (self.in_c * self.in_h * self.in_w * dw) as u64
    }

    /// Stored output feature-map footprint in bytes (after pooling).
    pub fn output_bytes(&self, dw: usize) -> u64 {
        (self.out_c * self.stored_h * self.stored_w * dw) as u64
    }
}

/// Index of the first Bayesian layer for "last `l` of the MCD sites".
///
/// Layers are in execution order; returns `layers.len()` when `l == 0`
/// (no Bayesian layer). Used by every latency model that splits the
/// network into a deterministic prefix and a Bayesian suffix.
pub fn first_bayesian_layer(layers: &[LayerDesc], l: usize) -> usize {
    // Sites can be shared (a projection conv reads the same masked
    // tensor as its block's first conv), so N is the number of
    // *distinct* sites, not the number of site-carrying layers.
    let n_sites = layers
        .iter()
        .filter_map(|d| d.input_site)
        .max()
        .map_or(0, |m| m + 1);
    let l = l.min(n_sites);
    if l == 0 {
        return layers.len();
    }
    let threshold = n_sites - l;
    layers
        .iter()
        .position(|d| d.input_site.map(|s| s >= threshold).unwrap_or(false))
        .unwrap_or(layers.len())
}

/// Extract the fused layer sequence of a graph for a given input shape.
///
/// Fusion follows single-consumer chains out of each weight layer
/// through BN, ReLU, pooling and main-path residual additions — the
/// exact set of stages the accelerator's FU chain implements.
pub fn extract_layers(graph: &Graph, input: Shape4) -> Vec<LayerDesc> {
    let nodes = graph.nodes();
    let shapes = graph.infer_shapes(input.with_n(1));
    // consumers[i] = nodes reading node i.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        for &i in &node.inputs {
            consumers[i].push(id);
        }
    }

    let mut layers = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        let (kind, in_c, out_c, k, stride, pad) = match node.op {
            Op::Conv {
                in_c,
                out_c,
                k,
                stride,
                pad,
                ..
            } => (LayerKind::Conv, in_c, out_c, k, stride, pad),
            Op::Linear { in_f, out_f, .. } => (LayerKind::Linear, in_f, out_f, 1, 1, 0),
            _ => continue,
        };
        let in_shape = shapes[node.inputs[0]];
        let out_shape = shapes[id];

        // Walk the input chain upwards through flatten/mcd to find the site.
        let mut input_site = None;
        let mut up = node.inputs[0];
        loop {
            match &nodes[up].op {
                Op::McdSite { site, .. } => {
                    input_site = Some(site.0);
                    break;
                }
                Op::Flatten => up = nodes[up].inputs[0],
                _ => break,
            }
        }

        // Walk the consumer chain downwards to collect the fused FU stages.
        let mut has_bn = false;
        let mut has_relu = false;
        let mut pool = None;
        let mut shortcut_add = false;
        let mut stored = (out_shape.h, out_shape.w);
        let mut cur = id;
        // (A plain loop, not `while let`: the chain also breaks from
        // several arms of the op match below.)
        #[allow(clippy::while_let_loop)]
        loop {
            let next = match consumers[cur].as_slice() {
                [single] => *single,
                _ => break,
            };
            match &nodes[next].op {
                Op::BatchNorm { .. } if !has_relu => has_bn = true,
                Op::Relu => has_relu = true,
                Op::MaxPool { k, stride } => {
                    pool = Some(PoolDesc {
                        k: *k,
                        stride: *stride,
                        global: false,
                    });
                    stored = (shapes[next].h, shapes[next].w);
                }
                Op::GlobalAvgPool => {
                    pool = Some(PoolDesc {
                        k: 0,
                        stride: 0,
                        global: true,
                    });
                    stored = (1, 1);
                }
                Op::Add => {
                    // Fuse only along the main path (first input).
                    if nodes[next].inputs[0] != cur {
                        break;
                    }
                    shortcut_add = true;
                }
                _ => break,
            }
            cur = next;
        }

        layers.push(LayerDesc {
            name: node.name.clone(),
            kind,
            in_c,
            out_c,
            k,
            stride,
            pad,
            in_h: in_shape.h,
            in_w: in_shape.w,
            out_h: out_shape.h,
            out_w: out_shape.w,
            stored_h: stored.0,
            stored_w: stored.1,
            has_bn,
            has_relu,
            pool,
            shortcut_add,
            input_site,
        });
    }
    layers
}

/// Hand-built fused descriptors of a full ImageNet ResNet-101 with MCD
/// on every layer (`L = N`), used for the Table IV throughput
/// comparison. Bottleneck blocks `[3, 4, 23, 3]`, 224×224 input.
pub fn resnet101_desc() -> Vec<LayerDesc> {
    let mut layers = Vec::new();
    let mut site = 0usize;
    let mut push = |name: String,
                    in_c: usize,
                    out_c: usize,
                    k: usize,
                    stride: usize,
                    pad: usize,
                    hw_in: usize,
                    layers: &mut Vec<LayerDesc>| {
        let hw_out = (hw_in + 2 * pad - k) / stride + 1;
        layers.push(LayerDesc {
            name,
            kind: LayerKind::Conv,
            in_c,
            out_c,
            k,
            stride,
            pad,
            in_h: hw_in,
            in_w: hw_in,
            out_h: hw_out,
            out_w: hw_out,
            stored_h: hw_out,
            stored_w: hw_out,
            has_bn: true,
            has_relu: true,
            pool: None,
            shortcut_add: false,
            input_site: Some({
                let s = site;
                site += 1;
                s
            }),
        });
        hw_out
    };

    // Stem: 7x7/2 conv then (fused) 3x3/2 max pool.
    let hw = push("conv1".into(), 3, 64, 7, 2, 3, 224, &mut layers);
    {
        let stem = layers.last_mut().expect("stem exists");
        stem.pool = Some(PoolDesc {
            k: 3,
            stride: 2,
            global: false,
        });
        stem.stored_h = (hw - 1) / 2; // 112 -> 56 with pad-1 3x3/2 pooling
        stem.stored_w = stem.stored_h;
    }
    let mut hw = 56usize;

    let stages: [(usize, usize, usize); 4] =
        [(64, 256, 3), (128, 512, 4), (256, 1024, 23), (512, 2048, 3)];
    let mut in_c = 64usize;
    for (si, &(mid, out, blocks)) in stages.iter().enumerate() {
        for bi in 0..blocks {
            let stride = if si > 0 && bi == 0 { 2 } else { 1 };
            if stride == 2 {
                hw /= 2;
            }
            let hw_in = if stride == 2 { hw * 2 } else { hw };
            push(
                format!("s{si}b{bi}_1x1a"),
                in_c,
                mid,
                1,
                stride,
                0,
                hw_in,
                &mut layers,
            );
            push(
                format!("s{si}b{bi}_3x3"),
                mid,
                mid,
                3,
                1,
                1,
                hw,
                &mut layers,
            );
            let _ = push(
                format!("s{si}b{bi}_1x1b"),
                mid,
                out,
                1,
                1,
                0,
                hw,
                &mut layers,
            );
            layers.last_mut().expect("block exists").shortcut_add = true;
            if bi == 0 {
                // Projection shortcut.
                push(
                    format!("s{si}b{bi}_proj"),
                    in_c,
                    out,
                    1,
                    stride,
                    0,
                    hw_in,
                    &mut layers,
                );
                let proj = layers.last_mut().expect("projection exists");
                proj.has_relu = false;
            }
            in_c = out;
        }
    }

    // Classifier: GAP fused into the last block, then FC 2048 -> 1000.
    layers.push(LayerDesc {
        name: "fc".into(),
        kind: LayerKind::Linear,
        in_c: 2048,
        out_c: 1000,
        k: 1,
        stride: 1,
        pad: 0,
        in_h: 1,
        in_w: 1,
        out_h: 1,
        out_w: 1,
        stored_h: 1,
        stored_w: 1,
        has_bn: false,
        has_relu: false,
        pool: None,
        shortcut_add: false,
        input_site: Some(site),
    });
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn lenet_extracts_five_layers() {
        let net = models::lenet5(10, 1, 28, 1);
        let layers = extract_layers(&net, Shape4::new(1, 1, 28, 28));
        assert_eq!(layers.len(), 5);
        assert_eq!(layers[0].kind, LayerKind::Conv);
        assert!(layers[0].has_bn && layers[0].has_relu);
        assert!(layers[0].pool.is_some(), "first conv fuses its max pool");
        assert_eq!(layers[0].input_site, Some(0));
        assert_eq!(layers[4].kind, LayerKind::Linear);
        assert_eq!(layers[4].input_site, Some(4));
    }

    #[test]
    fn fused_pool_changes_stored_dims() {
        let net = models::lenet5(10, 1, 28, 1);
        let layers = extract_layers(&net, Shape4::new(1, 1, 28, 28));
        assert_eq!((layers[0].out_h, layers[0].out_w), (28, 28));
        assert_eq!((layers[0].stored_h, layers[0].stored_w), (14, 14));
    }

    #[test]
    fn resnet18_marks_shortcuts() {
        let net = models::resnet18(10, 3, 8, 1);
        let layers = extract_layers(&net, Shape4::new(1, 3, 32, 32));
        // Second conv of each basic block fuses the residual addition.
        let adds = layers.iter().filter(|l| l.shortcut_add).count();
        assert_eq!(adds, 8, "eight basic blocks end in an Add");
        // 18 main-path layers + 3 projection convs.
        assert_eq!(layers.len(), 21);
    }

    #[test]
    fn macs_match_graph_totals() {
        let net = models::vgg11(10, 3, 32, 8, 1);
        let input = Shape4::new(1, 3, 32, 32);
        let layers = extract_layers(&net, input);
        let total: u64 = layers.iter().map(LayerDesc::macs).sum();
        assert_eq!(total, net.macs(input));
    }

    #[test]
    fn resnet101_totals_are_imagenet_scale() {
        let layers = resnet101_desc();
        let gmacs = layers.iter().map(LayerDesc::macs).sum::<u64>() as f64 / 1e9;
        // Published ResNet-101 is ~7.8 GMACs at 224².
        assert!((6.5..9.0).contains(&gmacs), "ResNet-101 GMACs = {gmacs}");
        assert!(layers.len() > 100);
        assert!(
            layers.iter().all(|l| l.input_site.is_some()),
            "L = N: every layer Bayesian"
        );
    }

    #[test]
    fn layer_byte_accounting() {
        let d = LayerDesc {
            name: "t".into(),
            kind: LayerKind::Conv,
            in_c: 3,
            out_c: 8,
            k: 3,
            stride: 1,
            pad: 1,
            in_h: 8,
            in_w: 8,
            out_h: 8,
            out_w: 8,
            stored_h: 4,
            stored_w: 4,
            has_bn: true,
            has_relu: true,
            pool: Some(PoolDesc {
                k: 2,
                stride: 2,
                global: false,
            }),
            shortcut_add: false,
            input_site: None,
        };
        assert_eq!(d.macs(), 8 * 64 * 27);
        assert_eq!(d.weight_bytes(1), 8 * 27);
        assert_eq!(d.input_bytes(1), 3 * 64);
        assert_eq!(d.output_bytes(1), 8 * 16);
    }
}
