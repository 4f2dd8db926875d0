//! The layer-graph IR.

use crate::param::{ParamId, ParamStore};
use bnn_rng::SoftRng;
use bnn_tensor::{conv_out_dim, Shape4, Tensor};

/// Identifier of a node within its graph (creation order).
pub type NodeId = usize;

/// Identifier of an MCD dropout site (creation order; site `i` guards
/// the input of the `i`-th weight layer, so "last `L` layers Bayesian"
/// activates sites `n_sites - L ..`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

/// Operations of the IR. Weight layers reference parameters by
/// [`ParamId`] inside the graph's [`ParamStore`].
#[derive(Debug, Clone)]
pub enum Op {
    /// Graph input placeholder.
    Input,
    /// 2-D convolution (NCHW, square kernel).
    Conv {
        /// Weight `[out_c, in_c, k, k]`.
        w: ParamId,
        /// Bias `[out_c]`.
        b: ParamId,
        /// Input channels.
        in_c: usize,
        /// Output channels (filters `F`).
        out_c: usize,
        /// Kernel size `K`.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Fully-connected layer.
    Linear {
        /// Weight `[out_f, in_f]`.
        w: ParamId,
        /// Bias `[out_f]`.
        b: ParamId,
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
    /// Batch normalization over channels.
    BatchNorm {
        /// Scale `γ` `[c]`.
        gamma: ParamId,
        /// Shift `β` `[c]`.
        beta: ParamId,
        /// Running mean `[c]` (non-trainable).
        mean: ParamId,
        /// Running variance `[c]` (non-trainable).
        var: ParamId,
        /// Channel count.
        channels: usize,
        /// Numerical-stability epsilon.
        eps: f32,
        /// Running-statistics momentum.
        momentum: f32,
    },
    /// Rectified linear unit.
    Relu,
    /// Max pooling.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to `1×1`.
    GlobalAvgPool,
    /// Flatten `(n,c,h,w)` to `(n, c·h·w, 1, 1)`.
    Flatten,
    /// Elementwise addition of two inputs (residual shortcut).
    Add,
    /// Monte Carlo Dropout site: channel-wise Bernoulli mask applied to
    /// the feature map when the site is active, identity otherwise.
    McdSite {
        /// Position of this site in weight-layer order.
        site: SiteId,
        /// Dropout probability the network was designed for.
        p: f32,
    },
}

/// A node: an operation plus its data dependencies.
#[derive(Debug, Clone)]
pub struct Node {
    /// Operation performed by this node.
    pub op: Op,
    /// Producer nodes (all with smaller ids — the graph is topologically
    /// ordered by construction).
    pub inputs: Vec<NodeId>,
    /// Human-readable name for traces and error messages.
    pub name: String,
}

/// A neural network: topologically-ordered nodes plus their parameters.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) params: ParamStore,
    pub(crate) input: NodeId,
    pub(crate) output: NodeId,
    pub(crate) n_sites: usize,
    name: String,
}

impl Graph {
    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The input node id.
    pub fn input_id(&self) -> NodeId {
        self.input
    }

    /// The output (logits) node id.
    pub fn output_id(&self) -> NodeId {
        self.output
    }

    /// Number of MCD sites (`N`, the paper's weight-layer count).
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Network name ("lenet5", "vgg11", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Immutable parameter store.
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable parameter store (optimizer, quantizer calibration).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// Infer the output shape of every node for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics with [`Graph::try_infer_shapes`]'s message if the input
    /// does not fit the graph.
    pub fn infer_shapes(&self, input: Shape4) -> Vec<Shape4> {
        self.try_infer_shapes(input)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Every node's output shape for `input` by [`out_shape`], or the
    /// first node that refuses it — the non-panicking form a server
    /// checks a request against before queueing it.
    pub fn try_infer_shapes(&self, input: Shape4) -> Result<Vec<Shape4>, String> {
        let mut shapes: Vec<Shape4> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let s = out_shape(node.op.geometry(), &node.name, input, |i| {
                shapes[node.inputs[i]]
            })?;
            shapes.push(s);
        }
        Ok(shapes)
    }

    /// Channel count seen by each MCD site for a given input shape
    /// (the mask length the Bernoulli sampler must produce).
    pub fn site_channels(&self, input: Shape4) -> Vec<usize> {
        let shapes = self.infer_shapes(input);
        let mut out = vec![0usize; self.n_sites];
        for (id, node) in self.nodes.iter().enumerate() {
            if let Op::McdSite { site, .. } = node.op {
                out[site.0] = shapes[id].c;
            }
        }
        out
    }

    /// Fold every BatchNorm node into its producing conv/linear layer
    /// and return the BN-free graph (weights rescaled per channel,
    /// biases shifted). This is the standard pre-quantization transform:
    /// the accelerator's FU BN stage then reduces to the per-channel
    /// requantization multipliers.
    ///
    /// # Panics
    ///
    /// Panics if a BatchNorm's producer is not a conv or linear layer
    /// (never the case for the models in this crate).
    pub fn fold_batch_norm(&self) -> Graph {
        let mut g = self.clone();
        // Map from old node id to new node id after BN removal.
        let mut remap: Vec<NodeId> = Vec::with_capacity(g.nodes.len());
        let mut new_nodes: Vec<Node> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if let Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                channels,
                eps,
                ..
            } = node.op
            {
                let src = node.inputs[0];
                let (w_id, b_id, per_out) = match self.nodes[src].op {
                    Op::Conv { w, b, out_c, .. } => (w, b, out_c),
                    Op::Linear { w, b, out_f, .. } => (w, b, out_f),
                    _ => panic!(
                        "{}: BatchNorm must follow a weight layer to fold",
                        node.name
                    ),
                };
                assert_eq!(per_out, channels, "{}: BN channel mismatch", node.name);
                let gm = g.params.get(gamma).as_slice().to_vec();
                let bt = g.params.get(beta).as_slice().to_vec();
                let mu = g.params.get(mean).as_slice().to_vec();
                let vr = g.params.get(var).as_slice().to_vec();
                let per_ch = g.params.get(w_id).len() / per_out;
                {
                    let w = g.params.get_mut(w_id);
                    for c in 0..per_out {
                        let s = gm[c] / (vr[c] + eps).sqrt();
                        for v in &mut w.as_mut_slice()[c * per_ch..(c + 1) * per_ch] {
                            *v *= s;
                        }
                    }
                }
                {
                    let b = g.params.get_mut(b_id);
                    for c in 0..per_out {
                        let s = gm[c] / (vr[c] + eps).sqrt();
                        let bv = &mut b.as_mut_slice()[c];
                        *bv = (*bv - mu[c]) * s + bt[c];
                    }
                }
                // The BN node disappears: alias it to its producer.
                remap.push(remap[src]);
            } else {
                let new_id = new_nodes.len();
                new_nodes.push(Node {
                    op: node.op.clone(),
                    inputs: node.inputs.iter().map(|&i| remap[i]).collect(),
                    name: node.name.clone(),
                });
                remap.push(new_id);
                let _ = id;
            }
        }
        Graph {
            nodes: new_nodes,
            params: g.params,
            input: remap[self.input],
            output: remap[self.output],
            n_sites: self.n_sites,
            name: format!("{}-bnfold", self.name),
        }
    }

    /// Total multiply-accumulate operations of one forward pass for a
    /// given input shape (batch treated as 1 regardless of `input.n`).
    pub fn macs(&self, input: Shape4) -> u64 {
        let shapes = self.infer_shapes(input.with_n(1));
        let mut macs = 0u64;
        for (id, node) in self.nodes.iter().enumerate() {
            match &node.op {
                Op::Conv { in_c, k, .. } => {
                    let so = shapes[id];
                    macs += (so.c * so.h * so.w * in_c * k * k) as u64;
                }
                Op::Linear { in_f, out_f, .. } => {
                    macs += (*in_f * *out_f) as u64;
                }
                _ => {}
            }
        }
        macs
    }
}

impl Op {
    /// The shape-relevant view of this op ([`out_shape`] reads it).
    pub(crate) fn geometry(&self) -> Geometry {
        match *self {
            Op::Input => Geometry::Input,
            Op::Conv {
                in_c,
                out_c,
                k,
                stride,
                pad,
                ..
            } => Geometry::Conv(in_c, out_c, k, stride, pad),
            Op::Linear { in_f, out_f, .. } => Geometry::Linear(in_f, out_f),
            Op::BatchNorm { channels, .. } => Geometry::BatchNorm(channels),
            Op::Relu | Op::McdSite { .. } => Geometry::Same,
            Op::MaxPool { k, stride } => Geometry::Pool(k, stride),
            Op::GlobalAvgPool => Geometry::GlobalAvgPool,
            Op::Flatten => Geometry::Flatten,
            Op::Add => Geometry::Add,
        }
    }
}

/// The shape-relevant view of one op: everything [`out_shape`] reads.
/// Both op enums project onto it (`Op::geometry`, and
/// `bnn_quant::QNodeOp::geometry` for the integer graph), so the f32
/// and the integer graph share one shape rule and refuse the same
/// inputs with the same message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// The graph input: its shape is the input shape.
    Input,
    /// 2-D convolution `(in_c, out_c, k, stride, pad)` (NCHW, square
    /// kernel).
    Conv(usize, usize, usize, usize, usize),
    /// Fully-connected layer `(in_f, out_f)`.
    Linear(usize, usize),
    /// Batch normalization over `channels`.
    BatchNorm(usize),
    /// Max pooling `(k, stride)`, no padding.
    Pool(usize, usize),
    /// Global average pooling to `1×1`.
    GlobalAvgPool,
    /// Flatten `(n,c,h,w)` to `(n, c·h·w, 1, 1)`.
    Flatten,
    /// Shape-preserving unary op (ReLU, MCD site).
    Same,
    /// Elementwise addition of two equally-shaped inputs.
    Add,
}

/// *The* output-shape rule: the output shape of node `name` with
/// `geometry`, given the graph input shape and its operands' shapes
/// (`operand(i)` is the shape of its `i`-th input), or
/// `"{name}: {failed check}"` — the message every substrate panics
/// with and a server refuses a request for. [`Graph::infer_shapes`],
/// the integer graph's `infer_shapes` and both walks' slot sizing all
/// call it.
pub fn out_shape(
    geometry: Geometry,
    name: &str,
    input: Shape4,
    operand: impl Fn(usize) -> Shape4,
) -> Result<Shape4, String> {
    // The input node's one operand is the graph input.
    let si = if geometry == Geometry::Input {
        input
    } else {
        operand(0)
    };
    let refuse = |check: &str| Err(format!("{name}: {check}"));
    // A sliding window (convolution or pooling) with `c` output channels.
    let window = |c, k, stride, pad| {
        if si.h + 2 * pad < k || si.w + 2 * pad < k {
            return refuse("kernel larger than padded input");
        }
        let (h, w) = (
            conv_out_dim(si.h, k, stride, pad),
            conv_out_dim(si.w, k, stride, pad),
        );
        Ok(Shape4::new(si.n, c, h, w))
    };
    match geometry {
        Geometry::Conv(in_c, ..) if si.c != in_c => refuse("channel mismatch"),
        Geometry::Conv(_, out_c, k, stride, pad) => window(out_c, k, stride, pad),
        Geometry::Linear(in_f, _) if si.item_len() != in_f => refuse("feature mismatch"),
        Geometry::Linear(_, out_f) => Ok(Shape4::vec(si.n, out_f)),
        Geometry::BatchNorm(channels) if si.c != channels => refuse("BN channel mismatch"),
        Geometry::Add if si != operand(1) => refuse("add shape mismatch"),
        Geometry::Input | Geometry::BatchNorm(_) | Geometry::Same | Geometry::Add => Ok(si),
        Geometry::Pool(k, stride) => window(si.c, k, stride, 0),
        Geometry::GlobalAvgPool => Ok(Shape4::new(si.n, si.c, 1, 1)),
        Geometry::Flatten => Ok(Shape4::vec(si.n, si.item_len())),
    }
}

/// Incremental graph constructor used by the model builders.
///
/// All `add_*` methods return the new node's id so residual branches
/// can reference any earlier tensor.
#[derive(Debug)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    params: ParamStore,
    input: NodeId,
    n_sites: usize,
    rng: SoftRng,
    name: String,
}

impl GraphBuilder {
    /// Start a graph; `seed` drives weight initialisation.
    pub fn new(name: &str, seed: u64) -> GraphBuilder {
        let nodes = vec![Node {
            op: Op::Input,
            inputs: vec![],
            name: "input".into(),
        }];
        GraphBuilder {
            nodes,
            params: ParamStore::new(),
            input: 0,
            n_sites: 0,
            rng: SoftRng::new(seed),
            name: name.to_string(),
        }
    }

    /// The input node id.
    pub fn input(&self) -> NodeId {
        self.input
    }

    fn push(&mut self, op: Op, inputs: Vec<NodeId>, name: String) -> NodeId {
        for &i in &inputs {
            assert!(i < self.nodes.len(), "input node {i} does not exist");
        }
        self.nodes.push(Node { op, inputs, name });
        self.nodes.len() - 1
    }

    /// Add an MCD site guarding the next weight layer's input.
    pub fn mcd(&mut self, x: NodeId, p: f32) -> NodeId {
        let site = SiteId(self.n_sites);
        self.n_sites += 1;
        self.push(Op::McdSite { site, p }, vec![x], format!("mcd{}", site.0))
    }

    /// Add a convolution (Kaiming-initialised).
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        x: NodeId,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let w =
            self.params
                .add_kaiming(Shape4::new(out_c, in_c, k, k), in_c * k * k, &mut self.rng);
        let b = self.params.add(Tensor::zeros(Shape4::vec(1, out_c)));
        let n = self.nodes.len();
        self.push(
            Op::Conv {
                w,
                b,
                in_c,
                out_c,
                k,
                stride,
                pad,
            },
            vec![x],
            format!("conv{n}_{in_c}x{out_c}k{k}s{stride}"),
        )
    }

    /// Add a linear layer (Kaiming-initialised).
    pub fn linear(&mut self, x: NodeId, in_f: usize, out_f: usize) -> NodeId {
        let w = self
            .params
            .add_kaiming(Shape4::new(out_f, in_f, 1, 1), in_f, &mut self.rng);
        let b = self.params.add(Tensor::zeros(Shape4::vec(1, out_f)));
        let n = self.nodes.len();
        self.push(
            Op::Linear { w, b, in_f, out_f },
            vec![x],
            format!("fc{n}_{in_f}x{out_f}"),
        )
    }

    /// Add a batch-normalization layer (γ=1, β=0, running stats 0/1).
    pub fn batch_norm(&mut self, x: NodeId, channels: usize) -> NodeId {
        let gamma = self.params.add(Tensor::full(Shape4::vec(1, channels), 1.0));
        let beta = self.params.add(Tensor::zeros(Shape4::vec(1, channels)));
        let mean = self
            .params
            .add_with_trainable(Tensor::zeros(Shape4::vec(1, channels)), false);
        let var = self
            .params
            .add_with_trainable(Tensor::full(Shape4::vec(1, channels), 1.0), false);
        let n = self.nodes.len();
        self.push(
            Op::BatchNorm {
                gamma,
                beta,
                mean,
                var,
                channels,
                eps: 1e-5,
                momentum: 0.1,
            },
            vec![x],
            format!("bn{n}"),
        )
    }

    /// Add a ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let n = self.nodes.len();
        self.push(Op::Relu, vec![x], format!("relu{n}"))
    }

    /// Add a max-pool.
    pub fn max_pool(&mut self, x: NodeId, k: usize, stride: usize) -> NodeId {
        let n = self.nodes.len();
        self.push(Op::MaxPool { k, stride }, vec![x], format!("maxpool{n}"))
    }

    /// Add a global average pool.
    pub fn global_avg_pool(&mut self, x: NodeId) -> NodeId {
        let n = self.nodes.len();
        self.push(Op::GlobalAvgPool, vec![x], format!("gap{n}"))
    }

    /// Add a flatten.
    pub fn flatten(&mut self, x: NodeId) -> NodeId {
        let n = self.nodes.len();
        self.push(Op::Flatten, vec![x], format!("flatten{n}"))
    }

    /// Add a residual addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.nodes.len();
        self.push(Op::Add, vec![a, b], format!("add{n}"))
    }

    /// Finish the graph with `output` as the logits node.
    ///
    /// # Panics
    ///
    /// Panics if `output` does not exist.
    pub fn finish(self, output: NodeId) -> Graph {
        assert!(output < self.nodes.len(), "output node does not exist");
        Graph {
            nodes: self.nodes,
            params: self.params,
            input: self.input,
            output,
            n_sites: self.n_sites,
            name: self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> Graph {
        // input -> mcd -> conv(1->2,k3,p1) -> bn -> relu -> gap -> flatten -> fc(2->3)
        let mut b = GraphBuilder::new("tiny", 1);
        let x = b.input();
        let m = b.mcd(x, 0.25);
        let c = b.conv(m, 1, 2, 3, 1, 1);
        let bn = b.batch_norm(c, 2);
        let r = b.relu(bn);
        let g = b.global_avg_pool(r);
        let f = b.flatten(g);
        let m2 = b.mcd(f, 0.25);
        let fc = b.linear(m2, 2, 3);
        b.finish(fc)
    }

    #[test]
    fn shapes_inferred() {
        let g = tiny_graph();
        let shapes = g.infer_shapes(Shape4::new(4, 1, 8, 8));
        assert_eq!(shapes[g.output_id()], Shape4::vec(4, 3));
        assert_eq!(g.n_sites(), 2);
    }

    #[test]
    fn site_channels_reported() {
        let g = tiny_graph();
        let ch = g.site_channels(Shape4::new(1, 1, 8, 8));
        assert_eq!(ch, vec![1, 2]);
    }

    #[test]
    fn macs_counted() {
        let g = tiny_graph();
        // conv: 2*8*8*1*9 = 1152; fc: 2*3 = 6.
        assert_eq!(g.macs(Shape4::new(1, 1, 8, 8)), 1152 + 6);
    }

    #[test]
    fn residual_add_shapes() {
        let mut b = GraphBuilder::new("res", 2);
        let x = b.input();
        let c1 = b.conv(x, 3, 3, 3, 1, 1);
        let a = b.add(c1, x);
        let g = b.finish(a);
        let shapes = g.infer_shapes(Shape4::new(1, 3, 4, 4));
        assert_eq!(shapes[a], Shape4::new(1, 3, 4, 4));
    }

    #[test]
    #[should_panic(expected = "add shape mismatch")]
    fn mismatched_add_panics() {
        let mut b = GraphBuilder::new("bad", 3);
        let x = b.input();
        let c1 = b.conv(x, 3, 5, 3, 1, 1); // 5 channels
        let a = b.add(c1, x); // 3 channels -> mismatch
        let g = b.finish(a);
        let _ = g.infer_shapes(Shape4::new(1, 3, 4, 4));
    }

    #[test]
    fn param_count_tracks_layers() {
        let g = tiny_graph();
        // conv w+b, bn gamma/beta/mean/var, fc w+b = 8 tensors.
        assert_eq!(g.params().len(), 8);
    }

    #[test]
    fn bn_folding_preserves_eval_forward() {
        use crate::exec::MaskSet;
        // Train-ish running stats so BN is non-trivial, then fold.
        let mut g = tiny_graph();
        {
            use crate::param::ParamId;
            // BN params are ids 2..6 (conv w, b, gamma, beta, mean, var).
            let gm = g.params_mut().get_mut(ParamId(2));
            gm.as_mut_slice().copy_from_slice(&[1.5, 0.7]);
            let bt = g.params_mut().get_mut(ParamId(3));
            bt.as_mut_slice().copy_from_slice(&[0.3, -0.2]);
            let mu = g.params_mut().get_mut(ParamId(4));
            mu.as_mut_slice().copy_from_slice(&[0.1, -0.4]);
            let vr = g.params_mut().get_mut(ParamId(5));
            vr.as_mut_slice().copy_from_slice(&[0.9, 1.7]);
        }
        let folded = g.fold_batch_norm();
        assert_eq!(folded.nodes().len(), g.nodes().len() - 1, "one BN removed");
        let x = Tensor::from_vec(
            Shape4::new(2, 1, 8, 8),
            (0..128).map(|i| (i as f32 / 40.0) - 1.5).collect(),
        );
        let ya = g.forward(&x, &MaskSet::none());
        let yb = folded.forward(&x, &MaskSet::none());
        assert!(
            ya.max_abs_diff(&yb) < 1e-4,
            "folding must preserve the function"
        );
    }

    #[test]
    fn bn_folding_keeps_sites_and_shapes() {
        let g = tiny_graph();
        let folded = g.fold_batch_norm();
        assert_eq!(folded.n_sites(), g.n_sites());
        let shapes = folded.infer_shapes(Shape4::new(1, 1, 8, 8));
        assert_eq!(shapes[folded.output_id()], Shape4::vec(1, 3));
    }
}
