//! Forward and backward execution of a [`Graph`] in f32.

use crate::graph::{out_shape, Graph, Node, NodeId, Op};
use crate::param::ParamStore;
use bnn_rng::SoftRng;
use bnn_tensor::{
    add_inplace, col2im, gemm, gemm_at, gemm_bt, gemm_rows, global_avg_pool_into, im2col, max_pool,
    max_pool_backward, max_pool_into, pad_phases_into, relu_inplace, Shape4, Tensor,
};

/// A channel-wise dropout mask: `keep[c]` keeps channel `c` (scaled by
/// `scale = 1/(1-p)`), otherwise the channel is zeroed.
#[derive(Debug, Clone, PartialEq)]
pub struct Mask {
    /// Keep decision per channel.
    pub keep: Vec<bool>,
    /// Rescale factor applied to kept channels.
    pub scale: f32,
}

/// The masks supplied to one forward pass, indexed by MCD site.
///
/// `None` at a site means the site is inactive (identity), which is how
/// partial Bayesian inference deactivates the first `N - L` sites.
#[derive(Debug, Clone, Default)]
pub struct MaskSet {
    masks: Vec<Option<Mask>>,
}

impl MaskSet {
    /// No active sites — the standard (deterministic) network.
    pub fn none() -> MaskSet {
        MaskSet { masks: Vec::new() }
    }

    /// Build from per-site masks (index = site id).
    pub fn from_masks(masks: Vec<Option<Mask>>) -> MaskSet {
        MaskSet { masks }
    }

    /// Draw masks for the active sites from an arbitrary keep-bit
    /// source: `keep_bits(len)` returns one site's keep vector.
    ///
    /// This is the *only* place that maps `active`/`channels` to a
    /// [`MaskSet`] — the software PRNG source, the hardware LFSR
    /// source and the accelerator simulator all route through it, so
    /// no two mask producers can disagree on which sites are Bayesian
    /// or on the `1/(1-p)` rescale of the kept channels.
    ///
    /// # Panics
    ///
    /// Panics if `active` and `channels` have different lengths, or if
    /// `p` is outside `[0, 1)` (at `p = 1` the kept-channel rescale
    /// `1/(1-p)` is infinite and dropout degenerates to zeroing the
    /// whole feature map).
    pub fn draw(
        active: &[bool],
        channels: &[usize],
        p: f32,
        mut keep_bits: impl FnMut(usize) -> Vec<bool>,
    ) -> MaskSet {
        assert_eq!(
            active.len(),
            channels.len(),
            "active/channels length mismatch"
        );
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1), got {p}"
        );
        let scale = 1.0 / (1.0 - p);
        let masks = active
            .iter()
            .zip(channels)
            .map(|(&on, &c)| {
                on.then(|| Mask {
                    keep: keep_bits(c),
                    scale,
                })
            })
            .collect();
        MaskSet { masks }
    }

    /// Sample software Bernoulli masks for the active sites.
    ///
    /// `active[i]` enables site `i`; `channels[i]` is the mask length
    /// (from [`Graph::site_channels`]); `p` is the drop probability.
    /// Keep bits come from [`SoftRng::keep_many`]: the negated
    /// [`SoftRng::bernoulli_many`] drop draws of the same stream,
    /// eight per word for `p = k/256`.
    pub fn sample_software(
        active: &[bool],
        channels: &[usize],
        p: f32,
        rng: &mut SoftRng,
    ) -> MaskSet {
        MaskSet::draw(active, channels, p, |c| rng.keep_many(f64::from(p), c))
    }

    /// Mask at `site`, if the site is active.
    pub fn get(&self, site: usize) -> Option<&Mask> {
        self.masks.get(site).and_then(|m| m.as_ref())
    }

    /// Number of sites covered (sites beyond this are inactive).
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether no site is covered.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }
}

/// Per-node data cached by a training forward pass.
#[derive(Debug, Clone)]
enum Aux {
    None,
    MaxPool(Vec<u32>),
    Bn {
        xhat: Tensor,
        inv_std: Vec<f32>,
        /// Batch statistics, folded into the running ones after the
        /// walk.
        mean: Vec<f32>,
        var: Vec<f32>,
    },
}

/// Cached node outputs of a forward pass. Only a
/// [`Graph::forward_train`] pass also records the tape
/// [`Graph::backward`] consumes.
#[derive(Debug, Clone)]
pub struct Activations {
    outs: Vec<Tensor>,
    aux: Vec<Aux>,
}

impl Activations {
    /// Output tensor of a node.
    pub fn output(&self, node: usize) -> &Tensor {
        &self.outs[node]
    }

    /// The logits (output of the last node executed).
    pub fn logits(&self, graph: &Graph) -> &Tensor {
        &self.outs[graph.output_id()]
    }
}

/// Apply one channel mask to every batch item in place.
fn apply_mask(x: &mut Tensor, mask: &Mask, name: &str) {
    let s = x.shape();
    assert_eq!(mask.keep.len(), s.c, "{name}: mask length != channels");
    let plane = s.h * s.w;
    for n in 0..s.n {
        let item = x.item_mut(n);
        for (c, &keep) in mask.keep.iter().enumerate() {
            let sl = &mut item[c * plane..(c + 1) * plane];
            if keep {
                for v in sl {
                    *v *= mask.scale;
                }
            } else {
                sl.fill(0.0);
            }
        }
    }
}

/// Copy an item range of `src` into `out` with the channel mask folded
/// into the copy: kept channels are written as `v · scale`, dropped
/// channels as `0.0` — element for element the same values the
/// copy-then-[`apply_mask`] pair produces, in a single pass.
///
/// For flat feature maps (`plane == 1`, the fully-connected case) the
/// per-channel work is one element, so the mask is applied as a
/// branch-free bit-mask multiply: `keep` expands to an all-ones or
/// all-zeros bit mask, the masked value is exactly `v` or `+0.0`, and
/// the `· scale` multiply then reproduces the copy-then-apply values
/// bit for bit (`+0.0 · scale = +0.0`). Random keep bits make the
/// branchy per-channel formulation mispredict-bound, which is
/// otherwise the dominant per-sample cost of an FC Bayesian suffix.
fn masked_copy_items(
    src: &Tensor,
    out: &mut Tensor,
    mask: &Mask,
    items: std::ops::Range<usize>,
    name: &str,
) {
    let s = out.shape();
    assert_eq!(mask.keep.len(), s.c, "{name}: mask length != channels");
    let plane = s.h * s.w;
    if plane == 1 {
        for n in items {
            let sl = &src.as_slice()[n * s.c..(n + 1) * s.c];
            let dst = out.item_mut(n);
            for ((d, &v), &keep) in dst.iter_mut().zip(sl).zip(&mask.keep) {
                let bits = (keep as u32).wrapping_neg();
                *d = f32::from_bits(v.to_bits() & bits) * mask.scale;
            }
        }
    } else {
        for n in items {
            let sl = src.item(n);
            let dst = out.item_mut(n);
            for (c, &keep) in mask.keep.iter().enumerate() {
                let r = c * plane..(c + 1) * plane;
                if keep {
                    for (d, &v) in dst[r.clone()].iter_mut().zip(&sl[r]) {
                        *d = v * mask.scale;
                    }
                } else {
                    dst[r].fill(0.0);
                }
            }
        }
    }
}

/// *The* convolution, one [`gemm_rows`] per item with no im2col: the
/// item's input is written zero-padded into `stride²` phase planes
/// ([`pad_phases_into`]), where every row `(c, ky, kx)` of the column
/// matrix is one contiguous run, so a tap offset stands in for it.
/// The GEMM computes the "wide" output grid, `Wq` columns per output
/// row of which the first `Wo` are real, and the gather drops the
/// wrap columns and adds the bias. Planes and the staged product are
/// the two halves of `work`, grown on demand and never shrunk.
///
/// The values are those of im2col + [`bnn_tensor::gemm`]: an
/// element's accumulation sequence depends only on its filter row and
/// the depth panels, never on its column or where its `B` row is
/// stored (the [`bnn_tensor::gemm`] contract). So a batch item, a
/// Monte Carlo sample of a fused suffix and a whole small batch get
/// the same bytes from one code path.
#[allow(clippy::too_many_arguments)]
fn conv_forward_into(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    k: usize,
    s: usize,
    pad: usize,
    y: &mut Tensor,
    work: &mut Vec<f32>,
) {
    let (si, so) = (x.shape(), y.shape());
    let (hq, wq) = ((si.h + 2 * pad).div_ceil(s), (si.w + 2 * pad).div_ceil(s));
    let (f, plane, howo) = (so.c, hq * wq, so.h * so.w);
    let wide = (so.h - 1) * wq + so.w;
    let planes_len = si.c * s * s * plane;
    if work.len() < planes_len + f * wide {
        work.resize(planes_len + f * wide, 0.0);
    }
    let (planes, stage) = work.split_at_mut(planes_len);
    let stage = &mut stage[..f * wide];
    let tap = |p: usize| {
        let (c, ky, kx) = (p / (k * k), p / k % k, p % k);
        ((c * s + ky % s) * s + kx % s) * plane + ky / s * wq + kx / s
    };
    for n in 0..si.n {
        pad_phases_into(x.item(n), si.c, si.h, si.w, s, pad, planes);
        stage.fill(0.0);
        gemm_rows(f, si.c * k * k, wide, w.as_slice(), planes, tap, stage);
        let yi = y.item_mut(n);
        for ((dst, src), &bv) in yi
            .chunks_exact_mut(howo)
            .zip(stage.chunks_exact(wide))
            .zip(b.as_slice())
        {
            for (d, sr) in dst.chunks_exact_mut(so.w).zip(src.chunks(wq)) {
                for (d, &v) in d.iter_mut().zip(sr) {
                    *d = v + bv;
                }
            }
        }
    }
}

/// *The* fully-connected forward, into a preallocated output: one
/// [`gemm_bt`] over every row of the batch, so the weight matrix
/// streams once however many items or stacked Monte Carlo samples the
/// rows are. Each output is a dot product along the shared dimension
/// only, hence bit-identical at any row grouping.
fn linear_forward_into(x: &Tensor, w: &Tensor, b: &Tensor, y: &mut Tensor) {
    let si = x.shape();
    let in_f = si.item_len();
    let out_f = y.shape().item_len();
    y.as_mut_slice().fill(0.0);
    gemm_bt(
        si.n,
        in_f,
        out_f,
        x.as_slice(),
        w.as_slice(),
        y.as_mut_slice(),
    );
    for n in 0..si.n {
        add_inplace(y.item_mut(n), b.as_slice());
    }
}

/// Per-channel batch statistics over (N, H, W).
fn bn_batch_stats(x: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let s = x.shape();
    let plane = s.h * s.w;
    let m = (s.n * plane) as f64;
    let mut mean = vec![0f64; s.c];
    let mut var = vec![0f64; s.c];
    for n in 0..s.n {
        let item = x.item(n);
        for c in 0..s.c {
            for &v in &item[c * plane..(c + 1) * plane] {
                mean[c] += f64::from(v);
            }
        }
    }
    for mc in &mut mean {
        *mc /= m;
    }
    for n in 0..s.n {
        let item = x.item(n);
        for c in 0..s.c {
            for &v in &item[c * plane..(c + 1) * plane] {
                let d = f64::from(v) - mean[c];
                var[c] += d * d;
            }
        }
    }
    for vc in &mut var {
        *vc /= m;
    }
    (
        mean.into_iter().map(|v| v as f32).collect(),
        var.into_iter().map(|v| v as f32).collect(),
    )
}

/// Training-mode batch norm (batch statistics) into a preallocated
/// output; returns the `(xhat, inv_std)` cache [`Graph::backward`]
/// reads.
fn bn_apply_train_into(
    x: &Tensor,
    mean: &[f32],
    var: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut Tensor,
) -> (Tensor, Vec<f32>) {
    let s = x.shape();
    let plane = s.h * s.w;
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let mut xhat = Tensor::zeros(s);
    for n in 0..s.n {
        let xi = x.item(n);
        let range = n * s.item_len()..(n + 1) * s.item_len();
        let xh = &mut xhat.as_mut_slice()[range.clone()];
        let yo = &mut y.as_mut_slice()[range];
        for c in 0..s.c {
            let (g, b, mu, is) = (gamma[c], beta[c], mean[c], inv_std[c]);
            for i in c * plane..(c + 1) * plane {
                let h = (xi[i] - mu) * is;
                xh[i] = h;
                yo[i] = g * h + b;
            }
        }
    }
    (xhat, inv_std)
}

/// Evaluation-mode batch norm (running statistics) into a
/// preallocated output; no `xhat` cache is produced.
fn bn_apply_eval_into(
    x: &Tensor,
    mean: &[f32],
    var: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut Tensor,
) {
    let s = x.shape();
    assert_eq!(y.shape(), s, "bn eval: output shape mismatch");
    let plane = s.h * s.w;
    let item_len = s.item_len();
    let (xs, ys) = (x.as_slice(), y.as_mut_slice());
    for n in 0..s.n {
        let xi = &xs[n * item_len..(n + 1) * item_len];
        let yo = &mut ys[n * item_len..(n + 1) * item_len];
        for c in 0..s.c {
            let inv_std = 1.0 / (var[c] + eps).sqrt();
            let (g, b, mu) = (gamma[c], beta[c], mean[c]);
            let range = c * plane..(c + 1) * plane;
            for (yv, &xv) in yo[range.clone()].iter_mut().zip(&xi[range]) {
                *yv = g * (xv - mu) * inv_std + b;
            }
        }
    }
}

/// Reusable workspace of the suffix walk ([`Graph::forward_from_with`],
/// [`Graph::forward_from_stacked`]): one output tensor per node after
/// the suffix boundary, holding `samples · n` stacked batch items,
/// plus the convolution workspace and the replicated prefix outputs a
/// stacked suffix reads. Buffers are sized by the first walk and
/// reused afterwards, so suffix re-runs allocate nothing.
///
/// Built by [`Graph::scratch_after`] (`samples = 1`) or
/// [`Graph::stacked_scratch_after`] for one `(input shape, suffix
/// boundary, sample count)`; running anything else through it panics.
#[derive(Debug, Clone)]
pub struct ExecScratch {
    /// Node outputs; slots `<= from` stay empty (those nodes are read
    /// from the prefix, never executed).
    outs: Vec<Tensor>,
    /// Convolution workspace: one item's padded phase planes and
    /// staged GEMM output.
    work: Vec<f32>,
    /// The prefix nodes the suffix reads across the boundary (the
    /// Bayesian-site input, plus any residual shortcut), each with its
    /// output replicated `samples` times. Refreshed by every stacked
    /// walk, so a scratch may move between prefixes.
    crossing: Vec<(NodeId, Tensor)>,
    input: Shape4,
    from: NodeId,
    samples: usize,
}

impl ExecScratch {
    /// The identity (no convolution spawns a thread), kept only because
    /// `benchmark/`, which engine PRs may not edit, still calls it.
    pub fn serial_conv(self) -> ExecScratch {
        self
    }

    /// Whether this scratch was built for `(input shape, suffix
    /// boundary, sample count)` — what a resident scratch is checked
    /// against before reuse.
    pub fn built_for(&self, input: Shape4, from: NodeId, samples: usize) -> bool {
        (self.input, self.from, self.samples) == (input, from, samples)
    }
}

/// An unsized output slot; the walk sizes it on first use.
fn empty_slot() -> Tensor {
    Tensor::zeros(Shape4::vec(0, 0))
}

/// Replicate a whole batch `samples` times along the item axis into
/// `out` (sample-major: sample `s` owns items `s·n .. (s+1)·n`).
fn stack_items_into(t: &Tensor, samples: usize, out: &mut Tensor) {
    let shape = t.shape().with_n(samples * t.shape().n);
    if out.shape() != shape {
        *out = Tensor::zeros(shape);
    }
    if !t.is_empty() {
        for block in out.as_mut_slice().chunks_exact_mut(t.len()) {
            block.copy_from_slice(t.as_slice());
        }
    }
}

/// Execute one node into a preallocated output — the one forward-side
/// op match, shared by every pass.
///
/// `get` resolves predecessor outputs; `input` backs the `Op::Input`
/// node; `work` is the shared convolution workspace.
///
/// `masks` holds one set per Monte Carlo sample stacked along the
/// batch axis: at an MCD site each mask is applied to its sample's
/// item group. Every other op — the one convolution and the one
/// fully-connected kernel included — sees a batch of items and does
/// not care which sample an item belongs to.
///
/// A `tape` slot makes this a training pass: BN normalizes by batch
/// statistics and max-pool keeps its argmax, both recorded for
/// [`Graph::backward`].
#[allow(clippy::too_many_arguments)]
fn eval_node_into<'a>(
    node: &Node,
    params: &ParamStore,
    get: impl Fn(NodeId) -> &'a Tensor,
    input: &Tensor,
    masks: &[MaskSet],
    out: &mut Tensor,
    work: &mut Vec<f32>,
    tape: Option<&mut Aux>,
) {
    match &node.op {
        Op::Input => out.as_mut_slice().copy_from_slice(input.as_slice()),
        Op::Conv {
            w,
            b,
            k,
            stride,
            pad,
            ..
        } => {
            let (x, w, b) = (get(node.inputs[0]), params.get(*w), params.get(*b));
            conv_forward_into(x, w, b, *k, *stride, *pad, out, work);
        }
        Op::Linear { w, b, .. } => {
            let (x, w, b) = (get(node.inputs[0]), params.get(*w), params.get(*b));
            linear_forward_into(x, w, b, out);
        }
        Op::BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
            ..
        } => {
            let x = get(node.inputs[0]);
            let (gamma, beta) = (params.get(*gamma).as_slice(), params.get(*beta).as_slice());
            match tape {
                Some(aux) => {
                    let (mean, var) = bn_batch_stats(x);
                    let (xhat, inv_std) =
                        bn_apply_train_into(x, &mean, &var, gamma, beta, *eps, out);
                    *aux = Aux::Bn {
                        xhat,
                        inv_std,
                        mean,
                        var,
                    };
                }
                None => {
                    let (mean, var) = (params.get(*mean).as_slice(), params.get(*var).as_slice());
                    bn_apply_eval_into(x, mean, var, gamma, beta, *eps, out);
                }
            }
        }
        Op::Relu => {
            out.as_mut_slice()
                .copy_from_slice(get(node.inputs[0]).as_slice());
            relu_inplace(out.as_mut_slice());
        }
        Op::MaxPool { k, stride } => match tape {
            Some(aux) => {
                let (y, arg) = max_pool(get(node.inputs[0]), *k, *stride);
                *out = y;
                *aux = Aux::MaxPool(arg);
            }
            None => max_pool_into(get(node.inputs[0]), *k, *stride, out),
        },
        Op::GlobalAvgPool => global_avg_pool_into(get(node.inputs[0]), out),
        Op::Flatten => {
            // NCHW flatten is a relabeling; the buffer layout is identical.
            out.as_mut_slice()
                .copy_from_slice(get(node.inputs[0]).as_slice());
        }
        Op::Add => {
            out.as_mut_slice()
                .copy_from_slice(get(node.inputs[0]).as_slice());
            add_inplace(out.as_mut_slice(), get(node.inputs[1]).as_slice());
        }
        Op::McdSite { site, .. } => {
            let src = get(node.inputs[0]);
            let base = src.shape().n / masks.len();
            let item_len = src.shape().item_len();
            for (si, ms) in masks.iter().enumerate() {
                let items = si * base..(si + 1) * base;
                match ms.get(site.0) {
                    // Mask folded into the copy: one pass per sample
                    // group, same values as copy-then-apply.
                    Some(mask) => masked_copy_items(src, out, mask, items, &node.name),
                    None => {
                        let span = items.start * item_len..items.end * item_len;
                        out.as_mut_slice()[span.clone()].copy_from_slice(&src.as_slice()[span]);
                    }
                }
            }
        }
    }
}

impl Graph {
    /// *The* forward walk: execute nodes `range` in order, each through
    /// [`eval_node_into`] into its slot of `outs` (sized here on first
    /// use or shape change), reading predecessors below the range from
    /// `below`. Every public pass is a projection of this.
    #[allow(clippy::too_many_arguments)]
    fn walk<'a>(
        &self,
        range: std::ops::RangeInclusive<NodeId>,
        input: &Tensor,
        below: impl Fn(NodeId) -> &'a Tensor,
        outs: &mut [Tensor],
        masks: &[MaskSet],
        work: &mut Vec<f32>,
        mut tape: Option<&mut [Aux]>,
    ) {
        let lo = *range.start();
        for id in range {
            let node = &self.nodes[id];
            let (done, rest) = outs.split_at_mut(id);
            let get = |j: NodeId| if j < lo { below(j) } else { &done[j] };
            let shape = out_shape(node.op.geometry(), &node.name, input.shape(), |i| {
                get(node.inputs[i]).shape()
            })
            .unwrap_or_else(|e| panic!("{e}"));
            if rest[0].shape() != shape {
                rest[0] = Tensor::zeros(shape);
            }
            let aux = tape.as_deref_mut().map(|tape| &mut tape[id]);
            eval_node_into(
                node,
                &self.params,
                get,
                input,
                masks,
                &mut rest[0],
                work,
                aux,
            );
        }
    }

    /// Evaluation-mode forward pass (BN uses running statistics).
    ///
    /// Supplying masks makes the active MCD sites stochastic — this is
    /// exactly "MCD at test time". With [`MaskSet::none`] the network
    /// is the deterministic standard NN.
    pub fn forward(&self, input: &Tensor, masks: &MaskSet) -> Tensor {
        self.forward_prefix_with(input, self.output, masks, None, &mut Vec::new())
            .outs
            .swap_remove(self.output)
    }

    /// Evaluation-mode forward pass that keeps every node's output.
    ///
    /// Used by executor cross-checks. Repeated passes (quantizer
    /// calibration) and hot serving loops that only need the outputs
    /// up to a suffix boundary should prefer
    /// [`Graph::forward_prefix_with`], which stops at the boundary and
    /// reuses a previous cache's buffers.
    /// Like that cache, the result keeps no backward auxiliaries:
    /// [`Graph::backward`] on it panics ("not a training pass").
    pub fn forward_full(&self, input: &Tensor, masks: &MaskSet) -> Activations {
        self.forward_prefix_with(input, self.nodes.len() - 1, masks, None, &mut Vec::new())
    }

    /// Evaluation-mode pass over the deterministic prefix only: nodes
    /// `0..=upto` are executed and returned as an [`Activations`]
    /// whose later slots are empty placeholders. Computed outputs are
    /// bit-identical to [`Graph::forward_full`]'s for every node
    /// `<= upto`, which is exactly the region
    /// [`Graph::forward_from_with`] / [`Graph::forward_from_stacked`]
    /// read when resuming from `upto` — so a per-call `prepare` pays
    /// for the prefix instead of the whole network.
    ///
    /// Passing a previously returned cache back through `reuse` (and
    /// keeping `cols`, the shared convolution workspace, across calls)
    /// re-executes into the existing buffers: once warm, the prefix
    /// pass allocates nothing. The returned cache keeps no backward
    /// auxiliaries: [`Graph::backward`] on it panics ("not a training
    /// pass") at the first BN or max-pool node.
    ///
    /// # Panics
    ///
    /// Panics if `upto` is not a node of this graph, or if `reuse`
    /// came from a different graph.
    pub fn forward_prefix_with(
        &self,
        input: &Tensor,
        upto: NodeId,
        masks: &MaskSet,
        reuse: Option<Activations>,
        cols: &mut Vec<f32>,
    ) -> Activations {
        assert!(upto < self.nodes.len(), "prefix node {upto} does not exist");
        let mut acts = reuse.unwrap_or_else(|| self.empty_activations());
        assert_eq!(
            acts.outs.len(),
            self.nodes.len(),
            "prefix cache built for a different graph"
        );
        // A recycled training tape must not outlive its outputs.
        acts.aux.fill(Aux::None);
        self.walk(
            0..=upto,
            input,
            |_| unreachable!("nothing precedes node 0"),
            &mut acts.outs,
            std::slice::from_ref(masks),
            cols,
            None,
        );
        acts
    }

    fn empty_activations(&self) -> Activations {
        Activations {
            outs: self.nodes.iter().map(|_| empty_slot()).collect(),
            aux: vec![Aux::None; self.nodes.len()],
        }
    }

    /// Scratch for per-sample suffix re-runs resuming after node
    /// `from` (the [`Graph::forward_from_with`] hot path).
    pub fn scratch_after(&self, input: Shape4, from: NodeId) -> ExecScratch {
        self.stacked_scratch_after(input, from, 1)
    }

    /// Scratch for [`Graph::forward_from_stacked`] walks of `samples`
    /// mask sets over the suffix after node `from`.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn stacked_scratch_after(
        &self,
        input: Shape4,
        from: NodeId,
        samples: usize,
    ) -> ExecScratch {
        assert!(samples > 0, "at least one stacked sample required");
        let mut crossing: Vec<NodeId> = self
            .nodes
            .iter()
            .skip(from + 1)
            .flat_map(|node| node.inputs.iter().copied())
            .filter(|&j| j <= from)
            .collect();
        crossing.sort_unstable();
        crossing.dedup();
        ExecScratch {
            outs: self.nodes.iter().map(|_| empty_slot()).collect(),
            work: Vec::new(),
            crossing: crossing.into_iter().map(|j| (j, empty_slot())).collect(),
            input,
            from,
            samples,
        }
    }

    /// Resume an evaluation-mode pass from node `from` (exclusive) for
    /// one Monte Carlo sample, reusing `prefix` outputs for all nodes
    /// `<= from`: [`Graph::forward_from_stacked`] with one mask set —
    /// one sample per walk, through the same kernels.
    ///
    /// This is the software analogue of the paper's intermediate-layer
    /// caching: the deterministic prefix is computed once and the
    /// Bayesian suffix re-runs per Monte Carlo sample.
    ///
    /// # Panics
    ///
    /// As [`Graph::forward_from_stacked`].
    pub fn forward_from_with(
        &self,
        prefix: &Activations,
        from: NodeId,
        masks: &MaskSet,
        scratch: &mut ExecScratch,
    ) -> Tensor {
        self.forward_from_stacked(prefix, from, std::slice::from_ref(masks), scratch)
    }

    /// The batched-sample fusion walk: resume from node `from`
    /// (exclusive) *once* for all `masks.len()` Monte Carlo samples,
    /// returning the sample-stacked logits `(samples · n, k)` with
    /// sample `s` owning rows `s·n .. (s+1)·n`. Only nodes `> from`
    /// are executed, into `scratch`; a prefix that already reaches
    /// the output node (no Bayesian suffix) is returned replicated.
    ///
    /// This is the software analogue of the paper's weight-streaming
    /// dataflow: where one walk per sample re-streams every suffix
    /// weight matrix once per sample, this walk stacks the samples'
    /// activations along the batch axis, so a fully-connected layer is
    /// one row-stacked GEMM (its weights stream once per layer) and a
    /// convolution runs one [`gemm_rows`] per stacked item on its
    /// zero-padded input — its weights read from memory once per layer
    /// and cache-resident between items, which is why the modelled
    /// `weight_stream_bytes` counts them once.
    /// Per-sample dropout masks are applied to each sample's item
    /// group, and the kernels give every element the same f32 operation
    /// sequence however many items share a walk, so the stacked logits
    /// are *bit-identical* to `masks.len()` independent
    /// [`Graph::forward_from_with`] calls (at any sub-chunking of the
    /// sample list).
    ///
    /// # Panics
    ///
    /// Panics if `masks` is empty, if `prefix` does not cover node
    /// `from`, or if `scratch` was built for a different graph, input
    /// shape, suffix boundary or sample count.
    pub fn forward_from_stacked(
        &self,
        prefix: &Activations,
        from: NodeId,
        masks: &[MaskSet],
        scratch: &mut ExecScratch,
    ) -> Tensor {
        let samples = masks.len();
        assert!(samples > 0, "at least one sample required");
        assert!(
            prefix.outs.len() > from,
            "prefix does not cover node {from}"
        );
        let input = &prefix.outs[self.input];
        assert!(
            scratch.outs.len() == self.nodes.len()
                && scratch.built_for(input.shape(), from, samples),
            "scratch built for a different graph, input shape, suffix boundary or sample count"
        );
        if self.output <= from {
            let mut logits = empty_slot();
            stack_items_into(&prefix.outs[self.output], samples, &mut logits);
            return logits;
        }
        let ExecScratch {
            outs,
            work,
            crossing,
            ..
        } = scratch;
        if samples > 1 {
            for (j, replica) in crossing.iter_mut() {
                stack_items_into(&prefix.outs[*j], samples, replica);
            }
        }
        let crossing = &*crossing;
        let below = |j: NodeId| match crossing.iter().find(|(id, _)| *id == j) {
            Some((_, replica)) if samples > 1 => replica,
            _ => &prefix.outs[j],
        };
        self.walk(
            from + 1..=self.output,
            input,
            below,
            outs,
            masks,
            work,
            None,
        );
        outs[self.output].clone()
    }

    /// Training-mode forward pass: BN uses batch statistics and updates
    /// running ones; every intermediate needed by [`Graph::backward`]
    /// is cached.
    pub fn forward_train(&mut self, input: &Tensor, masks: &MaskSet) -> Activations {
        let mut acts = self.empty_activations();
        self.walk(
            0..=self.nodes.len() - 1,
            input,
            |_| unreachable!("nothing precedes node 0"),
            &mut acts.outs,
            std::slice::from_ref(masks),
            &mut Vec::new(),
            Some(&mut acts.aux),
        );
        // Fold the batch statistics the walk recorded into the running
        // ones (training-mode BN never reads those, so doing it after
        // the walk changes nothing).
        for (node, aux) in self.nodes.iter().zip(&acts.aux) {
            if let (
                Op::BatchNorm {
                    mean,
                    var,
                    momentum,
                    ..
                },
                Aux::Bn {
                    mean: batch_mean,
                    var: batch_var,
                    ..
                },
            ) = (&node.op, aux)
            {
                for (running, batch) in [(*mean, batch_mean), (*var, batch_var)] {
                    let running = self.params.get_mut(running).as_mut_slice();
                    for (r, &v) in running.iter_mut().zip(batch) {
                        *r = (1.0 - momentum) * *r + momentum * v;
                    }
                }
            }
        }
        acts
    }

    /// Backward pass: accumulates parameter gradients into the store.
    ///
    /// `dlogits` is the gradient of the loss w.r.t. the logits
    /// (from [`crate::cross_entropy`]).
    ///
    /// # Panics
    ///
    /// Panics ("not a training pass", naming the node) if `acts` was
    /// not produced by a matching [`Graph::forward_train`] call.
    pub fn backward(&mut self, acts: &Activations, masks: &MaskSet, dlogits: Tensor) {
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[self.output] = Some(dlogits);
        for id in (0..self.nodes.len()).rev() {
            let Some(g) = grads[id].take() else { continue };
            let node = &self.nodes[id];
            match &node.op {
                Op::Input => {}
                Op::Conv {
                    w,
                    b,
                    k,
                    stride,
                    pad,
                    in_c,
                    ..
                } => {
                    let (w, b, k, stride, pad, in_c) = (*w, *b, *k, *stride, *pad, *in_c);
                    let xid = node.inputs[0];
                    let x = &acts.outs[xid];
                    let si = x.shape();
                    let so = g.shape();
                    let (f, ckk, howo) = (so.c, in_c * k * k, so.h * so.w);
                    let mut dx = Tensor::zeros(si);
                    {
                        let wt = self.params.get(w).as_slice().to_vec();
                        let dw = self.params.grad_mut(w);
                        for n in 0..si.n {
                            let cols = im2col(x.item(n), si.c, si.h, si.w, k, stride, pad);
                            // dW += dY · colsᵀ  (cols stored [ckk, howo])
                            gemm_bt(f, howo, ckk, g.item(n), &cols, dw.as_mut_slice());
                            // dcols = Wᵀ · dY
                            let mut dcols = vec![0.0f32; ckk * howo];
                            gemm_at(ckk, f, howo, &wt, g.item(n), &mut dcols);
                            col2im(&dcols, si.c, si.h, si.w, k, stride, pad, dx.item_mut(n));
                        }
                    }
                    {
                        let db = self.params.grad_mut(b);
                        for n in 0..so.n {
                            let gi = g.item(n);
                            for c in 0..f {
                                db.as_mut_slice()[c] +=
                                    gi[c * howo..(c + 1) * howo].iter().sum::<f32>();
                            }
                        }
                    }
                    accumulate(&mut grads, xid, dx);
                }
                Op::Linear { w, b, in_f, out_f } => {
                    let (w, b, in_f, out_f) = (*w, *b, *in_f, *out_f);
                    let xid = node.inputs[0];
                    let x = &acts.outs[xid];
                    let n = x.shape().n;
                    {
                        // dW[out,in] += dYᵀ · X
                        let dw = self.params.grad_mut(w);
                        gemm_at(
                            out_f,
                            n,
                            in_f,
                            g.as_slice(),
                            x.as_slice(),
                            dw.as_mut_slice(),
                        );
                    }
                    {
                        let db = self.params.grad_mut(b);
                        for i in 0..n {
                            add_inplace(db.as_mut_slice(), g.item(i));
                        }
                    }
                    // dX = dY · W
                    let mut dx = Tensor::zeros(x.shape());
                    gemm(
                        n,
                        out_f,
                        in_f,
                        g.as_slice(),
                        self.params.get(w).as_slice(),
                        dx.as_mut_slice(),
                    );
                    accumulate(&mut grads, xid, dx);
                }
                Op::BatchNorm {
                    gamma,
                    beta,
                    channels,
                    ..
                } => {
                    let (gamma, beta, channels) = (*gamma, *beta, *channels);
                    let xid = node.inputs[0];
                    let Aux::Bn { xhat, inv_std, .. } = &acts.aux[id] else {
                        not_a_training_pass(node)
                    };
                    let s = g.shape();
                    let plane = s.h * s.w;
                    let m = (s.n * plane) as f32;
                    // Channel sums of g and g·xhat.
                    let mut sum_g = vec![0f32; channels];
                    let mut sum_gx = vec![0f32; channels];
                    for n in 0..s.n {
                        let gi = g.item(n);
                        let xh = xhat.item(n);
                        for c in 0..channels {
                            for i in c * plane..(c + 1) * plane {
                                sum_g[c] += gi[i];
                                sum_gx[c] += gi[i] * xh[i];
                            }
                        }
                    }
                    {
                        let dgm = self.params.grad_mut(gamma);
                        add_inplace(dgm.as_mut_slice(), &sum_gx);
                    }
                    {
                        let dbt = self.params.grad_mut(beta);
                        add_inplace(dbt.as_mut_slice(), &sum_g);
                    }
                    let gm = self.params.get(gamma).as_slice().to_vec();
                    let mut dx = Tensor::zeros(s);
                    for n in 0..s.n {
                        let gi = g.item(n);
                        let xh = xhat.item(n);
                        let dxi = dx.item_mut(n);
                        for c in 0..channels {
                            let coef = gm[c] * inv_std[c];
                            let mg = sum_g[c] / m;
                            let mgx = sum_gx[c] / m;
                            for i in c * plane..(c + 1) * plane {
                                dxi[i] = coef * (gi[i] - mg - xh[i] * mgx);
                            }
                        }
                    }
                    accumulate(&mut grads, xid, dx);
                }
                Op::Relu => {
                    let xid = node.inputs[0];
                    let y = &acts.outs[id];
                    let mut dx = g;
                    for (d, &v) in dx.as_mut_slice().iter_mut().zip(y.iter()) {
                        if v <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    accumulate(&mut grads, xid, dx);
                }
                Op::MaxPool { .. } => {
                    let xid = node.inputs[0];
                    let Aux::MaxPool(arg) = &acts.aux[id] else {
                        not_a_training_pass(node)
                    };
                    let dx = max_pool_backward(&g, arg, acts.outs[xid].shape());
                    accumulate(&mut grads, xid, dx);
                }
                Op::GlobalAvgPool => {
                    let xid = node.inputs[0];
                    let si = acts.outs[xid].shape();
                    let mut dx = Tensor::zeros(si);
                    let inv = 1.0 / (si.h * si.w) as f32;
                    for n in 0..si.n {
                        for c in 0..si.c {
                            let gv = g.at(n, c, 0, 0) * inv;
                            for y in 0..si.h {
                                for x in 0..si.w {
                                    *dx.at_mut(n, c, y, x) = gv;
                                }
                            }
                        }
                    }
                    accumulate(&mut grads, xid, dx);
                }
                Op::Flatten => {
                    let xid = node.inputs[0];
                    let dx = g.reshape(acts.outs[xid].shape());
                    accumulate(&mut grads, xid, dx);
                }
                Op::Add => {
                    let (a, b) = (node.inputs[0], node.inputs[1]);
                    accumulate(&mut grads, a, g.clone());
                    accumulate(&mut grads, b, g);
                }
                Op::McdSite { site, .. } => {
                    let xid = node.inputs[0];
                    let mut dx = g;
                    if let Some(mask) = masks.get(site.0) {
                        apply_mask(&mut dx, mask, &node.name);
                    }
                    accumulate(&mut grads, xid, dx);
                }
            }
        }
    }
}

/// The one failure of [`Graph::backward`] on activations that carry no
/// tape (any pass but [`Graph::forward_train`]).
fn not_a_training_pass(node: &Node) -> ! {
    panic!(
        "{}: backward cache missing — not a training pass",
        node.name
    )
}

fn accumulate(grads: &mut [Option<Tensor>], id: usize, g: Tensor) {
    match &mut grads[id] {
        Some(existing) => add_inplace(existing.as_mut_slice(), g.as_slice()),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn small_net() -> Graph {
        let mut b = GraphBuilder::new("t", 42);
        let x = b.input();
        let c = b.conv(x, 1, 2, 3, 1, 1);
        let bn = b.batch_norm(c, 2);
        let r = b.relu(bn);
        let p = b.max_pool(r, 2, 2);
        let f = b.flatten(p);
        let m = b.mcd(f, 0.25);
        let fc = b.linear(m, 2 * 2 * 2, 3);
        b.finish(fc)
    }

    #[test]
    fn forward_produces_logits() {
        let net = small_net();
        let x = Tensor::full(Shape4::new(2, 1, 4, 4), 0.5);
        let y = net.forward(&x, &MaskSet::none());
        assert_eq!(y.shape(), Shape4::vec(2, 3));
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_deterministic_without_masks() {
        let net = small_net();
        let x = Tensor::full(Shape4::new(1, 1, 4, 4), 0.3);
        let a = net.forward(&x, &MaskSet::none());
        let b = net.forward(&x, &MaskSet::none());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn mask_zeroes_channels_and_scales_rest() {
        let mut t = Tensor::full(Shape4::new(1, 2, 2, 2), 1.0);
        apply_mask(
            &mut t,
            &Mask {
                keep: vec![true, false],
                scale: 4.0 / 3.0,
            },
            "test",
        );
        assert!(t.item(0)[0..4]
            .iter()
            .all(|&v| (v - 4.0 / 3.0).abs() < 1e-6));
        assert!(t.item(0)[4..8].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn active_mask_changes_output() {
        let net = small_net();
        let x = Tensor::full(Shape4::new(1, 1, 4, 4), 0.5);
        let clean = net.forward(&x, &MaskSet::none());
        let masked = net.forward(
            &x,
            &MaskSet::from_masks(vec![Some(Mask {
                keep: vec![false; 8],
                scale: 4.0 / 3.0,
            })]),
        );
        // All-dropped features => logits equal the bias alone.
        assert!(clean.max_abs_diff(&masked) > 0.0);
    }

    #[test]
    fn train_updates_running_stats() {
        let mut net = small_net();
        let x = Tensor::from_vec(
            Shape4::new(4, 1, 4, 4),
            (0..64).map(|i| (i as f32 / 16.0) - 2.0).collect(),
        );
        let before: Vec<f32> = net
            .params()
            .get(crate::param::ParamId(4)) // running mean of the BN (w,b,gamma,beta,mean,...)
            .as_slice()
            .to_vec();
        let _ = net.forward_train(&x, &MaskSet::none());
        let after: Vec<f32> = net
            .params()
            .get(crate::param::ParamId(4))
            .as_slice()
            .to_vec();
        assert_ne!(before, after, "running mean should move in training mode");
    }

    #[test]
    fn backward_populates_grads() {
        let mut net = small_net();
        let x = Tensor::full(Shape4::new(2, 1, 4, 4), 0.5);
        let acts = net.forward_train(&x, &MaskSet::none());
        let logits = acts.logits(&net).clone();
        let dl = Tensor::full(logits.shape(), 1.0);
        net.backward(&acts, &MaskSet::none(), dl);
        let any_nonzero = net
            .params()
            .ids()
            .any(|id| net.params().grad(id).iter().any(|&g| g != 0.0));
        assert!(any_nonzero, "gradients must flow");
    }

    #[test]
    #[should_panic(expected = "maxpool2: backward cache missing — not a training pass")]
    fn backward_rejects_eval_activations_of_a_bn_free_graph() {
        // No BN node to trip over: the max-pool is the first node that
        // misses its tape.
        let mut b = GraphBuilder::new("bn-free", 3);
        let x = b.input();
        let c = b.conv(x, 1, 2, 3, 1, 1);
        let p = b.max_pool(c, 2, 2);
        let f = b.flatten(p);
        let fc = b.linear(f, 2 * 2 * 2, 3);
        let mut net = b.finish(fc);
        let x = Tensor::full(Shape4::new(1, 1, 4, 4), 0.5);
        let acts = net.forward_full(&x, &MaskSet::none());
        let dl = Tensor::full(acts.logits(&net).shape(), 1.0);
        net.backward(&acts, &MaskSet::none(), dl);
    }

    #[test]
    fn forward_prefix_matches_forward_full_and_reuses_buffers() {
        let net = small_net();
        let masks = MaskSet::none();
        let mut cols = Vec::new();
        let mut cache: Option<Activations> = None;
        // Alternate shapes so reuse must reallocate mismatched nodes,
        // then hit the warm path again on the repeat.
        for n in [2usize, 1, 2, 2] {
            let x = Tensor::from_vec(
                Shape4::new(n, 1, 4, 4),
                (0..n * 16).map(|i| (i as f32 / 7.0) - 1.1).collect(),
            );
            let full = net.forward_full(&x, &masks);
            for upto in [0usize, 3, 5] {
                let acts = net.forward_prefix_with(&x, upto, &masks, cache.take(), &mut cols);
                for id in 0..=upto {
                    assert_eq!(
                        acts.output(id).as_slice(),
                        full.output(id).as_slice(),
                        "prefix node {id} (upto {upto}, n {n}) diverged from forward_full"
                    );
                }
                cache = Some(acts);
            }
        }
    }

    /// One per-sample suffix walk through a fresh scratch.
    fn suffix(net: &Graph, prefix: &Activations, from: NodeId, masks: &MaskSet) -> Tensor {
        let input = prefix.output(net.input_id()).shape();
        let mut scratch = net.scratch_after(input, from);
        net.forward_from_with(prefix, from, masks, &mut scratch)
    }

    #[test]
    fn forward_prefix_cache_resumes_suffix_identically() {
        // The prefix cache must drive forward_from_with exactly like a
        // forward_full cache does.
        let net = small_net();
        let x = Tensor::full(Shape4::new(2, 1, 4, 4), 0.4);
        let masks = MaskSet::from_masks(vec![Some(Mask {
            keep: vec![true, false, true, true, false, true, true, true],
            scale: 4.0 / 3.0,
        })]);
        let from = 5; // right before the MCD site in small_net
        let full = net.forward_full(&x, &MaskSet::none());
        let want = suffix(&net, &full, from, &masks);
        let mut cols = Vec::new();
        let prefix = net.forward_prefix_with(&x, from, &MaskSet::none(), None, &mut cols);
        assert_eq!(
            suffix(&net, &prefix, from, &masks).as_slice(),
            want.as_slice()
        );
    }

    /// Deterministic per-sample masks for the one site of `small_net`.
    fn site0_masks(samples: usize) -> Vec<MaskSet> {
        (0..samples)
            .map(|s| {
                let keep: Vec<bool> = (0..8).map(|c| (c + s) % 3 != 0).collect();
                MaskSet::from_masks(vec![Some(Mask {
                    keep,
                    scale: 4.0 / 3.0,
                })])
            })
            .collect()
    }

    #[test]
    fn stacked_suffix_bit_identical_to_per_sample_walk() {
        let net = small_net();
        let x = Tensor::from_vec(
            Shape4::new(2, 1, 4, 4),
            (0..32).map(|i| (i as f32 / 10.0) - 1.4).collect(),
        );
        let prefix = net.forward_full(&x, &MaskSet::none());
        let from = 5; // right before the MCD site in small_net
        let masks = site0_masks(3);
        let mut stacked = net.stacked_scratch_after(x.shape(), from, masks.len());
        // Run twice through the same scratch: reuse must not leak.
        for _ in 0..2 {
            let fused = net.forward_from_stacked(&prefix, from, &masks, &mut stacked);
            assert_eq!(fused.shape(), Shape4::vec(3 * 2, 3));
            for (s, ms) in masks.iter().enumerate() {
                let want = suffix(&net, &prefix, from, ms);
                assert_eq!(
                    &fused.as_slice()[s * want.len()..(s + 1) * want.len()],
                    want.as_slice(),
                    "sample {s} diverged from the per-sample walk"
                );
            }
        }
    }

    #[test]
    fn stacked_suffix_covers_convolutions() {
        // A Bayesian site ahead of a conv so the fused walk exercises
        // a convolution over sample-stacked items (and the replicated
        // graph input).
        let mut b = GraphBuilder::new("conv-suffix", 9);
        let x = b.input();
        let m = b.mcd(x, 0.25);
        let c = b.conv(m, 2, 3, 3, 1, 1);
        let r = b.relu(c);
        let p = b.max_pool(r, 2, 2);
        let f = b.flatten(p);
        let fc = b.linear(f, 3 * 3 * 3, 4);
        let net = b.finish(fc);

        let input = Tensor::from_vec(
            Shape4::new(1, 2, 6, 6),
            (0..72).map(|i| ((i * 7 % 13) as f32 / 6.0) - 1.0).collect(),
        );
        let prefix = net.forward_full(&input, &MaskSet::none());
        let from = 0; // suffix starts at the site itself
        let masks: Vec<MaskSet> = (0..4)
            .map(|s| {
                MaskSet::from_masks(vec![Some(Mask {
                    keep: vec![s % 2 == 0, true],
                    scale: 4.0 / 3.0,
                })])
            })
            .collect();
        let mut stacked = net.stacked_scratch_after(input.shape(), from, masks.len());
        let fused = net.forward_from_stacked(&prefix, from, &masks, &mut stacked);
        for (s, ms) in masks.iter().enumerate() {
            let want = suffix(&net, &prefix, from, ms);
            assert_eq!(
                &fused.as_slice()[s * want.len()..(s + 1) * want.len()],
                want.as_slice(),
                "conv-suffix sample {s} diverged"
            );
        }
    }

    #[test]
    fn stacked_scratch_rebuild_is_chunk_size_strict() {
        let net = small_net();
        let x = Tensor::full(Shape4::new(1, 1, 4, 4), 0.4);
        let prefix = net.forward_full(&x, &MaskSet::none());
        let mut scratch = net.stacked_scratch_after(x.shape(), 5, 2);
        let masks = site0_masks(3);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = net.forward_from_stacked(&prefix, 5, &masks, &mut scratch);
        }));
        assert!(err.is_err(), "sample-count mismatch must panic");
    }

    #[test]
    #[should_panic(expected = "different graph, input shape")]
    fn scratch_rejects_mismatched_input_shape() {
        let net = small_net();
        let mut scratch = net.scratch_after(Shape4::new(1, 1, 4, 4), 5);
        let x = Tensor::full(Shape4::new(2, 1, 4, 4), 0.5);
        let prefix = net.forward_full(&x, &MaskSet::none());
        let _ = net.forward_from_with(&prefix, 5, &MaskSet::none(), &mut scratch);
    }

    #[test]
    #[should_panic(expected = "drop probability must be in [0, 1)")]
    fn mask_draw_rejects_p_one() {
        // p = 1 would make the kept-channel rescale infinite, which the
        // branch-free fused mask multiply would turn into NaN while the
        // per-sample path writes zeros — reject it at the source.
        let _ = MaskSet::draw(&[true], &[4], 1.0, |c| vec![true; c]);
    }

    #[test]
    fn software_mask_sampling_respects_activity() {
        let mut rng = SoftRng::new(1);
        let ms = MaskSet::sample_software(&[false, true], &[4, 8], 0.25, &mut rng);
        assert!(ms.get(0).is_none());
        let m = ms.get(1).expect("site 1 active");
        assert_eq!(m.keep.len(), 8);
        assert!((m.scale - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn software_keep_bits_are_the_negated_drop_draws_of_the_same_stream() {
        for p in [0.0f32, 1.0 / 256.0, 0.25, 0.5, 255.0 / 256.0, 0.3] {
            for len in 0..=70 {
                let seed = 0x5EED ^ (len as u64) << 8;
                let (mut keep_rng, mut drop_rng) = (SoftRng::new(seed), SoftRng::new(seed));
                let ms = MaskSet::sample_software(&[true], &[len], p, &mut keep_rng);
                let want: Vec<bool> = drop_rng
                    .bernoulli_many(f64::from(p), len)
                    .iter()
                    .map(|&drop| !drop)
                    .collect();
                let keep = &ms.get(0).expect("site 0 active").keep;
                assert_eq!(keep, &want, "p = {p}, len = {len}");
                assert_eq!(
                    keep_rng.next_u64(),
                    drop_rng.next_u64(),
                    "p = {p}, len = {len}: the generators drifted apart"
                );
            }
        }
    }
}
