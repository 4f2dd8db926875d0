//! The integer [`BayesBackend`]: int8 execution of a [`QGraph`] with
//! quantize/dequantize at the boundary — the one substrate behind
//! both the `int8` and the `accel` names.
//!
//! `prepare` quantizes the input once and runs the deterministic
//! prefix (every node before the first active MCD site) — the same
//! intermediate-layer caching the accelerator applies. A Monte Carlo
//! chunk then re-runs only the Bayesian suffix, *once* for all its
//! samples: the chunk's mask sets go to one [`QGraph::walk`] with the
//! samples stacked along the item axis, exactly as the f32 backend's
//! fused walk does, so every suffix weight streams once per chunk. The
//! logits are dequantized and softmaxed once and split back into one
//! tensor per sample, so the generic engine in `bnn-mcd` can average
//! int8 samples exactly like float ones. Both passes are projections of
//! [`QGraph::walk`] over one output slot per node, with the tiled
//! integer kernel ([`exec_qnode_tiled`]) at its register-sized serving
//! tile as the node executor. A chunk's scratch holds the suffix
//! outputs and, replicated once per sample, the prefix outputs the
//! suffix reads; it and the kernel's operand buffer are sized by the
//! first chunk at its position and then overwritten in place. The
//! backend keeps one such scratch per sample chunk and the quantized
//! input and prefix slots beside them, so reuse spans requests: a warm
//! request of the same shape allocates nothing but its results.
//! Integer arithmetic is exact, so every sample's bytes equal a walk of
//! its mask set alone.
//!
//! The accelerator substrate is this backend with the simulator's
//! analytic [`HardwareModel`] attached ([`Int8Backend::with_model`],
//! called by `bnn_accel::Accelerator::into_backend`): its *values* are
//! exactly the quantized network's, its *costs* are the model's. The
//! simulator runs the same kernel at its PE array's tile, and
//! [`QGraph::forward`]'s direct loops ([`crate::exec_qnode`]) stay the
//! independent reference both are tested against.

use crate::kernel::{exec_qnode_tiled, Tile};
use crate::qgraph::{QGraph, QNode, QTensor};
use bnn_mcd::{BayesBackend, BayesConfig, HardwareModel, ModelCost, ModelInfo};
use bnn_nn::MaskSet;
use bnn_tensor::{softmax_rows, Shape4, Tensor};
use std::sync::Arc;

/// What `prepare` binds: the quantized input batch, the suffix
/// boundary (`nodes.len()` when the run is fully deterministic), one
/// output slot per node, the prefix slots filled, and the kernel's
/// operand buffer. Kept across `prepare` calls, so a warm backend
/// re-sizes nothing and quantizes into the held input.
#[derive(Debug)]
struct Prepared {
    input: QTensor,
    split: usize,
    slots: Vec<QTensor>,
    ops: Vec<i16>,
}

/// Int8 execution substrate over a quantized graph it owns, with an
/// optional hardware model attached.
#[derive(Debug)]
pub struct Int8Backend {
    qgraph: QGraph,
    name: &'static str,
    model: Option<Arc<dyn HardwareModel>>,
    prepared: Option<Prepared>,
    /// One scratch per sample chunk, kept across calls.
    scratches: Vec<ChunkScratch>,
}

/// One sample chunk's node slots (the suffix outputs and the replicated
/// crossing prefix outputs) and kernel operand buffer.
type ChunkScratch = (Vec<QTensor>, Vec<i16>);

impl Int8Backend {
    /// Create a backend owning a quantized graph (`"int8"`, no
    /// hardware model).
    pub fn new(qgraph: QGraph) -> Int8Backend {
        Int8Backend {
            qgraph,
            name: "int8",
            model: None,
            prepared: None,
            scratches: Vec::new(),
        }
    }

    /// The same backend serving under `name` with an analytic hardware
    /// model attached: every prediction reports `model`'s cost. The
    /// model describes one image per prediction, so a backend carrying
    /// one rejects multi-item inputs.
    pub fn with_model(
        qgraph: QGraph,
        name: &'static str,
        model: Arc<dyn HardwareModel>,
    ) -> Int8Backend {
        Int8Backend {
            name,
            model: Some(model),
            ..Int8Backend::new(qgraph)
        }
    }

    /// The wrapped quantized graph.
    pub fn qgraph(&self) -> &QGraph {
        &self.qgraph
    }

    /// The quantized input the last `prepare` bound, if any.
    pub fn prepared_input(&self) -> Option<&QTensor> {
        self.prepared.as_ref().map(|p| &p.input)
    }

    fn prepared(&self) -> &Prepared {
        self.prepared
            .as_ref()
            .expect("Int8Backend::prepare not called")
    }

    /// Softmax probabilities of quantized logits.
    fn probs(&self, logits: &QTensor) -> Tensor {
        let mut probs = self.qgraph.dequantize_output(logits);
        let s = probs.shape();
        softmax_rows(probs.as_mut_slice(), s.n, s.item_len());
        probs
    }
}

/// The serving node executor [`QGraph::walk`] takes: the tiled kernel
/// at its serving tile over the operand buffer `ops`.
fn serve(
    ops: &mut Vec<i16>,
) -> impl FnMut(&QNode, &[QTensor], &QTensor, &[MaskSet], &mut QTensor) + '_ {
    move |node, outs, input, masks, y| {
        exec_qnode_tiled(Tile::SERVE, ops, node, outs, input, masks, y);
    }
}

/// Replicate `t` `samples` times along the item axis into `out`
/// (sample-major), re-sizing `out` only on a shape change.
fn stack_items_into(t: &QTensor, samples: usize, out: &mut QTensor) {
    let shape = t.shape.with_n(samples * t.shape.n);
    if out.shape != shape {
        *out = QTensor::zeros(shape);
    }
    for block in out.data.chunks_exact_mut(t.data.len()) {
        block.copy_from_slice(&t.data);
    }
}

impl BayesBackend for Int8Backend {
    type Scratch = ChunkScratch;

    fn info(&self, input: Shape4) -> ModelInfo {
        ModelInfo {
            name: self.name,
            n_sites: self.qgraph.n_sites(),
            site_channels: self.qgraph.site_channels(input),
            output_classes: self.qgraph.output_classes(input),
        }
    }

    fn prepare(&mut self, x: &Tensor, active: &[bool]) {
        assert!(
            self.model.is_none() || x.shape().n == 1,
            "{}: the hardware model costs one image at a time (use batch = 1)",
            self.name
        );
        let split = self.qgraph.suffix_split(active);
        let (mut input, mut slots, mut ops) = match self.prepared.take() {
            Some(prepared) => (prepared.input, prepared.slots, prepared.ops),
            None => (QTensor::zeros(x.shape()), self.qgraph.slots(), Vec::new()),
        };
        self.qgraph.quantize_input_into(x, &mut input);
        self.qgraph.walk(
            0..split,
            &input,
            &[MaskSet::none()],
            &mut slots,
            serve(&mut ops),
        );
        self.prepared = Some(Prepared {
            input,
            split,
            slots,
            ops,
        });
    }

    fn scratches(&mut self) -> &mut Vec<ChunkScratch> {
        &mut self.scratches
    }

    /// One suffix walk for the whole chunk, its samples stacked along
    /// the item axis over the crossing prefix outputs replicated once
    /// per sample; then dequantize and softmax the stacked logits once
    /// and split them by sample. An empty scratch gets unsized slots
    /// here (the prefix is read from the prepared slots, and only what
    /// crosses into the suffix is copied).
    fn forward_batch(&self, mask_sets: &[MaskSet], (outs, ops): &mut ChunkScratch) -> Vec<Tensor> {
        let Prepared {
            input,
            split,
            slots,
            ..
        } = self.prepared();
        let (nodes, samples) = (self.qgraph.nodes().len(), mask_sets.len());
        if *split == nodes {
            // No active site: the prefix holds the logits.
            return vec![self.probs(&slots[self.qgraph.output_id()]); samples];
        }
        if outs.is_empty() {
            *outs = self.qgraph.slots();
        }
        // The prefix outputs the suffix reads across the boundary.
        for node in &self.qgraph.nodes()[*split..] {
            for &j in node.inputs.iter().filter(|&&j| j < *split) {
                stack_items_into(&slots[j], samples, &mut outs[j]);
            }
        }
        self.qgraph
            .walk(*split..nodes, input, mask_sets, outs, serve(ops));
        let probs = self.probs(&outs[self.qgraph.output_id()]);
        let rows = probs.shape().with_n(input.shape.n);
        probs
            .as_slice()
            .chunks_exact(rows.len())
            .map(|sample| Tensor::from_vec(rows, sample.to_vec()))
            .collect()
    }

    fn model_cost(&self, bayes: BayesConfig) -> Option<ModelCost> {
        self.model.as_ref().map(|model| model.model_cost(bayes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quantizer;
    use bnn_mcd::{
        Engine, MaskSource, ParallelConfig, Plan, RequestResult, SoftwareMaskSource, WorkerPool,
    };
    use bnn_nn::models;
    use bnn_rng::SoftRng;

    fn setup() -> (Int8Backend, Tensor) {
        let net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
        let mut rng = SoftRng::new(5);
        let shape = Shape4::new(2, 1, 16, 16);
        let calib = Tensor::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let qg = Quantizer::new(&net).calibrate(&calib).quantize();
        (Int8Backend::new(qg), calib)
    }

    #[test]
    fn int8_suffix_reuse_matches_full_integer_forward() {
        let (mut backend, x) = setup();
        let cfg = BayesConfig::new(2, 3);
        let mut src_a = SoftwareMaskSource::new(7);
        let mut src_b = SoftwareMaskSource::new(7);
        let passes = RequestResult::single(Engine::serial().run(
            &mut backend,
            Plan::one(&x, &mut src_a),
            cfg,
        ))
        .passes;

        // Reference: the full integer forward with the same masks.
        let info = backend.info(x.shape());
        let active = bnn_mcd::active_sites(info.n_sites, cfg.l);
        let channels = info.site_channels;
        for pass in &passes {
            let masks = src_b.next_masks(&active, &channels, cfg.p);
            let mut reference = backend.qgraph().forward(&x, &masks);
            let s = reference.shape();
            softmax_rows(reference.as_mut_slice(), s.n, s.item_len());
            assert_eq!(
                pass.as_slice(),
                reference.as_slice(),
                "int8 IC path must be bit-exact against the reference executor"
            );
        }
    }

    #[test]
    fn int8_predictive_rows_are_distributions() {
        let (mut backend, x) = setup();
        let mut src = SoftwareMaskSource::new(1);
        let pool = WorkerPool::new(1);
        let out = RequestResult::single(Engine::new(&pool, ParallelConfig::with_threads(2)).run(
            &mut backend,
            Plan::one(&x, &mut src),
            BayesConfig::new(3, 4),
        ));
        for i in 0..x.shape().n {
            let s: f32 = out.probs.item(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        assert!(out.cost.model.is_none());
    }

    #[test]
    fn qgraph_geometry_matches_float_graph() {
        let net = models::lenet5(10, 1, 16, 3).fold_batch_norm();
        let calib = Tensor::zeros(Shape4::new(2, 1, 16, 16));
        let qg = Quantizer::new(&net).calibrate(&calib).quantize();
        let shape = calib.shape();
        assert_eq!(qg.site_channels(shape), net.site_channels(shape));
        assert_eq!(qg.output_classes(shape), 10);
    }
}
