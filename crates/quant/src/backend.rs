//! The int8 [`BayesBackend`]: integer execution of a [`QGraph`] with
//! quantize/dequantize at the boundary.
//!
//! `prepare` quantizes the input once and runs the deterministic
//! prefix (every node before the first active MCD site) through the
//! integer reference executor — the same intermediate-layer caching
//! the accelerator applies. Each Monte Carlo pass then re-runs only
//! the Bayesian suffix, dequantizes the logits and softmaxes them, so
//! the generic engine in `bnn-mcd` can average int8 samples exactly
//! like float ones.

use crate::qgraph::{exec_qnode, QGraph, QNode, QTensor};
use bnn_mcd::{BayesBackend, BayesConfig, ModelCost, ModelInfo};
use bnn_nn::MaskSet;
use bnn_tensor::{softmax_rows, Shape4, Tensor};

/// Intermediate-layer-caching runner over a [`QGraph`], parameterized
/// by the per-node executor.
///
/// Both integer substrates — the reference int8 backend here (via
/// [`exec_qnode`]) and the accelerator backend in `bnn-accel` (via
/// its tiled PE stations) — share this one implementation of the IC
/// protocol: quantize the input once, run the deterministic prefix
/// once, then per Monte Carlo pass truncate a per-worker scratch back
/// to the suffix boundary and re-run only the suffix, dequantizing
/// and softmaxing the logits. Keeping the protocol in one place is
/// what makes "accel is bit-identical to int8 under the same masks" a
/// property of the node executors alone.
#[derive(Debug, Clone)]
pub struct IcRunner {
    /// Quantized input batch.
    input: QTensor,
    /// Node outputs of the deterministic prefix (`nodes[..split]`).
    prefix: Vec<QTensor>,
    /// First node of the Bayesian suffix (`nodes.len()` when the run
    /// is fully deterministic).
    split: usize,
}

impl IcRunner {
    /// Quantize `x` and execute the deterministic prefix with `exec`.
    pub fn prepare(
        qgraph: &QGraph,
        x: &Tensor,
        active: &[bool],
        mut exec: impl FnMut(&QNode, &[QTensor], &QTensor, &MaskSet) -> QTensor,
    ) -> IcRunner {
        let input = qgraph.quantize_input(x);
        let split = qgraph.suffix_split(active);
        let empty = MaskSet::none();
        let mut prefix: Vec<QTensor> = Vec::with_capacity(split);
        for node in &qgraph.nodes()[..split] {
            let y = exec(node, &prefix, &input, &empty);
            prefix.push(y);
        }
        IcRunner {
            input,
            prefix,
            split,
        }
    }

    /// A per-worker scratch: the prefix is cloned once per worker, not
    /// once per sample.
    pub fn scratch(&self) -> Vec<QTensor> {
        self.prefix.clone()
    }

    /// One Monte Carlo pass: truncate `outs` back to the suffix
    /// boundary (suffix execution never mutates prefix entries),
    /// re-run the suffix with `exec`, and return softmaxed
    /// dequantized probabilities.
    pub fn forward(
        &self,
        qgraph: &QGraph,
        masks: &MaskSet,
        outs: &mut Vec<QTensor>,
        mut exec: impl FnMut(&QNode, &[QTensor], &QTensor, &MaskSet) -> QTensor,
    ) -> Tensor {
        outs.truncate(self.split);
        for node in &qgraph.nodes()[self.split..] {
            let y = exec(node, outs, &self.input, masks);
            outs.push(y);
        }
        let mut logits = qgraph.dequantize_output(&outs[qgraph.output_id()]);
        let s = logits.shape();
        let (rows, cols) = (s.n, s.item_len());
        softmax_rows(logits.as_mut_slice(), rows, cols);
        logits
    }
}

/// Int8 execution substrate over a quantized graph.
///
/// The graph is held behind an `Arc`: it is immutable at serving
/// time, so [`BayesBackend::fork`] (batch-axis parallelism) and
/// `Clone` are pointer bumps, not weight copies.
#[derive(Debug, Clone)]
pub struct Int8Backend {
    qgraph: std::sync::Arc<QGraph>,
    prepared: Option<IcRunner>,
}

impl Int8Backend {
    /// Create a backend owning a quantized graph.
    pub fn new(qgraph: QGraph) -> Int8Backend {
        Int8Backend {
            qgraph: std::sync::Arc::new(qgraph),
            prepared: None,
        }
    }

    /// The wrapped quantized graph.
    pub fn qgraph(&self) -> &QGraph {
        &self.qgraph
    }

    fn prepared(&self) -> &IcRunner {
        self.prepared
            .as_ref()
            .expect("Int8Backend::prepare not called")
    }
}

impl BayesBackend for Int8Backend {
    type Scratch = Vec<QTensor>;

    fn info(&self, input: Shape4) -> ModelInfo {
        ModelInfo {
            name: "int8",
            n_sites: self.qgraph.n_sites(),
            site_channels: self.qgraph.site_channels(input),
            output_classes: self.qgraph.output_classes(input),
        }
    }

    fn prepare(&mut self, x: &Tensor, active: &[bool]) {
        self.prepared = Some(IcRunner::prepare(&self.qgraph, x, active, exec_qnode));
    }

    fn make_scratch(&self) -> Vec<QTensor> {
        self.prepared().scratch()
    }

    fn forward_batch(&self, mask_sets: &[MaskSet], outs: &mut Vec<QTensor>) -> Vec<Tensor> {
        let runner = self.prepared();
        mask_sets
            .iter()
            .map(|masks| runner.forward(&self.qgraph, masks, outs, exec_qnode))
            .collect()
    }

    fn model_cost(&self, _bayes: BayesConfig) -> Option<ModelCost> {
        None
    }

    fn fork(&self) -> Option<Self> {
        // The quantized graph is immutable at serving time, so a fork
        // shares it (an Arc bump, no weight copy) and computes
        // bit-identically — which is what batch-axis parallelism in
        // the generic engine requires.
        Some(Int8Backend {
            qgraph: std::sync::Arc::clone(&self.qgraph),
            prepared: None,
        })
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
