//! The functional neural network engine: executes a quantized graph
//! exactly as the hardware would — the integer kernel in the PE array's
//! tile order, the FU chain, a dropout unit fed by the LFSR Bernoulli
//! sampler, and intermediate-layer caching across Monte Carlo samples.

use crate::config::AccelConfig;
use crate::perf::{NetworkTiming, PerfModel};
use bnn_mcd::{active_sites, BayesConfig};
use bnn_nn::arch::{extract_layers, LayerDesc};
use bnn_nn::{Graph, MaskSet};
use bnn_quant::{exec_qnode_tiled, QGraph, QNodeOp, QTensor};
use bnn_rng::{BernoulliSampler, DropProbability, SamplerStats};
use bnn_tensor::{softmax_rows, Shape4, Tensor};
use std::ops::Range;

/// Off-chip traffic of one complete `{L, S}` prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemTraffic {
    /// Weight bytes streamed from DDR.
    pub weight_bytes: u64,
    /// Activation bytes read from DDR.
    pub input_bytes: u64,
    /// Activation bytes written to DDR.
    pub output_bytes: u64,
}

impl MemTraffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.weight_bytes + self.input_bytes + self.output_bytes
    }
}

/// Result of running the accelerator on one image.
#[derive(Debug, Clone)]
pub struct AccelRun {
    /// Dequantized logits of each Monte Carlo sample.
    pub logits_per_sample: Vec<Tensor>,
    /// Predictive distribution (mean of per-sample softmax), `(1, k)`.
    pub predictive: Tensor,
    /// Cycle-level timing (from the performance model).
    pub timing: NetworkTiming,
    /// PE-array tiles the kernel ran per fused layer (execution order),
    /// summed over the run: once per prefix layer, `S` times per suffix
    /// layer — what [`PerfModel::tiles`] charges, counted by the code
    /// that computed the bytes.
    pub tiles: Vec<u64>,
    /// Off-chip traffic.
    pub traffic: MemTraffic,
    /// Bernoulli-sampler statistics after the run.
    pub sampler: SamplerStats,
}

/// The accelerator simulator bound to one compiled network.
#[derive(Debug, Clone)]
pub struct Accelerator {
    cfg: AccelConfig,
    pub(crate) qgraph: QGraph,
    layers: Vec<LayerDesc>,
    /// Mask length per MCD site.
    site_channels: Vec<usize>,
    /// desc index per qgraph node id (weight nodes only).
    desc_of_node: Vec<Option<usize>>,
}

impl Accelerator {
    /// Compile an accelerator instance from a BN-folded f32 graph and
    /// its quantization.
    ///
    /// # Panics
    ///
    /// Panics if the graph/qgraph pair is inconsistent (different
    /// lowering) or the configuration is invalid.
    pub fn new(
        cfg: AccelConfig,
        folded: &Graph,
        qgraph: &QGraph,
        input_shape: Shape4,
    ) -> Accelerator {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid accelerator config: {e}"));
        assert_eq!(
            folded.nodes().len(),
            qgraph.nodes().len(),
            "graph/qgraph node count mismatch — quantize the same folded graph"
        );
        let layers = extract_layers(folded, input_shape.with_n(1));
        let mut desc_of_node = vec![None; qgraph.nodes().len()];
        let mut next = 0usize;
        for (id, node) in qgraph.nodes().iter().enumerate() {
            if matches!(node.op, QNodeOp::Conv { .. } | QNodeOp::Linear { .. }) {
                desc_of_node[id] = Some(next);
                next += 1;
            }
        }
        assert_eq!(next, layers.len(), "fused layer extraction out of sync");
        let site_channels = folded.site_channels(input_shape.with_n(1));
        Accelerator {
            cfg,
            qgraph: qgraph.clone(),
            layers,
            site_channels,
            desc_of_node,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Fused layer descriptors (execution order).
    pub fn layers(&self) -> &[LayerDesc] {
        &self.layers
    }

    /// Run one image through the `{L, S}` Bayesian prediction with the
    /// hardware Bernoulli sampler seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `image` has batch size 1 (the paper evaluates at
    /// batch 1).
    pub fn run(&self, image: &Tensor, bayes: BayesConfig, seed: u64) -> AccelRun {
        assert_eq!(
            image.shape().n,
            1,
            "the accelerator processes one image at a time"
        );
        let p = DropProbability::quarter();
        assert!(
            (f64::from(bayes.p) - p.value()).abs() < 1e-9,
            "hardware sampler implements p = 0.25; got {}",
            bayes.p
        );
        let mut sampler = BernoulliSampler::new(p, self.cfg.pf, self.cfg.fifo_depth, seed);
        let active = active_sites(self.qgraph.n_sites(), bayes.l);
        // Same helper as the software/hardware mask sources, so the
        // on-chip sampler cannot disagree on which sites are Bayesian.
        let mask_sets: Vec<MaskSet> = (0..bayes.s)
            .map(|_| {
                MaskSet::draw(&active, &self.site_channels, bayes.p, |ch| {
                    sampler.generate_mask(ch)
                })
            })
            .collect();
        let mut run = self.run_with_masks(image, bayes, &mask_sets);
        run.sampler = sampler.stats();
        run
    }

    /// Deterministic variant: run with externally-supplied per-sample
    /// masks (used by the bit-exactness tests and by the framework's
    /// software/hardware cross-checks).
    ///
    /// # Panics
    ///
    /// Panics if `mask_sets.len() != bayes.s`.
    pub fn run_with_masks(
        &self,
        image: &Tensor,
        bayes: BayesConfig,
        mask_sets: &[MaskSet],
    ) -> AccelRun {
        assert_eq!(
            mask_sets.len(),
            bayes.s,
            "one mask set per Monte Carlo sample"
        );
        let input = self.qgraph.quantize_input(image);
        let nodes = self.qgraph.nodes().len();
        let split = self
            .qgraph
            .suffix_split(&active_sites(self.qgraph.n_sites(), bayes.l));
        let tile = self.cfg.tile();
        let (mut outs, mut ops) = (self.qgraph.slots(), Vec::new());
        let mut tiles = vec![0u64; self.layers.len()];
        // One node per walk, so each kernel call's tile count lands on
        // its layer.
        let mut walk = |range: Range<usize>, masks: &MaskSet, outs: &mut [QTensor]| {
            for id in range {
                self.qgraph.walk(
                    id..id + 1,
                    &input,
                    std::slice::from_ref(masks),
                    outs,
                    |node, done, input, masks, y| {
                        let ran = exec_qnode_tiled(tile, &mut ops, node, done, input, masks, y);
                        if let Some(layer) = self.desc_of_node[id] {
                            tiles[layer] += ran;
                        }
                    },
                );
            }
        };

        // Prefix: executed once, like hardware with IC enabled. Suffix:
        // once per Monte Carlo sample with fresh masks (a one-set walk:
        // the PE array runs one sample at a time), each walk
        // overwriting the same suffix slots over the cached prefix.
        walk(0..split, &MaskSet::none(), &mut outs);
        let logits_per_sample: Vec<Tensor> = mask_sets
            .iter()
            .map(|masks| {
                walk(split..nodes, masks, &mut outs);
                self.qgraph
                    .dequantize_output(&outs[self.qgraph.output_id()])
            })
            .collect();

        // Predictive distribution.
        let k = logits_per_sample[0].shape().item_len();
        let mut acc = Tensor::zeros(Shape4::vec(1, k));
        for l in &logits_per_sample {
            let mut p = l.clone();
            softmax_rows(p.as_mut_slice(), 1, k);
            bnn_tensor::add_inplace(acc.as_mut_slice(), p.as_slice());
        }
        let inv = 1.0 / bayes.s as f32;
        acc.map_inplace(|v| v * inv);

        // Timing and traffic from the analytic models (same split).
        let timing = self.timing(bayes);
        let traffic = self.traffic(bayes, split);

        AccelRun {
            logits_per_sample,
            predictive: acc,
            timing,
            tiles,
            traffic,
            sampler: SamplerStats::default(),
        }
    }

    /// Cycle-level timing of a `{L, S}` prediction with IC enabled
    /// (the same analytic model [`Accelerator::run`] reports).
    pub fn timing(&self, bayes: BayesConfig) -> NetworkTiming {
        PerfModel::new(self.cfg).network_timing(&self.layers, bayes, true)
    }

    /// Modelled off-chip traffic of a `{L, S}` prediction with IC.
    pub fn traffic_model(&self, bayes: BayesConfig) -> MemTraffic {
        let active = active_sites(self.qgraph.n_sites(), bayes.l);
        self.traffic(bayes, self.qgraph.suffix_split(&active))
    }

    /// Off-chip traffic for a `{L,S}` run with IC, split at node id
    /// `split` (first Bayesian site).
    fn traffic(&self, bayes: BayesConfig, split: usize) -> MemTraffic {
        let dw = self.cfg.dw_bytes;
        let mut t = MemTraffic::default();
        // The pinned IC boundary input is the first suffix layer's
        // input: loaded once, reused S times.
        let first_suffix_layer =
            (split..self.desc_of_node.len()).find(|&id| self.desc_of_node[id].is_some());
        for (id, desc_idx) in self.desc_of_node.iter().enumerate() {
            let Some(di) = *desc_idx else { continue };
            let d = &self.layers[di];
            let invocations = if id < split { 1 } else { bayes.s as u64 };
            t.weight_bytes += d.weight_bytes(dw) * invocations;
            let pinned = Some(id) == first_suffix_layer;
            let input_loads = if pinned { 1 } else { invocations };
            t.input_bytes += d.input_bytes(dw) * input_loads;
            t.output_bytes += d.output_bytes(dw) * invocations;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::models;
    use bnn_quant::Quantizer;
    use bnn_rng::SoftRng;

    fn setup(seed: u64) -> (Graph, QGraph, Tensor) {
        let net = models::lenet5(10, 1, 16, seed).fold_batch_norm();
        let mut rng = SoftRng::new(seed);
        let shape = Shape4::new(4, 1, 16, 16);
        let calib = Tensor::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let qg = Quantizer::new(&net).calibrate(&calib).quantize();
        (net, qg, calib)
    }

    #[test]
    fn engine_bit_exact_vs_reference_deterministic() {
        let (net, qg, calib) = setup(1);
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        let img = calib.select_item(0);
        let run = accel.run_with_masks(
            &img,
            BayesConfig {
                l: 0,
                s: 1,
                p: 0.25,
            },
            &[MaskSet::none()],
        );
        let reference = qg.forward(&img, &MaskSet::none());
        assert_eq!(
            run.logits_per_sample[0].as_slice(),
            reference.as_slice(),
            "the simulator must be bit-exact against the reference executor"
        );
    }

    #[test]
    fn engine_bit_exact_with_masks_all_parallelisms() {
        let (net, qg, calib) = setup(2);
        let img = calib.select_item(1);
        let channels = net.site_channels(img.shape());
        let mut rng = SoftRng::new(77);
        let active = vec![true; net.n_sites()];
        let masks = MaskSet::sample_software(&active, &channels, 0.25, &mut rng);
        let reference = qg.forward(&img, &masks);
        for (pc, pf, pv) in [(8, 8, 1), (64, 64, 1), (16, 32, 4), (128, 128, 16)] {
            let accel = Accelerator::new(
                AccelConfig::with_parallelism(pc, pf, pv),
                &net,
                &qg,
                calib.shape(),
            );
            let run = accel.run_with_masks(
                &img,
                BayesConfig {
                    l: net.n_sites(),
                    s: 1,
                    p: 0.25,
                },
                std::slice::from_ref(&masks),
            );
            assert_eq!(
                run.logits_per_sample[0].as_slice(),
                reference.as_slice(),
                "parallelism ({pc},{pf},{pv}) changed the result"
            );
        }
    }

    #[test]
    fn ic_suffix_reuse_matches_full_execution() {
        // Running the suffix S times from the cached prefix must equal
        // running the whole network per sample.
        let (net, qg, calib) = setup(3);
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        let img = calib.select_item(2);
        let cfg = BayesConfig::new(2, 3);
        let channels = net.site_channels(img.shape());
        let mut rng = SoftRng::new(5);
        let active = bnn_mcd::active_sites(net.n_sites(), cfg.l);
        let mask_sets: Vec<MaskSet> = (0..cfg.s)
            .map(|_| MaskSet::sample_software(&active, &channels, 0.25, &mut rng))
            .collect();
        let run = accel.run_with_masks(&img, cfg, &mask_sets);
        for (s, masks) in mask_sets.iter().enumerate() {
            let reference = qg.forward(&img, masks);
            assert_eq!(
                run.logits_per_sample[s].as_slice(),
                reference.as_slice(),
                "sample {s} diverged"
            );
        }
    }

    #[test]
    fn hardware_sampler_run_is_reproducible() {
        let (net, qg, calib) = setup(4);
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        let img = calib.select_item(0);
        let a = accel.run(&img, BayesConfig::new(3, 4), 99);
        let b = accel.run(&img, BayesConfig::new(3, 4), 99);
        assert_eq!(a.predictive.as_slice(), b.predictive.as_slice());
        let c = accel.run(&img, BayesConfig::new(3, 4), 100);
        assert_ne!(a.predictive.as_slice(), c.predictive.as_slice());
    }

    #[test]
    fn predictive_is_distribution() {
        let (net, qg, calib) = setup(5);
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        let run = accel.run(&calib.select_item(3), BayesConfig::new(5, 5), 11);
        let sum: f32 = run.predictive.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert_eq!(run.logits_per_sample.len(), 5);
    }

    #[test]
    fn traffic_scales_with_s_only_in_suffix() {
        let (net, qg, calib) = setup(6);
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        let img = calib.select_item(0);
        let t1 = accel.run(&img, BayesConfig::new(1, 1), 1).traffic;
        let t10 = accel.run(&img, BayesConfig::new(1, 10), 1).traffic;
        // L=1: only the last FC re-runs; its weights re-stream per pass.
        assert!(t10.weight_bytes > t1.weight_bytes);
        let fc_bytes = 84 * 10; // last layer of LeNet-5 (84 -> 10)
        assert_eq!(t10.weight_bytes - t1.weight_bytes, 9 * fc_bytes);
        // The pinned IC input is loaded once regardless of S.
        assert_eq!(t10.input_bytes, t1.input_bytes);
    }

    #[test]
    fn sampler_stats_populated_by_run() {
        let (net, qg, calib) = setup(7);
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        let run = accel.run(&calib.select_item(0), BayesConfig::new(5, 3), 42);
        assert!(
            run.sampler.bits_produced > 0,
            "sampler must have produced mask bits"
        );
        let rate = run.sampler.bits_dropped as f64 / run.sampler.bits_produced as f64;
        assert!((0.0..=0.6).contains(&rate));
    }
}
