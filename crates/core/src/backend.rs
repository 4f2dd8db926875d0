//! The accelerator [`BayesBackend`]: the simulated FPGA as an
//! execution substrate for the generic Monte Carlo engine.
//!
//! `prepare` quantizes the image and runs the deterministic prefix
//! once through the tiled PE stations (hardware intermediate-layer
//! caching); each Monte Carlo pass re-runs only the Bayesian suffix.
//! Outputs are bit-identical to [`Accelerator::run_with_masks`] given
//! the same mask stream — the backend is a per-sample view of the
//! same engine, not a reimplementation.
//!
//! Unlike the CPU backends, [`BayesBackend::model_cost`] is populated:
//! every predictive run through a `Session` reports the analytic
//! cycle count, latency at the configured clock, and off-chip traffic
//! of the corresponding hardware execution.

use crate::engine::Accelerator;
use bnn_mcd::{BayesBackend, BayesConfig, ModelCost, ModelInfo};
use bnn_nn::MaskSet;
use bnn_quant::{IcRunner, QTensor};
use bnn_tensor::{Shape4, Tensor};

/// The simulated accelerator as a Bayesian execution substrate.
///
/// The compiled accelerator is held behind an `Arc`: it is read-only
/// during execution (the PE stations take `&self`), so
/// [`BayesBackend::fork`] (batch-axis parallelism) and `Clone` are
/// pointer bumps, not copies of the compiled model.
#[derive(Debug, Clone)]
pub struct AccelBackend {
    accel: std::sync::Arc<Accelerator>,
    prepared: Option<IcRunner>,
}

impl AccelBackend {
    /// Create a backend over a compiled accelerator instance.
    pub fn new(accel: Accelerator) -> AccelBackend {
        AccelBackend {
            accel: std::sync::Arc::new(accel),
            prepared: None,
        }
    }

    /// The wrapped accelerator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accel
    }

    fn prepared(&self) -> &IcRunner {
        self.prepared
            .as_ref()
            .expect("AccelBackend::prepare not called")
    }
}

impl BayesBackend for AccelBackend {
    type Scratch = Vec<QTensor>;

    fn info(&self, input: Shape4) -> ModelInfo {
        ModelInfo {
            name: "accel",
            n_sites: self.accel.qgraph.n_sites(),
            site_channels: self.accel.site_channels.clone(),
            output_classes: self.accel.qgraph.output_classes(input.with_n(1)),
        }
    }

    fn prepare(&mut self, x: &Tensor, active: &[bool]) {
        assert_eq!(
            x.shape().n,
            1,
            "the accelerator processes one image at a time (use batch = 1)"
        );
        // The shared IC runner with the tiled PE stations as the node
        // executor — the only difference from the int8 backend.
        self.prepared = Some(IcRunner::prepare(
            &self.accel.qgraph,
            x,
            active,
            |node, outs, input, masks| self.accel.exec_station(node, outs, input, masks),
        ));
    }

    fn make_scratch(&self) -> Vec<QTensor> {
        self.prepared().scratch()
    }

    fn forward_batch(&self, mask_sets: &[MaskSet], outs: &mut Vec<QTensor>) -> Vec<Tensor> {
        let runner = self.prepared();
        mask_sets
            .iter()
            .map(|masks| {
                runner.forward(
                    &self.accel.qgraph,
                    masks,
                    outs,
                    |node, outs, input, masks| self.accel.exec_station(node, outs, input, masks),
                )
            })
            .collect()
    }

    fn model_cost(&self, bayes: BayesConfig) -> Option<ModelCost> {
        let timing = self.accel.timing(bayes);
        let traffic = self.accel.traffic_model(bayes);
        Some(ModelCost {
            cycles: timing.total_cycles,
            latency_ms: timing.latency_ms(self.accel.config()),
            mem_bytes: traffic.total(),
        })
    }

    fn fork(&self) -> Option<Self> {
        // Forks share the compiled instance (an Arc bump) and
        // simulate bit-identically; batch-axis parallelism in the
        // generic engine forks one backend per batch worker.
        Some(AccelBackend {
            accel: std::sync::Arc::clone(&self.accel),
            prepared: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use bnn_mcd::{Engine, MaskSource, Plan, RequestResult, SoftwareMaskSource};
    use bnn_nn::models;
    use bnn_quant::Quantizer;
    use bnn_rng::SoftRng;
    use bnn_tensor::softmax_rows;

    fn setup() -> (AccelBackend, Tensor) {
        let net = models::lenet5(10, 1, 16, 8).fold_batch_norm();
        let mut rng = SoftRng::new(21);
        let shape = Shape4::new(4, 1, 16, 16);
        let calib = Tensor::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let qg = Quantizer::new(&net).calibrate(&calib).quantize();
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        (AccelBackend::new(accel), calib.select_item(0))
    }

    #[test]
    fn backend_matches_run_with_masks() {
        let (mut backend, img) = setup();
        let cfg = BayesConfig::new(2, 3);
        let info = backend.info(img.shape());
        let active = bnn_mcd::active_sites(info.n_sites, cfg.l);
        let channels = info.site_channels;
        let mut src = SoftwareMaskSource::new(13);
        let mask_sets: Vec<MaskSet> = (0..cfg.s)
            .map(|_| src.next_masks(&active, &channels, cfg.p))
            .collect();

        let run = backend.accelerator().run_with_masks(&img, cfg, &mask_sets);
        let mut src2 = SoftwareMaskSource::new(13);
        let passes = RequestResult::single(Engine::serial().run(
            &mut backend,
            Plan::one(&img, &mut src2),
            cfg,
        ))
        .passes;
        for (pass, logits) in passes.iter().zip(&run.logits_per_sample) {
            let mut reference = logits.clone();
            let s = reference.shape();
            softmax_rows(reference.as_mut_slice(), s.n, s.item_len());
            assert_eq!(
                pass.as_slice(),
                reference.as_slice(),
                "backend diverged from the monolithic engine"
            );
        }
    }

    #[test]
    fn backend_reports_hardware_cost() {
        let (mut backend, img) = setup();
        let cfg = BayesConfig::new(2, 4);
        let mut src = SoftwareMaskSource::new(2);
        let RequestResult { probs, cost, .. } = RequestResult::single(Engine::serial().run(
            &mut backend,
            Plan::one(&img, &mut src),
            cfg,
        ));
        let sum: f32 = probs.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        let model = cost.model.expect("accelerator must report model cost");
        assert!(model.cycles > 0);
        assert!(model.latency_ms > 0.0);
        assert!(model.mem_bytes > 0);
        // The reported cost equals the monolithic engine's.
        let run = backend.accelerator().run(&img, cfg, 1);
        assert_eq!(model.cycles, run.timing.total_cycles);
        assert_eq!(model.mem_bytes, run.traffic.total());
    }

    #[test]
    #[should_panic(expected = "one image at a time")]
    fn backend_rejects_batches() {
        let (mut backend, img) = setup();
        let mut batch = Tensor::zeros(Shape4::new(2, 1, 16, 16));
        batch.item_mut(0).copy_from_slice(img.as_slice());
        batch.item_mut(1).copy_from_slice(img.as_slice());
        let mut src = SoftwareMaskSource::new(2);
        let _ = Engine::serial().run(
            &mut backend,
            Plan::one(&batch, &mut src),
            BayesConfig::new(1, 1),
        );
    }
}
