//! The accelerator as a [`bnn_mcd::BayesBackend`]: values from the
//! integer substrate, costs from the analytic model.
//!
//! The paper evaluates its accelerator as two separable things — an
//! 8-bit datapath whose outputs are exactly the quantized network's,
//! and an analytic cycle/traffic model. The serving substrate keeps
//! them separate too: [`Accelerator::into_backend`] is `bnn-quant`'s
//! [`Int8Backend`] over the compiled [`bnn_quant::QGraph`], renamed
//! `"accel"`, with this accelerator attached as its
//! [`HardwareModel`]. Every prediction through a `Session` or
//! `Server` therefore reports the analytic cycle count, latency at the
//! configured clock and off-chip traffic of the corresponding hardware
//! execution, while the bytes come from the same executor as the
//! `int8` substrate.
//!
//! The simulator's own run ([`Accelerator::run_with_masks`]) is the
//! same integer kernel at the PE array's tile instead of the serving
//! tile, so it computes the same bytes — the tests below and the
//! facade's conformance suite assert it, bit for bit, and both sides
//! are checked against `bnn-quant`'s direct reference loops.

use crate::engine::Accelerator;
use bnn_mcd::{BayesConfig, HardwareModel, ModelCost};
use bnn_quant::Int8Backend;
use std::sync::Arc;

impl HardwareModel for Accelerator {
    /// [`Accelerator::timing`] + [`Accelerator::traffic_model`] of one
    /// image — the same counts [`Accelerator::run`] reports.
    fn model_cost(&self, bayes: BayesConfig) -> ModelCost {
        let timing = self.timing(bayes);
        ModelCost {
            cycles: timing.total_cycles,
            latency_ms: timing.latency_ms(self.config()),
            mem_bytes: self.traffic_model(bayes).total(),
        }
    }
}

impl Accelerator {
    /// The accelerator as a Bayesian execution substrate: the integer
    /// backend over this instance's quantized graph, named `"accel"`,
    /// reporting this instance's analytic cost model. Like the
    /// hardware (and the model), it serves one image at a time.
    pub fn into_backend(self) -> Int8Backend {
        Int8Backend::with_model(self.qgraph.clone(), "accel", Arc::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use bnn_mcd::{BayesBackend, Engine, MaskSource, Plan, RequestResult, SoftwareMaskSource};
    use bnn_nn::{models, MaskSet};
    use bnn_quant::Quantizer;
    use bnn_rng::SoftRng;
    use bnn_tensor::{softmax_rows, Shape4, Tensor};

    fn setup() -> (Accelerator, Tensor) {
        let net = models::lenet5(10, 1, 16, 8).fold_batch_norm();
        let mut rng = SoftRng::new(21);
        let shape = Shape4::new(4, 1, 16, 16);
        let calib = Tensor::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.normal_f32(0.0, 1.0)).collect(),
        );
        let qg = Quantizer::new(&net).calibrate(&calib).quantize();
        let accel = Accelerator::new(AccelConfig::paper_default(), &net, &qg, calib.shape());
        (accel, calib.select_item(0))
    }

    #[test]
    fn backend_matches_run_with_masks() {
        let (accel, img) = setup();
        let mut backend = accel.clone().into_backend();
        let cfg = BayesConfig::new(2, 3);
        let info = backend.info(img.shape());
        let active = bnn_mcd::active_sites(info.n_sites, cfg.l);
        let channels = info.site_channels;
        let mut src = SoftwareMaskSource::new(13);
        let mask_sets: Vec<MaskSet> = (0..cfg.s)
            .map(|_| src.next_masks(&active, &channels, cfg.p))
            .collect();

        let run = accel.run_with_masks(&img, cfg, &mask_sets);
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
                "backend diverged from the simulator's run"
            );
        }
    }

    #[test]
    fn backend_reports_hardware_cost() {
        let (accel, img) = setup();
        let mut backend = accel.clone().into_backend();
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
        let run = accel.run(&img, cfg, 1);
        assert_eq!(model.cycles, run.timing.total_cycles);
        assert_eq!(model.mem_bytes, run.traffic.total());
    }

    #[test]
    #[should_panic(expected = "one image at a time")]
    fn backend_rejects_batches() {
        let (accel, img) = setup();
        let mut backend = accel.into_backend();
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
