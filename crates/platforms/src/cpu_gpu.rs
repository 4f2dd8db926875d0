//! Roofline-style batch-1 latency models of the paper's CPU and GPU
//! baselines.
//!
//! The paper runs PyTorch at batch size 1. In that regime per-layer
//! framework overhead (op dispatch, kernel launch) dominates small
//! layers while arithmetic throughput and memory bandwidth bound the
//! large ones, so each layer costs
//!
//! ```text
//! t = overhead + max(2·MACs / eff_flops, bytes / mem_bw)
//! ```
//!
//! Constants come from public specifications and typical batch-1
//! efficiencies (each constructor shows its arithmetic), not a per-row
//! fit; they feed Table III's `CPU ms` and `GPU ms` cells. The paper's
//! GPU footnote (int8 = fp32 ÷ 4) is the `compute_speedup` field.

use bnn_mcd::BayesConfig;
use bnn_nn::arch::LayerDesc;

/// A batch-1 inference latency model for a general-purpose platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformModel {
    /// Platform name.
    pub name: String,
    /// Effective arithmetic throughput at batch 1, in GFLOP/s.
    pub eff_gflops: f64,
    /// Effective memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Per-layer framework overhead in microseconds.
    pub layer_overhead_us: f64,
    /// Bytes per weight/activation element (fp32 → 4).
    pub elem_bytes: f64,
    /// Uniform compute speedup applied to the arithmetic term
    /// (the paper's "int8 = fp32 ÷ 4" GPU estimate → 4.0).
    pub compute_speedup: f64,
}

impl PlatformModel {
    /// Intel Core i9-9900K running PyTorch fp32 at batch 1.
    ///
    /// 8 cores × AVX2 ≈ 460 GFLOP/s peak; batch-1 conv efficiency in
    /// PyTorch is ~6-8%, giving ~32 GFLOP/s effective; ~40 µs per op
    /// dispatch.
    pub fn i9_9900k() -> PlatformModel {
        PlatformModel {
            name: "Intel i9-9900K (PyTorch, batch 1)".into(),
            eff_gflops: 32.0,
            mem_bw_gbs: 25.0,
            layer_overhead_us: 40.0,
            elem_bytes: 4.0,
            compute_speedup: 1.0,
        }
    }

    /// NVIDIA RTX 2080 SUPER with the paper's int8 = fp32/4 estimate.
    ///
    /// 11.1 TFLOP/s peak fp32; batch-1 kernel efficiency ~3%, giving
    /// ~340 GFLOP/s effective; ~18 µs launch overhead per layer.
    pub fn rtx_2080_super() -> PlatformModel {
        PlatformModel {
            name: "RTX 2080 SUPER (estimated int8, batch 1)".into(),
            eff_gflops: 340.0,
            mem_bw_gbs: 300.0,
            layer_overhead_us: 18.0,
            elem_bytes: 4.0,
            compute_speedup: 4.0,
        }
    }

    /// Latency of one full forward pass in milliseconds.
    pub fn pass_latency_ms(&self, layers: &[LayerDesc]) -> f64 {
        let mut total_us = 0.0;
        for l in layers {
            let flops = 2.0 * l.macs() as f64;
            let compute_us = flops / (self.eff_gflops * self.compute_speedup) / 1e3;
            let bytes =
                (l.weight_bytes(1) + l.input_bytes(1) + l.output_bytes(1)) as f64 * self.elem_bytes;
            let mem_us = bytes / self.mem_bw_gbs / 1e3;
            total_us += self.layer_overhead_us + compute_us.max(mem_us);
        }
        total_us / 1e3
    }

    /// Latency of an `{L, S}` Bayesian prediction with *software*
    /// intermediate-layer caching: the deterministic prefix runs once,
    /// the Bayesian suffix `S` times.
    ///
    /// The paper's CPU/GPU baselines use the software IC of
    /// Stochastic-YOLO (ref. 5) — visible in Table III, where the CPU
    /// `{1,100}` latency is ~12 ms on all three networks regardless of
    /// size.
    pub fn bayes_latency_ms(&self, layers: &[LayerDesc], bayes: BayesConfig) -> f64 {
        let split = bnn_nn::arch::first_bayesian_layer(layers, bayes.l);
        let prefix = self.pass_latency_ms(&layers[..split]);
        let suffix = self.pass_latency_ms(&layers[split..]);
        prefix + suffix * bayes.s as f64
    }

    /// Latency of `S` full passes (no caching — naive PyTorch MCD).
    pub fn bayes_latency_no_ic_ms(&self, layers: &[LayerDesc], bayes: BayesConfig) -> f64 {
        self.pass_latency_ms(layers) * bayes.s as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::arch::extract_layers;
    use bnn_nn::models;
    use bnn_tensor::Shape4;

    fn lenet_layers() -> Vec<LayerDesc> {
        extract_layers(&models::lenet5(10, 1, 28, 1), Shape4::new(1, 1, 28, 28))
    }

    #[test]
    fn lenet_cpu_latency_matches_paper_magnitude() {
        // Paper Table I, LeNet-5 {1,3}: CPU 0.67 ms.
        let cpu = PlatformModel::i9_9900k();
        let ms = cpu.bayes_latency_ms(&lenet_layers(), BayesConfig::new(1, 3));
        assert!((0.3..1.5).contains(&ms), "CPU LeNet {{1,3}} = {ms} ms");
    }

    #[test]
    fn lenet_gpu_latency_matches_paper_magnitude() {
        // Paper Table I, LeNet-5 {1,3}: GPU 0.24 ms.
        let gpu = PlatformModel::rtx_2080_super();
        let ms = gpu.bayes_latency_ms(&lenet_layers(), BayesConfig::new(1, 3));
        assert!((0.1..0.8).contains(&ms), "GPU LeNet {{1,3}} = {ms} ms");
    }

    #[test]
    fn gpu_faster_than_cpu_on_all_nets() {
        let cpu = PlatformModel::i9_9900k();
        let gpu = PlatformModel::rtx_2080_super();
        for layers in [
            lenet_layers(),
            extract_layers(&models::vgg11(10, 3, 32, 8, 1), Shape4::new(1, 3, 32, 32)),
            extract_layers(&models::resnet18(10, 3, 16, 1), Shape4::new(1, 3, 32, 32)),
        ] {
            let c = cpu.pass_latency_ms(&layers);
            let g = gpu.pass_latency_ms(&layers);
            assert!(g < c, "GPU ({g}) must beat CPU ({c})");
        }
    }

    #[test]
    fn no_ic_latency_linear_in_s() {
        let cpu = PlatformModel::i9_9900k();
        let layers = lenet_layers();
        let t1 = cpu.bayes_latency_no_ic_ms(&layers, BayesConfig::new(2, 1));
        let t10 = cpu.bayes_latency_no_ic_ms(&layers, BayesConfig::new(2, 10));
        assert!(
            (t10 / t1 - 10.0).abs() < 1e-9,
            "naive MCD scales linearly in S"
        );
    }

    #[test]
    fn software_ic_flattens_l1_latency_across_networks() {
        // Paper Table III: CPU {1,100} is ~12 ms for LeNet, VGG and
        // ResNet alike — the suffix (one FC layer) dominates, not the
        // network size.
        let cpu = PlatformModel::i9_9900k();
        let nets = [
            lenet_layers(),
            extract_layers(&models::vgg11(10, 3, 32, 8, 1), Shape4::new(1, 3, 32, 32)),
            extract_layers(&models::resnet18(10, 3, 16, 1), Shape4::new(1, 3, 32, 32)),
        ];
        let b = BayesConfig::new(1, 100);
        let ts: Vec<f64> = nets.iter().map(|l| cpu.bayes_latency_ms(l, b)).collect();
        let spread = ts.iter().cloned().fold(f64::MIN, f64::max)
            / ts.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 2.0, "L=1 latencies should be within 2x: {ts:?}");
    }

    #[test]
    fn software_ic_beats_naive() {
        let cpu = PlatformModel::i9_9900k();
        let layers = lenet_layers();
        let b = BayesConfig::new(1, 100);
        assert!(cpu.bayes_latency_ms(&layers, b) < cpu.bayes_latency_no_ic_ms(&layers, b));
    }

    #[test]
    fn overhead_dominates_small_networks() {
        // LeNet-5 at batch 1 is dispatch-bound: ~5 layers * 40 µs.
        let cpu = PlatformModel::i9_9900k();
        let ms = cpu.pass_latency_ms(&lenet_layers());
        let overhead_ms = 5.0 * 40.0 / 1e3;
        assert!(
            ms < overhead_ms * 2.0,
            "LeNet must be overhead-dominated: {ms}"
        );
    }
}
