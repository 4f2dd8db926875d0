//! The per-layer cycle model and network latency estimation
//! (Tables I, III and IV).
//!
//! Per fused layer the matrix engine needs
//!
//! ```text
//! compute = ceil(F / P_F) · ceil(Ho·Wo / P_V) · ceil(C·K² / P_C) + fill
//! ```
//!
//! cycles (the `C·K²` reduction is streamed through the `P_C`-wide
//! multiplier/adder-tree, im2col-style, so shallow early layers do not
//! strand the channel lanes), while the memory interface streams
//! weights (every invocation — they never persist on chip), the input
//! feature map (unless pinned by IC) and the stored output. Compute
//! and transfer are double-buffered, so a layer costs
//! `max(compute, memory) + overhead`.
//!
//! A partial-Bayesian run `{L, S}` executes the deterministic prefix
//! once and the Bayesian suffix `S` times when IC is enabled, and the
//! whole network `S` times otherwise (paper Figure 4).

use crate::config::AccelConfig;
use bnn_mcd::BayesConfig;
use bnn_nn::arch::LayerDesc;

/// Which resource bounds a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Matrix-engine limited.
    Compute,
    /// DDR-bandwidth limited.
    Memory,
}

/// Timing of one fused layer for one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTiming {
    /// Matrix-engine cycles.
    pub compute_cycles: u64,
    /// DDR transfer cycles (weights + activations).
    pub mem_cycles: u64,
    /// Total including per-layer overhead.
    pub total_cycles: u64,
    /// Limiting resource.
    pub bound: Bound,
    /// MAC utilisation of the PE array during the compute phase.
    pub utilization: f64,
}

/// Latency decomposition of a full `{L, S}` network run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTiming {
    /// Per-layer, single-invocation timings.
    pub layers: Vec<LayerTiming>,
    /// Cycles of the deterministic prefix (run once with IC).
    pub prefix_cycles: u64,
    /// Cycles of one Bayesian-suffix pass.
    pub suffix_cycles: u64,
    /// Monte Carlo samples.
    pub s: usize,
    /// Total cycles for the complete prediction.
    pub total_cycles: u64,
    /// Whether intermediate-layer caching was applied.
    pub ic: bool,
}

impl NetworkTiming {
    /// Total latency in milliseconds at the configured clock.
    pub fn latency_ms(&self, cfg: &AccelConfig) -> f64 {
        cfg.cycles_to_ms(self.total_cycles)
    }
}

/// The performance model.
#[derive(Debug, Clone)]
pub struct PerfModel {
    cfg: AccelConfig,
}

impl PerfModel {
    /// Create a model for a configuration.
    pub fn new(cfg: AccelConfig) -> PerfModel {
        PerfModel { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// PE-array tiles of one layer invocation:
    /// `ceil(F / P_F) · ceil(Ho·Wo / P_V) · ceil(C·K² / P_C)`, one per
    /// compute cycle.
    pub fn tiles(&self, l: &LayerDesc) -> u64 {
        let c = &self.cfg;
        let f_tiles = l.out_c.div_ceil(c.pf);
        let v_tiles = (l.out_h * l.out_w).div_ceil(c.pv);
        let red_tiles = (l.in_c * l.k * l.k).div_ceil(c.pc);
        (f_tiles * v_tiles * red_tiles) as u64
    }

    /// Timing of one layer invocation.
    ///
    /// `input_offchip` — whether the input feature map must be fetched
    /// from DDR (false when IC pins it on chip);
    /// `output_offchip` — whether the stored output is written back.
    pub fn layer_timing(
        &self,
        l: &LayerDesc,
        input_offchip: bool,
        output_offchip: bool,
    ) -> LayerTiming {
        let c = &self.cfg;
        let fill = (c.pc.ilog2() as u64) + 4; // adder tree + FU pipeline
        let compute = self.tiles(l) + fill;

        let dw = c.dw_bytes;
        let mut bytes = l.weight_bytes(dw);
        if input_offchip {
            bytes += l.input_bytes(dw);
        }
        if output_offchip {
            bytes += l.output_bytes(dw);
        }
        let mem = c.ddr.transfer_cycles(bytes);

        let total = compute.max(mem) + c.layer_overhead_cycles;
        let utilization =
            l.macs() as f64 / (compute.saturating_sub(fill).max(1) * c.multipliers() as u64) as f64;
        LayerTiming {
            compute_cycles: compute,
            mem_cycles: mem,
            total_cycles: total,
            bound: if compute >= mem {
                Bound::Compute
            } else {
                Bound::Memory
            },
            utilization: utilization.min(1.0),
        }
    }

    /// Index of the first Bayesian layer for a given `L` (layers are in
    /// execution order; sites are numbered in the same order).
    fn first_bayes_idx(layers: &[LayerDesc], l: usize) -> usize {
        bnn_nn::arch::first_bayesian_layer(layers, l)
    }

    /// Latency of a `{L, S}` Bayesian prediction.
    ///
    /// With `ic`, layers before the first Bayesian layer run once and
    /// the suffix runs `S` times with its boundary input pinned on
    /// chip; without, the whole network runs `S` times.
    pub fn network_timing(
        &self,
        layers: &[LayerDesc],
        bayes: BayesConfig,
        ic: bool,
    ) -> NetworkTiming {
        assert!(bayes.s > 0, "S must be positive");
        let split = Self::first_bayes_idx(layers, bayes.l);
        let mut per_layer = Vec::with_capacity(layers.len());
        let mut prefix = 0u64;
        let mut suffix = 0u64;
        for (i, l) in layers.iter().enumerate() {
            // The suffix boundary input is pinned on chip under IC.
            let input_offchip = !(ic && i == split);
            let t = self.layer_timing(l, input_offchip, true);
            if i < split {
                prefix += t.total_cycles;
            } else {
                suffix += t.total_cycles;
            }
            per_layer.push(t);
        }
        let total = if ic {
            prefix + suffix * bayes.s as u64
        } else {
            (prefix + suffix) * bayes.s as u64
        };
        NetworkTiming {
            layers: per_layer,
            prefix_cycles: prefix,
            suffix_cycles: suffix,
            s: bayes.s,
            total_cycles: total,
            ic,
        }
    }

    /// Throughput in GOP/s for a `{L, S}` run (ops = 2·MACs actually
    /// executed, the Table IV convention).
    pub fn throughput_gops(&self, layers: &[LayerDesc], bayes: BayesConfig, ic: bool) -> f64 {
        let t = self.network_timing(layers, bayes, ic);
        let split = Self::first_bayes_idx(layers, bayes.l);
        let prefix_ops: u64 = layers[..split].iter().map(LayerDesc::ops).sum();
        let suffix_ops: u64 = layers[split..].iter().map(LayerDesc::ops).sum();
        let ops = if ic {
            prefix_ops + suffix_ops * bayes.s as u64
        } else {
            (prefix_ops + suffix_ops) * bayes.s as u64
        };
        ops as f64 / (t.total_cycles as f64 / (self.cfg.clock_mhz * 1e6)) / 1e9
    }

    /// Energy efficiency in GOP/s/W at the configured board power.
    pub fn energy_efficiency(&self, layers: &[LayerDesc], bayes: BayesConfig, ic: bool) -> f64 {
        self.throughput_gops(layers, bayes, ic) / self.cfg.board_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::arch::{extract_layers, resnet101_desc};
    use bnn_nn::models;
    use bnn_tensor::Shape4;

    fn pm() -> PerfModel {
        PerfModel::new(AccelConfig::paper_default())
    }

    #[test]
    fn compute_formula_hand_check() {
        // F=64, HoWo=100, C*K²=128: ceil(64/64)*100*ceil(128/64)=200 + fill.
        let l = LayerDesc {
            name: "t".into(),
            kind: bnn_nn::arch::LayerKind::Conv,
            in_c: 32,
            out_c: 64,
            k: 2,
            stride: 1,
            pad: 0,
            in_h: 11,
            in_w: 11,
            out_h: 10,
            out_w: 10,
            stored_h: 10,
            stored_w: 10,
            has_bn: false,
            has_relu: true,
            pool: None,
            shortcut_add: false,
            input_site: None,
        };
        let t = pm().layer_timing(&l, true, true);
        assert_eq!(t.compute_cycles, 200 + 6 + 4); // fill = log2(64)+4 = 10
    }

    #[test]
    fn resnet101_throughput_matches_table4_regime() {
        // Paper Table IV: 1590 GOP/s on ResNet-101 with L = N.
        let layers = resnet101_desc();
        let n = layers.iter().filter_map(|l| l.input_site).count();
        let g = pm().throughput_gops(&layers, BayesConfig::new(n, 1), true);
        assert!(
            (1300.0..1843.2).contains(&g),
            "ResNet-101 throughput {g} GOP/s outside the paper's regime"
        );
    }

    #[test]
    fn energy_efficiency_matches_table4_regime() {
        // Paper: 33.3 GOP/s/W at 45 W.
        let layers = resnet101_desc();
        let n = layers.iter().filter_map(|l| l.input_site).count();
        let e = pm().energy_efficiency(&layers, BayesConfig::new(n, 1), true);
        assert!((28.0..41.0).contains(&e), "energy efficiency {e}");
    }

    #[test]
    fn ic_speedup_large_for_small_l() {
        // Table III: VGG-11 {1,100}: w/ IC ~75x faster than w/o.
        let net = models::vgg11(10, 3, 32, 8, 1);
        let layers = extract_layers(&net, Shape4::new(1, 3, 32, 32));
        let cfg = BayesConfig::new(1, 100);
        let with = pm().network_timing(&layers, cfg, true).total_cycles;
        let without = pm().network_timing(&layers, cfg, false).total_cycles;
        let speedup = without as f64 / with as f64;
        assert!(
            speedup > 10.0,
            "IC speedup {speedup} too small for L=1,S=100"
        );
    }

    #[test]
    fn ic_speedup_shrinks_as_l_grows() {
        let net = models::vgg11(10, 3, 32, 8, 1);
        let layers = extract_layers(&net, Shape4::new(1, 3, 32, 32));
        let s_small = {
            let c = BayesConfig::new(1, 50);
            let w = pm().network_timing(&layers, c, true).total_cycles;
            let wo = pm().network_timing(&layers, c, false).total_cycles;
            wo as f64 / w as f64
        };
        let s_large = {
            let c = BayesConfig::new(8, 50);
            let w = pm().network_timing(&layers, c, true).total_cycles;
            let wo = pm().network_timing(&layers, c, false).total_cycles;
            wo as f64 / w as f64
        };
        assert!(
            s_small > s_large,
            "IC speedup must fall with L: {s_small} vs {s_large}"
        );
    }

    #[test]
    fn latency_monotone_in_s() {
        let net = models::lenet5(10, 1, 28, 1);
        let layers = extract_layers(&net, Shape4::new(1, 1, 28, 28));
        let t3 = pm()
            .network_timing(&layers, BayesConfig::new(2, 3), true)
            .total_cycles;
        let t100 = pm()
            .network_timing(&layers, BayesConfig::new(2, 100), true)
            .total_cycles;
        assert!(t100 > t3);
        // With IC the growth is sub-linear in S (prefix amortised).
        assert!((t100 as f64) < (t3 as f64) * 100.0 / 3.0);
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        let net = models::lenet5(10, 1, 28, 1);
        let layers = extract_layers(&net, Shape4::new(1, 1, 28, 28));
        let fc1 = layers
            .iter()
            .find(|l| l.name.starts_with("fc"))
            .expect("fc exists");
        let t = pm().layer_timing(fc1, true, true);
        assert_eq!(t.bound, Bound::Memory, "batch-1 FC must be DDR-bound");
    }

    #[test]
    fn utilization_higher_for_wide_layers() {
        let layers = resnet101_desc();
        // A mid-network 3x3 with C=256 saturates PC; the stem (C=3) cannot.
        let stem = pm().layer_timing(&layers[0], true, true);
        let mid = pm().layer_timing(
            layers
                .iter()
                .find(|l| l.in_c == 256 && l.k == 3)
                .expect("3x3x256 exists"),
            true,
            true,
        );
        assert!(mid.utilization > stem.utilization);
        assert!(mid.utilization > 0.9, "wide 3x3 should be >90% utilised");
    }

    #[test]
    fn latency_improves_with_parallelism() {
        let net = models::resnet18(10, 3, 16, 1);
        let layers = extract_layers(&net, Shape4::new(1, 3, 32, 32));
        let small = PerfModel::new(AccelConfig::with_parallelism(8, 8, 1));
        let big = PerfModel::new(AccelConfig::with_parallelism(64, 64, 1));
        let c = BayesConfig::new(18, 10);
        assert!(
            big.network_timing(&layers, c, true).total_cycles
                < small.network_timing(&layers, c, true).total_cycles
        );
    }
}
