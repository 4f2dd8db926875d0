//! The paper's resource model (Section IV-B) with calibrated
//! ALM/register estimates — regenerates Table II.
//!
//! Analytic parts straight from the paper:
//!
//! * `DSP = P_C · P_F · P_V / 2` (two 8-bit multipliers per DSP),
//! * `MEM_in = max_i(C_i · H_i · W_i) · DW`,
//! * `MEM_weight = max_i(C_i · K_i²) · P_F · DW`,
//! * `MEM_FIFO = D · P_F · DW`.
//!
//! Two effects the paper reports but does not model are added here and
//! documented as calibrated constants: (1) the stated `P_C = P_F = 64,
//! P_V = 1` configuration needs 2048 DSPs but the SX660 offers 1518 —
//! the synthesis overflowed multipliers into ALM logic (hence 97% DSP
//! *and* 71% ALM usage), modelled by [`ResourceUsage::dsp_overflow`];
//! (2) buffers are double-buffered and M20K packing is imperfect.

use crate::config::AccelConfig;
use bnn_nn::arch::LayerDesc;

/// An FPGA resource budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Device name.
    pub name: String,
    /// Adaptive logic modules.
    pub alms: u64,
    /// Flip-flops.
    pub registers: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// M20K memory blocks.
    pub m20k_blocks: u64,
    /// Fraction of DSPs usable by the datapath (placement/clocking
    /// losses; calibrated so 1518 → 1473 as in Table II).
    pub dsp_usable_frac: f64,
}

impl FpgaDevice {
    /// Intel Arria 10 SX660 (the paper's platform).
    pub fn arria10_sx660() -> FpgaDevice {
        FpgaDevice {
            name: "Arria 10 SX660".into(),
            alms: 427_200,
            registers: 1_708_800,
            dsps: 1_518,
            m20k_blocks: 2_713,
            dsp_usable_frac: 0.97,
        }
    }

    /// Intel Cyclone V 5CGTFD9E5F35C7 (VIBNN's platform).
    pub fn cyclone_v() -> FpgaDevice {
        FpgaDevice {
            name: "Cyclone V 5CGTFD9E5F35C7".into(),
            alms: 113_560,
            registers: 227_120,
            dsps: 342,
            m20k_blocks: 1_220,
            dsp_usable_frac: 1.0,
        }
    }

    /// Xilinx Zynq XC7Z020 (BYNQNet's platform; BRAM18 halves mapped to
    /// an M20K-equivalent count).
    pub fn zynq_7020() -> FpgaDevice {
        FpgaDevice {
            name: "Zynq XC7Z020".into(),
            alms: 53_200,
            registers: 106_400,
            dsps: 220,
            m20k_blocks: 280,
            dsp_usable_frac: 1.0,
        }
    }

    /// DSPs actually available to the datapath.
    pub fn usable_dsps(&self) -> u64 {
        (self.dsps as f64 * self.dsp_usable_frac).floor() as u64
    }
}

/// Estimated resource usage of a configuration for a set of networks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUsage {
    /// DSP blocks consumed.
    pub dsps: u64,
    /// 8-bit multipliers that did not fit in DSPs and were built from
    /// ALMs.
    pub dsp_overflow: u64,
    /// ALMs consumed (datapath + control + overflow multipliers).
    pub alms: u64,
    /// Registers consumed.
    pub registers: u64,
    /// M20K blocks consumed.
    pub m20k: u64,
    /// On-chip buffer bytes (input + weight + FIFO + output).
    pub buffer_bytes: u64,
}

/// Round per-element figures: 64/64/1 lands within 0.5 % of Table II's ALMs and registers.
const ALM_BASE: u64 = 30_000; // controller, DMA, AXI plumbing
const ALM_PER_MAC: u64 = 40; // accumulate/adder-tree share per multiplier
const ALM_PER_FU_LANE: u64 = 300; // BN/ReLU/Pool/SC chain per PF lane
const ALM_PER_OVERFLOW_MULT: u64 = 80; // 8x8 multiplier built in logic
const REG_BASE: u64 = 70_000;
const REG_PER_MAC: u64 = 200;
const M20K_BITS: u64 = 20_480;
const M20K_PACKING: f64 = 0.8;

/// The resource model.
#[derive(Debug, Clone)]
pub struct ResourceModel {
    device: FpgaDevice,
}

impl ResourceModel {
    /// Create a model against a device budget.
    pub fn new(device: FpgaDevice) -> ResourceModel {
        ResourceModel { device }
    }

    /// The device budget.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// Estimate usage of `cfg` when it must support every network in
    /// `workloads` (the buffer sizing takes the max over all layers of
    /// all networks, as the paper's `max_i` formulas do).
    pub fn estimate(&self, cfg: &AccelConfig, workloads: &[&[LayerDesc]]) -> ResourceUsage {
        let mults = cfg.multipliers() as u64;
        let dsp_needed = mults.div_ceil(2);
        let dsp_avail = self.device.usable_dsps();
        let (dsps, overflow_mults) = if dsp_needed <= dsp_avail {
            (dsp_needed, 0)
        } else {
            (dsp_avail, (dsp_needed - dsp_avail) * 2)
        };

        let dw = cfg.dw_bytes as u64;
        // MEM_in = max(C_i * H_i * W_i) * DW — the layer-by-layer input
        // buffer, which is also the IC pin buffer.
        let mem_in = workloads
            .iter()
            .flat_map(|ls| ls.iter())
            .map(|l| (l.in_c * l.in_h * l.in_w) as u64 * dw)
            .max()
            .unwrap_or(0);
        // MEM_weight = max(C_i * K_i^2) * P_F * DW.
        let mem_w = workloads
            .iter()
            .flat_map(|ls| ls.iter())
            .map(|l| (l.in_c * l.k * l.k) as u64 * cfg.pf as u64 * dw)
            .max()
            .unwrap_or(0);
        // Output buffer: matrix-engine tile output before DDR writeback,
        // sized like the input buffer (stored outputs).
        let mem_out = workloads
            .iter()
            .flat_map(|ls| ls.iter())
            .map(|l| (l.out_c * l.stored_h * l.stored_w) as u64 * dw)
            .max()
            .unwrap_or(0);
        let mem_fifo = (cfg.fifo_depth * cfg.pf) as u64 * dw / 8;
        // Input/weight are double-buffered (load next while computing).
        let buffer_bytes = 2 * mem_in + 2 * mem_w + mem_out + mem_fifo;
        let m20k = ((buffer_bytes * 8) as f64 / (M20K_BITS as f64 * M20K_PACKING)).ceil() as u64;

        let alms = ALM_BASE
            + ALM_PER_MAC * mults
            + ALM_PER_FU_LANE * (cfg.pf * cfg.pv) as u64
            + ALM_PER_OVERFLOW_MULT * overflow_mults;
        let registers = REG_BASE + REG_PER_MAC * mults;

        ResourceUsage {
            dsps,
            dsp_overflow: overflow_mults,
            alms,
            registers,
            m20k,
            buffer_bytes,
        }
    }

    /// Whether the estimated usage fits the device.
    pub fn fits(&self, usage: &ResourceUsage) -> bool {
        usage.dsps <= self.device.usable_dsps()
            && usage.alms <= self.device.alms
            && usage.registers <= self.device.registers
            && usage.m20k <= self.device.m20k_blocks
    }

    /// Estimate and check in one step.
    pub fn check(&self, cfg: &AccelConfig, workloads: &[&[LayerDesc]]) -> (ResourceUsage, bool) {
        let u = self.estimate(cfg, workloads);
        let ok = self.fits(&u);
        (u, ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_nn::arch::{extract_layers, resnet101_desc};
    use bnn_nn::models;
    use bnn_tensor::Shape4;

    fn paper_workloads() -> Vec<Vec<LayerDesc>> {
        vec![
            extract_layers(&models::lenet5(10, 1, 28, 1), Shape4::new(1, 1, 28, 28)),
            extract_layers(&models::vgg11(10, 3, 32, 8, 1), Shape4::new(1, 3, 32, 32)),
            extract_layers(&models::resnet18(10, 3, 16, 1), Shape4::new(1, 3, 32, 32)),
            resnet101_desc(),
        ]
    }

    #[test]
    fn paper_config_dsp_overflow_matches_table2() {
        let model = ResourceModel::new(FpgaDevice::arria10_sx660());
        let wl = paper_workloads();
        let refs: Vec<&[LayerDesc]> = wl.iter().map(|v| v.as_slice()).collect();
        let u = model.estimate(&AccelConfig::paper_default(), &refs);
        // 64*64*1/2 = 2048 needed, 1472 usable: DSPs saturate ~Table II's 1473.
        assert!((1465..=1480).contains(&u.dsps), "dsps {}", u.dsps);
        assert!(u.dsp_overflow > 1000, "overflow mults {}", u.dsp_overflow);
    }

    #[test]
    fn paper_config_alm_register_in_table2_ballpark() {
        let model = ResourceModel::new(FpgaDevice::arria10_sx660());
        let wl = paper_workloads();
        let refs: Vec<&[LayerDesc]> = wl.iter().map(|v| v.as_slice()).collect();
        let u = model.estimate(&AccelConfig::paper_default(), &refs);
        // Table II: 303,913 ALMs (71%), 889,869 registers (52%).
        let alm_frac = u.alms as f64 / 427_200.0;
        let reg_frac = u.registers as f64 / 1_708_800.0;
        assert!((0.5..=0.9).contains(&alm_frac), "ALM fraction {alm_frac}");
        assert!(
            (0.35..=0.7).contains(&reg_frac),
            "register fraction {reg_frac}"
        );
    }

    #[test]
    fn m20k_usage_dominated_by_resnet101_maps() {
        let model = ResourceModel::new(FpgaDevice::arria10_sx660());
        let wl = paper_workloads();
        let refs: Vec<&[LayerDesc]> = wl.iter().map(|v| v.as_slice()).collect();
        let u = model.estimate(&AccelConfig::paper_default(), &refs);
        // Table II: 2334 blocks (86%). The model should land in the
        // right regime (over half the device, under the budget).
        assert!(u.m20k > 1_300 && u.m20k <= 2_713, "m20k {}", u.m20k);
    }

    #[test]
    fn small_config_fits_small_device() {
        let model = ResourceModel::new(FpgaDevice::zynq_7020());
        let wl = [extract_layers(
            &models::lenet5(10, 1, 28, 1),
            Shape4::new(1, 1, 28, 28),
        )];
        let refs: Vec<&[LayerDesc]> = wl.iter().map(|v| v.as_slice()).collect();
        let (_, fits_small) = model.check(&AccelConfig::with_parallelism(8, 8, 1), &refs);
        assert!(fits_small, "8x8x1 must fit a Zynq 7020");
        let (_, fits_big) = model.check(&AccelConfig::with_parallelism(128, 128, 16), &refs);
        assert!(!fits_big, "128x128x16 cannot fit a Zynq 7020");
    }

    #[test]
    fn usage_monotone_in_parallelism() {
        let model = ResourceModel::new(FpgaDevice::arria10_sx660());
        let wl = paper_workloads();
        let refs: Vec<&[LayerDesc]> = wl.iter().map(|v| v.as_slice()).collect();
        let small = model.estimate(&AccelConfig::with_parallelism(16, 16, 1), &refs);
        let big = model.estimate(&AccelConfig::with_parallelism(64, 64, 1), &refs);
        assert!(big.alms > small.alms);
        assert!(big.dsps >= small.dsps);
        assert!(big.m20k >= small.m20k);
    }
}
