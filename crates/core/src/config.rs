//! Accelerator configuration: parallelism, clock, memory interface.

use bnn_quant::Tile;

/// Off-chip DDR interface model.
///
/// Transfers are modelled as `setup + bytes / bytes_per_cycle`:
/// a DMA configuration cost followed by streaming at the effective
/// (not peak) bandwidth. The defaults correspond to one 64-bit
/// DDR4-2400 channel (19.2 GB/s peak) at 75% sequential-burst
/// efficiency when clocked against the 225 MHz fabric — 64 bytes per
/// fabric cycle (weight streaming is long sequential bursts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrConfig {
    /// Effective bytes transferred per fabric cycle.
    pub bytes_per_cycle: f64,
    /// DMA setup cost per transfer, in cycles.
    pub setup_cycles: u64,
}

impl Default for DdrConfig {
    fn default() -> Self {
        DdrConfig {
            bytes_per_cycle: 64.0,
            setup_cycles: 300,
        }
    }
}

impl DdrConfig {
    /// Cycles to move `bytes` in one streaming transfer.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.setup_cycles + (bytes as f64 / self.bytes_per_cycle).ceil() as u64
    }
}

/// Full accelerator configuration (paper Section III/V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Channel parallelism `P_C` (multipliers per MAC module).
    pub pc: usize,
    /// Filter parallelism `P_F` (processing units).
    pub pf: usize,
    /// Vector parallelism `P_V` (MAC modules per PU).
    pub pv: usize,
    /// Fabric clock in MHz.
    pub clock_mhz: f64,
    /// Activation/weight data width in bytes (8-bit → 1).
    pub dw_bytes: usize,
    /// DDR interface.
    pub ddr: DdrConfig,
    /// Bernoulli-sampler FIFO depth `D` (words of `P_F` bits).
    pub fifo_depth: usize,
    /// Per-layer control overhead in cycles (command issue, pipeline
    /// drain between layers).
    pub layer_overhead_cycles: u64,
    /// Total board power in watts (paper: 45 W measured).
    pub board_power_w: f64,
}

impl Default for AccelConfig {
    /// [`AccelConfig::paper_default`] — the synthesised configuration,
    /// so the config composes in builder APIs like the other public
    /// config structs ([`Default`] on `ParallelConfig`, `DdrConfig`).
    fn default() -> AccelConfig {
        AccelConfig::paper_default()
    }
}

impl AccelConfig {
    /// The paper's synthesised configuration:
    /// `P_C = 64, P_F = 64, P_V = 1` at 225 MHz, 8-bit data, 45 W.
    pub fn paper_default() -> AccelConfig {
        AccelConfig {
            pc: 64,
            pf: 64,
            pv: 1,
            clock_mhz: 225.0,
            dw_bytes: 1,
            ddr: DdrConfig::default(),
            fifo_depth: 64,
            layer_overhead_cycles: 500,
            board_power_w: 45.0,
        }
    }

    /// Same architecture with different parallelism (for the DSE).
    pub fn with_parallelism(pc: usize, pf: usize, pv: usize) -> AccelConfig {
        AccelConfig {
            pc,
            pf,
            pv,
            ..AccelConfig::paper_default()
        }
    }

    /// The framework's hardware design space (paper Section IV-A):
    /// `P_C, P_F ∈ {8,16,32,64,128}`, `P_V ∈ {1,4,8,16}`.
    pub fn design_space() -> Vec<AccelConfig> {
        let dom_cf = [8usize, 16, 32, 64, 128];
        let dom_v = [1usize, 4, 8, 16];
        let mut out = Vec::new();
        for &pc in &dom_cf {
            for &pf in &dom_cf {
                for &pv in &dom_v {
                    out.push(AccelConfig::with_parallelism(pc, pf, pv));
                }
            }
        }
        out
    }

    /// The PE array as the integer kernel's tile: `P_F` filters × `P_V`
    /// pixels × `P_C` reduction taps.
    pub fn tile(&self) -> Tile {
        Tile {
            pf: self.pf,
            pv: self.pv,
            pc: self.pc,
        }
    }

    /// Total multipliers in the PE array.
    pub fn multipliers(&self) -> usize {
        self.pc * self.pf * self.pv
    }

    /// Peak throughput in GOP/s (2 ops per MAC).
    pub fn peak_gops(&self) -> f64 {
        2.0 * self.multipliers() as f64 * self.clock_mhz / 1e3
    }

    /// Convert cycles to milliseconds at the configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1e3)
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.pc == 0 || self.pf == 0 || self.pv == 0 {
            return Err("parallelism degrees must be non-zero".into());
        }
        if !(self.clock_mhz.is_finite() && self.clock_mhz > 0.0) {
            return Err("clock must be positive".into());
        }
        if self.dw_bytes == 0 {
            return Err("data width must be non-zero".into());
        }
        if self.fifo_depth == 0 {
            return Err("FIFO depth must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_peak_matches_hand_calc() {
        let c = AccelConfig::paper_default();
        assert_eq!(c.multipliers(), 4096);
        // 4096 MACs * 2 ops * 225 MHz = 1843.2 GOP/s.
        assert!((c.peak_gops() - 1843.2).abs() < 0.1);
    }

    #[test]
    fn design_space_size() {
        assert_eq!(AccelConfig::design_space().len(), 5 * 5 * 4);
    }

    #[test]
    fn cycles_to_ms_at_225mhz() {
        let c = AccelConfig::paper_default();
        assert!((c.cycles_to_ms(225_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ddr_transfer_includes_setup() {
        let d = DdrConfig {
            bytes_per_cycle: 32.0,
            setup_cycles: 300,
        };
        assert_eq!(d.transfer_cycles(0), 0);
        assert_eq!(d.transfer_cycles(32), 301);
        assert_eq!(d.transfer_cycles(3200), 400);
        let default = DdrConfig::default();
        assert_eq!(default.transfer_cycles(6400), 400);
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut c = AccelConfig::paper_default();
        c.pc = 0;
        assert!(c.validate().is_err());
        assert!(AccelConfig::paper_default().validate().is_ok());
    }
}
