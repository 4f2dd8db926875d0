//! Stage 2: algorithmic design-space exploration and mode selection.

use crate::modes::{OptMode, Requirements};
use crate::providers::MetricProvider;
use bnn_accel::{AccelConfig, PerfModel};
use bnn_mcd::BayesConfig;
use bnn_nn::arch::LayerDesc;
use bnn_platforms::PlatformModel;

/// One evaluated `{L, S}` candidate (a point in Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePoint {
    /// Trailing Bayesian layers.
    pub l: usize,
    /// Monte Carlo samples.
    pub s: usize,
    /// FPGA latency with IC, in ms.
    pub fpga_ms: f64,
    /// FPGA latency without IC, in ms.
    pub fpga_no_ic_ms: f64,
    /// CPU latency (no IC), in ms.
    pub cpu_ms: f64,
    /// GPU latency (no IC), in ms.
    pub gpu_ms: f64,
    /// Test accuracy (0-1).
    pub accuracy: f64,
    /// aPE on noise, nats.
    pub ape: f64,
    /// ECE (0-1).
    pub ece: f64,
}

impl CandidatePoint {
    /// Whether the point satisfies the requirements (FPGA latency).
    pub fn feasible(&self, r: &Requirements) -> bool {
        r.max_latency_ms.map(|v| self.fpga_ms <= v).unwrap_or(true)
            && r.min_accuracy.map(|v| self.accuracy >= v).unwrap_or(true)
            && r.min_ape.map(|v| self.ape >= v).unwrap_or(true)
            && r.max_ece.map(|v| self.ece <= v).unwrap_or(true)
    }

    /// The objective value under a mode (always minimised).
    pub fn objective(&self, mode: OptMode) -> f64 {
        match mode {
            OptMode::Latency => self.fpga_ms,
            OptMode::Accuracy => -self.accuracy,
            OptMode::Uncertainty => -self.ape,
            OptMode::Confidence => self.ece,
        }
    }
}

/// Result of an exploration: all candidates plus the selected point.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// Hardware configuration the sweep assumed.
    pub config: AccelConfig,
    /// Every evaluated candidate.
    pub candidates: Vec<CandidatePoint>,
    /// The mode-optimal feasible candidate, if any.
    pub selected: Option<CandidatePoint>,
}

/// The algorithmic explorer for one network/workload.
#[derive(Debug)]
pub struct Explorer {
    perf: PerfModel,
    layers: Vec<LayerDesc>,
    n_sites: usize,
    cpu: PlatformModel,
    gpu: PlatformModel,
    l_domain: Vec<usize>,
    s_domain: Vec<usize>,
}

impl Explorer {
    /// Create an explorer with the paper's `L`/`S` domains.
    pub fn new(cfg: AccelConfig, layers: Vec<LayerDesc>, n_sites: usize) -> Explorer {
        Explorer {
            perf: PerfModel::new(cfg),
            layers,
            n_sites,
            cpu: PlatformModel::i9_9900k(),
            gpu: PlatformModel::rtx_2080_super(),
            l_domain: BayesConfig::l_domain(n_sites),
            s_domain: BayesConfig::s_domain().to_vec(),
        }
    }

    /// Override the `{L}` domain (tests, ablations).
    pub fn with_l_domain(mut self, ls: Vec<usize>) -> Explorer {
        self.l_domain = ls;
        self
    }

    /// Override the `{S}` domain.
    pub fn with_s_domain(mut self, ss: Vec<usize>) -> Explorer {
        self.s_domain = ss;
        self
    }

    /// The number of MCD sites of the workload.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Evaluate one `{L, S}` point.
    pub fn evaluate(
        &self,
        provider: &mut dyn MetricProvider,
        l: usize,
        s: usize,
    ) -> CandidatePoint {
        let bayes = BayesConfig::new(l, s);
        let cfg = self.perf.config();
        let fpga = self
            .perf
            .network_timing(&self.layers, bayes, true)
            .latency_ms(cfg);
        let fpga_no_ic = self
            .perf
            .network_timing(&self.layers, bayes, false)
            .latency_ms(cfg);
        let cpu = self.cpu.bayes_latency_ms(&self.layers, bayes);
        let gpu = self.gpu.bayes_latency_ms(&self.layers, bayes);
        let q = provider.metrics(l, s);
        CandidatePoint {
            l,
            s,
            fpga_ms: fpga,
            fpga_no_ic_ms: fpga_no_ic,
            cpu_ms: cpu,
            gpu_ms: gpu,
            accuracy: q.accuracy,
            ape: q.ape,
            ece: q.ece,
        }
    }

    /// Sweep the full `L × S` grid.
    pub fn candidates(&self, provider: &mut dyn MetricProvider) -> Vec<CandidatePoint> {
        let mut out = Vec::with_capacity(self.l_domain.len() * self.s_domain.len());
        for &l in &self.l_domain {
            for &s in &self.s_domain {
                out.push(self.evaluate(provider, l, s));
            }
        }
        out
    }

    /// Full exploration: sweep, filter by requirements, select by mode.
    pub fn explore(
        &self,
        provider: &mut dyn MetricProvider,
        mode: OptMode,
        requirements: &Requirements,
    ) -> ExplorationResult {
        let candidates = self.candidates(provider);
        let selected = select(&candidates, mode, requirements);
        ExplorationResult {
            config: *self.perf.config(),
            candidates,
            selected,
        }
    }
}

/// Filter by requirements and pick the mode-optimal candidate.
pub fn select(
    candidates: &[CandidatePoint],
    mode: OptMode,
    requirements: &Requirements,
) -> Option<CandidatePoint> {
    candidates
        .iter()
        .filter(|c| c.feasible(requirements))
        .min_by(|a, b| {
            a.objective(mode)
                .partial_cmp(&b.objective(mode))
                .expect("objectives are finite")
        })
        .copied()
}

/// Extract the Pareto front over a set of (minimised) objectives:
/// candidates not dominated by any other candidate. A dominates B if A
/// is no worse on every objective and strictly better on at least one.
///
/// Useful beyond the paper's single-mode selection: the front is the
/// complete menu of rational `{L, S}` choices a user could pick from.
pub fn pareto_front(candidates: &[CandidatePoint], modes: &[OptMode]) -> Vec<CandidatePoint> {
    assert!(!modes.is_empty(), "at least one objective required");
    let dominates = |a: &CandidatePoint, b: &CandidatePoint| -> bool {
        let mut strictly = false;
        for &m in modes {
            let (oa, ob) = (a.objective(m), b.objective(m));
            if oa > ob + 1e-15 {
                return false;
            }
            if oa < ob - 1e-15 {
                strictly = true;
            }
        }
        strictly
    };
    candidates
        .iter()
        .filter(|c| !candidates.iter().any(|other| dominates(other, c)))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::providers::SyntheticMetricProvider;
    use bnn_nn::{arch::extract_layers, models};
    use bnn_tensor::Shape4;

    fn explorer() -> Explorer {
        let net = models::resnet18(10, 3, 8, 1);
        let layers = extract_layers(&net, Shape4::new(1, 3, 32, 32));
        Explorer::new(AccelConfig::paper_default(), layers, net.n_sites())
    }

    #[test]
    fn grid_covers_l_times_s() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        let c = e.candidates(&mut p);
        assert_eq!(c.len(), 5 * 11, "5 L values x 11 S values");
    }

    #[test]
    fn opt_latency_selects_min_l_min_s() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        let r = e.explore(&mut p, OptMode::Latency, &Requirements::none());
        let sel = r.selected.expect("unconstrained selection exists");
        assert_eq!(
            (sel.l, sel.s),
            (1, 3),
            "paper Table I: Opt-Latency picks {{1, 3}}"
        );
    }

    #[test]
    fn opt_uncertainty_prefers_large_l_and_s() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        let r = e.explore(&mut p, OptMode::Uncertainty, &Requirements::none());
        let sel = r.selected.expect("selection exists");
        assert_eq!(sel.s, 100, "uncertainty wants the most samples");
        assert!(
            sel.l >= 12,
            "uncertainty wants many Bayesian layers, got {}",
            sel.l
        );
    }

    #[test]
    fn constraints_filter_candidates() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        // A tight latency bound forces a small-S pick even in
        // Opt-Uncertainty mode.
        let unconstrained = e
            .explore(&mut p, OptMode::Uncertainty, &Requirements::none())
            .selected
            .expect("exists");
        let tight = Requirements {
            max_latency_ms: Some(2.0),
            ..Requirements::none()
        };
        let constrained = e
            .explore(&mut p, OptMode::Uncertainty, &tight)
            .selected
            .expect("exists");
        assert!(constrained.fpga_ms <= 2.0);
        assert!(constrained.ape <= unconstrained.ape);
    }

    #[test]
    fn infeasible_constraints_yield_none() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        let impossible = Requirements {
            max_latency_ms: Some(0.0001),
            min_accuracy: Some(0.9999),
            ..Requirements::none()
        };
        let r = e.explore(&mut p, OptMode::Confidence, &impossible);
        assert!(r.selected.is_none());
    }

    #[test]
    fn selected_point_is_feasible_and_optimal() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        let req = Requirements {
            max_latency_ms: Some(40.0),
            min_ape: Some(0.4),
            min_accuracy: Some(0.90),
            ..Requirements::none()
        };
        let r = e.explore(&mut p, OptMode::Confidence, &req);
        let sel = r.selected.expect("feasible space is non-empty");
        assert!(sel.feasible(&req));
        for c in r.candidates.iter().filter(|c| c.feasible(&req)) {
            assert!(sel.ece <= c.ece + 1e-12, "selected must minimise ECE");
        }
    }

    #[test]
    fn pareto_front_contains_all_mode_optima() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        let cands = e.candidates(&mut p);
        let modes = OptMode::all();
        let front = pareto_front(&cands, &modes);
        assert!(!front.is_empty() && front.len() <= cands.len());
        for mode in modes {
            let best = select(&cands, mode, &Requirements::none()).expect("non-empty");
            assert!(
                front.iter().any(|c| (c.l, c.s) == (best.l, best.s)),
                "{} optimum must lie on the front",
                mode.label()
            );
        }
    }

    #[test]
    fn pareto_front_points_are_mutually_nondominated() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        let cands = e.candidates(&mut p);
        let modes = [OptMode::Latency, OptMode::Uncertainty];
        let front = pareto_front(&cands, &modes);
        for a in &front {
            for b in &front {
                let better_everywhere = modes
                    .iter()
                    .all(|&m| a.objective(m) < b.objective(m) - 1e-15);
                assert!(!better_everywhere, "front contains a dominated point");
            }
        }
    }

    #[test]
    fn ic_always_at_least_as_fast() {
        let e = explorer();
        let mut p = SyntheticMetricProvider::resnet18();
        for c in e.candidates(&mut p) {
            assert!(c.fpga_ms <= c.fpga_no_ic_ms + 1e-12);
        }
    }
}
