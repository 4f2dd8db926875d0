//! Optimization modes and user requirements.

/// The paper's four optimization modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptMode {
    /// Minimise prediction latency (`Opt-Latency`).
    Latency,
    /// Maximise test accuracy (`Opt-Accuracy`).
    Accuracy,
    /// Maximise average predictive entropy on OOD noise
    /// (`Opt-Uncertainty`).
    Uncertainty,
    /// Minimise expected calibration error (`Opt-Confidence`).
    Confidence,
}

impl OptMode {
    /// All four modes, in the paper's order.
    pub fn all() -> [OptMode; 4] {
        [
            OptMode::Latency,
            OptMode::Accuracy,
            OptMode::Uncertainty,
            OptMode::Confidence,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            OptMode::Latency => "Opt-Latency",
            OptMode::Accuracy => "Opt-Accuracy",
            OptMode::Uncertainty => "Opt-Uncertainty",
            OptMode::Confidence => "Opt-Confidence",
        }
    }
}

/// Minimal metric requirements (the paper's constraint box in Fig. 6).
/// `None` disables a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Requirements {
    /// Upper bound on latency in milliseconds.
    pub max_latency_ms: Option<f64>,
    /// Lower bound on accuracy (fraction, 0-1).
    pub min_accuracy: Option<f64>,
    /// Lower bound on aPE in nats.
    pub min_ape: Option<f64>,
    /// Upper bound on ECE (fraction, 0-1).
    pub max_ece: Option<f64>,
}

impl Requirements {
    /// No constraints.
    pub fn none() -> Requirements {
        Requirements::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(OptMode::Latency.label(), "Opt-Latency");
        assert_eq!(OptMode::all().len(), 4);
    }

    #[test]
    fn default_requirements_unconstrained() {
        let r = Requirements::none();
        assert!(r.max_latency_ms.is_none() && r.min_accuracy.is_none());
    }
}
