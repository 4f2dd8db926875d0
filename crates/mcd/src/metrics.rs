//! Uncertainty and calibration metrics (paper Section V-A).

use bnn_tensor::Tensor;

/// Classification accuracy of predictive probabilities `(n, k)`
/// against integer labels.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch dimension.
pub fn accuracy(probs: &Tensor, labels: &[usize]) -> f64 {
    let n = probs.shape().n;
    assert_eq!(labels.len(), n, "one label per row required");
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(i, &y)| probs.argmax_item(i) == y)
        .count();
    correct as f64 / n as f64
}

/// Average predictive entropy in nats:
/// `aPE = 1/E Σ_e −Σ_k p(y_k|x_e) log p(y_k|x_e)`.
///
/// The paper evaluates this on Gaussian-noise inputs — higher is
/// better there (the network *should* be uncertain). The per-row
/// entropies come from the shared [`crate::uncertainty`] primitives.
pub fn avg_predictive_entropy(probs: &Tensor) -> f64 {
    let n = probs.shape().n;
    crate::uncertainty::predictive_entropies(probs)
        .into_iter()
        .sum::<f64>()
        / n as f64
}

/// Decomposed epistemic uncertainty: the BALD mutual information
/// `I[y; M | x] = H[E_M p(y|x,M)] − E_M H[p(y|x,M)]` averaged over a
/// dataset, computed from the per-sample probability tensors of a run
/// ([`crate::RequestResult::passes`]).
///
/// Total entropy splits into *aleatoric* (expected per-sample entropy,
/// noise the model cannot remove) and *epistemic* (the mutual
/// information, which more Monte Carlo samples and more Bayesian
/// layers can expose). OOD inputs show high epistemic uncertainty;
/// ambiguous in-distribution inputs show high aleatoric uncertainty.
///
/// # Panics
///
/// Panics if `passes` is empty.
pub fn mutual_information(passes: &[Tensor]) -> f64 {
    assert!(!passes.is_empty(), "at least one Monte Carlo pass required");
    let n = passes[0].shape().n;
    crate::uncertainty::mutual_information_rows(passes)
        .into_iter()
        .sum::<f64>()
        / n as f64
}

/// Mean negative log-likelihood of the labels under the predictive.
pub fn nll(probs: &Tensor, labels: &[usize]) -> f64 {
    let n = probs.shape().n;
    assert_eq!(labels.len(), n, "one label per row required");
    let mut total = 0.0f64;
    for (i, &y) in labels.iter().enumerate() {
        let p = f64::from(probs.item(i)[y]).max(1e-12);
        total -= p.ln();
    }
    total / n as f64
}

/// Reliability-diagram data behind an ECE evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Per-bin sample counts.
    pub counts: Vec<usize>,
    /// Per-bin mean confidence.
    pub confidence: Vec<f64>,
    /// Per-bin accuracy.
    pub accuracy: Vec<f64>,
    /// Expected calibration error (weighted |acc − conf|).
    pub ece: f64,
}

/// Expected calibration error with `bins` equal-width confidence bins
/// (the paper uses 10).
///
/// # Panics
///
/// Panics if `bins == 0` or label/row counts mismatch.
pub fn ece(probs: &Tensor, labels: &[usize], bins: usize) -> Calibration {
    assert!(bins > 0, "at least one bin required");
    let n = probs.shape().n;
    assert_eq!(labels.len(), n, "one label per row required");
    let mut counts = vec![0usize; bins];
    let mut conf_sum = vec![0.0f64; bins];
    let mut acc_sum = vec![0.0f64; bins];
    for (i, &y) in labels.iter().enumerate() {
        let pred = probs.argmax_item(i);
        let conf = f64::from(probs.item(i)[pred]);
        let b = ((conf * bins as f64) as usize).min(bins - 1);
        counts[b] += 1;
        conf_sum[b] += conf;
        acc_sum[b] += f64::from(u8::from(pred == y));
    }
    let mut ece_val = 0.0f64;
    let mut confidence = vec![0.0f64; bins];
    let mut accuracy_v = vec![0.0f64; bins];
    for b in 0..bins {
        if counts[b] == 0 {
            continue;
        }
        confidence[b] = conf_sum[b] / counts[b] as f64;
        accuracy_v[b] = acc_sum[b] / counts[b] as f64;
        ece_val += (counts[b] as f64 / n as f64) * (accuracy_v[b] - confidence[b]).abs();
    }
    Calibration {
        counts,
        confidence,
        accuracy: accuracy_v,
        ece: ece_val,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_tensor::Shape4;

    fn probs(rows: Vec<Vec<f32>>) -> Tensor {
        let n = rows.len();
        let k = rows[0].len();
        Tensor::from_vec(Shape4::vec(n, k), rows.into_iter().flatten().collect())
    }

    #[test]
    fn accuracy_counts_argmax() {
        let p = probs(vec![vec![0.9, 0.1], vec![0.2, 0.8], vec![0.6, 0.4]]);
        assert!((accuracy(&p, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_extremes() {
        let uniform = probs(vec![vec![0.25; 4]]);
        assert!((avg_predictive_entropy(&uniform) - (4.0f64).ln()).abs() < 1e-6);
        let point = probs(vec![vec![1.0, 0.0, 0.0, 0.0]]);
        assert!(avg_predictive_entropy(&point) < 1e-9);
    }

    #[test]
    fn entropy_monotone_in_uncertainty() {
        let sharp = probs(vec![vec![0.9, 0.05, 0.05]]);
        let flat = probs(vec![vec![0.5, 0.3, 0.2]]);
        assert!(avg_predictive_entropy(&flat) > avg_predictive_entropy(&sharp));
    }

    #[test]
    fn nll_prefers_confident_correct() {
        let good = probs(vec![vec![0.9, 0.1]]);
        let bad = probs(vec![vec![0.1, 0.9]]);
        assert!(nll(&good, &[0]) < nll(&bad, &[0]));
    }

    #[test]
    fn perfectly_calibrated_has_zero_ece() {
        // Confidence 1.0 and always correct.
        let p = probs(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let c = ece(&p, &[0, 0], 10);
        assert!(c.ece < 1e-9);
    }

    #[test]
    fn overconfident_wrong_predictions_raise_ece() {
        // Confidence ~0.95 but only 50% correct.
        let p = probs(vec![vec![0.95, 0.05], vec![0.95, 0.05]]);
        let c = ece(&p, &[0, 1], 10);
        assert!((c.ece - 0.45).abs() < 1e-6, "ece = {}", c.ece);
    }

    #[test]
    fn ece_bins_partition_samples() {
        let p = probs(vec![
            vec![0.55, 0.45],
            vec![0.65, 0.35],
            vec![0.95, 0.05],
            vec![0.31, 0.69],
        ]);
        let c = ece(&p, &[0, 0, 0, 1], 10);
        assert_eq!(c.counts.iter().sum::<usize>(), 4);
    }

    #[test]
    fn mutual_information_zero_for_identical_passes() {
        // No disagreement between samples => purely aleatoric.
        let p = probs(vec![vec![0.7, 0.3]]);
        let passes = vec![p.clone(), p.clone(), p];
        assert!(mutual_information(&passes) < 1e-9);
    }

    #[test]
    fn mutual_information_positive_for_disagreeing_passes() {
        // Confident but contradictory samples => epistemic uncertainty.
        let a = probs(vec![vec![0.99, 0.01]]);
        let b = probs(vec![vec![0.01, 0.99]]);
        let mi = mutual_information(&[a, b]);
        // H[mean] = H[0.5] = ln 2; E[H] ~ 0.056; MI ~ 0.637.
        assert!(mi > 0.5, "mi = {mi}");
    }

    #[test]
    fn mutual_information_bounded_by_total_entropy() {
        let a = probs(vec![vec![0.6, 0.4]]);
        let b = probs(vec![vec![0.4, 0.6]]);
        let mi = mutual_information(&[a.clone(), b]);
        assert!(mi <= (2.0f64).ln() + 1e-9);
        assert!(mi >= 0.0);
    }

    #[test]
    fn ece_handles_confidence_one() {
        // conf = 1.0 must land in the last bin, not overflow.
        let p = probs(vec![vec![1.0, 0.0]]);
        let c = ece(&p, &[1], 10);
        assert_eq!(c.counts[9], 1);
        assert!((c.ece - 1.0).abs() < 1e-9, "confident and wrong: ECE 1");
    }
}
