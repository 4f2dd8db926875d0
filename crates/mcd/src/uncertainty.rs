//! Shared uncertainty summaries over predictive distributions.
//!
//! Every consumer of a Monte Carlo predictive — the dataset-level
//! metrics in [`crate::avg_predictive_entropy`] /
//! [`crate::mutual_information`], the OOD examples, and the `bnn-serve`
//! front door's per-request [`Uncertainty`] reports — computes the same
//! three quantities from the same inputs:
//!
//! * **max-prob confidence**: the predictive mean's largest class
//!   probability (the quantity a confidence histogram bins);
//! * **predictive entropy** `H[p] = −Σ_k p_k ln p_k` in nats (total
//!   uncertainty: aleatoric + epistemic);
//! * **mutual information** (BALD)
//!   `I[y; M | x] = H[E_M p(y|x,M)] − E_M H[p(y|x,M)]` (the epistemic
//!   share — the part more Monte Carlo samples and more Bayesian
//!   layers can expose; OOD inputs score high here).
//!
//! This module is the single home for that math: row-level primitives
//! ([`entropy`], [`max_prob`], [`predictive_entropies`],
//! [`mutual_information_rows`]) plus the per-item [`Uncertainty`]
//! summary a serving reply carries.

use bnn_tensor::Tensor;

/// Shannon entropy in nats of one probability row: `−Σ_k p_k ln p_k`.
/// Zero-probability entries contribute nothing (the `p ln p → 0`
/// limit), so hard one-hot rows score exactly 0.
pub fn entropy(row: &[f32]) -> f64 {
    let mut h = 0.0f64;
    for &pv in row {
        let p = f64::from(pv);
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

/// Largest entry of a probability row: `(argmax, p_max)`. Ties break
/// to the first index (the same rule as `Tensor::argmax_item`).
///
/// # Panics
///
/// Panics if `row` is empty.
pub fn max_prob(row: &[f32]) -> (usize, f32) {
    assert!(!row.is_empty(), "probability row must be non-empty");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    (best, row[best])
}

/// The entropy ceiling for a `k`-class distribution: `ln k`, reached
/// by the uniform row (what an OOD confidence plot is scaled against).
pub fn max_entropy(k: usize) -> f64 {
    (k as f64).ln()
}

/// Per-row predictive entropies of an `(n, k)` probability tensor.
pub fn predictive_entropies(probs: &Tensor) -> Vec<f64> {
    (0..probs.shape().n)
        .map(|i| entropy(probs.item(i)))
        .collect()
}

/// The BALD mutual information of one batch item across Monte Carlo
/// passes: `H[mean] − E[H]`, clamped at zero (floating-point rounding
/// can push the analytically non-negative difference slightly below).
///
/// # Panics
///
/// Panics if `passes` is empty or `item` is out of range.
fn item_mutual_information(passes: &[Tensor], item: usize) -> f64 {
    assert!(!passes.is_empty(), "at least one Monte Carlo pass required");
    let k = passes[0].shape().item_len();
    let mut mean = vec![0.0f64; k];
    let mut expected_h = 0.0f64;
    for p in passes {
        let row = p.item(item);
        let mut h = 0.0f64;
        for (j, &v) in row.iter().enumerate() {
            let v = f64::from(v);
            mean[j] += v;
            if v > 0.0 {
                h -= v * v.ln();
            }
        }
        expected_h += h;
    }
    let inv = 1.0 / passes.len() as f64;
    expected_h *= inv;
    let mut h_mean = 0.0f64;
    for m in &mut mean {
        *m *= inv;
        if *m > 0.0 {
            h_mean -= *m * m.ln();
        }
    }
    (h_mean - expected_h).max(0.0)
}

/// Per-row BALD mutual information across Monte Carlo passes (each
/// pass an `(n, k)` probability tensor).
///
/// # Panics
///
/// Panics if `passes` is empty.
pub fn mutual_information_rows(passes: &[Tensor]) -> Vec<f64> {
    assert!(!passes.is_empty(), "at least one Monte Carlo pass required");
    (0..passes[0].shape().n)
        .map(|i| item_mutual_information(passes, i))
        .collect()
}

/// The uncertainty summary of one served prediction, as handed to a
/// `bnn-serve` caller next to its probability row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uncertainty {
    /// Predicted class: argmax of the predictive mean.
    pub predicted: usize,
    /// Max-prob confidence: the predictive mean's largest probability.
    pub confidence: f32,
    /// Predictive entropy of the mean in nats (total uncertainty;
    /// ceiling [`max_entropy`]`(k)`).
    pub entropy: f64,
    /// BALD mutual information in nats (the epistemic share).
    pub mutual_information: f64,
}

impl Uncertainty {
    /// Summarize one batch item from its predictive mean and the
    /// per-sample passes that produced it ([`crate::mean_probs`] of the
    /// same passes — entropy and confidence are computed from the f32
    /// mean actually handed to the caller, mutual information from the
    /// per-sample rows).
    ///
    /// # Panics
    ///
    /// Panics if `passes` is empty or `item` is out of range.
    pub fn summarize(mean: &Tensor, passes: &[Tensor], item: usize) -> Uncertainty {
        let row = mean.item(item);
        let (predicted, confidence) = max_prob(row);
        Uncertainty {
            predicted,
            confidence,
            entropy: entropy(row),
            mutual_information: item_mutual_information(passes, item),
        }
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
    fn entropy_of_hand_computed_distributions() {
        // Uniform over 4: exactly ln 4.
        assert!((entropy(&[0.25; 4]) - 4.0f64.ln()).abs() < 1e-12);
        // One-hot: exactly 0 (zero entries contribute nothing).
        assert_eq!(entropy(&[1.0, 0.0, 0.0]), 0.0);
        // (0.5, 0.5): ln 2.
        assert!((entropy(&[0.5, 0.5]) - 2.0f64.ln()).abs() < 1e-12);
        // (0.75, 0.25) by hand: −0.75 ln 0.75 − 0.25 ln 0.25
        //  = 0.215762... + 0.346573... = 0.562335...
        let want = -(0.75f64 * 0.75f64.ln()) - 0.25f64 * 0.25f64.ln();
        assert!((entropy(&[0.75, 0.25]) - want).abs() < 1e-6);
        assert!((want - 0.5623351446188083).abs() < 1e-12);
    }

    #[test]
    fn max_prob_picks_first_on_ties() {
        assert_eq!(max_prob(&[0.1, 0.6, 0.3]), (1, 0.6));
        assert_eq!(max_prob(&[0.4, 0.4, 0.2]), (0, 0.4));
        assert_eq!(max_prob(&[1.0]), (0, 1.0));
    }

    #[test]
    fn max_entropy_is_uniform_entropy() {
        for k in [2usize, 10, 1000] {
            let uniform = vec![1.0f32 / k as f32; k];
            assert!((entropy(&uniform) - max_entropy(k)).abs() < 1e-4);
        }
    }

    #[test]
    fn predictive_entropies_are_per_row() {
        let p = probs(vec![vec![1.0, 0.0], vec![0.5, 0.5]]);
        let h = predictive_entropies(&p);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0], 0.0);
        assert!((h[1] - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn mutual_information_of_hand_computed_passes() {
        // Two confident, contradictory passes on one item:
        // mean = (0.5, 0.5) → H[mean] = ln 2; each pass is one-hot →
        // E[H] = 0; MI = ln 2 exactly.
        let a = probs(vec![vec![1.0, 0.0]]);
        let b = probs(vec![vec![0.0, 1.0]]);
        let mi = item_mutual_information(&[a, b], 0);
        assert!((mi - 2.0f64.ln()).abs() < 1e-12);

        // Identical passes: H[mean] = E[H] → MI exactly 0.
        let p = probs(vec![vec![0.7, 0.3]]);
        assert!(item_mutual_information(&[p.clone(), p], 0) < 1e-12);
    }

    #[test]
    fn mutual_information_rows_match_items() {
        let a = probs(vec![vec![1.0, 0.0], vec![0.6, 0.4]]);
        let b = probs(vec![vec![0.0, 1.0], vec![0.6, 0.4]]);
        let rows = mutual_information_rows(&[a.clone(), b.clone()]);
        assert_eq!(rows.len(), 2);
        assert!((rows[0] - 2.0f64.ln()).abs() < 1e-12, "disagreeing item");
        assert!(rows[1] < 1e-12, "agreeing item is purely aleatoric");
        assert_eq!(rows[0], item_mutual_information(&[a, b], 0));
    }

    #[test]
    fn summarize_combines_all_three() {
        let a = probs(vec![vec![1.0, 0.0]]);
        let b = probs(vec![vec![0.0, 1.0]]);
        let mean = crate::mean_probs(&[a.clone(), b.clone()], 2);
        let u = Uncertainty::summarize(&mean, &[a, b], 0);
        assert_eq!(u.predicted, 0, "tie breaks to the first class");
        assert!((f64::from(u.confidence) - 0.5).abs() < 1e-7);
        assert!((u.entropy - 2.0f64.ln()).abs() < 1e-6);
        assert!((u.mutual_information - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one Monte Carlo pass")]
    fn mutual_information_rejects_empty_passes() {
        let _ = mutual_information_rows(&[]);
    }
}
