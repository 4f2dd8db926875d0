//! Order statistics over exact samples: nearest-rank percentiles,
//! medians, quartile spread, and the per-window summary every
//! throughput and latency metric carries into the result document.

/// Nearest-rank percentile of **sorted** samples: the smallest sample
/// with at least `pct` percent of the samples at or below it.
/// `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a copy of `values` ascending (NaNs last; none are expected).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median with the two middle samples averaged on an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by linear interpolation between the two
/// nearest order statistics at `p·(n+1)` — the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, which is what the
/// acceptance spread is computed with. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    Some((at(0.25), at(0.75)))
}

/// `(q3 − q1) ÷ median`: the run-to-run (or window-to-window) spread
/// as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m)
}

/// A metric in every measurement window of a pass. The quartiles say
/// how far apart the windows were, which `compare` reads as the noise
/// of a run; the value a run reports comes from its quietest windows
/// (`run::Quiet`), not from this median.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Median of the per-window values.
    pub median: f64,
    /// First quartile of the per-window values.
    pub q1: f64,
    /// Third quartile of the per-window values.
    pub q3: f64,
    /// The per-window values, in time order.
    pub values: Vec<f64>,
}

/// Reduce per-window values (windows without a value are skipped).
pub fn over_windows(per_window: &[Option<f64>]) -> Option<Windowed> {
    let values: Vec<f64> = per_window.iter().flatten().copied().collect();
    let m = median(&values)?;
    let (q1, q3) = quartiles(&values).unwrap_or((m, m));
    Some(Windowed {
        median: m,
        q1,
        q3,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_hand_computed_vector() {
        // 1..=10: p50 = 5th sample, p90 = 9th, p99 = 10th, p10 = 1st.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(5.0));
        assert_eq!(percentile_sorted(&v, 90.0), Some(9.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(10.0));
        assert_eq!(percentile_sorted(&v, 10.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(10.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        // spread = (8.25 - 2.75) / 5.5 = 1.0
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_windows_ignores_one_outlier_window() {
        let windows = [
            Some(100.0),
            Some(101.0),
            None,
            Some(99.0),
            Some(500.0),
            Some(100.0),
        ];
        let w = over_windows(&windows).unwrap();
        assert_eq!(w.median, 100.0);
        assert_eq!(w.values.len(), 5);
        assert!(w.q1 >= 99.0 && w.q3 <= 500.0);
        assert_eq!(over_windows(&[None, None]), None);
    }
}
