//! Elementwise and row-wise numeric kernels.

/// ReLU in place.
pub fn relu_inplace(xs: &mut [f32]) {
    for x in xs {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

/// `ys += xs` elementwise (residual shortcut addition).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_inplace(ys: &mut [f32], xs: &[f32]) {
    assert_eq!(ys.len(), xs.len(), "length mismatch in add");
    for (y, &x) in ys.iter_mut().zip(xs) {
        *y += x;
    }
}

/// Numerically-stable softmax applied to each row of a `rows × cols`
/// row-major matrix.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn softmax_rows(data: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols, "matrix size mismatch");
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Numerically-stable log-softmax applied row-wise (for NLL loss).
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn log_softmax_rows(data: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols, "matrix size mismatch");
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut xs = vec![-1.0, 0.0, 2.0, -0.5];
        relu_inplace(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn add_accumulates() {
        let mut ys = vec![1.0, 2.0];
        add_inplace(&mut ys, &[10.0, 20.0]);
        assert_eq!(ys, vec![11.0, 22.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut m, 2, 3);
        for r in 0..2 {
            let s: f32 = m[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(m[2] > m[1] && m[1] > m[0], "softmax must be monotone");
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut m = vec![1000.0, 1001.0];
        softmax_rows(&mut m, 1, 2);
        assert!(m.iter().all(|v| v.is_finite()));
        assert!((m[0] + m[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let logits = vec![0.5, -1.0, 2.0];
        let mut a = logits.clone();
        softmax_rows(&mut a, 1, 3);
        let mut b = logits;
        log_softmax_rows(&mut b, 1, 3);
        for (pa, lb) in a.iter().zip(&b) {
            assert!((pa.ln() - lb).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_uniform_softmax() {
        let mut m = vec![4.2; 5];
        softmax_rows(&mut m, 1, 5);
        for v in &m {
            assert!((v - 0.2).abs() < 1e-6);
        }
    }
}
