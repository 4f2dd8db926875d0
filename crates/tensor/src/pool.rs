//! Pooling kernels (max, global average) with backward passes.

use crate::im2col::conv_out_dim;
use crate::shape::Shape4;
use crate::tensor::Tensor;

/// Max-pool over `k×k` windows with the given stride.
///
/// Returns the pooled tensor and the flat argmax index (into the input
/// tensor's buffer) per output element, which the backward pass routes
/// gradients through.
///
/// # Panics
///
/// Panics if the geometry is invalid.
pub fn max_pool(x: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<u32>) {
    let s = x.shape();
    let ho = conv_out_dim(s.h, k, stride, 0);
    let wo = conv_out_dim(s.w, k, stride, 0);
    let out_shape = Shape4::new(s.n, s.c, ho, wo);
    let mut out = Tensor::zeros(out_shape);
    let mut arg = vec![0u32; out_shape.len()];
    for n in 0..s.n {
        for c in 0..s.c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    // A window of all `-inf`/NaN never updates: its
                    // argmax must still lie inside it, not at flat
                    // index 0 (another item's pixel).
                    let mut best_i = s.index(n, c, oy * stride, ox * stride);
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = oy * stride + ky;
                            let ix = ox * stride + kx;
                            if iy < s.h && ix < s.w {
                                let i = s.index(n, c, iy, ix);
                                let v = x.as_slice()[i];
                                if v > best {
                                    best = v;
                                    best_i = i;
                                }
                            }
                        }
                    }
                    let o = out_shape.index(n, c, oy, ox);
                    out.as_mut_slice()[o] = best;
                    arg[o] = best_i as u32;
                }
            }
        }
    }
    (out, arg)
}

/// Max-pool into a caller-provided output tensor, discarding the
/// argmax indices (evaluation-mode scratch-reuse hot path).
///
/// Every output starts at `-inf` and folds its window's taps with
/// `f32::max` in `(ky, kx)`-ascending order, one input row slice per
/// `ky` — the per-element sequence of the indexed `for ky { for kx {
/// acc = acc.max(x[..]) } }` loop, so signed zeros and NaNs come out as
/// they do there. Windows with `k = stride = 2` (LeNet-5's pools) take
/// the same four folds per output from two rows read as `[f32; 2]`
/// pairs, a loop the compiler can vectorise where the strided one is
/// not.
///
/// # Panics
///
/// Panics if `out` does not have the pooled output shape.
pub fn max_pool_into(x: &Tensor, k: usize, stride: usize, out: &mut Tensor) {
    let (init, fold) = (f32::NEG_INFINITY, f32::max);
    let s = x.shape();
    let ho = conv_out_dim(s.h, k, stride, 0);
    let wo = conv_out_dim(s.w, k, stride, 0);
    assert_eq!(
        out.shape(),
        Shape4::new(s.n, s.c, ho, wo),
        "max_pool_into: bad output shape"
    );
    // No padding and a floored output size: no window leaves the input.
    assert!((ho - 1) * stride + k <= s.h && (wo - 1) * stride + k <= s.w);
    let (xs, os) = (x.as_slice(), out.as_mut_slice());
    for (row, out_row) in os.chunks_exact_mut(wo).enumerate() {
        let (plane, oy) = (row / ho, row % ho);
        let in_row = |ky: usize| &xs[(plane * s.h + oy * stride + ky) * s.w..][..s.w];
        if (k, stride) == (2, 2) {
            let pairs = |ky: usize| in_row(ky)[..2 * wo].as_chunks::<2>().0;
            for ((o, p0), p1) in out_row.iter_mut().zip(pairs(0)).zip(pairs(1)) {
                *o = fold(fold(fold(fold(init, p0[0]), p0[1]), p1[0]), p1[1]);
            }
            continue;
        }
        out_row.fill(init);
        for ky in 0..k {
            let in_row = in_row(ky);
            for kx in 0..k {
                for (o, &v) in out_row.iter_mut().zip(in_row[kx..].iter().step_by(stride)) {
                    *o = fold(*o, v);
                }
            }
        }
    }
}

/// Backward of [`max_pool`]: routes `dy` to the argmax positions.
///
/// # Panics
///
/// Panics if `dy.len() != arg.len()`.
pub fn max_pool_backward(dy: &Tensor, arg: &[u32], input_shape: Shape4) -> Tensor {
    assert_eq!(dy.len(), arg.len(), "gradient/argmax length mismatch");
    let mut dx = Tensor::zeros(input_shape);
    for (g, &i) in dy.iter().zip(arg) {
        dx.as_mut_slice()[i as usize] += *g;
    }
    dx
}

/// Global average pool `(n, c, h, w) → (n, c, 1, 1)` into a
/// caller-provided tensor.
///
/// # Panics
///
/// Panics if `out` does not have shape `(n, c, 1, 1)`.
pub fn global_avg_pool_into(x: &Tensor, out: &mut Tensor) {
    let s = x.shape();
    assert_eq!(
        out.shape(),
        Shape4::new(s.n, s.c, 1, 1),
        "global_avg_pool_into: bad shape"
    );
    let inv = 1.0 / (s.h * s.w) as f32;
    let plane = s.h * s.w;
    for n in 0..s.n {
        let item = x.item(n);
        for c in 0..s.c {
            let acc: f32 = item[c * plane..(c + 1) * plane].iter().sum();
            *out.at_mut(n, c, 0, 0) = acc * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: usize, c: usize, h: usize, w: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape4::new(n, c, h, w), v)
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let x = t(
            2,
            2,
            4,
            4,
            (0..64).map(|i| ((i * 7) % 13) as f32 - 6.0).collect(),
        );
        let (want_max, _) = max_pool(&x, 2, 2);
        let mut got = Tensor::zeros(want_max.shape());
        max_pool_into(&x, 2, 2, &mut got);
        assert_eq!(got.as_slice(), want_max.as_slice());
    }

    #[test]
    fn max_pool_2x2() {
        let x = t(1, 1, 2, 2, vec![1., 5., 3., 2.]);
        let (y, arg) = max_pool(&x, 2, 2);
        assert_eq!(y.as_slice(), &[5.0]);
        assert_eq!(arg, vec![1]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = t(1, 1, 2, 2, vec![1., 5., 3., 2.]);
        let (_, arg) = max_pool(&x, 2, 2);
        let dy = t(1, 1, 1, 1, vec![10.0]);
        let dx = max_pool_backward(&dy, &arg, x.shape());
        assert_eq!(dx.as_slice(), &[0., 10., 0., 0.]);
    }

    #[test]
    fn max_pool_argmax_stays_inside_a_window_that_never_updates() {
        // Item 1 is all NaN: its windows must route their gradient to
        // their own first tap, leaving item 0's gradient untouched.
        let mut v = vec![1., 5., 3., 2.];
        v.extend([f32::NAN; 4]);
        let x = t(2, 1, 2, 2, v);
        let (_, arg) = max_pool(&x, 2, 2);
        assert_eq!(arg, vec![1, 4]);
        let dy = t(2, 1, 1, 1, vec![10.0, 7.0]);
        let dx = max_pool_backward(&dy, &arg, x.shape());
        assert_eq!(dx.as_slice(), &[0., 10., 0., 0., 7., 0., 0., 0.]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial() {
        let x = t(1, 2, 2, 2, vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let mut y = Tensor::zeros(Shape4::new(1, 2, 1, 1));
        global_avg_pool_into(&x, &mut y);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn max_pool_multichannel_independent() {
        let x = t(1, 2, 2, 2, vec![1., 2., 3., 4., 8., 7., 6., 5.]);
        let (y, _) = max_pool(&x, 2, 2);
        assert_eq!(y.as_slice(), &[4.0, 8.0]);
    }

    #[test]
    fn pool_stride_smaller_than_kernel() {
        // 3x3 input, 2x2 kernel, stride 1 -> 2x2 out (overlapping windows).
        let x = t(1, 1, 3, 3, vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let (y, _) = max_pool(&x, 2, 1);
        assert_eq!(y.as_slice(), &[5., 6., 8., 9.]);
    }
}
