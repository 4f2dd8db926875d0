//! Convolution lowering: the zero-padded phase planes the inference
//! path's convolutions read in place, and im2col / col2im.
//!
//! Inference never materialises a column matrix: [`pad_phases_into`]
//! writes the padded input once, and [`crate::gemm_rows`] reads each
//! row `(c, ky, kx)` of the column matrix as one contiguous run of it.
//! [`im2col`] and [`col2im`] remain for training's backward pass, and
//! [`im2col_stacked_into`] for the probe that times the lowering.
//!
//! A convolution with `F` filters over a `C×H×W` input becomes the
//! GEMM `W[F × C·K·K] · cols[C·K·K × Ho·Wo]`. This mirrors the
//! accelerator's processing-engine dataflow: the `C·K·K` dimension is
//! what the PE's channel parallelism `P_C` tiles, and `Ho·Wo` is what
//! the vector parallelism `P_V` tiles.

/// Output spatial dimension of a convolution/pooling:
/// `floor((in + 2*pad - kernel)/stride) + 1`.
///
/// # Panics
///
/// Panics if `stride == 0` or the kernel does not fit the padded input.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be non-zero");
    assert!(input + 2 * pad >= kernel, "kernel larger than padded input");
    (input + 2 * pad - kernel) / stride + 1
}

/// Expand one `C×H×W` image into a `[C·K·K, Ho·Wo]` column matrix
/// (row-major). Out-of-bounds (padding) taps contribute zeros.
///
/// # Panics
///
/// Panics if `image.len() != c*h*w` or the geometry is invalid.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let ho = conv_out_dim(h, k, stride, pad);
    let wo = conv_out_dim(w, k, stride, pad);
    let mut cols = vec![0.0f32; c * k * k * ho * wo];
    im2col_stacked_into(image, c, h, w, k, stride, pad, &mut cols, ho * wo, 0);
    cols
}

/// [`im2col`] into a caller-provided buffer, targeting one column
/// block of a *sample-stacked* column matrix `[C·K·K, total_cols]`
/// (row-major): the image's `[C·K·K, Ho·Wo]` columns land at column
/// offset `col0` of every row (`total_cols = Ho·Wo`, `col0 = 0` is
/// the plain single-image layout).
///
/// This is the buffer builder for batched-sample GEMM fusion: each
/// Monte Carlo sample's (or batch item's) im2col block is written side
/// by side so one [`crate::gemm_stacked`] call covers all of them,
/// streaming the weight matrix once. The written block — including its
/// zero padding taps — is fully overwritten, so the buffer needs no
/// clearing between passes; columns outside the block are untouched.
///
/// # Panics
///
/// Panics if `image.len() != c*h*w`, `cols` is not exactly
/// `c*k*k*total_cols` long, or the block does not fit at `col0`.
#[allow(clippy::too_many_arguments)]
pub fn im2col_stacked_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    cols: &mut [f32],
    total_cols: usize,
    col0: usize,
) {
    assert_eq!(image.len(), c * h * w, "image buffer must be c*h*w");
    let ho = conv_out_dim(h, k, stride, pad);
    let wo = conv_out_dim(w, k, stride, pad);
    let row_len = ho * wo;
    assert!(
        col0 + row_len <= total_cols,
        "column block [{col0}, {}) exceeds the stacked width {total_cols}",
        col0 + row_len
    );
    assert_eq!(
        cols.len(),
        c * k * k * total_cols,
        "cols buffer must match the stacked geometry"
    );
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let out_row = &mut cols[row * total_cols + col0..row * total_cols + col0 + row_len];
                // Output columns whose tap lands on a pixel,
                // `pad ≤ ox·stride + kx < w + pad`: one interval per
                // tap, empty when the tap lies wholly in the padding.
                let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(wo);
                let ox_hi = (w + pad)
                    .saturating_sub(kx)
                    .div_ceil(stride)
                    .clamp(ox_lo, wo);
                for (oy, dst) in out_row.chunks_exact_mut(wo).enumerate() {
                    let iy = oy * stride + ky;
                    if iy < pad || iy >= h + pad || ox_lo == ox_hi {
                        dst.fill(0.0);
                        continue;
                    }
                    dst[..ox_lo].fill(0.0);
                    dst[ox_hi..].fill(0.0);
                    let src = &image[(ch * h + iy - pad) * w + ox_lo * stride + kx - pad..];
                    let dst = &mut dst[ox_lo..ox_hi];
                    if stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &s) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = s;
                        }
                    }
                }
            }
        }
    }
}

/// Write one `C×H×W` image zero-padded by `pad` and split into
/// `stride²` phase planes: the operand a direct convolution reads
/// through [`crate::gemm_rows`] instead of an im2col matrix.
///
/// With `s = stride`, `Hp = H + 2·pad` and `Hq × Wq = ⌈Hp/s⌉ ×
/// ⌈Wp/s⌉`, plane `(ch, a, b)` starts at `((ch·s + a)·s + b)·Hq·Wq`
/// and holds padded pixel `(qy·s + a, qx·s + b)` at `qy·Wq + qx`
/// (at stride 1, the one plane per channel is the padded image).
/// Positions in the padding or past the padded image hold `0.0`, and
/// every position is written, so `out` needs no clearing. Tap `(ch,
/// ky, kx)` of output `(oy, ox)` then sits at
///
/// ```text
/// ((ch·s + ky mod s)·s + kx mod s)·Hq·Wq + (ky div s)·Wq + kx div s + oy·Wq + ox
/// ```
///
/// so each tap is one contiguous run over the "wide" output grid of
/// `(Ho − 1)·Wq + Wo` columns, whose `Wq − Wo` wrap columns per row
/// read in-bounds values the caller drops.
///
/// # Panics
///
/// Panics if `image.len() != c*h*w`, `stride == 0`, or `out` is not
/// `c·s²·Hq·Wq` long.
pub fn pad_phases_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "image buffer must be c*h*w");
    assert!(stride > 0, "stride must be non-zero");
    let s = stride;
    let (hq, wq) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
    assert_eq!(out.len(), c * s * s * hq * wq, "out must be c*s*s*hq*wq");
    if out.is_empty() {
        return;
    }
    for (plane_id, plane) in out.chunks_exact_mut(hq * wq).enumerate() {
        let (ch, a, b) = (plane_id / (s * s), plane_id / s % s, plane_id % s);
        // Columns whose padded pixel `qx·s + b` lies on the image.
        let qx_lo = pad.saturating_sub(b).div_ceil(s).min(wq);
        let qx_hi = (w + pad).saturating_sub(b).div_ceil(s).clamp(qx_lo, wq);
        for (qy, dst) in plane.chunks_exact_mut(wq).enumerate() {
            let py = qy * s + a;
            if py < pad || py >= h + pad || qx_lo == qx_hi {
                dst.fill(0.0);
                continue;
            }
            dst[..qx_lo].fill(0.0);
            dst[qx_hi..].fill(0.0);
            let src = &image[(ch * h + py - pad) * w + qx_lo * s + b - pad..];
            let dst = &mut dst[qx_lo..qx_hi];
            if s == 1 {
                dst.copy_from_slice(&src[..dst.len()]);
            } else {
                for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-add a `[C·K·K, Ho·Wo]` column matrix
/// back into a `C×H×W` image buffer. Used by the convolution backward
/// pass to accumulate input gradients.
///
/// # Panics
///
/// Panics if buffer sizes do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    image: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "image buffer must be c*h*w");
    let ho = conv_out_dim(h, k, stride, pad);
    let wo = conv_out_dim(w, k, stride, pad);
    assert_eq!(
        cols.len(),
        c * k * k * ho * wo,
        "cols buffer must match geometry"
    );
    let row_len = ho * wo;
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let in_row = &cols[row * row_len..(row + 1) * row_len];
                for oy in 0..ho {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..wo {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        image[(ch * h + iy as usize) * w + ix as usize] += in_row[oy * wo + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(32, 3, 1, 1), 32);
        assert_eq!(conv_out_dim(32, 3, 2, 1), 16);
        assert_eq!(conv_out_dim(28, 5, 1, 0), 24);
        assert_eq!(conv_out_dim(4, 2, 2, 0), 2);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn out_dim_zero_stride_panics() {
        let _ = conv_out_dim(8, 3, 0, 1);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: cols == image.
        let img: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let cols = im2col(&img, 3, 2, 2, 1, 1, 0);
        assert_eq!(cols, img);
    }

    #[test]
    fn im2col_known_3x3() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 1, no pad -> 2x2 out.
        let img = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let cols = im2col(&img, 1, 3, 3, 2, 1, 0);
        // rows: (ky,kx) = (0,0),(0,1),(1,0),(1,1); cols: out positions.
        assert_eq!(
            cols,
            vec![
                1., 2., 4., 5., // tap (0,0)
                2., 3., 5., 6., // tap (0,1)
                4., 5., 7., 8., // tap (1,0)
                5., 6., 8., 9., // tap (1,1)
            ]
        );
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let img = vec![1.0; 4]; // 1x2x2
        let cols = im2col(&img, 1, 2, 2, 3, 1, 1);
        // 3x3 kernel with pad 1 on 2x2 -> 2x2 out; corner taps hit padding.
        // tap (0,0) sees the image shifted: out (0,0) reads (-1,-1) -> 0.
        assert_eq!(cols[0], 0.0);
        // centre tap (1,1) reads the true pixels.
        let (ky, kx, row_len) = (1, 1, 4);
        let row = (ky * 3 + kx) * row_len;
        assert_eq!(&cols[row..row + 4], &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let (c, h, w, k, s, p) = (2, 5, 4, 3, 2, 1);
        let ho = conv_out_dim(h, k, s, p);
        let wo = conv_out_dim(w, k, s, p);
        let x: Vec<f32> = (0..c * h * w)
            .map(|i| ((i * 37 + 11) % 13) as f32 - 6.0)
            .collect();
        let y: Vec<f32> = (0..c * k * k * ho * wo)
            .map(|i| ((i * 53 + 7) % 11) as f32 - 5.0)
            .collect();
        let cols = im2col(&x, c, h, w, k, s, p);
        let lhs: f64 = cols
            .iter()
            .zip(&y)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        let mut back = vec![0.0f32; c * h * w];
        col2im(&y, c, h, w, k, s, p, &mut back);
        let rhs: f64 = x
            .iter()
            .zip(&back)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum();
        assert!((lhs - rhs).abs() < 1e-6, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn stacked_im2col_places_blocks_side_by_side() {
        // Two "samples" of a 1×3×3 image, 2×2 kernel: each block of the
        // stacked [4, 2·4] matrix must equal the plain im2col.
        let img_a = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let img_b: Vec<f32> = img_a.iter().map(|v| v * 10.0).collect();
        let want_a = im2col(&img_a, 1, 3, 3, 2, 1, 0);
        let want_b = im2col(&img_b, 1, 3, 3, 2, 1, 0);
        let (row_len, total) = (4usize, 8usize);
        let mut cols = vec![f32::NAN; 4 * total];
        im2col_stacked_into(&img_a, 1, 3, 3, 2, 1, 0, &mut cols, total, 0);
        im2col_stacked_into(&img_b, 1, 3, 3, 2, 1, 0, &mut cols, total, row_len);
        for r in 0..4 {
            assert_eq!(
                &cols[r * total..r * total + row_len],
                &want_a[r * row_len..(r + 1) * row_len]
            );
            assert_eq!(
                &cols[r * total + row_len..(r + 1) * total],
                &want_b[r * row_len..(r + 1) * row_len]
            );
        }
    }

    #[test]
    fn stacked_im2col_overwrites_padding_taps() {
        // A dirty buffer must come out identical to a fresh one —
        // padding taps are written, not assumed zero.
        let img = vec![1.0; 4]; // 1×2×2, 3×3 kernel, pad 1 → 2×2 out
        let clean = im2col(&img, 1, 2, 2, 3, 1, 1);
        let mut dirty = vec![7.5f32; clean.len()];
        im2col_stacked_into(&img, 1, 2, 2, 3, 1, 1, &mut dirty, 4, 0);
        assert_eq!(dirty, clean);
    }

    #[test]
    fn stride_two_downsamples() {
        let img: Vec<f32> = (0..16).map(|i| i as f32).collect(); // 1x4x4
        let cols = im2col(&img, 1, 4, 4, 2, 2, 0);
        // 2x2 out, tap (0,0) picks rows 0,2 cols 0,2: values 0,2,8,10.
        assert_eq!(&cols[0..4], &[0., 2., 8., 10.]);
    }
}
