//! Property-based tests of the tensor kernels.

use bnn_tensor::{
    avg_pool_into, col2im, conv_out_dim, gemm, gemm_at, gemm_bt, gemm_bt_stacked, gemm_bt_u8i8,
    gemm_stacked, im2col, im2col_stacked_into, max_pool, max_pool_backward, max_pool_into,
    softmax_rows, Shape4, Tensor,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_is_linear_in_a(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000
    ) {
        let mut rng = bnn_rng_stub(seed);
        let a1: Vec<f32> = (0..m * k).map(|_| rng.next()).collect();
        let a2: Vec<f32> = (0..m * k).map(|_| rng.next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next()).collect();
        // gemm(a1 + a2, b) == gemm(a1, b) + gemm(a2, b)
        let sum_a: Vec<f32> = a1.iter().zip(&a2).map(|(x, y)| x + y).collect();
        let mut c_sum = vec![0.0; m * n];
        gemm(m, k, n, &sum_a, &b, &mut c_sum);
        let mut c_split = vec![0.0; m * n];
        gemm(m, k, n, &a1, &b, &mut c_split);
        gemm(m, k, n, &a2, &b, &mut c_split);
        for (x, y) in c_sum.iter().zip(&c_split) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_transpose_variants_agree(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000
    ) {
        let mut rng = bnn_rng_stub(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next()).collect();
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c);

        // a stored transposed (k×m)
        let mut at = vec![0.0; m * k];
        for i in 0..m { for p in 0..k { at[p * m + i] = a[i * k + p]; } }
        let mut c_at = vec![0.0; m * n];
        gemm_at(m, k, n, &at, &b, &mut c_at);

        // b stored transposed (n×k)
        let mut bt = vec![0.0; k * n];
        for p in 0..k { for j in 0..n { bt[j * k + p] = b[p * n + j]; } }
        let mut c_bt = vec![0.0; m * n];
        gemm_bt(m, k, n, &a, &bt, &mut c_bt);

        for i in 0..m * n {
            prop_assert!((c[i] - c_at[i]).abs() < 1e-4);
            prop_assert!((c[i] - c_bt[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..3, h in 3usize..7, w in 3usize..7,
        k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        seed in 0u64..1000
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let ho = conv_out_dim(h, k, stride, pad);
        let wo = conv_out_dim(w, k, stride, pad);
        let mut rng = bnn_rng_stub(seed);
        let x: Vec<f32> = (0..c * h * w).map(|_| rng.next()).collect();
        let y: Vec<f32> = (0..c * k * k * ho * wo).map(|_| rng.next()).collect();
        let cols = im2col(&x, c, h, w, k, stride, pad);
        let lhs: f64 = cols.iter().zip(&y).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        let mut back = vec![0.0f32; c * h * w];
        col2im(&y, c, h, w, k, stride, pad, &mut back);
        let rhs: f64 = x.iter().zip(&back).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-4, "adjoint identity violated: {} vs {}", lhs, rhs);
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..4, cols in 1usize..8, seed in 0u64..1000) {
        let mut rng = bnn_rng_stub(seed);
        let mut m: Vec<f32> = (0..rows * cols).map(|_| rng.next() * 3.0).collect();
        softmax_rows(&mut m, rows, cols);
        for r in 0..rows {
            let row = &m[r * cols..(r + 1) * cols];
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn max_pool_gradient_conserves_mass(
        c in 1usize..3, hw in 2usize..6, seed in 0u64..1000
    ) {
        // sum(dx) == sum(dy) because each output routes to exactly one input.
        let mut rng = bnn_rng_stub(seed);
        let shape = Shape4::new(1, c, hw * 2, hw * 2);
        let x = Tensor::from_vec(shape, (0..shape.len()).map(|_| rng.next()).collect());
        let (y, arg) = max_pool(&x, 2, 2);
        let dy = Tensor::from_vec(y.shape(), (0..y.len()).map(|_| rng.next()).collect());
        let dx = max_pool_backward(&dy, &arg, shape);
        let sy: f64 = dy.iter().map(|&v| f64::from(v)).sum();
        let sx: f64 = dx.iter().map(|&v| f64::from(v)).sum();
        prop_assert!((sx - sy).abs() < 1e-4);
    }
}

// The blocked/register-tiled GEMM kernels against the textbook triple
// loop, on shapes that are deliberately *not* multiples of the
// register tiles, the KC depth panel, or gemm_bt's 2×4×8-lane tile.
// Fewer cases than above: each one multiplies real matrices.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn blocked_gemm_matches_naive_on_odd_shapes(
        m in 1usize..70, k in 1usize..80, n in 1usize..40, seed in 0u64..1000
    ) {
        let mut rng = bnn_rng_stub(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.next()).collect();
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                want[i * n + j] = acc;
            }
        }

        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        for (got, want) in c.iter().zip(&want) {
            prop_assert!((got - want).abs() < 1e-3, "gemm {}x{}x{}", m, k, n);
        }

        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c_at = vec![0.0f32; m * n];
        gemm_at(m, k, n, &at, &b, &mut c_at);
        for (got, want) in c_at.iter().zip(&want) {
            prop_assert!((got - want).abs() < 1e-3, "gemm_at {}x{}x{}", m, k, n);
        }

        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c_bt = vec![0.0f32; m * n];
        gemm_bt(m, k, n, &a, &bt, &mut c_bt);
        for (got, want) in c_bt.iter().zip(&want) {
            prop_assert!((got - want).abs() < 1e-3, "gemm_bt {}x{}x{}", m, k, n);
        }
    }
}

// The sample-stacked GEMM entry points used by batched-sample fusion:
// the fused `(S·cols)` call must be *bit-identical* (exact f32
// equality, not a tolerance) to `S` independent per-block calls.
// Shapes are random and deliberately ragged — S = 1, odd row counts
// (row-remainder path), column counts off every tile width, depth
// crossing the KC panel — because the contract is exactly that the
// tiling may not leak into the values.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_stacked_bit_identical_to_independent_gemms(
        m in 1usize..9, k in 1usize..300, n in 1usize..36, s in 1usize..6,
        seed in 0u64..1000
    ) {
        assert_gemm_stacked_matches_blocks(m, k, n, s, seed);
    }

    #[test]
    fn gemm_bt_stacked_bit_identical_to_independent_gemms(
        m in 1usize..7, k in 1usize..40, n in 1usize..20, s in 1usize..6,
        seed in 0u64..1000
    ) {
        let mut rng = bnn_rng_stub(seed);
        let a: Vec<f32> = (0..s * m * k).map(|_| rng.next()).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.next()).collect(); // stored n×k
        let mut fused = vec![0.0f32; s * m * n];
        gemm_bt_stacked(m, k, n, s, &a, &b, &mut fused);
        for blk in 0..s {
            let mut want = vec![0.0f32; m * n];
            gemm_bt(m, k, n, &a[blk * m * k..(blk + 1) * m * k], &b, &mut want);
            let got = &fused[blk * m * n..(blk + 1) * m * n];
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "gemm_bt_stacked {}x{}x{} s={} block {} flat index {} moved",
                    m, k, n, s, blk, i
                );
            }
        }
    }

    #[test]
    fn stacked_im2col_blocks_match_plain_im2col(
        c in 1usize..3, h in 3usize..8, w in 3usize..8,
        k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        s in 1usize..4, seed in 0u64..1000
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let ho = conv_out_dim(h, k, stride, pad);
        let wo = conv_out_dim(w, k, stride, pad);
        let row_len = ho * wo;
        let total = s * row_len;
        let mut rng = bnn_rng_stub(seed);
        let images: Vec<Vec<f32>> = (0..s)
            .map(|_| (0..c * h * w).map(|_| rng.next()).collect())
            .collect();
        // Dirty buffer: the block writer must not rely on prior zeros.
        let mut cols = vec![9.25f32; c * k * k * total];
        for (blk, img) in images.iter().enumerate() {
            im2col_stacked_into(img, c, h, w, k, stride, pad, &mut cols, total, blk * row_len);
        }
        for (blk, img) in images.iter().enumerate() {
            let want = im2col(img, c, h, w, k, stride, pad);
            for r in 0..c * k * k {
                let got = &cols[r * total + blk * row_len..r * total + (blk + 1) * row_len];
                prop_assert_eq!(
                    got, &want[r * row_len..(r + 1) * row_len],
                    "block {} row {} diverged", blk, r
                );
            }
        }
    }
}

/// Body of the stacked-GEMM property, shared with the explicit grid
/// below. Values have full 24-bit mantissas, so any change to an
/// element's accumulation order shows up in its bits.
fn assert_gemm_stacked_matches_blocks(m: usize, k: usize, n: usize, s: usize, seed: u64) {
    let mut rng = bnn_rng_stub(seed);
    let a = rng.dense(m * k);
    let b = rng.dense(k * s * n);
    let mut fused = vec![0.0f32; m * s * n];
    gemm_stacked(m, k, n, s, &a, &b, &mut fused);
    for blk in 0..s {
        let mut bb = vec![0.0f32; k * n];
        for p in 0..k {
            bb[p * n..(p + 1) * n]
                .copy_from_slice(&b[p * s * n + blk * n..p * s * n + blk * n + n]);
        }
        let mut want = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &bb, &mut want);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(
                    fused[i * s * n + blk * n + j].to_bits(),
                    want[i * n + j].to_bits(),
                    "gemm_stacked {m}x{k}x{n} s={s} block {blk} element ({i},{j}) moved"
                );
            }
        }
    }
}

#[test]
fn gemm_stacked_tiles_straddling_two_blocks_move_no_bit() {
    // Block widths off the widest (32-column) tile, so a register tile
    // covers the end of one stacked block and the start of the next.
    for n in [10, 19, 100] {
        for s in [2, 3, 7] {
            for (m, k) in [(4, 25), (7, 300)] {
                assert_gemm_stacked_matches_blocks(m, k, n, s, (n * s) as u64);
            }
        }
    }
}

/// The accumulation contract stated on `gemm`,
/// transcribed: per `KC = 256` depth panel in ascending order, a row of
/// the even part of `m` sums its products into a fresh `acc` and adds
/// that to `c`; an odd last row adds each product to `c` directly.
fn gemm_contract(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for pb in (0..k).step_by(256) {
        let panel = pb..(pb + 256).min(k);
        for i in 0..m {
            for j in 0..n {
                if i < m - m % 2 {
                    let mut acc = 0.0f32;
                    for p in panel.clone() {
                        acc += a[i * k + p] * b[p * n + j];
                    }
                    c[i * n + j] += acc;
                } else {
                    for p in panel.clone() {
                        c[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_and_gemm_at_follow_the_tile_contract_bit_for_bit() {
    // Every row band (4, 2, odd last row) × every column-tile width and
    // remainder × depths on both sides of the panel edge, into a `c`
    // that starts non-zero.
    let widths = (1..=40).chain([63, 64, 65, 100, 784]);
    for n in widths {
        for k in [1, 25, 150, 255, 256, 257, 300, 513] {
            for m in 1..=11 {
                let mut rng = bnn_rng_stub((m * 1000 + n) as u64 ^ (k as u64) << 20);
                let a = rng.dense(m * k);
                let b = rng.dense(k * n);
                let c0 = rng.dense(m * n);
                let mut want = c0.clone();
                gemm_contract(m, k, n, &a, &b, &mut want);

                let mut got = c0.clone();
                gemm(m, k, n, &a, &b, &mut got);
                let mut at = vec![0.0f32; m * k];
                for i in 0..m {
                    for p in 0..k {
                        at[p * m + i] = a[i * k + p];
                    }
                }
                let mut got_at = c0;
                gemm_at(m, k, n, &at, &b, &mut got_at);
                for idx in 0..m * n {
                    let (i, j) = (idx / n, idx % n);
                    assert_eq!(
                        got[idx].to_bits(),
                        want[idx].to_bits(),
                        "gemm {m}x{k}x{n}: element ({i},{j}) left the contract"
                    );
                    assert_eq!(
                        got_at[idx].to_bits(),
                        want[idx].to_bits(),
                        "gemm_at {m}x{k}x{n}: element ({i},{j}) left the contract"
                    );
                }
            }
        }
    }
}

/// The accumulation contract stated on `gemm_bt`, transcribed: 8 lane
/// partial sums over the `k / 8` chunks in order, the lanes summed
/// 0..8 from +0.0, then the `k mod 8` tail in order, then `c += s`.
fn gemm_bt_contract(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let chunks = k / 8;
    for i in 0..m {
        for j in 0..n {
            let (arow, brow) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            let mut lanes = [0.0f32; 8];
            for ch in 0..chunks {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    *lane += arow[ch * 8 + l] * brow[ch * 8 + l];
                }
            }
            let mut s = 0.0f32;
            for lane in lanes {
                s += lane;
            }
            for p in chunks * 8..k {
                s += arow[p] * brow[p];
            }
            c[i * n + j] += s;
        }
    }
}

#[test]
fn gemm_bt_follows_the_lane_contract_bit_for_bit() {
    // Every row block (8, 4, 2 rows, odd last row) × every `b`-row tile
    // remainder × depths around the 8-lane chunk, into a `c` that
    // starts non-zero. On an AVX-512 host this pins the 512-bit kernel;
    // elsewhere, the safe one.
    for n in (1..=13).chain([84, 120]) {
        for k in [0, 1, 7, 8, 9, 84, 120, 400] {
            for m in 1..=19 {
                let mut rng = bnn_rng_stub((m * 1000 + n) as u64 ^ (k as u64) << 20);
                let a = rng.dense(m * k);
                let b = rng.dense(n * k);
                let c0 = rng.dense(m * n);
                let mut want = c0.clone();
                gemm_bt_contract(m, k, n, &a, &b, &mut want);
                let mut got = c0;
                gemm_bt(m, k, n, &a, &b, &mut got);
                for idx in 0..m * n {
                    let (i, j) = (idx / n, idx % n);
                    assert_eq!(
                        got[idx].to_bits(),
                        want[idx].to_bits(),
                        "gemm_bt {m}x{k}x{n}: element ({i},{j}) left the contract"
                    );
                }
            }
        }
    }
}

// The integer twin of gemm_bt against the scalar sum it stands for,
// taken in i64 so nothing can wrap: strided sub-blocks of larger
// matrices, every zero point class, depths around the 64-byte VNNI
// operand, and the extreme codes and weights present.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_bt_u8i8_equals_the_scalar_i64_sum(
        m in 1usize..12, n in 1usize..12,
        // LeNet-5's two convolution reductions (25, 150) and fc1's 400.
        k in prop_oneof![Just(0usize), Just(25), Just(64), Just(150), Just(400), 1usize..200],
        // `lda = k + 8`: a convolution's im2row rows.
        pad_a in prop_oneof![Just(8usize), 0usize..70], pad_b in 0usize..70,
        za in prop_oneof![Just(0u8), Just(128), Just(255), any::<u8>()],
        seed in 0u64..1000
    ) {
        let mut rng = bnn_rng_stub(seed);
        let (lda, ldb) = (k + pad_a, k + pad_b);
        let mut a = rng.bytes(m * lda);
        let mut b: Vec<i8> = rng.bytes(n * ldb).into_iter().map(|x| x as i8).collect();
        if k > 0 {
            (a[0], a[k - 1]) = (0, 255);
            (b[0], b[k / 2], b[k - 1]) = (-128, 127, -127);
        }
        let c0: Vec<i32> = rng.bytes(m * n).into_iter().map(|x| i32::from(x) - 128).collect();
        let mut got = c0.clone();
        gemm_bt_u8i8(m, k, n, &a, lda, za, &b, ldb, &mut got);
        for (idx, (&g, &c)) in got.iter().zip(&c0).enumerate() {
            let (i, j) = (idx / n, idx % n);
            let sum: i64 = (0..k)
                .map(|p| (i64::from(a[i * lda + p]) - i64::from(za)) * i64::from(b[j * ldb + p]))
                .sum();
            prop_assert_eq!(
                i64::from(g), i64::from(c) + sum,
                "gemm_bt_u8i8 {}x{}x{} lda={} ldb={} za={}: element ({},{})",
                m, k, n, lda, ldb, za, i, j
            );
        }
    }
}

/// The per-element im2col the span-copy kernel replaced, kept as its
/// reference: one bounds-tested load per tap.
#[allow(clippy::too_many_arguments)]
fn im2col_reference(
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
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                for oy in 0..ho {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for ox in 0..wo {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            cols[(row * ho + oy) * wo + ox] =
                                image[(ch * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    cols
}

#[test]
fn im2col_edge_geometry_matches_reference_and_stays_in_its_block() {
    const SENTINEL: f32 = -77.5;
    // Non-square images down to `w < k` (legal once padded), paddings
    // past the kernel (taps lying wholly in the padding), every stride.
    let images = [(5, 3), (4, 7), (6, 1), (1, 6), (2, 5), (7, 7)];
    for k in [1, 2, 3, 5] {
        for stride in 1..=3 {
            for pad in 0..=k + 1 {
                for (h, w) in images {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    for c in [1, 3] {
                        let image = bnn_rng_stub((k * 7 + pad) as u64).dense(c * h * w);
                        let want = im2col_reference(&image, c, h, w, k, stride, pad);
                        let row_len = want.len() / (c * k * k);
                        // The block sits inside a wider stacked matrix.
                        let (col0, total) = (3, row_len + 5);
                        let mut cols = vec![SENTINEL; c * k * k * total];
                        im2col_stacked_into(
                            &image, c, h, w, k, stride, pad, &mut cols, total, col0,
                        );
                        for (r, row) in cols.chunks(total).enumerate() {
                            for (j, v) in row.iter().enumerate() {
                                let expect = if (col0..col0 + row_len).contains(&j) {
                                    want[r * row_len + j - col0]
                                } else {
                                    SENTINEL
                                };
                                assert_eq!(
                                    v.to_bits(),
                                    expect.to_bits(),
                                    "c={c} {h}x{w} k={k} stride={stride} pad={pad}: row {r} col {j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn pooling_into_kernels_match_the_indexed_formulation_bit_for_bit() {
    // The `Tensor::at` formulation the row-slice kernels replaced: the
    // same fold, in the same (ky, kx) order, from the same start.
    let reference = |x: &Tensor, k: usize, stride: usize, max: bool| {
        let s = x.shape();
        let ho = conv_out_dim(s.h, k, stride, 0);
        let wo = conv_out_dim(s.w, k, stride, 0);
        let mut out = Tensor::zeros(Shape4::new(s.n, s.c, ho, wo));
        for n in 0..s.n {
            for c in 0..s.c {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = if max { f32::NEG_INFINITY } else { 0.0 };
                        for ky in 0..k {
                            for kx in 0..k {
                                let v = x.at(n, c, oy * stride + ky, ox * stride + kx);
                                acc = if max { acc.max(v) } else { acc + v };
                            }
                        }
                        *out.at_mut(n, c, oy, ox) = if max {
                            acc
                        } else {
                            acc * (1.0 / (k * k) as f32)
                        };
                    }
                }
            }
        }
        out
    };
    // Signed zeros, all-negative windows and a NaN in every window are
    // where a reordered or re-associated fold would show.
    type Fill = fn(usize, f32) -> f32;
    let fills: [(&str, Fill); 4] = [
        ("dense", |_, v| v),
        ("signed zeros", |i, v| match i % 3 {
            0 => 0.0,
            1 => -0.0,
            _ => v,
        }),
        ("negatives", |_, v| -v.abs() - 0.5),
        ("NaNs", |i, v| if i % 2 == 0 { f32::NAN } else { v }),
    ];
    for (k, stride) in [(2, 2), (3, 2), (2, 1), (3, 3)] {
        for (h, w) in [(7, 5), (5, 9), (4, 4), (3, 3)] {
            for (label, fill) in fills {
                let shape = Shape4::new(2, 3, h, w);
                let values = bnn_rng_stub((h * w + k) as u64).dense(shape.len());
                let x = Tensor::from_vec(
                    shape,
                    values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| fill(i, v))
                        .collect(),
                );
                for max in [true, false] {
                    let want = reference(&x, k, stride, max);
                    let mut got = Tensor::full(want.shape(), 9.25);
                    if max {
                        max_pool_into(&x, k, stride, &mut got);
                    } else {
                        avg_pool_into(&x, k, stride, &mut got);
                    }
                    let (got, want): (Vec<u32>, Vec<u32>) = (
                        got.iter().map(|v| v.to_bits()).collect(),
                        want.iter().map(|v| v.to_bits()).collect(),
                    );
                    assert_eq!(
                        got, want,
                        "{label}: {h}x{w} k={k} stride={stride} max={max}"
                    );
                }
            }
        }
    }
}

/// Tiny deterministic value source for proptest bodies (keeps the
/// strategies simple while the values stay reproducible per seed).
struct StubRng(u64);

fn bnn_rng_stub(seed: u64) -> StubRng {
    StubRng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
}

impl StubRng {
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 35) as i32 % 33 - 16) as f32 / 8.0
    }

    /// `len` values in `[-1, 1)` with full 24-bit mantissas: their
    /// products and sums round, so bit-for-bit comparisons see the
    /// order of operations ([`StubRng::next`]'s eighths add exactly).
    fn dense(&mut self, len: usize) -> Vec<f32> {
        let mut draw = |_| {
            self.next();
            (self.0 >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        (0..len).map(&mut draw).collect()
    }

    /// `len` uniform bytes.
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                self.next();
                (self.0 >> 56) as u8
            })
            .collect()
    }
}
