//! Row-major GEMM kernels: three single-precision variants and one
//! integer one.
//!
//! The training path lowers convolutions to GEMM via im2col, so the
//! three f32 variants (plain, A-transposed, B-transposed) are the
//! entire floating-point BLAS surface the stack requires.
//! [`gemm_bt_u8i8`] is `gemm_bt`'s integer twin, the one kernel of a
//! quantized convolution (on its im2row rows) and linear layer: `u8`
//! codes against `i8` weights into `i32`, the input zero point hoisted
//! out of the loop, strided so a tile of a larger matrix needs no
//! copy. Its sums are exact, so it has no order contract; on
//! a CPU with AVX-512 VNNI, detected at run time, it runs `vpdpbusd`
//! (`simd.rs`), and the safe kernel here is the fallback and the
//! reference.
//!
//! The f32 kernels are cache-blocked and register-tiled:
//!
//! * [`gemm`] / [`gemm_at`] split the shared dimension into `KC`
//!   panels and run one generic `R×W` register tile whose accumulators
//!   live in registers for the whole panel, with the depth loop
//!   innermost — each loaded `b` vector feeds `R` multiply-add streams
//!   and the `W`-wide accumulator rows autovectorize. Rows go in bands
//!   of 4, then 2; columns in tiles of 32, narrowing through 16, 8, 4
//!   and 1 over the remainder.
//! * [`gemm_bt`] computes dot products along `k`, so its micro-kernel
//!   keeps 8 partial-sum lanes per output and shares every streamed
//!   `b` chunk between two rows of `a`. On a CPU with AVX-512F and
//!   AVX-512DQ, detected at run time, it runs at 512-bit width instead
//!   (`simd.rs`: two rows' lanes per zmm, 8 rows × 4 `b` rows per
//!   register block); the safe kernel here is the fallback everywhere
//!   else and the reference that path is tested against.
//!
//! Accumulation order therefore differs from the textbook triple
//! loop, but it is fixed per element and is a contract, stated on
//! [`gemm`] and on [`gemm_bt`]: two calls into these kernels agree bit
//! for bit however their operands are tiled or stacked and whichever
//! ISA runs them, and only a comparison against a *different* order
//! needs a tolerance.
//!
//! The previous generation of these kernels skipped zero `a` elements.
//! That branch is gone: on the dense matrices the NN stack produces it
//! cost a compare-and-branch per inner iteration and blocked
//! vectorization. Sparsity is exploited at the tensor level (MCD
//! zeroes whole channels), never inside the GEMM.

/// Depth of the shared dimension per cache panel: `KC` elements of a
/// `b` column stay resident while a register tile accumulates.
const KC: usize = 256;

/// `c[m×n] += a[m×k] · b[k×n]` (all row-major).
///
/// # The accumulation contract
///
/// Every bit-identity guarantee of the stack (stacked ≡ per-block,
/// fused ≡ float, solo ≡ coalesced, the benchmark's output digests)
/// rests on the order in which an element of `c` is accumulated. For
/// `gemm` and [`gemm_at`], per `KC = 256` panel of the shared dimension
/// in ascending order:
///
/// * a row `i < m − (m mod 2)` computes `acc = 0.0; for p in panel
///   { acc += a[i,p] * b[p,j] }` — a multiply and an add, two
///   roundings, never a fused `mul_add` — then `c[i,j] += acc`;
/// * an odd last row adds each product directly: `c[i,j] += a[i,p] *
///   b[p,j]`.
///
/// Nothing else enters an element's value: not its column, not the
/// register tile covering it or how many rows share a `b` load, not
/// stacking, not the vector width of the build. `tests/properties.rs`
/// checks this bit for bit against a scalar transcription.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "a must be m*k");
    assert_eq!(b.len(), k * n, "b must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    gemm_tiled(m, k, n, b, c, |i, p| a[i * k + p]);
}

/// `c[m×n] += aᵀ · b` where `a` is stored `k×m` row-major.
///
/// Used for weight gradients: `dW = dYᵀ · X` style products. Same
/// driver and same accumulation contract as [`gemm`].
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm_at(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "a must be k*m (transposed)");
    assert_eq!(b.len(), k * n, "b must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    gemm_tiled(m, k, n, b, c, |i, p| a[p * m + i]);
}

/// Shared driver for [`gemm`] and [`gemm_at`]: `a_at(i, p)` abstracts
/// the storage order of `a`, monomorphized per caller so the
/// micro-kernel sees a direct indexed load.
fn gemm_tiled<F: Fn(usize, usize) -> f32>(
    m: usize,
    k: usize,
    n: usize,
    b: &[f32],
    c: &mut [f32],
    a_at: F,
) {
    let m_even = m - m % 2;
    for pb in (0..k).step_by(KC) {
        let panel = pb..(pb + KC).min(k);
        let mut i = 0;
        while i + 4 <= m_even {
            row_band::<4, F>(i, panel.clone(), n, b, c, &a_at);
            i += 4;
        }
        if i < m_even {
            row_band::<2, F>(i, panel.clone(), n, b, c, &a_at);
        }
        // The odd last row streams b and adds each product straight
        // into c: a different rounding sequence from the tiles', and
        // part of the contract.
        if m_even < m {
            let crow = &mut c[m_even * n..m * n];
            for p in panel {
                let av = a_at(m_even, p);
                let brow = &b[p * n..(p + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Rows `i..i + R` of `c` across all `n` columns for one depth panel:
/// 32-wide tiles, then the one tile of each narrower width that still
/// fits, then single columns.
fn row_band<const R: usize, F: Fn(usize, usize) -> f32>(
    i: usize,
    panel: std::ops::Range<usize>,
    n: usize,
    b: &[f32],
    c: &mut [f32],
    a_at: &F,
) {
    let j = col_tiles::<R, 32, F>(i, 0, panel.clone(), n, b, c, a_at);
    let j = col_tiles::<R, 16, F>(i, j, panel.clone(), n, b, c, a_at);
    let j = col_tiles::<R, 8, F>(i, j, panel.clone(), n, b, c, a_at);
    let j = col_tiles::<R, 4, F>(i, j, panel.clone(), n, b, c, a_at);
    col_tiles::<R, 1, F>(i, j, panel, n, b, c, a_at);
}

/// The register tile, over as many `W`-wide column tiles as fit from
/// column `j` on: `R×W` accumulators updated across the whole depth
/// panel before touching `c`. Returns the first column not covered.
#[inline(always)]
fn col_tiles<const R: usize, const W: usize, F: Fn(usize, usize) -> f32>(
    i: usize,
    mut j: usize,
    panel: std::ops::Range<usize>,
    n: usize,
    b: &[f32],
    c: &mut [f32],
    a_at: &F,
) -> usize {
    while j + W <= n {
        let mut acc = [[0.0f32; W]; R];
        for p in panel.clone() {
            let bq: &[f32; W] = b[p * n + j..p * n + j + W]
                .try_into()
                .expect("W-sized chunk");
            for (r, row) in acc.iter_mut().enumerate() {
                let ar = a_at(i + r, p);
                for (av, &bv) in row.iter_mut().zip(bq) {
                    *av += ar * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            let crow = &mut c[(i + r) * n + j..(i + r) * n + j + W];
            for (cv, &av) in crow.iter_mut().zip(row) {
                *cv += av;
            }
        }
        j += W;
    }
    j
}

/// Sample-stacked [`gemm`]: `c[m × s·n] += a[m×k] · b[k × s·n]`, where
/// `b` and `c` hold `s` column blocks of `n` columns side by side
/// (block `j` occupies columns `j·n .. (j+1)·n` of every row).
///
/// Operationally this is `gemm(m, k, s·n, ..)`; the entry point exists
/// to *name the contract* the batched-sample fusion relies on: the
/// result is **bit-identical** to `s` independent [`gemm`] calls, one
/// per block. By [`gemm`]'s accumulation contract an element's
/// sequence depends only on its row (even part vs. odd last row) and
/// the depth panels — never on its column or the tile covering it —
/// so stacking Monte Carlo samples along the column axis cannot move
/// a single ulp while the `a` operand (the weights) streams once for
/// all `s` blocks instead of once per block. Property-tested against
/// the per-block reference in `tests/properties.rs`.
///
/// # Panics
///
/// Panics if `s == 0` or the slice lengths do not match the stacked
/// dimensions.
pub fn gemm_stacked(m: usize, k: usize, n: usize, s: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(s > 0, "at least one stacked sample required");
    gemm(m, k, s * n, a, b, c);
}

/// Sample-stacked [`gemm_bt`]: `c[s·m × n] += a[s·m × k] · bᵀ`, where
/// `a` and `c` hold `s` row blocks of `m` rows each (`b` is stored
/// `n×k` row-major, as in [`gemm_bt`]).
///
/// Like [`gemm_stacked`], this is operationally `gemm_bt(s·m, k, n,
/// ..)` with a named guarantee: every output element is a dot product
/// whose accumulation sequence depends only on the shared dimension
/// `k`, so the result is **bit-identical** to `s` independent
/// [`gemm_bt`] calls on the row blocks, while the streamed `b` operand
/// (the fully-connected weights) is shared across consecutive stacked
/// rows instead of being re-streamed per block. Property-tested in
/// `tests/properties.rs`.
///
/// # Panics
///
/// Panics if `s == 0` or the slice lengths do not match the stacked
/// dimensions.
pub fn gemm_bt_stacked(
    m: usize,
    k: usize,
    n: usize,
    s: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(s > 0, "at least one stacked sample required");
    gemm_bt(s * m, k, n, a, b, c);
}

/// Partial-sum lanes per dot product in [`gemm_bt`].
pub(crate) const LANES: usize = 8;
/// `b` rows per [`gemm_bt`] register tile.
const JR: usize = 4;

/// `c[m×n] += a · bᵀ` where `b` is stored `n×k` row-major.
///
/// Used for input gradients (`dX = dY · W` with `W` stored `[out, in]`)
/// and by the fully-connected forward pass. Both operands stream along
/// `k`, so the micro-kernel keeps `LANES` partial sums per output
/// (vectorized, no loop-carried f32 dependency) and shares each
/// streamed `b` chunk between two rows of `a`.
///
/// # The accumulation contract
///
/// Every element `c[i,j]` is the dot product of row `i` of `a` and row
/// `j` of `b`, accumulated in one fixed order:
///
/// * 8 lane partial sums, each from `+0.0`, over the `k / 8` chunks in
///   ascending order: `lane[l] += a[i, 8ch + l] * b[j, 8ch + l]` — a
///   multiply and an add, two roundings, never a fused `mul_add`;
/// * `s = 0.0`, then `s += lane[l]` for `l` in `0..8`;
/// * then the `k mod 8` tail in order: `s += a[i,p] * b[j,p]`;
/// * then `c[i,j] += s`.
///
/// Nothing else enters an element's value: not the register tile or
/// row band covering it, not stacking, not the ISA that runs it (the
/// AVX-512 kernel and the safe fallback agree bit for bit).
/// `tests/properties.rs` checks this against a scalar transcription.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "a must be m*k");
    assert_eq!(b.len(), n * k, "b must be n*k (transposed)");
    assert_eq!(c.len(), m * n, "c must be m*n");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if crate::simd::gemm_bt(m, k, n, a, b, c) {
        return;
    }
    gemm_bt_portable(m, k, n, a, b, c);
}

/// The safe [`gemm_bt`] kernel: the fallback on every other CPU and the
/// reference the AVX-512 kernel is tested against.
pub(crate) fn gemm_bt_portable(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let chunks = k / LANES;
    let mut i = 0;
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut j = 0;
        while j + JR <= n {
            let mut l0 = [[0.0f32; LANES]; JR];
            let mut l1 = [[0.0f32; LANES]; JR];
            for ch in 0..chunks {
                let span = ch * LANES..(ch + 1) * LANES;
                let av0: &[f32; LANES] = a0[span.clone()].try_into().expect("lane chunk");
                let av1: &[f32; LANES] = a1[span.clone()].try_into().expect("lane chunk");
                for q in 0..JR {
                    let base = (j + q) * k;
                    let bq: &[f32; LANES] = b[base + span.start..base + span.end]
                        .try_into()
                        .expect("lane chunk");
                    for l in 0..LANES {
                        l0[q][l] += av0[l] * bq[l];
                        l1[q][l] += av1[l] * bq[l];
                    }
                }
            }
            for q in 0..JR {
                let (mut s0, mut s1) = (0.0f32, 0.0f32);
                for l in 0..LANES {
                    s0 += l0[q][l];
                    s1 += l1[q][l];
                }
                let brow = &b[(j + q) * k..(j + q + 1) * k];
                for p in chunks * LANES..k {
                    s0 += a0[p] * brow[p];
                    s1 += a1[p] * brow[p];
                }
                c[i * n + j + q] += s0;
                c[(i + 1) * n + j + q] += s1;
            }
            j += JR;
        }
        while j < n {
            let brow = &b[j * k..(j + 1) * k];
            let (s0, s1) = (dot_lanes(a0, brow), dot_lanes(a1, brow));
            c[i * n + j] += s0;
            c[(i + 1) * n + j] += s1;
            j += 1;
        }
        i += 2;
    }
    if i < m {
        let a0 = &a[i * k..(i + 1) * k];
        for j in 0..n {
            c[i * n + j] += dot_lanes(a0, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Lane-parallel dot product (the single-row [`gemm_bt`] path).
#[inline]
pub(crate) fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f32; LANES];
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += xs[l] * ys[l];
        }
    }
    let mut s = lanes.iter().fold(0.0f32, |s, &l| s + l);
    for (&xv, &yv) in xr.iter().zip(yr) {
        s += xv * yv;
    }
    s
}

/// `c[m×n] += (a − za) · bᵀ` on 8-bit codes: the integer twin of
/// [`gemm_bt`], for every quantized convolution (one `a` row per output
/// pixel) and linear layer (one per item).
///
/// `a` holds `m` rows of `u8` codes `lda` apart, `b` holds `n` rows of
/// `i8` weights `ldb` apart, and each output is a dot product over the
/// first `k` elements of its two rows, so a tile of a larger matrix is
/// a sub-slice and its strides, with no copy. `c` is `m×n` row-major.
///
/// The zero point is hoisted out of the loop, `Σ_p (a[i,p] − za) ·
/// b[j,p] = Σ_p a[i,p] · b[j,p] − za · Σ_p b[j,p]`, so the products run
/// on the raw codes. Arithmetic is `i32` and wraps, and integer
/// addition is associative: every element is exact whenever its true
/// value fits in an `i32`, whatever order or ISA computes it. On a CPU
/// with AVX-512F, AVX-512BW and AVX-512 VNNI, detected at run time, the
/// products run on `vpdpbusd` (`simd.rs`); the safe kernel here is the
/// fallback everywhere else and the reference that path is tested
/// against.
///
/// # Panics
///
/// Panics if `a` or `b` is shorter than its rows need (`(rows − 1) ·
/// ld + k` elements), or `c` is not `m×n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bt_u8i8(
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    lda: usize,
    za: u8,
    b: &[i8],
    ldb: usize,
    c: &mut [i32],
) {
    let fits = |rows: usize, ld: usize, len: usize| rows == 0 || (rows - 1) * ld + k <= len;
    assert!(fits(m, lda, a.len()), "a must hold m rows of k, lda apart");
    assert!(fits(n, ldb, b.len()), "b must hold n rows of k, ldb apart");
    assert_eq!(c.len(), m * n, "c must be m*n");
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if crate::simd::gemm_bt_u8i8(m, k, n, a, lda, za, b, ldb, c) {
        return;
    }
    gemm_bt_u8i8_portable(m, k, n, a, lda, za, b, ldb, c);
}

/// The safe [`gemm_bt_u8i8`] kernel: the fallback on every other CPU
/// and the reference the VNNI kernel is tested against.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bt_u8i8_portable(
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    lda: usize,
    za: u8,
    b: &[i8],
    ldb: usize,
    c: &mut [i32],
) {
    for j in 0..n {
        let brow = &b[j * ldb..][..k];
        let sw = brow.iter().fold(0i32, |s, &w| s.wrapping_add(i32::from(w)));
        let zsw = i32::from(za).wrapping_mul(sw);
        for i in 0..m {
            let arow = &a[i * lda..][..k];
            let dot = arow.iter().zip(brow).fold(0i32, |s, (&q, &w)| {
                s.wrapping_add(i32::from(q) * i32::from(w))
            });
            let cij = &mut c[i * n + j];
            *cij = cij.wrapping_add(dot).wrapping_sub(zsw);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        // Small deterministic pseudo-random values.
        (0..n)
            .map(|i| {
                let v = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((v >> 33) as i32 % 17 - 8) as f32 / 4.0
            })
            .collect()
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, k, n) = (5, 7, 4);
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn gemm_accumulates() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0; 4];
        gemm(m, k, n, &a, &b, &mut c);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn gemm_at_matches_naive() {
        let (m, k, n) = (4, 6, 3);
        let a = fill(m * k, 3); // logical m×k
        let b = fill(k * n, 4);
        let at = transpose(m, k, &a); // stored k×m
        let mut c = vec![0.0; m * n];
        gemm_at(m, k, n, &at, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn gemm_bt_matches_naive() {
        let (m, k, n) = (3, 5, 6);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6); // logical k×n
        let bt = transpose(k, n, &b); // stored n×k
        let mut c = vec![0.0; m * n];
        gemm_bt(m, k, n, &a, &bt, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn blocked_kernels_cross_tile_boundaries() {
        // Shapes straddling the row-band/tile/KC/LANES edges: odd sizes,
        // exact multiples, and one-past-a-boundary.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 8, 16),
            (5, 3, 9),
            (3, 257, 17),
            (7, 13, 33),
            (6, 300, 50),
        ] {
            let a = fill(m * k, (m * 31 + k) as u64);
            let b = fill(k * n, (n * 17 + k) as u64);
            let want = naive(m, k, n, &a, &b);

            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() < 1e-3,
                    "gemm {m}x{k}x{n}: {got} vs {want}"
                );
            }

            let at = transpose(m, k, &a);
            let mut c = vec![0.0; m * n];
            gemm_at(m, k, n, &at, &b, &mut c);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() < 1e-3,
                    "gemm_at {m}x{k}x{n}: {got} vs {want}"
                );
            }

            let bt = transpose(k, n, &b);
            let mut c = vec![0.0; m * n];
            gemm_bt(m, k, n, &a, &bt, &mut c);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() < 1e-3,
                    "gemm_bt {m}x{k}x{n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a must be m*k")]
    fn gemm_checks_dims() {
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }

    #[test]
    fn gemm_stacked_matches_per_block_calls() {
        // Ragged everywhere: odd rows (odd-last-row path), columns
        // past the 16-wide tile, depth crossing the KC panel.
        let (m, k, n, s) = (3, 300, 19, 4);
        let a = fill(m * k, 11);
        let b = fill(k * s * n, 12);
        let mut fused = vec![0.0; m * s * n];
        gemm_stacked(m, k, n, s, &a, &b, &mut fused);
        for blk in 0..s {
            // Extract block `blk` of b (columns blk*n..(blk+1)*n).
            let mut bb = vec![0.0; k * n];
            for p in 0..k {
                bb[p * n..(p + 1) * n]
                    .copy_from_slice(&b[p * s * n + blk * n..p * s * n + blk * n + n]);
            }
            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &bb, &mut c);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        fused[i * s * n + blk * n + j],
                        c[i * n + j],
                        "block {blk} element ({i},{j}) moved"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_bt_stacked_matches_per_block_calls() {
        let (m, k, n, s) = (3, 45, 7, 5);
        let a = fill(s * m * k, 21);
        let b = fill(n * k, 22); // stored n×k
        let mut fused = vec![0.0; s * m * n];
        gemm_bt_stacked(m, k, n, s, &a, &b, &mut fused);
        for blk in 0..s {
            let mut c = vec![0.0; m * n];
            gemm_bt(m, k, n, &a[blk * m * k..(blk + 1) * m * k], &b, &mut c);
            assert_eq!(
                &fused[blk * m * n..(blk + 1) * m * n],
                &c[..],
                "row block {blk} moved"
            );
        }
    }

    #[test]
    fn stacked_wrappers_are_identity_at_s1() {
        let (m, k, n) = (5, 13, 9);
        let a = fill(m * k, 31);
        let b = fill(k * n, 32);
        let mut c1 = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c1);
        let mut c2 = vec![0.0; m * n];
        gemm_stacked(m, k, n, 1, &a, &b, &mut c2);
        assert_eq!(c1, c2);

        let bt = transpose(k, n, &b);
        let mut d1 = vec![0.0; m * n];
        gemm_bt(m, k, n, &a, &bt, &mut d1);
        let mut d2 = vec![0.0; m * n];
        gemm_bt_stacked(m, k, n, 1, &a, &bt, &mut d2);
        assert_eq!(d1, d2);
    }
}
