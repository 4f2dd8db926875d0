//! The kernels that run at AVX-512 width, each selected at run time:
//! [`gemm`](crate::gemm)'s register tile, [`gemm_bt`](crate::gemm_bt)
//! and [`gemm_bt_u8i8`](crate::gemm_bt_u8i8).
//!
//! **`gemm`'s tile.** The safe driver keeps the row bands, the depth
//! panels and the odd last row, and hands this module one band: `R`
//! rows (4 or 2) × all columns over one panel, with an accessor for
//! the band's `a` values and each `b` row's offset in a table. The `a`
//! values are first packed into a `[[f32; R]; KC]` on the stack
//! (measured 10–20 % faster than reading them through the accessor).
//! A tile is `R` rows × 32 columns, two zmm per row, then 16 columns
//! with the last tile masked. Lanes are columns, so each lane runs one
//! element's sequence as the portable tile does — an accumulator from
//! +0, `+ a·b` per depth as a multiply then an add (never a fused
//! multiply-add), then `c += acc` — and there is no lane order to
//! keep.
//!
//! **`gemm_bt`.** The portable kernel keeps `LANES = 8` partial sums
//! per output, so a 512-bit register can only be filled by holding
//! *two* outputs: each zmm carries the 8-lane chunks of two `a` rows,
//! `[a_i | a_{i+1}]`, and the matching `b` chunk is broadcast to both
//! halves straight from the row-major weights. A register block is 8
//! rows × 4 `b` rows — 16 accumulators. Multiply and add stay two
//! instructions, never a fused multiply-add, so every output keeps
//! `gemm_bt`'s per-element contract and the bytes equal the portable
//! kernel's on every input. The odd last row and the `n mod 4` columns
//! go through the portable lane dot product.
//!
//! **`gemm_bt_u8i8`.** One `vpdpbusd` multiplies 64 `u8` codes by 64
//! `i8` weights and adds each group of four products into one of 16
//! `i32` lanes. The kernel walks column blocks of 4 `b` rows. Each
//! block first sums its rows against a ones vector, once, for the
//! hoisted zero point `za·Σ b`. Then every register block of 4 `a` rows
//! × the block's 4 `b` rows — 16 accumulators — runs against those
//! sums. The non-saturating `vpdpbusd`
//! wraps like the portable kernel's `i32` arithmetic, and integer sums
//! do not depend on order, so the lanes may be reduced in any order
//! and the bytes still equal the portable kernel's. The `k mod 64`
//! tail is a masked load, its missing bytes read as 0.
//!
//! `unsafe` is confined to the dispatch calls, which rest on the
//! runtime feature checks, and to the raw-pointer loads and stores,
//! which read and write fixed-size arrays or, masked, the elements of
//! a slice.

use std::arch::x86_64::{
    __m256, __m512, __m512i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_extracti128_si256,
    _mm256_loadu_ps, _mm512_add_epi32, _mm512_add_ps, _mm512_broadcast_f32x8,
    _mm512_castps256_ps512, _mm512_castsi512_si256, _mm512_dpbusd_epi32, _mm512_extracti64x4_epi64,
    _mm512_insertf32x8, _mm512_mask_storeu_ps, _mm512_maskz_loadu_epi8, _mm512_maskz_loadu_ps,
    _mm512_mul_ps, _mm512_set1_epi8, _mm512_set1_ps, _mm512_setzero_ps, _mm512_setzero_si512,
    _mm512_shuffle_f32x4, _mm512_shuffle_ps, _mm512_storeu_ps, _mm512_unpackhi_epi32,
    _mm512_unpackhi_epi64, _mm512_unpackhi_ps, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
    _mm512_unpacklo_ps, _mm_add_epi32, _mm_storeu_si128,
};

use crate::gemm::{dot_lanes, KC, LANES};

/// `b` rows per register block.
const JR: usize = 4;

/// `c[m×n] += a · bᵀ` at AVX-512 width, for [`crate::gemm_bt`] once it
/// has checked the slice lengths. Returns `false`, leaving `c`
/// untouched, on a CPU without `avx512f` and `avx512dq`.
pub(crate) fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> bool {
    if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")) {
        return false;
    }
    // SAFETY: `gemm_bt_zmm` needs avx512f and avx512dq, and both were
    // detected on this CPU just above.
    unsafe { gemm_bt_zmm(m, k, n, a, b, c) };
    true
}

/// Rows in blocks of 8, then 4, then 2; the odd last row one lane dot
/// product per column.
#[target_feature(enable = "avx512f,avx512dq")]
fn gemm_bt_zmm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let m_even = m - m % 2;
    let mut i = 0;
    while i + 8 <= m_even {
        row_block::<4>(i, k, n, a, b, c);
        i += 8;
    }
    if i + 4 <= m_even {
        row_block::<2>(i, k, n, a, b, c);
        i += 4;
    }
    if i < m_even {
        row_block::<1>(i, k, n, a, b, c);
    }
    if m_even < m {
        let arow = &a[m_even * k..m * k];
        for j in 0..n {
            c[m_even * n + j] += dot_lanes(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Rows `i .. i + 2P` of `c`: `P` row pairs × `JR` columns per register
/// block across `n`, then the `n mod JR` columns one dot product each.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn row_block<const P: usize>(i: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let chunks = k / LANES;
    let tail = chunks * LANES..k;
    let row = |r: usize| &a[r * k..(r + 1) * k];
    let mut pairs: [[&[[f32; LANES]]; 2]; P] = [[&[]; 2]; P];
    for (p, pair) in pairs.iter_mut().enumerate() {
        for (h, half) in pair.iter_mut().enumerate() {
            *half = row(i + 2 * p + h).as_chunks::<LANES>().0;
        }
    }
    let mut j = 0;
    while j + JR <= n {
        let mut cols: [&[[f32; LANES]]; JR] = [&[]; JR];
        for (q, col) in cols.iter_mut().enumerate() {
            *col = b[(j + q) * k..(j + q + 1) * k].as_chunks::<LANES>().0;
        }
        let mut acc = [[_mm512_setzero_ps(); JR]; P];
        for ch in 0..chunks {
            let mut bv = [_mm512_setzero_ps(); JR];
            for (v, col) in bv.iter_mut().zip(&cols) {
                *v = _mm512_broadcast_f32x8(load8(&col[ch]));
            }
            for (accs, pair) in acc.iter_mut().zip(&pairs) {
                let lo = _mm512_castps256_ps512(load8(&pair[0][ch]));
                let av = _mm512_insertf32x8::<1>(lo, load8(&pair[1][ch]));
                for (s, &bq) in accs.iter_mut().zip(&bv) {
                    *s = _mm512_add_ps(*s, _mm512_mul_ps(av, bq));
                }
            }
        }
        // Two row pairs' 16 outputs at a time: lane `l` of each output
        // lands in one position of vector `l`, so eight adds from +0.0
        // sum every output's lanes 0..8 in order.
        for p in (0..P).step_by(2) {
            let (x, y) = (transpose4(acc[p]), transpose4(acc[(p + 1).min(P - 1)]));
            // Blocks [x0, x2, y0, y2] hold lanes 0..4 of both pairs'
            // outputs, blocks [x1, x3, y1, y3] lanes 4..8.
            let mut sum = _mm512_setzero_ps();
            for (&xl, &yl) in x.iter().zip(&y) {
                sum = _mm512_add_ps(sum, _mm512_shuffle_f32x4::<0x88>(xl, yl));
            }
            for (&xl, &yl) in x.iter().zip(&y) {
                sum = _mm512_add_ps(sum, _mm512_shuffle_f32x4::<0xDD>(xl, yl));
            }
            // Block `h` of `sum` is row `i + 2p + h`, columns `j..j + JR`.
            let sums = store16(sum);
            let rows = if p + 1 < P { 4 } else { 2 };
            for (h, block) in sums.chunks_exact(JR).take(rows).enumerate() {
                let r = i + 2 * p + h;
                let arow = row(r);
                for (q, &s) in block.iter().enumerate() {
                    let brow = &b[(j + q) * k..(j + q + 1) * k];
                    let mut s = s;
                    for t in tail.clone() {
                        s += arow[t] * brow[t];
                    }
                    c[r * n + j + q] += s;
                }
            }
        }
        j += JR;
    }
    for j in j..n {
        let brow = &b[j * k..(j + 1) * k];
        for r in i..i + 2 * P {
            c[r * n + j] += dot_lanes(row(r), brow);
        }
    }
}

/// Four accumulators `x[q]` (one row pair, `b` row `q`) transposed in
/// every 128-bit block: element `q` of block `B` of `y[t]` is element
/// `t` of block `B` of `x[q]`, i.e. lane `t` (blocks 0, 2) or `4 + t`
/// (blocks 1, 3) of the pair's output in column `q`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn transpose4(x: [__m512; JR]) -> [__m512; 4] {
    let t0 = _mm512_unpacklo_ps(x[0], x[1]);
    let t1 = _mm512_unpackhi_ps(x[0], x[1]);
    let t2 = _mm512_unpacklo_ps(x[2], x[3]);
    let t3 = _mm512_unpackhi_ps(x[2], x[3]);
    [
        _mm512_shuffle_ps::<0x44>(t0, t2),
        _mm512_shuffle_ps::<0xEE>(t0, t2),
        _mm512_shuffle_ps::<0x44>(t1, t3),
        _mm512_shuffle_ps::<0xEE>(t1, t3),
    ]
}

/// One 8-lane chunk as a ymm.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn load8(x: &[f32; LANES]) -> __m256 {
    // SAFETY: `x` is a reference to 8 initialised f32s, exactly what
    // the unaligned load reads.
    unsafe { _mm256_loadu_ps(x.as_ptr()) }
}

/// The 16 lanes of a zmm, in order.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn store16(v: __m512) -> [f32; 16] {
    let mut out = [0.0f32; 16];
    // SAFETY: `out` is 16 writable f32s, exactly what the unaligned
    // store writes.
    unsafe { _mm512_storeu_ps(out.as_mut_ptr(), v) };
    out
}

/// Columns per `f32` zmm.
const F32S: usize = 16;

/// One row band of [`crate::gemm`]'s driver at AVX-512 width: `c[R×n]
/// += A · B` over one depth panel, where `a_at(r, q)` is the band's row
/// `r` of `a` at depth `q` and row `q` of `B` is `src[offs[q] ..
/// offs[q] + n]`. The band's `a` values are packed depth-major first,
/// so the tile broadcasts each from a fixed-size array. Returns
/// `false`, leaving `c` untouched, on a CPU without `avx512f`.
pub(crate) fn gemm_band<const R: usize>(
    a_at: &impl Fn(usize, usize) -> f32,
    offs: &[usize],
    src: &[f32],
    n: usize,
    c: &mut [f32],
) -> bool {
    if !is_x86_feature_detected!("avx512f") {
        return false;
    }
    let mut packed = [[0.0f32; R]; KC];
    let ap = &mut packed[..offs.len()];
    for (q, ar) in ap.iter_mut().enumerate() {
        for (r, v) in ar.iter_mut().enumerate() {
            *v = a_at(r, q);
        }
    }
    // SAFETY: `gemm_band_zmm` needs avx512f, detected on this CPU just
    // above.
    unsafe { gemm_band_zmm::<R>(ap, offs, src, n, c) };
    true
}

/// Tiles of `R` rows × 32 columns, two zmm per row, then `R` × 16 with
/// the last tile masked. Every element's accumulator starts from +0
/// and takes `+ a·b` per depth in order, a multiply then an add, and
/// is added to `c` once: the portable tile's sequence, so lanes are
/// columns and no lane order enters the bytes.
#[target_feature(enable = "avx512f")]
fn gemm_band_zmm<const R: usize>(
    ap: &[[f32; R]],
    offs: &[usize],
    src: &[f32],
    n: usize,
    c: &mut [f32],
) {
    let mut j = 0;
    while j + 2 * F32S <= n {
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for (ar, &o) in ap.iter().zip(offs) {
            let (b0, b1) = src[o + j..o + j + 2 * F32S].split_at(F32S);
            let bv = [load_f32(b0), load_f32(b1)];
            for (accs, &av) in acc.iter_mut().zip(ar) {
                let av = _mm512_set1_ps(av);
                for (s, &bq) in accs.iter_mut().zip(&bv) {
                    *s = _mm512_add_ps(*s, _mm512_mul_ps(av, bq));
                }
            }
        }
        for (r, accs) in acc.iter().enumerate() {
            let crow = &mut c[r * n + j..r * n + j + 2 * F32S];
            for (cq, &s) in crow.chunks_exact_mut(F32S).zip(accs) {
                store_f32(cq, _mm512_add_ps(load_f32(cq), s));
            }
        }
        j += 2 * F32S;
    }
    while j < n {
        let w = F32S.min(n - j);
        let mut acc = [_mm512_setzero_ps(); R];
        for (ar, &o) in ap.iter().zip(offs) {
            let bq = load_f32(&src[o + j..o + j + w]);
            for (s, &av) in acc.iter_mut().zip(ar) {
                *s = _mm512_add_ps(*s, _mm512_mul_ps(_mm512_set1_ps(av), bq));
            }
        }
        for (r, &s) in acc.iter().enumerate() {
            let cq = &mut c[r * n + j..r * n + j + w];
            store_f32(cq, _mm512_add_ps(load_f32(cq), s));
        }
        j += w;
    }
}

/// The mask of a slice's first `min(len, 16)` lanes.
#[inline]
fn lane_mask(len: usize) -> u16 {
    if len >= F32S {
        u16::MAX
    } else {
        (1u16 << len) - 1
    }
}

/// Up to 16 leading values of `x` as a zmm, the lanes past its end 0.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_f32(x: &[f32]) -> __m512 {
    // SAFETY: the mask selects only the first `min(x.len(), 16)` lanes,
    // all inside `x`; a masked load reads nothing it does not select.
    unsafe { _mm512_maskz_loadu_ps(lane_mask(x.len()), x.as_ptr()) }
}

/// The leading `min(x.len(), 16)` lanes of `v` into `x`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_f32(x: &mut [f32], v: __m512) {
    // SAFETY: the mask selects only the first `min(x.len(), 16)` lanes,
    // all inside `x`; a masked store writes nothing it does not select.
    unsafe { _mm512_mask_storeu_ps(x.as_mut_ptr(), lane_mask(x.len()), v) }
}

/// `a` rows per [`gemm_bt_u8i8`] register block.
const MR: usize = 4;

/// Bytes per `vpdpbusd` operand.
const BYTES: usize = 64;

/// `c[m×n] += (a − za) · bᵀ` on `vpdpbusd`, for
/// [`crate::gemm_bt_u8i8`] once it has checked the slice lengths.
/// Returns `false`, leaving `c` untouched, on a CPU without avx512f,
/// avx512bw and avx512vnni.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bt_u8i8(
    m: usize,
    k: usize,
    n: usize,
    a: &[u8],
    lda: usize,
    za: u8,
    b: &[i8],
    ldb: usize,
    c: &mut [i32],
) -> bool {
    if !(is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vnni"))
    {
        return false;
    }
    // SAFETY: `gemm_bt_u8i8_zmm` needs avx512f, avx512bw and
    // avx512vnni, and all three were detected on this CPU just above.
    unsafe { gemm_bt_u8i8_zmm(m, k, n, a, lda, za, b, ldb, c) };
    true
}

/// Columns in blocks of [`JR`] `b` rows, each block's `za·Σ b` summed
/// once; then the block's rows of `a` in blocks of [`MR`], and the
/// last `m mod MR` as one block.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn gemm_bt_u8i8_zmm(
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
    let row = |i: usize| &a[i * lda..][..k];
    for j in (0..n).step_by(JR) {
        // A short last block repeats its last `b` row; the repeats'
        // sums are dropped.
        let cols: [&[i8]; JR] = std::array::from_fn(|q| &b[(j + q).min(n - 1) * ldb..][..k]);
        let zsums = zero_point_sums(&cols, za);
        let zsums = &zsums[..JR.min(n - j)];
        let mut i = 0;
        while i + MR <= m {
            let rows = [row(i), row(i + 1), row(i + 2), row(i + 3)];
            dp_rows(rows, &cols, zsums, n, &mut c[i * n + j..]);
            i += MR;
        }
        if i < m {
            let c = &mut c[i * n + j..];
            match m - i {
                3 => dp_rows([row(i), row(i + 1), row(i + 2)], &cols, zsums, n, c),
                2 => dp_rows([row(i), row(i + 1)], &cols, zsums, n, c),
                _ => dp_rows([row(i)], &cols, zsums, n, c),
            }
        }
    }
}

/// `za·Σ b` of each row in `cols`: `vpdpbusd` against a ones vector.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn zero_point_sums(cols: &[&[i8]; JR], za: u8) -> [i32; JR] {
    let ones = _mm512_set1_epi8(1);
    let mut sums = [_mm512_setzero_si512(); JR];
    for p in (0..cols[0].len()).step_by(BYTES) {
        for (sum, col) in sums.iter_mut().zip(cols) {
            *sum = _mm512_dpbusd_epi32(*sum, ones, load_i8(&col[p..]));
        }
    }
    sum4(sums).map(|s| i32::from(za).wrapping_mul(s))
}

/// The `R` rows `rows` of `a` against the column block `cols`, into
/// the first `zsums.len()` elements of the `R` rows of `c`, `ldc`
/// apart, less each column's `za·Σ b`: each `b` chunk is loaded once
/// for all `R` rows.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn dp_rows<const R: usize>(
    rows: [&[u8]; R],
    cols: &[&[i8]; JR],
    zsums: &[i32],
    ldc: usize,
    c: &mut [i32],
) {
    let k = rows[0].len();
    let mut acc = [[_mm512_setzero_si512(); JR]; R];
    for p in (0..k).step_by(BYTES) {
        let mut bv = [_mm512_setzero_si512(); JR];
        for (v, col) in bv.iter_mut().zip(cols) {
            *v = load_i8(&col[p..]);
        }
        for (accs, row) in acc.iter_mut().zip(&rows) {
            let av = load_u8(&row[p..]);
            for (s, &bq) in accs.iter_mut().zip(&bv) {
                *s = _mm512_dpbusd_epi32(*s, av, bq);
            }
        }
    }
    for (h, accs) in acc.iter().enumerate() {
        let dots = sum4(*accs);
        let crow = &mut c[h * ldc..][..zsums.len()];
        for ((cij, &dot), &zsum) in crow.iter_mut().zip(&dots).zip(zsums) {
            *cij = cij.wrapping_add(dot).wrapping_sub(zsum);
        }
    }
}

/// The lane sums of four `i32` accumulators: one transpose-and-add
/// tree, so the four share its shuffles.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn sum4(v: [__m512i; JR]) -> [i32; JR] {
    // Pairwise within each 128-bit block: lane `q` of block `B` then
    // holds accumulator `q`'s four lanes of block `B`, summed.
    let t0 = _mm512_add_epi32(
        _mm512_unpacklo_epi32(v[0], v[1]),
        _mm512_unpackhi_epi32(v[0], v[1]),
    );
    let t1 = _mm512_add_epi32(
        _mm512_unpacklo_epi32(v[2], v[3]),
        _mm512_unpackhi_epi32(v[2], v[3]),
    );
    let t = _mm512_add_epi32(_mm512_unpacklo_epi64(t0, t1), _mm512_unpackhi_epi64(t0, t1));
    // Then the four blocks.
    let y = _mm256_add_epi32(_mm512_castsi512_si256(t), _mm512_extracti64x4_epi64::<1>(t));
    let x = _mm_add_epi32(_mm256_castsi256_si128(y), _mm256_extracti128_si256::<1>(y));
    let mut out = [0i32; JR];
    // SAFETY: `out` is 4 writable i32s, exactly what the unaligned
    // store writes.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), x) };
    out
}

/// The mask of a slice's first `min(len, 64)` bytes.
#[inline]
fn byte_mask(len: usize) -> u64 {
    if len >= BYTES {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Up to 64 leading codes of `x` as a zmm, the bytes past its end 0.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn load_u8(x: &[u8]) -> __m512i {
    // SAFETY: the mask selects only the first `min(x.len(), 64)` bytes,
    // all inside `x`; a masked load reads nothing it does not select.
    unsafe { _mm512_maskz_loadu_epi8(byte_mask(x.len()), x.as_ptr().cast()) }
}

/// Up to 64 leading weights of `x` as a zmm, the bytes past its end 0.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn load_i8(x: &[i8]) -> __m512i {
    // SAFETY: the mask selects only the first `min(x.len(), 64)` bytes,
    // all inside `x`; a masked load reads nothing it does not select.
    unsafe { _mm512_maskz_loadu_epi8(byte_mask(x.len()), x.as_ptr()) }
}

#[cfg(test)]
mod tests {
    use crate::gemm::{band_portable, gemm_bt_portable, gemm_bt_u8i8_portable};

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        // Full 24-bit mantissas, so products and sums round and a
        // reordered or fused accumulation shows in the bits.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `c0 + a · bᵀ` on the AVX-512 kernel, or `None` on a CPU without it.
    fn zmm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c0: &[f32]) -> Option<Vec<f32>> {
        let mut c = c0.to_vec();
        super::gemm_bt(m, k, n, a, b, &mut c).then_some(c)
    }

    #[test]
    fn avx512_kernel_matches_the_portable_kernel_bit_for_bit() {
        if zmm(1, 1, 1, &[1.0], &[1.0], &[0.0]).is_none() {
            eprintln!("skipped: this CPU lacks avx512f + avx512dq, so gemm_bt runs the portable kernel only");
            return;
        }
        for n in (1..=13).chain([84, 120]) {
            for k in [0, 1, 7, 8, 9, 84, 120, 400] {
                for m in 1..=19 {
                    let seed = (m * 1000 + n) as u64 ^ (k as u64) << 20;
                    let (a, b, c0) = (fill(m * k, seed), fill(n * k, !seed), fill(m * n, seed + 1));
                    let mut want = c0.clone();
                    gemm_bt_portable(m, k, n, &a, &b, &mut want);
                    let got = zmm(m, k, n, &a, &b, &c0).expect("detected above");
                    assert_eq!(bits(&got), bits(&want), "gemm_bt {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn stacked_rows_match_portable_per_block_calls() {
        // The fused suffix's fc layers, 100 samples and 10 stacked on the
        // row axis, plus a ragged block height (odd rows per block).
        for (m, k, n, s) in [(1, 400, 120, 100), (1, 120, 84, 10), (3, 84, 10, 7)] {
            let (a, b) = (fill(s * m * k, 5), fill(n * k, 6));
            let c0 = fill(s * m * n, 7);
            let mut fused = c0.clone();
            crate::gemm_bt_stacked(m, k, n, s, &a, &b, &mut fused);
            for blk in 0..s {
                let mut want = c0[blk * m * n..(blk + 1) * m * n].to_vec();
                gemm_bt_portable(m, k, n, &a[blk * m * k..(blk + 1) * m * k], &b, &mut want);
                assert_eq!(
                    bits(&fused[blk * m * n..(blk + 1) * m * n]),
                    bits(&want),
                    "{m}x{k}x{n} s={s}: row block {blk} moved"
                );
            }
        }
    }

    /// One row band of `R` rows on the zmm tile and on the portable
    /// tile, compared bit for bit, or `false` on a CPU without avx512f.
    fn band_matches<const R: usize>(k: usize, n: usize, seed: u64) -> bool {
        let a = fill(R * k, seed);
        let a_at = |r: usize, q: usize| a[r * k + q];
        // Rows out of order and overlapping in a short `src`.
        let src = fill(n + 2 * k + 5, !seed);
        let offs: Vec<usize> = (0..k).map(|p| (p * 7 + 3) % (2 * k + 6)).collect();
        let c0 = fill(R * n, seed + 1);
        let mut want = c0.clone();
        band_portable::<R>(&a_at, &offs, &src, n, &mut want);
        let mut got = c0;
        if !super::gemm_band::<R>(&a_at, &offs, &src, n, &mut got) {
            return false;
        }
        assert_eq!(bits(&got), bits(&want), "band R={R} k={k} n={n}");
        true
    }

    #[test]
    fn zmm_gemm_tile_matches_the_portable_tile_bit_for_bit() {
        if !band_matches::<4>(1, 1, 0) {
            eprintln!("skipped: this CPU lacks avx512f, so gemm runs the portable tile only");
            return;
        }
        for n in (1..=47).chain([136, 892]) {
            for k in [1, 25, 150, 256] {
                let seed = (n * 1000 + k) as u64;
                assert!(band_matches::<4>(k, n, seed) && band_matches::<2>(k, n, seed));
            }
        }
    }

    #[test]
    fn vnni_kernel_matches_the_portable_kernel_bit_for_bit() {
        let mut c = [0];
        if !super::gemm_bt_u8i8(1, 1, 1, &[1], 1, 0, &[1], 1, &mut c) {
            eprintln!(
                "skipped: this CPU lacks avx512f + avx512bw + avx512vnni, so gemm_bt_u8i8 runs the portable kernel only"
            );
            return;
        }
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut byte = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        };
        // LeNet-5's convolution reductions (25, 150) and linear ones.
        for k in [0, 1, 25, 63, 64, 65, 84, 120, 128, 129, 150, 400] {
            for (z, za) in [0u8, 1, 127, 128, 255].into_iter().enumerate() {
                // Rows packed (stride k), strided past their end, and
                // `a` at a convolution's im2row stride, k + 8.
                let lda = if z == 4 { k + 8 } else { k + 3 * z };
                let ldb = k + 64 * (z % 2) + z;
                for m in 1..=9 {
                    for n in 1..=9 {
                        let mut a: Vec<u8> = (0..m * lda).map(|_| byte()).collect();
                        let mut b: Vec<i8> = (0..n * ldb).map(|_| byte() as i8).collect();
                        if k > 0 {
                            (a[0], a[(m - 1) * lda + k - 1]) = (0, 255);
                            (b[0], b[k / 2], b[(n - 1) * ldb + k - 1]) = (-128, -127, 127);
                        }
                        let c0: Vec<i32> = (0..m * n).map(|_| i32::from(byte() as i8)).collect();
                        let mut want = c0.clone();
                        gemm_bt_u8i8_portable(m, k, n, &a, lda, za, &b, ldb, &mut want);
                        let mut got = c0;
                        assert!(super::gemm_bt_u8i8(m, k, n, &a, lda, za, &b, ldb, &mut got));
                        assert_eq!(
                            got, want,
                            "gemm_bt_u8i8 {m}x{k}x{n} lda={lda} ldb={ldb} za={za}"
                        );
                    }
                }
            }
        }
        // Reductions long enough to leave the i32 range in every lane:
        // the non-saturating vpdpbusd wraps as the portable kernel does.
        let k = (1 << 21) + 65;
        for (q, w, za) in [(255u8, 127i8, 0u8), (255, -128, 0), (0, 127, 255)] {
            let (a, b) = (vec![q; 2 * k], vec![w; k]);
            let mut want = vec![7; 2];
            gemm_bt_u8i8_portable(2, k, 1, &a, k, za, &b, k, &mut want);
            let mut got = vec![7; 2];
            assert!(super::gemm_bt_u8i8(2, k, 1, &a, k, za, &b, k, &mut got));
            assert_eq!(
                got, want,
                "gemm_bt_u8i8 k={k} a={q} b={w} za={za}: wrapping"
            );
        }
    }
}
