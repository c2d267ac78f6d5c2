//! Packing of `A` and `B` blocks into micro-panel layout, plus the **fused**
//! variants that piggyback checksum encoding on the packing loads (paper
//! §2.2).
//!
//! ## Layouts
//!
//! Packed `A~` for an `m x k` block with micro-tile rows `MR`:
//! `ceil(m / MR)` slabs, slab `p` holding rows `[p*MR, p*MR + MR)`; inside a
//! slab, elements are k-major: `a~[p*(MR*k) + q*MR + i] = alpha * A[p*MR+i, q]`,
//! zero-padded in `i` past the block edge. The micro-kernel then streams one
//! slab linearly.
//!
//! Packed `B~` for a `k x n` block with micro-tile columns `NR`:
//! `ceil(n / NR)` slabs, slab `q` holding columns `[q*NR, q*NR + NR)`;
//! `b~[q*(NR*k) + p*NR + j] = B[p, q*NR+j]`, zero-padded in `j`.
//!
//! ## Fusion (the paper's core trick)
//!
//! Each element of `B` loaded for packing is reused **three** times:
//! 1. stored into `B~`,
//! 2. accumulated into the panel checksum `bc[p] += B[p, j]` (paper's B_c),
//! 3. multiplied into the *encoded* column checksum of `C`:
//!    `enc_col[j] += ar[p] * B[p, j]` (paper's C_r update, with `ar = alpha *
//!    e^T A` precomputed).
//!
//! Each element of `A` loaded for packing is reused twice: stored into `A~`
//! (scaled by `alpha`) and multiplied into the encoded row checksum of `C`:
//! `enc_row[i] += a~[i, q] * bc[q]` (paper's C_c update).

use crate::matrix::MatRef;
use crate::scalar::Scalar;

/// Packs an `m x k` block of `A` (scaled by `alpha`) into micro-panel layout.
///
/// `out` must hold at least `ceil(m/mr)*mr*k` elements.
pub fn pack_a<T: Scalar>(a: &MatRef<'_, T>, alpha: T, mr: usize, out: &mut [T]) {
    let (m, k) = (a.nrows(), a.ncols());
    let panels = m.div_ceil(mr);
    assert!(out.len() >= panels * mr * k, "pack_a: out buffer too small");

    for p in 0..panels {
        let row0 = p * mr;
        let rows = mr.min(m - row0);
        let slab = &mut out[p * mr * k..(p + 1) * mr * k];
        for q in 0..k {
            let col = &a.col(q)[row0..row0 + rows];
            let dst = &mut slab[q * mr..q * mr + mr];
            for i in 0..rows {
                dst[i] = alpha * col[i];
            }
            for d in dst[rows..].iter_mut() {
                *d = T::ZERO;
            }
        }
    }
}

/// Fused `A` packing: additionally accumulates the encoded row checksum of
/// `C`, `enc_row[i] += a~[i, q] * bc[q]`, reusing each packed element.
///
/// * `bc` — the (already reduced) panel checksum `B(panel) * e`, length `k`.
/// * `enc_row` — length `m`; accumulated in place.
pub fn pack_a_fused<T: Scalar>(
    a: &MatRef<'_, T>,
    alpha: T,
    mr: usize,
    out: &mut [T],
    bc: &[T],
    enc_row: &mut [T],
) {
    let (m, k) = (a.nrows(), a.ncols());
    assert_eq!(bc.len(), k, "pack_a_fused: bc length mismatch");
    assert_eq!(enc_row.len(), m, "pack_a_fused: enc_row length mismatch");
    let panels = m.div_ceil(mr);
    assert!(
        out.len() >= panels * mr * k,
        "pack_a_fused: out buffer too small"
    );

    // Stream order: four columns of the block at a time, each read once
    // top to bottom.
    let k4 = k - k % 4;
    for q in (0..k4).step_by(4) {
        let cols = [a.col(q), a.col(q + 1), a.col(q + 2), a.col(q + 3)];
        let bq = [bc[q], bc[q + 1], bc[q + 2], bc[q + 3]];
        pack_a_fused_cols(cols, bq, alpha, mr, &mut out[q * mr..], k, enc_row);
    }
    for q in k4..k {
        pack_a_fused_cols(
            [a.col(q)],
            [bc[q]],
            alpha,
            mr,
            &mut out[q * mr..],
            k,
            enc_row,
        );
    }
}

/// `G` columns of [`pack_a_fused`], read as `G` sequential streams and
/// scattered `mr` rows at a time into every slab (`out` starts at the
/// first column's place in slab 0; slabs are `mr * k` apart). Each
/// `enc_row[i]` takes its adds in ascending column order, exactly as a
/// slab-at-a-time walk does, so the checksum is bit-identical to it.
fn pack_a_fused_cols<T: Scalar, const G: usize>(
    cols: [&[T]; G],
    bq: [T; G],
    alpha: T,
    mr: usize,
    out: &mut [T],
    k: usize,
    enc_row: &mut [T],
) {
    let m = enc_row.len();
    for p in 0..m.div_ceil(mr) {
        let row0 = p * mr;
        let rows = mr.min(m - row0);
        let enc = &mut enc_row[row0..row0 + rows];
        let dst = &mut out[p * mr * k..][..G * mr];
        for i in 0..rows {
            let mut acc = enc[i];
            for t in 0..G {
                let v = alpha * cols[t][row0 + i];
                dst[t * mr + i] = v;
                acc = v.mul_add(bq[t], acc);
            }
            enc[i] = acc;
        }
        if rows < mr {
            for t in 0..G {
                dst[t * mr + rows..(t + 1) * mr].fill(T::ZERO);
            }
        }
    }
}

/// Packs a `k x n` block of `B` into micro-panel layout.
///
/// `out` must hold at least `k * ceil(n/nr)*nr` elements.
pub fn pack_b<T: Scalar>(b: &MatRef<'_, T>, nr: usize, out: &mut [T]) {
    let (k, n) = (b.nrows(), b.ncols());
    let panels = n.div_ceil(nr);
    assert!(out.len() >= panels * nr * k, "pack_b: out buffer too small");

    for q in 0..panels {
        let col0 = q * nr;
        let cols = nr.min(n - col0);
        let slab = &mut out[q * nr * k..(q + 1) * nr * k];
        if cols < nr {
            slab.fill(T::ZERO);
        }
        for j in 0..cols {
            let col = b.col(col0 + j);
            for p in 0..k {
                slab[p * nr + j] = col[p];
            }
        }
    }
}

/// Fused `B` packing: the paper's triple reuse of every loaded `B` element.
///
/// * `ar` — `alpha * (e^T A)` restricted to this `k` panel, length `k`.
/// * `bc` — panel checksum output, length `k`; **accumulated** (callers zero
///   it per panel, the parallel driver accumulates thread partials).
/// * `enc_col` — encoded column checksum of `C` for these `n` columns,
///   length `n`; accumulated in place.
pub fn pack_b_fused<T: Scalar>(
    b: &MatRef<'_, T>,
    nr: usize,
    out: &mut [T],
    ar: &[T],
    bc: &mut [T],
    enc_col: &mut [T],
) {
    let (k, n) = (b.nrows(), b.ncols());
    assert_eq!(ar.len(), k, "pack_b_fused: ar length mismatch");
    assert_eq!(bc.len(), k, "pack_b_fused: bc length mismatch");
    assert_eq!(enc_col.len(), n, "pack_b_fused: enc_col length mismatch");
    let panels = n.div_ceil(nr);
    assert!(
        out.len() >= panels * nr * k,
        "pack_b_fused: out buffer too small"
    );

    for q in 0..panels {
        let col0 = q * nr;
        let cols = nr.min(n - col0);
        let slab = &mut out[q * nr * k..(q + 1) * nr * k];
        let enc = &mut enc_col[col0..col0 + cols];
        match (nr, cols == nr) {
            (4, true) => pack_b_fused_slab::<T, 4>(b, col0, slab, ar, bc, enc),
            (6, true) => pack_b_fused_slab::<T, 6>(b, col0, slab, ar, bc, enc),
            (8, true) => pack_b_fused_slab::<T, 8>(b, col0, slab, ar, bc, enc),
            _ => {
                // Ragged (or uncommon-width) slab: one column at a time.
                if cols < nr {
                    slab.fill(T::ZERO);
                }
                for (j, e) in enc.iter_mut().enumerate() {
                    let col = b.col(col0 + j);
                    let mut acc = T::ZERO;
                    for p in 0..k {
                        let v = col[p];
                        slab[p * nr + j] = v; // reuse 1: pack
                        bc[p] += v; // reuse 2: B_c
                        acc = ar[p].mul_add(v, acc); // reuse 3: C_r encode
                    }
                    *e += acc;
                }
            }
        }
    }
}

/// One full `NR`-wide slab of [`pack_b_fused`] in stream order: depth `p`
/// outer, the slab's columns inner, so the reads are `NR` sequential
/// streams and the writes are contiguous. `NR` independent `enc`
/// accumulators replace the per-column add chain, and `bc[p]` takes its
/// adds in ascending `j` exactly as the column-at-a-time walk does, so
/// every checksum is bit-identical to it.
fn pack_b_fused_slab<T: Scalar, const NR: usize>(
    b: &MatRef<'_, T>,
    col0: usize,
    slab: &mut [T],
    ar: &[T],
    bc: &mut [T],
    enc_col: &mut [T],
) {
    let cols: [&[T]; NR] = std::array::from_fn(|j| b.col(col0 + j));
    let mut enc = [T::ZERO; NR];
    for (p, (dst, (&arp, bcp))) in slab
        .chunks_exact_mut(NR)
        .zip(ar.iter().zip(bc.iter_mut()))
        .enumerate()
    {
        let mut s = *bcp;
        for j in 0..NR {
            let v = cols[j][p];
            dst[j] = v; // reuse 1: pack
            s += v; // reuse 2: B_c
            enc[j] = arp.mul_add(v, enc[j]); // reuse 3: C_r encode
        }
        *bcp = s;
    }
    for (e, acc) in enc_col.iter_mut().zip(enc) {
        *e += acc;
    }
}

/// Column sums of `A` scaled by `alpha`: `ar[q] = alpha * Σ_i A[i, q]`
/// (the paper's A_r checksum, encoded once per GEMM).
pub fn col_sums_scaled<T: Scalar>(a: &MatRef<'_, T>, alpha: T, out: &mut [T]) {
    let (m, k) = (a.nrows(), a.ncols());
    assert_eq!(out.len(), k, "col_sums_scaled: out length mismatch");
    // Four columns at a time: four independent add chains instead of one
    // latency-bound chain. Each column is still summed top to bottom, so
    // the sums are bit-identical to a column-at-a-time walk.
    let k4 = k - k % 4;
    for q in (0..k4).step_by(4) {
        let cols = [a.col(q), a.col(q + 1), a.col(q + 2), a.col(q + 3)];
        let mut s = [T::ZERO; 4];
        for i in 0..m {
            for t in 0..4 {
                s[t] += cols[t][i];
            }
        }
        for (o, s) in out[q..q + 4].iter_mut().zip(s) {
            *o = alpha * s;
        }
    }
    for q in k4..k {
        out[q] = alpha * a.col(q).iter().fold(T::ZERO, |s, &x| s + x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn pack_a_layout_exact_multiple() {
        let m = 8;
        let k = 3;
        let mr = 4;
        let a = Matrix::<f64>::from_fn(m, k, |i, j| (i * 100 + j) as f64);
        let mut out = vec![f64::NAN; (m / mr) * mr * k];
        pack_a(&a.as_ref(), 1.0, mr, &mut out);
        for p in 0..m / mr {
            for q in 0..k {
                for i in 0..mr {
                    assert_eq!(
                        out[p * mr * k + q * mr + i],
                        ((p * mr + i) * 100 + q) as f64,
                        "panel {p} q {q} i {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_a_zero_pads_edge() {
        let m = 5;
        let k = 2;
        let mr = 4;
        let a = Matrix::<f64>::filled(m, k, 1.0);
        let mut out = vec![f64::NAN; 2 * mr * k];
        pack_a(&a.as_ref(), 1.0, mr, &mut out);
        // second panel has 1 valid row, 3 padded
        for q in 0..k {
            assert_eq!(out[mr * k + q * mr], 1.0);
            for i in 1..mr {
                assert_eq!(out[mr * k + q * mr + i], 0.0);
            }
        }
    }

    #[test]
    fn pack_a_applies_alpha() {
        let a = Matrix::<f64>::filled(4, 2, 3.0);
        let mut out = vec![0.0; 4 * 2];
        pack_a(&a.as_ref(), -2.0, 4, &mut out);
        assert!(out.iter().all(|&v| v == -6.0));
    }

    #[test]
    fn pack_b_layout() {
        let k = 3;
        let n = 8;
        let nr = 4;
        let b = Matrix::<f64>::from_fn(k, n, |p, j| (p * 100 + j) as f64);
        let mut out = vec![f64::NAN; k * n];
        pack_b(&b.as_ref(), nr, &mut out);
        for q in 0..n / nr {
            for p in 0..k {
                for j in 0..nr {
                    assert_eq!(out[q * nr * k + p * nr + j], (p * 100 + q * nr + j) as f64);
                }
            }
        }
    }

    #[test]
    fn pack_b_zero_pads_edge() {
        let k = 2;
        let n = 5;
        let nr = 4;
        let b = Matrix::<f64>::filled(k, n, 1.0);
        let mut out = vec![f64::NAN; k * 2 * nr];
        pack_b(&b.as_ref(), nr, &mut out);
        // second slab: col 0 valid, cols 1..4 zero
        for p in 0..k {
            assert_eq!(out[nr * k + p * nr], 1.0);
            for j in 1..nr {
                assert_eq!(out[nr * k + p * nr + j], 0.0);
            }
        }
    }

    #[test]
    fn fused_b_checksums_match_definitions() {
        let k = 7;
        let n = 10;
        let nr = 4;
        let b = Matrix::<f64>::random(k, n, 5);
        let ar: Vec<f64> = (0..k).map(|p| 0.5 * (p as f64 + 1.0)).collect();

        let mut out = vec![0.0; k * n.div_ceil(nr) * nr];
        let mut bc = vec![0.0; k];
        let mut enc_col = vec![0.25; n]; // nonzero start: accumulation semantics

        pack_b_fused(&b.as_ref(), nr, &mut out, &ar, &mut bc, &mut enc_col);

        // bc[p] = Σ_j B[p,j]
        for p in 0..k {
            let want: f64 = (0..n).map(|j| b.get(p, j)).sum();
            assert!((bc[p] - want).abs() < 1e-12, "bc[{p}]");
        }
        // enc_col[j] = 0.25 + Σ_p ar[p]*B[p,j]
        for j in 0..n {
            let want: f64 = 0.25 + (0..k).map(|p| ar[p] * b.get(p, j)).sum::<f64>();
            assert!((enc_col[j] - want).abs() < 1e-12, "enc_col[{j}]");
        }
        // Packed values identical to unfused packing.
        let mut plain = vec![0.0; out.len()];
        pack_b(&b.as_ref(), nr, &mut plain);
        assert_eq!(out, plain);
    }

    #[test]
    fn fused_a_checksum_matches_definition() {
        let m = 11;
        let k = 6;
        let mr = 4;
        let alpha = 1.5;
        let a = Matrix::<f64>::random(m, k, 6);
        let bc: Vec<f64> = (0..k).map(|q| (q as f64) - 2.5).collect();

        let mut out = vec![0.0; m.div_ceil(mr) * mr * k];
        let mut enc_row = vec![1.0; m];
        pack_a_fused(&a.as_ref(), alpha, mr, &mut out, &bc, &mut enc_row);

        for i in 0..m {
            let want: f64 = 1.0 + (0..k).map(|q| alpha * a.get(i, q) * bc[q]).sum::<f64>();
            assert!((enc_row[i] - want).abs() < 1e-12, "enc_row[{i}]");
        }
        let mut plain = vec![0.0; out.len()];
        pack_a(&a.as_ref(), alpha, mr, &mut plain);
        assert_eq!(out, plain);
    }

    /// The column-at-a-time `pack_b_fused` loop the stream-order version
    /// replaced; kept as the bit-identity reference.
    fn pack_b_fused_by_column(
        b: &MatRef<'_, f64>,
        nr: usize,
        out: &mut [f64],
        ar: &[f64],
        bc: &mut [f64],
        enc_col: &mut [f64],
    ) {
        let (k, n) = (b.nrows(), b.ncols());
        for q in 0..n.div_ceil(nr) {
            let col0 = q * nr;
            let cols = nr.min(n - col0);
            let slab = &mut out[q * nr * k..(q + 1) * nr * k];
            if cols < nr {
                slab.fill(0.0);
            }
            for j in 0..cols {
                let col = b.col(col0 + j);
                let mut enc = 0.0;
                for p in 0..k {
                    let v = col[p];
                    slab[p * nr + j] = v;
                    bc[p] += v;
                    enc = Scalar::mul_add(ar[p], v, enc);
                }
                enc_col[col0 + j] += enc;
            }
        }
    }

    /// The slab-at-a-time `pack_a_fused` loop the stream-order version
    /// replaced; kept as the bit-identity reference.
    fn pack_a_fused_by_slab(
        a: &MatRef<'_, f64>,
        alpha: f64,
        mr: usize,
        out: &mut [f64],
        bc: &[f64],
        enc_row: &mut [f64],
    ) {
        let (m, k) = (a.nrows(), a.ncols());
        for p in 0..m.div_ceil(mr) {
            let row0 = p * mr;
            let rows = mr.min(m - row0);
            let slab = &mut out[p * mr * k..(p + 1) * mr * k];
            let enc = &mut enc_row[row0..row0 + rows];
            for q in 0..k {
                let col = &a.col(q)[row0..row0 + rows];
                let dst = &mut slab[q * mr..q * mr + mr];
                for i in 0..rows {
                    let v = alpha * col[i];
                    dst[i] = v;
                    enc[i] = Scalar::mul_add(v, bc[q], enc[i]);
                }
                dst[rows..].fill(0.0);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_b_stream_order_is_bit_identical() {
        // Full slabs of every specialised width, ragged tails, a strided
        // sub-view, and non-zero incoming bc/enc_col (the parallel driver
        // accumulates thread partials into them).
        let big = Matrix::<f64>::random(40, 70, 21);
        for nr in [3, 4, 6, 8, 16] {
            for (k, n) in [(1, 1), (7, 8), (13, 17), (37, 64), (29, 61)] {
                let b = big.as_ref().submatrix(2, 3, k, n);
                let ar: Vec<f64> = (0..k).map(|p| 0.3 * p as f64 - 1.7).collect();
                let len = k * n.div_ceil(nr) * nr;
                let bc0: Vec<f64> = (0..k).map(|p| 0.1 * p as f64 + 0.05).collect();
                let enc0: Vec<f64> = (0..n).map(|j| 1.0 / (j as f64 + 3.0)).collect();

                let (mut out, mut bc, mut enc) = (vec![f64::NAN; len], bc0.clone(), enc0.clone());
                pack_b_fused(&b, nr, &mut out, &ar, &mut bc, &mut enc);
                let (mut out_r, mut bc_r, mut enc_r) = (vec![f64::NAN; len], bc0, enc0);
                pack_b_fused_by_column(&b, nr, &mut out_r, &ar, &mut bc_r, &mut enc_r);

                let what = format!("nr={nr} k={k} n={n}");
                assert_eq!(bits(&out), bits(&out_r), "packed B~ {what}");
                assert_eq!(bits(&bc), bits(&bc_r), "bc {what}");
                assert_eq!(bits(&enc), bits(&enc_r), "enc_col {what}");
            }
        }
    }

    #[test]
    fn fused_a_stream_order_is_bit_identical() {
        let big = Matrix::<f64>::random(90, 40, 22);
        for mr in [4, 8, 16] {
            for (m, k) in [(1, 1), (16, 5), (17, 9), (61, 33), (83, 38)] {
                let a = big.as_ref().submatrix(5, 1, m, k);
                let bc: Vec<f64> = (0..k).map(|q| 0.7 - 0.2 * q as f64).collect();
                let len = m.div_ceil(mr) * mr * k;
                let enc0: Vec<f64> = (0..m).map(|i| 0.5 + i as f64).collect();

                let (mut out, mut enc) = (vec![f64::NAN; len], enc0.clone());
                pack_a_fused(&a, -1.25, mr, &mut out, &bc, &mut enc);
                let (mut out_r, mut enc_r) = (vec![f64::NAN; len], enc0);
                pack_a_fused_by_slab(&a, -1.25, mr, &mut out_r, &bc, &mut enc_r);

                let what = format!("mr={mr} m={m} k={k}");
                assert_eq!(bits(&out), bits(&out_r), "packed A~ {what}");
                assert_eq!(bits(&enc), bits(&enc_r), "enc_row {what}");
            }
        }
    }

    #[test]
    fn col_sums_scaled_matches() {
        // Bit-identical to summing each column top to bottom, on column
        // counts with and without a remainder past the groups of four.
        for k in [1, 4, 7, 10] {
            let a = Matrix::<f64>::random(37, k, 7);
            let mut ar = vec![0.0; k];
            col_sums_scaled(&a.as_ref(), 2.0, &mut ar);
            for q in 0..k {
                let mut want = 0.0;
                for i in 0..37 {
                    want += a.get(i, q);
                }
                assert_eq!(ar[q].to_bits(), (2.0 * want).to_bits(), "k={k} q={q}");
            }
        }
    }

    #[test]
    fn pack_from_submatrix_view() {
        // Packing must respect non-trivial leading dimensions.
        let big = Matrix::<f64>::from_fn(10, 10, |i, j| (i * 10 + j) as f64);
        let view = big.as_ref().submatrix(2, 3, 4, 2);
        let mut out = vec![0.0; 4 * 2];
        pack_a(&view, 1.0, 4, &mut out);
        assert_eq!(out[0], 23.0); // A[2,3]
        assert_eq!(out[1], 33.0); // A[3,3]
        assert_eq!(out[4], 24.0); // A[2,4]
    }

    #[test]
    fn empty_k_panel() {
        let a = Matrix::<f64>::zeros(4, 0);
        let mut out = vec![0.0; 0];
        pack_a(&a.as_ref(), 1.0, 4, &mut out); // must not panic
        let b = Matrix::<f64>::zeros(0, 4);
        let mut outb = vec![0.0; 0];
        pack_b(&b.as_ref(), 4, &mut outb);
    }
}

/// Packs an `m x k` **logical** block of `A = src^T` (i.e. `src` is a
/// `k x m` column-major view) into micro-panel layout, scaled by `alpha`.
///
/// Reads are contiguous (each logical row of `A` is one column of `src`);
/// writes stride by `mr` — the standard transposed-packing trade.
pub fn pack_a_trans<T: Scalar>(src: &MatRef<'_, T>, alpha: T, mr: usize, out: &mut [T]) {
    let (k, m) = (src.nrows(), src.ncols());
    let panels = m.div_ceil(mr);
    assert!(
        out.len() >= panels * mr * k,
        "pack_a_trans: out buffer too small"
    );

    for p in 0..panels {
        let row0 = p * mr;
        let rows = mr.min(m - row0);
        let slab = &mut out[p * mr * k..(p + 1) * mr * k];
        if rows < mr {
            slab.fill(T::ZERO);
        }
        for i in 0..rows {
            let col = src.col(row0 + i);
            for q in 0..k {
                slab[q * mr + i] = alpha * col[q];
            }
        }
    }
}

/// Packs a `k x n` **logical** block of `B = src^T` (i.e. `src` is an
/// `n x k` column-major view) into micro-panel layout.
pub fn pack_b_trans<T: Scalar>(src: &MatRef<'_, T>, nr: usize, out: &mut [T]) {
    let (n, k) = (src.nrows(), src.ncols());
    let panels = n.div_ceil(nr);
    assert!(
        out.len() >= panels * nr * k,
        "pack_b_trans: out buffer too small"
    );

    for q in 0..panels {
        let col0 = q * nr;
        let cols = nr.min(n - col0);
        let slab = &mut out[q * nr * k..(q + 1) * nr * k];
        if cols < nr {
            slab.fill(T::ZERO);
        }
        // Logical B[p, col0+j] = src[col0+j, p]: walk src columns (= logical
        // B rows) contiguously.
        for p in 0..k {
            let col = src.col(p);
            for j in 0..cols {
                slab[p * nr + j] = col[col0 + j];
            }
        }
    }
}

#[cfg(test)]
mod trans_tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn pack_a_trans_matches_pack_a_of_transpose() {
        let src = Matrix::<f64>::random(9, 13, 31); // k x m storage
        let logical_a = src.transpose(); // m x k
        let mr = 4;
        let (m, k) = (logical_a.nrows(), logical_a.ncols());
        let mut out1 = vec![0.0; m.div_ceil(mr) * mr * k];
        let mut out2 = vec![0.0; m.div_ceil(mr) * mr * k];
        pack_a(&logical_a.as_ref(), 2.0, mr, &mut out1);
        pack_a_trans(&src.as_ref(), 2.0, mr, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn pack_b_trans_matches_pack_b_of_transpose() {
        let src = Matrix::<f64>::random(11, 7, 32); // n x k storage
        let logical_b = src.transpose(); // k x n
        let nr = 4;
        let (k, n) = (logical_b.nrows(), logical_b.ncols());
        let mut out1 = vec![0.0; n.div_ceil(nr) * nr * k];
        let mut out2 = vec![0.0; n.div_ceil(nr) * nr * k];
        pack_b(&logical_b.as_ref(), nr, &mut out1);
        pack_b_trans(&src.as_ref(), nr, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn pack_trans_from_submatrix() {
        let big = Matrix::<f64>::from_fn(12, 12, |i, j| (i * 12 + j) as f64);
        let src = big.as_ref().submatrix(1, 2, 5, 6); // k=5 x m=6 view
        let logical = src.to_owned().transpose();
        let mr = 4;
        let mut out1 = vec![0.0; 2 * mr * 5];
        let mut out2 = vec![0.0; 2 * mr * 5];
        pack_a(&logical.as_ref(), 1.0, mr, &mut out1);
        pack_a_trans(&src, 1.0, mr, &mut out2);
        assert_eq!(out1, out2);
    }
}
