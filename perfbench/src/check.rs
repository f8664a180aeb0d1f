//! Serial oracles the benchmark checks every distributed result against,
//! always outside the timed regions.

use sf2d_core::prelude::*;
use sf2d_core::sf2d_eigen::krylov_schur::EigResult;

/// Relative tolerance of a distributed SpMV/SpMM against the serial CSR
/// product: the distributed fold sums in a different order.
pub const SPMV_RTOL: f64 = 1e-12;

/// `‖got − want‖₂ / ‖want‖₂` (absolute error when `want` is zero).
pub fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let (mut d, mut w) = (0.0f64, 0.0f64);
    for (g, x) in got.iter().zip(want) {
        d += (g - x) * (g - x);
        w += x * x;
    }
    if w > 0.0 {
        (d / w).sqrt()
    } else {
        d.sqrt()
    }
}

/// Whether `got` matches the serial product `a · x`.
pub fn spmv_ok(a: &CsrMatrix, x: &[f64], got: &[f64]) -> bool {
    rel_err(got, &a.spmv_dense(x)) <= SPMV_RTOL
}

/// Whether every column of a distributed SpMM matches the serial product
/// of its input column.
pub fn spmm_ok(a: &CsrMatrix, xs: &[Vec<f64>], ys: &[Vec<f64>]) -> bool {
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| spmv_ok(a, x, y))
}

/// Whether a distributed product matrix matches the serial Gustavson
/// product `want`: same pattern, values within [`SPMV_RTOL`].
pub fn spgemm_ok(got: &CsrMatrix, want: &CsrMatrix) -> bool {
    if got.nrows() != want.nrows() || got.ncols() != want.ncols() || got.nnz() != want.nnz() {
        return false;
    }
    (0..want.nrows()).all(|i| {
        let (gc, gv) = got.row(i);
        let (wc, wv) = want.row(i);
        gc == wc && rel_err(gv, wv) <= SPMV_RTOL
    })
}

/// Serial residual check of a Krylov-Schur solve on the normalized
/// Laplacian `L = I − D^{-1/2} A D^{-1/2}` of the diagonal-free adjacency
/// `adj`: every returned pair must satisfy
/// `‖L v − λ v‖ ≤ tol_factor · tol · |λ| · ‖v‖`, and the solve must
/// have converged with `nev` pairs.
pub fn eigen_ok(adj: &CsrMatrix, res: &EigResult, nev: usize, tol: f64) -> bool {
    if !res.converged || res.values.len() < nev || res.vectors.len() != res.values.len() {
        return false;
    }
    let s: Vec<f64> = (0..adj.nrows())
        .map(|i| match adj.row_nnz(i) {
            0 => 0.0,
            d => 1.0 / (d as f64).sqrt(),
        })
        .collect();
    res.values.iter().zip(&res.vectors).all(|(&lambda, v)| {
        let v = v.to_global();
        let sv: Vec<f64> = v.iter().zip(&s).map(|(x, s)| x * s).collect();
        let asv = adj.spmv_dense(&sv);
        let (mut r2, mut v2) = (0.0f64, 0.0f64);
        for i in 0..v.len() {
            let lv = v[i] - s[i] * asv[i];
            r2 += (lv - lambda * v[i]).powi(2);
            v2 += v[i] * v[i];
        }
        // The solver's estimate is on the projected problem; allow the
        // true residual a factor of ten over its tolerance.
        r2.sqrt() <= 10.0 * tol * lambda.abs() * v2.sqrt()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_scales_by_reference() {
        assert_eq!(rel_err(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rel_err(&[0.0, 2.0], &[0.0, 1.0]) - 1.0).abs() < 1e-15);
        assert!(rel_err(&[1.0], &[1.0, 2.0]).is_infinite());
    }
}
