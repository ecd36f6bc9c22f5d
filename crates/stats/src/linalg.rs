//! Small dense linear algebra: just enough to solve least-squares problems.
//!
//! The regression kernels (3-line segments, PAR's 5-parameter model) need
//! to solve `argmin ‖Xβ − y‖²` for tall-skinny `X` (thousands of rows, a
//! handful of columns). Two solvers are provided:
//!
//! * **Cholesky on the normal equations** — the fast path (`XᵀX` is tiny).
//! * **Householder QR** — the robust fallback when `XᵀX` is (numerically)
//!   not positive definite, e.g. collinear regressors.

// Triangular factorizations index several vectors with mutually offset
// ranges; explicit indices read better than iterator gymnastics here.
#![allow(clippy::needless_range_loop)]

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics if rows have uneven lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Consume the matrix, reclaiming its row-major data vector — lets a
    /// caller that built the matrix from an owned buffer take the
    /// allocation back for reuse.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// `XᵀX` computed directly (symmetric, no transpose materialized).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    let v = g.get(i, j) + a * row[j];
                    g.set(i, j, v);
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                g.set(i, j, g.get(j, i));
            }
        }
        g
    }

    /// `Xᵀy`.
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows()`.
    pub fn t_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "vector length must equal rows");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let w = y[r];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += w * x;
            }
        }
        out
    }
}

/// Solve the symmetric positive-definite system `A x = b` by Cholesky
/// decomposition. Returns `None` when `A` is not (numerically) SPD.
///
/// # Panics
/// Panics on shape mismatch.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    assert_eq!(b.len(), a.rows(), "rhs length must equal matrix size");
    let n = a.rows();
    // Lower-triangular factor L with A = L Lᵀ.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l.set(i, j, s.sqrt());
            } else {
                l.set(i, j, s / l.get(j, j));
            }
        }
    }
    // Forward substitution: L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l.get(i, k) * z[k];
        }
        z[i] = s / l.get(i, i);
    }
    // Back substitution: Lᵀ x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in i + 1..n {
            s -= l.get(k, i) * x[k];
        }
        x[i] = s / l.get(i, i);
    }
    Some(x)
}

/// Least-squares solve `argmin ‖X β − y‖₂` via Householder QR.
/// Returns `None` when `X` is rank deficient (a zero pivot appears).
///
/// # Panics
/// Panics if `y.len() != x.rows()` or `x.rows() < x.cols()`.
pub fn qr_least_squares(x: &Matrix, y: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(y.len(), x.rows(), "rhs length must equal row count");
    assert!(
        x.rows() >= x.cols(),
        "need at least as many rows as columns"
    );
    let m = x.rows();
    let n = x.cols();
    let mut r = x.clone();
    let mut qty = y.to_vec();

    for k in 0..n {
        // Householder reflector for column k.
        let mut norm = 0.0;
        for i in k..m {
            norm += r.get(i, k) * r.get(i, k);
        }
        let norm = norm.sqrt();
        if norm < 1e-12 {
            return None;
        }
        let alpha = if r.get(k, k) > 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m - k];
        v[0] = r.get(k, k) - alpha;
        for i in k + 1..m {
            v[i - k] = r.get(i, k);
        }
        let vnorm2: f64 = v.iter().map(|a| a * a).sum();
        if vnorm2 < 1e-300 {
            // Column already triangularized.
            continue;
        }
        // Apply reflector to remaining columns of R.
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * r.get(i, j);
            }
            let scale = 2.0 * dot / vnorm2;
            for i in k..m {
                let val = r.get(i, j) - scale * v[i - k];
                r.set(i, j, val);
            }
        }
        // Apply reflector to the RHS.
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i - k] * qty[i];
        }
        let scale = 2.0 * dot / vnorm2;
        for i in k..m {
            qty[i] -= scale * v[i - k];
        }
    }

    // Back substitution on the upper-triangular n×n block.
    let mut beta = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = qty[i];
        for j in i + 1..n {
            s -= r.get(i, j) * beta[j];
        }
        let d = r.get(i, i);
        if d.abs() < 1e-12 {
            return None;
        }
        beta[i] = s / d;
    }
    Some(beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Aᵀ`, one element at a time: the tests' reference for `gram` and
    /// `t_vec`.
    fn transpose(a: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(a.cols, a.rows);
        for r in 0..a.rows {
            for c in 0..a.cols {
                t.set(c, r, a.get(r, c));
            }
        }
        t
    }

    /// `A · v`, one row dot product at a time.
    fn matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|r| a.row(r).iter().zip(v).map(|(x, y)| x * y).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(transpose(&a).get(2, 1), 6.0);
    }

    #[test]
    fn gram_equals_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        // Aᵀ A, written out.
        let explicit = Matrix::from_rows(&[&[35.0, 44.0], &[44.0, 56.0]]);
        assert_eq!(a.gram(), explicit);
    }

    #[test]
    fn t_vec_equals_transpose_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = [1.0, 0.5, 2.0];
        assert_close(&a.t_vec(&y), &matvec(&transpose(&a), &y), 1e-12);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x = cholesky_solve(&a, &[10.0, 8.0]).unwrap();
        // Verify A x = b.
        assert_close(&matvec(&a, &x), &[10.0, 8.0], 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky_solve(&a, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn qr_recovers_exact_solution() {
        // y = 2 + 3x, exact.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = xs.iter().map(|&v| 2.0 + 3.0 * v).collect();
        let beta = qr_least_squares(&x, &y).unwrap();
        assert_close(&beta, &[2.0, 3.0], 1e-10);
    }

    #[test]
    fn qr_matches_cholesky_on_well_conditioned_problem() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x, x * x]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y: Vec<f64> = xs.iter().map(|&v| 1.0 - 0.5 * v + 0.25 * v * v).collect();
        let via_qr = qr_least_squares(&x, &y).unwrap();
        let via_chol = cholesky_solve(&x.gram(), &x.t_vec(&y)).unwrap();
        assert_close(&via_qr, &via_chol, 1e-8);
        assert_close(&via_qr, &[1.0, -0.5, 0.25], 1e-8);
    }

    #[test]
    fn qr_detects_rank_deficiency() {
        // Second column is 2x the first.
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert!(qr_least_squares(&x, &[1.0, 2.0, 3.0]).is_none());
    }
}
