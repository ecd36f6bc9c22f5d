//! Ordinary least squares regression.
//!
//! [`ols_multiple`] fits `y = Xβ` for a design matrix with several
//! regressors; a simple regression `y = a + b·x` is the design `[1, x]`.

use crate::linalg::{cholesky_solve, qr_least_squares, Matrix};

/// Result of a multiple OLS fit `y ≈ Xβ`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipleFit {
    /// Coefficients, one per design-matrix column.
    pub beta: Vec<f64>,
    /// Residual sum of squares.
    pub sse: f64,
    /// Coefficient of determination against the mean model.
    pub r2: f64,
    /// Number of observations.
    pub n: usize,
}

/// Fit `y = Xβ` by least squares: Cholesky on the normal equations with a
/// Householder-QR fallback for ill-conditioned designs.
///
/// Returns `None` when the system is rank deficient or under-determined
/// (`rows < cols`).
///
/// # Panics
/// Panics if `y.len() != x.rows()`.
pub fn ols_multiple(x: &Matrix, y: &[f64]) -> Option<MultipleFit> {
    assert_eq!(y.len(), x.rows(), "y length must equal design rows");
    if x.rows() < x.cols() {
        return None;
    }
    let beta = cholesky_solve(&x.gram(), &x.t_vec(y)).or_else(|| qr_least_squares(x, y))?;
    let n = x.rows();
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sse = 0.0;
    let mut syy = 0.0;
    for (r, &yr) in y.iter().enumerate() {
        let pred: f64 = x.row(r).iter().zip(&beta).map(|(a, b)| a * b).sum();
        let e = yr - pred;
        sse += e * e;
        let d = yr - my;
        syy += d * d;
    }
    let r2 = if syy > 0.0 { 1.0 - sse / syy } else { f64::NAN };
    Some(MultipleFit { beta, sse, r2, n })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fitted value for one design-matrix row.
    fn predict(fit: &MultipleFit, row: &[f64]) -> f64 {
        row.iter().zip(&fit.beta).map(|(a, b)| a * b).sum()
    }

    /// The simple regression `y = a + b·x`: design columns `[1, x]`.
    fn line_fit(x: &[f64], y: &[f64]) -> Option<MultipleFit> {
        let design = x.iter().flat_map(|&v| [1.0, v]).collect();
        ols_multiple(&Matrix::from_vec(x.len(), 2, design), y)
    }

    #[test]
    fn simple_exact_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y: Vec<f64> = x.iter().map(|v| 1.5 - 2.0 * v).collect();
        let f = line_fit(&x, &y).unwrap();
        assert!((f.beta[0] - 1.5).abs() < 1e-12);
        assert!((f.beta[1] + 2.0).abs() < 1e-12);
        assert!(f.sse < 1e-20);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((predict(&f, &[1.0, 10.0]) - (1.5 - 20.0)).abs() < 1e-12);
    }

    #[test]
    fn simple_noisy_line_recovers_trend() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // Deterministic "noise" that averages out.
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 3.0 * v + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let f = line_fit(&x, &y).unwrap();
        assert!((f.beta[1] - 3.0).abs() < 0.01, "slope {}", f.beta[1]);
        assert!(f.r2 > 0.999);
    }

    #[test]
    fn simple_degenerate_inputs() {
        assert!(line_fit(&[1.0], &[2.0]).is_none());
        assert!(line_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(line_fit(&[], &[]).is_none());
    }

    #[test]
    fn simple_constant_y_gives_zero_slope() {
        let f = line_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert!(f.beta[1].abs() < 1e-12);
        assert!((f.beta[0] - 5.0).abs() < 1e-12);
        assert!(f.r2.is_nan());
    }

    #[test]
    fn multiple_recovers_three_coefficients() {
        // y = 2 + 0.5 x1 - 1.5 x2 over a grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let x1 = i as f64;
                let x2 = j as f64 * 0.3;
                rows.push(vec![1.0, x1, x2]);
                y.push(2.0 + 0.5 * x1 - 1.5 * x2);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let f = ols_multiple(&x, &y).unwrap();
        assert!((f.beta[0] - 2.0).abs() < 1e-9);
        assert!((f.beta[1] - 0.5).abs() < 1e-9);
        assert!((f.beta[2] + 1.5).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
        assert!((predict(&f, &[1.0, 2.0, 1.0]) - (2.0 + 1.0 - 1.5)).abs() < 1e-9);
    }

    #[test]
    fn multiple_agrees_with_simple() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.1, 1.2, 1.9, 3.1, 3.9];
        // The closed form: b = Sxy / Sxx, a = ȳ − b·x̄.
        let mx = x.iter().sum::<f64>() / 5.0;
        let my = y.iter().sum::<f64>() / 5.0;
        let sxy: f64 = x.iter().zip(&y).map(|(a, b)| (a - mx) * (b - my)).sum();
        let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
        let (slope, intercept) = (sxy / sxx, my - sxy / sxx * mx);
        let sse: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (b - intercept - slope * a).powi(2))
            .sum();
        let multi = line_fit(&x, &y).unwrap();
        assert!((multi.beta[0] - intercept).abs() < 1e-9);
        assert!((multi.beta[1] - slope).abs() < 1e-9);
        assert!((multi.sse - sse).abs() < 1e-9);
    }

    #[test]
    fn multiple_rejects_underdetermined_and_collinear() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert!(ols_multiple(&x, &[1.0]).is_none());
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert!(ols_multiple(&x, &[1.0, 2.0, 3.0]).is_none());
    }
}
