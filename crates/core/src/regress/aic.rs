//! Akaike-information-criterion model selection (paper §5.1, citing
//! Akaike \[1\]).
//!
//! "We model each phase using polynomial regression up to a degree of
//! seven. The best fit model is selected by comparing Akaike information
//! criteria. ... we have observed that higher degrees do not imply a more
//! precise model."

use super::lsq::{lstsq, Matrix};
use super::poly::{Poly1, Poly2};

/// AIC for a Gaussian least-squares fit: `n ln(RSS/n) + 2k`.
///
/// `rss_floor` guards the log against numerically-zero residuals on exact
/// fits (where differences between degrees are pure rounding noise); pass a
/// value proportional to the response magnitude, or 0 for the raw score.
pub fn aic_score_floored(n: usize, rss: f64, k: usize, rss_floor: f64) -> f64 {
    let n = n as f64;
    n * (rss.max(rss_floor) / n).max(1e-300).ln() + 2.0 * k as f64
}

/// AIC without a residual floor.
pub fn aic_score(n: usize, rss: f64, k: usize) -> f64 {
    aic_score_floored(n, rss, k, 0.0)
}

/// Relative residual floor: exact fits differ only by noise below
/// `1e-12 · Σ y²`, so degrees tie there and the smallest degree wins.
fn rss_floor_for(ys: &[f64]) -> f64 {
    1e-12 * ys.iter().map(|y| y * y).sum::<f64>()
}

/// Fit a univariate polynomial, selecting the degree in `1..=max_degree`
/// by AIC. Returns the winning polynomial and its RSS.
pub fn fit_poly1_aic(xs: &[f64], ys: &[f64], max_degree: usize) -> (Poly1, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(!xs.is_empty());
    let scale = xs.iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1e-12);
    let floor = rss_floor_for(ys);
    let mut best: Option<(f64, Poly1, f64)> = None;
    for degree in 1..=max_degree {
        let cols = degree + 1;
        if xs.len() < cols {
            break;
        }
        let mut a = Matrix::zeros(xs.len(), cols);
        for (i, &x) in xs.iter().enumerate() {
            let xn = x / scale;
            let mut p = 1.0;
            for j in 0..cols {
                *a.at_mut(i, j) = p;
                p *= xn;
            }
        }
        let (coefs, rss) = lstsq(&a, ys);
        let score = aic_score_floored(xs.len(), rss, cols, floor);
        let poly = Poly1 {
            coefs,
            x_scale: scale,
        };
        if best.as_ref().map(|(s, _, _)| score < *s).unwrap_or(true) {
            best = Some((score, poly, rss));
        }
    }
    let (_, poly, rss) = best.expect("at least one degree fits");
    (poly, rss)
}

/// Fit a bivariate polynomial with AIC degree selection in
/// `1..=max_degree`.
pub fn fit_poly2_aic(xys: &[(f64, f64)], zs: &[f64], max_degree: usize) -> (Poly2, f64) {
    fit_poly2(xys, zs, max_degree, false)
}

/// [`fit_poly2_aic`] minimising the *relative* residuals `(p(x, y) − z) /
/// z`, so that small samples weigh as much as large ones: the form for a
/// quantity priced at every size — a chunk as well as a whole image. Every
/// `z` must be positive. Returns the winning polynomial and its relative
/// RSS.
pub fn fit_poly2_rel_aic(xys: &[(f64, f64)], zs: &[f64], max_degree: usize) -> (Poly2, f64) {
    assert!(zs.iter().all(|&z| z > 0.0), "relative residuals need z > 0");
    fit_poly2(xys, zs, max_degree, true)
}

fn fit_poly2(xys: &[(f64, f64)], zs: &[f64], max_degree: usize, relative: bool) -> (Poly2, f64) {
    assert_eq!(xys.len(), zs.len());
    assert!(!xys.is_empty());
    let x_scale = xys
        .iter()
        .fold(0.0f64, |a, &(x, _)| a.max(x.abs()))
        .max(1e-12);
    let y_scale = xys
        .iter()
        .fold(0.0f64, |a, &(_, y)| a.max(y.abs()))
        .max(1e-12);
    // Relative residuals divide each row of the system by its target, so
    // every target becomes 1.
    let ones: Vec<f64>;
    let targets = if relative {
        ones = vec![1.0; zs.len()];
        &ones[..]
    } else {
        zs
    };
    let floor = rss_floor_for(targets);
    let mut best: Option<(f64, Poly2, f64)> = None;
    for degree in 1..=max_degree {
        let mons = Poly2::monomials(degree);
        if xys.len() < mons.len() {
            break;
        }
        let mut a = Matrix::zeros(xys.len(), mons.len());
        for (row, &(x, y)) in xys.iter().enumerate() {
            let xn = x / x_scale;
            let yn = y / y_scale;
            for (col, &(i, j)) in mons.iter().enumerate() {
                let term = xn.powi(i as i32) * yn.powi(j as i32);
                *a.at_mut(row, col) = if relative { term / zs[row] } else { term };
            }
        }
        let (flat, rss) = lstsq(&a, targets);
        let score = aic_score_floored(xys.len(), rss, mons.len(), floor);
        let poly = Poly2::from_flat(degree, &flat, x_scale, y_scale);
        if best.as_ref().map(|(s, _, _)| score < *s).unwrap_or(true) {
            best = Some((score, poly, rss));
        }
    }
    let (_, poly, rss) = best.expect("at least one degree fits");
    (poly, rss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aic_penalizes_parameters() {
        // Same RSS, more parameters -> worse (higher) score.
        assert!(aic_score(100, 1.0, 3) < aic_score(100, 1.0, 10));
        // Lower RSS with same parameters -> better score.
        assert!(aic_score(100, 0.5, 3) < aic_score(100, 1.0, 3));
    }

    #[test]
    fn linear_data_selects_low_degree() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 + 0.5 * x).collect();
        let (poly, rss) = fit_poly1_aic(&xs, &ys, 7);
        assert!(poly.degree() <= 2, "chose degree {}", poly.degree());
        assert!(rss < 1e-12 * ys.len() as f64);
        assert!((poly.eval(1234.0) - (3.0 + 0.5 * 1234.0)).abs() < 1e-6);
    }

    #[test]
    fn cubic_data_needs_degree_three() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 1.0 + x - 0.3 * x * x + 0.05 * x * x * x)
            .collect();
        let (poly, _) = fit_poly1_aic(&xs, &ys, 7);
        assert!(poly.degree() >= 3);
        for &x in &[0.5, 3.3, 8.8] {
            let want = 1.0 + x - 0.3 * x * x + 0.05 * x * x * x;
            assert!((poly.eval(x) - want).abs() < 1e-6);
        }
    }

    #[test]
    fn bivariate_plane_fit() {
        let mut xys = Vec::new();
        let mut zs = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (x, y) = (i as f64 * 100.0, j as f64 * 50.0);
                xys.push((x, y));
                zs.push(2.0 + 0.01 * x + 0.002 * y);
            }
        }
        let (poly, rss) = fit_poly2_aic(&xys, &zs, 5);
        assert!(rss < 1e-10);
        assert!((poly.eval(550.0, 275.0) - (2.0 + 5.5 + 0.55)).abs() < 1e-6);
    }

    #[test]
    fn bivariate_with_cross_term() {
        let mut xys = Vec::new();
        let mut zs = Vec::new();
        for i in 1..=15 {
            for j in 1..=15 {
                let (x, y) = (i as f64, j as f64);
                xys.push((x, y));
                zs.push(x * y); // pure cross term, like time ∝ w*h
            }
        }
        let (poly, _) = fit_poly2_aic(&xys, &zs, 4);
        assert!((poly.eval(7.5, 3.25) - 7.5 * 3.25).abs() < 1e-6);
        // The derivative wrt y at (x, y) is x.
        assert!((poly.eval_dy(7.5, 3.25) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn noisy_data_does_not_explode_to_max_degree() {
        // Linear + deterministic pseudo-noise: AIC should resist degree 7.
        let xs: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 5.0 + 2.0 * x + ((x * 997.0).sin()) * 0.5)
            .collect();
        let (poly, _) = fit_poly1_aic(&xs, &ys, 7);
        assert!(
            poly.degree() <= 5,
            "noise chased to degree {}",
            poly.degree()
        );
        assert!((poly.eval(150.0) - (5.0 + 300.0)).abs() < 1.0);
    }
}
