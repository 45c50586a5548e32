//! Polynomial value types with Horner-form evaluation.

/// A univariate polynomial `c0 + c1 x + c2 x² + …` with an input scale
/// (inputs are divided by `x_scale` before evaluation, which keeps the
/// normal equations well-conditioned for pixel-sized inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct Poly1 {
    /// Coefficients in ascending powers (of the *scaled* input).
    pub coefs: Vec<f64>,
    /// Input scale divisor.
    pub x_scale: f64,
}

impl Poly1 {
    /// Construct with unit scale.
    pub fn new(coefs: Vec<f64>) -> Self {
        Poly1 {
            coefs,
            x_scale: 1.0,
        }
    }

    /// Degree of the polynomial.
    pub fn degree(&self) -> usize {
        self.coefs.len().saturating_sub(1)
    }

    /// Horner-form evaluation: `(((c_n x + c_{n-1}) x + …) x + c_0)` —
    /// `n` multiplies instead of the naive `n(n+1)/2` (§5.1).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let x = x / self.x_scale;
        let mut acc = 0.0;
        for &c in self.coefs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Naive power-by-power evaluation: the oracle the Horner form is
    /// tested against.
    pub fn eval_naive(&self, x: f64) -> f64 {
        let x = x / self.x_scale;
        self.coefs
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut p = 1.0;
                for _ in 0..i {
                    p *= x;
                }
                c * p
            })
            .sum()
    }

    /// Derivative with respect to the *unscaled* input.
    pub fn derivative(&self) -> Poly1 {
        let mut coefs: Vec<f64> = self
            .coefs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| c * i as f64 / self.x_scale)
            .collect();
        if coefs.is_empty() {
            coefs.push(0.0);
        }
        Poly1 {
            coefs,
            x_scale: self.x_scale,
        }
    }
}

/// A bivariate polynomial `Σ c[i][j] x^i y^j` for `i + j ≤ degree`, with
/// per-axis input scales and nested-Horner evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Poly2 {
    /// Total degree bound.
    pub degree: usize,
    /// Dense coefficient matrix indexed `[i][j]` (x-power, y-power);
    /// entries with `i + j > degree` are zero.
    pub coefs: Vec<Vec<f64>>,
    /// Input scale divisors.
    pub x_scale: f64,
    /// Input scale divisor for y.
    pub y_scale: f64,
}

impl Poly2 {
    /// Zero polynomial of a given degree.
    pub fn zero(degree: usize) -> Self {
        Poly2 {
            degree,
            coefs: vec![vec![0.0; degree + 1]; degree + 1],
            x_scale: 1.0,
            y_scale: 1.0,
        }
    }

    /// The monomial exponent list for a total degree bound, in the fixed
    /// order used by the design matrix: (0,0), (1,0), (0,1), (2,0), (1,1)…
    pub fn monomials(degree: usize) -> Vec<(usize, usize)> {
        let mut m = Vec::new();
        for total in 0..=degree {
            for i in (0..=total).rev() {
                m.push((i, total - i));
            }
        }
        m
    }

    /// Build from a flat coefficient vector in [`Self::monomials`] order.
    pub fn from_flat(degree: usize, flat: &[f64], x_scale: f64, y_scale: f64) -> Self {
        let mons = Self::monomials(degree);
        assert_eq!(flat.len(), mons.len());
        let mut p = Poly2::zero(degree);
        p.x_scale = x_scale;
        p.y_scale = y_scale;
        for (&c, &(i, j)) in flat.iter().zip(mons.iter()) {
            p.coefs[i][j] = c;
        }
        p
    }

    /// Nested Horner evaluation: Horner in y over coefficient polynomials
    /// in x, themselves evaluated in Horner form.
    #[inline]
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let xs = x / self.x_scale;
        let ys = y / self.y_scale;
        let mut acc = 0.0;
        for j in (0..=self.degree).rev() {
            // cj(x) = Σ_i coefs[i][j] x^i, Horner in x.
            let mut cj = 0.0;
            for i in (0..=self.degree - j).rev() {
                cj = cj * xs + self.coefs[i][j];
            }
            acc = acc * ys + cj;
        }
        acc
    }

    /// Naive term-by-term evaluation: the oracle the Horner form is tested
    /// against.
    pub fn eval_naive(&self, x: f64, y: f64) -> f64 {
        let xs = x / self.x_scale;
        let ys = y / self.y_scale;
        let mut total = 0.0;
        for i in 0..=self.degree {
            for j in 0..=(self.degree - i) {
                let mut term = self.coefs[i][j];
                for _ in 0..i {
                    term *= xs;
                }
                for _ in 0..j {
                    term *= ys;
                }
                total += term;
            }
        }
        total
    }

    /// Partial derivative with respect to the *unscaled* second argument —
    /// the `f'(x)` Newton's method needs when `y` is the partition height.
    pub fn eval_dy(&self, x: f64, y: f64) -> f64 {
        let xs = x / self.x_scale;
        let ys = y / self.y_scale;
        let mut acc = 0.0;
        for j in (1..=self.degree).rev() {
            let mut cj = 0.0;
            for i in (0..=self.degree - j).rev() {
                cj = cj * xs + self.coefs[i][j];
            }
            acc = acc * ys + cj * j as f64;
        }
        acc / self.y_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly1_horner_equals_naive() {
        let p = Poly1 {
            coefs: vec![2.0, -1.0, 0.5, 3.0],
            x_scale: 2.0,
        };
        for &x in &[-3.0, -0.5, 0.0, 1.0, 7.25] {
            assert!((p.eval(x) - p.eval_naive(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn poly1_known_value() {
        // 1 + 2x + 3x^2 at x = 2 -> 17.
        let p = Poly1::new(vec![1.0, 2.0, 3.0]);
        assert!((p.eval(2.0) - 17.0).abs() < 1e-12);
    }

    #[test]
    fn poly1_derivative_matches_finite_difference() {
        let p = Poly1 {
            coefs: vec![0.3, -2.0, 1.5, 0.7],
            x_scale: 3.0,
        };
        let d = p.derivative();
        for &x in &[-1.0, 0.0, 2.0, 5.0] {
            let h = 1e-6;
            let fd = (p.eval(x + h) - p.eval(x - h)) / (2.0 * h);
            assert!(
                (d.eval(x) - fd).abs() < 1e-5,
                "x={x}: {} vs {fd}",
                d.eval(x)
            );
        }
    }

    #[test]
    fn monomial_count_is_triangular() {
        assert_eq!(Poly2::monomials(1).len(), 3);
        assert_eq!(Poly2::monomials(2).len(), 6);
        assert_eq!(Poly2::monomials(7).len(), 36);
    }

    #[test]
    fn poly2_horner_equals_naive() {
        let mons = Poly2::monomials(3);
        let flat: Vec<f64> = (0..mons.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        let p = Poly2::from_flat(3, &flat, 10.0, 100.0);
        for &(x, y) in &[(0.0, 0.0), (5.0, 50.0), (-3.0, 20.0), (17.0, -80.0)] {
            assert!(
                (p.eval(x, y) - p.eval_naive(x, y)).abs() < 1e-10,
                "({x},{y}): {} vs {}",
                p.eval(x, y),
                p.eval_naive(x, y)
            );
        }
    }

    #[test]
    fn poly2_known_value() {
        // f(x,y) = 1 + 2x + 3y + 4xy: degree 2.
        let mut p = Poly2::zero(2);
        p.coefs[0][0] = 1.0;
        p.coefs[1][0] = 2.0;
        p.coefs[0][1] = 3.0;
        p.coefs[1][1] = 4.0;
        assert!((p.eval(2.0, 3.0) - (1.0 + 4.0 + 9.0 + 24.0)).abs() < 1e-12);
    }

    #[test]
    fn poly2_dy_matches_finite_difference() {
        let mons = Poly2::monomials(4);
        let flat: Vec<f64> = (0..mons.len())
            .map(|i| ((i * 7 % 11) as f64 - 5.0) * 0.1)
            .collect();
        let p = Poly2::from_flat(4, &flat, 2.0, 30.0);
        for &(x, y) in &[(1.0, 10.0), (3.0, -20.0), (0.5, 45.0)] {
            let h = 1e-5;
            let fd = (p.eval(x, y + h) - p.eval(x, y - h)) / (2.0 * h);
            assert!((p.eval_dy(x, y) - fd).abs() < 1e-6);
        }
    }
}
