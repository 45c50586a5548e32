//! Multivariate polynomial regression (paper §5.1).
//!
//! "We model each phase using polynomial regression up to a degree of
//! seven. The best fit model is selected by comparing Akaike information
//! criteria. ... We rearranged all polynomials in Horner form to reduce the
//! number of multiplications required for polynomial evaluations."
//!
//! * [`poly`] — [`poly::Poly1`] / [`poly::Poly2`] with Horner-form
//!   evaluation (plus the naive evaluator the tests hold it to) and
//!   analytic derivatives (needed by Newton's method, Eq. 11),
//! * [`lsq`] — Householder-QR least squares, written from scratch,
//! * [`aic`] — Akaike information criterion model selection.

pub mod aic;
pub mod lsq;
pub mod poly;

pub use aic::{aic_score, fit_poly1_aic, fit_poly2_aic, fit_poly2_rel_aic};
pub use lsq::lstsq;
pub use poly::{Poly1, Poly2};
