//! Support debiasing.
//!
//! ℓ1 solvers shrink every coefficient toward zero by design; once the
//! support is identified, re-fitting those coefficients by unpenalized
//! least squares removes the bias. This is the standard final step of a
//! LASSO-based CS decoder and typically buys 1–3 dB of PSNR — the
//! pipeline applies it by default. The [`Debias`] wrapper makes
//! `inner solve → re-fit` itself a [`Solver`], so hosts treat the
//! debiased pipeline as just another swappable algorithm, and its
//! re-fit — a CGLS solve on the support — allocates nothing once the
//! workspace is warm.

use crate::cg::{Cgls, RestrictedOperator};
use crate::shrink::{support_into, top_k_indices_into};
use crate::solver::{SolveResult, Solver, SolverCaps};
use crate::workspace::SolverWorkspace;
use crate::{Recovery, SolveStats};
use tepics_cs::op::LinearOperator;

/// A [`Solver`] that runs an inner solver and then re-fits the nonzero
/// coefficients by least squares on their support, leaving zeros
/// untouched — the paper pipeline's default recovery, as a first-class
/// swappable algorithm. If the support is larger than `max_support`
/// (defensive cap against degenerate λ choices), only the largest
/// `max_support` coefficients are re-fit.
///
/// # Examples
///
/// ```
/// use tepics_cs::{DenseMatrix, LinearOperator};
/// use tepics_recovery::{debias::Debias, Fista, Solver};
/// use tepics_util::SplitMix64;
///
/// let mut rng = SplitMix64::new(3);
/// let a = DenseMatrix::from_fn(20, 40, |_, _| rng.next_gaussian() / 20f64.sqrt());
/// let mut x = vec![0.0; 40];
/// x[5] = 2.0;
/// let y = a.apply_vec(&x);
/// let mut fista = Fista::new();
/// fista.lambda_ratio(0.1).max_iter(1000);
/// let debiased = Debias::new(&fista, 10);
/// let rec = debiased.solve(&a, &y).unwrap();
/// assert!((rec.coefficients[5] - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Debias<'a> {
    inner: &'a dyn Solver,
    max_support: usize,
}

impl<'a> Debias<'a> {
    /// Wraps `inner`, debiasing at most `max_support` coefficients.
    pub fn new(inner: &'a dyn Solver, max_support: usize) -> Self {
        Debias { inner, max_support }
    }
}

impl Solver for Debias<'_> {
    fn caps(&self) -> SolverCaps {
        // The norm seed is the inner solver's: the wrapper's own re-fit
        // is a CGLS pass, which estimates no norm.
        SolverCaps {
            name: "debias",
            ..self.inner.caps()
        }
    }

    // tidy:alloc-free
    fn solve_with(
        &self,
        a: &dyn LinearOperator,
        y: &[f64],
        workspace: &mut SolverWorkspace,
    ) -> SolveResult {
        let rec = self.inner.solve_with(a, y, workspace)?;
        refit(a, y, rec, self.max_support, workspace)
    }
}

/// The re-fit of [`Debias`]: least squares on the support of `recovery`
/// (its `max_support` largest coefficients at most), through workspace
/// buffers for the support scan, the restricted operator scratch and
/// the CGLS vectors.
fn refit(
    a: &dyn LinearOperator,
    y: &[f64],
    recovery: Recovery,
    max_support: usize,
    workspace: &mut SolverWorkspace,
) -> SolveResult {
    let mut supp = std::mem::take(&mut workspace.support);
    support_into(&recovery.coefficients, &mut supp);
    if supp.is_empty() {
        workspace.support = supp;
        return Ok(recovery);
    }
    if supp.len() > max_support {
        top_k_indices_into(&recovery.coefficients, max_support, &mut supp);
        supp.sort_unstable();
    }
    let restricted = RestrictedOperator::with_scratch(
        a,
        supp,
        std::mem::take(&mut workspace.restrict_in),
        std::mem::take(&mut workspace.restrict_out),
    );
    let ls = Cgls::new(300, 1e-12).solve_into(&restricted, y, workspace);
    let (supp, full_in, full_out) = restricted.into_parts();
    workspace.restrict_in = full_in;
    workspace.restrict_out = full_out;
    let ls = match ls {
        Ok(stats) => stats,
        Err(e) => {
            workspace.support = supp;
            return Err(e);
        }
    };
    let mut coeffs = vec![0.0; a.cols()];
    for (&j, &v) in supp.iter().zip(&workspace.lsq_x) {
        coeffs[j] = v;
    }
    workspace.support = supp;
    // Residual of the debiased fit, through the rows_tmp buffer.
    let resid = &mut workspace.rows_tmp;
    resid.clear();
    resid.resize(a.rows(), 0.0);
    a.apply(&coeffs, resid);
    let mut rr = 0.0;
    for (ri, &yi) in resid.iter().zip(y) {
        let d = ri - yi;
        rr += d * d;
    }
    Ok(Recovery {
        coefficients: coeffs,
        stats: SolveStats {
            iterations: recovery.stats.iterations + ls.iterations,
            residual_norm: rr.sqrt(),
            converged: recovery.stats.converged,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fista;
    use tepics_cs::DenseMatrix;
    use tepics_util::SplitMix64;

    /// An inner solver that returns a fixed recovery.
    struct Fixed(Recovery);

    impl Solver for Fixed {
        fn caps(&self) -> SolverCaps {
            SolverCaps {
                name: "fixed",
                norm_seed: None,
            }
        }

        fn solve_with(
            &self,
            _: &dyn LinearOperator,
            _: &[f64],
            _: &mut SolverWorkspace,
        ) -> SolveResult {
            Ok(self.0.clone())
        }
    }

    fn fixed(coefficients: Vec<f64>) -> Fixed {
        Fixed(Recovery {
            coefficients,
            stats: SolveStats {
                iterations: 1,
                residual_norm: 1.0,
                converged: true,
            },
        })
    }

    #[test]
    fn debias_removes_shrinkage() {
        let mut rng = SplitMix64::new(21);
        let a = DenseMatrix::from_fn(40, 80, |_, _| rng.next_gaussian() / 40f64.sqrt());
        let mut x = vec![0.0; 80];
        x[12] = 3.0;
        x[55] = -1.5;
        let y = a.apply_vec(&x);
        let mut fista = Fista::new();
        fista
            .lambda_ratio(0.1) // heavy shrinkage on purpose
            .max_iter(2000)
            .tol(1e-9);
        let biased = fista.solve(&a, &y).unwrap();
        let fixed = Debias::new(&fista, 80).solve(&a, &y).unwrap();
        // The debiased fit must have smaller residual.
        assert!(fixed.stats.residual_norm <= biased.stats.residual_norm + 1e-12);
        // And the big coefficient should be restored to ≈3.0.
        let err_biased = (biased.coefficients[12] - 3.0).abs();
        let err_fixed = (fixed.coefficients[12] - 3.0).abs();
        assert!(
            err_fixed < err_biased,
            "debias did not improve coefficient: {err_fixed} vs {err_biased}"
        );
        assert!(err_fixed < 1e-6);
        assert_eq!(Debias::new(&fista, 80).caps().name, "debias");
    }

    #[test]
    fn empty_support_passes_through() {
        let a = DenseMatrix::identity(4);
        let zero = fixed(vec![0.0; 4]);
        let out = Debias::new(&zero, 4)
            .solve(&a, &[1.0, 0.0, 0.0, 0.0])
            .unwrap();
        assert_eq!(out, zero.0);
    }

    #[test]
    fn support_cap_is_respected() {
        let mut rng = SplitMix64::new(33);
        let a = DenseMatrix::from_fn(10, 20, |_, _| rng.next_gaussian());
        let inner = fixed((0..20).map(|i| (i + 1) as f64 / 20.0).collect());
        let y: Vec<f64> = (0..10).map(|_| rng.next_gaussian()).collect();
        let out = Debias::new(&inner, 5).solve(&a, &y).unwrap();
        assert!(out.coefficients.iter().filter(|&&v| v != 0.0).count() <= 5);
    }
}
