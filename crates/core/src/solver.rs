//! Solver selection: the decoder-side recovery configuration.
//!
//! The paper's recovery step is solver-agnostic — any sparse-recovery
//! algorithm can consume the XOR/selection measurements. [`SolverKind`]
//! makes that a first-class decoder knob: all six algorithms of
//! `tepics-recovery` (FISTA, IHT, OMP, CoSaMP, CGLS, and the CGLS
//! debias wrapper around FISTA) are selectable through
//! [`Decoder`](crate::Decoder), [`DecodeSession`](crate::DecodeSession),
//! the [`pipeline`](crate::pipeline) helpers, and
//! [`BatchRunner`](crate::batch::BatchRunner), all dispatching
//! dynamically through the [`Solver`] trait.
//!
//! [`RecoveryParams`] bundles the solver with the sparsifying
//! dictionary, plus named presets for the common workloads; it is a
//! decoder-side setting only and never crosses the wire.

use crate::decoder::DictionaryKind;
use tepics_recovery::solver::norm_seeds;
use tepics_recovery::{Cgls, CoSaMp, Fista, Iht, Omp, Solver};

/// Recovery algorithms available to the decoder — every solver of
/// `tepics-recovery` behind one configuration enum.
///
/// The FISTA variant carries a `debias` flag: when set, the solver is
/// wrapped in the CGLS support re-fit
/// ([`Debias`](tepics_recovery::Debias)), the paper pipeline's default
/// final step. `SolverKind` is pure configuration (`Copy`, comparable);
/// the decoder instantiates the actual solver per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverKind {
    /// FISTA ℓ1 solver (default), optionally debiased on its support.
    Fista {
        /// λ as a fraction of `‖Aᵀỹ‖∞`.
        lambda_ratio: f64,
        /// Iteration cap.
        max_iter: usize,
        /// Debias the support by least squares afterwards.
        debias: bool,
    },
    /// Normalized iterative hard thresholding with a target sparsity.
    Iht {
        /// Target sparsity.
        sparsity: usize,
    },
    /// Orthogonal matching pursuit with an atom cap; each solve stops
    /// at its held-out-residual minimum (see `tepics_recovery::omp`).
    Omp {
        /// Maximum atoms to select.
        atoms: usize,
    },
    /// CoSaMP with a target sparsity.
    CoSamp {
        /// Target sparsity.
        sparsity: usize,
    },
    /// Plain CGLS least squares — no sparsity prior; the sanity
    /// baseline every sparse solver must beat.
    Cgls {
        /// Iteration cap.
        max_iter: usize,
    },
}

impl Default for SolverKind {
    /// The paper pipeline's default: debiased FISTA.
    fn default() -> Self {
        SolverKind::Fista {
            lambda_ratio: 0.02,
            max_iter: 400,
            debias: true,
        }
    }
}

impl SolverKind {
    /// Short stable name, the underlying solver's
    /// [`caps().name`](tepics_recovery::SolverCaps), for reports.
    pub fn name(&self) -> &'static str {
        self.instantiate(None).as_solver().caps().name
    }

    /// Whether the CGLS debias pass wraps this solver.
    pub fn debias(&self) -> bool {
        matches!(self, SolverKind::Fista { debias: true, .. })
    }

    /// Seed of the solver's internal operator-norm power iteration, when
    /// it runs one (the cache memoizes the estimate per seed so solvers
    /// never see each other's step sizes); read from the solver's
    /// [`caps()`](tepics_recovery::SolverCaps).
    pub(crate) fn norm_seed(&self) -> Option<u64> {
        self.instantiate(None).as_solver().caps().norm_seed
    }

    /// Whether the solver runs on Gram slots (Batch-OMP, CoSaMP) and
    /// should be served the operator's shared Gram store.
    pub(crate) fn reads_gram(&self) -> bool {
        matches!(self, SolverKind::Omp { .. } | SolverKind::CoSamp { .. })
    }

    /// One default configuration per algorithm, sized for a
    /// `k`-measurement frame — the set the solver sweep (bench
    /// `solvers` experiment) and the identity tests iterate. Order is
    /// stable: debiased FISTA first, then plain FISTA, then the
    /// sparsity-targeted and least-squares solvers.
    #[must_use]
    pub fn shootout_set(k: usize) -> Vec<SolverKind> {
        vec![
            SolverKind::default(),
            SolverKind::Fista {
                lambda_ratio: 0.02,
                max_iter: 400,
                debias: false,
            },
            SolverKind::Iht {
                sparsity: (k / 4).max(1),
            },
            SolverKind::Omp {
                atoms: (k / 8).max(1),
            },
            SolverKind::CoSamp {
                sparsity: (k / 8).max(1),
            },
            SolverKind::Cgls { max_iter: 200 },
        ]
    }

    /// Instantiates the configured solver, applying a memoized
    /// operator-norm estimate when one is supplied (`norm > 0`); the
    /// storage keeps the concrete solver on the caller's stack so
    /// dynamic dispatch needs no heap allocation.
    pub(crate) fn instantiate(&self, norm: Option<f64>) -> BuiltSolver {
        // Each solver derives its step exactly as it would internally,
        // so overriding is bit-transparent.
        let step = norm.map(norm_seeds::step);
        match *self {
            SolverKind::Fista {
                lambda_ratio,
                max_iter,
                ..
            } => {
                let mut s = Fista::new();
                s.lambda_ratio(lambda_ratio).max_iter(max_iter);
                if let Some(step) = step {
                    s.step(step);
                }
                BuiltSolver::Fista(s)
            }
            SolverKind::Iht { sparsity } => {
                let mut s = Iht::new(sparsity.max(1));
                if let Some(step) = step {
                    s.step(step);
                }
                BuiltSolver::Iht(s)
            }
            SolverKind::Omp { atoms } => BuiltSolver::Omp(Omp::new(atoms.max(1))),
            SolverKind::CoSamp { sparsity } => BuiltSolver::CoSamp(CoSaMp::new(sparsity.max(1))),
            SolverKind::Cgls { max_iter } => BuiltSolver::Cgls(Cgls::new(max_iter.max(1), 1e-12)),
        }
    }
}

/// Stack storage for an instantiated solver (see
/// [`SolverKind::instantiate`]); `as_solver` hands out the trait object.
#[derive(Debug, Clone)]
pub(crate) enum BuiltSolver {
    Fista(Fista),
    Iht(Iht),
    Omp(Omp),
    CoSamp(CoSaMp),
    Cgls(Cgls),
}

impl BuiltSolver {
    pub(crate) fn as_solver(&self) -> &dyn Solver {
        match self {
            BuiltSolver::Fista(s) => s,
            BuiltSolver::Iht(s) => s,
            BuiltSolver::Omp(s) => s,
            BuiltSolver::CoSamp(s) => s,
            BuiltSolver::Cgls(s) => s,
        }
    }
}

/// The decoder-side recovery configuration: solver plus dictionary.
///
/// # Examples
///
/// ```
/// use tepics_core::solver::{RecoveryParams, SolverKind};
/// use tepics_core::DictionaryKind;
///
/// let params = RecoveryParams::star_field(12);
/// assert_eq!(params.dictionary, DictionaryKind::Identity);
/// assert!(matches!(params.solver, SolverKind::Iht { sparsity: 12 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryParams {
    /// The recovery algorithm.
    pub solver: SolverKind,
    /// The sparsifying dictionary.
    pub dictionary: DictionaryKind,
}

impl RecoveryParams {
    /// The paper pipeline's default: debiased FISTA over the 2-D DCT.
    #[must_use]
    pub fn natural() -> Self {
        RecoveryParams::default()
    }

    /// Piecewise-constant content (documents, cartoons): FISTA over
    /// Haar wavelets.
    #[must_use]
    pub fn piecewise() -> Self {
        RecoveryParams {
            solver: SolverKind::default(),
            dictionary: DictionaryKind::Haar2d,
        }
    }

    /// Star fields / point sources with a known count: IHT in the pixel
    /// domain.
    #[must_use]
    pub fn star_field(sources: usize) -> Self {
        RecoveryParams {
            solver: SolverKind::Iht {
                sparsity: sources.max(1),
            },
            dictionary: DictionaryKind::Identity,
        }
    }

    /// Sparse coefficient recovery with an atom cap: OMP over the DCT,
    /// stopped per tile where its held-out residual is least.
    #[must_use]
    pub fn exact_sparse(atoms: usize) -> Self {
        RecoveryParams {
            solver: SolverKind::Omp {
                atoms: atoms.max(1),
            },
            dictionary: DictionaryKind::Dct2d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds(k: usize) -> Vec<SolverKind> {
        SolverKind::shootout_set(k)
    }

    #[test]
    fn names_cover_all_five_kinds() {
        let mut names: Vec<&str> = all_kinds(64).iter().map(|k| k.name()).collect();
        names.dedup();
        assert_eq!(names, vec!["fista", "iht", "omp", "cosamp", "cgls"]);
    }

    #[test]
    fn default_is_debiased_fista() {
        let kind = SolverKind::default();
        assert_eq!(kind.name(), "fista");
        assert!(kind.debias());
        assert!(!SolverKind::Cgls { max_iter: 10 }.debias());
    }

    #[test]
    fn only_the_greedy_pursuits_read_gram() {
        for kind in all_kinds(64) {
            assert_eq!(
                kind.reads_gram(),
                matches!(kind, SolverKind::Omp { .. } | SolverKind::CoSamp { .. }),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn presets_pick_sane_dictionaries() {
        assert_eq!(RecoveryParams::natural().dictionary, DictionaryKind::Dct2d);
        assert_eq!(
            RecoveryParams::piecewise().dictionary,
            DictionaryKind::Haar2d
        );
        assert_eq!(
            RecoveryParams::star_field(0).solver,
            SolverKind::Iht { sparsity: 1 }
        );
        assert_eq!(RecoveryParams::exact_sparse(9).solver.name(), "omp");
    }
}
