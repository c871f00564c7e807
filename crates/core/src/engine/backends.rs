//! The five engine backends.

use super::config::SolveConfig;
use super::report::{BackendStats, Outcome, SolveReport};
use super::Solver;
use crate::covering::approximate_covering_cached;
use crate::ensemble::packing_ensemble_cached;
use crate::gkm::gkm_solve_cached;
use crate::packing::approximate_packing_cached;
use crate::prep::SubsetSolver;
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::restrict::{covering_restriction, packing_restriction};
use dapc_ilp::solvers::greedy;
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// The paper's headline algorithms: Theorem 1.2 for packing instances,
/// Theorem 1.3 for covering instances (both `Õ(log n/ε)` rounds, whp).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreePhase;

impl Solver for ThreePhase {
    fn name(&self) -> &'static str {
        "three-phase"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, rng: &mut StdRng) -> SolveReport {
        let cache = cfg.prep_cache.as_ref();
        match ilp.sense() {
            Sense::Packing => {
                let out = approximate_packing_cached(ilp, &cfg.packing_params(ilp.n()), rng, cache);
                SolveReport::from_outcome(ilp, self.name(), out, BackendStats::Packing)
            }
            Sense::Covering => {
                let out =
                    approximate_covering_cached(ilp, &cfg.covering_params(ilp.n()), rng, cache);
                SolveReport::from_outcome(ilp, self.name(), out, BackendStats::Covering)
            }
        }
    }
}

/// The Ghaffari–Kuhn–Maus `O(log³ n/ε)` baseline (§1.2) — handles both
/// senses.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gkm;

impl Solver for Gkm {
    fn name(&self) -> &'static str {
        "gkm"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, rng: &mut StdRng) -> SolveReport {
        let out = gkm_solve_cached(ilp, &cfg.gkm_params(ilp.n()), rng, cfg.prep_cache.as_ref());
        SolveReport::from_outcome(ilp, self.name(), out, BackendStats::Gkm)
    }
}

/// The §4.2 "alternative approach" ensemble. Packing-only in the paper;
/// on covering instances this backend delegates to the Theorem 1.3
/// three-phase solver (documented substitution), so it stays usable on a
/// mixed corpus.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ensemble;

impl Solver for Ensemble {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, rng: &mut StdRng) -> SolveReport {
        let cache = cfg.prep_cache.as_ref();
        match ilp.sense() {
            Sense::Packing => {
                let out = packing_ensemble_cached(
                    ilp,
                    &cfg.packing_params(ilp.n()),
                    cfg.ensemble_runs,
                    rng,
                    cache,
                );
                SolveReport::from_outcome(ilp, self.name(), out, BackendStats::Ensemble)
            }
            Sense::Covering => {
                let out =
                    approximate_covering_cached(ilp, &cfg.covering_params(ilp.n()), rng, cache);
                SolveReport::from_outcome(ilp, self.name(), out, BackendStats::Covering)
            }
        }
    }
}

/// The report of a centralised reference backend on `assignment`: one
/// gather of the whole instance (`n` rounds bounds any diameter) plus the
/// answer broadcast, and whether the solve proved optimality.
fn centralised(
    ilp: &IlpInstance,
    backend: &'static str,
    assignment: Vec<bool>,
    exact: bool,
) -> SolveReport {
    let mut ledger = RoundLedger::new();
    ledger.begin_phase(format!("{backend}: gather instance (diameter ≤ n)"));
    ledger.charge_gather(ilp.n());
    ledger.charge_additive(ilp.n()); // broadcast the decision back
    ledger.end_phase();
    let out = Outcome {
        value: ilp.value(&assignment),
        assignment,
        ledger,
        stats: exact,
    };
    SolveReport::from_outcome(ilp, backend, out, |exact| BackendStats::Centralised {
        exact,
    })
}

/// Centralised greedy heuristic — the quality floor every distributed
/// backend must beat. Never exact; always feasible.
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

impl Solver for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn solve(&self, ilp: &IlpInstance, _cfg: &SolveConfig, _rng: &mut StdRng) -> SolveReport {
        let full = vec![true; ilp.n()];
        let assignment = match ilp.sense() {
            Sense::Packing => greedy::greedy_packing(&packing_restriction(ilp, &full)),
            Sense::Covering => greedy::greedy_covering(&covering_restriction(ilp, &full)),
        };
        centralised(ilp, self.name(), assignment, false)
    }
}

/// Centralised exact reference: the structure-detecting dispatch of
/// `dapc_ilp::solvers::solve` (conflict-graph MIS, blossom, VC-via-MIS,
/// branch & bound) on the whole instance, under the configured budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct BranchAndBound;

impl Solver for BranchAndBound {
    fn name(&self) -> &'static str {
        "bnb"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, _rng: &mut StdRng) -> SolveReport {
        // The full-instance solve goes through the subset memoiser so a
        // batch runtime's shared cache also covers this backend; with no
        // cache attached the result is identical to a direct solve.
        let full = vec![true; ilp.n()];
        let mut solver = SubsetSolver::with_shared(ilp, cfg.budget, cfg.prep_cache.as_ref());
        let (_, assignment, exact) = solver.solve_mask(&full, None);
        centralised(ilp, self.name(), assignment, exact)
    }
}
