//! The one outcome every solver computes and the one report every
//! backend returns.

use crate::covering::CoveringStats;
use crate::ensemble::EnsembleStats;
use crate::gkm::GkmStats;
use crate::packing::PackingStats;
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::verify::FeasibilityReport;
use dapc_local::{RoundCost, RoundLedger};

/// What a solver computes: a feasible assignment, its value, the LOCAL
/// round bill and the solver's own stats `S` (`PackingStats`,
/// `CoveringStats`, `GkmStats` or `EnsembleStats`).
#[derive(Clone, Debug)]
pub struct Outcome<S> {
    /// Feasible global 0/1 assignment.
    pub assignment: Vec<bool>,
    /// Its objective value `wᵀx`.
    pub value: u64,
    /// LOCAL round cost, phase by phase.
    pub ledger: RoundLedger,
    /// The solver's phase accounting.
    pub stats: S,
}

impl<S> RoundCost for Outcome<S> {
    fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }
}

/// Per-backend phase accounting, unified across the engine.
///
/// Exactly one variant is populated per run; the common questions
/// ("was every local solve exact?", "how many centres were sampled?") have
/// accessors on [`SolveReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum BackendStats {
    /// Theorem 1.2 phase counters.
    Packing(PackingStats),
    /// Theorem 1.3 phase counters.
    Covering(CoveringStats),
    /// GKM17: colours used by the network decomposition and solve
    /// exactness.
    Gkm(GkmStats),
    /// §4.2 ensemble: candidate values and the re-weighted pass value.
    Ensemble(EnsembleStats),
    /// Centralised reference backends (greedy / branch & bound).
    Centralised {
        /// Whether the solve proved optimality.
        exact: bool,
    },
}

/// Unified result of any [`crate::engine::Solver`] backend: its
/// [`Outcome`], the backend's name and stats, and the verdict of
/// [`dapc_ilp::verify::check`].
///
/// Derives `PartialEq`, so determinism can be asserted as
/// `report_a == report_b`.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveReport {
    /// Registry key of the backend that produced this report.
    pub backend: &'static str,
    /// Whether the instance packed or covered.
    pub sense: Sense,
    /// Feasible global 0/1 assignment.
    pub assignment: Vec<bool>,
    /// Its objective value `wᵀx`.
    pub value: u64,
    /// LOCAL round bill, phase by phase.
    pub ledger: RoundLedger,
    /// Backend-specific phase accounting.
    pub stats: BackendStats,
    /// Built-in feasibility verdict ([`dapc_ilp::verify::check`]).
    pub verdict: FeasibilityReport,
}

impl RoundCost for SolveReport {
    fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }
}

impl SolveReport {
    /// Whether the assignment satisfies every constraint.
    pub fn feasible(&self) -> bool {
        self.verdict.feasible
    }

    /// Whether every local solve proved optimality (`true` for backends
    /// whose runs were all exact).
    pub fn all_solves_exact(&self) -> bool {
        match &self.stats {
            BackendStats::Packing(s) => s.all_solves_exact,
            BackendStats::Covering(s) => s.all_solves_exact,
            BackendStats::Gkm(s) => s.all_solves_exact,
            BackendStats::Ensemble(s) => s.all_solves_exact,
            BackendStats::Centralised { exact } => *exact,
        }
    }

    /// Verifies `out` and labels it with its backend, whose stats `wrap`
    /// turns into their [`BackendStats`] variant.
    pub(crate) fn from_outcome<S>(
        ilp: &IlpInstance,
        backend: &'static str,
        out: Outcome<S>,
        wrap: impl FnOnce(S) -> BackendStats,
    ) -> Self {
        let verdict = {
            let _span = dapc_obs::span("verify");
            dapc_ilp::verify::check(ilp, &out.assignment)
        };
        SolveReport {
            backend,
            sense: ilp.sense(),
            assignment: out.assignment,
            value: out.value,
            ledger: out.ledger,
            stats: wrap(out.stats),
            verdict,
        }
    }
}
