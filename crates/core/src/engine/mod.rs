//! The unified solver engine: one trait, one config, one report.
//!
//! Every packing/covering backend in the workspace — the Theorem 1.2/1.3
//! three-phase solvers, the GKM17 baseline, the §4.2 ensemble and the
//! centralised greedy / branch & bound references — implements the one
//! [`Solver`] trait and returns the one [`SolveReport`], so benches, CLIs
//! and tests can swap backends freely (the "pluggable strategies over one
//! instance model" framing of Koufogiannakis & Young 2011).
//!
//! # Examples
//!
//! Direct backend use:
//!
//! ```
//! use dapc_core::engine::{SolveConfig, Solver, ThreePhase};
//! use dapc_graph::gen;
//! use dapc_ilp::problems;
//! use dapc_local::RoundCost;
//!
//! let ilp = problems::max_independent_set_unweighted(&gen::cycle(24));
//! let cfg = SolveConfig::new().eps(0.3).seed(1);
//! let report = ThreePhase.solve(&ilp, &cfg, &mut cfg.rng());
//! assert!(report.feasible());
//! assert!(report.value >= 8); // (1 − ε)·α(C24) = 0.7·12
//! assert!(report.rounds() > 0);
//! ```
//!
//! Registry-driven use (for benches and CLIs keyed by string):
//!
//! ```
//! use dapc_core::engine::{self, SolveConfig};
//! use dapc_graph::gen;
//! use dapc_ilp::problems;
//!
//! let ilp = problems::min_vertex_cover_unweighted(&gen::cycle(18));
//! for name in engine::BACKENDS {
//!     let report = engine::solve(name, &ilp, &SolveConfig::new().eps(0.4)).unwrap();
//!     assert!(report.feasible(), "{name} must be feasible");
//! }
//! assert!(engine::solve("no-such-backend", &ilp, &SolveConfig::new()).is_none());
//! ```

mod backends;
mod config;
mod report;

pub use backends::{BranchAndBound, Ensemble, Gkm, Greedy, ThreePhase};
pub use config::SolveConfig;
pub use report::{BackendStats, Outcome, SolveReport};

pub use crate::prep::SharedSubsetCache;

use dapc_ilp::instance::IlpInstance;
use rand::rngs::StdRng;

/// A packing/covering solver backend.
///
/// Implementations must be deterministic functions of `(ilp, cfg, rng)` —
/// the engine's determinism suite asserts identical reports for identical
/// seeds.
pub trait Solver {
    /// Stable registry key (e.g. `"three-phase"`).
    fn name(&self) -> &'static str;

    /// Solves `ilp` under `cfg`, drawing randomness only from `rng`.
    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, rng: &mut StdRng) -> SolveReport;
}

/// Registry keys of every built-in backend, in canonical order.
pub const BACKENDS: [&str; 5] = ["three-phase", "gkm", "ensemble", "greedy", "bnb"];

/// Looks a backend up by registry key.
pub fn backend(name: &str) -> Option<Box<dyn Solver>> {
    match name {
        "three-phase" => Some(Box::new(ThreePhase)),
        "gkm" => Some(Box::new(Gkm)),
        "ensemble" => Some(Box::new(Ensemble)),
        "greedy" => Some(Box::new(Greedy)),
        "bnb" => Some(Box::new(BranchAndBound)),
        _ => None,
    }
}

/// One-call registry solve: looks `name` up and runs it with the RNG
/// seeded from `cfg.seed`. Returns `None` for unknown keys.
pub fn solve(name: &str, ilp: &IlpInstance, cfg: &SolveConfig) -> Option<SolveReport> {
    let solver = backend(name)?;
    // The root of the per-solve span tree: decompose/annotate/
    // subset_solve/verify nest under `span.solve.*` when tracing is on.
    let _span = dapc_obs::span("solve");
    Some(solver.solve(ilp, cfg, &mut cfg.rng()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_ilp::problems;
    use dapc_local::RoundCost;

    #[test]
    fn registry_knows_all_backends() {
        for name in BACKENDS {
            let b = backend(name).unwrap_or_else(|| panic!("missing backend {name}"));
            assert_eq!(b.name(), name);
        }
        assert!(backend("nope").is_none());
    }

    #[test]
    fn every_backend_solves_packing_and_covering() {
        let pack = problems::max_independent_set_unweighted(&gen::cycle(18));
        let cover = problems::min_vertex_cover_unweighted(&gen::cycle(18));
        let cfg = SolveConfig::new().eps(0.3).seed(5);
        for name in BACKENDS {
            for ilp in [&pack, &cover] {
                let r = solve(name, ilp, &cfg).unwrap();
                assert!(r.feasible(), "{name}: infeasible");
                assert_eq!(r.backend, name);
                assert_eq!(r.sense, ilp.sense());
                assert_eq!(r.value, ilp.value(&r.assignment));
                assert!(r.rounds() > 0, "{name}: zero rounds");
            }
        }
    }

    #[test]
    fn trait_objects_compose() {
        let ilp = problems::max_independent_set_unweighted(&gen::cycle(12));
        let cfg = SolveConfig::new().seed(3);
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(ThreePhase),
            Box::new(Gkm),
            Box::new(Greedy),
            Box::new(BranchAndBound),
        ];
        for s in &solvers {
            let r = s.solve(&ilp, &cfg, &mut cfg.rng());
            assert!(r.feasible(), "{} infeasible", s.name());
        }
    }

    #[test]
    fn bnb_reference_is_exact_on_small_instances() {
        let ilp = problems::max_independent_set_unweighted(&gen::cycle(10));
        let r = solve("bnb", &ilp, &SolveConfig::new()).unwrap();
        assert_eq!(r.value, 5);
        assert!(r.all_solves_exact());
    }

    #[test]
    fn greedy_is_reported_as_inexact() {
        let ilp = problems::min_dominating_set_unweighted(&gen::star(6));
        let r = solve("greedy", &ilp, &SolveConfig::new()).unwrap();
        assert!(r.feasible());
        assert!(!r.all_solves_exact());
    }
}
