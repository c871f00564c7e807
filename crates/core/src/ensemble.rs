//! The alternative packing algorithm of §4.2 ("An Alternative Approach",
//! suggested by the paper's anonymous reviewer).
//!
//! Instead of cluster-driven carving, run `T = O(ε⁻² log ñ)` independent
//! Lemma C.1 decompositions in parallel, solve each one's clusters exactly
//! to get candidate solutions `P_i`, re-weight every variable by how many
//! candidates selected it (`w'(v) = w(v)·|{i : P_i(v) = 1}|`), and run one
//! more decomposition on the re-weighted instance. By the averaging
//! argument, some candidate restricted to clustered vertices has value
//! `≥ (1 − ε)³·W*`, and the re-weighted decomposition concentrates enough
//! mass on the good variables for its clustered solution to match.
//!
//! *Substitution:* the paper's final step uses a *weighted* extension of
//! Theorem 1.1; we use the same Lemma C.1 decomposition for the final
//! step (its per-vertex deletion bound is weight-oblivious) and
//! additionally return the best candidate, so the output value is a
//! maximum of both mechanisms — never worse than either.

use crate::params::PcParams;
use crate::prep::{SharedSubsetCache, SubsetSolver};
use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// Result of the ensemble algorithm.
#[derive(Clone, Debug)]
pub struct EnsembleOutcome {
    /// Feasible global assignment (the better of best-candidate and the
    /// re-weighted final solution).
    pub assignment: Vec<bool>,
    /// Its objective value.
    pub value: u64,
    /// Values of all `T` candidates (diagnostics for the averaging
    /// argument).
    pub candidate_values: Vec<u64>,
    /// Value achieved by the re-weighted final decomposition.
    pub reweighted_value: u64,
    /// LOCAL round cost (the `T` runs are parallel; the re-weighted run is
    /// sequential after them).
    pub ledger: RoundLedger,
    /// Whether every local solve proved optimality.
    pub all_solves_exact: bool,
}

impl dapc_local::RoundCost for EnsembleOutcome {
    fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }
}

/// Runs the §4.2 ensemble algorithm with `t_runs` parallel decompositions
/// (the paper's `t = O(ε⁻² log ñ)`; pass `None` for `⌈ln ñ/ε²⌉` capped at
/// 48).
///
/// # Panics
///
/// Panics if `ilp` is not packing.
///
/// ```
/// use dapc_core::ensemble::packing_ensemble;
/// use dapc_core::params::PcParams;
/// use dapc_graph::gen;
/// use dapc_ilp::problems;
///
/// let g = gen::cycle(24);
/// let ilp = problems::max_independent_set_unweighted(&g);
/// let params = PcParams::packing_scaled(0.3, 24.0, 0.02, 0.3);
/// let out = packing_ensemble(&ilp, &params, Some(8), &mut gen::seeded_rng(3));
/// assert!(ilp.is_feasible(&out.assignment));
/// assert!(out.value >= 8); // (1 − ε)·α(C24) = 0.7·12
/// ```
pub fn packing_ensemble(
    ilp: &IlpInstance,
    params: &PcParams,
    t_runs: Option<usize>,
    rng: &mut StdRng,
) -> EnsembleOutcome {
    packing_ensemble_cached(ilp, params, t_runs, rng, None)
}

/// [`packing_ensemble`] with an optional cross-run subset-solve cache for
/// the `(instance, budget)` family. The outcome is identical with or
/// without the cache (subset solves are deterministic); only the exact
/// local computation is shared.
pub fn packing_ensemble_cached(
    ilp: &IlpInstance,
    params: &PcParams,
    t_runs: Option<usize>,
    rng: &mut StdRng,
    cache: Option<&SharedSubsetCache>,
) -> EnsembleOutcome {
    assert_eq!(ilp.sense(), Sense::Packing, "expected a packing instance");
    let n = ilp.n();
    let primal = ilp.primal_graph();
    let t_runs = t_runs.unwrap_or_else(|| {
        ((params.n_tilde.ln() / (params.eps * params.eps)).ceil() as usize).clamp(4, 48)
    });
    let en = EnParams::new(params.eps / 2.0, params.n_tilde);
    let mut solver = match cache {
        Some(c) => SubsetSolver::with_shared(ilp, params.budget, c.clone()),
        None => SubsetSolver::new(ilp, params.budget),
    };
    let mut ledger = RoundLedger::new();
    ledger.begin_phase(format!("{t_runs} parallel decompositions"));
    ledger.charge_gather(en.rounds());
    ledger.end_phase();
    ledger.begin_phase("per-cluster exact solves (gather cluster)");
    ledger.charge_gather((en.diameter_bound()).ceil() as usize);
    ledger.end_phase();

    // Candidates: one feasible solution per decomposition. Clusters come
    // sorted, so each is solved as its own vertex list.
    let mut selection_count = vec![0u64; n];
    let mut best_candidate: Option<(u64, Vec<bool>)> = None;
    let mut candidate_values = Vec::with_capacity(t_runs);
    for _ in 0..t_runs {
        let d = elkin_neiman(primal, &en, rng, None);
        let mut assignment = vec![false; n];
        for cluster in &d.clusters {
            let (_, local, _) = solver.solve(cluster, None);
            for &v in cluster {
                assignment[v as usize] |= local[v as usize];
            }
        }
        debug_assert!(ilp.is_feasible(&assignment));
        let value = ilp.value(&assignment);
        candidate_values.push(value);
        for v in 0..n {
            if assignment[v] {
                selection_count[v] += 1;
            }
        }
        if best_candidate.as_ref().is_none_or(|(bv, _)| value > *bv) {
            best_candidate = Some((value, assignment));
        }
    }
    let (best_value, best_assignment) = best_candidate.unwrap_or((0, vec![false; n]));

    // Re-weighted final decomposition: clusters solve the *original*
    // instance, but the sampling mass w'(v) = w(v)·count(v) tells us which
    // variables the ensemble believes in — we bias the final decomposition
    // by restricting it to the support of w' (variables never selected by
    // any candidate cannot be in any candidate-restriction anyway).
    let support: Vec<bool> = (0..n).map(|v| selection_count[v] > 0).collect();
    let d = elkin_neiman(primal, &en, rng, Some(&support));
    ledger.absorb(d.ledger.clone());
    ledger.begin_phase("re-weighted cluster solves");
    ledger.charge_gather((en.diameter_bound()).ceil() as usize);
    ledger.end_phase();
    let mut reweighted = vec![false; n];
    for cluster in &d.clusters {
        let (_, local, _) = solver.solve(cluster, None);
        for &v in cluster {
            reweighted[v as usize] |= local[v as usize];
        }
    }
    debug_assert!(ilp.is_feasible(&reweighted));
    let reweighted_value = ilp.value(&reweighted);

    let (value, assignment) = if reweighted_value > best_value {
        (reweighted_value, reweighted)
    } else {
        (best_value, best_assignment)
    };
    EnsembleOutcome {
        assignment,
        value,
        candidate_values,
        reweighted_value,
        ledger,
        all_solves_exact: solver.all_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_ilp::{problems, verify, SolverBudget};

    #[test]
    fn ensemble_meets_guarantee_on_cycle() {
        let g = gen::cycle(30);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = PcParams::packing_scaled(0.3, 30.0, 0.02, 0.3);
        for seed in 0..5 {
            let out = packing_ensemble(&ilp, &params, Some(8), &mut gen::seeded_rng(seed));
            let v = verify::verdict(&ilp, &out.assignment, &SolverBudget::default());
            assert!(v.feasible);
            assert!(v.within_packing(0.3), "seed {seed}: ratio {}", v.ratio);
        }
    }

    #[test]
    fn ensemble_on_random_graph() {
        let g = gen::gnp(36, 0.08, &mut gen::seeded_rng(2));
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = PcParams::packing_scaled(0.3, 36.0, 0.02, 0.3);
        let out = packing_ensemble(&ilp, &params, Some(10), &mut gen::seeded_rng(3));
        let v = verify::verdict(&ilp, &out.assignment, &SolverBudget::default());
        assert!(v.feasible && v.within_packing(0.3), "ratio {}", v.ratio);
        assert_eq!(out.candidate_values.len(), 10);
    }

    #[test]
    fn output_is_max_of_both_mechanisms() {
        let g = gen::grid(5, 5);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = PcParams::packing_scaled(0.2, 25.0, 0.02, 0.3);
        let out = packing_ensemble(&ilp, &params, Some(6), &mut gen::seeded_rng(4));
        let best_candidate = *out.candidate_values.iter().max().unwrap();
        assert!(out.value >= best_candidate);
        assert!(out.value >= out.reweighted_value);
    }

    #[test]
    fn default_run_count_is_bounded() {
        let g = gen::cycle(16);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = PcParams::packing_scaled(0.3, 16.0, 0.02, 0.3);
        let out = packing_ensemble(&ilp, &params, None, &mut gen::seeded_rng(5));
        assert!(out.candidate_values.len() >= 4);
        assert!(out.candidate_values.len() <= 48);
        assert!(ilp.is_feasible(&out.assignment));
    }
}
