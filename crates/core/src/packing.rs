//! The (1 − ε)-approximate packing solver (Theorem 1.2, §4).
//!
//! Pipeline:
//!
//! 1. **Preparation** (§4.1.1) — `prep_count` independent Lemma C.1
//!    decompositions at `λ = 1/2`; every cluster `C` estimates its share of
//!    the (unknown) optimum via `W(P^local_C, C) / W(P^local_{S_C}, S_C)`.
//! 2. **Phases 1–2** (§4.1.3–4.1.4) — cluster-driven
//!    Grow-and-Carve-Packing (Algorithm 4): a sampled cluster gathers its
//!    `(b−1)`-ball, solves the local packing problem, and deletes the
//!    *middle layer* of the mod-3 window with the lightest local-solution
//!    mass, detaching `N^{j*}(C)` as an isolated region.
//! 3. **Phase 3** (§4.1.5) — Lemma C.1 at `λ = ε/10` on the residual; all
//!    deleted variables are fixed to 0 and each connected component of
//!    `H[V∖D]` solves its local packing problem exactly.
//!
//! Every deletion charges weight against the fixed unknown optimum `P*`,
//! so `W(P*, D) ≤ ε·W*` whp (Lemmas 4.3–4.6) and the union of component
//! optima is a (1 − ε)-approximation.
//!
//! The Grow-and-Carve step is the one every carving solver shares:
//! `Preparation::draw_centers` samples the centres,
//! [`dapc_graph::Ball::lightest_window`] picks the window,
//! `SubsetSolver::solve_into` solves the final components, and the result
//! is an [`Outcome`].

use crate::carve::solution_mass;
use crate::engine::Outcome;
use crate::params::PcParams;
use crate::prep::{prepare, Buckets, Preparation, SharedSubsetCache, SubsetSolver};
use dapc_graph::{BallScratch, Vertex};
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::restrict::IdBits;
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// Per-phase accounting of a packing run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackingStats {
    /// Sampled centres per Phase 1 iteration.
    pub centers_per_iteration: Vec<usize>,
    /// Sampled centres in Phase 2.
    pub centers_phase2: usize,
    /// Variables deleted in Phases 1–2 (carving) and Phase 3 (final LDD).
    pub deleted_carving: usize,
    /// Variables deleted by the Phase 3 decomposition.
    pub deleted_phase3: usize,
    /// Number of final components solved.
    pub components: usize,
    /// Whether every local solve proved optimality.
    pub all_solves_exact: bool,
}

/// Runs the (1 − ε)-approximate packing algorithm on `ilp`.
///
/// # Panics
///
/// Panics if `ilp` is not a packing instance.
///
/// # Examples
///
/// ```
/// use dapc_core::packing::approximate_packing;
/// use dapc_core::params::PcParams;
/// use dapc_graph::gen;
/// use dapc_ilp::problems;
///
/// let g = gen::cycle(24);
/// let ilp = problems::max_independent_set_unweighted(&g);
/// let params = PcParams::packing_scaled(0.3, 24.0, 0.02, 0.3);
/// let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(1));
/// assert!(ilp.is_feasible(&out.assignment));
/// assert!(out.value >= 8); // (1 − 0.3) · 12 = 8.4 → at least 8 whp
/// ```
pub fn approximate_packing(
    ilp: &IlpInstance,
    params: &PcParams,
    rng: &mut StdRng,
) -> Outcome<PackingStats> {
    approximate_packing_cached(ilp, params, rng, None)
}

/// [`approximate_packing`] with an optional cross-run subset-solve cache
/// for the `(instance, budget)` family. The outcome is identical with or
/// without the cache (subset solves are deterministic); only the exact
/// local computation is shared.
pub fn approximate_packing_cached(
    ilp: &IlpInstance,
    params: &PcParams,
    rng: &mut StdRng,
    cache: Option<&SharedSubsetCache>,
) -> Outcome<PackingStats> {
    assert_eq!(ilp.sense(), Sense::Packing, "expected a packing instance");
    let h = ilp.hypergraph();
    let n = h.n();
    let mut ledger = RoundLedger::new();
    let mut stats = PackingStats::default();
    let mut solver = SubsetSolver::with_shared(ilp, params.budget, cache);

    // Preparation: independent decompositions + sampling weights.
    let primal = ilp.primal_graph();
    let prep_rounds = (4.0 * params.n_tilde.ln() / params.prep_lambda).ceil() as usize;
    ledger.begin_phase("prep: parallel decompositions");
    ledger.charge_gather(prep_rounds);
    ledger.end_phase();
    ledger.begin_phase("prep: estimate W(S_C) at radius 8tR");
    ledger.charge_gather(params.sc_radius);
    ledger.end_phase();
    let prep: Preparation = prepare(ilp, h, primal, params, rng, &mut solver);

    // Phases 1 and 2: cluster-driven carving. `alive[v]` = still in the
    // residual hypergraph (not removed, not deleted). The ball scratch and
    // the sorted-list buffers are shared across every carve of every
    // iteration.
    let mut alive = vec![true; n];
    let mut deleted = vec![false; n];
    let mut scratch = BallScratch::new();
    let mut bits = IdBits::default();
    let mut ball_list = Vec::new();
    for i in 1..=params.t + 1 {
        let is_phase2 = i == params.t + 1;
        let (a_i, b_i) = params.packing_interval(i);
        ledger.begin_phase(if is_phase2 {
            "phase2 carve".to_string()
        } else {
            format!("phase1/iter{i} carve")
        });
        ledger.charge_gather(b_i - 1);
        let centers = prep.draw_centers(params, i, &alive, rng);
        if is_phase2 {
            stats.centers_phase2 = centers.len();
        } else {
            stats.centers_per_iteration.push(centers.len());
        }
        let mut to_delete = vec![false; n];
        let mut to_remove = vec![false; n];
        for c in &centers {
            let sources: Vec<Vertex> = c
                .members
                .iter()
                .copied()
                .filter(|&v| alive[v as usize])
                .collect();
            let ball = h.ball_with_scratch(&sources, b_i - 1, Some(&alive), None, &mut scratch);
            bits.sort_into(ball.iter(), &mut ball_list);
            let (_, local_solution, _) = solver.solve(&ball_list, None);
            // The window S_j ∪ S_{j+1} ∪ S_{j+2}, j ≡ a_i (mod 3), of least
            // local-solution weight W(P^local, ·).
            let j_star = ball
                .lightest_window((a_i..b_i).step_by(3), 3, solution_mass(ilp, local_solution))
                .unwrap_or(a_i);
            for &v in ball.level(j_star + 1) {
                to_delete[v as usize] = true;
            }
            for v in ball.within(j_star) {
                to_remove[v as usize] = true;
            }
        }
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            if to_delete[v] {
                alive[v] = false;
                deleted[v] = true;
                stats.deleted_carving += 1;
            } else if to_remove[v] {
                alive[v] = false; // removed: clustered into a carved region
            }
        }
        ledger.end_phase();
    }

    // Phase 3: final decomposition on the residual.
    let en = dapc_decomp::elkin_neiman::elkin_neiman(
        primal,
        &dapc_decomp::elkin_neiman::EnParams::new(params.final_lambda, params.n_tilde),
        rng,
        Some(&alive),
    );
    for v in 0..n {
        if alive[v] && en.deleted[v] {
            deleted[v] = true;
            stats.deleted_phase3 += 1;
        }
    }
    ledger.absorb(en.ledger);

    // Final components of H[V ∖ D] solve their local packing problems.
    let survivors: Vec<bool> = (0..n).map(|v| !deleted[v]).collect();
    let (comp, k) = h.connected_components_masked(&survivors, None);
    stats.components = k;
    ledger.begin_phase("final local solves (gather component)");
    ledger.charge_gather(2 * (params.t + 2) * 3 * (params.r + 1));
    ledger.end_phase();
    let mut assignment = vec![false; n];
    solver.solve_into(Buckets::by_label(&comp, k).iter(), None, &mut assignment);
    stats.all_solves_exact = solver.all_exact;
    let value = ilp.value(&assignment);
    debug_assert!(
        ilp.is_feasible(&assignment),
        "packing output must be feasible"
    );
    Outcome {
        assignment,
        value,
        ledger,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_ilp::{problems, verify};
    use dapc_local::RoundCost;

    fn scaled(eps: f64, n: usize) -> PcParams {
        PcParams::packing_scaled(eps, n as f64, 0.02, 0.3)
    }

    #[test]
    fn mis_on_cycle_within_guarantee() {
        let g = gen::cycle(30);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = scaled(0.25, 30);
        for seed in 0..5 {
            let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(seed));
            let v = verify::verdict(&ilp, &out.assignment, &params.budget);
            assert!(v.feasible);
            assert!(
                v.within_packing(0.25),
                "seed {seed}: ratio {} below 1 − ε",
                v.ratio
            );
        }
    }

    #[test]
    fn mis_on_grid_within_guarantee() {
        let g = gen::grid(6, 6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = scaled(0.3, 36);
        let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(3));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible && v.within_packing(0.3), "ratio {}", v.ratio);
        assert!(out.stats.all_solves_exact);
    }

    #[test]
    fn weighted_mis_respects_weights() {
        let g = gen::star(12);
        let mut w = vec![1u64; 12];
        w[0] = 100; // hub dominates
        let ilp = problems::max_independent_set(&g, w);
        let params = scaled(0.2, 12);
        let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(4));
        assert!(ilp.is_feasible(&out.assignment));
        assert!(out.value >= 100, "must take the heavy hub: {}", out.value);
    }

    #[test]
    fn matching_on_cycle() {
        let g = gen::cycle(20);
        let m = problems::max_matching(&g);
        let params = scaled(0.3, 20);
        let out = approximate_packing(&m.ilp, &params, &mut gen::seeded_rng(5));
        assert!(m.ilp.is_feasible(&out.assignment));
        assert!(out.value >= 7, "matching {} vs OPT 10", out.value); // ≥ (1−ε)·10
    }

    #[test]
    fn random_sparse_graph_mis() {
        let g = gen::gnp(40, 0.06, &mut gen::seeded_rng(6));
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = scaled(0.3, 40);
        let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(7));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible && v.within_packing(0.3), "ratio {}", v.ratio);
    }

    #[test]
    fn general_packing_instance() {
        let ilp = problems::random_packing(25, 18, 3, &mut gen::seeded_rng(8));
        let params = scaled(0.3, 25);
        let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(9));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible);
        assert!(v.within_packing(0.3), "ratio {}", v.ratio);
    }

    #[test]
    fn rounds_are_charged_per_phase() {
        let g = gen::cycle(16);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = scaled(0.3, 16);
        let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(10));
        // prep (2 phases) + t+1 carve phases + EN + final solves.
        assert!(out.ledger.phases().len() >= params.t + 4);
        assert!(out.rounds() > 0);
    }

    #[test]
    fn deleted_weight_is_small_across_seeds() {
        // The whp claim at experiment scale: deleted weight (vs the known
        // optimum) stays under ε·W* for every seed tried.
        let g = gen::grid(5, 5);
        let ilp = problems::max_independent_set_unweighted(&g);
        let eps = 0.3;
        let params = scaled(eps, 25);
        let (opt, _) = verify::optimum(&ilp, &params.budget);
        for seed in 0..10 {
            let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(seed));
            assert!(
                out.value as f64 >= (1.0 - eps) * opt as f64,
                "seed {seed}: {} < (1 − ε)·{opt}",
                out.value
            );
        }
    }
}
