//! The (1 + ε)-approximate covering solver (Theorem 1.3, §5).
//!
//! Covering cannot tolerate unclustered variables (zeroing them breaks
//! constraints), so the algorithm differs from packing in two ways
//! (§1.4.3): the preparation and final steps use the hyperedge **sparse
//! cover** of Lemma C.2 instead of a deleting decomposition, and Phase 2 is
//! skipped in favour of a longer Phase 1
//! (`t = ⌈log₂ ln n + log₂(1/ε) + 8⌉`).
//!
//! Grow-and-Carve-Covering (Algorithm 7) never deletes variables: it
//! **fixes** the local optimum on the two cheapest adjacent layers and
//! deletes the (now satisfied) hyperedges crossing them, isolating the
//! inner region. The final solution is the OR of: all fixed variables, the
//! exact local solutions of the isolated regions, and the exact local
//! solutions of the Lemma C.2 cover of the residual (Lemma C.3).
//!
//! The step shares its pieces with packing's and GKM's carves: the centre
//! draw (`Preparation::draw_centers`), the window search
//! ([`dapc_graph::Ball::lightest_window`]), the cut of the crossing
//! hyperedges (`carve::cut_crossing_edges`, which GKM's covering carve
//! runs too), the partition solve (`SubsetSolver::solve_into`) and the
//! [`Outcome`].

use crate::carve::{cut_crossing_edges, solution_mass};
use crate::engine::Outcome;
use crate::params::PcParams;
use crate::prep::{prepare, Buckets, Preparation, SharedSubsetCache, SubsetSolver};
use dapc_graph::{BallScratch, Vertex};
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::restrict::IdBits;
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// Per-phase accounting of a covering run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoveringStats {
    /// Sampled centres per Phase 1 iteration.
    pub centers_per_iteration: Vec<usize>,
    /// Weight fixed to one during the carving iterations.
    pub fixed_weight: u64,
    /// Hyperedges deleted (satisfied) by carving.
    pub deleted_edges: usize,
    /// Vertices removed into isolated regions during Phase 1.
    pub removed_vertices: usize,
    /// Number of isolated regions solved locally.
    pub removed_regions: usize,
    /// Number of final sparse-cover clusters solved.
    pub cover_clusters: usize,
    /// Whether every local solve proved optimality.
    pub all_solves_exact: bool,
}

/// Runs the (1 + ε)-approximate covering algorithm on `ilp`.
///
/// # Panics
///
/// Panics if `ilp` is not a covering instance.
///
/// # Examples
///
/// ```
/// use dapc_core::covering::approximate_covering;
/// use dapc_core::params::PcParams;
/// use dapc_graph::gen;
/// use dapc_ilp::problems;
///
/// let g = gen::cycle(20);
/// let ilp = problems::min_vertex_cover_unweighted(&g);
/// let params = PcParams::covering_scaled(0.3, 20.0, 0.02, 0.3, 1.0);
/// let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(2));
/// assert!(ilp.is_feasible(&out.assignment));
/// assert!(out.value <= 13); // (1 + 0.3) · 10 = 13
/// ```
pub fn approximate_covering(
    ilp: &IlpInstance,
    params: &PcParams,
    rng: &mut StdRng,
) -> Outcome<CoveringStats> {
    approximate_covering_cached(ilp, params, rng, None)
}

/// [`approximate_covering`] with an optional cross-run subset-solve cache
/// for the `(instance, budget)` family. The outcome is identical with or
/// without the cache (subset solves are deterministic); only the exact
/// local computation is shared.
pub fn approximate_covering_cached(
    ilp: &IlpInstance,
    params: &PcParams,
    rng: &mut StdRng,
    cache: Option<&SharedSubsetCache>,
) -> Outcome<CoveringStats> {
    assert_eq!(ilp.sense(), Sense::Covering, "expected a covering instance");
    let h = ilp.hypergraph();
    let n = h.n();
    let m = h.m();
    let mut ledger = RoundLedger::new();
    let mut stats = CoveringStats::default();
    let mut solver = SubsetSolver::with_shared(ilp, params.budget, cache);

    // Preparation: sparse covers + sampling weights.
    let primal = ilp.primal_graph();
    let prep_rounds = (4.0 * params.n_tilde.ln() / params.prep_lambda).ceil() as usize;
    ledger.begin_phase("prep: parallel sparse covers");
    ledger.charge_gather(prep_rounds);
    ledger.end_phase();
    ledger.begin_phase("prep: estimate W(S_C) at radius 8tR");
    ledger.charge_gather(params.sc_radius);
    ledger.end_phase();
    let prep: Preparation = prepare(ilp, h, primal, params, rng, &mut solver);

    let mut alive_v = vec![true; n];
    let mut alive_e = vec![true; m];
    let mut fixed_one = vec![false; n];
    let mut scratch = BallScratch::new();
    let mut bits = IdBits::default();
    let mut ball_list = Vec::new();
    // Which of the two fixed layers a vertex is in (`u8::MAX`: neither);
    // each carve resets the entries it set.
    let mut layer_of = vec![u8::MAX; n];

    // Phase 1: t carving iterations.
    for i in 1..=params.t {
        let (a_i, b_i) = params.covering_interval(i);
        ledger.begin_phase(format!("phase1/iter{i} carve"));
        ledger.charge_gather(b_i);
        let centers = prep.draw_centers(params, i, &alive_v, rng);
        stats.centers_per_iteration.push(centers.len());
        // Covering carves are applied sequentially within an iteration to
        // keep the fixed-variable bookkeeping exact; in the LOCAL model
        // they run in parallel and the ledger charges them as one gather.
        for c in centers {
            let sources: Vec<Vertex> = c
                .members
                .iter()
                .copied()
                .filter(|&v| alive_v[v as usize])
                .collect();
            if sources.is_empty() {
                continue;
            }
            let ball =
                h.ball_with_scratch(&sources, b_i, Some(&alive_v), Some(&alive_e), &mut scratch);
            bits.sort_into(ball.iter(), &mut ball_list);
            let (_, local_sol, _) = solver.solve(&ball_list, Some(&fixed_one));
            // The layers S_j ∪ S_{j+1}, j ≡ a_i (mod 2) in [a_i, b_i), of
            // least local-solution weight.
            let j_star = ball
                .lightest_window((a_i..b_i).step_by(2), 2, solution_mass(ilp, local_sol))
                .unwrap_or(a_i);
            // Fix the local assignment on the two layers.
            for l in [j_star, j_star + 1] {
                for &v in ball.level(l) {
                    if local_sol[v as usize] && !fixed_one[v as usize] {
                        fixed_one[v as usize] = true;
                        stats.fixed_weight += ilp.weight(v);
                    }
                }
            }
            // Delete the now-satisfied hyperedges crossing the two layers.
            stats.deleted_edges +=
                cut_crossing_edges(h, &ball, j_star, &alive_v, &mut alive_e, &mut layer_of);
            // Remove the inner region.
            for v in ball.within(j_star) {
                if alive_v[v as usize] {
                    alive_v[v as usize] = false;
                    stats.removed_vertices += 1;
                }
            }
        }
        ledger.end_phase();
    }

    // Solve the isolated (removed) regions: connected components of the
    // removed vertex set under the still-alive hyperedges.
    let removed: Vec<bool> = alive_v.iter().map(|&a| !a).collect();
    let mut assignment = fixed_one.clone();
    let (comp, k) = h.connected_components_masked(&removed, Some(&alive_e));
    stats.removed_regions = k;
    ledger.begin_phase("removed-region local solves");
    ledger.charge_gather(2 * (params.t + 1) * 2 * params.r);
    ledger.end_phase();
    let regions = Buckets::by_label(&comp, k);
    solver.solve_into(regions.iter(), Some(&fixed_one), &mut assignment);

    // Phase 2: sparse cover of the residual + OR-combined local solves
    // (Lemmas C.2 and C.3).
    let cover = dapc_decomp::sparse_cover::sparse_cover(
        h,
        params.final_lambda,
        params.n_tilde,
        rng,
        Some(&alive_v),
        Some(&alive_e),
    );
    stats.cover_clusters = cover.clusters.len();
    ledger.absorb(cover.ledger.clone());
    ledger.begin_phase("final cover local solves");
    ledger.charge_gather(2 * (params.t + 1) * 2 * params.r);
    ledger.end_phase();
    // Only constraints fully inside a cluster AND still alive matter.
    // Deleted hyperedges are satisfied by `fixed_one` (checked at deletion
    // time), so the fixed-aware restriction drops them automatically and
    // each cluster solves only live constraints.
    let clusters = cover.clusters.iter().map(Vec::as_slice);
    solver.solve_into(clusters, Some(&fixed_one), &mut assignment);

    stats.all_solves_exact = solver.all_exact;
    let value = ilp.value(&assignment);
    debug_assert!(
        ilp.is_feasible(&assignment),
        "covering output must be feasible"
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

    fn scaled(eps: f64, n: usize) -> PcParams {
        PcParams::covering_scaled(eps, n as f64, 0.02, 0.3, 1.0)
    }

    #[test]
    fn vertex_cover_on_cycle_within_guarantee() {
        let g = gen::cycle(30);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let params = scaled(0.3, 30);
        for seed in 0..5 {
            let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(seed));
            let v = verify::verdict(&ilp, &out.assignment, &params.budget);
            assert!(v.feasible);
            assert!(
                v.within_covering(0.3),
                "seed {seed}: ratio {} above 1 + ε",
                v.ratio
            );
        }
    }

    #[test]
    fn carving_fixes_layers_on_a_long_cycle() {
        // Radii far below the cycle's length: Phase 1 fixes real layers
        // and deletes the hyperedges between them, and every carve
        // restores the layer marks it set (debug-asserted per carve).
        let ilp = problems::min_vertex_cover_unweighted(&gen::cycle(400));
        let params = scaled(0.3, 400);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(1));
        assert!(out.stats.deleted_edges > 0, "{:?}", out.stats);
        assert!(ilp.is_feasible(&out.assignment));
        assert!(out.value as f64 <= 1.3 * 200.0, "value {}", out.value);
    }

    #[test]
    fn dominating_set_on_grid_within_guarantee() {
        let g = gen::grid(5, 5);
        let ilp = problems::min_dominating_set_unweighted(&g);
        let params = scaled(0.4, 25);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(3));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible);
        assert!(v.within_covering(0.4), "ratio {}", v.ratio);
    }

    #[test]
    fn weighted_vertex_cover() {
        let g = gen::path(10);
        let w: Vec<u64> = (0..10).map(|i| 1 + (i % 3) as u64).collect();
        let ilp = problems::min_vertex_cover(&g, w);
        let params = scaled(0.3, 10);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(4));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible && v.within_covering(0.3), "ratio {}", v.ratio);
    }

    #[test]
    fn k_dominating_set() {
        let g = gen::cycle(24);
        let ilp = problems::k_dominating_set(&g, 2, vec![1; 24]);
        let params = scaled(0.4, 24);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(5));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible && v.within_covering(0.4), "ratio {}", v.ratio);
    }

    #[test]
    fn set_cover_instance() {
        let mut rng = gen::seeded_rng(6);
        use rand::RngExt;
        let universe = 30;
        let sets: Vec<Vec<usize>> = (0..25)
            .map(|i| {
                let mut s: Vec<usize> = (0..universe)
                    .filter(|_| rng.random::<f64>() < 0.15)
                    .collect();
                s.push(i % universe); // ensure coverage
                s
            })
            .collect();
        let ilp = problems::set_cover(universe, &sets, vec![1; 25]);
        let params = scaled(0.4, 30);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(7));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible && v.within_covering(0.4), "ratio {}", v.ratio);
    }

    #[test]
    fn general_covering_instance() {
        let ilp = problems::random_covering(20, 15, 3, &mut gen::seeded_rng(8));
        let params = scaled(0.4, 20);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(9));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible);
        assert!(v.within_covering(0.4), "ratio {}", v.ratio);
    }

    #[test]
    fn guarantee_holds_across_seeds() {
        let g = gen::gnp(30, 0.08, &mut gen::seeded_rng(10));
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let eps = 0.3;
        let params = scaled(eps, 30);
        let (opt, _) = verify::optimum(&ilp, &params.budget);
        for seed in 0..10 {
            let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(seed));
            assert!(
                out.value as f64 <= (1.0 + eps) * opt as f64 + 1e-9,
                "seed {seed}: {} > (1 + ε)·{opt}",
                out.value
            );
        }
    }
}
