//! The Ghaffari–Kuhn–Maus baseline (§1.2 of the paper, [GKM17]).
//!
//! The pre-existing state of the art that Theorems 1.2/1.3 improve upon:
//! compute an `(O(log n), O(log n))` network decomposition of the power
//! graph `H^{2k}` with `k = Θ(log ñ/ε)`, then process colour classes
//! **sequentially**; inside its colour step, every cluster gathers
//! `N^k(S)`, simulates the sequential ball-growing-and-carving on what
//! remains, and commits an exact local solution. With `C = O(log n)`
//! colours and cluster diameter `D = O(log n)` (in `H^{2k}`, i.e.
//! `O(k log n)` in `H`), the round complexity is `O(k·C·D) = O(log³ n/ε)`
//! versus the paper's `Õ(log n/ε)` — the gap experiment E6 measures.

use crate::prep::{SharedSubsetCache, SubsetSolver};
use dapc_decomp::network_decomposition::network_decomposition;
use dapc_graph::{BallScratch, GraphBuilder, Hypergraph, Vertex};
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// Parameters of the GKM17 baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GkmParams {
    /// Approximation parameter `ε`.
    pub eps: f64,
    /// Size hint `ñ`.
    pub n_tilde: f64,
    /// The carving radius `k = ⌈k_scale·ln ñ/ε⌉`.
    pub k: usize,
    /// Budget for exact local solves.
    pub budget: dapc_ilp::SolverBudget,
}

impl GkmParams {
    /// `k = ⌈k_scale·ln ñ/ε⌉`; the paper's `k` is `Θ(log n/ε)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1` and `n_tilde > 1`.
    pub fn new(eps: f64, n_tilde: f64, k_scale: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        assert!(n_tilde > 1.0, "n_tilde must exceed 1");
        GkmParams {
            eps,
            n_tilde,
            k: ((k_scale * n_tilde.ln()) / eps).ceil().max(3.0) as usize,
            budget: dapc_ilp::SolverBudget::default(),
        }
    }
}

/// Result of the GKM17 baseline.
#[derive(Clone, Debug)]
pub struct GkmOutcome {
    /// Feasible global 0/1 assignment.
    pub assignment: Vec<bool>,
    /// Its objective value.
    pub value: u64,
    /// LOCAL round cost (the `O(k·C·D)` accounting).
    pub ledger: RoundLedger,
    /// Colours used by the network decomposition.
    pub colors: u32,
    /// Whether every local solve proved optimality.
    pub all_solves_exact: bool,
}

impl dapc_local::RoundCost for GkmOutcome {
    fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }
}

/// Runs the GKM17 baseline on a packing or covering instance.
///
/// ```
/// use dapc_core::gkm::{gkm_solve, GkmParams};
/// use dapc_graph::gen;
/// use dapc_ilp::problems;
///
/// let g = gen::cycle(18);
/// let ilp = problems::max_independent_set_unweighted(&g);
/// let params = GkmParams::new(0.3, 18.0, 0.2);
/// let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(4));
/// assert!(ilp.is_feasible(&out.assignment));
/// assert!(out.value >= 6); // (1 − ε)·α(C18) = 0.7 · 9
/// ```
pub fn gkm_solve(ilp: &IlpInstance, params: &GkmParams, rng: &mut StdRng) -> GkmOutcome {
    gkm_solve_cached(ilp, params, rng, None)
}

/// [`gkm_solve`] with an optional cross-run subset-solve cache for the
/// `(instance, budget)` family. The outcome is identical with or without
/// the cache (subset solves are deterministic); only the exact local
/// computation is shared.
pub fn gkm_solve_cached(
    ilp: &IlpInstance,
    params: &GkmParams,
    rng: &mut StdRng,
    cache: Option<&SharedSubsetCache>,
) -> GkmOutcome {
    let h = ilp.hypergraph();
    let n = h.n();
    let mut ledger = RoundLedger::new();
    let mut solver = match cache {
        Some(c) => SubsetSolver::with_shared(ilp, params.budget, c.clone()),
        None => SubsetSolver::new(ilp, params.budget),
    };

    // Network decomposition of H^{2k} (computed centrally; every round on
    // the power graph costs 2k rounds of H).
    let power = hypergraph_power(h, 2 * params.k);
    let nd = network_decomposition(&power, params.n_tilde, rng);
    ledger.begin_phase("network decomposition of H^{2k} (×2k rounds)");
    ledger.charge_gather(nd.ledger.total_rounds() * 2 * params.k);
    ledger.end_phase();

    // Sequential processing of colour classes.
    let mut alive_v = vec![true; n]; // unprocessed
    let mut alive_e = vec![true; h.m()];
    let mut fixed_one = vec![false; n];
    let mut assignment = vec![false; n];
    let mut buffers = CarveBuffers {
        ball: BallScratch::new(),
        layer_of: vec![u8::MAX; n],
        list: Vec::new(),
    };
    let max_cluster_diameter = nd.max_weak_diameter(&power) as usize;
    for color in 0..nd.colors {
        ledger.begin_phase(format!("color {color}: gather + carve (k·D)"));
        // Per the paper: gathering N^k(S) of a diameter-D cluster of H^{2k}
        // costs O(k·D) rounds in H.
        ledger.charge_gather(params.k * (max_cluster_diameter + 1).max(1));
        ledger.end_phase();
        for (c, members) in nd.clusters.iter() {
            if *c != color {
                continue;
            }
            let sources: Vec<Vertex> = members
                .iter()
                .copied()
                .filter(|&v| alive_v[v as usize])
                .collect();
            if sources.is_empty() {
                continue;
            }
            carve_cluster(
                ilp,
                h,
                &sources,
                params,
                &mut alive_v,
                &mut alive_e,
                &mut fixed_one,
                &mut assignment,
                &mut solver,
                &mut buffers,
            );
        }
    }
    // Safety sweep: any leftovers (possible only when the ND cap fired)
    // are solved as isolated local instances.
    while let Some(s) = (0..n).find(|&v| alive_v[v]) {
        let ball = h.ball(&[s as Vertex], usize::MAX, Some(&alive_v), Some(&alive_e));
        let sources: Vec<Vertex> = ball.iter().collect();
        carve_cluster(
            ilp,
            h,
            &sources,
            params,
            &mut alive_v,
            &mut alive_e,
            &mut fixed_one,
            &mut assignment,
            &mut solver,
            &mut buffers,
        );
    }
    let value = ilp.value(&assignment);
    debug_assert!(ilp.is_feasible(&assignment), "GKM output must be feasible");
    GkmOutcome {
        assignment,
        value,
        ledger,
        colors: nd.colors,
        all_solves_exact: solver.all_exact,
    }
}

/// Buffers that every carve of one solve reuses, so a carve allocates
/// only in its ball's size.
struct CarveBuffers {
    ball: BallScratch,
    /// Which window layer a vertex is in (`u8::MAX`: neither); each carve
    /// resets the entries it set.
    layer_of: Vec<u8>,
    /// The sorted vertex list of the subset being solved.
    list: Vec<Vertex>,
}

/// One cluster's carving step: grow a ball of radius `k` in the residual,
/// pick the lightest boundary window (3 layers for packing, 2 for
/// covering), commit the exact local solution inside, zero/satisfy the
/// window, detach.
#[allow(clippy::too_many_arguments)]
fn carve_cluster(
    ilp: &IlpInstance,
    h: &Hypergraph,
    sources: &[Vertex],
    params: &GkmParams,
    alive_v: &mut [bool],
    alive_e: &mut [bool],
    fixed_one: &mut [bool],
    assignment: &mut [bool],
    solver: &mut SubsetSolver<'_>,
    buffers: &mut CarveBuffers,
) {
    let CarveBuffers {
        ball: scratch,
        layer_of,
        list,
    } = buffers;
    let ball = h.ball_with_scratch(sources, params.k, Some(alive_v), Some(alive_e), scratch);
    list.clear();
    list.extend(ball.iter());
    list.sort_unstable();
    match ilp.sense() {
        Sense::Packing => {
            let (_, local, _) = solver.solve(list, None);
            // Windows [j, j+2] with j ≡ j0 (mod 3) inside [2, k−1].
            let lo = 2usize.min(params.k.saturating_sub(1));
            let mut j_star = lo;
            let mut best = u64::MAX;
            let mut j = lo;
            while j + 2 <= params.k {
                let w: u64 = (j..j + 3)
                    .flat_map(|l| ball.level(l).iter())
                    .filter(|&&v| local[v as usize])
                    .map(|&v| ilp.weight(v))
                    .sum();
                if w < best {
                    best = w;
                    j_star = j;
                    if w == 0 {
                        break;
                    }
                }
                j += 3;
            }
            // Commit the solution inside N^{j*}(S); zero the middle layer.
            for v in ball.within(j_star) {
                if local[v as usize] {
                    assignment[v as usize] = true;
                }
                alive_v[v as usize] = false;
            }
            for &v in ball.level(j_star + 1) {
                alive_v[v as usize] = false; // zeroed boundary
            }
        }
        Sense::Covering => {
            let (_, local, _) = solver.solve(list, Some(fixed_one));
            // The window {j*, j*+1} must fit inside the ball (j*+1 ≤ k),
            // otherwise the default j* would sit on the ball boundary and
            // `within(j*)` would kill vertices whose outward constraints
            // were never satisfied. Hyperedge members span at most two
            // adjacent layers, so any window with j* ≥ 1 carves soundly;
            // prefer j* ≥ 3 (a non-trivial inner core) when k allows it.
            let lo = if params.k >= 4 { 3 } else { 1 };
            let mut j_star = lo;
            let mut best = u64::MAX;
            let mut j = lo;
            while j < params.k {
                let w: u64 = (j..=j + 1)
                    .flat_map(|l| ball.level(l).iter())
                    .filter(|&&v| local[v as usize])
                    .map(|&v| ilp.weight(v))
                    .sum();
                if w < best {
                    best = w;
                    j_star = j;
                    if w == 0 {
                        break;
                    }
                }
                j += 2;
            }
            // Fix the window, delete crossing hyperedges, solve inside.
            for &v in ball.level(j_star) {
                layer_of[v as usize] = 0;
            }
            for &v in ball.level(j_star + 1) {
                layer_of[v as usize] = 1;
            }
            for l in [j_star, j_star + 1] {
                for &v in ball.level(l) {
                    if local[v as usize] {
                        fixed_one[v as usize] = true;
                        assignment[v as usize] = true;
                    }
                }
            }
            for &v in ball.level(j_star) {
                for &e in h.incident_edges(v) {
                    if alive_e[e as usize] && h.edge(e).iter().any(|&u| layer_of[u as usize] == 1) {
                        alive_e[e as usize] = false;
                    }
                }
            }
            for &v in ball.level(j_star).iter().chain(ball.level(j_star + 1)) {
                layer_of[v as usize] = u8::MAX;
            }
            // Inner region: solve with fixed variables honoured.
            list.clear();
            list.extend(ball.within(j_star));
            list.sort_unstable();
            for &v in list.iter() {
                alive_v[v as usize] = false;
            }
            let (_, inner_sol, _) = solver.solve(list, Some(fixed_one));
            for &v in list.iter() {
                assignment[v as usize] |= inner_sol[v as usize];
            }
        }
    }
}

/// The `k`-th power of the primal graph of `h`.
fn hypergraph_power(h: &Hypergraph, k: usize) -> dapc_graph::Graph {
    let n = h.n();
    let mut b = GraphBuilder::new(n);
    for v in 0..n as Vertex {
        let ball = h.ball(&[v], k, None, None);
        for u in ball.iter() {
            if u > v {
                b.add_edge(v, u);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {

    use super::*;
    use dapc_graph::gen;
    use dapc_ilp::{problems, verify};
    use dapc_local::RoundCost;

    #[test]
    fn gkm_mis_within_guarantee() {
        let g = gen::cycle(24);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = GkmParams::new(0.3, 24.0, 0.2);
        for seed in 0..3 {
            let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(seed));
            let v = verify::verdict(&ilp, &out.assignment, &params.budget);
            assert!(v.feasible);
            assert!(v.within_packing(0.3), "seed {seed}: ratio {}", v.ratio);
        }
    }

    #[test]
    fn gkm_vertex_cover_within_guarantee() {
        let g = gen::grid(4, 5);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let params = GkmParams::new(0.3, 20.0, 0.2);
        let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(5));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible);
        assert!(v.within_covering(0.3), "ratio {}", v.ratio);
    }

    #[test]
    fn gkm_dominating_set() {
        let g = gen::cycle(21);
        let ilp = problems::min_dominating_set_unweighted(&g);
        let params = GkmParams::new(0.4, 21.0, 0.2);
        let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(6));
        let v = verify::verdict(&ilp, &out.assignment, &params.budget);
        assert!(v.feasible);
        assert!(v.within_covering(0.4), "ratio {}", v.ratio);
    }

    #[test]
    fn gkm_rounds_scale_with_k_times_colors() {
        let g = gen::cycle(32);
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = GkmParams::new(0.3, 32.0, 0.2);
        let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(7));
        // Every colour phase costs at least k rounds.
        assert!(out.rounds() >= params.k * out.colors as usize);
    }

    #[test]
    fn gkm_matching() {
        let g = gen::path(20);
        let m = problems::max_matching(&g);
        let params = GkmParams::new(0.3, 20.0, 0.2);
        let out = gkm_solve(&m.ilp, &params, &mut gen::seeded_rng(8));
        assert!(m.ilp.is_feasible(&out.assignment));
        assert!(out.value >= 7); // OPT = 10
    }
}
