//! The paper's low-diameter decomposition (Theorem 1.1, §3).
//!
//! Three phases of ball-growing-and-carving sparsify the graph until the
//! classical Elkin–Neiman decomposition concentrates:
//!
//! * **Phase 1** — `t = ⌈log₂(20/ε)⌉` iterations; in iteration `i` each
//!   surviving vertex becomes a centre with probability
//!   `p_{v,i} = 2^i·ln ñ / n_v` and carves the sparsest level of its ball
//!   in the interval `I_i = [(t−i+2)R+1, (t−i+3)R]` (Algorithm 1 / 2);
//! * **Phase 2** — one extra iteration at probability
//!   `2^{t+1}·ln ñ·ln(20/ε)/n_v` on the interval `[R+1, 2R]` (Algorithm 3);
//! * **Phase 3** — Lemma C.1 at `λ = ε/10` on the residual graph.
//!
//! Deleted vertices are the unclustered set `D`; the clusters are the
//! connected components of `G[V∖D]`, of weak diameter `O(t·R)`
//! (Lemma 3.2). Unlike the classical algorithms, `|D| ≤ ε|V|` holds **with
//! high probability** (Lemmas 3.3–3.7), not merely in expectation — this is
//! contribution (C1).

use crate::elkin_neiman::{elkin_neiman, EnParams};
use crate::result::Decomposition;
use dapc_conc::dist::bernoulli;
use dapc_graph::{traversal, BallScratch, Graph, Vertex};
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// Parameters of the three-phase decomposition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LddParams {
    /// Target deleted fraction `ε`.
    pub eps: f64,
    /// Size hint `ñ ≥ n`.
    pub n_tilde: f64,
    /// Number of Phase 1 iterations `t`.
    pub t: usize,
    /// Interval length `R`.
    pub r: usize,
    /// Whether to run Phase 2 (the LDD and packing algorithms do; the
    /// covering algorithm instead increases `t`, see §1.4.3).
    pub run_phase2: bool,
    /// Phase 3 Elkin–Neiman rate (the paper uses `ε/10`).
    pub phase3_lambda: f64,
}

impl LddParams {
    /// The paper's exact constants: `t = ⌈log₂(20/ε)⌉`,
    /// `R = ⌈200·t·ln ñ/ε⌉`, Phase 3 at `λ = ε/10`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1` and `n_tilde > 1`.
    pub fn paper(eps: f64, n_tilde: f64) -> Self {
        Self::scaled(eps, n_tilde, 200.0)
    }

    /// Same structure with the leading constant `200` replaced by
    /// `r_scale` — the knob experiments use to reach the interesting
    /// regime at simulable sizes (see `ScaleKnobs::r_scale` in
    /// `dapc-core`). The number of iterations, interval layout and sampling
    /// ratios are untouched.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1`, `n_tilde > 1` and `r_scale > 0`.
    pub fn scaled(eps: f64, n_tilde: f64, r_scale: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        assert!(n_tilde > 1.0, "n_tilde must exceed 1");
        assert!(r_scale > 0.0, "r_scale must be positive");
        let t = (20.0 / eps).log2().ceil() as usize;
        let r = ((r_scale * t as f64 * n_tilde.ln()) / eps).ceil() as usize;
        LddParams {
            eps,
            n_tilde,
            t,
            r: r.max(2),
            run_phase2: true,
            phase3_lambda: eps / 10.0,
        }
    }

    /// The interval `I_i = [a_i, b_i] = [(t−i+2)R+1, (t−i+3)R]` of §3.1.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= i <= t + 1` (index `t + 1` is Phase 2's
    /// `[R+1, 2R]`).
    pub fn interval(&self, i: usize) -> (usize, usize) {
        assert!(i >= 1 && i <= self.t + 1, "iteration index out of range");
        let k = self.t + 2 - i; // t+1 maps to k = 1: [R+1, 2R]
        (k * self.r + 1, (k + 1) * self.r)
    }

    /// The radius `4tR` used for the `n_v` estimate.
    pub fn estimate_radius(&self) -> usize {
        4 * self.t * self.r
    }

    /// Centre-sampling probability for vertex with estimate `n_v` in
    /// iteration `i` (Phase 2 is `i = t + 1`).
    pub fn sampling_probability(&self, i: usize, n_v: usize) -> f64 {
        self.sampling_probability_mass(i, 1, n_v as u64)
    }

    /// Weighted centre-sampling probability (the §4.2 extension):
    /// `p_{v,i} = 2^i·ln ñ·w_v / W(N^{4tR}(v))`; reduces to the unweighted
    /// rule for unit weights.
    pub fn sampling_probability_mass(&self, i: usize, w_v: u64, ball_mass: u64) -> f64 {
        if w_v == 0 || ball_mass == 0 {
            return 0.0;
        }
        let base = 2f64.powi(i as i32) * self.n_tilde.ln() * w_v as f64 / ball_mass as f64;
        if i == self.t + 1 {
            base * (20.0 / self.eps).ln()
        } else {
            base
        }
    }

    /// The weak-diameter guarantee `2(t+2)R` of Lemma 3.2 for carved
    /// clusters (Phase 3 components are smaller).
    pub fn diameter_bound(&self) -> usize {
        2 * (self.t + 2) * self.r
    }
}

/// Per-phase accounting of a three-phase run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreePhaseStats {
    /// Centres sampled per Phase 1 iteration (index 0 = iteration 1).
    pub centers_per_iteration: Vec<usize>,
    /// Centres sampled in Phase 2.
    pub centers_phase2: usize,
    /// Vertices deleted in Phase 1 (all iterations).
    pub deleted_phase1: usize,
    /// Vertices deleted in Phase 2.
    pub deleted_phase2: usize,
    /// Vertices deleted in Phase 3 (Elkin–Neiman).
    pub deleted_phase3: usize,
    /// Vertices removed (clustered) during Phases 1–2.
    pub removed_carving: usize,
    /// Total mass (weight) of deleted vertices across all phases — equals
    /// the deleted vertex count in the unweighted case.
    pub deleted_mass: u64,
}

/// Result of the three-phase decomposition.
#[derive(Clone, Debug)]
pub struct ThreePhaseOutcome {
    /// The decomposition: clusters are connected components of `G[V∖D]`.
    pub decomposition: Decomposition,
    /// Phase-by-phase counters.
    pub stats: ThreePhaseStats,
}

impl dapc_local::RoundCost for ThreePhaseOutcome {
    fn ledger(&self) -> &RoundLedger {
        &self.decomposition.ledger
    }
}

/// Runs the Theorem 1.1 decomposition on the alive subgraph of `g`.
///
/// # Examples
///
/// ```
/// use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
/// use dapc_graph::gen;
///
/// let g = gen::grid(10, 10);
/// let params = LddParams::scaled(0.3, 100.0, 0.05);
/// let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(1), None);
/// out.decomposition.validate(&g, None).unwrap();
/// ```
pub fn three_phase_ldd(
    g: &Graph,
    params: &LddParams,
    rng: &mut StdRng,
    alive: Option<&[bool]>,
) -> ThreePhaseOutcome {
    run_three_phase(g, params, None, rng, alive)
}

/// The **weighted** three-phase decomposition — the extension the paper's
/// §4.2 footnote asks for: every count is replaced by vertex mass, so the
/// guarantee becomes "the deleted *weight* is at most ε·w(V) whp". Centres
/// sample with `p_{v,i} = 2^i·ln ñ·w_v/W(N^{4tR}(v))` and the carve deletes
/// the *lightest* level of the interval. Unit weights reproduce
/// [`three_phase_ldd`] exactly (same RNG draws).
///
/// # Panics
///
/// Panics if `weights.len() != g.n()`.
pub fn three_phase_ldd_weighted(
    g: &Graph,
    params: &LddParams,
    weights: &[u64],
    rng: &mut StdRng,
    alive: Option<&[bool]>,
) -> ThreePhaseOutcome {
    assert_eq!(weights.len(), g.n(), "one weight per vertex");
    run_three_phase(g, params, Some(weights), rng, alive)
}

fn run_three_phase(
    g: &Graph,
    params: &LddParams,
    weights: Option<&[u64]>,
    rng: &mut StdRng,
    alive: Option<&[bool]>,
) -> ThreePhaseOutcome {
    let n = g.n();
    let mass = |v: usize| weights.map_or(1u64, |w| w[v]);
    let mut ledger = RoundLedger::new();
    let mut stats = ThreePhaseStats::default();

    let initial_alive: Vec<bool> = match alive {
        Some(a) => {
            assert_eq!(a.len(), n, "alive mask length mismatch");
            a.to_vec()
        }
        None => vec![true; n],
    };
    // `state[v]`: 0 = active, 1 = removed (carved into a cluster),
    // 2 = deleted, 3 = dead (outside the alive mask).
    let mut state: Vec<u8> = initial_alive
        .iter()
        .map(|&a| if a { 0 } else { 3 })
        .collect();

    // n_v = |N^{4tR}(v)| (Algorithm 2, line 1), certified per component.
    ledger.begin_phase("estimate n_v (radius 4tR)");
    ledger.charge_gather(params.estimate_radius());
    ledger.end_phase();
    let mut scratch = BallScratch::new();
    let n_v = estimate_ball_mass(
        g,
        params.estimate_radius(),
        &initial_alive,
        weights,
        &mut scratch,
    );

    // Phases 1 and 2.
    for i in 1..=params.t + 1 {
        let is_phase2 = i == params.t + 1;
        if is_phase2 && !params.run_phase2 {
            break;
        }
        let (a_i, b_i) = params.interval(i);
        ledger.begin_phase(if is_phase2 {
            "phase2 carve [R+1,2R]".to_string()
        } else {
            format!("phase1/iter{i} carve")
        });
        ledger.charge_gather(b_i);
        let active: Vec<bool> = state.iter().map(|&s| s == 0).collect();
        let mut centers: Vec<Vertex> = Vec::new();
        for v in 0..n as Vertex {
            if active[v as usize]
                && bernoulli(
                    rng,
                    params.sampling_probability_mass(i, mass(v as usize), n_v[v as usize]),
                )
            {
                centers.push(v);
            }
        }
        if is_phase2 {
            stats.centers_phase2 = centers.len();
        } else {
            stats.centers_per_iteration.push(centers.len());
        }
        // All centres carve against the same residual graph; deletions
        // dominate removals (§3.1.2).
        let mut to_delete = vec![false; n];
        let mut to_remove = vec![false; n];
        for &c in &centers {
            let ball = traversal::ball_with_scratch(g, &[c], b_i, Some(&active), &mut scratch);
            let j_star = match weights {
                None => sparsest_level(&ball, a_i, b_i),
                Some(w) => lightest_level(&ball, a_i, b_i, w),
            };
            for &v in ball.level(j_star) {
                to_delete[v as usize] = true;
            }
            for v in ball.within(j_star.saturating_sub(1)) {
                to_remove[v as usize] = true;
            }
        }
        for v in 0..n {
            if state[v] != 0 {
                continue;
            }
            if to_delete[v] {
                state[v] = 2;
                stats.deleted_mass += mass(v);
                if is_phase2 {
                    stats.deleted_phase2 += 1;
                } else {
                    stats.deleted_phase1 += 1;
                }
            } else if to_remove[v] {
                state[v] = 1;
                stats.removed_carving += 1;
            }
        }
        ledger.end_phase();
    }

    // Phase 3: Elkin–Neiman on the residual graph.
    let residual: Vec<bool> = state.iter().map(|&s| s == 0).collect();
    let en = elkin_neiman(
        g,
        &EnParams::new(params.phase3_lambda, params.n_tilde),
        rng,
        Some(&residual),
    );
    for v in 0..n {
        if residual[v] && en.deleted[v] {
            state[v] = 2;
            stats.deleted_mass += mass(v);
            stats.deleted_phase3 += 1;
        }
    }
    ledger.absorb(en.ledger);

    // Final decomposition: clusters = connected components of G[V ∖ D].
    let survivors: Vec<bool> = state.iter().map(|&s| s == 0 || s == 1).collect();
    let (comp, _k) = g.connected_components_masked(&survivors);
    let labels: Vec<Option<Vertex>> = (0..n)
        .map(|v| {
            if survivors[v] {
                // Use the smallest vertex of the component as its label.
                Some(component_representative(&comp, v))
            } else {
                None
            }
        })
        .collect();
    let decomposition = Decomposition::from_labels(n, &labels, Some(&initial_alive), ledger);
    ThreePhaseOutcome {
        decomposition,
        stats,
    }
}

/// Representative label for a component: the component id itself is a
/// stable label, so just use it (offset encoding keeps `Vertex` type).
fn component_representative(comp: &[u32], v: usize) -> Vertex {
    comp[v]
}

/// Index `j* ∈ [a, b]` of the smallest level set (ties: smallest `j`).
/// Levels past the reached radius are empty, so a ball that dies before
/// `a` yields `j* = a` with nothing deleted — the centre swallows its
/// whole residual component.
fn sparsest_level(ball: &traversal::Ball, a: usize, b: usize) -> usize {
    let mut best = a;
    let mut best_size = ball.level(a).len();
    for j in a + 1..=b {
        let s = ball.level(j).len();
        if s < best_size {
            best = j;
            best_size = s;
            if s == 0 {
                break;
            }
        }
    }
    best
}

/// Index `j* ∈ [a, b]` of the lightest level set by vertex mass
/// (ties: smallest `j`).
fn lightest_level(ball: &traversal::Ball, a: usize, b: usize, weights: &[u64]) -> usize {
    let level_mass = |j: usize| -> u64 { ball.level(j).iter().map(|&v| weights[v as usize]).sum() };
    let mut best = a;
    let mut best_mass = level_mass(a);
    for j in a + 1..=b {
        let m = level_mass(j);
        if m < best_mass {
            best = j;
            best_mass = m;
            if m == 0 {
                break;
            }
        }
    }
    best
}

/// Mass of `N^r(v)` for every alive vertex (vertex count when `weights`
/// is `None`).
///
/// Certificate: if a component `C` of the alive subgraph has diameter at
/// most `r`, every `v ∈ C` has `N^r(v) = C`, so each gets `C`'s mass. The
/// diameter is bounded first by `2·ecc(v₀)` for one vertex `v₀` (one BFS),
/// and when that exceeds `r`, computed exactly by
/// [`traversal::max_strong_diameter`] (`C` is a component of `G[alive]`,
/// so its strong diameter is its diameter there). Only a component of
/// diameter above `r` falls back to one truncated BFS per vertex. The
/// radius `4tR` is large, so most components pass, but the cheap bound can
/// fail on long ones: on a 45×45 grid at `r = 144` it reads 176 against a
/// diameter of 88.
fn estimate_ball_mass(
    g: &Graph,
    r: usize,
    alive: &[bool],
    weights: Option<&[u64]>,
    scratch: &mut BallScratch,
) -> Vec<u64> {
    let mass = |v: usize| weights.map_or(1u64, |w| w[v]);
    let n = g.n();
    let (comp, k) = g.connected_components_masked(alive);
    let mut comp_mass = vec![0u64; k];
    let mut comp_vertices: Vec<Vec<Vertex>> = vec![Vec::new(); k];
    for v in 0..n {
        if alive[v] {
            comp_mass[comp[v] as usize] += mass(v);
            comp_vertices[comp[v] as usize].push(v as Vertex);
        }
    }
    // `2·ecc(v₀) ≤ r` iff the component lies within `⌊r/2⌋` of `v₀`.
    let half = r / 2;
    let covered: Vec<bool> = comp_vertices
        .iter()
        .map(|c| {
            let near = traversal::ball_with_scratch(g, &c[..1], half + 1, Some(alive), scratch);
            near.radius() <= half || {
                let diam = traversal::max_strong_diameter(g, [c.as_slice()]);
                diam.expect("a component is connected") as usize <= r
            }
        })
        .collect();
    (0..n)
        .map(|v| {
            if !alive[v] {
                0
            } else if covered[comp[v] as usize] {
                comp_mass[comp[v] as usize]
            } else {
                traversal::ball_with_scratch(g, &[v as Vertex], r, Some(alive), scratch)
                    .iter()
                    .map(|u| mass(u as usize))
                    .sum()
            }
        })
        .collect()
}

/// The optional diameter-improvement step (§3.2, proof of Theorem 1.1):
/// every cluster locally re-decomposes itself with Lemma C.1 at
/// `λ = ε/4` (retrying until at most `ε/2` of the cluster is deleted —
/// local computation is free in the LOCAL model), improving the diameter to
/// `O(log ñ / ε)` at the cost of one extra gather over the old diameter.
pub fn improve_diameter(
    g: &Graph,
    outcome: &ThreePhaseOutcome,
    params: &LddParams,
    rng: &mut StdRng,
) -> Decomposition {
    let n = g.n();
    let lambda = params.eps / 4.0;
    let en_params = EnParams::new(lambda, params.n_tilde);
    let mut labels: Vec<Option<Vertex>> = vec![None; n];
    let mut ledger = outcome.decomposition.ledger.clone();
    let mut mask = vec![false; n];
    for cluster in &outcome.decomposition.clusters {
        for &v in cluster {
            mask[v as usize] = true;
        }
        // Retry until the deleted fraction is within budget (Markov: each
        // attempt succeeds with probability ≥ 1/2; cap attempts for
        // robustness and keep the best).
        let mut best: Option<Decomposition> = None;
        for _ in 0..50 {
            let d = elkin_neiman(g, &en_params, rng, Some(&mask));
            let better = best
                .as_ref()
                .is_none_or(|b| d.deleted_count() < b.deleted_count());
            if better {
                best = Some(d);
            }
            if best.as_ref().unwrap().deleted_count() as f64
                <= params.eps / 2.0 * cluster.len() as f64
            {
                break;
            }
        }
        let d = best.expect("at least one attempt");
        for v in cluster {
            if let Some(cid) = d.cluster_of[*v as usize] {
                // Label sub-clusters by their smallest member, offset to
                // avoid collisions across parent clusters.
                labels[*v as usize] = Some(d.clusters[cid as usize][0]);
            }
            mask[*v as usize] = false;
        }
    }
    let max_old_diameter =
        traversal::max_weak_diameter(g, outcome.decomposition.clusters.iter().map(Vec::as_slice))
            .unwrap_or(0) as usize;
    ledger.begin_phase("diameter improvement (local re-decomposition)");
    ledger.charge_gather(max_old_diameter);
    ledger.end_phase();
    let alive: Vec<bool> = (0..n)
        .map(|v| outcome.decomposition.cluster_of[v].is_some() || outcome.decomposition.deleted[v])
        .collect();
    Decomposition::from_labels(n, &labels, Some(&alive), ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_local::RoundCost;

    fn small_params(eps: f64, n: usize) -> LddParams {
        // Tiny R so tests exercise all phases on small graphs.
        LddParams::scaled(eps, n as f64, 0.01)
    }

    #[test]
    fn intervals_are_disjoint_and_ordered() {
        let p = LddParams::paper(0.2, 1000.0);
        // I_{i+1} ends exactly where I_i begins (a_i = b_{i+1} + 1).
        for i in 1..=p.t {
            let (a_i, b_i) = p.interval(i);
            let (a_next, b_next) = p.interval(i + 1);
            assert_eq!(b_i - a_i + 1, p.r, "interval length");
            assert_eq!(a_i, b_next + 1, "adjacent intervals");
            assert!(a_next < a_i);
            let _ = b_next;
        }
        // Phase 2 interval is [R+1, 2R].
        assert_eq!(p.interval(p.t + 1), (p.r + 1, 2 * p.r));
        // First interval ends at (t+2)R.
        assert_eq!(p.interval(1).1, (p.t + 2) * p.r);
    }

    #[test]
    fn paper_parameters_match_formulas() {
        let p = LddParams::paper(0.2, 1000.0);
        assert_eq!(p.t, 7);
        assert_eq!(p.r, ((200.0 * 7.0 * 1000f64.ln()) / 0.2).ceil() as usize);
        assert!((p.phase3_lambda - 0.02).abs() < 1e-12);
    }

    #[test]
    fn sampling_probability_grows_with_iteration() {
        let p = LddParams::paper(0.2, 1000.0);
        let n_v = 500;
        for i in 1..p.t {
            assert!(p.sampling_probability(i, n_v) < p.sampling_probability(i + 1, n_v));
        }
        // Phase 2 has the extra ln(20/ε) factor.
        assert!(p.sampling_probability(p.t + 1, n_v) > 2.0 * p.sampling_probability(p.t, n_v));
    }

    #[test]
    fn decomposition_is_valid_on_families() {
        let mut rng = gen::seeded_rng(41);
        for g in [
            gen::grid(12, 12),
            gen::cycle(150),
            gen::random_tree(120, &mut rng),
            gen::gnp(120, 0.03, &mut rng),
        ] {
            let params = small_params(0.3, g.n());
            let out = three_phase_ldd(&g, &params, &mut rng, None);
            out.decomposition.validate(&g, None).unwrap();
        }
    }

    #[test]
    fn deletion_budget_holds_on_bounded_degree_graphs() {
        // With real (unscaled-in-structure) parameters the guarantee is
        // whp; with scaled constants we still expect the budget to hold
        // on easy instances across many seeds — but not at the fully
        // degenerate R = 2 (r_scale <= 0.02 here), where the deleted
        // fraction genuinely straddles ε and only the in-expectation
        // bound survives. R = 3 is the smallest non-degenerate interval.
        let g = gen::grid(15, 15);
        let params = LddParams::scaled(0.4, g.n() as f64, 0.03);
        let mut worst = 0.0f64;
        for seed in 0..20 {
            let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(seed), None);
            worst = worst.max(out.decomposition.deleted_fraction());
        }
        assert!(
            worst <= 0.4 + 1e-9,
            "worst deleted fraction {worst} above ε across seeds"
        );
    }

    #[test]
    fn weak_diameter_bound_of_lemma_3_2() {
        let mut rng = gen::seeded_rng(43);
        let g = gen::gnp(200, 0.02, &mut rng);
        let params = small_params(0.3, 200);
        let out = three_phase_ldd(&g, &params, &mut rng, None);
        let bound = params.diameter_bound() as u32;
        assert!(
            out.decomposition.max_weak_diameter(&g) <= bound,
            "diameter exceeds Lemma 3.2 bound"
        );
    }

    #[test]
    fn phase_accounting_sums_to_deleted() {
        let mut rng = gen::seeded_rng(44);
        let g = gen::grid(14, 14);
        let params = small_params(0.3, g.n());
        let out = three_phase_ldd(&g, &params, &mut rng, None);
        assert_eq!(
            out.stats.deleted_phase1 + out.stats.deleted_phase2 + out.stats.deleted_phase3,
            out.decomposition.deleted_count()
        );
        assert_eq!(out.stats.centers_per_iteration.len(), params.t);
    }

    #[test]
    fn rounds_scale_as_t_squared_r() {
        let g = gen::path(20);
        let params = small_params(0.3, 1000);
        let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(4), None);
        let rounds = out.decomposition.rounds();
        // Upper bound: estimate 4tR + Σ_i b_i + 2R + EN rounds.
        let mut expected = 4 * params.t * params.r;
        for i in 1..=params.t {
            expected += params.interval(i).1;
        }
        expected += 2 * params.r;
        expected += (4.0 * params.n_tilde.ln() / params.phase3_lambda).ceil() as usize;
        assert_eq!(rounds, expected);
    }

    #[test]
    fn masked_run_respects_alive() {
        let mut rng = gen::seeded_rng(45);
        let g = gen::grid(10, 10);
        let alive: Vec<bool> = (0..100).map(|v| v % 7 != 0).collect();
        let params = small_params(0.3, 100);
        let out = three_phase_ldd(&g, &params, &mut rng, Some(&alive));
        out.decomposition.validate(&g, Some(&alive)).unwrap();
    }

    #[test]
    fn skip_phase2_variant_still_valid() {
        let mut rng = gen::seeded_rng(46);
        let g = gen::grid(10, 10);
        let mut params = small_params(0.3, 100);
        params.run_phase2 = false;
        let out = three_phase_ldd(&g, &params, &mut rng, None);
        out.decomposition.validate(&g, None).unwrap();
        assert_eq!(out.stats.centers_phase2, 0);
    }

    #[test]
    fn improve_diameter_tightens_and_stays_valid() {
        let mut rng = gen::seeded_rng(47);
        let g = gen::cycle(300);
        let params = small_params(0.25, 300);
        let out = three_phase_ldd(&g, &params, &mut rng, None);
        let improved = improve_diameter(&g, &out, &params, &mut rng);
        improved.validate(&g, None).unwrap();
        // Deleted fraction grows by at most ~ε/2 over the original.
        assert!(
            improved.deleted_fraction()
                <= out.decomposition.deleted_fraction() + params.eps / 2.0 + 0.05
        );
        // Diameter is within the Lemma C.1 bound for λ = ε/4.
        let bound = 8.0 * params.n_tilde.ln() / (params.eps / 4.0);
        assert!(f64::from(improved.max_weak_diameter(&g)) <= bound);
    }

    /// [`estimate_ball_mass`] by definition: one truncated BFS per vertex.
    fn reference_ball_mass(
        g: &Graph,
        r: usize,
        alive: &[bool],
        weights: Option<&[u64]>,
    ) -> Vec<u64> {
        (0..g.n())
            .map(|v| {
                let ball = traversal::ball(g, &[v as Vertex], r, Some(alive));
                ball.iter()
                    .map(|u| weights.map_or(1, |w| w[u as usize]))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn ball_mass_matches_one_truncated_bfs_per_vertex() {
        // The 45×45 grid at its `4tR = 144` for ε = 0.4: the cheap bound
        // `2·ecc(0) = 176` misses, and the diameter 88 certifies the grid.
        let g = gen::grid(45, 45);
        assert_eq!(traversal::eccentricity(&g, 0), 88);
        let all = vec![true; g.n()];
        // Column 30 dead: at r = 64 the 45×30 side (diameter 73) falls back
        // and the 45×14 side (diameter 57) is certified.
        let split: Vec<bool> = (0..g.n()).map(|v| v % 45 != 30).collect();
        let weights: Vec<u64> = (0..g.n() as u64).map(|v| 1 + v % 5).collect();
        let mut scratch = BallScratch::new();
        for (r, alive, w) in [
            (144, &all, None),
            (60, &all, Some(&weights[..])),
            (64, &split, None),
        ] {
            assert_eq!(
                estimate_ball_mass(&g, r, alive, w, &mut scratch),
                reference_ball_mass(&g, r, alive, w),
                "r = {r}"
            );
        }
    }

    #[test]
    fn sparsest_level_picks_zero_when_ball_exhausted() {
        let g = gen::path(5);
        let ball = traversal::ball(&g, &[0], 10, None);
        // Levels 5.. are empty.
        assert_eq!(sparsest_level(&ball, 5, 8), 5);
        assert_eq!(sparsest_level(&ball, 2, 3), 2);
    }

    #[test]
    fn weighted_unit_weights_match_unweighted_exactly() {
        // Same RNG stream → identical decomposition.
        let g = gen::gnp(150, 0.03, &mut gen::seeded_rng(90));
        let params = small_params(0.3, 150);
        let a = three_phase_ldd(&g, &params, &mut gen::seeded_rng(7), None);
        let b = three_phase_ldd_weighted(&g, &params, &vec![1; 150], &mut gen::seeded_rng(7), None);
        assert_eq!(a.decomposition.deleted, b.decomposition.deleted);
        assert_eq!(a.decomposition.clusters, b.decomposition.clusters);
        assert_eq!(
            b.stats.deleted_mass as usize,
            b.decomposition.deleted_count()
        );
    }

    #[test]
    fn weighted_budget_holds_on_weighted_graphs() {
        // Skewed weights: a few heavy vertices; the deleted *mass* must
        // stay within ε·W across seeds.
        let g = gen::grid(14, 14);
        let weights: Vec<u64> = (0..196)
            .map(|v| if v % 29 == 0 { 100 } else { 1 })
            .collect();
        let total: u64 = weights.iter().sum();
        let eps = 0.3;
        let params = small_params(eps, 196);
        for seed in 0..15 {
            let out =
                three_phase_ldd_weighted(&g, &params, &weights, &mut gen::seeded_rng(seed), None);
            out.decomposition.validate(&g, None).unwrap();
            assert!(
                out.stats.deleted_mass as f64 <= eps * total as f64,
                "seed {seed}: deleted mass {} > ε·W = {}",
                out.stats.deleted_mass,
                eps * total as f64
            );
        }
    }

    #[test]
    fn weighted_carve_avoids_heavy_levels() {
        // A path where one interval level is heavy: the lightest-level rule
        // must never delete the heavy vertex when a lighter level is in
        // range.
        let g = gen::path(40);
        let mut weights = vec![1u64; 40];
        weights[20] = 1_000;
        let ball = traversal::ball(&g, &[0], 30, None);
        let j = lightest_level(&ball, 18, 24, &weights);
        assert_ne!(j, 20, "heavy level must not be the lightest");
    }
}
