//! The indistinguishability harness (Theorem B.2 / B.6).
//!
//! On a `d`-regular graph of girth `> 2t + 1`, the `t`-ball of every vertex
//! is the complete `d`-regular tree of depth `t`, so any `t`-round
//! randomised algorithm has the *same* per-vertex inclusion probability
//! `p*` on every such graph. Running one algorithm on the bipartite and the
//! non-bipartite member of the LPS family therefore forces
//! `E[|I|] = p*·n` on both — but the bipartite graph has `α = n/2` while
//! the non-bipartite one has `α ≤ 2√p/(p+1)·n`, so no `t`-round algorithm
//! can be a good approximation on both. This module measures exactly that.

use dapc_core::engine::{self, SolveConfig};
use dapc_graph::{girth, Graph};
use dapc_ilp::problems;
use dapc_local::RoundCost;
use rand::rngs::StdRng;
use rand::RngExt;

/// Estimated per-vertex inclusion statistics of a randomised vertex-subset
/// algorithm.
#[derive(Clone, Debug)]
pub struct InclusionProfile {
    /// Mean of `|I|/n` over the trials.
    pub mean_fraction: f64,
    /// Per-vertex empirical inclusion frequencies.
    pub per_vertex: Vec<f64>,
    /// Number of trials.
    pub trials: usize,
}

/// Estimates the inclusion profile of `algorithm` over `trials` runs.
pub fn inclusion_profile(
    g: &Graph,
    trials: usize,
    rng: &mut StdRng,
    mut algorithm: impl FnMut(&Graph, &mut StdRng) -> Vec<bool>,
) -> InclusionProfile {
    let n = g.n();
    let mut counts = vec![0usize; n];
    for _ in 0..trials {
        let out = algorithm(g, rng);
        assert_eq!(out.len(), n, "algorithm output length mismatch");
        for (v, &b) in out.iter().enumerate() {
            if b {
                counts[v] += 1;
            }
        }
    }
    let per_vertex: Vec<f64> = counts.iter().map(|&c| c as f64 / trials as f64).collect();
    let mean_fraction = per_vertex.iter().sum::<f64>() / n as f64;
    InclusionProfile {
        mean_fraction,
        per_vertex,
        trials,
    }
}

/// Outcome of the two-graph indistinguishability experiment.
#[derive(Clone, Debug)]
pub struct IndistinguishabilityReport {
    /// Mean `|I|/n` on the first graph.
    pub mean_a: f64,
    /// Mean `|I|/n` on the second graph.
    pub mean_b: f64,
    /// `|mean_a − mean_b|` — should be sampling noise below the locality
    /// threshold.
    pub gap: f64,
    /// Round cap used.
    pub rounds: usize,
    /// Whether both graphs are locally tree-like at radius `rounds`
    /// (girth `> 2·rounds + 1`), i.e. the theorem's hypothesis holds.
    pub locally_identical: bool,
}

/// Runs the same round-capped algorithm on two graphs and reports the gap
/// in expected output fractions (Theorem B.2's quantity).
pub fn indistinguishability(
    a: &Graph,
    b: &Graph,
    rounds: usize,
    trials: usize,
    rng: &mut StdRng,
    mut algorithm: impl FnMut(&Graph, usize, &mut StdRng) -> Vec<bool>,
) -> IndistinguishabilityReport {
    let pa = inclusion_profile(a, trials, rng, |g, r| algorithm(g, rounds, r));
    let pb = inclusion_profile(b, trials, rng, |g, r| algorithm(g, rounds, r));
    let locally_identical =
        girth::locally_tree_like(a, rounds as u32) && girth::locally_tree_like(b, rounds as u32);
    IndistinguishabilityReport {
        mean_a: pa.mean_fraction,
        mean_b: pb.mean_fraction,
        gap: (pa.mean_fraction - pb.mean_fraction).abs(),
        rounds,
        locally_identical,
    }
}

/// Outcome of running an *engine-registry* backend through the two-graph
/// experiment: the same quantities as [`IndistinguishabilityReport`], plus
/// the rounds the backend actually spent.
///
/// The upper-bound algorithms are not round-capped, so the interesting
/// reading is inverted: a backend that *does* separate the two graphs
/// (achieves `gap` ≳ the α-density difference) must have spent rounds
/// beyond the locality threshold — `locally_identical` is then `false`,
/// which is exactly Theorem 1.4's claim that `Ω(log n/ε)` rounds are
/// necessary, witnessed from the algorithm side.
#[derive(Clone, Debug)]
pub struct RegistryGapReport {
    /// Mean `|I|/n` on the first graph.
    pub mean_a: f64,
    /// Mean `|I|/n` on the second graph.
    pub mean_b: f64,
    /// `|mean_a − mean_b|`.
    pub gap: f64,
    /// Largest LOCAL round count any trial charged.
    pub max_rounds: usize,
    /// Whether both graphs are still tree-like at radius `max_rounds` —
    /// for a sound solver on distinguishable graphs this must be `false`.
    pub locally_identical: bool,
}

/// Estimates the inclusion profile of an engine-registry backend solving
/// maximum independent set on `g`, alongside the largest round count it
/// charged. Each trial derives a fresh backend seed from `rng`, so trials
/// are independent; the ILP is built once.
///
/// This is the registry-level counterpart of [`inclusion_profile`]: the
/// harness quantifies over the same `dapc_core::engine` backends the
/// experiment tables and the batch runtime use, instead of private
/// params-level entry points.
///
/// # Panics
///
/// Panics if `backend` is not a registered engine backend.
pub fn registry_inclusion_profile(
    g: &Graph,
    backend: &str,
    cfg: &SolveConfig,
    trials: usize,
    rng: &mut StdRng,
) -> (InclusionProfile, usize) {
    let ilp = problems::max_independent_set_unweighted(g);
    let mut max_rounds = 0usize;
    let profile = inclusion_profile(g, trials, rng, |_, r| {
        let seeded = cfg.clone().seed(r.random());
        let report = engine::solve(backend, &ilp, &seeded)
            .unwrap_or_else(|| panic!("unknown engine backend {backend:?}"));
        max_rounds = max_rounds.max(report.rounds());
        report.assignment
    });
    (profile, max_rounds)
}

/// Runs one engine-registry backend on two graphs and reports the output
/// -density gap next to the rounds it spent (Theorem 1.4 from the
/// algorithm side: beating the B.2 indistinguishability obstruction
/// requires rounds past the locality threshold).
///
/// # Panics
///
/// Panics if `backend` is not a registered engine backend.
pub fn registry_indistinguishability(
    a: &Graph,
    b: &Graph,
    backend: &str,
    cfg: &SolveConfig,
    trials: usize,
    rng: &mut StdRng,
) -> RegistryGapReport {
    let (pa, rounds_a) = registry_inclusion_profile(a, backend, cfg, trials, rng);
    let (pb, rounds_b) = registry_inclusion_profile(b, backend, cfg, trials, rng);
    let max_rounds = rounds_a.max(rounds_b);
    let locally_identical = girth::locally_tree_like(a, max_rounds as u32)
        && girth::locally_tree_like(b, max_rounds as u32);
    RegistryGapReport {
        mean_a: pa.mean_fraction,
        mean_b: pb.mean_fraction,
        gap: (pa.mean_fraction - pb.mean_fraction).abs(),
        max_rounds,
        locally_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capped::greedy_mis_rounds;
    use dapc_graph::gen;

    #[test]
    fn profile_counts_correctly() {
        let g = gen::path(4);
        // Deterministic "algorithm": always pick even vertices.
        let p = inclusion_profile(&g, 10, &mut gen::seeded_rng(1), |g, _| {
            (0..g.n()).map(|v| v % 2 == 0).collect()
        });
        assert_eq!(p.per_vertex, vec![1.0, 0.0, 1.0, 0.0]);
        assert!((p.mean_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn regular_tree_like_graphs_have_flat_profiles() {
        // On a long cycle every t-ball is a path: per-vertex inclusion
        // probabilities are identical, deviations are sampling noise.
        let g = gen::cycle(60);
        let p = inclusion_profile(&g, 400, &mut gen::seeded_rng(2), |g, r| {
            greedy_mis_rounds(g, 2, r)
        });
        let deviation = p
            .per_vertex
            .iter()
            .map(|&x| (x - p.mean_fraction).abs())
            .fold(0.0, f64::max);
        assert!(
            deviation < 0.12,
            "deviation {deviation} too large for a vertex-transitive graph"
        );
    }

    #[test]
    fn identical_graphs_have_zero_expected_gap() {
        let g = gen::cycle(40);
        let rep = indistinguishability(&g, &g, 2, 300, &mut gen::seeded_rng(3), greedy_mis_rounds);
        assert!(rep.gap < 0.05, "gap {} should be sampling noise", rep.gap);
        assert!(rep.locally_identical);
    }

    #[test]
    fn locality_flag_tracks_girth() {
        let a = gen::cycle(9); // girth 9: tree-like up to r = 3
        let b = gen::cycle(12);
        let rep = indistinguishability(&a, &b, 3, 5, &mut gen::seeded_rng(4), |g, t, r| {
            greedy_mis_rounds(g, t, r)
        });
        assert!(rep.locally_identical);
        let rep2 = indistinguishability(&a, &b, 4, 5, &mut gen::seeded_rng(5), |g, t, r| {
            greedy_mis_rounds(g, t, r)
        });
        assert!(!rep2.locally_identical);
    }

    #[test]
    fn registry_backends_run_through_the_harness() {
        // The engine's MIS output is always a valid independent set, and
        // the registry profile must reflect that (fractions in [0, 1/2]
        // on a cycle) while reporting positive round counts.
        let g = gen::cycle(18);
        let cfg = SolveConfig::new().eps(0.3);
        let (profile, rounds) =
            registry_inclusion_profile(&g, "three-phase", &cfg, 4, &mut gen::seeded_rng(11));
        assert_eq!(profile.trials, 4);
        assert!(profile.mean_fraction > 0.0 && profile.mean_fraction <= 0.5);
        assert!(rounds > 0);
    }

    #[test]
    fn registry_solver_separates_odd_from_even_cycles() {
        // The inverse of the capped-algorithm experiments: a *sound*
        // (1 − ε)-approximation distinguishes C17 (α/n = 8/17) from C18
        // (α/n = 1/2) — and must therefore have spent rounds beyond the
        // locality threshold of the pair.
        let a = gen::cycle(17);
        let b = gen::cycle(18);
        let cfg = SolveConfig::new().eps(0.2);
        let rep = registry_indistinguishability(&a, &b, "bnb", &cfg, 2, &mut gen::seeded_rng(12));
        assert!(rep.mean_a < rep.mean_b, "α densities must separate");
        assert!(
            !rep.locally_identical,
            "a separating solver cannot sit below the locality threshold"
        );
    }

    #[test]
    fn odd_vs_even_cycles_agree_below_locality_threshold() {
        // C17 vs C18: α = 8/17 ≈ 0.47 vs 9/18 = 0.5, but a 2-round
        // algorithm sees identical 2-balls (paths) everywhere.
        let a = gen::cycle(17);
        let b = gen::cycle(18);
        let rep = indistinguishability(&a, &b, 2, 2000, &mut gen::seeded_rng(6), greedy_mis_rounds);
        assert!(rep.locally_identical);
        assert!(
            rep.gap < 0.03,
            "2-round algorithm distinguishes C17 from C18: gap {}",
            rep.gap
        );
    }
}
