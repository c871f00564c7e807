//! Round-capped maximum cut — the fourth problem of Theorem 1.4.
//!
//! Appendix B proves the `Ω(log n/ε)` bound for `(1 − ε)`-approximate
//! max-cut via the same indistinguishability engine (Theorem B.6: a
//! `t`-round algorithm has the same per-edge cut probability on every
//! locally-isomorphic graph, but bipartite LPS graphs have a full cut while
//! non-bipartite ones cap below `0.999·|E|`, Lemma B.1). The natural
//! round-capped algorithm here is local majority dynamics: start from a
//! random ±1 assignment and, for `t` synchronous rounds, flip every vertex
//! that would increase its local cut contribution (with a random tie-break
//! and odd/even scheduling to avoid oscillation).

use dapc_graph::{Graph, Vertex};
use rand::rngs::StdRng;
use rand::RngExt;

/// Runs `t` rounds of local cut-improving dynamics and returns the side of
/// each vertex.
///
/// Scheduling: every unhappy vertex (one whose flip would strictly improve
/// its local cut) draws a fresh random priority; only local maxima among
/// unhappy neighbours flip. The flipping set is therefore independent, so
/// every round with at least one flip strictly increases the global cut —
/// the dynamics converge to a local optimum instead of oscillating. This
/// is a genuine `O(1)`-round-per-step LOCAL protocol.
///
/// ```
/// use dapc_graph::gen;
/// use dapc_lower::maxcut::{cut_size, local_maxcut_rounds};
///
/// let g = gen::complete_bipartite(6, 6);
/// let side = local_maxcut_rounds(&g, 60, &mut gen::seeded_rng(3));
/// // Local dynamics reach a locally-optimal cut: ≥ m/2 on any graph.
/// assert!(cut_size(&g, &side) >= g.m() / 2);
/// ```
// dapc-allow(dead-pub): ROADMAP item 17, step 1: E7a's max-cut rows run it
pub fn local_maxcut_rounds(g: &Graph, t: usize, rng: &mut StdRng) -> Vec<bool> {
    let n = g.n();
    let mut side: Vec<bool> = (0..n).map(|_| rng.random::<bool>()).collect();
    for _ in 0..t {
        let unhappy: Vec<bool> = (0..n)
            .map(|v| {
                let cut_now = g
                    .neighbors(v as Vertex)
                    .iter()
                    .filter(|&&u| side[u as usize] != side[v])
                    .count();
                2 * cut_now < g.degree(v as Vertex)
            })
            .collect();
        if !unhappy.iter().any(|&u| u) {
            break; // local optimum
        }
        let priority: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let mut flips: Vec<Vertex> = Vec::new();
        for v in 0..n {
            if !unhappy[v] {
                continue;
            }
            let is_local_max = g
                .neighbors(v as Vertex)
                .iter()
                .all(|&u| !unhappy[u as usize] || priority[v] > priority[u as usize]);
            if is_local_max {
                flips.push(v as Vertex);
            }
        }
        for v in flips {
            side[v as usize] = !side[v as usize];
        }
    }
    side
}

/// Number of edges crossing the bipartition.
// dapc-allow(dead-pub): ROADMAP item 17, step 1: E7a's max-cut rows score with it
pub fn cut_size(g: &Graph, side: &[bool]) -> usize {
    g.edges()
        .filter(|&(u, v)| side[u as usize] != side[v as usize])
        .count()
}

/// Lemma B.1's conversion, constructive direction: a cut missing `x` edges
/// yields an independent set of size `≥ (n − x)/2` (delete one endpoint of
/// every uncut edge, take the larger side of the remainder).
// dapc-allow(dead-pub): ROADMAP item 17 wires Lemma B.1 into E7, or step 3 deletes it
pub fn independent_set_from_cut(g: &Graph, side: &[bool]) -> Vec<bool> {
    let n = g.n();
    let mut removed = vec![false; n];
    for (u, v) in g.edges() {
        if side[u as usize] == side[v as usize] && !removed[u as usize] && !removed[v as usize] {
            removed[u as usize] = true;
        }
    }
    // The two sides are now independent sets; pick the larger.
    let count = |want: bool| (0..n).filter(|&v| !removed[v] && side[v] == want).count();
    let pick = count(true) >= count(false);
    (0..n).map(|v| !removed[v] && side[v] == pick).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    #[test]
    fn converged_cuts_are_locally_optimal() {
        let g = gen::gnp(80, 0.06, &mut gen::seeded_rng(1));
        let side = local_maxcut_rounds(&g, 200, &mut gen::seeded_rng(2));
        for v in g.vertices() {
            let cut = g
                .neighbors(v)
                .iter()
                .filter(|&&u| side[u as usize] != side[v as usize])
                .count();
            assert!(
                2 * cut >= g.degree(v),
                "vertex {v} could improve the cut by flipping"
            );
        }
        // Local optimality implies at least half the edges are cut.
        assert!(cut_size(&g, &side) * 2 >= g.m());
    }

    #[test]
    fn bipartite_graphs_reach_full_cut_with_enough_rounds() {
        // On trees/forests local dynamics find the (full) bipartition cut.
        let g = gen::random_tree(60, &mut gen::seeded_rng(3));
        let side = local_maxcut_rounds(&g, 300, &mut gen::seeded_rng(4));
        // Trees: every edge cuttable; local optimum on a tree cuts every
        // edge incident to a leaf, and in practice converges to full cut.
        assert!(cut_size(&g, &side) * 2 >= g.m());
    }

    #[test]
    fn cut_grows_with_rounds() {
        let g = gen::gnp(200, 0.04, &mut gen::seeded_rng(5));
        let mut rng = gen::seeded_rng(6);
        let avg = |t: usize, rng: &mut _| -> f64 {
            (0..10)
                .map(|_| cut_size(&g, &local_maxcut_rounds(&g, t, rng)) as f64)
                .sum::<f64>()
                / 10.0
        };
        let zero = avg(0, &mut rng);
        let many = avg(20, &mut rng);
        assert!(
            many > zero,
            "20 rounds ({many}) must beat the random cut ({zero})"
        );
        // Random assignment cuts ≈ m/2.
        assert!((zero - g.m() as f64 / 2.0).abs() < g.m() as f64 * 0.15);
    }

    #[test]
    fn is_extraction_is_independent_and_counts() {
        let g = gen::gnp(50, 0.1, &mut gen::seeded_rng(7));
        let side = local_maxcut_rounds(&g, 50, &mut gen::seeded_rng(8));
        let is = independent_set_from_cut(&g, &side);
        for (u, v) in g.edges() {
            assert!(!(is[u as usize] && is[v as usize]), "({u},{v}) both in IS");
        }
        // Lemma B.1 counting: |I| >= (n − x)/2 with x = uncut edges.
        let x = g.m() - cut_size(&g, &side);
        let size = is.iter().filter(|&&b| b).count();
        assert!(
            size >= (g.n().saturating_sub(x)) / 2,
            "size {size} below the Lemma B.1 bound"
        );
    }

    #[test]
    fn indistinguishability_applies_to_cuts_too() {
        // Theorem B.6's mechanism on odd vs even cycles: a 2-round cut
        // algorithm achieves the same expected cut *fraction* on C17 and
        // C18, although C18 is bipartite (full cut possible) and C17 is
        // not.
        let a = gen::cycle(17);
        let b = gen::cycle(18);
        let mut rng = gen::seeded_rng(9);
        let mean_fraction = |g: &dapc_graph::Graph, rng: &mut _| -> f64 {
            (0..800)
                .map(|_| cut_size(g, &local_maxcut_rounds(g, 2, rng)) as f64 / g.m() as f64)
                .sum::<f64>()
                / 800.0
        };
        let fa = mean_fraction(&a, &mut rng);
        let fb = mean_fraction(&b, &mut rng);
        assert!(
            (fa - fb).abs() < 0.03,
            "2-round cut fractions diverge: {fa} vs {fb}"
        );
    }
}
