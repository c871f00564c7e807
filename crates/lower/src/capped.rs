//! Round-capped LOCAL algorithms — the objects the Appendix B lower bounds
//! quantify over.
//!
//! A `t`-round randomised LOCAL algorithm's output at `v` is a function of
//! the `t`-ball of `v` and the random bits inside it. The canonical example
//! used by the experiments is Luby-style random-priority greedy MIS: in
//! each round every undecided vertex draws a fresh priority and joins the
//! independent set iff it beats all undecided neighbours. Stopping after
//! `t` rounds yields a *valid* independent set whose size improves with
//! `t` — exactly the approximation/rounds trade-off Theorem 1.4 bounds.

use dapc_graph::{Graph, Vertex};
use rand::rngs::StdRng;
use rand::RngExt;

/// Runs `t` rounds of random-priority greedy MIS and returns the
/// membership mask (undecided vertices are left out, so the result is
/// always an independent set).
///
/// ```
/// use dapc_graph::gen;
/// use dapc_lower::capped::greedy_mis_rounds;
///
/// let g = gen::cycle(12);
/// let is = greedy_mis_rounds(&g, 3, &mut gen::seeded_rng(1));
/// for (u, v) in g.edges() {
///     assert!(!(is[u as usize] && is[v as usize]));
/// }
/// ```
pub fn greedy_mis_rounds(g: &Graph, t: usize, rng: &mut StdRng) -> Vec<bool> {
    let n = g.n();
    let mut in_set = vec![false; n];
    let mut decided = vec![false; n];
    for _ in 0..t {
        if decided.iter().all(|&d| d) {
            break;
        }
        let priority: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let mut joins: Vec<Vertex> = Vec::new();
        for v in 0..n {
            if decided[v] {
                continue;
            }
            let wins = g
                .neighbors(v as Vertex)
                .iter()
                .all(|&u| decided[u as usize] || priority[v] > priority[u as usize]);
            if wins {
                joins.push(v as Vertex);
            }
        }
        for v in joins {
            in_set[v as usize] = true;
            decided[v as usize] = true;
            for &u in g.neighbors(v) {
                decided[u as usize] = true;
            }
        }
    }
    in_set
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    #[test]
    fn mis_is_always_independent() {
        let mut rng = gen::seeded_rng(1);
        for t in [0usize, 1, 2, 5, 50] {
            let g = gen::gnp(60, 0.08, &mut rng);
            let is = greedy_mis_rounds(&g, t, &mut rng);
            for (u, v) in g.edges() {
                assert!(!(is[u as usize] && is[v as usize]), "t = {t}");
            }
        }
    }

    #[test]
    fn mis_grows_with_rounds() {
        let g = gen::gnp(300, 0.02, &mut gen::seeded_rng(2));
        let mut rng = gen::seeded_rng(3);
        let avg = |t: usize, rng: &mut _| -> f64 {
            let mut total = 0usize;
            for _ in 0..20 {
                total += greedy_mis_rounds(&g, t, rng).iter().filter(|&&b| b).count();
            }
            total as f64 / 20.0
        };
        let one = avg(1, &mut rng);
        let many = avg(12, &mut rng);
        assert!(many > one, "12 rounds ({many}) should beat 1 round ({one})");
    }

    #[test]
    fn enough_rounds_give_maximal_set() {
        let g = gen::cycle(30);
        let mut rng = gen::seeded_rng(4);
        let is = greedy_mis_rounds(&g, 100, &mut rng);
        // Maximal: every vertex is in the set or has a neighbour in it.
        for v in g.vertices() {
            assert!(
                is[v as usize] || g.neighbors(v).iter().any(|&u| is[u as usize]),
                "not maximal at {v}"
            );
        }
    }

    #[test]
    fn zero_rounds_output_empty() {
        let g = gen::cycle(10);
        let is = greedy_mis_rounds(&g, 0, &mut gen::seeded_rng(8));
        assert!(is.iter().all(|&b| !b));
    }
}
