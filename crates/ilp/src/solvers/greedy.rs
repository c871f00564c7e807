//! Greedy heuristics: warm starts for the exact solvers and documented
//! fallback oracles for stress-scale experiments. The paper assumes free
//! exact local computation; at experiment scale our clusters are solved
//! exactly, and the greedy path only exists for oversized ad-hoc runs,
//! always reported as non-exact.

use crate::instance::{Sense, FEASIBILITY_EPS};
use crate::restrict::SubInstance;

/// Greedy packing: consider variables by descending weight (ties: smaller
/// constraint degree first), insert when all constraints still fit.
/// The result is always feasible.
///
/// # Panics
///
/// Panics if the sub-instance is not packing.
pub fn greedy_packing(sub: &SubInstance) -> Vec<bool> {
    assert_eq!(sub.sense, Sense::Packing);
    let n = sub.n();
    let mut degree = vec![0usize; n];
    for c in &sub.constraints {
        for &(v, _) in c.coeffs() {
            degree[v as usize] += 1;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(sub.weights[v]), degree[v]));
    let mut lhs = vec![0.0f64; sub.m()];
    // Per-variable constraint membership for O(deg) updates.
    let mut membership: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (j, c) in sub.constraints.iter().enumerate() {
        for &(v, a) in c.coeffs() {
            membership[v as usize].push((j, a));
        }
    }
    let mut x = vec![false; n];
    for v in order {
        if sub.weights[v] == 0 {
            continue;
        }
        let fits = membership[v]
            .iter()
            .all(|&(j, a)| lhs[j] + a <= sub.constraints[j].bound() + FEASIBILITY_EPS);
        if fits {
            x[v] = true;
            for &(j, a) in &membership[v] {
                lhs[j] += a;
            }
        }
    }
    x
}

/// Greedy covering: repeatedly pick the variable with the best
/// (covered residual demand) / weight ratio until every constraint is met.
/// The result is always feasible when the sub-instance is (restrictions of
/// validated instances always are).
///
/// # Panics
///
/// Panics if the sub-instance is not covering, or if it is infeasible even
/// under the all-ones assignment.
pub fn greedy_covering(sub: &SubInstance) -> Vec<bool> {
    assert_eq!(sub.sense, Sense::Covering);
    let n = sub.n();
    let mut residual: Vec<f64> = sub.constraints.iter().map(|c| c.bound()).collect();
    let mut membership: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (j, c) in sub.constraints.iter().enumerate() {
        for &(v, a) in c.coeffs() {
            membership[v as usize].push((j, a));
        }
    }
    let mut x = vec![false; n];
    let mut unmet: usize = residual.iter().filter(|&&r| r > FEASIBILITY_EPS).count();
    while unmet > 0 {
        // Best marginal coverage per unit weight.
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if x[v] {
                continue;
            }
            let gain: f64 = membership[v]
                .iter()
                .map(|&(j, a)| a.min(residual[j].max(0.0)))
                .sum();
            if gain <= FEASIBILITY_EPS {
                continue;
            }
            let score = gain / (sub.weights[v].max(1)) as f64;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((v, score));
            }
        }
        let (v, _) = best.expect("covering sub-instance must be satisfiable by all-ones");
        x[v] = true;
        for &(j, a) in &membership[v] {
            let before = residual[j];
            residual[j] -= a;
            if before > FEASIBILITY_EPS && residual[j] <= FEASIBILITY_EPS {
                unmet -= 1;
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;
    use crate::restrict::{covering_restriction, packing_restriction};
    use dapc_graph::gen;

    #[test]
    fn greedy_packing_is_feasible_and_maximal() {
        let mut rng = gen::seeded_rng(3);
        let g = gen::gnp(40, 0.15, &mut rng);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &[true; 40]);
        let x = greedy_packing(&sub);
        assert!(sub.is_feasible(&x));
        // Maximality for MIS: every unset vertex has a set neighbour.
        for v in g.vertices() {
            if !x[v as usize] {
                assert!(
                    g.neighbors(v).iter().any(|&u| x[u as usize]) || g.degree(v) == 0,
                    "vertex {v} could have been added"
                );
            }
        }
    }

    #[test]
    fn greedy_packing_prefers_heavy_vertices() {
        let g = gen::star(5);
        let ilp = problems::max_independent_set(&g, vec![100, 1, 1, 1, 1]);
        let sub = packing_restriction(&ilp, &[true; 5]);
        let x = greedy_packing(&sub);
        assert!(x[0], "hub outweighs the leaves");
        assert_eq!(sub.value(&x), 100);
    }

    #[test]
    fn greedy_covering_is_feasible() {
        let mut rng = gen::seeded_rng(4);
        let g = gen::gnp(40, 0.1, &mut rng);
        let ilp = problems::min_dominating_set_unweighted(&g);
        let sub = covering_restriction(&ilp, &[true; 40]);
        let x = greedy_covering(&sub);
        assert!(sub.is_feasible(&x));
    }

    #[test]
    fn greedy_covering_picks_hub_of_star() {
        let g = gen::star(8);
        let ilp = problems::min_dominating_set_unweighted(&g);
        let sub = covering_restriction(&ilp, &[true; 8]);
        let x = greedy_covering(&sub);
        assert_eq!(x.iter().filter(|&&b| b).count(), 1);
        assert!(x[0]);
    }

    #[test]
    fn greedy_covering_respects_weights() {
        // Two vertices can each cover everything; the cheap one should win.
        let sets = vec![vec![0, 1, 2], vec![0, 1, 2]];
        let ilp = problems::set_cover(3, &sets, vec![10, 1]);
        let sub = covering_restriction(&ilp, &[true; 2]);
        let x = greedy_covering(&sub);
        assert_eq!(x, vec![false, true]);
    }

    #[test]
    fn empty_subinstance() {
        let g = gen::cycle(4);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &[false; 4]);
        assert!(greedy_packing(&sub).is_empty());
    }
}
