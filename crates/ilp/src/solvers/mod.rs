//! Exact local solvers with structure detection.
//!
//! The paper's clusters solve their local sub-instances *optimally* (free
//! local computation in the LOCAL model). [`solve`] reproduces that:
//! it inspects the sub-instance, routes the structured cases to fast exact
//! algorithms — conflict-graph MIS, blossom matching, vertex cover via MIS
//! complement — and everything else to the general branch & bound. All
//! paths report whether optimality was proven, so experiments can assert
//! that every local solve at experiment scale was exact.

pub mod blossom;
pub mod bnb;
pub mod greedy;
pub mod mis;

use crate::instance::{Sense, FEASIBILITY_EPS};
use crate::restrict::SubInstance;
use dapc_graph::GraphBuilder;

/// Resource limits for a local solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverBudget {
    /// Maximum branch & bound nodes before falling back to the incumbent.
    pub node_limit: u64,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget {
            node_limit: 5_000_000,
        }
    }
}

impl SolverBudget {
    /// A budget with no node limit: every search runs to optimality.
    pub fn unlimited() -> Self {
        SolverBudget {
            node_limit: u64::MAX,
        }
    }
}

/// Which algorithm actually solved a sub-instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// No constraints: take everything (packing) or nothing (covering).
    Trivial,
    /// Pairwise packing constraints → conflict-graph max-weight IS.
    ConflictMis,
    /// Degree-≤2 unit packing constraints → blossom matching.
    Matching,
    /// Pairwise unit covering constraints → vertex cover via MIS complement.
    VertexCover,
    /// General branch & bound.
    BranchBound,
}

/// An exact (or budget-limited) solution of a local sub-instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Local 0/1 assignment (index-aligned with `sub.vars`).
    pub assignment: Vec<bool>,
    /// Objective value.
    pub value: u64,
    /// Whether optimality was proven.
    pub exact: bool,
    /// Which path solved it.
    pub method: Method,
}

/// Solves a local sub-instance exactly (modulo `budget`).
///
/// # Examples
///
/// ```
/// use dapc_graph::gen;
/// use dapc_ilp::{problems, restrict, solvers};
///
/// let g = gen::cycle(7);
/// let ilp = problems::max_independent_set_unweighted(&g);
/// let sub = restrict::packing_restriction(&ilp, &vec![true; 7]);
/// let sol = solvers::solve(&sub, &solvers::SolverBudget::default());
/// assert_eq!(sol.value, 3);
/// assert!(sol.exact);
/// assert_eq!(sol.method, solvers::Method::ConflictMis);
/// ```
pub fn solve(sub: &SubInstance, budget: &SolverBudget) -> Solution {
    if sub.m() == 0 {
        return trivial(sub);
    }
    match sub.sense {
        Sense::Packing => {
            if let Some(sol) = try_conflict_mis(sub, budget) {
                return sol;
            }
            if let Some(sol) = try_matching(sub) {
                return sol;
            }
            let r = bnb::solve_packing(sub, budget);
            Solution {
                assignment: r.assignment,
                value: r.value,
                exact: r.exact,
                method: Method::BranchBound,
            }
        }
        Sense::Covering => {
            if let Some(sol) = try_vertex_cover(sub, budget) {
                return sol;
            }
            let r = bnb::solve_covering(sub, budget);
            Solution {
                assignment: r.assignment,
                value: r.value,
                exact: r.exact,
                method: Method::BranchBound,
            }
        }
    }
}

fn trivial(sub: &SubInstance) -> Solution {
    let assignment: Vec<bool> = match sub.sense {
        Sense::Packing => sub.weights.iter().map(|&w| w > 0).collect(),
        Sense::Covering => vec![false; sub.n()],
    };
    let value = sub.value(&assignment);
    Solution {
        assignment,
        value,
        exact: true,
        method: Method::Trivial,
    }
}

/// Pairwise packing constraints → MWIS on the conflict graph.
fn try_conflict_mis(sub: &SubInstance, budget: &SolverBudget) -> Option<Solution> {
    let n = sub.n();
    let mut forced_zero = vec![false; n];
    let mut conflicts: Vec<(u32, u32)> = Vec::new();
    for (coeffs, bound) in sub.rows() {
        match coeffs.len() {
            0 => {}
            1 => {
                let (v, a) = coeffs[0];
                if a > bound + FEASIBILITY_EPS {
                    forced_zero[v as usize] = true;
                }
            }
            2 => {
                let (u, au) = coeffs[0];
                let (v, av) = coeffs[1];
                if au > bound + FEASIBILITY_EPS {
                    forced_zero[u as usize] = true;
                }
                if av > bound + FEASIBILITY_EPS {
                    forced_zero[v as usize] = true;
                }
                if au + av > bound + FEASIBILITY_EPS {
                    conflicts.push((u, v));
                }
            }
            _ => return None,
        }
    }
    let mut b = GraphBuilder::new(n);
    for (u, v) in conflicts {
        if !forced_zero[u as usize] && !forced_zero[v as usize] {
            b.add_edge(u, v);
        }
    }
    let conflict_graph = b.build();
    let weights: Vec<u64> = (0..n)
        .map(|v| if forced_zero[v] { 0 } else { sub.weights[v] })
        .collect();
    let r = mis::max_weight_independent_set(&conflict_graph, &weights, budget);
    // Forced-zero vertices may appear in the IS with weight 0; strip them.
    let assignment: Vec<bool> = (0..n).map(|v| r.in_set[v] && !forced_zero[v]).collect();
    // Keep zero-weight unconstrained-but-unforced vertices out; they do not
    // change the value and MIS may or may not include them — that is fine.
    let value = sub.value(&assignment);
    Some(Solution {
        assignment,
        value,
        exact: r.exact,
        method: Method::ConflictMis,
    })
}

/// Unit, bound-1 packing constraints with every variable in ≤ 2 of them →
/// maximum matching (blossom), when all weights are equal.
fn try_matching(sub: &SubInstance) -> Option<Solution> {
    let n = sub.n();
    let w0 = sub.weights.first().copied().unwrap_or(1);
    if w0 == 0 || sub.weights.iter().any(|&w| w != w0) {
        return None;
    }
    for (coeffs, bound) in sub.rows() {
        if (bound - 1.0).abs() > FEASIBILITY_EPS {
            return None;
        }
        if coeffs
            .iter()
            .any(|&(_, a)| (a - 1.0).abs() > FEASIBILITY_EPS)
        {
            return None;
        }
    }
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (j, (coeffs, _)) in sub.rows().enumerate() {
        for &(v, _) in coeffs {
            membership[v as usize].push(j as u32);
            if membership[v as usize].len() > 2 {
                return None;
            }
        }
    }
    // Build the matching graph: one vertex per constraint plus a private
    // dummy endpoint for every variable with a single membership.
    let m = sub.m();
    let mut next_dummy = m as u32;
    let mut var_edge: Vec<Option<(u32, u32)>> = vec![None; n];
    let mut free_vars: Vec<usize> = Vec::new();
    for v in 0..n {
        match membership[v].as_slice() {
            [] => free_vars.push(v),
            [j] => {
                var_edge[v] = Some((*j, next_dummy));
                next_dummy += 1;
            }
            [j1, j2] => var_edge[v] = Some((*j1, *j2)),
            _ => unreachable!(),
        }
    }
    let mut b = GraphBuilder::new(next_dummy as usize);
    let mut edge_to_var: std::collections::BTreeMap<(u32, u32), usize> =
        std::collections::BTreeMap::new();
    for (v, e) in var_edge.iter().enumerate() {
        if let Some((a, bb)) = *e {
            let key = if a < bb { (a, bb) } else { (bb, a) };
            // Parallel variables on the same constraint pair: only one can
            // ever be 1; keep the first.
            edge_to_var.entry(key).or_insert(v);
            b.add_edge(key.0, key.1);
        }
    }
    let g = b.build();
    let matching = blossom::max_matching(&g);
    let mut assignment = vec![false; n];
    for v in free_vars {
        assignment[v] = true;
    }
    for (a, bb) in matching.edges() {
        if let Some(&v) = edge_to_var.get(&(a, bb)) {
            assignment[v] = true;
        }
    }
    let value = sub.value(&assignment);
    Some(Solution {
        assignment,
        value,
        exact: true,
        method: Method::Matching,
    })
}

/// Pairwise unit covering constraints → vertex cover = complement of MWIS.
fn try_vertex_cover(sub: &SubInstance, budget: &SolverBudget) -> Option<Solution> {
    let n = sub.n();
    let mut forced_one = vec![false; n];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (coeffs, bound) in sub.rows() {
        if (bound - 1.0).abs() > FEASIBILITY_EPS {
            return None;
        }
        match coeffs.len() {
            1 => {
                let (v, a) = coeffs[0];
                if (a - 1.0).abs() > FEASIBILITY_EPS {
                    return None;
                }
                forced_one[v as usize] = true;
            }
            2 => {
                let (u, au) = coeffs[0];
                let (v, av) = coeffs[1];
                if (au - 1.0).abs() > FEASIBILITY_EPS || (av - 1.0).abs() > FEASIBILITY_EPS {
                    return None;
                }
                edges.push((u, v));
            }
            _ => return None,
        }
    }
    let mut b = GraphBuilder::new(n);
    for (u, v) in edges {
        if !forced_one[u as usize] && !forced_one[v as usize] {
            b.add_edge(u, v);
        }
    }
    let g = b.build();
    // Min-weight VC over the residual edges = Σw − MWIS, but only vertices
    // incident to residual edges should ever pay; isolated vertices join
    // the IS for free.
    let weights: Vec<u64> = (0..n)
        .map(|v| if forced_one[v] { 0 } else { sub.weights[v] })
        .collect();
    let r = mis::max_weight_independent_set(&g, &weights, budget);
    let mut assignment: Vec<bool> = (0..n).map(|v| !r.in_set[v]).collect();
    for v in 0..n {
        if forced_one[v] {
            assignment[v] = true;
        } else if g.degree(v as u32) == 0 && !forced_one[v] {
            // Unconstrained vertex: never pay for it.
            assignment[v] = false;
        }
    }
    let value = sub.value(&assignment);
    Some(Solution {
        assignment,
        value,
        exact: r.exact,
        method: Method::VertexCover,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;
    use crate::restrict::{covering_restriction, packing_restriction};
    use dapc_graph::gen;

    fn full(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn dispatch_mis() {
        let g = gen::cycle(9);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &full(9));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::ConflictMis);
        assert_eq!(sol.value, 4);
        assert!(sub.is_feasible(&sol.assignment));
    }

    #[test]
    fn dispatch_matching() {
        let g = gen::complete(6);
        let m = problems::max_matching(&g);
        let sub = packing_restriction(&m.ilp, &full(m.ilp.n()));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::Matching);
        assert_eq!(sol.value, 3);
        assert!(sub.is_feasible(&sol.assignment));
    }

    #[test]
    fn dispatch_vertex_cover() {
        let g = gen::cycle(7);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let sub = covering_restriction(&ilp, &full(7));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::VertexCover);
        assert_eq!(sol.value, 4);
        assert!(sub.is_feasible(&sol.assignment));
    }

    #[test]
    fn dispatch_bnb_for_dominating_set() {
        let g = gen::grid(3, 4);
        let ilp = problems::min_dominating_set_unweighted(&g);
        let sub = covering_restriction(&ilp, &full(12));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::BranchBound);
        assert!(sol.exact);
        assert!(sub.is_feasible(&sol.assignment));
        // γ(3×4 grid) = 4 (verified exhaustively).
        assert_eq!(sol.value, 4);
    }

    #[test]
    fn dispatch_trivial() {
        let ilp = crate::instance::IlpInstance::packing(3, vec![2, 0, 5], vec![]);
        let sub = packing_restriction(&ilp, &full(3));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::Trivial);
        assert_eq!(sol.value, 7);
    }

    #[test]
    fn matching_with_pendant_and_parallel_vars() {
        // P3 has vertex degrees 1, 2, 1: pendant edges exercise dummies.
        let g = gen::path(3);
        let m = problems::max_matching(&g);
        let sub = packing_restriction(&m.ilp, &full(2));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.value, 1);
    }

    #[test]
    fn weighted_matching_on_path_uses_conflict_mis() {
        // On a path every matching constraint has support ≤ 2, so the
        // ConflictMis path (which handles weights exactly) takes over.
        let g = gen::path(4);
        let edges: Vec<_> = g.edges().collect();
        let mut constraints = Vec::new();
        for v in g.vertices() {
            let coeffs: Vec<(u32, f64)> = edges
                .iter()
                .enumerate()
                .filter(|(_, &(a, b))| a == v || b == v)
                .map(|(i, _)| (i as u32, 1.0))
                .collect();
            constraints.push(crate::instance::Constraint::new(coeffs, 1.0));
        }
        let ilp = crate::instance::IlpInstance::packing(3, vec![1, 5, 1], constraints);
        let sub = packing_restriction(&ilp, &full(3));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::ConflictMis);
        // Middle edge alone (weight 5) beats the two outer edges (1+1).
        assert_eq!(sol.value, 5);
    }

    #[test]
    fn weighted_matching_on_star_falls_back_to_bnb() {
        // A star vertex of degree 3 yields a support-3 constraint, and
        // unequal weights rule out the blossom path — BnB must catch it.
        let g = gen::star(4); // edges (0,1), (0,2), (0,3)
        let edges: Vec<_> = g.edges().collect();
        let mut constraints = Vec::new();
        for v in g.vertices() {
            let coeffs: Vec<(u32, f64)> = edges
                .iter()
                .enumerate()
                .filter(|(_, &(a, b))| a == v || b == v)
                .map(|(i, _)| (i as u32, 1.0))
                .collect();
            if !coeffs.is_empty() {
                constraints.push(crate::instance::Constraint::new(coeffs, 1.0));
            }
        }
        let ilp = crate::instance::IlpInstance::packing(3, vec![1, 5, 1], constraints);
        let sub = packing_restriction(&ilp, &full(3));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::BranchBound);
        assert_eq!(sol.value, 5);
    }

    #[test]
    fn vc_with_forced_singleton() {
        // Constraint x0 >= 1 plus edge (1,2).
        let ilp = crate::instance::IlpInstance::covering(
            3,
            vec![4, 1, 2],
            vec![
                crate::instance::Constraint::new(vec![(0, 1.0)], 1.0),
                crate::instance::Constraint::new(vec![(1, 1.0), (2, 1.0)], 1.0),
            ],
        );
        let sub = covering_restriction(&ilp, &full(3));
        let sol = solve(&sub, &SolverBudget::default());
        assert_eq!(sol.method, Method::VertexCover);
        assert_eq!(sol.value, 4 + 1);
        assert!(sol.assignment[0] && sol.assignment[1] && !sol.assignment[2]);
    }

    #[test]
    fn solver_agreement_mis_vs_bnb() {
        // The structured MIS path and the general B&B must agree.
        let mut rng = gen::seeded_rng(77);
        for _ in 0..20 {
            let g = gen::gnp(14, 0.3, &mut rng);
            let ilp = problems::max_independent_set_unweighted(&g);
            let sub = packing_restriction(&ilp, &full(14));
            let structured = try_conflict_mis(&sub, &SolverBudget::unlimited()).unwrap();
            let general = bnb::solve_packing(&sub, &SolverBudget::unlimited());
            assert_eq!(structured.value, general.value);
        }
    }

    #[test]
    fn solver_agreement_vc_vs_bnb() {
        let mut rng = gen::seeded_rng(78);
        for _ in 0..20 {
            let g = gen::gnp(12, 0.3, &mut rng);
            let ilp = problems::min_vertex_cover_unweighted(&g);
            let sub = covering_restriction(&ilp, &full(12));
            let structured = try_vertex_cover(&sub, &SolverBudget::unlimited()).unwrap();
            let general = bnb::solve_covering(&sub, &SolverBudget::unlimited());
            assert_eq!(structured.value, general.value);
        }
    }
}
