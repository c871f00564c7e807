//! Exact local solvers with structure detection.
//!
//! The paper's clusters solve their local sub-instances *optimally* (free
//! local computation in the LOCAL model). [`solve`] reproduces that:
//! it inspects the sub-instance, routes the structured cases to fast exact
//! algorithms — conflict-graph MIS, blossom matching, vertex cover via MIS
//! complement — and everything else to the general branch & bound. All
//! paths report whether optimality was proven, so experiments can assert
//! that every local solve at experiment scale was exact.
//!
//! # The pairwise routes
//!
//! Packing rows of at most two variables, and unit covering rows of one
//! or two, are a conflict graph: MIS (packing), or vertex cover as the
//! complement of an MIS (covering). Almost every cluster of the
//! benchmarks and tables is a path or a cycle, so these routes solve
//! straight off the rows:
//! - one pass over the rows marks the forced vertices (packing: a
//!   coefficient above its row's bound forces zero; covering: a singleton
//!   row forces one) and lists the endpoints of each pair row that is a
//!   conflict;
//! - the pairs between unforced endpoints fill per-vertex, two-slot
//!   neighbour lists, ascending, a repeated pair once;
//! - the linear-time path/cycle DP of [`mis`] solves them.
//!
//! Only when a vertex gains a third distinct neighbour does the solve
//! build the CSR conflict graph ([`dapc_graph::GraphBuilder`]) and run
//! [`mis::max_weight_independent_set`]'s branch & bound. Ascending lists
//! are the CSR graph's neighbour order, so the DP's walk, and every tie,
//! come out as on the CSR graph.
//!
//! [`solve_with`] writes into a [`SolveScratch`], whose buffers live
//! across solves: a warm scratch allocates nothing on the pairwise routes.
//! [`solve`] is the same solve into a fresh scratch, returning an owned
//! [`Solution`].

pub mod blossom;
pub mod bnb;
pub mod greedy;
pub mod mis;

use crate::instance::{Sense, FEASIBILITY_EPS};
use crate::restrict::SubInstance;
use dapc_graph::{GraphBuilder, Vertex};

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

/// Reusable buffers of [`solve_with`]: the forced flags and pair rows of
/// the pairwise routes, the two-slot lists and DP buffers of [`mis`], and
/// the last solution. Keep one per solver or worker, beside its
/// [`crate::restrict::RestrictScratch`]; it grows to the largest
/// sub-instance it has served, and a warm one allocates nothing on the
/// pairwise routes.
#[derive(Debug)]
pub struct SolveScratch {
    /// Per local variable: forced to zero (packing) or to one (covering).
    forced: Vec<bool>,
    /// The endpoints of every pair row, forced ones included.
    pairs: Vec<(Vertex, Vertex)>,
    /// Per local variable: whether a pair between unforced endpoints
    /// holds it.
    linked: Vec<bool>,
    /// The conflict graph as two-slot lists, with its DP's buffers.
    paths: mis::PathsAndCycles,
    /// The last solve's solution.
    solution: Solution,
}

impl Default for SolveScratch {
    fn default() -> Self {
        SolveScratch {
            forced: Vec::new(),
            pairs: Vec::new(),
            linked: Vec::new(),
            paths: mis::PathsAndCycles::default(),
            solution: Solution {
                assignment: Vec::new(),
                value: 0,
                exact: true,
                method: Method::Trivial,
            },
        }
    }
}

impl SolveScratch {
    /// Creates an empty scratch; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a pairwise route on `n` variables: none forced, no pairs.
    fn begin(&mut self, n: usize) {
        self.forced.clear();
        self.forced.resize(n, false);
        self.pairs.clear();
    }

    /// MWIS of the conflict graph: the pairs between unforced endpoints,
    /// each forced vertex at weight zero. Leaves the set in
    /// `paths.in_set` and returns whether it is proven optimal.
    fn conflict_mwis(&mut self, sub: &SubInstance, budget: &SolverBudget) -> bool {
        let SolveScratch {
            forced,
            pairs,
            linked,
            paths,
            ..
        } = self;
        let free = |&&(u, v): &&(Vertex, Vertex)| !forced[u as usize] && !forced[v as usize];
        let weights = sub.weights.iter().zip(&*forced);
        paths.reset(weights.map(|(&w, &f)| if f { 0 } else { w }));
        linked.clear();
        linked.resize(sub.n(), false);
        let mut fits = true;
        for &(u, v) in pairs.iter().filter(free) {
            linked[u as usize] = true;
            linked[v as usize] = true;
            fits = fits && paths.add_edge(u, v);
        }
        if fits {
            paths.solve();
            return true;
        }
        // A vertex of degree three: the CSR graph and the branch & bound.
        let mut b = GraphBuilder::new(sub.n());
        for &(u, v) in pairs.iter().filter(free) {
            b.add_edge(u, v);
        }
        let r = mis::max_weight_independent_set(&b.build(), &paths.weights, budget);
        paths.in_set.clone_from(&r.in_set);
        r.exact
    }

    /// Sets the solution's value from its assignment, and its flags.
    fn finish(&mut self, sub: &SubInstance, exact: bool, method: Method) {
        let solution = &mut self.solution;
        solution.value = sub.value(&solution.assignment);
        solution.exact = exact;
        solution.method = method;
    }
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
    let mut scratch = SolveScratch::new();
    solve_with(sub, budget, &mut scratch);
    scratch.solution
}

/// [`solve`] into `scratch`: the solution lives there until its next
/// call, and a warm scratch allocates nothing on the pairwise routes (see
/// the module docs).
pub fn solve_with<'s>(
    sub: &SubInstance,
    budget: &SolverBudget,
    scratch: &'s mut SolveScratch,
) -> &'s Solution {
    match sub.sense {
        _ if sub.m() == 0 => trivial(sub, scratch),
        Sense::Packing => {
            if !try_conflict_mis(sub, budget, scratch) {
                scratch.solution = try_matching(sub)
                    .unwrap_or_else(|| branch_bound(bnb::solve_packing(sub, budget)));
            }
        }
        Sense::Covering => {
            if !try_vertex_cover(sub, budget, scratch) {
                scratch.solution = branch_bound(bnb::solve_covering(sub, budget));
            }
        }
    }
    &scratch.solution
}

fn branch_bound(r: bnb::BnbResult) -> Solution {
    Solution {
        assignment: r.assignment,
        value: r.value,
        exact: r.exact,
        method: Method::BranchBound,
    }
}

fn trivial(sub: &SubInstance, scratch: &mut SolveScratch) {
    let assignment = &mut scratch.solution.assignment;
    assignment.clear();
    match sub.sense {
        Sense::Packing => assignment.extend(sub.weights.iter().map(|&w| w > 0)),
        Sense::Covering => assignment.resize(sub.n(), false),
    }
    scratch.finish(sub, true, Method::Trivial);
}

/// Pairwise packing constraints → MWIS on the conflict graph, into
/// `scratch`'s solution. `false`, with the solution untouched, on a row
/// of three or more variables.
fn try_conflict_mis(sub: &SubInstance, budget: &SolverBudget, scratch: &mut SolveScratch) -> bool {
    scratch.begin(sub.n());
    for (coeffs, bound) in sub.rows() {
        let exceeds = |a: f64| a > bound + FEASIBILITY_EPS;
        match *coeffs {
            [] => {}
            [(v, a)] => scratch.forced[v as usize] |= exceeds(a),
            [(u, au), (v, av)] => {
                scratch.forced[u as usize] |= exceeds(au);
                scratch.forced[v as usize] |= exceeds(av);
                if exceeds(au + av) {
                    scratch.pairs.push((u, v));
                }
            }
            _ => return false,
        }
    }
    let exact = scratch.conflict_mwis(sub, budget);
    let SolveScratch {
        forced,
        paths,
        solution,
        ..
    } = scratch;
    // Forced-zero vertices may appear in the IS with weight 0; strip them.
    // Zero-weight unforced vertices may or may not be in it: the value is
    // the same either way.
    solution.assignment.clear();
    let kept = paths.in_set.iter().zip(&*forced);
    solution.assignment.extend(kept.map(|(&x, &f)| x && !f));
    scratch.finish(sub, exact, Method::ConflictMis);
    true
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

/// Pairwise unit covering constraints → vertex cover = complement of
/// MWIS, into `scratch`'s solution. `false`, with the solution
/// untouched, on any other row.
fn try_vertex_cover(sub: &SubInstance, budget: &SolverBudget, scratch: &mut SolveScratch) -> bool {
    scratch.begin(sub.n());
    let unit = |a: f64| (a - 1.0).abs() <= FEASIBILITY_EPS;
    for (coeffs, bound) in sub.rows() {
        match *coeffs {
            _ if !unit(bound) => return false,
            [(v, a)] if unit(a) => scratch.forced[v as usize] = true,
            [(u, au), (v, av)] if unit(au) && unit(av) => scratch.pairs.push((u, v)),
            _ => return false,
        }
    }
    // Min-weight VC over the residual edges = Σw − MWIS, but only vertices
    // incident to residual edges should ever pay; isolated vertices join
    // the IS for free.
    let exact = scratch.conflict_mwis(sub, budget);
    let SolveScratch {
        forced,
        linked,
        paths,
        solution,
        ..
    } = scratch;
    solution.assignment.clear();
    solution
        .assignment
        .extend((0..sub.n()).map(|v| forced[v] || (linked[v] && !paths.in_set[v])));
    scratch.finish(sub, exact, Method::VertexCover);
    true
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
        let mut scratch = SolveScratch::new();
        for _ in 0..20 {
            let g = gen::gnp(14, 0.3, &mut rng);
            let ilp = problems::max_independent_set_unweighted(&g);
            let sub = packing_restriction(&ilp, &full(14));
            assert!(try_conflict_mis(
                &sub,
                &SolverBudget::unlimited(),
                &mut scratch
            ));
            let general = bnb::solve_packing(&sub, &SolverBudget::unlimited());
            assert_eq!(scratch.solution.value, general.value);
        }
    }

    #[test]
    fn solver_agreement_vc_vs_bnb() {
        let mut rng = gen::seeded_rng(78);
        let mut scratch = SolveScratch::new();
        for _ in 0..20 {
            let g = gen::gnp(12, 0.3, &mut rng);
            let ilp = problems::min_vertex_cover_unweighted(&g);
            let sub = covering_restriction(&ilp, &full(12));
            assert!(try_vertex_cover(
                &sub,
                &SolverBudget::unlimited(),
                &mut scratch
            ));
            let general = bnb::solve_covering(&sub, &SolverBudget::unlimited());
            assert_eq!(scratch.solution.value, general.value);
        }
    }
}
