//! General branch & bound for arbitrary packing / covering sub-instances.
//!
//! Handles the full Definition 1.1/1.2 generality (real coefficients, any
//! support size). The structured fast paths (conflict-graph MIS, blossom
//! matching, vertex cover) live in [`crate::solvers`]; this solver is the
//! backstop that makes *every* local sub-instance solvable exactly, with a
//! node budget so runaway instances degrade to reported-inexact incumbents
//! instead of hanging.
//!
//! # The covering search and its bound
//!
//! [`solve_covering`] fixes the variables in one order (descending
//! coverage/weight ratio), tries including each before excluding it, and
//! replaces the incumbent only on strict improvement, so the answer is
//! the first node in DFS preorder that reaches the optimum; the order and
//! the include-first rule are therefore part of the output contract.
//! Besides "cost so far ≥ incumbent", a node is pruned by a
//! *disjoint-demand bound*. A constraint's undecided variables are those
//! of its support at an order position at or past the node's depth. Walk
//! the unmet constraints in index order: skip one if an earlier picked
//! constraint already claimed one of its undecided variables, else pick
//! it, claim them all, and add the lightest one's weight to the bound.
//! Every feasible completion includes at least one undecided variable of
//! each unmet constraint (coefficients are positive, and only an
//! inclusion lowers a residual), and the picked constraints share none,
//! so no completion costs less than `current + bound`; the node is pruned
//! once that reaches the incumbent. An unmet constraint with no undecided
//! variable prunes too: no completion is feasible. The bound holds for
//! any non-negative coefficients and does no floating-point arithmetic
//! beyond the existing residual test.
//!
//! Why no output moves: a valid bound prunes a subtree only when no node
//! in it can strictly beat the incumbent held at its root, so removing
//! the subtree changes no later incumbent. The bounded search visits the
//! unbounded tree minus those subtrees, with the same updates, and
//! returns the same `(value, assignment)` in at most as many nodes. The
//! caveat is `node_limit`: a solve that exhausts it without the bound may
//! finish with it, or stop at a different (never worse) incumbent.

use crate::instance::{Sense, FEASIBILITY_EPS};
use crate::restrict::SubInstance;
use crate::solvers::{greedy, SolverBudget};

/// Outcome of a branch & bound run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BnbResult {
    /// Best assignment found (always feasible).
    pub assignment: Vec<bool>,
    /// Its objective value.
    pub value: u64,
    /// Whether the search tree was exhausted (optimality proven).
    pub exact: bool,
}

/// Exact (budgeted) maximisation of a packing sub-instance.
///
/// # Panics
///
/// Panics if the sub-instance is not packing.
pub fn solve_packing(sub: &SubInstance, budget: &SolverBudget) -> BnbResult {
    assert_eq!(sub.sense, Sense::Packing);
    let n = sub.n();
    // Variable order: descending weight (drives the incumbent up fast).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(sub.weights[v]));
    let suffix_weight: Vec<u64> = {
        let mut s = vec![0u64; n + 1];
        for i in (0..n).rev() {
            s[i] = s[i + 1] + sub.weights[order[i]];
        }
        s
    };
    let mut membership: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (j, (row, _)) in sub.rows().enumerate() {
        for &(v, a) in row {
            membership[v as usize].push((j, a));
        }
    }
    let incumbent = greedy::greedy_packing(sub);
    let mut state = PackState {
        sub,
        order: &order,
        suffix_weight: &suffix_weight,
        membership: &membership,
        best_value: sub.value(&incumbent),
        best: incumbent,
        nodes_left: budget.node_limit,
        exact: true,
        lhs: vec![0.0; sub.m()],
        x: vec![false; n],
    };
    state.dfs(0, 0);
    BnbResult {
        assignment: state.best,
        value: state.best_value,
        exact: state.exact,
    }
}

struct PackState<'a> {
    sub: &'a SubInstance,
    order: &'a [usize],
    suffix_weight: &'a [u64],
    membership: &'a [Vec<(usize, f64)>],
    best: Vec<bool>,
    best_value: u64,
    nodes_left: u64,
    exact: bool,
    lhs: Vec<f64>,
    x: Vec<bool>,
}

impl PackState<'_> {
    fn dfs(&mut self, idx: usize, current: u64) {
        if self.nodes_left == 0 {
            self.exact = false;
            return;
        }
        self.nodes_left -= 1;
        if current + self.suffix_weight[idx] <= self.best_value && idx < self.order.len() {
            return;
        }
        if current > self.best_value {
            self.best_value = current;
            self.best = self.x.clone();
        }
        if idx == self.order.len() {
            return;
        }
        let v = self.order[idx];
        // Branch 1: include v if it fits.
        let fits = self.membership[v]
            .iter()
            .all(|&(j, a)| self.lhs[j] + a <= self.sub.bound(j) + FEASIBILITY_EPS);
        if fits && self.sub.weights[v] > 0 {
            for &(j, a) in &self.membership[v] {
                self.lhs[j] += a;
            }
            self.x[v] = true;
            self.dfs(idx + 1, current + self.sub.weights[v]);
            self.x[v] = false;
            for &(j, a) in &self.membership[v] {
                self.lhs[j] -= a;
            }
        }
        // Branch 2: exclude v.
        self.dfs(idx + 1, current);
    }
}

/// Exact (budgeted) minimisation of a covering sub-instance.
///
/// # Panics
///
/// Panics if the sub-instance is not covering.
pub fn solve_covering(sub: &SubInstance, budget: &SolverBudget) -> BnbResult {
    assert_eq!(sub.sense, Sense::Covering);
    let n = sub.n();
    let mut membership: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (j, (row, _)) in sub.rows().enumerate() {
        for &(v, a) in row {
            membership[v as usize].push((j, a));
        }
    }
    // Variable order: descending coverage/weight ratio (mirrors greedy, so
    // good solutions appear early in the left spine). A variable's
    // coverage sums its coefficients in constraint order.
    let coverage: Vec<f64> = membership
        .iter()
        .map(|m| m.iter().map(|&(_, a)| a).sum())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        let ra = coverage[a] / (sub.weights[a].max(1)) as f64;
        let rb = coverage[b] / (sub.weights[b].max(1)) as f64;
        rb.partial_cmp(&ra).expect("finite ratios")
    });
    let mut pos = vec![0; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    let incumbent = greedy::greedy_covering(sub);
    // `possible[j]`: how much LHS constraint j can still reach given
    // already-excluded variables. Dropping below the bound prunes.
    let possible: Vec<f64> = sub
        .rows()
        .map(|(row, _)| row.iter().map(|&(_, a)| a).sum())
        .collect();
    let mut state = CoverState {
        sub,
        order: &order,
        membership: &membership,
        best_value: sub.value(&incumbent),
        best: incumbent,
        nodes_left: budget.node_limit,
        exact: true,
        residual: sub.rows().map(|(_, bound)| bound).collect(),
        possible,
        x: vec![false; n],
        pos: &pos,
        claim: vec![0; n],
        stamp: 0,
    };
    state.root();
    BnbResult {
        assignment: state.best,
        value: state.best_value,
        exact: state.exact,
    }
}

struct CoverState<'a> {
    sub: &'a SubInstance,
    order: &'a [usize],
    membership: &'a [Vec<(usize, f64)>],
    best: Vec<bool>,
    best_value: u64,
    nodes_left: u64,
    exact: bool,
    /// Remaining demand per constraint (≤ 0 means satisfied).
    residual: Vec<f64>,
    /// Maximum LHS still reachable per constraint.
    possible: Vec<f64>,
    x: Vec<bool>,
    /// Position of each variable in `order`.
    pos: &'a [usize],
    /// Per variable, the `stamp` of the last bound that claimed it.
    claim: Vec<u64>,
    /// Bound evaluations so far; each evaluation's claims carry its own.
    stamp: u64,
}

impl CoverState<'_> {
    /// Runs the search from the root. (Tests swap in the reference search
    /// here and count its nodes.)
    #[cfg(not(test))]
    fn root(&mut self) {
        self.dfs(0, 0);
    }

    fn dfs(&mut self, idx: usize, current: u64) {
        if self.nodes_left == 0 {
            self.exact = false;
            return;
        }
        self.nodes_left -= 1;
        if current >= self.best_value {
            return; // can only get more expensive
        }
        if self.residual.iter().all(|&r| r <= FEASIBILITY_EPS) {
            self.best_value = current;
            self.best = self.x.clone();
            return;
        }
        if idx == self.order.len() {
            return; // demands unmet, no variables left
        }
        if self.demands_prune(idx, current) {
            return;
        }
        let v = self.order[idx];
        // Feasibility pruning for the exclude branch: a constraint that
        // needs v (possible - a_vj < bound) forces inclusion.
        let forced = self.membership[v].iter().any(|&(j, a)| {
            self.residual[j] > FEASIBILITY_EPS
                && self.possible[j] - a < self.sub.bound(j) - FEASIBILITY_EPS
        });
        // Branch 1: include v.
        for &(j, a) in &self.membership[v] {
            self.residual[j] -= a;
        }
        self.x[v] = true;
        self.dfs(idx + 1, current + self.sub.weights[v]);
        self.x[v] = false;
        for &(j, a) in &self.membership[v] {
            self.residual[j] += a;
        }
        // Branch 2: exclude v (unless forced).
        if !forced {
            for &(j, a) in &self.membership[v] {
                self.possible[j] -= a;
            }
            self.dfs(idx + 1, current);
            for &(j, a) in &self.membership[v] {
                self.possible[j] += a;
            }
        }
    }

    /// The disjoint-demand bound at depth `idx` (see the module docs):
    /// whether no completion of this node can cost less than the
    /// incumbent, or none is feasible.
    fn demands_prune(&mut self, idx: usize, current: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut bound = 0;
        for ((row, _), &r) in self.sub.rows().zip(&self.residual) {
            if r <= FEASIBILITY_EPS {
                continue;
            }
            let undecided = || {
                row.iter()
                    .map(|&(v, _)| v as usize)
                    .filter(|&v| self.pos[v] >= idx)
            };
            if undecided().any(|v| self.claim[v] == stamp) {
                continue;
            }
            let Some(lightest) = undecided().map(|v| self.sub.weights[v]).min() else {
                return true; // unmet, and nothing left to meet it
            };
            for v in undecided() {
                self.claim[v] = stamp;
            }
            bound += lightest;
            if current + bound >= self.best_value {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::IlpInstance;
    use crate::problems;
    use crate::restrict::{
        covering_restriction, covering_restriction_with_fixed, packing_restriction,
    };
    use crate::solvers::{self, mis::probe, Method};
    use dapc_graph::gen;
    use proptest::prelude::*;
    use rand::RngExt;

    fn full_mask(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    impl CoverState<'_> {
        pub(super) fn root(&mut self) {
            let before = self.nodes_left;
            if probe::reference() {
                self.reference_dfs(0, 0);
            } else {
                self.dfs(0, 0);
            }
            probe::record(before - self.nodes_left);
        }

        /// The covering search without the disjoint-demand bound: the
        /// reference the bounded search must reproduce.
        fn reference_dfs(&mut self, idx: usize, current: u64) {
            if self.nodes_left == 0 {
                self.exact = false;
                return;
            }
            self.nodes_left -= 1;
            if current >= self.best_value {
                return;
            }
            if self.residual.iter().all(|&r| r <= FEASIBILITY_EPS) {
                self.best_value = current;
                self.best = self.x.clone();
                return;
            }
            if idx == self.order.len() {
                return;
            }
            let v = self.order[idx];
            let forced = self.membership[v].iter().any(|&(j, a)| {
                self.residual[j] > FEASIBILITY_EPS
                    && self.possible[j] - a < self.sub.bound(j) - FEASIBILITY_EPS
            });
            for &(j, a) in &self.membership[v] {
                self.residual[j] -= a;
            }
            self.x[v] = true;
            self.reference_dfs(idx + 1, current + self.sub.weights[v]);
            self.x[v] = false;
            for &(j, a) in &self.membership[v] {
                self.residual[j] += a;
            }
            if !forced {
                for &(j, a) in &self.membership[v] {
                    self.possible[j] -= a;
                }
                self.reference_dfs(idx + 1, current);
                for &(j, a) in &self.membership[v] {
                    self.possible[j] += a;
                }
            }
        }
    }

    /// A covering instance of one of four kinds: dominating set, 2-distance
    /// dominating set, weighted dominating set, or a random instance with
    /// coefficients in `[0.1, 1)`.
    fn reference_instance(kind: usize, seed: u64) -> IlpInstance {
        let mut rng = gen::seeded_rng(seed);
        let graph = |rng: &mut rand::rngs::StdRng| match rng.random_range(0..3) {
            0 => {
                let n = rng.random_range(6..22);
                gen::gnp(n, rng.random_range(0.1..0.35), rng)
            }
            1 => gen::grid(rng.random_range(2..5), rng.random_range(3..6)),
            _ => gen::cycle(rng.random_range(5..26)),
        };
        match kind {
            0 => problems::min_dominating_set_unweighted(&graph(&mut rng)),
            1 => {
                let g = graph(&mut rng);
                problems::k_dominating_set(&g, 2, vec![1; g.n()])
            }
            2 => {
                let g = graph(&mut rng);
                let w = (0..g.n()).map(|_| rng.random_range(1..10)).collect();
                problems::min_dominating_set(&g, w)
            }
            _ => {
                let n = rng.random_range(6..18);
                let rank = rng.random_range(2..5);
                problems::random_covering(n, rng.random_range(4..14), rank, &mut rng)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bounded_covering_reproduces_the_reference(kind in 0usize..4, seed in 0u64..1 << 32) {
            // Through `solvers::solve`, on the whole instance, on a random
            // subset, and on that subset with variables fixed to one.
            let ilp = reference_instance(kind, seed);
            let mut rng = gen::seeded_rng(!seed);
            let subset: Vec<bool> = (0..ilp.n()).map(|_| rng.random_range(0..5) > 0).collect();
            let fixed: Vec<bool> = (0..ilp.n()).map(|_| rng.random_range(0..6) == 0).collect();
            for (mask, fixed_ones) in [
                (full_mask(ilp.n()), None),
                (subset.clone(), None),
                (subset, Some(fixed.as_slice())),
            ] {
                let sub = covering_restriction_with_fixed(&ilp, &mask, fixed_ones);
                let (sol, ..) = probe::check(&sub, &SolverBudget::unlimited());
                prop_assert!(sol.exact);
            }
        }
    }

    #[test]
    fn the_demand_bound_prunes_every_kind() {
        for kind in 0..4 {
            let ilp = reference_instance(kind, 40 + kind as u64);
            let sub = covering_restriction(&ilp, &full_mask(ilp.n()));
            let (sol, nodes, reference_nodes) = probe::check(&sub, &SolverBudget::unlimited());
            assert_eq!(sol.method, Method::BranchBound, "kind {kind}");
            assert!(
                nodes < reference_nodes,
                "kind {kind}: {nodes} vs {reference_nodes}"
            );
        }
    }

    #[test]
    fn an_exhausted_node_limit_leaves_a_feasible_inexact_cover() {
        let g = gen::grid(5, 6);
        let sub =
            covering_restriction(&problems::min_dominating_set_unweighted(&g), &full_mask(30));
        let budget = SolverBudget { node_limit: 12 };
        for reference in [false, true] {
            let (sol, nodes) = probe::run(reference, || solvers::solve(&sub, &budget));
            assert!(!sol.exact, "reference: {reference}");
            assert_eq!(nodes, 12);
            assert!(sub.is_feasible(&sol.assignment));
        }
    }

    #[test]
    fn benchmark_ds_solve_visits_a_pinned_node_count() {
        // The dominant whole-instance covering solve of the `ilp_cold`
        // benchmark. A change that moves the count updates the pin and
        // says why.
        let sub = covering_restriction(
            &problems::min_dominating_set_unweighted(&gen::cycle(33)),
            &full_mask(33),
        );
        let (sol, nodes) = probe::run(false, || solvers::solve(&sub, &SolverBudget::default()));
        assert!(sol.exact);
        assert_eq!(sol.value, 11);
        assert_eq!(nodes, 1);
    }

    #[test]
    fn packing_matches_mis_on_cycles() {
        for n in [5usize, 6, 9] {
            let g = gen::cycle(n);
            let ilp = problems::max_independent_set_unweighted(&g);
            let sub = packing_restriction(&ilp, &full_mask(n));
            let r = solve_packing(&sub, &SolverBudget::unlimited());
            assert!(r.exact);
            assert_eq!(r.value as usize, n / 2, "C{n}");
            assert!(sub.is_feasible(&r.assignment));
        }
    }

    #[test]
    fn packing_handles_general_constraints() {
        // Knapsack-ish: one constraint 0.5x0 + 0.6x1 + 0.7x2 <= 1.2,
        // weights 3, 4, 5: best is {1, 2}? 0.6+0.7 = 1.3 > 1.2. {0,2}: 1.2 ok
        // value 8.
        let ilp = crate::instance::IlpInstance::packing(
            3,
            vec![3, 4, 5],
            vec![crate::instance::Constraint::new(
                vec![(0, 0.5), (1, 0.6), (2, 0.7)],
                1.2,
            )],
        );
        let sub = packing_restriction(&ilp, &full_mask(3));
        let r = solve_packing(&sub, &SolverBudget::unlimited());
        assert_eq!(r.value, 8);
        assert_eq!(r.assignment, vec![true, false, true]);
    }

    #[test]
    fn covering_vertex_cover_on_known_graphs() {
        // C5 needs 3 vertices; K4 needs 3; star needs 1.
        for (g, opt) in [
            (gen::cycle(5), 3u64),
            (gen::complete(4), 3),
            (gen::star(7), 1),
            (gen::path(6), 3),
        ] {
            let n = g.n();
            let ilp = problems::min_vertex_cover_unweighted(&g);
            let sub = covering_restriction(&ilp, &full_mask(n));
            let r = solve_covering(&sub, &SolverBudget::unlimited());
            assert!(r.exact);
            assert_eq!(r.value, opt, "{g}");
            assert!(sub.is_feasible(&r.assignment));
        }
    }

    #[test]
    fn covering_dominating_set_on_known_graphs() {
        for (g, opt) in [
            (gen::path(7), 3u64),
            (gen::cycle(9), 3),
            (gen::star(12), 1),
            (gen::grid(3, 3), 3),
        ] {
            let n = g.n();
            let ilp = problems::min_dominating_set_unweighted(&g);
            let sub = covering_restriction(&ilp, &full_mask(n));
            let r = solve_covering(&sub, &SolverBudget::unlimited());
            assert!(r.exact);
            assert_eq!(r.value, opt, "{g}");
        }
    }

    #[test]
    fn covering_weighted_prefers_cheap_cover() {
        // Edge (0,1): vertex 0 costs 10, vertex 1 costs 1.
        let g = gen::path(2);
        let ilp = problems::min_vertex_cover(&g, vec![10, 1]);
        let sub = covering_restriction(&ilp, &full_mask(2));
        let r = solve_covering(&sub, &SolverBudget::unlimited());
        assert_eq!(r.value, 1);
        assert_eq!(r.assignment, vec![false, true]);
    }

    #[test]
    fn covering_fractional_demands() {
        // x0·0.4 + x1·0.4 + x2·0.4 >= 1.0: need all three.
        let ilp = crate::instance::IlpInstance::covering(
            3,
            vec![1, 1, 1],
            vec![crate::instance::Constraint::new(
                vec![(0, 0.4), (1, 0.4), (2, 0.4)],
                1.0,
            )],
        );
        let sub = covering_restriction(&ilp, &full_mask(3));
        let r = solve_covering(&sub, &SolverBudget::unlimited());
        assert_eq!(r.value, 3);
    }

    #[test]
    fn budget_zero_returns_greedy_incumbent() {
        let mut rng = gen::seeded_rng(8);
        let g = gen::gnp(30, 0.2, &mut rng);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let sub = covering_restriction(&ilp, &full_mask(30));
        let r = solve_covering(&sub, &SolverBudget { node_limit: 0 });
        assert!(!r.exact);
        assert!(sub.is_feasible(&r.assignment));
    }

    #[test]
    fn random_cross_check_against_exhaustive() {
        let mut rng = gen::seeded_rng(12);
        for trial in 0..30 {
            let n = 6 + trial % 5;
            let p = problems::random_packing(n, 6, 3.min(n), &mut rng);
            let sub = packing_restriction(&p, &full_mask(n));
            let r = solve_packing(&sub, &SolverBudget::unlimited());
            assert_eq!(r.value, exhaustive_best(&sub), "packing trial {trial}");

            let c = problems::random_covering(n, 6, 3.min(n), &mut rng);
            let subc = covering_restriction(&c, &full_mask(n));
            let rc = solve_covering(&subc, &SolverBudget::unlimited());
            assert_eq!(rc.value, exhaustive_best(&subc), "covering trial {trial}");
        }
    }

    /// Exhaustive optimum over all 2^n assignments.
    fn exhaustive_best(sub: &SubInstance) -> u64 {
        let n = sub.n();
        assert!(n <= 20);
        let mut best = match sub.sense {
            Sense::Packing => 0u64,
            Sense::Covering => u64::MAX,
        };
        for mask in 0u32..(1 << n) {
            let x: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            if sub.is_feasible(&x) {
                let v = sub.value(&x);
                best = match sub.sense {
                    Sense::Packing => best.max(v),
                    Sense::Covering => best.min(v),
                };
            }
        }
        best
    }
}
