//! The thin graph-problem builder over the solver engine.
//!
//! Each constructor names one of the graph problems the paper headlines
//! (Definition 1.3), the chained setters configure the solve, and
//! [`GraphProblem::solve_with`] runs any [`Solver`] backend and maps the
//! ILP assignment back to graph objects:
//!
//! ```
//! use dapc_core::adapters::GraphProblem;
//! use dapc_core::engine::ThreePhase;
//! use dapc_graph::gen;
//!
//! let g = gen::cycle(20);
//! let r = GraphProblem::max_independent_set(&g)
//!     .eps(0.3)
//!     .seed(0)
//!     .solve_with(&ThreePhase);
//! assert!(r.weight >= 7); // (1 − 0.3) · α(C20) = 0.7 · 10
//! ```

use crate::engine::{SolveConfig, SolveReport, Solver};
use crate::params::ScaleKnobs;
use dapc_graph::{Graph, Vertex};
use dapc_ilp::problems;
use dapc_local::{RoundCost, RoundLedger};
use rand::rngs::StdRng;

/// Which graph problem is being built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    MaxIndependentSet,
    MaxMatching,
    MinVertexCover,
    DominatingSet { k: usize },
}

/// A graph problem plus its solve configuration, ready to run against any
/// engine backend.
#[derive(Clone, Debug)]
pub struct GraphProblem<'g> {
    graph: &'g Graph,
    kind: Kind,
    weights: Option<Vec<u64>>,
    cfg: SolveConfig,
}

/// Result of a [`GraphProblem`] solve: the graph-level answer plus the
/// full engine [`SolveReport`].
#[derive(Clone, Debug)]
pub struct GraphSolveResult {
    /// The selected vertices (sorted; empty for matching problems).
    pub vertices: Vec<Vertex>,
    /// The selected edges (canonical orientation; empty for vertex
    /// problems).
    pub edges: Vec<(Vertex, Vertex)>,
    /// Total weight of the selection.
    pub weight: u64,
    /// The underlying engine report (assignment, value, ledger, stats,
    /// feasibility verdict).
    pub report: SolveReport,
}

impl RoundCost for GraphSolveResult {
    fn ledger(&self) -> &RoundLedger {
        &self.report.ledger
    }
}

impl<'g> GraphProblem<'g> {
    fn new(graph: &'g Graph, kind: Kind) -> Self {
        GraphProblem {
            graph,
            kind,
            weights: None,
            cfg: SolveConfig::new(),
        }
    }

    /// `(1 − ε)`-approximate maximum-weight independent set (Theorem 1.2).
    pub fn max_independent_set(graph: &'g Graph) -> Self {
        Self::new(graph, Kind::MaxIndependentSet)
    }

    /// `(1 − ε)`-approximate maximum matching (Theorem 1.2 on the edge
    /// ILP). Vertex weights do not apply; [`GraphProblem::weights`] panics
    /// on this kind.
    pub fn max_matching(graph: &'g Graph) -> Self {
        Self::new(graph, Kind::MaxMatching)
    }

    /// `(1 + ε)`-approximate minimum-weight vertex cover (Theorem 1.3).
    pub fn min_vertex_cover(graph: &'g Graph) -> Self {
        Self::new(graph, Kind::MinVertexCover)
    }

    /// `(1 + ε)`-approximate minimum-weight dominating set (Theorem 1.3).
    pub fn min_dominating_set(graph: &'g Graph) -> Self {
        Self::new(graph, Kind::DominatingSet { k: 1 })
    }

    /// `(1 + ε)`-approximate minimum-weight `k`-distance dominating set —
    /// the running example of Definition 1.3. One hypergraph round
    /// simulates `k` graph rounds; the returned ledger is already
    /// multiplied out.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn k_dominating_set(graph: &'g Graph, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self::new(graph, Kind::DominatingSet { k })
    }

    /// Sets per-vertex weights (default: all ones).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `g.n()`, or on matching problems
    /// (whose variables are edges).
    pub fn weights(mut self, weights: &[u64]) -> Self {
        assert_ne!(
            self.kind,
            Kind::MaxMatching,
            "matching variables are edges; vertex weights do not apply"
        );
        assert_eq!(weights.len(), self.graph.n(), "one weight per vertex");
        self.weights = Some(weights.to_vec());
        self
    }

    /// Sets the approximation parameter `ε`.
    pub fn eps(mut self, eps: f64) -> Self {
        self.cfg = self.cfg.eps(eps);
        self
    }

    /// Sets the RNG seed used by [`GraphProblem::solve_with`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg = self.cfg.seed(seed);
        self
    }

    /// Replaces the scaling knobs.
    pub fn knobs(mut self, knobs: ScaleKnobs) -> Self {
        self.cfg = self.cfg.knobs(knobs);
        self
    }

    /// Replaces the whole solve configuration.
    pub fn config(mut self, cfg: SolveConfig) -> Self {
        self.cfg = cfg;
        self
    }

    fn unit_weights(&self) -> Vec<u64> {
        self.weights
            .clone()
            .unwrap_or_else(|| vec![1; self.graph.n()])
    }

    /// Runs `solver` with the configured seed.
    pub fn solve_with(&self, solver: &dyn Solver) -> GraphSolveResult {
        self.solve_with_rng(solver, &mut self.cfg.rng())
    }

    /// Runs `solver` drawing randomness from the caller's `rng` (for
    /// experiments that share one stream across many solves).
    pub fn solve_with_rng(&self, solver: &dyn Solver, rng: &mut StdRng) -> GraphSolveResult {
        let g = self.graph;
        let w = self.unit_weights();
        match self.kind {
            Kind::MaxIndependentSet => {
                let ilp = problems::max_independent_set(g, w.clone());
                let report = solver.solve(&ilp, &self.cfg, rng);
                vertex_result(report, &w)
            }
            Kind::MinVertexCover => {
                let ilp = problems::min_vertex_cover(g, w.clone());
                let report = solver.solve(&ilp, &self.cfg, rng);
                vertex_result(report, &w)
            }
            Kind::DominatingSet { k } => {
                let ilp = problems::k_dominating_set(g, k, w.clone());
                let report = solver.solve(&ilp, &self.cfg, rng);
                let mut out = vertex_result(report, &w);
                out.report.ledger = std::mem::take(&mut out.report.ledger).scaled(k);
                out
            }
            Kind::MaxMatching => {
                let m = problems::max_matching(g);
                // Match the legacy adapter's size hint: the edge count can
                // exceed n, and the guarantee is stated in ñ ≥ |V(H)|.
                let cfg = if self.cfg.n_tilde.is_some() {
                    self.cfg.clone()
                } else {
                    self.cfg.clone().n_tilde(m.ilp.n().max(g.n()).max(3) as f64)
                };
                let report = solver.solve(&m.ilp, &cfg, rng);
                let edges: Vec<(Vertex, Vertex)> = report
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &x)| x)
                    .map(|(i, _)| m.edge_of_var[i])
                    .collect();
                GraphSolveResult {
                    vertices: Vec::new(),
                    weight: report.value,
                    edges,
                    report,
                }
            }
        }
    }
}

fn vertex_result(report: SolveReport, weights: &[u64]) -> GraphSolveResult {
    let vertices: Vec<Vertex> = report
        .assignment
        .iter()
        .enumerate()
        .filter(|(_, &x)| x)
        .map(|(v, _)| v as Vertex)
        .collect();
    let weight = vertices.iter().map(|&v| weights[v as usize]).sum();
    GraphSolveResult {
        vertices,
        edges: Vec::new(),
        weight,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BranchAndBound, Ensemble, Gkm, ThreePhase};
    use dapc_graph::gen;
    use dapc_ilp::solvers::blossom;

    #[test]
    fn mis_builder_returns_independent_set() {
        let g = gen::gnp(30, 0.1, &mut gen::seeded_rng(1));
        let r = GraphProblem::max_independent_set(&g)
            .eps(0.3)
            .seed(2)
            .solve_with(&ThreePhase);
        for &u in &r.vertices {
            for &v in &r.vertices {
                assert!(
                    u == v || !g.has_edge(u, v),
                    "({u},{v}) violates independence"
                );
            }
        }
        assert_eq!(r.weight as usize, r.vertices.len());
        assert!(r.report.feasible());
    }

    #[test]
    fn matching_builder_returns_matching() {
        let g = gen::gnp(24, 0.12, &mut gen::seeded_rng(3));
        let r = GraphProblem::max_matching(&g)
            .eps(0.3)
            .seed(4)
            .solve_with(&ThreePhase);
        let mut used = [false; 24];
        for &(u, v) in &r.edges {
            assert!(g.has_edge(u, v));
            assert!(!used[u as usize] && !used[v as usize], "vertex reused");
            used[u as usize] = true;
            used[v as usize] = true;
        }
        let opt = blossom::max_matching(&g).size();
        assert!(
            r.edges.len() as f64 >= 0.7 * opt as f64,
            "matching {} vs OPT {opt}",
            r.edges.len()
        );
    }

    #[test]
    fn vc_builder_returns_cover() {
        let g = gen::cycle(18);
        let r = GraphProblem::min_vertex_cover(&g)
            .eps(0.3)
            .seed(5)
            .solve_with(&ThreePhase);
        let mut in_cover = [false; 18];
        for &v in &r.vertices {
            in_cover[v as usize] = true;
        }
        for (u, v) in g.edges() {
            assert!(in_cover[u as usize] || in_cover[v as usize]);
        }
        assert!(r.weight <= 12); // (1 + 0.3) · 9 = 11.7
    }

    #[test]
    fn ds_builder_returns_dominating_set() {
        let g = gen::grid(4, 4);
        let r = GraphProblem::min_dominating_set(&g)
            .eps(0.4)
            .seed(6)
            .solve_with(&ThreePhase);
        let mut in_set = [false; 16];
        for &v in &r.vertices {
            in_set[v as usize] = true;
        }
        for v in g.vertices() {
            let dominated =
                in_set[v as usize] || g.neighbors(v).iter().any(|&u| in_set[u as usize]);
            assert!(dominated, "vertex {v} undominated");
        }
    }

    #[test]
    fn k_ds_rounds_multiply_by_k() {
        let g = gen::cycle(16);
        let r1 = GraphProblem::k_dominating_set(&g, 1)
            .eps(0.4)
            .seed(7)
            .solve_with(&ThreePhase);
        let r2 = GraphProblem::k_dominating_set(&g, 2)
            .eps(0.4)
            .seed(7)
            .solve_with(&ThreePhase);
        assert!(
            r2.rounds() > r1.rounds() / 2,
            "k=2 simulation cost reflected"
        );
        assert!(!r2.vertices.is_empty());
    }

    #[test]
    fn weighted_problems_flow_through_the_builder() {
        let g = gen::star(12);
        let mut w = vec![1u64; 12];
        w[0] = 100; // hub dominates
        let r = GraphProblem::max_independent_set(&g)
            .weights(&w)
            .eps(0.2)
            .seed(4)
            .solve_with(&ThreePhase);
        assert!(r.weight >= 100, "must take the heavy hub: {}", r.weight);
        assert_eq!(
            r.weight,
            r.vertices.iter().map(|&v| w[v as usize]).sum::<u64>()
        );
    }

    #[test]
    fn any_backend_slots_into_the_builder() {
        let g = gen::cycle(15);
        for solver in [&Gkm as &dyn Solver, &Ensemble, &BranchAndBound] {
            let r = GraphProblem::min_dominating_set(&g)
                .eps(0.4)
                .seed(8)
                .solve_with(solver);
            assert!(r.report.feasible(), "{} infeasible", solver.name());
            assert!(!r.vertices.is_empty());
        }
    }

    #[test]
    #[should_panic]
    fn weights_on_matching_panic() {
        let g = gen::cycle(4);
        let _ = GraphProblem::max_matching(&g).weights(&[1, 1, 1, 1]);
    }
}
