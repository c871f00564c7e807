//! Packing and covering ILP instances (Definitions 1.1–1.3 of the paper).
//!
//! An instance is `(A ∈ R^{m×n}_{≥0}, b ∈ R^m_{≥0}, w ∈ Z^n_{≥0})` with 0/1
//! variables; packing maximises `wᵀx` subject to `Ax ≤ b`, covering
//! minimises `wᵀx` subject to `Ax ≥ b`. The associated communication
//! hypergraph has one vertex per variable and one hyperedge per constraint
//! support (Definition 1.3) — it is constructed eagerly and drives all
//! distance computations in the distributed algorithms.

use dapc_graph::{Graph, Hypergraph, Vertex};
use std::sync::{Arc, OnceLock};

/// Whether an instance packs (maximise, `Ax ≤ b`) or covers (minimise,
/// `Ax ≥ b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Maximise `wᵀx` subject to `Ax ≤ b`.
    Packing,
    /// Minimise `wᵀx` subject to `Ax ≥ b`.
    Covering,
}

/// A single row of the constraint system: `Σ coeffs[i].1 · x_{coeffs[i].0}
/// {≤, ≥} bound`, with non-negative coefficients, sorted by variable.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    coeffs: Vec<(Vertex, f64)>,
    bound: f64,
}

impl Constraint {
    /// Builds a constraint; coefficients are sorted, merged and
    /// zero-entries dropped.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient or the bound is negative or non-finite.
    pub fn new(mut coeffs: Vec<(Vertex, f64)>, bound: f64) -> Self {
        assert!(bound >= 0.0 && bound.is_finite(), "bound must be ≥ 0");
        for &(v, a) in &coeffs {
            assert!(
                a >= 0.0 && a.is_finite(),
                "coefficient of x_{v} must be ≥ 0, got {a}"
            );
        }
        coeffs.sort_unstable_by_key(|&(v, _)| v);
        let mut merged: Vec<(Vertex, f64)> = Vec::with_capacity(coeffs.len());
        for (v, a) in coeffs {
            if a == 0.0 {
                continue;
            }
            match merged.last_mut() {
                Some((lv, la)) if *lv == v => *la += a,
                _ => merged.push((v, a)),
            }
        }
        Constraint {
            coeffs: merged,
            bound,
        }
    }

    /// The sorted non-zero `(variable, coefficient)` pairs.
    pub fn coeffs(&self) -> &[(Vertex, f64)] {
        &self.coeffs
    }

    /// The right-hand side.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The support (variables with non-zero coefficient), sorted.
    pub fn support(&self) -> Vec<Vertex> {
        self.coeffs.iter().map(|&(v, _)| v).collect()
    }

    /// Evaluates the left-hand side on a 0/1 assignment.
    pub fn lhs(&self, x: &[bool]) -> f64 {
        self.coeffs
            .iter()
            .filter(|&&(v, _)| x[v as usize])
            .map(|&(_, a)| a)
            .sum()
    }

    /// The sum of all coefficients (LHS under the all-ones assignment).
    pub fn coeff_sum(&self) -> f64 {
        self.coeffs.iter().map(|&(_, a)| a).sum()
    }
}

/// Numeric slack tolerated when checking constraints (the instances we
/// build use small integer-ish coefficients, so this is generous).
pub const FEASIBILITY_EPS: f64 = 1e-9;

/// An immutable packing or covering ILP instance.
///
/// # Examples
///
/// Maximum independent set on a triangle:
///
/// ```
/// use dapc_ilp::instance::{Constraint, IlpInstance, Sense};
///
/// let constraints = vec![
///     Constraint::new(vec![(0, 1.0), (1, 1.0)], 1.0),
///     Constraint::new(vec![(1, 1.0), (2, 1.0)], 1.0),
///     Constraint::new(vec![(0, 1.0), (2, 1.0)], 1.0),
/// ];
/// let ilp = IlpInstance::packing(3, vec![1, 1, 1], constraints);
/// assert!(ilp.is_feasible(&[true, false, false]));
/// assert!(!ilp.is_feasible(&[true, true, false]));
/// assert_eq!(ilp.value(&[true, false, false]), 1);
/// ```
#[derive(Clone, Debug)]
pub struct IlpInstance {
    /// Everything the instance holds, shared by its clones: a clone costs
    /// one reference count, and the memoised fingerprint and primal graph
    /// are filled once for the instance and all its clones.
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    sense: Sense,
    weights: Vec<u64>,
    constraints: Vec<Constraint>,
    hypergraph: Hypergraph,
    /// [`IlpInstance::fingerprint`], filled by its first call.
    fingerprint: OnceLock<u64>,
    /// [`IlpInstance::primal_graph`], filled by its first call.
    primal: OnceLock<Graph>,
}

impl IlpInstance {
    fn build(sense: Sense, n: usize, weights: Vec<u64>, constraints: Vec<Constraint>) -> Self {
        assert_eq!(weights.len(), n, "one weight per variable");
        for c in &constraints {
            for &(v, _) in c.coeffs() {
                assert!(
                    (v as usize) < n,
                    "constraint mentions variable {v} >= n={n}"
                );
            }
        }
        if sense == Sense::Covering {
            for (j, c) in constraints.iter().enumerate() {
                assert!(
                    c.coeff_sum() + FEASIBILITY_EPS >= c.bound(),
                    "covering constraint {j} cannot be satisfied even by all-ones"
                );
            }
        }
        let hypergraph = Hypergraph::new(n, constraints.iter().map(Constraint::support).collect());
        IlpInstance {
            inner: Arc::new(Inner {
                sense,
                weights,
                constraints,
                hypergraph,
                fingerprint: OnceLock::new(),
                primal: OnceLock::new(),
            }),
        }
    }

    /// Builds a packing instance (maximise `wᵀx`, `Ax ≤ b`).
    ///
    /// # Panics
    ///
    /// Panics on negative coefficients or dangling variable references.
    pub fn packing(n: usize, weights: Vec<u64>, constraints: Vec<Constraint>) -> Self {
        Self::build(Sense::Packing, n, weights, constraints)
    }

    /// Builds a covering instance (minimise `wᵀx`, `Ax ≥ b`).
    ///
    /// # Panics
    ///
    /// Panics additionally if some constraint is unsatisfiable even by the
    /// all-ones assignment (the instance would be infeasible).
    pub fn covering(n: usize, weights: Vec<u64>, constraints: Vec<Constraint>) -> Self {
        Self::build(Sense::Covering, n, weights, constraints)
    }

    /// Packing or covering.
    pub fn sense(&self) -> Sense {
        self.inner.sense
    }

    /// Number of variables.
    pub fn n(&self) -> usize {
        self.inner.weights.len()
    }

    /// Number of constraints.
    pub fn m(&self) -> usize {
        self.inner.constraints.len()
    }

    /// The weight of variable `v`.
    pub fn weight(&self, v: Vertex) -> u64 {
        self.inner.weights[v as usize]
    }

    /// All weights.
    pub fn weights(&self) -> &[u64] {
        &self.inner.weights
    }

    /// `‖w‖₁` — the paper assumes this is polynomial in `n`.
    pub fn total_weight(&self) -> u64 {
        self.weights().iter().sum()
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.inner.constraints
    }

    /// The Definition 1.3 communication hypergraph (vertex = variable,
    /// hyperedge = constraint support).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.inner.hypergraph
    }

    /// The primal graph of [`IlpInstance::hypergraph`]: `u ~ v` iff some
    /// constraint involves both (the communication graph of Definition 1.3).
    ///
    /// It is built on the first call and kept, so every solve of one
    /// instance and of all its clones shares one build.
    pub fn primal_graph(&self) -> &Graph {
        self.inner
            .primal
            .get_or_init(|| self.hypergraph().primal_graph())
    }

    /// A stable structural fingerprint of the instance (FNV-1a over the
    /// sense, weights and constraint system). Two instances with equal
    /// fingerprints are, with overwhelming probability, the same ILP —
    /// batch runtimes use this to key per-instance-family caches without
    /// holding onto the instances themselves.
    ///
    /// It is folded on the first call and kept, so later calls, and
    /// calls on clones, cost nothing. It keys the in-memory families of
    /// `dapc-runtime`'s `PrepCache`, and nothing persists it. A unit test
    /// pins two values all the same, so a change to how an instance is
    /// stored cannot move the bytes it folds unnoticed.
    pub fn fingerprint(&self) -> u64 {
        *self
            .inner
            .fingerprint
            .get_or_init(|| self.fold_fingerprint())
    }

    /// The fold behind [`IlpInstance::fingerprint`].
    fn fold_fingerprint(&self) -> u64 {
        let mut h = crate::hash::FNV_OFFSET;
        let mut eat = |v: u64| h = crate::hash::fnv1a_u64(h, v);
        eat(match self.sense() {
            Sense::Packing => 1,
            Sense::Covering => 2,
        });
        eat(self.n() as u64);
        for &w in self.weights() {
            eat(w);
        }
        eat(self.m() as u64);
        for c in self.constraints() {
            eat(c.bound().to_bits());
            eat(c.coeffs().len() as u64);
            for &(v, a) in c.coeffs() {
                eat(v as u64);
                eat(a.to_bits());
            }
        }
        h
    }

    /// Whether a 0/1 assignment satisfies every constraint.
    pub fn is_feasible(&self, x: &[bool]) -> bool {
        assert_eq!(x.len(), self.n(), "assignment length mismatch");
        self.constraints().iter().all(|c| match self.sense() {
            Sense::Packing => c.lhs(x) <= c.bound() + FEASIBILITY_EPS,
            Sense::Covering => c.lhs(x) + FEASIBILITY_EPS >= c.bound(),
        })
    }

    /// Ids of constraints violated by `x` (empty iff feasible).
    pub fn violated_constraints(&self, x: &[bool]) -> Vec<usize> {
        self.constraints()
            .iter()
            .enumerate()
            .filter(|(_, c)| match self.sense() {
                Sense::Packing => c.lhs(x) > c.bound() + FEASIBILITY_EPS,
                Sense::Covering => c.lhs(x) + FEASIBILITY_EPS < c.bound(),
            })
            .map(|(j, _)| j)
            .collect()
    }

    /// Objective value `wᵀx`.
    pub fn value(&self, x: &[bool]) -> u64 {
        assert_eq!(x.len(), self.n(), "assignment length mismatch");
        x.iter()
            .zip(self.weights())
            .filter(|(&xi, _)| xi)
            .map(|(_, &w)| w)
            .sum()
    }

    /// `W(P, S)` of §2.2/§2.3: the weight of solution `x` restricted to the
    /// subset `S` (given as a membership mask).
    ///
    /// # Panics
    ///
    /// Panics if mask lengths mismatch.
    pub fn value_on(&self, x: &[bool], subset: &[bool]) -> u64 {
        assert_eq!(x.len(), self.n());
        assert_eq!(subset.len(), self.n());
        (0..self.n())
            .filter(|&i| x[i] && subset[i])
            .map(|i| self.inner.weights[i])
            .sum()
    }

    /// The trivial feasible solution: all-zeros for packing, all-ones for
    /// covering.
    pub fn trivial_solution(&self) -> Vec<bool> {
        match self.sense() {
            Sense::Packing => vec![false; self.n()],
            Sense::Covering => vec![true; self.n()],
        }
    }
}

impl std::fmt::Display for IlpInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} ILP(n={}, m={}, ‖w‖₁={})",
            self.sense(),
            self.n(),
            self.m(),
            self.total_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_mis() -> IlpInstance {
        IlpInstance::packing(
            3,
            vec![1, 2, 3],
            vec![
                Constraint::new(vec![(0, 1.0), (1, 1.0)], 1.0),
                Constraint::new(vec![(1, 1.0), (2, 1.0)], 1.0),
                Constraint::new(vec![(0, 1.0), (2, 1.0)], 1.0),
            ],
        )
    }

    #[test]
    fn constraint_merges_duplicates_and_drops_zeros() {
        let c = Constraint::new(vec![(2, 1.0), (0, 0.0), (2, 2.0), (1, 3.0)], 5.0);
        assert_eq!(c.coeffs(), &[(1, 3.0), (2, 3.0)]);
        assert_eq!(c.support(), vec![1, 2]);
        assert_eq!(c.coeff_sum(), 6.0);
    }

    #[test]
    fn packing_feasibility() {
        let ilp = triangle_mis();
        assert!(ilp.is_feasible(&[false, false, false]));
        assert!(ilp.is_feasible(&[false, false, true]));
        assert!(!ilp.is_feasible(&[true, true, true]));
        assert_eq!(ilp.violated_constraints(&[true, true, false]), vec![0]);
    }

    #[test]
    fn values_and_restricted_values() {
        let ilp = triangle_mis();
        let x = [true, false, true];
        assert_eq!(ilp.value(&x), 4);
        assert_eq!(ilp.value_on(&x, &[true, true, false]), 1);
        assert_eq!(ilp.value_on(&x, &[false, true, true]), 3);
    }

    #[test]
    fn covering_validation_rejects_impossible() {
        let ok = IlpInstance::covering(
            2,
            vec![1, 1],
            vec![Constraint::new(vec![(0, 1.0), (1, 1.0)], 2.0)],
        );
        assert!(ok.is_feasible(&[true, true]));
        assert!(!ok.is_feasible(&[true, false]));
        let result = std::panic::catch_unwind(|| {
            IlpInstance::covering(2, vec![1, 1], vec![Constraint::new(vec![(0, 1.0)], 2.0)])
        });
        assert!(result.is_err(), "unsatisfiable covering must be rejected");
    }

    #[test]
    fn hypergraph_matches_supports() {
        let ilp = triangle_mis();
        let h = ilp.hypergraph();
        assert_eq!(h.m(), 3);
        assert_eq!(h.edge(0), &[0, 1]);
        assert_eq!(h.distance(0, 2), Some(1));
    }

    #[test]
    fn trivial_solutions_are_feasible() {
        let p = triangle_mis();
        assert!(p.is_feasible(&p.trivial_solution()));
        let c = IlpInstance::covering(
            3,
            vec![1, 1, 1],
            vec![Constraint::new(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 2.0)],
        );
        assert!(c.is_feasible(&c.trivial_solution()));
    }

    #[test]
    fn fractional_coefficients_work() {
        let ilp = IlpInstance::packing(
            3,
            vec![1, 1, 1],
            vec![Constraint::new(vec![(0, 0.5), (1, 0.7), (2, 0.9)], 1.2)],
        );
        assert!(ilp.is_feasible(&[true, true, false])); // 1.2 <= 1.2
        assert!(!ilp.is_feasible(&[true, false, true])); // 1.4 > 1.2
    }

    #[test]
    #[should_panic]
    fn negative_coefficients_rejected() {
        let _ = Constraint::new(vec![(0, -1.0)], 1.0);
    }

    #[test]
    fn fingerprint_separates_instances() {
        let a = triangle_mis();
        let b = triangle_mis();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different weights, different constraints, different sense: all
        // move the fingerprint.
        let heavier = IlpInstance::packing(3, vec![2, 1, 1], a.constraints().to_vec());
        assert_ne!(a.fingerprint(), heavier.fingerprint());
        let looser = IlpInstance::packing(
            3,
            vec![1, 1, 1],
            vec![Constraint::new(vec![(0, 1.0), (1, 1.0)], 2.0)],
        );
        assert_ne!(a.fingerprint(), looser.fingerprint());
        let cover = IlpInstance::covering(
            3,
            vec![1, 1, 1],
            vec![Constraint::new(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 1.0)],
        );
        assert_ne!(a.fingerprint(), cover.fingerprint());
    }

    #[test]
    fn primal_graph_is_built_once_and_matches_the_hypergraph() {
        use crate::problems;
        use dapc_graph::gen;
        let ilp = problems::min_dominating_set_unweighted(&gen::grid(3, 4));
        let before = ilp.clone();
        let first: *const Graph = ilp.primal_graph();
        assert!(
            std::ptr::eq(first, ilp.primal_graph()),
            "a second call rebuilt it"
        );
        assert_eq!(*ilp.primal_graph(), ilp.hypergraph().primal_graph());
        assert!(
            std::ptr::eq(first, before.primal_graph()),
            "a clone taken before"
        );
        assert!(
            std::ptr::eq(first, ilp.clone().primal_graph()),
            "a clone taken after"
        );
    }

    #[test]
    fn clones_share_storage() {
        use crate::problems;
        use dapc_graph::gen;
        let ilp = problems::min_dominating_set_unweighted(&gen::cycle(50));
        let copy = ilp.clone();
        assert!(Arc::ptr_eq(&ilp.inner, &copy.inner));
        assert!(std::ptr::eq(ilp.constraints(), copy.constraints()));
        assert!(std::ptr::eq(ilp.hypergraph(), copy.hypergraph()));
        assert_eq!(copy.fingerprint(), ilp.fingerprint());
    }

    /// The fingerprint keys the in-memory `PrepCache` families. Nothing
    /// persists it, but these values are pinned so that a change to how
    /// an instance is stored cannot move the bytes it folds unnoticed.
    /// Clones and fresh builds share them, whether they were taken before
    /// or after the first call.
    #[test]
    fn fingerprints_are_pinned() {
        use crate::problems;
        use dapc_graph::gen;
        let build = [
            || problems::max_independent_set_unweighted(&gen::cycle(6)),
            || problems::min_dominating_set_unweighted(&gen::grid(2, 3)),
        ];
        for (build, pinned) in build
            .into_iter()
            .zip([0x23d3_6bc6_6c64_a238, 0x0329_4ea8_a7a2_cf1b])
        {
            let ilp = build();
            let before = ilp.clone();
            assert_eq!(ilp.fingerprint(), pinned);
            let after = ilp.clone();
            assert_eq!(ilp.fingerprint(), pinned, "a second call");
            assert_eq!(
                before.fingerprint(),
                pinned,
                "a clone taken before the first call"
            );
            assert_eq!(after.fingerprint(), pinned, "a clone taken after it");
            assert_eq!(
                build().fingerprint(),
                pinned,
                "an equal instance built afresh"
            );
        }
    }
}
