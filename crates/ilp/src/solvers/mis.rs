//! Exact maximum-weight independent set via bitset branch & bound.
//!
//! Independent set is the canonical packing problem of the paper (§1.4.2
//! presents the whole packing machinery through MIS), and every carve /
//! cluster step needs optimal local independent sets. This solver handles
//! the conflict-graph form: pairwise constraints only.
//!
//! # The search and its bounds
//!
//! Each search node holds the candidates `cand` still free to join the
//! set and branches on the *last* heaviest candidate (the tie rule of
//! `max_by_key`): first include it, then exclude it. The incumbent is
//! replaced only on strict improvement, so the answer is the first node
//! in DFS preorder that reaches the optimum. The branching rule is
//! therefore part of the output contract: on ties, another rule returns
//! another optimal set.
//!
//! Two bounds on what a node's subtree can still add prune it when they
//! do not exceed `best − current`:
//! - the remaining weight `Σ_{v ∈ cand} w(v)`;
//! - a greedy clique cover of `cand`: each clique is seeded at the lowest
//!   remaining candidate and grown by intersecting closed neighbourhoods.
//!   An independent set holds at most one vertex per clique, so the sum
//!   of the cliques' heaviest weights bounds the gain. The cover stops as
//!   soon as the sum exceeds `best − current`, runs on two scratch bitsets
//!   of the search, and is only evaluated when `current ≤ best` (a node
//!   with `current > best` must update the incumbent).
//!
//! Why no output moves: a valid bound prunes a subtree only when no node
//! in it can strictly beat the incumbent held at its root, so removing
//! the subtree changes no later incumbent. The bounded search visits the
//! unbounded tree minus those subtrees, with the same updates, and
//! returns the same `(weight, set)` in at most as many nodes. The caveat
//! is `node_limit`: a solve that exhausts it without the clique bound may
//! finish with it, or stop at a different (never worse) incumbent.

use crate::solvers::SolverBudget;
use dapc_graph::{Graph, Vertex};

/// A dynamic bitset sized for `n` bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    pub(crate) fn empty(n: usize) -> Self {
        Bits {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn full(n: usize) -> Self {
        let mut b = Bits::empty(n);
        for i in 0..n {
            b.set(i);
        }
        b
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn and_not(&self, other: &Bits) -> Bits {
        Bits {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
        }
    }

    #[allow(dead_code)]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// Result of an independent-set search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MisResult {
    /// Membership mask of the best independent set found.
    pub in_set: Vec<bool>,
    /// Its total weight.
    pub weight: u64,
    /// Whether the search completed (`false` = node budget exhausted; the
    /// result is still a valid independent set, just possibly sub-optimal).
    pub exact: bool,
}

/// Maximum-weight independent set of `g` with the given weights.
///
/// Branch & bound over candidate bitsets: branch on the last heaviest
/// candidate vertex, prune with the remaining-weight and clique-cover
/// bounds (see the [module docs](self)). `budget.node_limit` caps the
/// search tree (`u64::MAX` means "run to optimality").
///
/// # Panics
///
/// Panics if `weights.len() != g.n()`.
///
/// ```
/// use dapc_graph::gen;
/// use dapc_ilp::solvers::mis::max_weight_independent_set;
/// use dapc_ilp::solvers::SolverBudget;
///
/// let g = gen::cycle(5);
/// let r = max_weight_independent_set(&g, &[1, 1, 1, 1, 1], &SolverBudget::unlimited());
/// assert_eq!(r.weight, 2);
/// assert!(r.exact);
/// ```
pub fn max_weight_independent_set(g: &Graph, weights: &[u64], budget: &SolverBudget) -> MisResult {
    assert_eq!(weights.len(), g.n());
    if g.max_degree() <= 2 {
        // Disjoint paths and cycles: exact linear-time DP. This is the
        // common case for carved cluster sub-instances of cycle/path
        // benchmarks and keeps large-n experiments exact.
        return mwis_degree_two(g, weights);
    }
    let n = g.n();
    let closed: Vec<Bits> = (0..n)
        .map(|v| {
            let mut b = Bits::empty(n);
            b.set(v);
            for &u in g.neighbors(v as Vertex) {
                b.set(u as usize);
            }
            b
        })
        .collect();
    let mut ctx = SearchCtx {
        weights,
        closed: &closed,
        best_weight: 0,
        best_set: Bits::empty(n),
        nodes_left: budget.node_limit,
        exact: true,
        rest: Bits::empty(n),
        grow: Bits::empty(n),
    };
    // Greedy incumbent (weight-descending) to tighten pruning early.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(weights[v]));
    let mut greedy = Bits::empty(n);
    let mut greedy_w = 0u64;
    let mut blocked = Bits::empty(n);
    for v in order {
        if !blocked.get(v) && weights[v] > 0 {
            greedy.set(v);
            greedy_w += weights[v];
            for i in closed[v].iter_ones() {
                blocked.set(i);
            }
        }
    }
    ctx.best_weight = greedy_w;
    ctx.best_set = greedy;
    let mut chosen = Bits::empty(n);
    let cand = Bits::full(n);
    ctx.root(&cand, &mut chosen);
    MisResult {
        in_set: (0..n).map(|v| ctx.best_set.get(v)).collect(),
        weight: ctx.best_weight,
        exact: ctx.exact,
    }
}

struct SearchCtx<'a> {
    weights: &'a [u64],
    closed: &'a [Bits],
    best_weight: u64,
    best_set: Bits,
    nodes_left: u64,
    exact: bool,
    /// Scratch of the clique cover: candidates not yet in a clique.
    rest: Bits,
    /// Scratch of the clique cover: candidates adjacent to the whole
    /// clique being grown.
    grow: Bits,
}

impl SearchCtx<'_> {
    /// Runs the search from the root. (Tests swap in the reference search
    /// here and count its nodes.)
    #[cfg(not(test))]
    fn root(&mut self, cand: &Bits, chosen: &mut Bits) {
        self.search(cand, chosen, 0);
    }

    fn search(&mut self, cand: &Bits, chosen: &mut Bits, current: u64) {
        if self.nodes_left == 0 {
            self.exact = false;
            return;
        }
        self.nodes_left -= 1;
        // Bound: everything still in `cand` could join.
        let potential: u64 = cand.iter_ones().map(|v| self.weights[v]).sum();
        if current + potential <= self.best_weight {
            return;
        }
        if current > self.best_weight {
            self.best_weight = current;
            self.best_set = chosen.clone();
        } else if self.clique_cover_fits(cand, self.best_weight - current) {
            return;
        }
        // Branch vertex: the last heaviest candidate.
        let Some(v) = cand.iter_ones().max_by_key(|&v| self.weights[v]) else {
            return;
        };
        // Include v.
        if self.weights[v] > 0 {
            let next = cand.and_not(&self.closed[v]);
            chosen.set(v);
            self.search(&next, chosen, current + self.weights[v]);
            chosen.clear(v);
        }
        // Exclude v.
        let mut without = cand.clone();
        without.clear(v);
        self.search(&without, chosen, current);
    }

    /// Whether a greedy clique cover of `cand` bounds the weight of its
    /// independent sets by at most `limit`. Each clique starts at the
    /// lowest candidate left and takes the lowest candidate adjacent to
    /// all its members until none is; the cliques' heaviest weights are
    /// summed until the sum exceeds `limit`.
    fn clique_cover_fits(&mut self, cand: &Bits, limit: u64) -> bool {
        let (rest, grow) = (&mut self.rest.words, &mut self.grow.words);
        rest.copy_from_slice(&cand.words);
        let mut total = 0u64;
        // Every clique member is at or above its seed, so the words below
        // the seed's are already empty in `rest` and never read in `grow`.
        let mut wi = 0;
        while wi < rest.len() {
            if rest[wi] == 0 {
                wi += 1;
                continue;
            }
            let seed = wi * 64 + rest[wi].trailing_zeros() as usize;
            rest[wi] &= rest[wi] - 1;
            let mut heaviest = self.weights[seed];
            for (g, (r, c)) in grow[wi..]
                .iter_mut()
                .zip(rest[wi..].iter().zip(&self.closed[seed].words[wi..]))
            {
                *g = r & c;
            }
            let mut gi = wi;
            while gi < grow.len() {
                if grow[gi] == 0 {
                    gi += 1;
                    continue;
                }
                let low = grow[gi] & grow[gi].wrapping_neg();
                let u = gi * 64 + low.trailing_zeros() as usize;
                rest[gi] &= !low;
                heaviest = heaviest.max(self.weights[u]);
                for (g, c) in grow[gi..].iter_mut().zip(&self.closed[u].words[gi..]) {
                    *g &= c;
                }
                grow[gi] &= !low;
            }
            total += heaviest;
            if total > limit {
                return false;
            }
        }
        true
    }
}

/// Exact MWIS on graphs of maximum degree ≤ 2 (disjoint unions of paths
/// and cycles) by dynamic programming, linear time. One walk buffer and
/// one set of DP buffers serve every component.
fn mwis_degree_two(g: &Graph, weights: &[u64]) -> MisResult {
    let n = g.n();
    let mut in_set = vec![false; n];
    let mut total = 0u64;
    let mut visited = vec![false; n];
    let mut order: Vec<Vertex> = Vec::new();
    let mut dp = PathDp::default();
    for s in 0..n as Vertex {
        if visited[s as usize] {
            continue;
        }
        // Trace the component as an ordered walk. Paths start at an end;
        // cycles start at `s`.
        let start = path_end(g, s).unwrap_or(s);
        order.clear();
        order.push(start);
        visited[start as usize] = true;
        let mut prev = start;
        let mut cur = start;
        loop {
            let next = g
                .neighbors(cur)
                .iter()
                .copied()
                .find(|&w| w != prev && !visited[w as usize]);
            match next {
                Some(w) => {
                    visited[w as usize] = true;
                    order.push(w);
                    prev = cur;
                    cur = w;
                }
                None => break,
            }
        }
        let is_cycle = order.len() >= 3 && g.has_edge(*order.last().unwrap(), start);
        if is_cycle {
            // Case A: exclude the first vertex; DP on the rest as a path.
            let wa = dp.solve(&order[1..], weights, 0);
            // Case B: include the first vertex; its two cycle neighbours
            // (order[1] and order.last()) are forced out.
            let inner = &order[2..order.len() - 1];
            let wb = dp.solve(inner, weights, 1) + weights[start as usize];
            if wb > wa {
                in_set[start as usize] = true;
                dp.mark(1, inner, &mut in_set);
                total += wb;
            } else {
                dp.mark(0, &order[1..], &mut in_set);
                total += wa;
            }
        } else {
            total += dp.solve(&order, weights, 0);
            dp.mark(0, &order, &mut in_set);
        }
    }
    MisResult {
        in_set,
        weight: total,
        exact: true,
    }
}

/// The end of `s`'s component that a walk from `s` towards its last
/// neighbour reaches, or `None` if the walk comes back to `s` (the
/// component is a cycle). A vertex of degree at most one is its own end.
/// Needs maximum degree two.
fn path_end(g: &Graph, s: Vertex) -> Option<Vertex> {
    let (mut prev, mut cur) = (s, s);
    loop {
        let nb = g.neighbors(cur);
        if nb.len() <= 1 {
            return Some(cur);
        }
        (prev, cur) = (cur, if nb[1] != prev { nb[1] } else { nb[0] });
        if cur == s {
            return None;
        }
    }
}

/// Reusable buffers of the MWIS DP along a path: the best weights with
/// and without each vertex, and the chosen flags of two solves.
#[derive(Default)]
struct PathDp {
    take: Vec<u64>,
    skip: Vec<u64>,
    chosen: [Vec<bool>; 2],
}

impl PathDp {
    /// Classic MWIS DP along an ordered path: returns the best weight and
    /// leaves the chosen flags, one per vertex of `order`, in slot `slot`.
    fn solve(&mut self, order: &[Vertex], weights: &[u64], slot: usize) -> u64 {
        let chosen = &mut self.chosen[slot];
        chosen.clear();
        if order.is_empty() {
            return 0;
        }
        let k = order.len();
        // take[i]: best including i; skip[i]: best excluding i.
        let (take, skip) = (&mut self.take, &mut self.skip);
        take.clear();
        take.resize(k, 0);
        skip.clear();
        skip.resize(k, 0);
        take[0] = weights[order[0] as usize];
        for i in 1..k {
            take[i] = skip[i - 1] + weights[order[i] as usize];
            skip[i] = take[i - 1].max(skip[i - 1]);
        }
        chosen.resize(k, false);
        let mut i = k;
        let mut taking = take[k - 1] > skip[k - 1];
        while i > 0 {
            i -= 1;
            if taking {
                chosen[i] = true;
                // came from skip[i-1]
                taking = false;
            } else if i > 0 {
                taking = take[i - 1] > skip[i - 1];
            }
        }
        take[k - 1].max(skip[k - 1])
    }

    /// Adds the vertices slot `slot` chose, the `i`-th flag standing for
    /// `order[i]`, to `in_set`.
    fn mark(&self, slot: usize, order: &[Vertex], in_set: &mut [bool]) {
        for (&v, &c) in order.iter().zip(&self.chosen[slot]) {
            if c {
                in_set[v as usize] = true;
            }
        }
    }
}

/// Exhaustive MWIS for cross-checking (exponential; keep `n ≤ 20`).
pub fn brute_force_mis(g: &Graph, weights: &[u64]) -> u64 {
    let n = g.n();
    assert!(n <= 20, "brute force limited to 20 vertices");
    let mut best = 0u64;
    for mask in 0u32..(1 << n) {
        let ok = g
            .edges()
            .all(|(u, v)| mask >> u & 1 == 0 || mask >> v & 1 == 0);
        if ok {
            let w: u64 = (0..n)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| weights[i])
                .sum();
            best = best.max(w);
        }
    }
    best
}

/// Test instrumentation of both exact searches, this module's and the
/// covering search of [`super::bnb`]: run solves with the reference
/// searches (the unbounded originals) instead of the bounded ones, and
/// count the search nodes a solve visits (node limit minus nodes left).
#[cfg(test)]
pub(crate) mod probe {
    use crate::restrict::SubInstance;
    use crate::solvers::{self, Solution, SolverBudget};
    use std::cell::Cell;

    thread_local! {
        static REFERENCE: Cell<bool> = const { Cell::new(false) };
        static NODES: Cell<u64> = const { Cell::new(0) };
    }

    /// Whether searches on this thread run the reference.
    pub(crate) fn reference() -> bool {
        REFERENCE.get()
    }

    /// Adds the node count of a search that just finished.
    pub(crate) fn record(nodes: u64) {
        NODES.set(NODES.get() + nodes);
    }

    /// Runs `f` with the bounded searches, or with the reference ones,
    /// and returns its result with the search nodes it visited.
    pub(crate) fn run<T>(reference: bool, f: impl FnOnce() -> T) -> (T, u64) {
        REFERENCE.set(reference);
        NODES.set(0);
        let out = f();
        REFERENCE.set(false);
        (out, NODES.get())
    }

    /// Solves `sub` through [`solvers::solve`] with the bounded and the
    /// reference searches, and checks the bounded solve: feasible, never
    /// more nodes, and bit-identical whenever the reference finished.
    /// Returns the bounded solution and both node counts.
    pub(crate) fn check(sub: &SubInstance, budget: &SolverBudget) -> (Solution, u64, u64) {
        let (bounded, nodes) = run(false, || solvers::solve(sub, budget));
        let (reference, reference_nodes) = run(true, || solvers::solve(sub, budget));
        assert!(
            sub.is_feasible(&bounded.assignment),
            "infeasible: {bounded:?}"
        );
        assert!(
            nodes <= reference_nodes,
            "{nodes} nodes, reference {reference_nodes}"
        );
        if reference.exact {
            assert_eq!(bounded, reference);
        }
        (bounded, nodes, reference_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;
    use crate::restrict::{covering_restriction, packing_restriction, SubInstance};
    use crate::solvers::{self, Method};
    use dapc_graph::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::RngExt;

    impl SearchCtx<'_> {
        pub(super) fn root(&mut self, cand: &Bits, chosen: &mut Bits) {
            let before = self.nodes_left;
            if probe::reference() {
                self.reference_search(cand, chosen, 0);
            } else {
                self.search(cand, chosen, 0);
            }
            probe::record(before - self.nodes_left);
        }

        /// The search without the clique-cover bound: the reference the
        /// bounded search must reproduce.
        fn reference_search(&mut self, cand: &Bits, chosen: &mut Bits, current: u64) {
            if self.nodes_left == 0 {
                self.exact = false;
                return;
            }
            self.nodes_left -= 1;
            let potential: u64 = cand.iter_ones().map(|v| self.weights[v]).sum();
            if current + potential <= self.best_weight {
                return;
            }
            if current > self.best_weight {
                self.best_weight = current;
                self.best_set = chosen.clone();
            }
            let Some(v) = cand.iter_ones().max_by_key(|&v| self.weights[v]) else {
                return;
            };
            if self.weights[v] > 0 {
                let next = cand.and_not(&self.closed[v]);
                chosen.set(v);
                self.reference_search(&next, chosen, current + self.weights[v]);
                chosen.clear(v);
            }
            let mut without = cand.clone();
            without.clear(v);
            self.reference_search(&without, chosen, current);
        }
    }

    fn whole(ilp: &crate::instance::IlpInstance) -> SubInstance {
        match ilp.sense() {
            crate::instance::Sense::Packing => packing_restriction(ilp, &vec![true; ilp.n()]),
            crate::instance::Sense::Covering => covering_restriction(ilp, &vec![true; ilp.n()]),
        }
    }

    /// A gnp, grid, 4-regular or complete-bipartite graph.
    fn reference_graph(family: usize, rng: &mut StdRng) -> Graph {
        match family {
            0 => {
                let n = rng.random_range(8..30);
                gen::gnp(n, rng.random_range(0.08..0.4), rng)
            }
            1 => gen::grid(rng.random_range(2..6), rng.random_range(3..7)),
            2 => gen::random_regular(2 * rng.random_range(3..12), 4, rng),
            _ => gen::complete_bipartite(rng.random_range(1..6), rng.random_range(2..8)),
        }
    }

    /// Unit, tied (two values), zero-heavy and random weights.
    fn weight_patterns(n: usize, rng: &mut StdRng) -> [Vec<u64>; 4] {
        [
            vec![1; n],
            (0..n).map(|_| rng.random_range(2..4)).collect(),
            (0..n).map(|_| rng.random_range(0..3)).collect(),
            (0..n).map(|_| rng.random_range(1..21)).collect(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn bounded_mwis_reproduces_the_reference(family in 0usize..4, seed in 0u64..1 << 32) {
            // Through `solvers::solve`: MIS takes `try_conflict_mis`, VC
            // `try_vertex_cover`, and both end in this module's search.
            let mut rng = gen::seeded_rng(seed);
            let g = reference_graph(family, &mut rng);
            for w in weight_patterns(g.n(), &mut rng) {
                let mis = whole(&problems::max_independent_set(&g, w.clone()));
                let (sol, ..) = probe::check(&mis, &SolverBudget::unlimited());
                prop_assert!(sol.exact && sol.method == Method::ConflictMis);
                let vc = whole(&problems::min_vertex_cover(&g, w));
                let (sol, ..) = probe::check(&vc, &SolverBudget::unlimited());
                prop_assert!(sol.exact && sol.method == Method::VertexCover);
            }
        }
    }

    #[test]
    fn the_clique_cover_prunes_on_every_family() {
        // On each family the bounded search visits strictly fewer nodes
        // than the reference, for unit and for random weights.
        let mut rng = gen::seeded_rng(5);
        for family in 0..4 {
            let g = match family {
                0 => gen::gnp(26, 0.2, &mut rng),
                1 => gen::grid(5, 6),
                2 => gen::random_regular(24, 4, &mut rng),
                _ => gen::complete_bipartite(5, 7),
            };
            for w in [vec![1; g.n()], weight_patterns(g.n(), &mut rng)[3].clone()] {
                let mis = whole(&problems::max_independent_set(&g, w));
                let (_, nodes, reference_nodes) = probe::check(&mis, &SolverBudget::unlimited());
                assert!(
                    nodes < reference_nodes,
                    "family {family}: {nodes} vs {reference_nodes}"
                );
            }
        }
    }

    #[test]
    fn an_exhausted_node_limit_leaves_a_feasible_inexact_set() {
        let g = gen::gnp(44, 0.07, &mut gen::seeded_rng(0x9e37_79ba));
        let sub = whole(&problems::max_independent_set_unweighted(&g));
        let budget = SolverBudget { node_limit: 20 };
        for reference in [false, true] {
            let (sol, nodes) = probe::run(reference, || solvers::solve(&sub, &budget));
            assert!(!sol.exact, "reference: {reference}");
            assert_eq!(nodes, 20);
            assert!(sub.is_feasible(&sol.assignment));
            assert_eq!(sol.value, sub.value(&sol.assignment));
        }
    }

    #[test]
    fn benchmark_mis_solves_visit_pinned_node_counts() {
        // The dominant whole-instance MWIS solves of the `ilp_cold`
        // benchmark. A change to the search or its bounds that moves a
        // count updates the pin and says why.
        let gnp = gen::gnp(44, 0.07, &mut gen::seeded_rng(0x9e37_79ba));
        for (g, pinned) in [(gnp, 3347), (gen::grid(6, 7), 1)] {
            let sub = whole(&problems::max_independent_set_unweighted(&g));
            let (sol, nodes) = probe::run(false, || solvers::solve(&sub, &SolverBudget::default()));
            assert!(sol.exact);
            assert_eq!(nodes, pinned, "{g}");
        }
    }

    #[test]
    fn bits_basics() {
        let mut b = Bits::empty(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(64));
        assert!(!b.get(65));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        b.clear(64);
        assert_eq!(b.iter_ones().count(), 2);
        assert!(!Bits::full(3).is_empty());
    }

    #[test]
    fn known_families() {
        let unit = |n: usize| vec![1u64; n];
        assert_eq!(
            max_weight_independent_set(&gen::cycle(5), &unit(5), &SolverBudget::unlimited()).weight,
            2
        );
        assert_eq!(
            max_weight_independent_set(&gen::cycle(8), &unit(8), &SolverBudget::unlimited()).weight,
            4
        );
        assert_eq!(
            max_weight_independent_set(&gen::complete(7), &unit(7), &SolverBudget::unlimited())
                .weight,
            1
        );
        assert_eq!(
            max_weight_independent_set(&gen::star(9), &unit(9), &SolverBudget::unlimited()).weight,
            8
        );
        assert_eq!(
            max_weight_independent_set(&gen::path(7), &unit(7), &SolverBudget::unlimited()).weight,
            4
        );
        assert_eq!(
            max_weight_independent_set(
                &gen::complete_bipartite(4, 6),
                &unit(10),
                &SolverBudget::unlimited()
            )
            .weight,
            6
        );
    }

    #[test]
    fn weighted_beats_cardinality() {
        // Path 0-1-2 with heavy middle: best is {1} (weight 10), not {0,2}.
        let g = gen::path(3);
        let r = max_weight_independent_set(&g, &[1, 10, 1], &SolverBudget::unlimited());
        assert_eq!(r.weight, 10);
        assert_eq!(r.in_set, vec![false, true, false]);
    }

    #[test]
    fn zero_weight_vertices_are_skippable() {
        let g = gen::path(3);
        let r = max_weight_independent_set(&g, &[0, 5, 0], &SolverBudget::unlimited());
        assert_eq!(r.weight, 5);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = gen::seeded_rng(23);
        for trial in 0..50 {
            let n = 5 + trial % 10;
            let g = gen::gnp(n, 0.4, &mut rng);
            let weights: Vec<u64> = (0..n).map(|i| 1 + (i as u64 * 7) % 5).collect();
            let r = max_weight_independent_set(&g, &weights, &SolverBudget::unlimited());
            assert!(r.exact);
            assert_eq!(r.weight, brute_force_mis(&g, &weights), "trial {trial}");
            // Returned set is genuinely independent and has claimed weight.
            let claimed: u64 = (0..n).filter(|&v| r.in_set[v]).map(|v| weights[v]).sum();
            assert_eq!(claimed, r.weight);
            for (u, v) in g.edges() {
                assert!(!(r.in_set[u as usize] && r.in_set[v as usize]));
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_reported_and_valid() {
        let mut rng = gen::seeded_rng(31);
        let g = gen::gnp(60, 0.2, &mut rng);
        let w = vec![1u64; 60];
        let r = max_weight_independent_set(&g, &w, &SolverBudget { node_limit: 50 });
        assert!(!r.exact);
        for (u, v) in g.edges() {
            assert!(!(r.in_set[u as usize] && r.in_set[v as usize]));
        }
        assert!(r.weight >= 1);
    }

    #[test]
    fn degree_two_dp_matches_known_values() {
        // Long cycles and paths solved exactly in linear time.
        let r = max_weight_independent_set(
            &gen::cycle(10_001),
            &vec![1; 10_001],
            &SolverBudget::unlimited(),
        );
        assert!(r.exact);
        assert_eq!(r.weight, 5_000);
        let r = max_weight_independent_set(
            &gen::path(10_000),
            &vec![1; 10_000],
            &SolverBudget::unlimited(),
        );
        assert_eq!(r.weight, 5_000);
        // Weighted path: alternating 1, 10.
        let w: Vec<u64> = (0..8).map(|i| if i % 2 == 0 { 1 } else { 10 }).collect();
        let r = max_weight_independent_set(&gen::path(8), &w, &SolverBudget::unlimited());
        assert_eq!(r.weight, 40);
    }

    #[test]
    fn degree_two_dp_matches_brute_force() {
        // Random disjoint unions of paths and cycles.
        let mut rng = gen::seeded_rng(77);
        use rand::RngExt;
        for trial in 0..40 {
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let mut next = 0u32;
            while next < 12 {
                let len = rng.random_range(1..5u32);
                let cycle = len >= 3 && rng.random::<f64>() < 0.5;
                for i in 0..len - 1 {
                    edges.push((next + i, next + i + 1));
                }
                if cycle {
                    edges.push((next + len - 1, next));
                }
                next += len;
            }
            let n = next as usize;
            let g = Graph::from_edges(n, &edges);
            assert!(g.max_degree() <= 2);
            let weights: Vec<u64> = (0..n).map(|_| rng.random_range(0..6u64)).collect();
            let r = max_weight_independent_set(&g, &weights, &SolverBudget::unlimited());
            assert_eq!(r.weight, brute_force_mis(&g, &weights), "trial {trial}");
            // And the set itself is valid with the claimed weight.
            for (u, v) in g.edges() {
                assert!(!(r.in_set[u as usize] && r.in_set[v as usize]));
            }
            let claimed: u64 = (0..n).filter(|&v| r.in_set[v]).map(|v| weights[v]).sum();
            assert_eq!(claimed, r.weight);
        }
    }

    /// The degree-two DP before its buffers were reused: a DFS with a
    /// `BTreeSet` finds each path's end, and every DP allocates. The
    /// reference [`mwis_degree_two`] must reproduce bit for bit.
    fn reference_degree_two(g: &Graph, weights: &[u64]) -> MisResult {
        let n = g.n();
        let mut in_set = vec![false; n];
        let mut total = 0u64;
        let mut visited = vec![false; n];
        for s in 0..n as Vertex {
            if visited[s as usize] {
                continue;
            }
            let start = reference_endpoint(g, s, &visited).unwrap_or(s);
            let mut order: Vec<Vertex> = vec![start];
            visited[start as usize] = true;
            let mut prev = start;
            let mut cur = start;
            while let Some(w) = g
                .neighbors(cur)
                .iter()
                .copied()
                .find(|&w| w != prev && !visited[w as usize])
            {
                visited[w as usize] = true;
                order.push(w);
                prev = cur;
                cur = w;
            }
            let is_cycle = order.len() >= 3 && g.has_edge(*order.last().unwrap(), start);
            let (w, chosen) = if is_cycle {
                let (wa, mut ca) = reference_path_dp(&order[1..], weights);
                ca.insert(0, false);
                let inner = &order[2..order.len() - 1];
                let (wb_inner, cb_inner) = reference_path_dp(inner, weights);
                let wb = wb_inner + weights[start as usize];
                if wb > wa {
                    let mut cb = vec![false; order.len()];
                    cb[0] = true;
                    for (i, &c) in cb_inner.iter().enumerate() {
                        cb[i + 2] = c;
                    }
                    (wb, cb)
                } else {
                    (wa, ca)
                }
            } else {
                reference_path_dp(&order, weights)
            };
            total += w;
            for (i, &c) in chosen.iter().enumerate() {
                if c {
                    in_set[order[i] as usize] = true;
                }
            }
        }
        MisResult {
            in_set,
            weight: total,
            exact: true,
        }
    }

    fn reference_endpoint(g: &Graph, s: Vertex, visited: &[bool]) -> Option<Vertex> {
        let mut stack = vec![s];
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(s);
        while let Some(u) = stack.pop() {
            let live_deg = g
                .neighbors(u)
                .iter()
                .filter(|&&w| !visited[w as usize])
                .count();
            if live_deg <= 1 {
                return Some(u);
            }
            for &w in g.neighbors(u) {
                if !visited[w as usize] && seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        None
    }

    fn reference_path_dp(order: &[Vertex], weights: &[u64]) -> (u64, Vec<bool>) {
        if order.is_empty() {
            return (0, Vec::new());
        }
        let k = order.len();
        let mut take = vec![0u64; k];
        let mut skip = vec![0u64; k];
        take[0] = weights[order[0] as usize];
        for i in 1..k {
            take[i] = skip[i - 1] + weights[order[i] as usize];
            skip[i] = take[i - 1].max(skip[i - 1]);
        }
        let mut chosen = vec![false; k];
        let mut i = k;
        let mut taking = take[k - 1] > skip[k - 1];
        let best = take[k - 1].max(skip[k - 1]);
        while i > 0 {
            i -= 1;
            if taking {
                chosen[i] = true;
                taking = false;
            } else if i > 0 {
                taking = take[i - 1] > skip[i - 1];
            }
        }
        (best, chosen)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn degree_two_dp_reproduces_the_reference(seed in 0u64..1 << 32) {
            // A random union of paths (single vertices included) and
            // cycles, its ids shuffled so that walks start mid-path and
            // in either direction.
            let mut rng = gen::seeded_rng(seed);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let mut next = 0u32;
            let size = rng.random_range(1..60u32);
            while next < size {
                let len = rng.random_range(1..12u32);
                for i in 0..len - 1 {
                    edges.push((next + i, next + i + 1));
                }
                if len >= 3 && rng.random_bool(0.5) {
                    edges.push((next + len - 1, next));
                }
                next += len;
            }
            let n = next as usize;
            let mut relabel: Vec<u32> = (0..next).collect();
            for i in (1..n).rev() {
                relabel.swap(i, rng.random_range(0..=i));
            }
            let edges: Vec<(u32, u32)> = edges
                .iter()
                .map(|&(u, v)| (relabel[u as usize], relabel[v as usize]))
                .collect();
            let g = Graph::from_edges(n, &edges);
            prop_assert!(g.max_degree() <= 2);
            let weights: Vec<u64> = (0..n).map(|_| rng.random_range(0..6u64)).collect();
            prop_assert_eq!(mwis_degree_two(&g, &weights), reference_degree_two(&g, &weights));
        }
    }

    #[test]
    fn scales_to_moderate_sparse_graphs() {
        let g = gen::grid(6, 10); // 60 vertices; grids are easy: alternating set
        let r = max_weight_independent_set(&g, &vec![1u64; 60], &SolverBudget::unlimited());
        assert!(r.exact);
        assert_eq!(r.weight, 30);
    }
}
