//! Exact maximum-weight independent set via bitset branch & bound.
//!
//! Independent set is the canonical packing problem of the paper (§1.4.2
//! presents the whole packing machinery through MIS), and every carve /
//! cluster step needs optimal local independent sets. This solver handles
//! the conflict-graph form: pairwise constraints only.
//!
//! # The search and its bounds
//!
//! The search starts from a greedy incumbent: the vertices in
//! weight-descending order (the order `sort_unstable_by_key` leaves ties
//! in), each taken when it is positive and not adjacent to one taken
//! before. It then relabels the vertices heaviest first, ties to the
//! higher index, and keeps every closed neighbourhood as `words`
//! consecutive words of one flat array. Each search node holds the
//! candidates `cand` still free to join the set and branches on the
//! lowest candidate label, which is the *last* heaviest candidate in
//! index order (the tie rule of `max_by_key`): first include it, then
//! exclude it. The incumbent is replaced only on strict improvement, so
//! the answer is the first node in DFS preorder that reaches the optimum.
//! The greedy order and the branching rule are therefore part of the
//! output contract: on ties, another rule returns another optimal set.
//!
//! Nothing is allocated per node. The candidates live in a depth-indexed
//! stack: the include child writes `cand \ N[v]` into the next frame,
//! and the exclude child clears `v` in its parent's frame and reuses it.
//! The chosen labels are a stack too, and a new best set is copied into
//! a buffer sized up front.
//!
//! Two bounds on what a node's subtree can still add prune it when they
//! do not exceed `best − current`:
//! - the potential `Σ_{v ∈ cand} w(v)`. It is carried down, not summed:
//!   the include child subtracts the weight of `cand ∩ N[v]`, the
//!   exclude child `w(v)`;
//! - a greedy clique cover of `cand`. Each clique is seeded at the
//!   remaining candidate with the fewest neighbours among the remaining
//!   candidates, ties to the lowest label, and grows by the lowest
//!   remaining label adjacent to all its members. An independent set
//!   holds at most one vertex per clique, so the sum of the cliques'
//!   heaviest weights bounds the gain. A vertex with few neighbours left
//!   can only join a small clique, so covering it first leaves the
//!   well-connected candidates to larger ones, and the cover needs fewer
//!   cliques than one seeded at the lowest label. The seed is one
//!   trailing-zeros: the remaining candidates sit in per-degree bitsets,
//!   and a vertex moves down one when a neighbour joins a clique. The
//!   cover stops as soon as the sum exceeds `best − current`, runs on
//!   scratch buffers of the search, and is only evaluated when
//!   `current ≤ best` (a node with `current > best` must update the
//!   incumbent).
//!
//! Why no output moves: a valid bound prunes a subtree only when no node
//! in it can strictly beat the incumbent held at its root, so removing
//! the subtree changes no later incumbent. The bounded search visits the
//! unbounded tree minus those subtrees, with the same updates, and
//! returns the same `(weight, set)` in at most as many nodes, whatever
//! clique cover it draws. The relabelling moves no branch vertex, and the
//! carried potential equals the summed one. The caveat is `node_limit`:
//! a solve that exhausts it under one bound may finish under a tighter
//! one, or stop at a different (never worse) incumbent. The
//! fewest-neighbours seed may thus finish a solve that exhausted a limit
//! under the lowest-label seed; no solve of the tables or the benchmark
//! comes near the default limit of 5,000,000 nodes under either.

use crate::solvers::SolverBudget;
use dapc_graph::{Graph, Vertex};
use std::cmp::Reverse;

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
    search(g, weights, greedy_incumbent(g, weights), budget.node_limit)
}

/// Runs the bounded search from `incumbent`. (Test builds swap in
/// `tests::search`, which can run the reference search instead, and
/// count the nodes.)
#[cfg(not(test))]
fn search(g: &Graph, weights: &[u64], incumbent: MisResult, node_limit: u64) -> MisResult {
    Search::new(g, weights, node_limit).run(incumbent)
}

#[cfg(test)]
use tests::search;

/// The greedy incumbent: the vertices in weight-descending order, each
/// taken when it is positive and not adjacent to one taken before.
fn greedy_incumbent(g: &Graph, weights: &[u64]) -> MisResult {
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| Reverse(weights[v]));
    let mut in_set = vec![false; n];
    let mut blocked = vec![false; n];
    let mut weight = 0u64;
    for v in order {
        if !blocked[v] && weights[v] > 0 {
            in_set[v] = true;
            weight += weights[v];
            for &u in g.neighbors(v as Vertex) {
                blocked[u as usize] = true;
            }
        }
    }
    MisResult {
        in_set,
        weight,
        exact: true,
    }
}

/// The bounded search on labels. Label `l` is vertex `vertex[l]`, and
/// the labels run heaviest first, ties to the higher index. A set of
/// labels is `words` words, label `l` at bit `l % 64` of word `l / 64`.
struct Search {
    words: usize,
    vertex: Vec<Vertex>,
    /// Weight of each label.
    weight: Vec<u64>,
    /// Closed neighbourhood of each label, `words` words each.
    closed: Vec<u64>,
    /// The candidate stack: frame `d`, the `words` words from `d·words`,
    /// holds the candidates of the node `d` inclusions deep.
    cand: Vec<u64>,
    /// The labels included on the path to the current node.
    chosen: Vec<u32>,
    /// The labels of the best set found, once it beats the incumbent.
    best: Vec<u32>,
    best_weight: u64,
    nodes_left: u64,
    exact: bool,
    cover: Cover,
}

/// The label of the lowest set bit of the nonzero word `word` at index
/// `wi`.
#[inline]
fn lowest(wi: usize, word: u64) -> usize {
    wi * 64 + word.trailing_zeros() as usize
}

impl Search {
    fn new(g: &Graph, weights: &[u64], node_limit: u64) -> Self {
        let n = g.n();
        let words = n.div_ceil(64);
        let mut vertex: Vec<Vertex> = (0..n as Vertex).collect();
        vertex.sort_unstable_by_key(|&v| Reverse((weights[v as usize], v)));
        let mut label = vec![0; n];
        for (l, &v) in vertex.iter().enumerate() {
            label[v as usize] = l;
        }
        let mut closed = vec![0u64; n * words];
        for (row, &v) in closed.chunks_exact_mut(words).zip(&vertex) {
            for &u in std::iter::once(&v).chain(g.neighbors(v)) {
                let l = label[u as usize];
                row[l / 64] |= 1 << (l % 64);
            }
        }
        // Each inclusion takes at least one candidate, so `n + 1` frames
        // hold the deepest path. The root frame holds every label.
        let mut cand = vec![0u64; (n + 1) * words];
        for l in 0..n {
            cand[l / 64] |= 1 << (l % 64);
        }
        Search {
            words,
            weight: vertex.iter().map(|&v| weights[v as usize]).collect(),
            vertex,
            closed,
            cand,
            chosen: Vec::with_capacity(n),
            best: Vec::with_capacity(n),
            best_weight: 0,
            nodes_left: node_limit,
            exact: true,
            cover: Cover::new(n, words, g.max_degree()),
        }
    }

    /// Searches from the root and returns `incumbent`, replaced by the
    /// best set found if that beats it.
    fn run(&mut self, mut incumbent: MisResult) -> MisResult {
        self.best_weight = incumbent.weight;
        let potential = self.weight.iter().sum();
        self.search(0, 0, potential);
        if self.best_weight > incumbent.weight {
            incumbent.in_set.fill(false);
            for &l in &self.best {
                incumbent.in_set[self.vertex[l as usize] as usize] = true;
            }
            incumbent.weight = self.best_weight;
        }
        incumbent.exact = self.exact;
        incumbent
    }

    /// Visits the node `depth` inclusions deep, worth `current`, whose
    /// candidates (frame `depth`) weigh `potential`. Each turn of the
    /// loop is one node: it includes the branch vertex in a recursive
    /// child, then excludes it in place and turns to that child.
    fn search(&mut self, depth: usize, current: u64, mut potential: u64) {
        let w = self.words;
        let frame = depth * w;
        loop {
            if self.nodes_left == 0 {
                self.exact = false;
                return;
            }
            self.nodes_left -= 1;
            if current + potential <= self.best_weight {
                return;
            }
            if current > self.best_weight {
                self.best_weight = current;
                self.best.clear();
                self.best.extend_from_slice(&self.chosen);
            } else if self.cover.fits(
                &self.cand[frame..frame + w],
                &self.closed,
                &self.weight,
                self.best_weight - current,
            ) {
                return;
            }
            // Branch vertex: the lowest label, the last heaviest candidate.
            let here = &self.cand[frame..frame + w];
            let Some(wi) = here.iter().position(|&c| c != 0) else {
                return;
            };
            let v = lowest(wi, here[wi]);
            let wv = self.weight[v];
            if wv > 0 {
                let (here, next) = self.cand[frame..].split_at_mut(w);
                let closed = &self.closed[v * w..(v + 1) * w];
                let mut taken = 0;
                for (i, ((n, &c), &nb)) in next.iter_mut().zip(&*here).zip(closed).enumerate() {
                    *n = c & !nb;
                    let mut gone = c & nb;
                    while gone != 0 {
                        taken += self.weight[lowest(i, gone)];
                        gone &= gone - 1;
                    }
                }
                self.chosen.push(v as u32);
                self.search(depth + 1, current + wv, potential - taken);
                self.chosen.pop();
            }
            self.cand[frame + wi] &= !(1 << (v % 64));
            potential -= wv;
        }
    }
}

/// The clique cover's scratch: the candidates not yet in a clique, those
/// adjacent to every member of the clique being grown, each remaining
/// candidate's degree among the remaining ones, and the remaining
/// candidates of each degree (`words` words per degree).
struct Cover {
    rest: Vec<u64>,
    grow: Vec<u64>,
    degree: Vec<u32>,
    by_degree: Vec<u64>,
    /// No remaining candidate has a lower degree.
    low: u32,
}

impl Cover {
    fn new(n: usize, words: usize, max_degree: usize) -> Self {
        Cover {
            rest: vec![0; words],
            grow: vec![0; words],
            degree: vec![0; n],
            by_degree: vec![0; (max_degree + 1) * words],
            low: 0,
        }
    }

    /// Whether a greedy clique cover of `cand` bounds the weight of its
    /// independent sets by at most `limit`. Each clique starts at the
    /// remaining candidate with the fewest remaining neighbours (ties to
    /// the lowest label) and takes the lowest remaining candidate
    /// adjacent to all its members until none is; the cliques' heaviest
    /// weights are summed until the sum exceeds `limit`.
    fn fits(&mut self, cand: &[u64], closed: &[u64], weight: &[u64], limit: u64) -> bool {
        let w = cand.len();
        self.rest.copy_from_slice(cand);
        self.by_degree.fill(0);
        self.low = u32::MAX;
        let mut remaining = 0;
        for (wi, &word) in cand.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let u = lowest(wi, bits);
                bits &= bits - 1;
                let row = &closed[u * w..(u + 1) * w];
                let common = row.iter().zip(cand).map(|(c, r)| c & r);
                // Less `u` itself, which its closed neighbourhood holds.
                let d = common.map(u64::count_ones).sum::<u32>() - 1;
                self.degree[u] = d;
                self.by_degree[d as usize * w + wi] |= 1 << (u % 64);
                self.low = self.low.min(d);
                remaining += 1;
            }
        }
        let mut total = 0u64;
        while remaining > 0 {
            let seed = loop {
                let at = self.low as usize * w;
                let set = &self.by_degree[at..at + w];
                if let Some(wi) = set.iter().position(|&b| b != 0) {
                    break lowest(wi, set[wi]);
                }
                self.low += 1;
            };
            self.leave(seed, closed);
            remaining -= 1;
            let mut heaviest = weight[seed];
            let row = &closed[seed * w..(seed + 1) * w];
            for ((g, &r), &c) in self.grow.iter_mut().zip(&self.rest).zip(row) {
                *g = r & c;
            }
            while let Some(gi) = self.grow.iter().position(|&g| g != 0) {
                let u = lowest(gi, self.grow[gi]);
                self.leave(u, closed);
                remaining -= 1;
                heaviest = heaviest.max(weight[u]);
                let row = &closed[u * w..(u + 1) * w];
                for (g, &c) in self.grow.iter_mut().zip(row) {
                    *g &= c;
                }
                self.grow[gi] &= !(1 << (u % 64));
            }
            total += heaviest;
            if total > limit {
                return false;
            }
        }
        true
    }

    /// Takes `u` out of the remaining candidates: off its degree's set,
    /// and each remaining neighbour one degree down.
    fn leave(&mut self, u: usize, closed: &[u64]) {
        let w = self.rest.len();
        self.rest[u / 64] &= !(1 << (u % 64));
        self.by_degree[self.degree[u] as usize * w + u / 64] &= !(1 << (u % 64));
        let row = &closed[u * w..(u + 1) * w];
        for (wi, (&c, &r)) in row.iter().zip(&self.rest).enumerate() {
            let mut bits = c & r;
            while bits != 0 {
                let x = lowest(wi, bits);
                bits &= bits - 1;
                let d = self.degree[x] as usize;
                self.by_degree[d * w + wi] &= !(1 << (x % 64));
                self.by_degree[(d - 1) * w + wi] |= 1 << (x % 64);
                self.degree[x] -= 1;
                self.low = self.low.min(self.degree[x]);
            }
        }
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
#[cfg(test)]
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

    /// The search of test builds: the bounded search, or the reference
    /// when [`probe::reference`] is on, with the nodes it visited
    /// recorded.
    pub(super) fn search(
        g: &Graph,
        weights: &[u64],
        incumbent: MisResult,
        node_limit: u64,
    ) -> MisResult {
        let (result, nodes_left) = if probe::reference() {
            let mut r = Reference {
                g,
                weights,
                best: incumbent,
                nodes_left: node_limit,
            };
            r.search(&vec![true; g.n()], &mut vec![false; g.n()], 0);
            (r.best, r.nodes_left)
        } else {
            let mut s = Search::new(g, weights, node_limit);
            (s.run(incumbent), s.nodes_left)
        };
        probe::record(node_limit - nodes_left);
        result
    }

    /// The search without the clique-cover bound, on the original
    /// indices, with fresh candidate sets at every node and the potential
    /// summed there: the reference the bounded search must reproduce.
    struct Reference<'a> {
        g: &'a Graph,
        weights: &'a [u64],
        best: MisResult,
        nodes_left: u64,
    }

    impl Reference<'_> {
        fn search(&mut self, cand: &[bool], chosen: &mut [bool], current: u64) {
            if self.nodes_left == 0 {
                self.best.exact = false;
                return;
            }
            self.nodes_left -= 1;
            let ones = || (0..cand.len()).filter(|&v| cand[v]);
            let potential: u64 = ones().map(|v| self.weights[v]).sum();
            if current + potential <= self.best.weight {
                return;
            }
            if current > self.best.weight {
                self.best.weight = current;
                self.best.in_set = chosen.to_vec();
            }
            let Some(v) = ones().max_by_key(|&v| self.weights[v]) else {
                return;
            };
            if self.weights[v] > 0 {
                let mut next = cand.to_vec();
                next[v] = false;
                for &u in self.g.neighbors(v as Vertex) {
                    next[u as usize] = false;
                }
                chosen[v] = true;
                self.search(&next, chosen, current + self.weights[v]);
                chosen[v] = false;
            }
            let mut without = cand.to_vec();
            without[v] = false;
            self.search(&without, chosen, current);
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
        // benchmark, whose gnp and 4-regular graphs draw from seed
        // 0x9e37_79b9 plus one to three. A change to the search or its
        // bounds that moves a count updates the pin and says why.
        // - gnp44: 3,347 nodes when each clique was seeded at the lowest
        //   label; seeded at the fewest neighbours, the cover proves the
        //   optimum 21 far sooner.
        // - reg4: 471 under the lowest-label seed, for the same reason.
        // - VC/gnp32 (a vertex cover solve, which runs the MWIS search on
        //   the same graph): 37 under either seed; other seed rules read
        //   more (one read 153).
        // - grid 6×7: the greedy incumbent is optimal and the root's cover
        //   proves it.
        let rng = |k: u64| gen::seeded_rng(0x9e37_79b9 + k);
        let gnp = gen::gnp(44, 0.07, &mut rng(1));
        let reg4 = gen::random_regular(40, 4, &mut rng(2));
        let vc_gnp = gen::gnp(32, 0.1, &mut rng(3));
        let (mis, vc) = (
            problems::max_independent_set_unweighted,
            problems::min_vertex_cover_unweighted,
        );
        let solves = [
            ("gnp44", mis(&gnp), 121),
            ("reg4", mis(&reg4), 153),
            ("VC/gnp32", vc(&vc_gnp), 37),
            ("grid", mis(&gen::grid(6, 7)), 1),
        ];
        for (name, ilp, pinned) in solves {
            let sub = whole(&ilp);
            let (sol, nodes) = probe::run(false, || solvers::solve(&sub, &SolverBudget::default()));
            assert!(sol.exact);
            assert_eq!(nodes, pinned, "{name}");
        }
    }

    /// The graphs of `the_seeded_corpus_reproduces_the_reference`: the
    /// whole-instance graphs of the benchmark's `ilp_cold` and of the
    /// tables' E3 and E5 that reach the search, then seeded gnp,
    /// random-regular and grid graphs.
    fn corpus() -> Vec<Graph> {
        let rng = gen::seeded_rng;
        let bench = 0x9e37_79b9;
        let mut graphs = vec![
            gen::grid(6, 7),
            gen::gnp(44, 0.07, &mut rng(bench + 1)),
            gen::random_regular(40, 4, &mut rng(bench + 2)),
            gen::gnp(32, 0.1, &mut rng(bench + 3)),
            gen::gnp(44, 0.07, &mut rng(1)),
            gen::random_tree(42, &mut rng(2)),
            gen::random_regular(40, 4, &mut rng(3)),
            gen::gnp(36, 0.08, &mut rng(4)),
            gen::gnp(32, 0.1, &mut rng(8)),
            gen::gnp(28, 0.11, &mut rng(9)),
        ];
        let mut rng = rng(29);
        for i in 0..4 {
            let n = 24 + 4 * i;
            graphs.push(gen::gnp(n, 3.0 / n as f64, &mut rng));
            graphs.push(gen::random_regular(n, 3 + i % 2, &mut rng));
            graphs.push(gen::grid(3 + i, 5 + i));
        }
        graphs
    }

    #[test]
    fn the_seeded_corpus_reproduces_the_reference() {
        // Each corpus graph with unit and with random weights: every
        // bounded solve returns the reference's weight and set. The
        // summed node count is pinned; it was 14,162 when each clique
        // was seeded at the lowest label.
        let mut rng = gen::seeded_rng(31);
        let mut total = 0;
        for g in corpus() {
            let random = (0..g.n()).map(|_| rng.random_range(1..21)).collect();
            for w in [vec![1; g.n()], random] {
                let mis = whole(&problems::max_independent_set(&g, w));
                let (sol, nodes, _) = probe::check(&mis, &SolverBudget::unlimited());
                assert!(sol.exact, "{g}");
                total += nodes;
            }
        }
        assert_eq!(total, 3608);
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
