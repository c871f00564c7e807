//! Breadth-first traversal, distances and ball extraction.
//!
//! The decomposition algorithms of the paper are phrased entirely in terms
//! of radius-`r` neighbourhoods `N^r(v)` and per-distance level sets `S_j`
//! (Algorithm 1 of the paper, "Grow-and-Carve"). This module provides those
//! primitives, in both plain and *masked* (residual-graph) form — the
//! three-phase algorithms repeatedly delete and remove vertices, and all
//! subsequent distance computations must respect the residual graph.
//!
//! # Exact set diameters
//!
//! [`max_weak_diameter`] and [`max_strong_diameter`] check Definition 1.4
//! and Theorem 1.1's diameter bound on every cluster of a decomposition.
//! They share one kernel: the strong metric differs only in that every
//! traversal stays inside the set's membership mask (distances of `G[S]`
//! without building the subgraph), while the weak one walks all of `G`.
//! Per set `S`, with `d` the metric and `ecc(v) = max_{w ∈ S} d(v, w)`:
//!
//! 1. A BFS from `S[0]` checks that `S` is connected and finds its farthest
//!    member `a`; a BFS from `a` finds the farthest member `b`; `u` is the
//!    midpoint of the BFS path from `a` to `b`. Each BFS stops as soon as
//!    every member is labelled: BFS labels vertices in distance order, so
//!    every member distance is final by then.
//! 2. A BFS from `u` gives `d(u, v)` for every member, and the members are
//!    sorted by decreasing `d(u, ·)`.
//! 3. In that order, a word-parallel BFS computes the exact `ecc` of 64
//!    members at once: bit `i` of every vertex's `u64` words carries
//!    source `i`, and the BFS stops once every member holds all lanes.
//!
//! The running maximum `lb` (over this set and the ones before it) only
//! ever holds exact eccentricities of members, so it never exceeds the
//! answer. A set is done as soon as `lb ≥ 2·d(u, x)` for the next
//! unprocessed member `x`: two unprocessed members `y, z` have
//! `d(y, z) ≤ d(y, u) + d(u, z) ≤ 2·d(u, x) ≤ lb` by the triangle
//! inequality, and a pair with a processed member is bounded by that
//! member's exact `ecc`, which `lb` already covers. So the answer is
//! exact, with no sampling and no tolerance.
//!
//! Under the weak metric the path from `a` to `b` may leave `S`, and so may
//! its midpoint `u`. Such a `u` is a pivot only: it does not count as a
//! labelled member when the BFS from it stops, and its own eccentricity
//! never enters `lb`, because a vertex outside `S` can lie farther from a
//! member than any two members lie from each other (on a 6-cycle with
//! `S = {0, 2, 4}`, the diameter is 2 and every midpoint has `ecc` 3).

use crate::graph::{Graph, Vertex};
use std::collections::VecDeque;

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// A radius-`r` ball around a set of sources, grouped by exact distance.
///
/// `levels[j]` is the set `S_j` of vertices at distance exactly `j` from the
/// source set (so `levels[0]` is the source set itself, intersected with the
/// alive mask). The flattened ball `N^r(S)` is the concatenation of all
/// levels.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Ball {
    /// Vertices grouped by exact distance from the source set.
    pub levels: Vec<Vec<Vertex>>,
}

impl Ball {
    /// Total number of vertices in the ball.
    pub fn len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Whether the ball contains no vertices.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(Vec::is_empty)
    }

    /// Radius actually reached (may be smaller than requested if the
    /// component was exhausted).
    pub fn radius(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Iterates over every vertex in the ball.
    pub fn iter(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.levels.iter().flatten().copied()
    }

    /// All vertices with distance `<= r` from the sources.
    pub fn within(&self, r: usize) -> impl Iterator<Item = Vertex> + '_ {
        self.levels.iter().take(r + 1).flatten().copied()
    }

    /// The level set `S_j` (empty slice if `j` exceeds the reached radius).
    pub fn level(&self, j: usize) -> &[Vertex] {
        self.levels.get(j).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// BFS distances from a single source. Unreachable vertices get
/// [`UNREACHABLE`].
///
/// ```
/// use dapc_graph::{Graph, traversal};
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
/// let d = traversal::bfs_distances(&g, 0);
/// assert_eq!(d, vec![0, 1, 2, traversal::UNREACHABLE]);
/// ```
pub fn bfs_distances(g: &Graph, source: Vertex) -> Vec<u32> {
    bfs_distances_multi(g, std::slice::from_ref(&source))
}

/// BFS distances from a set of sources (distance to the nearest source).
pub fn bfs_distances_multi(g: &Graph, sources: &[Vertex]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Masked multi-source BFS distances: traversal only passes through vertices
/// with `alive[v] == true`; dead vertices keep [`UNREACHABLE`]. Sources that
/// are dead are ignored.
///
/// # Panics
///
/// Panics if `alive.len() != g.n()`.
pub fn bfs_distances_masked(g: &Graph, sources: &[Vertex], alive: &[bool]) -> Vec<u32> {
    assert_eq!(alive.len(), g.n(), "alive mask length mismatch");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if alive[s as usize] && dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if alive[w as usize] && dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Reusable BFS scratch for [`ball`]-family traversals (graph and
/// hypergraph alike).
///
/// The ball extractions sit on the hottest path of the solvers — the
/// preparation step and every carving iteration call them once per
/// cluster — and each call used to allocate fresh `vec![false; n]`
/// visited masks. A `BallScratch` amortises those: the marker vectors are
/// grown once and *self-cleaning* (each traversal clears exactly the
/// entries it set before returning), so a scratch can be reused across
/// any sequence of calls on graphs of any size.
///
/// Invariant: between calls every entry of `seen_v` / `seen_e` is `false`
/// and `touched_e` is empty; the traversals restore this on every exit
/// path in `O(|ball|)` time.
#[derive(Debug, Default)]
pub struct BallScratch {
    pub(crate) seen_v: Vec<bool>,
    pub(crate) seen_e: Vec<bool>,
    pub(crate) touched_e: Vec<u32>,
}

impl BallScratch {
    /// Creates an empty scratch; marker storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the vertex markers to cover `n` vertices.
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        if self.seen_v.len() < n {
            self.seen_v.resize(n, false);
        }
    }

    /// Grows the edge markers to cover `m` hyperedges.
    pub(crate) fn ensure_edges(&mut self, m: usize) {
        if self.seen_e.len() < m {
            self.seen_e.resize(m, false);
        }
    }
}

/// Extracts the radius-`r` ball `N^r(sources)` with per-distance levels,
/// restricted to the `alive` mask. Pass `None` for an unmasked traversal.
///
/// This is the "gather the topology of its b-radius neighbourhood" step of
/// Grow-and-Carve (Algorithm 1 in the paper).
pub fn ball(g: &Graph, sources: &[Vertex], r: usize, alive: Option<&[bool]>) -> Ball {
    ball_with_scratch(g, sources, r, alive, &mut BallScratch::new())
}

/// [`ball`] against a caller-owned [`BallScratch`], so repeated
/// extractions (one per cluster, per iteration) stop allocating visited
/// masks. Output is identical to [`ball`].
pub fn ball_with_scratch(
    g: &Graph,
    sources: &[Vertex],
    r: usize,
    alive: Option<&[bool]>,
    scratch: &mut BallScratch,
) -> Ball {
    if let Some(a) = alive {
        assert_eq!(a.len(), g.n(), "alive mask length mismatch");
    }
    let is_alive = |v: Vertex| alive.is_none_or(|a| a[v as usize]);
    scratch.ensure_vertices(g.n());
    let seen = &mut scratch.seen_v;
    let mut levels: Vec<Vec<Vertex>> = Vec::new();
    let mut frontier: Vec<Vertex> = Vec::new();
    for &s in sources {
        if is_alive(s) && !seen[s as usize] {
            seen[s as usize] = true;
            frontier.push(s);
        }
    }
    if frontier.is_empty() {
        return Ball { levels };
    }
    levels.push(frontier);
    for _depth in 1..=r {
        let mut next: Vec<Vertex> = Vec::new();
        for &u in levels.last().expect("frontier level pushed above") {
            for &w in g.neighbors(u) {
                if is_alive(w) && !seen[w as usize] {
                    seen[w as usize] = true;
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    // Restore the scratch invariant: clear exactly the marks we set.
    for level in &levels {
        for &v in level {
            seen[v as usize] = false;
        }
    }
    Ball { levels }
}

/// Size of `N^r(v)` in the residual graph, without materialising the ball.
pub fn ball_size(g: &Graph, source: Vertex, r: usize, alive: Option<&[bool]>) -> usize {
    ball(g, &[source], r, alive).len()
}

/// Eccentricity of `v` within its connected component.
pub fn eccentricity(g: &Graph, v: Vertex) -> u32 {
    bfs_distances(g, v)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Exact diameter (max eccentricity over all vertices; `0` for empty or
/// edgeless graphs, ignoring unreachable pairs).
///
/// Runs a BFS per vertex — `O(n·m)`; fine for the graph sizes used in tests
/// and experiments.
pub fn diameter(g: &Graph) -> u32 {
    g.vertices().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Maximum weak diameter over a sequence of disjoint vertex sets: the
/// largest `dist_G(u, v)` over pairs of one set, with distances measured in
/// the *whole* graph `g` (Definition 1.4 of the paper). Empty and singleton
/// sets, and an empty sequence, count `0`. Returns `None` if some set has
/// a pair that is disconnected in `g`.
///
/// Exact, in a few BFS per set rather than one per member (the
/// [module docs](self) give the full argument): every BFS stops only once
/// all members are labelled, so member distances are final; the running
/// maximum `lb` holds only exact eccentricities of members; and a set is
/// done once `lb ≥ 2·d(u, x)` for the pivot `u` and the next unprocessed
/// member `x`, which bounds every unchecked pair through `u`. A pivot
/// outside the set never counts as a member and never raises `lb`.
///
/// # Panics
///
/// Panics if a set lists a vertex twice, or a vertex is out of range.
///
/// ```
/// use dapc_graph::{gen, traversal};
/// let g = gen::cycle(6);
/// // {0, 2} is connected through vertex 1, which lies outside the set.
/// let sets = [&[0, 2][..], &[4]];
/// assert_eq!(traversal::max_weak_diameter(&g, sets), Some(2));
/// assert_eq!(traversal::max_strong_diameter(&g, sets), None);
/// ```
pub fn max_weak_diameter<'a>(
    g: &Graph,
    sets: impl IntoIterator<Item = &'a [Vertex]>,
) -> Option<u32> {
    DiameterKernel::new(g, false).max_diameter(sets)
}

/// Maximum strong diameter over a sequence of disjoint vertex sets: the
/// largest diameter of an induced subgraph `G[S]`. Empty and singleton
/// sets, and an empty sequence, count `0`. Returns `None` if some `G[S]`
/// is disconnected.
///
/// Exact by the argument of [`max_weak_diameter`]: the same kernel runs
/// with every traversal confined to the set, so no subgraph is built and
/// the pivot always lies in the set.
///
/// # Panics
///
/// Panics if a set lists a vertex twice, or a vertex is out of range.
pub fn max_strong_diameter<'a>(
    g: &Graph,
    sets: impl IntoIterator<Item = &'a [Vertex]>,
) -> Option<u32> {
    DiameterKernel::new(g, true).max_diameter(sets)
}

/// Sources per word-parallel BFS: one per bit of a `u64`.
const LANES: usize = 64;

/// The exact set-diameter kernel of the [module docs](self).
///
/// The buffers are sized to `g` once and clean up after every set: between
/// sets `member` is all-false, `dist` all-[`UNREACHABLE`], the lane words
/// all zero, and the lists empty.
struct DiameterKernel<'g> {
    g: &'g Graph,
    /// Traversals stay inside the set (strong metric).
    confined: bool,
    /// Membership mask of the set in progress.
    member: Vec<bool>,
    /// Single-source BFS distances.
    dist: Vec<u32>,
    /// Single-source BFS queue; also lists the vertices `dist` labels.
    queue: Vec<Vertex>,
    /// Per vertex: the lanes that reached it, that reached it at the
    /// current level, and that reach it at the next.
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// Vertices with a nonzero `seen` word.
    touched: Vec<Vertex>,
    /// Vertices with a nonzero `frontier` / `next` word.
    cur: Vec<Vertex>,
    nxt: Vec<Vertex>,
}

impl<'g> DiameterKernel<'g> {
    fn new(g: &'g Graph, confined: bool) -> Self {
        let n = g.n();
        DiameterKernel {
            g,
            confined,
            member: vec![false; n],
            dist: vec![UNREACHABLE; n],
            queue: Vec::new(),
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            touched: Vec::new(),
            cur: Vec::new(),
            nxt: Vec::new(),
        }
    }

    fn max_diameter<'a>(&mut self, sets: impl IntoIterator<Item = &'a [Vertex]>) -> Option<u32> {
        let mut lb = 0;
        for s in sets {
            for &v in s {
                // The member counts below take `s.len()` as the set's size.
                assert!(!self.member[v as usize], "vertex {v} repeats in a set");
                self.member[v as usize] = true;
            }
            let raised = self.raise(s, lb);
            for &v in s {
                self.member[v as usize] = false;
            }
            lb = raised?;
        }
        Some(lb)
    }

    /// `max(lb, diam(S))` for the marked set `s`, or `None` if it is
    /// disconnected.
    fn raise(&mut self, s: &[Vertex], mut lb: u32) -> Option<u32> {
        let Some(&first) = s.first() else {
            return Some(lb);
        };
        // Connectivity, and the farthest member `a` from `S[0]`.
        let far = self.bfs(first, s.len());
        self.clear_dist();
        let (a, ecc_first) = far?;
        lb = lb.max(ecc_first);
        // The farthest member `b` from `a`, and the pivot `u` halfway back.
        let (b, ecc_a) = self
            .bfs(a, s.len())
            .expect("a set connected from S[0] is connected from a");
        lb = lb.max(ecc_a);
        let u = self.step_back(b, ecc_a / 2);
        self.clear_dist();
        // Members by decreasing distance from `u` (which need not be one).
        self.bfs(u, s.len())
            .expect("the pivot lies on a path between members");
        let mut order: Vec<(u32, Vertex)> = s.iter().map(|&v| (self.dist[v as usize], v)).collect();
        self.clear_dist();
        order.sort_unstable_by(|x, y| y.cmp(x));
        for batch in order.chunks(LANES) {
            // `lb ≥ 2·d(u, batch[0])`, written so it cannot overflow.
            if batch[0].0 <= lb / 2 {
                break;
            }
            lb = lb.max(self.max_eccentricity(batch, s.len()));
        }
        Some(lb)
    }

    /// BFS from `src`, stopped once all `members` marked vertices are
    /// labelled; `src` itself counts only if it is marked. Returns the
    /// member labelled last — the farthest one — with its distance, or
    /// `None` if the traversal runs dry first. Leaves `dist` labelled for
    /// [`Self::step_back`]; [`Self::clear_dist`] resets it.
    fn bfs(&mut self, src: Vertex, members: usize) -> Option<(Vertex, u32)> {
        let g = self.g;
        self.dist[src as usize] = 0;
        self.queue.push(src);
        let mut found = usize::from(self.member[src as usize]);
        let mut far = (src, 0);
        let mut head = 0;
        while found < members {
            let &x = self.queue.get(head)?;
            head += 1;
            let dy = self.dist[x as usize] + 1;
            for &y in g.neighbors(x) {
                let yi = y as usize;
                if self.dist[yi] == UNREACHABLE && (!self.confined || self.member[yi]) {
                    self.dist[yi] = dy;
                    self.queue.push(y);
                    if self.member[yi] {
                        found += 1;
                        far = (y, dy);
                    }
                }
            }
        }
        Some(far)
    }

    /// The vertex `k` levels closer to the last BFS's source on a shortest
    /// path from `v`.
    fn step_back(&self, mut v: Vertex, k: u32) -> Vertex {
        for _ in 0..k {
            let up = self.dist[v as usize] - 1;
            v = *self
                .g
                .neighbors(v)
                .iter()
                .find(|&&w| self.dist[w as usize] == up)
                .expect("a labelled vertex has a neighbour one level up");
        }
        v
    }

    fn clear_dist(&mut self) {
        for &v in &self.queue {
            self.dist[v as usize] = UNREACHABLE;
        }
        self.queue.clear();
    }

    /// The largest exact eccentricity among up to [`LANES`] members: one
    /// BFS whose lane `i` carries `batch[i]`, run level by level until
    /// every member holds every lane. A lane's eccentricity is the level
    /// at which its last member is reached, so the level at which the
    /// last (member, lane) pair fills is the batch's maximum.
    fn max_eccentricity(&mut self, batch: &[(u32, Vertex)], members: usize) -> u32 {
        let Self {
            g,
            confined,
            member,
            seen,
            frontier,
            next,
            touched,
            cur,
            nxt,
            ..
        } = self;
        let all = u64::MAX >> (LANES - batch.len());
        let mut filled = 0;
        for (i, &(_, v)) in batch.iter().enumerate() {
            let v = v as usize;
            seen[v] = 1 << i;
            frontier[v] = 1 << i;
            filled += usize::from(seen[v] == all);
            cur.push(v as Vertex);
            touched.push(v as Vertex);
        }
        let mut level = 0;
        while filled < members && !cur.is_empty() {
            level += 1;
            for &x in cur.iter() {
                let lanes = std::mem::take(&mut frontier[x as usize]);
                for &y in g.neighbors(x) {
                    let y = y as usize;
                    let had = seen[y];
                    let new = lanes & !had;
                    if new == 0 || (*confined && !member[y]) {
                        continue;
                    }
                    seen[y] = had | new;
                    if had == 0 {
                        touched.push(y as Vertex);
                    }
                    let pending = next[y];
                    if pending == 0 {
                        nxt.push(y as Vertex);
                    }
                    next[y] = pending | new;
                }
            }
            cur.clear();
            std::mem::swap(cur, nxt);
            for &y in cur.iter() {
                let y = y as usize;
                frontier[y] = std::mem::take(&mut next[y]);
                // `y` gained lanes at this level, so it was not full before.
                filled += usize::from(member[y] && seen[y] == all);
            }
        }
        for &v in touched.iter() {
            seen[v as usize] = 0;
            frontier[v as usize] = 0;
        }
        touched.clear();
        cur.clear();
        level
    }
}

/// Distance between two vertex sets: `min_{u ∈ a, v ∈ b} dist(u, v)`, or
/// `None` if unreachable.
pub fn set_distance(g: &Graph, a: &[Vertex], b: &[Vertex]) -> Option<u32> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let dist = bfs_distances_multi(g, a);
    b.iter()
        .map(|&v| dist[v as usize])
        .min()
        .filter(|&d| d != UNREACHABLE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn single_source_distances_on_path() {
        let g = gen::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = gen::path(5);
        let d = bfs_distances_multi(&g, &[0, 4]);
        assert_eq!(d, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn masked_bfs_respects_mask() {
        let g = gen::path(5);
        let alive = vec![true, true, false, true, true];
        let d = bfs_distances_masked(&g, &[0], &alive);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn ball_levels_are_exact_distances() {
        let g = gen::cycle(8);
        let b = ball(&g, &[0], 3, None);
        assert_eq!(b.level(0), &[0]);
        assert_eq!(b.level(1).len(), 2);
        assert_eq!(b.level(2).len(), 2);
        assert_eq!(b.level(3).len(), 2);
        assert_eq!(b.len(), 7);
        assert_eq!(b.radius(), 3);
    }

    #[test]
    fn ball_stops_early_when_exhausted() {
        let g = gen::path(3);
        let b = ball(&g, &[1], 10, None);
        assert_eq!(b.radius(), 1);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn ball_from_dead_source_is_empty() {
        let g = gen::path(3);
        let alive = vec![false, true, true];
        let b = ball(&g, &[0], 2, Some(&alive));
        assert!(b.is_empty());
    }

    #[test]
    fn ball_within_truncates() {
        let g = gen::path(7);
        let b = ball(&g, &[3], 3, None);
        let within1: Vec<_> = b.within(1).collect();
        assert_eq!(within1.len(), 3);
    }

    #[test]
    fn diameter_of_cycle() {
        assert_eq!(diameter(&gen::cycle(8)), 4);
        assert_eq!(diameter(&gen::cycle(9)), 4);
        assert_eq!(diameter(&gen::path(6)), 5);
    }

    #[test]
    fn weak_vs_strong_diameter() {
        // C6 with S = two antipodal-ish vertices plus their midpoint on one
        // side only: weak diameter uses the full cycle, strong uses G[S].
        let g = gen::cycle(6);
        // S = {0, 2}: dist in G is 2, but G[S] is disconnected.
        assert_eq!(max_weak_diameter(&g, [&[0, 2][..]]), Some(2));
        assert_eq!(max_strong_diameter(&g, [&[0, 2][..]]), None);
        // S = {0, 1, 2}: path inside the cycle.
        assert_eq!(max_strong_diameter(&g, [&[0, 1, 2][..]]), Some(2));
    }

    #[test]
    #[should_panic(expected = "vertex 1 repeats in a set")]
    fn set_diameters_reject_a_repeated_vertex() {
        max_weak_diameter(&gen::path(3), [&[0, 1][..], &[2, 1, 1]]);
    }

    #[test]
    fn multi_source_ignores_duplicate_sources() {
        let g = gen::path(5);
        assert_eq!(
            bfs_distances_multi(&g, &[1, 1, 3, 1, 3]),
            vec![1, 0, 1, 0, 1]
        );
        assert_eq!(bfs_distances_multi(&g, &[2, 2]), bfs_distances(&g, 2));
    }

    #[test]
    fn set_distance_basic() {
        let g = gen::path(6);
        assert_eq!(set_distance(&g, &[0, 1], &[4, 5]), Some(3));
        assert_eq!(set_distance(&g, &[], &[1]), None);
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let g = gen::grid(6, 6);
        let h = gen::cycle(50); // different size: scratch must regrow
        let mut scratch = BallScratch::new();
        for r in 0..6 {
            assert_eq!(
                ball_with_scratch(&g, &[7], r, None, &mut scratch),
                ball(&g, &[7], r, None)
            );
            assert_eq!(
                ball_with_scratch(&h, &[3, 40], r, None, &mut scratch),
                ball(&h, &[3, 40], r, None)
            );
        }
        let alive: Vec<bool> = (0..g.n()).map(|v| v % 3 != 0).collect();
        for r in 0..6 {
            assert_eq!(
                ball_with_scratch(&g, &[8], r, Some(&alive), &mut scratch),
                ball(&g, &[8], r, Some(&alive))
            );
        }
        // Self-cleaning invariant: no marks survive a traversal.
        assert!(scratch.seen_v.iter().all(|&s| !s));
    }

    #[test]
    fn ball_size_matches_ball() {
        let g = gen::grid(5, 5);
        for r in 0..5 {
            assert_eq!(ball_size(&g, 12, r, None), ball(&g, &[12], r, None).len());
        }
    }
}
