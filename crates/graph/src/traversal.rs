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
//! 1. **Lane batches.** A word-parallel BFS computes the exact `ecc` of up
//!    to 64 members at once: bit `i` (*lane* `i`) of every vertex's `u64`
//!    words carries source `i`, and the BFS stops once every member holds
//!    all lanes. A set of at most 64 members is a single batch, whose
//!    largest `ecc` is the diameter, and needs no pivot; a batch that runs
//!    dry first proves the set disconnected.
//! 2. **Sweeps.** A larger set first gets early-stopping BFSes: from `S[0]`
//!    (which checks that `S` is connected and finds its farthest member
//!    `a`), from `a` (its farthest member `b`), from `b`, from the vertex
//!    `m` halfway back along the BFS path from `b` to `a`, and from `c`,
//!    the member farthest from `m`. Each stops as soon as every member is
//!    labelled: BFS labels vertices in distance order, so every member
//!    distance is final by then.
//! 3. **Central pivot.** The pivot `u` is the vertex that the BFSes from
//!    the four landmarks `a`, `b`, `m` and `c` all label and whose largest
//!    distance to them is smallest (ties: smallest id), an estimate of the
//!    set's centre. A path midpoint alone is not central: on a grid the
//!    BFS path between opposite corners runs along the boundary, so `m` is
//!    a third corner and `c` the fourth, and only the centre is within half
//!    the diameter of all four.
//! 4. **Stop.** A BFS from `u` sorts the members by decreasing `d(u, ·)`,
//!    and they go through lane batches in that order until the running
//!    maximum `lb ≥ 2·d(u, x)` for the next unprocessed member `x`.
//!
//! `lb` (over this set and the ones before it) only ever holds exact
//! eccentricities of members, so it never exceeds the answer. The stop is
//! exact for *any* pivot `u`: two unprocessed members `y, z` have
//! `d(y, z) ≤ d(y, u) + d(u, z) ≤ 2·d(u, x) ≤ lb` by the triangle
//! inequality, and a pair with a processed member is bounded by that
//! member's exact `ecc`, which `lb` already covers. So the answer is
//! exact, with no sampling and no tolerance; the pivot decides only how
//! many batches run.
//!
//! Under the weak metric the BFS path from `a` to `b` may leave `S`, and so
//! may `m` and `u`. Such a vertex does not count as a labelled member when
//! a BFS from it stops, and its own eccentricity never enters `lb`, because
//! a vertex outside `S` can lie farther from a member than any two members
//! lie from each other (on a 6-cycle with `S = {0, 2, 4}`, the diameter is
//! 2 and every vertex outside `S` has `ecc` 3).
//!
//! ## Push and pull levels
//!
//! A lane BFS keeps, per vertex, the lanes it has `seen`, its `frontier`
//! word (the lanes that reached it at the current level, zero off the
//! frontier) and its `next` word. A level gives every vertex `y` the
//! traversal may enter
//! `next(y) = (⋁_{x ~ y} frontier(x)) ∧ ¬seen(y)`, in one of two
//! directions:
//!
//! - *push* walks the frontier and ORs each frontier word into its
//!   neighbours' `next` words;
//! - *pull* walks the vertices still missing lanes, and each ORs its
//!   neighbours' frontier words.
//!
//! Both are the same OR over the same edges, grouped by the other endpoint,
//! so a pull level yields exactly the push level's lanes, given two
//! conditions. Pull visits every vertex the traversal may enter that misses
//! a lane: all of them under the weak metric, the members under the strong
//! one, whose non-member neighbours never hold lanes. It skips only full
//! vertices, whose `next` would be zero. And off the frontier every word is
//! zero: push clears each frontier word as it reads it, pull clears the
//! frontier's words after its scan, and then the arrays swap, so every
//! level starts with an all-zero `next`.
//!
//! Each level takes the pull direction when the frontier holds at least a
//! quarter as many vertices as still miss lanes (all vertices under the
//! weak metric, the members under the strong one). A dense frontier is the
//! common case on expanders, where the `2·d(u, ·)` stop saves little and
//! nearly every lane batch runs; pull then scans each vertex's
//! neighbourhood once per level instead of updating it once per frontier
//! neighbour.

use crate::graph::{Graph, Vertex};
use std::collections::VecDeque;

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// A radius-`r` ball around a set of sources, grouped by exact distance.
///
/// [`Ball::level`]`(j)` is the set `S_j` of vertices at distance exactly `j`
/// from the source set (so level 0 is the source set itself, intersected
/// with the alive mask), and the ball `N^r(S)` is all levels in order.
///
/// The layout is flat: one vertex array in BFS order, which is the levels
/// concatenated, plus each level's end offset into it. A traversal grows
/// the array in place and reads its frontier as the previous level's slice,
/// so a ball costs two vectors, not one per level. No level is empty: the
/// traversal stops at the first empty one, and a ball with no alive source
/// has no levels at all.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Ball {
    /// Every vertex of the ball, level by level.
    pub(crate) vertices: Vec<Vertex>,
    /// `ends[j]` is the end of level `j` in `vertices`.
    pub(crate) ends: Vec<usize>,
}

impl Ball {
    /// Total number of vertices in the ball.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the ball contains no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Radius actually reached (may be smaller than requested if the
    /// component was exhausted).
    pub fn radius(&self) -> usize {
        self.ends.len().saturating_sub(1)
    }

    /// Iterates over every vertex in the ball.
    pub fn iter(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.vertices.iter().copied()
    }

    /// All vertices with distance `<= r` from the sources.
    pub fn within(&self, r: usize) -> impl Iterator<Item = Vertex> + '_ {
        let end = self.ends.get(r).or(self.ends.last()).copied().unwrap_or(0);
        self.vertices[..end].iter().copied()
    }

    /// The level set `S_j` (empty slice if `j` exceeds the reached radius).
    pub fn level(&self, j: usize) -> &[Vertex] {
        let Some(&end) = self.ends.get(j) else {
            return &[];
        };
        let start = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.vertices[start..end]
    }

    /// The level sets `S_0, S_1, …` up to the reached radius.
    pub fn levels(&self) -> impl Iterator<Item = &[Vertex]> + '_ {
        (0..self.ends.len()).map(|j| self.level(j))
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
    let mut ball = Ball::default();
    for &s in sources {
        if is_alive(s) && !seen[s as usize] {
            seen[s as usize] = true;
            ball.vertices.push(s);
        }
    }
    if ball.is_empty() {
        return ball;
    }
    ball.ends.push(ball.len());
    let mut start = 0;
    for _depth in 1..=r {
        let end = ball.len();
        for i in start..end {
            for &w in g.neighbors(ball.vertices[i]) {
                if is_alive(w) && !seen[w as usize] {
                    seen[w as usize] = true;
                    ball.vertices.push(w);
                }
            }
        }
        if ball.len() == end {
            break;
        }
        ball.ends.push(ball.len());
        start = end;
    }
    // Restore the scratch invariant: clear exactly the marks we set.
    for &v in &ball.vertices {
        seen[v as usize] = false;
    }
    ball
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

/// A lane-BFS level runs in the pull direction when its frontier holds at
/// least `1 / PULL` of the vertices still missing lanes.
const PULL: usize = 4;

/// Slots of [`DiameterKernel::sweeps`]: the BFSes from the landmarks `a`,
/// `b`, `m` and `c` of the [module docs](self). Slot `A` also serves the
/// BFSes from `S[0]` and from the pivot.
const A: usize = 0;
const B: usize = 1;
const M: usize = 2;
const C: usize = 3;

/// One early-stopping BFS and the distances it labelled.
struct Sweep {
    dist: Vec<u32>,
    /// The BFS queue, which lists the vertices `dist` labels.
    queue: Vec<Vertex>,
}

/// The exact set-diameter kernel of the [module docs](self).
///
/// The buffers are sized to `g` once and clean up after every set: between
/// sets `member` is all-false, every `dist` all-[`UNREACHABLE`], the lane
/// words all zero, and the lists empty.
struct DiameterKernel<'g> {
    g: &'g Graph,
    /// Traversals stay inside the set (strong metric).
    confined: bool,
    /// Membership mask of the set in progress.
    member: Vec<bool>,
    sweeps: [Sweep; 4],
    /// The members by decreasing distance from the pivot.
    order: Vec<Vertex>,
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
    /// Pull levels' scan list: a superset of the vertices the batch may
    /// enter that still miss lanes, built at the batch's first pull level.
    missing: Vec<Vertex>,
}

impl<'g> DiameterKernel<'g> {
    fn new(g: &'g Graph, confined: bool) -> Self {
        let n = g.n();
        DiameterKernel {
            g,
            confined,
            member: vec![false; n],
            sweeps: std::array::from_fn(|_| Sweep {
                dist: vec![UNREACHABLE; n],
                queue: Vec::new(),
            }),
            order: Vec::new(),
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            touched: Vec::new(),
            cur: Vec::new(),
            nxt: Vec::new(),
            missing: Vec::new(),
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
    fn raise(&mut self, s: &[Vertex], lb: u32) -> Option<u32> {
        let Some(&first) = s.first() else {
            return Some(lb);
        };
        if s.len() <= LANES {
            return Some(lb.max(self.max_eccentricity(s, s)?));
        }
        let (swept, u) = self.pivot(first, s.len())?;
        let mut lb = lb.max(swept);
        self.sweep(A, u, s.len())
            .expect("the pivot lies in the members' component");
        let mut order = std::mem::take(&mut self.order);
        order.extend_from_slice(s);
        let dist = &self.sweeps[A].dist;
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(dist[v as usize]));
        for batch in order.chunks(LANES) {
            // `lb ≥ 2·d(u, batch[0])`, written so it cannot overflow.
            if self.sweeps[A].dist[batch[0] as usize] <= lb / 2 {
                break;
            }
            let ecc = self.max_eccentricity(batch, s);
            lb = lb.max(ecc.expect("the set is connected"));
        }
        self.clear(A);
        order.clear();
        self.order = order;
        Some(lb)
    }

    /// The sweeps of the [module docs](self) from `first`, a member of the
    /// marked set: the largest member eccentricity they find, and the
    /// central pivot. `None` if the set is disconnected.
    fn pivot(&mut self, first: Vertex, members: usize) -> Option<(u32, Vertex)> {
        // Connectivity, and the farthest member `a` from `S[0]`.
        let far = self.sweep(A, first, members);
        self.clear(A);
        let (a, ecc_first) = far?;
        let connected = "a set connected from S[0] is connected from any of its vertices";
        let (b, ecc_a) = self.sweep(A, a, members).expect(connected);
        let m = self.step_back(A, b, ecc_a / 2);
        let (_, ecc_b) = self.sweep(B, b, members).expect(connected);
        let (c, ecc_m) = self
            .sweep(M, m, members)
            .expect("m lies on a path between members");
        let (_, ecc_c) = self.sweep(C, c, members).expect(connected);
        let mut lb = ecc_first.max(ecc_a).max(ecc_b).max(ecc_c);
        if self.member[m as usize] {
            lb = lb.max(ecc_m);
        }
        // The vertex all four BFSes label whose largest distance to the
        // landmarks is smallest (ties: smallest id). `m` labels itself,
        // and an unlabelled distance reads as `UNREACHABLE`, the largest
        // `u32`.
        let [da, db, dm, dc] = self.sweeps.each_ref().map(|sweep| &sweep.dist);
        let farthest = |x: usize| da[x].max(db[x]).max(dm[x]).max(dc[x]);
        let u = self.sweeps[M]
            .queue
            .iter()
            .copied()
            .min_by_key(|&x| (farthest(x as usize), x))
            .expect("a BFS labels its source");
        for slot in [A, B, M, C] {
            self.clear(slot);
        }
        Some((lb, u))
    }

    /// BFS from `src` into `sweeps[slot]`, stopped once all `members`
    /// marked vertices are labelled; `src` itself counts only if it is
    /// marked. Returns the member labelled last — the farthest one — with
    /// its distance, or `None` if the traversal runs dry first. Leaves the
    /// slot labelled; [`Self::clear`] resets it.
    fn sweep(&mut self, slot: usize, src: Vertex, members: usize) -> Option<(Vertex, u32)> {
        let Self {
            g,
            confined,
            member,
            sweeps,
            ..
        } = self;
        let Sweep { dist, queue } = &mut sweeps[slot];
        dist[src as usize] = 0;
        queue.push(src);
        let mut found = usize::from(member[src as usize]);
        let mut far = (src, 0);
        let mut head = 0;
        while found < members {
            let &x = queue.get(head)?;
            head += 1;
            let dy = dist[x as usize] + 1;
            for &y in g.neighbors(x) {
                let yi = y as usize;
                if dist[yi] == UNREACHABLE && (!*confined || member[yi]) {
                    dist[yi] = dy;
                    queue.push(y);
                    if member[yi] {
                        found += 1;
                        far = (y, dy);
                    }
                }
            }
        }
        Some(far)
    }

    /// The vertex `k` levels closer to the source of `sweeps[slot]` on a
    /// shortest path from `v`.
    fn step_back(&self, slot: usize, mut v: Vertex, k: u32) -> Vertex {
        let dist = &self.sweeps[slot].dist;
        for _ in 0..k {
            let up = dist[v as usize] - 1;
            v = *self
                .g
                .neighbors(v)
                .iter()
                .find(|&&w| dist[w as usize] == up)
                .expect("a labelled vertex has a neighbour one level up");
        }
        v
    }

    fn clear(&mut self, slot: usize) {
        let Sweep { dist, queue } = &mut self.sweeps[slot];
        for &v in queue.iter() {
            dist[v as usize] = UNREACHABLE;
        }
        queue.clear();
    }

    /// The largest exact eccentricity among up to [`LANES`] members of the
    /// set `s`: one BFS whose lane `i` carries `batch[i]`, run level by
    /// level until every member holds every lane. A lane's eccentricity is
    /// the level at which its last member is reached, so the level at which
    /// the last (member, lane) pair fills is the batch's maximum. `None` if
    /// the BFS runs dry first: then some member misses some lane, so `s` is
    /// disconnected.
    fn max_eccentricity(&mut self, batch: &[Vertex], s: &[Vertex]) -> Option<u32> {
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
            missing,
            ..
        } = self;
        let all = u64::MAX >> (LANES - batch.len());
        // Vertices the BFS may enter, and how many of them (and of the
        // members) hold every lane.
        let domain = if *confined { s.len() } else { g.n() };
        let (mut full, mut filled) = (0, 0);
        for (i, &v) in batch.iter().enumerate() {
            let v = v as usize;
            seen[v] = 1 << i;
            frontier[v] = 1 << i;
            let is_full = usize::from(seen[v] == all);
            full += is_full;
            filled += is_full;
            cur.push(v as Vertex);
            touched.push(v as Vertex);
        }
        let mut level = 0;
        let mut pulled = false;
        while filled < s.len() && !cur.is_empty() {
            level += 1;
            if cur.len() * PULL >= domain - full {
                if !pulled {
                    pulled = true;
                    if *confined {
                        missing.extend(s.iter().filter(|&&v| seen[v as usize] != all));
                    } else {
                        missing.extend((0..g.n() as Vertex).filter(|&v| seen[v as usize] != all));
                    }
                }
                missing.retain(|&y| {
                    let y = y as usize;
                    let had = seen[y];
                    let lanes = g
                        .neighbors(y as Vertex)
                        .iter()
                        .fold(0, |acc, &x| acc | frontier[x as usize]);
                    let new = lanes & !had;
                    if new != 0 {
                        seen[y] = had | new;
                        if had == 0 {
                            touched.push(y as Vertex);
                        }
                        next[y] = new;
                        nxt.push(y as Vertex);
                    }
                    seen[y] != all
                });
                for &x in cur.iter() {
                    frontier[x as usize] = 0;
                }
            } else {
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
            }
            // Both directions zeroed the old frontier's words, so the swap
            // moves the new level's words in and leaves `next` all zero.
            std::mem::swap(frontier, next);
            cur.clear();
            std::mem::swap(cur, nxt);
            for &y in cur.iter() {
                // `y` gained lanes at this level, so it was not full before.
                if seen[y as usize] == all {
                    full += 1;
                    filled += usize::from(member[y as usize]);
                }
            }
        }
        let done = filled == s.len();
        for &v in touched.iter() {
            seen[v as usize] = 0;
            frontier[v as usize] = 0;
        }
        touched.clear();
        cur.clear();
        missing.clear();
        done.then_some(level)
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

    /// The sweeps' result on `s`, marked as the set in progress.
    fn pivot_of(g: &Graph, s: &[Vertex], confined: bool) -> Option<(u32, Vertex)> {
        let mut kernel = DiameterKernel::new(g, confined);
        for &v in s {
            kernel.member[v as usize] = true;
        }
        kernel.pivot(s[0], s.len())
    }

    #[test]
    fn grid_pivot_is_the_centre() {
        // The BFS path between opposite corners runs along the boundary, so
        // `m` is a third corner; only the centre is 44 from all four.
        let g = gen::grid(45, 45);
        let all: Vec<Vertex> = g.vertices().collect();
        for confined in [false, true] {
            assert_eq!(pivot_of(&g, &all, confined), Some((88, 22 * 45 + 22)));
        }
    }

    #[test]
    fn weak_pivot_may_lie_outside_the_set() {
        // A 15×15 grid without its central 5×5 block: the landmarks are
        // corners again, and the centre, 14 from each, lies in the hole.
        let g = gen::grid(15, 15);
        let hole = |v: Vertex| (5..10).contains(&(v / 15)) && (5..10).contains(&(v % 15));
        let ring: Vec<Vertex> = g.vertices().filter(|&v| !hole(v)).collect();
        assert_eq!(pivot_of(&g, &ring, false), Some((28, 7 * 15 + 7)));
        let (lb, u) = pivot_of(&g, &ring, true).unwrap();
        assert_eq!(lb, 28);
        assert!(!hole(u));
        assert_eq!(max_weak_diameter(&g, [ring.as_slice()]), Some(28));
        assert_eq!(max_strong_diameter(&g, [ring.as_slice()]), Some(28));
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
