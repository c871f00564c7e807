//! Hypergraphs and the Definition 1.3 communication metric.
//!
//! A packing/covering ILP is modelled as a hypergraph `H` with one vertex
//! per variable and one hyperedge per constraint (the support of the
//! constraint row). Two vertices can talk in one round iff they share a
//! hyperedge; all distance computations in the ILP algorithms of §4–§5 use
//! this metric, optionally restricted to a residual sub-hypergraph (alive
//! vertices + alive hyperedges).

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};
use crate::traversal::{Ball, BallScratch};
use std::collections::VecDeque;

/// Identifier of a hyperedge within its [`Hypergraph`].
pub type EdgeId = u32;

/// An immutable hypergraph with dense `u32` vertex and hyperedge ids.
///
/// # Examples
///
/// ```
/// use dapc_graph::Hypergraph;
///
/// // Three variables, two constraints: {0,1} and {1,2}.
/// let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2]]);
/// assert_eq!(h.n(), 3);
/// assert_eq!(h.m(), 2);
/// assert_eq!(h.incident_edges(1), &[0, 1]);
/// assert_eq!(h.distance(0, 2), Some(2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<Vec<Vertex>>,
    incidence: Vec<Vec<EdgeId>>,
}

impl Hypergraph {
    /// Builds a hypergraph on `n` vertices from a list of hyperedges.
    ///
    /// Vertices inside each hyperedge are sorted and deduplicated; empty
    /// hyperedges are allowed (they are vacuous constraints).
    ///
    /// # Panics
    ///
    /// Panics if any hyperedge mentions a vertex `>= n`.
    pub fn new(n: usize, mut edges: Vec<Vec<Vertex>>) -> Self {
        let mut incidence: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, e) in edges.iter_mut().enumerate() {
            e.sort_unstable();
            e.dedup();
            for &v in e.iter() {
                assert!(
                    (v as usize) < n,
                    "hyperedge {i} mentions vertex {v} >= n={n}"
                );
                incidence[v as usize].push(i as EdgeId);
            }
        }
        Hypergraph {
            n,
            edges,
            incidence,
        }
    }

    /// Views an ordinary graph as a hypergraph (one 2-vertex hyperedge per
    /// edge). This makes every graph problem expressible in the ILP model.
    pub fn from_graph(g: &Graph) -> Self {
        Hypergraph::new(g.n(), g.edges().map(|(u, v)| vec![u, v]).collect())
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of hyperedges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The sorted vertex list of hyperedge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> &[Vertex] {
        &self.edges[e as usize]
    }

    /// Iterates over all hyperedges with their ids.
    pub fn hyperedges(&self) -> impl Iterator<Item = (EdgeId, &[Vertex])> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (i as EdgeId, e.as_slice()))
    }

    /// The hyperedges incident to vertex `v`, in increasing id order.
    pub fn incident_edges(&self, v: Vertex) -> &[EdgeId] {
        &self.incidence[v as usize]
    }

    /// Degree of `v` (number of incident hyperedges).
    pub fn degree(&self, v: Vertex) -> usize {
        self.incidence[v as usize].len()
    }

    /// Maximum hyperedge cardinality (the "rank" of the hypergraph).
    pub fn rank(&self) -> usize {
        self.edges.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The primal ("Gaifman") graph: `u ~ v` iff they share a hyperedge.
    /// This is exactly the communication topology of Definition 1.3.
    pub fn primal_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n);
        for e in &self.edges {
            for (i, &u) in e.iter().enumerate() {
                for &v in &e[i + 1..] {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    /// Hypergraph distance between two vertices (number of hops in the
    /// primal metric), or `None` if disconnected.
    pub fn distance(&self, u: Vertex, v: Vertex) -> Option<u32> {
        let b = self.ball(&[u], usize::MAX, None, None);
        let d = b.levels().position(|level| level.contains(&v))?;
        Some(d as u32)
    }

    /// Radius-`r` ball in the primal metric, grouped by exact distance,
    /// optionally restricted to alive vertices and alive hyperedges.
    ///
    /// A hop from `u` to `v` exists iff some alive hyperedge contains both
    /// and both endpoints are alive. Each hyperedge is expanded at most
    /// once, so the total work is `O(Σ|e| + n)` per call.
    ///
    /// # Panics
    ///
    /// Panics if a provided mask has the wrong length.
    pub fn ball(
        &self,
        sources: &[Vertex],
        r: usize,
        alive_vertices: Option<&[bool]>,
        alive_edges: Option<&[bool]>,
    ) -> Ball {
        self.ball_with_scratch(
            sources,
            r,
            alive_vertices,
            alive_edges,
            &mut BallScratch::new(),
        )
    }

    /// [`Hypergraph::ball`] against a caller-owned [`BallScratch`], so
    /// repeated extractions (the preparation step performs one per
    /// cluster) stop allocating the per-call vertex and hyperedge visited
    /// masks. Output is identical to [`Hypergraph::ball`].
    pub fn ball_with_scratch(
        &self,
        sources: &[Vertex],
        r: usize,
        alive_vertices: Option<&[bool]>,
        alive_edges: Option<&[bool]>,
        scratch: &mut BallScratch,
    ) -> Ball {
        if let Some(a) = alive_vertices {
            assert_eq!(a.len(), self.n, "vertex mask length mismatch");
        }
        if let Some(a) = alive_edges {
            assert_eq!(a.len(), self.edges.len(), "edge mask length mismatch");
        }
        let v_ok = |v: Vertex| alive_vertices.is_none_or(|a| a[v as usize]);
        let e_ok = |e: EdgeId| alive_edges.is_none_or(|a| a[e as usize]);
        scratch.ensure_vertices(self.n);
        scratch.ensure_edges(self.edges.len());
        let seen_v = &mut scratch.seen_v;
        let seen_e = &mut scratch.seen_e;
        let touched_e = &mut scratch.touched_e;
        let mut ball = Ball::default();
        for &s in sources {
            if v_ok(s) && !seen_v[s as usize] {
                seen_v[s as usize] = true;
                ball.vertices.push(s);
            }
        }
        if ball.is_empty() {
            return ball;
        }
        ball.ends.push(ball.len());
        let mut start = 0;
        for _depth in 0..r {
            let end = ball.len();
            for i in start..end {
                for &e in self.incident_edges(ball.vertices[i]) {
                    if seen_e[e as usize] || !e_ok(e) {
                        continue;
                    }
                    seen_e[e as usize] = true;
                    touched_e.push(e);
                    for &w in self.edge(e) {
                        if v_ok(w) && !seen_v[w as usize] {
                            seen_v[w as usize] = true;
                            ball.vertices.push(w);
                        }
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
            seen_v[v as usize] = false;
        }
        for e in touched_e.drain(..) {
            seen_e[e as usize] = false;
        }
        ball
    }

    /// Multi-source BFS distances in the primal metric (masked).
    /// Unreachable or dead vertices get [`crate::traversal::UNREACHABLE`].
    pub fn distances(
        &self,
        sources: &[Vertex],
        alive_vertices: Option<&[bool]>,
        alive_edges: Option<&[bool]>,
    ) -> Vec<u32> {
        let mut dist = vec![crate::traversal::UNREACHABLE; self.n];
        let v_ok = |v: Vertex| alive_vertices.is_none_or(|a| a[v as usize]);
        let e_ok = |e: EdgeId| alive_edges.is_none_or(|a| a[e as usize]);
        let mut seen_e = vec![false; self.edges.len()];
        let mut queue = VecDeque::new();
        for &s in sources {
            if v_ok(s) && dist[s as usize] == crate::traversal::UNREACHABLE {
                dist[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &e in self.incident_edges(u) {
                if seen_e[e as usize] || !e_ok(e) {
                    continue;
                }
                seen_e[e as usize] = true;
                for &w in self.edge(e) {
                    if v_ok(w) && dist[w as usize] == crate::traversal::UNREACHABLE {
                        dist[w as usize] = du + 1;
                        queue.push_back(w);
                    }
                }
            }
        }
        dist
    }

    /// Connected components of the alive vertices in the primal metric,
    /// where only alive hyperedges (`None`: all) connect; returns
    /// `(component_id_per_vertex, count)`, like
    /// [`Graph::connected_components_masked`].
    ///
    /// Component ids are dense, assigned in order of the smallest vertex of
    /// each component. Dead vertices get component id `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if a mask has the wrong length.
    pub fn connected_components_masked(
        &self,
        alive_vertices: &[bool],
        alive_edges: Option<&[bool]>,
    ) -> (Vec<u32>, usize) {
        assert_eq!(alive_vertices.len(), self.n, "vertex mask length mismatch");
        if let Some(a) = alive_edges {
            assert_eq!(a.len(), self.edges.len(), "edge mask length mismatch");
        }
        // An alive hyperedge's alive vertices share one component, so each
        // hyperedge is expanded at most once over the whole labelling.
        let mut open_e: Vec<bool> = match alive_edges {
            Some(a) => a.to_vec(),
            None => vec![true; self.edges.len()],
        };
        let mut comp = vec![u32::MAX; self.n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if !alive_vertices[s] || comp[s] != u32::MAX {
                continue;
            }
            comp[s] = next;
            stack.push(s as Vertex);
            while let Some(u) = stack.pop() {
                for &e in self.incident_edges(u) {
                    if !open_e[e as usize] {
                        continue;
                    }
                    open_e[e as usize] = false;
                    for &w in self.edge(e) {
                        if alive_vertices[w as usize] && comp[w as usize] == u32::MAX {
                            comp[w as usize] = next;
                            stack.push(w);
                        }
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }
}

impl std::fmt::Display for Hypergraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hypergraph(n={}, m={})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn triangle_chain() -> Hypergraph {
        // Hyperedges {0,1,2}, {2,3,4}, {4,5,6}: a chain of triangles.
        Hypergraph::new(7, vec![vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 6]])
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let h = Hypergraph::new(4, vec![vec![2, 0, 2, 1]]);
        assert_eq!(h.edge(0), &[0, 1, 2]);
        assert_eq!(h.rank(), 3);
    }

    #[test]
    fn from_graph_matches() {
        let g = gen::cycle(5);
        let h = Hypergraph::from_graph(&g);
        assert_eq!(h.m(), 5);
        assert_eq!(h.primal_graph(), g);
    }

    #[test]
    fn primal_distances() {
        let h = triangle_chain();
        assert_eq!(h.distance(0, 1), Some(1)); // share edge 0
        assert_eq!(h.distance(0, 3), Some(2)); // via vertex 2
        assert_eq!(h.distance(0, 6), Some(3));
        assert_eq!(h.distance(0, 0), Some(0));
    }

    #[test]
    fn disconnected_distance_is_none() {
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(h.distance(0, 3), None);
    }

    #[test]
    fn ball_levels_in_hypergraph_metric() {
        let h = triangle_chain();
        let b = h.ball(&[0], 2, None, None);
        assert_eq!(b.level(0), &[0]);
        let mut l1 = b.level(1).to_vec();
        l1.sort_unstable();
        assert_eq!(l1, vec![1, 2]);
        let mut l2 = b.level(2).to_vec();
        l2.sort_unstable();
        assert_eq!(l2, vec![3, 4]);
    }

    #[test]
    fn masked_ball_respects_dead_edge() {
        let h = triangle_chain();
        let edge_alive = vec![true, false, true];
        let b = h.ball(&[0], 5, None, Some(&edge_alive));
        // Edge {2,3,4} is dead, so nothing past vertex 2.
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn masked_ball_respects_dead_vertex() {
        let h = triangle_chain();
        let mut alive = vec![true; 7];
        alive[2] = false;
        alive[4] = false;
        let b = h.ball(&[0], 5, Some(&alive), None);
        // With both shared vertices dead the chain is cut... but edge 0 is
        // still alive, so 0 reaches 1 only.
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let h = triangle_chain();
        let mut scratch = BallScratch::new();
        let edge_alive = vec![true, false, true];
        let mut v_alive = vec![true; 7];
        v_alive[2] = false;
        for r in 0..5 {
            assert_eq!(
                h.ball_with_scratch(&[0], r, None, None, &mut scratch),
                h.ball(&[0], r, None, None)
            );
            assert_eq!(
                h.ball_with_scratch(&[0, 6], r, Some(&v_alive), Some(&edge_alive), &mut scratch),
                h.ball(&[0, 6], r, Some(&v_alive), Some(&edge_alive))
            );
        }
    }

    #[test]
    fn weak_diameter_of_chain_in_the_primal_graph() {
        let g = triangle_chain().primal_graph();
        let weak = |s: &[Vertex]| crate::traversal::max_weak_diameter(&g, [s]);
        assert_eq!(weak(&[0, 6]), Some(3));
        assert_eq!(weak(&[1, 2]), Some(1));
    }

    #[test]
    fn distances_multi_source() {
        let h = triangle_chain();
        let d = h.distances(&[0, 6], None, None);
        assert_eq!(d[3], 2);
        assert_eq!(d[4], 1);
        assert_eq!(d[2], 1);
    }

    #[test]
    fn empty_hyperedges_are_tolerated() {
        let h = Hypergraph::new(2, vec![vec![], vec![0, 1]]);
        assert_eq!(h.m(), 2);
        assert_eq!(h.edge(0), &[] as &[Vertex]);
        assert_eq!(h.distance(0, 1), Some(1));
    }
}
