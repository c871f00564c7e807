//! Compressed-sparse-row (CSR) undirected graph.
//!
//! [`Graph`] is the workhorse topology type of the workspace: every
//! decomposition, every ILP hypergraph primal view and every simulator
//! network is ultimately a `Graph`. Vertices are dense `u32` identifiers
//! `0..n`; the adjacency of each vertex is stored sorted, so edge queries
//! are `O(log deg)` and neighbourhood scans are cache-friendly.

use crate::builder::GraphBuilder;

/// A vertex identifier. Vertices of an *n*-vertex graph are `0..n as u32`.
pub type Vertex = u32;

/// An immutable undirected simple graph in CSR form.
///
/// Construct one with [`GraphBuilder`], [`Graph::from_edges`], or any of the
/// generators in [`crate::gen`].
///
/// # Examples
///
/// ```
/// use dapc_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(0, 3));
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Graph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) adjacency: Vec<Vertex>,
    pub(crate) m: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adjacency: Vec::new(),
            m: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Self-loops are dropped and duplicate edges are merged; the pairs may
    /// be listed in either orientation.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbour slice of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.n() as Vertex
    }

    /// Iterates over all edges as ordered pairs `(u, v)` with `u < v`.
    ///
    /// ```
    /// use dapc_graph::Graph;
    /// let g = Graph::from_edges(3, &[(2, 1), (0, 2)]);
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges, vec![(0, 2), (1, 2)]);
    /// ```
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether every vertex has degree exactly `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        self.vertices().all(|v| self.degree(v) == d)
    }

    /// Connected components; returns `(component_id_per_vertex, count)`.
    ///
    /// Component ids are dense, assigned in order of the smallest vertex of
    /// each component.
    pub fn connected_components(&self) -> (Vec<u32>, usize) {
        let n = self.n();
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            comp[s] = next;
            stack.push(s as Vertex);
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }

    /// Connected components restricted to vertices with `alive[v] == true`.
    ///
    /// Dead vertices get component id `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len() != self.n()`.
    pub fn connected_components_masked(&self, alive: &[bool]) -> (Vec<u32>, usize) {
        assert_eq!(alive.len(), self.n(), "alive mask length mismatch");
        let n = self.n();
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for s in 0..n {
            if !alive[s] || comp[s] != u32::MAX {
                continue;
            }
            comp[s] = next;
            stack.push(s as Vertex);
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if alive[w as usize] && comp[w as usize] == u32::MAX {
                        comp[w as usize] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }

    /// The subgraph induced by `keep`, together with the map from new vertex
    /// ids to original ids.
    ///
    /// Vertices are renumbered `0..keep.len()` in the order given; duplicate
    /// entries in `keep` are forbidden.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains an out-of-range or duplicate vertex.
    ///
    /// ```
    /// use dapc_graph::Graph;
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    /// let (sub, back) = g.induced_subgraph(&[1, 2, 3]);
    /// assert_eq!(sub.n(), 3);
    /// assert_eq!(sub.m(), 2);
    /// assert_eq!(back, vec![1, 2, 3]);
    /// ```
    pub fn induced_subgraph(&self, keep: &[Vertex]) -> (Graph, Vec<Vertex>) {
        let mut new_id = vec![u32::MAX; self.n()];
        for (i, &v) in keep.iter().enumerate() {
            assert!(
                new_id[v as usize] == u32::MAX,
                "duplicate vertex {v} in induced_subgraph"
            );
            new_id[v as usize] = i as u32;
        }
        let mut b = GraphBuilder::new(keep.len());
        for (i, &v) in keep.iter().enumerate() {
            for &w in self.neighbors(v) {
                let nw = new_id[w as usize];
                if nw != u32::MAX && (i as u32) < nw {
                    b.add_edge(i as u32, nw);
                }
            }
        }
        (b.build(), keep.to_vec())
    }

    /// Returns `true` if the graph is bipartite (2-colourable).
    pub fn is_bipartite(&self) -> bool {
        self.bipartition().is_some()
    }

    /// A proper 2-colouring if one exists (one side per vertex), else `None`.
    pub fn bipartition(&self) -> Option<Vec<bool>> {
        let n = self.n();
        let mut side = vec![2u8; n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if side[s] != 2 {
                continue;
            }
            side[s] = 0;
            queue.push_back(s as Vertex);
            while let Some(u) = queue.pop_front() {
                let su = side[u as usize];
                for &w in self.neighbors(u) {
                    if side[w as usize] == 2 {
                        side[w as usize] = 1 - su;
                        queue.push_back(w);
                    } else if side[w as usize] == su {
                        return None;
                    }
                }
            }
        }
        Some(side.into_iter().map(|s| s == 1).collect())
    }

    /// Sum of degrees (`2m`); useful as a quick consistency check.
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }
}

impl std::fmt::Display for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_regular(0));
    }

    #[test]
    fn from_edges_dedups_and_drops_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(1), 2);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = Graph::from_edges(4, &[(3, 1), (2, 0), (1, 0)]);
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 3)]);
        assert_eq!(e.len(), g.m());
    }

    #[test]
    fn connected_components_basic() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let (comp, k) = g.connected_components();
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[4], comp[5]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[4]);
    }

    #[test]
    fn masked_components_ignore_dead() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let alive = vec![true, false, true, true];
        let (comp, k) = g.connected_components_masked(&alive);
        assert_eq!(k, 2);
        assert_eq!(comp[1], u32::MAX);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(comp[2], comp[3]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let (sub, back) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.m(), 3); // (1,2), (2,3), (1,3)
        assert_eq!(back.len(), 3);
        assert!(sub.has_edge(0, 2));
    }

    #[test]
    fn bipartition_detects_odd_cycle() {
        let even = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(even.is_bipartite());
        let odd = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(!odd.is_bipartite());
    }

    #[test]
    fn bipartition_sides_are_proper() {
        let g = Graph::from_edges(6, &[(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)]);
        let side = g.bipartition().expect("bipartite");
        for (u, v) in g.edges() {
            assert_ne!(side[u as usize], side[v as usize]);
        }
    }

    #[test]
    #[should_panic]
    fn induced_subgraph_rejects_duplicates() {
        let g = Graph::empty(3);
        let _ = g.induced_subgraph(&[0, 0]);
    }

    #[test]
    fn display_mentions_sizes() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert_eq!(format!("{g}"), "Graph(n=2, m=1)");
    }
}
