//! Incremental construction of [`Graph`]s.

use crate::graph::{Graph, Vertex};

/// Accumulates edges and produces a deduplicated CSR [`Graph`].
///
/// Self-loops are silently dropped and parallel edges merged, so callers can
/// add edges opportunistically (e.g. both orientations) without bookkeeping.
///
/// # Examples
///
/// ```
/// use dapc_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, merged
/// b.add_edge(2, 2); // self-loop, dropped
/// let g = b.build();
/// assert_eq!(g.m(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is `>= n`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        if u != v {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            self.edges.push((a, b));
        }
        self
    }

    /// Grows the vertex count to at least `n` (never shrinks).
    pub fn ensure_vertices(&mut self, n: usize) -> &mut Self {
        if n > self.n {
            self.n = n;
        }
        self
    }

    /// Finalises the CSR representation.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();
        let mut degree = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![0 as Vertex; 2 * m];
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Edges were added in sorted canonical order, but each vertex's list
        // mixes "smaller" and "larger" endpoints; sort each slice.
        for v in 0..self.n {
            adjacency[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph {
            offsets,
            adjacency,
            m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::with_capacity(4, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert!(g.is_regular(2));
    }

    #[test]
    fn ensure_vertices_grows() {
        let mut b = GraphBuilder::new(2);
        b.ensure_vertices(5);
        b.add_edge(0, 4);
        let g = b.build();
        assert_eq!(g.n(), 5);
        assert!(g.has_edge(0, 4));
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn heavy_duplication_collapses() {
        let mut b = GraphBuilder::new(3);
        for _ in 0..100 {
            b.add_edge(0, 1);
            b.add_edge(1, 0);
        }
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree_sum(), 2);
    }
}
