//! Edge subdivision `G ↦ G_x` and the `G*` gadget, the two reductions used
//! by the lower bounds of Appendix B.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};

/// Result of subdividing every edge of a graph into a path of length
/// `2x + 1` (Theorem B.3 / B.7 of the paper).
///
/// Original vertex `v` keeps its id `v`; the `2x` interior vertices of the
/// path replacing edge `e` are laid out consecutively starting at
/// `n + e_index * 2x`, ordered from the smaller endpoint towards the larger.
#[derive(Clone, Debug)]
pub struct Subdivision {
    /// The subdivided graph on `n + 2x·m` vertices.
    pub graph: Graph,
    /// Subdivision parameter `x` (each edge becomes a path of `2x+1` edges).
    pub x: usize,
    /// Number of original vertices.
    pub original_n: usize,
    /// Original edges in canonical `(u, v)` order, indexable by edge id.
    pub original_edges: Vec<(Vertex, Vertex)>,
}

impl Subdivision {
    /// The interior vertices of the path replacing edge `e`, ordered from
    /// the smaller endpoint.
    pub fn interior_of_edge(&self, e: usize) -> Vec<Vertex> {
        let base = self.original_n + e * 2 * self.x;
        (0..2 * self.x).map(|i| (base + i) as Vertex).collect()
    }
}

/// Subdivides every edge of `g` into a path of length `2x + 1`.
///
/// For `x = 0` this returns `g` itself (wrapped in a [`Subdivision`]).
/// The result is always bipartite-preserving in the sense used by the lower
/// bound proofs: if `g` is bipartite then so is `G_x`, and the size of a
/// maximum independent set satisfies `α(G_x) = α(G) + x·m` for bipartite
/// regular `g` (used by Theorem B.3).
///
/// ```
/// use dapc_graph::{gen, subdivide::subdivide};
/// let g = gen::cycle(3);
/// let s = subdivide(&g, 1); // every edge -> path of length 3: C3 -> C9
/// assert_eq!(s.graph.n(), 9);
/// assert_eq!(s.graph.m(), 9);
/// ```
pub fn subdivide(g: &Graph, x: usize) -> Subdivision {
    let original_edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    if x == 0 {
        return Subdivision {
            graph: g.clone(),
            x,
            original_n: g.n(),
            original_edges,
        };
    }
    let n = g.n();
    let m = original_edges.len();
    let total = n + 2 * x * m;
    let mut b = GraphBuilder::with_capacity(total, (2 * x + 1) * m);
    for (e, &(u, v)) in original_edges.iter().enumerate() {
        let base = n + e * 2 * x;
        let mut prev = u;
        for i in 0..2 * x {
            let w = (base + i) as Vertex;
            b.add_edge(prev, w);
            prev = w;
        }
        b.add_edge(prev, v);
    }
    Subdivision {
        graph: b.build(),
        x,
        original_n: n,
        original_edges,
    }
}

/// The `G* = (V*, E*)` gadget of Theorem B.5: for every edge `e = {u, v}`
/// add a fresh vertex `w_e` adjacent to both `u` and `v`.
///
/// `γ(G*) = τ(G)` (the minimum dominating set of `G*` equals the minimum
/// vertex cover of `G`), which transfers the vertex-cover lower bound to
/// dominating set.
///
/// The gadget vertex for edge id `e` is `n + e`.
pub fn dominating_set_gadget(g: &Graph) -> (Graph, Vec<(Vertex, Vertex)>) {
    let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    let n = g.n();
    let mut b = GraphBuilder::with_capacity(n + edges.len(), g.m() + 2 * edges.len());
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    for (e, &(u, v)) in edges.iter().enumerate() {
        let w = (n + e) as Vertex;
        b.add_edge(w, u);
        b.add_edge(w, v);
    }
    (b.build(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::girth::girth;
    use crate::traversal;

    #[test]
    fn subdivide_zero_is_identity() {
        let g = gen::cycle(5);
        let s = subdivide(&g, 0);
        assert_eq!(s.graph, g);
    }

    #[test]
    fn subdivide_counts() {
        let g = gen::complete(4); // n=4, m=6
        let s = subdivide(&g, 2); // each edge -> path of length 5
        assert_eq!(s.graph.n(), 4 + 4 * 6);
        assert_eq!(s.graph.m(), 5 * 6);
        // Original vertices keep their degree.
        for v in 0..4u32 {
            assert_eq!(s.graph.degree(v), 3);
        }
        // Interior vertices have degree 2.
        for w in 4..s.graph.n() as Vertex {
            assert_eq!(s.graph.degree(w), 2);
        }
    }

    #[test]
    fn subdivide_scales_girth() {
        let g = gen::cycle(4);
        let s = subdivide(&g, 1);
        assert_eq!(girth(&s.graph), Some(12));
    }

    #[test]
    fn subdivide_preserves_bipartiteness_and_distances() {
        let g = gen::complete_bipartite(3, 3);
        let s = subdivide(&g, 3);
        assert!(s.graph.is_bipartite());
        // Distance between original endpoints of an edge is 2x+1.
        let (u, v) = s.original_edges[0];
        let d = traversal::bfs_distances(&s.graph, u);
        assert_eq!(d[v as usize], 7);
    }

    #[test]
    fn interior_of_edge_runs_from_the_smaller_endpoint() {
        let g = gen::cycle(3);
        let s = subdivide(&g, 2);
        for e in 0..3 {
            let interior = s.interior_of_edge(e);
            assert_eq!(interior.len(), 4);
            let from_smaller = traversal::bfs_distances(&s.graph, s.original_edges[e].0);
            for (i, &w) in interior.iter().enumerate() {
                assert_eq!(from_smaller[w as usize], i as u32 + 1);
                assert!(
                    w as usize >= s.original_n,
                    "interior vertex {w} is original"
                );
            }
        }
    }

    #[test]
    fn gadget_counts_and_degrees() {
        let g = gen::cycle(5);
        let (gs, edges) = dominating_set_gadget(&g);
        assert_eq!(gs.n(), 10);
        assert_eq!(gs.m(), 15);
        for (e, &(u, v)) in edges.iter().enumerate() {
            let w = (5 + e) as Vertex;
            assert_eq!(gs.degree(w), 2);
            assert!(gs.has_edge(w, u));
            assert!(gs.has_edge(w, v));
        }
    }
}
