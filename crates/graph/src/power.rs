//! Power graphs `G^k`.
//!
//! The Ghaffari–Kuhn–Maus baseline (§1.2 of the paper) computes a network
//! decomposition of the power graph `G^{2k}`, whose edges join every pair of
//! vertices at distance at most `2k` in `G`.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};
use crate::traversal::{self, BallScratch};

/// The `k`-th power of `g`, or of the subgraph its `alive` vertices
/// induce: vertices are unchanged, and `u ~ v` iff both are alive and
/// `1 <= dist(u, v) <= k` through alive vertices. Pass `None` for all of
/// `g`; a dead vertex is isolated.
///
/// Runs a truncated BFS per vertex on one reused scratch;
/// `O(n · |ball|)`. For `k = 0` the result has no edges, and `G^1 = G`.
///
/// ```
/// use dapc_graph::{gen, power::power_graph};
/// let p = gen::path(5);
/// let p2 = power_graph(&p, 2, None);
/// assert!(p2.has_edge(0, 2));
/// assert!(!p2.has_edge(0, 3));
/// let alive = [true, false, true, true, true];
/// assert!(!power_graph(&p, 2, Some(&alive)).has_edge(0, 2));
/// ```
pub fn power_graph(g: &Graph, k: usize, alive: Option<&[bool]>) -> Graph {
    let mut b = GraphBuilder::new(g.n());
    if k == 0 {
        return b.build();
    }
    let mut scratch = BallScratch::new();
    for v in g.vertices() {
        let ball = traversal::ball_with_scratch(g, &[v], k, alive, &mut scratch);
        for u in ball.iter() {
            if u > v {
                b.add_edge(v, u);
            }
        }
    }
    b.build()
}

/// Distance-`k` closed neighbourhoods `N^k(v)` for every vertex, as sorted
/// vertex lists. `N^k(v)` always contains `v` itself.
///
/// This is the hyperedge family of the minimum-weight `k`-distance
/// dominating set problem (Definition 1.3 of the paper).
pub fn k_neighborhoods(g: &Graph, k: usize) -> Vec<Vec<Vertex>> {
    let mut scratch = BallScratch::new();
    g.vertices()
        .map(|v| {
            let mut ball: Vec<Vertex> =
                traversal::ball_with_scratch(g, &[v], k, None, &mut scratch)
                    .iter()
                    .collect();
            ball.sort_unstable();
            ball
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn zeroth_power_is_edgeless() {
        let g = gen::cycle(5);
        assert_eq!(power_graph(&g, 0, None).m(), 0);
    }

    #[test]
    fn first_power_is_identity() {
        let g = gen::gnp(60, 0.1, &mut gen::seeded_rng(2));
        assert_eq!(power_graph(&g, 1, None), g);
    }

    #[test]
    fn cycle_square() {
        let g = gen::cycle(8);
        let g2 = power_graph(&g, 2, None);
        assert!(g2.is_regular(4));
        assert!(g2.has_edge(0, 2));
        assert!(!g2.has_edge(0, 3));
    }

    #[test]
    fn large_power_is_per_component_clique() {
        let g = gen::path(6);
        let gp = power_graph(&g, 10, None);
        assert_eq!(gp.m(), 15);
    }

    #[test]
    fn power_respects_components() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let gp = power_graph(&g, 5, None);
        assert!(gp.has_edge(0, 1));
        assert!(gp.has_edge(2, 3));
        assert!(!gp.has_edge(1, 2));
    }

    #[test]
    fn k_neighborhoods_on_path() {
        let g = gen::path(5);
        let nk = k_neighborhoods(&g, 1);
        assert_eq!(nk[0], vec![0, 1]);
        assert_eq!(nk[2], vec![1, 2, 3]);
        let nk2 = k_neighborhoods(&g, 2);
        assert_eq!(nk2[2], vec![0, 1, 2, 3, 4]);
    }

    use crate::graph::Graph;
}
