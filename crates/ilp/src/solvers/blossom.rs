//! Edmonds' blossom algorithm for maximum cardinality matching.
//!
//! Matching is the one packing problem in the paper's repertoire whose
//! local sub-instances are solvable in polynomial time, so the "free local
//! computation" assumption of the LOCAL model costs us nothing here: every
//! cluster solves its local matching *exactly* with this `O(V³)`
//! implementation.

use dapc_graph::{Graph, Vertex};
use std::collections::VecDeque;

const NONE: u32 = u32::MAX;

/// A matching: `mate[v]` is the partner of `v`, if any.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// Partner of each vertex (`None` for exposed vertices).
    pub mate: Vec<Option<Vertex>>,
}

impl Matching {
    /// Number of matched edges.
    pub fn size(&self) -> usize {
        self.mate.iter().flatten().count() / 2
    }

    /// The matched edges in canonical `(u, v)`, `u < v` order.
    pub fn edges(&self) -> Vec<(Vertex, Vertex)> {
        let mut out = Vec::new();
        for (v, &m) in self.mate.iter().enumerate() {
            if let Some(u) = m {
                if (v as Vertex) < u {
                    out.push((v as Vertex, u));
                }
            }
        }
        out
    }

    /// Checks the matching is valid in `g` (symmetric, over real edges).
    #[cfg(test)]
    pub fn is_valid(&self, g: &Graph) -> bool {
        self.mate.iter().enumerate().all(|(v, &m)| match m {
            None => true,
            Some(u) => g.has_edge(v as Vertex, u) && self.mate[u as usize] == Some(v as Vertex),
        })
    }
}

/// Computes a maximum cardinality matching of `g` via repeated augmenting
/// path searches with blossom contraction.
///
/// ```
/// use dapc_graph::gen;
/// use dapc_ilp::solvers::blossom::max_matching;
///
/// let m = max_matching(&gen::cycle(8));
/// assert_eq!(m.size(), 4); // perfect matching on an even cycle
/// let m = max_matching(&gen::cycle(9));
/// assert_eq!(m.size(), 4); // odd cycle leaves one vertex exposed
/// ```
pub fn max_matching(g: &Graph) -> Matching {
    let n = g.n();
    let mut mate = vec![NONE; n];
    // Greedy warm start halves the number of augmenting searches.
    for v in 0..n as Vertex {
        if mate[v as usize] == NONE {
            for &u in g.neighbors(v) {
                if mate[u as usize] == NONE {
                    mate[v as usize] = u;
                    mate[u as usize] = v;
                    break;
                }
            }
        }
    }
    for root in 0..n as Vertex {
        if mate[root as usize] != NONE {
            continue;
        }
        if let Some((exposed, parent)) = find_augmenting_path(g, &mate, root) {
            // Augment: flip matched/unmatched along the alternating path.
            let mut u = exposed;
            while u != NONE {
                let pv = parent[u as usize];
                let ppv = mate[pv as usize];
                mate[u as usize] = pv;
                mate[pv as usize] = u;
                u = ppv;
            }
        }
    }
    Matching {
        mate: mate.into_iter().map(|m| (m != NONE).then_some(m)).collect(),
    }
}

/// BFS for an augmenting path from `root`, contracting blossoms on the fly.
/// Returns the exposed endpoint and the parent array to augment along.
fn find_augmenting_path(g: &Graph, mate: &[u32], root: Vertex) -> Option<(Vertex, Vec<u32>)> {
    let n = g.n();
    let mut used = vec![false; n];
    let mut parent = vec![NONE; n];
    let mut base: Vec<u32> = (0..n as u32).collect();
    used[root as usize] = true;
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &to in g.neighbors(v) {
            if base[v as usize] == base[to as usize] || mate[v as usize] == to {
                continue;
            }
            if to == root
                || (mate[to as usize] != NONE && parent[mate[to as usize] as usize] != NONE)
            {
                // Odd cycle: contract the blossom rooted at the LCA.
                let curbase = lca(mate, &parent, &base, v, to);
                let mut blossom = vec![false; n];
                mark_path(mate, &mut parent, &base, &mut blossom, v, curbase, to);
                mark_path(mate, &mut parent, &base, &mut blossom, to, curbase, v);
                for i in 0..n {
                    if blossom[base[i] as usize] {
                        base[i] = curbase;
                        if !used[i] {
                            used[i] = true;
                            queue.push_back(i as Vertex);
                        }
                    }
                }
            } else if parent[to as usize] == NONE {
                parent[to as usize] = v;
                if mate[to as usize] == NONE {
                    return Some((to, parent));
                }
                used[mate[to as usize] as usize] = true;
                queue.push_back(mate[to as usize]);
            }
        }
    }
    None
}

fn mark_path(
    mate: &[u32],
    parent: &mut [u32],
    base: &[u32],
    blossom: &mut [bool],
    mut v: Vertex,
    b: Vertex,
    mut child: Vertex,
) {
    while base[v as usize] != b {
        blossom[base[v as usize] as usize] = true;
        blossom[base[mate[v as usize] as usize] as usize] = true;
        parent[v as usize] = child;
        child = mate[v as usize];
        v = parent[mate[v as usize] as usize];
    }
}

fn lca(mate: &[u32], parent: &[u32], base: &[u32], a: Vertex, b: Vertex) -> Vertex {
    let n = mate.len();
    let mut seen = vec![false; n];
    let mut v = a;
    loop {
        v = base[v as usize];
        seen[v as usize] = true;
        if mate[v as usize] == NONE {
            break;
        }
        v = parent[mate[v as usize] as usize];
    }
    let mut v = b;
    loop {
        v = base[v as usize];
        if seen[v as usize] {
            return v;
        }
        v = parent[mate[v as usize] as usize];
    }
}

/// Exhaustive maximum matching by edge-subset search — for cross-checking
/// the blossom implementation on small graphs.
#[cfg(test)]
pub fn brute_force_matching_size(g: &Graph) -> usize {
    let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    fn rec(edges: &[(Vertex, Vertex)], used: &mut [bool], idx: usize, size: usize) -> usize {
        if idx == edges.len() {
            return size;
        }
        let mut best = rec(edges, used, idx + 1, size);
        let (u, v) = edges[idx];
        if !used[u as usize] && !used[v as usize] {
            used[u as usize] = true;
            used[v as usize] = true;
            best = best.max(rec(edges, used, idx + 1, size + 1));
            used[u as usize] = false;
            used[v as usize] = false;
        }
        best
    }
    let mut used = vec![false; g.n()];
    rec(&edges, &mut used, 0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    #[test]
    fn classic_families() {
        assert_eq!(max_matching(&gen::path(2)).size(), 1);
        assert_eq!(max_matching(&gen::path(7)).size(), 3);
        assert_eq!(max_matching(&gen::cycle(10)).size(), 5);
        assert_eq!(max_matching(&gen::cycle(11)).size(), 5);
        assert_eq!(max_matching(&gen::complete(8)).size(), 4);
        assert_eq!(max_matching(&gen::complete(9)).size(), 4);
        assert_eq!(max_matching(&gen::star(10)).size(), 1);
        assert_eq!(max_matching(&gen::complete_bipartite(3, 5)).size(), 3);
    }

    #[test]
    fn petersen_graph_has_perfect_matching() {
        // Petersen: outer C5, inner 5-star polygon, spokes.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push((i, (i + 1) % 5)); // outer cycle
            edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
            edges.push((i, 5 + i)); // spokes
        }
        let g = dapc_graph::Graph::from_edges(10, &edges);
        let m = max_matching(&g);
        assert!(m.is_valid(&g));
        assert_eq!(m.size(), 5);
    }

    #[test]
    fn blossom_contraction_triggered() {
        // Two triangles joined by a path: needs blossom handling.
        let g = dapc_graph::Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0), // triangle A
                (2, 3),
                (3, 4), // bridge
                (4, 5),
                (5, 6),
                (6, 4), // triangle B
                (6, 7),
            ],
        );
        let m = max_matching(&g);
        assert!(m.is_valid(&g));
        assert_eq!(m.size(), brute_force_matching_size(&g));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = gen::seeded_rng(17);
        for trial in 0..60 {
            let n = 4 + (trial % 6);
            let g = gen::gnp(n, 0.45, &mut rng);
            let m = max_matching(&g);
            assert!(m.is_valid(&g), "invalid matching on trial {trial}");
            assert_eq!(
                m.size(),
                brute_force_matching_size(&g),
                "size mismatch on trial {trial}: {g}"
            );
        }
    }

    #[test]
    fn empty_and_edgeless() {
        let g = dapc_graph::Graph::empty(5);
        assert_eq!(max_matching(&g).size(), 0);
    }

    #[test]
    fn matching_edges_are_canonical() {
        let m = max_matching(&gen::path(4));
        for (u, v) in m.edges() {
            assert!(u < v);
        }
    }
}
