//! Graph generators: deterministic families, random models, and the
//! counterexample families of Appendix C of the paper.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Vertex};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The path `P_n` on vertices `0 — 1 — … — n−1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge((i - 1) as Vertex, i as Vertex);
    }
    b.build()
}

/// The cycle `C_n` (requires `n >= 3`).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_capacity(n, n);
    for i in 0..n {
        b.add_edge(i as Vertex, ((i + 1) % n) as Vertex);
    }
    b.build()
}

/// The complete graph `K_n`.
///
/// This is the family of Claim C.1: running the Elkin–Neiman decomposition
/// on `K_n` deletes `n − 1` vertices with probability `Ω(ε)`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i as Vertex, j as Vertex);
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` (left side `0..a`, right side
/// `a..a+b`).
pub fn complete_bipartite(a: usize, b_: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(a + b_, a * b_);
    for i in 0..a {
        for j in 0..b_ {
            b.add_edge(i as Vertex, (a + j) as Vertex);
        }
    }
    b.build()
}

/// The star `K_{1,n−1}` with centre `0`.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(0, i as Vertex);
    }
    b.build()
}

/// The `rows × cols` grid graph; vertex `(r, c)` has id `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let id = |r: usize, c: usize| (r * cols + c) as Vertex;
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
        }
    }
    b.build()
}

/// The complete `d`-ary rooted tree of given `depth` (root `0`). A
/// `depth`-0 tree is a single vertex.
pub fn complete_tree(d: usize, depth: usize) -> Graph {
    assert!(d >= 1, "arity must be positive");
    let mut n = 1usize;
    let mut layer = 1usize;
    for _ in 0..depth {
        layer *= d;
        n += layer;
    }
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    let mut next = 1usize;
    let mut frontier = vec![0usize];
    for _ in 0..depth {
        let mut new_frontier = Vec::with_capacity(frontier.len() * d);
        for &p in &frontier {
            for _ in 0..d {
                b.add_edge(p as Vertex, next as Vertex);
                new_frontier.push(next);
                next += 1;
            }
        }
        frontier = new_frontier;
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`.
pub fn gnp(n: usize, p: f64, rng: &mut StdRng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut b = GraphBuilder::new(n);
    if p >= 1.0 {
        return complete(n);
    }
    if p <= 0.0 || n < 2 {
        return b.build();
    }
    // Geometric skipping over the pair sequence `(0,1), (0,2), …, (0,n−1),
    // (1,2), …` of the complete graph. The index only grows, so the row
    // `a` it falls in (pairs `(a, a+1..n)`, from index `start`) advances
    // with it, and all rows cost O(n) in total rather than per edge.
    let log1p = (1.0 - p).ln();
    let total = n * (n - 1) / 2;
    let (mut idx, mut a, mut start) = (0usize, 0usize, 0usize);
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let skip = (u.ln() / log1p).floor() as usize;
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx >= total {
            break;
        }
        while idx - start >= n - 1 - a {
            start += n - 1 - a;
            a += 1;
        }
        b.add_edge(a as Vertex, (a + 1 + idx - start) as Vertex);
        idx += 1;
    }
    b.build()
}

/// A uniformly random labelled tree on `n` vertices (Prüfer sequence).
pub fn random_tree(n: usize, rng: &mut StdRng) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]);
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &x in &prufer {
        let std::cmp::Reverse(leaf) = heap.pop().expect("prufer invariant");
        b.add_edge(leaf as Vertex, x as Vertex);
        degree[x] -= 1;
        if degree[x] == 1 {
            heap.push(std::cmp::Reverse(x));
        }
    }
    let std::cmp::Reverse(u) = heap.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = heap.pop().expect("two leaves remain");
    b.add_edge(u as Vertex, v as Vertex);
    b.build()
}

/// A random `d`-regular simple graph via the configuration model with
/// restarts (requires `n·d` even and `d < n`).
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n`.
pub fn random_regular(n: usize, d: usize, rng: &mut StdRng) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be below n");
    if d == 0 {
        return Graph::empty(n);
    }
    'restart: loop {
        let mut stubs: Vec<Vertex> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v as Vertex, d))
            .collect();
        stubs.shuffle(rng);
        let mut seen = std::collections::BTreeSet::new();
        let mut edges = Vec::with_capacity(n * d / 2);
        for c in stubs.chunks_exact(2) {
            let (u, v) = (c[0], c[1]);
            if u == v {
                continue 'restart;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if !seen.insert(key) {
                continue 'restart;
            }
            edges.push(key);
        }
        return Graph::from_edges(n, &edges);
    }
}

/// The Claim C.2 counterexample for the Miller–Peng–Xu decomposition.
///
/// `n = 4t + 2` vertices: four blocks `S_L, S_R, L, R` of size `t` plus two
/// hubs `u, v`. `(L, R)` is a complete bipartite graph; `u` is adjacent to
/// `S_L ∪ L` and `v` to `S_R ∪ R`. With probability `Ω(ε)` the MPX
/// clustering cuts all `t²` edges between `L` and `R`.
///
/// Block layout: `S_L = 0..t`, `S_R = t..2t`, `L = 2t..3t`, `R = 3t..4t`,
/// `u = 4t`, `v = 4t + 1`. See [`MpxGadget`] for the handles.
pub fn mpx_gadget(t: usize) -> (Graph, MpxGadget) {
    assert!(t >= 1, "gadget needs t >= 1");
    let n = 4 * t + 2;
    let u = (4 * t) as Vertex;
    let v = (4 * t + 1) as Vertex;
    let mut b = GraphBuilder::with_capacity(n, t * t + 4 * t);
    for i in 0..t {
        for j in 0..t {
            b.add_edge((2 * t + i) as Vertex, (3 * t + j) as Vertex);
        }
    }
    for i in 0..t {
        b.add_edge(u, i as Vertex); // u — S_L
        b.add_edge(u, (2 * t + i) as Vertex); // u — L
        b.add_edge(v, (t + i) as Vertex); // v — S_R
        b.add_edge(v, (3 * t + i) as Vertex); // v — R
    }
    let layout = MpxGadget {
        t,
        u,
        v,
        sl: (0..t as Vertex).collect(),
        sr: (t as Vertex..2 * t as Vertex).collect(),
        l: (2 * t as Vertex..3 * t as Vertex).collect(),
        r: (3 * t as Vertex..4 * t as Vertex).collect(),
    };
    (b.build(), layout)
}

/// Block handles for the [`mpx_gadget`] family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpxGadget {
    /// Block size `t`.
    pub t: usize,
    /// Hub adjacent to `S_L ∪ L`.
    pub u: Vertex,
    /// Hub adjacent to `S_R ∪ R`.
    pub v: Vertex,
    /// Pendant block attached to `u`.
    pub sl: Vec<Vertex>,
    /// Pendant block attached to `v`.
    pub sr: Vec<Vertex>,
    /// Left side of the complete bipartite core.
    pub l: Vec<Vertex>,
    /// Right side of the complete bipartite core.
    pub r: Vec<Vertex>,
}

/// Deterministically seeded RNG helper so examples and experiments are
/// reproducible.
///
/// ```
/// use dapc_graph::gen;
/// let mut rng = gen::seeded_rng(42);
/// let g = gen::gnp(100, 0.05, &mut rng);
/// let g2 = gen::gnp(100, 0.05, &mut gen::seeded_rng(42));
/// assert_eq!(g, g2);
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    // dapc-allow(rng): the canonical seeded constructor — the named seed is the derivation key
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(10);
        assert_eq!(p.m(), 9);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(5), 2);
        let c = cycle(10);
        assert!(c.is_regular(2));
        assert_eq!(c.m(), 10);
    }

    #[test]
    fn complete_graph_is_regular() {
        let k = complete(7);
        assert!(k.is_regular(6));
        assert_eq!(k.m(), 21);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.m(), 12);
        assert!(g.is_bipartite());
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 3);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        assert_eq!(traversal::diameter(&g), 5);
    }

    #[test]
    fn complete_tree_counts() {
        let t = complete_tree(2, 3);
        assert_eq!(t.n(), 15);
        assert_eq!(t.m(), 14);
        assert_eq!(t.degree(0), 2);
        let t18 = complete_tree(18, 1);
        assert_eq!(t18.n(), 19);
        assert_eq!(t18.degree(0), 18);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = seeded_rng(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
    }

    #[test]
    fn gnp_density_is_plausible() {
        let mut rng = seeded_rng(7);
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.m() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "edge count {got} too far from expectation {expected}"
        );
    }

    /// Maps a linear index into the canonical pair sequence
    /// `(0,1), (0,2), …, (0,n−1), (1,2), …` of an `n`-vertex complete graph.
    fn pair_from_index(mut idx: usize, n: usize) -> (usize, usize) {
        let mut a = 0usize;
        let mut row = n - 1;
        while idx >= row {
            idx -= row;
            a += 1;
            row -= 1;
        }
        (a, a + 1 + idx)
    }

    #[test]
    fn pair_from_index_roundtrip() {
        let n = 7;
        let mut idx = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                assert_eq!(pair_from_index(idx, n), (a, b));
                idx += 1;
            }
        }
    }

    #[test]
    fn gnp_rows_match_pairs_recomputed_from_each_index() {
        // The same geometric skips, each pair recomputed from its index.
        let reference = |n: usize, p: f64, seed: u64| {
            let mut rng = seeded_rng(seed);
            let log1p = (1.0 - p).ln();
            let (total, mut idx) = (n * (n - 1) / 2, 0usize);
            let mut b = GraphBuilder::new(n);
            loop {
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                idx += (u.ln() / log1p).floor() as usize;
                if idx >= total {
                    return b.build();
                }
                let (a, bb) = pair_from_index(idx, n);
                b.add_edge(a as Vertex, bb as Vertex);
                idx += 1;
            }
        };
        for (n, p, seed) in [
            (2, 0.5, 1),
            (7, 0.3, 2),
            (100, 0.05, 3),
            (300, 0.6, 4),
            (2048, 0.003, 5),
        ] {
            assert_eq!(
                gnp(n, p, &mut seeded_rng(seed)),
                reference(n, p, seed),
                "n = {n}"
            );
        }
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = seeded_rng(3);
        for n in [1usize, 2, 3, 10, 100] {
            let t = random_tree(n, &mut rng);
            assert_eq!(t.m(), n.saturating_sub(1));
            let (_, k) = t.connected_components();
            assert_eq!(k, if n == 0 { 0 } else { 1 });
        }
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = seeded_rng(5);
        let g = random_regular(50, 4, &mut rng);
        assert!(g.is_regular(4));
        assert_eq!(g.m(), 100);
    }

    #[test]
    fn mpx_gadget_structure() {
        let (g, lay) = mpx_gadget(5);
        assert_eq!(g.n(), 22);
        assert_eq!(g.m(), 25 + 20);
        assert_eq!(g.degree(lay.u), 10);
        assert_eq!(g.degree(lay.v), 10);
        for &x in &lay.sl {
            assert_eq!(g.degree(x), 1);
        }
        for &x in &lay.l {
            assert_eq!(g.degree(x), 6); // t neighbours in R + hub u
        }
        // L-R is complete bipartite.
        for &a in &lay.l {
            for &b in &lay.r {
                assert!(g.has_edge(a, b));
            }
        }
    }
}
