//! Property-based tests for the graph substrate.

use dapc_graph::{gen, girth, power, subdivide, traversal, Graph, Hypergraph, Vertex};
use proptest::prelude::*;

/// Strategy: a random edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(3 * n))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// The vertices with label `l < k`, grouped by label into `k` disjoint
/// sets; label `k` puts a vertex in none.
fn split(label: &[usize], k: usize) -> Vec<Vec<Vertex>> {
    let mut sets = vec![Vec::new(); k];
    for (v, &l) in label.iter().enumerate() {
        if l < k {
            sets[l].push(v as Vertex);
        }
    }
    sets
}

/// Strategy: a random graph on up to `max_n` vertices with up to `3n`
/// edges, its vertices split at random into `k ≤ 4` sets.
fn arb_sets(max_n: usize) -> impl Strategy<Value = (Graph, Vec<Vec<Vertex>>)> {
    (2usize..max_n, 1usize..5, 1usize..4).prop_flat_map(|(n, k, density)| {
        (
            proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(density * n)),
            proptest::collection::vec(0..=k, n..n + 1),
        )
            .prop_map(move |(edges, label)| (Graph::from_edges(n, &edges), split(&label, k)))
    })
}

/// Strategy: a random `d`-regular graph on `2·half` vertices, whole
/// (`k = 0`) or split at random into `k ≤ 2` sets. Regular graphs of degree
/// 3 and up are expanders, on which the sweeps rarely find the diameter, so
/// the lane batches decide the answer, often several of them, and their
/// dense levels run in the pull direction.
fn arb_regular_sets(
    d: usize,
    half: std::ops::Range<usize>,
) -> impl Strategy<Value = (Graph, Vec<Vec<Vertex>>)> {
    (half, 0u64..1_000, 0usize..3).prop_flat_map(move |(half, seed, k)| {
        proptest::collection::vec(0..=k, 2 * half..2 * half + 1).prop_map(move |label| {
            let g = gen::random_regular(2 * half, d, &mut gen::seeded_rng(seed));
            (g, split(&label, k.max(1)))
        })
    })
}

/// Reference weak diameter: a full BFS from every member, every pair read.
fn reference_weak(g: &Graph, s: &[Vertex]) -> Option<u32> {
    let mut best = 0u32;
    for &u in s {
        let dist = traversal::bfs_distances(g, u);
        for &v in s {
            let d = dist[v as usize];
            if d == traversal::UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// Reference strong diameter: the same double loop on the induced subgraph.
fn reference_strong(g: &Graph, s: &[Vertex]) -> Option<u32> {
    let (sub, _) = g.induced_subgraph(s);
    let mut best = 0u32;
    for v in sub.vertices() {
        for d in traversal::bfs_distances(&sub, v) {
            if d == traversal::UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// Both entries equal the reference on every set alone and on the whole
/// sequence, where the reference's maximum is `None` as soon as one set's is.
fn assert_matches_reference(g: &Graph, sets: &[Vec<Vertex>]) {
    let weak: Vec<Option<u32>> = sets.iter().map(|s| reference_weak(g, s)).collect();
    let strong: Vec<Option<u32>> = sets.iter().map(|s| reference_strong(g, s)).collect();
    for (i, s) in sets.iter().enumerate() {
        let one = [s.as_slice()];
        assert_eq!(traversal::max_weak_diameter(g, one), weak[i], "weak, {s:?}");
        assert_eq!(
            traversal::max_strong_diameter(g, one),
            strong[i],
            "strong, {s:?}"
        );
    }
    let slices = || sets.iter().map(Vec::as_slice);
    let max = |each: &[Option<u32>]| each.iter().try_fold(0, |best, &d| Some(best.max(d?)));
    assert_eq!(traversal::max_weak_diameter(g, slices()), max(&weak));
    assert_eq!(traversal::max_strong_diameter(g, slices()), max(&strong));
}

#[test]
fn set_diameters_on_fixed_cases() {
    let c6 = gen::cycle(6);
    // Alternate vertices of C6: every member pair is 2 apart through a
    // vertex outside S, which is 3 from the opposite member.
    assert_eq!(traversal::max_weak_diameter(&c6, [&[0, 2, 4][..]]), Some(2));
    assert_eq!(traversal::max_strong_diameter(&c6, [&[0, 2, 4][..]]), None);
    // Empty sequence, empty and singleton sets.
    let none: [&[Vertex]; 0] = [];
    assert_eq!(traversal::max_weak_diameter(&c6, none), Some(0));
    assert_eq!(traversal::max_strong_diameter(&c6, none), Some(0));
    assert_matches_reference(&c6, &[vec![], vec![3], vec![5]]);
    // Disconnected in G: `None` from both, wherever the set sits.
    let parted = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
    assert_matches_reference(&parted, &[vec![0, 1], vec![2, 3]]);
    assert_matches_reference(&parted, &[vec![2, 3], vec![0, 1]]);
    assert_eq!(traversal::max_weak_diameter(&parted, [&[2, 3][..]]), None);
    // More than 64 members: several lane batches.
    assert_matches_reference(&gen::cycle(150), &[(0..150).collect()]);
    assert_matches_reference(&gen::cycle(300), &[(0..300).step_by(2).collect()]);
    assert_matches_reference(&gen::grid(12, 12), &[(0..144).collect()]);
    assert_matches_reference(
        &gen::path(200),
        &[(0..200).filter(|v| v % 3 != 1).collect()],
    );
    // Regular graphs on which the sweeps miss the diameter, so the lane
    // batches decide it. On the last two the running maximum reaches one
    // below the diameter while a pair at half the diameter from the pivot
    // is unprocessed, so loosening the stop `lb ≥ 2·d(u, ·)` to
    // `lb + 1 ≥ 2·d(u, ·)` misses the diameter under both metrics.
    for (n, d, seed, every) in [
        (70, 3, 1, 4),
        (130, 3, 3, 4),
        (136, 3, 5, 0),
        (180, 3, 6, 0),
        (192, 3, 9, 0),
        (302, 4, 5, 0),
    ] {
        let g = gen::random_regular(n, d, &mut gen::seeded_rng(seed));
        let s = g.vertices().filter(|v| every == 0 || v % every != 0);
        assert_matches_reference(&g, &[s.collect()]);
    }
}

#[test]
fn set_diameters_on_pull_levels_and_central_pivots() {
    // Random 4-regular graphs, whole and with every 9th vertex left out
    // (the strong diameter then exceeds the weak one): most lane-BFS
    // levels are dense enough to run in the pull direction.
    for (n, seed) in [(256, 1), (512, 2), (768, 3), (1024, 4)] {
        let g = gen::random_regular(n, 4, &mut gen::seeded_rng(seed));
        assert_matches_reference(&g, &[g.vertices().collect()]);
        assert_matches_reference(&g, &[g.vertices().filter(|v| v % 9 != 0).collect()]);
    }
    // Whole grids and long cycles and paths, where a path midpoint is a
    // poor pivot and the central one decides how many batches run.
    for g in [
        gen::grid(45, 45),
        gen::grid(30, 7),
        gen::cycle(1000),
        gen::cycle(1001),
        gen::path(700),
    ] {
        assert_matches_reference(&g, &[g.vertices().collect()]);
    }
    // A weak set whose pivot, the grid's centre, lies in the set's hole.
    let g = gen::grid(15, 15);
    let ring = g
        .vertices()
        .filter(|v| !((5..10).contains(&(v / 15)) && (5..10).contains(&(v % 15))));
    assert_matches_reference(&g, &[ring.collect()]);
}

proptest! {
    #[test]
    fn set_diameters_match_the_all_pairs_reference(case in arb_sets(150)) {
        assert_matches_reference(&case.0, &case.1);
    }

    #[test]
    fn set_diameters_on_cubic_graphs_match_the_reference(case in arb_regular_sets(3, 35..130)) {
        assert_matches_reference(&case.0, &case.1);
    }

    #[test]
    fn set_diameters_of_connected_pieces_match_the_reference(g in arb_graph(150), r in 1usize..8) {
        // Components and BFS balls: sets with `Some` strong diameters, most
        // of them large, which random labels rarely give.
        let (comp, k) = g.connected_components();
        let label: Vec<usize> = comp.iter().map(|&c| c as usize).collect();
        let pieces = split(&label, k);
        assert_matches_reference(&g, &pieces);
        let balls: Vec<Vec<Vertex>> = pieces
            .iter()
            .map(|p| traversal::ball(&g, &p[..1], r, None).iter().collect())
            .collect();
        assert_matches_reference(&g, &balls);
    }

    #[test]
    fn csr_degree_sum_is_twice_m(g in arb_graph(60)) {
        prop_assert_eq!(g.degree_sum(), 2 * g.m());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph(40)) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
            prop_assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(g in arb_graph(40)) {
        // For every edge (u,v) and source s: |d(s,u) − d(s,v)| <= 1.
        let d = traversal::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            let du = d[u as usize];
            let dv = d[v as usize];
            if du != traversal::UNREACHABLE && dv != traversal::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv); // both unreachable
            }
        }
    }

    #[test]
    fn ball_levels_match_bfs_distances(g in arb_graph(40), r in 0usize..6) {
        let b = traversal::ball(&g, &[0], r, None);
        let d = traversal::bfs_distances(&g, 0);
        for (lvl, vs) in b.levels.iter().enumerate() {
            for &v in vs {
                prop_assert_eq!(d[v as usize] as usize, lvl);
            }
        }
        let in_ball = b.len();
        let expected = d.iter().filter(|&&x| x != traversal::UNREACHABLE && x as usize <= r).count();
        prop_assert_eq!(in_ball, expected);
    }

    #[test]
    fn components_partition_vertices(g in arb_graph(50)) {
        let (comp, k) = g.connected_components();
        prop_assert!(comp.iter().all(|&c| (c as usize) < k));
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in arb_graph(30)) {
        let keep: Vec<Vertex> = g.vertices().filter(|v| v % 2 == 0).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(back[a as usize], back[b as usize]));
        }
        // Count edges of g with both endpoints kept.
        let kept: std::collections::HashSet<_> = keep.iter().copied().collect();
        let expected = g.edges().filter(|(u, v)| kept.contains(u) && kept.contains(v)).count();
        prop_assert_eq!(sub.m(), expected);
    }

    #[test]
    fn power_graph_edges_iff_distance_at_most_k(g in arb_graph(25), k in 0usize..4) {
        let gk = power::power_graph(&g, k);
        for u in g.vertices() {
            let d = traversal::bfs_distances(&g, u);
            for v in g.vertices() {
                if v <= u { continue; }
                let close = d[v as usize] != traversal::UNREACHABLE && (d[v as usize] as usize) <= k && d[v as usize] >= 1;
                prop_assert_eq!(gk.has_edge(u, v), close, "u={} v={} k={}", u, v, k);
            }
        }
    }

    #[test]
    fn subdivision_distance_scales(g in arb_graph(20), x in 1usize..3) {
        let s = subdivide::subdivide(&g, x);
        let scale = (2 * x + 1) as u32;
        for u in g.vertices() {
            let d0 = traversal::bfs_distances(&g, u);
            let d1 = traversal::bfs_distances(&s.graph, u);
            for v in g.vertices() {
                if d0[v as usize] != traversal::UNREACHABLE {
                    prop_assert_eq!(d1[v as usize], d0[v as usize] * scale);
                }
            }
        }
    }

    #[test]
    fn subdivision_girth_scales(n in 3usize..9) {
        let g = gen::cycle(n);
        let s = subdivide::subdivide(&g, 2);
        prop_assert_eq!(girth::girth(&s.graph), Some(5 * n as u32));
    }

    #[test]
    fn hypergraph_primal_distance_matches_graph(g in arb_graph(30)) {
        let h = Hypergraph::from_graph(&g);
        let hd = h.distances(&[0], None, None);
        let gd = traversal::bfs_distances(&g, 0);
        prop_assert_eq!(hd, gd);
    }

    #[test]
    fn gnp_is_simple(n in 2usize..60, seed in 0u64..50) {
        let g = gen::gnp(n, 0.2, &mut gen::seeded_rng(seed));
        for v in g.vertices() {
            prop_assert!(!g.has_edge(v, v));
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1], "adjacency not strictly sorted");
            }
        }
    }

    #[test]
    fn random_regular_degree(seed in 0u64..20) {
        let g = gen::random_regular(30, 3, &mut gen::seeded_rng(seed));
        prop_assert!(g.is_regular(3));
    }

    #[test]
    fn random_tree_is_connected_acyclic(n in 1usize..80, seed in 0u64..20) {
        let t = gen::random_tree(n, &mut gen::seeded_rng(seed));
        prop_assert_eq!(t.m(), n - 1);
        let (_, k) = t.connected_components();
        prop_assert_eq!(k, 1);
        prop_assert_eq!(girth::girth(&t), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn set_diameters_on_4_regular_graphs_match_the_reference(case in arb_regular_sets(4, 128..512)) {
        assert_matches_reference(&case.0, &case.1);
    }
}
