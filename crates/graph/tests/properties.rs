//! Property-based tests for the graph substrate.

use dapc_graph::{
    gen, girth, power, subdivide, traversal, Ball, BallScratch, Graph, Hypergraph, Vertex,
};
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

/// The connected components of `G[S]` for the vertices `keep` marks, or of
/// `g` itself when it marks them all.
fn pieces(g: &Graph, keep: &[bool]) -> Vec<Vec<Vertex>> {
    let (comp, k) = g.connected_components_masked(keep);
    split(&comp.iter().map(|&c| c as usize).collect::<Vec<_>>(), k)
}

/// The cells of a multi-source BFS from `centres`: each vertex joins the
/// cell of the centre that reaches it first, so every cell is connected.
fn cells(g: &Graph, centres: &[Vertex]) -> Vec<Vec<Vertex>> {
    let mut cell = vec![usize::MAX; g.n()];
    let mut queue = std::collections::VecDeque::new();
    for (i, &c) in centres.iter().enumerate() {
        cell[c as usize] = i;
        queue.push_back(c);
    }
    while let Some(x) = queue.pop_front() {
        for &y in g.neighbors(x) {
            if cell[y as usize] == usize::MAX {
                cell[y as usize] = cell[x as usize];
                queue.push_back(y);
            }
        }
    }
    split(&cell, centres.len())
}

#[test]
fn set_diameters_on_sets_of_several_wide_batches() {
    // Random 4-regular graphs, whole and cut into connected BFS cells:
    // nearly every member's eccentricity is the diameter, so neither the
    // stop nor settling spares many members, and a set of more than 256
    // members takes several wide lane batches.
    for (n, seed) in [(300, 11), (600, 12), (900, 13), (1200, 14)] {
        let g = gen::random_regular(n, 4, &mut gen::seeded_rng(seed));
        assert_matches_reference(&g, &[g.vertices().collect()]);
        for k in [2, 3] {
            let centres: Vec<Vertex> = (0..k).map(|i| (i * n / k) as Vertex).collect();
            assert_matches_reference(&g, &cells(&g, &centres));
        }
    }
    // gnp giant components (and their small neighbours), where settling
    // after the first wide batch spares most members.
    for (n, seed) in [(700, 21), (1500, 22)] {
        let g = gen::gnp(n, 3.0 / n as f64, &mut gen::seeded_rng(seed));
        assert_matches_reference(&g, &pieces(&g, &vec![true; n]));
    }
    // Grids with rectangular holes: weak paths between members run through
    // the holes, strong ones around them. Under the strong metric a ring
    // around one large hole has every eccentricity near its diameter.
    for (rows, cols, holes) in [
        (30, 30, vec![(5, 5, 10, 10), (18, 12, 26, 20)]),
        (20, 60, vec![(0, 20, 16, 22), (4, 40, 20, 42)]),
        (40, 40, vec![(3, 3, 37, 37)]),
        (50, 50, vec![(8, 8, 42, 42)]),
    ] {
        let g = gen::grid(rows, cols);
        let keep: Vec<bool> = g
            .vertices()
            .map(|v| {
                let (r, c) = (v as usize / cols, v as usize % cols);
                !holes
                    .iter()
                    .any(|&(r0, c0, r1, c1)| (r0..r1).contains(&r) && (c0..c1).contains(&c))
            })
            .collect();
        assert_matches_reference(&g, &pieces(&g, &keep));
    }
}

/// Strategy: a random graph on up to `max_n` vertices with a vertex mask
/// that kills about one vertex in five.
fn arb_masked_graph(max_n: usize) -> impl Strategy<Value = (Graph, Vec<bool>)> {
    (2usize..max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(3 * n)),
            proptest::collection::vec(0u8..5, n..n + 1),
        )
            .prop_map(move |(edges, mask)| {
                let alive = mask.iter().map(|&x| x > 0).collect();
                (Graph::from_edges(n, &edges), alive)
            })
    })
}

/// Strategy: a random hypergraph of 1–4-vertex hyperedges with a vertex
/// mask (about one vertex in five dead) and a hyperedge mask (one in four).
fn arb_masked_hypergraph(
    max_n: usize,
) -> impl Strategy<Value = (Hypergraph, Vec<bool>, Vec<bool>)> {
    (2usize..max_n, 1usize..3).prop_flat_map(|(n, density)| {
        (
            proptest::collection::vec(
                (proptest::collection::vec(0..n as Vertex, 1..5), 0u8..4),
                0..density * n,
            ),
            proptest::collection::vec(0u8..5, n..n + 1),
        )
            .prop_map(move |(edges, mask)| {
                let alive_e = edges.iter().map(|&(_, x)| x > 0).collect();
                let h = Hypergraph::new(n, edges.into_iter().map(|(e, _)| e).collect());
                (h, mask.iter().map(|&x| x > 0).collect(), alive_e)
            })
    })
}

/// Reference ball in the nested layout, one `Vec` per level: a BFS from
/// `sources` through `alive` vertices to radius `r`, where `hop(u)` lists
/// the vertices one step from `u` in traversal order.
fn nested_ball(
    sources: &[Vertex],
    r: usize,
    alive: &[bool],
    hop: impl Fn(Vertex) -> Vec<Vertex>,
) -> Vec<Vec<Vertex>> {
    let mut seen = vec![false; alive.len()];
    let mut level = Vec::new();
    for &s in sources {
        if alive[s as usize] && !seen[s as usize] {
            seen[s as usize] = true;
            level.push(s);
        }
    }
    let mut levels = Vec::new();
    while !level.is_empty() && levels.len() <= r {
        let mut next = Vec::new();
        for &u in &level {
            for w in hop(u) {
                if alive[w as usize] && !seen[w as usize] {
                    seen[w as usize] = true;
                    next.push(w);
                }
            }
        }
        levels.push(level);
        level = next;
    }
    levels
}

/// Every accessor of `ball` agrees with the nested reference `levels`.
fn assert_ball_is(ball: &Ball, levels: &[Vec<Vertex>]) {
    let flat: Vec<Vec<Vertex>> = ball.levels().map(<[Vertex]>::to_vec).collect();
    assert_eq!(flat, levels);
    let all = levels.concat();
    assert_eq!(ball.iter().collect::<Vec<_>>(), all);
    assert_eq!(ball.len(), all.len());
    assert_eq!(ball.is_empty(), all.is_empty());
    assert_eq!(ball.radius(), levels.len().saturating_sub(1));
    for j in 0..levels.len() + 2 {
        let level = levels.get(j).map_or(&[][..], Vec::as_slice);
        assert_eq!(ball.level(j), level, "level {j}");
        let within = levels[..levels.len().min(j + 1)].concat();
        assert_eq!(ball.within(j).collect::<Vec<_>>(), within, "within {j}");
    }
    assert_eq!(ball.within(usize::MAX).collect::<Vec<_>>(), all);
}

/// Sources for a ball test: a single vertex, a repeated pair and three
/// spread vertices.
fn source_sets(n: usize) -> [Vec<Vertex>; 3] {
    let last = n as Vertex - 1;
    [vec![0], vec![last, 0, last], vec![last / 2, 0, last]]
}

/// The alive vertices one hop from `u` across alive hyperedges, in the
/// order a hypergraph ball visits them.
fn hyper_hop<'a>(h: &'a Hypergraph, alive_e: &'a [bool]) -> impl Fn(Vertex) -> Vec<Vertex> + 'a {
    move |u| {
        h.incident_edges(u)
            .iter()
            .filter(|&&e| alive_e[e as usize])
            .flat_map(|&e| h.edge(e).iter().copied())
            .collect()
    }
}

#[test]
fn ball_edge_cases() {
    let g = gen::path(6);
    let h = Hypergraph::from_graph(&g);
    let all = vec![true; 6];
    // Past the reached radius every level is empty and `within` is the
    // whole ball, on a ball cut by `r` and on one that ran out.
    for (r, reached) in [(2, 2), (9, 3)] {
        let b = traversal::ball(&g, &[2], r, None);
        assert_eq!(b.radius(), reached);
        assert_ball_is(&b, &nested_ball(&[2], r, &all, |u| g.neighbors(u).to_vec()));
        assert!(b.level(reached + 1).is_empty());
        assert_eq!(b.within(reached).count(), b.len());
        assert_eq!(h.ball(&[2], r, None, None), b);
    }
    // No source, or only dead ones: an empty ball of radius 0.
    let dead = [false, true, true, true, true, false];
    for (sources, alive) in [(&[][..], None), (&[0, 5, 0][..], Some(&dead[..]))] {
        for b in [
            traversal::ball(&g, sources, 3, alive),
            h.ball(sources, 3, alive, None),
            h.ball(sources, usize::MAX, alive, Some(&[false; 5])),
        ] {
            assert_ball_is(&b, &[]);
            assert_eq!(b, Ball::default());
        }
    }
    // A live source whose hyperedges are all dead is a one-vertex ball.
    let b = h.ball(&[3], 4, None, Some(&[false; 5]));
    assert_ball_is(&b, &[vec![3]]);
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
        for (lvl, vs) in b.levels().enumerate() {
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
    fn power_graph_edges_iff_distance_at_most_k(case in arb_masked_graph(25), k in 0usize..4) {
        let (g, mask) = case;
        // A masked power is the power of the subgraph its alive vertices
        // induce (vertex `i` of `sub` is `keep[i]`); a dead vertex has no
        // edge, which the edge count checks.
        let keep: Vec<Vertex> = g.vertices().filter(|&v| mask[v as usize]).collect();
        let (sub, _) = g.induced_subgraph(&keep);
        let every: Vec<Vertex> = g.vertices().collect();
        for (alive, base, ids) in [(None, &g, &every), (Some(&mask[..]), &sub, &keep)] {
            let gk = power::power_graph(&g, k, alive);
            let mut edges = 0;
            for (i, &u) in ids.iter().enumerate() {
                let d = traversal::bfs_distances(base, i as Vertex);
                for (j, &v) in ids.iter().enumerate().skip(i + 1) {
                    let close = d[j] != traversal::UNREACHABLE && d[j] >= 1 && (d[j] as usize) <= k;
                    prop_assert_eq!(gk.has_edge(u, v), close, "u={} v={} k={} masked={}", u, v, k, alive.is_some());
                    edges += usize::from(close);
                }
            }
            prop_assert_eq!(gk.m(), edges);
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
    #[test]
    fn flat_graph_balls_match_nested_levels(case in arb_masked_graph(60), r in 0usize..8) {
        let (g, mask) = case;
        let all = vec![true; g.n()];
        let mut scratch = BallScratch::new();
        for sources in source_sets(g.n()) {
            for alive in [None, Some(mask.as_slice())] {
                let reference = nested_ball(&sources, r, alive.unwrap_or(&all), |u| g.neighbors(u).to_vec());
                assert_ball_is(&traversal::ball(&g, &sources, r, alive), &reference);
                let reused = traversal::ball_with_scratch(&g, &sources, r, alive, &mut scratch);
                assert_ball_is(&reused, &reference);
            }
        }
    }

    #[test]
    fn flat_hypergraph_balls_match_nested_levels(case in arb_masked_hypergraph(50), r in 0usize..8) {
        let (h, alive_v, alive_e) = case;
        let all_v = vec![true; h.n()];
        let all_e = vec![true; h.m()];
        let mut scratch = BallScratch::new();
        for sources in source_sets(h.n()) {
            for (v, e) in [(None, None), (Some(&alive_v[..]), None), (None, Some(&alive_e[..])), (Some(&alive_v[..]), Some(&alive_e[..]))] {
                let reference = nested_ball(&sources, r, v.unwrap_or(&all_v), hyper_hop(&h, e.unwrap_or(&all_e)));
                assert_ball_is(&h.ball(&sources, r, v, e), &reference);
                assert_ball_is(&h.ball_with_scratch(&sources, r, v, e, &mut scratch), &reference);
            }
        }
    }

    #[test]
    fn hypergraph_components_match_ball_labelling(case in arb_masked_hypergraph(60)) {
        let (h, alive_v, alive_e) = case;
        // Reference: label each unlabelled alive vertex's whole ball, in
        // vertex order.
        let mut comp = vec![u32::MAX; h.n()];
        let mut k = 0u32;
        for s in 0..h.n() {
            if alive_v[s] && comp[s] == u32::MAX {
                for v in h.ball(&[s as Vertex], usize::MAX, Some(&alive_v), Some(&alive_e)).iter() {
                    comp[v as usize] = k;
                }
                k += 1;
            }
        }
        prop_assert_eq!(h.connected_components_masked(&alive_v, Some(&alive_e)), (comp, k as usize));
    }

    #[test]
    fn hypergraph_components_of_a_graph_match_the_graph(g in arb_graph(50), modulus in 2usize..6) {
        let alive: Vec<bool> = (0..g.n()).map(|v| v % modulus != 1).collect();
        prop_assert_eq!(
            Hypergraph::from_graph(&g).connected_components_masked(&alive, None),
            g.connected_components_masked(&alive)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn set_diameters_on_4_regular_graphs_match_the_reference(case in arb_regular_sets(4, 128..512)) {
        assert_matches_reference(&case.0, &case.1);
    }
}
