//! Property-based tests on the Definition 1.4 invariants of every
//! decomposition algorithm.

use dapc_decomp::blackbox::{blackbox_ldd, BlackboxParams};
use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
use dapc_decomp::mpx::mpx;
use dapc_decomp::network_decomposition::network_decomposition;
use dapc_decomp::sparse_cover::sparse_cover;
use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
use dapc_graph::{gen, traversal, Graph, Hypergraph, Vertex};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(2 * n))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
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

/// The reference maximum over clusters: `None` as soon as one cluster is.
fn reference_max(
    g: &Graph,
    clusters: &[Vec<Vertex>],
    one: fn(&Graph, &[Vertex]) -> Option<u32>,
) -> Option<u32> {
    clusters
        .iter()
        .try_fold(0, |best, c| Some(best.max(one(g, c)?)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The diameter checks of real three-phase, Elkin–Neiman and network
    /// decompositions equal the all-pairs reference over their clusters.
    #[test]
    fn diameter_checks_match_the_reference(n in 20usize..150, seed in 0u64..1000, eps in 1usize..5, family in 0usize..4) {
        let mut rng = gen::seeded_rng(seed);
        let g = match family {
            0 => gen::gnp(n, 4.0 / n as f64, &mut rng),
            1 => gen::grid(n / 10 + 1, 10),
            2 => gen::random_tree(n, &mut rng),
            _ => gen::random_regular(n - n % 2, 3, &mut rng),
        };
        let eps = eps as f64 / 10.0;
        let three_phase = three_phase_ldd(&g, &LddParams::scaled(eps, g.n() as f64, 0.05), &mut rng, None)
            .decomposition;
        let en = elkin_neiman(&g, &EnParams::new(eps, g.n() as f64), &mut rng, None);
        for d in [three_phase, en] {
            prop_assert_eq!(Some(d.max_weak_diameter(&g)), reference_max(&g, &d.clusters, reference_weak));
            prop_assert_eq!(d.max_strong_diameter(&g), reference_max(&g, &d.clusters, reference_strong));
        }
        let nd = network_decomposition(&g, g.n() as f64, &mut rng);
        let clusters: Vec<Vec<Vertex>> = nd.clusters.iter().map(|(_, c)| c.clone()).collect();
        prop_assert_eq!(Some(nd.max_weak_diameter(&g)), reference_max(&g, &clusters, reference_weak));
    }

    /// Elkin–Neiman always emits a valid Definition 1.4 decomposition with
    /// clusters within the diameter bound.
    #[test]
    fn elkin_neiman_invariants(g in arb_graph(60), seed in 0u64..50, lam in 1usize..8) {
        let lambda = lam as f64 / 10.0;
        let params = EnParams::new(lambda, g.n().max(2) as f64);
        let d = elkin_neiman(&g, &params, &mut gen::seeded_rng(seed), None);
        prop_assert!(d.validate(&g, None).is_ok());
        if !d.clusters.is_empty() {
            let diam = d.max_strong_diameter(&g);
            prop_assert!(diam.is_some(), "clusters must be connected");
            prop_assert!(f64::from(diam.unwrap()) <= params.diameter_bound());
        }
    }

    /// The three-phase LDD maintains the same invariants on arbitrary
    /// graphs, masks included.
    #[test]
    fn three_phase_invariants(g in arb_graph(50), seed in 0u64..20) {
        let params = LddParams::scaled(0.3, g.n() as f64, 0.02);
        let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(seed), None);
        prop_assert!(out.decomposition.validate(&g, None).is_ok());
        // Phase accounting is consistent.
        let s = &out.stats;
        prop_assert_eq!(
            s.deleted_phase1 + s.deleted_phase2 + s.deleted_phase3,
            out.decomposition.deleted_count()
        );
    }

    /// Masked three-phase runs never label dead vertices.
    #[test]
    fn three_phase_mask_safety(g in arb_graph(40), seed in 0u64..10, modulus in 2usize..5) {
        let alive: Vec<bool> = (0..g.n()).map(|v| v % modulus != 0).collect();
        let params = LddParams::scaled(0.25, g.n() as f64, 0.02);
        let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(seed), Some(&alive));
        prop_assert!(out.decomposition.validate(&g, Some(&alive)).is_ok());
        for (v, &live) in alive.iter().enumerate() {
            if !live {
                prop_assert!(out.decomposition.cluster_of[v].is_none());
                prop_assert!(!out.decomposition.deleted[v]);
            }
        }
    }

    /// MPX assigns every vertex a centre in its own component, and cut
    /// edges are exactly the inter-cluster edges.
    #[test]
    fn mpx_invariants(g in arb_graph(50), seed in 0u64..20) {
        let c = mpx(&g, 0.3, g.n().max(2) as f64, &mut gen::seeded_rng(seed));
        let (comp, _) = g.connected_components();
        for v in 0..g.n() {
            let ctr = c.center_of[v];
            prop_assert_eq!(comp[v], comp[ctr as usize], "centre in same component");
        }
        for &(u, v) in &c.cut_edges {
            prop_assert_ne!(c.center_of[u as usize], c.center_of[v as usize]);
        }
    }

    /// Sparse covers cover every hyperedge and every vertex.
    #[test]
    fn sparse_cover_invariants(g in arb_graph(40), seed in 0u64..20) {
        let h = Hypergraph::from_graph(&g);
        let cover = sparse_cover(&h, 0.4, g.n().max(2) as f64, &mut gen::seeded_rng(seed), None, None);
        prop_assert!(cover.uncovered_edges(&h, None, None).is_empty());
        for v in 0..g.n() as Vertex {
            prop_assert!(cover.multiplicity(v) >= 1);
        }
        // Membership lists agree with cluster lists.
        for (id, cluster) in cover.clusters.iter().enumerate() {
            for &v in cluster {
                prop_assert!(cover.clusters_of(v).contains(&(id as u32)));
            }
        }
    }

    /// Network decompositions are proper colourings of valid clusterings.
    #[test]
    fn network_decomposition_invariants(g in arb_graph(40), seed in 0u64..20) {
        let nd = network_decomposition(&g, g.n().max(2) as f64, &mut gen::seeded_rng(seed));
        prop_assert!(nd.validate(&g).is_ok());
        prop_assert!(nd.colors >= 1);
    }

    /// The blackbox construction obeys Definition 1.4 too.
    #[test]
    fn blackbox_invariants(g in arb_graph(40), seed in 0u64..10) {
        let params = BlackboxParams::new(0.3, g.n() as f64, 0.02);
        let d = blackbox_ldd(&g, &params, &mut gen::seeded_rng(seed));
        prop_assert!(d.validate(&g, None).is_ok());
    }
}
