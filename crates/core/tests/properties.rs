//! Property-based tests: the Theorem 1.2/1.3 solvers must emit feasible
//! solutions meeting their guarantees on arbitrary random graphs.

use dapc_core::covering::approximate_covering;
use dapc_core::engine::{self, SharedSubsetCache, SolveConfig};
use dapc_core::gkm::{gkm_solve, GkmParams};
use dapc_core::packing::approximate_packing;
use dapc_core::params::PcParams;
use dapc_graph::{gen, Graph, Vertex};
use dapc_ilp::{problems, verify, SolverBudget};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (6usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(2 * n))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn packing_guarantee_on_arbitrary_graphs(g in arb_graph(22), seed in 0u64..10) {
        let eps = 0.3;
        let ilp = problems::max_independent_set_unweighted(&g);
        let params = PcParams::packing_scaled(eps, g.n() as f64, 0.02, 0.3);
        let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(seed));
        prop_assert!(ilp.is_feasible(&out.assignment));
        let (opt, exact) = verify::optimum(&ilp, &SolverBudget::default());
        prop_assert!(exact);
        prop_assert!(out.value as f64 >= (1.0 - eps) * opt as f64,
            "value {} < (1−ε)·{}", out.value, opt);
    }

    #[test]
    fn covering_guarantee_on_arbitrary_graphs(g in arb_graph(18), seed in 0u64..10) {
        let eps = 0.4;
        let ilp = problems::min_dominating_set_unweighted(&g);
        let params = PcParams::covering_scaled(eps, g.n() as f64, 0.02, 0.3, 1.0);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(seed));
        prop_assert!(ilp.is_feasible(&out.assignment));
        let (opt, exact) = verify::optimum(&ilp, &SolverBudget::default());
        prop_assert!(exact);
        prop_assert!(out.value as f64 <= (1.0 + eps) * opt as f64 + 1e-9,
            "value {} > (1+ε)·{}", out.value, opt);
    }

    #[test]
    fn gkm_covering_carve_feasible_for_any_k_scale(
        g in arb_graph(20),
        k_scale in 0.01f64..1.5,
        eps_pct in 10u32..60,
        seed in 0u64..8,
    ) {
        // Hardens the PR 1 small-k window clamp: for tiny k the covering
        // carve's default window used to sit on the ball boundary and
        // delete vertices whose outward constraints were never satisfied.
        // Whatever k the scale produces (the constructor floors it at 3,
        // exercising both the `lo = 1` and `lo = 3` window paths), the
        // carve must stay feasible — and, when the reference optimum is
        // proven, never dip below it (covering minimises).
        let eps = eps_pct as f64 / 100.0;
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let params = GkmParams::new(eps, g.n() as f64, k_scale);
        let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(seed));
        prop_assert!(
            ilp.is_feasible(&out.assignment),
            "k = {} (k_scale {k_scale}, eps {eps}): infeasible carve",
            params.k
        );
        let (opt, exact) = verify::optimum(&ilp, &SolverBudget::default());
        if exact {
            prop_assert!(out.value >= opt, "covering below optimum: {} < {opt}", out.value);
        }
    }

    #[test]
    fn gkm_dominating_set_carve_feasible_for_any_k_scale(
        n in 6usize..36,
        k_scale in 0.01f64..1.2,
        seed in 0u64..6,
    ) {
        // Long cycles keep the carve radius below the diameter, so the
        // window search genuinely runs instead of swallowing the graph.
        let g = gen::cycle(n);
        let ilp = problems::min_dominating_set_unweighted(&g);
        let params = GkmParams::new(0.3, n as f64, k_scale);
        let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(seed));
        prop_assert!(
            ilp.is_feasible(&out.assignment),
            "n = {n}, k = {}: infeasible carve",
            params.k
        );
    }

    #[test]
    fn a_family_cache_never_changes_a_solve_report(
        g in arb_graph(20),
        seed in 0u64..8,
        covering_bit in 0u8..2,
    ) {
        let covering = covering_bit == 1;
        // The PrepCache contract: a cache solved cold and then warm yields
        // reports byte-identical to no cache at all, for both senses.
        let ilp = if covering {
            problems::min_vertex_cover_unweighted(&g)
        } else {
            problems::max_independent_set_unweighted(&g)
        };
        let cfg = SolveConfig::new().eps(0.3).seed(seed);
        let reference = engine::solve("three-phase", &ilp, &cfg).unwrap();
        let cache = SharedSubsetCache::new();
        let cold = engine::solve(
            "three-phase", &ilp, &cfg.clone().prep_cache(cache.clone())).unwrap();
        prop_assert_eq!(&reference, &cold);
        let warm = engine::solve(
            "three-phase", &ilp, &cfg.clone().prep_cache(cache.clone())).unwrap();
        prop_assert_eq!(&reference, &warm);
    }

    #[test]
    fn weighted_instances_on_arbitrary_graphs(g in arb_graph(16), seed in 0u64..6) {
        let n = g.n();
        let weights: Vec<u64> = (0..n).map(|i| 1 + (i as u64 * 13) % 9).collect();
        let eps = 0.3;
        let ilp = problems::min_vertex_cover(&g, weights);
        let params = PcParams::covering_scaled(eps, n as f64, 0.02, 0.3, 1.0);
        let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(seed));
        prop_assert!(ilp.is_feasible(&out.assignment));
        let (opt, exact) = verify::optimum(&ilp, &SolverBudget::default());
        prop_assert!(exact);
        prop_assert!(out.value as f64 <= (1.0 + eps) * opt as f64 + 1e-9);
    }
}
