//! Determinism contract of intra-solve prep sharding: for packing and
//! covering instances alike, the full `SolveReport` must be byte-identical
//! at 1, 2 and 4 preparation workers — sharding changes wall-clock time,
//! never outcomes — and attaching a family cache must not move a single
//! byte either.

use dapc_core::engine::{self, SharedSubsetCache, SolveConfig};
use dapc_graph::gen;
use dapc_ilp::{problems, IlpInstance};

fn corpus() -> Vec<(&'static str, IlpInstance)> {
    vec![
        (
            "MIS/gnp36",
            problems::max_independent_set_unweighted(&gen::gnp(36, 0.1, &mut gen::seeded_rng(1))),
        ),
        (
            "MIS/grid5x6",
            problems::max_independent_set_unweighted(&gen::grid(5, 6)),
        ),
        (
            "VC/gnp30",
            problems::min_vertex_cover_unweighted(&gen::gnp(30, 0.09, &mut gen::seeded_rng(2))),
        ),
        (
            "DS/cycle27",
            problems::min_dominating_set_unweighted(&gen::cycle(27)),
        ),
        (
            "pack/random",
            problems::random_packing(24, 16, 3, &mut gen::seeded_rng(3)),
        ),
        (
            "cover/random",
            problems::random_covering(20, 14, 3, &mut gen::seeded_rng(4)),
        ),
    ]
}

#[test]
fn solve_reports_are_byte_identical_across_prep_worker_counts() {
    for (name, ilp) in &corpus() {
        let base_cfg = SolveConfig::new().eps(0.3).seed(11);
        let baseline = engine::solve("three-phase", ilp, &base_cfg).unwrap();
        for workers in [1usize, 2, 4] {
            let cfg = base_cfg.clone().prep_workers(workers);
            let report = engine::solve("three-phase", ilp, &cfg).unwrap();
            assert_eq!(
                baseline, report,
                "{name}: report drifted at {workers} prep workers"
            );
            assert_eq!(
                format!("{baseline:?}"),
                format!("{report:?}"),
                "{name}: debug drift at {workers} prep workers"
            );
        }
    }
}

#[test]
fn sharding_composes_with_a_shared_family_cache() {
    // The batch-runtime shape: a warm family cache plus prep sharding.
    // Neither the cache, nor the sharding, nor their combination may
    // change the report.
    for (name, ilp) in &corpus() {
        let baseline = engine::solve("three-phase", ilp, &SolveConfig::new().seed(3)).unwrap();
        let cache = SharedSubsetCache::new();
        for workers in [1usize, 4] {
            for _round in 0..2 {
                // round 1 fills the cache, round 2 replays from it
                let cfg = SolveConfig::new()
                    .seed(3)
                    .prep_workers(workers)
                    .prep_cache(cache.clone());
                let report = engine::solve("three-phase", ilp, &cfg).unwrap();
                assert_eq!(
                    baseline, report,
                    "{name}: cache + {workers} workers drifted"
                );
            }
        }
        assert!(cache.hits() > 0, "{name}: warm cache must serve hits");
    }
}
