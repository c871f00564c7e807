//! Batch-runtime guarantees: thread-count determinism, cache
//! transparency, and counter behaviour.

use dapc_core::engine::SolveConfig;
use dapc_graph::gen;
use dapc_ilp::{problems, IlpInstance};
use dapc_runtime::{
    solve_many, solve_many_streaming_with_cache, BatchReport, Corpus, JobResult, PrepCache,
    RuntimeConfig,
};
use std::sync::{Arc, Mutex};

/// A mixed packing/covering corpus of `n` small instances.
fn instances(n: usize) -> Vec<(String, IlpInstance)> {
    let mut out: Vec<(String, IlpInstance)> = vec![
        (
            "MIS/cycle12".into(),
            problems::max_independent_set_unweighted(&gen::cycle(12)),
        ),
        (
            "MIS/grid3x4".into(),
            problems::max_independent_set_unweighted(&gen::grid(3, 4)),
        ),
        (
            "MIS/gnp14".into(),
            problems::max_independent_set_unweighted(&gen::gnp(14, 0.15, &mut gen::seeded_rng(1))),
        ),
        (
            "match/path10".into(),
            problems::max_matching(&gen::path(10)).ilp,
        ),
        (
            "VC/cycle12".into(),
            problems::min_vertex_cover_unweighted(&gen::cycle(12)),
        ),
        (
            "DS/cycle12".into(),
            problems::min_dominating_set_unweighted(&gen::cycle(12)),
        ),
        (
            "pack/random".into(),
            problems::random_packing(12, 8, 3, &mut gen::seeded_rng(2)),
        ),
        (
            "cover/random".into(),
            problems::random_covering(10, 8, 3, &mut gen::seeded_rng(3)),
        ),
    ];
    out.truncate(n);
    out
}

fn corpus(n_instances: usize, backends: &[&str], seeds: u64) -> Corpus {
    let mut b = Corpus::builder()
        .backends(backends.iter().copied())
        .eps(0.3)
        .seeds(0..seeds)
        .base_config(SolveConfig::new().ensemble_runs(2));
    for (name, ilp) in instances(n_instances) {
        b = b.instance(name, ilp);
    }
    b.build()
}

/// [`solve_many`] against a caller-owned cache: the streaming entry
/// point with a hook that collects every job.
fn solve_with_cache(corpus: &Corpus, rt: &RuntimeConfig, cache: &PrepCache) -> BatchReport {
    let sink: Arc<Mutex<Vec<JobResult>>> = Arc::default();
    let hook = Arc::clone(&sink);
    let stream = solve_many_streaming_with_cache(corpus, rt, cache, move |r| {
        hook.lock().expect("sink").push(r);
    });
    BatchReport {
        results: Arc::try_unwrap(sink)
            .expect("hook dropped")
            .into_inner()
            .expect("sink"),
        groups: stream.groups,
        backends: stream.backends,
        cache: stream.cache,
        workers: stream.workers,
        wall: stream.wall,
    }
}

fn assert_identical(a: &BatchReport, b: &BatchReport) {
    assert_eq!(a.results.len(), b.results.len());
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(*x.0, *y.0, "job keys diverge");
        assert_eq!(*x.1, *y.1, "job {} diverges", x.0);
    }
}

/// The acceptance sweep: 8 instances × 5 seeds × all 5 backends comes
/// back bit-identical to the sequential path at 4 workers, with the prep
/// cache earning hits.
#[test]
fn parallel_batch_matches_sequential_bit_for_bit() {
    let corpus = corpus(8, &["three-phase", "gkm", "ensemble", "greedy", "bnb"], 5);
    assert_eq!(corpus.len(), 8 * 5 * 5);
    let sequential = solve_many(&corpus, &RuntimeConfig::new().jobs(1));
    let parallel = solve_many(&corpus, &RuntimeConfig::new().jobs(4));
    assert_identical(&sequential, &parallel);
    assert_eq!(parallel.workers, 4);
    assert!(parallel.cache.hits > 0, "{:?}", parallel.cache);
    assert!(parallel.results.iter().all(|r| r.report.feasible()));
}

/// Worker counts beyond the job count (and every count in between) all
/// agree with single-threaded execution.
#[test]
fn every_thread_count_agrees() {
    let corpus = corpus(3, &["three-phase", "bnb"], 2);
    let reference = solve_many(&corpus, &RuntimeConfig::new().jobs(1));
    for workers in [2usize, 3, 16] {
        let run = solve_many(&corpus, &RuntimeConfig::new().jobs(workers));
        assert_identical(&reference, &run);
    }
}

/// Cache transparency: reports with the prep cache on and off are equal —
/// the cache shares work, never outcomes.
#[test]
fn cache_on_and_off_yield_identical_reports() {
    let corpus = corpus(4, &["three-phase", "gkm", "bnb"], 3);
    let cached = solve_many(&corpus, &RuntimeConfig::new().jobs(2).prep_cache(true));
    let uncached = solve_many(&corpus, &RuntimeConfig::new().jobs(2).prep_cache(false));
    assert_identical(&cached, &uncached);
    assert!(cached.cache.hits > 0);
    assert_eq!(uncached.cache.hits, 0, "cache off must not touch a cache");
    assert_eq!(uncached.cache.misses, 0);
}

/// Counters only grow, and a second batch over the same families turns
/// would-be misses into hits.
#[test]
fn cache_counters_are_monotone_across_batches() {
    let corpus = corpus(2, &["three-phase"], 2);
    let cache = PrepCache::new();
    let first = solve_with_cache(&corpus, &RuntimeConfig::new(), &cache);
    let after_first = cache.stats();
    assert!(
        after_first.misses > 0,
        "first batch must populate the cache"
    );
    assert_eq!(first.cache, after_first);

    let second = solve_with_cache(&corpus, &RuntimeConfig::new(), &cache);
    let after_second = cache.stats();
    assert_identical(&first, &second);
    assert!(after_second.hits >= after_first.hits);
    assert!(after_second.misses >= after_first.misses);
    assert!(after_second.entries >= after_first.entries);
    assert!(
        after_second.hits > after_first.hits,
        "a warm cache must answer repeat lookups: {after_second:?}"
    );
    assert_eq!(
        after_second.misses, after_first.misses,
        "an identical batch should add no new subset solves"
    );
}

/// Intra-solve prep sharding composes with across-job fan-out: any
/// `(jobs, prep_workers)` pair is bit-identical to fully sequential
/// execution.
#[test]
fn prep_workers_compose_with_job_fanout() {
    let corpus = corpus(4, &["three-phase", "bnb"], 2);
    let reference = solve_many(&corpus, &RuntimeConfig::new());
    for (jobs, prep_workers) in [(1usize, 4usize), (2, 2), (4, 4)] {
        let run = solve_many(
            &corpus,
            &RuntimeConfig::new().jobs(jobs).prep_workers(prep_workers),
        );
        assert_identical(&reference, &run);
    }
}

/// A byte-budgeted PrepCache evicts (so memory stays flat) without moving
/// a single report byte.
#[test]
fn bounded_prep_cache_is_report_transparent() {
    let corpus = corpus(5, &["three-phase"], 3);
    let reference = solve_many(&corpus, &RuntimeConfig::new());
    let bounded = PrepCache::with_family_capacity(256);
    let run = solve_with_cache(&corpus, &RuntimeConfig::new().jobs(2), &bounded);
    assert_identical(&reference, &run);
    let stats = bounded.stats();
    assert!(
        stats.evictions > 0,
        "a 256-byte family budget must evict: {stats:?}"
    );
    let unbounded = solve_many(&corpus, &RuntimeConfig::new());
    assert_eq!(unbounded.cache.evictions, 0);
}

/// The aggregation matches a hand computation over the per-job results.
#[test]
fn group_summaries_aggregate_the_results() {
    let corpus = corpus(2, &["three-phase", "greedy"], 3);
    let report = solve_many(&corpus, &RuntimeConfig::new().jobs(2));
    assert_eq!(report.groups.len(), 2 * 2);
    for g in &report.groups {
        let members: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.key.instance == g.instance && r.key.backend == g.backend)
            .collect();
        assert_eq!(members.len(), g.jobs);
        assert_eq!(g.jobs, 3);
        assert_eq!(
            g.min_value,
            members.iter().map(|r| r.report.value).min().unwrap()
        );
        assert_eq!(
            g.max_value,
            members.iter().map(|r| r.report.value).max().unwrap()
        );
        let opt = g.opt.expect("reference optima on by default");
        let worst = match g.sense {
            dapc_ilp::Sense::Packing => g.min_value,
            dapc_ilp::Sense::Covering => g.max_value,
        };
        let worst_ratio = worst as f64 / opt.max(1) as f64;
        match g.sense {
            dapc_ilp::Sense::Packing => {
                assert!((g.min_ratio.unwrap() - worst_ratio).abs() < 1e-12)
            }
            dapc_ilp::Sense::Covering => {
                assert!((g.max_ratio.unwrap() - worst_ratio).abs() < 1e-12)
            }
        }
    }
    let backends: Vec<_> = report.backends.iter().map(|b| b.backend.as_str()).collect();
    assert_eq!(backends, ["three-phase", "greedy"]);
    assert!(report.backends.iter().all(|b| b.jobs == 2 * 3));
}

/// The online worst-seed phase counters ([`dapc_runtime::GroupStats`])
/// match a hand computation over the per-job backend stats — this is
/// what lets the experiment tables drop their dependency on the full
/// result vector.
#[test]
fn group_stats_fold_the_worst_seed_counters() {
    use dapc_core::engine::BackendStats;
    let corpus = corpus(6, &["three-phase"], 3);
    let report = solve_many(&corpus, &RuntimeConfig::new().jobs(2));
    let mut packing_seen = false;
    let mut covering_seen = false;
    for g in &report.groups {
        let mut expected = dapc_runtime::GroupStats::default();
        for r in report.results.iter().filter(|r| {
            r.key.instance == g.instance
                && r.key.backend == g.backend
                && r.key.eps.to_bits() == g.eps.to_bits()
        }) {
            match &r.report.stats {
                BackendStats::Packing(s) => {
                    packing_seen = true;
                    expected.deleted = expected.deleted.max(s.deleted_carving + s.deleted_phase3);
                    expected.components = expected.components.max(s.components);
                }
                BackendStats::Covering(s) => {
                    covering_seen = true;
                    expected.fixed_weight = expected.fixed_weight.max(s.fixed_weight);
                    expected.deleted_edges = expected.deleted_edges.max(s.deleted_edges);
                }
                _ => {}
            }
        }
        assert_eq!(g.stats, expected, "{}/{}", g.instance, g.backend);
    }
    assert!(packing_seen && covering_seen, "both senses exercised");
}

/// Disabling reference optima drops the ratio columns but nothing else.
#[test]
fn optima_are_optional() {
    let corpus = corpus(1, &["greedy"], 2);
    let with = solve_many(&corpus, &RuntimeConfig::new());
    let without = solve_many(&corpus, &RuntimeConfig::new().reference_optima(false));
    assert_identical(&with, &without);
    assert!(with.groups[0].opt.is_some());
    assert!(without.groups[0].opt.is_none());
    assert!(without.groups[0].min_ratio.is_none());
    assert!(!without.groups[0].meets_guarantee());
}
