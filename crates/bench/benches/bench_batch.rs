//! Wall-clock benches for the `dapc-runtime` batch path, plus two
//! explicit checks:
//!
//! 1. sequential-vs-batch: the same corpus solved the PR-1 way (one job
//!    at a time, no shared prep) and through `solve_many` at 4 concurrent
//!    jobs with the per-instance-family prep cache;
//! 2. streaming smoke: `solve_many_streaming_with_cache` delivers the identical
//!    results in canonical order with a bounded reorder buffer.
//!
//! Run quick (CI smoke): `cargo bench -p dapc-bench --bench bench_batch -- --quick`

use criterion::{criterion_group, criterion_main, Criterion};
use dapc_core::engine::SolveConfig;
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many, solve_many_streaming_with_cache, Corpus, JobResult, PrepCache, RuntimeConfig,
};
use std::sync::{Arc, Mutex};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// An E3/E5-style sweep: mixed packing/covering instances × ε grid × seed
/// range, three-phase throughout. Every `(instance, budget)` family
/// recurs `|ε grid| × |seeds|` times, which is exactly the reuse the prep
/// cache is built to exploit.
fn sweep_corpus() -> Corpus {
    let (eps, seeds): (&[f64], _) = if quick_mode() {
        (&[0.3], 0..3)
    } else {
        (&[0.2, 0.3], 0..8)
    };
    Corpus::builder()
        .instance(
            "MIS/gnp40",
            problems::max_independent_set_unweighted(&gen::gnp(40, 0.08, &mut gen::seeded_rng(1))),
        )
        .instance(
            "MIS/cycle48",
            problems::max_independent_set_unweighted(&gen::cycle(48)),
        )
        .instance(
            "VC/cycle40",
            problems::min_vertex_cover_unweighted(&gen::cycle(40)),
        )
        .instance(
            "DS/cycle33",
            problems::min_dominating_set_unweighted(&gen::cycle(33)),
        )
        .backend("three-phase")
        .eps_grid(eps.iter().copied())
        .seeds(seeds)
        .base_config(SolveConfig::new())
        .build()
}

fn sequential_config() -> RuntimeConfig {
    RuntimeConfig::new()
        .jobs(1)
        .prep_cache(false)
        .reference_optima(false)
}

fn batch_config() -> RuntimeConfig {
    RuntimeConfig::new()
        .jobs(4)
        .prep_cache(true)
        .reference_optima(false)
}

fn bench_batch_paths(c: &mut Criterion) {
    let corpus = sweep_corpus();
    let mut group = c.benchmark_group("batch");
    group.sample_size(if quick_mode() { 2 } else { 3 });
    group.bench_function("sequential_no_cache", |b| {
        b.iter(|| solve_many(&corpus, &sequential_config()))
    });
    group.bench_function("solve_many_4workers_cached", |b| {
        b.iter(|| solve_many(&corpus, &batch_config()))
    });
    group.finish();
}

/// One timed head-to-head run: prints the sequential and the 4-job cached
/// walls with the prep-cache hit rate, and asserts that both paths give
/// bit-identical outcomes and that the cache hits at least once.
fn report_speedup(_c: &mut Criterion) {
    let corpus = sweep_corpus();
    let sequential = solve_many(&corpus, &sequential_config());
    let batch = solve_many(&corpus, &batch_config());
    assert_eq!(
        sequential.outcomes(),
        batch.outcomes(),
        "batch execution must be bit-identical to the sequential path"
    );
    let speedup = sequential.wall.as_secs_f64() / batch.wall.as_secs_f64();
    println!(
        "batch/speedup: {} jobs, sequential {:.2?} vs 4 workers + prep cache {:.2?} => {speedup:.2}x \
         (cache: {} hits / {} misses, rate {:.2})",
        corpus.len(),
        sequential.wall,
        batch.wall,
        batch.cache.hits,
        batch.cache.misses,
        batch.cache.hit_rate(),
    );
    assert!(
        batch.cache.hits > 0,
        "the sweep must reuse prep work across seeds"
    );
}

/// Streaming smoke: `solve_many_streaming_with_cache` hands over the identical
/// `(key, report)` sequence in canonical order, with the reorder buffer
/// staying inside its bound — the CI `--quick` step runs this.
fn report_streaming_smoke(_c: &mut Criterion) {
    let corpus = sweep_corpus();
    let batch = solve_many(&corpus, &batch_config());
    let sink: Arc<Mutex<Vec<JobResult>>> = Arc::default();
    let hook = Arc::clone(&sink);
    let stream =
        solve_many_streaming_with_cache(&corpus, &batch_config(), &PrepCache::new(), move |r| {
            hook.lock().expect("stream sink").push(r);
        });
    let streamed = Arc::try_unwrap(sink)
        .expect("hook dropped")
        .into_inner()
        .expect("stream sink");
    assert_eq!(batch.results.len(), streamed.len());
    for (a, b) in batch.results.iter().zip(&streamed) {
        assert_eq!(a.key, b.key, "streaming broke the canonical order");
        assert_eq!(a.report, b.report, "streaming moved a report byte");
    }
    println!(
        "batch/streaming: {} jobs in canonical order, peak reorder buffer {} (workers {})",
        stream.jobs, stream.peak_buffered, stream.workers,
    );
}

criterion_group!(
    benches,
    bench_batch_paths,
    report_speedup,
    report_streaming_smoke
);
criterion_main!(benches);
