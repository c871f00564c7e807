//! Wall-clock benches for the `dapc-runtime` batch path, plus three
//! explicit acceptance measurements:
//!
//! 1. sequential-vs-batch: the same corpus solved the PR-1 way (one job
//!    at a time, no shared prep) and through `solve_many` at 4 concurrent
//!    jobs with the per-instance-family prep cache;
//! 2. streaming smoke: `solve_many_streaming_with_cache` delivers the identical
//!    results in canonical order with a bounded reorder buffer;
//! 3. executor-vs-per-solve-pool: on a corpus of many *small* preps, the
//!    shared-executor batch wall clock beside the per-solve pool
//!    spawn/teardown tax the former architecture paid (measured
//!    standalone — the removed cost, not a rerun of the old code). The
//!    measured line is committed as `BENCH_exec.json` at the repo root.
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
use std::time::Instant;

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

/// Many small instances, one seed sweep: every solve's preparation is
/// tiny, so under the former architecture the per-solve
/// `ThreadPool::new(prep_workers)` spawn/teardown was a visible fraction
/// of the job — the workload the shared executor targets.
fn small_prep_corpus() -> Corpus {
    let (count, seeds) = if quick_mode() { (6, 0..2) } else { (10, 0..4) };
    let mut b = Corpus::builder()
        .backend("three-phase")
        .eps(0.3)
        .seeds(seeds)
        .base_config(SolveConfig::new());
    for i in 0..count {
        let n = 14 + 2 * i;
        b = b.instance(
            format!("MIS/gnp{n}-{i}"),
            problems::max_independent_set_unweighted(&gen::gnp(
                n,
                0.12,
                &mut gen::seeded_rng(100 + i as u64),
            )),
        );
    }
    b.build()
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

/// One timed head-to-head run, printing the numbers the ISSUE acceptance
/// criteria name: ≥ 2× wall-clock at 4 workers with a positive prep-cache
/// hit rate, and bit-identical results either way.
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

/// The tentpole measurement: the shared-executor batch wall clock beside
/// the *per-solve pool tax* the former architecture paid on the same
/// corpus — one vendored `ThreadPool::new(4)` spawn + teardown per solve,
/// measured standalone (it cannot be re-inserted into `prepare` itself,
/// which no longer spawns pools, so this is an emulation of the removed
/// cost, not a rerun of the old code; the old tax was partially
/// overlapped across jobs, so the standalone figure is an upper bound on
/// wall clock and an exact count of spawned threads). Prints one
/// `BENCH_exec` JSON line; the committed `BENCH_exec.json` records it
/// with the host's core count.
fn report_executor_vs_per_solve_pool(_c: &mut Criterion) {
    let corpus = small_prep_corpus();
    let rt = RuntimeConfig::new()
        .jobs(2)
        .prep_workers(4)
        .reference_optima(false);
    let quick = quick_mode();
    let samples = if quick { 1 } else { 3 };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let (mut shared_exec, mut pool_tax) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        let start = Instant::now();
        let stream = solve_many_streaming_with_cache(&corpus, &rt, &PrepCache::new(), |_r| {});
        shared_exec = shared_exec.min(start.elapsed().as_secs_f64());
        assert_eq!(stream.jobs, corpus.len());

        // The removed cost, measured alone: the former architecture span
        // (and tore down) one prep pool per solve.
        let start = Instant::now();
        for _ in 0..corpus.len() {
            let pool = threadpool::ThreadPool::new(4);
            pool.join();
        }
        pool_tax = pool_tax.min(start.elapsed().as_secs_f64());
    }

    // Observability tax: the identical batch with the dapc-obs registry
    // armed, so every executor/cache/runtime instrumentation site takes its
    // hot path (clock reads + atomic bumps) instead of the single relaxed
    // gate load. The batch is ms-scale, so a single on/off pair is all
    // scheduler noise: the comparison interleaves off/on pairs and takes
    // the min of each side, which cancels machine-wide drift. The gate is
    // restored to off before returning so later report fns stay unmetered.
    // One batch is ~ms-scale, too short to time against scheduler jitter,
    // so each timed sample is `reps` back-to-back batches.
    let (pairs, reps) = if quick { (3, 2) } else { (10, 8) };
    let (mut plain_wall, mut obs_wall) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..pairs {
        dapc_obs::set_enabled(false);
        let start = Instant::now();
        for _ in 0..reps {
            let stream = solve_many_streaming_with_cache(&corpus, &rt, &PrepCache::new(), |_r| {});
            assert_eq!(stream.jobs, corpus.len());
        }
        plain_wall = plain_wall.min(start.elapsed().as_secs_f64() / reps as f64);

        dapc_obs::set_enabled(true);
        let start = Instant::now();
        for _ in 0..reps {
            let stream = solve_many_streaming_with_cache(&corpus, &rt, &PrepCache::new(), |_r| {});
            assert_eq!(stream.jobs, corpus.len());
        }
        obs_wall = obs_wall.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    dapc_obs::set_enabled(false);
    let obs_overhead = obs_wall / plain_wall - 1.0;

    let tax_fraction = pool_tax / shared_exec;
    println!(
        "BENCH_exec {{\"corpus\":{{\"jobs\":{},\"shape\":\"small-prep\"}},\"quick\":{quick},\
         \"cores\":{cores},\"rt\":{{\"jobs\":2,\"prep_workers\":4}},\
         \"wall_seconds\":{{\"shared_executor_batch\":{shared_exec:.4},\"per_solve_pool_tax\":{pool_tax:.4},\
         \"obs_baseline_batch\":{plain_wall:.4},\"obs_enabled_batch\":{obs_wall:.4}}},\
         \"tax_over_batch\":{tax_fraction:.3},\
         \"obs_overhead\":{obs_overhead:.3},\
         \"threads_not_spawned\":{},\
         \"emulation\":\"tax measured standalone: one ThreadPool::new(4)+join per solve of the same corpus\"}}",
        corpus.len(),
        4 * corpus.len(),
    );
}

criterion_group!(
    benches,
    bench_batch_paths,
    report_speedup,
    report_streaming_smoke,
    report_executor_vs_per_solve_pool
);
criterion_main!(benches);
