//! Observability must be a pure observer: turning metrics on changes no
//! job outcome, no group summary, and no snapshot byte.
//!
//! The one thing metrics *are* allowed to perturb is timing — `micros`
//! fields and `wall` durations differ between any two runs, metrics or
//! not — so the byte-level comparison zeroes timing the same way the
//! range-merge doctests do, and the structural comparisons use the
//! deterministic `(key, report)` payload that `BatchReport::outcomes`
//! documents as worker- and cache-invariant.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many, solve_range_streaming_with_cache, BatchAggregator, Corpus, GroupSummary, JobResult,
    PartReport, PrepCache, RuntimeConfig,
};

/// `dapc_obs::set_enabled` flips process-global state, so the tests in
/// this binary must not interleave their enabled/disabled phases.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn corpus() -> Corpus {
    Corpus::builder()
        .instance(
            "MIS/cycle14",
            problems::max_independent_set_unweighted(&gen::cycle(14)),
        )
        .instance(
            "VC/cycle12",
            problems::min_vertex_cover_unweighted(&gen::cycle(12)),
        )
        .backend("three-phase")
        .backend("bnb")
        .eps(0.3)
        .seeds(0..2)
        .build()
}

fn zero_group_timing(mut groups: Vec<GroupSummary>) -> Vec<GroupSummary> {
    for g in &mut groups {
        g.micros = 0;
    }
    groups
}

/// Runs the corpus on the parallel path and returns the deterministic
/// payload: canonical-order `(key, report)` pairs plus timing-zeroed
/// group summaries.
fn parallel_outcomes(enabled: bool) -> (Vec<JobResult>, Vec<GroupSummary>) {
    dapc_obs::set_enabled(enabled);
    let report = solve_many(&corpus(), &RuntimeConfig::new().jobs(4).prep_workers(2));
    dapc_obs::set_enabled(false);
    (report.results, zero_group_timing(report.groups))
}

#[test]
fn metrics_do_not_change_job_outcomes_or_groups() {
    let _guard = obs_lock();
    let (off_results, off_groups) = parallel_outcomes(false);
    let (on_results, on_groups) = parallel_outcomes(true);

    assert_eq!(off_results.len(), on_results.len());
    for (off, on) in off_results.iter().zip(&on_results) {
        assert_eq!(off.key, on.key, "canonical delivery order changed");
        assert_eq!(
            off.report, on.report,
            "metrics changed the outcome of {:?}",
            off.key
        );
    }
    assert_eq!(off_groups, on_groups, "metrics changed a group summary");
}

/// Solves the corpus as one range sequentially (`jobs = 1`, so cache
/// counters are deterministic), zeroes per-job timing, and serialises
/// the resulting part snapshot. Everything timing-shaped is forced to a
/// fixed value *identically in both configurations*, so any remaining
/// byte difference is a real metrics side effect.
fn part_snapshot_bytes(enabled: bool) -> Vec<u8> {
    dapc_obs::set_enabled(enabled);
    let corpus = corpus();
    let collected: Arc<Mutex<Vec<JobResult>>> = Arc::default();
    let sink = Arc::clone(&collected);
    let rt = RuntimeConfig::new().jobs(1);
    let part = solve_range_streaming_with_cache(
        &corpus,
        0..corpus.len(),
        &rt,
        &PrepCache::new(),
        move |mut r| {
            r.micros = 0;
            sink.lock().expect("result sink").push(r);
        },
    );
    dapc_obs::set_enabled(false);

    let mut aggregator = BatchAggregator::new();
    for r in collected.lock().expect("result sink").iter() {
        aggregator.push(r);
    }
    let report = PartReport {
        aggregator,
        wall: Duration::ZERO,
        ..part
    };
    let mut bytes = Vec::new();
    report.save_to(&mut bytes).expect("serialise part report");
    bytes
}

#[test]
fn metrics_do_not_change_part_snapshot_bytes() {
    let _guard = obs_lock();
    let off = part_snapshot_bytes(false);
    let on = part_snapshot_bytes(true);
    assert!(!off.is_empty());
    assert_eq!(off, on, "metrics changed serialised part-report bytes");
}

/// The work-stealing executor's headline invariant: the deterministic
/// `(key, report)` payload is byte-identical at every worker count —
/// stealing and parking reorder only *when* tasks run, never what they
/// compute.
#[test]
fn worker_count_does_not_change_outcomes() {
    let _guard = obs_lock();
    let run = |workers: usize| {
        let exec = dapc_exec::Executor::new(workers);
        dapc_exec::with_executor(&exec, || {
            let report = solve_many(&corpus(), &RuntimeConfig::new().jobs(4).prep_workers(2));
            (report.results, zero_group_timing(report.groups))
        })
    };
    let (base_results, base_groups) = run(1);
    for workers in [2usize, 4] {
        let (results, groups) = run(workers);
        assert_eq!(base_results.len(), results.len());
        for (one, many) in base_results.iter().zip(&results) {
            assert_eq!(
                one.key, many.key,
                "delivery order changed at {workers} workers"
            );
            assert_eq!(
                one.report, many.report,
                "{workers}-worker pool changed the outcome of {:?}",
                one.key
            );
        }
        assert_eq!(
            base_groups, groups,
            "{workers}-worker pool changed a group summary"
        );
    }
}
