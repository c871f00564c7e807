//! The batch driver: stream a job range through the process-wide
//! executor.
//!
//! The pump pipeline behind every range solve: `min(jobs, |range|)` pump
//! tasks on the shared `dapc_exec` pool claim jobs from an atomic cursor,
//! and finished results flow through a **bounded reorder buffer** that
//! restores the corpus's canonical order before feeding an online
//! [`BatchAggregator`] and the caller's `on_result` hook — so a corpus
//! never has to fit its full report vector in one process.
//! [`solve_many_streaming_with_cache`] runs it over the whole corpus, and
//! [`solve_many`] also collects the per-job results into the familiar
//! [`BatchReport`].
//!
//! When a job's own preparation step shards (`prep_workers > 1`), its
//! subset solves are submitted to the *same* executor pool the job runs
//! on — never a child pool — so `jobs × prep_workers` beyond the pool
//! size degrades into queueing (with the scope owner helping inline)
//! instead of oversubscribing the machine.

use crate::cache::PrepCache;
use crate::corpus::{Corpus, Job};
use crate::part::solve_range_streaming_with_cache;
use crate::report::{BatchAggregator, BatchReport, JobResult, StreamReport};
use dapc_core::engine;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Cached registry handles for the streaming pipeline. Every recording
/// site gates on [`dapc_obs::enabled`], so the disabled path costs one
/// relaxed load; nothing here can change a job's `(key, report)`.
mod metrics {
    use dapc_obs::{Counter, Histogram};
    use std::sync::OnceLock;

    /// Reorder-buffer occupancy right after a result parks.
    pub fn reorder_occupancy() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("runtime.stream.reorder_occupancy"))
    }

    /// Wall microseconds of one job's solve (queueing excluded).
    pub fn job_wall() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("runtime.job.wall_micros"))
    }

    /// Busy microseconds of one pump task over its whole run; against
    /// `runtime.stream.wall_micros` × pump count this yields pump
    /// utilisation.
    pub fn pump_busy() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("runtime.stream.pump_busy_micros"))
    }

    /// Wall microseconds of one `stream_jobs` pipeline run.
    pub fn stream_wall() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("runtime.stream.wall_micros"))
    }

    /// Jobs fed through the streaming pipeline.
    pub fn stream_jobs() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("runtime.stream.jobs"))
    }
}

/// How a batch is executed. Orthogonal to *what* is solved: no
/// [`RuntimeConfig`] choice changes any job's `(key, report)` outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Maximum concurrently running jobs (default 1 = run jobs inline on
    /// the caller). Above 1, that many pump tasks share the process-wide
    /// `dapc_exec` pool — no private pool is spawned.
    pub jobs: usize,
    /// Whether to compute a reference optimum per instance so the report
    /// can aggregate approximation ratios (default `true`).
    pub reference_optima: bool,
    /// Concurrency cap for the preparation step *inside each job*.
    /// Orthogonal to `jobs`: `jobs` parallelises across the corpus,
    /// `prep_workers` shards one large instance's exact subset solves —
    /// both on the same shared executor. Values above 1 override each
    /// job's `SolveConfig::prep_workers`; the default (1) leaves whatever
    /// the corpus's `base_config` set. Like every other runtime knob it
    /// never changes a job's `(key, report)` outcome — preparation output
    /// is byte-identical at any worker count.
    pub prep_workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            jobs: 1,
            reference_optima: true,
            prep_workers: 1,
        }
    }
}

impl RuntimeConfig {
    /// Starts from the defaults (sequential, with reference optima).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the concurrent-job cap (clamped to at least 1 at execution).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enables or disables the per-instance reference optima (and with
    /// them the ratio columns of the report).
    pub fn reference_optima(mut self, on: bool) -> Self {
        self.reference_optima = on;
        self
    }

    /// Shards each job's preparation step across up to `workers`
    /// executor slots (clamped to at least 1 at execution). Most useful
    /// for corpora of few, large instances, where across-job parallelism
    /// alone cannot fill the machine.
    pub fn prep_workers(mut self, workers: usize) -> Self {
        self.prep_workers = workers;
        self
    }
}

/// Solves every job of `corpus` under `rt` with a fresh [`PrepCache`],
/// collecting the per-job results into the returned [`BatchReport`].
///
/// Results come back in the corpus's canonical order and are
/// byte-identical to sequential execution (`jobs = 1`) at any worker
/// count: each job draws its randomness from an RNG derived from its own
/// key, and cached subset solves are deterministic.
pub fn solve_many(corpus: &Corpus, rt: &RuntimeConfig) -> BatchReport {
    let results = Arc::new(Mutex::new(Vec::with_capacity(corpus.len())));
    let sink = Arc::clone(&results);
    let stream =
        solve_many_streaming_with_cache(corpus, rt, &PrepCache::new(), move |r: JobResult| {
            // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
            sink.lock().expect("batch result sink").push(r);
        });
    let results = Arc::try_unwrap(results)
        // dapc-allow(panic): the streaming call returned, so the hook (the only other holder) is dropped
        .expect("streaming returned, the hook was dropped")
        .into_inner()
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        .expect("batch result sink");
    BatchReport {
        results,
        groups: stream.groups,
        backends: stream.backends,
        cache: stream.cache,
        workers: stream.workers,
        wall: stream.wall,
    }
}

/// Streams every job of `corpus` through `on_result` against a
/// caller-owned [`PrepCache`] (so the memo stays warm across successive
/// batches over the same instance families), keeping only the online
/// aggregation in memory: the range pipeline over `0..corpus.len()`,
/// finished.
///
/// The hook receives each [`JobResult`] by value exactly once, **in the
/// corpus's canonical order** (a bounded reorder buffer restores it
/// under parallel execution); nothing is retained after the call, so
/// memory stays proportional to the reorder window, not the corpus. The
/// hook runs on whichever thread finished the delivering job, one call
/// at a time. A panicking job (or hook) fails the batch — the panic is
/// re-raised on the caller after every in-flight job winds down.
///
/// Every `(key, report)` the hook sees is byte-identical to what
/// sequential execution produces, at any `jobs`/`prep_workers` setting.
///
/// # Examples
///
/// ```
/// use dapc_graph::gen;
/// use dapc_ilp::problems;
/// use dapc_runtime::{solve_many_streaming_with_cache, Corpus, PrepCache, RuntimeConfig};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let corpus = Corpus::builder()
///     .instance(
///         "MIS/cycle16",
///         problems::max_independent_set_unweighted(&gen::cycle(16)),
///     )
///     .backend("three-phase")
///     .eps(0.3)
///     .seeds(0..4)
///     .build();
/// // Stream at 4 concurrent jobs; count feasible seeds without ever
/// // holding the per-job reports.
/// let feasible = Arc::new(AtomicUsize::new(0));
/// let seen = Arc::clone(&feasible);
/// let rt = RuntimeConfig::new().jobs(4);
/// let stream = solve_many_streaming_with_cache(&corpus, &rt, &PrepCache::new(), move |r| {
///     if r.report.feasible() {
///         seen.fetch_add(1, Ordering::Relaxed);
///     }
/// });
/// assert_eq!(stream.jobs, 4);
/// assert_eq!(feasible.load(Ordering::Relaxed), 4);
/// // The aggregation still came back — without the result vector.
/// assert_eq!(stream.groups.len(), 1);
/// assert!(stream.groups[0].meets_guarantee());
/// ```
pub fn solve_many_streaming_with_cache<F>(
    corpus: &Corpus,
    rt: &RuntimeConfig,
    cache: &PrepCache,
    on_result: F,
) -> StreamReport
where
    F: FnMut(JobResult) + Send + 'static,
{
    solve_range_streaming_with_cache(corpus, 0..corpus.len(), rt, cache, on_result).finish()
}

/// The pump pipeline behind [`solve_range_streaming_with_cache`]: runs
/// `jobs` (any contiguous slice of a corpus, in canonical order) through
/// `min(rt.jobs, |jobs|)` pump tasks
/// and the reorder buffer, feeding `aggregator` and `on_result` in
/// order. Returns the fed aggregator, the pump count, and the reorder
/// buffer's high-water mark.
pub(crate) fn stream_jobs<F>(
    jobs: Vec<Job>,
    aggregator: BatchAggregator,
    rt: &RuntimeConfig,
    cache: &PrepCache,
    on_result: F,
) -> (BatchAggregator, usize, usize)
where
    F: FnMut(JobResult) + Send + 'static,
{
    let n = jobs.len();
    let prep_workers = rt.prep_workers.max(1);
    let pumps = rt.jobs.max(1).min(n).max(1);
    // dapc-allow(wall-clock): stream-stage telemetry only, gated on dapc_obs::enabled
    let stream_started = dapc_obs::enabled().then(Instant::now);
    let finish = |out| {
        if let Some(started) = stream_started {
            metrics::stream_wall().observe_micros(started.elapsed());
            metrics::stream_jobs().add(n as u64);
        }
        out
    };
    if pumps == 1 {
        let mut aggregator = aggregator;
        let mut on_result = on_result;
        for job in jobs {
            let result = run_job(job, cache, prep_workers);
            aggregator.push(&result);
            on_result(result);
        }
        return finish((aggregator, 1, 0));
    }
    let delivery = Arc::new(Delivery::new(
        aggregator,
        on_result,
        reorder_capacity(pumps),
    ));
    let jobs = Arc::new(jobs);
    let cursor = Arc::new(AtomicUsize::new(0));
    dapc_exec::scope(|s| {
        for _ in 0..pumps {
            let delivery = Arc::clone(&delivery);
            let jobs = Arc::clone(&jobs);
            let cursor = Arc::clone(&cursor);
            let cache = cache.clone();
            s.spawn(move || {
                // dapc-allow(wall-clock): pump telemetry only, gated on dapc_obs::enabled
                let pump_started = dapc_obs::enabled().then(Instant::now);
                loop {
                    if delivery.is_poisoned() {
                        break;
                    }
                    // ordering: Relaxed — pump cursor only claims unique job indices; results reorder downstream
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else {
                        break;
                    };
                    let job = job.clone();
                    match catch_unwind(AssertUnwindSafe(|| run_job(job, &cache, prep_workers))) {
                        Ok(result) => delivery.submit(index, result),
                        Err(payload) => {
                            // A job died: its index will never be
                            // delivered, so in-order delivery can no
                            // longer advance. Poison the pipeline so
                            // every pump (parked or not) winds down,
                            // then let the scope re-raise the panic.
                            delivery.poison();
                            resume_unwind(payload);
                        }
                    }
                }
                if let Some(started) = pump_started {
                    metrics::pump_busy().observe_micros(started.elapsed());
                }
            });
        }
    });
    let (aggregator, peak) = Arc::try_unwrap(delivery)
        .ok()
        // dapc-allow(panic): the worker scope has joined, so no pump still holds the delivery
        .expect("scope joined, no pump holds the delivery")
        .into_parts();
    finish((aggregator, pumps, peak))
}

/// How many out-of-order results may be parked at once: enough that the
/// pumps rarely stall, small enough that streaming memory stays
/// proportional to the worker count, never the corpus.
///
/// The bound is **inclusive**: [`Delivery::submit`]'s admission check
/// (`parked.len() < capacity`) parks a result only while the buffer is
/// below capacity, so `peak_buffered` can *reach* `max(2·pumps, 16)` but
/// never exceed it (audited; pinned by an assertion in the streaming
/// tests). Parked results are not the whole streaming footprint, though:
/// a submitter blocked on a full buffer keeps its own finished result in
/// hand, so up to `capacity + pumps − 1` finished results can exist at
/// once — still proportional to the worker count, never the corpus.
fn reorder_capacity(pumps: usize) -> usize {
    (2 * pumps).max(16)
}

/// The in-order delivery stage: a bounded reorder buffer in front of the
/// aggregator and the caller's hook.
///
/// `submit` never blocks for the next-expected index, and a blocked
/// submitter holds no executor resources besides its pump slot; since
/// pumps claim job indices in increasing order, the pump owning the
/// next-expected job is never the one blocked — so the pipeline cannot
/// deadlock, at any pool size.
///
/// When a job panics its index can never be delivered, so the pump
/// [`Delivery::poison`]s the pipeline first: parked submitters wake and
/// bail out, the other pumps stop claiming, and the executor scope
/// re-raises the original panic — a dead job fails the batch instead of
/// hanging it.
struct Delivery<F> {
    state: Mutex<DeliveryState<F>>,
    /// Signalled whenever in-order delivery advances (or the pipeline is
    /// poisoned).
    advanced: Condvar,
    capacity: usize,
}

struct DeliveryState<F> {
    /// Index the canonical order expects next.
    next: usize,
    /// Finished results waiting for an earlier job, keyed by job index.
    parked: BTreeMap<usize, JobResult>,
    peak: usize,
    /// A job panicked: in-order delivery can never complete, results are
    /// discarded and every pump winds down.
    poisoned: bool,
    aggregator: BatchAggregator,
    on_result: F,
}

impl<F: FnMut(JobResult)> Delivery<F> {
    fn new(aggregator: BatchAggregator, on_result: F, capacity: usize) -> Self {
        Delivery {
            state: Mutex::new(DeliveryState {
                next: 0,
                parked: BTreeMap::new(),
                peak: 0,
                poisoned: false,
                aggregator,
                on_result,
            }),
            advanced: Condvar::new(),
            capacity,
        }
    }

    /// Hands the finished `result` of job `index` over: delivered
    /// immediately when it is the next expected (draining any parked
    /// successors), parked while there is room, otherwise the submitter
    /// waits for the in-order frontier to advance. On a poisoned
    /// pipeline the result is discarded and the call returns at once.
    fn submit(&self, index: usize, result: JobResult) {
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        let mut st = self.state.lock().expect("delivery lock");
        let mut slot = Some(result);
        loop {
            if st.poisoned {
                return;
            }
            if index == st.next {
                // dapc-allow(panic): the slot is refilled before every loop iteration that can reach this take
                let result = slot.take().expect("result still in hand");
                // The aggregator or the caller's hook may panic; that
                // still has to poison the pipeline (and wake parked
                // submitters) or the batch would hang instead of
                // failing. Catching here also keeps the mutex itself
                // unpoisoned, so the wound-down pumps exit cleanly.
                let delivered = catch_unwind(AssertUnwindSafe(|| {
                    st.emit(result);
                    loop {
                        let next = st.next;
                        match st.parked.remove(&next) {
                            Some(parked) => st.emit(parked),
                            None => break,
                        }
                    }
                }));
                if let Err(payload) = delivered {
                    st.poisoned = true;
                    drop(st);
                    self.advanced.notify_all();
                    resume_unwind(payload);
                }
                drop(st);
                self.advanced.notify_all();
                return;
            }
            if st.parked.len() < self.capacity {
                st.parked
                    // dapc-allow(panic): the slot is refilled before every loop iteration that can reach this take
                    .insert(index, slot.take().expect("result still in hand"));
                st.peak = st.peak.max(st.parked.len());
                if dapc_obs::enabled() {
                    metrics::reorder_occupancy().observe(st.parked.len() as u64);
                }
                return;
            }
            // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
            st = self.advanced.wait(st).expect("delivery lock");
        }
    }

    /// Marks the pipeline dead after a job panic and wakes every parked
    /// submitter so the batch fails fast instead of hanging.
    fn poison(&self) {
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        self.state.lock().expect("delivery lock").poisoned = true;
        self.advanced.notify_all();
    }

    fn is_poisoned(&self) -> bool {
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        self.state.lock().expect("delivery lock").poisoned
    }

    fn into_parts(self) -> (BatchAggregator, usize) {
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        let st = self.state.into_inner().expect("delivery lock");
        debug_assert!(
            st.poisoned || st.parked.is_empty(),
            "undelivered results left parked"
        );
        (st.aggregator, st.peak)
    }
}

impl<F: FnMut(JobResult)> DeliveryState<F> {
    fn emit(&mut self, result: JobResult) {
        self.aggregator.push(&result);
        (self.on_result)(result);
        self.next += 1;
    }
}

fn run_job(job: Job, cache: &PrepCache, prep_workers: usize) -> JobResult {
    let Job {
        key, ilp, mut cfg, ..
    } = job;
    cfg.prep_cache = Some(cache.family(&ilp, &cfg.budget));
    // The runtime's `prep_workers` only adds to the corpus's own
    // configuration: a `RuntimeConfig` left at the default (1) must not
    // silently reset a `prep_workers` the corpus set via `base_config`.
    if prep_workers > 1 {
        cfg.prep_workers = prep_workers;
    }
    // dapc-allow(wall-clock): per-job micros field; timings are excluded from report identity
    let timer = Instant::now();
    let report =
        // dapc-allow(panic): corpus construction already validated every backend key against the registry
        engine::solve(&key.backend, &ilp, &cfg).expect("corpus build validated every backend key");
    let micros = timer.elapsed().as_micros() as u64;
    if dapc_obs::enabled() {
        metrics::job_wall().observe(micros);
    }
    JobResult {
        key,
        report,
        micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::JobKey;

    fn sample_result() -> JobResult {
        let ilp = dapc_ilp::problems::max_independent_set_unweighted(&dapc_graph::gen::cycle(6));
        let report = engine::solve("greedy", &ilp, &dapc_core::engine::SolveConfig::new())
            .expect("greedy is registered");
        JobResult {
            key: JobKey {
                instance: "i".into(),
                backend: "greedy".into(),
                eps: 0.3,
                seed: 0,
            },
            report,
            micros: 0,
        }
    }

    /// The job-panic path: a submitter blocked on a full reorder buffer
    /// (its index cannot be delivered because an earlier one is missing)
    /// must wake and bail out when the pipeline is poisoned — before the
    /// poison flag existed, it waited on `advanced` forever and the batch
    /// hung instead of failing.
    #[test]
    fn poison_releases_parked_submitters() {
        let delivery = Arc::new(Delivery::new(BatchAggregator::new(), |_r: JobResult| {}, 1));
        let submitter = Arc::clone(&delivery);
        let blocked = std::thread::spawn(move || {
            submitter.submit(1, sample_result()); // parks (capacity 1)
            submitter.submit(2, sample_result()); // full buffer: blocks
        });
        // Whether the poison lands before, between or after the submits,
        // the submitter thread must wind down instead of hanging.
        std::thread::sleep(std::time::Duration::from_millis(20));
        delivery.poison();
        blocked.join().expect("parked submitter winds down");
        assert!(delivery.is_poisoned());
        let (aggregator, _) = Arc::try_unwrap(delivery)
            .ok()
            .expect("submitter done")
            .into_parts();
        assert!(
            aggregator.range().is_empty(),
            "nothing was ever deliverable"
        );
    }

    /// The hook-panic path: a panic inside `on_result` (or the
    /// aggregator) must poison the pipeline and wake parked submitters
    /// just like a job panic — before the delivering `emit` was wrapped,
    /// the panic left the flag unset and blocked pumps slept forever.
    #[test]
    fn hook_panic_poisons_and_releases_parked_submitters() {
        let delivery = Arc::new(Delivery::new(
            BatchAggregator::new(),
            |_r: JobResult| panic!("hook boom"),
            1,
        ));
        delivery.submit(1, sample_result()); // parks (capacity 1)
        let submitter = Arc::clone(&delivery);
        let blocked = std::thread::spawn(move || {
            submitter.submit(2, sample_result()); // full buffer: blocks
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Delivering the next-expected index runs the panicking hook.
        let delivering = Arc::clone(&delivery);
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            delivering.submit(0, sample_result());
        }));
        assert!(outcome.is_err(), "the hook panic must re-raise");
        blocked.join().expect("parked submitter winds down");
        assert!(delivery.is_poisoned());
    }
}
