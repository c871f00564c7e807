//! Process supervision and the fault-tolerant sweep coordinator.
//!
//! The `Supervisor` is the generic layer: a queue of tasks, a cap of
//! concurrently running worker processes, a straggler timeout, and a
//! judge that inspects each worker's exit and decides — finished,
//! requeue (possibly as *different*, smaller tasks: the salvage), or
//! abort the whole run. It knows nothing about sweeps.
//!
//! [`orchestrate_sweep`] is its one instantiation: tasks are
//! contiguous job ranges of a [`CorpusSpec`]'s corpus, workers checkpoint
//! unit-aligned [`dapc_runtime::PartReport`] files into the sweep
//! directory, and the judge rescans those files after every exit — a
//! crashed or killed worker forfeits only its unfinished remainder,
//! which is requeued for whichever worker slot frees first. Because
//! every job's result is a pure function of its [`dapc_runtime::JobKey`],
//! the merged result is byte-identical to the single-process sweep no
//! matter how many workers died on the way.

use crate::checkpoint::{gc_stale_tmp, scan_parts, uncovered, SweepManifest};
use crate::exit;
use crate::spec::CorpusSpec;
use dapc_runtime::{snap, PartReport, StreamReport};
use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::process::Child;
use std::time::{Duration, Instant};

/// Supervision-layer metric handles (`serve.supervisor.*` and
/// `serve.sweep.*`), resolved once. These shadow the per-run
/// [`SuperviseStats`]/[`SweepOutcome`] counters with process-lifetime
/// totals, so a daemon or long-lived orchestrator accumulates across
/// runs.
mod metrics {
    use dapc_obs::{counter, Counter};
    use std::sync::OnceLock;

    pub fn spawns() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.supervisor.spawns"))
    }

    pub fn retries() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.supervisor.retries"))
    }

    pub fn timeouts() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.supervisor.timeouts"))
    }

    /// Jobs a failed attempt still completed (checkpointed units kept
    /// by the salvage scan instead of being re-solved).
    pub fn salvaged_jobs() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.sweep.salvaged_jobs"))
    }

    /// Ranges put back on the queue by requeue verdicts.
    pub fn requeued_ranges() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.sweep.requeued_ranges"))
    }
}

/// How a supervised worker process ended.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Exit {
    /// The exit code, `None` on signal death (crash, kill, abort).
    pub(crate) code: Option<i32>,
    /// Whether the supervisor killed it as a straggler.
    pub(crate) timed_out: bool,
}

/// The judge's ruling on one finished worker.
pub(crate) enum Verdict<T> {
    /// The task is complete; free the slot.
    Done,
    /// The task is not complete: requeue `tasks` in its place (typically
    /// the unfinished remainder). `progress` states whether the attempt
    /// moved the sweep forward — progress resets the attempt budget, so
    /// a worker that keeps dying but keeps checkpointing is re-spawned
    /// indefinitely while a worker dying without progress exhausts
    /// [`Supervisor::max_attempts`].
    Requeue {
        /// Replacement tasks (empty is allowed and equals `Done`).
        tasks: Vec<T>,
        /// Whether the failed attempt still advanced the run.
        progress: bool,
    },
    /// Deterministic failure — abort the whole run with this message.
    Fatal(String),
}

/// Counters of one supervised run (see [`SweepOutcome::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Worker processes spawned (first attempts and retries).
    pub spawns: usize,
    /// Requeue verdicts (each one a failure that was retried).
    pub retries: usize,
    /// Stragglers killed by the timeout.
    pub timeouts: usize,
}

/// A bounded pool of supervised worker processes with retry and
/// straggler-kill policy. See the module docs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Supervisor {
    /// Maximum concurrently running workers.
    pub(crate) slots: usize,
    /// Attempts a task may consume without progress before the run
    /// aborts.
    pub(crate) max_attempts: u32,
    /// Wall-clock budget per worker; exceeding it gets the worker killed
    /// and judged with `timed_out` (no timeout when `None`).
    pub(crate) timeout: Option<Duration>,
}

impl Supervisor {
    /// Runs `tasks` to completion: spawns up to [`Supervisor::slots`]
    /// workers via `spawn`, waits on them, and routes every exit through
    /// `judge`. `spawn` receives the task and its attempt number
    /// (0-based); `judge` receives the task and its [`Exit`].
    ///
    /// # Errors
    ///
    /// Fails when `spawn` or `judge` does, when a judge rules
    /// [`Verdict::Fatal`], or when a task exhausts
    /// [`Supervisor::max_attempts`] attempts without progress.
    pub(crate) fn run<T, S, J>(
        &self,
        tasks: Vec<T>,
        mut spawn: S,
        mut judge: J,
    ) -> io::Result<SuperviseStats>
    where
        T: std::fmt::Debug,
        S: FnMut(&T, u32) -> io::Result<Child>,
        J: FnMut(&T, &Exit) -> io::Result<Verdict<T>>,
    {
        let slots = self.slots.max(1);
        let mut queue: VecDeque<(T, u32)> = tasks.into_iter().map(|t| (t, 0)).collect();
        let mut running: Vec<(T, u32, Child, Instant)> = Vec::new();
        let mut stats = SuperviseStats::default();
        while !queue.is_empty() || !running.is_empty() {
            while running.len() < slots {
                let Some((task, attempt)) = queue.pop_front() else {
                    break;
                };
                // Chaos: a delayed spawn (slow fork/exec, loaded box) —
                // shifts interleavings without changing any result.
                dapc_chaos::stall("spawn.delay", 30);
                let child = spawn(&task, attempt)?;
                stats.spawns += 1;
                if dapc_obs::enabled() {
                    metrics::spawns().inc();
                }
                // dapc-allow(wall-clock): worker start time drives retry backoff, never report bytes
                running.push((task, attempt, child, Instant::now()));
            }
            // Poll for any exit or straggler; workers are independent
            // processes, so a short sleep between polls costs nothing
            // but latency.
            let (i, exit) = 'poll: loop {
                for (i, (_task, _attempt, child, spawned)) in running.iter_mut().enumerate() {
                    if let Some(status) = child.try_wait()? {
                        break 'poll (
                            i,
                            Exit {
                                code: status.code(),
                                timed_out: false,
                            },
                        );
                    }
                    if self.timeout.is_some_and(|t| spawned.elapsed() > t) {
                        child.kill().ok();
                        child.wait()?;
                        stats.timeouts += 1;
                        if dapc_obs::enabled() {
                            metrics::timeouts().inc();
                        }
                        break 'poll (
                            i,
                            Exit {
                                code: None,
                                timed_out: true,
                            },
                        );
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let (task, attempt, _child, _spawned) = running.swap_remove(i);
            match judge(&task, &exit)? {
                Verdict::Done => {}
                Verdict::Requeue { tasks, progress } => {
                    stats.retries += 1;
                    if dapc_obs::enabled() {
                        metrics::retries().inc();
                    }
                    let next = if progress { 0 } else { attempt + 1 };
                    if next >= self.max_attempts {
                        return Err(io::Error::other(format!(
                            "task {task:?} failed {} attempts without progress (last exit {exit:?})",
                            attempt + 1
                        )));
                    }
                    for t in tasks {
                        queue.push_back((t, next));
                    }
                }
                Verdict::Fatal(msg) => {
                    for (_t, _a, mut child, _s) in running.drain(..) {
                        child.kill().ok();
                        child.wait().ok();
                    }
                    return Err(io::Error::other(msg));
                }
            }
        }
        Ok(stats)
    }
}

/// Policy of one orchestrated sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Worker processes to run concurrently.
    pub workers: usize,
    /// Checkpoint unit in jobs (ignored when resuming a directory whose
    /// manifest pins a different unit — alignment beats preference).
    pub unit: usize,
    /// Attempt budget per task without progress.
    pub max_attempts: u32,
    /// Straggler timeout per worker.
    pub timeout: Option<Duration>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            workers: 2,
            unit: 8,
            max_attempts: 3,
            timeout: None,
        }
    }
}

/// What an orchestrated sweep produced, beyond the report itself.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged aggregation — byte-identical in groups and backends to
    /// the single-process sweep of the same spec.
    pub report: StreamReport,
    /// Total jobs of the corpus.
    pub corpus_jobs: usize,
    /// Jobs already covered by checkpoints when this run started (a
    /// resume skips exactly these).
    pub resumed_jobs: usize,
    /// Jobs solved by this run's workers.
    pub solved_jobs: usize,
    /// Supervision counters.
    pub stats: SuperviseStats,
    /// Torn or foreign part files ignored by the scans.
    pub skipped_parts: usize,
    /// Unloadable part files the scans moved into
    /// [`crate::checkpoint::QUARANTINE_DIR`] (a subset of
    /// `skipped_parts`).
    pub quarantined_parts: usize,
    /// Stale `*.tmp` checkpoint temporaries collected on startup.
    pub collected_tmp: usize,
}

/// Runs (or resumes) the sweep described by `spec` in checkpoint
/// directory `dir` with worker processes obtained from `spawn_worker`,
/// which receives a job range and the attempt number and must start a
/// process that checkpoints that range into `dir` (the `dapc-serve
/// worker` subcommand; tests may substitute anything with the same
/// contract).
///
/// Crashed, killed and straggling workers forfeit only their unfinished
/// remainder: the judge rescans the directory's part files after every
/// exit, salvages completed units, and requeues the uncovered rest of
/// the range for the next free slot.
///
/// # Errors
///
/// Fails when `dir` already belongs to a *different* sweep, when a
/// worker dies a deterministic death ([`exit::EXIT_BAD_SNAPSHOT`],
/// [`exit::EXIT_SOLVE_PANIC`], [`exit::EXIT_USAGE`]), when a range
/// exhausts its attempt budget without progress, or on filesystem
/// errors.
pub fn orchestrate_sweep<S>(
    dir: &Path,
    spec: &CorpusSpec,
    cfg: &SweepConfig,
    spawn_worker: S,
) -> io::Result<SweepOutcome>
where
    S: FnMut(&Range<usize>, u32) -> io::Result<Child>,
{
    spec.validate()?;
    std::fs::create_dir_all(dir)?;
    let mut manifest = match SweepManifest::load(dir)? {
        Some(m) => {
            if m.spec != *spec {
                return Err(snap::invalid(format!(
                    "{} already holds checkpoints of a different sweep",
                    dir.display()
                )));
            }
            m
        }
        None => {
            let m = SweepManifest::new(spec.clone(), cfg.unit);
            m.store(dir)?;
            m
        }
    };
    let corpus_jobs = manifest.corpus_jobs;

    // No worker is running yet, so any dotted temporary is a leak from
    // a crashed predecessor — collect them before the first scan.
    let collected_tmp = gc_stale_tmp(dir)?;

    let scan = scan_parts(dir, corpus_jobs)?;
    let resumed_jobs = scan.jobs_done;
    let mut skipped_parts = scan.skipped;
    let mut quarantined_parts = scan.quarantined;
    let remaining = uncovered(corpus_jobs, &scan.covered);
    let remaining_jobs: usize = remaining.iter().map(Range::len).sum();

    // Carve the remainder into one contiguous chunk per worker slot (the
    // final partial chunks just leave slots idle sooner).
    let target = remaining_jobs.div_ceil(cfg.workers.max(1)).max(1);
    let mut tasks: Vec<Range<usize>> = Vec::new();
    for r in remaining {
        let mut cursor = r.start;
        while cursor < r.end {
            let end = (cursor + target).min(r.end);
            tasks.push(cursor..end);
            cursor = end;
        }
    }

    let supervisor = Supervisor {
        slots: cfg.workers,
        max_attempts: cfg.max_attempts,
        timeout: cfg.timeout,
    };
    let mut spawn_worker = spawn_worker;
    let stats = supervisor.run(
        tasks,
        |task, attempt| spawn_worker(task, attempt),
        |task, exit| {
            // Parts on disk are the ground truth of what the attempt
            // achieved, whatever the exit status claims.
            let scan = scan_parts(dir, corpus_jobs)?;
            skipped_parts = scan.skipped.max(skipped_parts);
            quarantined_parts += scan.quarantined;
            manifest.done = scan.covered.clone();
            manifest.store(dir)?;
            let owed: Vec<Range<usize>> = uncovered(corpus_jobs, &scan.covered)
                .into_iter()
                .filter_map(|r| {
                    let piece = r.start.max(task.start)..r.end.min(task.end);
                    (!piece.is_empty()).then_some(piece)
                })
                .collect();
            if owed.is_empty() {
                return Ok(Verdict::Done);
            }
            if !exit.timed_out && exit.code != Some(exit::EXIT_OK) && !exit::is_retryable(exit.code)
            {
                return Ok(Verdict::Fatal(format!(
                    "worker for jobs {task:?} failed deterministically (exit {:?})",
                    exit.code
                )));
            }
            let owed_jobs: usize = owed.iter().map(Range::len).sum();
            if dapc_obs::enabled() {
                // The owed pieces are clipped to `task` and disjoint, so
                // the difference is exactly what the attempt salvaged.
                metrics::salvaged_jobs().add((task.len() - owed_jobs) as u64);
                metrics::requeued_ranges().add(owed.len() as u64);
            }
            Ok(Verdict::Requeue {
                tasks: owed,
                progress: owed_jobs < task.len(),
            })
        },
    )?;

    // Stitch the full corpus back together from the checkpoint files.
    let scan = scan_parts(dir, corpus_jobs)?;
    skipped_parts = skipped_parts.max(scan.skipped);
    quarantined_parts += scan.quarantined;
    if scan.covered.len() != 1 || scan.covered[0] != (0..corpus_jobs) {
        return Err(io::Error::other(format!(
            "sweep ended but checkpoints cover {:?} of 0..{corpus_jobs}",
            scan.covered
        )));
    }
    manifest.done = scan.covered.clone();
    manifest.store(dir)?;
    let mut parts = scan.parts.into_iter();
    let mut merged: PartReport = parts.next().ok_or_else(|| {
        io::Error::other("checkpoint scan reported full coverage but produced no parts")
    })?;
    for p in parts {
        merged.merge(p);
    }
    Ok(SweepOutcome {
        report: merged.finish(),
        corpus_jobs,
        resumed_jobs,
        solved_jobs: corpus_jobs - resumed_jobs,
        stats,
        skipped_parts,
        quarantined_parts,
        collected_tmp,
    })
}
