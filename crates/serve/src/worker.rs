//! The worker side of an orchestrated sweep: solve an assigned job
//! range, checkpoint unit by unit, die loudly.
//!
//! [`run_worker`] is the whole life of one `dapc-serve worker` process.
//! It reads the sweep manifest of its directory (the coordinator wrote
//! it before spawning anyone), rebuilds the corpus from the embedded
//! spec, and walks its assigned range along the manifest's global
//! checkpoint grid — skipping units that already have a valid part file
//! (a resume or a predecessor's salvage), solving the rest, and
//! publishing each finished unit atomically. A crash at any instant
//! therefore forfeits at most one unit of work. A worker whose
//! coordinator is gone (it was re-parented) exits 3 before it starts or
//! publishes another unit, and after the job it is on: it publishes
//! nothing more for nobody, so a rerun does not race it on the same
//! units.

use crate::checkpoint::{self, SweepManifest};
use dapc_runtime::{snap, solve_range_streaming_with_cache, PrepCache, RuntimeConfig};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Knobs of one worker process.
#[derive(Clone, Debug, Default)]
pub struct WorkerOptions {
    /// Intra-process job parallelism (`RuntimeConfig::jobs`).
    pub jobs: usize,
    /// Fault injection: `process::abort()` after this many jobs have
    /// been solved (counted across units). Exercises the coordinator's
    /// salvage path in tests and CI.
    pub self_destruct_after: Option<usize>,
}

/// What one worker run did (for counters and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Units solved and checkpointed by this run.
    pub solved_units: usize,
    /// Units skipped because a valid checkpoint already covered them.
    pub skipped_units: usize,
    /// Jobs solved by this run.
    pub solved_jobs: usize,
    /// Jobs covered by the skipped checkpoints.
    pub resumed_jobs: usize,
}

/// Solves `range` of the sweep checkpointed in `dir`. See the module
/// docs for the life cycle.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] when `dir` has no (or a
/// corrupt) manifest or when `range` reaches beyond the manifest's
/// corpus, and with a transient error once the process was re-parented
/// (checked before solving each unit and again before publishing it);
/// propagates filesystem errors from checkpointing. Re-parented
/// mid-unit, the process exits with [`crate::exit::EXIT_IO`] after its
/// current job.
///
/// # Panics
///
/// A panicking solve propagates (the binary maps it to
/// [`crate::exit::EXIT_SOLVE_PANIC`]).
pub fn run_worker(
    dir: &Path,
    range: Range<usize>,
    opts: &WorkerOptions,
) -> io::Result<WorkerSummary> {
    let manifest = SweepManifest::load(dir)?
        .ok_or_else(|| snap::invalid(format!("{} has no sweep manifest", dir.display())))?;
    let corpus_jobs = manifest.spec.grid_len();
    if range.end > corpus_jobs {
        return Err(snap::invalid(format!(
            "assigned range {range:?} reaches beyond the {corpus_jobs}-job corpus"
        )));
    }
    let corpus = manifest.spec.build();
    let cache = PrepCache::new();
    let mut summary = WorkerSummary::default();
    let rt = RuntimeConfig::new().jobs(opts.jobs.max(1));
    let solved = Arc::new(AtomicUsize::new(0));
    let coordinator = std::os::unix::process::parent_id();
    for unit in checkpoint::unit_grid(range, manifest.unit) {
        if unit_is_checkpointed(dir, &unit, corpus_jobs) {
            summary.skipped_units += 1;
            summary.resumed_jobs += unit.len();
            continue;
        }
        ensure_parent(coordinator)?;
        // Chaos: a straggling worker (exercises the supervisor timeout)
        // and signal death between units (already-published parts
        // survive and are salvaged — the crash forfeits nothing done).
        dapc_chaos::stall("worker.stall", 60);
        if dapc_chaos::roll("worker.abort").is_some() {
            std::process::abort();
        }
        let solved = Arc::clone(&solved);
        let fuse = opts.self_destruct_after;
        let part =
            solve_range_streaming_with_cache(&corpus, unit.clone(), &rt, &cache, move |_r| {
                // ordering: SeqCst — the chaos crash fuse must observe an exact solve count
                let count = solved.fetch_add(1, Ordering::SeqCst) + 1;
                if fuse.is_some_and(|k| count >= k) {
                    // The injected crash: no unwinding, no cleanup — the
                    // in-progress unit's part file is never written, exactly
                    // like a SIGKILL mid-solve.
                    std::process::abort();
                }
                // A unit can take seconds: an orphan stops after the job
                // it is on instead of finishing the unit for nobody.
                if let Err(gone) = ensure_parent(coordinator) {
                    eprintln!("dapc-serve: {gone}");
                    std::process::exit(crate::exit::EXIT_IO);
                }
            });
        ensure_parent(coordinator)?;
        checkpoint::write_part(dir, &part)?;
        summary.solved_units += 1;
        summary.solved_jobs += unit.len();
    }
    Ok(summary)
}

/// Fails once this process's parent is no longer `coordinator`: a
/// coordinator killed on its own leaves its workers re-parented.
fn ensure_parent(coordinator: u32) -> io::Result<()> {
    if std::os::unix::process::parent_id() == coordinator {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "worker exits, its coordinator {coordinator} is gone"
        )))
    }
}

/// Whether `unit` already has a loadable part file covering exactly it.
fn unit_is_checkpointed(dir: &Path, unit: &Range<usize>, corpus_jobs: usize) -> bool {
    let path = dir.join(checkpoint::part_file_name(unit));
    fs::File::open(path)
        .map(io::BufReader::new)
        .and_then(dapc_runtime::PartReport::load_from)
        .map(|p| p.corpus_jobs == corpus_jobs && p.range() == *unit)
        .unwrap_or(false)
}
