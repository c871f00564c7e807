//! # dapc-serve
//!
//! Sweep orchestration and the persistent solve service on top of
//! `dapc-runtime`'s mergeable partial results — the layer that takes the
//! batch runtime from "a library call" to "a production sweep that
//! survives crashed workers and a server you can keep warm".
//!
//! Three layers, composable and separately testable:
//!
//! 1. **Specs** ([`CorpusSpec`]): declarative sweep descriptions that
//!    parse from CLI tokens, serialise to hardened versioned bytes, and
//!    rebuild bit-identical corpora in any process — the unit of
//!    agreement between coordinator, workers, checkpoint directories and
//!    daemon clients.
//! 2. **Fault-tolerant orchestration** ([`orchestrate_sweep`]): a
//!    coordinator partitions the corpus across supervised worker
//!    processes, workers checkpoint unit-aligned
//!    [`dapc_runtime::PartReport`] files atomically, and every worker
//!    death — crash, kill, straggler
//!    timeout — forfeits only the unfinished remainder of its range,
//!    which is requeued to the next free slot. Because job results are
//!    pure functions of their [`dapc_runtime::JobKey`], the merged sweep
//!    is byte-identical to the single-process run no matter how many
//!    workers died; a restarted sweep resumes from the checkpoints
//!    without recomputing a single finished unit.
//! 3. **The daemon** ([`Daemon`]): a Unix-socket server speaking a
//!    length-prefixed binary protocol ([`proto`]) that keeps one
//!    [`dapc_runtime::PrepCache`] resident across requests, serves
//!    connections from a bounded thread pool behind a bounded queue
//!    (shedding load with in-band `Busy` frames), bounds client waits
//!    with per-request deadlines, and streams per-job results as they
//!    complete. The [`client`] module pairs it with a capped-backoff
//!    [`client::RetryPolicy`] — safe to retry because every result is a
//!    pure function of its job key.
//!
//! The whole stack is exercised under deterministic fault injection
//! (`dapc-chaos`): with a seeded fault plan armed, checkpoint writes
//! tear, loads flip bits, workers stall and abort, and frames truncate
//! mid-write — and a sweep either fails loudly with the right exit code
//! or completes byte-identical to the fault-free single-process run.
//!
//! Everything that crosses a process boundary — specs, manifests, part
//! files, wire frames — obeys the same hardening contract as the
//! runtime's snapshots: all-or-nothing loads, truncation at any byte is
//! an `Err`, and no length field ever drives an allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod coordinator;
mod daemon;
pub mod exit;
pub mod proto;
mod spec;
mod worker;

pub use checkpoint::{
    gc_stale_tmp, part_file_name, scan_parts, uncovered, unit_grid, write_part, Scan,
    SweepManifest, MANIFEST_FILE, MANIFEST_MAGIC, QUARANTINE_DIR,
};
pub use coordinator::{orchestrate_sweep, SuperviseStats, SweepConfig, SweepOutcome};
pub use daemon::{client, Daemon, DaemonConfig, MAX_REQUEST_JOBS};
pub use spec::{CorpusSpec, GraphSpec, InstanceSpec, Problem, SpecLimits, SPEC_LIMITS, SPEC_MAGIC};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};
