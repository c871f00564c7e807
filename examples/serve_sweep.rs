//! The `dapc-serve` layer, demonstrated in one process: a declarative
//! `CorpusSpec`, a checkpointed sweep that dies partway and resumes
//! without recomputing a single finished unit, the stitched result
//! matching the uninterrupted run exactly — and then the persistent
//! solve daemon on a Unix socket, streaming per-job results to a client
//! while its resident prep cache pays off across requests.
//!
//! Run with `cargo run --release --example serve_sweep`.
//!
//! The multi-process side (a coordinator supervising `dapc-serve
//! worker` processes, surviving injected kills) is the same machinery
//! driven by `orchestrate_sweep` / the `dapc-serve sweep` subcommand;
//! see `crates/serve/README.md`.

use dapc::prelude::*;
use dapc::serve::{client, run_worker, scan_parts, uncovered};
use dapc::serve::{CorpusSpec, Daemon, SweepManifest, WorkerOptions};

fn main() {
    // A sweep is a spec, not a corpus: a few CLI-style tokens that
    // serialise to hardened bytes and rebuild the identical corpus in
    // any process — coordinator, workers, daemon clients.
    let spec = CorpusSpec::parse_args([
        "ring=mis:cycle:16",
        "cover=vc:grid:3x3",
        "@backends=greedy,three-phase",
        "@eps=0.3",
        "@seeds=0..3",
    ])
    .expect("spec tokens parse");
    let jobs = spec.grid_len();
    println!("spec: {jobs} jobs (instances x backends x eps x seeds)\n");

    // The reference: the whole corpus in one uninterrupted run.
    let reference = solve_many(&spec.build(), &RuntimeConfig::new());

    // --- Checkpointed sweep, crash, resume -------------------------------
    let dir = std::env::temp_dir().join(format!("serve-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create sweep dir");

    // The manifest pins the directory to this spec with a 2-job
    // checkpoint unit; workers cut their ranges at global multiples of
    // it, so any later attempt dovetails with these part files.
    SweepManifest::new(spec.clone(), 2)
        .store(&dir)
        .expect("store manifest");

    // A worker solves a prefix and "dies" (here: simply returns early).
    // Each finished unit was already renamed into place atomically — a
    // real crash forfeits at most the one unit in flight.
    let first = run_worker(&dir, 0..5, &WorkerOptions::default()).expect("prefix worker");
    println!(
        "worker ran 0..5, then died: {} jobs checkpointed in {} part files",
        first.solved_jobs, first.solved_units
    );

    // Resume the way the coordinator does: scan what the checkpoints
    // actually cover, then assign exactly the uncovered complement.
    let covered = scan_parts(&dir, jobs).expect("scan").covered;
    for range in uncovered(jobs, &covered) {
        let resumed = run_worker(&dir, range.clone(), &WorkerOptions::default()).expect("resume");
        println!(
            "resumed {range:?}: {} jobs solved, {} already checkpointed",
            resumed.solved_jobs, resumed.resumed_jobs
        );
    }

    // Stitch the sweep back together from the part files alone.
    let scan = scan_parts(&dir, jobs).expect("final scan");
    assert_eq!(scan.covered, vec![0..jobs], "checkpoints cover the corpus");
    // The scan returns the parts sorted and disjoint, so they append in
    // canonical order.
    let mut parts = scan.parts.into_iter();
    let mut stitched = parts.next().expect("full coverage has parts");
    parts.for_each(|p| stitched.append(p));
    let stitched = stitched.finish();
    for (m, s) in stitched.groups.iter().zip(&reference.groups) {
        assert_eq!(
            (m.jobs, m.min_value, m.max_value, m.mean_value),
            (s.jobs, s.min_value, s.max_value, s.mean_value),
            "a crash/resume may never move an aggregate"
        );
    }
    println!(
        "stitched {} groups == uninterrupted run, timings aside\n",
        stitched.groups.len()
    );
    std::fs::remove_dir_all(&dir).ok();

    // --- The persistent solve daemon -------------------------------------
    let socket = std::env::temp_dir().join(format!("serve-sweep-{}.sock", std::process::id()));
    let daemon = Daemon::bind(&socket).expect("bind daemon socket");
    let server = std::thread::spawn(move || daemon.run());

    let protocol = client::ping(&socket).expect("ping");
    println!("daemon up on {} (protocol v{protocol})", socket.display());

    // A sweep streams one frame per job, in canonical order, as results
    // complete — a client renders progress without waiting for the end.
    let mut worst_ratio_jobs = 0usize;
    let summary = client::sweep(&socket, &spec, 2, |job| {
        if !job.feasible {
            worst_ratio_jobs += 1;
        }
        if job.index < 3 {
            println!("  streamed job {} {} -> {}", job.index, job.key, job.value);
        }
    })
    .expect("streamed sweep");
    assert_eq!(summary.jobs, jobs as u64);
    assert_eq!(worst_ratio_jobs, 0, "every streamed job verified feasible");
    println!(
        "  ... {} jobs streamed, {} cache hits / {} misses",
        summary.jobs, summary.cache_hits, summary.cache_misses
    );

    // The prep cache is resident: the same spec again mostly hits.
    let again = client::sweep(&socket, &spec, 2, |_| {}).expect("second sweep");
    assert!(
        again.cache_hits > summary.cache_hits,
        "resident cache accumulates hits"
    );
    println!(
        "re-swept warm: {} cache hits (was {})",
        again.cache_hits, summary.cache_hits
    );

    client::shutdown(&socket).expect("shutdown");
    server
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    println!("\ndaemon shut down; socket removed: {}", !socket.exists());
}
