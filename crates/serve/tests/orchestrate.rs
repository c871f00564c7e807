//! End-to-end guarantees of the orchestrated sweep: the merged result is
//! byte-identical to the single-process run at any worker count, under
//! injected worker kills, and across checkpoint/resume boundaries; a
//! worker without a manifest exits with [`exit::EXIT_BAD_SNAPSHOT`]; and
//! a sweep directory refuses a different sweep.
//!
//! Workers here are the real `dapc-serve worker` subcommand, spawned as
//! separate processes via `CARGO_BIN_EXE_dapc-serve`.

use dapc_runtime::{solve_many, BackendSummary, GroupSummary, RuntimeConfig, StreamReport};
use dapc_serve::{
    exit, orchestrate_sweep, run_worker, scan_parts, uncovered, CorpusSpec, SweepConfig,
    SweepManifest, WorkerOptions,
};
use proptest::prelude::*;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_dapc-serve");

/// A fresh scratch directory under the target-local tmp root; unique per
/// call so concurrently running tests never share state.
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dapc-serve-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn demo_spec() -> CorpusSpec {
    CorpusSpec::parse_args([
        "ring=mis:cycle:12",
        "cover=vc:grid:3x3",
        "@backends=greedy,three-phase",
        "@eps=0.3",
        "@seeds=0..3",
        "@ensemble=2",
    ])
    .expect("demo spec parses")
}

fn spec_tokens() -> Vec<&'static str> {
    vec![
        "ring=mis:cycle:12",
        "cover=vc:grid:3x3",
        "@backends=greedy,three-phase",
        "@eps=0.3",
        "@seeds=0..3",
        "@ensemble=2",
    ]
}

fn sans_micros_groups(groups: &[GroupSummary]) -> Vec<GroupSummary> {
    groups
        .iter()
        .cloned()
        .map(|mut g| {
            g.micros = 0;
            g
        })
        .collect()
}

fn sans_micros_backends(backends: &[BackendSummary]) -> Vec<BackendSummary> {
    backends
        .iter()
        .cloned()
        .map(|mut b| {
            b.micros = 0;
            b
        })
        .collect()
}

/// Asserts the deterministic content of an orchestrated report equals
/// the single-process reference, timings aside.
fn assert_matches_reference(spec: &CorpusSpec, report: &StreamReport) {
    let reference = solve_many(&spec.build(), &RuntimeConfig::new());
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&report.groups)
    );
    assert_eq!(
        sans_micros_backends(&reference.backends),
        sans_micros_backends(&report.backends)
    );
}

/// Spawns the real worker binary on `range`, optionally armed with a
/// self-destruct fuse.
fn spawn_real_worker(dir: &Path, range: &Range<usize>, fuse: Option<usize>) -> io::Result<Child> {
    let mut cmd = Command::new(EXE);
    cmd.arg("worker")
        .arg("--dir")
        .arg(dir)
        .arg("--range")
        .arg(format!("{}..{}", range.start, range.end))
        .arg("--jobs")
        .arg("1")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(k) = fuse {
        cmd.arg("--self-destruct-after").arg(k.to_string());
    }
    cmd.spawn()
}

#[test]
fn orchestrated_sweep_is_byte_identical_to_the_single_process_run() {
    let dir = scratch("plain");
    let spec = demo_spec();
    let cfg = SweepConfig {
        workers: 3,
        unit: 2,
        ..SweepConfig::default()
    };
    let outcome = orchestrate_sweep(&dir, &spec, &cfg, |range, _attempt| {
        spawn_real_worker(&dir, range, None)
    })
    .expect("orchestrated sweep succeeds");
    assert_eq!(outcome.corpus_jobs, spec.grid_len());
    assert_eq!(outcome.resumed_jobs, 0);
    assert_eq!(outcome.solved_jobs, spec.grid_len());
    assert_eq!(outcome.report.jobs, spec.grid_len());
    assert_eq!(outcome.stats.retries, 0);
    assert_eq!(outcome.skipped_parts, 0);
    assert_matches_reference(&spec, &outcome.report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_injected_kill_forfeits_only_the_remainder_and_changes_nothing() {
    let dir = scratch("killed");
    let spec = demo_spec();
    let cfg = SweepConfig {
        workers: 3,
        unit: 2,
        ..SweepConfig::default()
    };
    // Arm exactly the first spawn: it aborts (no unwinding, no part file
    // for the in-flight unit — a SIGKILL in all but name) after three
    // solved jobs; every later spawn, including the salvage of its
    // remainder, runs clean.
    let mut armed = Some(3usize);
    let outcome = orchestrate_sweep(&dir, &spec, &cfg, |range, _attempt| {
        spawn_real_worker(&dir, range, armed.take())
    })
    .expect("sweep survives the injected kill");
    assert!(
        outcome.stats.retries >= 1,
        "the killed worker must have been judged and requeued: {:?}",
        outcome.stats
    );
    assert!(
        outcome.stats.spawns > 3,
        "the salvage must have re-spawned: {:?}",
        outcome.stats
    );
    assert_eq!(outcome.report.jobs, spec.grid_len());
    assert_matches_reference(&spec, &outcome.report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sweep_resumes_from_checkpoints_without_recomputing_them() {
    let dir = scratch("resume");
    let spec = demo_spec();
    let jobs = spec.grid_len();

    // Simulate a run that died partway: a manifest plus the first five
    // jobs' checkpoints (two full units and one partial), written by the
    // library worker in-process.
    SweepManifest::new(spec.clone(), 2)
        .store(&dir)
        .expect("store manifest");
    let first = run_worker(&dir, 0..5, &WorkerOptions::default()).expect("prefix worker");
    assert_eq!(first.solved_jobs, 5);

    let cfg = SweepConfig {
        workers: 2,
        unit: 2,
        ..SweepConfig::default()
    };
    let outcome = orchestrate_sweep(&dir, &spec, &cfg, |range, _attempt| {
        spawn_real_worker(&dir, range, None)
    })
    .expect("resumed sweep succeeds");
    assert_eq!(
        outcome.resumed_jobs, 5,
        "checkpointed jobs are not re-solved"
    );
    assert_eq!(outcome.solved_jobs, jobs - 5);
    assert_matches_reference(&spec, &outcome.report);

    // Resuming a *finished* sweep spawns nothing at all.
    let outcome = orchestrate_sweep(&dir, &spec, &cfg, |_range, _attempt| {
        panic!("a finished sweep must not spawn workers")
    })
    .expect("finished sweep re-opens cleanly");
    assert_eq!(outcome.resumed_jobs, jobs);
    assert_eq!(outcome.solved_jobs, 0);
    assert_eq!(outcome.stats.spawns, 0);
    assert_matches_reference(&spec, &outcome.report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_directory_of_a_different_sweep_is_refused() {
    let dir = scratch("foreign");
    SweepManifest::new(demo_spec(), 2).store(&dir).unwrap();
    let other = CorpusSpec::parse_args(["lone=mis:cycle:6", "@backends=greedy"]).unwrap();
    let err = orchestrate_sweep(&dir, &other, &SweepConfig::default(), |_r, _a| {
        panic!("must refuse before spawning")
    })
    .expect_err("foreign directory must be refused");
    assert!(err.to_string().contains("different sweep"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_sweep_with_an_injected_kill_renders_byte_identical_tables() {
    let base = scratch("cli");
    let single_out = base.join("single.txt");
    let killed_out = base.join("killed.txt");

    let single = Command::new(EXE)
        .arg("sweep")
        .args(["--workers", "1", "--unit", "4"])
        .arg("--dir")
        .arg(base.join("single"))
        .arg("--out")
        .arg(&single_out)
        .args(spec_tokens())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .expect("run single-worker sweep");
    assert!(single.success(), "single-worker sweep failed: {single:?}");

    let killed = Command::new(EXE)
        .arg("sweep")
        .args(["--workers", "3", "--unit", "2", "--inject-kill", "2"])
        .arg("--dir")
        .arg(base.join("killed"))
        .arg("--out")
        .arg(&killed_out)
        .args(spec_tokens())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .expect("run kill-drill sweep");
    assert!(killed.success(), "kill-drill sweep failed: {killed:?}");

    let single = std::fs::read(&single_out).expect("single-worker table");
    let killed = std::fs::read(&killed_out).expect("kill-drill table");
    assert!(!single.is_empty());
    assert_eq!(
        single, killed,
        "rendered tables must be byte-identical across worker counts and kills"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn worker_usage_errors_exit_with_the_usage_code() {
    let status = Command::new(EXE)
        .arg("worker")
        .args(["--range", "0..2"]) // no --dir
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run worker with missing flag");
    assert_eq!(status.code(), Some(exit::EXIT_USAGE), "{status:?}");

    let status = Command::new(EXE)
        .arg("no-such-subcommand")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run unknown subcommand");
    assert_eq!(status.code(), Some(exit::EXIT_USAGE), "{status:?}");
}

#[test]
fn a_worker_without_a_manifest_exits_with_bad_snapshot() {
    let dir = scratch("bare");
    let status = Command::new(EXE)
        .arg("worker")
        .arg("--dir")
        .arg(&dir)
        .args(["--range", "0..2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run worker against an empty directory");
    assert_eq!(status.code(), Some(exit::EXIT_BAD_SNAPSHOT), "{status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The resume invariant, quantified: checkpoint an arbitrary prefix
    /// under an arbitrary unit, resume the way the coordinator does
    /// (workers over the uncovered complement), and the stitched result
    /// equals the uninterrupted run — modulo timings, which are the only
    /// non-deterministic columns.
    #[test]
    fn any_checkpoint_prefix_resumes_to_the_uninterrupted_run(
        prefix in 0usize..=6,
        unit in 1usize..5,
    ) {
        let dir = scratch("prop");
        let spec = CorpusSpec::parse_args([
            "ring=mis:cycle:12",
            "@backends=greedy",
            "@eps=0.3",
            "@seeds=0..6",
        ]).expect("proptest spec parses");
        let jobs = spec.grid_len();
        prop_assert_eq!(jobs, 6);
        SweepManifest::new(spec.clone(), unit).store(&dir).unwrap();

        if prefix > 0 {
            run_worker(&dir, 0..prefix, &WorkerOptions::default()).expect("prefix worker");
        }
        let covered = scan_parts(&dir, jobs).unwrap().covered;
        for range in uncovered(jobs, &covered) {
            let resumed = run_worker(&dir, range.clone(), &WorkerOptions::default())
                .expect("resume worker");
            prop_assert_eq!(resumed.solved_jobs, range.len());
            prop_assert_eq!(resumed.resumed_jobs, 0);
        }

        let scan = scan_parts(&dir, jobs).unwrap();
        prop_assert_eq!(scan.skipped, 0);
        prop_assert_eq!(scan.covered.clone(), vec![0..jobs]);
        let mut parts = scan.parts.into_iter();
        let mut merged = parts.next().expect("full coverage has parts");
        for p in parts {
            merged.merge(p);
        }
        let stitched = merged.finish();
        let reference = solve_many(&spec.build(), &RuntimeConfig::new());
        prop_assert_eq!(
            sans_micros_groups(&reference.groups),
            sans_micros_groups(&stitched.groups)
        );
        prop_assert_eq!(
            sans_micros_backends(&reference.backends),
            sans_micros_backends(&stitched.backends)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
