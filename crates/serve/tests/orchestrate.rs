//! End-to-end guarantees of the orchestrated sweep: the stitched result
//! is byte-identical to the single-process run at any worker count,
//! under injected worker kills, and across checkpoint/resume boundaries;
//! the checkpoint scan skips misnamed, foreign and overlapping parts
//! without quarantining them; tasks end on the unit grid, so each unit is
//! one part file; workers exit once their coordinator is killed, and
//! publish at most one more part each; a worker without a manifest exits
//! with [`exit::EXIT_BAD_SNAPSHOT`]; and a sweep directory refuses a
//! different sweep.
//!
//! Workers here are the real `dapc-serve worker` subcommand, spawned as
//! separate processes via `CARGO_BIN_EXE_dapc-serve`.

use dapc_runtime::{
    solve_many, solve_range_streaming_with_cache, BackendSummary, GroupSummary, PrepCache,
    RuntimeConfig, StreamReport,
};
use dapc_serve::{
    exit, orchestrate_sweep, part_file_name, run_worker, scan_parts, uncovered, unit_grid,
    write_part, CorpusSpec, SweepConfig, SweepManifest, WorkerOptions, QUARANTINE_DIR,
};
use proptest::prelude::*;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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
    CorpusSpec::parse_args(spec_tokens()).expect("demo spec parses")
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

/// The scan's skip rules, on which the in-order stitch relies: a valid
/// part under another unit's file name, a part of a different-size
/// corpus and the later of two overlapping parts are each skipped and
/// counted, not quarantined, and the sweep resumed around them still
/// equals the single-process run.
#[test]
fn misnamed_foreign_and_overlapping_parts_are_skipped_not_quarantined() {
    let dir = scratch("skips");
    let spec = CorpusSpec::parse_args([
        "ring=mis:cycle:12",
        "@backends=greedy",
        "@eps=0.3",
        "@seeds=0..8",
    ])
    .expect("spec parses");
    let jobs = spec.grid_len();
    SweepManifest::new(spec.clone(), 2).store(&dir).unwrap();
    run_worker(&dir, 0..6, &WorkerOptions::default()).expect("prefix worker");
    let solve = |spec: &CorpusSpec, range| {
        let rt = RuntimeConfig::new();
        solve_range_streaming_with_cache(&spec.build(), range, &rt, &PrepCache::new(), |_r| {})
    };
    // Misnamed: the valid part of 0..2 under the name of unit 6..8.
    let misnamed = dir.join(part_file_name(&(6..8)));
    std::fs::copy(dir.join(part_file_name(&(0..2))), &misnamed).unwrap();
    // Foreign: a correctly named part of a 10-job corpus.
    let wider = CorpusSpec::parse_args([
        "ring=mis:cycle:12",
        "@backends=greedy",
        "@eps=0.3",
        "@seeds=0..10",
    ])
    .expect("spec parses");
    let foreign = write_part(&dir, &solve(&wider, 8..10)).unwrap();
    // Overlapping: a valid part of 3..5, later than the accepted 2..4.
    let overlapping = write_part(&dir, &solve(&spec, 3..5)).unwrap();

    let scan = scan_parts(&dir, jobs).expect("scan");
    assert_eq!((scan.skipped, scan.quarantined), (3, 0));
    assert_eq!(scan.covered, vec![0..6]);
    assert_eq!(scan.jobs_done, 6);
    for path in [&misnamed, &foreign, &overlapping] {
        assert!(path.exists(), "{} must stay in place", path.display());
    }
    assert!(!dir.join(QUARANTINE_DIR).exists());

    let cfg = SweepConfig {
        workers: 2,
        unit: 2,
        ..SweepConfig::default()
    };
    let outcome = orchestrate_sweep(&dir, &spec, &cfg, |range, _attempt| {
        spawn_real_worker(&dir, range, None)
    })
    .expect("the sweep resumes around the skipped parts");
    assert_eq!(outcome.resumed_jobs, 6);
    assert_eq!(outcome.quarantined_parts, 0);
    assert_matches_reference(&spec, &outcome.report);
    std::fs::remove_dir_all(&dir).ok();
}

/// The part files in `dir`, sorted by name.
fn part_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list the sweep directory")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("part-"))
        .collect();
    names.sort();
    names
}

/// Tasks end on the manifest's unit grid: at 3 workers and unit 4 an
/// 18-job corpus (⌈18/3⌉ = 6 is not a multiple of 4) leaves exactly one
/// part per grid unit, none split between two workers.
#[test]
fn tasks_end_on_the_unit_grid_so_each_unit_is_one_part() {
    let dir = scratch("aligned");
    let spec = CorpusSpec::parse_args(["ring=mis:cycle:12", "@backends=greedy", "@seeds=0..18"])
        .expect("spec parses");
    let cfg = SweepConfig {
        workers: 3,
        unit: 4,
        ..SweepConfig::default()
    };
    let outcome = orchestrate_sweep(&dir, &spec, &cfg, |range, _attempt| {
        spawn_real_worker(&dir, range, None)
    })
    .expect("orchestrated sweep succeeds");
    assert_matches_reference(&spec, &outcome.report);
    let want: Vec<String> = unit_grid(0..18, 4).iter().map(part_file_name).collect();
    assert_eq!(part_files(&dir), want, "five units, five parts");
    std::fs::remove_dir_all(&dir).ok();
}

/// State letter and parent PID of `pid` from `/proc/PID/stat`, or `None`
/// once the process is gone.
fn proc_stat(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name sits in parentheses and may hold spaces.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    Some((fields.next()?.chars().next()?, fields.next()?.parse().ok()?))
}

/// A coordinator killed on its own takes its workers with it: each one
/// sees that it was re-parented and exits after the job it is on,
/// instead of solving on and publishing parts for nobody. So at most the
/// part each worker was publishing lands after the kill.
#[test]
fn workers_exit_when_their_coordinator_is_killed() {
    let dir = scratch("orphans");
    // 32,768 one-job units of under a millisecond each (debug build):
    // seconds of work for two workers, and a worker that noticed the
    // kill only 100 ms late would publish dozens more parts.
    let mut coordinator = Command::new(EXE)
        .args(["sweep", "--workers", "2", "--unit", "1", "--dir"])
        .arg(&dir)
        .args("a=mis:cycle:20 b=mis:cycle:21 c=mis:cycle:22 d=mis:cycle:23".split(' '))
        .args(["@eps=0.2,0.3", "@seeds=0..4096"])
        .arg("@backends=greedy")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("start the sweep");
    let started = Instant::now();
    while part_files(&dir).is_empty() && started.elapsed() < Duration::from_secs(120) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let parent = coordinator.id();
    let workers: Vec<u32> = std::fs::read_dir("/proc")
        .expect("list /proc")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|&pid| proc_stat(pid).is_some_and(|(_, ppid)| ppid == parent))
        .collect();
    coordinator.kill().expect("SIGKILL the coordinator alone");
    coordinator.wait().expect("reap the coordinator");
    let parts_at_kill = part_files(&dir).len();
    assert_eq!(workers.len(), 2, "both workers must be running");
    let killed = Instant::now();
    let mut alive = workers;
    while !alive.is_empty() && killed.elapsed() < Duration::from_secs(2) {
        alive.retain(|&pid| proc_stat(pid).is_some_and(|(state, _)| state != 'Z'));
        std::thread::sleep(Duration::from_millis(20));
    }
    if !alive.is_empty() {
        let survivors = alive.iter().map(u32::to_string);
        let _ = Command::new("kill").arg("-KILL").args(survivors).status();
    }
    let landed = part_files(&dir).len() - parts_at_kill;
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        alive.is_empty(),
        "workers {alive:?} outlived the coordinator"
    );
    assert!(
        landed <= 2,
        "{landed} parts landed after the coordinator's kill; each of the two workers may publish at most one"
    );
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
        .arg("worker")
        .args(["--dir", "unused", "--range", "9..2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run worker with a reversed range");
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
        let mut stitched = parts.next().expect("full coverage has parts");
        parts.for_each(|p| stitched.append(p));
        let stitched = stitched.finish();
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
