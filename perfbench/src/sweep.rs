//! `sweep_orchestrated`: `orchestrate_sweep` into a fresh checkpoint
//! directory per sweep, with two worker processes and a small checkpoint
//! unit. The workers are this benchmark binary re-invoked with
//! `--worker`, which calls `dapc_serve::run_worker`.

use crate::common::{
    drive, median, repeated_setup, scratch_dir, timed, Digest, Gate, Metrics, Opts, Outcome, Phase,
    Scale, Stop, GRAPH_SEED,
};
use crate::host::Host;
use dapc_runtime::{solve_many, GroupSummary, RuntimeConfig};
use dapc_serve::{orchestrate_sweep, scan_parts, CorpusSpec, SweepConfig, WorkerOptions};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Digest of the merged groups at the default seed.
const GOLDEN: u64 = 0x206d_d07e_7c65_f777;

/// Worker processes per sweep.
const WORKERS: usize = 2;

/// Requests (sweeps) in each phase of a traced run.
const TRACED_REQUESTS: usize = 12;

/// The host is measured in as many fresh processes as a sweep runs.
const HOST: Host = Host::processes(WORKERS);

/// The fields of a group summary a pure speed-up must keep: everything
/// but the wall-clock total.
fn groups_digest(groups: &[GroupSummary]) -> u64 {
    let mut h = Digest::default();
    for g in groups {
        h.str(&g.instance)
            .str(&g.backend)
            .u64(g.eps.to_bits())
            .u64(g.vars as u64)
            .u64(g.jobs as u64)
            .u64(u64::from(g.feasible))
            .u64(g.opt.unwrap_or(u64::MAX))
            .u64(u64::from(g.opt_exact))
            .u64(g.min_value)
            .u64(g.max_value)
            .u64(g.mean_value.to_bits())
            .u64(g.min_ratio.map_or(u64::MAX, f64::to_bits))
            .u64(g.max_ratio.map_or(u64::MAX, f64::to_bits))
            .u64(g.mean_ratio.map_or(u64::MAX, f64::to_bits))
            .u64(g.rounds_last as u64)
            .u64(g.mean_rounds.to_bits())
            .u64(g.stats.deleted as u64)
            .u64(g.stats.components as u64)
            .u64(g.stats.fixed_weight)
            .u64(g.stats.deleted_edges as u64);
    }
    h.0
}

/// A sweep light enough for ~10 sweeps a second, heavy enough that
/// worker run times vary by more than the supervisor's 5 ms exit poll.
fn spec(seed: u64, tiny: bool) -> CorpusSpec {
    let s = GRAPH_SEED % 1_000_000;
    let mut tokens = vec![
        format!("mis-gnp=mis:gnp:36:0.08:{s}"),
        "mis-ring=mis:cycle:32".to_string(),
        format!("vc-gnp=vc:gnp:30:0.1:{}", s + 1),
        "ds-ring=ds:cycle:30".to_string(),
        "mis-long=mis:cycle:300".to_string(),
        "@backends=three-phase".to_string(),
        "@eps=0.2,0.3".to_string(),
        format!("@seeds={}..{}", seed * 1000, seed * 1000 + 6),
    ];
    if tiny {
        tokens.drain(1..5);
    }
    CorpusSpec::parse_args(tokens).expect("the benchmark's spec is valid")
}

struct Sweep {
    spec: CorpusSpec,
    jobs: usize,
    /// Digest of the in-process `solve_many` groups every sweep must
    /// reproduce.
    expected: u64,
    exe: PathBuf,
}

fn setup(opts: &Opts) -> Sweep {
    let spec = spec(opts.seed, opts.scale == Scale::Tiny);
    let reference = solve_many(&spec.build(), &RuntimeConfig::new());
    Sweep {
        jobs: reference.results.len(),
        expected: groups_digest(&reference.groups),
        spec,
        exe: std::env::current_exe().expect("locate the benchmark binary"),
    }
}

/// The `--worker DIR A..B` mode the sweeps spawn.
pub fn worker(args: &[String]) -> std::io::Result<()> {
    let [dir, range] = args else {
        return Err(std::io::Error::other("usage: --worker DIR A..B"));
    };
    let (a, b) = range
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| std::io::Error::other(format!("bad range {range:?}")))?;
    let opts = WorkerOptions {
        jobs: 1,
        ..WorkerOptions::default()
    };
    dapc_serve::run_worker(Path::new(dir), a..b, &opts).map(drop)
}

/// What one finished sweep left behind, for the traced run.
#[derive(Default)]
struct Checkpoints {
    parts: usize,
    part_bytes: u64,
    scan: Duration,
}

fn checkpoints(dir: &Path, jobs: usize) -> Checkpoints {
    let mut out = Checkpoints::default();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().starts_with("part-") {
            out.parts += 1;
            out.part_bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    out.scan = timed(|| scan_parts(dir, jobs)).1;
    out
}

pub fn run(opts: &Opts) -> Outcome {
    let (sw, setup_s) = repeated_setup(HOST, || setup(opts));
    let root = scratch_dir().join("sweeps");
    let cfg = SweepConfig {
        workers: WORKERS,
        unit: 4,
        max_attempts: 3,
        timeout: Some(Duration::from_secs(60)),
    };
    let golden = opts.golden(GOLDEN);
    let mut gate = Gate::default();
    gate.golden("sweep_orchestrated groups", sw.expected, golden);
    // Timed before the traced phase, so its solves stay out of the
    // registry delta.
    let in_process = opts.trace.then(|| in_process_wall(&sw));
    let mut sweeps = 0usize;
    let metrics = drive(
        opts,
        HOST,
        setup_s,
        TRACED_REQUESTS,
        &mut gate,
        |stop: Stop, gate: &mut Gate, layer: &mut Metrics| {
            let mut phase = Phase::start();
            let (mut spawns, mut retries, mut timeouts) = (0, 0, 0);
            let mut dirs = Vec::new();
            while !stop.done(phase.started(), phase.len()) {
                let dir = root.join(sweeps.to_string());
                sweeps += 1;
                let (outcome, took) = timed(|| {
                    orchestrate_sweep(&dir, &sw.spec, &cfg, |range, _attempt| {
                        Command::new(&sw.exe)
                            .arg("--worker")
                            .arg(&dir)
                            .arg(format!("{}..{}", range.start, range.end))
                            .stdout(Stdio::null())
                            .spawn()
                    })
                });
                let jobs = outcome.as_ref().map_or(0, |o| o.corpus_jobs as u64);
                phase.record(took, jobs);
                let checked = match outcome {
                    Err(e) => Err(format!("sweep failed: {e}")),
                    Ok(o) => {
                        spawns += o.stats.spawns;
                        retries += o.stats.retries;
                        timeouts += o.stats.timeouts;
                        if groups_digest(&o.report.groups) != sw.expected {
                            Err("merged groups differ from the in-process solve_many".into())
                        } else if o.stats.retries + o.stats.timeouts + o.skipped_parts > 0 {
                            Err(format!(
                                "sweep needed {} retries, {} timeouts, {} torn parts",
                                o.stats.retries, o.stats.timeouts, o.skipped_parts
                            ))
                        } else {
                            Ok(())
                        }
                    }
                };
                gate.check(checked);
                dirs.push(dir);
            }
            let phase = phase.finish();
            let mut ckpt = Checkpoints::default();
            for dir in dirs.iter().filter(|_| opts.trace) {
                let c = checkpoints(dir, sw.jobs);
                ckpt.parts += c.parts;
                ckpt.part_bytes += c.part_bytes;
                ckpt.scan += c.scan;
            }
            let _ = std::fs::remove_dir_all(&root);
            layer.push("serve.sweep.spawns", spawns as f64, "count");
            layer.push("serve.sweep.retries", retries as f64, "count");
            layer.push("serve.sweep.timeouts", timeouts as f64, "count");
            layer.push("serve.sweep.parts", ckpt.parts as f64, "count");
            layer.push("serve.sweep.part_bytes", ckpt.part_bytes as f64, "bytes");
            layer.push("serve.checkpoint.scan_s", ckpt.scan.as_secs_f64(), "s");
            if let Some(in_process) = in_process {
                let tax = phase.latency_s() - phase.len() as f64 * in_process;
                layer.push("serve.sweep.process_tax_s", tax, "s");
            }
            phase
        },
    );
    Outcome {
        gate,
        metrics,
        exec_workers: dapc_exec::global().workers(),
    }
}

/// Median wall of the same corpus solved in this process at the same
/// concurrency: the baseline of `serve.sweep.process_tax_s`.
fn in_process_wall(sw: &Sweep) -> f64 {
    let corpus = sw.spec.build();
    let rt = RuntimeConfig::new().jobs(WORKERS);
    median(
        (0..5)
            .map(|_| timed(|| solve_many(&corpus, &rt)).1.as_secs_f64())
            .collect(),
    )
}
