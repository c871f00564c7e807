//! The `dapc-serve` binary: orchestrated sweeps, their workers, and the
//! persistent solve daemon.
//!
//! ```text
//! dapc-serve sweep  --dir DIR [--workers N] [--unit N] [--jobs N]
//!                   [--max-attempts N] [--timeout-secs S]
//!                   [--inject-kill K] [--out PATH] SPEC...
//! dapc-serve worker --dir DIR --range A..B [--jobs N]
//!                   [--self-destruct-after K]
//! dapc-serve daemon --socket PATH [--metrics PATH] [--threads N]
//!                   [--queue N] [--deadline-ms MS]
//! dapc-serve ping|stats|shutdown --socket PATH
//! dapc-serve client-sweep --socket PATH [--jobs N] [--retries N] SPEC...
//! ```
//!
//! SPEC tokens are `name=problem:graph` instances plus `@backends=`,
//! `@eps=`, `@seeds=A..B`, `@ensemble=` grid settings — see
//! [`CorpusSpec::parse_args`]. Exit codes follow [`dapc_serve::exit`]:
//! 0 ok, 2 usage, 3 transient I/O, 4 corrupt snapshot/spec bytes,
//! 5 solve panic. A worker whose coordinator is gone (it was
//! re-parented) exits 3 after the job it is on, before it solves or
//! publishes another unit.

#![forbid(unsafe_code)]

use dapc_serve::{client, exit, CorpusSpec, Daemon, DaemonConfig, SweepConfig, WorkerOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(()) => exit::EXIT_OK,
        Err(CliError::Usage(msg)) => {
            eprintln!("dapc-serve: {msg}");
            exit::EXIT_USAGE
        }
        Err(CliError::Io(e)) => {
            eprintln!("dapc-serve: {e}");
            exit::classify(&e)
        }
    };
    std::process::exit(code);
}

enum CliError {
    Usage(String),
    Io(io::Error),
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = args.split_first().ok_or_else(|| {
        usage("missing subcommand (sweep/worker/daemon/ping/stats/shutdown/client-sweep)")
    })?;
    match cmd.as_str() {
        "sweep" => cmd_sweep(rest),
        "worker" => cmd_worker(rest),
        "daemon" => cmd_daemon(rest),
        "ping" => cmd_ping(rest),
        "stats" => cmd_stats(rest),
        "shutdown" => cmd_shutdown(rest),
        "client-sweep" => cmd_client_sweep(rest),
        other => Err(usage(format!("unknown subcommand {other:?}"))),
    }
}

/// Hand-rolled flag walker: collects `--flag value` pairs it knows and
/// returns the positional leftovers.
struct Flags<'a> {
    args: &'a [String],
    cursor: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, cursor: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let a = self.args.get(self.cursor)?;
        if a.starts_with("--") {
            self.cursor += 1;
            Some(a)
        } else {
            None
        }
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        let v = self
            .args
            .get(self.cursor)
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        self.cursor += 1;
        Ok(v)
    }

    fn positionals(&self) -> &'a [String] {
        &self.args[self.cursor..]
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| usage(format!("bad value {v:?} for {flag}")))
}

fn parse_range(v: &str) -> Result<Range<usize>, CliError> {
    let (a, b) = v
        .split_once("..")
        .ok_or_else(|| usage(format!("expected A..B, got {v:?}")))?;
    let range = parse_num::<usize>("--range", a)?..parse_num::<usize>("--range", b)?;
    if range.end < range.start {
        return Err(usage(format!("--range {v} ends before it starts")));
    }
    Ok(range)
}

fn parse_spec(tokens: &[String]) -> Result<CorpusSpec, CliError> {
    if tokens.is_empty() {
        return Err(usage(
            "missing spec tokens (e.g. ring=mis:cycle:12 @seeds=0..4)",
        ));
    }
    CorpusSpec::parse_args(tokens).map_err(|e| usage(format!("bad spec: {e}")))
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let mut dir: Option<PathBuf> = None;
    let mut cfg = SweepConfig::default();
    let mut jobs = 1usize;
    let mut inject_kill: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--dir" => dir = Some(PathBuf::from(flags.value(flag)?)),
            "--workers" => cfg.workers = parse_num(flag, flags.value(flag)?)?,
            "--unit" => cfg.unit = parse_num(flag, flags.value(flag)?)?,
            "--jobs" => jobs = parse_num(flag, flags.value(flag)?)?,
            "--max-attempts" => cfg.max_attempts = parse_num(flag, flags.value(flag)?)?,
            "--timeout-secs" => {
                cfg.timeout = Some(Duration::from_secs(parse_num(flag, flags.value(flag)?)?))
            }
            "--inject-kill" => inject_kill = Some(parse_num(flag, flags.value(flag)?)?),
            "--out" => out = Some(PathBuf::from(flags.value(flag)?)),
            other => return Err(usage(format!("unknown sweep flag {other}"))),
        }
    }
    let dir = dir.ok_or_else(|| usage("sweep needs --dir"))?;
    let spec = parse_spec(flags.positionals())?;
    let exe = std::env::current_exe()?;
    // The injected kill (fault-drill mode) arms exactly one worker: the
    // first spawn aborts after K solved jobs, every retry runs clean.
    let mut armed = inject_kill;
    let outcome = dapc_serve::orchestrate_sweep(&dir, &spec, &cfg, |range, attempt| {
        let mut cmd = Command::new(&exe);
        cmd.arg("worker")
            .arg("--dir")
            .arg(&dir)
            .arg("--range")
            .arg(format!("{}..{}", range.start, range.end))
            .arg("--jobs")
            .arg(jobs.to_string())
            // Every (range, attempt) pair gets its own chaos salt: a
            // seeded fault plan cannot replay the same fault against
            // every retry (which would turn bounded faults into
            // livelock), nor fire in lockstep across sibling workers.
            .env(
                dapc_chaos::SALT_ENV,
                (attempt as u64 * 0x1_0000 + range.start as u64).to_string(),
            )
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(k) = armed.take() {
            cmd.arg("--self-destruct-after").arg(k.to_string());
        }
        cmd.spawn()
    })?;
    let rendered = render_deterministic(&outcome.report);
    if let Some(out) = out {
        std::fs::write(out, &rendered)?;
    }
    print!("{rendered}");
    println!(
        "# telemetry: {} jobs ({} resumed from checkpoints, {} solved), \
         {} spawns, {} retries, {} timeouts, {} torn parts ignored \
         ({} quarantined), {} stale tmp collected, wall {:?}",
        outcome.corpus_jobs,
        outcome.resumed_jobs,
        outcome.solved_jobs,
        outcome.stats.spawns,
        outcome.stats.retries,
        outcome.stats.timeouts,
        outcome.skipped_parts,
        outcome.quarantined_parts,
        outcome.collected_tmp,
        outcome.report.wall,
    );
    Ok(())
}

fn cmd_worker(args: &[String]) -> Result<(), CliError> {
    let mut dir: Option<PathBuf> = None;
    let mut range: Option<Range<usize>> = None;
    let mut opts = WorkerOptions::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--dir" => dir = Some(PathBuf::from(flags.value(flag)?)),
            "--range" => range = Some(parse_range(flags.value(flag)?)?),
            "--jobs" => opts.jobs = parse_num(flag, flags.value(flag)?)?,
            "--self-destruct-after" => {
                opts.self_destruct_after = Some(parse_num(flag, flags.value(flag)?)?)
            }
            other => return Err(usage(format!("unknown worker flag {other}"))),
        }
    }
    if !flags.positionals().is_empty() {
        return Err(usage("worker takes no positional arguments"));
    }
    let dir = dir.ok_or_else(|| usage("worker needs --dir"))?;
    let range = range.ok_or_else(|| usage("worker needs --range A..B"))?;
    // A panicking solve must exit with its own distinct code, not the
    // runtime's default panic status.
    let outcome = std::panic::catch_unwind(move || dapc_serve::run_worker(&dir, range, &opts));
    match outcome {
        Ok(Ok(summary)) => {
            println!(
                "worker done: {} units solved ({} jobs), {} units resumed ({} jobs)",
                summary.solved_units,
                summary.solved_jobs,
                summary.skipped_units,
                summary.resumed_jobs,
            );
            Ok(())
        }
        Ok(Err(e)) => Err(e.into()),
        Err(_panic) => std::process::exit(exit::EXIT_SOLVE_PANIC),
    }
}

fn cmd_daemon(args: &[String]) -> Result<(), CliError> {
    let mut socket: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut cfg = DaemonConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--socket" => socket = Some(PathBuf::from(flags.value(flag)?)),
            "--metrics" => metrics = Some(PathBuf::from(flags.value(flag)?)),
            "--threads" => cfg.threads = parse_num(flag, flags.value(flag)?)?,
            "--queue" => cfg.queue = parse_num(flag, flags.value(flag)?)?,
            "--deadline-ms" => {
                cfg.deadline = Some(Duration::from_millis(parse_num(flag, flags.value(flag)?)?))
            }
            other => return Err(usage(format!("unknown daemon flag {other}"))),
        }
    }
    let socket = socket.ok_or_else(|| usage("daemon needs --socket PATH"))?;
    // --metrics turns observability on and keeps a JSON-lines snapshot
    // of the registry fresh on disk while the daemon serves.
    let _flush = metrics.map(|path| {
        dapc_obs::set_enabled(true);
        dapc_obs::PeriodicFlush::start(path, Duration::from_millis(500))
    });
    let daemon = Daemon::bind_with(&socket, cfg)?;
    eprintln!("dapc-serve daemon listening on {}", socket.display());
    daemon.run().map_err(Into::into)
}

fn socket_flag(args: &[String]) -> Result<PathBuf, CliError> {
    let mut socket: Option<PathBuf> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--socket" => socket = Some(PathBuf::from(flags.value(flag)?)),
            other => return Err(usage(format!("unknown flag {other}"))),
        }
    }
    socket.ok_or_else(|| usage("needs --socket PATH"))
}

fn cmd_ping(args: &[String]) -> Result<(), CliError> {
    let protocol = client::ping(&socket_flag(args)?)?;
    println!("pong (protocol {protocol})");
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let resp = client::stats(&socket_flag(args)?)?;
    match client::render_stats(&resp) {
        Some(rendered) => {
            print!("{rendered}");
            Ok(())
        }
        None => Err(io::Error::other(format!("unexpected response {resp:?}")).into()),
    }
}

fn cmd_shutdown(args: &[String]) -> Result<(), CliError> {
    client::shutdown(&socket_flag(args)?)?;
    println!("daemon shut down");
    Ok(())
}

fn cmd_client_sweep(args: &[String]) -> Result<(), CliError> {
    let mut socket: Option<PathBuf> = None;
    let mut jobs = 1u64;
    let mut policy = client::RetryPolicy::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--socket" => socket = Some(PathBuf::from(flags.value(flag)?)),
            "--jobs" => jobs = parse_num(flag, flags.value(flag)?)?,
            "--retries" => policy.attempts = parse_num(flag, flags.value(flag)?)?,
            other => return Err(usage(format!("unknown client-sweep flag {other}"))),
        }
    }
    let socket = socket.ok_or_else(|| usage("client-sweep needs --socket"))?;
    let spec = parse_spec(flags.positionals())?;
    let stdout = io::stdout();
    let mut lock = stdout.lock();
    let summary = client::sweep_with_retry(&socket, &spec, jobs, &policy, |job| {
        let _ = writeln!(
            lock,
            "{:>6}  {:<40} value {:>8}  feasible {}  rounds {:>6}",
            job.index, job.key, job.value, job.feasible, job.rounds
        );
    })?;
    println!(
        "swept {} jobs into {} groups / {} backends  (daemon cache: {} hits, {} misses)",
        summary.jobs, summary.groups, summary.backends, summary.cache_hits, summary.cache_misses
    );
    Ok(())
}

/// Renders only the deterministic columns of a sweep report — the same
/// bytes at any worker count, with any kill schedule, resumed or not.
/// Timing and cache telemetry go to the separate `# telemetry` line.
fn render_deterministic(report: &dapc_runtime::StreamReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:<12} {:>5} {:>5} {:>8} {:>8} {:>10} {:>10} {:>10} {:>6}",
        "instance", "backend", "eps", "jobs", "min", "max", "mean", "ratio", "rounds", "ok"
    );
    for g in &report.groups {
        let ratio = g.mean_ratio.map_or("-".to_string(), |r| format!("{r:.4}"));
        let _ = writeln!(
            out,
            "{:<24} {:<12} {:>5} {:>5} {:>8} {:>8} {:>10.2} {:>10} {:>10.1} {:>6}",
            g.instance,
            g.backend,
            g.eps,
            g.jobs,
            g.min_value,
            g.max_value,
            g.mean_value,
            ratio,
            g.mean_rounds,
            if g.feasible { "yes" } else { "NO" },
        );
    }
    let _ = writeln!(out, "--");
    for b in &report.backends {
        let ratio = b.mean_ratio.map_or("-".to_string(), |r| format!("{r:.4}"));
        let _ = writeln!(
            out,
            "{:<24} {:<12} {:>5} {:>5} {:>8} {:>8} {:>10} {:>10} {:>10.1} {:>6}",
            "(all)",
            b.backend,
            "-",
            b.jobs,
            "-",
            "-",
            "-",
            ratio,
            b.mean_rounds,
            if b.feasible { "yes" } else { "NO" },
        );
    }
    out
}
