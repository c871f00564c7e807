//! Prints the experiment tables E1–E10 to stdout as markdown, one
//! experiment after another; `crates/bench/golden/tables_quick.txt` is
//! the `--quick` output.
//!
//! Usage: `tables [--quick|--full] [--jobs N] [--prep-workers N]
//! [--metrics PATH] [e1 e2 …]` — defaults to `--full`, one concurrent
//! job, unsharded preparations, and all experiments. `--jobs` and
//! `--prep-workers` are honoured in both profiles; neither changes a
//! table — batching is byte-identical to sequential execution.
//!
//! `--metrics PATH` turns the `dapc-obs` registry on for the run and
//! writes its JSON-lines snapshot to `PATH` on success. Like the
//! parallelism knobs, it never changes a table byte — the observability
//! identity is diff-checked in CI.
//!
//! Exit codes follow `dapc_serve::exit`: 0 ok; 2 for a bad command line
//! (an unknown flag or experiment id, a missing or unparseable value),
//! found before any experiment runs; a metrics snapshot that cannot be
//! written exits with its `exit::classify` code (3 for filesystem
//! trouble).

#![forbid(unsafe_code)]

use dapc_bench::{run_experiment, Profile, ALL_EXPERIMENTS};
use dapc_runtime::RuntimeConfig;
use dapc_serve::exit;
use std::path::PathBuf;

/// A parsed command line.
struct Cli {
    profile: Profile,
    rt: RuntimeConfig,
    ids: Vec<String>,
    metrics_path: Option<PathBuf>,
}

fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

/// The value after `flag`, or a usage error if the line ends there.
fn value<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses the whole command line; an `Err` is the usage message.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        profile: Profile::Full,
        rt: RuntimeConfig::new(),
        ids: Vec::new(),
        metrics_path: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.profile = Profile::Quick,
            "--full" => cli.profile = Profile::Full,
            "--jobs" => cli.rt.jobs = parse_count("--jobs", value(&mut it, "--jobs")?)?,
            "--prep-workers" => {
                cli.rt.prep_workers =
                    parse_count("--prep-workers", value(&mut it, "--prep-workers")?)?;
            }
            "--metrics" => cli.metrics_path = Some(PathBuf::from(value(&mut it, "--metrics")?)),
            other => {
                if let Some(n) = other.strip_prefix("--jobs=") {
                    cli.rt.jobs = parse_count("--jobs", n)?;
                } else if let Some(n) = other.strip_prefix("--prep-workers=") {
                    cli.rt.prep_workers = parse_count("--prep-workers", n)?;
                } else if let Some(p) = other.strip_prefix("--metrics=") {
                    cli.metrics_path = Some(PathBuf::from(p));
                } else if other.starts_with("--") {
                    return Err(format!("unknown flag {other:?}"));
                } else if ALL_EXPERIMENTS.contains(&other) {
                    cli.ids.push(other.to_string());
                } else {
                    return Err(format!(
                        "unknown experiment id {other:?} (expected e1..e10)"
                    ));
                }
            }
        }
    }
    if cli.ids.is_empty() {
        cli.ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|msg| {
        eprintln!("tables: {msg}");
        std::process::exit(exit::EXIT_USAGE);
    });

    // Observability goes live before any solve so the snapshot covers
    // the whole run; it is diff-checked in CI to never change a table.
    if cli.metrics_path.is_some() {
        dapc_obs::set_enabled(true);
    }

    for id in &cli.ids {
        let start = std::time::Instant::now();
        let table = run_experiment(id, cli.profile, &cli.rt);
        println!("{table}");
        eprintln!("[{id} finished in {:.1?}]", start.elapsed());
    }

    if let Some(path) = cli.metrics_path {
        if let Err(e) = dapc_obs::write_snapshot(&path) {
            eprintln!("tables: write metrics snapshot {}: {e}", path.display());
            std::process::exit(exit::classify(&e));
        }
        eprintln!("[metrics snapshot written to {}]", path.display());
    }
}
