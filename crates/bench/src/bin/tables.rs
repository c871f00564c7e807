//! Prints the experiment tables E1–E10 to stdout as markdown, one
//! experiment after another; `crates/bench/golden/tables_quick.txt` is
//! the `--quick` output.
//!
//! Usage: `tables [--quick|--full] [--jobs N] [--prep-workers N]
//! [--metrics PATH] [e1 e2 …]` — defaults to `--full`, one concurrent
//! job, unsharded preparations, and all experiments. (`quick`/`full`
//! without dashes are accepted for backwards compatibility.) `--jobs`
//! and `--prep-workers` are honoured in both profiles; neither changes a
//! table — batching is byte-identical to sequential execution.
//!
//! `--metrics PATH` turns the `dapc-obs` registry on for the run and
//! writes its JSON-lines snapshot to `PATH` on success. Like the
//! parallelism knobs, it never changes a table byte — the observability
//! identity is diff-checked in CI.
//!
//! Exit codes follow `dapc_serve::exit`: 0 ok; a metrics snapshot that
//! cannot be written exits with its `exit::classify` code (3 for
//! filesystem trouble).

#![forbid(unsafe_code)]

use dapc_bench::{run_experiment, Profile, ALL_EXPERIMENTS};
use dapc_runtime::RuntimeConfig;
use dapc_serve::exit;
use std::path::PathBuf;

fn parse_count(flag: &str, value: &str) -> usize {
    value
        .parse()
        .unwrap_or_else(|_| panic!("bad {flag} value {value:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = Profile::Full;
    let mut rt = RuntimeConfig::new();
    let mut ids: Vec<String> = Vec::new();
    let mut metrics_path: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "quick" | "--quick" => profile = Profile::Quick,
            "full" | "--full" => profile = Profile::Full,
            "--jobs" => {
                let n = it.next().expect("--jobs needs a worker count");
                rt.jobs = parse_count("--jobs", &n);
            }
            "--prep-workers" => {
                let n = it.next().expect("--prep-workers needs a worker count");
                rt.prep_workers = parse_count("--prep-workers", &n);
            }
            "--metrics" => {
                metrics_path = Some(PathBuf::from(it.next().expect("--metrics needs a path")));
            }
            other => {
                if let Some(n) = other.strip_prefix("--jobs=") {
                    rt.jobs = parse_count("--jobs", n);
                } else if let Some(n) = other.strip_prefix("--prep-workers=") {
                    rt.prep_workers = parse_count("--prep-workers", n);
                } else if let Some(p) = other.strip_prefix("--metrics=") {
                    metrics_path = Some(PathBuf::from(p));
                } else if other.starts_with("--") {
                    panic!("unknown flag {other:?}");
                } else {
                    ids.push(other.to_string());
                }
            }
        }
    }
    if ids.is_empty() {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    // Observability goes live before any solve so the snapshot covers
    // the whole run; it is diff-checked in CI to never change a table.
    if metrics_path.is_some() {
        dapc_obs::set_enabled(true);
    }

    for id in &ids {
        let start = std::time::Instant::now();
        let table = run_experiment(id, profile, &rt);
        println!("{table}");
        eprintln!("[{id} finished in {:.1?}]", start.elapsed());
    }

    if let Some(path) = metrics_path {
        if let Err(e) = dapc_obs::write_snapshot(&path) {
            eprintln!("tables: write metrics snapshot {}: {e}", path.display());
            std::process::exit(exit::classify(&e));
        }
        eprintln!("[metrics snapshot written to {}]", path.display());
    }
}
