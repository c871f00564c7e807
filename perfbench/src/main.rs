//! The dapc benchmark: one command, four workloads, every end-to-end
//! metric by name and unit, outputs checked. See `README.md` beside
//! this crate for the metrics, the workloads and why each was chosen.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--golden HEX]
//! perfbench --worker DIR A..B        (spawned by sweep_orchestrated)
//! perfbench --kernel                 (spawned by sweep_orchestrated's host calibration)
//! ```
//!
//! The last stdout line is the result record
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! stamps the run (host cores, executor workers, seed, source revision,
//! run length). A run whose gate fails prints its record and exits 1.

mod common;
mod host;
mod ilp;
mod ldd;
mod serve;
mod sweep;
mod trace;

use common::{result_line, Opts, Outcome, Scale, SCRATCH_ROOT};
use std::path::Path;

const WORKLOADS: [&str; 4] = ["ldd_verify", "ilp_cold", "serve_warm", "sweep_orchestrated"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--tiny] [--golden HEX]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> (String, Opts) {
    let mut workload = None;
    let mut opts = Opts {
        seed: common::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        golden_override: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value().clone()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => opts.scale = Scale::Tiny,
            "--golden" => {
                let hex = value().trim_start_matches("0x").to_string();
                opts.golden_override =
                    Some(u64::from_str_radix(&hex, 16).unwrap_or_else(|_| usage("bad --golden")));
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    (workload, opts)
}

/// The source revision: the checked-out git commit when there is one,
/// plus an FNV-1a digest of the crates' sources, which identifies the
/// code in checkouts without git metadata.
fn revision() -> (String, String) {
    let git = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "none".to_string(), |s| s.trim().to_string());
    let mut files = Vec::new();
    let mut stack = vec![Path::new("crates").to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h = common::Digest::default();
    for f in &files {
        h.str(&f.to_string_lossy())
            .str(&std::fs::read_to_string(f).unwrap_or_default());
    }
    (git, format!("{:016x}", h.0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--kernel") {
        host::kernel_process();
        return;
    }
    if args.first().map(String::as_str) == Some("--worker") {
        if let Err(e) = sweep::worker(&args[1..]) {
            eprintln!("perfbench worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (workload, opts) = parse(&args);
    // Measured runs keep instrumentation off whatever the environment
    // says; the traced run switches it on around its traced phase only.
    dapc_obs::set_enabled(false);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome: Outcome = match workload.as_str() {
        "ldd_verify" => ldd::run(&opts),
        "ilp_cold" => ilp::run(&opts, nproc),
        "serve_warm" => serve::run(&opts),
        _ => sweep::run(&opts),
    };
    let _ = std::fs::remove_dir_all(Path::new(SCRATCH_ROOT).join(std::process::id().to_string()));
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
    for m in outcome.gate.messages() {
        eprintln!("perfbench: CHECK FAILED in {workload}: {m}");
    }
    let (git, source) = revision();
    println!(
        "{{\"stamp\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, \"nproc\": {nproc}, \"exec_workers\": {}, \"git\": \"{git}\", \"source_fnv\": \"{source}\"}}}}",
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.scale == Scale::Tiny,
        outcome.exec_workers,
    );
    println!("{}", result_line(&outcome));
    if outcome.gate.failed > 0 {
        std::process::exit(1);
    }
}
