//! What every workload shares: the run options, the correctness gate,
//! output digests, latency statistics, process memory and the metric
//! record printed as the run's last line.

use crate::host::Host;
use crate::trace::{per_layer, ObsDelta};
use dapc_ilp::hash::{fnv1a, fnv1a_u64, FNV_OFFSET};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed whose outputs are pinned by golden digests.
pub const DEFAULT_SEED: u64 = 1;

/// The RNG seed of every workload's gnp graphs: the one the default
/// seed drew. The workload seed picks the solvers' job seeds and the
/// decompositions' seeds only: exact subset solves on another random
/// graph can cost 40% more, and that difference would pass for noise
/// between runs.
pub const GRAPH_SEED: u64 = 0x9e37_79b9;

/// Input sizes: `Full` is what measured runs use, `Tiny` keeps the
/// self-test to a few seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's options, parsed from the command line.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Replaces the built-in golden digest (the self-test corrupts it
    /// on purpose to prove the gate trips).
    pub golden_override: Option<u64>,
}

impl Opts {
    /// The golden digest outputs at this seed must reproduce, if any.
    pub fn golden(&self, builtin: u64) -> Option<u64> {
        match (self.golden_override, self.seed, self.scale) {
            (Some(g), _, _) => Some(g),
            (None, DEFAULT_SEED, Scale::Full) => Some(builtin),
            _ => None,
        }
    }

    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Counts checked items and keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Gate {
    /// Records one checked item; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Counts a failure against an item already attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Compares an output digest with its golden value, when one exists.
    pub fn golden(&mut self, what: &str, digest: u64, golden: Option<u64>) {
        if let Some(want) = golden {
            self.check(if digest == want {
                Ok(())
            } else {
                Err(format!(
                    "{what}: output digest {digest:#018x} differs from golden {want:#018x}"
                ))
            });
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// An FNV-1a-64 fold over the fields a pure speed-up must keep.
#[derive(Clone, Copy, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = fnv1a_u64(self.0, v);
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.0 = fnv1a(fnv1a_u64(self.0, s.len() as u64), s.as_bytes());
        self
    }

    pub fn bools(&mut self, bits: &[bool]) -> &mut Self {
        self.u64(bits.len() as u64);
        for chunk in bits.chunks(64) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i));
            self.u64(word);
        }
        self
    }
}

/// The `q`-quantile of a sorted sample, interpolated linearly.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: Vec<f64>) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Times `f`, returning its value and the elapsed wall clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs the workload's set-up at least seven times and for at least one
/// second, keeps the last state, and reports the median set-up time at
/// nominal host speed (the kernel timed before each set-up): single
/// set-ups of a few milliseconds are mostly noise, and the first pays
/// for cold caches.
pub fn repeated_setup<T>(host: Host, mut setup: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut state = None;
    while times.len() < 7 || started.elapsed() < Duration::from_secs(1) {
        drop(state.take());
        let calibration_s = host.calibrate();
        let (s, took) = timed(&mut setup);
        times.push(host.adjust(took.as_secs_f64(), calibration_s));
        state = Some(s);
    }
    (state.expect("at least one set-up ran"), median(times))
}

/// Where this run keeps sockets and sweep directories: a directory
/// private to the process under the working directory, which `main`
/// removes before exiting.
pub fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(SCRATCH_ROOT).join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

pub const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one timed phase of closed-loop requests measured.
#[derive(Clone, Debug)]
pub struct Phase {
    started: Instant,
    /// `(latency s, items)` per request.
    requests: Vec<(f64, u64)>,
    /// Wall clock of the whole phase.
    pub wall: Duration,
}

impl Phase {
    pub fn start() -> Self {
        Phase {
            started: Instant::now(),
            requests: Vec::new(),
            wall: Duration::ZERO,
        }
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// Records one request that took `latency` and completed `items`
    /// decompositions or jobs.
    pub fn record(&mut self, latency: Duration, items: u64) {
        self.requests.push((latency.as_secs_f64(), items));
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Summed request latency, in seconds.
    pub fn latency_s(&self) -> f64 {
        self.requests.iter().map(|r| r.0).sum()
    }

    /// Stops the clock.
    pub fn finish(mut self) -> Self {
        self.wall = self.started.elapsed();
        self
    }
}

/// One slice of a measured run and the host calibration around it.
struct Slice {
    phase: Phase,
    calibration_s: f64,
}

/// The end-to-end metrics every workload reports, at nominal host speed:
/// `items_per_s` is the median over slices (a burst of interference
/// moves one slice, not the rate), and the latency quantiles are taken
/// over every request of every slice.
fn end_to_end(host: Host, slices: &[Slice], setup_s: f64, out: &mut Metrics) {
    let items = |s: &Slice| s.phase.requests.iter().map(|r| r.1).sum::<u64>() as f64;
    let rates = slices
        .iter()
        .map(|s| items(s) / host.adjust(s.phase.wall.as_secs_f64(), s.calibration_s))
        .collect();
    let lat = sorted(
        slices
            .iter()
            .flat_map(|s| {
                s.phase
                    .requests
                    .iter()
                    .map(move |r| host.adjust(r.0, s.calibration_s))
            })
            .collect(),
    );
    let raw_rates = slices
        .iter()
        .map(|s| items(s) / s.phase.wall.as_secs_f64())
        .collect();
    let raw_lat = sorted(
        slices
            .iter()
            .flat_map(|s| s.phase.requests.iter().map(|r| r.0))
            .collect(),
    );
    eprintln!(
        "perfbench: unadjusted: calibration_ms {} items_per_s {} request_p50_ms {} request_p90_ms {}",
        median(slices.iter().map(|s| s.calibration_s).collect()) * 1e3,
        median(raw_rates),
        quantile(&raw_lat, 0.5) * 1e3,
        quantile(&raw_lat, 0.9) * 1e3,
    );
    out.push("items_per_s", median(rates), "1/s");
    out.push("request_p50_ms", quantile(&lat, 0.5) * 1e3, "ms");
    out.push("request_p90_ms", quantile(&lat, 0.9) * 1e3, "ms");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// How long one slice of a measured run lasts (workloads that stop on
/// whole rounds only run at least one round).
const SLICE: Duration = Duration::from_secs(1);

/// When a timed phase ends: after a wall-clock budget (measured runs),
/// or after a fixed number of requests (traced runs, so the traced and
/// untraced phases do the same work).
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(Duration),
    Requests(usize),
}

impl Stop {
    pub fn done(self, started: Instant, requests: usize) -> bool {
        match self {
            Stop::After(budget) => started.elapsed() >= budget,
            Stop::Requests(n) => requests >= n,
        }
    }

    /// This stop split over `clients` closed loops.
    pub fn per_client(self, clients: usize) -> Stop {
        match self {
            Stop::After(budget) => Stop::After(budget),
            Stop::Requests(n) => Stop::Requests(n.div_ceil(clients.max(1))),
        }
    }
}

/// Runs a workload's timed phase the way `opts` asks. Measured runs
/// (`--trace 0`) run one-second slices for `--seconds` with
/// instrumentation off, time the host's reference kernel on `host`
/// between slices, and report the end-to-end metrics at nominal host
/// speed. Traced runs (`--trace 1`) run `traced_requests` requests
/// plain, the same requests with `dapc-obs` on, and plain once more;
/// they report the per-layer metrics of the traced phase and its
/// overhead over the mean of the plain ones (one before and one after,
/// so warm-up and drift do not pass for overhead). `phase` pushes the
/// layer metrics it times itself into the `Metrics` it is handed.
pub fn drive(
    opts: &Opts,
    host: Host,
    setup_s: f64,
    traced_requests: usize,
    gate: &mut Gate,
    mut phase: impl FnMut(Stop, &mut Gate, &mut Metrics) -> Phase,
) -> Metrics {
    let mut metrics = Metrics::default();
    if !opts.trace {
        let started = Instant::now();
        let mut slices = Vec::new();
        let mut before = host.calibrate();
        while slices.is_empty() || started.elapsed() < opts.deadline() {
            let phase = phase(Stop::After(SLICE), gate, &mut Metrics::default());
            let after = host.calibrate();
            slices.push(Slice {
                phase,
                calibration_s: (before + after) / 2.0,
            });
            before = after;
        }
        end_to_end(host, &slices, setup_s, &mut metrics);
        return metrics;
    }
    let stop = Stop::Requests(traced_requests);
    let before = phase(stop, gate, &mut Metrics::default());
    let (traced, obs) = ObsDelta::around(|| phase(stop, gate, &mut metrics));
    let after = phase(stop, gate, &mut Metrics::default());
    obs.core_and_exec(&mut metrics);
    let plain = (before.wall + after.wall).as_secs_f64() / 2.0;
    let overhead = traced.wall.as_secs_f64() / plain - 1.0;
    metrics.push("trace_overhead", overhead, "ratio");
    per_layer(&metrics)
}

/// Named metric values with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Everything a workload hands back to `main`.
pub struct Outcome {
    pub gate: Gate,
    pub metrics: Metrics,
    /// Workers of the executor the workload solves on.
    pub exec_workers: usize,
}

/// The run's last stdout line: `{"correct", "attempted", "failed",
/// "metrics"}` with every metric as `{"value", "unit"}`.
pub fn result_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.gate.failed == 0,
        out.gate.attempted.max(1),
        out.gate.failed
    );
    for (i, (name, value, unit)) in out.metrics.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
