//! The traced run: `dapc-obs` registry snapshots taken around the timed
//! phase, and the fixed list of per-layer metrics every traced run
//! prints (a layer a workload never enters reads 0).

use crate::common::Metrics;
use dapc_obs::{MetricsSnapshot, SnapshotEntry};

/// Every per-layer metric with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decomp.ldd_s", "s"),
    ("decomp.check_s", "s"),
    ("decomp.check_share", "ratio"),
    ("decomp.clusters", "count"),
    ("decomp.cluster_vertices", "count"),
    ("core.decompose_s", "s"),
    ("core.annotate_s", "s"),
    ("core.subset_solve_s", "s"),
    ("core.verify_s", "s"),
    ("core.subset_solves", "count"),
    ("core.subset_cache.hits", "count"),
    ("core.subset_cache.misses", "count"),
    ("core.subset_cache.hit_rate", "ratio"),
    ("core.subset_cache.bytes", "bytes"),
    ("ilp.optima_s", "s"),
    ("runtime.job_busy_s", "s"),
    ("runtime.job_p50_ms", "ms"),
    ("runtime.job_p90_ms", "ms"),
    ("runtime.pump_util", "ratio"),
    ("runtime.peak_buffered", "count"),
    ("exec.task_wait_s", "s"),
    ("exec.task_run_s", "s"),
    ("exec.steals", "count"),
    ("exec.steal_failures", "count"),
    ("exec.parks", "count"),
    ("exec.help_runs", "count"),
    ("exec.yields", "count"),
    ("serve.server_s", "s"),
    ("serve.client_overhead_s", "s"),
    ("serve.frames", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.sweep.spawns", "count"),
    ("serve.sweep.retries", "count"),
    ("serve.sweep.timeouts", "count"),
    ("serve.sweep.parts", "count"),
    ("serve.sweep.part_bytes", "bytes"),
    ("serve.checkpoint.scan_s", "s"),
    ("serve.sweep.process_tax_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Orders `measured` as [`PER_LAYER`], filling layers the workload did
/// not enter with 0.
pub fn per_layer(measured: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in PER_LAYER {
        out.push(name, measured.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// The registry's change across the traced phase.
pub struct ObsDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl ObsDelta {
    /// Runs `f` with instrumentation on, snapshotting the registry on
    /// both sides; instrumentation is off again afterwards.
    pub fn around<T>(f: impl FnOnce() -> T) -> (T, ObsDelta) {
        let before = MetricsSnapshot::capture();
        dapc_obs::set_enabled(true);
        let out = f();
        dapc_obs::set_enabled(false);
        let after = MetricsSnapshot::capture();
        (out, ObsDelta { before, after })
    }

    /// Summed change of every counter or histogram (sum or count) whose
    /// name satisfies `pick`.
    fn total(&self, pick: impl Fn(&str) -> bool, hist_count: bool) -> f64 {
        let value = |e: &SnapshotEntry| match e {
            SnapshotEntry::Counter { value, .. } | SnapshotEntry::Gauge { value, .. } => *value,
            SnapshotEntry::Histogram { count, sum, .. } => {
                if hist_count {
                    *count
                } else {
                    *sum
                }
            }
        };
        let sum_of = |s: &MetricsSnapshot| -> u64 {
            s.entries.iter().filter(|e| pick(e.name())).map(value).sum()
        };
        sum_of(&self.after).saturating_sub(sum_of(&self.before)) as f64
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.total(|n| n == name, false)
    }

    /// Seconds recorded by histograms of microseconds matching `pick`.
    pub fn micros_s(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.total(pick, false) / 1e6
    }

    pub fn observations(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.total(pick, true)
    }

    /// The `dapc-core` and `dapc-exec` metrics this delta holds. Spans
    /// nest (`span.solve.annotate.subset_solve`), so a phase is every
    /// span path ending in its name.
    pub fn core_and_exec(&self, out: &mut Metrics) {
        let span = |phase: &'static str| {
            move |n: &str| n.starts_with("span.") && n.rsplit('.').next() == Some(phase)
        };
        out.push("core.decompose_s", self.micros_s(span("decompose")), "s");
        out.push("core.annotate_s", self.micros_s(span("annotate")), "s");
        out.push(
            "core.subset_solve_s",
            self.micros_s(span("subset_solve")),
            "s",
        );
        out.push("core.verify_s", self.micros_s(span("verify")), "s");
        out.push(
            "core.subset_solves",
            self.observations(span("subset_solve")),
            "count",
        );
        let hits = self.counter("core.subset_cache.hits");
        let misses = self.counter("core.subset_cache.misses");
        out.push("core.subset_cache.hits", hits, "count");
        out.push("core.subset_cache.misses", misses, "count");
        let lookups = hits + misses;
        let rate = if lookups > 0.0 { hits / lookups } else { 0.0 };
        out.push("core.subset_cache.hit_rate", rate, "ratio");
        out.push(
            "exec.task_wait_s",
            self.micros_s(|n| n == "exec.task.wait_micros"),
            "s",
        );
        out.push(
            "exec.task_run_s",
            self.micros_s(|n| n == "exec.task.run_micros"),
            "s",
        );
        out.push("exec.steals", self.counter("exec.steals"), "count");
        out.push(
            "exec.steal_failures",
            self.counter("exec.steal_failures"),
            "count",
        );
        out.push("exec.parks", self.counter("exec.parks"), "count");
        out.push(
            "exec.help_runs",
            self.counter("exec.task.help_runs"),
            "count",
        );
        out.push("exec.yields", self.counter("exec.yields"), "count");
    }
}
