//! Batch results: per-job reports plus the per-group and per-backend
//! aggregation that used to be hand-rolled in `dapc-bench`.
//!
//! Aggregation is *online* since the streaming refactor: a
//! [`BatchAggregator`] consumes [`JobResult`]s one at a time in the
//! corpus's canonical order and folds the per-`(instance, backend, ε)`
//! and per-backend summaries incrementally, so
//! [`crate::solve_many_streaming_with_cache`] never has to hold the full
//! result vector — [`crate::solve_many`] is a thin wrapper that still
//! collects one.
//!
//! An aggregator covers one contiguous run of canonical job indices, and
//! every per-cell accumulator is integer-exact — `(sum, count)` pairs
//! for the means, min/max for the extrema, maxima for the worst-seed
//! phase counters; ratios and means are derived only at
//! [`BatchAggregator::finish`]. So the aggregations of consecutive
//! ranges fold in canonical order ([`crate::PartReport::append`]) into
//! the *identical* aggregation a single process would have produced,
//! the one cell split across each boundary included.

use crate::cache::CacheStats;
use crate::corpus::JobKey;
use crate::snap;
use dapc_core::engine::{BackendStats, SolveReport};
use dapc_ilp::Sense;
use dapc_local::RoundCost;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read};
use std::ops::Range;
use std::time::Duration;

/// One job's outcome: its key, the engine report, and how long the job
/// took on its worker.
///
/// The `(key, report)` pair is a pure function of the corpus — it is
/// byte-identical across worker counts and cache configurations. The
/// timing is not, which is why it lives beside the report instead of
/// inside it.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Identity of the job.
    pub key: JobKey,
    /// The unified engine report.
    pub report: SolveReport,
    /// Wall-clock microseconds spent solving this job.
    pub micros: u64,
}

/// Worst-seed phase counters of one group, folded online so the
/// experiment tables never need the per-job result vector: each field is
/// the **maximum over the group's seeds** of the corresponding
/// [`BackendStats`] counter (packing and covering fill disjoint fields;
/// the reference backends touch none).
///
/// Maxima are associative, so appending ranges reproduces the
/// single-process values exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Packing: variables deleted by carving + the Phase 3 decomposition
    /// (worst seed).
    pub deleted: usize,
    /// Packing: final components solved (worst seed).
    pub components: usize,
    /// Covering: weight fixed to one during carving (worst seed).
    pub fixed_weight: u64,
    /// Covering: hyperedges deleted by carving (worst seed).
    pub deleted_edges: usize,
}

impl GroupStats {
    fn fold(&mut self, stats: &BackendStats) {
        match stats {
            BackendStats::Packing(s) => {
                self.deleted = self.deleted.max(s.deleted_carving + s.deleted_phase3);
                self.components = self.components.max(s.components);
            }
            BackendStats::Covering(s) => {
                self.fixed_weight = self.fixed_weight.max(s.fixed_weight);
                self.deleted_edges = self.deleted_edges.max(s.deleted_edges);
            }
            BackendStats::Gkm(_) | BackendStats::Ensemble(_) | BackendStats::Centralised { .. } => {
            }
        }
    }

    fn absorb(&mut self, other: &GroupStats) {
        self.deleted = self.deleted.max(other.deleted);
        self.components = self.components.max(other.components);
        self.fixed_weight = self.fixed_weight.max(other.fixed_weight);
        self.deleted_edges = self.deleted_edges.max(other.deleted_edges);
    }
}

/// Aggregation over the seed sweep of one `(instance, backend, ε)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSummary {
    /// Instance name.
    pub instance: String,
    /// Backend registry key.
    pub backend: String,
    /// Approximation parameter `ε`.
    pub eps: f64,
    /// Whether the instance packs or covers.
    pub sense: Sense,
    /// Number of variables of the instance.
    pub vars: usize,
    /// Number of seeds aggregated.
    pub jobs: usize,
    /// Whether every seed produced a feasible assignment.
    pub feasible: bool,
    /// Reference optimum, when the runtime computed one.
    pub opt: Option<u64>,
    /// Whether the reference optimum was proven optimal.
    pub opt_exact: bool,
    /// Smallest objective value across seeds.
    pub min_value: u64,
    /// Largest objective value across seeds.
    pub max_value: u64,
    /// Mean objective value across seeds.
    pub mean_value: f64,
    /// `min value / opt` (packing's worst seed; needs a reference).
    pub min_ratio: Option<f64>,
    /// `max value / opt` (covering's worst seed; needs a reference).
    pub max_ratio: Option<f64>,
    /// Mean of `value / opt` across seeds.
    pub mean_ratio: Option<f64>,
    /// Charged LOCAL rounds of the last seed (the legacy table column).
    pub rounds_last: usize,
    /// Mean charged LOCAL rounds across seeds.
    pub mean_rounds: f64,
    /// Total wall-clock microseconds across the group's jobs.
    pub micros: u64,
    /// Worst-seed phase counters of the group's backend.
    pub stats: GroupStats,
}

impl GroupSummary {
    /// Whether the worst seed met the paper's guarantee: `≥ 1 − ε` of the
    /// optimum for packing, `≤ 1 + ε` of it for covering. `false` when no
    /// reference optimum is available.
    pub fn meets_guarantee(&self) -> bool {
        match self.sense {
            Sense::Packing => self.min_ratio.is_some_and(|r| r + 1e-9 >= 1.0 - self.eps),
            Sense::Covering => self.max_ratio.is_some_and(|r| r <= 1.0 + self.eps + 1e-9),
        }
    }
}

/// Roll-up of every group of one backend.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendSummary {
    /// Backend registry key.
    pub backend: String,
    /// Total jobs run by this backend.
    pub jobs: usize,
    /// Whether every job was feasible.
    pub feasible: bool,
    /// Worst packing seed across groups (`min value/opt`).
    pub min_ratio: Option<f64>,
    /// Worst covering seed across groups (`max value/opt`).
    pub max_ratio: Option<f64>,
    /// Job-weighted mean of `value / opt`.
    pub mean_ratio: Option<f64>,
    /// Job-weighted mean charged LOCAL rounds.
    pub mean_rounds: f64,
    /// Total wall-clock microseconds across the backend's jobs.
    pub micros: u64,
}

/// Everything [`crate::solve_many`] returns.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results in the corpus's canonical order — byte-identical
    /// across worker counts and cache configurations (timings aside).
    pub results: Vec<JobResult>,
    /// One summary per `(instance, backend, ε)` cell, in job order.
    pub groups: Vec<GroupSummary>,
    /// One roll-up per backend, in corpus backend order.
    pub backends: Vec<BackendSummary>,
    /// Aggregate prep-cache counters for the run.
    pub cache: CacheStats,
    /// Concurrent jobs (pump tasks) the batch actually ran with:
    /// `min(RuntimeConfig::jobs, corpus length)`.
    pub workers: usize,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
}

impl BatchReport {
    /// The deterministic payload: every `(key, report)` pair in canonical
    /// order. Two batches over the same corpus are interchangeable iff
    /// their outcomes are equal, regardless of workers or caching.
    pub fn outcomes(&self) -> Vec<(&JobKey, &SolveReport)> {
        self.results.iter().map(|r| (&r.key, &r.report)).collect()
    }

    /// Looks a group up by cell coordinates (`eps` compared bit-exactly).
    pub fn group(&self, instance: &str, backend: &str, eps: f64) -> Option<&GroupSummary> {
        find_group(&self.groups, instance, backend, eps)
    }
}

/// Everything [`crate::solve_many_streaming_with_cache`] returns: the aggregation of
/// a batch *without* its per-job result vector — jobs were handed to the
/// `on_result` hook in canonical order and dropped, so a corpus no longer
/// has to fit its full report vector in memory.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Number of jobs solved (and delivered to the hook).
    pub jobs: usize,
    /// One summary per `(instance, backend, ε)` cell, in job order.
    pub groups: Vec<GroupSummary>,
    /// One roll-up per backend, in corpus backend order.
    pub backends: Vec<BackendSummary>,
    /// Aggregate prep-cache counters for the run.
    pub cache: CacheStats,
    /// Concurrent jobs (pump tasks) the batch actually ran with:
    /// `min(RuntimeConfig::jobs, corpus length)`.
    pub workers: usize,
    /// High-water mark of the reorder buffer: the most out-of-order
    /// results parked at once while waiting for an earlier job. At most
    /// the runtime's reorder capacity, `max(2·pumps, 16)` (the bound is
    /// inclusive — the admission check parks a result only while the
    /// buffer is *below* capacity); `0` on the sequential path. Note the
    /// buffer is not the whole streaming footprint: up to `pumps − 1`
    /// further finished results can be held in-hand by submitters blocked
    /// on a full buffer.
    pub peak_buffered: usize,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
}

impl StreamReport {
    /// Looks a group up by cell coordinates (`eps` compared bit-exactly).
    pub fn group(&self, instance: &str, backend: &str, eps: f64) -> Option<&GroupSummary> {
        find_group(&self.groups, instance, backend, eps)
    }
}

fn find_group<'a>(
    groups: &'a [GroupSummary],
    instance: &str,
    backend: &str,
    eps: f64,
) -> Option<&'a GroupSummary> {
    groups.iter().find(|g| {
        g.instance == instance && g.backend == backend && g.eps.to_bits() == eps.to_bits()
    })
}

/// The accumulator of one `(instance, backend, ε)` cell: integer sums
/// and extrema only, so folding is associative — any split of a cell's
/// seed run into consecutive fragments recombines to the same
/// accumulator. Ratios and means are *derived* from these integers at
/// finish time; no float is folded per job.
#[derive(Clone, Debug, PartialEq)]
struct GroupAcc {
    instance: String,
    backend: String,
    eps: f64,
    sense: Sense,
    vars: usize,
    jobs: usize,
    feasible: bool,
    opt: Option<u64>,
    opt_exact: bool,
    min_value: u64,
    max_value: u64,
    /// Σ objective values (u128: immune to overflow on huge sweeps).
    value_sum: u128,
    /// Σ charged LOCAL rounds.
    rounds_sum: u64,
    /// Rounds of the group's last seed *in canonical order* — the one
    /// order-sensitive column; [`BatchAggregator::append`] takes it from
    /// the later fragment.
    rounds_last: usize,
    micros: u64,
    stats: GroupStats,
}

impl GroupAcc {
    fn open(r: &JobResult, opt: Option<u64>, opt_exact: bool) -> Self {
        GroupAcc {
            instance: r.key.instance.clone(),
            backend: r.key.backend.clone(),
            eps: r.key.eps,
            sense: r.report.sense,
            vars: r.report.assignment.len(),
            jobs: 0,
            feasible: true,
            opt,
            opt_exact,
            min_value: u64::MAX,
            max_value: 0,
            value_sum: 0,
            rounds_sum: 0,
            rounds_last: 0,
            micros: 0,
            stats: GroupStats::default(),
        }
    }

    fn fold(&mut self, r: &JobResult) {
        self.jobs += 1;
        self.feasible &= r.report.feasible();
        self.min_value = self.min_value.min(r.report.value);
        self.max_value = self.max_value.max(r.report.value);
        self.value_sum += u128::from(r.report.value);
        self.rounds_sum += r.report.rounds() as u64;
        self.rounds_last = r.report.rounds();
        self.micros += r.micros;
        self.stats.fold(&r.report.stats);
    }

    fn cell(&self) -> (&str, &str, u64) {
        (&self.instance, &self.backend, self.eps.to_bits())
    }

    /// Folds `later` — the same cell's fragment from the next range in
    /// canonical order — into this accumulator.
    fn absorb(&mut self, later: GroupAcc) {
        debug_assert_eq!(self.cell(), later.cell());
        assert_eq!(
            (self.sense, self.vars, self.opt, self.opt_exact),
            (later.sense, later.vars, later.opt, later.opt_exact),
            "parts disagree on cell {}/{}/eps{}",
            self.instance,
            self.backend,
            self.eps,
        );
        self.jobs += later.jobs;
        self.feasible &= later.feasible;
        self.min_value = self.min_value.min(later.min_value);
        self.max_value = self.max_value.max(later.max_value);
        self.value_sum += later.value_sum;
        self.rounds_sum += later.rounds_sum;
        self.rounds_last = later.rounds_last;
        self.micros += later.micros;
        self.stats.absorb(&later.stats);
    }

    fn finish(self) -> GroupSummary {
        let jobs = self.jobs as f64;
        let (min_ratio, max_ratio, mean_ratio) = match self.opt {
            // A zero optimum is met exactly by a zero value and missed by
            // any positive one by an unbounded factor.
            Some(0) => {
                let ratio = |v: u128| if v == 0 { 1.0 } else { f64::INFINITY };
                (
                    Some(ratio(self.min_value.into())),
                    Some(ratio(self.max_value.into())),
                    Some(ratio(self.value_sum)),
                )
            }
            // Ratios derive from the integer accumulators only here, so
            // they are independent of how the seed run was split.
            // `min(vᵢ)/opt = min(vᵢ/opt)` exactly: correctly-rounded
            // division by a positive constant is monotone.
            Some(opt) => {
                let opt = opt as f64;
                (
                    Some(self.min_value as f64 / opt),
                    Some(self.max_value as f64 / opt),
                    Some(self.value_sum as f64 / opt / jobs),
                )
            }
            None => (None, None, None),
        };
        GroupSummary {
            instance: self.instance,
            backend: self.backend,
            eps: self.eps,
            sense: self.sense,
            vars: self.vars,
            jobs: self.jobs,
            feasible: self.feasible,
            opt: self.opt,
            opt_exact: self.opt_exact,
            min_value: self.min_value,
            max_value: self.max_value,
            mean_value: self.value_sum as f64 / jobs,
            min_ratio,
            max_ratio,
            mean_ratio,
            rounds_last: self.rounds_last,
            mean_rounds: self.rounds_sum as f64 / jobs,
            micros: self.micros,
            stats: self.stats,
        }
    }
}

/// Online aggregation of [`JobResult`]s over one contiguous run of
/// canonical job indices: the incremental form of the summary tables
/// [`BatchReport`] carries, and the body of a [`crate::PartReport`].
///
/// Feed every result exactly once via [`BatchAggregator::push`] —
/// **in canonical order** (the order [`crate::Corpus::jobs`] defines;
/// the runtime's reorder buffer guarantees it) — then call
/// [`BatchAggregator::finish`]. A range aggregator starts at its
/// range's first canonical index ([`BatchAggregator::with_optima_at`]),
/// and the aggregation of the range after it appends at its end
/// ([`crate::PartReport::append`]); because every accumulator is
/// integer-exact (see the module docs), the stitched aggregation equals
/// the single-process one bit for bit, timings aside.
#[derive(Debug)]
pub struct BatchAggregator {
    optima: BTreeMap<String, (u64, bool)>,
    /// Canonical index of the first job covered.
    start: usize,
    /// Jobs folded: the aggregation covers `start..start + jobs`.
    jobs: usize,
    /// One accumulator per cell, in canonical order.
    cells: Vec<GroupAcc>,
    /// Every cell opened so far, for the out-of-order guard — a set
    /// lookup per new cell, so huge streamed corpora stay O(cells), not
    /// O(cells²).
    seen_cells: BTreeSet<(String, String, u64)>,
}

impl Default for BatchAggregator {
    fn default() -> Self {
        Self::with_optima_at(BTreeMap::new(), 0)
    }
}

impl BatchAggregator {
    /// An aggregator with no reference optima (all ratio columns stay
    /// `None`), starting at canonical index 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An aggregator with per-instance reference optima
    /// (`name → (optimum, proven exact)`), enabling the ratio columns,
    /// whose first pushed result is declared to be the job at canonical
    /// index `start`.
    pub fn with_optima_at(optima: BTreeMap<String, (u64, bool)>, start: usize) -> Self {
        BatchAggregator {
            optima,
            start,
            jobs: 0,
            cells: Vec::new(),
            seen_cells: BTreeSet::new(),
        }
    }

    /// The canonical job range this aggregation covers.
    pub(crate) fn range(&self) -> Range<usize> {
        self.start..self.start + self.jobs
    }

    /// Folds one result into its `(instance, backend, ε)` group.
    ///
    /// # Panics
    ///
    /// Panics if `r` re-opens a cell that was already closed — the
    /// telltale of out-of-order delivery.
    pub fn push(&mut self, r: &JobResult) {
        self.jobs += 1;
        let cell = (&r.key.instance, &r.key.backend, r.key.eps.to_bits());
        let matches = |g: &GroupAcc| (&g.instance, &g.backend, g.eps.to_bits()) == cell;
        if !self.cells.last().is_some_and(matches) {
            let (opt, opt_exact) = match self.optima.get(&r.key.instance) {
                Some(&(o, e)) => (Some(o), e),
                None => (None, false),
            };
            self.open(GroupAcc::open(r, opt, opt_exact));
        }
        // dapc-allow(panic): the accumulator was pushed by the branch directly above
        self.cells.last_mut().expect("group just ensured").fold(r);
    }

    /// Adds the next cell in canonical order.
    fn open(&mut self, acc: GroupAcc) {
        let (instance, backend, eps) = acc.cell();
        assert!(
            self.seen_cells
                .insert((instance.to_owned(), backend.to_owned(), eps)),
            "cell {instance}/{backend}/eps{} delivered out of canonical order",
            acc.eps
        );
        self.cells.push(acc);
    }

    /// Folds `next`, the aggregation of the range that starts where this
    /// one ends: a cell split across the boundary is absorbed, and
    /// `next`'s other cells follow in order.
    ///
    /// # Panics
    ///
    /// Panics unless `next` starts where this aggregation ends, when one
    /// of `next`'s later cells was already opened here, or when the two
    /// disagree on a reference optimum.
    pub(crate) fn append(&mut self, next: BatchAggregator) {
        assert_eq!(
            next.start,
            self.range().end,
            "the appended part does not start where the receiver ends"
        );
        for (name, val) in next.optima {
            let own = *self.optima.entry(name.clone()).or_insert(val);
            assert_eq!(
                own, val,
                "parts disagree on the reference optimum of {name:?}"
            );
        }
        self.jobs += next.jobs;
        let mut cells = next.cells.into_iter();
        if let Some(first) = cells.next() {
            match self.cells.last_mut() {
                Some(last) if last.cell() == first.cell() => last.absorb(first),
                _ => self.open(first),
            }
        }
        for acc in cells {
            self.open(acc);
        }
    }

    /// Finalises the accumulators into [`GroupSummary`]s (means and
    /// ratios derived from the integer sums) and rolls the groups up per
    /// backend.
    pub fn finish(self) -> (Vec<GroupSummary>, Vec<BackendSummary>) {
        let groups: Vec<GroupSummary> = self.cells.into_iter().map(GroupAcc::finish).collect();

        let mut backends: Vec<BackendSummary> = Vec::new();
        for g in &groups {
            if !backends.iter().any(|b| b.backend == g.backend) {
                backends.push(BackendSummary {
                    backend: g.backend.clone(),
                    jobs: 0,
                    feasible: true,
                    min_ratio: None,
                    max_ratio: None,
                    mean_ratio: None,
                    mean_rounds: 0.0,
                    micros: 0,
                });
            }
            let b = backends
                .iter_mut()
                .find(|b| b.backend == g.backend)
                // dapc-allow(panic): the accumulator was pushed by the branch directly above
                .expect("backend just ensured");
            b.jobs += g.jobs;
            b.feasible &= g.feasible;
            if let Some(r) = g.min_ratio {
                b.min_ratio = Some(b.min_ratio.map_or(r, |m: f64| m.min(r)));
            }
            if let Some(r) = g.max_ratio {
                b.max_ratio = Some(b.max_ratio.map_or(r, |m: f64| m.max(r)));
            }
            if let Some(r) = g.mean_ratio {
                b.mean_ratio = Some(b.mean_ratio.unwrap_or(0.0) + r * g.jobs as f64);
            }
            b.mean_rounds += g.mean_rounds * g.jobs as f64;
            b.micros += g.micros;
        }
        for b in &mut backends {
            let jobs = b.jobs as f64;
            b.mean_rounds /= jobs;
            if let Some(sum) = b.mean_ratio {
                b.mean_ratio = Some(sum / jobs);
            }
        }
        (groups, backends)
    }

    /// Writes the aggregation as the body of a part file: `start · jobs`,
    /// the optima table (`count · (name · optimum · exact)*`, names
    /// sorted) and the cells (`count · cell*`) in canonical order, every
    /// integer little-endian and every string length-prefixed UTF-8.
    pub(crate) fn write_to(&self, w: &mut Vec<u8>) -> io::Result<()> {
        snap::write_u64(w, self.start as u64)?;
        snap::write_u64(w, self.jobs as u64)?;
        snap::write_u64(w, self.optima.len() as u64)?;
        for (name, &(opt, exact)) in &self.optima {
            snap::write_str(w, name)?;
            snap::write_u64(w, opt)?;
            snap::write_bool(w, exact)?;
        }
        snap::write_u64(w, self.cells.len() as u64)?;
        for g in &self.cells {
            snap::write_str(w, &g.instance)?;
            snap::write_str(w, &g.backend)?;
            snap::write_u64(w, g.eps.to_bits())?;
            snap::write_bool(w, g.sense == Sense::Covering)?;
            snap::write_u64(w, g.vars as u64)?;
            snap::write_u64(w, g.jobs as u64)?;
            snap::write_bool(w, g.feasible)?;
            snap::write_bool(w, g.opt.is_some())?;
            snap::write_u64(w, g.opt.unwrap_or(0))?;
            snap::write_bool(w, g.opt_exact)?;
            snap::write_u64(w, g.min_value)?;
            snap::write_u64(w, g.max_value)?;
            snap::write_u128(w, g.value_sum)?;
            snap::write_u64(w, g.rounds_sum)?;
            snap::write_u64(w, g.rounds_last as u64)?;
            snap::write_u64(w, g.micros)?;
            snap::write_u64(w, g.stats.deleted as u64)?;
            snap::write_u64(w, g.stats.components as u64)?;
            snap::write_u64(w, g.stats.fixed_weight)?;
            snap::write_u64(w, g.stats.deleted_edges as u64)?;
        }
        Ok(())
    }

    /// Reads the body [`BatchAggregator::write_to`] wrote for a part of a
    /// `corpus_jobs`-job corpus, never panicking on untrusted input.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the range reaches beyond the
    /// corpus, a flag byte is not `0`/`1`, a cell holds no job or appears
    /// twice, or the cells' job counts do not sum to the body's length;
    /// [`io::ErrorKind::UnexpectedEof`] on truncation.
    pub(crate) fn read_from<R: Read>(r: &mut R, corpus_jobs: usize) -> io::Result<Self> {
        let start = snap::read_u64(r)? as usize;
        let len = snap::read_u64(r)? as usize;
        if start > corpus_jobs || len > corpus_jobs - start {
            return Err(snap::invalid(format!(
                "part covers jobs {start}..{start}+{len} of a {corpus_jobs}-job corpus"
            )));
        }
        let mut optima = BTreeMap::new();
        for _ in 0..snap::read_u64(r)? {
            let name = snap::read_str(r, "instance name")?;
            let opt = snap::read_u64(r)?;
            optima.insert(name, (opt, snap::read_bool(r, "optimum exactness")?));
        }
        let mut agg = BatchAggregator::with_optima_at(optima, start);
        for _ in 0..snap::read_u64(r)? {
            let instance = snap::read_str(r, "instance name")?;
            let backend = snap::read_str(r, "backend name")?;
            let eps = f64::from_bits(snap::read_u64(r)?);
            let sense = match snap::read_bool(r, "sense")? {
                false => Sense::Packing,
                true => Sense::Covering,
            };
            let vars = snap::read_u64(r)? as usize;
            let jobs = snap::read_u64(r)? as usize;
            let feasible = snap::read_bool(r, "feasibility")?;
            let has_opt = snap::read_bool(r, "optimum presence")?;
            let opt_value = snap::read_u64(r)?;
            let acc = GroupAcc {
                opt: has_opt.then_some(opt_value),
                opt_exact: snap::read_bool(r, "optimum exactness")?,
                min_value: snap::read_u64(r)?,
                max_value: snap::read_u64(r)?,
                value_sum: snap::read_u128(r)?,
                rounds_sum: snap::read_u64(r)?,
                rounds_last: snap::read_u64(r)? as usize,
                micros: snap::read_u64(r)?,
                stats: GroupStats {
                    deleted: snap::read_u64(r)? as usize,
                    components: snap::read_u64(r)? as usize,
                    fixed_weight: snap::read_u64(r)?,
                    deleted_edges: snap::read_u64(r)? as usize,
                },
                instance,
                backend,
                eps,
                sense,
                vars,
                jobs,
                feasible,
            };
            let (instance, backend, bits) = acc.cell();
            if jobs == 0
                || !agg
                    .seen_cells
                    .insert((instance.to_owned(), backend.to_owned(), bits))
            {
                return Err(snap::invalid(format!(
                    "cell {instance}/{backend}/eps{eps} is empty or appears twice"
                )));
            }
            agg.jobs = agg.jobs.saturating_add(jobs);
            agg.cells.push(acc);
        }
        if agg.jobs != len {
            return Err(snap::invalid(format!(
                "part claims {len} jobs but its cells sum to {}",
                agg.jobs
            )));
        }
        Ok(agg)
    }
}
