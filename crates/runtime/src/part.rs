//! Results over contiguous job ranges: the one pipeline every solve runs
//! through, and the checkpoint unit of `dapc-serve`'s fault-tolerant
//! orchestration.
//!
//! [`solve_range_streaming_with_cache`] solves any contiguous canonical
//! range of a corpus and returns a [`PartReport`]: a snapshotable
//! aggregation to which the part of the next range appends. When a
//! worker dies halfway through its range, the remaining jobs can go to
//! any other worker and the completed prefix is salvaged from
//! checkpoints; the parts of *any* split of the corpus into consecutive
//! ranges, however crashes and retries carved it up, append in
//! canonical order into the identical [`StreamReport`] the whole-corpus
//! run produces, timings aside. This is the in-order fold of compact
//! summaries (Koufogiannakis & Young, Distributed Computing 2011)
//! applied to the experiment sweep itself. The whole-corpus entry
//! points run this pipeline over `0..len`.

use crate::cache::{CacheStats, PrepCache};
use crate::corpus::Corpus;
use crate::report::{BatchAggregator, StreamReport};
use crate::run::{stream_jobs, RuntimeConfig};
use crate::snap;
use dapc_core::prep::SubsetSolver;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Magic + version prefix of the part-report snapshot format: seven
/// identifying bytes and a format version byte. The body is the fixed
/// header (`corpus_jobs · workers · peak_buffered · wall_micros`), the
/// five cache counters, and the aggregation (`start · jobs`, the
/// reference optima and the cells in canonical order) — all integers
/// little-endian, the stream self-delimiting (trailing bytes are
/// corruption). A 16-byte FNV-1a-128 seal over every preceding byte
/// follows, so *any* bit flip or truncation in a checkpoint file
/// surfaces as a load error instead of a silently wrong stitch.
pub const PART_MAGIC: &[u8; 8] = dapc_core::snapmagic::PART.bytes;

/// The aggregation of one contiguous job range of a corpus: what a
/// checkpoint file holds and what a coordinator stitches back together.
/// Produced by [`solve_range_streaming_with_cache`], shipped with
/// [`PartReport::save_to`] / [`PartReport::load_from`], stitched with
/// [`PartReport::append`] and closed out with [`PartReport::finish`].
#[derive(Debug)]
pub struct PartReport {
    /// Total jobs of the corpus being partially solved (validation that
    /// parts of the *same* sweep are stitched).
    pub corpus_jobs: usize,
    /// The part's online aggregation, over the part's
    /// [`PartReport::range`].
    pub aggregator: BatchAggregator,
    /// Prep-cache counters of the producing process (after appending:
    /// fieldwise sums over per-process caches).
    pub cache: CacheStats,
    /// Concurrent pump tasks the part ran with (after appending: the
    /// maximum).
    pub workers: usize,
    /// Reorder-buffer high-water mark (after appending: the maximum).
    pub peak_buffered: usize,
    /// Wall-clock time spent producing the part. Appending takes the
    /// per-part **maximum**, not the sum: cooperating processes run
    /// concurrently, so the stitched wall models the slowest part.
    pub wall: Duration,
}

impl PartReport {
    /// The canonical job range this part covers.
    pub fn range(&self) -> Range<usize> {
        self.aggregator.range()
    }

    /// Appends `next`, the part of the range that starts where this one
    /// ends: a cell split across the boundary is absorbed, cache counters
    /// sum, wall time and concurrency telemetry take per-part maxima.
    ///
    /// ```
    /// use dapc_graph::gen;
    /// use dapc_ilp::problems;
    /// use dapc_runtime::{
    ///     solve_many, solve_range_streaming_with_cache, Corpus, PrepCache, RuntimeConfig,
    /// };
    ///
    /// let corpus = Corpus::builder()
    ///     .instance(
    ///         "MIS/cycle16",
    ///         problems::max_independent_set_unweighted(&gen::cycle(16)),
    ///     )
    ///     .backend("greedy")
    ///     .eps(0.3)
    ///     .seeds(0..6)
    ///     .build();
    /// let rt = RuntimeConfig::new();
    /// let part = |range| {
    ///     solve_range_streaming_with_cache(&corpus, range, &rt, &PrepCache::new(), |_r| {})
    /// };
    /// // Two cooperating processes, one range each, split inside the
    /// // cell's seed run.
    /// let mut stitched = part(0..3);
    /// stitched.append(part(3..6));
    /// let stitched = stitched.finish();
    /// let single = solve_many(&corpus, &rt);
    /// assert_eq!(stitched.groups.len(), single.groups.len());
    /// assert_eq!(stitched.groups[0].jobs, 6);
    /// assert_eq!(stitched.groups[0].min_value, single.groups[0].min_value);
    /// assert_eq!(stitched.groups[0].mean_value, single.groups[0].mean_value);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the parts come from different corpora (`corpus_jobs`
    /// differs) or `next` does not start where this part ends (a
    /// checkpoint appended twice, skipped or out of order).
    pub fn append(&mut self, next: PartReport) {
        assert_eq!(
            self.corpus_jobs, next.corpus_jobs,
            "parts of different corpora ({} vs {} jobs)",
            self.corpus_jobs, next.corpus_jobs
        );
        self.aggregator.append(next.aggregator);
        self.cache.absorb(&next.cache);
        self.workers = self.workers.max(next.workers);
        self.peak_buffered = self.peak_buffered.max(next.peak_buffered);
        self.wall = self.wall.max(next.wall);
    }

    /// Finalises a part covering the whole corpus into the
    /// [`StreamReport`] the whole-corpus run would have returned (timings
    /// and per-process cache counters aside — groups and backends are
    /// equal bit for bit).
    ///
    /// # Panics
    ///
    /// Panics when the part does not cover every job of the corpus — a
    /// checkpoint is missing.
    pub fn finish(self) -> StreamReport {
        assert_eq!(
            self.range(),
            0..self.corpus_jobs,
            "appended parts cover {:?} of {} corpus jobs — a range is missing",
            self.range(),
            self.corpus_jobs
        );
        let (groups, backends) = self.aggregator.finish();
        StreamReport {
            jobs: self.corpus_jobs,
            groups,
            backends,
            cache: self.cache,
            workers: self.workers,
            peak_buffered: self.peak_buffered,
            wall: self.wall,
        }
    }

    /// Writes this part in the versioned binary format (see
    /// [`PART_MAGIC`]).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_to<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(PART_MAGIC);
        snap::write_u64(&mut buf, self.corpus_jobs as u64)?;
        snap::write_u64(&mut buf, self.workers as u64)?;
        snap::write_u64(&mut buf, self.peak_buffered as u64)?;
        snap::write_u64(&mut buf, self.wall.as_micros() as u64)?;
        snap::write_u64(&mut buf, self.cache.families as u64)?;
        snap::write_u64(&mut buf, self.cache.entries as u64)?;
        snap::write_u64(&mut buf, self.cache.bytes as u64)?;
        snap::write_u64(&mut buf, self.cache.hits)?;
        snap::write_u64(&mut buf, self.cache.misses)?;
        self.aggregator.write_to(&mut buf)?;
        snap::seal(&mut buf);
        w.write_all(&buf)
    }

    /// Reads a part written by [`PartReport::save_to`]. Loading is
    /// all-or-nothing and never panics on untrusted input — a torn
    /// checkpoint file surfaces as an `Err` the coordinator treats as
    /// "this range was never completed".
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on a bad magic, an
    /// unsupported version, an aggregation reaching beyond the corpus or
    /// whose cells' job counts do not sum to its length, a failed seal
    /// check (any byte under the seal flipped or missing), or trailing
    /// bytes; with [`io::ErrorKind::UnexpectedEof`] on truncation at any
    /// byte; besides propagating reader errors.
    pub fn load_from<R: io::Read>(r: R) -> io::Result<Self> {
        let mut r = snap::SealingReader::new(dapc_chaos::corrupt_reader("part.load", r));
        snap::check_magic(&mut r, PART_MAGIC, "part-report")?;
        let corpus_jobs = snap::read_u64(&mut r)? as usize;
        let workers = snap::read_u64(&mut r)? as usize;
        let peak_buffered = snap::read_u64(&mut r)? as usize;
        let wall = Duration::from_micros(snap::read_u64(&mut r)?);
        let cache = CacheStats {
            families: snap::read_u64(&mut r)? as usize,
            entries: snap::read_u64(&mut r)? as usize,
            bytes: snap::read_u64(&mut r)? as usize,
            hits: snap::read_u64(&mut r)?,
            misses: snap::read_u64(&mut r)?,
        };
        let aggregator = BatchAggregator::read_from(&mut r, corpus_jobs)?;
        r.verify_seal("part-report")?;
        // Self-delimiting like every snapshot format here: anything after
        // the seal is corruption, not padding.
        let mut trailing = [0u8; 1];
        if r.read(&mut trailing)? != 0 {
            return Err(snap::invalid("trailing bytes after the part report"));
        }
        Ok(PartReport {
            corpus_jobs,
            aggregator,
            cache,
            workers,
            peak_buffered,
            wall,
        })
    }
}

/// Solves the contiguous canonical job range `range` of `corpus` against
/// `cache` and returns its [`PartReport`]. Every
/// [`crate::JobResult`] of the range is handed to `on_result` by value
/// exactly once, in canonical order, before being dropped — how the
/// daemon streams per-job results to a client while the aggregation
/// accrues.
///
/// Every `(key, report)` outcome inside the range is byte-identical to
/// the same job in the whole-corpus sweep, at any `jobs`/`prep_workers`
/// setting — jobs keep their global keys and key-derived RNG streams.
/// Reference optima are solved only for the instances the range actually
/// touches; ranges sharing an instance compute the same (deterministic)
/// optimum, which [`PartReport::append`] verifies.
///
/// # Examples
///
/// A corpus carved into three uneven ranges — the shape a crashed
/// worker's reassigned remainder produces — appends back into the
/// whole-corpus aggregation:
///
/// ```
/// use dapc_graph::gen;
/// use dapc_ilp::problems;
/// use dapc_runtime::{
///     solve_many_streaming_with_cache, solve_range_streaming_with_cache, Corpus, PrepCache,
///     RuntimeConfig,
/// };
///
/// let corpus = Corpus::builder()
///     .instance(
///         "MIS/cycle12",
///         problems::max_independent_set_unweighted(&gen::cycle(12)),
///     )
///     .backend("greedy")
///     .backend("bnb")
///     .eps(0.3)
///     .seeds(0..3)
///     .build();
/// let rt = RuntimeConfig::new();
/// let part = |range| {
///     solve_range_streaming_with_cache(&corpus, range, &rt, &PrepCache::new(), |_r| {})
/// };
///
/// // Ranges append in canonical order.
/// let mut stitched = part(0..4);
/// stitched.append(part(4..5));
/// stitched.append(part(5..corpus.len()));
/// let stitched = stitched.finish();
///
/// let single = solve_many_streaming_with_cache(&corpus, &rt, &PrepCache::new(), |_r| {});
/// assert_eq!(stitched.jobs, single.jobs);
/// for (a, b) in stitched.groups.iter().zip(&single.groups) {
///     let (mut a, mut b) = (a.clone(), b.clone());
///     a.micros = 0; // wall-clock columns differ run to run,
///     b.micros = 0; // everything else is equal bit for bit
///     assert_eq!(a, b);
/// }
/// ```
///
/// # Panics
///
/// Panics when `range` reaches beyond the corpus.
pub fn solve_range_streaming_with_cache<F>(
    corpus: &Corpus,
    range: Range<usize>,
    rt: &RuntimeConfig,
    cache: &PrepCache,
    on_result: F,
) -> PartReport
where
    F: FnMut(crate::JobResult) + Send + 'static,
{
    // dapc-allow(wall-clock): wall-time report field; timings are excluded from report identity
    let start = Instant::now();
    let jobs = corpus.range_jobs(range.clone());
    // Reference optima come first: the online aggregator folds each
    // job's ratio as it is delivered, which needs the cell's optimum up
    // front.
    let optima = if rt.reference_optima {
        let touched: BTreeSet<&str> = jobs.iter().map(|j| j.key.instance.as_str()).collect();
        reference_optima(corpus, &touched, cache)
    } else {
        BTreeMap::new()
    };
    let aggregator = BatchAggregator::with_optima_at(optima, range.start);
    let (aggregator, pumps, peak_buffered) = stream_jobs(jobs, aggregator, rt, cache, on_result);
    PartReport {
        corpus_jobs: corpus.len(),
        aggregator,
        cache: cache.stats(),
        workers: pumps,
        peak_buffered,
        wall: start.elapsed(),
    }
}

/// Reference optima, one exact solve per `touched` instance in corpus
/// order, routed through the family cache so a batch that already ran
/// `bnb` gets them for free.
fn reference_optima(
    corpus: &Corpus,
    touched: &BTreeSet<&str>,
    cache: &PrepCache,
) -> BTreeMap<String, (u64, bool)> {
    let mut optima = BTreeMap::new();
    for inst in &corpus.instances {
        if !touched.contains(inst.name.as_str()) {
            continue;
        }
        let full = vec![true; inst.ilp.n()];
        let budget = corpus.base.budget;
        let mut solver =
            SubsetSolver::with_shared(&inst.ilp, budget, cache.family(&inst.ilp, &budget));
        let (opt, _, exact) = solver.solve_mask(&full, None);
        optima.insert(inst.name.clone(), (opt, exact));
    }
    optima
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_part(wall: Duration, workers: usize) -> PartReport {
        PartReport {
            corpus_jobs: 8,
            aggregator: BatchAggregator::with_optima_at(BTreeMap::new(), 2),
            cache: CacheStats {
                families: 1,
                entries: 2,
                bytes: 100,
                hits: 10,
                misses: 5,
            },
            workers,
            peak_buffered: workers,
            wall,
        }
    }

    /// Pins the documented append semantics: wall time and concurrency
    /// telemetry take per-part **maxima** (parts run concurrently, so
    /// the stitched wall is the critical path, never the sum), while
    /// cache counters sum fieldwise.
    #[test]
    fn append_takes_per_part_wall_maximum() {
        let mut stitched = bare_part(Duration::from_micros(300), 2);
        stitched.append(bare_part(Duration::from_micros(700), 5));
        stitched.append(bare_part(Duration::from_micros(400), 3));

        assert_eq!(
            stitched.wall,
            Duration::from_micros(700),
            "stitched wall is the slowest part, not the 1400µs sum"
        );
        assert_eq!(stitched.workers, 5, "workers take the maximum");
        assert_eq!(stitched.peak_buffered, 5, "peak_buffered takes the maximum");
        assert_eq!(stitched.range(), 2..2, "empty parts keep their offset");
        assert_eq!(stitched.cache.hits, 30, "cache counters sum");
        assert_eq!(stitched.cache.misses, 15);
    }
}
