//! Results over contiguous job ranges: the one pipeline every solve runs
//! through, and the checkpoint unit of `dapc-serve`'s fault-tolerant
//! orchestration.
//!
//! [`solve_range_streaming_with_cache`] solves any contiguous canonical
//! range of a corpus and returns a [`PartReport`]: a snapshotable
//! aggregation that merges with the part of any other disjoint range of
//! the same corpus. When a worker dies halfway through its range, the
//! remaining jobs can go to any other worker and the completed prefix is
//! salvaged from checkpoints. Merging is associative and commutative (the
//! mergeable-span [`BatchAggregator`] does the heavy lifting), so *any*
//! disjoint cover of the corpus, however crashes and retries carved it
//! up, finishes into the identical [`StreamReport`] the whole-corpus run
//! produces, timings aside. This is the aggregate-by-compact-summaries
//! shape of distributed covering/packing (Koufogiannakis & Young,
//! Distributed Computing 2011) applied to the experiment sweep itself.
//! The whole-corpus entry points run this pipeline over `0..len`.

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
/// header (`corpus_jobs · start · jobs · workers · peak_buffered ·
/// wall_micros`), the five cache counters, and the length-prefixed
/// [`BatchAggregator`] snapshot — all integers little-endian, the stream
/// self-delimiting (trailing bytes are corruption). Version 2 appends a
/// 16-byte FNV-1a-128 seal over every preceding byte, so *any* bit flip
/// or truncation in a checkpoint file surfaces as a load error instead
/// of a silently wrong merge.
pub const PART_MAGIC: &[u8; 8] = dapc_core::snapmagic::PART.bytes;

/// The aggregation of one contiguous job range of a corpus (or, after
/// merging, of any disjoint union of ranges): what a checkpoint file
/// holds and what a coordinator stitches back together. Produced by
/// [`solve_range_streaming_with_cache`], shipped with
/// [`PartReport::save_to`] / [`PartReport::load_from`], recombined with
/// [`PartReport::merge`] and closed out with [`PartReport::finish`].
///
/// A part's identity is the canonical ranges its aggregator covers
/// ([`PartReport::covered`]), which is what makes crash-driven
/// repartitions mergeable at all.
#[derive(Debug)]
pub struct PartReport {
    /// Total jobs of the corpus being partially solved (validation that
    /// parts of the *same* sweep are merged).
    pub corpus_jobs: usize,
    /// Canonical index of the earliest job covered (the range start even
    /// while the part is empty).
    pub start: usize,
    /// Jobs this part covers (after merging: the sum).
    pub jobs: usize,
    /// The part's online aggregation, mergeable and snapshotable.
    pub aggregator: BatchAggregator,
    /// Prep-cache counters of the producing process (after merging:
    /// fieldwise sums over per-process caches).
    pub cache: CacheStats,
    /// Concurrent pump tasks the part ran with (after merging: the
    /// maximum).
    pub workers: usize,
    /// Reorder-buffer high-water mark (after merging: the maximum).
    pub peak_buffered: usize,
    /// Wall-clock time spent producing the part. Merging takes the
    /// per-part **maximum**, not the sum: cooperating processes run
    /// concurrently, so the merged wall models the slowest part.
    pub wall: Duration,
}

impl PartReport {
    /// The canonical job ranges this part covers, in normal form
    /// (sorted, disjoint, adjacent runs coalesced) — one entry straight
    /// from a range solve, possibly several after merging
    /// non-adjacent parts.
    pub fn covered(&self) -> Vec<Range<usize>> {
        self.aggregator.covered()
    }

    /// Folds another part of the same sweep into this one: aggregators
    /// merge (associative and commutative over disjoint job sets), cache
    /// counters sum, wall time and concurrency telemetry take per-part
    /// maxima.
    ///
    /// # Panics
    ///
    /// Panics when the parts come from different corpora (`corpus_jobs`
    /// differs) or cover overlapping job ranges (the same checkpoint
    /// merged twice).
    pub fn merge(&mut self, other: PartReport) {
        assert_eq!(
            self.corpus_jobs, other.corpus_jobs,
            "parts of different corpora ({} vs {} jobs)",
            self.corpus_jobs, other.corpus_jobs
        );
        self.start = self.start.min(other.start);
        self.jobs += other.jobs;
        self.aggregator.merge(other.aggregator);
        self.cache.absorb(&other.cache);
        self.workers = self.workers.max(other.workers);
        self.peak_buffered = self.peak_buffered.max(other.peak_buffered);
        self.wall = self.wall.max(other.wall);
    }

    /// Finalises a fully merged part into the [`StreamReport`] the
    /// whole-corpus run would have returned (timings and
    /// per-process cache counters aside — groups and backends are equal
    /// bit for bit).
    ///
    /// # Panics
    ///
    /// Panics when the merged parts do not cover every job of the corpus
    /// — a checkpoint is missing.
    pub fn finish(self) -> StreamReport {
        assert_eq!(
            self.jobs, self.corpus_jobs,
            "merged parts cover {} of {} corpus jobs — a range is missing",
            self.jobs, self.corpus_jobs
        );
        let (groups, backends) = self.aggregator.finish();
        StreamReport {
            jobs: self.jobs,
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
        snap::write_u64(&mut buf, self.start as u64)?;
        snap::write_u64(&mut buf, self.jobs as u64)?;
        snap::write_u64(&mut buf, self.workers as u64)?;
        snap::write_u64(&mut buf, self.peak_buffered as u64)?;
        snap::write_u64(&mut buf, self.wall.as_micros() as u64)?;
        snap::write_u64(&mut buf, self.cache.families as u64)?;
        snap::write_u64(&mut buf, self.cache.entries as u64)?;
        snap::write_u64(&mut buf, self.cache.bytes as u64)?;
        snap::write_u64(&mut buf, self.cache.hits)?;
        snap::write_u64(&mut buf, self.cache.misses)?;
        let mut aggregator = Vec::new();
        self.aggregator.save_to(&mut aggregator)?;
        snap::write_bytes(&mut buf, &aggregator)?;
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
    /// unsupported version, a header disagreeing with the embedded
    /// aggregator (job count, start index, or coverage beyond the
    /// corpus), or trailing bytes; with
    /// [`io::ErrorKind::UnexpectedEof`] on truncation at any byte;
    /// besides propagating reader errors and the aggregator loader's own
    /// failures. A failed seal check (any byte under the seal flipped or
    /// missing) is `InvalidData` too.
    pub fn load_from<R: io::Read>(r: R) -> io::Result<Self> {
        let mut r = snap::SealingReader::new(dapc_chaos::corrupt_reader("part.load", r));
        snap::check_magic(&mut r, PART_MAGIC, "part-report")?;
        let corpus_jobs = snap::read_u64(&mut r)? as usize;
        let start = snap::read_u64(&mut r)? as usize;
        let jobs = snap::read_u64(&mut r)? as usize;
        if jobs > corpus_jobs {
            return Err(snap::invalid(format!(
                "part claims {jobs} of {corpus_jobs} corpus jobs"
            )));
        }
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
        let aggregator_bytes = snap::read_bytes(&mut r, "aggregator snapshot")?;
        let aggregator = BatchAggregator::load_from(aggregator_bytes.as_slice())?;
        if aggregator.jobs() != jobs {
            return Err(snap::invalid(format!(
                "part header claims {jobs} jobs but its aggregator folded {}",
                aggregator.jobs()
            )));
        }
        let covered = aggregator.covered();
        if let Some(first) = covered.first() {
            if first.start != start {
                return Err(snap::invalid(format!(
                    "part header starts at {start} but its aggregation at {}",
                    first.start
                )));
            }
        }
        if let Some(last) = covered.last() {
            if last.end > corpus_jobs {
                return Err(snap::invalid(format!(
                    "part covers jobs up to {} of a {corpus_jobs}-job corpus",
                    last.end
                )));
            }
        }
        r.verify_seal("part-report")?;
        // Self-delimiting like every snapshot format here: anything after
        // the last field is corruption, not padding.
        let mut trailing = [0u8; 1];
        if r.read(&mut trailing)? != 0 {
            return Err(snap::invalid("trailing bytes after the part report"));
        }
        Ok(PartReport {
            corpus_jobs,
            start,
            jobs,
            aggregator,
            cache,
            workers,
            peak_buffered,
            wall,
        })
    }
}

/// Solves the contiguous canonical job range `range` of `corpus` against
/// `cache` and returns the mergeable [`PartReport`]. Every
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
/// optimum, which the merge verifies.
///
/// # Examples
///
/// A corpus carved into three uneven ranges — the shape a crashed
/// worker's reassigned remainder produces — merges back to the
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
/// // Ranges may merge in any order and any grouping.
/// let mut merged = part(4..5);
/// merged.merge(part(0..4));
/// merged.merge(part(5..corpus.len()));
/// let stitched = merged.finish();
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
        reference_optima(corpus, &touched, rt.prep_cache, cache)
    } else {
        BTreeMap::new()
    };
    let aggregator = BatchAggregator::with_optima_at(optima, range.start);
    let (aggregator, pumps, peak_buffered) = stream_jobs(jobs, aggregator, rt, cache, on_result);
    PartReport {
        corpus_jobs: corpus.len(),
        start: range.start,
        jobs: range.len(),
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
    use_cache: bool,
    cache: &PrepCache,
) -> BTreeMap<String, (u64, bool)> {
    let mut optima = BTreeMap::new();
    for inst in &corpus.instances {
        if !touched.contains(inst.name.as_str()) {
            continue;
        }
        let full = vec![true; inst.ilp.n()];
        let budget = corpus.base.budget;
        let mut solver = if use_cache {
            SubsetSolver::with_shared(&inst.ilp, budget, cache.family(&inst.ilp, &budget))
        } else {
            SubsetSolver::new(&inst.ilp, budget)
        };
        let (opt, _, exact) = solver.solve_mask(&full, None);
        optima.insert(inst.name.clone(), (opt, exact));
    }
    optima
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_part(start: usize, wall: Duration, workers: usize) -> PartReport {
        PartReport {
            corpus_jobs: 8,
            start,
            jobs: 0,
            aggregator: BatchAggregator::with_optima_at(BTreeMap::new(), start),
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

    /// Pins the documented merge semantics: wall time and concurrency
    /// telemetry take per-part **maxima** (parts run concurrently, so
    /// the merged wall is the critical path, never the sum), while cache
    /// counters sum fieldwise.
    #[test]
    fn merge_takes_per_part_wall_maximum() {
        let mut merged = bare_part(4, Duration::from_micros(300), 2);
        merged.merge(bare_part(2, Duration::from_micros(700), 5));
        merged.merge(bare_part(6, Duration::from_micros(400), 3));

        assert_eq!(
            merged.wall,
            Duration::from_micros(700),
            "merged wall is the slowest part, not the 1400µs sum"
        );
        assert_eq!(merged.workers, 5, "workers take the maximum");
        assert_eq!(merged.peak_buffered, 5, "peak_buffered takes the maximum");
        assert_eq!(merged.start, 2, "merged start is the smallest");
        assert_eq!(merged.cache.hits, 30, "cache counters sum");
        assert_eq!(merged.cache.misses, 15);
    }
}
