//! # dapc-runtime
//!
//! The parallel batch-solve subsystem: stream corpora of
//! `(instance × backend × ε × seed)` jobs across the process-wide
//! `dapc_exec` executor with per-instance-family prep caching, and get
//! back the aggregation the experiment tables need. One pipeline does the
//! work, behind three entry points:
//!
//! - [`solve_range_streaming_with_cache`] solves any contiguous range of
//!   the canonical job order into a snapshotable [`PartReport`] — the
//!   unit `dapc-serve` checkpoints across worker processes and appends
//!   back together in canonical order, for corpora that do not fit one
//!   machine;
//! - [`solve_many_streaming_with_cache`] runs that pipeline over the
//!   whole corpus and finishes it into a [`StreamReport`], handing each
//!   job to an `on_result` hook, for corpora that do not fit one
//!   process's memory;
//! - [`solve_many`] also collects the per-job result vector into a
//!   [`BatchReport`].
//!
//! Four guarantees shape the design:
//!
//! 1. **Order-independence.** Every job derives its `StdRng` from its own
//!    [`JobKey`], so results are byte-identical to sequential execution at
//!    any worker count — fan-out changes wall-clock time, never outcomes.
//! 2. **Cache-transparency.** The [`PrepCache`] shares only memoised
//!    exact subset solves, which are deterministic functions of their key;
//!    reports with the cache on and off are equal, the cache only skips
//!    repeated local computation (the memoised-subproblem-reuse idea of
//!    Chekuri & Quanrud 2018 applied across runs).
//! 3. **One pool, graceful nesting.** Across-corpus fan-out (`jobs`) and
//!    intra-solve prep sharding (`prep_workers`) both run on the shared
//!    executor, so oversubscribed `jobs × prep_workers` combinations
//!    queue instead of spawning threads; a [`BatchAggregator`] behind a
//!    bounded reorder buffer restores canonical delivery order (the
//!    streaming-computation framing of Koufogiannakis & Young 2011
//!    applied to the sweep itself).
//! 4. **One instance model, pluggable strategies.** Jobs go through the
//!    `dapc_core::engine` registry, so any registered backend — current or
//!    future — batches without new code here.
//!
//! # Examples
//!
//! ```
//! use dapc_graph::gen;
//! use dapc_ilp::problems;
//! use dapc_runtime::{solve_many, Corpus, RuntimeConfig};
//!
//! let corpus = Corpus::builder()
//!     .instance(
//!         "MIS/cycle18",
//!         problems::max_independent_set_unweighted(&gen::cycle(18)),
//!     )
//!     .instance(
//!         "VC/cycle14",
//!         problems::min_vertex_cover_unweighted(&gen::cycle(14)),
//!     )
//!     .backend("three-phase")
//!     .backend("bnb")
//!     .eps(0.3)
//!     .seeds(0..3)
//!     .build();
//! let report = solve_many(&corpus, &RuntimeConfig::new().jobs(4));
//! assert_eq!(report.results.len(), 2 * 2 * 1 * 3);
//! assert!(report.results.iter().all(|r| r.report.feasible()));
//! // Seeds of one family share prep work through the cache:
//! assert!(report.cache.hits > 0);
//! // The worst three-phase packing seed still meets (1 − ε)·OPT:
//! let g = report.group("MIS/cycle18", "three-phase", 0.3).unwrap();
//! assert!(g.meets_guarantee());
//! ```
//!
//! Two ranges solved apart — in real use by two processes, with the
//! parts shipped as bytes via `save_to`/`load_from` — append into the
//! aggregation of the whole:
//!
//! ```
//! use dapc_graph::gen;
//! use dapc_ilp::problems;
//! use dapc_runtime::{
//!     solve_many, solve_range_streaming_with_cache, Corpus, PrepCache, RuntimeConfig,
//! };
//!
//! let corpus = Corpus::builder()
//!     .instance(
//!         "MIS/cycle14",
//!         problems::max_independent_set_unweighted(&gen::cycle(14)),
//!     )
//!     .backend("greedy")
//!     .backend("bnb")
//!     .eps(0.3)
//!     .seeds(0..3)
//!     .build();
//! let rt = RuntimeConfig::new();
//! let half = corpus.len() / 2;
//! let part = |range| {
//!     solve_range_streaming_with_cache(&corpus, range, &rt, &PrepCache::new(), |_r| {})
//! };
//! let mut stitched = part(0..half);
//! stitched.append(part(half..corpus.len()));
//! let stitched = stitched.finish();
//! let single = solve_many(&corpus, &rt);
//! assert_eq!(stitched.jobs, single.results.len());
//! for (a, b) in stitched.groups.iter().zip(&single.groups) {
//!     assert_eq!((a.min_value, a.mean_value, a.opt), (b.min_value, b.mean_value, b.opt));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod corpus;
mod part;
mod report;
mod run;
pub mod snap;

pub use cache::{CacheStats, PrepCache};
pub use corpus::{Corpus, CorpusBuilder, Job, JobKey};
pub use part::{solve_range_streaming_with_cache, PartReport, PART_MAGIC};
pub use report::{
    BackendSummary, BatchAggregator, BatchReport, GroupStats, GroupSummary, JobResult, StreamReport,
};
pub use run::{solve_many, solve_many_streaming_with_cache, RuntimeConfig};
