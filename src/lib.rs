//! # dapc — Distributed Approximation of Packing & Covering ILPs
//!
//! A full reproduction of **Chang & Li, “The Complexity of Distributed
//! Approximation of Packing and Covering Integer Linear Programs”
//! (PODC 2023)** as a Rust workspace: the three-phase low-diameter
//! decomposition of Theorem 1.1, the `(1 − ε)`-packing and
//! `(1 + ε)`-covering solvers of Theorems 1.2–1.3, the classical
//! decompositions and the GKM17 baseline they improve on, the Appendix B
//! lower-bound machinery (including LPS Ramanujan graphs), and the
//! Appendix C counterexample families — all implemented from scratch.
//!
//! This crate is the facade: it re-exports the workspace members, hosts
//! the runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`), and provides the [`prelude`] for the unified solver
//! engine.
//!
//! ## Quickstart
//!
//! Every backend is a [`prelude::Solver`]; graph problems are built with
//! [`prelude::GraphProblem`] and run against any of them:
//!
//! ```
//! use dapc::prelude::*;
//!
//! let g = gen::gnp(40, 0.08, &mut gen::seeded_rng(7));
//! let r = GraphProblem::max_independent_set(&g)
//!     .eps(0.3)
//!     .seed(1)
//!     .solve_with(&ThreePhase);
//! // A (1 − ε)-approximate independent set plus its LOCAL round cost.
//! assert!(!r.vertices.is_empty());
//! assert!(r.report.feasible());
//! assert!(r.rounds() > 0);
//! ```
//!
//! Raw ILP instances go through the engine directly, by value or through
//! the string-keyed registry:
//!
//! ```
//! use dapc::prelude::*;
//!
//! let ilp = problems::min_vertex_cover_unweighted(&gen::cycle(18));
//! let cfg = SolveConfig::new().eps(0.4).seed(3);
//! for name in engine::BACKENDS {
//!     let report = engine::solve(name, &ilp, &cfg).unwrap();
//!     assert!(report.feasible(), "{name} must return a feasible cover");
//! }
//! ```
//!
//! ## Configuration
//!
//! [`prelude::SolveConfig`] absorbs every knob the solvers take: `ε`, the
//! RNG seed, the size hint `ñ`, the exact-solver budget and the scaling
//! knobs for the paper's leading constants. The default
//! [`prelude::ScaleKnobs`] are the laptop-scale constants
//! (`r_scale = 0.02`, `prep_scale = 0.3`, `covering_t_slack = 1`) used by
//! every example and test; `SolveConfig::new().paper()` switches to the
//! constants printed in the paper (`200`, `16`, `+8`) — correct but with
//! radii that dwarf any simulable diameter, so every cluster becomes the
//! whole graph and the round bill is astronomically honest.
//!
//! ## Layout
//!
//! | Module | Contents |
//! |---|---|
//! | [`graph`] | CSR graphs, generators, LPS Ramanujan graphs, hypergraphs |
//! | [`conc`] | samplers + Appendix A concentration bounds |
//! | [`local`] | LOCAL model simulator (message passing + charged rounds) |
//! | [`ilp`] | packing/covering instances, restrictions, exact solvers |
//! | [`decomp`] | Theorem 1.1 LDD, Elkin–Neiman, MPX, sparse covers, … |
//! | [`core`] | the solver engine, Theorems 1.2–1.3, GKM17, adapters |
//! | [`lower`] | Appendix B lower-bound machinery |
//! | [`serve`] | fault-tolerant sweep orchestration + the solve daemon |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dapc_conc as conc;
pub use dapc_core as core;
pub use dapc_decomp as decomp;
pub use dapc_exec as exec;
pub use dapc_graph as graph;
pub use dapc_ilp as ilp;
pub use dapc_local as local;
pub use dapc_lower as lower;
pub use dapc_runtime as runtime;
pub use dapc_serve as serve;

/// One-stop imports for the unified solver engine and the batch runtime.
///
/// A single solve goes through the string-keyed registry:
///
/// ```
/// use dapc::prelude::*;
///
/// let report = engine::solve(
///     "bnb",
///     &problems::max_independent_set_unweighted(&gen::cycle(10)),
///     &SolveConfig::new(),
/// )
/// .unwrap();
/// assert_eq!(report.value, 5);
/// ```
///
/// Sweeps go through `dapc-runtime`: build a [`prelude::Corpus`] of
/// `(instance × backend × ε × seed)` jobs and fan it out with
/// [`prelude::solve_many`] — or stream arbitrarily large corpora through
/// [`prelude::solve_many_streaming_with_cache`]'s `on_result` hook
/// without holding the result vector, or split them into contiguous job
/// ranges with [`prelude::solve_range_streaming_with_cache`] and merge
/// the compact [`prelude::PartReport`]s back into the identical
/// aggregation. Across-job and intra-prep parallelism share one
/// process-wide executor ([`exec`]); results are byte-identical to
/// sequential execution at any worker count — and to any range split —
/// and seeds of one instance family share their preparation work through
/// the prep cache:
///
/// ```
/// use dapc::prelude::*;
///
/// let corpus = Corpus::builder()
///     .instance(
///         "MIS/cycle20",
///         problems::max_independent_set_unweighted(&gen::cycle(20)),
///     )
///     .backend("three-phase")
///     .backend("bnb")
///     .eps(0.3)
///     .seeds(0..4)
///     .build();
/// let report = solve_many(&corpus, &RuntimeConfig::new().jobs(4));
/// assert_eq!(report.results.len(), 1 * 2 * 1 * 4);
/// assert!(report.results.iter().all(|r| r.report.feasible()));
/// assert!(report.cache.hits > 0, "seeds share prep work");
/// let worst = report.group("MIS/cycle20", "three-phase", 0.3).unwrap();
/// assert!(worst.meets_guarantee()); // min ratio ≥ 1 − ε
///
/// // Two halves solved apart (in real use, by two processes) merge back.
/// let rt = RuntimeConfig::new();
/// let part = |range| {
///     solve_range_streaming_with_cache(&corpus, range, &rt, &PrepCache::new(), |_r| {})
/// };
/// let mut merged = part(4..8);
/// merged.merge(part(0..4));
/// let merged = merged.finish();
/// let merged_worst = merged.group("MIS/cycle20", "three-phase", 0.3).unwrap();
/// assert_eq!(merged_worst.min_value, worst.min_value);
/// ```
pub mod prelude {
    pub use dapc_core::adapters::{GraphProblem, GraphSolveResult};
    pub use dapc_core::engine::{
        self, BackendStats, BranchAndBound, Ensemble, Gkm, Greedy, SharedSubsetCache, SolveConfig,
        SolveReport, Solver, ThreePhase,
    };
    pub use dapc_core::params::{PcParams, ScaleKnobs};
    pub use dapc_exec as exec;
    pub use dapc_exec::Executor;
    pub use dapc_graph::{gen, Graph, GraphBuilder, Hypergraph, Vertex};
    pub use dapc_ilp::{problems, verify, IlpInstance, Sense, SolverBudget};
    pub use dapc_local::{RoundCost, RoundLedger};
    pub use dapc_runtime::{
        solve_many, solve_many_streaming_with_cache, solve_range_streaming_with_cache,
        BatchAggregator, BatchReport, Corpus, GroupStats, GroupSummary, JobKey, JobResult,
        PartReport, PrepCache, RuntimeConfig, StreamReport,
    };
}
