//! # dapc-lower
//!
//! The Appendix B lower-bound machinery of Chang & Li (PODC 2023):
//! Theorem 1.4's `Ω(log n/ε)` round lower bounds for `(1 ± ε)`-approximate
//! maximum independent set, maximum cut, minimum vertex cover and minimum
//! dominating set, made *measurable*:
//!
//! * [`capped`] — round-capped randomised LOCAL algorithms (Luby-style
//!   greedy MIS) whose quality–rounds trade-off the bounds
//!   constrain;
//! * [`harness`] — the indistinguishability experiment of Theorems
//!   B.2/B.6: identical per-vertex output distributions on locally
//!   isomorphic graphs (LPS bipartite vs non-bipartite, odd vs even
//!   cycles);
//! * [`reductions`] — the solution pull-backs through the subdivision
//!   `G_x` (Theorems B.3/B.7), with their counting identities and the
//!   dominating-set gadget's (Theorem B.5) tested.
//!
//! ```
//! use dapc_graph::gen;
//! use dapc_lower::{capped, harness};
//!
//! // A 2-round algorithm cannot tell C17 (α < n/2) from C18 (α = n/2).
//! let rep = harness::indistinguishability(
//!     &gen::cycle(17), &gen::cycle(18), 2, 500, &mut gen::seeded_rng(0),
//!     |g, t, r| capped::greedy_mis_rounds(g, t, r));
//! assert!(rep.locally_identical);
//! assert!(rep.gap < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capped;
pub mod harness;
// dapc-allow(dead-pub): ROADMAP item 17, step 1 adds the E7a max-cut rows that run it
pub mod maxcut;
// dapc-allow(dead-pub): ROADMAP item 17, step 2 pulls E7b's independent sets back through it
pub mod reductions;
