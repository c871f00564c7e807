//! # dapc-decomp
//!
//! Low-diameter decompositions for the `dapc` workspace — the algorithmic
//! core of Chang & Li (PODC 2023), plus every baseline the paper measures
//! against:
//!
//! * [`three_phase`] — **Theorem 1.1**: the paper's three-phase
//!   ball-growing-and-carving LDD whose `|D| ≤ ε|V|` guarantee holds with
//!   high probability (plus the optional diameter-improvement step);
//! * [`elkin_neiman`] — Lemma C.1, the classical exponential-shift LDD
//!   (in-expectation guarantee only — see Claim C.1);
//! * [`mpx`] — the Miller–Peng–Xu edge-cutting variant (Claim C.2);
//! * [`sparse_cover`] — Lemma C.2, the hyperedge sparse cover driving the
//!   covering algorithm;
//! * [`network_decomposition`] — Linial–Saks-style `(O(log n), O(log n))`
//!   network decomposition (substrate of the GKM17 baseline);
//! * [`blackbox`] — the §1.6 Coiteux-Roy et al. improvement
//!   (`log(1/ε)` instead of `log³(1/ε)`);
//! * [`shift`] — the shared exponential-shift label propagation engine;
//! * [`result`] — the common [`result::Decomposition`] output type with
//!   Definition 1.4 validators.
//!
//! ```
//! use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
//! use dapc_graph::gen;
//!
//! let g = gen::grid(8, 8);
//! let params = LddParams::scaled(0.3, 64.0, 0.05);
//! let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(0), None);
//! assert!(out.decomposition.deleted_fraction() <= 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackbox;
pub mod elkin_neiman;
// dapc-allow(dead-pub): ROADMAP item 5 extends this faithfulness check to the three-phase LDD
pub mod message_passing;
pub mod mpx;
pub mod network_decomposition;
pub mod result;
pub mod shift;
pub mod sparse_cover;
pub mod three_phase;

pub use result::Decomposition;
pub use sparse_cover::SparseCover;
pub use three_phase::{LddParams, ThreePhaseOutcome};
