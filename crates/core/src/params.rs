//! Shared parametrisation of the packing (§4) and covering (§5) solvers.
//!
//! # Deviations from the paper
//!
//! Every constant the reproduction scales down and every step it
//! substitutes. The paper's constants remain selectable
//! ([`ScaleKnobs::paper`], `LddParams::paper`), but at simulable sizes
//! their radii exceed any diameter, so every cluster is the whole graph.
//!
//! | Constant or step | Paper | Used | Set in |
//! |---|---|---|---|
//! | `r_scale`: the leading constant of `R = ⌈r_scale·t·ln ñ/ε⌉` (§4.1, §5.1) | 200 | 0.02 | [`ScaleKnobs::default`] |
//! | `prep_scale`: the leading constant of the preparation count `⌈prep_scale·ln ñ⌉` | 16 | 0.3 | [`ScaleKnobs::default`] |
//! | `covering_t_slack`: the additive term of the covering iteration count `t` (§5) | 8 | 1 | [`ScaleKnobs::default`] |
//! | `r_scale` on the E3 and E5 long cycles, where carving must run | 200 | 0.1 (E3), 0.3 (E5) | `dapc_bench::exp_ilp::{e3_large_corpus, e5_large_corpus}` |
//! | `covering_t_slack` in E10's iteration-budget ablation | 8 | 0.01, 1, 3 | `dapc_bench::exp_ilp::e10` |
//! | the leading constant of the Theorem 1.1 LDD's `R` | 200 | 0.05 (E1, E2, E10), 0.02 (E9) | `LddParams::scaled` calls in `dapc_bench::exp_ldd::{e1, e2, e9}` and `exp_ilp::e10` |
//! | GKM's carving radius `k = Θ(log n/ε)` | constant unstated | `⌈0.2·ln ñ/ε⌉`, at least 3 | `SolveConfig::gkm_k_scale` (default 0.2), `GkmParams::new` |
//! | the ensemble's run count `T = O(ε⁻² log ñ)` (§4.2) | constant unstated | `⌈ln ñ/ε²⌉` clamped to 4..=48 | `ensemble::packing_ensemble_cached` |
//! | the ensemble's final step (§4.2) | a weighted Theorem 1.1 LDD | Lemma C.1 (Elkin–Neiman) on the re-weighted instance, or the best candidate if that is better | [`crate::ensemble`] |
//! | the `ensemble` backend on covering instances | packing only | handed to the Theorem 1.3 three-phase solver | `engine::Ensemble` |
//! | local computation | exact and free | exact search up to `SolverBudget::node_limit` (5,000,000 nodes), then the greedy-seeded incumbent, reported non-exact | `dapc_ilp::SolverBudget::default`, `dapc_ilp::solvers::{mis, bnb}` |

use dapc_ilp::SolverBudget;

/// The scaling knobs for the paper's leading constants: every adapter,
/// example and engine backend derives its [`PcParams`] through these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleKnobs {
    /// Replaces the `200` in `R = ⌈…·t·ln ñ/ε⌉`.
    pub r_scale: f64,
    /// Replaces the `16` in the preparation count `⌈…·ln ñ⌉`.
    pub prep_scale: f64,
    /// Replaces the `+8` in the covering iteration count.
    pub covering_t_slack: f64,
}

impl Default for ScaleKnobs {
    /// Laptop-scale defaults used throughout the examples and tests.
    fn default() -> Self {
        ScaleKnobs {
            r_scale: 0.02,
            prep_scale: 0.3,
            covering_t_slack: 1.0,
        }
    }
}

impl ScaleKnobs {
    /// The paper's constants (only sensible for very small inputs — the
    /// radii exceed any simulable diameter by orders of magnitude, which
    /// is *correct* but makes every cluster the whole graph).
    pub fn paper() -> Self {
        ScaleKnobs {
            r_scale: 200.0,
            prep_scale: 16.0,
            covering_t_slack: 8.0,
        }
    }

    /// Packing parameters for an explicit size hint `ñ` under these knobs
    /// — the one derivation `SolveConfig` and the `n`-variable helpers
    /// both delegate to.
    pub fn packing_params_for(&self, eps: f64, n_tilde: f64) -> PcParams {
        PcParams::packing_scaled(eps, n_tilde, self.r_scale, self.prep_scale)
    }

    /// Covering parameters for an explicit size hint `ñ` under these
    /// knobs.
    pub fn covering_params_for(&self, eps: f64, n_tilde: f64) -> PcParams {
        PcParams::covering_scaled(
            eps,
            n_tilde,
            self.r_scale,
            self.prep_scale,
            self.covering_t_slack,
        )
    }

    /// Packing parameters for an `n`-variable instance under these knobs.
    pub fn packing_params(&self, eps: f64, n: usize) -> PcParams {
        self.packing_params_for(eps, (n.max(3)) as f64)
    }

    /// Covering parameters for an `n`-variable instance under these knobs.
    pub fn covering_params(&self, eps: f64, n: usize) -> PcParams {
        self.covering_params_for(eps, (n.max(3)) as f64)
    }
}

/// Parameters of the Theorem 1.2 / 1.3 algorithms.
///
/// The `*_scaled` constructors take the two leading constants (the `200`
/// in `R` and the `16` in the preparation count) as arguments and keep the
/// *structure* — iteration counts, interval layout, sampling-probability
/// ratios — as printed; [`ScaleKnobs::paper`] passes the paper's values
/// (see [`ScaleKnobs`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcParams {
    /// Approximation parameter `ε`.
    pub eps: f64,
    /// Size hint `ñ ≥ max(|V|, W(OPT, V))`.
    pub n_tilde: f64,
    /// Phase 1 iteration count `t`.
    pub t: usize,
    /// Base interval length `R = ⌈r_scale·t·ln ñ/ε⌉`.
    pub r: usize,
    /// Number of preparation decompositions (`⌈prep_scale·ln ñ⌉`).
    pub prep_count: usize,
    /// Rate of the preparation decompositions (packing: `1/2`; covering:
    /// `ln(21/20)`).
    pub prep_lambda: f64,
    /// Radius of `S_C = N^{8tR}(C)` for the sampling estimates.
    pub sc_radius: usize,
    /// Rate of the final decomposition (packing Phase 3: `ε/10`; covering
    /// Phase 2 sparse cover: `ln((5+ε)/5)`).
    pub final_lambda: f64,
    /// Budget for every exact local solve.
    pub budget: SolverBudget,
    /// Concurrency cap for the preparation step's exact subset solves on
    /// the process-wide executor (default `1` = fully sequential). An
    /// *execution* knob, not an algorithm parameter: the preparation
    /// output is byte-identical at every worker count (see
    /// [`crate::prep::prepare`]).
    pub prep_workers: usize,
}

impl PcParams {
    fn common(
        eps: f64,
        n_tilde: f64,
        t: usize,
        r_scale: f64,
        prep_scale: f64,
    ) -> (usize, usize, usize) {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        assert!(n_tilde > 1.0, "n_tilde must exceed 1");
        let r = ((r_scale * t as f64 * n_tilde.ln()) / eps).ceil().max(2.0) as usize;
        let prep_count = (prep_scale * n_tilde.ln()).ceil().max(1.0) as usize;
        (r, prep_count, 8 * t * r)
    }

    /// Packing parameters (§4.1): `t = ⌈log₂(20/ε)⌉`,
    /// `R = ⌈r_scale·t·ln ñ/ε⌉`, `⌈prep_scale·ln ñ⌉` preparations at
    /// `λ = 1/2`, Phase 3 at `ε/10`.
    pub fn packing_scaled(eps: f64, n_tilde: f64, r_scale: f64, prep_scale: f64) -> Self {
        let t = (20.0 / eps).log2().ceil() as usize;
        let (r, prep_count, sc_radius) = Self::common(eps, n_tilde, t, r_scale, prep_scale);
        PcParams {
            eps,
            n_tilde,
            t,
            r,
            prep_count,
            prep_lambda: 0.5,
            sc_radius,
            final_lambda: eps / 10.0,
            budget: SolverBudget::default(),
            prep_workers: 1,
        }
    }

    /// Covering parameters (§5.1): `t = ⌈log₂ ln ñ + log₂(1/ε) + t_slack⌉`,
    /// where the paper's `t_slack` is 8 (§1.4.3 — covering skips Phase 2
    /// by lengthening Phase 1 to `O(log(1/ε) + log log n)`), preparations
    /// at `λ = ln(21/20)` and the final sparse cover at `λ = ln((5+ε)/5)`.
    pub fn covering_scaled(
        eps: f64,
        n_tilde: f64,
        r_scale: f64,
        prep_scale: f64,
        t_slack: f64,
    ) -> Self {
        assert!(n_tilde > std::f64::consts::E, "need ln ln ñ > 0");
        let t = (n_tilde.ln().log2() + (1.0 / eps).log2() + t_slack)
            .ceil()
            .max(1.0) as usize;
        let (r, prep_count, sc_radius) = Self::common(eps, n_tilde, t, r_scale, prep_scale);
        PcParams {
            eps,
            n_tilde,
            t,
            r,
            prep_count,
            prep_lambda: (21.0 / 20.0f64).ln(),
            sc_radius,
            final_lambda: ((5.0 + eps) / 5.0).ln(),
            budget: SolverBudget::default(),
            prep_workers: 1,
        }
    }

    /// Packing interval `I_i = [(t−i+2)·3R′+1, (t−i+3)·3R′]` with
    /// `R′ = R + 1` (§4.1); index `t + 1` is Phase 2's `[3R′+1, 6R′]`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= i <= t + 1`.
    pub fn packing_interval(&self, i: usize) -> (usize, usize) {
        assert!(i >= 1 && i <= self.t + 1, "iteration index out of range");
        let rp = 3 * (self.r + 1);
        let k = self.t + 2 - i;
        (k * rp + 1, (k + 1) * rp)
    }

    /// Covering interval `I_i = [(t−i+1)·2R+1, (t−i+2)·2R]` (§5.1).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= i <= t`.
    pub fn covering_interval(&self, i: usize) -> (usize, usize) {
        assert!(i >= 1 && i <= self.t, "iteration index out of range");
        let k = self.t + 1 - i;
        (k * 2 * self.r + 1, (k + 1) * 2 * self.r)
    }

    /// Centre-sampling probability of a cluster with local weight `w_c`
    /// and neighbourhood estimate `w_sc` in iteration `i`; Phase 2
    /// (packing only) is `i = t + 1` and gains the `ln(20/ε)` factor.
    pub fn sampling_probability(&self, i: usize, w_c: u64, w_sc: u64) -> f64 {
        if w_sc == 0 || w_c == 0 {
            return 0.0;
        }
        let base = 2f64.powi(i as i32) * w_c as f64 / w_sc as f64;
        if i == self.t + 1 {
            base * (20.0 / self.eps).ln()
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_paper_constants() {
        let p = ScaleKnobs::paper().packing_params_for(0.2, 1000.0);
        assert_eq!(p.t, 7);
        assert_eq!(p.r, ((200.0 * 7.0 * 1000f64.ln()) / 0.2).ceil() as usize);
        assert_eq!(p.prep_count, (16.0 * 1000f64.ln()).ceil() as usize);
        assert_eq!(p.prep_lambda, 0.5);
        assert_eq!(p.sc_radius, 8 * p.t * p.r);
    }

    #[test]
    fn covering_paper_constants() {
        let p = ScaleKnobs::paper().covering_params_for(0.2, 1000.0);
        let expected_t = (1000f64.ln().log2() + 5f64.log2() + 8.0).ceil() as usize;
        assert_eq!(p.t, expected_t);
        assert!((p.prep_lambda - (21.0f64 / 20.0).ln()).abs() < 1e-12);
        assert!((p.final_lambda - (5.2f64 / 5.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn packing_intervals_are_disjoint_mod3_aligned() {
        let p = PcParams::packing_scaled(0.25, 500.0, 1.0, 1.0);
        let rp = 3 * (p.r + 1);
        for i in 1..=p.t {
            let (a, b) = p.packing_interval(i);
            assert_eq!(b - a + 1, rp);
            assert_eq!(a % 3, 1, "a_i ≡ 1 (mod 3) so the windows tile");
            let (a_next, b_next) = p.packing_interval(i + 1);
            assert_eq!(a, b_next + 1);
            let _ = a_next;
        }
        assert_eq!(p.packing_interval(p.t + 1), (rp + 1, 2 * rp));
    }

    #[test]
    fn covering_intervals_tile() {
        let p = PcParams::covering_scaled(0.25, 500.0, 1.0, 1.0, 2.0);
        for i in 1..p.t {
            let (a, b) = p.covering_interval(i);
            assert_eq!(b - a + 1, 2 * p.r);
            let (_, b_next) = p.covering_interval(i + 1);
            assert_eq!(a, b_next + 1);
        }
        assert_eq!(p.covering_interval(p.t), (2 * p.r + 1, 4 * p.r));
    }

    #[test]
    fn sampling_probability_shapes() {
        let p = PcParams::packing_scaled(0.2, 100.0, 1.0, 1.0);
        assert_eq!(p.sampling_probability(3, 0, 10), 0.0);
        assert_eq!(p.sampling_probability(3, 10, 0), 0.0);
        let base = p.sampling_probability(1, 5, 1000);
        assert!((p.sampling_probability(2, 5, 1000) / base - 2.0).abs() < 1e-9);
        assert!(p.sampling_probability(p.t + 1, 5, 1000) > p.sampling_probability(p.t, 5, 1000));
    }

    #[test]
    fn covering_t_exceeds_packing_t() {
        // §1.4.3: covering lengthens Phase 1 by the log log n term.
        let pack = ScaleKnobs::paper().packing_params_for(0.2, 100_000.0);
        let cover = ScaleKnobs::paper().covering_params_for(0.2, 100_000.0);
        assert!(cover.t > pack.t);
    }
}
