//! The Elkin–Neiman low-diameter decomposition (Lemma C.1).
//!
//! Every vertex draws a capped exponential shift `T_v ~ Exp(λ)` and ranks
//! all vertices by `m_u(v) = T_u − dist(u, v)`; `v` is **deleted** when the
//! runner-up comes within 1 of the maximum, otherwise `v` joins the cluster
//! of the argmax. Guarantees (Lemma C.1): strong diameter `≤ 8 ln ñ / λ`,
//! per-vertex deletion probability `≤ 1 − e^{−λ} + ñ^{−3}`, and `4 ln ñ/λ`
//! rounds — but the *global* deletion count holds only **in expectation**,
//! which is exactly the deficiency (C1) that Theorem 1.1 repairs (see
//! Claim C.1 and the `three_phase` module).

use crate::result::Decomposition;
use crate::shift::{draw_shifts, propagate, Keep};
use dapc_graph::{Graph, Vertex};
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// Parameters of the Elkin–Neiman decomposition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnParams {
    /// Exponential rate `λ`; deletion probability is `≈ 1 − e^{−λ} ≈ λ`.
    pub lambda: f64,
    /// The global size hint `ñ ≥ n` (caps shifts at `4 ln ñ / λ`).
    pub n_tilde: f64,
}

impl EnParams {
    /// Parameters matching a target deletion fraction `λ` on an `ñ`-vertex
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lambda` and `n_tilde > 1`.
    pub fn new(lambda: f64, n_tilde: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        assert!(n_tilde > 1.0, "n_tilde must exceed 1");
        EnParams { lambda, n_tilde }
    }

    /// The round cost `⌈4 ln ñ / λ⌉` of one run (Lemma C.1).
    pub fn rounds(&self) -> usize {
        (4.0 * self.n_tilde.ln() / self.lambda).ceil() as usize
    }

    /// The strong-diameter guarantee `8 ln ñ / λ`.
    pub fn diameter_bound(&self) -> f64 {
        8.0 * self.n_tilde.ln() / self.lambda
    }

    /// The per-vertex deletion probability bound `1 − e^{−λ} + ñ^{−3}`.
    // dapc-allow(dead-pub): ROADMAP item 10, step 1 judges Lemma C.1's deletion rate against it
    pub fn deletion_probability_bound(&self) -> f64 {
        1.0 - (-self.lambda).exp() + self.n_tilde.powf(-3.0)
    }
}

/// Runs the Elkin–Neiman decomposition on the alive subgraph of `g`.
///
/// # Examples
///
/// ```
/// use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
/// use dapc_graph::gen;
///
/// let g = gen::grid(12, 12);
/// let mut rng = gen::seeded_rng(7);
/// let params = EnParams::new(0.4, 144.0);
/// let d = elkin_neiman(&g, &params, &mut rng, None);
/// d.validate(&g, None).unwrap();
/// assert!(f64::from(d.max_weak_diameter(&g)) <= params.diameter_bound());
/// ```
pub fn elkin_neiman(
    g: &Graph,
    params: &EnParams,
    rng: &mut StdRng,
    alive: Option<&[bool]>,
) -> Decomposition {
    let n = g.n();
    let shifts = draw_shifts(n, params.lambda, params.n_tilde, rng, alive);
    let labels = propagate(g, &shifts, Keep::Top(2), alive);
    let mut label_of: Vec<Option<Vertex>> = vec![None; n];
    for v in 0..n {
        if !alive.is_none_or(|a| a[v]) {
            continue;
        }
        let ls = &labels[v];
        match ls.len() {
            0 => {} // unreachable for alive vertices (own label), keep None
            1 => label_of[v] = Some(ls[0].source),
            _ => {
                if ls[1].value >= ls[0].value - 1.0 {
                    label_of[v] = None; // deleted
                } else {
                    label_of[v] = Some(ls[0].source);
                }
            }
        }
    }
    let mut ledger = RoundLedger::new();
    ledger.begin_phase("elkin-neiman broadcast");
    ledger.charge_gather(params.rounds());
    ledger.end_phase();
    Decomposition::from_labels(n, &label_of, alive, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_local::RoundCost;

    #[test]
    fn decomposition_is_valid_on_families() {
        let mut rng = gen::seeded_rng(11);
        for g in [
            gen::grid(10, 10),
            gen::cycle(60),
            gen::random_regular(80, 4, &mut rng),
            gen::random_tree(70, &mut rng),
        ] {
            let params = EnParams::new(0.3, g.n() as f64);
            let d = elkin_neiman(&g, &params, &mut rng, None);
            d.validate(&g, None).unwrap();
        }
    }

    #[test]
    fn diameter_bound_holds() {
        let mut rng = gen::seeded_rng(13);
        for seed in 0..10 {
            let g = gen::gnp(150, 0.02, &mut gen::seeded_rng(seed));
            let params = EnParams::new(0.5, 150.0);
            let d = elkin_neiman(&g, &params, &mut rng, None);
            let diam = d.max_strong_diameter(&g).expect("clusters connected");
            assert!(
                f64::from(diam) <= params.diameter_bound(),
                "strong diameter {diam} exceeds bound {}",
                params.diameter_bound()
            );
        }
    }

    #[test]
    fn deletion_rate_tracks_lambda_on_bounded_degree_graphs() {
        // On a large cycle the deletion probability should be ≈ 1 − e^{−λ}
        // (well below the generous per-vertex bound).
        let mut rng = gen::seeded_rng(17);
        let g = gen::cycle(4000);
        let params = EnParams::new(0.2, 4000.0);
        let mut total_deleted = 0usize;
        let trials = 10;
        for _ in 0..trials {
            let d = elkin_neiman(&g, &params, &mut rng, None);
            total_deleted += d.deleted_count();
        }
        let rate = total_deleted as f64 / (trials * g.n()) as f64;
        let expected = 1.0 - (-params.lambda_for_tests()).exp();
        assert!(
            rate < 2.0 * expected + 0.02,
            "deletion rate {rate} far above expectation {expected}"
        );
        assert!(rate > 0.0, "some deletions must occur at this scale");
    }

    #[test]
    fn masked_run_only_touches_alive() {
        let mut rng = gen::seeded_rng(19);
        let g = gen::grid(8, 8);
        let alive: Vec<bool> = (0..64).map(|v| v % 3 != 0).collect();
        let params = EnParams::new(0.4, 64.0);
        let d = elkin_neiman(&g, &params, &mut rng, Some(&alive));
        d.validate(&g, Some(&alive)).unwrap();
        for (v, &live) in alive.iter().enumerate() {
            if !live {
                assert!(d.cluster_of[v].is_none());
                assert!(!d.deleted[v]);
            }
        }
    }

    #[test]
    fn rounds_match_lemma() {
        let params = EnParams::new(0.25, 1000.0);
        let mut rng = gen::seeded_rng(2);
        let g = gen::path(10);
        let d = elkin_neiman(&g, &params, &mut rng, None);
        assert_eq!(d.rounds(), (4.0 * 1000f64.ln() / 0.25).ceil() as usize);
    }

    #[test]
    fn everything_clusters_when_lambda_tiny() {
        // λ so small that shifts dwarf the graph: one cluster, no deletions
        // (almost surely).
        let mut rng = gen::seeded_rng(3);
        let g = gen::path(30);
        let params = EnParams::new(0.01, 30.0);
        let d = elkin_neiman(&g, &params, &mut rng, None);
        assert!(d.deleted_fraction() < 0.5);
        d.validate(&g, None).unwrap();
    }

    impl EnParams {
        pub(crate) fn lambda_for_tests(&self) -> f64 {
            self.lambda
        }
    }
}
