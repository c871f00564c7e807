//! The blackbox LDD construction of Coiteux-Roy et al. (§1.6 of the paper,
//! [CRdG+23, Theorem 3.10]).
//!
//! Given any whp `(1/2, O(log n))` decomposition (we use Theorem 1.1 at
//! `ε = 1/2`), an `(ε, O(log n/ε))` decomposition follows in
//! `O(log(1/ε)·log n/ε)` rounds — replacing the `log³(1/ε)` factor of
//! Theorem 1.1 by `log(1/ε)`:
//!
//! 1. run the half decomposition on the power graph `G^k`, `k = Θ(1/ε)`;
//! 2. clusters are `> k`-separated in `G`; each ball-grows `k/2` hops and
//!    deletes its sparsest layer;
//! 3. repeat on the leftovers `O(log(1/ε))` times (≥ half the vertices
//!    leave per round), then delete what remains (`O(εn)` whp).

use crate::result::Decomposition;
use crate::three_phase::{three_phase_ldd, LddParams};
use dapc_graph::{power, traversal, Graph, Vertex};
use dapc_local::{RoundCost, RoundLedger};
use rand::rngs::StdRng;

/// Parameters of the blackbox construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlackboxParams {
    /// Target deleted fraction `ε`.
    pub eps: f64,
    /// Size hint `ñ ≥ n`.
    pub n_tilde: f64,
    /// Hop separation `k = ⌈k_scale/ε⌉`.
    pub k: usize,
    /// Number of repetitions (`⌈log₂(1/ε)⌉ + 1` by default).
    pub repetitions: usize,
    /// `r_scale` forwarded to the inner Theorem 1.1 run at `ε = 1/2`.
    pub inner_r_scale: f64,
}

impl BlackboxParams {
    /// Default parametrisation: `k = ⌈2/ε⌉`, `⌈log₂(1/ε)⌉ + 1` repetitions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1` and `n_tilde > 1`.
    pub fn new(eps: f64, n_tilde: f64, inner_r_scale: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        assert!(n_tilde > 1.0, "n_tilde must exceed 1");
        BlackboxParams {
            eps,
            n_tilde,
            k: (2.0 / eps).ceil() as usize,
            repetitions: (1.0 / eps).log2().ceil() as usize + 1,
            inner_r_scale,
        }
    }
}

/// Runs the blackbox construction.
///
/// ```
/// use dapc_decomp::blackbox::{blackbox_ldd, BlackboxParams};
/// use dapc_graph::gen;
///
/// let g = gen::grid(9, 9);
/// let params = BlackboxParams::new(0.3, 81.0, 0.02);
/// let d = blackbox_ldd(&g, &params, &mut gen::seeded_rng(5));
/// d.validate(&g, None).unwrap();
/// ```
pub fn blackbox_ldd(g: &Graph, params: &BlackboxParams, rng: &mut StdRng) -> Decomposition {
    let n = g.n();
    let mut alive = vec![true; n]; // not yet clustered or deleted
    let mut labels: Vec<Option<Vertex>> = vec![None; n];
    let mut next_label = 0u32;
    let mut ledger = RoundLedger::new();
    let inner = LddParams::scaled(0.5, params.n_tilde, params.inner_r_scale);
    let grow = (params.k / 2).max(1);

    for rep in 0..params.repetitions {
        if !alive.iter().any(|&a| a) {
            break;
        }
        // 1. Half-decomposition on the power graph of the residual.
        //    Building G^k[alive] centrally; one round of G^k costs k rounds
        //    of G, and the ledger charges accordingly.
        let gk = power::power_graph(g, params.k, Some(&alive));
        let half = three_phase_ldd(&gk, &inner, rng, Some(&alive));
        ledger.begin_phase(format!("rep{rep}: half-LDD on G^k (×k rounds)"));
        ledger.charge_gather(half.decomposition.rounds() * params.k);
        ledger.end_phase();

        // 2. Ball-grow each cluster k/2 hops in G, carve sparsest layer.
        ledger.begin_phase(format!("rep{rep}: grow {grow} hops and carve"));
        ledger.charge_gather(grow);
        ledger.end_phase();
        let mut to_delete: Vec<Vertex> = Vec::new();
        let mut to_cluster: Vec<(Vertex, u32)> = Vec::new();
        for cluster in &half.decomposition.clusters {
            let ball = traversal::ball(g, cluster, grow, Some(&alive));
            // Sparsest layer in [1, grow] (empty layers short-circuit).
            let mut j_star = 1usize;
            let mut best = usize::MAX;
            for j in 1..=grow {
                let s = ball.level(j).len();
                if s < best {
                    best = s;
                    j_star = j;
                    if s == 0 {
                        break;
                    }
                }
            }
            for &v in ball.level(j_star) {
                to_delete.push(v);
            }
            let label = next_label;
            next_label += 1;
            for v in ball.within(j_star - 1) {
                to_cluster.push((v, label));
            }
        }
        // Different clusters' balls are disjoint (clusters are > k apart in
        // G and we grow ≤ k/2), so the assignments never conflict.
        for v in to_delete {
            alive[v as usize] = false; // deleted: label stays None
        }
        for (v, label) in to_cluster {
            if alive[v as usize] {
                labels[v as usize] = Some(label);
                alive[v as usize] = false;
            }
        }
        // Unclustered vertices of the half-LDD stay alive for next rep.
    }
    // Whatever is still alive is deleted (O(εn) whp).
    Decomposition::from_labels(n, &labels, None, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    #[test]
    fn valid_on_families() {
        let mut rng = gen::seeded_rng(61);
        for g in [
            gen::grid(9, 9),
            gen::cycle(100),
            gen::random_tree(90, &mut rng),
        ] {
            let params = BlackboxParams::new(0.3, g.n() as f64, 0.02);
            let d = blackbox_ldd(&g, &params, &mut rng);
            d.validate(&g, None).unwrap();
        }
    }

    #[test]
    fn deletion_budget_reasonable() {
        let g = gen::grid(16, 16);
        let mut worst = 0.0f64;
        for seed in 0..10 {
            let params = BlackboxParams::new(0.4, 256.0, 0.02);
            let d = blackbox_ldd(&g, &params, &mut gen::seeded_rng(seed));
            worst = worst.max(d.deleted_fraction());
        }
        assert!(worst <= 0.4 + 1e-9, "deleted fraction {worst} above ε");
    }

    #[test]
    fn balls_of_distinct_clusters_never_collide() {
        // Structural property: the function must never try to assign one
        // vertex to two clusters. `from_labels` + validate would catch
        // duplicates via cluster/id mismatch; run a few seeds.
        let g = gen::gnp(150, 0.03, &mut gen::seeded_rng(3));
        for seed in 0..5 {
            let params = BlackboxParams::new(0.25, 150.0, 0.02);
            let d = blackbox_ldd(&g, &params, &mut gen::seeded_rng(seed));
            d.validate(&g, None).unwrap();
        }
    }

    #[test]
    fn rounds_grow_slower_in_one_over_eps_than_three_phase() {
        // The headline of §1.6 is asymptotic: log(1/ε) vs log³(1/ε) in the
        // round complexity. At simulable sizes the constants differ, so we
        // compare *growth* as ε shrinks 16×: the blackbox's round count
        // must grow by a smaller factor than the three-phase LDD's.
        let g = gen::cycle(64);
        let (eps_large, eps_small) = (0.2, 0.0125);
        let rounds_bb = |eps: f64| {
            let p = BlackboxParams::new(eps, 64.0, 0.02);
            blackbox_ldd(&g, &p, &mut gen::seeded_rng(1)).rounds()
        };
        let rounds_tp = |eps: f64| {
            let p = LddParams::scaled(eps, 64.0, 0.02);
            three_phase_ldd(&g, &p, &mut gen::seeded_rng(1), None)
                .decomposition
                .rounds()
        };
        let growth_bb = rounds_bb(eps_small) as f64 / rounds_bb(eps_large) as f64;
        let growth_tp = rounds_tp(eps_small) as f64 / rounds_tp(eps_large) as f64;
        assert!(
            growth_bb < growth_tp,
            "blackbox growth {growth_bb:.2} should undercut three-phase growth {growth_tp:.2}"
        );
    }
}
