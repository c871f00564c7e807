//! The Miller–Peng–Xu random-shift clustering (edge-cutting variant).
//!
//! Every vertex joins the cluster of the source maximising
//! `m_u(v) = T_u − dist(u, v)`; an edge is *deleted* when its endpoints land
//! in different clusters. The expected number of deleted edges is
//! `O(λ·|E|)`, but — Claim C.2 of the paper — there are graph families on
//! which a `(1 − O(1/n))` fraction of the edges is deleted with probability
//! `Ω(λ)`. The experiment E2 reproduces that failure mode.

use crate::shift::{draw_shifts, propagate, Keep};
use dapc_graph::{Graph, Vertex};
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// Result of an MPX clustering run.
#[derive(Clone, Debug)]
pub struct MpxClustering {
    /// The winning centre per vertex.
    pub center_of: Vec<Vertex>,
    /// Edges whose endpoints disagree (the deleted edges).
    pub cut_edges: Vec<(Vertex, Vertex)>,
    /// LOCAL round cost.
    pub ledger: RoundLedger,
}

/// Runs MPX with rate `lambda` and size hint `n_tilde`.
///
/// ```
/// use dapc_decomp::mpx::mpx;
/// use dapc_graph::gen;
///
/// let g = gen::grid(10, 10);
/// let c = mpx(&g, 0.3, 100.0, &mut gen::seeded_rng(1));
/// // Clusters partition the vertices; cut edges join different clusters.
/// for &(u, v) in &c.cut_edges {
///     assert_ne!(c.center_of[u as usize], c.center_of[v as usize]);
/// }
/// ```
pub fn mpx(g: &Graph, lambda: f64, n_tilde: f64, rng: &mut StdRng) -> MpxClustering {
    let n = g.n();
    let shifts = draw_shifts(n, lambda, n_tilde, rng, None);
    let labels = propagate(g, &shifts, Keep::Top(1), None);
    let center_of: Vec<Vertex> = (0..n)
        .map(|v| labels[v].first().map(|l| l.source).unwrap_or(v as Vertex))
        .collect();
    let cut_edges: Vec<(Vertex, Vertex)> = g
        .edges()
        .filter(|&(u, v)| center_of[u as usize] != center_of[v as usize])
        .collect();
    let mut ledger = RoundLedger::new();
    ledger.begin_phase("mpx broadcast");
    ledger.charge_gather((4.0 * n_tilde.ln() / lambda).ceil() as usize);
    ledger.end_phase();
    MpxClustering {
        center_of,
        cut_edges,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    #[test]
    fn clusters_cover_all_vertices() {
        let g = gen::grid(9, 9);
        let c = mpx(&g, 0.3, 81.0, &mut gen::seeded_rng(4));
        assert_eq!(c.center_of.len(), 81);
    }

    #[test]
    fn clusters_are_connected_to_their_centres() {
        // MPX clusters are "shortest-path" clusters: walking from v toward
        // its centre stays in the cluster. We verify connectivity of each
        // cluster's induced subgraph.
        let g = gen::gnp(120, 0.04, &mut gen::seeded_rng(5));
        let c = mpx(&g, 0.4, 120.0, &mut gen::seeded_rng(6));
        let mut members: std::collections::HashMap<Vertex, Vec<Vertex>> = Default::default();
        for (v, &ctr) in c.center_of.iter().enumerate() {
            members.entry(ctr).or_default().push(v as Vertex);
        }
        for (ctr, vs) in members {
            let (sub, _) = g.induced_subgraph(&vs);
            let (_, k) = sub.connected_components();
            assert_eq!(k, 1, "cluster of centre {ctr} disconnected");
        }
    }

    #[test]
    fn expected_cut_fraction_scales_with_lambda() {
        // On a bounded-degree graph the cut fraction tracks O(λ).
        let g = gen::grid(40, 40);
        let mut rng = gen::seeded_rng(7);
        let mut frac_small = 0.0;
        let mut frac_large = 0.0;
        let trials = 8;
        let m = g.m() as f64;
        for _ in 0..trials {
            frac_small += mpx(&g, 0.05, 1600.0, &mut rng).cut_edges.len() as f64 / m;
            frac_large += mpx(&g, 0.5, 1600.0, &mut rng).cut_edges.len() as f64 / m;
        }
        frac_small /= trials as f64;
        frac_large /= trials as f64;
        assert!(
            frac_small < frac_large,
            "cut fraction must grow with lambda ({frac_small} vs {frac_large})"
        );
        assert!(
            frac_small < 0.25,
            "λ=0.05 should cut few edges: {frac_small}"
        );
    }

    #[test]
    fn cut_edges_are_exactly_the_disagreements() {
        let g = gen::cycle(50);
        let c = mpx(&g, 0.3, 50.0, &mut gen::seeded_rng(8));
        let recount = g
            .edges()
            .filter(|&(u, v)| c.center_of[u as usize] != c.center_of[v as usize])
            .count();
        assert_eq!(recount, c.cut_edges.len());
    }
}
