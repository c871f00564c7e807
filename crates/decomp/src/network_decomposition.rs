//! Randomised network decomposition (Linial–Saks style, via Elkin–Neiman
//! recursion) — the substrate of the GKM17 baseline (§1.2 of the paper).
//!
//! A `(C, D)` network decomposition partitions `V` into clusters of weak
//! diameter `≤ D`, each coloured from `{1, …, C}` so that no two adjacent
//! clusters share a colour. Repeating Lemma C.1 at `λ = 1/2` on the
//! residual vertex set clusters a constant fraction per round; `O(log n)`
//! rounds give `C = O(log n)` colours of diameter `O(log n)` clusters with
//! probability `1 − 1/poly(n)` — the classical [LS93] bounds.

use crate::elkin_neiman::{elkin_neiman, EnParams};
use dapc_graph::{traversal, Graph, Vertex};
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// A coloured clustering of the whole vertex set.
#[derive(Clone, Debug)]
pub struct NetworkDecomposition {
    /// Colour per vertex (`= the phase in which it clustered`).
    pub color_of: Vec<u32>,
    /// Cluster id per vertex.
    pub cluster_of: Vec<u32>,
    /// For each cluster: its colour and sorted members.
    pub clusters: Vec<(u32, Vec<Vertex>)>,
    /// Number of colours used.
    pub colors: u32,
    /// LOCAL round cost.
    pub ledger: RoundLedger,
}

impl NetworkDecomposition {
    /// Checks that same-coloured clusters are mutually non-adjacent and
    /// that clusters partition `V`.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        for (u, v) in g.edges() {
            let (cu, cv) = (self.cluster_of[u as usize], self.cluster_of[v as usize]);
            if cu != cv && self.color_of[u as usize] == self.color_of[v as usize] {
                return Err(format!("adjacent same-colour clusters at edge ({u}, {v})"));
            }
        }
        let mut seen = vec![false; self.color_of.len()];
        for (_, members) in &self.clusters {
            for &v in members {
                if seen[v as usize] {
                    return Err(format!("vertex {v} in two clusters"));
                }
                seen[v as usize] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("some vertex is unclustered".into());
        }
        Ok(())
    }

    /// Maximum weak diameter over clusters.
    pub fn max_weak_diameter(&self, g: &Graph) -> u32 {
        traversal::max_weak_diameter(g, self.clusters.iter().map(|(_, c)| c.as_slice()))
            .expect("clusters connected")
    }
}

/// Computes an `(O(log ñ), O(log ñ))` network decomposition by repeating
/// Lemma C.1 at `λ = 1/2` on the residual vertices; phase `i` clusters get
/// colour `i`.
///
/// # Panics
///
/// Panics if `n_tilde <= 1`.
///
/// ```
/// use dapc_decomp::network_decomposition::network_decomposition;
/// use dapc_graph::gen;
///
/// let g = gen::grid(9, 9);
/// let nd = network_decomposition(&g, 81.0, &mut gen::seeded_rng(2));
/// nd.validate(&g).unwrap();
/// assert!(nd.colors as f64 <= 4.0 * 81f64.ln());
/// ```
pub fn network_decomposition(g: &Graph, n_tilde: f64, rng: &mut StdRng) -> NetworkDecomposition {
    assert!(n_tilde > 1.0);
    let n = g.n();
    let params = EnParams::new(0.5, n_tilde);
    let mut remaining: Vec<bool> = vec![true; n];
    let mut color_of = vec![u32::MAX; n];
    let mut cluster_of = vec![u32::MAX; n];
    let mut clusters: Vec<(u32, Vec<Vertex>)> = Vec::new();
    let mut ledger = RoundLedger::new();
    let mut color = 0u32;
    // Whp O(log n) phases suffice; the hard cap keeps adversarial seeds
    // terminating (the tail phases cluster greedily).
    let max_colors = (8.0 * n_tilde.ln()).ceil() as u32 + 2;
    while remaining.iter().any(|&r| r) {
        if color >= max_colors {
            // Give every leftover vertex its own singleton cluster in a
            // fresh colour each — preserves validity, costs colours.
            for v in 0..n {
                if remaining[v] {
                    color_of[v] = color;
                    cluster_of[v] = clusters.len() as u32;
                    clusters.push((color, vec![v as Vertex]));
                    color += 1;
                }
            }
            break;
        }
        let d = elkin_neiman(g, &params, rng, Some(&remaining));
        ledger.absorb(d.ledger.clone());
        for (i, members) in d.clusters.iter().enumerate() {
            let _ = i;
            let id = clusters.len() as u32;
            for &v in members {
                color_of[v as usize] = color;
                cluster_of[v as usize] = id;
                remaining[v as usize] = false;
            }
            clusters.push((color, members.clone()));
        }
        // Deleted vertices stay for the next phase.
        color += 1;
    }
    NetworkDecomposition {
        color_of,
        cluster_of,
        clusters,
        colors: color,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    #[test]
    fn valid_on_families() {
        let mut rng = gen::seeded_rng(51);
        for g in [
            gen::grid(10, 10),
            gen::cycle(120),
            gen::gnp(100, 0.05, &mut rng),
            gen::complete(30),
        ] {
            let nd = network_decomposition(&g, g.n() as f64, &mut rng);
            nd.validate(&g).unwrap();
        }
    }

    #[test]
    fn colors_are_logarithmic() {
        let mut rng = gen::seeded_rng(52);
        let g = gen::grid(20, 20);
        let nd = network_decomposition(&g, 400.0, &mut rng);
        assert!(
            (nd.colors as f64) <= 6.0 * 400f64.ln(),
            "colors {} not O(log n)",
            nd.colors
        );
        assert!(nd.colors >= 1);
    }

    #[test]
    fn diameter_is_logarithmic() {
        let mut rng = gen::seeded_rng(53);
        let g = gen::gnp(200, 0.02, &mut rng);
        let nd = network_decomposition(&g, 200.0, &mut rng);
        let bound = 16.0 * 200f64.ln(); // 8 ln ñ / λ with λ = 1/2
        assert!(f64::from(nd.max_weak_diameter(&g)) <= bound);
    }

    #[test]
    fn every_vertex_has_color_and_cluster() {
        let mut rng = gen::seeded_rng(54);
        let g = gen::random_tree(150, &mut rng);
        let nd = network_decomposition(&g, 150.0, &mut rng);
        assert!(nd.color_of.iter().all(|&c| c != u32::MAX));
        assert!(nd.cluster_of.iter().all(|&c| c != u32::MAX));
    }

    #[test]
    fn rounds_are_polylog() {
        let mut rng = gen::seeded_rng(55);
        let g = gen::grid(15, 15);
        let nd = network_decomposition(&g, 225.0, &mut rng);
        // colors * (8 ln ñ / λ) = O(log² n).
        let per_phase = (4.0 * 225f64.ln() / 0.5).ceil() as usize;
        assert!(nd.ledger.total_rounds() <= (nd.colors as usize + 1) * per_phase);
    }
}
