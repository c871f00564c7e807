//! The hyperedge sparse cover of Lemma C.2.
//!
//! A variant of the random-shift decomposition in which nothing is deleted:
//! every vertex joins the cluster of **every** source whose value comes
//! within 1 of its maximum. Guarantees:
//!
//! * every hyperedge is completely contained in at least one cluster;
//! * the number of clusters containing a vertex is dominated by
//!   `Geometric(e^{−λ}) + ñ^{−2}`;
//! * weak diameter `≤ 8 ln ñ / λ`, in `4 ln ñ / λ` rounds.
//!
//! This is the engine of the covering algorithm (§5): local covering
//! solutions on the clusters are OR-combined (Lemma C.3), and the
//! multiplicity bound caps the overcounting.

use crate::result::ClusterIds;
use crate::shift::{draw_shifts, propagate_by, Keep, Labels};
use dapc_graph::{EdgeId, Hypergraph, Vertex};
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// A sparse cover: overlapping clusters covering every hyperedge.
#[derive(Clone, Debug)]
pub struct SparseCover {
    /// Sorted vertex lists per cluster.
    pub clusters: Vec<Vec<Vertex>>,
    /// The cluster ids containing each vertex, as a flat CSR array: vertex
    /// `v`'s are `member_ids[member_starts[v]..member_starts[v + 1]]`.
    member_starts: Vec<u32>,
    member_ids: Vec<u32>,
    /// LOCAL round cost.
    pub ledger: RoundLedger,
}

impl dapc_local::RoundCost for SparseCover {
    fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }
}

impl SparseCover {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the cover has no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The ids of the clusters containing `v`, in the order of `v`'s
    /// labels (best first).
    pub fn clusters_of(&self, v: Vertex) -> &[u32] {
        let v = v as usize;
        &self.member_ids[self.member_starts[v] as usize..self.member_starts[v + 1] as usize]
    }

    /// The multiplicity `X_v` (number of clusters containing `v`).
    pub fn multiplicity(&self, v: Vertex) -> usize {
        self.clusters_of(v).len()
    }

    /// Mean multiplicity over vertices with non-zero multiplicity.
    pub fn mean_multiplicity(&self) -> f64 {
        let covered = self
            .member_starts
            .windows(2)
            .filter(|w| w[1] > w[0])
            .count();
        if covered == 0 {
            0.0
        } else {
            self.member_ids.len() as f64 / covered as f64
        }
    }

    /// Ids of alive hyperedges *not* fully contained in any cluster
    /// (Lemma C.2 guarantees this is empty).
    pub fn uncovered_edges(
        &self,
        h: &Hypergraph,
        alive_vertices: Option<&[bool]>,
        alive_edges: Option<&[bool]>,
    ) -> Vec<EdgeId> {
        let mut cluster_sets: Vec<std::collections::BTreeSet<Vertex>> = self
            .clusters
            .iter()
            .map(|c| c.iter().copied().collect())
            .collect();
        // Sort by size descending: big clusters cover most edges, so check
        // them first.
        let mut order: Vec<usize> = (0..cluster_sets.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(cluster_sets[i].len()));
        cluster_sets = order.iter().map(|&i| cluster_sets[i].clone()).collect();
        h.hyperedges()
            .filter(|&(e, members)| {
                if alive_edges.is_some_and(|a| !a[e as usize]) {
                    return false; // dead edges need no coverage
                }
                let live: Vec<Vertex> = members
                    .iter()
                    .copied()
                    .filter(|&v| alive_vertices.is_none_or(|a| a[v as usize]))
                    .collect();
                if live.is_empty() {
                    return false;
                }
                !cluster_sets
                    .iter()
                    .any(|cs| live.iter().all(|v| cs.contains(v)))
            })
            .map(|(e, _)| e)
            .collect()
    }
}

/// Computes a sparse cover of the alive part of `h` (Lemma C.2) with rate
/// `lambda` and size hint `n_tilde`.
///
/// # Examples
///
/// ```
/// use dapc_decomp::sparse_cover::sparse_cover;
/// use dapc_graph::{gen, Hypergraph};
///
/// let g = gen::grid(6, 6);
/// let h = Hypergraph::from_graph(&g);
/// let cover = sparse_cover(&h, 0.3, 36.0, &mut gen::seeded_rng(3), None, None);
/// assert!(cover.uncovered_edges(&h, None, None).is_empty());
/// ```
pub fn sparse_cover(
    h: &Hypergraph,
    lambda: f64,
    n_tilde: f64,
    rng: &mut StdRng,
    alive_vertices: Option<&[bool]>,
    alive_edges: Option<&[bool]>,
) -> SparseCover {
    let n = h.n();
    let shifts = draw_shifts(n, lambda, n_tilde, rng, alive_vertices);
    let labels = cover_labels(h, &shifts, alive_vertices, alive_edges);
    // Group into clusters by source; the membership shares the labels' CSR
    // layout, one cluster id per label.
    let mut ids = ClusterIds::new(n);
    let member_ids: Vec<u32> = labels.all.iter().map(|l| ids.assign(l.source)).collect();
    let member_starts = labels.starts;
    let mut clusters = ids.clusters();
    for v in 0..n {
        let range = member_starts[v] as usize..member_starts[v + 1] as usize;
        for &id in &member_ids[range] {
            clusters[id as usize].push(v as Vertex);
        }
    }
    let mut ledger = RoundLedger::new();
    ledger.begin_phase("sparse-cover broadcast");
    ledger.charge_gather((4.0 * n_tilde.ln() / lambda).ceil() as usize);
    ledger.end_phase();
    SparseCover {
        clusters,
        member_starts,
        member_ids,
        ledger,
    }
}

/// The labels of Lemma C.2's propagation in the primal metric: every label
/// within 1 of its vertex's best, relayed across alive hyperedges to their
/// alive vertices.
fn cover_labels(
    h: &Hypergraph,
    shifts: &[f64],
    alive_vertices: Option<&[bool]>,
    alive_edges: Option<&[bool]>,
) -> Labels {
    let v_ok = move |v: Vertex| alive_vertices.is_none_or(|a| a[v as usize]);
    let e_ok = move |e: EdgeId| alive_edges.is_none_or(|a| a[e as usize]);
    propagate_by(shifts, Keep::WithinSlackOfBest(1.0), alive_vertices, |v| {
        h.incident_edges(v)
            .iter()
            .filter(move |&&e| e_ok(e))
            .flat_map(move |&e| {
                h.edge(e)
                    .iter()
                    .copied()
                    .filter(move |&w| w != v && v_ok(w))
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::{gen, traversal, Hypergraph};

    #[test]
    fn every_edge_is_covered() {
        let mut rng = gen::seeded_rng(21);
        for seed in 0..5 {
            let g = gen::gnp(100, 0.04, &mut gen::seeded_rng(seed));
            let h = Hypergraph::from_graph(&g);
            let cover = sparse_cover(&h, 0.4, 100.0, &mut rng, None, None);
            assert!(
                cover.uncovered_edges(&h, None, None).is_empty(),
                "seed {seed}: some edge uncovered"
            );
        }
    }

    #[test]
    fn genuine_hyperedges_are_covered() {
        // Random 4-uniform hypergraph.
        let mut rng = gen::seeded_rng(22);
        use rand::RngExt;
        let n = 80;
        let edges: Vec<Vec<Vertex>> = (0..120)
            .map(|_| {
                let mut e: Vec<Vertex> = Vec::new();
                while e.len() < 4 {
                    let v = rng.random_range(0..n) as Vertex;
                    if !e.contains(&v) {
                        e.push(v);
                    }
                }
                e
            })
            .collect();
        let h = Hypergraph::new(n, edges);
        let cover = sparse_cover(&h, 0.3, n as f64, &mut rng, None, None);
        assert!(cover.uncovered_edges(&h, None, None).is_empty());
    }

    #[test]
    fn multiplicity_is_near_one_for_small_lambda() {
        // E[X_v] ≤ e^{λ} ≈ 1 + λ; empirical mean should be close.
        let g = gen::grid(25, 25);
        let h = Hypergraph::from_graph(&g);
        let mut rng = gen::seeded_rng(23);
        let lambda = 0.1f64;
        let mut mean = 0.0;
        let trials = 5;
        for _ in 0..trials {
            let cover = sparse_cover(&h, lambda, 625.0, &mut rng, None, None);
            mean += cover.mean_multiplicity();
        }
        mean /= trials as f64;
        let bound = lambda.exp();
        assert!(
            mean <= bound * 1.25,
            "mean multiplicity {mean} far above e^λ = {bound}"
        );
        assert!(mean >= 1.0);
    }

    #[test]
    fn every_vertex_is_in_some_cluster() {
        let g = gen::cycle(100);
        let h = Hypergraph::from_graph(&g);
        let cover = sparse_cover(&h, 0.5, 100.0, &mut gen::seeded_rng(24), None, None);
        for v in 0..100 {
            assert!(
                cover.multiplicity(v) >= 1,
                "vertex {v} uncovered (sparse covers never delete)"
            );
        }
    }

    #[test]
    fn weak_diameter_bound_holds() {
        let g = gen::gnp(150, 0.025, &mut gen::seeded_rng(25));
        let h = Hypergraph::from_graph(&g);
        let lambda = 0.5;
        let cover = sparse_cover(&h, lambda, 150.0, &mut gen::seeded_rng(26), None, None);
        let bound = 8.0 * 150f64.ln() / lambda;
        let primal = h.primal_graph();
        for c in &cover.clusters {
            let d = traversal::max_weak_diameter(&primal, [c.as_slice()])
                .expect("cluster connected in H");
            assert!(
                f64::from(d) <= bound,
                "cluster diameter {d} > bound {bound}"
            );
        }
    }

    #[test]
    fn cover_labels_match_the_heap_reference() {
        use crate::shift::tests::{bits, heap_bits, heap_propagate, integer_shifts};
        use rand::RngExt;
        let mut rng = gen::seeded_rng(43);
        for round in 0..9 {
            let n = 30 + 15 * round;
            let lambda = [0.3, 1.0, 3.0][round % 3];
            let edges: Vec<Vec<Vertex>> = (0..n)
                .map(|_| {
                    let size = rng.random_range(1..5);
                    (0..size)
                        .map(|_| rng.random_range(0..n) as Vertex)
                        .collect()
                })
                .collect();
            let h = Hypergraph::new(n, edges);
            let mask_v: Vec<bool> = (0..n).map(|_| rng.random_bool(0.8)).collect();
            let mask_e: Vec<bool> = (0..h.m()).map(|_| rng.random_bool(0.7)).collect();
            let (v, e) = (Some(mask_v.as_slice()), Some(mask_e.as_slice()));
            for (alive_v, alive_e) in [(None, None), (v, None), (None, e), (v, e)] {
                let continuous = draw_shifts(n, lambda, n as f64, &mut rng, alive_v);
                let integer = integer_shifts(n, &mut rng);
                for (kind, shifts) in [("continuous", continuous), ("integer", integer)] {
                    let relay = |u: Vertex| {
                        let mut out = Vec::new();
                        for &e in h.incident_edges(u) {
                            if alive_e.is_some_and(|a| !a[e as usize]) {
                                continue;
                            }
                            for &w in h.edge(e) {
                                if w != u && alive_v.is_none_or(|a| a[w as usize]) {
                                    out.push(w);
                                }
                            }
                        }
                        out.into_iter()
                    };
                    let reference =
                        heap_propagate(&shifts, Keep::WithinSlackOfBest(1.0), alive_v, relay);
                    assert_eq!(
                        bits(&cover_labels(&h, &shifts, alive_v, alive_e)),
                        heap_bits(&reference),
                        "n={n} {kind} shifts, vertex mask={}, edge mask={}",
                        alive_v.is_some(),
                        alive_e.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn masked_cover_ignores_dead_parts() {
        let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]]);
        let alive_v = vec![true, true, true, false, false, false];
        let alive_e = vec![true, true, false];
        let cover = sparse_cover(
            &h,
            0.5,
            6.0,
            &mut gen::seeded_rng(27),
            Some(&alive_v),
            Some(&alive_e),
        );
        // Dead vertices belong to no cluster.
        for v in 3..6 {
            assert_eq!(cover.multiplicity(v), 0);
        }
        // Edge 0 is alive and fully alive-supported: must be covered.
        assert!(cover
            .uncovered_edges(&h, Some(&alive_v), Some(&alive_e))
            .is_empty());
    }
}
