//! The common output type of all low-diameter decompositions.

use dapc_graph::{traversal, Graph, Vertex};
use dapc_local::{RoundCost, RoundLedger};

/// A low-diameter decomposition (Definition 1.4): a partition of the alive
/// vertices into mutually non-adjacent clusters plus a set of deleted
/// ("unclustered") vertices.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Cluster id per vertex; `None` = deleted (or outside the alive mask).
    pub cluster_of: Vec<Option<u32>>,
    /// Vertex lists per cluster (sorted).
    pub clusters: Vec<Vec<Vertex>>,
    /// Deletion mask (only meaningful for alive vertices).
    pub deleted: Vec<bool>,
    /// LOCAL round cost of computing the decomposition.
    pub ledger: RoundLedger,
}

impl Decomposition {
    /// Assembles a decomposition from a per-vertex cluster-centre label:
    /// clusters are the groups of equal `Some(centre)`; `None` = deleted.
    /// Vertices outside `alive` are neither deleted nor clustered.
    pub fn from_labels(
        n: usize,
        label: &[Option<Vertex>],
        alive: Option<&[bool]>,
        ledger: RoundLedger,
    ) -> Self {
        assert_eq!(label.len(), n);
        let is_alive = |v: usize| alive.is_none_or(|a| a[v]);
        let mut centre_ids: std::collections::BTreeMap<Vertex, u32> =
            std::collections::BTreeMap::new();
        let mut clusters: Vec<Vec<Vertex>> = Vec::new();
        let mut cluster_of = vec![None; n];
        let mut deleted = vec![false; n];
        for v in 0..n {
            if !is_alive(v) {
                continue;
            }
            match label[v] {
                Some(c) => {
                    let id = *centre_ids.entry(c).or_insert_with(|| {
                        clusters.push(Vec::new());
                        (clusters.len() - 1) as u32
                    });
                    clusters[id as usize].push(v as Vertex);
                    cluster_of[v] = Some(id);
                }
                None => deleted[v] = true,
            }
        }
        for c in &mut clusters {
            c.sort_unstable();
        }
        Decomposition {
            cluster_of,
            clusters,
            deleted,
            ledger,
        }
    }

    /// Number of deleted (unclustered) vertices.
    pub fn deleted_count(&self) -> usize {
        self.deleted.iter().filter(|&&d| d).count()
    }

    /// Number of alive vertices (clustered + deleted).
    pub fn alive_count(&self) -> usize {
        self.deleted_count() + self.clusters.iter().map(Vec::len).sum::<usize>()
    }

    /// Fraction of alive vertices that were deleted.
    pub fn deleted_fraction(&self) -> f64 {
        let alive = self.alive_count();
        if alive == 0 {
            0.0
        } else {
            self.deleted_count() as f64 / alive as f64
        }
    }

    /// Checks Definition 1.4's separation property: no edge of `g` joins
    /// two different clusters.
    pub fn clusters_are_separated(&self, g: &Graph) -> bool {
        g.edges().all(
            |(u, v)| match (self.cluster_of[u as usize], self.cluster_of[v as usize]) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            },
        )
    }

    /// Maximum weak diameter over clusters (`0` when there are none).
    ///
    /// # Panics
    ///
    /// Panics if some cluster is disconnected in `g` (weak diameter is then
    /// undefined — decompositions never produce such clusters).
    pub fn max_weak_diameter(&self, g: &Graph) -> u32 {
        traversal::max_weak_diameter(g, self.clusters.iter().map(Vec::as_slice))
            .expect("cluster must be connected in G")
    }

    /// Maximum strong diameter over clusters (`Some(0)` when there are
    /// none); `None` if some cluster's induced subgraph is disconnected.
    pub fn max_strong_diameter(&self, g: &Graph) -> Option<u32> {
        traversal::max_strong_diameter(g, self.clusters.iter().map(Vec::as_slice))
    }

    /// Full Definition 1.4 validation: separation plus partition sanity.
    pub fn validate(&self, g: &Graph, alive: Option<&[bool]>) -> Result<(), String> {
        let n = g.n();
        let is_alive = |v: usize| alive.is_none_or(|a| a[v]);
        for v in 0..n {
            let in_cluster = self.cluster_of[v].is_some();
            let del = self.deleted[v];
            if is_alive(v) {
                if in_cluster == del {
                    return Err(format!(
                        "vertex {v}: must be exactly one of clustered/deleted (clustered={in_cluster}, deleted={del})"
                    ));
                }
            } else if in_cluster || del {
                return Err(format!("vertex {v} is dead but labelled"));
            }
        }
        if !self.clusters_are_separated(g) {
            return Err("adjacent clusters detected".into());
        }
        for (i, c) in self.clusters.iter().enumerate() {
            for &v in c {
                if self.cluster_of[v as usize] != Some(i as u32) {
                    return Err(format!("cluster list/id mismatch at vertex {v}"));
                }
            }
        }
        Ok(())
    }
}

impl RoundCost for Decomposition {
    fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    #[test]
    fn from_labels_groups_by_centre() {
        let g = gen::path(5);
        // Clusters {0,1} (centre 0) and {3,4} (centre 4); vertex 2 deleted.
        let labels = vec![Some(0), Some(0), None, Some(4), Some(4)];
        let d = Decomposition::from_labels(5, &labels, None, RoundLedger::new());
        assert_eq!(d.clusters.len(), 2);
        assert_eq!(d.deleted_count(), 1);
        assert!((d.deleted_fraction() - 0.2).abs() < 1e-12);
        assert!(d.clusters_are_separated(&g));
        d.validate(&g, None).unwrap();
        assert_eq!(d.max_weak_diameter(&g), 1);
        assert_eq!(d.max_strong_diameter(&g), Some(1));
    }

    #[test]
    fn separation_violation_detected() {
        let g = gen::path(3);
        let labels = vec![Some(0), Some(2), Some(2)];
        let d = Decomposition::from_labels(3, &labels, None, RoundLedger::new());
        assert!(!d.clusters_are_separated(&g));
        assert!(d.validate(&g, None).is_err());
    }

    #[test]
    fn alive_mask_respected() {
        let g = gen::path(4);
        let alive = vec![true, true, false, false];
        let labels = vec![Some(0), Some(0), None, None];
        let d = Decomposition::from_labels(4, &labels, Some(&alive), RoundLedger::new());
        assert_eq!(d.alive_count(), 2);
        assert_eq!(d.deleted_count(), 0);
        d.validate(&g, Some(&alive)).unwrap();
    }

    #[test]
    fn empty_decomposition() {
        let g = gen::path(2);
        let d = Decomposition::from_labels(2, &[None, None], None, RoundLedger::new());
        assert_eq!(d.deleted_fraction(), 1.0);
        assert_eq!(d.max_weak_diameter(&g), 0);
        d.validate(&g, None).unwrap();
    }
}
