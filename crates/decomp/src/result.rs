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
    /// Vertices outside `alive` are neither deleted nor clustered. Cluster
    /// ids follow the first appearance of each centre in vertex order.
    pub fn from_labels(
        n: usize,
        label: &[Option<Vertex>],
        alive: Option<&[bool]>,
        ledger: RoundLedger,
    ) -> Self {
        assert_eq!(label.len(), n);
        let mut ids = ClusterIds::new(n);
        let mut cluster_of = vec![None; n];
        let mut deleted = vec![false; n];
        for v in (0..n).filter(|&v| alive.is_none_or(|a| a[v])) {
            match label[v] {
                Some(centre) => cluster_of[v] = Some(ids.assign(centre)),
                None => deleted[v] = true,
            }
        }
        let mut clusters = ids.clusters();
        for (v, id) in cluster_of.iter().enumerate() {
            if let Some(id) = id {
                clusters[*id as usize].push(v as Vertex);
            }
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

    /// Full Definition 1.4 validation in O(n + m): separation plus
    /// partition sanity.
    ///
    /// Every alive vertex is exactly one of clustered and deleted, and no
    /// dead vertex is either; no edge joins two clusters; and the cluster
    /// lists agree with the labels in `cluster_of`: each list is strictly
    /// increasing, each listed vertex is labelled with its list's id, and
    /// the lists hold exactly the labelled vertices. So a labelled vertex
    /// missing from its list, or a label that names no cluster, is an
    /// error, as is a list out of order.
    pub fn validate(&self, g: &Graph, alive: Option<&[bool]>) -> Result<(), String> {
        let n = g.n();
        if self.cluster_of.len() != n || self.deleted.len() != n {
            return Err(format!(
                "labels and deletion mask must cover all {n} vertices"
            ));
        }
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
        let mut listed = vec![false; n];
        for (i, c) in self.clusters.iter().enumerate() {
            if let Some(w) = c.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "cluster {i} is not strictly increasing at vertex {}",
                    w[1]
                ));
            }
            for &v in c {
                if self.cluster_of.get(v as usize) != Some(&Some(i as u32)) {
                    return Err(format!("cluster list/id mismatch at vertex {v}"));
                }
                listed[v as usize] = true;
            }
        }
        for (v, id) in self.cluster_of.iter().enumerate() {
            if let (Some(id), false) = (id, listed[v]) {
                return Err(format!("vertex {v} is labelled {id} but not listed there"));
            }
        }
        Ok(())
    }
}

/// Dense cluster ids for cluster centres, in the order of each centre's
/// first appearance, with the size of every cluster: the counting pass that
/// groups labelled vertices into clusters without a map or a sort. Scanning
/// vertices in ascending order, assigning each of its centres, then pushing
/// every vertex onto its clusters lists each cluster ascending.
pub(crate) struct ClusterIds {
    /// Cluster id per centre (`u32::MAX`: not seen yet).
    id_of: Vec<u32>,
    /// Vertices assigned to each cluster so far.
    sizes: Vec<u32>,
}

impl ClusterIds {
    /// An empty assignment sized for centres below `n`; larger centres
    /// grow the map.
    pub(crate) fn new(n: usize) -> Self {
        ClusterIds {
            id_of: vec![u32::MAX; n],
            sizes: Vec::new(),
        }
    }

    /// The cluster id of `centre`, counting one more member for it.
    pub(crate) fn assign(&mut self, centre: Vertex) -> u32 {
        let c = centre as usize;
        if c >= self.id_of.len() {
            self.id_of.resize(c + 1, u32::MAX);
        }
        if self.id_of[c] == u32::MAX {
            self.id_of[c] = self.sizes.len() as u32;
            self.sizes.push(0);
        }
        let id = self.id_of[c];
        self.sizes[id as usize] += 1;
        id
    }

    /// One empty list per cluster, each with room for all its members.
    pub(crate) fn clusters(&self) -> Vec<Vec<Vertex>> {
        self.sizes
            .iter()
            .map(|&size| Vec::with_capacity(size as usize))
            .collect()
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

    /// A decomposition with the given labels and lists, nothing deleted.
    fn labelled(cluster_of: Vec<Option<u32>>, clusters: Vec<Vec<Vertex>>) -> Decomposition {
        Decomposition {
            deleted: vec![false; cluster_of.len()],
            cluster_of,
            clusters,
            ledger: RoundLedger::new(),
        }
    }

    #[test]
    fn labelled_vertex_missing_from_its_list_is_rejected() {
        // Vertex 2 is labelled 0 but missing from list 0, which would make
        // the weak diameter read 1 instead of 2.
        let g = gen::path(3);
        let d = labelled(vec![Some(0); 3], vec![vec![0, 1]]);
        let err = d.validate(&g, None).unwrap_err();
        assert_eq!(err, "vertex 2 is labelled 0 but not listed there");
        let whole = labelled(vec![Some(0); 3], vec![vec![0, 1, 2]]);
        whole.validate(&g, None).unwrap();
        assert_eq!(whole.max_weak_diameter(&g), 2);
    }

    #[test]
    fn label_naming_no_cluster_is_rejected() {
        let g = Graph::from_edges(1, &[]);
        let d = labelled(vec![Some(5)], Vec::new());
        let err = d.validate(&g, None).unwrap_err();
        assert_eq!(err, "vertex 0 is labelled 5 but not listed there");
    }

    #[test]
    fn unsorted_repeating_or_out_of_range_lists_are_rejected() {
        let g = gen::path(3);
        let check = |cluster_of: Vec<Option<u32>>, list: Vec<Vertex>| {
            let mut d = labelled(cluster_of, vec![list]);
            for (del, c) in d.deleted.iter_mut().zip(&d.cluster_of) {
                *del = c.is_none();
            }
            d.validate(&g, None).unwrap_err()
        };
        let err = check(vec![Some(0), Some(0), None], vec![1, 0]);
        assert_eq!(err, "cluster 0 is not strictly increasing at vertex 0");
        let err = check(vec![Some(0), Some(0), None], vec![0, 0, 1]);
        assert_eq!(err, "cluster 0 is not strictly increasing at vertex 0");
        // A listed vertex out of range is a mismatch, not a panic.
        let err = check(vec![Some(0), None, None], vec![0, 7]);
        assert_eq!(err, "cluster list/id mismatch at vertex 7");
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
