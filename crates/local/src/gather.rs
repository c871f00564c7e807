//! Topology gathering: the canonical LOCAL primitive.
//!
//! An `r`-round LOCAL algorithm is exactly a function of each vertex's
//! `r`-radius ball (this is the observation all the paper's round counts
//! rest on). [`GatherProgram`] realises the primitive as an actual
//! message-passing program: after `r` rounds every vertex knows the full
//! topology of `N^r(v)`. The tests check this against the centralised
//! [`dapc_graph::traversal::ball`], which is what licenses the *charged*
//! runtime in [`crate::charge`] to account rounds without flooding.

use crate::network::{Network, NodeCtx, NodeProgram, Outbox};
use dapc_graph::{Graph, Vertex};
use std::collections::BTreeMap;

/// Message: newly learned `(vertex, adjacency)` records.
pub type TopologyRecords = Vec<(Vertex, Vec<Vertex>)>;

/// A node program that floods adjacency records for `radius` rounds, after
/// which [`GatherProgram::known_vertices`] is the vertex's `radius`-ball.
#[derive(Clone, Debug)]
pub struct GatherProgram {
    radius: usize,
    known: BTreeMap<Vertex, Vec<Vertex>>,
    fresh: TopologyRecords,
    rounds_done: usize,
}

impl GatherProgram {
    /// Creates a program that gathers for `radius` rounds.
    pub fn new(radius: usize) -> Self {
        GatherProgram {
            radius,
            known: BTreeMap::new(),
            fresh: Vec::new(),
            rounds_done: 0,
        }
    }

    /// The topology learned so far: vertex → its full adjacency list, for
    /// every vertex whose *record* has reached this node.
    ///
    /// After `radius` rounds this contains the record of every vertex in
    /// `N^{radius}(v)` (records of boundary vertices mention neighbours
    /// outside the ball; that matches the LOCAL model, where a gathered
    /// vertex reports all its incident edges).
    #[cfg(test)]
    pub fn view(&self) -> &BTreeMap<Vertex, Vec<Vertex>> {
        &self.known
    }

    /// The vertices whose records are known, as a sorted list.
    pub fn known_vertices(&self) -> Vec<Vertex> {
        self.known.keys().copied().collect()
    }
}

impl NodeProgram for GatherProgram {
    type Message = TopologyRecords;

    fn init(&mut self, ctx: &NodeCtx<'_>) -> Outbox<Self::Message> {
        let record = (ctx.id, ctx.neighbors.to_vec());
        self.known.insert(record.0, record.1.clone());
        if self.radius == 0 {
            return Outbox::Silent;
        }
        Outbox::Broadcast(vec![record])
    }

    fn round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: Vec<(usize, Self::Message)>,
    ) -> Outbox<Self::Message> {
        self.rounds_done += 1;
        self.fresh.clear();
        for (_, records) in inbox {
            for (v, adj) in records {
                if let std::collections::btree_map::Entry::Vacant(e) = self.known.entry(v) {
                    e.insert(adj.clone());
                    self.fresh.push((v, adj));
                }
            }
        }
        if self.rounds_done >= self.radius || self.fresh.is_empty() {
            Outbox::Silent
        } else {
            Outbox::Broadcast(self.fresh.clone())
        }
    }

    fn halted(&self) -> bool {
        self.rounds_done >= self.radius
    }
}

/// Runs the gather primitive on a whole graph and returns, per vertex, the
/// set of vertices it learned about. A convenience wrapper used by tests
/// and the simulator-validation experiment.
pub fn gather_views(g: &Graph, radius: usize) -> Vec<Vec<Vertex>> {
    let mut net = Network::new(g, |_, _| GatherProgram::new(radius), g.n());
    net.run(radius + 1);
    net.into_nodes()
        .into_iter()
        .map(|p| p.known_vertices())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::{gen, traversal};

    #[test]
    fn zero_radius_sees_only_self() {
        let g = gen::cycle(5);
        let views = gather_views(&g, 0);
        for (v, view) in views.iter().enumerate() {
            assert_eq!(view, &vec![v as Vertex]);
        }
    }

    /// The contract that justifies charged-round accounting: after r rounds
    /// of real message passing, each vertex knows exactly N^r(v).
    #[test]
    fn gather_matches_centralized_ball() {
        for (g, r) in [
            (gen::grid(5, 5), 3usize),
            (gen::cycle(11), 4),
            (gen::random_regular(40, 3, &mut gen::seeded_rng(4)), 2),
            (gen::star(9), 1),
        ] {
            let views = gather_views(&g, r);
            for v in g.vertices() {
                let mut expected: Vec<Vertex> = traversal::ball(&g, &[v], r, None).iter().collect();
                expected.sort_unstable();
                assert_eq!(views[v as usize], expected, "vertex {v}, r {r}");
            }
        }
    }

    #[test]
    fn gathered_adjacency_is_authentic() {
        let g = gen::grid(4, 4);
        let mut net = Network::new(&g, |_, _| GatherProgram::new(2), g.n());
        net.run(3);
        for (v, p) in net.nodes().iter().enumerate() {
            for (&u, adj) in p.view() {
                assert_eq!(adj.as_slice(), g.neighbors(u), "record of {u} at {v}");
            }
        }
    }

    #[test]
    fn gather_halts_after_radius_rounds() {
        let g = gen::path(20);
        let mut net = Network::new(&g, |_, _| GatherProgram::new(5), g.n());
        let stats = net.run(100);
        assert!(stats.all_halted);
        assert!(stats.rounds <= 6);
    }
}
