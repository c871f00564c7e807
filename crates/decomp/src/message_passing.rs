//! Elkin–Neiman as a *real* message-passing LOCAL algorithm.
//!
//! Everything else in this crate computes decompositions centrally and
//! charges rounds (see `dapc-local`'s charged accounting). This module
//! closes the loop: it implements Lemma C.1 as a genuine [`NodeProgram`] —
//! every vertex broadcasts its shifted clock `T_v` outward, labels decay by
//! one per hop, each vertex keeps its top two — and the tests verify that,
//! given the *same shifts*, the distributed run produces **exactly** the
//! same decomposition as the centralised [`crate::elkin_neiman`] in exactly
//! the charged number of rounds. This is the faithfulness certificate for
//! the rest of the workspace.

use crate::result::Decomposition;
use dapc_graph::{Graph, Vertex};
use dapc_local::network::{Network, NodeCtx, NodeProgram, Outbox};
use dapc_local::RoundLedger;

/// A label in flight: `(source, value at the receiving vertex)`.
type ShiftMsg = Vec<(Vertex, f64)>;

/// Per-vertex state of the distributed Elkin–Neiman run.
#[derive(Clone, Debug)]
pub struct EnProgram {
    shift: f64,
    rounds_total: usize,
    rounds_done: usize,
    /// Top-2 labels from distinct sources, best first.
    labels: Vec<(Vertex, f64)>,
    /// Labels learned this round (to forward next round).
    fresh: Vec<(Vertex, f64)>,
}

impl EnProgram {
    /// Creates the program for one vertex with its drawn shift and the
    /// `4 ln ñ / λ` round budget.
    pub fn new(shift: f64, rounds_total: usize) -> Self {
        EnProgram {
            shift,
            rounds_total,
            rounds_done: 0,
            labels: Vec::new(),
            fresh: Vec::new(),
        }
    }

    fn consider(&mut self, source: Vertex, value: f64) {
        if self.labels.iter().any(|&(s, _)| s == source) {
            return; // keep only the best value per source: first arrival
                    // along a shortest path is the best, and BFS delivery
                    // order guarantees it arrives no later than any other.
        }
        // Insert in decreasing value order, keep top 2.
        let pos = self
            .labels
            .iter()
            .position(|&(_, v)| value > v)
            .unwrap_or(self.labels.len());
        if pos < 2 {
            self.labels.insert(pos, (source, value));
            self.labels.truncate(2);
            self.fresh.push((source, value));
        }
    }

    /// The decomposition label after the run: `None` = deleted.
    pub fn verdict(&self) -> Option<Vertex> {
        match self.labels.as_slice() {
            [] => None,
            [(s, _)] => Some(*s),
            [(s1, v1), (_, v2), ..] => {
                if *v2 >= *v1 - 1.0 {
                    None
                } else {
                    Some(*s1)
                }
            }
        }
    }
}

impl NodeProgram for EnProgram {
    type Message = ShiftMsg;

    fn init(&mut self, ctx: &NodeCtx<'_>) -> Outbox<ShiftMsg> {
        self.consider(ctx.id, self.shift);
        let out: ShiftMsg = self.fresh.drain(..).map(|(s, v)| (s, v - 1.0)).collect();
        if out.is_empty() {
            Outbox::Silent
        } else {
            Outbox::Broadcast(out)
        }
    }

    fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: Vec<(usize, ShiftMsg)>) -> Outbox<ShiftMsg> {
        self.rounds_done += 1;
        for (_, msgs) in inbox {
            for (source, value) in msgs {
                self.consider(source, value);
            }
        }
        let out: ShiftMsg = self.fresh.drain(..).map(|(s, v)| (s, v - 1.0)).collect();
        if out.is_empty() || self.rounds_done >= self.rounds_total {
            Outbox::Silent
        } else {
            Outbox::Broadcast(out)
        }
    }

    fn halted(&self) -> bool {
        self.rounds_done >= self.rounds_total
    }
}

/// Runs Lemma C.1 by real message passing with caller-provided shifts, and
/// returns the decomposition plus the exact number of communication
/// rounds executed.
///
/// # Panics
///
/// Panics if `shifts.len() != g.n()`.
// dapc-allow(dead-pub): ROADMAP item 5 extends this faithfulness check to the three-phase LDD
pub fn elkin_neiman_distributed(
    g: &Graph,
    shifts: &[f64],
    rounds: usize,
) -> (Decomposition, usize) {
    assert_eq!(shifts.len(), g.n());
    let mut net = Network::new(g, |v, _| EnProgram::new(shifts[v as usize], rounds), g.n());
    let stats = net.run(rounds + 1);
    let labels: Vec<Option<Vertex>> = net.nodes().iter().map(|p| p.verdict()).collect();
    let mut ledger = RoundLedger::new();
    ledger.begin_phase("distributed elkin-neiman");
    ledger.charge_gather(stats.rounds);
    ledger.end_phase();
    (
        Decomposition::from_labels(g.n(), &labels, None, ledger),
        stats.rounds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::{draw_shifts, propagate, Keep};
    use dapc_graph::gen;

    /// The centralised propagation and the message-passing run agree on
    /// every vertex's verdict, shift-for-shift.
    #[test]
    fn distributed_matches_centralized_exactly() {
        for seed in 0..10 {
            let g = gen::gnp(80, 0.05, &mut gen::seeded_rng(seed));
            let mut rng = gen::seeded_rng(1000 + seed);
            let lambda = 0.4;
            let n_tilde = 80.0;
            let shifts = draw_shifts(g.n(), lambda, n_tilde, &mut rng, None);
            let rounds = (4.0 * n_tilde.ln() / lambda).ceil() as usize;

            // Centralised.
            let labels = propagate(&g, &shifts, Keep::Top(2), None);
            let central: Vec<Option<dapc_graph::Vertex>> = (0..g.n())
                .map(|v| match &labels[v] {
                    [] => None,
                    [l] => Some(l.source),
                    [l1, l2, ..] => {
                        if l2.value >= l1.value - 1.0 {
                            None
                        } else {
                            Some(l1.source)
                        }
                    }
                })
                .collect();

            // Distributed.
            let (dist, executed) = elkin_neiman_distributed(&g, &shifts, rounds);
            assert!(executed <= rounds);
            for (v, c_label) in central.iter().enumerate() {
                let dist_label = dist.cluster_of[v].map(|c| dist.clusters[c as usize][0]);
                // Compare verdicts: deleted-vs-clustered must agree, and
                // clustered vertices must group identically.
                assert_eq!(
                    c_label.is_none(),
                    dist_label.is_none(),
                    "seed {seed}, vertex {v}: deletion verdicts differ"
                );
            }
            // Cluster groupings agree: two vertices share a centralised
            // centre iff they share a distributed cluster.
            for u in 0..g.n() {
                for v in (u + 1)..g.n() {
                    if central[u].is_some() && central[v].is_some() {
                        assert_eq!(
                            central[u] == central[v],
                            dist.cluster_of[u] == dist.cluster_of[v],
                            "seed {seed}: grouping of {u},{v} differs"
                        );
                    }
                }
            }
        }
    }

    /// The distributed run halts within the Lemma C.1 round budget.
    #[test]
    fn distributed_round_budget() {
        let g = gen::grid(10, 10);
        let mut rng = gen::seeded_rng(5);
        let shifts = draw_shifts(100, 0.5, 100.0, &mut rng, None);
        let budget = (4.0 * 100f64.ln() / 0.5).ceil() as usize;
        let (d, executed) = elkin_neiman_distributed(&g, &shifts, budget);
        assert!(executed <= budget);
        d.validate(&g, None).unwrap();
    }

    /// Degenerate shifts: all zeros → everything deleted except isolated
    /// vertices (every pair of adjacent vertices ties within 1).
    #[test]
    fn all_zero_shifts_delete_neighbourhoods() {
        let g = gen::cycle(10);
        let (d, _) = elkin_neiman_distributed(&g, &[0.0; 10], 5);
        // With all-equal shifts every vertex hears a second source at
        // value ≥ own − 1, so everyone is deleted.
        assert_eq!(d.deleted_count(), 10);
    }

    /// One huge shift: a single cluster swallowing the whole graph.
    #[test]
    fn single_dominant_shift_wins_everywhere() {
        let g = gen::path(12);
        let mut shifts = vec![0.0; 12];
        shifts[0] = 100.0;
        let (d, _) = elkin_neiman_distributed(&g, &shifts, 50);
        assert_eq!(d.deleted_count(), 0);
        assert_eq!(d.clusters.len(), 1);
        assert_eq!(d.clusters[0].len(), 12);
    }
}
