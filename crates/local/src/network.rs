//! Synchronous message-passing simulator for the LOCAL model.
//!
//! The LOCAL model (§1 of the paper): computation proceeds in synchronous
//! rounds; in each round every vertex receives the messages its neighbours
//! sent in the previous round, performs arbitrary local computation, and
//! sends one message of arbitrary size per incident edge. This module
//! simulates that faithfully — algorithms are [`NodeProgram`]s, the
//! [`Network`] drives them round by round and reports exact round and
//! message counts.

use dapc_graph::{Graph, Vertex};

/// Read-only facts a node knows about itself when its program runs.
///
/// Nodes know their own identifier, their neighbours' identifiers (standard
/// in the LOCAL model after one implicit round of identifier exchange) and
/// the global vertex-count hint `ñ` the paper assumes.
#[derive(Clone, Copy, Debug)]
pub struct NodeCtx<'a> {
    /// This node's identifier.
    pub id: Vertex,
    /// Identifiers of the neighbours; port `i` leads to `neighbors[i]`.
    pub neighbors: &'a [Vertex],
    /// Current round number (0 for `init`, then 1, 2, …).
    pub round: usize,
    /// The polynomial upper bound `ñ ≥ n` known to all vertices.
    pub n_hint: usize,
}

/// What a node wants to transmit at the end of a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outbox<M> {
    /// Send nothing.
    Silent,
    /// Send the same message on every port.
    Broadcast(M),
    /// Send selected `(port, message)` pairs.
    PerPort(Vec<(usize, M)>),
}

/// A distributed algorithm from the point of view of a single vertex.
///
/// Implementations hold all per-node state. The driver calls [`init`] once
/// (round 0), then [`round`] once per communication round until every node
/// reports [`halted`] or the round budget is exhausted.
///
/// [`init`]: NodeProgram::init
/// [`round`]: NodeProgram::round
/// [`halted`]: NodeProgram::halted
pub trait NodeProgram {
    /// Message type; arbitrary size, as the LOCAL model allows.
    type Message: Clone;

    /// Round 0: produce the initial outbox.
    fn init(&mut self, ctx: &NodeCtx<'_>) -> Outbox<Self::Message>;

    /// One synchronous round: consume the inbox (pairs of `(port, message)`
    /// where `port` identifies the sending neighbour), produce the outbox.
    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Vec<(usize, Self::Message)>,
    ) -> Outbox<Self::Message>;

    /// Whether this node has terminated (its outputs are final).
    fn halted(&self) -> bool;
}

/// Statistics of a completed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Communication rounds executed (not counting `init` as a round).
    pub rounds: usize,
    /// Total point-to-point messages delivered.
    pub messages: u64,
    /// Whether every node halted within the round budget.
    pub all_halted: bool,
}

/// Drives a [`NodeProgram`] per vertex of a [`Graph`] in synchronous rounds.
///
/// # Examples
///
/// ```
/// use dapc_graph::gen;
/// use dapc_local::network::{Network, NodeCtx, NodeProgram, Outbox};
///
/// /// Every node learns the maximum identifier in its component.
/// struct MaxId {
///     best: u32,
///     changed: bool,
///     quiet_rounds: usize,
/// }
/// impl NodeProgram for MaxId {
///     type Message = u32;
///     fn init(&mut self, ctx: &NodeCtx<'_>) -> Outbox<u32> {
///         self.best = ctx.id;
///         Outbox::Broadcast(self.best)
///     }
///     fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: Vec<(usize, u32)>) -> Outbox<u32> {
///         self.changed = false;
///         for (_, m) in inbox {
///             if m > self.best {
///                 self.best = m;
///                 self.changed = true;
///             }
///         }
///         if self.changed {
///             self.quiet_rounds = 0;
///             Outbox::Broadcast(self.best)
///         } else {
///             self.quiet_rounds += 1;
///             Outbox::Silent
///         }
///     }
///     fn halted(&self) -> bool {
///         self.quiet_rounds >= 2
///     }
/// }
///
/// let g = gen::path(6);
/// let mut net = Network::new(&g, |_, _| MaxId { best: 0, changed: true, quiet_rounds: 0 }, 6);
/// let stats = net.run(100);
/// assert!(stats.all_halted);
/// assert!(net.nodes().iter().all(|p| p.best == 5));
/// ```
pub struct Network<'g, P: NodeProgram> {
    graph: &'g Graph,
    programs: Vec<P>,
    n_hint: usize,
    round: usize,
    inboxes: Vec<Vec<(usize, P::Message)>>,
    messages: u64,
}

impl<'g, P: NodeProgram> Network<'g, P> {
    /// Builds a network running one program instance per vertex;
    /// `make(v, degree)` constructs the instance for vertex `v`.
    pub fn new(graph: &'g Graph, mut make: impl FnMut(Vertex, usize) -> P, n_hint: usize) -> Self {
        let programs = graph.vertices().map(|v| make(v, graph.degree(v))).collect();
        Network {
            graph,
            programs,
            n_hint,
            round: 0,
            inboxes: vec![Vec::new(); graph.n()],
            messages: 0,
        }
    }

    /// Immutable access to the per-vertex programs (e.g. to read outputs).
    pub fn nodes(&self) -> &[P] {
        &self.programs
    }

    /// Consumes the network, returning the per-vertex programs.
    pub fn into_nodes(self) -> Vec<P> {
        self.programs
    }

    fn dispatch(
        &mut self,
        v: Vertex,
        outbox: Outbox<P::Message>,
        next: &mut [Vec<(usize, P::Message)>],
    ) {
        let neighbors = self.graph.neighbors(v);
        match outbox {
            Outbox::Silent => {}
            Outbox::Broadcast(m) => {
                // Clone lazily, one copy per port *except the last*, which
                // takes the original by move — a broadcast to d neighbours
                // costs d − 1 clones, and a degree-1 vertex none at all.
                let mut m = Some(m);
                let last = neighbors.len().saturating_sub(1);
                for (port, &w) in neighbors.iter().enumerate() {
                    let msg = if port == last {
                        m.take().expect("broadcast message moved before last port")
                    } else {
                        m.as_ref()
                            .expect("broadcast message moved before last port")
                            .clone()
                    };
                    let back_port = reverse_port(self.graph, v, w, port);
                    next[w as usize].push((back_port, msg));
                    self.messages += 1;
                }
            }
            Outbox::PerPort(pairs) => {
                for (port, m) in pairs {
                    assert!(port < neighbors.len(), "port {port} out of range");
                    let w = neighbors[port];
                    let back_port = reverse_port(self.graph, v, w, port);
                    next[w as usize].push((back_port, m));
                    self.messages += 1;
                }
            }
        }
    }

    /// Runs until all nodes halt or `max_rounds` communication rounds have
    /// elapsed, whichever comes first.
    pub fn run(&mut self, max_rounds: usize) -> RunStats {
        // Round 0: init.
        if self.round == 0 {
            let mut next: Vec<Vec<(usize, P::Message)>> = vec![Vec::new(); self.graph.n()];
            for v in 0..self.graph.n() {
                let ctx = NodeCtx {
                    id: v as Vertex,
                    neighbors: self.graph.neighbors(v as Vertex),
                    round: 0,
                    n_hint: self.n_hint,
                };
                // Split borrow: temporarily take program out.
                let outbox = {
                    let program = &mut self.programs[v];
                    program.init(&ctx)
                };
                self.dispatch(v as Vertex, outbox, &mut next);
            }
            self.inboxes = next;
        }
        while self.round < max_rounds {
            if self.programs.iter().all(|p| p.halted()) {
                break;
            }
            self.round += 1;
            let inboxes = std::mem::replace(&mut self.inboxes, vec![Vec::new(); self.graph.n()]);
            let mut next: Vec<Vec<(usize, P::Message)>> = vec![Vec::new(); self.graph.n()];
            for (v, inbox) in inboxes.into_iter().enumerate() {
                let ctx = NodeCtx {
                    id: v as Vertex,
                    neighbors: self.graph.neighbors(v as Vertex),
                    round: self.round,
                    n_hint: self.n_hint,
                };
                let outbox = {
                    let program = &mut self.programs[v];
                    program.round(&ctx, inbox)
                };
                self.dispatch(v as Vertex, outbox, &mut next);
            }
            self.inboxes = next;
        }
        RunStats {
            rounds: self.round,
            messages: self.messages,
            all_halted: self.programs.iter().all(|p| p.halted()),
        }
    }
}

/// The port index of `v` in `w`'s (sorted) adjacency list.
fn reverse_port(g: &Graph, v: Vertex, w: Vertex, _port_at_v: usize) -> usize {
    g.neighbors(w)
        .binary_search(&v)
        .expect("adjacency must be symmetric")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;

    /// Nodes compute their BFS distance from vertex 0.
    struct BfsDist {
        dist: Option<u32>,
        announced: bool,
    }

    impl NodeProgram for BfsDist {
        type Message = u32;

        fn init(&mut self, ctx: &NodeCtx<'_>) -> Outbox<u32> {
            if ctx.id == 0 {
                self.dist = Some(0);
                Outbox::Broadcast(0)
            } else {
                Outbox::Silent
            }
        }

        fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: Vec<(usize, u32)>) -> Outbox<u32> {
            if self.dist.is_some() {
                if self.announced {
                    return Outbox::Silent;
                }
                self.announced = true;
                return Outbox::Silent;
            }
            if let Some(&(_, d)) = inbox.iter().min_by_key(|(_, d)| *d) {
                self.dist = Some(d + 1);
                return Outbox::Broadcast(d + 1);
            }
            Outbox::Silent
        }

        fn halted(&self) -> bool {
            self.dist.is_some() && self.announced
        }
    }

    #[test]
    fn bfs_program_matches_centralized_bfs() {
        let g = gen::grid(6, 7);
        let mut net = Network::new(
            &g,
            |_, _| BfsDist {
                dist: None,
                announced: false,
            },
            g.n(),
        );
        let stats = net.run(200);
        assert!(stats.all_halted);
        let reference = dapc_graph::traversal::bfs_distances(&g, 0);
        for (v, p) in net.nodes().iter().enumerate() {
            assert_eq!(p.dist, Some(reference[v]), "vertex {v}");
        }
    }

    #[test]
    fn bfs_round_count_is_eccentricity_plus_wrapup() {
        let g = gen::path(10);
        let mut net = Network::new(
            &g,
            |_, _| BfsDist {
                dist: None,
                announced: false,
            },
            g.n(),
        );
        let stats = net.run(200);
        // Information needs ecc(0) = 9 rounds to reach the far end, plus one
        // wrap-up round for the `announced` flag.
        assert_eq!(stats.rounds, 10);
    }

    #[test]
    fn round_budget_is_respected() {
        let g = gen::path(50);
        let mut net = Network::new(
            &g,
            |_, _| BfsDist {
                dist: None,
                announced: false,
            },
            g.n(),
        );
        let stats = net.run(3);
        assert!(!stats.all_halted);
        assert_eq!(stats.rounds, 3);
        // Only vertices within distance 3 know their distance.
        let known = net.nodes().iter().filter(|p| p.dist.is_some()).count();
        assert_eq!(known, 4);
    }

    /// Per-port echo: send round number to lowest port only.
    struct LowPortPing {
        received: Vec<usize>,
        rounds_left: usize,
    }

    impl NodeProgram for LowPortPing {
        type Message = usize;

        fn init(&mut self, ctx: &NodeCtx<'_>) -> Outbox<usize> {
            if ctx.neighbors.is_empty() {
                Outbox::Silent
            } else {
                Outbox::PerPort(vec![(0, 0)])
            }
        }

        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: Vec<(usize, usize)>) -> Outbox<usize> {
            for (port, _) in inbox {
                self.received.push(port);
            }
            self.rounds_left = self.rounds_left.saturating_sub(1);
            if self.rounds_left > 0 && !ctx.neighbors.is_empty() {
                Outbox::PerPort(vec![(0, ctx.round)])
            } else {
                Outbox::Silent
            }
        }

        fn halted(&self) -> bool {
            self.rounds_left == 0
        }
    }

    #[test]
    fn per_port_delivery_reports_correct_sender_port() {
        // Path 0 - 1 - 2: vertex 1's port 0 is neighbour 0.
        let g = gen::path(3);
        let mut net = Network::new(
            &g,
            |_, _| LowPortPing {
                received: Vec::new(),
                rounds_left: 2,
            },
            3,
        );
        let stats = net.run(10);
        assert!(stats.all_halted);
        // Vertex 0 hears from vertex 1 (its only neighbour = port 0).
        assert!(net.nodes()[0].received.iter().all(|&p| p == 0));
        // Vertex 1 hears from vertex 0 on port 0 and vertex 2 never sends to
        // it (2's port 0 is vertex 1 — it does send). Ports at vertex 1: 0
        // -> neighbour 0, 1 -> neighbour 2.
        assert!(net.nodes()[1].received.contains(&0));
        assert!(net.nodes()[1].received.contains(&1));
    }

    /// Broadcasts one clone-counting message from vertex 0 at init, then
    /// goes quiet.
    struct OneShotBroadcast {
        counter: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        done: bool,
    }

    #[derive(Debug)]
    struct CountedMsg(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for CountedMsg {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CountedMsg(std::sync::Arc::clone(&self.0))
        }
    }

    impl NodeProgram for OneShotBroadcast {
        type Message = CountedMsg;

        fn init(&mut self, ctx: &NodeCtx<'_>) -> Outbox<CountedMsg> {
            if ctx.id == 0 {
                Outbox::Broadcast(CountedMsg(std::sync::Arc::clone(&self.counter)))
            } else {
                Outbox::Silent
            }
        }

        fn round(
            &mut self,
            _ctx: &NodeCtx<'_>,
            _inbox: Vec<(usize, CountedMsg)>,
        ) -> Outbox<CountedMsg> {
            self.done = true;
            Outbox::Silent
        }

        fn halted(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn broadcast_clones_once_per_port_except_the_last() {
        // Star centre has degree 5: all 5 neighbours must receive the
        // message, but only 4 clones happen (the last port takes the
        // original by move).
        let g = gen::star(6);
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut net = Network::new(
            &g,
            |_, _| OneShotBroadcast {
                counter: std::sync::Arc::clone(&counter),
                done: false,
            },
            6,
        );
        let stats = net.run(5);
        assert_eq!(stats.messages, 5, "degree-5 broadcast delivers 5 messages");
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            4,
            "d-port broadcast must clone exactly d − 1 times"
        );
    }

    #[test]
    fn message_count_is_tracked() {
        let g = gen::complete(4);
        let mut net = Network::new(
            &g,
            |_, _| BfsDist {
                dist: None,
                announced: false,
            },
            4,
        );
        let stats = net.run(10);
        // init: vertex 0 broadcasts to 3 neighbours; round 1: the other
        // three each broadcast once (3 × 3).
        assert_eq!(stats.messages, 3 + 9);
    }
}
