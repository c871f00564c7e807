//! Exponential-shift label propagation — the engine shared by the
//! Elkin–Neiman decomposition (Lemma C.1), the Miller–Peng–Xu clustering
//! and the hyperedge sparse cover (Lemma C.2).
//!
//! Every vertex draws `T_v ~ Exponential(λ)` (capped per Lemma C.1) and
//! conceptually broadcasts it `⌊T_v⌋` hops; vertex `v` ranks sources by
//! `m_u(v) = T_u − dist(u, v)`. The different algorithms differ only in how
//! many top labels per vertex they need:
//!
//! * Miller–Peng–Xu: the top **1** label (join its cluster);
//! * Elkin–Neiman: the top **2** labels (delete if they are within 1);
//! * sparse cover: **all** labels within 1 of the maximum (join all).
//!
//! All three reduce to a best-first multi-source propagation in which
//! values decrease by exactly 1 per hop. Labels leave in globally
//! non-increasing `(value, source)` order (larger value first, then the
//! smaller source), so the first time a `(vertex, source)` pair comes up it
//! carries that source's true `m` value at that vertex, and per-vertex
//! pruning is safe (a label dominated at `v` stays dominated downstream of
//! `v`).
//!
//! # A queue, not a heap
//!
//! The order needs no priority queue. The seeds (every alive vertex's own
//! label) are sorted once. A kept label is relayed with its value minus
//! one, and kept labels never rise in the order, so the relays are produced
//! in the order they must leave in: they wait in a FIFO ring buffer, and
//! each step takes whichever of the two heads comes first. For `R` relays
//! this costs `O(n log n + R)`, where a max-heap over all labels cost
//! `O(R log R)`.
//!
//! The output is bit for bit the one a max-heap over all labels, ordered
//! by `(value, source, vertex)`, gives (the tests keep that heap as the
//! reference). Labels leave in the heap's order, except that entries with
//! equal `(value, source)` at different vertices may swap. What a vertex
//! keeps depends only on the labels arriving at it, in their order, and
//! entries with equal `(value, source)` at one vertex are identical, so no
//! kept label moves.
//!
//! One caveat is floating point: `v − 1` is exact for `v ≥ 0.5`, but below
//! that two distinct values can round to the same relay value, and the
//! later relay may then come first by its smaller source. Such a relay goes
//! to its sorted place in the queue. It needs two labels whose values
//! differ by less than a rounding unit, which drawn shifts essentially
//! never give.

use dapc_conc::dist::Exponential;
use dapc_graph::{Graph, Vertex};
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// A label: source `u` reaching some vertex with value `m_u = T_u − dist`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Label {
    /// The originating centre.
    pub source: Vertex,
    /// `T_source − dist(source, here)`.
    pub value: f64,
}

/// A label in flight: `value` of `source`, arriving at `vertex`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    value: f64,
    source: Vertex,
    vertex: Vertex,
}

/// Whether `a` leaves before `b`: the larger value first, then the smaller
/// source.
fn ahead(a: &Entry, b: &Entry) -> bool {
    a.value > b.value || (a.value == b.value && a.source < b.source)
}

/// How many labels each vertex retains.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keep {
    /// Keep the top `k` labels from distinct sources.
    Top(usize),
    /// Keep every label within `slack` of the per-vertex maximum.
    WithinSlackOfBest(f64),
}

/// Draws the capped exponential shifts of Lemma C.1: `T_v ~ Exp(λ)` with
/// values `≥ 4·ln ñ / λ` reset to zero. Dead vertices get 0.
pub fn draw_shifts(
    n: usize,
    lambda: f64,
    n_tilde: f64,
    rng: &mut StdRng,
    alive: Option<&[bool]>,
) -> Vec<f64> {
    let exp = Exponential::new(lambda);
    let cap = 4.0 * n_tilde.ln() / lambda;
    (0..n)
        .map(|v| {
            if alive.is_none_or(|a| a[v]) {
                exp.sample_reset_at(rng, cap)
            } else {
                0.0
            }
        })
        .collect()
}

/// Propagates shifted labels over `g` (restricted to `alive`) and returns,
/// per vertex, the retained labels in decreasing value order.
///
/// Only alive vertices seed labels or relay them. Each retained label is
/// relayed to neighbours with value − 1; labels that fall outside the keep
/// policy at a vertex are pruned there (and, by the monotonicity argument
/// in the module docs, everywhere downstream).
pub fn propagate(g: &Graph, shifts: &[f64], keep: Keep, alive: Option<&[bool]>) -> Vec<Vec<Label>> {
    assert_eq!(shifts.len(), g.n());
    let is_alive = |v: Vertex| alive.is_none_or(|a| a[v as usize]);
    propagate_by(shifts, keep, alive, |v| {
        g.neighbors(v).iter().copied().filter(move |&w| is_alive(w))
    })
}

/// The propagation loop of [`propagate`] with the hop given by `relay`:
/// `relay(v)` lists the alive vertices a label kept at `v` moves to. Every
/// vertex that `alive` admits seeds its own label.
pub(crate) fn propagate_by<I: Iterator<Item = Vertex>>(
    shifts: &[f64],
    keep: Keep,
    alive: Option<&[bool]>,
    relay: impl Fn(Vertex) -> I,
) -> Vec<Vec<Label>> {
    let n = shifts.len();
    let mut seeds: Vec<Entry> = (0..n as Vertex)
        .filter(|&v| alive.is_none_or(|a| a[v as usize]))
        .map(|v| Entry {
            value: shifts[v as usize],
            source: v,
            vertex: v,
        })
        .collect();
    seeds.sort_unstable_by(|a, b| {
        b.value
            .partial_cmp(&a.value)
            .expect("shift values are finite")
            .then(a.source.cmp(&b.source))
    });
    let mut seeds = seeds.into_iter().peekable();
    let mut relays: VecDeque<Entry> = VecDeque::new();
    let mut labels: Vec<Vec<Label>> = vec![Vec::new(); n];
    loop {
        let relay_first = relays
            .front()
            .is_some_and(|r| seeds.peek().is_none_or(|s| ahead(r, s)));
        let next = if relay_first {
            relays.pop_front()
        } else {
            seeds.next()
        };
        let Some(Entry {
            value,
            source,
            vertex,
        }) = next
        else {
            break;
        };
        let kept = &mut labels[vertex as usize];
        // Drop when the policy is already saturated or the source known.
        let admissible = match keep {
            Keep::Top(k) => kept.len() < k,
            Keep::WithinSlackOfBest(slack) => {
                kept.first().is_none_or(|best| value >= best.value - slack)
            }
        };
        if !admissible || kept.iter().any(|l| l.source == source) {
            continue;
        }
        kept.push(Label { source, value });
        // Relay. Values below any plausible future threshold could be
        // pruned here; one extra hop of dead labels is cheap and keeps the
        // code obviously correct.
        let tail = relays.len();
        relays.extend(relay(vertex).map(|w| Entry {
            value: value - 1.0,
            source,
            vertex: w,
        }));
        // Rounding below 0.5 (module docs): move the batch to its place.
        if tail > 0 && relays.len() > tail && ahead(&relays[tail], &relays[tail - 1]) {
            let queue = relays.make_contiguous();
            let first = queue[tail];
            let at = queue[..tail].partition_point(|e| !ahead(&first, e));
            let batch = queue.len() - tail;
            queue[at..].rotate_right(batch);
        }
    }
    labels
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dapc_graph::gen;
    use rand::RngExt;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct HeapEntry {
        value: f64,
        source: Vertex,
        vertex: Vertex,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap on value; tie-break on (source, vertex) for determinism.
            self.value
                .partial_cmp(&other.value)
                .expect("shift values are finite")
                .then_with(|| other.source.cmp(&self.source))
                .then_with(|| other.vertex.cmp(&self.vertex))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The max-heap propagation that [`propagate_by`] replaced, kept as its
    /// reference: every seed and relay goes through one `BinaryHeap`.
    pub(crate) fn heap_propagate<I: Iterator<Item = Vertex>>(
        shifts: &[f64],
        keep: Keep,
        alive: Option<&[bool]>,
        relay: impl Fn(Vertex) -> I,
    ) -> Vec<Vec<Label>> {
        let n = shifts.len();
        let mut labels: Vec<Vec<Label>> = vec![Vec::new(); n];
        let mut heap: BinaryHeap<HeapEntry> = (0..n as Vertex)
            .filter(|&v| alive.is_none_or(|a| a[v as usize]))
            .map(|v| HeapEntry {
                value: shifts[v as usize],
                source: v,
                vertex: v,
            })
            .collect();
        while let Some(HeapEntry {
            value,
            source,
            vertex,
        }) = heap.pop()
        {
            let kept = &mut labels[vertex as usize];
            let admissible = match keep {
                Keep::Top(k) => kept.len() < k,
                Keep::WithinSlackOfBest(slack) => {
                    kept.first().is_none_or(|best| value >= best.value - slack)
                }
            };
            if !admissible || kept.iter().any(|l| l.source == source) {
                continue;
            }
            kept.push(Label { source, value });
            for w in relay(vertex) {
                heap.push(HeapEntry {
                    value: value - 1.0,
                    source,
                    vertex: w,
                });
            }
        }
        labels
    }

    /// Labels as `(source, value bits)`: equal means bit-identical.
    pub(crate) fn bits(labels: &[Vec<Label>]) -> Vec<Vec<(Vertex, u64)>> {
        labels
            .iter()
            .map(|ls| ls.iter().map(|l| (l.source, l.value.to_bits())).collect())
            .collect()
    }

    /// Shifts in `{0, 1, 2, 3}`, so sources often tie exactly and the
    /// source tie-break decides.
    pub(crate) fn integer_shifts(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n)
            .map(|_| f64::from(rng.random_range(0u32..4)))
            .collect()
    }

    #[test]
    fn propagation_matches_the_heap_reference() {
        let mut rng = gen::seeded_rng(41);
        for round in 0..9 {
            let n = 20 + 20 * round;
            let lambda = [0.3, 1.0, 3.0][round % 3];
            let graphs = [
                gen::gnp(n, 3.0 / n as f64, &mut rng),
                gen::random_regular(n, 4, &mut rng),
                gen::complete(n / 4),
            ];
            for g in &graphs {
                let mask: Vec<bool> = (0..g.n()).map(|_| rng.random_bool(0.8)).collect();
                for alive in [None, Some(mask.as_slice())] {
                    let continuous = draw_shifts(g.n(), lambda, g.n() as f64, &mut rng, alive);
                    let integer = integer_shifts(g.n(), &mut rng);
                    for (kind, shifts) in [("continuous", continuous), ("integer", integer)] {
                        for keep in [Keep::Top(1), Keep::Top(2), Keep::WithinSlackOfBest(1.0)] {
                            let relay = |v: Vertex| {
                                g.neighbors(v)
                                    .iter()
                                    .copied()
                                    .filter(move |&w| alive.is_none_or(|a| a[w as usize]))
                            };
                            assert_eq!(
                                bits(&propagate(g, &shifts, keep, alive)),
                                bits(&heap_propagate(&shifts, keep, alive, relay)),
                                "n={} {kind} shifts, {keep:?}, masked={}",
                                g.n(),
                                alive.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn relays_that_round_together_leave_in_heap_order() {
        // Star: centre 0 keeps its own label first, then hears the leaves.
        // `next_up(b) − 1` and `b − 1` round to one value, so the relay of
        // leaf 1 (smaller value, smaller source) is produced second but must
        // leave first.
        let b = 0.1f64;
        let a = b.next_up();
        assert_eq!(a - 1.0, b - 1.0, "the two relays must round together");
        let g = gen::star(3);
        let shifts = vec![5.0, b, a];
        let labels = propagate(&g, &shifts, Keep::Top(2), None);
        let relay = |v: Vertex| g.neighbors(v).iter().copied();
        assert_eq!(
            bits(&labels),
            bits(&heap_propagate(&shifts, Keep::Top(2), None, relay))
        );
        assert_eq!(labels[0][1].source, 1);
    }

    /// Labels on a path with hand-picked shifts.
    #[test]
    fn values_are_shift_minus_distance() {
        let g = gen::path(5);
        // Only vertex 0 has a large shift; everyone hears it.
        let shifts = vec![10.0, 0.0, 0.0, 0.0, 0.0];
        let labels = propagate(&g, &shifts, Keep::Top(1), None);
        for (v, label) in labels.iter().enumerate() {
            assert_eq!(label[0].source, 0);
            assert!((label[0].value - (10.0 - v as f64)).abs() < 1e-9);
        }
    }

    #[test]
    fn top2_keeps_distinct_sources_in_order() {
        let g = gen::path(5);
        let shifts = vec![10.0, 0.0, 0.0, 0.0, 9.0];
        let labels = propagate(&g, &shifts, Keep::Top(2), None);
        // Middle vertex 2: m_0 = 8, m_4 = 7.
        assert_eq!(labels[2].len(), 2);
        assert_eq!(labels[2][0].source, 0);
        assert!((labels[2][0].value - 8.0).abs() < 1e-9);
        assert_eq!(labels[2][1].source, 4);
        assert!((labels[2][1].value - 7.0).abs() < 1e-9);
    }

    #[test]
    fn top2_matches_brute_force() {
        let mut rng = gen::seeded_rng(5);
        for _ in 0..20 {
            let g = gen::gnp(25, 0.12, &mut rng);
            let shifts = draw_shifts(25, 0.5, 25.0, &mut rng, None);
            let labels = propagate(&g, &shifts, Keep::Top(2), None);
            // Brute force: all m values per vertex.
            for v in g.vertices() {
                let dist = dapc_graph::traversal::bfs_distances(&g, v);
                let mut ms: Vec<(f64, Vertex)> = g
                    .vertices()
                    .filter(|&u| dist[u as usize] != dapc_graph::traversal::UNREACHABLE)
                    .map(|u| (shifts[u as usize] - dist[u as usize] as f64, u))
                    .collect();
                ms.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
                let got = &labels[v as usize];
                assert!((got[0].value - ms[0].0).abs() < 1e-9, "best at {v}");
                if ms.len() > 1 {
                    assert!((got[1].value - ms[1].0).abs() < 1e-9, "second at {v}");
                }
            }
        }
    }

    #[test]
    fn slack_keep_returns_all_near_best() {
        let g = gen::path(3);
        let shifts = vec![5.0, 4.5, 5.2];
        // At vertex 1: m_0 = 4, m_1 = 4.5, m_2 = 4.2 — all within 1 of 4.5.
        let labels = propagate(&g, &shifts, Keep::WithinSlackOfBest(1.0), None);
        assert_eq!(labels[1].len(), 3);
        assert_eq!(labels[1][0].source, 1);
        // At vertex 0: m_0 = 5, m_1 = 3.5 (pruned), m_2 = 3.2 (pruned).
        assert_eq!(labels[0].len(), 1);
    }

    #[test]
    fn dead_vertices_neither_seed_nor_relay() {
        let g = gen::path(3);
        let alive = vec![true, false, true];
        let shifts = vec![10.0, 99.0, 1.0];
        let labels = propagate(&g, &shifts, Keep::Top(2), Some(&alive));
        // Vertex 2 cannot hear vertex 0 through the dead vertex 1.
        assert_eq!(labels[2].len(), 1);
        assert_eq!(labels[2][0].source, 2);
        assert!(labels[1].is_empty());
    }

    #[test]
    fn shifts_respect_cap() {
        let mut rng = gen::seeded_rng(1);
        let shifts = draw_shifts(10_000, 0.5, 100.0, &mut rng, None);
        let cap = 4.0 * 100f64.ln() / 0.5;
        assert!(shifts.iter().all(|&t| t < cap));
        assert!(shifts.iter().any(|&t| t > 0.0));
    }
}
