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
//! # A queue over a flat arena
//!
//! The order needs no priority queue. The seeds (every alive vertex's own
//! label) are sorted once. A kept label is relayed with its value minus
//! one, and kept labels never rise in the order, so the relays are produced
//! in the order they must leave in: they wait in a FIFO ring buffer, and
//! each step takes whichever of the two heads comes first. For `R` relays
//! this costs `O(n log n + R)`, where a max-heap over all labels cost
//! `O(R log R)`.
//!
//! **Integer key.** Each seed sorts as one `u128`: the complemented bits of
//! its shift above its source. Shifts are finite and non-negative, and the
//! bits of such floats order as their values do, so ascending keys put the
//! larger shift first and break ties by the smaller source, the order of a
//! float comparison, with no float compare in the sort. The key normalises
//! `-0.0` to `0.0` (its sign bit would sort it as the largest shift); the
//! seed's label still carries the shift's own bits.
//!
//! **Flat arena.** A run keeps its labels, in the order it keeps them, in
//! one arena, and threads each to the previous label of its vertex, so the
//! duplicate-source check walks only that vertex's labels. A vertex keeps
//! its labels best first, since they leave in order, so one counting pass
//! (per-vertex counts, their prefix sums, one scatter of the arena) groups
//! them into the vertex-indexed [`Labels`] with no per-vertex allocation.
//!
//! **Push-time filter.** A relay is dropped when it is pushed if its target
//! is already full (`Keep::Top`), already holds its source, or lies below
//! its best label by more than the slack (`Keep::WithinSlackOfBest`). Each
//! condition only tightens over the run: a vertex's count only grows, its
//! labels are never removed, and its best label is its first. So the pop
//! would have rejected that relay too. A relay is also dropped if the
//! latest relay queued to its target carries the same source: that one
//! leaves first (same source, no smaller value), and then the target either
//! keeps it and holds the source, or rejects it for a reason that rejects
//! the later one too. Hyperedges that share vertices make such repeats
//! common in the sparse cover. The filter shrinks the queue and moves no
//! output.
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

/// Work counters of the propagation, recorded only while
/// [`dapc_obs::enabled`].
mod metrics {
    use dapc_obs::Counter;
    use std::sync::OnceLock;

    /// Relays pushed onto the queue, after the push-time filter.
    pub fn relays() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("decomp.shift.relays"))
    }

    /// Labels kept, over all vertices.
    pub fn labels() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("decomp.shift.labels"))
    }
}

/// A label: source `u` reaching some vertex with value `m_u = T_u − dist`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Label {
    /// The originating centre.
    pub source: Vertex,
    /// `T_source − dist(source, here)`.
    pub value: f64,
}

/// The labels each vertex kept, best first, in one flat array grouped by
/// vertex: `labels[v]` is vertex `v`'s slice.
#[derive(Clone, Debug, PartialEq)]
pub struct Labels {
    /// Vertex `v`'s labels are `all[starts[v]..starts[v + 1]]`.
    pub(crate) starts: Vec<u32>,
    /// Every kept label, grouped by vertex.
    pub(crate) all: Vec<Label>,
}

impl Labels {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every vertex's labels, in vertex order.
    pub fn iter(&self) -> impl Iterator<Item = &[Label]> + '_ {
        (0..self.len()).map(|v| &self[v])
    }
}

impl std::ops::Index<usize> for Labels {
    type Output = [Label];

    fn index(&self, v: usize) -> &[Label] {
        &self.all[self.starts[v] as usize..self.starts[v + 1] as usize]
    }
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

/// The seed order as one integer (module docs): ascending keys put the
/// larger shift first, then the smaller source.
///
/// # Panics
///
/// Panics unless `shift` is finite and non-negative.
fn seed_key(shift: f64, source: Vertex) -> u128 {
    assert!(
        (0.0..f64::INFINITY).contains(&shift),
        "shift values are finite and non-negative, got {shift}"
    );
    // `+ 0.0` turns `-0.0` into `0.0` and leaves every other value alone.
    (u128::from(!(shift + 0.0).to_bits()) << 32) | u128::from(source)
}

/// How many labels each vertex retains.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keep {
    /// Keep the top `k` labels from distinct sources.
    Top(usize),
    /// Keep every label within `slack` of the per-vertex maximum.
    WithinSlackOfBest(f64),
}

/// Marks "no label" in the arena's per-vertex threads.
const NONE: u32 = u32::MAX;

/// A vertex's state during a run.
#[derive(Clone, Copy)]
struct Slot {
    /// How many labels the vertex kept.
    count: u32,
    /// The arena index of its latest label, or `NONE`.
    last: u32,
    /// The source of the latest relay queued to the vertex, or `NONE`.
    queued: Vertex,
    /// The value of its first label, its best; read only once `count > 0`.
    best: f64,
}

/// A kept label in the arena, threaded to the label its vertex kept before.
#[derive(Clone, Copy)]
struct Kept {
    value: f64,
    source: Vertex,
    /// The arena index of the vertex's previous label, or `NONE`.
    prev: u32,
}

/// The labels one run has kept so far, in keep order, each threaded to the
/// previous label kept at its vertex (module docs).
struct Arena {
    keep: Keep,
    kept: Vec<Kept>,
    /// The vertex of each kept label.
    at: Vec<Vertex>,
    slots: Vec<Slot>,
}

impl Arena {
    fn new(n: usize, keep: Keep) -> Self {
        // Room for two labels a vertex: exact for Elkin–Neiman's top two.
        Arena {
            keep,
            kept: Vec::with_capacity(2 * n),
            at: Vec::with_capacity(2 * n),
            slots: vec![
                Slot {
                    count: 0,
                    last: NONE,
                    queued: NONE,
                    best: 0.0
                };
                n
            ],
        }
    }

    /// Whether `v` keeps `value` of `source` if it arrives now: the keep
    /// policy has room and `v` does not hold `source` yet.
    fn admits(&self, v: Vertex, value: f64, source: Vertex) -> bool {
        let slot = self.slots[v as usize];
        let room = match self.keep {
            Keep::Top(k) => (slot.count as usize) < k,
            Keep::WithinSlackOfBest(slack) => slot.count == 0 || value >= slot.best - slack,
        };
        if !room {
            return false;
        }
        let mut i = slot.last;
        while i != NONE {
            let kept = self.kept[i as usize];
            if kept.source == source {
                return false;
            }
            i = kept.prev;
        }
        true
    }

    /// Whether a relay of `source` at `value` to `v` goes on the queue:
    /// `v` admits it now and no relay of `source` to `v` is queued yet
    /// (module docs). Marks it queued.
    fn queue(&mut self, v: Vertex, value: f64, source: Vertex) -> bool {
        if self.slots[v as usize].queued == source || !self.admits(v, value, source) {
            return false;
        }
        self.slots[v as usize].queued = source;
        true
    }

    /// Keeps `label` at `v`.
    fn push(&mut self, v: Vertex, label: Label) {
        let i = u32::try_from(self.kept.len()).expect("fewer than 2^32 kept labels");
        let slot = &mut self.slots[v as usize];
        if slot.count == 0 {
            slot.best = label.value;
        }
        slot.count += 1;
        self.kept.push(Kept {
            value: label.value,
            source: label.source,
            prev: slot.last,
        });
        slot.last = i;
        self.at.push(v);
    }

    /// Groups the kept labels by vertex in one counting pass; each vertex's
    /// labels stay in keep order, best first.
    fn into_labels(self) -> Labels {
        let n = self.slots.len();
        let mut starts = Vec::with_capacity(n + 1);
        let mut next = Vec::with_capacity(n);
        let mut total = 0u32;
        starts.push(0);
        for slot in &self.slots {
            next.push(total);
            total += slot.count;
            starts.push(total);
        }
        let mut all = vec![Label::default(); self.kept.len()];
        for (kept, &v) in self.kept.iter().zip(&self.at) {
            let at = &mut next[v as usize];
            all[*at as usize] = Label {
                source: kept.source,
                value: kept.value,
            };
            *at += 1;
        }
        Labels { starts, all }
    }
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
///
/// # Panics
///
/// Panics unless `shifts` has one entry per vertex, finite and
/// non-negative at every alive vertex.
pub fn propagate(g: &Graph, shifts: &[f64], keep: Keep, alive: Option<&[bool]>) -> Labels {
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
) -> Labels {
    let n = shifts.len();
    let mut keys: Vec<u128> = (0..n as Vertex)
        .filter(|&v| alive.is_none_or(|a| a[v as usize]))
        .map(|v| seed_key(shifts[v as usize], v))
        .collect();
    keys.sort_unstable();
    let mut seeds = keys
        .into_iter()
        .map(|key| {
            let source = key as Vertex;
            Entry {
                value: shifts[source as usize],
                source,
                vertex: source,
            }
        })
        .peekable();
    let mut relays: VecDeque<Entry> = VecDeque::with_capacity(n);
    let mut arena = Arena::new(n, keep);
    let mut pushed = 0usize;
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
        if !arena.admits(vertex, value, source) {
            continue;
        }
        arena.push(vertex, Label { source, value });
        // Relay, dropping what the target would reject anyway (module docs).
        let tail = relays.len();
        let relayed = value - 1.0;
        for w in relay(vertex) {
            if arena.queue(w, relayed, source) {
                relays.push_back(Entry {
                    value: relayed,
                    source,
                    vertex: w,
                });
            }
        }
        pushed += relays.len() - tail;
        // Rounding below 0.5 (module docs): move the batch to its place.
        if tail > 0 && relays.len() > tail && ahead(&relays[tail], &relays[tail - 1]) {
            let queue = relays.make_contiguous();
            let first = queue[tail];
            let at = queue[..tail].partition_point(|e| !ahead(&first, e));
            let batch = queue.len() - tail;
            queue[at..].rotate_right(batch);
        }
    }
    if dapc_obs::enabled() {
        metrics::relays().add(pushed as u64);
        metrics::labels().add(arena.kept.len() as u64);
    }
    arena.into_labels()
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

    /// One vertex's labels as `(source, value bits)`.
    fn label_bits(labels: &[Label]) -> Vec<(Vertex, u64)> {
        labels
            .iter()
            .map(|l| (l.source, l.value.to_bits()))
            .collect()
    }

    /// Flat labels as `(source, value bits)`: equal means bit-identical.
    pub(crate) fn bits(labels: &Labels) -> Vec<Vec<(Vertex, u64)>> {
        labels.iter().map(label_bits).collect()
    }

    /// [`bits`] of the heap reference's per-vertex lists.
    pub(crate) fn heap_bits(labels: &[Vec<Label>]) -> Vec<Vec<(Vertex, u64)>> {
        labels.iter().map(|ls| label_bits(ls)).collect()
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
                                heap_bits(&heap_propagate(&shifts, keep, alive, relay)),
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
            heap_bits(&heap_propagate(&shifts, Keep::Top(2), None, relay))
        );
        assert_eq!(labels[0][1].source, 1);
    }

    /// The integer seed key orders seeds exactly as the float comparison
    /// it replaced: the larger shift first, then the smaller source.
    #[test]
    fn seed_keys_sort_like_the_float_comparison() {
        let mut rng = gen::seeded_rng(47);
        for n in [1usize, 2, 17, 300] {
            let continuous = draw_shifts(n, 0.5, n as f64 + 1.0, &mut rng, None);
            let integer = integer_shifts(n, &mut rng);
            let tied = vec![2.5; n];
            // Zeros of both signs tie with each other.
            let zeros: Vec<f64> = (0..n)
                .map(|v| if v % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            for (kind, shifts) in [
                ("continuous", continuous),
                ("integer", integer),
                ("tied", tied),
                ("signed zeros", zeros),
            ] {
                let mut by_key: Vec<u128> = (0..n as Vertex)
                    .map(|v| seed_key(shifts[v as usize], v))
                    .collect();
                by_key.sort_unstable();
                let by_key: Vec<Vertex> = by_key.into_iter().map(|k| k as Vertex).collect();
                let mut by_float: Vec<Vertex> = (0..n as Vertex).collect();
                by_float.sort_unstable_by(|&a, &b| {
                    shifts[b as usize]
                        .partial_cmp(&shifts[a as usize])
                        .expect("shift values are finite")
                        .then(a.cmp(&b))
                });
                assert_eq!(by_key, by_float, "n={n} {kind} shifts");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_shifts_are_refused() {
        propagate(&gen::path(2), &[1.0, -1.0], Keep::Top(1), None);
    }

    /// A seed keeps its shift's own bits, `-0.0` included.
    #[test]
    fn seeds_keep_their_shift_bits() {
        let labels = propagate(&gen::path(2), &[-0.0, 0.0], Keep::Top(2), None);
        assert_eq!(labels[0][0].value.to_bits(), (-0.0f64).to_bits());
        assert_eq!(labels[1][0].value.to_bits(), 0.0f64.to_bits());
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
