//! Pins the work counters of the shift propagation, `decomp.shift.relays`
//! and `decomp.shift.labels`, on fixed inputs. The metrics registry is
//! process-global, so this file holds a single test and runs in a process
//! of its own.

use dapc_decomp::shift::{draw_shifts, propagate, Keep, Labels};
use dapc_decomp::sparse_cover::sparse_cover;
use dapc_graph::{gen, Graph, Hypergraph, Vertex};

/// One pinned propagation and its counts.
struct Case<'a> {
    name: &'a str,
    g: &'a Graph,
    lambda: f64,
    keep: Keep,
    alive: Option<&'a [bool]>,
    /// `[relays, labels, fan-out]`. The fan-out counts every relay of
    /// every kept label: what the queue would take with no push-time
    /// filter.
    pinned: [u64; 3],
}

/// Kept labels, and the relays their vertices fan out to.
fn kept_and_fan_out(g: &Graph, labels: &Labels, alive: Option<&[bool]>) -> (u64, u64) {
    let live = |w: &&Vertex| alive.is_none_or(|a| a[**w as usize]);
    labels
        .iter()
        .enumerate()
        .fold((0, 0), |(kept, fan_out), (v, ls)| {
            let degree = g.neighbors(v as Vertex).iter().filter(live).count();
            (kept + ls.len() as u64, fan_out + (ls.len() * degree) as u64)
        })
}

#[test]
fn shift_counters_are_pinned() {
    dapc_obs::set_enabled(true);
    let relays = dapc_obs::counter("decomp.shift.relays");
    let labels = dapc_obs::counter("decomp.shift.labels");
    let ring = gen::cycle(300);
    let grid = gen::grid(6, 6);
    let dense = gen::gnp(60, 0.3, &mut gen::seeded_rng(2));
    let mask: Vec<bool> = (0..60).map(|v| v % 7 != 0).collect();
    let cases = [
        Case {
            name: "cycle(300), top 2",
            g: &ring,
            lambda: 0.5,
            keep: Keep::Top(2),
            alive: None,
            pinned: [630, 600, 1200],
        },
        Case {
            name: "grid 6x6, top 1",
            g: &grid,
            lambda: 0.5,
            keep: Keep::Top(1),
            alive: None,
            pinned: [53, 36, 120],
        },
        Case {
            name: "grid 6x6, slack 1",
            g: &grid,
            lambda: 0.5,
            keep: Keep::WithinSlackOfBest(1.0),
            alive: None,
            pinned: [73, 89, 299],
        },
        Case {
            name: "masked gnp(60, 0.3), top 2",
            g: &dense,
            lambda: 0.3,
            keep: Keep::Top(2),
            alive: Some(&mask),
            pinned: [252, 102, 1468],
        },
    ];
    for case in cases {
        let (g, alive) = (case.g, case.alive);
        let shifts = draw_shifts(
            g.n(),
            case.lambda,
            g.n() as f64,
            &mut gen::seeded_rng(1),
            alive,
        );
        let (relays_before, labels_before) = (relays.get(), labels.get());
        let out = propagate(g, &shifts, case.keep, alive);
        let (kept, fan_out) = kept_and_fan_out(g, &out, alive);
        let counted = [
            relays.get() - relays_before,
            labels.get() - labels_before,
            fan_out,
        ];
        let name = case.name;
        assert_eq!(
            counted[1], kept,
            "{name}: the label counter disagrees with the output"
        );
        assert!(counted[0] <= fan_out, "{name}: more relays than fan-out");
        assert_eq!(
            counted, case.pinned,
            "{name}: [relays, labels, fan-out] moved"
        );
    }
    // The sparse cover of a dominating-set hypergraph (closed
    // neighbourhoods of a cycle) at the covering solver's rate: hyperedges
    // overlap, so a kept label reaches most neighbours twice.
    let ring = gen::cycle(33);
    let closed = ring
        .vertices()
        .map(|v| {
            let mut e = ring.neighbors(v).to_vec();
            e.push(v);
            e
        })
        .collect();
    let h = Hypergraph::new(33, closed);
    let (relays_before, labels_before) = (relays.get(), labels.get());
    let cover = sparse_cover(&h, 1.05f64.ln(), 33.0, &mut gen::seeded_rng(1), None, None);
    let kept: usize = (0..33).map(|v| cover.multiplicity(v)).sum();
    let fan_out: usize = (0..33)
        .map(|v| {
            let reach: usize = h
                .incident_edges(v)
                .iter()
                .map(|&e| h.edge(e).len() - 1)
                .sum();
            cover.multiplicity(v) * reach
        })
        .sum();
    let counted = [
        relays.get() - relays_before,
        labels.get() - labels_before,
        fan_out as u64,
    ];
    assert_eq!(
        counted[1], kept as u64,
        "cover: the label counter disagrees"
    );
    assert_eq!(
        counted,
        [32, 33, 198],
        "cover: [relays, labels, fan-out] moved"
    );
}
