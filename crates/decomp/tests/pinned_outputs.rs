//! Pins the exact outputs of the exponential-shift decompositions —
//! Elkin–Neiman (unmasked and masked), Miller–Peng–Xu, the sparse cover
//! and the labels of the shared propagation — and of the three-phase LDD
//! of Theorem 1.1 (unweighted and weighted) on fixed graphs and seeds.
//!
//! Each digest folds every cluster, every label (source and value bits)
//! and every membership list, and for the three-phase LDD its stats and
//! round bill, so a change to the propagation, to the grouping or to where
//! a carve lands that moves any output bit fails here. A deliberate change of
//! output must update the pin and say why.

use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
use dapc_decomp::mpx::mpx;
use dapc_decomp::shift::{draw_shifts, propagate, Keep};
use dapc_decomp::sparse_cover::sparse_cover;
use dapc_decomp::three_phase::{
    three_phase_ldd, three_phase_ldd_weighted, LddParams, ThreePhaseOutcome,
};
use dapc_decomp::{Decomposition, SparseCover};
use dapc_graph::{gen, Graph, Hypergraph, Vertex};
use rand::RngExt;

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn list(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.eat(xs.len() as u64);
        for x in xs {
            self.eat(x);
        }
    }
}

/// The fixed graphs: sparse random, grid, long cycle, 4-regular, and a
/// complete graph where every vertex hears every source.
fn graphs() -> Vec<Graph> {
    vec![
        gen::gnp(300, 4.0 / 300.0, &mut gen::seeded_rng(7)),
        gen::grid(12, 16),
        gen::cycle(300),
        gen::random_regular(200, 4, &mut gen::seeded_rng(3)),
        gen::complete(24),
    ]
}

/// A fixed mask keeping about four vertices in five.
fn mask(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = gen::seeded_rng(seed);
    (0..n).map(|_| rng.random_bool(0.8)).collect()
}

fn decomposition(h: &mut Digest, d: &Decomposition) {
    h.list(d.cluster_of.iter().map(|c| c.map_or(u64::MAX, u64::from)));
    h.list(d.deleted.iter().map(|&x| u64::from(x)));
    h.eat(d.clusters.len() as u64);
    for c in &d.clusters {
        h.list(c.iter().map(|&v| u64::from(v)));
    }
}

fn cover(h: &mut Digest, c: &SparseCover, n: usize) {
    h.eat(c.clusters.len() as u64);
    for cluster in &c.clusters {
        h.list(cluster.iter().map(|&v| u64::from(v)));
    }
    for v in 0..n as Vertex {
        h.list(c.clusters_of(v).iter().map(|&id| u64::from(id)));
    }
}

const LAMBDAS: [f64; 3] = [0.3, 0.5, 1.0];

#[test]
fn elkin_neiman_is_pinned() {
    let mut h = Digest::new();
    for (i, g) in graphs().iter().enumerate() {
        for (j, &lambda) in LAMBDAS.iter().enumerate() {
            let mut rng = gen::seeded_rng(100 + 10 * i as u64 + j as u64);
            let d = elkin_neiman(g, &EnParams::new(lambda, g.n() as f64), &mut rng, None);
            decomposition(&mut h, &d);
        }
    }
    assert_eq!(h.0, 0x32ef_da68_8c0a_ecf5, "Elkin–Neiman outputs moved");
}

#[test]
fn masked_elkin_neiman_is_pinned() {
    let mut h = Digest::new();
    for (i, g) in graphs().iter().enumerate() {
        let alive = mask(g.n(), 200 + i as u64);
        for (j, &lambda) in LAMBDAS.iter().enumerate() {
            let mut rng = gen::seeded_rng(300 + 10 * i as u64 + j as u64);
            let params = EnParams::new(lambda, g.n() as f64);
            let d = elkin_neiman(g, &params, &mut rng, Some(&alive));
            decomposition(&mut h, &d);
        }
    }
    assert_eq!(
        h.0, 0x5f90_4c6e_d3d1_d9a1,
        "masked Elkin–Neiman outputs moved"
    );
}

#[test]
fn mpx_is_pinned() {
    let mut h = Digest::new();
    for (i, g) in graphs().iter().enumerate() {
        for (j, &lambda) in LAMBDAS.iter().enumerate() {
            let mut rng = gen::seeded_rng(400 + 10 * i as u64 + j as u64);
            let c = mpx(g, lambda, g.n() as f64, &mut rng);
            h.list(c.center_of.iter().map(|&v| u64::from(v)));
            h.list(
                c.cut_edges
                    .iter()
                    .map(|&(u, v)| u64::from(u) << 32 | u64::from(v)),
            );
        }
    }
    assert_eq!(h.0, 0x3342_4cfb_2724_bfac, "MPX outputs moved");
}

#[test]
fn sparse_cover_is_pinned() {
    let mut hypergraphs: Vec<Hypergraph> = graphs().iter().map(Hypergraph::from_graph).collect();
    let mut rng = gen::seeded_rng(500);
    let n = 120;
    let edges: Vec<Vec<Vertex>> = (0..150)
        .map(|_| (0..3).map(|_| rng.random_range(0..n) as Vertex).collect())
        .collect();
    hypergraphs.push(Hypergraph::new(n, edges));
    let mut h = Digest::new();
    for (i, hg) in hypergraphs.iter().enumerate() {
        let alive_v = mask(hg.n(), 600 + i as u64);
        let alive_e = mask(hg.m(), 700 + i as u64);
        let masks = [
            (None, None),
            (Some(alive_v.as_slice()), Some(alive_e.as_slice())),
        ];
        for (k, (v_mask, e_mask)) in masks.into_iter().enumerate() {
            for (j, &lambda) in LAMBDAS.iter().enumerate() {
                let seed = 800 + 100 * k as u64 + 10 * i as u64 + j as u64;
                let c = sparse_cover(
                    hg,
                    lambda,
                    hg.n() as f64,
                    &mut gen::seeded_rng(seed),
                    v_mask,
                    e_mask,
                );
                cover(&mut h, &c, hg.n());
            }
        }
    }
    assert_eq!(h.0, 0xfef5_741a_08f0_b145, "sparse-cover outputs moved");
}

#[test]
fn labels_are_pinned() {
    let mut h = Digest::new();
    for (i, g) in graphs().iter().enumerate() {
        let alive = mask(g.n(), 900 + i as u64);
        for (k, alive) in [None, Some(alive.as_slice())].into_iter().enumerate() {
            for (j, &lambda) in LAMBDAS.iter().enumerate() {
                let seed = 1000 + 100 * k as u64 + 10 * i as u64 + j as u64;
                let shifts = draw_shifts(
                    g.n(),
                    lambda,
                    g.n() as f64,
                    &mut gen::seeded_rng(seed),
                    alive,
                );
                for keep in [Keep::Top(1), Keep::Top(2), Keep::WithinSlackOfBest(1.0)] {
                    let labels = propagate(g, &shifts, keep, alive);
                    for v in 0..g.n() {
                        let ls = &labels[v];
                        h.list(ls.iter().map(|l| u64::from(l.source)));
                        h.list(ls.iter().map(|l| l.value.to_bits()));
                    }
                }
            }
        }
    }
    assert_eq!(h.0, 0x9267_bdb6_2ab9_add6, "propagation labels moved");
}

/// The three-phase LDD's decomposition, stats and round bill.
fn three_phase(h: &mut Digest, out: &ThreePhaseOutcome) {
    decomposition(h, &out.decomposition);
    let s = &out.stats;
    h.list(s.centers_per_iteration.iter().map(|&c| c as u64));
    h.eat(s.centers_phase2 as u64);
    h.eat(s.deleted_phase1 as u64);
    h.eat(s.deleted_phase2 as u64);
    h.eat(s.deleted_phase3 as u64);
    h.eat(s.removed_carving as u64);
    h.eat(s.deleted_mass);
    let ledger = &out.decomposition.ledger;
    h.eat(ledger.phases().len() as u64);
    for phase in ledger.phases() {
        h.list(phase.name.bytes().map(u64::from));
        h.eat(phase.rounds as u64);
    }
}

/// The 30×30 grid at ε 0.4: the carving radii sit far below its diameter
/// of 58, so every seed's Phase 1 deletes, and where its window search
/// lands decides which vertices.
fn three_phase_case() -> (Graph, LddParams) {
    (gen::grid(30, 30), LddParams::scaled(0.4, 900.0, 0.05))
}

#[test]
fn three_phase_is_pinned() {
    let (g, params) = three_phase_case();
    let got: Vec<u64> = (0..5)
        .map(|seed| {
            let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(seed), None);
            assert!(
                out.stats.deleted_phase1 > 0,
                "seed {seed}: Phase 1 deleted nothing"
            );
            let mut h = Digest::new();
            three_phase(&mut h, &out);
            h.0
        })
        .collect();
    assert_eq!(
        got,
        [
            0xe402_0057_078a_29a8,
            0x632e_5269_2411_4112,
            0xb91f_6cc2_2a57_68b0,
            0x35ce_8c23_b0b8_31f0,
            0x21d9_06dd_cb6b_c8b5,
        ],
        "three-phase LDD outputs moved"
    );
}

#[test]
fn weighted_three_phase_is_pinned() {
    let (g, params) = three_phase_case();
    let weights: Vec<u64> = (0..g.n() as u64).map(|v| 1 + v * 7 % 5).collect();
    let got: Vec<u64> = (0..5)
        .map(|seed| {
            let mut rng = gen::seeded_rng(seed);
            let out = three_phase_ldd_weighted(&g, &params, &weights, &mut rng, None);
            assert!(
                out.stats.deleted_phase1 > 0,
                "seed {seed}: Phase 1 deleted nothing"
            );
            let mut h = Digest::new();
            three_phase(&mut h, &out);
            h.0
        })
        .collect();
    assert_eq!(
        got,
        [
            0xd166_04af_7c8f_45b3,
            0x544b_fb57_28b9_1e72,
            0xc35b_025d_ad71_3282,
            0x41ca_3007_72af_089f,
            0xde4a_fbf0_8b8e_e9c8,
        ],
        "weighted three-phase LDD outputs moved"
    );
}
