//! Pins the exact outputs of the carving solvers — packing (Theorem 1.2),
//! covering (Theorem 1.3), the GKM17 baseline and the §4.2 ensemble — on
//! fixed instances and seeds.
//!
//! Each digest folds the assignment, the value, every phase of the round
//! bill and the solver's stats. No table row depends on where a carve
//! lands, and a moved carve can leave the assignment as it was while it
//! moves the stats (which layers were fixed, which hyperedges were cut),
//! so the stats are part of every digest. The instances are long cycles,
//! where the carving radii are far below the diameter and every seed
//! carves; GKM runs at `k_scale` 0.5 and 1.0 (`k` = 11 and 22), where its
//! window searches have several starts to choose from. A deliberate change
//! of output must update the pin and say why.

use dapc_core::covering::approximate_covering;
use dapc_core::ensemble::packing_ensemble;
use dapc_core::gkm::{gkm_solve, GkmParams};
use dapc_core::packing::approximate_packing;
use dapc_core::params::PcParams;
use dapc_graph::gen;
use dapc_ilp::instance::IlpInstance;
use dapc_ilp::problems;
use dapc_local::RoundLedger;

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

    /// The assignment, its value and the round bill, phase by phase.
    fn solution(&mut self, assignment: &[bool], value: u64, ledger: &RoundLedger) {
        self.list(assignment.iter().map(|&x| u64::from(x)));
        self.eat(value);
        self.eat(ledger.phases().len() as u64);
        for phase in ledger.phases() {
            self.list(phase.name.bytes().map(u64::from));
            self.eat(phase.rounds as u64);
        }
        self.eat(ledger.total_rounds() as u64);
    }
}

const N: usize = 600;
const EPS: f64 = 0.3;
const SEEDS: std::ops::Range<u64> = 0..5;

/// One digest per seed.
const PACKING: [u64; 5] = [
    0xef7f_bb7e_7fd3_ea05,
    0x3ec0_2be8_1f93_63aa,
    0x2d92_378a_4ef9_dc28,
    0xb64d_e44e_9576_9c89,
    0x4608_da6e_b72c_d209,
];

/// One digest per seed.
const COVERING: [u64; 5] = [
    0x8c4d_ed04_7a85_3b29,
    0x2cb6_3b4b_b2e6_4b5d,
    0x4fc2_563e_6dc4_6c7b,
    0x9690_df6a_247c_7f86,
    0x4e79_ec5e_f9fb_6efd,
];

/// MIS then vertex cover; `k_scale` 0.5 then 1.0; seeds 0–2.
const GKM: [u64; 12] = [
    0xd1a7_42d4_d5b9_26a1,
    0xeaa4_c70b_0d89_94a3,
    0x669c_62b7_19e9_e974,
    0xc3fb_151b_9f2a_e60a,
    0xbb39_12fe_3158_c8ac,
    0x1bbc_9952_acae_340b,
    0x8a3f_9b05_f752_c951,
    0x4bad_5d78_5beb_f3df,
    0x14e9_c4fc_5135_f8fc,
    0xdea3_a2a8_e6d9_dcfc,
    0x897d_bf42_83d0_ddb4,
    0x30e6_187f_ab1f_0f53,
];

/// One digest per seed.
const ENSEMBLE: [u64; 5] = [
    0xc32e_12b4_aeb4_8de3,
    0xeec4_667a_6472_23a1,
    0xdea9_0ff8_74c7_bf9a,
    0xd213_a021_1f9d_6dfe,
    0xaebb_6319_69ce_f36e,
];

fn mis() -> IlpInstance {
    problems::max_independent_set_unweighted(&gen::cycle(N))
}

fn vc() -> IlpInstance {
    problems::min_vertex_cover_unweighted(&gen::cycle(N))
}

#[test]
fn packing_is_pinned() {
    let ilp = mis();
    let params = PcParams::packing_scaled(EPS, N as f64, 0.02, 0.3);
    let got: Vec<u64> = SEEDS
        .map(|seed| {
            let out = approximate_packing(&ilp, &params, &mut gen::seeded_rng(seed));
            let s = &out.stats;
            // The pin bites on where the carves land only if they delete.
            assert!(s.deleted_carving > 0, "seed {seed}: no carve deleted");
            let mut h = Digest::new();
            h.solution(&out.assignment, out.value, &out.ledger);
            h.list(s.centers_per_iteration.iter().map(|&c| c as u64));
            h.eat(s.centers_phase2 as u64);
            h.eat(s.deleted_carving as u64);
            h.eat(s.deleted_phase3 as u64);
            h.eat(s.components as u64);
            h.eat(u64::from(s.all_solves_exact));
            h.0
        })
        .collect();
    assert_eq!(got, PACKING, "packing outputs moved");
}

#[test]
fn covering_is_pinned() {
    let ilp = vc();
    let params = PcParams::covering_scaled(EPS, N as f64, 0.02, 0.3, 1.0);
    let got: Vec<u64> = SEEDS
        .map(|seed| {
            let out = approximate_covering(&ilp, &params, &mut gen::seeded_rng(seed));
            let s = &out.stats;
            assert!(s.deleted_edges > 0, "seed {seed}: no carve cut a hyperedge");
            let mut h = Digest::new();
            h.solution(&out.assignment, out.value, &out.ledger);
            h.list(s.centers_per_iteration.iter().map(|&c| c as u64));
            h.eat(s.fixed_weight);
            h.eat(s.deleted_edges as u64);
            h.eat(s.removed_vertices as u64);
            h.eat(s.removed_regions as u64);
            h.eat(s.cover_clusters as u64);
            h.eat(u64::from(s.all_solves_exact));
            h.0
        })
        .collect();
    assert_eq!(got, COVERING, "covering outputs moved");
}

#[test]
fn gkm_is_pinned() {
    let mut got = Vec::new();
    for ilp in [mis(), vc()] {
        for k_scale in [0.5, 1.0] {
            let params = GkmParams::new(EPS, N as f64, k_scale);
            for seed in 0..3 {
                let out = gkm_solve(&ilp, &params, &mut gen::seeded_rng(seed));
                let mut h = Digest::new();
                h.solution(&out.assignment, out.value, &out.ledger);
                h.eat(u64::from(out.stats.colors));
                h.eat(u64::from(out.stats.all_solves_exact));
                got.push(h.0);
            }
        }
    }
    assert_eq!(got, GKM, "GKM outputs moved");
}

#[test]
fn ensemble_is_pinned() {
    let ilp = mis();
    let params = PcParams::packing_scaled(EPS, N as f64, 0.02, 0.3);
    let got: Vec<u64> = SEEDS
        .map(|seed| {
            let out = packing_ensemble(&ilp, &params, Some(8), &mut gen::seeded_rng(seed));
            let mut h = Digest::new();
            h.solution(&out.assignment, out.value, &out.ledger);
            h.list(out.stats.candidate_values.iter().copied());
            h.eat(out.stats.reweighted_value);
            h.eat(u64::from(out.stats.all_solves_exact));
            h.0
        })
        .collect();
    assert_eq!(got, ENSEMBLE, "ensemble outputs moved");
}
