//! ROADMAP item 16's reference instance: three-phase MIS on
//! `cycle(30_000)` at ε 0.3, `r_scale` 0.1, seed 0, whose round bill
//! (7,686) lies below the cycle's diameter (15,000). Most of its time
//! goes to the preparation's exact subset solves, each on a path or a
//! cycle.
//!
//! The test pins a digest of the assignment, the value and the round bill,
//! checks that every exact solve proved optimality, and prints its wall on
//! stderr. It asserts no time bound. It takes seconds in a release build,
//! so it is ignored by default; run it with
//!
//! ```text
//! cargo test --release -p dapc-core --test long_cycle -- --ignored --nocapture
//! ```
//!
//! A deliberate change of output must update the pin and say why.

use dapc_core::engine::{self, SolveConfig};
use dapc_core::params::ScaleKnobs;
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_local::RoundCost;
use std::time::Instant;

const N: usize = 30_000;

/// FNV-1a over the little-endian bytes of the folded `u64` words.
struct Digest(u64);

impl Digest {
    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
#[ignore = "seconds in release; CI runs it with --ignored"]
fn three_phase_mis_on_cycle_30000_is_pinned() {
    let ilp = problems::max_independent_set_unweighted(&gen::cycle(N));
    let knobs = ScaleKnobs {
        r_scale: 0.1,
        ..ScaleKnobs::default()
    };
    let cfg = SolveConfig::new().eps(0.3).knobs(knobs).seed(0);
    let start = Instant::now();
    let report = engine::solve("three-phase", &ilp, &cfg).expect("registered backend");
    eprintln!(
        "three-phase MIS on cycle({N}): {:.2} s",
        start.elapsed().as_secs_f64()
    );
    assert!(report.feasible());
    assert!(report.all_solves_exact(), "an exact solve hit its budget");
    let mut h = Digest(0xcbf2_9ce4_8422_2325);
    h.eat(report.assignment.len() as u64);
    for &x in &report.assignment {
        h.eat(u64::from(x));
    }
    h.eat(report.value);
    h.eat(report.ledger.phases().len() as u64);
    for phase in report.ledger.phases() {
        h.eat(phase.name.len() as u64);
        for b in phase.name.bytes() {
            h.eat(u64::from(b));
        }
        h.eat(phase.rounds as u64);
    }
    h.eat(report.ledger.total_rounds() as u64);
    eprintln!(
        "value {}, {} rounds, digest {:#018x}",
        report.value,
        report.ledger.total_rounds(),
        h.0
    );
    assert_eq!((report.value, report.rounds()), (14_970, 7_686));
    assert_eq!(h.0, 0xfe3f_ec34_b3f8_91a1, "outputs moved");
}
