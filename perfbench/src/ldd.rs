//! `ldd_verify`: Theorem 1.1's three-phase LDD and the Elkin–Neiman
//! baseline on three graph families and three ε, every decomposition
//! checked with `validate`, `max_weak_diameter` and
//! `max_strong_diameter`. Single-threaded; the checker dominates.

use crate::common::{
    drive, repeated_setup, timed, Digest, Gate, Metrics, Opts, Outcome, Phase, Scale, Stop,
    GRAPH_SEED,
};
use crate::host::Host;
use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
use dapc_decomp::Decomposition;
use dapc_graph::{gen, Graph};
use dapc_local::RoundCost;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Digest of the first round at the default seed.
const GOLDEN: u64 = 0x7955_51fd_19af_b85e;

const EPS: [f64; 3] = [0.1, 0.2, 0.4];

/// The default seed's 4-regular graph, kept for every seed.
const REG4_SEED: u64 = 0x9e37_79ba;

/// The workload is single-threaded.
const HOST: Host = Host::threads(1);

/// Requests (checked decompositions) in each phase of a traced run: two
/// rounds.
const TRACED_REQUESTS: usize = 36;

struct Inputs {
    graphs: Vec<(&'static str, Graph)>,
}

fn setup(opts: &Opts) -> Inputs {
    let n: usize = match opts.scale {
        Scale::Full => 2048,
        Scale::Tiny => 256,
    };
    let side = (n as f64).sqrt().round() as usize;
    Inputs {
        graphs: vec![
            (
                "gnp",
                gen::gnp(n, 6.0 / n as f64, &mut gen::seeded_rng(GRAPH_SEED)),
            ),
            ("grid", gen::grid(side, side)),
            // One fixed 4-regular graph: the configuration model restarts
            // until its pairing is simple, so a graph drawn from the seed
            // would make set-up time a geometric random variable.
            (
                "reg4",
                gen::random_regular(n, 4, &mut gen::seeded_rng(REG4_SEED)),
            ),
        ],
    }
}

/// Checked decompositions per round: every family × ε × algorithm.
const PER_ROUND: usize = 3 * EPS.len() * 2;

/// Request `i` of a round: which graph, ε and algorithm. Rounds differ
/// only in their RNG seeds, so every round runs the same mix; every
/// phase of a traced run starts again from round 0, so those phases do
/// identical work.
fn request(i: usize) -> (usize, f64, bool) {
    (
        i / (EPS.len() * 2),
        EPS[(i / 2) % EPS.len()],
        i.is_multiple_of(2),
    )
}

fn decompose(g: &Graph, eps: f64, three_phase: bool, seed: u64) -> Decomposition {
    let n = g.n() as f64;
    let mut rng = gen::seeded_rng(seed);
    if three_phase {
        three_phase_ldd(g, &LddParams::scaled(eps, n, 0.05), &mut rng, None).decomposition
    } else {
        elkin_neiman(g, &EnParams::new(eps, n), &mut rng, None)
    }
}

/// The three checks; returns the digest of everything a pure speed-up
/// of the algorithms or the checker must keep.
fn check(g: &Graph, d: &Decomposition) -> Result<u64, String> {
    d.validate(g, None)?;
    let weak = catch_unwind(AssertUnwindSafe(|| d.max_weak_diameter(g)))
        .map_err(|_| "a cluster is disconnected in G".to_string())?;
    let strong = d.max_strong_diameter(g);
    let mut h = Digest::default();
    for c in &d.cluster_of {
        h.u64(c.map_or(u64::MAX, u64::from));
    }
    h.bools(&d.deleted)
        .u64(d.rounds() as u64)
        .u64(u64::from(weak))
        .u64(strong.map_or(u64::MAX, u64::from));
    Ok(h.0)
}

pub fn run(opts: &Opts) -> Outcome {
    let (inputs, setup_s) = repeated_setup(HOST, || setup(opts));
    let golden = opts.golden(GOLDEN);
    let mut first_round: Option<u64> = None;
    // Where the next slice of a measured run picks up, so its rounds
    // draw new decompositions instead of repeating the first slice's.
    let mut next_round = 0u64;
    let mut gate = Gate::default();
    let metrics = drive(
        opts,
        HOST,
        setup_s,
        TRACED_REQUESTS,
        &mut gate,
        |stop: Stop, gate: &mut Gate, layer: &mut Metrics| {
            let mut phase = Phase::start();
            let (mut ldd_s, mut check_s) = (0.0, 0.0);
            let (mut clusters, mut clustered) = (0usize, 0usize);
            let mut round = Digest::default();
            // The phases of a traced run repeat the same rounds.
            let mut rounds = match stop {
                Stop::After(_) => next_round,
                Stop::Requests(_) => 0,
            };
            // Whole rounds only, so every phase runs the same mix.
            while !phase.len().is_multiple_of(PER_ROUND) || !stop.done(phase.started(), phase.len())
            {
                let i = phase.len() % PER_ROUND;
                let (family, eps, three_phase) = request(i);
                let g = &inputs.graphs[family].1;
                let seed = (opts.seed << 32) ^ (rounds << 8) ^ i as u64;
                let (d, t_ldd) = timed(|| decompose(g, eps, three_phase, seed));
                let (checked, t_check) = timed(|| check(g, &d));
                ldd_s += t_ldd.as_secs_f64();
                check_s += t_check.as_secs_f64();
                phase.record(t_ldd + t_check, 1);
                clusters += d.clusters.len();
                clustered += d.clusters.iter().map(Vec::len).sum::<usize>();
                let name = inputs.graphs[family].0;
                match checked {
                    Ok(digest) => {
                        gate.check(Ok(()));
                        round.u64(digest);
                    }
                    Err(e) => gate.check(Err(format!("{name} eps={eps}: {e}"))),
                }
                if i + 1 == PER_ROUND {
                    if rounds == 0 {
                        match first_round {
                            None => {
                                gate.golden("ldd_verify first round", round.0, golden);
                                first_round = Some(round.0);
                            }
                            Some(d) if d != round.0 => gate.fail(format!(
                                "first-round digest {:#018x} differs from an earlier phase's {d:#018x}",
                                round.0
                            )),
                            Some(_) => {}
                        }
                    }
                    rounds += 1;
                    round = Digest::default();
                }
            }
            next_round = rounds;
            layer.push("decomp.ldd_s", ldd_s, "s");
            layer.push("decomp.check_s", check_s, "s");
            layer.push("decomp.check_share", check_s / (ldd_s + check_s), "ratio");
            layer.push("decomp.clusters", clusters as f64, "count");
            layer.push("decomp.cluster_vertices", clustered as f64, "count");
            phase.finish()
        },
    );
    Outcome {
        gate,
        metrics,
        exec_workers: dapc_exec::global().workers(),
    }
}
