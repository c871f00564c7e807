//! `ilp_cold`: cold batches of packing (MIS) and covering (VC, DS,
//! 2-DS) jobs through `solve_many_streaming_with_cache`, each batch on a
//! fresh `PrepCache` with reference optima, at `jobs = 2` and
//! `prep_workers = 2` on an executor pinned to `nproc` workers. Long
//! cycles make the carving phases delete for real.

use crate::common::{
    drive, quantile, repeated_setup, sorted, timed, Digest, Gate, Metrics, Opts, Outcome, Phase,
    Scale, Stop, GRAPH_SEED,
};
use crate::host::Host;
use dapc_core::engine::SolveConfig;
use dapc_core::params::ScaleKnobs;
use dapc_core::prep::SubsetSolver;
use dapc_exec::Executor;
use dapc_graph::gen;
use dapc_ilp::{problems, IlpInstance};
use dapc_local::RoundCost;
use dapc_runtime::{
    solve_many_streaming_with_cache, Corpus, JobResult, PrepCache, RuntimeConfig, StreamReport,
};
use std::sync::{Arc, Mutex};

/// Digest of one batch at the default seed.
const GOLDEN: u64 = 0x2c5e_3fc7_836b_a131;

/// Two batch jobs at a time keep two threads busy.
const HOST: Host = Host::threads(2);

/// Requests (cold batches) in each phase of a traced run.
const TRACED_REQUESTS: usize = 12;

/// One batch is three corpora streamed through one fresh cache: small
/// instances with reference optima, and long MIS/VC cycles, which skip
/// the exponential reference solve.
struct Batch {
    exec: Executor,
    small: Corpus,
    small_instances: Vec<IlpInstance>,
    long: Vec<Corpus>,
    rt_small: RuntimeConfig,
    rt_long: RuntimeConfig,
}

fn setup(opts: &Opts, nproc: usize) -> Batch {
    let tiny = opts.scale == Scale::Tiny;
    let rng = |k: u64| gen::seeded_rng(GRAPH_SEED + k);
    let base = opts.seed * 1000;
    let seeds = base..base + if tiny { 1 } else { 2 };
    let small_instances: Vec<(&str, IlpInstance)> = vec![
        (
            "MIS/cycle40",
            problems::max_independent_set_unweighted(&gen::cycle(40)),
        ),
        (
            "MIS/grid6x7",
            problems::max_independent_set_unweighted(&gen::grid(6, 7)),
        ),
        (
            "MIS/gnp44",
            problems::max_independent_set_unweighted(&gen::gnp(44, 0.07, &mut rng(1))),
        ),
        (
            "MIS/reg4",
            problems::max_independent_set_unweighted(&gen::random_regular(40, 4, &mut rng(2))),
        ),
        (
            "VC/cycle36",
            problems::min_vertex_cover_unweighted(&gen::cycle(36)),
        ),
        (
            "VC/gnp32",
            problems::min_vertex_cover_unweighted(&gen::gnp(32, 0.1, &mut rng(3))),
        ),
        (
            "DS/cycle33",
            problems::min_dominating_set_unweighted(&gen::cycle(33)),
        ),
        (
            "DS/grid4x5",
            problems::min_dominating_set_unweighted(&gen::grid(4, 5)),
        ),
        (
            "2-DS/cycle30",
            problems::k_dominating_set(&gen::cycle(30), 2, vec![1; 30]),
        ),
    ];
    let mut b = Corpus::builder()
        .backend("three-phase")
        .eps_grid([0.2, 0.3])
        .seeds(seeds.clone());
    for (name, ilp) in &small_instances {
        b = b.instance(*name, ilp.clone());
    }
    let small = b.build();
    let (n, long_seeds) = if tiny { (300, 1) } else { (800, 2) };
    let long = |name: &str, ilp: IlpInstance, r_scale: f64, eps: f64| {
        Corpus::builder()
            .instance(name, ilp)
            .backend("three-phase")
            .eps(eps)
            .seeds(base..base + long_seeds)
            .base_config(SolveConfig::new().knobs(ScaleKnobs {
                r_scale,
                ..ScaleKnobs::default()
            }))
            .build()
    };
    Batch {
        exec: Executor::new(nproc),
        small,
        small_instances: small_instances.into_iter().map(|(_, i)| i).collect(),
        long: vec![
            long(
                "MIS/cycle-long",
                problems::max_independent_set_unweighted(&gen::cycle(n)),
                0.1,
                0.2,
            ),
            long(
                "VC/cycle-long",
                problems::min_vertex_cover_unweighted(&gen::cycle(n)),
                0.3,
                0.3,
            ),
        ],
        rt_small: RuntimeConfig::new().jobs(2).prep_workers(2),
        rt_long: RuntimeConfig::new()
            .jobs(2)
            .prep_workers(2)
            .reference_optima(false),
    }
}

/// Folds one job's outcome into `h`: key, value, assignment,
/// feasibility and round bill.
pub fn job_digest(h: &mut Digest, r: &JobResult) {
    h.str(&r.key.to_string())
        .u64(r.report.value)
        .bools(&r.report.assignment)
        .u64(u64::from(r.report.feasible()))
        .u64(r.report.rounds() as u64);
}

/// What one cold batch produced.
struct BatchOut {
    digest: u64,
    jobs: Vec<JobResult>,
    reports: Vec<StreamReport>,
    problems: Vec<String>,
}

fn run_batch(b: &Batch) -> BatchOut {
    let cache = PrepCache::new();
    let sink: Arc<Mutex<Vec<JobResult>>> = Arc::default();
    let mut reports = Vec::new();
    let mut problems = Vec::new();
    dapc_exec::with_executor(&b.exec, || {
        let hook = |sink: &Arc<Mutex<Vec<JobResult>>>| {
            let sink = Arc::clone(sink);
            move |r: JobResult| sink.lock().expect("result sink").push(r)
        };
        let small = solve_many_streaming_with_cache(&b.small, &b.rt_small, &cache, hook(&sink));
        for g in small.groups.iter().filter(|g| !g.opt_exact) {
            problems.push(format!("{}: no exact reference optimum", g.instance));
        }
        reports.push(small);
        for corpus in &b.long {
            let long = solve_many_streaming_with_cache(corpus, &b.rt_long, &cache, hook(&sink));
            reports.push(long);
        }
    });
    let jobs = Arc::try_unwrap(sink)
        .expect("streaming returned, hooks dropped")
        .into_inner()
        .expect("result sink");
    let mut h = Digest::default();
    for r in &jobs {
        job_digest(&mut h, r);
        if !r.report.feasible() {
            problems.push(format!("{}: infeasible assignment", r.key));
        }
    }
    BatchOut {
        digest: h.0,
        jobs,
        reports,
        problems,
    }
}

pub fn run(opts: &Opts, nproc: usize) -> Outcome {
    let (batch, setup_s) = repeated_setup(HOST, || setup(opts, nproc));
    let golden = opts.golden(GOLDEN);
    let mut first: Option<u64> = None;
    let mut gate = Gate::default();
    // Timed before the traced phase, so its solves stay out of the
    // registry delta.
    let optima_s = opts.trace.then(|| optima_s(&batch));
    let metrics = drive(
        opts,
        HOST,
        setup_s,
        TRACED_REQUESTS,
        &mut gate,
        |stop: Stop, gate: &mut Gate, layer: &mut Metrics| {
            let mut phase = Phase::start();
            let mut micros = Vec::new();
            let (mut busy_wall, mut peak, mut bytes) = (0.0, 0usize, 0usize);
            while !stop.done(phase.started(), phase.len()) {
                let (out, took) = timed(|| run_batch(&batch));
                phase.record(took, out.jobs.len() as u64);
                let deterministic = match first {
                    None => {
                        gate.golden("ilp_cold batch", out.digest, golden);
                        first = Some(out.digest);
                        Ok(())
                    }
                    Some(d) if d == out.digest => Ok(()),
                    Some(d) => Err(format!(
                        "batch digest {:#018x} differs from the first batch's {d:#018x}",
                        out.digest
                    )),
                };
                let valid = if out.problems.is_empty() {
                    Ok(())
                } else {
                    Err(out.problems.join("; "))
                };
                gate.check(deterministic.and(valid));
                micros.extend(out.jobs.iter().map(|r| r.micros as f64));
                for r in &out.reports {
                    busy_wall += r.wall.as_secs_f64() * r.workers as f64;
                    peak = peak.max(r.peak_buffered);
                }
                bytes = bytes.max(out.reports.last().map_or(0, |r| r.cache.bytes));
            }
            let phase = phase.finish();
            let busy_s = micros.iter().sum::<f64>() / 1e6;
            let lat = sorted(micros);
            layer.push("runtime.job_busy_s", busy_s, "s");
            layer.push("runtime.job_p50_ms", quantile(&lat, 0.5) / 1e3, "ms");
            layer.push("runtime.job_p90_ms", quantile(&lat, 0.9) / 1e3, "ms");
            layer.push("runtime.pump_util", busy_s / busy_wall, "ratio");
            layer.push("runtime.peak_buffered", peak as f64, "count");
            layer.push("core.subset_cache.bytes", bytes as f64, "bytes");
            if let Some(optima_s) = optima_s {
                layer.push("ilp.optima_s", optima_s, "s");
            }
            phase
        },
    );
    Outcome {
        gate,
        metrics,
        exec_workers: batch.exec.workers(),
    }
}

/// Reference-optimum cost: `SubsetSolver::solve_mask` on every small
/// instance's full mask against a fresh cache.
fn optima_s(b: &Batch) -> f64 {
    let budget = b.small.base().budget;
    b.small_instances
        .iter()
        .map(|ilp| {
            let full = vec![true; ilp.n()];
            timed(|| SubsetSolver::new(ilp, budget).solve_mask(&full, None))
                .1
                .as_secs_f64()
        })
        .sum()
}
