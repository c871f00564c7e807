//! `serve_warm`: an in-process `Daemon` behind a Unix socket, with two
//! closed-loop clients (one connection each) repeating one fixed
//! `CorpusSpec` sweep at `jobs = 1`. A warm-up request fills the
//! daemon's subset cache during set-up, so the timed requests read the
//! cache instead of writing it.

use crate::common::{
    drive, repeated_setup, scratch_dir, timed, Digest, Gate, Metrics, Opts, Outcome, Phase, Scale,
    Stop, GRAPH_SEED,
};
use crate::host::Host;
use crate::ilp::job_digest;
use dapc_local::RoundCost;
use dapc_runtime::{solve_many, RuntimeConfig};
use dapc_serve::proto::{read_frame, write_frame, Request, Response};
use dapc_serve::{CorpusSpec, Daemon, DaemonConfig};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Digest of the in-process reference solve at the default seed.
const GOLDEN: u64 = 0x21cd_0295_39ef_14a9;

/// Client connections, each a closed loop.
const CLIENTS: usize = 2;

/// Requests (sweeps, both clients together) in each phase of a traced
/// run.
const TRACED_REQUESTS: usize = 24;

/// Each client keeps one daemon thread busy.
const HOST: Host = Host::threads(CLIENTS);

/// One streamed job as the correctness gate compares it: index, key,
/// value, feasibility and round bill (timings excluded).
type JobLine = (u64, String, u64, bool, u64);

/// A sweep spec whose generated graphs depend on the workload seed.
fn spec(seed: u64, tiny: bool) -> CorpusSpec {
    let s = GRAPH_SEED % 1_000_000;
    let mut tokens = vec![
        format!("mis-gnp=mis:gnp:40:0.08:{s}"),
        "mis-grid=mis:grid:6x6".to_string(),
        "mis-ring=mis:cycle:40".to_string(),
        format!("vc-gnp=vc:gnp:32:0.1:{}", s + 1),
        "vc-ring=vc:cycle:36".to_string(),
        "ds-ring=ds:cycle:33".to_string(),
        "ds-grid=ds:grid:5x6".to_string(),
        format!("ds-gnp=ds:gnp:30:0.1:{}", s + 2),
        "mis-long=mis:cycle:300".to_string(),
        "@backends=three-phase".to_string(),
        "@eps=0.2,0.3".to_string(),
        format!("@seeds={}..{}", seed * 1000, seed * 1000 + 2),
    ];
    if tiny {
        tokens.drain(2..9);
    }
    CorpusSpec::parse_args(tokens).expect("the benchmark's spec is valid")
}

/// The in-process `solve_many` of `spec`: the streamed lines every
/// request must reproduce, the digest of the full reports, and the bytes
/// its subset cache ends with (the daemon's warm cache holds the same).
fn reference(spec: &CorpusSpec) -> (Vec<JobLine>, u64, usize) {
    let batch = solve_many(&spec.build(), &RuntimeConfig::new());
    let mut h = Digest::default();
    let lines = batch
        .results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            job_digest(&mut h, r);
            (
                i as u64,
                r.key.to_string(),
                r.report.value,
                r.report.feasible(),
                r.report.rounds() as u64,
            )
        })
        .collect();
    (lines, h.0, batch.cache.bytes)
}

/// A running daemon; dropping it shuts the daemon down and joins it.
struct Served {
    socket: PathBuf,
    thread: Option<JoinHandle<io::Result<()>>>,
    spec: CorpusSpec,
    expected: Vec<JobLine>,
    digest: u64,
    cache_bytes: usize,
    /// The warm-up request's reply.
    warm: Result<Reply, String>,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = dapc_serve::client::shutdown(&self.socket);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn setup(opts: &Opts) -> Served {
    static DAEMONS: AtomicUsize = AtomicUsize::new(0);
    let spec = spec(opts.seed, opts.scale == Scale::Tiny);
    let (expected, digest, cache_bytes) = reference(&spec);
    let socket = scratch_dir().join(format!(
        "daemon-{}.sock",
        DAEMONS.fetch_add(1, Ordering::Relaxed)
    ));
    let cfg = DaemonConfig {
        threads: CLIENTS,
        queue: 16,
        deadline: None,
    };
    let daemon = Daemon::bind_with(&socket, cfg).expect("bind the daemon socket");
    let thread = std::thread::spawn(move || daemon.run());
    let warm = UnixStream::connect(&socket)
        .map_err(|e| e.to_string())
        .and_then(|mut conn| sweep(&mut conn, &spec, &expected));
    Served {
        socket,
        thread: Some(thread),
        spec,
        expected,
        digest,
        cache_bytes,
        warm,
    }
}

/// What one sweep request returned.
#[derive(Clone, Copy, Debug)]
struct Reply {
    frames: u64,
    jobs: u64,
    cache_hits: u64,
    cache_misses: u64,
    server: Duration,
}

/// Sends one sweep over `conn` and drains its stream, checking every
/// job line against the reference.
fn sweep(conn: &mut UnixStream, spec: &CorpusSpec, expected: &[JobLine]) -> Result<Reply, String> {
    let request = Request::Sweep {
        spec: spec.clone(),
        jobs: 1,
    };
    write_frame(conn, &request.to_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut frames = 1u64;
    let mut got: Vec<JobLine> = Vec::with_capacity(expected.len());
    loop {
        let body = read_frame(conn)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("the daemon closed the connection mid-stream")?;
        frames += 1;
        match Response::from_bytes(&body).map_err(|e| format!("decode: {e}"))? {
            Response::Job {
                index,
                key,
                value,
                feasible,
                rounds,
                ..
            } => got.push((index, key, value, feasible, rounds)),
            Response::Summary {
                jobs,
                cache_hits,
                cache_misses,
                wall_micros,
                ..
            } => {
                if got != expected {
                    return Err("streamed jobs differ from the in-process solve_many".into());
                }
                return Ok(Reply {
                    frames,
                    jobs,
                    cache_hits,
                    cache_misses,
                    server: Duration::from_micros(wall_micros),
                });
            }
            other => return Err(format!("refused: {other:?}")),
        }
    }
}

/// One request as a client saw it: latency and reply.
type Sent = (Duration, Result<Reply, String>);

/// One client's closed loop, in order; it stops at the first failure.
fn client(served: &Served, started: Instant, stop: Stop) -> Vec<Sent> {
    let mut out = Vec::new();
    let mut conn = match UnixStream::connect(&served.socket) {
        Ok(c) => c,
        Err(e) => return vec![(Duration::ZERO, Err(format!("connect: {e}")))],
    };
    while !stop.done(started, out.len()) {
        let (reply, took) = timed(|| sweep(&mut conn, &served.spec, &served.expected));
        let failed = reply.is_err();
        out.push((took, reply));
        if failed {
            break;
        }
    }
    out
}

pub fn run(opts: &Opts) -> Outcome {
    let (served, setup_s) = repeated_setup(HOST, || setup(opts));
    let mut gate = Gate::default();
    gate.golden("serve_warm reference", served.digest, opts.golden(GOLDEN));
    // The cumulative daemon cache counters as of the last reply seen.
    let mut seen = (0u64, 0u64);
    match &served.warm {
        Ok(r) => seen = (r.cache_hits, r.cache_misses),
        Err(e) => gate.check(Err(format!("warm-up request: {e}"))),
    }
    let metrics = drive(
        opts,
        HOST,
        setup_s,
        TRACED_REQUESTS,
        &mut gate,
        |stop: Stop, gate: &mut Gate, layer: &mut Metrics| {
            let mut phase = Phase::start();
            let started = phase.started();
            let per_client = stop.per_client(CLIENTS);
            let replies: Vec<Sent> = std::thread::scope(|s| {
                let loops: Vec<_> = (0..CLIENTS)
                    .map(|_| s.spawn(|| client(&served, started, per_client)))
                    .collect();
                loops
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let before = seen;
            let (mut server_s, mut frames) = (0.0, 0u64);
            for (latency, reply) in replies {
                match reply {
                    Ok(r) => {
                        gate.check(Ok(()));
                        phase.record(latency, r.jobs);
                        server_s += r.server.as_secs_f64();
                        frames += r.frames;
                        seen = (seen.0.max(r.cache_hits), seen.1.max(r.cache_misses));
                    }
                    Err(e) => gate.check(Err(e)),
                }
            }
            let phase = phase.finish();
            layer.push("serve.server_s", server_s, "s");
            layer.push("serve.client_overhead_s", phase.latency_s() - server_s, "s");
            layer.push("serve.frames", frames as f64, "count");
            layer.push("serve.cache_hits", (seen.0 - before.0) as f64, "count");
            layer.push("serve.cache_misses", (seen.1 - before.1) as f64, "count");
            layer.push(
                "core.subset_cache.bytes",
                served.cache_bytes as f64,
                "bytes",
            );
            phase
        },
    );
    Outcome {
        gate,
        metrics,
        exec_workers: dapc_exec::global().workers(),
    }
}
