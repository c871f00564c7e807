//! End-to-end exercise of the persistent solve daemon over a real Unix
//! socket: streamed sweeps match the single-process solver job by job,
//! the resident prep cache pays off across requests, malformed requests
//! and invalid specs are answered in-band without killing the
//! connection, and shutdown removes the socket.

use dapc_obs::{MetricsSnapshot, SnapshotEntry};
use dapc_runtime::{solve_many, RuntimeConfig};
use dapc_serve::proto::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use dapc_serve::{client, CorpusSpec, Daemon};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

fn demo_spec() -> CorpusSpec {
    CorpusSpec::parse_args([
        "ring=mis:cycle:12",
        "@backends=greedy,three-phase",
        "@eps=0.3",
        "@seeds=0..2",
    ])
    .expect("demo spec parses")
}

/// `dapc-serve stats` output is golden-locked: the legacy counter line,
/// then the snapshot table in canonical (name-sorted) order with names
/// padded to the widest.
#[test]
fn stats_pretty_print_matches_golden_output() {
    let resp = Response::Stats {
        requests: 10,
        jobs_solved: 40,
        cache_families: 1,
        cache_entries: 5,
        cache_hits: 30,
        cache_misses: 5,
        metrics: MetricsSnapshot {
            entries: vec![
                SnapshotEntry::Histogram {
                    name: "exec.injector.depth".into(),
                    count: 3,
                    sum: 4,
                    p50: 1,
                    p90: 2,
                    p99: 2,
                    buckets: vec![(0, 1), (1, 2)],
                },
                SnapshotEntry::Counter {
                    name: "exec.parks".into(),
                    value: 5,
                },
                SnapshotEntry::Counter {
                    name: "exec.steal_failures".into(),
                    value: 1,
                },
                SnapshotEntry::Counter {
                    name: "exec.steals".into(),
                    value: 7,
                },
                SnapshotEntry::Counter {
                    name: "serve.chaos.injected".into(),
                    value: 3,
                },
                SnapshotEntry::Histogram {
                    name: "serve.daemon.ping_micros".into(),
                    count: 2,
                    sum: 9,
                    p50: 3,
                    p90: 7,
                    p99: 7,
                    buckets: vec![(2, 1), (3, 1)],
                },
                SnapshotEntry::Counter {
                    name: "serve.daemon.queue.busy_rejections".into(),
                    value: 2,
                },
                SnapshotEntry::Gauge {
                    name: "serve.daemon.queue.depth".into(),
                    value: 1,
                },
                SnapshotEntry::Counter {
                    name: "serve.daemon.requests".into(),
                    value: 10,
                },
                SnapshotEntry::Gauge {
                    name: "serve.daemon.resident_bytes".into(),
                    value: 4096,
                },
            ],
        },
    };
    let rendered = client::render_stats(&resp).expect("stats renders");
    let golden = "\
requests 10  jobs 40  cache 1 families / 5 entries  hits 30  misses 5
dapc-obs snapshot v1 (10 metrics)
histogram  exec.injector.depth                 count=3 sum=4 p50=1 p90=2 p99=2
counter    exec.parks                          5
counter    exec.steal_failures                 1
counter    exec.steals                         7
counter    serve.chaos.injected                3
histogram  serve.daemon.ping_micros            count=2 sum=9 p50=3 p90=7 p99=7
counter    serve.daemon.queue.busy_rejections  2
gauge      serve.daemon.queue.depth            1
counter    serve.daemon.requests               10
gauge      serve.daemon.resident_bytes         4096
";
    assert_eq!(rendered, golden);

    // Only a Stats response renders.
    assert_eq!(client::render_stats(&Response::ShutdownAck), None);
}

#[test]
fn daemon_round_trip() {
    let socket: PathBuf =
        std::env::temp_dir().join(format!("dapc-serve-daemon-{}.sock", std::process::id()));
    let daemon = Daemon::bind(&socket).expect("bind daemon socket");
    let server = std::thread::spawn(move || daemon.run());

    // Liveness + version agreement.
    assert_eq!(client::ping(&socket).expect("ping"), PROTOCOL_VERSION);

    let spec = demo_spec();
    let jobs = spec.grid_len();
    let reference = solve_many(&spec.build(), &RuntimeConfig::new());

    // A streamed sweep delivers every job in canonical order, and each
    // streamed result matches the single-process solver exactly.
    let mut streamed = Vec::new();
    let summary = client::sweep(&socket, &spec, 2, |job| streamed.push(job)).expect("sweep");
    assert_eq!(streamed.len(), jobs);
    assert_eq!(summary.jobs, jobs as u64);
    assert!(summary.groups > 0 && summary.backends > 0);
    for (i, (got, want)) in streamed.iter().zip(&reference.results).enumerate() {
        assert_eq!(got.index, i as u64);
        assert_eq!(got.key, want.key.to_string(), "job {i}");
        assert_eq!(got.value, want.report.value, "job {i}");
        assert_eq!(got.feasible, want.report.feasible(), "job {i}");
    }
    let first_hits = summary.cache_hits;

    // The cache is resident across requests: re-sweeping the same spec
    // hits the memoised preps it just filled.
    let summary = client::sweep(&socket, &spec, 2, |_| {}).expect("second sweep");
    assert!(
        summary.cache_hits > first_hits,
        "resident cache must accumulate hits across requests \
         (first {first_hits}, second {})",
        summary.cache_hits
    );

    // A spec that fails validation is an in-band error, not a dead
    // connection.
    let mut invalid = spec.clone();
    invalid.backends = vec!["no-such-backend".into()];
    let err = client::sweep(&socket, &invalid, 1, |_| {}).expect_err("invalid spec must fail");
    assert!(err.to_string().contains("unknown backend"), "{err}");

    // A garbage request body earns a Response::Error on the same
    // connection, which then keeps serving.
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    write_frame(&mut raw, &[0xEE]).expect("send unknown tag");
    let body = read_frame(&mut raw)
        .expect("read error reply")
        .expect("reply frame");
    match Response::from_bytes(&body).expect("decode error reply") {
        Response::Error { message } => {
            assert!(message.contains("unknown request tag"), "{message}")
        }
        other => panic!("expected an in-band error, got {other:?}"),
    }
    write_frame(&mut raw, &Request::Ping.to_bytes()).expect("ping after bad request");
    let body = read_frame(&mut raw)
        .expect("read pong")
        .expect("pong frame");
    assert_eq!(
        Response::from_bytes(&body).expect("decode pong"),
        Response::Pong {
            protocol: PROTOCOL_VERSION
        }
    );
    drop(raw);

    // The counters saw all of it.
    match client::stats(&socket).expect("stats") {
        Response::Stats {
            requests,
            jobs_solved,
            cache_entries,
            cache_hits,
            ..
        } => {
            assert!(requests >= 6, "requests {requests}");
            assert_eq!(jobs_solved, (2 * jobs) as u64);
            assert!(cache_entries > 0);
            assert!(cache_hits > 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Shutdown is acknowledged, the accept loop returns, and the socket
    // file is gone.
    client::shutdown(&socket).expect("shutdown");
    server
        .join()
        .expect("daemon thread joins")
        .expect("daemon run returns cleanly");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}
