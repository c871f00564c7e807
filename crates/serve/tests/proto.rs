//! Hardening of the daemon wire protocol: every message round-trips,
//! truncation at any byte is an `Err` (at the frame layer *and* the
//! message layer), hostile length and token-count fields are rejected
//! before any allocation, unknown tags are errors rather than skipped,
//! and a `Sweep` frame's spec tokens are validated at decode.

use dapc_obs::{MetricsSnapshot, SnapshotEntry};
use dapc_runtime::snap;
use dapc_serve::proto::{read_frame, write_frame, Request, Response, MAX_FRAME, PROTOCOL_VERSION};
use dapc_serve::CorpusSpec;
use std::io::{self, Write};

fn demo_spec() -> CorpusSpec {
    CorpusSpec::parse_args([
        "ring=mis:cycle:12",
        "@backends=greedy,bnb",
        "@eps=0.3",
        "@seeds=0..2",
    ])
    .expect("demo spec parses")
}

/// A canonical (name-sorted) snapshot exercising all three metric
/// kinds, built without touching the process-global registry.
fn demo_metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        entries: vec![
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
                name: "serve.daemon.requests".into(),
                value: 10,
            },
            SnapshotEntry::Gauge {
                name: "serve.daemon.resident_bytes".into(),
                value: 4096,
            },
        ],
    }
}

fn every_request() -> Vec<Request> {
    let spec = demo_spec();
    vec![
        Request::Ping,
        Request::Sweep { spec, jobs: 4 },
        Request::Stats,
        Request::Shutdown,
    ]
}

fn every_response() -> Vec<Response> {
    vec![
        Response::Pong {
            protocol: PROTOCOL_VERSION,
        },
        Response::Job {
            index: 7,
            key: "ring/greedy eps=0.3 seed=1".into(),
            value: 6,
            feasible: true,
            rounds: 12,
            micros: 345,
        },
        Response::Summary {
            jobs: 4,
            groups: 2,
            backends: 2,
            cache_hits: 3,
            cache_misses: 1,
            wall_micros: 999,
        },
        Response::Stats {
            requests: 10,
            jobs_solved: 40,
            cache_families: 1,
            cache_entries: 5,
            cache_hits: 30,
            cache_misses: 5,
            metrics: demo_metrics(),
        },
        Response::Stats {
            requests: 0,
            jobs_solved: 0,
            cache_families: 0,
            cache_entries: 0,
            cache_hits: 0,
            cache_misses: 0,
            metrics: MetricsSnapshot::default(),
        },
        Response::Error {
            message: "bad request: nope".into(),
        },
        Response::ShutdownAck,
        Response::Busy,
    ]
}

#[test]
fn every_message_round_trips() {
    for req in every_request() {
        let bytes = req.to_bytes();
        assert_eq!(Request::from_bytes(&bytes).expect("round trip"), req);
    }
    for resp in every_response() {
        let bytes = resp.to_bytes();
        assert_eq!(Response::from_bytes(&bytes).expect("round trip"), resp);
    }
}

#[test]
fn truncated_message_bodies_error_at_every_cut() {
    for req in every_request() {
        let bytes = req.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Request::from_bytes(&bytes[..cut]).is_err(),
                "{req:?}: prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }
    for resp in every_response() {
        let bytes = resp.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Response::from_bytes(&bytes[..cut]).is_err(),
                "{resp:?}: prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_bytes_after_a_message_error() {
    for req in every_request() {
        let mut bytes = req.to_bytes();
        bytes.push(0);
        let err = Request::from_bytes(&bytes).expect_err("padded request must fail");
        assert!(err.to_string().contains("trailing"), "{req:?}: {err}");
    }
    for resp in every_response() {
        let mut bytes = resp.to_bytes();
        bytes.push(0);
        let err = Response::from_bytes(&bytes).expect_err("padded response must fail");
        assert!(err.to_string().contains("trailing"), "{resp:?}: {err}");
    }
}

#[test]
fn frame_truncation_at_every_byte_is_an_error() {
    let body = Request::Sweep {
        spec: demo_spec(),
        jobs: 2,
    }
    .to_bytes();
    let mut frame = Vec::new();
    write_frame(&mut frame, &body).expect("framing a Vec");
    assert_eq!(frame.len(), 4 + body.len());

    // Cut 0 is the one legal close: the peer hung up *between* frames.
    assert!(read_frame(&mut &frame[..0]).expect("clean close").is_none());
    for cut in 1..frame.len() {
        let err = read_frame(&mut &frame[..cut])
            .expect_err(&format!("frame prefix of {cut} bytes must not read"));
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {err}");
    }
    // The whole frame reads back exactly once, then a clean close.
    let mut stream = frame.as_slice();
    assert_eq!(
        read_frame(&mut stream).expect("full frame").as_deref(),
        Some(body.as_slice())
    );
    assert!(read_frame(&mut stream).expect("clean close").is_none());
}

#[test]
fn back_to_back_frames_read_in_order() {
    let ping = Request::Ping.to_bytes();
    let stats = Request::Stats.to_bytes();
    let mut wire = Vec::new();
    write_frame(&mut wire, &ping).unwrap();
    write_frame(&mut wire, &stats).unwrap();
    let mut stream = wire.as_slice();
    assert_eq!(
        read_frame(&mut stream).unwrap().as_deref(),
        Some(ping.as_slice())
    );
    assert_eq!(
        read_frame(&mut stream).unwrap().as_deref(),
        Some(stats.as_slice())
    );
    assert!(read_frame(&mut stream).unwrap().is_none());
}

#[test]
fn oversized_length_fields_are_rejected_before_any_allocation() {
    // A hostile header that promises more than the cap: the reader must
    // refuse on the length field alone — there are no body bytes to
    // read, and no buffer may be sized from the claim.
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    let err = read_frame(&mut wire.as_slice()).expect_err("oversized frame must be refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("exceeds"), "{err}");

    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(read_frame(&mut wire.as_slice()).is_err());

    // The writer enforces the same cap.
    let huge = vec![0u8; MAX_FRAME as usize + 1];
    let mut sink = Vec::new();
    let err = write_frame(&mut sink, &huge).expect_err("oversized body must be refused");
    assert!(err.to_string().contains("exceeds the cap"), "{err}");
    assert!(
        sink.is_empty(),
        "nothing may be written before the cap check"
    );
}

#[test]
fn a_frame_at_the_cap_still_passes() {
    let body = vec![0x42u8; MAX_FRAME as usize];
    let mut wire = Vec::new();
    write_frame(&mut wire, &body).expect("cap-sized frame writes");
    assert_eq!(
        read_frame(&mut wire.as_slice())
            .expect("cap-sized frame reads")
            .as_deref(),
        Some(body.as_slice())
    );
}

#[test]
fn unknown_tags_are_errors_not_extensions() {
    // Tag 2 was the single-job `Solve` of protocol versions 1–3.
    for tag in [0u8, 2, 6, 0x42, 0xff] {
        let err = Request::from_bytes(&[tag]).expect_err("unknown request tag must fail");
        assert!(
            err.to_string().contains("unknown request tag"),
            "tag {tag}: {err}"
        );
    }
    for tag in [0u8, 0x7f, 0x87, 0xff] {
        let err = Response::from_bytes(&[tag]).expect_err("unknown response tag must fail");
        assert!(
            err.to_string().contains("unknown response tag"),
            "tag {tag}: {err}"
        );
    }
}

/// A `Sweep` body as the protocol lays it out: tag 3, the token count
/// (`count`, which need not match `tokens`), the tokens, then `jobs`.
fn sweep_body(count: u64, tokens: &[&str], jobs: u64) -> Vec<u8> {
    let mut body = vec![3u8];
    snap::write_u64(&mut body, count).expect("write to a Vec");
    for t in tokens {
        snap::write_str(&mut body, t).expect("write to a Vec");
    }
    snap::write_u64(&mut body, jobs).expect("write to a Vec");
    body
}

#[test]
fn a_sweep_frame_carries_its_spec_as_cli_tokens() {
    let spec = demo_spec();
    let tokens = spec.to_args();
    let tokens: Vec<&str> = tokens.iter().map(String::as_str).collect();
    let body = Request::Sweep { spec, jobs: 4 }.to_bytes();
    assert_eq!(body, sweep_body(tokens.len() as u64, &tokens, 4));
}

#[test]
fn a_sweep_frame_with_an_over_cap_token_count_is_rejected() {
    // The count is refused on its own: no token follows it.
    for count in [69u64, u64::MAX] {
        let err = Request::from_bytes(&sweep_body(count, &[], 1))
            .expect_err("over-cap token count must fail");
        assert!(err.to_string().contains("exceed the cap"), "{count}: {err}");
    }
}

#[test]
fn an_embedded_metrics_snapshot_with_junk_is_rejected() {
    // The envelope length is consistent, so only the snapshot parser's
    // own strictness can reject bytes after (or instead of) the
    // canonical lines.
    for tail in [&b"\n"[..], b"{}", b"x"] {
        let mut metrics_field = demo_metrics().to_bytes();
        metrics_field.extend_from_slice(tail);
        let mut body = Vec::new();
        body.write_all(&[0x83]).unwrap();
        for v in [10u64, 40, 1, 5, 30, 5] {
            body.write_all(&v.to_le_bytes()).unwrap();
        }
        body.write_all(&(metrics_field.len() as u64).to_le_bytes())
            .unwrap();
        body.write_all(&metrics_field).unwrap();
        assert!(
            Response::from_bytes(&body).is_err(),
            "metrics field padded with {tail:?} must fail"
        );
    }
}

#[test]
fn an_embedded_spec_that_fails_validation_is_rejected_at_decode() {
    // A syntactically intact request whose tokens name an unknown
    // backend must die in `from_bytes`, before any handler sees it.
    let tokens = ["ring=mis:cycle:12", "@backends=no-such-backend"];
    let err = Request::from_bytes(&sweep_body(2, &tokens, 1))
        .expect_err("invalid embedded spec must fail");
    assert!(err.to_string().contains("unknown backend"), "{err}");
}
