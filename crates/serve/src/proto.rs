//! The daemon's length-prefixed binary wire protocol.
//!
//! Frames are `u32` little-endian body length followed by the body; a
//! body is one tag byte followed by tag-specific fields in the same
//! primitive encodings as the snapshot formats ([`dapc_runtime::snap`]).
//! The hardening contract matches them too, because socket bytes are
//! the least trusted input in the system:
//!
//! - **No length drives an allocation.** Frame bodies are capped at
//!   [`MAX_FRAME`] *before* any buffer is sized, and every nested
//!   length field reads through `Read::take`.
//! - **A spec travels as its CLI tokens** ([`CorpusSpec::to_args`]): a
//!   count, refused above the cap before any token is read, then one
//!   length-prefixed string per token, parsed and validated by
//!   [`CorpusSpec::parse_args`] — there is no separate spec format.
//! - **Truncation at any byte is an `Err`**, and so are trailing bytes
//!   after a decoded message — a frame means exactly one message.
//! - **Unknown tags are errors**, not skipped extensions; version skew
//!   is negotiated by [`PROTOCOL_VERSION`] in the ping, not guessed at
//!   per message.

use crate::spec::CorpusSpec;
use dapc_obs::MetricsSnapshot;
use dapc_runtime::snap;
use std::io::{self, Read, Write};

/// Protocol version spoken by this build; [`Response::Pong`] carries it
/// so clients can refuse a skewed daemon.
///
/// Version history: 1 — initial protocol; 2 — [`Response::Stats`] gained
/// the embedded [`MetricsSnapshot`]; 3 — [`Response::Busy`] (in-band
/// backpressure when the daemon's bounded request queue is full); 4 — the
/// single-job `Solve` request (tag 2) is gone, and a
/// [`Request::Sweep`] carries its spec as CLI tokens instead of
/// `DAPCSPC` bytes.
pub const PROTOCOL_VERSION: u64 = 4;

/// Hard cap on a frame body, checked before any allocation. Large
/// enough for any spec the [`crate::spec::SPEC_LIMITS`] caps admit,
/// small enough that a hostile length field cannot balloon the server.
pub const MAX_FRAME: u32 = 1 << 20;

/// A client-to-daemon message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness + version check.
    Ping,
    /// Solve the whole corpus, streaming one [`Response::Job`] per job
    /// (canonical order) before the closing [`Response::Summary`].
    Sweep {
        /// The sweep description.
        spec: CorpusSpec,
        /// Requested intra-process parallelism (clamped by the daemon).
        jobs: u64,
    },
    /// Report daemon counters.
    Stats,
    /// Ask the daemon to exit after acknowledging.
    Shutdown,
}

/// A daemon-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ping reply.
    Pong {
        /// The daemon's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// One solved job of a sweep request.
    Job {
        /// Canonical job index.
        index: u64,
        /// Display form of the job key.
        key: String,
        /// Objective value.
        value: u64,
        /// Whether the assignment was verified feasible.
        feasible: bool,
        /// LOCAL round bill of the solve.
        rounds: u64,
        /// Wall-clock microseconds of the solve.
        micros: u64,
    },
    /// Closes a sweep stream.
    Summary {
        /// Jobs streamed.
        jobs: u64,
        /// Group summaries folded.
        groups: u64,
        /// Backend roll-ups folded.
        backends: u64,
        /// Prep-cache hits accumulated in the daemon's resident cache.
        cache_hits: u64,
        /// Prep-cache misses likewise.
        cache_misses: u64,
        /// Wall-clock microseconds of the request.
        wall_micros: u64,
    },
    /// Stats reply.
    Stats {
        /// Requests served since start.
        requests: u64,
        /// Jobs solved since start.
        jobs_solved: u64,
        /// Resident prep-cache families.
        cache_families: u64,
        /// Resident prep-cache entries.
        cache_entries: u64,
        /// Lifetime cache hits.
        cache_hits: u64,
        /// Lifetime cache misses.
        cache_misses: u64,
        /// The daemon's full metrics snapshot (empty when observability
        /// is disabled in the daemon process).
        metrics: MetricsSnapshot,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Shutdown acknowledged; the daemon exits after sending this.
    ShutdownAck,
    /// The daemon's bounded request queue is full; the connection is
    /// closed after this frame. Retry after a backoff — requests are
    /// idempotent (results are pure functions of the job key), so a
    /// retried sweep returns byte-identical frames.
    Busy,
}

/// Writes one frame: `u32` little-endian length, then the body.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] when `body` exceeds
/// [`MAX_FRAME`]; propagates writer errors.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            snap::invalid(format!(
                "frame body of {} bytes exceeds the cap",
                body.len()
            ))
        })?;
    // Chaos: tear the frame mid-write — the peer sees UnexpectedEof
    // inside a frame (never a valid shorter frame, the header length
    // still promises the full body) and must drop the connection.
    if let Some(mut roll) = dapc_chaos::roll("proto.write") {
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&body[..roll.pick(body.len().max(1))])?;
        w.flush()?;
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "chaos: frame torn mid-write",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame body, or `Ok(None)` on a clean end-of-stream (the
/// peer closed between frames).
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] when the length field
/// exceeds [`MAX_FRAME`] (checked before any allocation), with
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends inside a frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    // Chaos: a stalled read (slow peer, congested socket) — exercises
    // read timeouts and deadlines without changing any byte.
    dapc_chaos::stall("proto.read", 40);
    let mut len = [0u8; 4];
    // A clean close is only clean *between* frames.
    let mut filled = 0;
    while filled < len.len() {
        let n = r.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(snap::invalid(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut body = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut body)?;
    if body.len() as u32 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated frame: {} of {len} bytes", body.len()),
        ));
    }
    Ok(Some(body))
}

impl Request {
    /// Encodes the request as one frame body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        let r: io::Result<()> = (|| {
            match self {
                Request::Ping => w.write_all(&[1])?,
                Request::Sweep { spec, jobs } => {
                    w.write_all(&[3])?;
                    spec.write_to(&mut w)?;
                    snap::write_u64(&mut w, *jobs)?;
                }
                Request::Stats => w.write_all(&[4])?,
                Request::Shutdown => w.write_all(&[5])?,
            }
            Ok(())
        })();
        // dapc-allow(panic): writing to a Vec cannot fail
        r.expect("writing to a Vec cannot fail");
        w
    }

    /// Decodes one frame body. All-or-nothing: unknown tags, spec token
    /// counts over the cap, specs that fail validation, truncation, and
    /// trailing bytes are all errors.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] or
    /// [`io::ErrorKind::UnexpectedEof`] as above.
    pub fn from_bytes(body: &[u8]) -> io::Result<Self> {
        let mut r = body;
        let req = match snap::read_u8(&mut r)? {
            1 => Request::Ping,
            3 => Request::Sweep {
                spec: CorpusSpec::read_from(&mut r)?,
                jobs: snap::read_u64(&mut r)?,
            },
            4 => Request::Stats,
            5 => Request::Shutdown,
            t => return Err(snap::invalid(format!("unknown request tag {t}"))),
        };
        if !r.is_empty() {
            return Err(snap::invalid("trailing bytes after the request"));
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one frame body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        let r: io::Result<()> = (|| {
            match self {
                Response::Pong { protocol } => {
                    w.write_all(&[0x80])?;
                    snap::write_u64(&mut w, *protocol)?;
                }
                Response::Job {
                    index,
                    key,
                    value,
                    feasible,
                    rounds,
                    micros,
                } => {
                    w.write_all(&[0x81])?;
                    snap::write_u64(&mut w, *index)?;
                    snap::write_str(&mut w, key)?;
                    snap::write_u64(&mut w, *value)?;
                    snap::write_bool(&mut w, *feasible)?;
                    snap::write_u64(&mut w, *rounds)?;
                    snap::write_u64(&mut w, *micros)?;
                }
                Response::Summary {
                    jobs,
                    groups,
                    backends,
                    cache_hits,
                    cache_misses,
                    wall_micros,
                } => {
                    w.write_all(&[0x82])?;
                    for v in [
                        jobs,
                        groups,
                        backends,
                        cache_hits,
                        cache_misses,
                        wall_micros,
                    ] {
                        snap::write_u64(&mut w, *v)?;
                    }
                }
                Response::Stats {
                    requests,
                    jobs_solved,
                    cache_families,
                    cache_entries,
                    cache_hits,
                    cache_misses,
                    metrics,
                } => {
                    w.write_all(&[0x83])?;
                    for v in [
                        requests,
                        jobs_solved,
                        cache_families,
                        cache_entries,
                        cache_hits,
                        cache_misses,
                    ] {
                        snap::write_u64(&mut w, *v)?;
                    }
                    snap::write_bytes(&mut w, &metrics.to_bytes())?;
                }
                Response::Error { message } => {
                    w.write_all(&[0x84])?;
                    snap::write_str(&mut w, message)?;
                }
                Response::ShutdownAck => w.write_all(&[0x85])?,
                Response::Busy => w.write_all(&[0x86])?,
            }
            Ok(())
        })();
        // dapc-allow(panic): writing to a Vec cannot fail
        r.expect("writing to a Vec cannot fail");
        w
    }

    /// Decodes one frame body (same contract as [`Request::from_bytes`]).
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] or
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn from_bytes(body: &[u8]) -> io::Result<Self> {
        let mut r = body;
        let resp = match snap::read_u8(&mut r)? {
            0x80 => Response::Pong {
                protocol: snap::read_u64(&mut r)?,
            },
            0x81 => Response::Job {
                index: snap::read_u64(&mut r)?,
                key: snap::read_str(&mut r, "job key")?,
                value: snap::read_u64(&mut r)?,
                feasible: snap::read_bool(&mut r, "feasible")?,
                rounds: snap::read_u64(&mut r)?,
                micros: snap::read_u64(&mut r)?,
            },
            0x82 => Response::Summary {
                jobs: snap::read_u64(&mut r)?,
                groups: snap::read_u64(&mut r)?,
                backends: snap::read_u64(&mut r)?,
                cache_hits: snap::read_u64(&mut r)?,
                cache_misses: snap::read_u64(&mut r)?,
                wall_micros: snap::read_u64(&mut r)?,
            },
            0x83 => Response::Stats {
                requests: snap::read_u64(&mut r)?,
                jobs_solved: snap::read_u64(&mut r)?,
                cache_families: snap::read_u64(&mut r)?,
                cache_entries: snap::read_u64(&mut r)?,
                cache_hits: snap::read_u64(&mut r)?,
                cache_misses: snap::read_u64(&mut r)?,
                metrics: read_metrics(&mut r)?,
            },
            0x84 => Response::Error {
                message: snap::read_str(&mut r, "error message")?,
            },
            0x85 => Response::ShutdownAck,
            0x86 => Response::Busy,
            t => return Err(snap::invalid(format!("unknown response tag {t}"))),
        };
        if !r.is_empty() {
            return Err(snap::invalid("trailing bytes after the response"));
        }
        Ok(resp)
    }
}

/// Decodes an embedded metrics snapshot all-or-nothing: the
/// length-prefixed bytes must parse as a complete canonical snapshot
/// with nothing left over.
fn read_metrics(r: &mut impl Read) -> io::Result<MetricsSnapshot> {
    let bytes = snap::read_bytes(r, "embedded metrics snapshot")?;
    MetricsSnapshot::from_bytes(&bytes)
}
