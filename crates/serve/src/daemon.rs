//! The persistent solve daemon and its retrying client.
//!
//! A [`Daemon`] listens on a Unix-domain socket and serves
//! [`Request`]s framed by [`crate::proto`]. The point of keeping the
//! process alive between requests is the resident [`PrepCache`]: corpora
//! that revisit the same instance families (the common case in sweep
//! workflows) skip their memoised exact subset solves on every request
//! after the first, which is visible in the [`Response::Stats`] hit
//! counters.
//!
//! The daemon trusts nothing it reads: frames and specs go through the
//! hardened decoders, a bad message earns a [`Response::Error`] (or a
//! dropped connection if even the frame layer is broken) and the server
//! keeps serving. Connections are served by a bounded pool of handler
//! threads fed from a bounded queue — the load-shedding story is
//! explicit rather than emergent:
//!
//! - **Backpressure is in-band.** When the queue is full the acceptor
//!   answers one [`Response::Busy`] frame and closes; the retrying
//!   client backs off and reconnects. Nothing queues unboundedly.
//! - **Deadlines kill connections, not the daemon.** With a configured
//!   [`DaemonConfig::deadline`], a watchdog shuts down the socket of
//!   any solve running past its budget. The in-flight computation still
//!   runs to completion on its handler thread (threads cannot be killed
//!   safely) — the deadline bounds how long a *client* can be kept
//!   waiting, and frees its connection for a retry elsewhere.
//! - **Shutdown drains.** A [`Request::Shutdown`] stops the acceptor,
//!   lets every queued and in-flight connection finish, then unlinks
//!   the socket — concurrent sweeps in progress complete normally.
//!
//! Sharing the resident cache across handler threads is safe because
//! [`PrepCache`] has interior shared state, and cannot change any
//! result because every job's answer is a pure function of its key —
//! the cache moves work, never bytes.

use crate::proto::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use crate::spec::CorpusSpec;
use dapc_local::RoundCost;
use dapc_runtime::{solve_many_streaming_with_cache, JobResult, PrepCache, RuntimeConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on the per-request `jobs` parallelism a client may ask for.
pub const MAX_REQUEST_JOBS: u64 = 16;

/// Daemon-layer metric handles (`serve.daemon.*`), resolved once.
mod metrics {
    use dapc_obs::{counter, gauge, histogram, Counter, Gauge, Histogram};
    use std::sync::OnceLock;

    /// Requests accepted (well-formed or not), across connections.
    pub fn requests() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.daemon.requests"))
    }

    /// Connections waiting in the bounded queue right now.
    pub fn queue_depth() -> &'static Gauge {
        static H: OnceLock<Gauge> = OnceLock::new();
        H.get_or_init(|| gauge("serve.daemon.queue.depth"))
    }

    /// Connections answered with `Busy` because the queue was full.
    pub fn busy_rejections() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.daemon.queue.busy_rejections"))
    }

    /// Connections killed by the per-request deadline watchdog.
    pub fn deadline_kills() -> &'static Counter {
        static H: OnceLock<Counter> = OnceLock::new();
        H.get_or_init(|| counter("serve.daemon.deadline_kills"))
    }

    /// End-to-end service latency of one request, by request kind.
    pub fn latency(kind: &Kind) -> &'static Histogram {
        static PING: OnceLock<Histogram> = OnceLock::new();
        static STATS: OnceLock<Histogram> = OnceLock::new();
        static SWEEP: OnceLock<Histogram> = OnceLock::new();
        match kind {
            Kind::Ping => PING.get_or_init(|| histogram("serve.daemon.ping_micros")),
            Kind::Stats => STATS.get_or_init(|| histogram("serve.daemon.stats_micros")),
            Kind::Sweep => SWEEP.get_or_init(|| histogram("serve.daemon.sweep_micros")),
        }
    }

    /// The request kinds that get their own latency histogram.
    pub enum Kind {
        /// `Request::Ping`.
        Ping,
        /// `Request::Stats`.
        Stats,
        /// `Request::Sweep`.
        Sweep,
    }
}

/// Concurrency and robustness knobs of a [`Daemon`].
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Handler threads serving connections concurrently.
    pub threads: usize,
    /// Bound on connections waiting for a handler; one more earns
    /// [`Response::Busy`].
    pub queue: usize,
    /// Per-request wall budget for sweep requests; exceeding it
    /// gets the *connection* killed (the daemon survives, and the
    /// computation finishes into the resident cache). `None` disables
    /// the watchdog.
    pub deadline: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            threads: 4,
            queue: 16,
            deadline: None,
        }
    }
}

/// State shared between the acceptor, the handler pool and the
/// watchdog.
struct Shared {
    cache: PrepCache,
    requests: AtomicU64,
    jobs_solved: AtomicU64,
    next_id: AtomicU64,
    /// Set by a `Shutdown` request; the acceptor stops, handlers drain.
    shutdown: AtomicBool,
    /// Set by `run` once every handler has exited — releases the
    /// watchdog (a plain `shutdown` check would race connections still
    /// draining).
    drained: AtomicBool,
    queue: Mutex<VecDeque<UnixStream>>,
    wake: Condvar,
    deadline: Option<Duration>,
    /// Deadline registrations: request id → (due time, a handle to the
    /// connection to kill).
    watch: Mutex<BTreeMap<u64, (Instant, UnixStream)>>,
}

/// The persistent solve server. See the module docs.
pub struct Daemon {
    listener: UnixListener,
    socket: PathBuf,
    cfg: DaemonConfig,
}

impl Daemon {
    /// Binds the daemon to `socket` with the default [`DaemonConfig`].
    ///
    /// # Errors
    ///
    /// As [`Daemon::bind_with`].
    pub fn bind(socket: &Path) -> io::Result<Self> {
        Self::bind_with(socket, DaemonConfig::default())
    }

    /// Binds the daemon to `socket`. A leftover socket file is removed
    /// only after probing it: if something still *accepts* connections
    /// there, a live daemon owns the address and binding fails with
    /// [`io::ErrorKind::AddrInUse`]; if connecting is refused, the file
    /// is the corpse of a crashed predecessor and is replaced.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; `AddrInUse` when a live daemon holds the
    /// socket.
    pub fn bind_with(socket: &Path, cfg: DaemonConfig) -> io::Result<Self> {
        let listener = match UnixListener::bind(socket) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => match UnixStream::connect(socket) {
                Ok(_live) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a live daemon already serves {}", socket.display()),
                    ))
                }
                Err(probe) if probe.kind() == io::ErrorKind::ConnectionRefused => {
                    std::fs::remove_file(socket)?;
                    UnixListener::bind(socket)?
                }
                Err(_probe) => return Err(e),
            },
            Err(e) => return Err(e),
        };
        Ok(Daemon {
            listener,
            socket: socket.to_path_buf(),
            cfg,
        })
    }

    /// Serves connections until a [`Request::Shutdown`] arrives, then
    /// drains every queued and in-flight connection, removes the socket
    /// file and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept errors (after stopping the pool). Per-connection
    /// I/O and decode errors are contained: the offending connection is
    /// dropped and the next one served.
    pub fn run(self) -> io::Result<()> {
        let shared = Arc::new(Shared {
            cache: PrepCache::new(),
            requests: AtomicU64::new(0),
            jobs_solved: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            deadline: self.cfg.deadline,
            watch: Mutex::new(BTreeMap::new()),
        });
        self.listener.set_nonblocking(true)?;
        let mut handlers = Vec::new();
        for i in 0..self.cfg.threads.max(1) {
            let shared = Arc::clone(&shared);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("dapc-handler-{i}"))
                    .spawn(move || handler_loop(&shared))?,
            );
        }
        let watchdog = shared.deadline.is_some().then(|| {
            let shared = Arc::clone(&shared);
            // dapc-allow(thread-spawn): the deadline watchdog is supervisor infrastructure, not solve work
            std::thread::spawn(move || watchdog_loop(&shared))
        });
        let queue_cap = self.cfg.queue.max(1);
        let accept_result = loop {
            // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
            if shared.shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    // Chaos: the network ate the connection before the
                    // daemon saw a byte — the client's retry covers it.
                    if dapc_chaos::roll("daemon.accept").is_some() {
                        continue;
                    }
                    // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
                    let mut q = shared.queue.lock().expect("daemon queue");
                    if q.len() >= queue_cap {
                        drop(q);
                        if dapc_obs::enabled() {
                            metrics::busy_rejections().inc();
                        }
                        // Best-effort: a client that vanished mid-reject
                        // is not the daemon's problem.
                        let mut stream = stream;
                        let _ = write_frame(&mut stream, &Response::Busy.to_bytes());
                    } else {
                        q.push_back(stream);
                        let depth = q.len();
                        drop(q);
                        if dapc_obs::enabled() {
                            metrics::queue_depth().set(depth as u64);
                        }
                        shared.wake.notify_one();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
                    shared.shutdown.store(true, Ordering::SeqCst);
                    break Err(e);
                }
            }
        };
        // Drain: handlers keep popping until the queue is empty, then
        // exit on the shutdown flag.
        shared.wake.notify_all();
        for h in handlers {
            h.join().ok();
        }
        // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
        shared.drained.store(true, Ordering::SeqCst);
        if let Some(w) = watchdog {
            w.join().ok();
        }
        std::fs::remove_file(&self.socket).ok();
        accept_result
    }
}

/// One handler thread: pop connections until shutdown *and* the queue
/// is drained.
fn handler_loop(shared: &Shared) {
    loop {
        let popped = {
            // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
            let mut q = shared.queue.lock().expect("daemon queue");
            loop {
                if let Some(s) = q.pop_front() {
                    break Some((s, q.len()));
                }
                // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _timeout) = shared
                    .wake
                    .wait_timeout(q, Duration::from_millis(100))
                    // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
                    .expect("daemon queue");
                q = guard;
            }
        };
        let Some((stream, depth)) = popped else {
            return;
        };
        if dapc_obs::enabled() {
            metrics::queue_depth().set(depth as u64);
        }
        // A torn connection is that client's problem, not the daemon's.
        let _ = serve_connection(shared, stream);
    }
}

/// Kills connections whose registered deadline has passed. The solve
/// itself keeps running (killing a thread mid-solve could poison the
/// shared cache); only the client's wait is bounded.
fn watchdog_loop(shared: &Shared) {
    // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
    while !shared.drained.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        // dapc-allow(wall-clock): deadline sweeps are client-visible timeouts, never report bytes
        let now = Instant::now();
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        let mut watch = shared.watch.lock().expect("daemon deadline registry");
        watch.retain(|_id, (due, stream)| {
            if *due <= now {
                stream.shutdown(std::net::Shutdown::Both).ok();
                if dapc_obs::enabled() {
                    metrics::deadline_kills().inc();
                }
                false
            } else {
                true
            }
        });
    }
}

/// Removes its deadline registration when the request finishes first.
struct DeadlineGuard<'a> {
    shared: &'a Shared,
    id: Option<u64>,
}

impl<'a> DeadlineGuard<'a> {
    fn register(shared: &'a Shared, stream: &UnixStream) -> Self {
        let id = shared.deadline.and_then(|budget| {
            let handle = stream.try_clone().ok()?;
            // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
            let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
            shared
                .watch
                .lock()
                // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
                .expect("daemon deadline registry")
                // dapc-allow(wall-clock): request deadline registration, never report bytes
                .insert(id, (Instant::now() + budget, handle));
            Some(id)
        });
        DeadlineGuard { shared, id }
    }
}

impl Drop for DeadlineGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.shared
                .watch
                .lock()
                // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
                .expect("daemon deadline registry")
                .remove(&id);
        }
    }
}

/// Serves one connection until the peer closes (or shutdown is
/// requested, which also returns cleanly between frames).
fn serve_connection(shared: &Shared, mut stream: UnixStream) -> io::Result<()> {
    // The timeout makes the idle wait between frames interruptible by
    // the shutdown flag. A peer stalling *inside* a frame longer than
    // the timeout errors out and loses the connection — the frame layer
    // never desyncs, it only ever drops.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    loop {
        // Idle wait: pull one byte, so a timeout here has consumed
        // nothing and the loop can check the shutdown flag and retry.
        let mut first = [0u8; 1];
        match io::Read::read(&mut (&stream), &mut first) {
            Ok(0) => return Ok(()), // peer closed between frames
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        // Stitch the probed byte back in front of the stream for the
        // frame reader.
        let mut reader = io::Read::chain(first.as_slice(), &stream);
        let Some(body) = read_frame(&mut reader)? else {
            return Ok(());
        };
        // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
        shared.requests.fetch_add(1, Ordering::SeqCst);
        if dapc_obs::enabled() {
            metrics::requests().inc();
        }
        let request = match Request::from_bytes(&body) {
            Ok(r) => r,
            Err(e) => {
                // The frame layer is intact, so the error is answerable
                // in-band and the connection survives.
                let resp = Response::Error {
                    message: format!("bad request: {e}"),
                };
                write_frame(&mut stream, &resp.to_bytes())?;
                continue;
            }
        };
        // Latency covers the whole service of the request, including
        // writing the reply frames. Shutdown is excluded: its timer
        // would never be read.
        // dapc-allow(wall-clock): request-latency telemetry only, gated on dapc_obs::enabled
        let started = dapc_obs::enabled().then(Instant::now);
        let kind = match request {
            Request::Ping => {
                let resp = Response::Pong {
                    protocol: PROTOCOL_VERSION,
                };
                write_frame(&mut stream, &resp.to_bytes())?;
                metrics::Kind::Ping
            }
            Request::Stats => {
                let c = shared.cache.stats();
                let resp = Response::Stats {
                    // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
                    requests: shared.requests.load(Ordering::SeqCst),
                    // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
                    jobs_solved: shared.jobs_solved.load(Ordering::SeqCst),
                    cache_families: c.families as u64,
                    cache_entries: c.entries as u64,
                    cache_hits: c.hits,
                    cache_misses: c.misses,
                    metrics: dapc_obs::MetricsSnapshot::capture(),
                };
                write_frame(&mut stream, &resp.to_bytes())?;
                metrics::Kind::Stats
            }
            Request::Shutdown => {
                write_frame(&mut stream, &Response::ShutdownAck.to_bytes())?;
                // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.wake.notify_all();
                return Ok(());
            }
            Request::Sweep { spec, jobs } => {
                let jobs = jobs.clamp(1, MAX_REQUEST_JOBS) as usize;
                let _deadline = DeadlineGuard::register(shared, &stream);
                stream_solve(shared, &mut stream, &spec, jobs)?;
                metrics::Kind::Sweep
            }
        };
        if let Some(started) = started {
            metrics::latency(&kind).observe_micros(started.elapsed());
        }
    }
}

/// Solves `spec`'s whole corpus against the resident cache, streaming
/// one [`Response::Job`] per result and a closing [`Response::Summary`].
fn stream_solve(
    shared: &Shared,
    stream: &mut UnixStream,
    spec: &CorpusSpec,
    jobs: usize,
) -> io::Result<()> {
    let corpus = spec.build(); // specs from the wire are pre-validated
    let rt = RuntimeConfig::new().jobs(jobs);
    // The hook runs on solver threads, one call at a time, and writes
    // to its own handle on the socket. It remembers the first write
    // failure (solving finishes regardless — the work warms the cache
    // even when the requester is gone). Results arrive in canonical
    // order, so a running count is each job's index.
    let mut sink = stream.try_clone()?;
    let failed = Arc::new(Mutex::new(None::<io::Error>));
    let hook_failed = Arc::clone(&failed);
    let mut index = 0u64;
    let hook = move |r: JobResult| {
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        let mut failed = hook_failed.lock().expect("daemon sink failure flag");
        if failed.is_none() {
            let frame = Response::Job {
                index,
                key: r.key.to_string(),
                value: r.report.value,
                feasible: r.report.feasible(),
                rounds: r.report.rounds() as u64,
                micros: r.micros,
            };
            if let Err(e) = write_frame(&mut sink, &frame.to_bytes()) {
                *failed = Some(e);
            }
        }
        index += 1;
    };
    let report = solve_many_streaming_with_cache(&corpus, &rt, &shared.cache, hook);
    let jobs = report.jobs as u64;
    shared
        .jobs_solved
        // ordering: SeqCst — daemon control plane; total order over throughput off the hot path
        .fetch_add(jobs, Ordering::SeqCst);
    // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
    if let Some(e) = failed.lock().expect("daemon sink failure flag").take() {
        return Err(e);
    }
    let cache = shared.cache.stats();
    let resp = Response::Summary {
        jobs,
        groups: report.groups.len() as u64,
        backends: report.backends.len() as u64,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        wall_micros: report.wall.as_micros() as u64,
    };
    write_frame(stream, &resp.to_bytes())
}

/// Synchronous client helpers for the daemon protocol.
pub mod client {
    use super::*;

    /// One streamed job result (the client-side view of
    /// [`Response::Job`]).
    #[derive(Clone, Debug, PartialEq)]
    pub struct JobUpdate {
        /// Canonical job index.
        pub index: u64,
        /// Display form of the job key.
        pub key: String,
        /// Objective value.
        pub value: u64,
        /// Whether the assignment was verified feasible.
        pub feasible: bool,
        /// LOCAL round bill.
        pub rounds: u64,
        /// Wall-clock microseconds.
        pub micros: u64,
    }

    /// The closing summary of a sweep stream.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct SweepSummary {
        /// Jobs streamed.
        pub jobs: u64,
        /// Group summaries folded.
        pub groups: u64,
        /// Backend roll-ups folded.
        pub backends: u64,
        /// Daemon cache hits after the request.
        pub cache_hits: u64,
        /// Daemon cache misses after the request.
        pub cache_misses: u64,
        /// Request wall clock.
        pub wall_micros: u64,
    }

    /// Capped exponential backoff for reconnecting clients. Retrying is
    /// always safe against this daemon: job results are pure functions
    /// of the job key, so a replayed request streams byte-identical
    /// results (timing columns aside).
    #[derive(Clone, Copy, Debug)]
    pub struct RetryPolicy {
        /// Total connection attempts (≥ 1).
        pub attempts: u32,
        /// Delay before the first retry; doubles per retry.
        pub base_delay: Duration,
        /// Ceiling on the backoff delay.
        pub max_delay: Duration,
    }

    impl Default for RetryPolicy {
        fn default() -> Self {
            RetryPolicy {
                attempts: 5,
                base_delay: Duration::from_millis(50),
                max_delay: Duration::from_secs(1),
            }
        }
    }

    impl RetryPolicy {
        /// The backoff before retry number `retry` (0-based):
        /// `base_delay * 2^retry`, capped at `max_delay`.
        pub fn delay(&self, retry: u32) -> Duration {
            let factor = 2u32.saturating_pow(retry.min(16));
            (self.base_delay * factor).min(self.max_delay)
        }
    }

    /// Whether an error is worth a reconnect: connection-level failures
    /// (the daemon died, restarted, dropped us, or shed load) rather
    /// than in-band request rejections.
    fn retryable(kind: io::ErrorKind) -> bool {
        matches!(
            kind,
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut
                | io::ErrorKind::NotFound
                | io::ErrorKind::Interrupted
        )
    }

    /// Formats a [`Response::Stats`] the way `dapc-serve stats` prints
    /// it: the counter line, then the daemon's metrics snapshot rendered
    /// in its canonical (name-sorted) order. `None` for other variants.
    pub fn render_stats(resp: &Response) -> Option<String> {
        let Response::Stats {
            requests,
            jobs_solved,
            cache_families,
            cache_entries,
            cache_hits,
            cache_misses,
            metrics,
        } = resp
        else {
            return None;
        };
        let mut out = format!(
            "requests {requests}  jobs {jobs_solved}  cache {cache_families} families / \
             {cache_entries} entries  hits {cache_hits}  misses {cache_misses}\n"
        );
        out.push_str(&metrics.render());
        Some(out)
    }

    fn roundtrip(stream: &mut UnixStream, request: &Request) -> io::Result<Response> {
        write_frame(stream, &request.to_bytes())?;
        let body = read_frame(stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the stream")
        })?;
        Response::from_bytes(&body)
    }

    fn unexpected(resp: Response) -> io::Error {
        match resp {
            Response::Error { message } => io::Error::other(format!("daemon error: {message}")),
            // Load shedding is a connection-level condition: surface it
            // with a retryable kind so the backoff loop reconnects.
            Response::Busy => io::Error::new(io::ErrorKind::WouldBlock, "daemon is at capacity"),
            other => io::Error::other(format!("unexpected daemon response {other:?}")),
        }
    }

    /// Pings the daemon at `socket`; returns its protocol version.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol errors.
    pub fn ping(socket: &Path) -> io::Result<u64> {
        let mut stream = UnixStream::connect(socket)?;
        match roundtrip(&mut stream, &Request::Ping)? {
            Response::Pong { protocol } => Ok(protocol),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol errors.
    pub fn stats(socket: &Path) -> io::Result<Response> {
        let mut stream = UnixStream::connect(socket)?;
        match roundtrip(&mut stream, &Request::Stats)? {
            r @ Response::Stats { .. } => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol errors.
    pub fn shutdown(socket: &Path) -> io::Result<()> {
        let mut stream = UnixStream::connect(socket)?;
        match roundtrip(&mut stream, &Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Sweeps `spec` with `jobs`-way parallelism and drains the stream:
    /// `on_job` sees every [`JobUpdate`] in canonical order, and the
    /// closing summary is returned.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol errors; an in-band
    /// [`Response::Error`] becomes an error too, and [`Response::Busy`]
    /// surfaces as [`io::ErrorKind::WouldBlock`].
    pub fn sweep(
        socket: &Path,
        spec: &CorpusSpec,
        jobs: u64,
        mut on_job: impl FnMut(JobUpdate),
    ) -> io::Result<SweepSummary> {
        let mut stream = UnixStream::connect(socket)?;
        let request = Request::Sweep {
            spec: spec.clone(),
            jobs,
        };
        write_frame(&mut stream, &request.to_bytes())?;
        loop {
            let body = read_frame(&mut stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed mid-stream")
            })?;
            match Response::from_bytes(&body)? {
                Response::Job {
                    index,
                    key,
                    value,
                    feasible,
                    rounds,
                    micros,
                } => on_job(JobUpdate {
                    index,
                    key,
                    value,
                    feasible,
                    rounds,
                    micros,
                }),
                Response::Summary {
                    jobs,
                    groups,
                    backends,
                    cache_hits,
                    cache_misses,
                    wall_micros,
                } => {
                    return Ok(SweepSummary {
                        jobs,
                        groups,
                        backends,
                        cache_hits,
                        cache_misses,
                        wall_micros,
                    })
                }
                other => return Err(unexpected(other)),
            }
        }
    }

    /// [`sweep`] behind a [`RetryPolicy`]: reconnects on
    /// connection-level failures (including [`Response::Busy`]) with
    /// capped exponential backoff. Job updates are buffered per attempt
    /// and delivered to `on_job` only from the attempt that completes,
    /// so a retried stream never double-delivers — and because results
    /// are pure functions of job keys, the delivered stream is the same
    /// whichever attempt wins.
    ///
    /// # Errors
    ///
    /// The last connection-level error once attempts are exhausted, or
    /// the first non-retryable error immediately.
    pub fn sweep_with_retry(
        socket: &Path,
        spec: &CorpusSpec,
        jobs: u64,
        policy: &RetryPolicy,
        mut on_job: impl FnMut(JobUpdate),
    ) -> io::Result<SweepSummary> {
        let attempts = policy.attempts.max(1);
        let mut last: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1));
            }
            let mut buffered: Vec<JobUpdate> = Vec::new();
            match sweep(socket, spec, jobs, |j| buffered.push(j)) {
                Ok(summary) => {
                    for j in buffered {
                        on_job(j);
                    }
                    return Ok(summary);
                }
                Err(e) if retryable(e.kind()) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
    }
}
