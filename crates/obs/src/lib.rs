//! Process-wide observability for the dapc stack.
//!
//! One global, lazily-initialised **metrics registry** (atomic counters,
//! gauges, and log₂-bucketed histograms with p50/p90/p99 summaries) plus
//! a lightweight **span tracer** whose scoped enter/exit timers build a
//! per-solve phase tree out of dotted metric names. Three guarantees
//! shape everything here:
//!
//! - **Near-zero cost when disabled.** Every instrumentation site gates
//!   on [`enabled`], a single relaxed atomic load. No timestamps are
//!   taken, no locks touched, no allocations made on the disabled path.
//! - **Results are never perturbed.** Nothing in this crate touches an
//!   RNG stream or a report byte; metrics observe solves, they never
//!   participate in them. The runtime's byte-identity guard test diffs
//!   a full sweep with metrics on vs off to enforce this.
//! - **Snapshots are hardened like every other loader in the stack.**
//!   [`MetricsSnapshot::load_from`] accepts exactly the canonical bytes
//!   [`MetricsSnapshot::save_to`] emits: truncation at any byte, trailing
//!   data, unsorted or duplicate names, and malformed lines are all
//!   errors.
//!
//! Metric names follow `layer.subsystem.name` (for example
//! `exec.task.wait_micros`); span histograms are named
//! `span.<outer>.<inner>` from the thread's live span stack. Names are
//! restricted to `[a-z0-9._-]` so the JSON-lines writer never needs an
//! escape path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The enable gate
// ---------------------------------------------------------------------------

const GATE_UNINIT: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

static GATE: AtomicU8 = AtomicU8::new(GATE_UNINIT);

/// Whether instrumentation is live. One relaxed atomic load on the hot
/// path; the first call resolves the `DAPC_OBS` environment variable
/// (`1`, `true`, or `on` enable it) unless [`set_enabled`] ran first.
///
/// Every hook in the stack checks this before taking a timestamp or a
/// lock, so a disabled build pays exactly this load per event.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => init_gate(),
    }
}

#[cold]
fn init_gate() -> bool {
    let on = std::env::var("DAPC_OBS")
        .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
        .unwrap_or(false);
    // A racing `set_enabled` wins: only replace the uninitialised state.
    let _ = GATE.compare_exchange(
        GATE_UNINIT,
        if on { GATE_ON } else { GATE_OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    GATE.load(Ordering::Relaxed) == GATE_ON
}

/// Programmatically enables or disables instrumentation, overriding the
/// environment. Callers that enable metrics mid-process (for example
/// `tables --metrics`) should do so before solving starts; toggling
/// mid-solve is safe but yields partial measurements.
pub fn set_enabled(on: bool) {
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Adds with saturation instead of wrapping: a counter that has been
/// incremented past `u64::MAX` pins there rather than lying small.
fn sat_add(cell: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(n))
    });
}

/// A monotone event counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        sat_add(&self.0, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (bytes resident, families live, ...).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raises the level by `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        sat_add(&self.0, n);
    }

    /// Lowers the level by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Sets the level outright.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds exact zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]`, up to bucket 64 for the top of
/// the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A log₂-bucketed distribution of `u64` observations (latencies in
/// microseconds, sizes in bytes, occupancies in slots).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// The bucket a value lands in: 0 for 0, else `64 - leading_zeros`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket, used as the quantile estimate.
fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

impl Histogram {
    /// Records one observation. Count, sum, and the bucket tally all
    /// saturate at `u64::MAX` instead of wrapping.
    #[inline]
    pub fn observe(&self, v: u64) {
        sat_add(&self.0.count, 1);
        sat_add(&self.0.sum, v);
        let b = &self.0.buckets[bucket_index(v)];
        let _ = b.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_add(1))
        });
    }

    /// Records a [`Duration`] in whole microseconds (saturating).
    #[inline]
    pub fn observe_micros(&self, d: Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn freeze(&self, name: &str) -> SnapshotEntry {
        let mut buckets = Vec::new();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u8, c));
            }
        }
        let count = self.0.count.load(Ordering::Relaxed);
        SnapshotEntry::Histogram {
            name: name.to_string(),
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            p50: quantile(&buckets, count, 50),
            p90: quantile(&buckets, count, 90),
            p99: quantile(&buckets, count, 99),
            buckets,
        }
    }
}

/// Upper-bound estimate of the `pct`-th percentile from sparse bucket
/// tallies: the inclusive top of the bucket containing the rank
/// `ceil(count * pct / 100)` observation (0 when empty).
fn quantile(buckets: &[(u8, u64)], count: u64, pct: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((u128::from(count) * u128::from(pct)).div_ceil(100)).max(1);
    let mut seen: u128 = 0;
    for &(b, c) in buckets {
        seen += u128::from(c);
        if seen >= rank {
            return bucket_upper(b as usize);
        }
    }
    bucket_upper(buckets.last().map_or(0, |&(b, _)| b as usize))
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registry {
    map: Mutex<BTreeMap<String, Metric>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        map: Mutex::new(BTreeMap::new()),
    })
}

fn check_name(name: &str) {
    assert!(
        !name.is_empty()
            && name.bytes().all(|b| b.is_ascii_lowercase()
                || b.is_ascii_digit()
                || matches!(b, b'.' | b'_' | b'-')),
        "metric name {name:?} must be non-empty [a-z0-9._-]"
    );
}

/// Registers (or fetches) the counter `name`. Call once per site and
/// cache the handle — lookups take the registry lock.
///
/// # Panics
///
/// Panics when `name` is malformed or already registered as a different
/// metric kind: both are programmer errors, not runtime conditions.
pub fn counter(name: &str) -> Counter {
    check_name(name);
    let mut map = registry().map.lock().expect("metric registry poisoned");
    match map
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric {name:?} is already registered as a different kind"),
    }
}

/// Registers (or fetches) the gauge `name`. Same contract as
/// [`counter`].
///
/// # Panics
///
/// Panics on a malformed name or a kind mismatch.
pub fn gauge(name: &str) -> Gauge {
    check_name(name);
    let mut map = registry().map.lock().expect("metric registry poisoned");
    match map
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric {name:?} is already registered as a different kind"),
    }
}

/// Registers (or fetches) the histogram `name`. Same contract as
/// [`counter`].
///
/// # Panics
///
/// Panics on a malformed name or a kind mismatch.
pub fn histogram(name: &str) -> Histogram {
    check_name(name);
    let mut map = registry().map.lock().expect("metric registry poisoned");
    match map.entry(name.to_string()).or_insert_with(|| {
        Metric::Histogram(Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        })))
    }) {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric {name:?} is already registered as a different kind"),
    }
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// FNV-1a, used for the span-path handle memo below: span drops hash a
/// short dotted path on every record, where FNV beats the default
/// DoS-resistant SipHash and the keys are program-chosen (not attacker
/// data), so collision hardening buys nothing.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

type SpanMemo = std::collections::HashMap<String, Histogram, std::hash::BuildHasherDefault<Fnv1a>>;

/// Everything a span touches on its thread, in one thread-local so a
/// record costs a single TLS access. Span drops are the highest-frequency
/// instrumentation site (one per subset solve), so the steady state must
/// not take the registry mutex or allocate: the dotted path is rebuilt
/// into the reused `buf` and resolved through `handles`; only the first
/// sighting of a path on a thread goes to the global registry.
#[derive(Default)]
struct SpanTls {
    stack: Vec<&'static str>,
    buf: String,
    handles: SpanMemo,
}

thread_local! {
    static SPAN_TLS: RefCell<SpanTls> = RefCell::new(SpanTls::default());
}

/// A scoped phase timer; see [`span`].
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    start: Option<Instant>,
}

/// Opens a named span on this thread's span stack. When instrumentation
/// is enabled, dropping the guard records the elapsed microseconds into
/// a histogram named `span.` followed by the dot-joined stack — nested
/// spans therefore build a phase tree out of names alone (for example
/// `span.solve.decompose`). When disabled this is a no-op: no clock
/// read, no thread-local touch.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    SPAN_TLS.with(|s| s.borrow_mut().stack.push(name));
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        SPAN_TLS.with(|s| {
            let mut tls = s.borrow_mut();
            let SpanTls {
                stack,
                buf,
                handles,
            } = &mut *tls;
            buf.clear();
            buf.push_str("span");
            for seg in stack.iter() {
                buf.push('.');
                buf.push_str(seg);
            }
            match handles.get(buf.as_str()) {
                Some(hist) => hist.observe_micros(elapsed),
                None => {
                    let hist = histogram(buf);
                    hist.observe_micros(elapsed);
                    handles.insert(buf.clone(), hist);
                }
            }
            stack.pop();
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Snapshot format version written in the header line.
pub const SNAPSHOT_VERSION: u64 = 1;

/// One frozen metric inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotEntry {
    /// A frozen [`Counter`].
    Counter {
        /// Metric name.
        name: String,
        /// Counter value at capture.
        value: u64,
    },
    /// A frozen [`Gauge`].
    Gauge {
        /// Metric name.
        name: String,
        /// Gauge level at capture.
        value: u64,
    },
    /// A frozen [`Histogram`] with its quantile summary.
    Histogram {
        /// Metric name.
        name: String,
        /// Observations recorded.
        count: u64,
        /// Saturating sum of observations.
        sum: u64,
        /// Upper-bound estimate of the median.
        p50: u64,
        /// Upper-bound estimate of the 90th percentile.
        p90: u64,
        /// Upper-bound estimate of the 99th percentile.
        p99: u64,
        /// Sparse `(bucket, count)` tallies, ascending, zeros omitted.
        buckets: Vec<(u8, u64)>,
    },
}

impl SnapshotEntry {
    /// The metric's registry name.
    pub fn name(&self) -> &str {
        match self {
            SnapshotEntry::Counter { name, .. }
            | SnapshotEntry::Gauge { name, .. }
            | SnapshotEntry::Histogram { name, .. } => name,
        }
    }
}

/// A point-in-time copy of every registered metric, sorted by name.
///
/// The wire form is versioned JSON lines: a header declaring the metric
/// count, then exactly that many metric lines. The count makes
/// truncation at a line boundary detectable; truncation inside a line
/// fails the line parser; trailing data after the last line is an
/// error. [`load_from`](MetricsSnapshot::load_from) accepts only the
/// canonical bytes [`save_to`](MetricsSnapshot::save_to) emits.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Frozen metrics, strictly ascending by name.
    pub entries: Vec<SnapshotEntry>,
}

impl MetricsSnapshot {
    /// Freezes the current registry contents. Capture is not atomic
    /// across metrics — concurrent observations may land between reads —
    /// but each individual value is a coherent atomic load.
    pub fn capture() -> Self {
        let map = registry().map.lock().expect("metric registry poisoned");
        let entries = map
            .iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => SnapshotEntry::Counter {
                    name: name.clone(),
                    value: c.get(),
                },
                Metric::Gauge(g) => SnapshotEntry::Gauge {
                    name: name.clone(),
                    value: g.get(),
                },
                Metric::Histogram(h) => h.freeze(name),
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Writes the canonical JSON-lines form.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(
            w,
            "{{\"format\":\"dapc-obs\",\"version\":{SNAPSHOT_VERSION},\"metrics\":{}}}",
            self.entries.len()
        )?;
        for e in &self.entries {
            match e {
                SnapshotEntry::Counter { name, value } => {
                    writeln!(
                        w,
                        "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}"
                    )?;
                }
                SnapshotEntry::Gauge { name, value } => {
                    writeln!(
                        w,
                        "{{\"kind\":\"gauge\",\"name\":\"{name}\",\"value\":{value}}}"
                    )?;
                }
                SnapshotEntry::Histogram {
                    name,
                    count,
                    sum,
                    p50,
                    p90,
                    p99,
                    buckets,
                } => {
                    write!(
                        w,
                        "{{\"kind\":\"histogram\",\"name\":\"{name}\",\"count\":{count},\"sum\":{sum},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"buckets\":["
                    )?;
                    for (i, (b, c)) in buckets.iter().enumerate() {
                        if i > 0 {
                            write!(w, ",")?;
                        }
                        write!(w, "[{b},{c}]")?;
                    }
                    writeln!(w, "]}}")?;
                }
            }
        }
        w.flush()
    }

    /// The canonical bytes as a vector (convenience over
    /// [`save_to`](MetricsSnapshot::save_to)).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        self.save_to(&mut w).expect("writing to a Vec cannot fail");
        w
    }

    /// Reads back a snapshot, accepting exactly the canonical form.
    /// All-or-nothing: truncation at any byte, trailing data, a metric
    /// count that disagrees with the header, out-of-order or duplicate
    /// names, and any non-canonical byte are all errors.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on malformed input and
    /// propagates reader errors.
    pub fn load_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut text = String::new();
        r.read_to_string(&mut text)
            .map_err(|e| invalid(format!("snapshot is not UTF-8 text: {e}")))?;
        let mut cursor = text.as_str();
        let header = take_line(&mut cursor)?;
        let mut h = header;
        expect(&mut h, "{\"format\":\"dapc-obs\",\"version\":")?;
        let version = parse_u64(&mut h)?;
        if version != SNAPSHOT_VERSION {
            return Err(invalid(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        expect(&mut h, ",\"metrics\":")?;
        let n = parse_u64(&mut h)?;
        expect(&mut h, "}")?;
        end_of_line(h)?;

        let mut entries = Vec::new();
        for i in 0..n {
            let line = take_line(&mut cursor)
                .map_err(|_| invalid(format!("snapshot truncated: {i} of {n} metric lines")))?;
            let entry = parse_entry(line)?;
            if let Some(prev) = entries.last() {
                let prev: &SnapshotEntry = prev;
                if prev.name() >= entry.name() {
                    return Err(invalid(format!(
                        "metric names must be strictly ascending: {:?} then {:?}",
                        prev.name(),
                        entry.name()
                    )));
                }
            }
            entries.push(entry);
        }
        if !cursor.is_empty() {
            return Err(invalid("trailing data after the last metric line"));
        }
        Ok(MetricsSnapshot { entries })
    }

    /// Parses the canonical bytes (convenience over
    /// [`load_from`](MetricsSnapshot::load_from)).
    ///
    /// # Errors
    ///
    /// Same contract as [`load_from`](MetricsSnapshot::load_from).
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        Self::load_from(&mut &bytes[..])
    }

    /// Renders an aligned, human-readable table in the snapshot's
    /// (sorted) order — the `dapc-serve stats` display format.
    pub fn render(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|e| e.name().len())
            .max()
            .unwrap_or(0);
        let mut out = format!(
            "dapc-obs snapshot v{SNAPSHOT_VERSION} ({} metric{})\n",
            self.entries.len(),
            if self.entries.len() == 1 { "" } else { "s" }
        );
        for e in &self.entries {
            match e {
                SnapshotEntry::Counter { name, value } => {
                    out.push_str(&format!("counter    {name:<width$}  {value}\n"));
                }
                SnapshotEntry::Gauge { name, value } => {
                    out.push_str(&format!("gauge      {name:<width$}  {value}\n"));
                }
                SnapshotEntry::Histogram {
                    name,
                    count,
                    sum,
                    p50,
                    p90,
                    p99,
                    ..
                } => {
                    out.push_str(&format!(
                        "histogram  {name:<width$}  count={count} sum={sum} p50={p50} p90={p90} p99={p99}\n"
                    ));
                }
            }
        }
        out
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| e.name() == name)
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Takes one `\n`-terminated line off the cursor. A remainder without a
/// newline is a truncated line, not a line.
fn take_line<'a>(cursor: &mut &'a str) -> io::Result<&'a str> {
    match cursor.find('\n') {
        Some(i) => {
            let line = &cursor[..i];
            *cursor = &cursor[i + 1..];
            Ok(line)
        }
        None => Err(invalid(if cursor.is_empty() {
            "snapshot ended before the expected line".to_string()
        } else {
            format!(
                "unterminated snapshot line {:?}",
                &cursor[..cursor.len().min(40)]
            )
        })),
    }
}

fn expect(s: &mut &str, lit: &str) -> io::Result<()> {
    match s.strip_prefix(lit) {
        Some(rest) => {
            *s = rest;
            Ok(())
        }
        None => Err(invalid(format!(
            "malformed snapshot line: expected {lit:?} at {:?}",
            &s[..s.len().min(40)]
        ))),
    }
}

fn parse_u64(s: &mut &str) -> io::Result<u64> {
    let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return Err(invalid(format!(
            "malformed snapshot number at {:?}",
            &s[..s.len().min(40)]
        )));
    }
    // Reject non-canonical leading zeros so only `save_to` output parses.
    if digits > 1 && s.starts_with('0') {
        return Err(invalid("non-canonical number with leading zeros"));
    }
    let v = s[..digits]
        .parse::<u64>()
        .map_err(|e| invalid(format!("snapshot number out of range: {e}")))?;
    *s = &s[digits..];
    Ok(v)
}

fn end_of_line(s: &str) -> io::Result<()> {
    if s.is_empty() {
        Ok(())
    } else {
        Err(invalid(format!("trailing bytes on snapshot line: {s:?}")))
    }
}

fn parse_name(s: &mut &str) -> io::Result<String> {
    expect(s, "\"")?;
    let len = s.len()
        - s.trim_start_matches(|c: char| {
            c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '.' | '_' | '-')
        })
        .len();
    if len == 0 {
        return Err(invalid("empty or malformed metric name"));
    }
    let name = s[..len].to_string();
    *s = &s[len..];
    expect(s, "\"")?;
    Ok(name)
}

fn parse_entry(line: &str) -> io::Result<SnapshotEntry> {
    let mut s = line;
    expect(&mut s, "{\"kind\":\"")?;
    if let Some(rest) = s.strip_prefix("counter\",\"name\":") {
        s = rest;
        let name = parse_name(&mut s)?;
        expect(&mut s, ",\"value\":")?;
        let value = parse_u64(&mut s)?;
        expect(&mut s, "}")?;
        end_of_line(s)?;
        Ok(SnapshotEntry::Counter { name, value })
    } else if let Some(rest) = s.strip_prefix("gauge\",\"name\":") {
        s = rest;
        let name = parse_name(&mut s)?;
        expect(&mut s, ",\"value\":")?;
        let value = parse_u64(&mut s)?;
        expect(&mut s, "}")?;
        end_of_line(s)?;
        Ok(SnapshotEntry::Gauge { name, value })
    } else if let Some(rest) = s.strip_prefix("histogram\",\"name\":") {
        s = rest;
        let name = parse_name(&mut s)?;
        expect(&mut s, ",\"count\":")?;
        let count = parse_u64(&mut s)?;
        expect(&mut s, ",\"sum\":")?;
        let sum = parse_u64(&mut s)?;
        expect(&mut s, ",\"p50\":")?;
        let p50 = parse_u64(&mut s)?;
        expect(&mut s, ",\"p90\":")?;
        let p90 = parse_u64(&mut s)?;
        expect(&mut s, ",\"p99\":")?;
        let p99 = parse_u64(&mut s)?;
        expect(&mut s, ",\"buckets\":[")?;
        let mut buckets = Vec::new();
        if !s.starts_with(']') {
            loop {
                expect(&mut s, "[")?;
                let b = parse_u64(&mut s)?;
                let b = u8::try_from(b)
                    .ok()
                    .filter(|&b| (b as usize) < HISTOGRAM_BUCKETS)
                    .ok_or_else(|| invalid(format!("bucket index {b} out of range")))?;
                expect(&mut s, ",")?;
                let c = parse_u64(&mut s)?;
                if c == 0 {
                    return Err(invalid("zero bucket counts are omitted, not written"));
                }
                if let Some(&(prev, _)) = buckets.last() {
                    if prev >= b {
                        return Err(invalid("bucket indices must be strictly ascending"));
                    }
                }
                buckets.push((b, c));
                expect(&mut s, "]")?;
                if s.starts_with(',') {
                    s = &s[1..];
                } else {
                    break;
                }
            }
        }
        expect(&mut s, "]}")?;
        end_of_line(s)?;
        Ok(SnapshotEntry::Histogram {
            name,
            count,
            sum,
            p50,
            p90,
            p99,
            buckets,
        })
    } else {
        Err(invalid(format!(
            "unknown metric kind on snapshot line {:?}",
            &line[..line.len().min(40)]
        )))
    }
}

/// Captures the registry and writes it to `path` atomically (a `.tmp`
/// sibling renamed into place), so a reader never sees a half-written
/// snapshot.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_snapshot(path: &Path) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    MetricsSnapshot::capture().save_to(&mut f)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Periodic flushing
// ---------------------------------------------------------------------------

/// A background thread that rewrites a snapshot file on an interval.
/// Dropping the handle stops the thread and writes one final snapshot,
/// so the file always reflects end-of-process state.
pub struct PeriodicFlush {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl PeriodicFlush {
    /// Starts flushing [`write_snapshot`] to `path` every `interval`.
    /// Write failures are swallowed — observability must never take the
    /// process down.
    pub fn start(path: impl Into<PathBuf>, interval: Duration) -> Self {
        let path = path.into();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let path = path.clone();
            let stop = Arc::clone(&stop);
            // dapc-allow(thread-spawn): the periodic-flush service thread is obs infrastructure
            std::thread::spawn(move || {
                let tick = Duration::from_millis(50).min(interval);
                let mut since_flush = Duration::ZERO;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    since_flush += tick;
                    if since_flush >= interval {
                        since_flush = Duration::ZERO;
                        let _ = write_snapshot(&path);
                    }
                }
            })
        };
        PeriodicFlush {
            stop,
            handle: Some(handle),
            path,
        }
    }
}

impl Drop for PeriodicFlush {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let _ = write_snapshot(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{MutexGuard, PoisonError};

    /// Held by every test that sets the gate. The gate is process-wide
    /// and the harness runs tests on parallel threads, so without it a
    /// test could turn the gate on while another holds it off.
    static GATE_LOCK: Mutex<()> = Mutex::new(());

    /// Sets the gate to `on`; it stays so, as far as these tests go, until
    /// the guard drops.
    fn gate(on: bool) -> MutexGuard<'static, ()> {
        let guard = GATE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(on);
        guard
    }

    /// Every test works through uniquely-named metrics because the
    /// registry is process-global and the harness runs tests in
    /// parallel.
    fn hist(name: &str) -> Histogram {
        let _gate = gate(true);
        histogram(name)
    }

    #[test]
    fn counters_and_gauges_register_and_accumulate() {
        let _gate = gate(true);
        let c = counter("test.lib.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(counter("test.lib.counter").get(), 5, "same handle by name");

        let g = gauge("test.lib.gauge");
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauges saturate at zero");
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn bucket_index_maps_powers_of_two_to_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 1..64usize {
            // Each bucket's bounds land in that bucket.
            assert_eq!(bucket_index(1u64 << (b - 1)), b, "lower bound of {b}");
            assert_eq!(bucket_index(bucket_upper(b)), b, "upper bound of {b}");
        }
    }

    #[test]
    fn histogram_with_zero_observations_summarises_to_zeros() {
        let h = hist("test.lib.hist_empty");
        let SnapshotEntry::Histogram {
            count,
            sum,
            p50,
            p90,
            p99,
            buckets,
            ..
        } = h.freeze("test.lib.hist_empty")
        else {
            panic!("freeze returns a histogram entry")
        };
        assert_eq!((count, sum, p50, p90, p99), (0, 0, 0, 0, 0));
        assert!(buckets.is_empty());
    }

    #[test]
    fn histogram_with_a_single_observation_reports_it_in_every_quantile() {
        let h = hist("test.lib.hist_single");
        h.observe(100);
        let SnapshotEntry::Histogram {
            count,
            sum,
            p50,
            p90,
            p99,
            buckets,
            ..
        } = h.freeze("test.lib.hist_single")
        else {
            panic!("freeze returns a histogram entry")
        };
        assert_eq!((count, sum), (1, 100));
        // 100 lands in bucket 7 ([64, 127]); the quantile estimate is the
        // bucket's inclusive upper bound.
        assert_eq!(buckets, vec![(7, 1)]);
        assert_eq!((p50, p90, p99), (127, 127, 127));
    }

    #[test]
    fn histogram_saturates_instead_of_wrapping() {
        let h = hist("test.lib.hist_saturate");
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let SnapshotEntry::Histogram { count, sum, .. } = h.freeze("test.lib.hist_saturate") else {
            panic!("freeze returns a histogram entry")
        };
        assert_eq!(count, 2);
        assert_eq!(sum, u64::MAX, "sum pins at the ceiling, never wraps");
    }

    #[test]
    fn zero_observations_land_in_the_zero_bucket() {
        let h = hist("test.lib.hist_zero_value");
        h.observe(0);
        h.observe(0);
        let SnapshotEntry::Histogram {
            count,
            sum,
            p50,
            buckets,
            ..
        } = h.freeze("test.lib.hist_zero_value")
        else {
            panic!("freeze returns a histogram entry")
        };
        assert_eq!((count, sum, p50), (2, 0, 0));
        assert_eq!(buckets, vec![(0, 2)]);
    }

    #[test]
    fn quantiles_walk_the_bucket_cdf() {
        let h = hist("test.lib.hist_quantiles");
        // 90 observations of 1 (bucket 1), 10 of 1000 (bucket 10).
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        let SnapshotEntry::Histogram { p50, p90, p99, .. } = h.freeze("test.lib.hist_quantiles")
        else {
            panic!("freeze returns a histogram entry")
        };
        assert_eq!(p50, 1, "rank 50 of 100 sits in bucket 1");
        assert_eq!(p90, 1, "rank 90 of 100 is the last bucket-1 observation");
        assert_eq!(p99, 1023, "rank 99 reaches bucket 10's upper bound");
    }

    #[test]
    fn snapshot_round_trips_through_canonical_bytes() {
        let snap = MetricsSnapshot {
            entries: vec![
                SnapshotEntry::Counter {
                    name: "a.counter".into(),
                    value: 7,
                },
                SnapshotEntry::Gauge {
                    name: "b.gauge".into(),
                    value: 0,
                },
                SnapshotEntry::Histogram {
                    name: "c.hist".into(),
                    count: 3,
                    sum: 1102,
                    p50: 127,
                    p90: 1023,
                    p99: 1023,
                    buckets: vec![(1, 1), (7, 1), (10, 1)],
                },
            ],
        };
        let bytes = snap.to_bytes();
        assert_eq!(
            MetricsSnapshot::from_bytes(&bytes).expect("round trip"),
            snap
        );

        let empty = MetricsSnapshot::default();
        let bytes = empty.to_bytes();
        assert_eq!(
            MetricsSnapshot::from_bytes(&bytes).expect("empty round trip"),
            empty
        );
    }

    #[test]
    fn snapshot_truncation_at_every_byte_is_an_error() {
        let snap = MetricsSnapshot {
            entries: vec![
                SnapshotEntry::Counter {
                    name: "a.counter".into(),
                    value: 7,
                },
                SnapshotEntry::Histogram {
                    name: "c.hist".into(),
                    count: 2,
                    sum: 100,
                    p50: 63,
                    p90: 63,
                    p99: 63,
                    buckets: vec![(6, 2)],
                },
            ],
        };
        let bytes = snap.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                MetricsSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not parse",
                bytes.len()
            );
        }
        assert!(MetricsSnapshot::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn snapshot_trailing_and_non_canonical_bytes_are_errors() {
        let snap = MetricsSnapshot {
            entries: vec![SnapshotEntry::Counter {
                name: "a.counter".into(),
                value: 7,
            }],
        };
        let mut padded = snap.to_bytes();
        padded.extend_from_slice(b"x");
        assert!(
            MetricsSnapshot::from_bytes(&padded).is_err(),
            "trailing junk"
        );

        let mut extra_line = snap.to_bytes();
        extra_line.extend_from_slice(b"{\"kind\":\"counter\",\"name\":\"zz\",\"value\":1}\n");
        assert!(
            MetricsSnapshot::from_bytes(&extra_line).is_err(),
            "a metric line beyond the declared count is trailing data"
        );

        // Reordered names break the strictly-ascending invariant.
        let unsorted = b"{\"format\":\"dapc-obs\",\"version\":1,\"metrics\":2}\n{\"kind\":\"counter\",\"name\":\"b\",\"value\":1}\n{\"kind\":\"counter\",\"name\":\"a\",\"value\":1}\n";
        assert!(
            MetricsSnapshot::from_bytes(unsorted).is_err(),
            "unsorted names"
        );

        let leading_zero = b"{\"format\":\"dapc-obs\",\"version\":1,\"metrics\":1}\n{\"kind\":\"counter\",\"name\":\"a\",\"value\":007}\n";
        assert!(
            MetricsSnapshot::from_bytes(leading_zero).is_err(),
            "leading zeros are non-canonical"
        );

        let bad_version = b"{\"format\":\"dapc-obs\",\"version\":9,\"metrics\":0}\n";
        assert!(
            MetricsSnapshot::from_bytes(bad_version).is_err(),
            "version skew"
        );
    }

    #[test]
    fn spans_nest_into_dotted_histogram_names() {
        let _gate = gate(true);
        {
            let _outer = span("testsolve");
            {
                let _inner = span("decompose");
            }
            {
                let _inner = span("verify");
            }
        }
        let snap = MetricsSnapshot::capture();
        for name in [
            "span.testsolve",
            "span.testsolve.decompose",
            "span.testsolve.verify",
        ] {
            match snap.get(name) {
                Some(SnapshotEntry::Histogram { count, .. }) => {
                    assert!(*count >= 1, "{name} recorded")
                }
                other => panic!("{name} missing or wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let gate_off = gate(false);
        {
            let _s = span("test-disabled-span-never-registered");
        }
        set_enabled(true);
        drop(gate_off);
        assert!(
            MetricsSnapshot::capture()
                .get("span.test-disabled-span-never-registered")
                .is_none(),
            "a disabled span must not touch the registry"
        );
    }

    #[test]
    fn render_is_stable_and_aligned() {
        let snap = MetricsSnapshot {
            entries: vec![
                SnapshotEntry::Counter {
                    name: "exec.task.help_runs".into(),
                    value: 3,
                },
                SnapshotEntry::Gauge {
                    name: "runtime.prep_cache.families".into(),
                    value: 2,
                },
                SnapshotEntry::Histogram {
                    name: "serve.daemon.ping_micros".into(),
                    count: 2,
                    sum: 30,
                    p50: 15,
                    p90: 31,
                    p99: 31,
                    buckets: vec![(4, 2)],
                },
            ],
        };
        let expected = "dapc-obs snapshot v1 (3 metrics)\n\
                        counter    exec.task.help_runs          3\n\
                        gauge      runtime.prep_cache.families  2\n\
                        histogram  serve.daemon.ping_micros     count=2 sum=30 p50=15 p90=31 p99=31\n";
        assert_eq!(snap.render(), expected);
    }

    #[test]
    fn periodic_flush_writes_on_drop() {
        let _gate = gate(true);
        counter("test.lib.flush_marker").inc();
        let dir = std::env::temp_dir().join("dapc-obs-flush-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        {
            let _flush = PeriodicFlush::start(&path, Duration::from_secs(3600));
        }
        let bytes = std::fs::read(&path).expect("final flush wrote the file");
        let snap = MetricsSnapshot::from_bytes(&bytes).expect("flushed snapshot parses");
        assert!(snap.get("test.lib.flush_marker").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
