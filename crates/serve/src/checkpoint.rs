//! The on-disk layout of a checkpointed sweep.
//!
//! A sweep directory holds one [`SweepManifest`] (`manifest.bin`) that
//! pins the directory to a [`CorpusSpec`] and records which job ranges
//! are known done, plus one part file per completed checkpoint unit —
//! `part-{start:08}-{end:08}.bin`, a [`PartReport`] snapshot covering
//! exactly the named canonical job range.
//!
//! Three rules make crashes harmless:
//!
//! 1. **Part files appear atomically.** Workers serialise to a dotted
//!    temporary in the same directory and `rename` into place, so a
//!    scan never observes a half-written part — at worst a leftover
//!    temporary it ignores.
//! 2. **The scan trusts nothing.** A part that fails to load, belongs
//!    to a different corpus size, covers a range other than its name
//!    claims, or overlaps an already-accepted part is *skipped* (and
//!    counted), exactly as if the worker had never finished it — the
//!    all-or-nothing loader discipline turned into scheduling.
//! 3. **Parts are the ground truth.** The manifest's `done` ranges are
//!    a cross-checked cache for reporting; coverage is always recomputed
//!    from the part files a resume can actually load.

use crate::spec::CorpusSpec;
use dapc_runtime::{snap, PartReport};
use std::fs;
use std::io::{self, Read};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Magic + version prefix of `manifest.bin`. Version 2 appends a
/// 16-byte FNV-1a-128 seal over every preceding byte — a flipped or
/// truncated manifest must fail to load (exit 4), never half-load.
pub const MANIFEST_MAGIC: &[u8; 8] = dapc_core::snapmagic::MANIFEST.bytes;

/// File name of the sweep manifest inside a sweep directory.
pub const MANIFEST_FILE: &str = "manifest.bin";

/// What a sweep directory is sweeping, and how far it has come.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepManifest {
    /// The sweep being checkpointed; resuming against a directory whose
    /// manifest holds a different spec is refused.
    pub spec: CorpusSpec,
    /// Total jobs of the corpus (`spec.grid_len()`, denormalised so a
    /// reader needs no corpus to interpret the ranges).
    pub corpus_jobs: usize,
    /// Checkpoint unit: workers cut their assigned ranges at multiples
    /// of this many jobs and emit one part file per piece.
    pub unit: usize,
    /// Job ranges known complete, in normal form (sorted, disjoint,
    /// coalesced). Advisory — [`scan_parts`] is authoritative.
    pub done: Vec<Range<usize>>,
}

impl SweepManifest {
    /// Creates the manifest of a fresh sweep (nothing done yet).
    pub fn new(spec: CorpusSpec, unit: usize) -> Self {
        let corpus_jobs = spec.grid_len();
        SweepManifest {
            spec,
            corpus_jobs,
            unit: unit.max(1),
            done: Vec::new(),
        }
    }

    /// Writes the manifest in its versioned binary form.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_to<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MANIFEST_MAGIC);
        snap::write_bytes(&mut buf, &self.spec.to_bytes())?;
        snap::write_u64(&mut buf, self.corpus_jobs as u64)?;
        snap::write_u64(&mut buf, self.unit as u64)?;
        snap::write_u64(&mut buf, self.done.len() as u64)?;
        for r in &self.done {
            snap::write_u64(&mut buf, r.start as u64)?;
            snap::write_u64(&mut buf, r.end as u64)?;
        }
        snap::seal(&mut buf);
        w.write_all(&buf)
    }

    /// Reads and validates a manifest: the embedded spec must itself
    /// load (and validate), `corpus_jobs` must equal the spec's grid,
    /// and the `done` ranges must be in normal form inside the corpus.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on any violation
    /// (including a failed seal check), with
    /// [`io::ErrorKind::UnexpectedEof`] on truncation at any byte.
    pub fn load_from<R: io::Read>(r: R) -> io::Result<Self> {
        let mut r = snap::SealingReader::new(dapc_chaos::corrupt_reader("manifest.load", r));
        snap::check_magic(&mut r, MANIFEST_MAGIC, "sweep-manifest")?;
        let spec_bytes = snap::read_bytes(&mut r, "embedded spec")?;
        let mut spec_slice = spec_bytes.as_slice();
        let spec = CorpusSpec::load_from(&mut spec_slice)?;
        if !spec_slice.is_empty() {
            return Err(snap::invalid("trailing bytes after the embedded spec"));
        }
        let corpus_jobs = snap::read_u64(&mut r)? as usize;
        if corpus_jobs != spec.grid_len() {
            return Err(snap::invalid(format!(
                "manifest claims {corpus_jobs} jobs but its spec spans {}",
                spec.grid_len()
            )));
        }
        let unit = snap::read_u64(&mut r)? as usize;
        if unit == 0 {
            return Err(snap::invalid("zero checkpoint unit"));
        }
        let count = snap::read_u64(&mut r)?;
        if count > corpus_jobs as u64 {
            return Err(snap::invalid(format!(
                "{count} done ranges exceed the {corpus_jobs}-job corpus"
            )));
        }
        let mut done = Vec::with_capacity(count as usize);
        let mut watermark = 0usize;
        for _ in 0..count {
            let start = snap::read_u64(&mut r)? as usize;
            let end = snap::read_u64(&mut r)? as usize;
            if start >= end || end > corpus_jobs {
                return Err(snap::invalid(format!(
                    "done range {start}..{end} is not in normal form"
                )));
            }
            if !done.is_empty() && start <= watermark {
                return Err(snap::invalid(format!(
                    "done range {start}..{end} is unsorted or uncoalesced at {watermark}"
                )));
            }
            watermark = end;
            done.push(start..end);
        }
        r.verify_seal("sweep-manifest")?;
        // Self-delimiting: anything further is corruption.
        let mut trailing = [0u8; 1];
        if r.read(&mut trailing)? != 0 {
            return Err(snap::invalid("trailing bytes after the manifest"));
        }
        Ok(SweepManifest {
            spec,
            corpus_jobs,
            unit,
            done,
        })
    }

    /// Atomically writes the manifest into `dir` (temporary + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        let mut bytes = Vec::new();
        self.save_to(&mut bytes)?;
        let tmp = dir.join(".manifest.tmp");
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, dir.join(MANIFEST_FILE))
    }

    /// Loads the manifest of `dir`, or `Ok(None)` when the directory has
    /// none yet (a fresh sweep).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a present-but-corrupt manifest is
    /// an error, not `None` — the directory belongs to *some* sweep and
    /// silently restarting could mix checkpoints of different corpora.
    pub fn load(dir: &Path) -> io::Result<Option<Self>> {
        match fs::File::open(dir.join(MANIFEST_FILE)) {
            Ok(f) => Self::load_from(io::BufReader::new(f)).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The part file name of a covered range.
pub fn part_file_name(range: &Range<usize>) -> String {
    format!("part-{:08}-{:08}.bin", range.start, range.end)
}

fn parse_part_file_name(name: &str) -> Option<Range<usize>> {
    let rest = name.strip_prefix("part-")?.strip_suffix(".bin")?;
    let (start, end) = rest.split_once('-')?;
    if start.len() != 8 || end.len() != 8 {
        return None;
    }
    Some(start.parse().ok()?..end.parse().ok()?)
}

/// Atomically persists one completed checkpoint unit into `dir` and
/// returns its final path. The part must cover exactly one contiguous
/// range (what [`dapc_runtime::solve_range_streaming_with_cache`]
/// returns).
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidData`] when the part covers zero
/// or several ranges; propagates filesystem errors.
pub fn write_part(dir: &Path, part: &PartReport) -> io::Result<PathBuf> {
    let covered = part.covered();
    let range = match covered.as_slice() {
        [one] => one.clone(),
        _ => {
            return Err(snap::invalid(format!(
                "a part file holds one contiguous range, got {covered:?}"
            )))
        }
    };
    // Timed as one unit: serialisation plus the atomic publish — the
    // span a crashing worker would forfeit.
    // dapc-allow(wall-clock): checkpoint-publish telemetry only, gated on dapc_obs::enabled
    let started = dapc_obs::enabled().then(std::time::Instant::now);
    let mut bytes = Vec::new();
    part.save_to(&mut bytes)?;
    let path = dir.join(part_file_name(&range));
    let tmp = dir.join(format!(".{}.tmp", part_file_name(&range)));
    // Chaos faults model every way a real write can go wrong, always on
    // the *sealed* byte stream: a torn temporary (crash mid-write), a
    // leaked temporary (crash between write and rename), or a published
    // part with a flipped byte — which the seal catches at the next
    // load, so it re-solves instead of merging wrong.
    if let Some(mut roll) = dapc_chaos::roll("part.write") {
        match roll.pick(3) {
            0 => {
                let keep = roll.pick(bytes.len().max(2) - 1) + 1;
                fs::write(&tmp, &bytes[..keep])?;
                return Err(io::Error::other("chaos: part write torn mid-file"));
            }
            1 => {
                fs::write(&tmp, &bytes)?;
                return Err(io::Error::other("chaos: part rename lost"));
            }
            _ => {
                let at = roll.pick(bytes.len());
                bytes[at] ^= 1 << roll.pick(8);
            }
        }
    }
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, &path)?;
    if let Some(started) = started {
        write_micros().observe_micros(started.elapsed());
    }
    Ok(path)
}

/// Name of the sub-directory corrupt part files are moved into by
/// [`scan_parts`] instead of being deleted or aborting the resume.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Removes stale dotted `*.tmp` files a crashed worker left in `dir`
/// (a crash between `write` and `rename` leaks one forever), returning
/// how many were collected. Safe to run whenever no worker is writing —
/// finished parts only ever appear via rename, never as temporaries.
///
/// # Errors
///
/// Propagates directory-listing errors; a single failed removal is
/// skipped (the file may have just been renamed into place).
pub fn gc_stale_tmp(dir: &Path) -> io::Result<usize> {
    let mut collected = 0usize;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with('.') && name.ends_with(".tmp") && fs::remove_file(entry.path()).is_ok()
        {
            collected += 1;
        }
    }
    Ok(collected)
}

/// Latency of [`write_part`] (`serve.checkpoint.write_micros`).
fn write_micros() -> &'static dapc_obs::Histogram {
    static H: std::sync::OnceLock<dapc_obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| dapc_obs::histogram("serve.checkpoint.write_micros"))
}

/// What [`scan_parts`] salvaged from a sweep directory.
#[derive(Debug, Default)]
pub struct Scan {
    /// Every loadable, mutually disjoint part, sorted by start index.
    pub parts: Vec<PartReport>,
    /// Their coverage in normal form.
    pub covered: Vec<Range<usize>>,
    /// Total jobs covered.
    pub jobs_done: usize,
    /// Files that looked like parts but were torn, foreign or
    /// overlapping — ignored as if never written. Includes the
    /// quarantined ones.
    pub skipped: usize,
    /// The subset of `skipped` that failed to *load* (torn or corrupt
    /// bytes) and was moved into [`QUARANTINE_DIR`] for post-mortem
    /// instead of being rescanned forever.
    pub quarantined: usize,
}

/// Scans `dir` for salvageable checkpoints of a `corpus_jobs`-job
/// sweep. Unreadable, corrupt, foreign-corpus, misnamed and overlapping
/// part files are skipped (and counted), never fatal: a torn checkpoint
/// means "this range was never completed", the coordinator will just
/// resolve it. Parts whose *bytes* fail to load (torn writes, flipped
/// bits the seal caught) are additionally moved into
/// [`QUARANTINE_DIR`], so the evidence survives for post-mortem and a
/// resumed sweep does not re-parse the same corpse on every rescan.
///
/// # Errors
///
/// Propagates directory-listing errors only.
pub fn scan_parts(dir: &Path, corpus_jobs: usize) -> io::Result<Scan> {
    let mut found: Vec<(Range<usize>, PartReport)> = Vec::new();
    let mut skipped = 0usize;
    let mut quarantined = 0usize;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(claim) = name.to_str().and_then(parse_part_file_name) else {
            continue; // not a part file (manifest, temporary, stranger)
        };
        // One retry before condemning the file: a transient read fault
        // is indistinguishable from corruption on a single pass, but
        // corrupt bytes fail every load while a flaky read usually
        // doesn't fail twice.
        let load = || {
            fs::File::open(entry.path())
                .map(io::BufReader::new)
                .and_then(PartReport::load_from)
        };
        let part = match load().or_else(|_| load()) {
            Ok(p) => p,
            Err(_) => {
                skipped += 1;
                if quarantine(dir, &entry.path()) {
                    quarantined += 1;
                }
                continue;
            }
        };
        if part.corpus_jobs != corpus_jobs || part.covered() != vec![claim.clone()] {
            skipped += 1;
            continue;
        }
        found.push((claim, part));
    }
    found.sort_by_key(|(claim, _)| claim.start);
    let mut scan = Scan {
        skipped,
        quarantined,
        ..Scan::default()
    };
    let mut watermark = 0usize;
    for (claim, part) in found {
        if !scan.parts.is_empty() && claim.start < watermark {
            scan.skipped += 1; // overlaps an already-accepted part
            continue;
        }
        watermark = claim.end;
        scan.jobs_done += part.jobs;
        scan.parts.push(part);
    }
    scan.covered = coalesce(scan.parts.iter().flat_map(|p| p.covered()).collect());
    Ok(scan)
}

/// Moves an unloadable part file into `dir/quarantine/`, returning
/// whether the move succeeded. Collisions get a numeric suffix; any
/// filesystem failure leaves the file where it was (the scan already
/// skipped it — quarantine is best-effort evidence preservation, never
/// a new failure mode).
fn quarantine(dir: &Path, path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let pen = dir.join(QUARANTINE_DIR);
    if fs::create_dir_all(&pen).is_err() {
        return false;
    }
    let mut target = pen.join(name);
    let mut suffix = 1u32;
    while target.exists() {
        target = pen.join(format!("{name}.{suffix}"));
        suffix += 1;
        if suffix > 1000 {
            return false;
        }
    }
    fs::rename(path, &target).is_ok()
}

/// Normalises ranges: sorted, disjoint input ranges with adjacent runs
/// coalesced.
fn coalesce(mut ranges: Vec<Range<usize>>) -> Vec<Range<usize>> {
    ranges.sort_by_key(|r| r.start);
    let mut out: Vec<Range<usize>> = Vec::new();
    for r in ranges {
        match out.last_mut() {
            Some(last) if last.end == r.start => last.end = r.end,
            _ => out.push(r),
        }
    }
    out
}

/// The complement of `covered` (normal form, within `0..corpus_jobs`):
/// the job ranges a resumed sweep still owes.
pub fn uncovered(corpus_jobs: usize, covered: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    for r in covered {
        if cursor < r.start {
            out.push(cursor..r.start);
        }
        cursor = cursor.max(r.end);
    }
    if cursor < corpus_jobs {
        out.push(cursor..corpus_jobs);
    }
    out
}

/// Cuts `range` at global multiples of `unit`, so every produced piece
/// has a deterministic name regardless of which worker (or attempt)
/// solves it — the alignment that lets a resumed or reassigned range
/// reuse checkpoints of its predecessor.
pub fn unit_grid(range: Range<usize>, unit: usize) -> Vec<Range<usize>> {
    let unit = unit.max(1);
    let mut out = Vec::new();
    let mut cursor = range.start;
    while cursor < range.end {
        let cut = ((cursor / unit) + 1) * unit;
        let end = cut.min(range.end);
        out.push(cursor..end);
        cursor = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> CorpusSpec {
        CorpusSpec::parse_args(["ring=mis:cycle:12", "@backends=greedy", "@seeds=0..6"]).unwrap()
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let mut m = SweepManifest::new(demo_spec(), 2);
        m.done = vec![0..2, 4..6];
        let mut bytes = Vec::new();
        m.save_to(&mut bytes).unwrap();
        assert_eq!(SweepManifest::load_from(bytes.as_slice()).unwrap(), m);
        for cut in 0..bytes.len() {
            assert!(
                SweepManifest::load_from(&bytes[..cut]).is_err(),
                "manifest prefix of {cut} bytes must not load"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SweepManifest::load_from(padded.as_slice()).is_err());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-range vecs are the fixtures here
    fn manifest_rejects_non_normal_done_ranges() {
        let spec = demo_spec();
        for done in [
            vec![2..2],       // empty
            vec![0..99],      // beyond the corpus
            vec![2..4, 0..2], // unsorted (also touching)
            vec![0..2, 2..4], // touching, not coalesced
            vec![0..3, 2..5], // overlapping
        ] {
            let mut m = SweepManifest::new(spec.clone(), 2);
            m.done = done.clone();
            let mut bytes = Vec::new();
            m.save_to(&mut bytes).unwrap();
            assert!(
                SweepManifest::load_from(bytes.as_slice()).is_err(),
                "{done:?} must be rejected"
            );
        }
    }

    #[test]
    fn part_file_names_round_trip() {
        let r = 7..19;
        assert_eq!(part_file_name(&r), "part-00000007-00000019.bin");
        assert_eq!(parse_part_file_name(&part_file_name(&r)), Some(r));
        for bad in [
            "part-1-2.bin",
            "part-00000007-00000019.tmp",
            ".part-00000007-00000019.bin.tmp",
            "manifest.bin",
            "part-0000000x-00000019.bin",
        ] {
            assert_eq!(parse_part_file_name(bad), None, "{bad}");
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-range slices are the fixtures here
    fn uncovered_is_the_complement() {
        assert_eq!(uncovered(10, &[]), vec![0..10]);
        assert_eq!(uncovered(10, &[0..10]), Vec::<Range<usize>>::new());
        assert_eq!(uncovered(10, &[0..3, 5..7]), vec![3..5, 7..10]);
        assert_eq!(uncovered(10, &[4..6]), vec![0..4, 6..10]);
    }

    #[test]
    fn unit_grid_aligns_to_global_multiples() {
        assert_eq!(unit_grid(0..10, 4), vec![0..4, 4..8, 8..10]);
        // A reassigned tail cuts at the same global boundaries …
        assert_eq!(unit_grid(5..10, 4), vec![5..8, 8..10]);
        // … so its parts dovetail with the crashed worker's.
        assert_eq!(unit_grid(3..4, 4), vec![3..4]);
        assert_eq!(unit_grid(4..4, 4), Vec::<Range<usize>>::new());
        assert_eq!(unit_grid(0..3, 0), vec![0..1, 1..2, 2..3]);
    }
}
