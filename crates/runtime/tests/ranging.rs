//! Guarantees of the range layer underneath `dapc-serve`: any split of
//! a corpus into consecutive job ranges — however unevenly crash-driven
//! reassignment carved it, single jobs and empty ranges included —
//! appends back in canonical order to the whole-corpus aggregation
//! (timings aside), part snapshots round-trip byte for byte, the loader
//! rejects truncated or corrupt input with an `Err`, never a panic, and
//! an append out of canonical order panics.

use dapc_core::engine::SolveConfig;
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many, solve_range_streaming_with_cache, BackendSummary, Corpus, GroupSummary, PartReport,
    PrepCache, RuntimeConfig,
};
use proptest::prelude::*;
use std::ops::Range;

fn small_corpus(instances: usize, backends: &[&str], seeds: u64) -> Corpus {
    let pool = [
        (
            "MIS/cycle12",
            problems::max_independent_set_unweighted(&gen::cycle(12)),
        ),
        (
            "VC/cycle10",
            problems::min_vertex_cover_unweighted(&gen::cycle(10)),
        ),
        (
            "DS/cycle9",
            problems::min_dominating_set_unweighted(&gen::cycle(9)),
        ),
    ];
    let mut b = Corpus::builder()
        .backends(backends.iter().copied())
        .eps(0.3)
        .seeds(0..seeds)
        .base_config(SolveConfig::new().ensemble_runs(2));
    for (name, ilp) in pool.into_iter().take(instances) {
        b = b.instance(name, ilp);
    }
    b.build()
}

/// Solves one range with a fresh cache and no hook.
fn part(corpus: &Corpus, range: Range<usize>, rt: &RuntimeConfig) -> PartReport {
    solve_range_streaming_with_cache(corpus, range, rt, &PrepCache::new(), |_r| {})
}

fn sans_micros_groups(groups: &[GroupSummary]) -> Vec<GroupSummary> {
    groups
        .iter()
        .cloned()
        .map(|mut g| {
            g.micros = 0;
            g
        })
        .collect()
}

fn sans_micros_backends(backends: &[BackendSummary]) -> Vec<BackendSummary> {
    backends
        .iter()
        .cloned()
        .map(|mut b| {
            b.micros = 0;
            b
        })
        .collect()
}

fn snapshot(part: &PartReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    part.save_to(&mut bytes).expect("write to a Vec");
    bytes
}

/// Carves `0..len` into contiguous pieces at pseudo-random cut points
/// derived from `salt`, deterministic per input.
fn carve(len: usize, pieces: usize, salt: u64) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = (1..pieces)
        .map(|i| {
            let h = dapc_ilp::hash::fnv1a_u64(dapc_ilp::hash::FNV_OFFSET, salt ^ i as u64);
            (h as usize) % (len + 1)
        })
        .collect();
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The orchestrator's core property: a split of the corpus into
    /// consecutive ranges, solved independently and appended in
    /// canonical order, equals the whole-corpus batch, modulo timings.
    /// Three splits per case: an *uneven* one (the shape crashes and
    /// reassignment produce), the finest one (every cell reassembled
    /// purely from single-job fragments), and the uneven one with empty
    /// ranges at both ends and between every two pieces.
    #[test]
    fn range_splits_append_to_the_whole_corpus_batch(
        instances in 1usize..=3,
        backend_mask in 1usize..8,
        seeds in 1u64..4,
        pieces in 1usize..=5,
        salt in 0u64..1000,
        jobs in 1usize..3,
    ) {
        let all = ["three-phase", "greedy", "bnb"];
        let backends: Vec<&str> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| backend_mask >> i & 1 == 1)
            .map(|(_, b)| *b)
            .collect();
        let corpus = small_corpus(instances, &backends, seeds);
        let rt = RuntimeConfig::new().jobs(jobs);
        let reference = solve_many(&corpus, &rt);
        let len = corpus.len();
        let uneven = carve(len, pieces, salt);
        let singles: Vec<Range<usize>> = (0..len).map(|i| i..i + 1).collect();
        let with_empties: Vec<Range<usize>> = uneven
            .iter()
            .flat_map(|r| [r.start..r.start, r.clone()])
            .chain(std::iter::once(len..len))
            .collect();
        for ranges in [uneven, singles, with_empties] {
            let mut parts = ranges.into_iter().map(|r| part(&corpus, r, &rt));
            let mut stitched = parts.next().expect("at least one range");
            for p in parts {
                stitched.append(p);
            }
            prop_assert_eq!(stitched.range(), 0..len);
            // The audited reorder-buffer bound holds inside every range.
            prop_assert!(stitched.peak_buffered <= (2 * jobs).max(16));
            let stream = stitched.finish();
            prop_assert_eq!(
                sans_micros_groups(&reference.groups),
                sans_micros_groups(&stream.groups)
            );
            prop_assert_eq!(
                sans_micros_backends(&reference.backends),
                sans_micros_backends(&stream.backends)
            );
        }
    }
}

/// An interrupted range (solved only up to a checkpoint) plus the
/// reassigned remainder reproduce the whole — the salvage path after a
/// worker kill.
#[test]
fn checkpoint_prefix_plus_reassigned_remainder_reproduce_the_whole() {
    let corpus = small_corpus(2, &["greedy", "bnb"], 2); // 8 jobs
    let rt = RuntimeConfig::new();
    let reference = solve_many(&corpus, &rt);
    // Worker owned 0..6, died after checkpointing 0..4.
    let mut stitched = part(&corpus, 0..4, &rt);
    assert_eq!(stitched.range(), 0..4);
    // The coordinator reassigns 4..6 and 6..8 to other workers.
    stitched.append(part(&corpus, 4..6, &rt));
    stitched.append(part(&corpus, 6..8, &rt));
    assert_eq!(stitched.range(), 0..8);
    let stream = stitched.finish();
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&stream.groups)
    );
}

/// Part snapshots are canonical and round-trip byte for byte, an empty
/// part's offset included.
#[test]
fn part_snapshots_round_trip_byte_for_byte() {
    let corpus = small_corpus(2, &["three-phase"], 2);
    for range in [1..3, 2..2] {
        let part = part(&corpus, range.clone(), &RuntimeConfig::new());
        let bytes = snapshot(&part);
        let loaded = PartReport::load_from(bytes.as_slice()).expect("read back");
        assert_eq!(loaded.corpus_jobs, part.corpus_jobs);
        assert_eq!(loaded.range(), range);
        assert_eq!(loaded.cache, part.cache);
        // Wall time is persisted at microsecond precision.
        assert_eq!(loaded.wall.as_micros(), part.wall.as_micros());
        assert_eq!(bytes, snapshot(&loaded), "snapshot is not canonical");
    }
}

/// The shipped protocol through bytes: ranges serialised, re-loaded,
/// appended and finished equal the single-process aggregation.
#[test]
fn appended_part_snapshots_equal_single_process_aggregation() {
    let corpus = small_corpus(2, &["greedy", "bnb"], 2); // 8 jobs
    let rt = RuntimeConfig::new();
    let reference = solve_many(&corpus, &rt);
    let mut shipped = [0..3, 3..4, 4..8].into_iter().map(|range| {
        let bytes = snapshot(&part(&corpus, range, &rt));
        PartReport::load_from(bytes.as_slice()).expect("read back")
    });
    let mut stitched = shipped.next().expect("three parts");
    shipped.for_each(|p| stitched.append(p));
    let stream = stitched.finish();
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&stream.groups)
    );
    assert_eq!(
        sans_micros_backends(&reference.backends),
        sans_micros_backends(&stream.backends)
    );
}

/// Loader hardening: truncating a part snapshot at *any* byte is an
/// `Err`, never a panic, and appended garbage and a wrong version byte
/// are rejected.
#[test]
fn truncated_or_padded_part_snapshots_error() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let bytes = snapshot(&part(&corpus, 0..2, &RuntimeConfig::new()));
    for cut in 0..bytes.len() {
        assert!(
            PartReport::load_from(&bytes[..cut]).is_err(),
            "part-report prefix of {cut} bytes must not load"
        );
    }
    let mut padded = bytes.clone();
    padded.push(0xAA);
    let err = PartReport::load_from(padded.as_slice()).expect_err("must reject");
    assert!(err.to_string().contains("trailing"), "{err}");
    let mut wrong_version = bytes;
    wrong_version[7] = 0x7f;
    let err = PartReport::load_from(wrong_version.as_slice()).expect_err("must reject");
    assert!(err.to_string().contains("version"), "{err}");
}

/// A body whose cells' job counts do not sum to its length is
/// corruption, caught by the field check before the seal is read.
#[test]
fn part_whose_cells_do_not_sum_to_its_length_is_rejected() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let mut bytes = snapshot(&part(&corpus, 0..2, &RuntimeConfig::new()));
    // The aggregation's job count follows the 8-byte magic, four header
    // fields, five cache counters and its start index.
    let at = 8 + 8 * (4 + 5 + 1);
    assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes());
    bytes[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
    let err = PartReport::load_from(bytes.as_slice()).expect_err("must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("cells sum to 2"), "{err}");
}

/// Parts append only in canonical order: a checkpoint appended twice
/// (overlap), a missing middle range (gap) and a reversed pair all panic.
#[test]
fn appending_a_part_that_does_not_start_where_the_receiver_ends_panics() {
    let corpus = small_corpus(1, &["greedy"], 4);
    let rt = RuntimeConfig::new();
    for (first, next) in [(0..3, 2..4), (0..1, 2..4), (2..4, 0..2)] {
        let outcome = std::panic::catch_unwind(|| {
            let mut stitched = part(&corpus, first.clone(), &rt);
            stitched.append(part(&corpus, next.clone(), &rt));
        });
        let payload = outcome.expect_err("an out-of-order append must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            msg.contains("does not start where the receiver ends"),
            "{first:?} then {next:?}: {msg}"
        );
    }
}

/// Parts of different corpora refuse to append.
#[test]
#[should_panic(expected = "different corpora")]
fn appending_parts_of_different_corpora_panics() {
    let rt = RuntimeConfig::new();
    let mut stitched = part(&small_corpus(1, &["greedy"], 2), 0..1, &rt);
    stitched.append(part(&small_corpus(1, &["greedy"], 4), 1..2, &rt));
}

/// Finishing with the last range still owed panics instead of rendering
/// a silently partial table: only the part's coverage check against the
/// corpus size can see the hole.
#[test]
#[should_panic(expected = "a range is missing")]
fn finishing_with_a_missing_range_panics() {
    let corpus = small_corpus(1, &["greedy"], 4);
    let rt = RuntimeConfig::new();
    let mut stitched = part(&corpus, 0..1, &rt);
    stitched.append(part(&corpus, 1..3, &rt));
    let _ = stitched.finish();
}

/// Ranges beyond the corpus are a caller bug, caught loudly.
#[test]
#[should_panic(expected = "beyond")]
fn out_of_bounds_range_panics() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let _ = corpus.range_jobs(0..corpus.len() + 1);
}
