//! Guarantees of the range layer underneath `dapc-serve`: any disjoint
//! cover of a corpus by contiguous job ranges — however unevenly
//! crash-driven reassignment carved it, single jobs and empty ranges
//! included — merges back to the whole-corpus aggregation (timings
//! aside), part and aggregator snapshots round-trip byte for byte, and
//! the loaders reject truncated or corrupt input with an `Err`, never a
//! panic.

use dapc_core::engine::SolveConfig;
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many, solve_range_streaming_with_cache, BackendSummary, BatchAggregator, Corpus,
    GroupSummary, PartReport, PrepCache, RuntimeConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
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

fn snapshot(aggregator: &BatchAggregator) -> Vec<u8> {
    let mut bytes = Vec::new();
    aggregator.save_to(&mut bytes).expect("write to a Vec");
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

    /// The orchestrator's core property: a disjoint cover of the corpus
    /// by contiguous ranges, solved independently and merged in a
    /// rotated order, equals the whole-corpus batch, modulo timings.
    /// Three covers per case: an *uneven* one (the shape crashes and
    /// reassignment produce), the finest one (every cell reassembled
    /// purely from single-job fragments), and the uneven one with empty
    /// ranges at both ends and between every two pieces.
    #[test]
    fn range_covers_merge_to_the_whole_corpus_batch(
        instances in 1usize..=3,
        backend_mask in 1usize..8,
        seeds in 1u64..4,
        pieces in 1usize..=5,
        salt in 0u64..1000,
        rotate in 0usize..5,
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
            let n = ranges.len();
            let mut parts = (0..n)
                .map(|i| part(&corpus, ranges[(i + rotate) % n].clone(), &rt));
            let mut merged = parts.next().expect("at least one range");
            for p in parts {
                merged.merge(p);
            }
            prop_assert_eq!(merged.jobs, len);
            prop_assert_eq!(merged.covered(), vec![0..len]);
            // The audited reorder-buffer bound holds inside every range.
            prop_assert!(merged.peak_buffered <= (2 * jobs).max(16));
            let stream = merged.finish();
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
    let salvaged = part(&corpus, 0..4, &rt);
    assert_eq!(salvaged.covered(), vec![0..4]);
    // The coordinator reassigns 4..6 and 6..8 to other workers.
    let mut merged = part(&corpus, 6..8, &rt);
    assert_eq!(merged.covered(), vec![6..8]);
    merged.merge(salvaged);
    assert_eq!(merged.covered(), vec![0..4, 6..8], "gap still open");
    merged.merge(part(&corpus, 4..6, &rt));
    let stream = merged.finish();
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&stream.groups)
    );
}

/// Part and aggregator snapshots are canonical and round-trip byte for
/// byte.
#[test]
fn part_snapshots_round_trip_byte_for_byte() {
    let corpus = small_corpus(2, &["three-phase"], 2);
    let part = part(&corpus, 1..3, &RuntimeConfig::new());
    let mut bytes = Vec::new();
    part.save_to(&mut bytes).expect("write to a Vec");
    let loaded = PartReport::load_from(bytes.as_slice()).expect("read back");
    assert_eq!(loaded.corpus_jobs, part.corpus_jobs);
    assert_eq!(loaded.start, part.start);
    assert_eq!(loaded.jobs, part.jobs);
    assert_eq!(loaded.cache, part.cache);
    assert_eq!(loaded.covered(), part.covered());
    // Wall time is persisted at microsecond precision.
    assert_eq!(loaded.wall.as_micros(), part.wall.as_micros());
    let mut reserialised = Vec::new();
    loaded.save_to(&mut reserialised).expect("write to a Vec");
    assert_eq!(bytes, reserialised, "snapshot is not canonical");

    let agg_bytes = snapshot(&part.aggregator);
    let agg = BatchAggregator::load_from(agg_bytes.as_slice()).expect("read back");
    assert_eq!(agg.jobs(), part.aggregator.jobs());
    assert_eq!(
        agg_bytes,
        snapshot(&agg),
        "aggregator snapshot is not canonical"
    );
}

/// The shipped protocol through bytes: ranges serialised, re-loaded,
/// merged and finished equal the single-process aggregation.
#[test]
fn merged_part_snapshots_equal_single_process_aggregation() {
    let corpus = small_corpus(2, &["greedy", "bnb"], 2); // 8 jobs
    let rt = RuntimeConfig::new();
    let reference = solve_many(&corpus, &rt);
    let mut shipped = Vec::new();
    for range in [0..3, 3..4, 4..8] {
        let mut bytes = Vec::new();
        part(&corpus, range, &rt)
            .save_to(&mut bytes)
            .expect("write to a Vec");
        shipped.push(bytes);
    }
    let mut merged = PartReport::load_from(shipped[2].as_slice()).expect("part 2");
    merged.merge(PartReport::load_from(shipped[0].as_slice()).expect("part 0"));
    merged.merge(PartReport::load_from(shipped[1].as_slice()).expect("part 1"));
    let stream = merged.finish();
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&stream.groups)
    );
    assert_eq!(
        sans_micros_backends(&reference.backends),
        sans_micros_backends(&stream.backends)
    );
}

/// Canonical bytes across histories: an aggregator that pushed a whole
/// run and one merged from range fragments of the *same* results (split
/// mid-cell, so boundary fragments must coalesce) serialise to
/// identical snapshots.
#[test]
fn merged_and_pushed_aggregators_serialise_identically() {
    let corpus = small_corpus(2, &["greedy"], 2); // 4 jobs, 2 cells
    let rt = RuntimeConfig::new().reference_optima(false);
    let results = solve_many(&corpus, &rt).results;

    let mut whole = BatchAggregator::new();
    for r in &results {
        whole.push(r);
    }
    // Split at index 1 — inside the first cell's seed run.
    let mut left = BatchAggregator::new();
    left.push(&results[0]);
    let mut right = BatchAggregator::with_optima_at(BTreeMap::new(), 1);
    for r in &results[1..] {
        right.push(r);
    }
    let mut merged = right;
    merged.merge(left);

    assert_eq!(
        snapshot(&whole),
        snapshot(&merged),
        "the same aggregation must serialise identically, whatever its history"
    );
}

/// A checkpoint of a still-empty range aggregator keeps its canonical
/// start offset: resumed pushes land at the right indices, so the merge
/// with the preceding range neither overlaps nor gaps.
#[test]
fn empty_range_checkpoint_resumes_at_its_offset() {
    let corpus = small_corpus(2, &["greedy"], 2); // 4 jobs
    let rt = RuntimeConfig::new().reference_optima(false);
    let batch = solve_many(&corpus, &rt);

    let fresh = BatchAggregator::with_optima_at(BTreeMap::new(), 2);
    let bytes = snapshot(&fresh);
    let mut resumed = BatchAggregator::load_from(bytes.as_slice()).expect("read back");
    assert_eq!(resumed.jobs(), 0);
    for r in &batch.results[2..] {
        resumed.push(r);
    }
    let mut head = BatchAggregator::new();
    for r in &batch.results[..2] {
        head.push(r);
    }
    resumed.merge(head); // start 0 after a lost offset would overlap here
    let (groups, _) = resumed.finish();
    assert_eq!(groups, batch.groups);
}

/// Loader hardening: truncating a part snapshot at *any* byte is an
/// `Err`, never a panic, and appended garbage and a wrong version byte
/// are rejected.
#[test]
fn truncated_or_padded_part_snapshots_error() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let part = part(&corpus, 0..2, &RuntimeConfig::new());
    let mut bytes = Vec::new();
    part.save_to(&mut bytes).expect("write to a Vec");
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

/// The same hardening for the standalone aggregator loader: truncation
/// at any byte (every field is mandatory, so no strict prefix is a valid
/// stream), a future version byte and appended garbage are all
/// `InvalidData` or `UnexpectedEof`, never a panic or a partial load.
#[test]
fn truncated_padded_or_future_aggregator_snapshots_error() {
    let corpus = small_corpus(2, &["greedy"], 2);
    let bytes = snapshot(&part(&corpus, 1..4, &RuntimeConfig::new()).aggregator);
    for cut in 0..bytes.len() {
        assert!(
            BatchAggregator::load_from(&bytes[..cut]).is_err(),
            "aggregator prefix of {cut} bytes must not load"
        );
    }
    let mut padded = bytes.clone();
    padded.push(0xAA);
    let err = BatchAggregator::load_from(padded.as_slice()).expect_err("must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("trailing"), "{err}");
    let mut wrong_version = bytes;
    wrong_version[7] = 0x7f;
    let err = BatchAggregator::load_from(wrong_version.as_slice()).expect_err("must reject");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version"), "{err}");
}

/// A header whose job count disagrees with the embedded aggregator is
/// corruption, not a trusted field.
#[test]
fn inconsistent_part_header_is_rejected() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let part = part(&corpus, 0..2, &RuntimeConfig::new());
    let mut bytes = Vec::new();
    part.save_to(&mut bytes).expect("write to a Vec");
    // The jobs field is the third u64 after the 8-byte magic.
    bytes[8 + 16..8 + 24].copy_from_slice(&1u64.to_le_bytes());
    let err = PartReport::load_from(bytes.as_slice()).expect_err("must reject");
    assert!(err.to_string().contains("aggregator folded"), "{err}");
}

/// Merging overlapping ranges is caught by the aggregator's span guard.
#[test]
#[should_panic(expected = "overlap")]
fn merging_overlapping_ranges_panics() {
    let corpus = small_corpus(1, &["greedy"], 4);
    let rt = RuntimeConfig::new();
    let mut merged = part(&corpus, 0..3, &rt);
    merged.merge(part(&corpus, 2..4, &rt));
}

/// Parts of different corpora refuse to merge.
#[test]
#[should_panic(expected = "different corpora")]
fn merging_parts_of_different_corpora_panics() {
    let rt = RuntimeConfig::new();
    let mut merged = part(&small_corpus(1, &["greedy"], 2), 0..1, &rt);
    merged.merge(part(&small_corpus(1, &["greedy"], 4), 2..4, &rt));
}

/// Finishing with the last range still owed panics instead of rendering
/// a silently partial table. The merged spans are gap-free, so only the
/// part's coverage check against the corpus size can see the hole.
#[test]
#[should_panic(expected = "a range is missing")]
fn finishing_with_a_missing_range_panics() {
    let corpus = small_corpus(1, &["greedy"], 4);
    let rt = RuntimeConfig::new();
    let mut merged = part(&corpus, 0..1, &rt);
    merged.merge(part(&corpus, 1..3, &rt));
    let _ = merged.finish();
}

/// Ranges beyond the corpus are a caller bug, caught loudly.
#[test]
#[should_panic(expected = "beyond")]
fn out_of_bounds_range_panics() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let _ = corpus.range_jobs(0..corpus.len() + 1);
}
