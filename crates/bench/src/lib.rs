//! # dapc-bench
//!
//! The experiment harness behind the `tables` binary: one function per
//! experiment id, each returning its rendered markdown table(s). E1, E2,
//! E8 and E9 measure the decompositions (Theorem 1.1, the Appendix C
//! failure modes, sparse-cover multiplicities, the §1.6 blackbox); E3–E6
//! and E10 the packing and covering solvers (Theorems 1.2–1.3, the GKM17
//! round comparison, ablations); E7 the Appendix B lower bound.
//! `crates/bench/golden/tables_quick.txt` is what `tables --quick` prints.
//!
//! ```sh
//! cargo run -p dapc-bench --release --bin tables             # all
//! cargo run -p dapc-bench --release --bin tables -- e1 e6    # selected
//! cargo run -p dapc-bench --release --bin tables -- --quick  # reduced trials
//! cargo run -p dapc-bench --release --bin tables -- --jobs 4 # 4 concurrent jobs
//! cargo run -p dapc-bench --release --bin tables -- --prep-workers 4 # shard preps
//! ```
//!
//! The ILP experiments (E3–E6, E10) batch through `dapc-runtime`, so
//! `--jobs N` runs up to `N` of their jobs concurrently (shared prep
//! caching included) and `--prep-workers M` additionally shards each
//! job's preparation step — both on the one process-wide executor, in
//! `--quick` mode and `--full` mode alike. This crate times nothing but
//! its own experiments: the workspace's one timing harness is
//! `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_ilp;
pub mod exp_ldd;
pub mod exp_lower;
pub mod table;

use dapc_runtime::RuntimeConfig;

/// Trial-count profile for the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Reduced trial counts (~seconds per experiment).
    Quick,
    /// Full trial counts (the default of `tables`).
    Full,
}

impl Profile {
    /// Trials for distribution-tail experiments.
    pub fn tail_trials(self) -> usize {
        match self {
            Profile::Quick => 200,
            Profile::Full => 2000,
        }
    }

    /// Trials for quality experiments.
    pub fn quality_trials(self) -> usize {
        match self {
            Profile::Quick => 5,
            Profile::Full => 20,
        }
    }

    /// Seeds for solver experiments.
    pub fn solver_seeds(self) -> u64 {
        match self {
            Profile::Quick => 3,
            Profile::Full => 10,
        }
    }

    /// Trials for the indistinguishability profiling.
    pub fn profile_trials(self) -> usize {
        match self {
            Profile::Quick => 30,
            Profile::Full => 120,
        }
    }
}

/// Runs one experiment by id (`"e1"`…`"e10"`), returning its table(s).
///
/// `rt` drives the experiments that batch through `dapc-runtime` (E3–E6,
/// E10): it caps across-corpus concurrency (`jobs`) and intra-solve prep
/// sharding (`prep_workers`) on the shared executor. The remaining
/// experiments run inline. No `rt` choice changes a rendered table —
/// batching is byte-identical to sequential execution.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_experiment(id: &str, profile: Profile, rt: &RuntimeConfig) -> String {
    match id {
        "e1" => exp_ldd::e1(profile.quality_trials()),
        "e2" => exp_ldd::e2(profile.tail_trials()),
        "e3" => exp_ilp::e3(profile.solver_seeds(), rt),
        "e4" => exp_ilp::e4(profile.solver_seeds(), rt),
        "e5" => exp_ilp::e5(profile.solver_seeds(), rt),
        "e6" => exp_ilp::e6(rt),
        "e7" => {
            let mut s = exp_lower::e7_lps_structure();
            s.push_str(&exp_lower::e7_indistinguishability(
                profile.profile_trials(),
            ));
            s.push_str(&exp_lower::e7_subdivision_tradeoff(
                profile.profile_trials(),
            ));
            s.push_str(&exp_lower::e7_registry_gap(profile.profile_trials()));
            s
        }
        "e8" => exp_ldd::e8(profile.quality_trials()),
        "e9" => exp_ldd::e9(profile.quality_trials()),
        "e10" => exp_ilp::e10(profile.solver_seeds(), rt),
        other => panic!("unknown experiment id {other:?} (expected e1..e10)"),
    }
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 10] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];
