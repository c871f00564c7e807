//! The cross-job preparation cache: one [`SharedSubsetCache`] per
//! instance family.

use dapc_core::engine::SharedSubsetCache;
use dapc_ilp::{IlpInstance, SolverBudget};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Registry gauge for the resident family count, resolved once.
fn metrics_families() -> &'static dapc_obs::Gauge {
    static G: std::sync::OnceLock<dapc_obs::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| dapc_obs::gauge("runtime.prep_cache.families"))
}

/// Hoists the `dapc_core::prep` subset-solve memoisation from per-run to
/// per-instance-family: families are keyed by
/// `(instance fingerprint, budget)`, and every job of one family shares
/// one [`SharedSubsetCache`] behind an `Arc`.
///
/// Cached entries are deterministic functions of their key, so attaching
/// a cache never changes any job's report — only how much exact local
/// computation is repeated. Handles are cheap to clone (shallow); a cache
/// can outlive a single [`crate::solve_many_streaming_with_cache`] call to
/// keep its memo warm across batches of the same family.
///
/// By default families are unbounded; [`PrepCache::with_family_capacity`]
/// puts every family under a byte budget with least-recently-used
/// eviction, so long-running batch services sweeping many large instance
/// families hold their memory flat. Eviction is transparent — a victim is
/// recomputed on its next lookup, never changing a report.
#[derive(Clone, Default)]
pub struct PrepCache {
    families: Arc<Mutex<BTreeMap<(u64, u64), SharedSubsetCache>>>,
    /// Byte budget applied to every family cache (`None` = unbounded).
    family_capacity: Option<usize>,
}

impl PrepCache {
    /// Creates an empty cache with unbounded families.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache whose families each hold at most
    /// ~`capacity` bytes of memoised subset solves, evicting
    /// least-recently-used entries beyond that.
    pub fn with_family_capacity(capacity: usize) -> Self {
        PrepCache {
            families: Arc::default(),
            family_capacity: Some(capacity),
        }
    }

    /// The family cache for `(ilp, budget)`, created on first use.
    pub fn family(&self, ilp: &IlpInstance, budget: &SolverBudget) -> SharedSubsetCache {
        let (family, count) = {
            // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
            let mut families = self.families.lock().expect("prep cache lock");
            let family = families
                .entry((ilp.fingerprint(), budget.node_limit))
                .or_insert_with(|| match self.family_capacity {
                    Some(bytes) => SharedSubsetCache::with_capacity(bytes),
                    None => SharedSubsetCache::new(),
                })
                .clone();
            (family, families.len())
        };
        if dapc_obs::enabled() {
            // With several caches alive the gauge tracks the one most
            // recently touched — good enough for the common one-resident-
            // cache daemon and batch shapes.
            metrics_families().set(count as u64);
        }
        family
    }

    /// Aggregate counters across every family.
    pub fn stats(&self) -> CacheStats {
        // dapc-allow(panic): poisoned only if a sibling worker already panicked; propagate that crash
        let families = self.families.lock().expect("prep cache lock");
        let mut stats = CacheStats {
            families: families.len(),
            ..CacheStats::default()
        };
        for cache in families.values() {
            stats.entries += cache.len();
            stats.bytes += cache.bytes();
            stats.hits += cache.hits();
            stats.misses += cache.misses();
            stats.evictions += cache.evictions();
        }
        stats
    }
}

impl std::fmt::Debug for PrepCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PrepCache").field(&self.stats()).finish()
    }
}

/// Aggregate prep-cache counters, surfaced in
/// [`crate::BatchReport::cache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct `(instance fingerprint, budget)` families.
    pub families: usize,
    /// Memoised subset solves across all families.
    pub entries: usize,
    /// Approximate bytes held across all families.
    pub bytes: usize,
    /// Cross-run lookups answered from a family cache.
    pub hits: u64,
    /// Cross-run lookups that ran the exact solver.
    pub misses: u64,
    /// Entries dropped by the per-family LRU policy (always 0 for
    /// unbounded caches).
    pub evictions: u64,
}

impl CacheStats {
    /// Fieldwise sum with another process's counters, used when merging
    /// [`crate::PartReport`]s: the work counters (`hits`, `misses`,
    /// `evictions`) add exactly; `families`/`entries`/`bytes` become
    /// totals *across per-process caches*, which may double-count a
    /// family two parts both materialised.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.families += other.families;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// `hits / (hits + misses)`, or `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_ilp::problems;

    #[test]
    fn families_split_by_instance_and_budget() {
        let cache = PrepCache::new();
        let a = problems::max_independent_set_unweighted(&gen::cycle(8));
        let b = problems::max_independent_set_unweighted(&gen::cycle(10));
        let default = SolverBudget::default();
        let tight = SolverBudget { node_limit: 10 };
        let fa = cache.family(&a, &default);
        assert_eq!(cache.family(&a, &default), fa, "same family, same cache");
        assert_ne!(cache.family(&b, &default), fa);
        assert_ne!(cache.family(&a, &tight), fa);
        assert_eq!(cache.stats().families, 3);
    }

    #[test]
    fn family_capacity_propagates() {
        let bounded = PrepCache::with_family_capacity(4096);
        let ilp = problems::max_independent_set_unweighted(&gen::cycle(6));
        let family = bounded.family(&ilp, &SolverBudget::default());
        assert_eq!(family.capacity(), Some(4096));
        let unbounded = PrepCache::new();
        assert_eq!(
            unbounded.family(&ilp, &SolverBudget::default()).capacity(),
            None
        );
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let some = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((some.hit_rate() - 0.75).abs() < 1e-12);
    }
}
