//! The preparation step shared by the packing and covering solvers
//! (§4.1.1 / §5.1.1): `prep_count` independent decompositions of the
//! instance hypergraph whose clusters drive the sampling, each annotated
//! with its local optimum `W(OPT^local_C, C)` and the neighbourhood
//! estimate `W(OPT^local_{S_C}, S_C)`, `S_C = N^{8tR}(C)`.
//!
//! The preparation is the dominant cost of one solve — one exact subset
//! solve per cluster plus one per `S_C` ball — so [`prepare`] splits it
//! into a sequential RNG-driven decomposition pass and a deterministic
//! annotation pass, and (when [`crate::params::PcParams::prep_workers`]
//! exceeds one) shards the distinct exact subset solves of the annotation
//! pass across the process-wide `dapc_exec` executor. A preparation that
//! runs *inside* a batch job submits its shards to the same pool the job
//! runs on — never a child pool — so `jobs × prep_workers` degrades
//! gracefully instead of oversubscribing the machine. The output is
//! byte-identical to sequential execution: subset solves are
//! deterministic functions of their key, the RNG is consumed only by the
//! decomposition pass, and clusters are re-emitted in canonical order.
//!
//! **Per-subset cost.** A subset is a sorted, duplicate-free vertex list.
//! Its key folds the list, and its restriction visits only the
//! constraints incident to it (see [`dapc_ilp::restrict`]), so one solve
//! costs `O(|S| + Σ_{v∈S} deg v)` around the exact search (plus `m/64`
//! bitset words), not `O(n + m)`. Its memo entry keeps one bit per
//! vertex of `S`, and the annotation reads only the entries' values.
//! [`prepare`] labels the primal graph's connected components once per
//! call, in `O(n + m)`, by a level-by-level BFS from each component's
//! smallest vertex `v0`, which gives every vertex's distance `d0(v)` and
//! `ecc(v0)`.
//!
//! **Certificate.** A cluster `C` inside a component `K` has
//! `S_C = N^r(C) = K` as soon as one member `c` has `ecc(c) ≤ r`, since
//! `K = N^r(c) ⊆ N^r(C) ⊆ K`; that `S_C` is `K`'s precomputed sorted list
//! and key. By the triangle inequality `ecc(v) ≤ d(v, s) + ecc(s)` for
//! any BFS source `s` in `K`, so the labelling gives every vertex the
//! upper bound `ub(v) = d0(v) + ecc(v0)` (Takes and Kosters' upper-bound
//! rule), and `radius(K) ≥ ecc(v0)/2`. Per component:
//! - `2·ecc(v0) ≤ r`: every `ub ≤ r`, so every `S_C` is `K`, and no
//!   bound is stored;
//! - `ecc(v0) > 2r`: `radius(K) > r`, so no member qualifies, and no
//!   bound is stored;
//! - otherwise `ub` is kept, and `C` is whole when some member has
//!   `ub ≤ r`. If none has, one full BFS of `K` from the member `L` with
//!   the smallest `ub` (a landmark) gives `ecc(L)` exactly and tightens
//!   every `ub(v)` to `d(v, L) + ecc(L)` where that is smaller. `C` is
//!   certified whole iff `ecc(L) ≤ r`; after the first `ecc(L) > r`, `K`
//!   takes no more landmarks.
//!
//! **Cost.** A landmark that succeeds costs about what the BFS ball it
//! replaces would have cost, since that ball would have reached all of
//! `K`. A component takes at most one landmark that fails, so the
//! certificate adds at most one full BFS per component and call to the
//! labelling's `O(n + m)`. Every `S_C` still uncertified is a BFS on the
//! primal CSR graph into a bitset, truncated at `r` levels and read back
//! in ascending order in `O(|S_C| + n/64)`; a BFS that reaches all of
//! `K` takes `K`'s list and key too, so it folds no key of its own.

use crate::params::PcParams;
use dapc_conc::dist::bernoulli;
use dapc_graph::{Graph, Hypergraph, Vertex};
use dapc_ilp::hash::{fnv1a_128_u32, FNV128_OFFSET};
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::restrict::{self, IdBits, RestrictScratch};
use dapc_ilp::solvers::{self, SolveScratch, SolverBudget};
use rand::rngs::StdRng;
// dapc-allow(hash-iter): digest-keyed lookup caches and dedup sets only; no
// dapc-allow(hash-iter): map is iterated into an output or a persisted byte
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Cached registry handles for the process-wide totals of the cache and
/// of the `S_C` lookups. The per-family breakdown stays on
/// [`SharedSubsetCache`]'s own counters (and `CacheStats` in
/// `dapc-runtime`); the registry carries the unified sums across every
/// family so one snapshot shows cache health without unbounded metric
/// cardinality. Each site gates on [`dapc_obs::enabled`].
mod metrics {
    use dapc_obs::{Counter, Gauge};
    use std::sync::OnceLock;

    /// Lookups answered from any family's shared map.
    pub fn hits() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.subset_cache.hits"))
    }

    /// Lookups that had to run the exact solver.
    pub fn misses() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.subset_cache.misses"))
    }

    /// Approximate bytes resident across all families (tracked as
    /// deltas, so it is exact only for inserts made while enabled).
    pub fn bytes() -> &'static Gauge {
        static G: OnceLock<Gauge> = OnceLock::new();
        G.get_or_init(|| dapc_obs::gauge("core.subset_cache.bytes"))
    }

    /// `S_C` lists built by a truncated BFS ball.
    pub fn sc_balls() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.sc.balls"))
    }

    /// Full landmark BFS runs of the `S_C` certificate.
    pub fn sc_landmarks() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.sc.landmarks"))
    }
}

/// One memoised exact subset solve, in the subset's size: the value, the
/// exact flag, and the solution as a bitset over the positions of the
/// subset's sorted vertex list. Bit `i` stands for the list's `i`-th
/// vertex; a vertex fixed to one reads zero, since it is no variable of
/// the solve.
#[derive(Clone, Debug)]
struct SubsetEntry {
    value: u64,
    exact: bool,
    bits: Box<[u64]>,
}

/// One sharded annotation result: the entry plus whether its own worker
/// ran the solve (drives counter parity with sequential runs).
type ShardSlot = Option<(SubsetEntry, bool)>;

/// The identity of one subset solve: a 128-bit FNV-1a digest of the
/// subset (plus the fixed-variable overlay for covering sub-instances).
///
/// The digest folds the subset's sorted vertex list, so a lookup costs
/// `O(|S|)` and no allocation, and it is stable across runs and
/// platforms. The list fold equals the fold of the earlier `n`-length
/// mask keys, which visited the same vertices in the same ascending
/// order. At 128 bits, a collision within one
/// `(instance, budget)` family is out of reach for any realisable
/// workload.
pub type SubsetKey = u128;

/// Folds a sorted, duplicate-free vertex list (and optional fixed-ones
/// overlay, read only at the listed vertices) into its [`SubsetKey`]. The
/// separator distinguishes "no overlay" from "empty overlay", mirroring
/// the restriction functions' semantics.
fn subset_key(vars: &[Vertex], fixed_ones: Option<&[bool]>) -> SubsetKey {
    let mut h = FNV128_OFFSET;
    for &v in vars {
        h = fnv1a_128_u32(h, v);
    }
    if let Some(f) = fixed_ones {
        h = fnv1a_128_u32(h, u32::MAX); // separator
        for &v in vars.iter().filter(|&&v| f[v as usize]) {
            h = fnv1a_128_u32(h, v);
        }
    }
    h
}

/// Number of independently locked shards of a [`SharedSubsetCache`].
/// Subset keys spread uniformly (they are FNV digests), so with 16
/// stripes the per-lookup lock is contended only 1/16th as often as the
/// former single global mutex when many workers share one family.
const STRIPE_COUNT: usize = 16;

/// A shareable memo of exact subset solves for one `(instance, budget)`
/// family.
///
/// Every entry is a deterministic function of the subset key alone (the
/// exact solvers draw no randomness), so sharing a cache across runs,
/// seeds, `ε` values and threads never changes any solver's output — it
/// only skips recomputation. This is the hook `dapc-runtime` uses to hoist
/// the [`SubsetSolver`] memoisation from per-run to per-instance-family,
/// and the hook [`prepare`] uses to shard one large instance's subset
/// solves across workers.
///
/// Internally the map is split into `STRIPE_COUNT` (16) independently
/// locked stripes selected by key bits. Entries are never evicted: a family
/// cache holds every distinct subset solve it has seen. An entry is sized
/// by its subset `S`, not by the instance: the value, the exact flag and
/// one bit per vertex of `S` (see [`SharedSubsetCache::bytes`]).
///
/// Solves are single-flight: the first thread to miss a key claims it
/// when its solve starts, and later lookups of that key, from any job or
/// worker, wait for the entry instead of solving it again. So a family
/// runs each distinct solve once, and its hit and miss counts are the
/// same at every job and worker count. A claim is held only across one
/// exact solve, which takes no lock and waits on nothing, so a waiter
/// always wakes; a claimant that panics releases the key, and one of its
/// waiters claims it in turn.
///
/// Cloning is shallow: clones address the same underlying map and
/// counters. Equality is identity (two handles are equal iff they share
/// storage), which keeps `SolveConfig: PartialEq` meaningful.
#[derive(Clone, Default)]
pub struct SharedSubsetCache {
    inner: Arc<CacheInner>,
}

#[derive(Default)]
struct CacheInner {
    stripes: [Stripe; STRIPE_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One independently locked shard of the map, with the condvar its
/// claim waiters sleep on.
#[derive(Default)]
struct Stripe {
    state: Mutex<StripeState>,
    /// Signalled whenever a claim on this stripe is released.
    released: Condvar,
}

#[derive(Default)]
struct StripeState {
    // dapc-allow(hash-iter): hot digest-keyed lookups, never iterated
    map: HashMap<SubsetKey, SubsetEntry>,
    /// Keys whose solve is running on some thread.
    // dapc-allow(hash-iter): membership tests only, never iterated
    claimed: HashSet<SubsetKey>,
    /// Approximate bytes held by this stripe's entries.
    bytes: usize,
}

/// What [`SharedSubsetCache::lookup`] found.
enum Lookup<'c> {
    /// The memoised entry.
    Hit(SubsetEntry),
    /// No entry yet: the caller runs the solve and fills the claim.
    Claimed(Claim<'c>),
}

/// The right to solve one key of a [`SharedSubsetCache`]. Dropping it,
/// filled or not, releases the key and wakes its waiters.
struct Claim<'c> {
    cache: &'c SharedSubsetCache,
    key: SubsetKey,
}

impl Claim<'_> {
    /// Deposits the solved entry; the drop that follows wakes the waiters,
    /// which then find it. Only a claim inserts its key, so the entry is
    /// new to the map.
    fn fill(self, entry: SubsetEntry) {
        let added = entry_bytes(&entry);
        {
            let mut state = self
                .cache
                .stripe(self.key)
                .state
                .lock()
                .expect("cache stripe lock");
            let old = state.map.insert(self.key, entry);
            debug_assert!(old.is_none(), "a claimed key was already filled");
            state.bytes += added;
        }
        if dapc_obs::enabled() {
            metrics::bytes().add(added as u64);
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let stripe = self.cache.stripe(self.key);
        // Also runs while a claimant unwinds; no stripe lock is held across
        // a solve, so a poisoned lock still guards a consistent state.
        stripe
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .claimed
            .remove(&self.key);
        stripe.released.notify_all();
    }
}

/// Approximate footprint of one memoised entry: its bitset, `⌈|S|/64⌉`
/// words, plus the key and the entry as the map stores them. It grows
/// with the subset, never with the instance.
fn entry_bytes(entry: &SubsetEntry) -> usize {
    std::mem::size_of_val(&*entry.bits)
        + std::mem::size_of::<SubsetKey>()
        + std::mem::size_of::<SubsetEntry>()
}

impl SharedSubsetCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from the shared map (across all attached solvers).
    pub fn hits(&self) -> u64 {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the exact solver.
    pub fn misses(&self) -> u64 {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Number of memoised subset solves.
    pub fn len(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.state.lock().expect("cache stripe lock").map.len())
            .sum()
    }

    /// Approximate bytes held across all stripes: per entry, one bit per
    /// vertex of its subset, in whole words, plus its key and fixed
    /// fields (see `entry_bytes`).
    pub fn bytes(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.state.lock().expect("cache stripe lock").bytes)
            .sum()
    }

    /// Whether no subset solve has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn stripe(&self, key: SubsetKey) -> &Stripe {
        &self.inner.stripes[(key as usize) & (STRIPE_COUNT - 1)]
    }

    /// The entry of `key`, or the claim on its solve. While another thread
    /// holds that claim this waits, until the entry arrives or the claim
    /// is released unfilled and this thread claims the key itself. A hit
    /// is one lookup and one clone under the stripe lock. Counts nothing:
    /// the caller records one hit or miss per lookup.
    fn lookup(&self, key: SubsetKey) -> Lookup<'_> {
        let stripe = self.stripe(key);
        let mut state = stripe.state.lock().expect("cache stripe lock");
        loop {
            if let Some(entry) = state.map.get(&key) {
                return Lookup::Hit(entry.clone());
            }
            if state.claimed.insert(key) {
                return Lookup::Claimed(Claim { cache: self, key });
            }
            state = stripe.released.wait(state).expect("cache stripe lock");
        }
    }

    /// Counts one lookup answered from the cache.
    fn record_hit(&self) {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
        if dapc_obs::enabled() {
            metrics::hits().inc();
        }
    }

    /// Counts one lookup that had to run the exact solver.
    fn record_miss(&self) {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        if dapc_obs::enabled() {
            metrics::misses().inc();
        }
    }
}

impl PartialEq for SharedSubsetCache {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for SharedSubsetCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSubsetCache")
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// One sampling cluster from the preparation step.
#[derive(Clone, Debug)]
pub struct PrepCluster {
    /// Members (sorted).
    pub members: Vec<Vertex>,
    /// `W(OPT^local_C, C)`.
    pub w_local: u64,
    /// `W(OPT^local_{S_C}, S_C)` with `S_C = N^{8tR}(C)`.
    pub w_neighborhood: u64,
}

/// The full preparation output.
#[derive(Clone, Debug)]
pub struct Preparation {
    /// All clusters across the independent runs.
    pub clusters: Vec<PrepCluster>,
    /// Whether every local solve proved optimality.
    pub all_exact: bool,
}

impl Preparation {
    /// The centres of carving iteration `i`: every cluster that keeps an
    /// alive member joins with [`PcParams::sampling_probability`], one
    /// Bernoulli draw per such cluster, in cluster order.
    pub(crate) fn draw_centers(
        &self,
        params: &PcParams,
        i: usize,
        alive: &[bool],
        rng: &mut StdRng,
    ) -> Vec<&PrepCluster> {
        let mut centers = Vec::new();
        for c in &self.clusters {
            if !c.members.iter().any(|&v| alive[v as usize]) {
                continue; // cluster fully removed/deleted
            }
            let p = params.sampling_probability(i, c.w_local, c.w_neighborhood);
            if bernoulli(rng, p) {
                centers.push(c);
            }
        }
        centers
    }
}

/// A memoising exact solver over vertex subsets of one instance — many
/// clusters share their `S_C` (often the whole component), so the paper's
/// "free local computation" stays affordable in simulation.
///
/// Subsets are sorted, duplicate-free vertex lists ([`SubsetSolver::solve`]);
/// [`SubsetSolver::solve_mask`] lists a mask first. Everything a solve
/// keeps is sized by its subset `S`: the memo entry (value, exact flag,
/// one bit per vertex of `S`), the restriction and the search. Only the
/// global view that [`SubsetSolver::solve`] hands out is `n` long, and it
/// is one buffer per solver, rewritten in `O(|S|)` by each call.
pub struct SubsetSolver<'a> {
    ilp: &'a IlpInstance,
    budget: SolverBudget,
    // dapc-allow(hash-iter): hot digest-keyed memo, lookup-only — never iterated
    cache: HashMap<SubsetKey, SubsetEntry>,
    shared: Option<SharedSubsetCache>,
    /// Restriction buffers shared by every solve of this solver.
    scratch: RestrictScratch,
    /// Exact-solve buffers shared by every solve of this solver.
    solve_scratch: SolveScratch,
    /// The global view of the last solution handed out.
    lift: Lift,
    /// Whether every solve so far was exact.
    pub all_exact: bool,
}

/// An `n`-length assignment that holds one subset solution at a time:
/// true exactly at its vertices, every one of them recorded in `set`, so
/// the next lift clears it in the solution's size rather than `O(n)`.
#[derive(Default)]
struct Lift {
    global: Vec<bool>,
    set: Vec<Vertex>,
}

impl Lift {
    /// Replaces the held solution with `entry`'s, on the subset `vars`,
    /// in `O(|S|/64)` plus the two solutions' sizes.
    fn write(&mut self, n: usize, vars: &[Vertex], entry: &SubsetEntry) -> &[bool] {
        if self.global.len() != n {
            self.global = vec![false; n];
            self.set.clear();
        }
        for v in self.set.drain(..) {
            self.global[v as usize] = false;
        }
        for (wi, &word) in entry.bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let v = vars[wi * 64 + word.trailing_zeros() as usize];
                word &= word - 1;
                self.global[v as usize] = true;
                self.set.push(v);
            }
        }
        &self.global
    }
}

impl<'a> SubsetSolver<'a> {
    /// Creates a solver for `ilp` with the given budget.
    pub fn new(ilp: &'a IlpInstance, budget: SolverBudget) -> Self {
        SubsetSolver {
            ilp,
            budget,
            // dapc-allow(hash-iter): lookup-only memo (see field)
            cache: HashMap::new(),
            shared: None,
            scratch: RestrictScratch::new(),
            solve_scratch: SolveScratch::new(),
            lift: Lift::default(),
            all_exact: true,
        }
    }

    /// Like [`SubsetSolver::new`], but consulting `shared`, when given,
    /// behind the per-run memo. The shared cache must belong to the same
    /// `(instance, budget)` family; results are identical with or without
    /// it (subset solves are deterministic), only the work is shared.
    pub fn with_shared(
        ilp: &'a IlpInstance,
        budget: SolverBudget,
        shared: Option<&SharedSubsetCache>,
    ) -> Self {
        SubsetSolver {
            shared: shared.cloned(),
            ..Self::new(ilp, budget)
        }
    }

    /// Seeds the per-run memo with an already-computed entry (the sharded
    /// annotation pass hands worker results over with this), feeding
    /// `all_exact` exactly as a first compute would.
    fn preload(&mut self, key: SubsetKey, entry: SubsetEntry) {
        if !entry.exact {
            self.all_exact = false;
        }
        self.cache.insert(key, entry);
    }

    /// Value of a solve this run already looked up or preloaded — the
    /// annotation pass reads repeated and sharded weights with this
    /// instead of rebuilding lists and keys.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never preloaded or solved in this run.
    fn memo_value(&self, key: SubsetKey) -> u64 {
        self.cache
            .get(&key)
            .expect("annotation looked up every cluster key before")
            .value
    }

    /// Optimal local value, assignment and exact flag on the subset
    /// `vars` (sorted, duplicate-free). For packing this is `P^local` (all
    /// constraints, zeros outside); for covering `Q^local` (inside
    /// constraints only), honouring `fixed_ones` at zero cost, so a fixed
    /// vertex reads false.
    ///
    /// The assignment is global (`n` long, false outside `vars`) and
    /// lives in the solver's one lift buffer, which the next call rewrites
    /// in `O(|S|)`; neither a memo hit nor a miss allocates or copies
    /// anything `n` long.
    pub fn solve(&mut self, vars: &[Vertex], fixed_ones: Option<&[bool]>) -> (u64, &[bool], bool) {
        let key = subset_key(vars, fixed_ones);
        self.entry(key, vars, fixed_ones);
        let entry = &self.cache[&key];
        let global = self.lift.write(self.ilp.n(), vars, entry);
        (entry.value, global, entry.exact)
    }

    /// Solves every part exactly and ORs each optimum into `assignment`:
    /// the last step of every carving solver, whose parts are regions the
    /// carves detached from one another.
    pub(crate) fn solve_into<'p>(
        &mut self,
        parts: impl IntoIterator<Item = &'p [Vertex]>,
        fixed_ones: Option<&[bool]>,
        assignment: &mut [bool],
    ) {
        for part in parts {
            let (_, local, _) = self.solve(part, fixed_ones);
            for &v in part {
                assignment[v as usize] |= local[v as usize];
            }
        }
    }

    /// [`SubsetSolver::solve`] on a membership mask, listed in `O(n)`,
    /// with an owned copy of the global assignment.
    ///
    /// # Panics
    ///
    /// Panics if the mask's length is not the instance's `n`.
    pub fn solve_mask(
        &mut self,
        mask: &[bool],
        fixed_ones: Option<&[bool]>,
    ) -> (u64, Vec<bool>, bool) {
        assert_eq!(mask.len(), self.ilp.n(), "subset mask length mismatch");
        let (value, global, exact) = self.solve(&restrict::list_of(mask), fixed_ones);
        (value, global.to_vec(), exact)
    }

    /// Optimal local value on `vars`, whose key the caller already holds.
    /// Reads the memo only: nothing is lifted.
    fn value(&mut self, key: SubsetKey, vars: &[Vertex]) -> u64 {
        self.entry(key, vars, None).value
    }

    /// The memoised entry of `key`: the per-run memo, else the family
    /// cache (waiting while another thread solves `key`), else a fresh
    /// solve of `vars` deposited in both.
    fn entry(
        &mut self,
        key: SubsetKey,
        vars: &[Vertex],
        fixed_ones: Option<&[bool]>,
    ) -> &SubsetEntry {
        let SubsetSolver {
            ilp,
            budget,
            cache,
            shared,
            scratch,
            solve_scratch,
            all_exact,
            ..
        } = self;
        cache.entry(key).or_insert_with(|| {
            // Per-run miss: try the cross-run family cache before solving.
            // Shared hits must still feed `all_exact` — the inexact miss
            // that populated the entry may have happened in a different run.
            let entry = match shared.as_ref().map(|s| (s, s.lookup(key))) {
                None => solve_subset(ilp, budget, vars, fixed_ones, scratch, solve_scratch),
                Some((shared, Lookup::Hit(hit))) => {
                    shared.record_hit();
                    hit
                }
                Some((shared, Lookup::Claimed(claim))) => {
                    shared.record_miss();
                    let out = solve_subset(ilp, budget, vars, fixed_ones, scratch, solve_scratch);
                    claim.fill(out.clone());
                    out
                }
            };
            *all_exact &= entry.exact;
            entry
        })
    }
}

/// The memo-free core of one exact subset solve: restrict into the
/// restriction scratch, solve into the solve scratch, and pack the
/// solution into a bitset over the positions of `vars`. A pure function
/// of its arguments (the exact solvers draw no randomness; the scratches
/// only lend buffers), costing `O(|S|)` around the restriction and the
/// search. With both scratches warm, a path or cycle solve allocates
/// only the entry's bitset. Both the memoising [`SubsetSolver`] and the
/// sharded annotation workers bottom out here.
fn solve_subset(
    ilp: &IlpInstance,
    budget: &SolverBudget,
    vars: &[Vertex],
    fixed_ones: Option<&[bool]>,
    scratch: &mut RestrictScratch,
    solve_scratch: &mut SolveScratch,
) -> SubsetEntry {
    // Every memoising caller bottoms out here, so this one span covers
    // exact subset solves wherever they run. On a sharded annotation
    // worker the thread's span stack is empty and the cost records as a
    // root `span.subset_solve`; sequentially it nests under the solve.
    let _span = dapc_obs::span("subset_solve");
    let sub = match ilp.sense() {
        Sense::Packing => restrict::packing_restriction_list(ilp, vars, scratch),
        Sense::Covering => restrict::covering_restriction_list(ilp, vars, fixed_ones, scratch),
    };
    let sol = solvers::solve_with(sub, budget, solve_scratch);
    // The sub-instance's variables are `vars` without the fixed ones, in
    // order, so one merge walk finds each one's position in `vars`.
    let mut bits = vec![0u64; vars.len().div_ceil(64)].into_boxed_slice();
    let mut local = sub.vars.iter().zip(&sol.assignment).peekable();
    for (i, &v) in vars.iter().enumerate() {
        if let Some((_, &x)) = local.next_if(|&(&u, _)| u == v) {
            bits[i / 64] |= u64::from(x) << (i % 64);
        }
    }
    SubsetEntry {
        value: sol.value,
        exact: sol.exact,
        bits,
    }
}

/// Vertices bucketed by a dense label in one `O(n + k)` pass, each bucket
/// ascending: bucket `b` is `vertices[starts[b]..starts[b + 1]]`.
pub(crate) struct Buckets {
    starts: Vec<usize>,
    vertices: Vec<Vertex>,
}

impl Buckets {
    /// Buckets every vertex `v` by `label[v] < k`; a `u32::MAX` label
    /// leaves `v` out (the convention of the component labellings).
    pub(crate) fn by_label(label: &[u32], k: usize) -> Self {
        let mut starts = vec![0usize; k + 1];
        for &l in label.iter().filter(|&&l| l != u32::MAX) {
            starts[l as usize + 1] += 1;
        }
        for b in 0..k {
            starts[b + 1] += starts[b];
        }
        let mut next = starts.clone();
        let mut vertices = vec![0; starts[k]];
        for (v, &l) in label.iter().enumerate().filter(|&(_, &l)| l != u32::MAX) {
            vertices[next[l as usize]] = v as Vertex;
            next[l as usize] += 1;
        }
        Buckets { starts, vertices }
    }

    /// Bucket `b`'s vertices, ascending.
    pub(crate) fn get(&self, b: usize) -> &[Vertex] {
        &self.vertices[self.starts[b]..self.starts[b + 1]]
    }

    /// Every bucket in label order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Vertex]> + '_ {
        (0..self.starts.len() - 1).map(|b| self.get(b))
    }
}

/// How one component's `S_C` lookups are certified (see the module docs).
#[derive(Clone, Copy)]
enum Cert {
    /// `2·ecc(v0) ≤ r`: every `S_C` is the whole component.
    Whole,
    /// `ScBalls::ub` bounds the members' eccentricities; `landmarks` is
    /// false once a landmark has failed.
    Bounded { landmarks: bool },
    /// `ecc(v0) > 2r`: the component's radius exceeds `r`.
    Never,
}

/// The `S_C = N^r(C)` lookups of one [`prepare`] call: each `S_C` as a
/// sorted vertex list with its key (see the module docs for the
/// certificate that skips most BFS runs).
struct ScBalls<'g> {
    primal: &'g Graph,
    radius: usize,
    /// Component id of every vertex.
    component: Vec<u32>,
    /// Every component's vertices.
    components: Buckets,
    /// Every component's certificate.
    certs: Vec<Cert>,
    /// An upper bound on every vertex's eccentricity, valid in the
    /// [`Cert::Bounded`] components; empty while there is none.
    ub: Vec<u32>,
    /// Each component's key, folded on first use.
    keys: Vec<Option<SubsetKey>>,
    /// `S_C`'s key by `C`'s key, for every cluster seen so far.
    // dapc-allow(hash-iter): digest-keyed lookups only — never iterated
    seen: HashMap<SubsetKey, SubsetKey>,
    bits: IdBits,
    /// The last BFS's vertices in BFS order.
    queue: Vec<Vertex>,
    /// Where each level of the last BFS starts in `queue`, then its end.
    levels: Vec<usize>,
    /// The last bitset BFS's vertices, ascending.
    ball: Vec<Vertex>,
}

impl<'g> ScBalls<'g> {
    /// Labels `primal`'s components and certifies them, in `O(n + m)`.
    fn new(primal: &'g Graph, radius: usize) -> Self {
        let n = primal.n();
        let mut component = vec![u32::MAX; n];
        let (mut certs, mut ub) = (Vec::new(), Vec::new());
        let (mut queue, mut levels) = (Vec::new(), Vec::new());
        for v0 in 0..n as Vertex {
            if component[v0 as usize] != u32::MAX {
                continue;
            }
            let c = certs.len() as u32;
            let ecc = bfs(primal, &[v0], usize::MAX, &mut queue, &mut levels, |w| {
                let new = component[w as usize] == u32::MAX;
                if new {
                    component[w as usize] = c;
                }
                new
            });
            certs.push(if 2 * ecc <= radius {
                Cert::Whole
            } else if ecc > radius.saturating_mul(2) {
                Cert::Never
            } else {
                if ub.is_empty() {
                    ub = vec![u32::MAX; n];
                }
                tighten(&mut ub, &queue, &levels, ecc);
                Cert::Bounded { landmarks: true }
            });
        }
        let components = Buckets::by_label(&component, certs.len());
        ScBalls {
            primal,
            radius,
            component,
            components,
            keys: vec![None; certs.len()],
            certs,
            ub,
            // dapc-allow(hash-iter): lookup-only map (see field)
            seen: HashMap::new(),
            bits: IdBits::default(),
            queue,
            levels,
            ball: Vec::new(),
        }
    }

    /// `S_C`'s key for the cluster `members` (sorted, non-empty) with key
    /// `members_key`, and its sorted list — unless a cluster with the same
    /// members asked before, whose `S_C` the caller already looked up.
    fn get(
        &mut self,
        members_key: SubsetKey,
        members: &[Vertex],
    ) -> (SubsetKey, Option<&[Vertex]>) {
        if let Some(&key) = self.seen.get(&members_key) {
            return (key, None);
        }
        let c = self.component[members[0] as usize] as usize;
        let inside = members
            .iter()
            .all(|&v| self.component[v as usize] as usize == c);
        // `S_C` is C's whole component when the certificate says so, or
        // when the BFS reached all of it; either way its list and key are
        // the component's.
        let mut whole = inside && self.certified(c, members);
        if !whole {
            #[cfg(test)]
            probe::count(probe::Route::Ball);
            if dapc_obs::enabled() {
                metrics::sc_balls().inc();
            }
            self.ball_bfs(members, self.radius);
            whole = inside && self.ball.len() == self.components.get(c).len();
        }
        let key = if whole {
            *self.keys[c].get_or_insert_with(|| subset_key(self.components.get(c), None))
        } else {
            subset_key(&self.ball, None)
        };
        self.seen.insert(members_key, key);
        let list = if whole {
            self.components.get(c)
        } else {
            &self.ball
        };
        (key, Some(list))
    }

    /// Whether some member of the cluster `members`, all in component
    /// `c`, provably has eccentricity at most `r`, by the component's
    /// certificate, a bound or a landmark BFS.
    fn certified(&mut self, c: usize, members: &[Vertex]) -> bool {
        let landmarks = match self.certs[c] {
            Cert::Whole => {
                #[cfg(test)]
                probe::count(probe::Route::Whole);
                return true;
            }
            Cert::Never => return false,
            Cert::Bounded { landmarks } => landmarks,
        };
        // The members ascend, so a tie goes to the smallest id.
        let best = *members
            .iter()
            .min_by_key(|&&v| self.ub[v as usize])
            .expect("clusters are non-empty");
        if self.ub[best as usize] as usize <= self.radius {
            #[cfg(test)]
            probe::count(probe::Route::Bound);
            return true;
        }
        if !landmarks {
            return false;
        }
        if dapc_obs::enabled() {
            metrics::sc_landmarks().inc();
        }
        let ecc = self.ball_bfs(&[best], usize::MAX);
        tighten(&mut self.ub, &self.queue, &self.levels, ecc);
        let hit = ecc <= self.radius;
        #[cfg(test)]
        probe::count(if hit {
            probe::Route::Landmark
        } else {
            probe::Route::FailedLandmark
        });
        self.certs[c] = Cert::Bounded { landmarks: hit };
        hit
    }

    /// [`bfs`] from `sources` through [`ScBalls::bits`], leaving what it
    /// reached, ascending, in [`ScBalls::ball`] and `bits` empty.
    fn ball_bfs(&mut self, sources: &[Vertex], limit: usize) -> usize {
        let bits = &mut self.bits;
        let depth = bfs(
            self.primal,
            sources,
            limit,
            &mut self.queue,
            &mut self.levels,
            |w| bits.insert(w),
        );
        self.ball.clear();
        self.bits.drain_into(&mut self.ball);
        depth
    }
}

/// A BFS on `g` from `sources` that stops after `limit` levels or at the
/// first empty one; `visit(v)` marks `v` and says whether it was new.
/// Leaves the vertices reached in `queue` in BFS order, and where each
/// level starts in `levels`, then the end. Returns the last level's
/// distance: the sources' eccentricity when the BFS ran out.
fn bfs(
    g: &Graph,
    sources: &[Vertex],
    limit: usize,
    queue: &mut Vec<Vertex>,
    levels: &mut Vec<usize>,
    mut visit: impl FnMut(Vertex) -> bool,
) -> usize {
    queue.clear();
    queue.extend(sources.iter().copied().filter(|&s| visit(s)));
    levels.clear();
    levels.push(0);
    let mut start = 0;
    for _ in 0..limit {
        let end = queue.len();
        for i in start..end {
            for &w in g.neighbors(queue[i]) {
                if visit(w) {
                    queue.push(w);
                }
            }
        }
        if queue.len() == end {
            break;
        }
        levels.push(end);
        start = end;
    }
    levels.push(queue.len());
    levels.len() - 2
}

/// Lowers `ub(v)` to `d(v) + ecc` for every vertex of the BFS that left
/// `queue` and `levels`, `ecc` being its source's eccentricity.
fn tighten(ub: &mut [u32], queue: &[Vertex], levels: &[usize], ecc: usize) {
    for (d, level) in levels.windows(2).enumerate() {
        let bound = (d + ecc) as u32;
        for &v in &queue[level[0]..level[1]] {
            ub[v as usize] = ub[v as usize].min(bound);
        }
    }
}

/// Counts how [`prepare`] answers its `S_C` lookups on this thread, for
/// the tests that pin the certificate's reach.
#[cfg(test)]
mod probe {
    use std::cell::Cell;

    /// The ways a lookup of a new cluster can go; a failed landmark is
    /// followed by a ball.
    pub(super) enum Route {
        Whole,
        Bound,
        Landmark,
        FailedLandmark,
        Ball,
    }

    /// How many lookups went each way.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub(super) struct Routes {
        pub whole: u64,
        pub bound: u64,
        pub landmark: u64,
        pub failed_landmark: u64,
        pub ball: u64,
    }

    impl Routes {
        /// Every landmark BFS, successful or not.
        pub fn landmarks(&self) -> u64 {
            self.landmark + self.failed_landmark
        }
    }

    thread_local! {
        static ROUTES: Cell<Routes> = Cell::default();
    }

    pub(super) fn count(route: Route) {
        let mut routes = ROUTES.get();
        *match route {
            Route::Whole => &mut routes.whole,
            Route::Bound => &mut routes.bound,
            Route::Landmark => &mut routes.landmark,
            Route::FailedLandmark => &mut routes.failed_landmark,
            Route::Ball => &mut routes.ball,
        } += 1;
        ROUTES.set(routes);
    }

    /// Runs `f` and returns its result with the routes its lookups took.
    pub(super) fn run<T>(f: impl FnOnce() -> T) -> (T, Routes) {
        ROUTES.set(Routes::default());
        let out = f();
        (out, ROUTES.get())
    }
}

/// Runs the preparation step: `prep_count` independent decompositions
/// (Elkin–Neiman at `prep_lambda` for packing; sparse cover at
/// `prep_lambda` for covering), annotating every cluster with its sampling
/// weights.
///
/// The step runs in two passes. Pass 1 consumes the RNG: it runs the
/// decompositions sequentially and records the non-empty clusters in
/// canonical order (run by run, cluster by cluster). Pass 2 is RNG-free:
/// it annotates every cluster with its two exact subset solves, on `C`
/// and on `S_C = N^{8tR}(C)`, whose lists come from one component
/// labelling per call (see the module docs). With
/// `params.prep_workers > 1` the *distinct* subset solves of pass 2 —
/// exactly the set the sequential memo would compute — are fanned out
/// over the ambient `dapc_exec` pool (at most `prep_workers` at a time)
/// through the solver's family cache, then the clusters are re-emitted
/// in canonical order from cache hits. Either
/// way the output is byte-identical: solves are deterministic functions
/// of their key, and the worker count changes only wall-clock time.
pub fn prepare(
    ilp: &IlpInstance,
    h: &Hypergraph,
    primal: &Graph,
    params: &PcParams,
    rng: &mut StdRng,
    solver: &mut SubsetSolver<'_>,
) -> Preparation {
    // Pass 1 (sequential, RNG-driven): decompositions → canonical
    // clusters.
    let decompose_span = dapc_obs::span("decompose");
    let mut members_list: Vec<Vec<Vertex>> = Vec::new();
    for _run in 0..params.prep_count {
        let run_clusters: Vec<Vec<Vertex>> = match ilp.sense() {
            Sense::Packing => {
                let en = dapc_decomp::elkin_neiman::elkin_neiman(
                    primal,
                    &dapc_decomp::elkin_neiman::EnParams::new(params.prep_lambda, params.n_tilde),
                    rng,
                    None,
                );
                en.clusters
            }
            Sense::Covering => {
                let cover = dapc_decomp::sparse_cover::sparse_cover(
                    h,
                    params.prep_lambda,
                    params.n_tilde,
                    rng,
                    None,
                    None,
                );
                cover.clusters
            }
        };
        members_list.extend(run_clusters.into_iter().filter(|m| !m.is_empty()));
    }

    drop(decompose_span);

    // Pass 2 (deterministic): annotate. Sharded, the fan-out seeds the
    // solver's memo and hands back each cluster's two subset keys, so the
    // canonical re-emit is pure memo reads — no ball is recomputed.
    // Sequential, the annotation streams: each BFS-built `S_C` is
    // extracted, solved and overwritten by the next, so peak memory stays
    // one ball.
    let _annotate_span = dapc_obs::span("annotate");
    let mut balls = ScBalls::new(primal, params.sc_radius);
    let mut clusters: Vec<PrepCluster> = Vec::with_capacity(members_list.len());
    if params.prep_workers > 1 {
        let cluster_keys = shard_subset_solves(ilp, params, solver, &members_list, &mut balls);
        for (members, (local_key, sc_key)) in members_list.into_iter().zip(cluster_keys) {
            clusters.push(PrepCluster {
                members,
                w_local: solver.memo_value(local_key),
                w_neighborhood: solver.memo_value(sc_key),
            });
        }
    } else {
        for members in members_list {
            let local_key = subset_key(&members, None);
            let w_local = solver.value(local_key, &members);
            let w_neighborhood = match balls.get(local_key, &members) {
                (sc_key, Some(sc)) => solver.value(sc_key, sc),
                (sc_key, None) => solver.memo_value(sc_key),
            };
            clusters.push(PrepCluster {
                members,
                w_local,
                w_neighborhood,
            });
        }
    }
    Preparation {
        clusters,
        all_exact: solver.all_exact,
    }
}

/// Fans the distinct subset solves of the annotation pass out over the
/// process-wide executor, seeds the solver's per-run memo with the results
/// (exactness flags feeding `all_exact` exactly as a sequential first
/// compute would), and returns each cluster's `(local, S_C)` key pair so
/// the caller's canonical re-emit is pure memo reads — no ball or key is
/// recomputed.
///
/// Work items are deduplicated by [`SubsetKey`] first, so the sharded
/// pass performs exactly the set of exact solves the sequential memo
/// would — parallelism changes wall-clock time, never the work done. The
/// worklist stores vertex lists (ball-sized), not `n`-length masks, so
/// fan-out memory is proportional to the balls themselves. Each pump
/// keeps one restriction scratch and one solve scratch for all its
/// solves, which run under the solver's own budget — the one every
/// sequential lookup would use.
///
/// If a family cache is attached, workers look keys up *uncounted*,
/// claiming and filling the ones no thread has solved (single-flight, as
/// in [`SubsetSolver`]), and the hand-over loop records exactly one hit or
/// miss per distinct solve: a miss only where its own worker ran the
/// solve. That is the same counter trace a sequential run leaves, so hit
/// rates keep measuring genuine cross-run reuse rather than the sharding
/// handshake. Without a family cache nothing extra is allocated or
/// retained.
fn shard_subset_solves(
    ilp: &IlpInstance,
    params: &PcParams,
    solver: &mut SubsetSolver<'_>,
    members_list: &[Vec<Vertex>],
    balls: &mut ScBalls<'_>,
) -> Vec<(SubsetKey, SubsetKey)> {
    // dapc-allow(hash-iter): membership-test dedup only; the output order
    // dapc-allow(hash-iter): follows the deterministic worklist, not the set
    let mut seen: HashSet<SubsetKey> = HashSet::new();
    let mut worklist: Vec<(SubsetKey, Vec<Vertex>)> = Vec::new();
    let mut cluster_keys: Vec<(SubsetKey, SubsetKey)> = Vec::with_capacity(members_list.len());
    for members in members_list {
        let local_key = subset_key(members, None);
        if seen.insert(local_key) {
            worklist.push((local_key, members.clone()));
        }
        let (sc_key, sc) = balls.get(local_key, members);
        if let Some(sc) = sc.filter(|_| seen.insert(sc_key)) {
            worklist.push((sc_key, sc.to_vec()));
        }
        cluster_keys.push((local_key, sc_key));
    }
    // Tasks want 'static data; an instance clone shares the instance's
    // storage, so each pump takes one for a reference count. The fan-out
    // runs `pumps` tasks on the ambient `dapc_exec` pool — the pool the
    // enclosing batch job already runs on, or the process-wide one — each
    // draining the next unclaimed work item, so concurrency is capped at
    // `prep_workers` with dynamic load balancing and no child pool is
    // ever spawned.
    let budget = solver.budget;
    let shared = solver.shared.clone();
    let worklist = Arc::new(worklist);
    let slots: Arc<Mutex<Vec<ShardSlot>>> =
        Arc::new(Mutex::new((0..worklist.len()).map(|_| None).collect()));
    let next = Arc::new(AtomicUsize::new(0));
    let pumps = params.prep_workers.min(worklist.len()).max(1);
    dapc_exec::scope(|s| {
        for _ in 0..pumps {
            let owned = ilp.clone();
            let shared = shared.clone();
            let worklist = Arc::clone(&worklist);
            let slots = Arc::clone(&slots);
            let next = Arc::clone(&next);
            s.spawn(move || {
                let mut scratch = RestrictScratch::new();
                let mut solve_scratch = SolveScratch::new();
                loop {
                    // ordering: Relaxed — fetch_add only claims unique worklist indices; no data rides on it
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some((key, vertices)) = worklist.get(index) else {
                        break;
                    };
                    let mut solve = || {
                        solve_subset(
                            &owned,
                            &budget,
                            vertices,
                            None,
                            &mut scratch,
                            &mut solve_scratch,
                        )
                    };
                    let result = match shared.as_ref().map(|c| c.lookup(*key)) {
                        None => (solve(), true),
                        Some(Lookup::Hit(entry)) => (entry, false),
                        Some(Lookup::Claimed(claim)) => {
                            let entry = solve();
                            claim.fill(entry.clone());
                            (entry, true)
                        }
                    };
                    slots.lock().expect("prep result slots")[index] = Some(result);
                }
            });
        }
    });
    let worklist = Arc::try_unwrap(worklist)
        .expect("scope joined, no pump holds the worklist")
        .into_iter()
        .map(|(k, _)| k);
    let slots = Arc::try_unwrap(slots)
        .expect("scope joined, no pump holds the slots")
        .into_inner()
        .expect("prep result slots");
    for (key, slot) in worklist.zip(slots) {
        let (entry, solved_here) = slot.expect("every work item filled its slot");
        if let Some(shared) = &solver.shared {
            if solved_here {
                shared.record_miss();
            } else {
                shared.record_hit();
            }
        }
        solver.preload(key, entry);
    }
    cluster_keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScaleKnobs;
    use dapc_graph::gen;
    use dapc_ilp::problems;
    use proptest::prelude::*;
    use rand::RngExt;
    use std::collections::BTreeSet;

    /// The `n`-length mask fold the list keys replaced: the reference
    /// they must equal bit for bit.
    fn mask_key(mask: &[bool], fixed_ones: Option<&[bool]>) -> SubsetKey {
        let mut h = FNV128_OFFSET;
        for (v, &m) in mask.iter().enumerate() {
            if m {
                h = fnv1a_128_u32(h, v as u32);
            }
        }
        if let Some(f) = fixed_ones {
            h = fnv1a_128_u32(h, u32::MAX); // separator
            for (v, (&fv, &m)) in f.iter().zip(mask.iter()).enumerate() {
                if fv && m {
                    h = fnv1a_128_u32(h, v as u32);
                }
            }
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn list_keys_equal_mask_keys(seed in 0u64..1 << 32) {
            let mut rng = gen::seeded_rng(seed);
            let n = rng.random_range(0..300);
            for density in [0.0, 0.1, 0.5, 1.0] {
                let mask: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < density).collect();
                let fixed: Vec<bool> = (0..n).map(|_| rng.random_bool(0.3)).collect();
                let list = restrict::list_of(&mask);
                prop_assert_eq!(subset_key(&list, None), mask_key(&mask, None));
                for overlay in [&fixed, &mask, &vec![false; n]] {
                    prop_assert_eq!(
                        subset_key(&list, Some(overlay)),
                        mask_key(&mask, Some(overlay))
                    );
                }
            }
        }
    }

    /// A hypergraph of several components: a long path, a cycle, a
    /// sparse random graph, random hyperedges inside two blocks, and
    /// isolated vertices, with its vertex ids shuffled so components
    /// interleave.
    fn several_components(seed: u64) -> Hypergraph {
        let mut rng = gen::seeded_rng(seed);
        let mut edges: Vec<Vec<Vertex>> = Vec::new();
        let path = rng.random_range(2..30) as Vertex;
        edges.extend((1..path).map(|v| vec![v - 1, v]));
        let cycle = rng.random_range(3..25) as Vertex;
        edges.extend((0..cycle).map(|i| vec![path + i, path + (i + 1) % cycle]));
        let mut next = path + cycle;
        let g = gen::gnp(rng.random_range(2..30), 0.1, &mut rng);
        edges.extend(g.edges().map(|(u, v)| vec![next + u, next + v]));
        next += g.n() as Vertex;
        for _ in 0..2 {
            let size = rng.random_range(1..20) as Vertex;
            for _ in 0..rng.random_range(0..2 * size) {
                let rank = rng.random_range(1..5);
                edges.push(
                    (0..rank)
                        .map(|_| next + rng.random_range(0..size))
                        .collect(),
                );
            }
            next += size;
        }
        let n = next as usize + rng.random_range(0..4);
        let mut relabel: Vec<Vertex> = (0..n as Vertex).collect();
        for i in (1..n).rev() {
            relabel.swap(i, rng.random_range(0..=i));
        }
        for e in &mut edges {
            for v in e.iter_mut() {
                *v = relabel[*v as usize];
            }
        }
        Hypergraph::new(n, edges)
    }

    #[test]
    fn sc_lists_equal_sorted_hypergraph_balls() {
        // Shuffled multi-component hypergraphs, then paths and grids with
        // their ids in order, where `v0` is an end or a corner: there
        // `ub(v0) = ecc(v0)` exactly, and a radius between a component's
        // radius and its diameter makes the landmarks at its ends fail.
        let in_order = [gen::path(2), gen::path(9), gen::path(30)]
            .into_iter()
            .chain([gen::grid(3, 7), gen::grid(6, 6)])
            .map(|g| {
                problems::max_independent_set_unweighted(&g)
                    .hypergraph()
                    .clone()
            });
        let shapes: Vec<Hypergraph> = (0..24).map(several_components).chain(in_order).collect();
        let ((), routes) = probe::run(|| {
            for (i, h) in shapes.iter().enumerate() {
                let primal = h.primal_graph();
                let (comp, k) = primal.connected_components();
                let groups = Buckets::by_label(&comp, k);
                let mut rng = gen::seeded_rng(i as u64 + 100);
                // Clusters, looked up in this order: the middle and the
                // ends of each component, both ends together, random
                // subsets, each whole component, and some spanning two.
                let mut clusters: Vec<Vec<Vertex>> = Vec::new();
                for (c, group) in groups.iter().enumerate() {
                    let (first, last) = (group[0], group[group.len() - 1]);
                    clusters.extend([group[group.len() / 2], first, last].map(|v| vec![v]));
                    let mut ends = vec![first, last];
                    ends.dedup();
                    clusters.push(ends);
                    for _ in 0..3 {
                        clusters.push(
                            group
                                .iter()
                                .copied()
                                .filter(|_| rng.random_bool(0.3))
                                .collect(),
                        );
                    }
                    clusters.push(group.to_vec());
                    let other = groups.get((c + 1) % k);
                    let mut span = vec![first, other[other.len() - 1]];
                    span.sort_unstable();
                    span.dedup();
                    clusters.push(span);
                }
                let mut fresh = BTreeSet::new();
                clusters.retain(|members| !members.is_empty() && fresh.insert(members.clone()));
                // Radii around every component's radius, `ecc(v0)`,
                // diameter and `2·ecc(v0)` (`v0` is its smallest vertex).
                let mut radii = BTreeSet::from([0usize, 1, 1000]);
                for group in groups.iter() {
                    let eccs: Vec<usize> = group
                        .iter()
                        .map(|&u| {
                            let d = h.distances(&[u], None, None);
                            group
                                .iter()
                                .map(|&v| d[v as usize] as usize)
                                .max()
                                .unwrap_or(0)
                        })
                        .collect();
                    let radius = eccs.iter().copied().min().unwrap_or(0);
                    let diam = eccs.iter().copied().max().unwrap_or(0);
                    for r in [radius, eccs[0], diam, 2 * eccs[0]] {
                        radii.extend([r.saturating_sub(1), r, r + 1]);
                    }
                }
                for &r in &radii {
                    let mut balls = ScBalls::new(&primal, r);
                    for members in &clusters {
                        let mut expected: Vec<Vertex> =
                            h.ball(members, r, None, None).iter().collect();
                        expected.sort_unstable();
                        let (key, list) = balls.get(subset_key(members, None), members);
                        let list = list.expect("a new cluster gets its list").to_vec();
                        assert_eq!(list, expected, "shape {i}, r {r}, cluster {members:?}");
                        assert_eq!(key, subset_key(&expected, None));
                        // A repeated cluster hands back the same key.
                        assert_eq!(balls.get(subset_key(members, None), members), (key, None));
                    }
                }
            }
        });
        assert!(
            routes.whole > 0
                && routes.bound > 0
                && routes.landmark > 0
                && routes.failed_landmark > 0
                && routes.ball > 0,
            "some route was never taken: {routes:?}"
        );
    }

    /// The `S_C` work on the benchmark's long cycles. Every `S_C` of
    /// `cycle(800)` at `ilp_cold`'s knobs takes the `2·ecc(v0) ≤ r` fast
    /// path. `cycle(300)` at `serve_warm`'s (default) knobs has
    /// `ecc(v0) = 150 < sc_radius < 300 = 2·ecc(v0)`. Every vertex of a
    /// cycle has eccentricity 150, so every `S_C` is the whole cycle and
    /// no ball is built: the bounds from `v0` answer the clusters that
    /// reach within `r − 150` of it, and each landmark those within
    /// `r − 150` of itself, so the smaller radius takes more landmarks.
    #[test]
    fn bfs_balls_on_the_benchmark_shapes() {
        let knobs = |r_scale| ScaleKnobs {
            r_scale,
            ..ScaleKnobs::default()
        };
        let long = [
            (
                problems::max_independent_set_unweighted(&gen::cycle(800)),
                knobs(0.1).packing_params(0.2, 800),
                0,
            ),
            (
                problems::min_vertex_cover_unweighted(&gen::cycle(800)),
                knobs(0.3).covering_params(0.3, 800),
                0,
            ),
        ];
        let ring = problems::max_independent_set_unweighted(&gen::cycle(300));
        let short = [(0.2, 2), (0.3, 11)].map(|(eps, landmarks)| {
            let params = ScaleKnobs::default().packing_params(eps, 300);
            (ring.clone(), params, landmarks)
        });
        for (ilp, mut params, landmarks) in long.into_iter().chain(short) {
            let h = ilp.hypergraph().clone();
            let primal = h.primal_graph();
            if ilp.n() == 800 {
                assert!(params.sc_radius >= 800, "{params:?}");
            } else {
                assert!((151..300).contains(&params.sc_radius), "{params:?}");
            }
            for workers in [1, 2] {
                params.prep_workers = workers;
                let (_, routes) = probe::run(|| {
                    let mut solver = SubsetSolver::new(&ilp, params.budget);
                    prepare(
                        &ilp,
                        &h,
                        &primal,
                        &params,
                        &mut gen::seeded_rng(1),
                        &mut solver,
                    )
                });
                assert_eq!(
                    (routes.ball, routes.landmarks(), routes.failed_landmark),
                    (0, landmarks, 0),
                    "n {}, ε {}, {workers} workers: {routes:?}",
                    ilp.n(),
                    params.eps
                );
            }
        }
    }

    /// Landmarks per component: none where `ecc(v0) > 2r`, since the
    /// radius then exceeds `r`, and no more after the first that fails.
    #[test]
    fn a_component_stops_taking_landmarks_after_a_failure() {
        // v0 = 0 is an end: ecc(v0) = 40 is the diameter, the radius 20.
        let path = gen::path(41);
        let clusters = [vec![0], vec![40], vec![20], vec![10, 11], vec![39, 40]];
        let lookups = |r| {
            let mut balls = ScBalls::new(&path, r);
            probe::run(|| {
                for members in &clusters {
                    balls.get(subset_key(members, None), members);
                }
            })
            .1
        };
        let balls_only = probe::Routes {
            ball: 5,
            ..Default::default()
        };
        assert_eq!(lookups(19), balls_only, "2r = 38 < ecc(v0)");
        // At r = 20, ecc(v0) = 2r and the middle vertex's eccentricity is
        // r, so the component keeps its bounds.
        for r in [20, 25] {
            assert_eq!(
                lookups(r),
                probe::Routes {
                    failed_landmark: 1,
                    ..balls_only
                },
                "r {r}: the landmark at the end fails, and no other runs"
            );
        }
    }

    #[test]
    fn buckets_list_ascending() {
        let label = [2, u32::MAX, 0, 2, 0, 1, u32::MAX];
        let buckets = Buckets::by_label(&label, 4);
        let lists: Vec<&[Vertex]> = buckets.iter().collect();
        assert_eq!(lists, [&[2, 4][..], &[5], &[0, 3], &[]]);
    }

    #[test]
    fn subset_solver_caches() {
        let g = gen::cycle(10);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut solver = SubsetSolver::new(&ilp, SolverBudget::default());
        let mask = vec![true; 10];
        let (v1, _, e1) = solver.solve_mask(&mask, None);
        let (v2, _, _) = solver.solve_mask(&mask, None);
        assert_eq!(v1, 5);
        assert_eq!(v1, v2);
        assert!(e1);
        assert_eq!(solver.cache.len(), 1);
    }

    #[test]
    fn subset_keys_distinguish_fixed_overlays() {
        let list = [0, 1, 3];
        let none_fixed = subset_key(&list, None);
        let empty_fixed = subset_key(&list, Some(&[false, false, false, false]));
        let some_fixed = subset_key(&list, Some(&[true, false, false, false]));
        let outside_fixed = subset_key(&list, Some(&[false, false, true, false]));
        assert_ne!(none_fixed, empty_fixed, "separator must mark the overlay");
        assert_ne!(empty_fixed, some_fixed);
        // Fixed vertices outside the mask are irrelevant to the
        // restriction and must not move the key.
        assert_eq!(empty_fixed, outside_fixed);
    }

    #[test]
    fn shared_cache_spans_solvers() {
        let g = gen::cycle(10);
        let ilp = problems::max_independent_set_unweighted(&g);
        let shared = SharedSubsetCache::new();
        let mask = vec![true; 10];
        let mut a = SubsetSolver::with_shared(&ilp, SolverBudget::default(), Some(&shared));
        let (v1, _, _) = a.solve_mask(&mask, None);
        assert_eq!((shared.hits(), shared.misses()), (0, 1));
        let mut b = SubsetSolver::with_shared(&ilp, SolverBudget::default(), Some(&shared));
        let (v2, _, _) = b.solve_mask(&mask, None);
        assert_eq!(v1, v2);
        assert_eq!((shared.hits(), shared.misses()), (1, 1));
        // Per-run re-lookups are served by the local memo, not the shared
        // map, so hit counts measure genuine cross-run reuse.
        let (v3, _, _) = b.solve_mask(&mask, None);
        assert_eq!(v2, v3);
        assert_eq!((shared.hits(), shared.misses()), (1, 1));
        assert_eq!(shared.len(), 1);
    }

    /// Two solvers of one family that miss the same subset at once run
    /// its exact solve once: one claims the key, the other waits for the
    /// entry and counts a hit.
    #[test]
    fn concurrent_misses_of_one_subset_solve_it_once() {
        let g = gen::gnp(48, 0.1, &mut gen::seeded_rng(3));
        let ilp = problems::max_independent_set_unweighted(&g);
        let all: Vec<Vertex> = g.vertices().collect();
        let shared = SharedSubsetCache::new();
        let start = std::sync::Barrier::new(2);
        let values: Vec<u64> = std::thread::scope(|s| {
            let solvers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut solver =
                            SubsetSolver::with_shared(&ilp, SolverBudget::default(), Some(&shared));
                        start.wait();
                        solver.solve(&all, None).0
                    })
                })
                .collect();
            solvers
                .into_iter()
                .map(|h| h.join().expect("solver thread"))
                .collect()
        });
        assert_eq!(values[0], values[1]);
        assert_eq!(
            (shared.hits(), shared.misses()),
            (1, 1),
            "the subset was solved twice"
        );
        assert_eq!(shared.len(), 1);
    }

    /// A claimant that panics mid-solve releases its key: the thread
    /// waiting on it claims the key and fills it.
    #[test]
    fn a_panicking_claimant_releases_its_waiters() {
        let cache = SharedSubsetCache::new();
        let key: SubsetKey = 7;
        let claimed = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let claimant = s.spawn(|| {
                let Lookup::Claimed(_claim) = cache.lookup(key) else {
                    panic!("the first lookup must claim");
                };
                claimed.wait();
                // Give the waiter time to block on the claim.
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("the solve failed");
            });
            claimed.wait();
            let Lookup::Claimed(claim) = cache.lookup(key) else {
                panic!("nothing filled the key");
            };
            claim.fill(SubsetEntry {
                value: 3,
                exact: true,
                bits: Box::new([1]),
            });
            assert!(claimant.join().is_err(), "the claimant panicked");
        });
        assert!(matches!(
            cache.lookup(key),
            Lookup::Hit(SubsetEntry {
                value: 3,
                exact: true,
                ..
            })
        ));
    }

    #[test]
    fn cache_keeps_every_distinct_solve() {
        let g = gen::path(9);
        let ilp = problems::max_independent_set_unweighted(&g);
        let cache = SharedSubsetCache::new();
        for k in 1..=9usize {
            let mask: Vec<bool> = (0..9).map(|v| v < k).collect();
            let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), Some(&cache));
            s.solve_mask(&mask, None);
        }
        assert_eq!(cache.len(), 9);
        assert!(cache.bytes() > 0);
    }

    /// An entry is sized by its subset, not by the instance: the same
    /// twenty 5-vertex path subsets take the same bytes on `cycle(100)`
    /// and on `cycle(10_000)`. Each solve's global view holds exactly its
    /// own solution, whatever the solve before it set.
    #[test]
    fn entry_bytes_follow_the_subset_not_the_instance() {
        let bytes = |n: usize| {
            let ilp = problems::max_independent_set_unweighted(&gen::cycle(n));
            let cache = SharedSubsetCache::new();
            let mut solver = SubsetSolver::with_shared(&ilp, SolverBudget::default(), Some(&cache));
            for start in 0..20 {
                let path: Vec<Vertex> = (start..start + 5).collect();
                let (value, global, exact) = solver.solve(&path, None);
                assert_eq!((value, exact, global.len()), (3, true, n));
                let set: Vec<Vertex> = (0..n as Vertex).filter(|&v| global[v as usize]).collect();
                assert_eq!(set, [start, start + 2, start + 4]);
            }
            assert_eq!((cache.len(), cache.misses()), (20, 20));
            cache.bytes()
        };
        let small = bytes(100);
        assert_eq!(small, bytes(10_000));
        assert_eq!(
            small,
            20 * entry_bytes(&SubsetEntry {
                value: 0,
                exact: true,
                bits: Box::new([0]),
            })
        );
    }

    /// A covering solve with fixed ones: the fixed vertices of the subset
    /// read false in both the entry and the global view, and the rest
    /// match the sub-instance's own solution.
    #[test]
    fn fixed_vertices_read_false_after_a_lift() {
        let ilp = problems::min_vertex_cover_unweighted(&gen::cycle(12));
        let mut fixed = vec![false; 12];
        for v in [2, 3, 7] {
            fixed[v] = true;
        }
        let vars: Vec<Vertex> = (1..10).collect();
        let mut solver = SubsetSolver::new(&ilp, SolverBudget::default());
        let (value, global, exact) = solver.solve(&vars, Some(&fixed));
        let global = global.to_vec();
        let sub = restrict::covering_restriction_with_fixed(
            &ilp,
            &restrict::mask_of(12, &vars),
            Some(&fixed),
        );
        let sol = solvers::solve(&sub, &SolverBudget::default());
        let mut expected = vec![false; 12];
        sub.lift_into(&sol.assignment, &mut expected);
        assert_eq!((value, exact), (sol.value, sol.exact));
        assert_eq!(global, expected);
        assert!([2, 3, 7].iter().all(|&v| !global[v]));
    }

    /// A warm family cache changes the counters (cold misses become warm
    /// hits) but never an output — here at the preparation level, where
    /// every weight comes from the cache.
    #[test]
    fn warm_loaded_cache_changes_counters_never_outputs() {
        let ilp =
            problems::max_independent_set_unweighted(&gen::gnp(26, 0.11, &mut gen::seeded_rng(13)));
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let params = PcParams::packing_scaled(0.3, 26.0, 0.05, 0.5);
        let run = |cache: &SharedSubsetCache| {
            let mut rng = gen::seeded_rng(4);
            let mut solver = SubsetSolver::with_shared(&ilp, params.budget, Some(cache));
            let prep = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
            prep.clusters
                .iter()
                .map(|c| (c.members.clone(), c.w_local, c.w_neighborhood))
                .collect::<Vec<_>>()
        };
        let cache = SharedSubsetCache::new();
        let cold_clusters = run(&cache);
        let cold_misses = cache.misses();
        assert!(cold_misses > 0);
        assert_eq!(cache.hits(), 0);

        let warm_clusters = run(&cache);
        assert_eq!(warm_clusters, cold_clusters, "a warm cache moved an output");
        assert_eq!(cache.misses(), cold_misses, "every lookup is answered warm");
        assert_eq!(cache.hits(), cold_misses, "one hit per former miss");
    }

    #[test]
    fn prep_clusters_have_sane_weights() {
        let g = gen::grid(6, 6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let params = PcParams::packing_scaled(0.3, 36.0, 0.05, 0.5);
        let mut rng = gen::seeded_rng(71);
        let mut solver = SubsetSolver::new(&ilp, params.budget);
        let prep = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
        assert!(prep.all_exact);
        assert!(!prep.clusters.is_empty());
        for c in &prep.clusters {
            // Observation 2.1: W(P^local_C, C) <= W(P^local_{S_C}, S_C)
            // whenever C ⊆ S_C (monotone in the subset for packing).
            assert!(c.w_local <= c.w_neighborhood, "{c:?}");
            assert!(!c.members.is_empty());
        }
    }

    #[test]
    fn prep_covering_uses_sparse_cover() {
        let g = gen::cycle(12);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let params = PcParams::covering_scaled(0.3, 12.0, 0.05, 0.3, 1.0);
        let mut rng = gen::seeded_rng(72);
        let mut solver = SubsetSolver::new(&ilp, params.budget);
        let prep = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
        // Sparse covers keep every vertex, so cluster weights are positive
        // for any cluster containing an edge.
        assert!(!prep.clusters.is_empty());
        for c in &prep.clusters {
            assert!(c.w_local <= c.w_neighborhood);
        }
    }

    /// The sharded workers must solve under the *solver's* budget, not
    /// `params.budget` — byte-identity has to survive a caller that
    /// builds its `SubsetSolver` with a different budget than the params
    /// it hands to `prepare`.
    #[test]
    fn sharded_prepare_honours_the_solver_budget() {
        let ilp =
            problems::max_independent_set_unweighted(&gen::gnp(32, 0.12, &mut gen::seeded_rng(33)));
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let mut params = PcParams::packing_scaled(0.3, 32.0, 0.05, 0.5);
        // A budget tight enough that some whole-component solve is inexact
        // — the divergence a budget mix-up would surface through
        // `all_exact` and the weights.
        let tight = SolverBudget { node_limit: 4 };
        let run = |params: &PcParams| {
            let mut rng = gen::seeded_rng(8);
            let mut solver = SubsetSolver::new(&ilp, tight);
            let prep = prepare(&ilp, &h, &primal, params, &mut rng, &mut solver);
            (
                prep.all_exact,
                prep.clusters
                    .iter()
                    .map(|c| (c.w_local, c.w_neighborhood))
                    .collect::<Vec<_>>(),
            )
        };
        let sequential = run(&params);
        assert!(!sequential.0, "node_limit 4 should leave inexact solves");
        params.prep_workers = 4;
        assert_eq!(run(&params), sequential);
    }

    /// Counter parity: a sharded preparation leaves the same family-cache
    /// hit/miss trace a sequential one would — the telemetry measures
    /// cross-run reuse, not the sharding handshake.
    #[test]
    fn sharded_prepare_preserves_cache_counters() {
        let ilp =
            problems::max_independent_set_unweighted(&gen::gnp(28, 0.1, &mut gen::seeded_rng(21)));
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let mut params = PcParams::packing_scaled(0.3, 28.0, 0.05, 0.5);
        let mut counters = Vec::new();
        for workers in [1usize, 4] {
            params.prep_workers = workers;
            let cold = SharedSubsetCache::new();
            let mut rng = gen::seeded_rng(6);
            let mut solver = SubsetSolver::with_shared(&ilp, params.budget, Some(&cold));
            let _ = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
            let after_cold = (cold.hits(), cold.misses());
            // Warm replay against the same family cache.
            let mut rng = gen::seeded_rng(6);
            let mut solver = SubsetSolver::with_shared(&ilp, params.budget, Some(&cold));
            let _ = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
            counters.push((after_cold, (cold.hits(), cold.misses())));
        }
        assert_eq!(
            counters[0], counters[1],
            "sequential vs sharded counter traces diverge"
        );
        let ((_, cold_misses), (warm_hits, warm_misses)) = counters[0];
        assert!(cold_misses > 0, "cold prep must record misses");
        assert!(warm_hits > 0, "warm replay must record hits");
        assert_eq!(warm_misses, cold_misses, "warm replay adds no solves");
    }

    /// The tentpole invariant at the unit level: for both senses, the
    /// clusters and `all_exact` flag emitted by a sharded preparation are
    /// byte-identical to the sequential ones at every worker count.
    #[test]
    fn sharded_prepare_is_byte_identical() {
        let pack =
            problems::max_independent_set_unweighted(&gen::gnp(30, 0.1, &mut gen::seeded_rng(9)));
        let cover = problems::min_vertex_cover_unweighted(&gen::cycle(26));
        for ilp in [&pack, &cover] {
            let h = ilp.hypergraph().clone();
            let primal = h.primal_graph();
            let mut params = match ilp.sense() {
                Sense::Packing => PcParams::packing_scaled(0.3, 30.0, 0.05, 0.5),
                Sense::Covering => PcParams::covering_scaled(0.3, 26.0, 0.05, 0.5, 1.0),
            };
            let run = |params: &PcParams| {
                let mut rng = gen::seeded_rng(5);
                let mut solver = SubsetSolver::new(ilp, params.budget);
                let prep = prepare(ilp, &h, &primal, params, &mut rng, &mut solver);
                (
                    prep.all_exact,
                    prep.clusters
                        .iter()
                        .map(|c| (c.members.clone(), c.w_local, c.w_neighborhood))
                        .collect::<Vec<_>>(),
                )
            };
            let sequential = run(&params);
            for workers in [2usize, 4] {
                params.prep_workers = workers;
                assert_eq!(
                    run(&params),
                    sequential,
                    "{:?} prep at {workers} workers drifted",
                    ilp.sense()
                );
            }
        }
    }
}
