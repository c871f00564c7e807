//! # dapc-exec
//!
//! The process-wide task executor every parallel path of the workspace
//! runs on: one lazily-initialised worker pool sized to the host (the
//! [`global`] executor), a scoped task-group API ([`scope`] /
//! [`Executor::scope`]) with panic propagation, and **nested-task
//! awareness** — a task that opens its own scope (e.g. a batch job whose
//! preparation step shards its exact subset solves) submits the subtasks
//! to the *same* pool it runs on instead of spawning a child pool, so
//! `jobs × prep_workers` degrades gracefully instead of oversubscribing
//! the machine.
//!
//! Since the work-stealing rewrite the pool is deque-per-worker in the
//! Chase–Lev shape rather than one shared locked queue: each worker owns
//! a deque it pushes and pops at the bottom (LIFO, depth-first), idle
//! workers steal from the top of other workers' deques (FIFO, coarsest
//! first), external submissions enter through a global injector queue
//! with wake-one-on-push, and idle workers park on an eventcount instead
//! of sleeping inside a shared queue lock. `crates/exec/README.md` walks
//! through the design and the termination argument.
//!
//! Three rules make the nesting deadlock-free at any pool size (including
//! one worker):
//!
//! 1. **Owners help.** After the scope body returns, the scope-owning
//!    thread drains the scope's still-queued tasks inline while waiting —
//!    its own deque first, then the injector, then by stealing them out
//!    of other workers' deques — so a scope completes even when every
//!    pool worker is busy or blocked in a deeper scope.
//! 2. **Depth first.** A task spawned from inside a pool task goes to the
//!    bottom of the spawning worker's own deque (or the top of the
//!    injector when the enclosing task runs inline on a non-worker
//!    thread): finer-grained work that a coarser task is waiting on runs
//!    before queued coarse work.
//! 3. **No cross-scope waits.** A scope waits only for tasks it spawned;
//!    group bookkeeping is per-scope, so independent scopes sharing the
//!    pool cannot entangle.
//!
//! A task runs to completion on the thread that took it; nothing
//! preempts it or makes it yield. Termination never needs that, because
//! of rule 1: the owner of a waiting scope runs its own tasks itself.
//!
//! Determinism is untouched by construction: the executor decides only
//! *where and when* a task runs, never what it computes — every caller in
//! this workspace keeps its outputs byte-identical at any worker count,
//! stealing or not.
//!
//! # Examples
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let sum = Arc::new(AtomicUsize::new(0));
//! dapc_exec::scope(|s| {
//!     for i in 1..=10 {
//!         let sum = Arc::clone(&sum);
//!         s.spawn(move || {
//!             sum.fetch_add(i, Ordering::Relaxed);
//!         });
//!     }
//! });
//! // `scope` returns only after every spawned task finished.
//! assert_eq!(sum.load(Ordering::Relaxed), 55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deque;
mod park;

use deque::WorkDeque;
use park::Parking;
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Cached handles onto the process-wide metrics registry. Resolved once
/// per process, then lock-free; every recording site gates on
/// [`dapc_obs::enabled`] first, so the disabled path costs one relaxed
/// atomic load and never reads the clock.
mod metrics {
    use dapc_obs::{Counter, Histogram};
    use std::sync::OnceLock;

    /// Injector length right after an external or inline-nested enqueue
    /// (worker-local deque pushes are not observed: they are the
    /// uncontended fast path). Replaces the old `exec.queue.depth`.
    pub fn injector_depth() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("exec.injector.depth"))
    }

    /// Microseconds a task sat queued before a thread picked it up.
    pub fn task_wait() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("exec.task.wait_micros"))
    }

    /// Microseconds a task's job ran (on a worker or inline).
    pub fn task_run() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("exec.task.run_micros"))
    }

    /// Tasks a scope owner ran inline while waiting on its group.
    pub fn help_runs() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("exec.task.help_runs"))
    }

    /// Task panics caught and re-raised at a scope exit.
    pub fn panics() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("exec.task.panics"))
    }

    /// Tasks taken from another worker's deque.
    pub fn steals() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("exec.steals"))
    }

    /// Steal sweeps that probed an apparently occupied deque but came
    /// back empty-handed (lost the race to the owner or another thief).
    pub fn steal_failures() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("exec.steal_failures"))
    }

    /// Times an idle worker went to sleep on the eventcount.
    pub fn parks() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("exec.parks"))
    }
}

/// One queued unit of work, tagged with the scope that owns it.
struct Task {
    group: Arc<Group>,
    job: Box<dyn FnOnce() + Send + 'static>,
    /// Enqueue timestamp, taken only while observability is enabled so
    /// the disabled path never touches the clock.
    enqueued_at: Option<Instant>,
}

struct Shared {
    /// External submissions and inline-nested spawns enter here; workers
    /// drain it FIFO from the top (nested spawns jump to the top).
    injector: WorkDeque<Task>,
    /// One deque per worker: the owner pushes/pops at the bottom,
    /// thieves (and foreign scope owners hunting their group's tasks)
    /// take from the top.
    deques: Vec<WorkDeque<Task>>,
    /// Eventcount idle workers park on; every push wakes one sleeper.
    parking: Parking,
    shutdown: AtomicBool,
    /// Worker threads owned by the pool.
    workers: usize,
}

/// Per-scope bookkeeping: how many of the scope's tasks are still queued
/// or running, and the first panic payload to re-raise at the scope exit.
struct Group {
    state: Mutex<GroupState>,
    /// Signalled when `pending` drops to zero. The ordering contract the
    /// owner's wait path relies on: [`run_task`] decrements `pending`
    /// under `state` *before* notifying, so a waiter that observed
    /// `pending > 0` while holding the lock is guaranteed a later
    /// notification — the owner never needs to re-take any queue lock
    /// just to re-check.
    done: Condvar,
}

#[derive(Default)]
struct GroupState {
    pending: usize,
    payload: Option<Box<dyn Any + Send>>,
}

impl Group {
    fn new() -> Self {
        Group {
            state: Mutex::new(GroupState::default()),
            done: Condvar::new(),
        }
    }
}

thread_local! {
    /// Pools whose tasks the current thread is executing, innermost last
    /// (pool workers and inline helpers both push here around a task).
    static TASK_POOL: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
    /// Explicit [`with_executor`] overrides, innermost last.
    static OVERRIDE: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
    /// Set once per worker thread: the pool it belongs to and its deque
    /// index. Spawn routing and the scope owner's help scan key off this.
    static WORKER: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
}

/// RAII pop for the thread-local pool stacks.
struct StackGuard(&'static std::thread::LocalKey<RefCell<Vec<Arc<Shared>>>>);

impl StackGuard {
    fn push(
        key: &'static std::thread::LocalKey<RefCell<Vec<Arc<Shared>>>>,
        s: &Arc<Shared>,
    ) -> Self {
        key.with(|stack| stack.borrow_mut().push(Arc::clone(s)));
        StackGuard(key)
    }
}

impl Drop for StackGuard {
    fn drop(&mut self) {
        self.0.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The calling thread's deque index, if it is a worker of `shared`.
fn worker_index(shared: &Arc<Shared>) -> Option<usize> {
    WORKER.with(|w| {
        w.borrow()
            .as_ref()
            .and_then(|(pool, idx)| Arc::ptr_eq(pool, shared).then_some(*idx))
    })
}

/// A fixed-size worker pool with scoped task groups.
///
/// Most code should not construct one: [`scope`] and [`current_workers`]
/// resolve to the pool of the enclosing task (nested use), an explicit
/// [`with_executor`] override, or the process-wide [`global`] pool, in
/// that order. Building a private executor is for tests pinning a worker
/// count (e.g. proving byte-identity under oversubscription) and for
/// embedders that must isolate their pool.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool with `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: WorkDeque::new(),
            deques: (0..workers).map(|_| WorkDeque::new()).collect(),
            parking: Parking::new(),
            shutdown: AtomicBool::new(false),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dapc-exec-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Runs `f` with a [`Scope`] bound to this pool, then blocks until
    /// every task spawned on the scope has finished — helping inline with
    /// the scope's own queued tasks while waiting.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of the body or of any spawned task, but
    /// only after every task of the scope has completed, so no work is
    /// silently lost.
    pub fn scope<T>(&self, f: impl FnOnce(&Scope<'_>) -> T) -> T {
        scope_on(&self.shared, f)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // ordering: SeqCst — shutdown flag; keep a total order with the park/wake protocol
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.parking.wake_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers())
            .finish()
    }
}

/// A handle for spawning tasks into one task group (created by [`scope`]
/// or [`Executor::scope`]). The owning `scope` call returns only after
/// every task spawned here has finished.
pub struct Scope<'a> {
    shared: &'a Arc<Shared>,
    group: Arc<Group>,
}

impl Scope<'_> {
    /// Queues a task on the scope's pool.
    ///
    /// Routing: a spawn from a pool worker goes to the bottom of that
    /// worker's own deque (uncontended, depth-first); a spawn from a
    /// non-worker thread that is *inside* a task of this pool (an inline
    /// help frame) jumps to the top of the injector (still depth-first);
    /// any other spawn appends to the injector in FIFO order. Every push
    /// wakes at most one parked worker.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        {
            let mut g = self.group.state.lock().expect("scope group lock");
            g.pending += 1;
        }
        assert!(
            // ordering: SeqCst — shutdown flag; keep a total order with the park/wake protocol
            !self.shared.shutdown.load(Ordering::SeqCst),
            "spawn on a shut-down executor"
        );
        let observed = dapc_obs::enabled();
        let task = Task {
            group: Arc::clone(&self.group),
            job: Box::new(f),
            // dapc-allow(wall-clock): queue-wait telemetry only, gated on dapc_obs::enabled
            enqueued_at: observed.then(Instant::now),
        };
        match worker_index(self.shared) {
            Some(idx) => {
                self.shared.deques[idx].push_bottom(task);
            }
            None => {
                let nested = TASK_POOL.with(|stack| {
                    stack
                        .borrow()
                        .last()
                        .is_some_and(|s| Arc::ptr_eq(s, self.shared))
                });
                let depth = if nested {
                    self.shared.injector.push_top(task)
                } else {
                    self.shared.injector.push_bottom(task)
                };
                if observed {
                    metrics::injector_depth().observe(depth as u64);
                }
            }
        }
        self.shared.parking.wake_one();
    }
}

/// Runs one task and settles its group bookkeeping. The pool is pushed
/// onto the thread's task stack for the duration, so nested [`scope`]
/// calls from inside the task land on the same pool — whether the task
/// runs on a pool worker or inline in a helping scope owner.
fn run_task(shared: &Arc<Shared>, task: Task) {
    // `enqueued_at` doubles as the gate: it is `Some` exactly when
    // observability was enabled at enqueue, so a disabled run records
    // nothing even if the gate flips mid-flight.
    let started = task.enqueued_at.map(|queued| {
        // dapc-allow(wall-clock): queue-wait telemetry only, gated on dapc_obs::enabled
        let now = Instant::now();
        metrics::task_wait().observe_micros(now - queued);
        now
    });
    let outcome = {
        let _ambient = StackGuard::push(&TASK_POOL, shared);
        catch_unwind(AssertUnwindSafe(task.job))
    };
    if let Some(started) = started {
        metrics::task_run().observe_micros(started.elapsed());
        if outcome.is_err() {
            metrics::panics().inc();
        }
    }
    // Decrement under the group lock *before* notifying: a scope owner
    // that saw `pending > 0` under this lock is guaranteed the notify.
    let mut g = task.group.state.lock().expect("scope group lock");
    g.pending -= 1;
    if let Err(payload) = outcome {
        g.payload.get_or_insert(payload);
    }
    let idle = g.pending == 0;
    drop(g);
    if idle {
        task.group.done.notify_all();
    }
}

/// One steal sweep: probe every other deque (advisory length first, so
/// empty deques cost no lock) and take the top — the oldest, coarsest
/// task — of the first occupied one.
fn steal(shared: &Arc<Shared>, idx: usize) -> Option<Task> {
    let n = shared.deques.len();
    if n <= 1 {
        return None;
    }
    let mut attempted = false;
    for off in 1..n {
        let victim = (idx + off) % n;
        if shared.deques[victim].probe_len() == 0 {
            continue;
        }
        attempted = true;
        if let Some(task) = shared.deques[victim].steal_top() {
            if dapc_obs::enabled() {
                metrics::steals().inc();
            }
            return Some(task);
        }
    }
    if attempted && dapc_obs::enabled() {
        metrics::steal_failures().inc();
    }
    None
}

/// Next task for worker `idx`: own deque bottom (LIFO), then the
/// injector top (FIFO), then a steal sweep.
fn next_task(shared: &Arc<Shared>, idx: usize) -> Option<Task> {
    shared.deques[idx]
        .pop_bottom()
        .or_else(|| shared.injector.steal_top())
        .or_else(|| steal(shared, idx))
}

/// Any work anywhere, checked under the real queue locks — the parking
/// re-check must not trust the advisory length mirrors (see
/// `park.rs` for the lost-wakeup argument).
fn has_work_locked(shared: &Shared) -> bool {
    !shared.injector.locked_is_empty() || shared.deques.iter().any(|d| !d.locked_is_empty())
}

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(shared), idx)));
    loop {
        if let Some(task) = next_task(shared, idx) {
            run_task(shared, task);
            continue;
        }
        let epoch = shared.parking.prepare();
        if has_work_locked(shared) {
            shared.parking.cancel();
            continue;
        }
        // ordering: SeqCst — shutdown flag; keep a total order with the park/wake protocol
        if shared.shutdown.load(Ordering::SeqCst) {
            shared.parking.cancel();
            return;
        }
        if dapc_obs::enabled() {
            metrics::parks().inc();
        }
        shared.parking.park(epoch);
    }
}

/// Finds one still-queued task of `group`, owner's preference order:
/// the owner's own deque bottom first (when the owner is a pool worker —
/// its nested spawns went there), then the injector, then stolen out of
/// the other workers' deques.
fn find_group_task(shared: &Arc<Shared>, group: &Arc<Group>) -> Option<Task> {
    let ours = |t: &Task| Arc::ptr_eq(&t.group, group);
    if let Some(idx) = worker_index(shared) {
        if let Some(task) = shared.deques[idx].take_matching_bottom(ours) {
            return Some(task);
        }
    }
    if let Some(task) = shared.injector.take_matching_top(ours) {
        return Some(task);
    }
    shared.deques.iter().find_map(|d| d.take_matching_top(ours))
}

/// The owner side of a scope: run the scope's own still-queued tasks
/// inline, then wait for the ones running elsewhere.
///
/// Termination argument: the group's task set is fixed once the scope
/// body returns (spawning needs the borrowed [`Scope`], and any thread
/// the body lent it to has joined by then), so each loop iteration either
/// runs one group task inline or — after a scan that held every queue
/// lock in turn and found none — knows that every remaining task was
/// already claimed by a worker and is mid-flight. From that point the
/// owner parks on the *group's own* condvar until `pending` reaches
/// zero; it never re-takes a queue lock just to re-check, because no new
/// group task can appear in any queue. The wakeup ordering that makes
/// the bare wait sound is documented on [`Group::done`].
fn help_until_done(shared: &Arc<Shared>, group: &Arc<Group>) {
    loop {
        match find_group_task(shared, group) {
            Some(task) => {
                if dapc_obs::enabled() {
                    metrics::help_runs().inc();
                }
                run_task(shared, task);
            }
            None => {
                let mut g = group.state.lock().expect("scope group lock");
                while g.pending > 0 {
                    g = group.done.wait(g).expect("scope group lock");
                }
                return;
            }
        }
    }
}

fn scope_on<T>(shared: &Arc<Shared>, f: impl FnOnce(&Scope<'_>) -> T) -> T {
    let group = Arc::new(Group::new());
    let s = Scope {
        shared,
        group: Arc::clone(&group),
    };
    let body = catch_unwind(AssertUnwindSafe(|| f(&s)));
    help_until_done(shared, &group);
    let task_payload = group.state.lock().expect("scope group lock").payload.take();
    match body {
        // The body's own panic wins; either way every task has finished.
        Err(payload) => resume_unwind(payload),
        Ok(value) => match task_payload {
            Some(payload) => resume_unwind(payload),
            None => value,
        },
    }
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// The process-wide executor, created on first use.
///
/// Sized to the host (`std::thread::available_parallelism`), overridable
/// with the `DAPC_EXEC_WORKERS` environment variable *before* first use.
pub fn global() -> &'static Executor {
    GLOBAL.get_or_init(|| Executor::new(default_workers()))
}

fn default_workers() -> usize {
    override_workers(std::env::var("DAPC_EXEC_WORKERS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Parses the `DAPC_EXEC_WORKERS` override, clamping any parseable value
/// to at least one worker: `0` (or anything that parses to 0, like `00`)
/// pins the smallest pool instead of configuring a zero-worker pool that
/// would strand tasks queued by non-scope submitters. Unparseable values
/// are ignored (`None`), falling back to the host size.
fn override_workers(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().map(|n| n.max(1))
}

fn current_shared() -> Arc<Shared> {
    // The enclosing task's pool wins over a `with_executor` override:
    // a nested fan-out must land on the pool its parent runs on, no
    // matter whether the parent task executes on a pool worker (where no
    // override is set) or inline in a helping scope owner (whose thread
    // may hold an override for *entering* work, not for work passing
    // through) — otherwise the same task would resolve differently
    // depending on which thread happened to run it.
    if let Some(s) = TASK_POOL.with(|stack| stack.borrow().last().cloned()) {
        return s;
    }
    if let Some(s) = OVERRIDE.with(|stack| stack.borrow().last().cloned()) {
        return s;
    }
    Arc::clone(&global().shared)
}

/// Runs `f` with a [`Scope`] on the ambient pool: the pool of the
/// enclosing task when called from inside one (so nested fan-outs share
/// their parent's pool instead of spawning a child pool), an enclosing
/// [`with_executor`] override, or the [`global`] pool.
///
/// Blocks until every spawned task finished; panics are propagated like
/// [`Executor::scope`].
pub fn scope<T>(f: impl FnOnce(&Scope<'_>) -> T) -> T {
    let shared = current_shared();
    scope_on(&shared, f)
}

/// Worker-thread count of the pool [`scope`] would currently submit to.
pub fn current_workers() -> usize {
    current_shared().workers
}

/// Runs `f` with `exec` installed as the calling thread's ambient pool:
/// [`scope`] calls inside `f` (not inside tasks spawned by them — those
/// follow their own pool) submit to `exec` instead of the global pool.
/// Mainly for tests pinning a worker count.
pub fn with_executor<T>(exec: &Executor, f: impl FnOnce() -> T) -> T {
    let _guard = StackGuard::push(&OVERRIDE, &exec.shared);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn scope_runs_every_task() {
        let exec = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        exec.scope(|s| {
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_returns_the_body_value() {
        let exec = Executor::new(2);
        let out = exec.scope(|s| {
            s.spawn(|| {});
            7usize
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn nested_scopes_share_the_pool() {
        // Tasks open their own scopes; everything resolves onto the one
        // 2-worker pool (worker-local deques + owner help).
        let exec = Executor::new(2);
        let sum = Arc::new(AtomicUsize::new(0));
        exec.scope(|s| {
            for _ in 0..4 {
                let sum = Arc::clone(&sum);
                s.spawn(move || {
                    assert_eq!(current_workers(), 2, "nested scope left the pool");
                    scope(|inner| {
                        for _ in 0..8 {
                            let sum = Arc::clone(&sum);
                            inner.spawn(move || {
                                sum.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 32);
    }

    /// Nested fan-outs in the `jobs × prep_workers` shape — 4 parents of
    /// 4 subtasks, and a contended 16 × 128 — terminate on stealing pools
    /// of 1, 2 and 4 workers, and every subtask runs exactly once.
    #[test]
    fn nested_4x4_and_16x128_scopes_terminate_on_1_2_and_4_workers() {
        for (parents, subtasks) in [(4usize, 4usize), (16, 128)] {
            for workers in [1usize, 2, 4] {
                let exec = Executor::new(workers);
                let runs: Arc<Vec<AtomicUsize>> = Arc::new(
                    (0..parents * subtasks)
                        .map(|_| AtomicUsize::new(0))
                        .collect(),
                );
                exec.scope(|s| {
                    for p in 0..parents {
                        let runs = Arc::clone(&runs);
                        s.spawn(move || {
                            scope(|inner| {
                                for i in 0..subtasks {
                                    let runs = Arc::clone(&runs);
                                    inner.spawn(move || {
                                        runs[p * subtasks + i].fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                        });
                    }
                });
                for (slot, count) in runs.iter().enumerate() {
                    assert_eq!(
                        count.load(Ordering::Relaxed),
                        1,
                        "{parents}x{subtasks} on {workers} workers: subtask {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn deep_nesting_on_one_worker_terminates() {
        // The no-deadlock guarantee at the smallest pool: a 1-worker pool
        // with three levels of nested scopes still completes, because
        // every scope owner helps with its own tasks inline.
        let exec = Executor::new(1);
        let sum = Arc::new(AtomicUsize::new(0));
        exec.scope(|s| {
            for _ in 0..3 {
                let sum = Arc::clone(&sum);
                s.spawn(move || {
                    scope(|mid| {
                        for _ in 0..3 {
                            let sum = Arc::clone(&sum);
                            mid.spawn(move || {
                                scope(|inner| {
                                    for _ in 0..3 {
                                        let sum = Arc::clone(&sum);
                                        inner.spawn(move || {
                                            sum.fetch_add(1, Ordering::Relaxed);
                                        });
                                    }
                                });
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 27);
    }

    #[test]
    fn owner_helps_while_workers_are_blocked() {
        // Block the only worker, then prove an unrelated scope still
        // completes: the run-inline fallback in action.
        let exec = Executor::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        std::thread::scope(|threads| {
            let blocker_gate = Arc::clone(&gate);
            let blocker_entered = Arc::clone(&entered);
            let exec_ref = &exec;
            threads.spawn(move || {
                exec_ref.scope(|s| {
                    s.spawn(move || {
                        {
                            let (lock, cv) = &*blocker_entered;
                            *lock.lock().unwrap() = true;
                            cv.notify_all();
                        }
                        let (lock, cv) = &*blocker_gate;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                    });
                });
            });
            {
                // Wait until the worker is provably inside the blocker.
                let (lock, cv) = &*entered;
                let mut seen = lock.lock().unwrap();
                while !*seen {
                    seen = cv.wait(seen).unwrap();
                }
            }
            let counter = Arc::new(AtomicUsize::new(0));
            exec.scope(|s| {
                for _ in 0..5 {
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 5);
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
    }

    #[test]
    fn inline_helped_tasks_keep_their_pool_despite_an_override() {
        // Block pool `b`'s only worker so the scope owner must run the
        // task inline — on a thread holding a `with_executor(&a, ...)`
        // override. The task's nested resolution must still see `b`
        // (its own pool), not the override: the enclosing task's pool
        // wins wherever the task happens to execute.
        let a = Executor::new(3);
        let b = Executor::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        std::thread::scope(|threads| {
            let blocker_gate = Arc::clone(&gate);
            let blocker_entered = Arc::clone(&entered);
            let b_ref = &b;
            threads.spawn(move || {
                b_ref.scope(|s| {
                    s.spawn(move || {
                        {
                            let (lock, cv) = &*blocker_entered;
                            *lock.lock().unwrap() = true;
                            cv.notify_all();
                        }
                        let (lock, cv) = &*blocker_gate;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                    });
                });
            });
            {
                let (lock, cv) = &*entered;
                let mut seen = lock.lock().unwrap();
                while !*seen {
                    seen = cv.wait(seen).unwrap();
                }
            }
            let observed = Arc::new(AtomicUsize::new(0));
            let report = Arc::clone(&observed);
            with_executor(&a, || {
                b.scope(|s| {
                    s.spawn(move || {
                        report.store(current_workers(), Ordering::Relaxed);
                    });
                });
            });
            assert_eq!(
                observed.load(Ordering::Relaxed),
                1,
                "the inline-helped task resolved to the override pool"
            );
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn task_panics_propagate_to_the_scope_owner() {
        let exec = Executor::new(2);
        exec.scope(|s| {
            s.spawn(|| panic!("task boom"));
        });
    }

    #[test]
    fn panic_still_waits_for_sibling_tasks() {
        let exec = Executor::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                s.spawn(|| panic!("first"));
                for _ in 0..10 {
                    let finished = Arc::clone(&finished);
                    s.spawn(move || {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "the panic must surface");
        assert_eq!(
            observed.load(Ordering::Relaxed),
            10,
            "siblings finish before the panic is re-raised"
        );
    }

    /// Force worker B to steal from worker A's deque: a task running on
    /// A spawns a subtask into A's own deque and then spins in the scope
    /// body until someone *else* has claimed it. Returns once the stolen
    /// task ran. `payload` runs inside the stolen task.
    fn run_stolen(exec: &Executor, payload: impl FnOnce() + Send + 'static) {
        let claimed = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&claimed);
        let started_tx = Arc::clone(&started);
        exec.scope(|s| {
            s.spawn(move || {
                started_tx.store(true, Ordering::SeqCst);
                scope(|inner| {
                    let claimed = Arc::clone(&seen);
                    inner.spawn(move || {
                        claimed.store(true, Ordering::SeqCst);
                        payload();
                    });
                    // The subtask sits in THIS worker's deque; only a
                    // thief can claim it while we spin here, because the
                    // owner does not help until the body returns.
                    while !seen.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            // Hold the body open until a worker runs the outer task: the
            // owner only starts help-running after the body returns, so
            // this pins the task (and therefore the subtask's deque) to a
            // real pool worker instead of racing the owner's inline help.
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn panic_from_a_stolen_task_propagates_to_the_owning_scope() {
        let exec = Executor::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_stolen(&exec, || panic!("stolen boom"));
        }));
        let payload = result.expect_err("the stolen task's panic must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "stolen boom", "wrong payload propagated");
    }

    #[test]
    fn steals_are_counted_when_enabled() {
        dapc_obs::set_enabled(true);
        let before = match dapc_obs::MetricsSnapshot::capture().get("exec.steals") {
            Some(dapc_obs::SnapshotEntry::Counter { value, .. }) => *value,
            _ => 0,
        };
        let exec = Executor::new(2);
        run_stolen(&exec, || {});
        let after = match dapc_obs::MetricsSnapshot::capture().get("exec.steals") {
            Some(dapc_obs::SnapshotEntry::Counter { value, .. }) => *value,
            _ => 0,
        };
        assert!(
            after > before,
            "forced steal not counted ({before} -> {after})"
        );
    }

    #[test]
    fn with_executor_overrides_the_global_pool() {
        let exec = Executor::new(3);
        let (inside, outside) = (with_executor(&exec, current_workers), global().workers());
        assert_eq!(inside, 3);
        // The override is scoped: back outside we see the global pool.
        assert_eq!(current_workers(), outside);
    }

    /// The `DAPC_EXEC_WORKERS` sizing rules, exhaustively: a parsed `0`
    /// must clamp to a 1-worker pool (the old code let it fall through to
    /// the host default, and a hypothetical zero-worker pool would strand
    /// tasks queued by submitters that never help-run — non-scope owners
    /// have no inline fallback), garbage falls back to the host size, and
    /// surrounding whitespace is tolerated.
    #[test]
    fn env_override_clamps_zero_to_one_worker() {
        assert_eq!(override_workers(Some("0")), Some(1));
        assert_eq!(override_workers(Some("00")), Some(1));
        assert_eq!(override_workers(Some(" 0 ")), Some(1));
        assert_eq!(override_workers(Some("1")), Some(1));
        assert_eq!(override_workers(Some("6")), Some(6));
        assert_eq!(override_workers(Some(" 4\n")), Some(4));
        assert_eq!(override_workers(Some("")), None, "empty: host default");
        assert_eq!(override_workers(Some("-2")), None, "signed: host default");
        assert_eq!(override_workers(Some("two")), None, "garbage: host default");
        assert_eq!(override_workers(None), None, "unset: host default");
    }

    #[test]
    fn metrics_observe_injector_wait_and_run_when_enabled() {
        dapc_obs::set_enabled(true);
        let exec = Executor::new(2);
        exec.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {});
            }
        });
        let snap = dapc_obs::MetricsSnapshot::capture();
        for name in [
            "exec.injector.depth",
            "exec.task.wait_micros",
            "exec.task.run_micros",
        ] {
            match snap.get(name) {
                Some(dapc_obs::SnapshotEntry::Histogram { count, .. }) => {
                    assert!(*count >= 8, "{name}: {count} < 8 observations")
                }
                other => panic!("{name} missing or wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let exec = Executor::new(0);
        assert_eq!(exec.workers(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let observe = Arc::clone(&ran);
        exec.scope(|s| {
            s.spawn(move || {
                observe.store(9, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 9);
    }
}
