//! # dapc-exec
//!
//! The process-wide task executor every parallel path of the workspace
//! runs on: one lazily-initialised worker pool sized to the host
//! ([`global`]), a scoped task-group API ([`scope`] /
//! [`Executor::scope`]) with panic propagation, and **nested-task
//! awareness** — a task that opens its own scope (e.g. a batch job whose
//! preparation step shards its exact subset solves) submits to the pool
//! it runs on, never to a child pool, so `jobs × prep_workers` does not
//! oversubscribe the machine.
//!
//! The pool is one FIFO queue behind a mutex. Every spawn, from any
//! thread, goes to the back and wakes one idle worker; a worker takes the
//! front, or sleeps on the queue's condvar while it is empty.
//! `crates/exec/README.md` walks through the design.
//!
//! Two rules make the nesting deadlock-free at any pool size, one worker
//! included:
//!
//! 1. **Owners help.** After the scope body returns, the scope-owning
//!    thread takes the scope's still-queued tasks out of the queue and
//!    runs them inline, so a scope completes even when every worker is
//!    busy or blocked in a deeper scope.
//! 2. **No cross-scope waits.** A scope waits only for the tasks it
//!    spawned, and its owner runs only those, so independent scopes
//!    sharing the pool cannot entangle.
//!
//! A task runs to completion on the thread that took it; nothing
//! preempts it, and termination never needs that (rule 1). The executor
//! decides only *where and when* a task runs, never what it computes, so
//! every caller's output is byte-identical at any worker count.
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

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{JoinHandle, LocalKey};
use std::time::Instant;

/// Cached handles onto the process-wide metrics registry. Every recording
/// site gates on [`dapc_obs::enabled`] first, so the disabled path costs
/// one relaxed atomic load and never reads the clock.
mod metrics {
    use dapc_obs::{Counter, Histogram};
    use std::sync::OnceLock;

    /// Queue length right after every spawn.
    pub fn queue_depth() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(|| dapc_obs::histogram("exec.queue.depth"))
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

    /// Times an idle worker went to sleep on the queue's condvar.
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
    queue: Mutex<Queue>,
    /// Signalled once per spawn (one idle worker) and at shutdown (all).
    ready: Condvar,
    /// Worker threads owned by the pool.
    workers: usize,
}

/// The pool's one task queue and its shutdown flag, under one lock.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("executor queue lock")
    }
}

/// Per-scope bookkeeping: how many of the scope's tasks are still queued
/// or running, and the first panic payload to re-raise at the scope exit.
#[derive(Default)]
struct Group {
    state: Mutex<GroupState>,
    /// Signalled when `pending` drops to zero. [`run_task`] decrements
    /// `pending` under `state` *before* notifying, so a waiter that saw
    /// `pending > 0` under the lock is guaranteed a later notification.
    done: Condvar,
}

#[derive(Default)]
struct GroupState {
    pending: usize,
    payload: Option<Box<dyn Any + Send>>,
}

/// A thread's stack of pools, innermost last.
type PoolStack = RefCell<Vec<Arc<Shared>>>;

thread_local! {
    /// Pools whose tasks the current thread is executing, innermost last
    /// (pool workers and inline helpers both push here around a task).
    static TASK_POOL: PoolStack = const { RefCell::new(Vec::new()) };
    /// Explicit [`with_executor`] overrides, innermost last.
    static OVERRIDE: PoolStack = const { RefCell::new(Vec::new()) };
}

/// RAII pop for the thread-local pool stacks.
struct StackGuard(&'static LocalKey<PoolStack>);

impl StackGuard {
    fn push(key: &'static LocalKey<PoolStack>, s: &Arc<Shared>) -> Self {
        key.with(|stack| stack.borrow_mut().push(Arc::clone(s)));
        StackGuard(key)
    }
}

impl Drop for StackGuard {
    fn drop(&mut self) {
        self.0.with(|stack| stack.borrow_mut().pop());
    }
}

/// A fixed-size worker pool with scoped task groups.
///
/// Most code should not construct one: [`scope`] and [`current_workers`]
/// resolve to the pool of the enclosing task, an explicit
/// [`with_executor`] override, or the [`global`] pool, in that order. A
/// private executor is for tests pinning a worker count and for embedders
/// that must isolate their pool.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool with `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::default(),
            ready: Condvar::new(),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dapc-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
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
        // Setting the flag is valid in any queue state, so a lock poisoned
        // by a panic elsewhere must not make this drop panic too.
        let locked = self.shared.queue.lock();
        locked.unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.ready.notify_all();
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
    /// Queues a task on the scope's pool: it goes to the back of the
    /// queue, from any thread, and wakes one idle worker.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.group.state.lock().expect("scope group lock").pending += 1;
        let observed = dapc_obs::enabled();
        let task = Task {
            group: Arc::clone(&self.group),
            job: Box::new(f),
            // dapc-allow(wall-clock): queue-wait telemetry only, gated on dapc_obs::enabled
            enqueued_at: observed.then(Instant::now),
        };
        let depth = {
            let mut queue = self.shared.lock();
            queue.tasks.push_back(task);
            queue.tasks.len()
        };
        self.shared.ready.notify_one();
        if observed {
            metrics::queue_depth().observe(depth as u64);
        }
    }
}

/// Runs one task and settles its group bookkeeping. The pool sits on the
/// thread's task stack meanwhile, so nested [`scope`] calls land on it
/// whether the task runs on a worker or inline in a helping owner.
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

/// A pool worker: runs the queue's front task, sleeps on `ready` while
/// the queue is empty, and exits once shut down with nothing queued, so
/// dropping the executor still drains queued work.
fn worker_loop(shared: &Arc<Shared>) {
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            run_task(shared, task);
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            if dapc_obs::enabled() {
                metrics::parks().inc();
            }
            queue = shared.ready.wait(queue).expect("executor queue lock");
        }
    }
}

/// The owner side of a scope: run the scope's own still-queued tasks
/// inline, oldest first, then wait for the ones running elsewhere. Tasks
/// of other scopes stay queued for the workers and their own owners.
///
/// Termination argument: the group's task set is fixed once the scope
/// body returns (spawning needs the borrowed [`Scope`]), so a scan that
/// finds none of the group's tasks queued means every remaining one is
/// running elsewhere. The owner then waits on the *group's own* condvar
/// until `pending` reaches zero, without re-taking the queue lock; the
/// wakeup ordering that makes that sound is documented on [`Group::done`].
fn help_until_done(shared: &Arc<Shared>, group: &Arc<Group>) {
    loop {
        let task = {
            let mut queue = shared.lock();
            let ours = queue
                .tasks
                .iter()
                .position(|t| Arc::ptr_eq(&t.group, group));
            ours.and_then(|i| queue.tasks.remove(i))
        };
        let Some(task) = task else { break };
        if dapc_obs::enabled() {
            metrics::help_runs().inc();
        }
        run_task(shared, task);
    }
    let mut g = group.state.lock().expect("scope group lock");
    while g.pending > 0 {
        g = group.done.wait(g).expect("scope group lock");
    }
}

fn scope_on<T>(shared: &Arc<Shared>, f: impl FnOnce(&Scope<'_>) -> T) -> T {
    let group = Arc::new(Group::default());
    let s = Scope {
        shared,
        group: Arc::clone(&group),
    };
    let body = catch_unwind(AssertUnwindSafe(|| f(&s)));
    help_until_done(shared, &group);
    let task_payload = group.state.lock().expect("scope group lock").payload.take();
    // The body's own panic wins; either way every task has finished.
    let value = body.unwrap_or_else(|payload| resume_unwind(payload));
    match task_payload {
        Some(payload) => resume_unwind(payload),
        None => value,
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
    // The enclosing task's pool wins over a `with_executor` override, so
    // a task resolves the same pool whether it runs on a worker or inline
    // in a helping owner whose thread holds an override for *entering*
    // work, not for work passing through.
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

    /// A one-shot latch: [`Gate::wait`] blocks until [`Gate::open`].
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Gate {
        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }

        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }
    }

    /// Blocks `exec`'s only worker in a task until `release` opens, and
    /// returns once the worker is provably inside it. The blocker's scope
    /// is owned by a thread of `threads`, whose body stays open until the
    /// worker has taken the task, so the owner cannot run it inline.
    fn block_the_worker<'scope>(
        threads: &'scope std::thread::Scope<'scope, '_>,
        exec: &'scope Executor,
        release: &Arc<Gate>,
    ) {
        let entered = Arc::new(Gate::default());
        let (entered_tx, entered_body) = (Arc::clone(&entered), Arc::clone(&entered));
        let release = Arc::clone(release);
        threads.spawn(move || {
            exec.scope(|s| {
                s.spawn(move || {
                    entered_tx.open();
                    release.wait();
                });
                entered_body.wait();
            });
        });
        entered.wait();
    }

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
        // 2-worker pool (one queue + owner help).
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
    /// 4 subtasks, and a contended 16 × 128 — terminate on pools of 1, 2
    /// and 4 workers, and every subtask runs exactly once.
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
        let release = Arc::new(Gate::default());
        std::thread::scope(|threads| {
            block_the_worker(threads, &exec, &release);
            let counter = Arc::new(AtomicUsize::new(0));
            exec.scope(|s| {
                for _ in 0..5 {
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            release.open();
            assert_eq!(counter.load(Ordering::Relaxed), 5);
        });
    }

    /// A helping owner takes only its own group's tasks: a foreign task
    /// queued ahead of them stays queued for the worker or its own owner.
    /// If the help scan took any queued task, the foreign task would run
    /// on this thread before the gate opens, and the test would fail
    /// rather than hang.
    #[test]
    fn owner_helps_only_its_own_group() {
        let exec = Executor::new(1);
        let release = Arc::new(Gate::default());
        let queued = Gate::default();
        let foreign = Arc::new(Mutex::new(Vec::new()));
        let counter = Arc::new(AtomicUsize::new(0));
        let early = std::thread::scope(|threads| {
            block_the_worker(threads, &exec, &release);
            threads.spawn(|| {
                exec.scope(|s| {
                    let foreign = Arc::clone(&foreign);
                    s.spawn(move || foreign.lock().unwrap().push(std::thread::current().id()));
                    queued.open();
                    // Hold the body open so this owner does not help yet.
                    release.wait();
                })
            });
            queued.wait();
            exec.scope(|s| {
                for _ in 0..5 {
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            let early = foreign.lock().unwrap().len();
            release.open();
            early
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5);
        assert_eq!(early, 0, "the owner ran another scope's task");
        let runs = foreign.lock().unwrap();
        assert_eq!(runs.len(), 1, "the foreign task ran once");
        assert_ne!(runs[0], std::thread::current().id());
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
        let release = Arc::new(Gate::default());
        std::thread::scope(|threads| {
            block_the_worker(threads, &b, &release);
            let observed = Arc::new(AtomicUsize::new(0));
            let report = Arc::clone(&observed);
            with_executor(&a, || {
                b.scope(|s| {
                    s.spawn(move || {
                        report.store(current_workers(), Ordering::Relaxed);
                    });
                });
            });
            release.open();
            assert_eq!(
                observed.load(Ordering::Relaxed),
                1,
                "the inline-helped task resolved to the override pool"
            );
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

    /// Runs `payload` in a task that a worker other than its scope's
    /// owner runs: a task on worker A opens a scope, spawns the subtask
    /// and spins in the scope body until someone *else* has taken it.
    /// Returns once the subtask ran.
    fn run_on_another_worker(exec: &Executor, payload: impl FnOnce() + Send + 'static) {
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
                    // Only another worker can take the subtask while we
                    // spin here, because the owner does not help until
                    // the body returns.
                    while !seen.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            });
            // Hold the body open until a worker runs the outer task: the
            // owner only starts help-running after the body returns, so
            // this pins the task (and therefore the subtask's scope) to a
            // real pool worker instead of racing the owner's inline help.
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn panic_from_another_workers_task_propagates_to_the_owning_scope() {
        let exec = Executor::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_on_another_worker(&exec, || panic!("remote boom"));
        }));
        let payload = result.expect_err("the remote task's panic must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "remote boom", "wrong payload propagated");
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
    fn metrics_observe_queue_depth_wait_and_run_when_enabled() {
        dapc_obs::set_enabled(true);
        let exec = Executor::new(2);
        exec.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {});
            }
        });
        let snap = dapc_obs::MetricsSnapshot::capture();
        for name in [
            "exec.queue.depth",
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
