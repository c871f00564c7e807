//! The work queue primitive of the stealing executor: a double-ended
//! queue in the Chase–Lev *shape* — the owning worker pushes and pops at
//! the bottom (LIFO, depth-first), thieves take from the top (FIFO, the
//! oldest and therefore coarsest task) — shared by the per-worker deques
//! and the global injector.
//!
//! The crate forbids `unsafe`, so this is not the lock-free Chase–Lev
//! *implementation*: the buffer sits behind a `Mutex`. What the shape
//! buys even so is the removal of the old executor's global bottleneck —
//! each worker's pushes and pops contend only with the occasional thief
//! on that worker's own short critical section, never with every other
//! submitter and worker in the process. An atomic length mirror lets
//! thieves and idle-path probes skip empty deques without touching the
//! lock at all; the mirror is advisory (relaxed), so the only callers
//! allowed to *conclude* emptiness from it are ones where staleness is
//! harmless (a skipped steal retries). The parking path re-checks under
//! the real locks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A lockable deque with an advisory length mirror.
pub(crate) struct WorkDeque<T> {
    inner: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> WorkDeque<T> {
    pub(crate) fn new() -> Self {
        WorkDeque {
            inner: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Advisory length (relaxed read of the mirror, no lock).
    pub(crate) fn probe_len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().expect("work deque lock")
    }

    fn sync_len(&self, q: &VecDeque<T>) {
        self.len.store(q.len(), Ordering::Relaxed);
    }

    /// Owner push (bottom / LIFO end). Returns the new length.
    pub(crate) fn push_bottom(&self, item: T) -> usize {
        let mut q = self.lock();
        q.push_back(item);
        self.sync_len(&q);
        q.len()
    }

    /// Push at the *top*: used by the injector for nested spawns from
    /// threads that are not pool workers, so finer-grained work a coarser
    /// task is waiting on is taken before queued coarse work (the
    /// depth-first rule of the old shared queue). Returns the new length.
    pub(crate) fn push_top(&self, item: T) -> usize {
        let mut q = self.lock();
        q.push_front(item);
        self.sync_len(&q);
        q.len()
    }

    /// Owner pop (bottom / LIFO end).
    pub(crate) fn pop_bottom(&self) -> Option<T> {
        let mut q = self.lock();
        let item = q.pop_back();
        self.sync_len(&q);
        item
    }

    /// Thief pop (top / FIFO end). Also how workers drain the injector.
    pub(crate) fn steal_top(&self) -> Option<T> {
        let mut q = self.lock();
        let item = q.pop_front();
        self.sync_len(&q);
        item
    }

    /// Removes the bottom-most item matching `pred` (most recently
    /// pushed first — the owner's depth-first help order).
    pub(crate) fn take_matching_bottom(&self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let mut q = self.lock();
        let item = q.iter().rposition(pred).and_then(|i| q.remove(i));
        self.sync_len(&q);
        item
    }

    /// Removes the top-most item matching `pred` (oldest first — the
    /// order a thief or a foreign scope owner scans in).
    pub(crate) fn take_matching_top(&self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let mut q = self.lock();
        let item = q.iter().position(pred).and_then(|i| q.remove(i));
        self.sync_len(&q);
        item
    }

    /// Whether any item matches, under the real lock (not the mirror).
    /// Only the parking re-check needs this level of certainty.
    pub(crate) fn locked_is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_is_lifo_top_is_fifo() {
        let d = WorkDeque::new();
        assert_eq!(d.push_bottom(1), 1);
        assert_eq!(d.push_bottom(2), 2);
        assert_eq!(d.push_bottom(3), 3);
        // Owner sees its most recent push first…
        assert_eq!(d.pop_bottom(), Some(3));
        // …a thief sees the oldest.
        assert_eq!(d.steal_top(), Some(1));
        assert_eq!(d.pop_bottom(), Some(2));
        assert_eq!(d.pop_bottom(), None);
        assert_eq!(d.steal_top(), None);
    }

    #[test]
    fn push_top_jumps_the_queue() {
        let d = WorkDeque::new();
        d.push_bottom(1);
        d.push_top(9);
        assert_eq!(d.steal_top(), Some(9));
        assert_eq!(d.steal_top(), Some(1));
    }

    #[test]
    fn matching_takes_respect_direction() {
        let d = WorkDeque::new();
        for i in 1..=4 {
            d.push_bottom(i);
        }
        assert_eq!(d.take_matching_bottom(|&x| x % 2 == 0), Some(4));
        assert_eq!(d.take_matching_top(|&x| x % 2 == 0), Some(2));
        assert_eq!(d.take_matching_top(|&x| x > 10), None);
        assert_eq!(d.probe_len(), 2);
        assert!(!d.locked_is_empty());
    }

    #[test]
    fn length_mirror_tracks_every_mutation() {
        let d = WorkDeque::new();
        assert_eq!(d.probe_len(), 0);
        d.push_bottom(1);
        d.push_top(0);
        assert_eq!(d.probe_len(), 2);
        d.steal_top();
        assert_eq!(d.probe_len(), 1);
        d.pop_bottom();
        assert_eq!(d.probe_len(), 0);
        assert!(d.locked_is_empty());
    }
}
