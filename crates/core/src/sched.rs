//! The work-stealing scheduler shared by the per-run explorer
//! ([`crate::engine`]) and the serving subsystem's long-lived pool
//! ([`crate::server`]), with its counters ([`SchedStats`]).

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Work-stealing scheduler counters for one run, merged across workers.
///
/// Excluded from serialized reports (`#[serde(skip)]` on
/// [`crate::engine::ExecutionReport::sched`], absent from the JSON rendering)
/// for the same reason as the solver's cache-layer counters: they are
/// measurements of how a run went (which worker pops which path is
/// scheduling-dependent), not of what was asked, and reports must stay
/// byte-identical across thread counts.
/// The sec85 table and the bench harness print them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Paths a worker popped from its own deque (the contention-free case).
    pub local_hits: u64,
    /// Steal operations: each takes a batch from the FIFO end of a victim's
    /// deque and immediately runs the batch's first path.
    pub steals: u64,
    /// Extra paths carried along by batch steals (beyond the one executed
    /// immediately); they are re-queued on the thief's own deque, so one steal
    /// keeps a previously starved worker busy for several steps.
    pub batch_stolen: u64,
    /// Forked children that did not fit the bounded local deque and spilled
    /// to the shared overflow injector.
    pub overflow_pushes: u64,
}

impl SchedStats {
    /// Merges another worker's counters into this record.
    pub fn merge(&mut self, other: &SchedStats) {
        self.local_hits += other.local_hits;
        self.steals += other.steals;
        self.batch_stolen += other.batch_stolen;
        self.overflow_pushes += other.overflow_pushes;
    }
}

/// Capacity of each worker's local deque. Children beyond this spill to the
/// shared overflow injector, which doubles as natural load shedding: a worker
/// producing paths faster than it can drain them hands the surplus to idle
/// peers without waiting to be robbed.
pub(crate) const LOCAL_DEQUE_CAP: usize = 256;

/// The work-stealing scheduler of every exploration — generic over the work
/// item so the serving subsystem ([`crate::server`]) can run the same protocol
/// over query-tagged paths in a long-lived pool.
///
/// Topology: one bounded deque per worker plus one shared overflow injector.
/// The owner pushes and pops at the *back* of its deque (LIFO — depth-first
/// locally, which keeps the working set small and the persistent-state
/// sharing warm), thieves and the injector path take from the *front* (FIFO —
/// the oldest, shallowest path, whose subtree is the largest unit of work a
/// thief can take in one grab). See DESIGN.md for the protocol diagram.
///
/// Termination: `outstanding` counts queued plus in-flight paths. It is
/// incremented for a step's children *before* they are published and
/// decremented for the finished step *after*, so it can only read zero once
/// no path exists anywhere and none is being processed — at which point every
/// worker exits. `queued` (incremented before a push, decremented after a
/// pop) lets an idle worker decide, under the sleep lock, whether anything is
/// worth re-scanning; producers bump it before taking the same lock to
/// notify, so a sleeper can never miss a wakeup.
///
/// A **persistent** scheduler (the server pool) never terminates on
/// `outstanding == 0`: an empty pool just means no query is in flight, so
/// idle workers sleep until [`StealScheduler::inject`] publishes the roots of
/// a newly admitted query or [`StealScheduler::stop`] shuts the pool down.
pub(crate) struct StealScheduler<T> {
    /// One bounded deque per worker.
    locals: Vec<Mutex<VecDeque<T>>>,
    /// Shared overflow injector: the injection roots plus local overflow.
    injector: Mutex<VecDeque<T>>,
    /// Queued + in-flight paths; 0 means no work can ever appear again.
    outstanding: AtomicUsize,
    /// Paths currently sitting in some queue (conservative: incremented
    /// before a push becomes visible, decremented after a pop).
    queued: AtomicUsize,
    /// Set when the path budget stops the run (or a worker panics).
    stopped: AtomicBool,
    /// The first caught worker panic, rendered as text. Recorded *before*
    /// `stop()` so the driver can distinguish "stopped by budget" from
    /// "stopped by panic".
    panic: Mutex<Option<String>>,
    /// Sleep coordination for idle workers.
    idle: Mutex<()>,
    ready: Condvar,
    /// Long-lived pool mode: an empty scheduler parks its workers instead of
    /// terminating them (see the type docs).
    persistent: bool,
}

/// Locks a mutex, tolerating poison: the engine catches worker panics and
/// shuts the run down itself, so a poisoned lock only means "some worker
/// unwound mid-step" — the protected data (queues of pending paths, the panic
/// slot) is still structurally valid and the remaining workers must keep
/// draining instead of cascading `expect("poisoned")` panics through the
/// whole pool.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload as text (panics carry `&str` or `String`
/// payloads in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

impl<T> StealScheduler<T> {
    pub(crate) fn new(workers: usize, roots: Vec<T>) -> Self {
        let count = roots.len();
        StealScheduler {
            locals: (0..workers)
                .map(|_| Mutex::new(VecDeque::with_capacity(LOCAL_DEQUE_CAP)))
                .collect(),
            injector: Mutex::new(VecDeque::from(roots)),
            outstanding: AtomicUsize::new(count),
            queued: AtomicUsize::new(count),
            stopped: AtomicBool::new(false),
            panic: Mutex::new(None),
            idle: Mutex::new(()),
            ready: Condvar::new(),
            persistent: false,
        }
    }

    /// An empty long-lived pool: workers park when no work exists instead of
    /// terminating, and only [`StealScheduler::stop`] ends them. Work arrives
    /// later through [`StealScheduler::inject`].
    pub(crate) fn persistent(workers: usize) -> Self {
        StealScheduler {
            persistent: true,
            ..StealScheduler::new(workers, Vec::new())
        }
    }

    /// Publishes externally produced work (the root paths of a newly admitted
    /// query) onto the shared injector and wakes the pool.
    pub(crate) fn inject(&self, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        self.outstanding
            .fetch_add(items.len(), AtomicOrdering::SeqCst);
        self.queued.fetch_add(items.len(), AtomicOrdering::SeqCst);
        relock(&self.injector).extend(items);
        self.wake_all();
    }

    /// Blocks until a pending path is available for worker `me`; `None` means
    /// the run is over (every queue drained with nothing in flight, or
    /// stopped by the path budget / pool shutdown).
    pub(crate) fn pop(&self, me: usize, stats: &mut SchedStats) -> Option<T> {
        loop {
            if self.stopped.load(AtomicOrdering::SeqCst) {
                return None;
            }
            // 1. Own deque, newest first (contention-free in the common case).
            if let Some(p) = relock(&self.locals[me]).pop_back() {
                self.queued.fetch_sub(1, AtomicOrdering::SeqCst);
                stats.local_hits += 1;
                return Some(p);
            }
            // 2. Shared overflow injector (roots + spilled children), oldest
            // first.
            if let Some(p) = relock(&self.injector).pop_front() {
                self.queued.fetch_sub(1, AtomicOrdering::SeqCst);
                return Some(p);
            }
            // 3. Steal from a victim, scanning peers round-robin from our
            // right neighbour so thieves spread instead of mobbing worker 0.
            // Steal-half batching: take up to half the victim's deque from the
            // FIFO end (the oldest, shallowest paths — the largest subtrees) in
            // one lock acquisition, run the first stolen path now and park the
            // rest on our own (empty — we only steal when dry) deque. One
            // steal thus feeds a starved worker for several steps instead of
            // sending it back to the victim's lock after every path.
            let n = self.locals.len();
            for offset in 1..n {
                let victim = (me + offset) % n;
                let batch: Vec<T> = {
                    let mut deque = relock(&self.locals[victim]);
                    let take = deque.len().div_ceil(2).min(LOCAL_DEQUE_CAP);
                    deque.drain(..take).collect()
                };
                if batch.is_empty() {
                    continue;
                }
                stats.steals += 1;
                stats.batch_stolen += (batch.len() - 1) as u64;
                // Only the path we execute leaves the queues; the rest stay
                // queued (now on our deque), so `queued` drops by exactly one.
                self.queued.fetch_sub(1, AtomicOrdering::SeqCst);
                let mut batch = batch.into_iter();
                let first = batch.next();
                let rest: Vec<T> = batch.collect();
                if !rest.is_empty() {
                    relock(&self.locals[me]).extend(rest);
                    // The parked paths became stealable again from a new
                    // location; let sleepers re-scan.
                    self.wake_all();
                }
                return first;
            }
            // 4. Nothing anywhere: the run is over iff nothing is in flight
            // (in-flight steps may still publish children). Otherwise sleep
            // until a producer notifies; the double-check of `queued` under
            // the sleep lock closes the race with a producer that published
            // between our scan and the lock (producers bump `queued` before
            // taking the lock to notify). The timeout is a belt-and-braces
            // backstop, not load-bearing. A persistent pool never terminates
            // on emptiness — an idle pool parks here until the next query's
            // roots are injected or the pool is stopped.
            if !self.persistent && self.outstanding.load(AtomicOrdering::SeqCst) == 0 {
                self.wake_all();
                return None;
            }
            let guard = relock(&self.idle);
            if self.queued.load(AtomicOrdering::SeqCst) == 0
                && !self.stopped.load(AtomicOrdering::SeqCst)
                && (self.persistent || self.outstanding.load(AtomicOrdering::SeqCst) != 0)
            {
                let _ = self
                    .ready
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Publishes the children of a finished processing step onto worker
    /// `me`'s deque (overflow spilling to the injector) and retires the step.
    pub(crate) fn complete(&self, me: usize, children: Vec<T>, stats: &mut SchedStats) {
        if !children.is_empty() {
            // Count the children as outstanding *before* they become visible
            // so `outstanding` can never dip to zero while work exists.
            self.outstanding
                .fetch_add(children.len(), AtomicOrdering::SeqCst);
            self.queued
                .fetch_add(children.len(), AtomicOrdering::SeqCst);
            let mut spill: Vec<T> = Vec::new();
            {
                let mut local = relock(&self.locals[me]);
                for child in children {
                    if local.len() < LOCAL_DEQUE_CAP {
                        local.push_back(child);
                    } else {
                        spill.push(child);
                    }
                }
            }
            if !spill.is_empty() {
                stats.overflow_pushes += spill.len() as u64;
                relock(&self.injector).extend(spill);
            }
            self.retire();
            self.wake_all();
        } else {
            self.retire();
        }
    }

    /// Retires one in-flight step; wakes every sleeper if that was the last
    /// outstanding path (so they observe termination).
    pub(crate) fn retire(&self) {
        if self.outstanding.fetch_sub(1, AtomicOrdering::SeqCst) == 1 {
            self.wake_all();
        }
    }

    /// Stops the run (path budget exhausted, a worker unwound, or — for a
    /// persistent pool — shutdown).
    pub(crate) fn stop(&self) {
        self.stopped.store(true, AtomicOrdering::SeqCst);
        self.wake_all();
    }

    /// Records a caught worker panic (the first one wins — later panics are
    /// usually knock-on effects of the first) and stops the run so every peer
    /// drains cleanly instead of waiting forever for the dead step to retire.
    pub(crate) fn poison(&self, message: String) {
        {
            let mut slot = relock(&self.panic);
            if slot.is_none() {
                *slot = Some(message);
            }
        }
        self.stop();
    }

    /// Takes the recorded panic message, if any worker panicked.
    pub(crate) fn take_panic(&self) -> Option<String> {
        relock(&self.panic).take()
    }

    /// Notifies every sleeping worker. Taking the sleep lock orders the
    /// notification after any in-progress sleeper's queue re-check.
    fn wake_all(&self) {
        let _guard = relock(&self.idle);
        self.ready.notify_all();
    }
}
