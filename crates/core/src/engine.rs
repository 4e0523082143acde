//! The symbolic executor.
//!
//! [`SymNet::inject`] creates an empty packet, runs the packet-construction
//! block, delivers the resulting symbolic packet to an input port and then
//! explores every path through the network: SEFL instructions are interpreted
//! over [`ExecState`]s, `If`/`Fork` spawn new paths, `Constrain`/`Fail` and
//! memory-safety violations terminate paths, links move packets between
//! elements, and the Figure 5 state-inclusion check detects loops.
//!
//! Distinct symbolic paths are independent, so exploration is parallel by
//! default, driven by a **work-stealing scheduler** (`StealScheduler`):
//! each of the [`ExecConfig::threads`] workers owns a bounded LIFO deque it
//! pushes forked children onto and pops from without contending with anyone;
//! only when its deque runs dry does it steal a batch of the *oldest* paths —
//! up to half the victim's deque, from the FIFO end, where the shallowest
//! forks with the largest subtrees sit — or drain the shared overflow
//! injector that absorbs local-deque overflow and the injection roots. Each
//! worker owns a thread-local [`Solver`] whose statistics are merged at the
//! end, and per-worker [`SchedStats`] count local hits, steals, batch-stolen
//! paths and overflow pushes.
//!
//! Reports stay deterministic no matter how paths migrate between workers —
//! every emitted path carries its fork lineage (the breadth-first position of
//! the pending path that emitted it plus the emission index within that
//! step), and the final report is sorted into exactly the order the
//! single-threaded engine produces, so the JSON output is byte-identical for
//! any thread count (the one exception is a run truncated by the
//! [`ExecConfig::max_paths`] cap, whose exact count is honoured but whose
//! surviving paths are scheduling-dependent).
//!
//! Forking is O(1) end-to-end: the path condition is a persistent cons-list
//! ([`symnet_solver::PathCond`]), the loop-detection history an `Arc`-shared
//! `History` list, and the header/metadata maps and the trace inside
//! [`ExecState`] are persistent too ([`crate::pmap::PMap`],
//! [`crate::state::Trace`]) — children share their parent's structure instead
//! of deep-copying it, and the solver reuses the analysis cached on the
//! shared path-condition prefix ([`Solver::check_path`]).

use crate::error::{DropReason, EngineError, ExecError};
use crate::network::{ElementId, Network};
use crate::state::{ExecState, TraceEntry};
use crate::symbols::VarAllocator;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use symnet_sefl::field::FieldRef;
use symnet_sefl::fields;
use symnet_sefl::instr::Instruction;
use symnet_solver::{IntervalSet, Solver, SolverConfig, SolverStats};

/// Configuration of a symbolic execution run.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Maximum number of input ports a single path may visit.
    pub max_hops: usize,
    /// Whether to run the Figure 5 loop-detection check at every input port.
    pub detect_loops: bool,
    /// Header fields compared by the loop detector. The paper notes that
    /// comparing only the source and destination IP addresses catches
    /// forwarding loops that a full-state comparison would miss (the TTL
    /// always differs), so that is the default.
    pub loop_fields: Vec<FieldRef>,
    /// Include paths pruned as infeasible `If` branches in the report.
    pub include_pruned: bool,
    /// Hard cap on the total number of reported paths (runaway-model guard).
    /// Exact at any thread count: each reported path reserves a slot from a
    /// shared atomic budget at emission time, so a truncated run reports
    /// precisely this many paths (which paths survive truncation is
    /// scheduling-dependent under multiple workers).
    pub max_paths: usize,
    /// Number of worker threads exploring paths. `1` runs the exact
    /// single-threaded legacy loop (no queue locking, no thread spawn); the
    /// default is the machine's available parallelism. As long as the run
    /// stays under [`ExecConfig::max_paths`], the report is byte-identical
    /// for every thread count; a run that hits the cap reports exactly
    /// `max_paths` paths, but which ones is scheduling-dependent (see
    /// `max_paths`).
    pub threads: usize,
    /// Constraint-solver limits.
    pub solver: SolverConfig,
    /// Optional directory for the persistent (disk-backed) solver cache.
    /// The cache itself is process-global, so this is activated *once* per
    /// process — by [`ExecConfig::activate_cache`] from whoever owns the
    /// entry point (the `paper` binary, [`crate::SymNetServer::start`]) —
    /// not per run. `None` (the default) leaves the disk layer off; the
    /// in-process memos are unaffected either way.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl ExecConfig {
    /// The default worker count: every hardware thread.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Returns this configuration with a different worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns this configuration with a persistent solver-cache directory.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Points the process-global persistent solver cache at
    /// [`ExecConfig::cache_dir`], warm-loading any records a previous process
    /// left there. Returns `Ok(true)` when the cache is active, `Ok(false)`
    /// when no directory is configured *or* another live process holds the
    /// store lock (the run proceeds with a cold cache — degraded, never
    /// wrong).
    pub fn activate_cache(&self) -> std::io::Result<bool> {
        match &self.cache_dir {
            Some(dir) => symnet_solver::cache::configure(dir),
            None => Ok(false),
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_hops: 64,
            detect_loops: true,
            loop_fields: vec![fields::ip_src().field(), fields::ip_dst().field()],
            include_pruned: false,
            max_paths: 100_000,
            threads: ExecConfig::default_threads(),
            solver: SolverConfig::default(),
            cache_dir: None,
        }
    }
}

/// Where and why a path ended.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathStatus {
    /// The packet reached an output port with no outgoing link — the path's
    /// natural end, where reachability queries inspect the state.
    Delivered {
        /// Element where the packet ended.
        element: ElementId,
        /// Output port index where the packet ended.
        port: usize,
    },
    /// The path terminated early.
    Dropped {
        /// Element where the path ended.
        element: ElementId,
        /// Why the path ended.
        reason: DropReason,
    },
}

impl PathStatus {
    /// True if the packet was delivered to an unlinked output port.
    pub fn is_delivered(&self) -> bool {
        matches!(self, PathStatus::Delivered { .. })
    }
}

/// One explored execution path.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PathReport {
    /// Sequential path identifier.
    pub id: usize,
    /// Where and why the path ended.
    pub status: PathStatus,
    /// The final execution state (headers, metadata, tags, path condition,
    /// trace).
    pub state: ExecState,
}

impl PathReport {
    /// True if this path delivered the packet.
    pub fn is_delivered(&self) -> bool {
        self.status.is_delivered()
    }

    /// Ports visited by this path, in order.
    pub fn ports_visited(&self) -> Vec<&str> {
        self.state.ports_visited()
    }
}

/// Work-stealing scheduler counters for one run, merged across workers.
///
/// Excluded from serialized reports (`#[serde(skip)]` on
/// [`ExecutionReport::sched`], absent from the JSON rendering) for the same
/// reason as the solver's cache-layer counters: they are measurements of how
/// a run went (which worker pops which path is scheduling-dependent), not of
/// what was asked, and reports must stay byte-identical across thread counts.
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

/// The result of one [`SymNet::inject`] call.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Every explored path.
    pub paths: Vec<PathReport>,
    /// The symbolic packet as it was right after construction, before entering
    /// the first input port. Verification queries compare final states against
    /// this (field invariance, header visibility).
    pub injected: ExecState,
    /// Constraint-solver statistics for this run (the paper reports that >90%
    /// of runtime is solver time).
    pub solver_stats: SolverStats,
    /// Work-stealing scheduler counters (scheduling-dependent, hence skipped
    /// from serialization — see [`SchedStats`]).
    #[serde(skip)]
    pub sched: SchedStats,
    /// Wall-clock duration of the run.
    #[serde(skip)]
    pub wall_time: Duration,
}

impl ExecutionReport {
    /// Paths that delivered the packet to an unlinked output port.
    pub fn delivered(&self) -> impl Iterator<Item = &PathReport> {
        self.paths.iter().filter(|p| p.is_delivered())
    }

    /// Paths delivered at a specific element and output port.
    pub fn delivered_at(
        &self,
        element: ElementId,
        port: usize,
    ) -> impl Iterator<Item = &PathReport> + '_ {
        self.paths
            .iter()
            .filter(move |p| p.status == PathStatus::Delivered { element, port })
    }

    /// Paths that were dropped, with their reasons.
    pub fn dropped(&self) -> impl Iterator<Item = &PathReport> {
        self.paths.iter().filter(|p| !p.is_delivered())
    }

    /// Paths that ended because a loop was detected.
    pub fn loops(&self) -> impl Iterator<Item = &PathReport> {
        self.paths.iter().filter(|p| {
            matches!(
                &p.status,
                PathStatus::Dropped {
                    reason: DropReason::Loop,
                    ..
                }
            )
        })
    }

    /// Total number of explored paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }
}

/// Status of a packet flow while executing one element's code.
#[derive(Clone, Debug, PartialEq, Eq)]
enum FlowStatus {
    /// Still executing.
    Running,
    /// Forwarded to an output port of the current element.
    SentTo(usize),
    /// Terminated.
    Dropped(DropReason),
}

/// A packet flow inside one element.
#[derive(Clone, Debug)]
struct Flow {
    state: ExecState,
    status: FlowStatus,
}

impl Flow {
    fn running(state: ExecState) -> Self {
        Flow {
            state,
            status: FlowStatus::Running,
        }
    }

    fn dropped(state: ExecState, reason: DropReason) -> Self {
        Flow {
            state,
            status: FlowStatus::Dropped(reason),
        }
    }
}

/// One loop-detection snapshot: the port that was visited plus the projected
/// feasible set of every configured loop field at that visit.
#[derive(Debug)]
struct HistoryEntry {
    element: ElementId,
    input_port: usize,
    snapshot: Vec<Option<IntervalSet>>,
    parent: History,
}

/// The per-path history of loop-detection snapshots, as an `Arc`-based
/// persistent list: forking a path shares the parent's history (one pointer
/// clone) instead of copying a vector of interval sets per child.
#[derive(Clone, Debug, Default)]
struct History(Option<Arc<HistoryEntry>>);

impl History {
    /// Returns this history extended by one snapshot (O(1), the receiver
    /// becomes the shared tail).
    #[must_use]
    fn push(
        &self,
        element: ElementId,
        input_port: usize,
        snapshot: Vec<Option<IntervalSet>>,
    ) -> History {
        History(Some(Arc::new(HistoryEntry {
            element,
            input_port,
            snapshot,
            parent: self.clone(),
        })))
    }

    /// Iterates over the entries, newest first.
    fn iter(&self) -> impl Iterator<Item = &HistoryEntry> {
        std::iter::successors(self.0.as_deref(), |e| e.parent.0.as_deref())
    }
}

/// A path waiting to be processed at an element input port.
///
/// Because every component is persistent (`ExecState`, `History`, the
/// allocator is a small value), cloning a `PendingPath` is O(1) — which is
/// what lets the resident service ([`crate::service`]) snapshot every
/// element-entry event as a *checkpoint* and later re-explore only the
/// subtrees invalidated by a rule delta.
#[derive(Clone, Debug)]
pub(crate) struct PendingPath {
    state: ExecState,
    element: ElementId,
    input_port: usize,
    hops: usize,
    /// Per-path history of loop-detection snapshots (persistent list, shared
    /// with the siblings this path forked from).
    history: History,
    /// Fresh-variable allocator for this path. Each path carries its own
    /// allocator (seeded from the post-construction state) so that variable
    /// ids depend only on the path's own history, never on the order in which
    /// worker threads interleave — a prerequisite for deterministic reports.
    symbols: VarAllocator,
    /// Breadth-first position of this pending path: the emission index at
    /// every fork since injection. Comparing `(lineage.len(), lineage)`
    /// lexicographically reproduces the FIFO processing order of the
    /// single-threaded engine.
    lineage: Vec<u32>,
}

impl PendingPath {
    /// The element this path is about to enter (the invalidation key of the
    /// resident service: a rule delta to this element makes the whole subtree
    /// explored from here stale).
    pub(crate) fn element(&self) -> ElementId {
        self.element
    }

    /// The fork lineage of this pending path. `a` is an ancestor of `b` iff
    /// `a.lineage` is a strict prefix of `b.lineage`.
    pub(crate) fn lineage(&self) -> &[u32] {
        &self.lineage
    }

    /// The execution state at this element entry.
    pub(crate) fn state(&self) -> &ExecState {
        &self.state
    }
}

/// Mutable context used by the interpreter while processing one pending path.
/// Workers own one context each — the engine's scoped workers for the length
/// of a run, the serving subsystem's pool workers ([`crate::server`]) for the
/// life of the pool. The solver in it only accumulates statistics; every cache
/// it consults lives on the shared path-condition nodes or is process-wide, so
/// which worker runs a step never changes what that step finds cached.
pub(crate) struct Ctx {
    solver: Solver,
    symbols: VarAllocator,
}

impl Ctx {
    /// A fresh per-worker context. The allocator is a placeholder: every
    /// processed path installs its own allocator for the duration of its step.
    pub(crate) fn new(config: SolverConfig) -> Ctx {
        Ctx {
            solver: Solver::with_config(config),
            symbols: VarAllocator::new(),
        }
    }
}

/// Deterministic sort key of one emitted path: the lineage of the pending
/// path whose processing emitted it, plus the emission index within that
/// processing step. Ordering by `(parent depth, parent lineage, index)` is
/// exactly the emission order of the sequential engine (pending paths are
/// processed in breadth-first lineage order, and a step's emissions are
/// ordered by index).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct EmitKey {
    parent: Vec<u32>,
    event: u32,
}

impl EmitKey {
    /// Lineage of the pending path whose processing emitted this path.
    pub(crate) fn parent(&self) -> &[u32] {
        &self.parent
    }
}

impl Ord for EmitKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parent
            .len()
            .cmp(&other.parent.len())
            .then_with(|| self.parent.cmp(&other.parent))
            .then_with(|| self.event.cmp(&other.event))
    }
}

impl PartialOrd for EmitKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One terminated path, before ids are assigned.
#[derive(Clone, Debug)]
pub(crate) struct RawResult {
    pub(crate) key: EmitKey,
    pub(crate) status: PathStatus,
    pub(crate) state: ExecState,
}

/// The shared path budget enforcing [`ExecConfig::max_paths`] exactly: every
/// reported path reserves one slot atomically *before* it is recorded, so no
/// interleaving of workers can over-produce.
pub(crate) struct PathBudget {
    reserved: AtomicUsize,
    cap: usize,
}

impl PathBudget {
    pub(crate) fn new(cap: usize) -> Self {
        PathBudget {
            reserved: AtomicUsize::new(0),
            cap,
        }
    }

    /// Reserves one report slot; `false` means the cap is reached and the
    /// path must be discarded.
    fn try_reserve(&self) -> bool {
        self.reserved
            .fetch_update(AtomicOrdering::Relaxed, AtomicOrdering::Relaxed, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .is_ok()
    }

    /// True once every slot is taken (exploration can stop).
    pub(crate) fn exhausted(&self) -> bool {
        self.reserved.load(AtomicOrdering::Relaxed) >= self.cap
    }
}

/// Collects the emissions (terminated paths and forked pending paths) of one
/// processing step, assigning lineage/keys from a per-step event counter.
struct StepSink<'a> {
    parent: &'a [u32],
    next_event: u32,
    budget: &'a PathBudget,
    results: &'a mut Vec<RawResult>,
    children: &'a mut Vec<PendingPath>,
}

impl<'a> StepSink<'a> {
    fn new(
        parent: &'a [u32],
        budget: &'a PathBudget,
        results: &'a mut Vec<RawResult>,
        children: &'a mut Vec<PendingPath>,
    ) -> Self {
        StepSink {
            parent,
            next_event: 0,
            budget,
            results,
            children,
        }
    }

    /// Emits a terminated path. The path is recorded only if it fits the
    /// [`ExecConfig::max_paths`] budget (the event index is consumed either
    /// way, keeping sibling ordering stable).
    fn emit(&mut self, status: PathStatus, state: ExecState) {
        let key = EmitKey {
            parent: self.parent.to_vec(),
            event: self.next_event,
        };
        self.next_event += 1;
        if !self.budget.try_reserve() {
            return;
        }
        self.results.push(RawResult { key, status, state });
    }

    /// Spawns a pending path to be processed later.
    fn spawn(
        &mut self,
        state: ExecState,
        element: ElementId,
        input_port: usize,
        hops: usize,
        history: History,
        symbols: VarAllocator,
    ) {
        let mut lineage = self.parent.to_vec();
        lineage.push(self.next_event);
        self.next_event += 1;
        self.children.push(PendingPath {
            state,
            element,
            input_port,
            hops,
            history,
            symbols,
            lineage,
        });
    }
}

/// Capacity of each worker's local deque. Children beyond this spill to the
/// shared overflow injector, which doubles as natural load shedding: a worker
/// producing paths faster than it can drain them hands the surplus to idle
/// peers without waiting to be robbed.
const LOCAL_DEQUE_CAP: usize = 256;

/// The work-stealing scheduler of the parallel driver — generic over the work
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
    fn new(workers: usize, roots: Vec<T>) -> Self {
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
    fn retire(&self) {
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
    fn poison(&self, message: String) {
        {
            let mut slot = relock(&self.panic);
            if slot.is_none() {
                *slot = Some(message);
            }
        }
        self.stop();
    }

    /// Takes the recorded panic message, if any worker panicked.
    fn take_panic(&self) -> Option<String> {
        relock(&self.panic).take()
    }

    /// Notifies every sleeping worker. Taking the sleep lock orders the
    /// notification after any in-progress sleeper's queue re-check.
    fn wake_all(&self) {
        let _guard = relock(&self.idle);
        self.ready.notify_all();
    }
}

/// The output of the packet-construction phase of an injection: the root
/// pending paths, any paths that terminated during construction, the
/// post-construction injected state and the construction solver's counters.
pub(crate) struct Construction {
    pub(crate) results: Vec<RawResult>,
    pub(crate) roots: Vec<PendingPath>,
    pub(crate) injected: ExecState,
    pub(crate) solver_stats: SolverStats,
}

/// The output of an exploration phase: terminated paths, the element-entry
/// checkpoints collected for the resident service (empty unless requested)
/// and the merged per-worker statistics.
pub(crate) struct Exploration {
    pub(crate) results: Vec<RawResult>,
    pub(crate) checkpoints: Vec<PendingPath>,
    pub(crate) solver_stats: SolverStats,
    pub(crate) sched: SchedStats,
}

/// What one worker thread hands back when the run drains.
struct WorkerOutput {
    results: Vec<RawResult>,
    checkpoints: Vec<PendingPath>,
    solver_stats: SolverStats,
    sched: SchedStats,
}

/// The SymNet symbolic execution engine.
///
/// The network is held behind an [`Arc`] so that the resident service
/// ([`crate::service`]) can hand out engine snapshots sharing one topology:
/// applying a delta clones the `Arc`'d network (copy-on-write), while
/// in-flight queries keep reading the snapshot they started with.
#[derive(Clone, Debug)]
pub struct SymNet {
    network: Arc<Network>,
    config: ExecConfig,
}

impl SymNet {
    /// Creates an engine over a network with the default configuration.
    pub fn new(network: Network) -> Self {
        SymNet {
            network: Arc::new(network),
            config: ExecConfig::default(),
        }
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(network: Network, config: ExecConfig) -> Self {
        SymNet {
            network: Arc::new(network),
            config,
        }
    }

    /// Creates an engine over an already-shared network snapshot (O(1): no
    /// topology copy — the resident service's entry point).
    pub fn shared(network: Arc<Network>, config: ExecConfig) -> Self {
        SymNet { network, config }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The execution configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Injects a packet built by `packet` (a construction instruction block,
    /// see [`symnet_sefl::packet`]) at `element`'s input port `input_port` and
    /// explores every execution path.
    ///
    /// # Panics
    ///
    /// Panics — once, cleanly, on the caller's thread — if a worker panicked
    /// while processing a path (a defect in a model or the engine). Use
    /// [`SymNet::try_inject`] to handle that case as an error instead.
    pub fn inject(
        &self,
        element: ElementId,
        input_port: usize,
        packet: &Instruction,
    ) -> ExecutionReport {
        match self.try_inject(element, input_port, packet) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`SymNet::inject`], but a worker panic is caught, the scheduler
    /// is drained cleanly and the failure is returned as
    /// [`EngineError::WorkerPanicked`] instead of aborting the caller.
    pub fn try_inject(
        &self,
        element: ElementId,
        input_port: usize,
        packet: &Instruction,
    ) -> Result<ExecutionReport, EngineError> {
        let start = Instant::now();
        let budget = PathBudget::new(self.config.max_paths);
        let construction = self.construct_roots(element, input_port, packet, &budget)?;
        let exploration = self.explore(construction.roots, &budget, false)?;
        let mut results = construction.results;
        results.extend(exploration.results);
        let mut solver_stats = exploration.solver_stats;
        solver_stats.merge(&construction.solver_stats);
        Ok(finalize_report(
            results,
            construction.injected,
            solver_stats,
            exploration.sched,
            start,
        ))
    }

    /// Builds the symbolic packet in the context of the injection element and
    /// turns the surviving construction flows into root pending paths.
    ///
    /// This runs on the caller's thread; every root path then starts from a
    /// clone of the post-construction allocator, so fresh variables allocated
    /// later are a function of the path alone.
    pub(crate) fn construct_roots(
        &self,
        element: ElementId,
        input_port: usize,
        packet: &Instruction,
        budget: &PathBudget,
    ) -> Result<Construction, EngineError> {
        let mut ctx = Ctx {
            solver: Solver::with_config(self.config.solver),
            symbols: VarAllocator::new(),
        };
        let mut results: Vec<RawResult> = Vec::new();
        let mut roots: Vec<PendingPath> = Vec::new();
        let prefix = local_prefix(&self.network, element);
        let flows = catch_unwind(AssertUnwindSafe(|| {
            exec_instr(
                &mut ctx,
                &prefix,
                element,
                &self.network,
                packet,
                ExecState::new(),
            )
        }))
        .map_err(|payload| EngineError::WorkerPanicked {
            message: panic_message(payload.as_ref()),
        })?;
        let mut injected = ExecState::new();
        let mut first = true;
        {
            let mut sink = StepSink::new(&[], budget, &mut results, &mut roots);
            for flow in flows {
                match flow.status {
                    FlowStatus::Running => {
                        if first {
                            injected = flow.state.clone();
                            first = false;
                        }
                        sink.spawn(
                            flow.state,
                            element,
                            input_port,
                            0,
                            History::default(),
                            ctx.symbols.clone(),
                        );
                    }
                    FlowStatus::SentTo(_) => sink.emit(
                        PathStatus::Dropped {
                            element,
                            reason: DropReason::Memory(
                                "packet construction code must not forward".into(),
                            ),
                        },
                        flow.state,
                    ),
                    FlowStatus::Dropped(reason) => {
                        sink.emit(PathStatus::Dropped { element, reason }, flow.state)
                    }
                }
            }
        }
        Ok(Construction {
            results,
            roots,
            injected,
            solver_stats: ctx.solver.into_stats(),
        })
    }

    /// Explores every path reachable from `roots`: single-threaded drains a
    /// plain FIFO (the legacy loop), multi-threaded runs the work-stealing
    /// scheduler with per-worker solver contexts. Both produce the same set
    /// of raw results (and, when `collect_checkpoints` is set, one O(1)
    /// [`PendingPath`] checkpoint per processed element entry — the resident
    /// service's re-verification roots).
    pub(crate) fn explore(
        &self,
        roots: Vec<PendingPath>,
        budget: &PathBudget,
        collect_checkpoints: bool,
    ) -> Result<Exploration, EngineError> {
        let workers = self.config.threads.max(1);
        if workers == 1 {
            let mut ctx = Ctx {
                solver: Solver::with_config(self.config.solver),
                symbols: VarAllocator::new(),
            };
            let mut results = Vec::new();
            let mut checkpoints = Vec::new();
            let mut sched = SchedStats::default();
            self.drive_sequential(
                &mut ctx,
                budget,
                roots,
                collect_checkpoints,
                &mut results,
                &mut checkpoints,
                &mut sched,
            )?;
            Ok(Exploration {
                results,
                checkpoints,
                solver_stats: ctx.solver.into_stats(),
                sched,
            })
        } else {
            self.drive_parallel(workers, budget, roots, collect_checkpoints)
        }
    }

    /// The single-threaded driver: the legacy FIFO loop (every pop counts as
    /// a local hit — there is nobody to steal from).
    #[allow(clippy::too_many_arguments)]
    fn drive_sequential(
        &self,
        ctx: &mut Ctx,
        budget: &PathBudget,
        roots: Vec<PendingPath>,
        collect_checkpoints: bool,
        results: &mut Vec<RawResult>,
        checkpoints: &mut Vec<PendingPath>,
        sched: &mut SchedStats,
    ) -> Result<(), EngineError> {
        let mut worklist: VecDeque<PendingPath> = VecDeque::from(roots);
        let mut children: Vec<PendingPath> = Vec::new();
        while let Some(pending) = worklist.pop_front() {
            if budget.exhausted() {
                break;
            }
            sched.local_hits += 1;
            if collect_checkpoints {
                checkpoints.push(pending.clone());
            }
            catch_unwind(AssertUnwindSafe(|| {
                self.process_pending(ctx, budget, pending, results, &mut children)
            }))
            .map_err(|payload| EngineError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            })?;
            worklist.extend(children.drain(..));
        }
        Ok(())
    }

    /// The multi-threaded driver: `workers` scoped threads run the
    /// work-stealing scheduler; each owns a solver whose statistics — and
    /// scheduler counters — are merged into the returned exploration.
    ///
    /// A panic inside a processing step is caught by the worker itself, which
    /// records it in the scheduler and stops the run; every peer then drains
    /// and joins normally, and the first panic comes back as
    /// [`EngineError::WorkerPanicked`]. A panic *outside* the catch (an
    /// engine bug in the scheduler protocol itself) still unwinds the worker
    /// thread; the `PanicGuard` stops the run so peers exit, and the join
    /// error is mapped to the same `EngineError` instead of cascading.
    fn drive_parallel(
        &self,
        workers: usize,
        budget: &PathBudget,
        roots: Vec<PendingPath>,
        collect_checkpoints: bool,
    ) -> Result<Exploration, EngineError> {
        let sched = StealScheduler::new(workers, roots);
        let joined: Vec<Result<WorkerOutput, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let sched = &sched;
                    scope.spawn(move || self.worker(sched, me, budget, collect_checkpoints))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|payload| panic_message(payload.as_ref())))
                .collect()
        });
        let mut escaped_panic: Option<String> = None;
        let mut outputs: Vec<WorkerOutput> = Vec::new();
        for worker in joined {
            match worker {
                Ok(output) => outputs.push(output),
                Err(message) => escaped_panic = escaped_panic.or(Some(message)),
            }
        }
        if let Some(message) = sched.take_panic().or(escaped_panic) {
            return Err(EngineError::WorkerPanicked { message });
        }
        let mut exploration = Exploration {
            results: Vec::new(),
            checkpoints: Vec::new(),
            solver_stats: SolverStats::default(),
            sched: SchedStats::default(),
        };
        for output in outputs {
            exploration.results.extend(output.results);
            exploration.checkpoints.extend(output.checkpoints);
            exploration.solver_stats.merge(&output.solver_stats);
            exploration.sched.merge(&output.sched);
        }
        Ok(exploration)
    }

    /// One worker: pop pending paths (own deque first, then the injector,
    /// then stealing), process them with a thread-local context, publish
    /// forked children onto the own deque. A panicking step is caught here,
    /// recorded in the scheduler and ends this worker's loop.
    fn worker(
        &self,
        sched: &StealScheduler<PendingPath>,
        me: usize,
        budget: &PathBudget,
        collect_checkpoints: bool,
    ) -> WorkerOutput {
        // Backstop for panics that escape the per-step catch below (a bug in
        // the scheduler protocol itself): without it, the unwound worker's
        // in-flight slot would never be retired and every peer would wait
        // forever for `outstanding` to drain. The guard stops the scheduler
        // on unwind so peers exit; the join error is then surfaced by
        // `drive_parallel`.
        struct PanicGuard<'a> {
            sched: &'a StealScheduler<PendingPath>,
            armed: bool,
        }
        impl Drop for PanicGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.sched.stop();
                }
            }
        }
        let mut guard = PanicGuard { sched, armed: true };

        let mut ctx = Ctx {
            solver: Solver::with_config(self.config.solver),
            symbols: VarAllocator::new(),
        };
        let mut results: Vec<RawResult> = Vec::new();
        let mut checkpoints: Vec<PendingPath> = Vec::new();
        let mut children: Vec<PendingPath> = Vec::new();
        let mut stats = SchedStats::default();
        while let Some(pending) = sched.pop(me, &mut stats) {
            if budget.exhausted() {
                sched.stop();
                sched.retire();
                break;
            }
            if collect_checkpoints {
                checkpoints.push(pending.clone());
            }
            let step = catch_unwind(AssertUnwindSafe(|| {
                self.process_pending(&mut ctx, budget, pending, &mut results, &mut children)
            }));
            match step {
                Ok(()) => sched.complete(me, std::mem::take(&mut children), &mut stats),
                Err(payload) => {
                    // First panic wins; `poison` stops the run so the peers
                    // drain. The dead step is never retired, which is fine:
                    // `stopped` short-circuits every `pop`.
                    sched.poison(panic_message(payload.as_ref()));
                    break;
                }
            }
        }
        guard.armed = false;
        WorkerOutput {
            results,
            checkpoints,
            solver_stats: ctx.solver.into_stats(),
            sched: stats,
        }
    }

    /// Processes one path arrival at an element input port, emitting
    /// terminated paths and forked children into the caller's buffers. This
    /// is the unit of work of both the per-run drivers above and the serving
    /// subsystem's long-lived pool ([`crate::server`]).
    pub(crate) fn process_pending(
        &self,
        ctx: &mut Ctx,
        budget: &PathBudget,
        pending: PendingPath,
        results: &mut Vec<RawResult>,
        children: &mut Vec<PendingPath>,
    ) {
        let PendingPath {
            mut state,
            element,
            input_port,
            hops,
            mut history,
            symbols,
            lineage,
        } = pending;
        // The path's allocator becomes the interpreter context's allocator for
        // the duration of this step; children snapshot it at spawn time.
        ctx.symbols = symbols;
        let mut sink = StepSink::new(&lineage, budget, results, children);
        let program = self.network.element(element);
        let prefix = local_prefix(&self.network, element);
        state.push_trace(TraceEntry::Port(
            self.network.port_label(element, true, input_port),
        ));

        // Loop detection (Figure 5): compare the projected state against every
        // previous visit of the same port on this path.
        if self.config.detect_loops {
            let snapshot = loop_snapshot(&self.config, ctx, &state);
            let revisit = history
                .iter()
                .filter(|e| e.element == element && e.input_port == input_port)
                .any(|e| snapshot_included(&e.snapshot, &snapshot));
            if revisit {
                sink.emit(
                    PathStatus::Dropped {
                        element,
                        reason: DropReason::Loop,
                    },
                    state,
                );
                return;
            }
            history = history.push(element, input_port, snapshot);
        }

        let input_code = program.code_for_input(input_port);
        let flows = exec_instr(ctx, &prefix, element, &self.network, &input_code, state);
        for flow in flows {
            match flow.status {
                FlowStatus::Running => sink.emit(
                    PathStatus::Dropped {
                        element,
                        reason: DropReason::NotForwarded,
                    },
                    flow.state,
                ),
                FlowStatus::Dropped(reason) => {
                    self.emit_drop(&mut sink, element, reason, flow.state)
                }
                FlowStatus::SentTo(out_port) => {
                    self.process_output(
                        ctx, element, out_port, hops, &history, flow.state, &mut sink,
                    );
                }
            }
        }
    }

    /// Runs output-port code and either follows the link or ends the path.
    #[allow(clippy::too_many_arguments)]
    fn process_output(
        &self,
        ctx: &mut Ctx,
        element: ElementId,
        out_port: usize,
        hops: usize,
        history: &History,
        mut state: ExecState,
        sink: &mut StepSink<'_>,
    ) {
        let program = self.network.element(element);
        let prefix = local_prefix(&self.network, element);
        if out_port >= program.output_count {
            self.emit_drop(
                sink,
                element,
                DropReason::Memory(format!("forward to missing output port {out_port}")),
                state,
            );
            return;
        }
        state.push_trace(TraceEntry::Port(
            self.network.port_label(element, false, out_port),
        ));
        let output_code = program.code_for_output(out_port);
        let flows = exec_instr(ctx, &prefix, element, &self.network, &output_code, state);
        for flow in flows {
            match flow.status {
                FlowStatus::Dropped(reason) => self.emit_drop(sink, element, reason, flow.state),
                FlowStatus::SentTo(_) => self.emit_drop(
                    sink,
                    element,
                    DropReason::Memory("output-port code must not forward".into()),
                    flow.state,
                ),
                FlowStatus::Running => match self.network.link_from(element, out_port) {
                    None => sink.emit(
                        PathStatus::Delivered {
                            element,
                            port: out_port,
                        },
                        flow.state,
                    ),
                    Some((next_element, next_port)) => {
                        if hops + 1 > self.config.max_hops {
                            self.emit_drop(sink, element, DropReason::HopLimit, flow.state);
                        } else {
                            sink.spawn(
                                flow.state,
                                next_element,
                                next_port,
                                hops + 1,
                                history.clone(),
                                ctx.symbols.clone(),
                            );
                        }
                    }
                },
            }
        }
    }

    fn emit_drop(
        &self,
        sink: &mut StepSink<'_>,
        element: ElementId,
        reason: DropReason,
        state: ExecState,
    ) {
        if reason == DropReason::InfeasibleBranch && !self.config.include_pruned {
            return;
        }
        sink.emit(PathStatus::Dropped { element, reason }, state);
    }
}

/// Projects the state onto the configured loop fields: for every field, the
/// set of values it can currently take (None if the field is not allocated on
/// this path or the projection is unknown).
fn loop_snapshot(
    config: &ExecConfig,
    ctx: &mut Ctx,
    state: &ExecState,
) -> Vec<Option<IntervalSet>> {
    let path = state.path_cond();
    config
        .loop_fields
        .iter()
        .map(|field| match state.read_field(field, "") {
            Err(_) => None,
            Ok(slot) => match slot.value {
                Value::Concrete(v) => Some(IntervalSet::point(v as i128)),
                Value::Sym { var, offset } => ctx
                    .solver
                    .feasible_values_path(path, var)
                    .map(|set| set.shift(offset as i128)),
            },
        })
        .collect()
}

/// "New state contains all possible values in the old state" (Figure 5.d):
/// every projected field of the old snapshot must be a subset of the new one.
fn snapshot_included(old: &[Option<IntervalSet>], new: &[Option<IntervalSet>]) -> bool {
    if old.len() != new.len() {
        return false;
    }
    let mut comparable = false;
    for (o, n) in old.iter().zip(new.iter()) {
        match (o, n) {
            (Some(o), Some(n)) => {
                if !o.is_subset_of(n) {
                    return false;
                }
                comparable = true;
            }
            (None, None) => {}
            _ => return false,
        }
    }
    comparable
}

/// Sorts raw results into the deterministic report order (fork lineage — the
/// emission order of the sequential engine), assigns sequential ids and wraps
/// everything into an [`ExecutionReport`]. Shared by [`SymNet::try_inject`]
/// and the resident service, which merges kept pre-delta results with freshly
/// re-explored ones before finalizing.
pub(crate) fn finalize_report(
    mut results: Vec<RawResult>,
    injected: ExecState,
    solver_stats: SolverStats,
    sched: SchedStats,
    start: Instant,
) -> ExecutionReport {
    results.sort_by(|a, b| a.key.cmp(&b.key));
    let paths = results
        .into_iter()
        .enumerate()
        .map(|(id, raw)| PathReport {
            id,
            status: raw.status,
            state: raw.state,
        })
        .collect();
    ExecutionReport {
        paths,
        injected,
        solver_stats,
        sched,
        wall_time: start.elapsed(),
    }
}

/// The metadata namespace prefix for local allocations of an element instance.
/// Public so that reference executors (the differential fuzzer's concrete
/// replay) resolve local metadata exactly like the symbolic engine does.
pub fn local_prefix(network: &Network, element: ElementId) -> String {
    format!("local:{}#{}:", network.element(element).name, element.0)
}

/// Interprets one instruction over one state, producing the resulting flows.
/// `element` and `network` are threaded through for instructions that need
/// the surrounding topology context (none of the current instruction set
/// does outside of recursion, hence the lint allowance).
#[allow(clippy::only_used_in_recursion)]
fn exec_instr(
    ctx: &mut Ctx,
    local_prefix: &str,
    element: ElementId,
    network: &Network,
    instr: &Instruction,
    mut state: ExecState,
) -> Vec<Flow> {
    match instr {
        Instruction::NoOp => vec![Flow::running(state)],
        Instruction::Block(instrs) => {
            let mut flows = vec![Flow::running(state)];
            for i in instrs {
                let mut next = Vec::with_capacity(flows.len());
                for flow in flows {
                    match flow.status {
                        FlowStatus::Running => next.extend(exec_instr(
                            ctx,
                            local_prefix,
                            element,
                            network,
                            i,
                            flow.state,
                        )),
                        _ => next.push(flow),
                    }
                }
                flows = next;
            }
            flows
        }
        Instruction::Allocate {
            field,
            width,
            visibility,
        } => simple(state, |s| {
            s.allocate_field(field, *width, *visibility, local_prefix)
        }),
        Instruction::Deallocate { field, width } => {
            simple(state, |s| s.deallocate_field(field, *width, local_prefix))
        }
        Instruction::Assign { field, expr } => {
            let width_hint = state
                .read_field(field, local_prefix)
                .map(|s| s.width)
                .unwrap_or(crate::state::DEFAULT_META_WIDTH);
            let value = match state.eval_expr(expr, &mut ctx.symbols, width_hint, local_prefix) {
                Ok(v) => v,
                Err(e) => return vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
            };
            state.push_trace(TraceEntry::Instruction(format!("Assign({field},{expr})")));
            simple(state, |s| s.write_field(field, value, local_prefix))
        }
        Instruction::CreateTag { name, value } => {
            let addr = match state.resolve_addr(value) {
                Ok(a) => a,
                Err(e) => return vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
            };
            state.create_tag(name.clone(), addr);
            vec![Flow::running(state)]
        }
        Instruction::DestroyTag { name } => simple(state, |s| s.destroy_tag(name)),
        Instruction::Constrain(cond) => {
            let lowered = match state.lower_condition(cond, &mut ctx.symbols, local_prefix) {
                Ok(f) => f,
                Err(e) => return vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
            };
            state.push_trace(TraceEntry::Instruction(format!("Constrain({cond})")));
            state.add_constraint(lowered);
            if ctx.solver.is_unsat_path(state.path_cond()) {
                let detail = cond.to_string();
                vec![Flow::dropped(state, DropReason::Unsatisfiable(detail))]
            } else {
                vec![Flow::running(state)]
            }
        }
        Instruction::Fail(msg) => {
            state.push_trace(TraceEntry::Message(msg.clone()));
            vec![Flow::dropped(state, DropReason::Failed(msg.clone()))]
        }
        // The deliberate poison pill: a deterministic panic in both debug and
        // release builds, simulating a defective model or engine. The panic
        // is caught by the worker loop and surfaced as
        // [`EngineError::WorkerPanicked`].
        Instruction::Abort(msg) => panic!("SEFL Abort: {msg}"),
        Instruction::If { .. } => {
            // If-chains (an `If` whose else branch is another `If`) are walked
            // iteratively: the basic switch/router models of §8.1 nest one `If`
            // per table entry, and recursing per entry would overflow the
            // stack on large tables.
            let mut flows = Vec::new();
            let mut current = instr;
            let mut current_state = state;
            loop {
                let Instruction::If {
                    cond,
                    then_branch,
                    else_branch,
                } = current
                else {
                    flows.extend(exec_instr(
                        ctx,
                        local_prefix,
                        element,
                        network,
                        current,
                        current_state,
                    ));
                    break;
                };
                let lowered =
                    match current_state.lower_condition(cond, &mut ctx.symbols, local_prefix) {
                        Ok(f) => f,
                        Err(e) => {
                            flows.push(Flow::dropped(
                                current_state,
                                DropReason::Memory(e.to_string()),
                            ));
                            break;
                        }
                    };
                // Then branch.
                let mut then_state = current_state.clone();
                then_state.push_trace(TraceEntry::Instruction(format!("If({cond}) [then]")));
                then_state.add_constraint(lowered.clone());
                if ctx.solver.is_unsat_path(then_state.path_cond()) {
                    flows.push(Flow::dropped(then_state, DropReason::InfeasibleBranch));
                } else {
                    flows.extend(exec_instr(
                        ctx,
                        local_prefix,
                        element,
                        network,
                        then_branch,
                        then_state,
                    ));
                }
                // Else branch: continue the walk without recursing.
                current_state.push_trace(TraceEntry::Instruction(format!("If({cond}) [else]")));
                current_state.add_constraint(symnet_solver::Formula::not(lowered));
                if ctx.solver.is_unsat_path(current_state.path_cond()) {
                    flows.push(Flow::dropped(current_state, DropReason::InfeasibleBranch));
                    break;
                }
                current = else_branch;
            }
            flows
        }
        Instruction::For { var, pattern, body } => {
            // Snapshot the matching keys before the first iteration (the loop
            // body may create or destroy entries).
            let mut keys: Vec<String> = state
                .metadata()
                .map(|(k, _)| k.to_string())
                .filter_map(|k| {
                    let visible = k.strip_prefix(local_prefix).unwrap_or(&k);
                    if visible.starts_with("local:") {
                        None
                    } else if crate::state::glob_match(pattern, visible) {
                        Some(visible.to_string())
                    } else {
                        None
                    }
                })
                .collect();
            keys.sort();
            keys.dedup();
            let mut flows = vec![Flow::running(state)];
            for key in keys {
                let bound = substitute_meta(body, var, &key);
                let mut next = Vec::with_capacity(flows.len());
                for flow in flows {
                    match flow.status {
                        FlowStatus::Running => next.extend(exec_instr(
                            ctx,
                            local_prefix,
                            element,
                            network,
                            &bound,
                            flow.state,
                        )),
                        _ => next.push(flow),
                    }
                }
                flows = next;
            }
            flows
        }
        Instruction::Forward(port) => {
            state.push_trace(TraceEntry::Instruction(format!(
                "Forward(OutputPort({port}))"
            )));
            vec![Flow {
                state,
                status: FlowStatus::SentTo(*port),
            }]
        }
        Instruction::Fork(ports) => {
            if ports.is_empty() {
                return vec![Flow::dropped(state, DropReason::NotForwarded)];
            }
            state.push_trace(TraceEntry::Instruction(format!("Fork({ports:?})")));
            ports
                .iter()
                .map(|p| Flow {
                    state: state.clone(),
                    status: FlowStatus::SentTo(*p),
                })
                .collect()
        }
    }
}

/// Runs a state mutation that may raise a memory-safety error, converting the
/// error into a dropped flow.
fn simple(
    mut state: ExecState,
    op: impl FnOnce(&mut ExecState) -> Result<(), ExecError>,
) -> Vec<Flow> {
    match op(&mut state) {
        Ok(()) => vec![Flow::running(state)],
        Err(e) => vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
    }
}

/// Rewrites metadata references named `from` to `to` inside an instruction
/// tree — how `For` binds its loop variable. Public so concrete replay
/// interpreters unfold `For` loops with the exact binding semantics of the
/// symbolic engine.
pub fn substitute_meta(instr: &Instruction, from: &str, to: &str) -> Instruction {
    use symnet_sefl::cond::Condition;
    use symnet_sefl::expr::Expr;

    fn sub_field(f: &FieldRef, from: &str, to: &str) -> FieldRef {
        match f {
            FieldRef::Meta(k) if k == from => FieldRef::Meta(to.to_string()),
            other => other.clone(),
        }
    }
    fn sub_expr(e: &Expr, from: &str, to: &str) -> Expr {
        match e {
            Expr::Ref(f) => Expr::Ref(sub_field(f, from, to)),
            Expr::Add(a, b) => Expr::Add(
                Box::new(sub_expr(a, from, to)),
                Box::new(sub_expr(b, from, to)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(sub_expr(a, from, to)),
                Box::new(sub_expr(b, from, to)),
            ),
            Expr::Neg(a) => Expr::Neg(Box::new(sub_expr(a, from, to))),
            other => other.clone(),
        }
    }
    fn sub_cond(c: &Condition, from: &str, to: &str) -> Condition {
        match c {
            Condition::Cmp { op, lhs, rhs } => Condition::Cmp {
                op: *op,
                lhs: sub_expr(lhs, from, to),
                rhs: sub_expr(rhs, from, to),
            },
            Condition::Match {
                field,
                value,
                prefix_len,
                width,
            } => Condition::Match {
                field: sub_field(field, from, to),
                value: *value,
                prefix_len: *prefix_len,
                width: *width,
            },
            Condition::And(parts) => {
                Condition::And(parts.iter().map(|p| sub_cond(p, from, to)).collect())
            }
            Condition::Or(parts) => {
                Condition::Or(parts.iter().map(|p| sub_cond(p, from, to)).collect())
            }
            Condition::Not(inner) => Condition::Not(Box::new(sub_cond(inner, from, to))),
            other => other.clone(),
        }
    }

    match instr {
        Instruction::Allocate {
            field,
            width,
            visibility,
        } => Instruction::Allocate {
            field: sub_field(field, from, to),
            width: *width,
            visibility: *visibility,
        },
        Instruction::Deallocate { field, width } => Instruction::Deallocate {
            field: sub_field(field, from, to),
            width: *width,
        },
        Instruction::Assign { field, expr } => Instruction::Assign {
            field: sub_field(field, from, to),
            expr: sub_expr(expr, from, to),
        },
        Instruction::Constrain(cond) => Instruction::Constrain(sub_cond(cond, from, to)),
        Instruction::If {
            cond,
            then_branch,
            else_branch,
        } => Instruction::If {
            cond: sub_cond(cond, from, to),
            then_branch: Box::new(substitute_meta(then_branch, from, to)),
            else_branch: Box::new(substitute_meta(else_branch, from, to)),
        },
        Instruction::For { var, pattern, body } if var != from => Instruction::For {
            var: var.clone(),
            pattern: pattern.clone(),
            body: Box::new(substitute_meta(body, from, to)),
        },
        Instruction::Block(instrs) => Instruction::Block(
            instrs
                .iter()
                .map(|i| substitute_meta(i, from, to))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use symnet_sefl::cond::Condition;
    use symnet_sefl::expr::Expr;
    use symnet_sefl::fields::{ip_dst, ip_ttl, tcp_dst};
    use symnet_sefl::packet::symbolic_tcp_packet;
    use symnet_sefl::ElementProgram;

    /// The port-forwarding element of Figure 4 of the paper.
    fn figure4_element() -> ElementProgram {
        ElementProgram::new("A", 1, 3).with_any_input_code(Instruction::block(vec![
            Instruction::constrain(Condition::eq(ip_dst().field(), 0x8d552501u64)), // 141.85.37.1
            Instruction::if_else(
                Condition::eq(tcp_dst().field(), 123u64),
                Instruction::block(vec![
                    Instruction::assign(ip_dst().field(), Expr::constant(0xc0a80164)), // 192.168.1.100
                    Instruction::assign(tcp_dst().field(), Expr::constant(22)),
                    Instruction::forward(1),
                ]),
                Instruction::forward(2),
            ),
        ]))
    }

    #[test]
    fn figure4_port_forwarding_produces_two_paths() {
        let mut net = Network::new();
        let a = net.add_element(figure4_element());
        let engine = SymNet::new(net);
        let report = engine.inject(a, 0, &symbolic_tcp_packet());
        // One path per reachable output port (1 and 2), none on port 0.
        assert_eq!(report.delivered().count(), 2);
        assert_eq!(report.delivered_at(a, 1).count(), 1);
        assert_eq!(report.delivered_at(a, 2).count(), 1);
        assert_eq!(report.delivered_at(a, 0).count(), 0);
        // On the rewritten path the destination address is concrete.
        let rewritten = report.delivered_at(a, 1).next().unwrap();
        let dst = rewritten.state.read_field(&ip_dst().field(), "").unwrap();
        assert_eq!(dst.value, Value::Concrete(0xc0a80164));
        let port = rewritten.state.read_field(&tcp_dst().field(), "").unwrap();
        assert_eq!(port.value, Value::Concrete(22));
        // On the other path both fields keep their symbolic values (invariant).
        let other = report.delivered_at(a, 2).next().unwrap();
        assert_eq!(
            verify::field_invariant(&report.injected, other, &tcp_dst().field()),
            Ok(verify::Tristate::Always)
        );
    }

    #[test]
    fn constrain_filters_without_branching() {
        // §4: dropping non-HTTP packets adds a constraint, it does not branch.
        let mut net = Network::new();
        let fw = net.add_element(ElementProgram::new("fw", 1, 1).with_any_input_code(
            Instruction::block(vec![
                Instruction::constrain(Condition::eq(tcp_dst().field(), 80u64)),
                Instruction::forward(0),
            ]),
        ));
        let engine = SymNet::new(net);
        let report = engine.inject(fw, 0, &symbolic_tcp_packet());
        assert_eq!(report.path_count(), 1);
        assert_eq!(report.delivered().count(), 1);
        // A packet already constrained to port 22 is dropped entirely.
        let ssh_packet = Instruction::block(vec![
            symbolic_tcp_packet(),
            Instruction::constrain(Condition::eq(tcp_dst().field(), 22u64)),
        ]);
        let report = engine.inject(fw, 0, &ssh_packet);
        assert_eq!(report.delivered().count(), 0);
        assert_eq!(report.path_count(), 1);
        assert!(matches!(
            report.paths[0].status,
            PathStatus::Dropped {
                reason: DropReason::Unsatisfiable(_),
                ..
            }
        ));
    }

    #[test]
    fn packets_cross_links_between_elements() {
        let mut net = Network::new();
        let a = net.add_element(ElementProgram::new("A", 1, 1).with_any_input_code(
            Instruction::block(vec![
                Instruction::assign(ip_ttl().field(), Expr::reference(ip_ttl().field()).minus(1)),
                Instruction::forward(0),
            ]),
        ));
        let b = net.add_element(ElementProgram::new("B", 1, 1).with_any_input_code(
            Instruction::block(vec![
                Instruction::constrain(Condition::ge(ip_ttl().field(), 1u64)),
                Instruction::forward(0),
            ]),
        ));
        net.add_link(a, 0, b, 0);
        let engine = SymNet::new(net);
        let report = engine.inject(a, 0, &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 1);
        let path = report.delivered().next().unwrap();
        assert_eq!(
            path.status,
            PathStatus::Delivered {
                element: b,
                port: 0
            }
        );
        // The path visited A then B.
        let ports = path.ports_visited();
        assert!(ports[0].starts_with("A:InputPort"));
        assert!(ports.iter().any(|p| p.starts_with("B:InputPort")));
    }

    #[test]
    fn memory_safety_stops_bad_access() {
        // Reading a TCP field from an IP-only packet fails the path.
        let mut net = Network::new();
        let e = net.add_element(ElementProgram::new("box", 1, 1).with_any_input_code(
            Instruction::block(vec![
                Instruction::constrain(Condition::eq(tcp_dst().field(), 80u64)),
                Instruction::forward(0),
            ]),
        ));
        let engine = SymNet::new(net);
        let report = engine.inject(e, 0, &symnet_sefl::packet::symbolic_ip_packet());
        assert_eq!(report.delivered().count(), 0);
        assert!(matches!(
            &report.paths[0].status,
            PathStatus::Dropped {
                reason: DropReason::Memory(_),
                ..
            }
        ));
    }

    #[test]
    fn fork_duplicates_to_every_port() {
        let mut net = Network::new();
        let sw = net.add_element(
            ElementProgram::new("sw", 1, 3).with_any_input_code(Instruction::fork(vec![0, 1, 2])),
        );
        let engine = SymNet::new(net);
        let report = engine.inject(sw, 0, &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 3);
    }

    #[test]
    fn loop_detection_stops_forwarding_loops() {
        // A → B → A with no header modification loops forever without the
        // Figure 5 check.
        let mut net = Network::new();
        let a = net.add_element(
            ElementProgram::new("A", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        let b = net.add_element(
            ElementProgram::new("B", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        net.add_link(a, 0, b, 0);
        net.add_link(b, 0, a, 0);
        let engine = SymNet::new(net);
        let report = engine.inject(a, 0, &symbolic_tcp_packet());
        assert_eq!(report.loops().count(), 1);
        assert_eq!(report.delivered().count(), 0);
    }

    #[test]
    fn hop_limit_bounds_exploration_when_loop_detection_is_off() {
        let mut net = Network::new();
        let a = net.add_element(
            ElementProgram::new("A", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        let b = net.add_element(
            ElementProgram::new("B", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        net.add_link(a, 0, b, 0);
        net.add_link(b, 0, a, 0);
        let config = ExecConfig {
            detect_loops: false,
            max_hops: 10,
            ..Default::default()
        };
        let engine = SymNet::with_config(net, config);
        let report = engine.inject(a, 0, &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 0);
        assert!(report.paths.iter().any(|p| matches!(
            p.status,
            PathStatus::Dropped {
                reason: DropReason::HopLimit,
                ..
            }
        )));
    }

    #[test]
    fn for_loop_iterates_metadata_snapshot() {
        // Set OPT2 and OPT4, then zero every OPT* entry with a For loop.
        let mut net = Network::new();
        let e = net.add_element(ElementProgram::new("opts", 1, 1).with_any_input_code(
            Instruction::block(vec![
                Instruction::for_each(
                    "o",
                    "OPT*",
                    Instruction::assign(FieldRef::meta("o"), Expr::constant(0)),
                ),
                Instruction::forward(0),
            ]),
        ));
        let packet = Instruction::block(vec![
            symbolic_tcp_packet(),
            Instruction::allocate_meta("OPT2", 8),
            Instruction::assign(FieldRef::meta("OPT2"), Expr::constant(1)),
            Instruction::allocate_meta("OPT4", 8),
            Instruction::assign(FieldRef::meta("OPT4"), Expr::constant(1)),
            Instruction::allocate_meta("SIZE2", 8),
            Instruction::assign(FieldRef::meta("SIZE2"), Expr::constant(4)),
        ]);
        let engine = SymNet::new(net);
        let report = engine.inject(e, 0, &packet);
        assert_eq!(report.delivered().count(), 1);
        let path = report.delivered().next().unwrap();
        assert_eq!(
            path.state.read_meta("OPT2").unwrap().value,
            Value::Concrete(0)
        );
        assert_eq!(
            path.state.read_meta("OPT4").unwrap().value,
            Value::Concrete(0)
        );
        // Non-matching keys are untouched.
        assert_eq!(
            path.state.read_meta("SIZE2").unwrap().value,
            Value::Concrete(4)
        );
    }

    #[test]
    fn thread_counts_do_not_change_the_report() {
        // Switch-like element forking to several ports, chained twice, with a
        // constraint so that solver work happens on every path.
        let mut net = Network::new();
        let a = net.add_element(ElementProgram::new("A", 1, 4).with_any_input_code(
            Instruction::block(vec![
                Instruction::constrain(Condition::ge(ip_ttl().field(), 1u64)),
                Instruction::fork(vec![0, 1, 2, 3]),
            ]),
        ));
        let b = net.add_element(
            ElementProgram::new("B", 1, 3).with_any_input_code(Instruction::fork(vec![0, 1, 2])),
        );
        net.add_link(a, 0, b, 0);
        net.add_link(a, 1, b, 0);
        let reports: Vec<ExecutionReport> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let engine =
                    SymNet::with_config(net.clone(), ExecConfig::default().with_threads(threads));
                engine.inject(a, 0, &symbolic_tcp_packet())
            })
            .collect();
        for report in &reports[1..] {
            assert_eq!(report.path_count(), reports[0].path_count());
            for (a, b) in reports[0].paths.iter().zip(report.paths.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.status, b.status);
                assert_eq!(a.state, b.state);
            }
            assert_eq!(report.injected, reports[0].injected);
            // What was asked and answered is deterministic (time, and which
            // cache layer answered, are not).
            assert_eq!(report.solver_stats.calls, reports[0].solver_stats.calls);
            assert_eq!(report.solver_stats.sat, reports[0].solver_stats.sat);
            assert_eq!(report.solver_stats.unsat, reports[0].solver_stats.unsat);
        }
        // 4 forks at A, two of which land on B and fork in 3: 2 + 2*3 = 8.
        assert_eq!(reports[0].delivered().count(), 8);
    }

    #[test]
    fn scheduler_counters_track_local_work_steals_and_overflow() {
        // One element forking to 300 linked ports spawns 300 children in a
        // single processing step — more than LOCAL_DEQUE_CAP, so the
        // publishing worker must spill exactly 300 - LOCAL_DEQUE_CAP paths to
        // the overflow injector, no matter how workers interleave.
        let fan_out = LOCAL_DEQUE_CAP + 44;
        let mut net = Network::new();
        let a = net.add_element(
            ElementProgram::new("a", 1, fan_out)
                .with_any_input_code(Instruction::fork((0..fan_out).collect())),
        );
        let b = net.add_element(
            ElementProgram::new("b", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        for port in 0..fan_out {
            net.add_link(a, port, b, 0);
        }

        // Sequential: every pop is a local hit, nothing is stolen or spilled.
        let engine = SymNet::with_config(net.clone(), ExecConfig::default().with_threads(1));
        let sequential = engine.inject(a, 0, &symbolic_tcp_packet());
        assert_eq!(sequential.sched.local_hits as usize, 1 + fan_out);
        assert_eq!(sequential.sched.steals, 0);
        assert_eq!(sequential.sched.overflow_pushes, 0);

        // Parallel: the root arrives via the injector (uncounted), the
        // children via local pops or steals; the fan-out step overflows the
        // bounded deque by exactly `fan_out - LOCAL_DEQUE_CAP`.
        for threads in [2usize, 8] {
            let engine =
                SymNet::with_config(net.clone(), ExecConfig::default().with_threads(threads));
            let report = engine.inject(a, 0, &symbolic_tcp_packet());
            assert_eq!(
                report.sched.overflow_pushes as usize,
                fan_out - LOCAL_DEQUE_CAP,
                "overflow at {threads} threads"
            );
            // The children that stayed on the bounded deque leave it either
            // by a local pop or by a steal; the spilled ones (and the root)
            // come back through the injector, which neither counter tracks.
            assert_eq!(
                (report.sched.local_hits + report.sched.steals) as usize,
                LOCAL_DEQUE_CAP,
                "deque-resident children at {threads} threads"
            );
            // Scheduling never changes the report itself.
            assert_eq!(report.path_count(), sequential.path_count());
            for (x, y) in sequential.paths.iter().zip(report.paths.iter()) {
                assert_eq!(x.status, y.status);
                assert_eq!(x.state, y.state);
            }
        }
    }

    #[test]
    fn max_paths_caps_runs() {
        // a forks 8 ways into b, b forks 8 ways: 64 delivered paths across 8
        // processing steps when uncapped.
        let build = || {
            let mut net = Network::new();
            let a = net.add_element(
                ElementProgram::new("a", 1, 8)
                    .with_any_input_code(Instruction::fork((0..8).collect())),
            );
            let b = net.add_element(
                ElementProgram::new("b", 1, 8)
                    .with_any_input_code(Instruction::fork((0..8).collect())),
            );
            for port in 0..8 {
                net.add_link(a, port, b, 0);
            }
            (net, a)
        };
        // The budget is reserved atomically at emission time, so the cap is
        // exact at every thread count (which paths survive truncation is
        // scheduling-dependent, the count is not).
        for threads in [1usize, 4, 8] {
            let (net, a) = build();
            let config = ExecConfig {
                max_paths: 10,
                ..ExecConfig::default().with_threads(threads)
            };
            let report = SymNet::with_config(net, config).inject(a, 0, &symbolic_tcp_packet());
            assert_eq!(
                report.path_count(),
                10,
                "cap must be exact at {threads} threads"
            );
        }
        // A cap above the true path count never truncates.
        let (net, a) = build();
        let config = ExecConfig {
            max_paths: 1000,
            ..ExecConfig::default().with_threads(4)
        };
        let report = SymNet::with_config(net, config).inject(a, 0, &symbolic_tcp_packet());
        assert_eq!(report.path_count(), 64);
    }

    #[test]
    fn infeasible_branches_are_hidden_by_default() {
        let mut net = Network::new();
        let e = net.add_element(ElementProgram::new("box", 1, 2).with_any_input_code(
            Instruction::block(vec![
                Instruction::constrain(Condition::eq(tcp_dst().field(), 80u64)),
                Instruction::if_else(
                    Condition::eq(tcp_dst().field(), 22u64),
                    Instruction::forward(0),
                    Instruction::forward(1),
                ),
            ]),
        ));
        let engine = SymNet::new(net.clone());
        let report = engine.inject(e, 0, &symbolic_tcp_packet());
        // Only the feasible (else) branch shows up.
        assert_eq!(report.path_count(), 1);
        assert_eq!(report.delivered_at(e, 1).count(), 1);
        // With include_pruned the infeasible then-branch is visible too.
        let engine = SymNet::with_config(
            net,
            ExecConfig {
                include_pruned: true,
                ..Default::default()
            },
        );
        let report = engine.inject(e, 0, &symbolic_tcp_packet());
        assert_eq!(report.path_count(), 2);
    }

    #[test]
    fn worker_panics_surface_as_engine_errors() {
        // A deliberately-panicking element program (the Abort poison pill).
        // The first panic must come back as a single EngineError at every
        // thread count — no poisoned-mutex cascade, no deadlock, no abort.
        let mut net = Network::new();
        let a = net.add_element(
            ElementProgram::new("a", 1, 4).with_any_input_code(Instruction::fork(vec![0, 1, 2, 3])),
        );
        let bomb = net.add_element(
            ElementProgram::new("bomb", 1, 1)
                .with_any_input_code(Instruction::abort("defective model")),
        );
        for port in 0..4 {
            net.add_link(a, port, bomb, 0);
        }
        for threads in [1usize, 2, 8] {
            let engine =
                SymNet::with_config(net.clone(), ExecConfig::default().with_threads(threads));
            let err = engine
                .try_inject(a, 0, &symbolic_tcp_packet())
                .expect_err("the bomb element must fail the run");
            let EngineError::WorkerPanicked { message } = err;
            assert!(
                message.contains("SEFL Abort: defective model"),
                "panic message at {threads} threads: {message}"
            );
        }
    }

    #[test]
    fn engine_survives_a_panicked_run() {
        // After a panicked run the engine keeps working: no shared state was
        // left poisoned, a fresh scheduler starts clean.
        let mut net = Network::new();
        let bomb = net.add_element(
            ElementProgram::new("bomb", 1, 1).with_any_input_code(Instruction::abort("boom")),
        );
        let ok = net.add_element(
            ElementProgram::new("ok", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        let engine = SymNet::with_config(net, ExecConfig::default().with_threads(4));
        assert!(engine.try_inject(bomb, 0, &symbolic_tcp_packet()).is_err());
        let report = engine.inject(ok, 0, &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 1);
    }

    #[test]
    fn inject_panics_once_on_worker_panic() {
        // The panicking API panics exactly once, on the caller's thread, with
        // the EngineError rendering — not with a poisoned-mutex cascade.
        let mut net = Network::new();
        let bomb = net.add_element(
            ElementProgram::new("bomb", 1, 1).with_any_input_code(Instruction::abort("boom")),
        );
        let engine = SymNet::with_config(net, ExecConfig::default().with_threads(2));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.inject(bomb, 0, &symbolic_tcp_packet())
        }));
        let message = panic_message(caught.expect_err("inject must panic").as_ref());
        assert!(message.contains("engine worker panicked"), "{message}");
        assert!(message.contains("SEFL Abort: boom"), "{message}");
    }

    #[test]
    fn panic_during_construction_is_caught() {
        let mut net = Network::new();
        let e = net.add_element(
            ElementProgram::new("e", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        let engine = SymNet::new(net);
        let packet = Instruction::block(vec![symbolic_tcp_packet(), Instruction::abort("ctor")]);
        let err = engine.try_inject(e, 0, &packet).expect_err("must fail");
        let EngineError::WorkerPanicked { message } = err;
        assert!(message.contains("SEFL Abort: ctor"), "{message}");
    }
}
