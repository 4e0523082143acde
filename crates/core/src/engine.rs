//! The symbolic explorer.
//!
//! [`SymNet::inject`] creates an empty packet, runs the packet-construction
//! block, delivers the resulting symbolic packet to an input port and then
//! explores every path through the network: SEFL instructions are interpreted
//! over [`ExecState`]s ([`crate::interp`]), `If`/`Fork` spawn new paths,
//! `Constrain`/`Fail` and memory-safety violations terminate paths, links
//! move packets between elements, and the Figure 5 state-inclusion check
//! detects loops.
//!
//! Distinct symbolic paths are independent, so every run — at any
//! [`ExecConfig::threads`] — is driven by the **work-stealing scheduler** of
//! [`crate::sched`]: each worker owns a bounded LIFO deque it pushes forked
//! children onto and pops from without contending with anyone; only when its
//! deque runs dry does it drain the shared overflow injector (the injection
//! roots plus local-deque overflow) or steal a batch of a peer's *oldest*
//! paths. One worker runs on the caller's thread; more run as scoped threads.
//! Each worker owns an interpreter context whose solver statistics are
//! merged at the end, and per-worker [`SchedStats`] count local hits,
//! steals, batch-stolen paths and overflow pushes.
//!
//! Reports stay deterministic no matter which worker runs which path, in
//! which order — every emitted path carries an `EmitKey` (the fork lineage
//! of the pending path that emitted it plus the emission index within that
//! step), and the final report is sorted by it into breadth-first lineage
//! order, so the JSON output is byte-identical for any thread count (the one
//! exception is a run truncated by the [`ExecConfig::max_paths`] cap, whose
//! exact count is honoured but whose surviving paths are
//! scheduling-dependent).
//!
//! Forking is O(1) end-to-end: the path condition is a persistent cons-list
//! ([`symnet_solver::PathCond`]), the loop-detection history an `Arc`-shared
//! `History` list, and the header/metadata maps and the trace inside
//! [`ExecState`] are persistent too ([`crate::pmap::PMap`],
//! [`crate::state::Trace`]) — children share their parent's structure instead
//! of deep-copying it, and the solver reuses the analysis cached on the
//! shared path-condition prefix ([`symnet_solver::Solver::check_path`]).

use crate::error::{DropReason, EngineError};
use crate::interp::{exec_instr, local_prefix, Ctx, FlowStatus};
use crate::network::{ElementId, Network};
use crate::sched::{panic_message, SchedStats, StealScheduler};
use crate::state::{ExecState, TraceEntry};
use crate::symbols::VarAllocator;
use crate::value::Value;
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symnet_sefl::field::FieldRef;
use symnet_sefl::fields;
use symnet_sefl::instr::Instruction;
use symnet_solver::{IntervalSet, SolverConfig, SolverStats};

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
    /// Number of scheduler workers exploring paths. `1` runs the one worker
    /// on the caller's thread (no thread spawn); more run as scoped threads.
    /// The default is the machine's available parallelism. As long as the run
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq)]
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

/// The result of one [`SymNet::inject`] call.
#[derive(Clone, Debug)]
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
    /// Work-stealing scheduler counters (scheduling-dependent, hence never
    /// printed in the JSON report — see [`SchedStats`]).
    pub sched: SchedStats,
    /// Wall-clock duration of the run.
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
    /// lexicographically orders pending paths breadth-first, whatever order
    /// the scheduler actually processed them in.
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
}

/// Deterministic sort key of one emitted path: the lineage of the pending
/// path whose processing emitted it, plus the emission index within that
/// processing step. The order is `(parent depth, parent lineage, index)`:
/// shallower parents first, parents of equal depth by their fork indices,
/// and a step's emissions by index. It is defined on the keys alone, so no
/// processing order — breadth-first, depth-first or stolen — can change it.
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
/// interleaving of workers can over-produce. An optional deadline ends the
/// run the same way: once it has passed, the budget reads as exhausted at the
/// next element entry and remembers that it [`expired`](PathBudget::expired).
pub(crate) struct PathBudget {
    reserved: AtomicUsize,
    cap: usize,
    deadline: Option<Instant>,
    expired: AtomicBool,
    truncated: AtomicBool,
}

impl PathBudget {
    pub(crate) fn new(cap: usize) -> Self {
        PathBudget::with_deadline(cap, None)
    }

    /// A budget of `cap` paths that also runs out at `deadline` (`None`: no
    /// deadline).
    pub(crate) fn with_deadline(cap: usize, deadline: Option<Instant>) -> Self {
        PathBudget {
            reserved: AtomicUsize::new(0),
            cap,
            deadline,
            expired: AtomicBool::new(false),
            truncated: AtomicBool::new(false),
        }
    }

    /// Reserves one report slot; `false` means the cap is reached and the
    /// path must be discarded (the run is then truncated).
    fn try_reserve(&self) -> bool {
        let reserved = self
            .reserved
            .fetch_update(AtomicOrdering::Relaxed, AtomicOrdering::Relaxed, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .is_ok();
        if !reserved {
            self.truncated.store(true, AtomicOrdering::Relaxed);
        }
        reserved
    }

    /// True once the deadline has passed or every slot is taken
    /// (exploration can stop and drops the popped pending path).
    fn exhausted(&self) -> bool {
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            self.expired.store(true, AtomicOrdering::Relaxed);
            return true;
        }
        if self.reserved.load(AtomicOrdering::Relaxed) >= self.cap {
            self.truncated.store(true, AtomicOrdering::Relaxed);
            return true;
        }
        false
    }

    /// True if the deadline stopped the run before it had explored every
    /// path.
    pub(crate) fn expired(&self) -> bool {
        self.expired.load(AtomicOrdering::Relaxed)
    }

    /// True if the cap discarded a path or an unexplored pending path (a
    /// run that ends with exactly `cap` paths is not truncated).
    pub(crate) fn truncated(&self) -> bool {
        self.truncated.load(AtomicOrdering::Relaxed)
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

/// The output of an exploration phase — of one worker, of all of them
/// merged, or of a whole [`SymNet::run`] including construction: terminated
/// paths, the element-entry checkpoints collected for the resident service
/// (empty unless requested) and the statistics.
#[derive(Default)]
pub(crate) struct Exploration {
    pub(crate) results: Vec<RawResult>,
    pub(crate) checkpoints: Vec<PendingPath>,
    pub(crate) solver_stats: SolverStats,
    pub(crate) sched: SchedStats,
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
        let (exploration, injected) = self.run(element, input_port, packet, &budget, false)?;
        Ok(finalize_report(
            exploration.results,
            injected,
            exploration.solver_stats,
            exploration.sched,
            start,
        ))
    }

    /// Runs one injection without finalizing it: builds the symbolic packet
    /// in the context of the injection element, turns the surviving
    /// construction flows into root pending paths and explores them
    /// ([`SymNet::explore`]). The returned exploration holds every
    /// terminated path (construction's included) and the whole run's solver
    /// counters; the state is the post-construction injected packet.
    ///
    /// Construction runs on the caller's thread; every root path then starts
    /// from a clone of the post-construction allocator, so fresh variables
    /// allocated later are a function of the path alone.
    pub(crate) fn run(
        &self,
        element: ElementId,
        input_port: usize,
        packet: &Instruction,
        budget: &PathBudget,
        collect_checkpoints: bool,
    ) -> Result<(Exploration, ExecState), EngineError> {
        let mut ctx = Ctx::new(self.config.solver);
        let mut results: Vec<RawResult> = Vec::new();
        let mut roots: Vec<PendingPath> = Vec::new();
        let prefix = local_prefix(&self.network, element);
        let flows = catch_unwind(AssertUnwindSafe(|| {
            exec_instr(&mut ctx, &prefix, packet, ExecState::new())
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
        let mut exploration = self.explore(roots, budget, collect_checkpoints)?;
        exploration.results.append(&mut results);
        exploration.solver_stats.merge(&ctx.solver.into_stats());
        Ok((exploration, injected))
    }

    /// Explores every path reachable from `roots` with the work-stealing
    /// scheduler, one solver context per worker, and returns the raw results
    /// (plus, when `collect_checkpoints` is set, one O(1) [`PendingPath`]
    /// checkpoint per processed element entry — the resident service's
    /// re-verification roots).
    ///
    /// One worker runs on the caller's thread; more run as scoped threads.
    /// A panic inside a processing step is caught by the worker itself, which
    /// records it in the scheduler and stops the run; every peer then drains
    /// and returns normally, and the first panic comes back as
    /// [`EngineError::WorkerPanicked`]. A panic *outside* that catch (an
    /// engine bug in the scheduler protocol itself) unwinds the worker; its
    /// `PanicGuard` stops the run so peers exit, and the unwind is mapped to
    /// the same `EngineError` instead of cascading.
    pub(crate) fn explore(
        &self,
        roots: Vec<PendingPath>,
        budget: &PathBudget,
        collect_checkpoints: bool,
    ) -> Result<Exploration, EngineError> {
        let workers = self.config.threads.max(1);
        let sched = StealScheduler::new(workers, roots);
        let run = |me: usize| self.worker(&sched, me, budget, collect_checkpoints);
        let joined: Vec<std::thread::Result<Exploration>> = if workers == 1 {
            vec![catch_unwind(AssertUnwindSafe(|| run(0)))]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|me| scope.spawn(move || run(me)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            })
        };
        let mut escaped_panic: Option<String> = None;
        let mut exploration = Exploration::default();
        for worker in joined {
            match worker {
                Ok(output) => {
                    exploration.results.extend(output.results);
                    exploration.checkpoints.extend(output.checkpoints);
                    exploration.solver_stats.merge(&output.solver_stats);
                    exploration.sched.merge(&output.sched);
                }
                Err(payload) => {
                    escaped_panic.get_or_insert_with(|| panic_message(payload.as_ref()));
                }
            }
        }
        if let Some(message) = sched.take_panic().or(escaped_panic) {
            return Err(EngineError::WorkerPanicked { message });
        }
        Ok(exploration)
    }

    /// One worker: pop pending paths (own deque first, then the injector,
    /// then stealing), process them with the worker's own context, publish
    /// forked children onto the own deque. A panicking step is caught here,
    /// recorded in the scheduler and ends this worker's loop.
    fn worker(
        &self,
        sched: &StealScheduler,
        me: usize,
        budget: &PathBudget,
        collect_checkpoints: bool,
    ) -> Exploration {
        // Backstop for panics that escape the per-step catch below (a bug in
        // the scheduler protocol itself): without it, the unwound worker's
        // in-flight slot would never be retired and every peer would wait
        // forever for `outstanding` to drain. The guard stops the scheduler
        // on unwind so peers exit; the unwind is then surfaced by `explore`.
        struct PanicGuard<'a> {
            sched: &'a StealScheduler,
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

        let mut ctx = Ctx::new(self.config.solver);
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
        Exploration {
            results,
            checkpoints,
            solver_stats: ctx.solver.into_stats(),
            sched: stats,
        }
    }

    /// Processes one path arrival at an element input port, emitting
    /// terminated paths and forked children into the caller's buffers: the
    /// unit of work of the explorer above.
    fn process_pending(
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
        let flows = exec_instr(ctx, &prefix, &input_code, state);
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
        let flows = exec_instr(ctx, &prefix, &output_code, state);
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

/// Sorts raw results into the deterministic report order ([`EmitKey`]:
/// breadth-first fork lineage), assigns sequential ids and wraps
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::canonical_report_json_string;
    use crate::sched::LOCAL_DEQUE_CAP;
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

        // At every worker count the root arrives via the injector
        // (uncounted), the children via local pops or steals, and the fan-out
        // step overflows the bounded deque by exactly
        // `fan_out - LOCAL_DEQUE_CAP`.
        let mut reference: Option<ExecutionReport> = None;
        for threads in [1usize, 2, 8] {
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
            if threads == 1 {
                assert_eq!(report.sched.steals, 0, "a lone worker has no victim");
            }
            // Scheduling never changes the report itself.
            let reference = reference.get_or_insert_with(|| report.clone());
            assert_eq!(report.path_count(), reference.path_count());
            for (x, y) in reference.paths.iter().zip(report.paths.iter()) {
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
    fn deadline_stops_a_run_at_its_first_element_entry() {
        let mut net = Network::new();
        let a = net.add_element(figure4_element());
        let engine = SymNet::new(net);
        let packet = symbolic_tcp_packet();
        let passed = PathBudget::with_deadline(usize::MAX, Some(Instant::now()));
        let (exploration, _) = engine.run(a, 0, &packet, &passed, true).unwrap();
        assert!(passed.expired());
        assert!(exploration.checkpoints.is_empty(), "no element entered");

        // A deadline that never comes changes nothing in the report.
        let far = Instant::now().checked_add(Duration::from_secs(3600));
        let budget = PathBudget::with_deadline(usize::MAX, far);
        let (exploration, injected) = engine.run(a, 0, &packet, &budget, false).unwrap();
        assert!(!budget.expired());
        let report = finalize_report(
            exploration.results,
            injected,
            exploration.solver_stats,
            exploration.sched,
            Instant::now(),
        );
        let solo = engine.inject(a, 0, &packet);
        assert_eq!(
            canonical_report_json_string(&report, engine.network()),
            canonical_report_json_string(&solo, engine.network())
        );
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
