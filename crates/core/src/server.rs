//! The concurrent-query serving subsystem (`symnet-serve`).
//!
//! [`VerifyService`](crate::service::VerifyService) serves one query stream
//! at a time; this module serves **many concurrent verification queries
//! against a mutating network** — the regime the ROADMAP calls the path to
//! "millions of users":
//!
//! * A [`ServeHandle`] front-end enqueues typed requests (verify, delta,
//!   snapshot) into a **bounded admission queue**. Admission is a slot held
//!   from enqueue until the reply is sent, so an over-capacity burst is
//!   rejected with [`ServerError::Overloaded`] instead of growing the queue
//!   without bound.
//! * An **epoch manager** pins every admitted query to an immutable
//!   `Arc<Network>` snapshot. A delta clones the topology (copy-on-write),
//!   swaps in a new `Arc` and bumps the epoch counter; in-flight queries keep
//!   exploring the snapshot they were pinned to — the read path takes no lock
//!   and can never observe a torn topology.
//! * Query execution **fans out onto a shared work-stealing pool**: the same
//!   scheduler protocol as the per-run engine (per-worker LIFO deques, FIFO
//!   steal-half batching, overflow injector — see
//!   `sched::StealScheduler`), run in persistent mode so path work from
//!   different queries interleaves on the same long-lived workers. Each unit
//!   of work is a [`PendingPath`](crate::engine) tagged with its query, and
//!   emissions are routed to per-query collectors.
//! * Reports stay **byte-identical to solo runs**: every emitted path carries
//!   the same fork-lineage sort key as in a solo `SymNet::inject`, the
//!   per-query budget makes `max_paths` exact, and the final report is
//!   assembled by the same `finalize_report`. (Solver and scheduler counters
//!   are scheduling-dependent and excluded from canonical reports, exactly as
//!   in the per-run engine.)
//! * Queries may carry a **deadline**; cancellation is cooperative at
//!   checkpoint granularity (each element-entry job checks the flag before
//!   running), and a cancelled query's remaining jobs drain without being
//!   processed, leaving the pool clean and reusable.
//!
//! ```text
//!  clients ──ServeHandle::verify/apply_delta/snapshot──▶ admission queue
//!                (bounded; slot held until reply)            │
//!                                                        dispatcher
//!                         pin epoch ◀── Mutex<{epoch, Arc<Network>}>
//!                              │              ▲ copy-on-write publish
//!                   construct roots           └── ApplyDelta
//!                              │
//!                              ▼ inject
//!                ┌── persistent work-stealing pool ──┐
//!                │ worker 0 │ worker 1 │ … │ worker N │   jobs = (query, path)
//!                └──────────┴──────────┴───┴──────────┘
//!                              │ per-query collectors, budget, cancel flag
//!                              ▼ outstanding == 0
//!                    finalize_report ──▶ reply ticket
//! ```

use crate::engine::{
    finalize_report, ExecConfig, ExecutionReport, PathBudget, PendingPath, RawResult, SymNet,
};
use crate::error::EngineError;
use crate::interp::Ctx;
use crate::network::{ElementId, Network};
use crate::sched::{panic_message, relock, SchedStats, StealScheduler};
use crate::state::ExecState;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use symnet_sefl::{ElementProgram, Instruction};
use symnet_solver::SolverStats;

/// Configuration of a [`SymNetServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads in the shared exploration pool.
    pub workers: usize,
    /// Admission capacity: the maximum number of requests admitted but not
    /// yet replied to (queued or executing). Submissions beyond it fail fast
    /// with [`ServerError::Overloaded`].
    pub capacity: usize,
    /// Per-query execution configuration. The `threads` field is ignored —
    /// parallelism comes from the shared pool, not per-query scoped threads.
    pub exec: ExecConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: ExecConfig::default_threads(),
            capacity: 64,
            exec: ExecConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Returns this configuration with a different pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns this configuration with a different admission capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

/// Why the server could not serve a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// The admission queue is at capacity; the request was rejected at the
    /// front door (backpressure, not buffering).
    Overloaded,
    /// The query's deadline passed before its exploration finished; its
    /// remaining path work was discarded and the pool stayed clean.
    DeadlineExceeded,
    /// The server is shutting down (or already gone) and accepts no new work.
    ShuttingDown,
    /// The engine failed while executing the request (a model or engine
    /// defect — the paired query fails, the pool survives).
    Engine(EngineError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded => write!(f, "server overloaded: admission queue at capacity"),
            ServerError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ServerError::ShuttingDown => write!(f, "server shutting down"),
            ServerError::Engine(e) => write!(f, "engine failure: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A completed concurrent query: the ordinary [`ExecutionReport`] plus the
/// serving metadata (which epoch the query was pinned to and its wall time
/// from admission to finalization).
#[derive(Debug)]
pub struct ServedReport {
    /// The execution report, byte-identical (in canonical form) to a solo
    /// `SymNet::inject` against the pinned snapshot.
    pub report: ExecutionReport,
    /// The epoch the query was pinned to at dispatch.
    pub epoch: u64,
    /// Wall time from admission to finalization (queueing included).
    pub wall: Duration,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests rejected with [`ServerError::Overloaded`].
    pub rejected: u64,
    /// Queries cancelled by their deadline.
    pub cancelled: u64,
    /// Queries that finished and produced a report.
    pub completed: u64,
    /// Queries that failed with an engine error (worker panic).
    pub failed: u64,
    /// Delta publications (each bumps the epoch).
    pub epochs_published: u64,
    /// Snapshot requests served.
    pub snapshots_served: u64,
}

/// Atomic counters behind [`ServerStats`].
#[derive(Default)]
struct StatsCell {
    admitted: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    epochs_published: AtomicU64,
    snapshots_served: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            snapshots_served: self.snapshots_served.load(Ordering::Relaxed),
        }
    }
}

/// A typed request travelling through the admission queue.
enum Request {
    Verify {
        element: ElementId,
        input_port: usize,
        packet: Instruction,
        deadline: Option<Instant>,
        queued_at: Instant,
        reply: SyncSender<Result<ServedReport, ServerError>>,
    },
    ApplyDelta {
        element: ElementId,
        program: ElementProgram,
        reply: SyncSender<Result<u64, ServerError>>,
    },
    Snapshot {
        reply: SyncSender<Result<(u64, Arc<Network>), ServerError>>,
    },
}

/// The bounded admission queue: a slot is reserved at submission and released
/// only when the request's reply has been sent, so `in_flight` bounds queued
/// *plus* executing requests — the queue itself can never grow past capacity.
struct Admission {
    state: Mutex<AdmissionState>,
    ready: Condvar,
    capacity: usize,
    in_flight: AtomicUsize,
}

struct AdmissionState {
    queue: VecDeque<Request>,
    closed: bool,
}

impl Admission {
    fn new(capacity: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmissionState {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Reserves a slot and enqueues, or fails fast with backpressure.
    fn try_submit(&self, request: Request) -> Result<(), ServerError> {
        let reserved = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .is_ok();
        if !reserved {
            return Err(ServerError::Overloaded);
        }
        let mut state = relock(&self.state);
        if state.closed {
            drop(state);
            self.release_slot();
            return Err(ServerError::ShuttingDown);
        }
        state.queue.push_back(request);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a request is available; `None` once the queue is closed
    /// *and* drained (shutdown still serves everything already admitted).
    fn pop(&self) -> Option<Request> {
        let mut state = relock(&self.state);
        loop {
            if let Some(request) = state.queue.pop_front() {
                return Some(request);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait_timeout(state, Duration::from_millis(5))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Closes the queue: new submissions fail with `ShuttingDown`.
    fn close(&self) {
        relock(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Releases an admission slot (the request has been replied to).
    fn release_slot(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }
}

/// The current epoch: a monotonically increasing counter plus the immutable
/// topology snapshot it names. Only the dispatcher writes it (copy-on-write);
/// queries hold their pinned `Arc<Network>` directly and never touch this
/// lock again.
struct EpochState {
    epoch: u64,
    network: Arc<Network>,
}

/// One unit of pool work: a pending path tagged with the query it belongs to.
struct Job {
    query: Arc<QueryTask>,
    path: PendingPath,
}

/// The parts of a query's construction phase needed at finalization.
struct ConstructionParts {
    results: Vec<RawResult>,
    injected: ExecState,
    solver_stats: SolverStats,
}

/// Everything one in-flight query owns: its pinned-epoch engine, its exact
/// path budget, its result collector and its completion/cancellation state.
struct QueryTask {
    engine: SymNet,
    epoch: u64,
    budget: PathBudget,
    /// Jobs queued or executing for this query; the last retirement (reaching
    /// zero) finalizes the query. Seeded with 1 — the dispatcher's own guard —
    /// so finalization cannot race root injection.
    outstanding: AtomicUsize,
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    failure: Mutex<Option<String>>,
    results: Mutex<Vec<RawResult>>,
    construction: Mutex<Option<ConstructionParts>>,
    reply: Mutex<Option<SyncSender<Result<ServedReport, ServerError>>>>,
    started: Instant,
}

impl QueryTask {
    /// True once this query should do no further path work: explicitly
    /// cancelled, past its deadline (first observer flips the flag), or its
    /// report budget is already full.
    fn should_skip(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        self.budget.exhausted()
    }

    /// Records a fatal per-query failure (first message wins) and cancels the
    /// rest of the query's work. The pool itself stays healthy.
    fn fail(&self, message: String) {
        let mut slot = relock(&self.failure);
        if slot.is_none() {
            *slot = Some(message);
        }
        drop(slot);
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Retires one job; the last retirement finalizes the query and sends the
    /// reply.
    fn retire(&self, shared: &Shared) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.finalize(shared);
        }
    }

    /// Assembles the outcome and replies exactly once.
    fn finalize(&self, shared: &Shared) {
        let Some(reply) = relock(&self.reply).take() else {
            return;
        };
        let failure = relock(&self.failure).take();
        let outcome = if let Some(message) = failure {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            Err(ServerError::Engine(EngineError::WorkerPanicked { message }))
        } else if self.cancelled.load(Ordering::Relaxed) {
            shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            Err(ServerError::DeadlineExceeded)
        } else {
            let parts = relock(&self.construction)
                .take()
                .expect("construction parts present at finalization");
            let mut results = parts.results;
            results.append(&mut relock(&self.results));
            // Per-query solver/sched counters are scheduling-dependent (the
            // pool's worker-local solvers outlive queries), so the report
            // carries the construction-phase solver counters only — canonical
            // reports exclude counters entirely, exactly as for the
            // multi-threaded engine.
            let report = finalize_report(
                results,
                parts.injected,
                parts.solver_stats,
                SchedStats::default(),
                self.started,
            );
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            let wall = report.wall_time;
            Ok(ServedReport {
                report,
                epoch: self.epoch,
                wall,
            })
        };
        let _ = reply.send(outcome);
        shared.admission.release_slot();
    }
}

/// State shared by the handles, the dispatcher and the pool workers.
struct Shared {
    admission: Admission,
    pool: StealScheduler<Job>,
    epoch: Mutex<EpochState>,
    stats: StatsCell,
    exec: ExecConfig,
}

/// The serving subsystem: a dispatcher thread, a persistent work-stealing
/// pool and an epoch-versioned topology. Create one with
/// [`SymNetServer::start`], talk to it through [`ServeHandle`]s, and stop it
/// with [`SymNetServer::shutdown`] (dropping it shuts down too). Shutdown is
/// graceful: everything already admitted is served first.
pub struct SymNetServer {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl SymNetServer {
    /// Starts a server over `network` at epoch 0.
    pub fn start(network: Network, config: ServerConfig) -> SymNetServer {
        let workers = config.workers.max(1);
        // Warm-start: a restarted server pointed at the same cache directory
        // replays the previous process's verdicts from disk. Failure to open
        // the store (locked by a live peer, I/O error) degrades to a cold
        // cache — serving never depends on the disk layer.
        let _ = config.exec.activate_cache();
        let shared = Arc::new(Shared {
            admission: Admission::new(config.capacity),
            pool: StealScheduler::persistent(workers),
            epoch: Mutex::new(EpochState {
                epoch: 0,
                network: Arc::new(network),
            }),
            stats: StatsCell::default(),
            exec: config.exec,
        });
        let worker_handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("symnet-serve-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("symnet-serve-dispatcher".to_string())
                .spawn(move || dispatcher_loop(&shared))
                .expect("spawn dispatcher")
        };
        SymNetServer {
            shared,
            dispatcher: Some(dispatcher),
            workers: worker_handles,
        }
    }

    /// A cloneable front-end handle for submitting requests.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting new requests, serves everything already admitted,
    /// stops the pool and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shared.admission.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for SymNetServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// A cloneable front-end to a running [`SymNetServer`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Enqueues a verification query: inject `packet` at `element`'s input
    /// `input_port` on the *current* epoch (pinned at dispatch). Fails fast
    /// with [`ServerError::Overloaded`] when the admission queue is full.
    pub fn verify(
        &self,
        element: ElementId,
        input_port: usize,
        packet: Instruction,
    ) -> Result<QueryTicket, ServerError> {
        self.submit_verify(element, input_port, packet, None)
    }

    /// Like [`ServeHandle::verify`], with a deadline measured from admission:
    /// a query still running when it expires is cooperatively cancelled (its
    /// ticket resolves to [`ServerError::DeadlineExceeded`]) and the pool
    /// stays reusable.
    pub fn verify_with_deadline(
        &self,
        element: ElementId,
        input_port: usize,
        packet: Instruction,
        deadline: Duration,
    ) -> Result<QueryTicket, ServerError> {
        self.submit_verify(element, input_port, packet, Some(Instant::now() + deadline))
    }

    fn submit_verify(
        &self,
        element: ElementId,
        input_port: usize,
        packet: Instruction,
        deadline: Option<Instant>,
    ) -> Result<QueryTicket, ServerError> {
        let (reply, ticket) = sync_channel(1);
        let request = Request::Verify {
            element,
            input_port,
            packet,
            deadline,
            queued_at: Instant::now(),
            reply,
        };
        self.admit(request)?;
        Ok(QueryTicket { ticket })
    }

    /// Enqueues a rule delta: replace `element`'s program (same port counts)
    /// and publish a new epoch. In-flight queries finish on their pinned
    /// pre-delta snapshot; queries admitted after the ticket resolves see the
    /// post-delta epoch. Drive this from
    /// [`RuleTables`](../../symnet_models/delta/struct.RuleTables.html)-style
    /// table state to keep the program the compiled truth of the tables.
    pub fn apply_delta(
        &self,
        element: ElementId,
        program: ElementProgram,
    ) -> Result<DeltaTicket, ServerError> {
        let (reply, ticket) = sync_channel(1);
        self.admit(Request::ApplyDelta {
            element,
            program,
            reply,
        })?;
        Ok(DeltaTicket { ticket })
    }

    /// Enqueues a snapshot request: the current epoch number plus a shared
    /// handle to its immutable topology.
    pub fn snapshot(&self) -> Result<SnapshotTicket, ServerError> {
        let (reply, ticket) = sync_channel(1);
        self.admit(Request::Snapshot { reply })?;
        Ok(SnapshotTicket { ticket })
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    fn admit(&self, request: Request) -> Result<(), ServerError> {
        match self.shared.admission.try_submit(request) {
            Ok(()) => {
                self.shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                if e == ServerError::Overloaded {
                    self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

/// The pending reply to a [`ServeHandle::verify`] submission.
#[derive(Debug)]
pub struct QueryTicket {
    ticket: Receiver<Result<ServedReport, ServerError>>,
}

impl QueryTicket {
    /// Blocks until the query finalizes.
    pub fn wait(self) -> Result<ServedReport, ServerError> {
        self.ticket.recv().unwrap_or(Err(ServerError::ShuttingDown))
    }
}

/// The pending reply to a [`ServeHandle::apply_delta`] submission; resolves
/// to the newly published epoch number.
pub struct DeltaTicket {
    ticket: Receiver<Result<u64, ServerError>>,
}

impl DeltaTicket {
    /// Blocks until the delta is published.
    pub fn wait(self) -> Result<u64, ServerError> {
        self.ticket.recv().unwrap_or(Err(ServerError::ShuttingDown))
    }
}

/// The pending reply to a [`ServeHandle::snapshot`] submission.
#[derive(Debug)]
pub struct SnapshotTicket {
    ticket: Receiver<Result<(u64, Arc<Network>), ServerError>>,
}

impl SnapshotTicket {
    /// Blocks until the snapshot is taken.
    pub fn wait(self) -> Result<(u64, Arc<Network>), ServerError> {
        self.ticket.recv().unwrap_or(Err(ServerError::ShuttingDown))
    }
}

/// The dispatcher: drains the admission queue in order (the serialization
/// point that makes "pinned before the delta" well defined), pins and
/// constructs queries, publishes epochs, serves snapshots. After the queue
/// closes it waits for in-flight queries to finalize, then stops the pool.
fn dispatcher_loop(shared: &Arc<Shared>) {
    while let Some(request) = shared.admission.pop() {
        match request {
            Request::Verify {
                element,
                input_port,
                packet,
                deadline,
                queued_at,
                reply,
            } => dispatch_verify(
                shared, element, input_port, packet, deadline, queued_at, reply,
            ),
            Request::ApplyDelta {
                element,
                program,
                reply,
            } => {
                let outcome = {
                    let mut state = relock(&shared.epoch);
                    let current = Arc::clone(&state.network);
                    match catch_unwind(AssertUnwindSafe(move || {
                        let mut network = (*current).clone();
                        network.replace_element(element, program);
                        network
                    })) {
                        Ok(network) => {
                            state.network = Arc::new(network);
                            state.epoch += 1;
                            shared
                                .stats
                                .epochs_published
                                .fetch_add(1, Ordering::Relaxed);
                            Ok(state.epoch)
                        }
                        Err(payload) => Err(ServerError::Engine(EngineError::WorkerPanicked {
                            message: panic_message(payload.as_ref()),
                        })),
                    }
                };
                let _ = reply.send(outcome);
                shared.admission.release_slot();
            }
            Request::Snapshot { reply } => {
                let state = relock(&shared.epoch);
                let snapshot = (state.epoch, Arc::clone(&state.network));
                drop(state);
                shared
                    .stats
                    .snapshots_served
                    .fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(Ok(snapshot));
                shared.admission.release_slot();
            }
        }
    }
    // Queue closed and drained: wait for every in-flight query to reply
    // (workers are still exploring), then stop the pool so workers join.
    while shared.admission.in_flight() != 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    shared.pool.stop();
}

/// Pins a query to the current epoch, runs packet construction on the
/// dispatcher thread and injects the root jobs into the pool. The dispatcher
/// holds one guard unit of `outstanding` across injection so the query cannot
/// finalize before all roots are counted.
fn dispatch_verify(
    shared: &Arc<Shared>,
    element: ElementId,
    input_port: usize,
    packet: Instruction,
    deadline: Option<Instant>,
    queued_at: Instant,
    reply: SyncSender<Result<ServedReport, ServerError>>,
) {
    let (epoch, network) = {
        let state = relock(&shared.epoch);
        (state.epoch, Arc::clone(&state.network))
    };
    let task = Arc::new(QueryTask {
        engine: SymNet::shared(network, shared.exec.clone()),
        epoch,
        budget: PathBudget::new(shared.exec.max_paths),
        outstanding: AtomicUsize::new(1),
        cancelled: AtomicBool::new(false),
        deadline,
        failure: Mutex::new(None),
        results: Mutex::new(Vec::new()),
        construction: Mutex::new(None),
        reply: Mutex::new(Some(reply)),
        started: queued_at,
    });
    match task
        .engine
        .construct_roots(element, input_port, &packet, &task.budget)
    {
        Ok(construction) => {
            *relock(&task.construction) = Some(ConstructionParts {
                results: construction.results,
                injected: construction.injected,
                solver_stats: construction.solver_stats,
            });
            let jobs: Vec<Job> = construction
                .roots
                .into_iter()
                .map(|path| Job {
                    query: Arc::clone(&task),
                    path,
                })
                .collect();
            if !jobs.is_empty() {
                task.outstanding.fetch_add(jobs.len(), Ordering::SeqCst);
                shared.pool.inject(jobs);
            }
        }
        Err(EngineError::WorkerPanicked { message }) => task.fail(message),
    }
    // Drop the dispatcher's guard; if construction produced no roots (or
    // failed) this finalizes immediately.
    task.retire(shared);
}

/// One pool worker: pops query-tagged jobs (own deque, injector, steal-half),
/// interprets them with a long-lived thread-local context and routes
/// emissions to the owning query's collector. A panicking step fails its
/// query only — the worker and the pool keep serving other queries.
fn worker_loop(shared: &Arc<Shared>, me: usize) {
    let mut ctx = Ctx::new(shared.exec.solver);
    let mut stats = SchedStats::default();
    let mut results: Vec<RawResult> = Vec::new();
    let mut children: Vec<PendingPath> = Vec::new();
    while let Some(Job { query, path }) = shared.pool.pop(me, &mut stats) {
        if query.should_skip() {
            // Cancelled / past-deadline / budget-full queries drain their
            // remaining jobs without processing them: the checkpoint-granular
            // cooperative cancellation point.
            shared.pool.complete(me, Vec::new(), &mut stats);
            query.retire(shared);
            continue;
        }
        let step = catch_unwind(AssertUnwindSafe(|| {
            query
                .engine
                .process_pending(&mut ctx, &query.budget, path, &mut results, &mut children)
        }));
        match step {
            Ok(()) => {
                if !results.is_empty() {
                    relock(&query.results).append(&mut results);
                }
                let jobs: Vec<Job> = children
                    .drain(..)
                    .map(|path| Job {
                        query: Arc::clone(&query),
                        path,
                    })
                    .collect();
                if !jobs.is_empty() {
                    // Count the children on the query *before* publishing them
                    // so its outstanding count can never dip to zero early.
                    query.outstanding.fetch_add(jobs.len(), Ordering::SeqCst);
                }
                shared.pool.complete(me, jobs, &mut stats);
            }
            Err(payload) => {
                results.clear();
                children.clear();
                query.fail(panic_message(payload.as_ref()));
                shared.pool.complete(me, Vec::new(), &mut stats);
            }
        }
        query.retire(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symnet_sefl::fields::tcp_dst;
    use symnet_sefl::packet::symbolic_tcp_packet;
    use symnet_sefl::Condition;

    /// A 1-in-1-out element that only lets HTTP through.
    fn http_filter(name: &str) -> ElementProgram {
        ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
            Instruction::constrain(Condition::eq(tcp_dst().field(), 80u64)),
            Instruction::forward(0),
        ]))
    }

    fn one_filter_network() -> (Network, ElementId) {
        let mut net = Network::new();
        let fw = net.add_element(http_filter("fw"));
        (net, fw)
    }

    #[test]
    fn serves_a_simple_query() {
        let (net, fw) = one_filter_network();
        let server = SymNetServer::start(net, ServerConfig::default().with_workers(2));
        let handle = server.handle();
        let served = handle
            .verify(fw, 0, symbolic_tcp_packet())
            .expect("admitted")
            .wait()
            .expect("completes");
        assert_eq!(served.epoch, 0);
        assert_eq!(served.report.delivered().count(), 1);
        let stats = handle.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }

    #[test]
    fn delta_publishes_a_new_epoch_and_snapshot_sees_it() {
        let (net, fw) = one_filter_network();
        let server = SymNetServer::start(net, ServerConfig::default().with_workers(1));
        let handle = server.handle();
        let (epoch0, _) = handle.snapshot().expect("admitted").wait().expect("served");
        assert_eq!(epoch0, 0);
        let epoch1 = handle
            .apply_delta(fw, http_filter("fw"))
            .expect("admitted")
            .wait()
            .expect("published");
        assert_eq!(epoch1, 1);
        let (epoch, _) = handle.snapshot().expect("admitted").wait().expect("served");
        assert_eq!(epoch, 1);
        assert_eq!(handle.stats().epochs_published, 1);
        server.shutdown();
    }

    #[test]
    fn zero_deadline_query_is_cancelled_and_server_stays_usable() {
        let (net, fw) = one_filter_network();
        let server = SymNetServer::start(net, ServerConfig::default().with_workers(2));
        let handle = server.handle();
        let err = handle
            .verify_with_deadline(fw, 0, symbolic_tcp_packet(), Duration::ZERO)
            .expect("admitted")
            .wait()
            .expect_err("deadline already passed");
        assert_eq!(err, ServerError::DeadlineExceeded);
        assert_eq!(handle.stats().cancelled, 1);
        // The pool survives and keeps serving.
        let served = handle
            .verify(fw, 0, symbolic_tcp_packet())
            .expect("admitted")
            .wait()
            .expect("completes");
        assert_eq!(served.report.delivered().count(), 1);
        server.shutdown();
    }

    #[test]
    fn panicking_model_fails_its_query_but_not_the_pool() {
        let mut net = Network::new();
        let bomb = net.add_element(
            ElementProgram::new("bomb", 1, 1)
                .with_any_input_code(Instruction::abort("defective model")),
        );
        let fw = net.add_element(http_filter("fw"));
        let server = SymNetServer::start(net, ServerConfig::default().with_workers(2));
        let handle = server.handle();
        let err = handle
            .verify(bomb, 0, symbolic_tcp_packet())
            .expect("admitted")
            .wait()
            .expect_err("bomb panics");
        match err {
            ServerError::Engine(EngineError::WorkerPanicked { message }) => {
                assert!(message.contains("defective model"), "message: {message}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert_eq!(handle.stats().failed, 1);
        // The pool keeps serving other queries after the contained failure.
        let served = handle
            .verify(fw, 0, symbolic_tcp_packet())
            .expect("admitted")
            .wait()
            .expect("completes");
        assert_eq!(served.report.delivered().count(), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let (net, fw) = one_filter_network();
        let server = SymNetServer::start(net, ServerConfig::default());
        let handle = server.handle();
        server.shutdown();
        let err = handle
            .verify(fw, 0, symbolic_tcp_packet())
            .expect_err("queue closed");
        assert_eq!(err, ServerError::ShuttingDown);
    }
}
