//! The concurrent-query serving subsystem (`symnet-serve`).
//!
//! [`VerifyService`](crate::service::VerifyService) serves one query stream
//! at a time; this module serves **many concurrent verification queries
//! against a mutating network**:
//!
//! * A [`ServeHandle`] front-end submits typed requests (verify, delta,
//!   snapshot). Every request is admitted under **one lock** over the
//!   server's state: the queue of pinned queries, the current epoch and its
//!   immutable `Arc<Network>` snapshot, and the counters.
//! * **Queries are pinned at admission.** `verify` reserves an admission
//!   slot (held until the reply is sent, so an over-capacity burst is
//!   rejected with [`ServerError::Overloaded`] instead of growing the queue
//!   without bound), pins the current `(epoch, Arc<Network>)` and queues the
//!   query. A delta clones the topology (copy-on-write), swaps in a new `Arc`
//!   and bumps the epoch on the caller's thread, under the same lock; a
//!   snapshot reads the pair. Admission order is therefore pin order: a query
//!   admitted before a delta explores the pre-delta topology, one admitted
//!   after it the post-delta one, and no query can observe a torn topology.
//! * **Workers run queries through the engine's driver.** Each of the
//!   [`ServerConfig::workers`] threads pops the oldest pinned query and runs
//!   it on its pinned snapshot with one scheduler worker — the same
//!   construction, exploration and `finalize_report` as a solo
//!   `SymNet::try_inject`, so reports are **byte-identical to solo runs** in
//!   canonical form. Parallelism comes from running concurrent queries on
//!   different workers.
//! * Queries may carry a **deadline**; it travels in the query's path budget
//!   and is checked at every element entry. An expired query stops
//!   exploring and resolves to [`ServerError::DeadlineExceeded`]; a
//!   panicking model fails its own query only. Either way the worker goes on
//!   to the next query.
//!
//! ```text
//!  clients ──verify──────▶ ┌─ Mutex<State> ─────────────────────────┐
//!   (Overloaded when all   │ queue: queries pinned to their epoch   │
//!    capacity slots held)  │ epoch + Arc<Network>                   │
//!          ──apply_delta─▶ │   (copy-on-write publish, epoch += 1)  │
//!          ──snapshot────▶ │ in_flight ≤ capacity, closed, counters │
//!                          └───────────────────┬────────────────────┘
//!                                              │ pop oldest (condvar)
//!                     ┌────────────┬───────────┴┬──────────────┐
//!                     │ worker 0   │ worker 1   │ … worker N-1 │
//!                     └────────────┴────────────┴──────────────┘
//!                       each: SymNet::run on the pinned snapshot,
//!                       one scheduler worker, deadline in the budget
//!                                  │ finalize_report, release the slot
//!                                  ▼ reply ticket
//! ```

use crate::engine::{finalize_report, ExecConfig, ExecutionReport, PathBudget, SymNet};
use crate::error::EngineError;
use crate::network::{ElementId, Network};
use crate::sched::{panic_message, relock};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use symnet_sefl::{ElementProgram, Instruction};

/// Configuration of a [`SymNetServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; each runs one admitted query at a time.
    pub workers: usize,
    /// Admission capacity: the maximum number of queries admitted but not
    /// yet replied to (queued or running). Queries beyond it fail fast with
    /// [`ServerError::Overloaded`]. Deltas and snapshots are answered at
    /// admission and never count against it.
    pub capacity: usize,
    /// Per-query execution configuration. The `threads` field is ignored:
    /// each query runs on one worker thread, and parallelism comes from
    /// running concurrent queries on different workers.
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
    /// Returns this configuration with a different number of workers.
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
    /// The admission queue is at capacity; the query was rejected at the
    /// front door (backpressure, not buffering).
    Overloaded,
    /// The query's deadline passed before its exploration finished; the rest
    /// of its exploration was skipped.
    DeadlineExceeded,
    /// The server is shutting down (or already gone) and accepts no new work.
    ShuttingDown,
    /// The engine failed while executing the request (a model or engine
    /// defect — the request fails, the server keeps serving).
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
    /// `SymNet::inject` against the pinned snapshot. Its solver and
    /// scheduler counters are the whole run's, as in a solo run with one
    /// worker.
    pub report: ExecutionReport,
    /// The epoch the query was pinned to at admission.
    pub epoch: u64,
    /// Wall time from admission to finalization (queueing included).
    pub wall: Duration,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted (queries, deltas and snapshots).
    pub admitted: u64,
    /// Queries rejected with [`ServerError::Overloaded`].
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

/// An admitted query, pinned to the epoch current at its admission.
struct Query {
    element: ElementId,
    input_port: usize,
    packet: Instruction,
    deadline: Option<Instant>,
    queued_at: Instant,
    epoch: u64,
    network: Arc<Network>,
    reply: SyncSender<Result<ServedReport, ServerError>>,
}

/// Everything a request reads or writes, under one lock.
struct State {
    /// Admitted queries not yet picked up by a worker, oldest first.
    queue: VecDeque<Query>,
    /// Admitted queries not yet replied to (queued or running); bounded by
    /// [`ServerConfig::capacity`].
    in_flight: usize,
    /// Set by shutdown: new requests fail with `ShuttingDown`, and workers
    /// exit once the queue is drained.
    closed: bool,
    /// The current epoch and the immutable topology snapshot it names.
    epoch: u64,
    network: Arc<Network>,
    stats: ServerStats,
}

/// State shared by the handles and the workers.
struct Shared {
    state: Mutex<State>,
    /// Signalled when a query is queued or the server closes.
    ready: Condvar,
    capacity: usize,
    /// The per-query configuration, with one scheduler worker.
    exec: ExecConfig,
}

/// The serving subsystem: worker threads over an epoch-versioned topology.
/// Create one with [`SymNetServer::start`], talk to it through
/// [`ServeHandle`]s, and stop it with [`SymNetServer::shutdown`] (dropping it
/// shuts down too). Shutdown is graceful: every query already admitted is
/// served first.
pub struct SymNetServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SymNetServer {
    /// Starts a server over `network` at epoch 0.
    pub fn start(network: Network, config: ServerConfig) -> SymNetServer {
        // Warm-start: a restarted server pointed at the same cache directory
        // replays the previous process's verdicts from disk. Failure to open
        // the store (locked by a live peer, I/O error) degrades to a cold
        // cache — serving never depends on the disk layer.
        let _ = config.exec.activate_cache();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight: 0,
                closed: false,
                epoch: 0,
                network: Arc::new(network),
                stats: ServerStats::default(),
            }),
            ready: Condvar::new(),
            capacity: config.capacity.max(1),
            exec: config.exec.with_threads(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("symnet-serve-worker-{me}"))
                    .spawn(move || serve_queries(&shared))
                    .expect("spawn server worker")
            })
            .collect();
        SymNetServer { shared, workers }
    }

    /// A cloneable front-end handle for submitting requests.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting new requests, serves every query already admitted and
    /// joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        relock(&self.shared.state).closed = true;
        self.shared.ready.notify_all();
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
    /// Admits a verification query: inject `packet` at `element`'s input
    /// `input_port` on the epoch current at admission. Fails fast with
    /// [`ServerError::Overloaded`] when the admission queue is full.
    pub fn verify(
        &self,
        element: ElementId,
        input_port: usize,
        packet: Instruction,
    ) -> Result<QueryTicket, ServerError> {
        self.submit_verify(element, input_port, packet, None)
    }

    /// Like [`ServeHandle::verify`], with a deadline measured from admission:
    /// a query still running when it expires stops at its next element entry
    /// and its ticket resolves to [`ServerError::DeadlineExceeded`]. A
    /// deadline too far in the future to represent means no deadline.
    pub fn verify_with_deadline(
        &self,
        element: ElementId,
        input_port: usize,
        packet: Instruction,
        deadline: Duration,
    ) -> Result<QueryTicket, ServerError> {
        let deadline = Instant::now().checked_add(deadline);
        self.submit_verify(element, input_port, packet, deadline)
    }

    fn submit_verify(
        &self,
        element: ElementId,
        input_port: usize,
        packet: Instruction,
        deadline: Option<Instant>,
    ) -> Result<QueryTicket, ServerError> {
        let (reply, ticket) = sync_channel(1);
        let mut state = self.open_state()?;
        if state.in_flight >= self.shared.capacity {
            state.stats.rejected += 1;
            return Err(ServerError::Overloaded);
        }
        state.in_flight += 1;
        state.stats.admitted += 1;
        let query = Query {
            element,
            input_port,
            packet,
            deadline,
            queued_at: Instant::now(),
            epoch: state.epoch,
            network: Arc::clone(&state.network),
            reply,
        };
        state.queue.push_back(query);
        drop(state);
        self.shared.ready.notify_one();
        Ok(QueryTicket { ticket })
    }

    /// Applies a rule delta: replaces `element`'s program (same port counts)
    /// on a copy of the current topology and publishes it as a new epoch,
    /// on the caller's thread. Queries admitted before the call keep their
    /// pinned pre-delta snapshot; queries admitted after it see the new
    /// epoch. The returned ticket is already resolved, and a delta is never
    /// [`ServerError::Overloaded`]. Drive this from
    /// [`RuleTables`](../../symnet_models/delta/struct.RuleTables.html)-style
    /// table state to keep the program the compiled truth of the tables.
    pub fn apply_delta(
        &self,
        element: ElementId,
        program: ElementProgram,
    ) -> Result<DeltaTicket, ServerError> {
        let mut state = self.open_state()?;
        state.stats.admitted += 1;
        let current = Arc::clone(&state.network);
        let outcome = match catch_unwind(AssertUnwindSafe(move || {
            let mut network = (*current).clone();
            network.replace_element(element, program);
            network
        })) {
            Ok(network) => {
                state.network = Arc::new(network);
                state.epoch += 1;
                state.stats.epochs_published += 1;
                Ok(state.epoch)
            }
            Err(payload) => Err(ServerError::Engine(EngineError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            })),
        };
        Ok(DeltaTicket { outcome })
    }

    /// The current epoch number plus a shared handle to its immutable
    /// topology. The returned ticket is already resolved, and a snapshot is
    /// never [`ServerError::Overloaded`].
    pub fn snapshot(&self) -> Result<SnapshotTicket, ServerError> {
        let mut state = self.open_state()?;
        state.stats.admitted += 1;
        state.stats.snapshots_served += 1;
        Ok(SnapshotTicket {
            snapshot: (state.epoch, Arc::clone(&state.network)),
        })
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        relock(&self.shared.state).stats
    }

    /// Takes the state lock for a new request; fails once the server is
    /// shutting down.
    fn open_state(&self) -> Result<MutexGuard<'_, State>, ServerError> {
        let state = relock(&self.shared.state);
        if state.closed {
            return Err(ServerError::ShuttingDown);
        }
        Ok(state)
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

/// The reply to a [`ServeHandle::apply_delta`] submission; resolves to the
/// newly published epoch number.
pub struct DeltaTicket {
    outcome: Result<u64, ServerError>,
}

impl DeltaTicket {
    /// The newly published epoch number (the delta is already published).
    pub fn wait(self) -> Result<u64, ServerError> {
        self.outcome
    }
}

/// The reply to a [`ServeHandle::snapshot`] submission.
#[derive(Debug)]
pub struct SnapshotTicket {
    snapshot: (u64, Arc<Network>),
}

impl SnapshotTicket {
    /// The epoch number and its topology (the snapshot is already taken).
    pub fn wait(self) -> Result<(u64, Arc<Network>), ServerError> {
        Ok(self.snapshot)
    }
}

/// One worker: pops the oldest pinned query, runs it with one scheduler
/// worker on this thread and replies, until the server closes and the queue
/// is drained.
fn serve_queries(shared: &Shared) {
    loop {
        let query = {
            let mut state = relock(&shared.state);
            loop {
                if let Some(query) = state.queue.pop_front() {
                    break query;
                }
                if state.closed {
                    return;
                }
                state = shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let budget = PathBudget::with_deadline(shared.exec.max_paths, query.deadline);
        let engine = SymNet::shared(query.network, shared.exec.clone());
        let outcome = match engine.run(
            query.element,
            query.input_port,
            &query.packet,
            &budget,
            false,
        ) {
            Err(e) => Err(ServerError::Engine(e)),
            Ok(_) if budget.expired() => Err(ServerError::DeadlineExceeded),
            Ok((exploration, injected)) => {
                let report = finalize_report(
                    exploration.results,
                    injected,
                    exploration.solver_stats,
                    exploration.sched,
                    query.queued_at,
                );
                Ok(ServedReport {
                    wall: report.wall_time,
                    report,
                    epoch: query.epoch,
                })
            }
        };
        {
            let mut state = relock(&shared.state);
            state.in_flight -= 1;
            let counter = match &outcome {
                Ok(_) => &mut state.stats.completed,
                Err(ServerError::DeadlineExceeded) => &mut state.stats.cancelled,
                Err(_) => &mut state.stats.failed,
            };
            *counter += 1;
        }
        let _ = query.reply.send(outcome);
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
        assert!(matches!(
            handle.apply_delta(fw, http_filter("fw")),
            Err(ServerError::ShuttingDown)
        ));
        let err = handle.snapshot().expect_err("queue closed");
        assert_eq!(err, ServerError::ShuttingDown);
    }

    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let (net, fw) = one_filter_network();
        let server = SymNetServer::start(net, ServerConfig::default().with_workers(1));
        let handle = server.handle();
        let served = handle
            .verify_with_deadline(fw, 0, symbolic_tcp_packet(), Duration::MAX)
            .expect("admitted")
            .wait()
            .expect("completes");
        assert_eq!(served.report.delivered().count(), 1);
        assert_eq!(handle.stats().completed, 1);
        server.shutdown();
    }

    #[test]
    fn served_reports_carry_the_whole_runs_counters() {
        // The second filter is entered from the worker's own deque, and both
        // filters ask the solver about their constraint.
        let mut net = Network::new();
        let fw = net.add_element(http_filter("fw"));
        let next = net.add_element(http_filter("next"));
        net.add_link(fw, 0, next, 0);
        let server = SymNetServer::start(net, ServerConfig::default().with_workers(1));
        let served = server
            .handle()
            .verify(fw, 0, symbolic_tcp_packet())
            .expect("admitted")
            .wait()
            .expect("completes");
        assert_eq!(served.report.delivered().count(), 1);
        assert!(served.report.sched.local_hits > 0);
        assert!(served.report.solver_stats.calls > 0);
        server.shutdown();
    }
}
