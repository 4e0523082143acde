//! The resident verification service: load a topology once, keep standing
//! queries verified across rule deltas.
//!
//! Every `inject` of the batch engine rebuilds and re-explores the whole
//! topology, which throws away exactly the structure a changing network
//! leaves intact: a MAC learn, a route withdrawal or a NAT binding touches
//! *one* element, yet the overwhelming majority of explored paths never
//! traverse it. [`VerifyService`] closes that gap:
//!
//! * **Load once.** The service owns the network behind an [`Arc`]; engine
//!   snapshots ([`SymNet::shared`]) are O(1) and applying a delta is
//!   copy-on-write ([`Arc::make_mut`]) — in-flight queries keep reading the
//!   snapshot they started on.
//! * **Checkpoints.** The first verification of a standing query records one
//!   O(1) `PendingPath` checkpoint per element entry (persistent state,
//!   history and allocator — everything needed to resume exploration from
//!   that entry).
//! * **Delta invalidation.** A rule delta replaces one element's program
//!   ([`crate::network::Network::replace_element`]). The lineage-minimal set
//!   of checkpoints *entering* the changed element becomes the re-exploration
//!   roots; every cached result and checkpoint at or below such a root is
//!   dropped, and the solver analyses cached on their now-stale
//!   path-condition suffixes are cleared
//!   ([`symnet_solver::PathCond::invalidate_deeper_than`]).
//! * **Delta re-verification.** The next [`VerifyService::verify`] re-explores
//!   only the invalidated subtrees — with the *new* element program — and
//!   merges the fresh results with the kept ones. Because every emitted path
//!   carries its fork lineage, the merged report sorts into exactly the order
//!   a from-scratch run produces: the canonical JSON
//!   ([`crate::report::canonical_report_json_string`]) is byte-identical to
//!   re-running the whole query, at any thread count, in either solver mode.
//!
//! Results reported by an incremental verification differ from a from-scratch
//! run only in the solver/scheduler *counters* (which measure work actually
//! performed, like wall time) — which is why the canonical JSON excludes
//! them, just as the standard rendering already excludes wall time and
//! scheduler counters.

use crate::engine::{
    finalize_report, ExecConfig, ExecutionReport, PathBudget, PendingPath, RawResult, SymNet,
};
use crate::error::EngineError;
use crate::network::{ElementId, Network};
use crate::sched::{panic_message, SchedStats};
use crate::state::ExecState;
use std::sync::Arc;
use std::time::Instant;
use symnet_sefl::{ElementProgram, Instruction};
use symnet_solver::SolverStats;

/// Handle of a standing query registered with [`VerifyService::add_query`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(usize);

/// How a verification was answered, and what the delta machinery did for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// True when the query was (re-)explored from scratch (first
    /// verification of the query).
    pub from_scratch: bool,
    /// Paths reused from the previous verification without any re-execution.
    pub kept_paths: usize,
    /// Paths produced by (re-)exploration during this verification.
    pub reexplored_paths: usize,
    /// Invalidated element-entry checkpoints this verification re-explored
    /// from (0 when the cached result was reusable wholesale).
    pub invalidated_roots: usize,
    /// Path-condition nodes whose cached solver analyses were cleared by the
    /// deltas answered by this verification.
    pub cache_nodes_cleared: usize,
}

/// What one delta application invalidated across the standing queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Standing queries with at least one checkpoint entering the changed
    /// element.
    pub queries_affected: usize,
    /// Re-exploration roots now pending across all affected queries
    /// (lineage-minimal, merged with roots pending from earlier deltas).
    pub roots_invalidated: usize,
    /// Cached path results dropped as stale.
    pub results_dropped: usize,
    /// Cached element-entry checkpoints dropped as stale.
    pub checkpoints_dropped: usize,
    /// Path-condition nodes whose cached solver analyses were cleared.
    pub cache_nodes_cleared: usize,
}

impl UpdateStats {
    fn absorb(&mut self, other: UpdateStats) {
        self.queries_affected += other.queries_affected;
        self.roots_invalidated += other.roots_invalidated;
        self.results_dropped += other.results_dropped;
        self.checkpoints_dropped += other.checkpoints_dropped;
        self.cache_nodes_cleared += other.cache_nodes_cleared;
    }
}

/// The answer to one [`VerifyService::verify`] call.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// The full execution report, byte-identical (canonical rendering) to a
    /// from-scratch run of the query against the current topology.
    pub report: ExecutionReport,
    /// What the delta machinery reused versus re-explored.
    pub stats: ServiceStats,
}

/// The cached outcome of a query's last verification.
struct VerifiedState {
    /// The post-construction injected state (construction does not execute
    /// element programs, so deltas never invalidate it).
    injected: ExecState,
    /// Every still-valid raw result, keyed by fork lineage.
    results: Vec<RawResult>,
    /// Every still-valid element-entry checkpoint.
    checkpoints: Vec<PendingPath>,
    /// Invalidated entry checkpoints awaiting re-exploration (lineage-minimal).
    pending_roots: Vec<PendingPath>,
    /// Cache nodes cleared by deltas since the last verification (carried
    /// into the next verification's [`ServiceStats`]).
    cache_nodes_cleared: usize,
    /// True when the verification hit [`ExecConfig::max_paths`]. A truncated
    /// run discarded part of its frontier at emission time, so its
    /// checkpoints do not cover the network: the next delta drops the whole
    /// cached state and re-verification starts from scratch — which keeps
    /// the cap exact and the verdicts stale-free (a capped run is
    /// scheduling-dependent anyway, so there is no byte-identical incremental
    /// answer to preserve).
    truncated: bool,
}

/// One standing query: an injection specification plus its cached outcome.
struct QuerySession {
    name: String,
    element: ElementId,
    input_port: usize,
    packet: Instruction,
    state: Option<VerifiedState>,
}

/// A long-lived verification engine over one topology (see the module docs).
pub struct VerifyService {
    network: Arc<Network>,
    config: ExecConfig,
    sessions: Vec<QuerySession>,
}

impl VerifyService {
    /// Creates a service over a topology with an explicit configuration.
    pub fn new(network: Network, config: ExecConfig) -> Self {
        VerifyService {
            network: Arc::new(network),
            config,
            sessions: Vec::new(),
        }
    }

    /// The current topology snapshot.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The execution configuration shared by every query.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// An O(1) engine snapshot over the current topology — what an ad-hoc
    /// (non-standing) query or a from-scratch baseline runs against. The
    /// snapshot keeps the topology it was taken from alive even across later
    /// [`VerifyService::apply_update`] calls (copy-on-write).
    pub fn snapshot(&self) -> SymNet {
        SymNet::shared(self.network.clone(), self.config.clone())
    }

    /// The current topology as a shared snapshot (O(1)). This is the bridge
    /// to the concurrent serving subsystem: hand the clone to
    /// [`SymNetServer::start`](crate::server::SymNetServer) (via
    /// [`Network::clone`]) to serve the service's current epoch to many
    /// concurrent clients while this service keeps its incremental sessions.
    pub fn network_shared(&self) -> Arc<Network> {
        Arc::clone(&self.network)
    }

    /// Registers a standing query: inject a packet built by `packet` at
    /// `element`'s input port `input_port`. Nothing is explored until the
    /// first [`VerifyService::verify`].
    pub fn add_query(
        &mut self,
        name: impl Into<String>,
        element: ElementId,
        input_port: usize,
        packet: Instruction,
    ) -> QueryId {
        let id = QueryId(self.sessions.len());
        self.sessions.push(QuerySession {
            name: name.into(),
            element,
            input_port,
            packet,
            state: None,
        });
        id
    }

    /// The name a standing query was registered under.
    pub fn query_name(&self, id: QueryId) -> &str {
        &self.sessions[id.0].name
    }

    /// The registered standing queries, in registration order.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> {
        (0..self.sessions.len()).map(QueryId)
    }

    /// Applies a rule delta: replaces `element`'s program on a copy-on-write
    /// topology snapshot and invalidates, for every standing query, the
    /// cached results and checkpoints at or below an entry into the changed
    /// element. The stale subtrees are re-explored (with the new program) by
    /// the next [`VerifyService::verify`] of each affected query.
    pub fn apply_update(&mut self, element: ElementId, program: ElementProgram) -> UpdateStats {
        Arc::make_mut(&mut self.network).replace_element(element, program);
        let mut stats = UpdateStats::default();
        for session in &mut self.sessions {
            let Some(state) = &mut session.state else {
                continue;
            };
            if state.truncated {
                // The run hit `max_paths`: the unexplored frontier was
                // discarded at emission time, so the checkpoints do not cover
                // the network and *any* delta may affect paths we never saw.
                // Drop the cached state; the next verify is from scratch.
                stats.absorb(UpdateStats {
                    queries_affected: 1,
                    roots_invalidated: 0,
                    results_dropped: state.results.len(),
                    checkpoints_dropped: state.checkpoints.len(),
                    cache_nodes_cleared: 0,
                });
                session.state = None;
                continue;
            }
            stats.absorb(invalidate_session(state, element));
        }
        stats
    }

    /// Verifies one standing query: from scratch on first call, re-exploring
    /// only delta-invalidated subtrees afterwards. The canonical rendering of
    /// the returned report is byte-identical to a from-scratch run against
    /// the current topology.
    pub fn verify(&mut self, id: QueryId) -> Result<ServiceReport, EngineError> {
        verify_session(&self.network, &self.config, &mut self.sessions[id.0])
    }

    /// Verifies every standing query concurrently, one thread per query over
    /// a shared read snapshot (each query's exploration additionally fans out
    /// over the work-stealing pool). Results are in registration order.
    pub fn verify_all(&mut self) -> Vec<Result<ServiceReport, EngineError>> {
        let network = self.network.clone();
        let config = self.config.clone();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .iter_mut()
                .map(|session| {
                    let network = network.clone();
                    let config = &config;
                    scope.spawn(move || verify_session(&network, config, session))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        Err(EngineError::WorkerPanicked {
                            message: panic_message(payload.as_ref()),
                        })
                    })
                })
                .collect()
        })
    }
}

/// True if lineage `a` is a (non-strict) prefix of lineage `b` — i.e. the
/// pending path at `b` is the one at `a` or descends from it.
fn is_prefix(a: &[u32], b: &[u32]) -> bool {
    b.len() >= a.len() && b[..a.len()] == *a
}

/// The root (if any) whose subtree a lineage belongs to.
fn stale_root<'a>(roots: &'a [PendingPath], lineage: &[u32]) -> Option<&'a PendingPath> {
    roots.iter().find(|r| is_prefix(r.lineage(), lineage))
}

/// Reduces candidate re-exploration roots to the lineage-minimal set: a
/// candidate inside another candidate's subtree is dropped (re-exploring the
/// ancestor re-explores it too, with fresh post-delta state).
fn minimal_roots(mut candidates: Vec<PendingPath>) -> Vec<PendingPath> {
    candidates
        .sort_by(|a, b| (a.lineage().len(), a.lineage()).cmp(&(b.lineage().len(), b.lineage())));
    let mut roots: Vec<PendingPath> = Vec::new();
    for candidate in candidates {
        if stale_root(&roots, candidate.lineage()).is_none() {
            roots.push(candidate);
        }
    }
    roots
}

/// Invalidates one query's cached state against a change to `element`.
fn invalidate_session(state: &mut VerifiedState, element: ElementId) -> UpdateStats {
    let mut stats = UpdateStats::default();
    let new_roots: Vec<PendingPath> = state
        .checkpoints
        .iter()
        .filter(|cp| cp.element() == element)
        .cloned()
        .collect();
    if new_roots.is_empty() {
        // No checkpoint enters the changed element: either the query never
        // reaches it, or every entry is already inside a pending subtree
        // (whose re-exploration will use the new program anyway).
        return stats;
    }
    stats.queries_affected = 1;
    let mut candidates = std::mem::take(&mut state.pending_roots);
    candidates.extend(new_roots);
    let roots = minimal_roots(candidates);

    // Drop everything at or below an invalidated entry, clearing the solver
    // analyses cached on the now-stale path-condition suffixes (the conjuncts
    // pushed while executing the old program). The checkpoint prefix itself
    // stays cached — its constraints predate the changed element.
    let mut cleared = 0;
    state
        .results
        .retain(|r| match stale_root(&roots, r.key.parent()) {
            None => true,
            Some(root) => {
                cleared += r
                    .state
                    .path_cond()
                    .invalidate_deeper_than(root.state().path_cond().len());
                stats.results_dropped += 1;
                false
            }
        });
    state
        .checkpoints
        .retain(|cp| match stale_root(&roots, cp.lineage()) {
            None => true,
            Some(root) => {
                cleared += cp
                    .state()
                    .path_cond()
                    .invalidate_deeper_than(root.state().path_cond().len());
                stats.checkpoints_dropped += 1;
                false
            }
        });
    stats.cache_nodes_cleared = cleared;
    state.cache_nodes_cleared += cleared;
    stats.roots_invalidated = roots.len();
    state.pending_roots = roots;
    stats
}

/// Verifies one session against the given topology snapshot.
fn verify_session(
    network: &Arc<Network>,
    config: &ExecConfig,
    session: &mut QuerySession,
) -> Result<ServiceReport, EngineError> {
    let start = Instant::now();
    let engine = SymNet::shared(network.clone(), config.clone());
    match &mut session.state {
        // First verification: explore from scratch, recording checkpoints.
        None => {
            let budget = PathBudget::new(config.max_paths);
            let construction = engine.construct_roots(
                session.element,
                session.input_port,
                &session.packet,
                &budget,
            )?;
            let exploration = engine.explore(construction.roots, &budget, true)?;
            let mut results = construction.results;
            results.extend(exploration.results);
            let mut solver_stats = exploration.solver_stats;
            solver_stats.merge(&construction.solver_stats);
            let total = results.len();
            session.state = Some(VerifiedState {
                injected: construction.injected.clone(),
                results: results.clone(),
                checkpoints: exploration.checkpoints,
                pending_roots: Vec::new(),
                cache_nodes_cleared: 0,
                truncated: total >= config.max_paths,
            });
            Ok(ServiceReport {
                report: finalize_report(
                    results,
                    construction.injected,
                    solver_stats,
                    exploration.sched,
                    start,
                ),
                stats: ServiceStats {
                    from_scratch: true,
                    kept_paths: 0,
                    reexplored_paths: total,
                    invalidated_roots: 0,
                    cache_nodes_cleared: 0,
                },
            })
        }
        // Re-verification: re-explore only the invalidated subtrees.
        Some(state) => {
            let kept = state.results.len();
            let cache_nodes_cleared = std::mem::take(&mut state.cache_nodes_cleared);
            if state.pending_roots.is_empty() {
                // Nothing invalidated since the last verification: the cached
                // answer is the answer. No solver work is performed at all.
                return Ok(ServiceReport {
                    report: finalize_report(
                        state.results.clone(),
                        state.injected.clone(),
                        SolverStats::default(),
                        SchedStats::default(),
                        start,
                    ),
                    stats: ServiceStats {
                        from_scratch: false,
                        kept_paths: kept,
                        reexplored_paths: 0,
                        invalidated_roots: 0,
                        cache_nodes_cleared,
                    },
                });
            }
            // The kept paths already occupy report slots; the re-exploration
            // gets whatever budget remains, keeping `max_paths` exact.
            let budget = PathBudget::new(config.max_paths.saturating_sub(kept));
            let invalidated_roots = state.pending_roots.len();
            let exploration = engine.explore(state.pending_roots.clone(), &budget, true)?;
            state.pending_roots.clear();
            let reexplored = exploration.results.len();
            state.results.extend(exploration.results);
            state.checkpoints.extend(exploration.checkpoints);
            state.truncated = state.results.len() >= config.max_paths;
            Ok(ServiceReport {
                report: finalize_report(
                    state.results.clone(),
                    state.injected.clone(),
                    exploration.solver_stats,
                    exploration.sched,
                    start,
                ),
                stats: ServiceStats {
                    from_scratch: false,
                    kept_paths: kept,
                    reexplored_paths: reexplored,
                    invalidated_roots,
                    cache_nodes_cleared,
                },
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::canonical_report_json_string;
    use symnet_sefl::cond::Condition;
    use symnet_sefl::fields::{ip_dst, ip_ttl};
    use symnet_sefl::packet::symbolic_tcp_packet;
    use symnet_sefl::Expr;

    /// A tiny two-hop chain: src-switch forwards everything to a filter that
    /// drops unless IpDst matches a "learned" address.
    fn filter_program(allowed: u64) -> ElementProgram {
        ElementProgram::new("filter", 1, 1).with_any_input_code(Instruction::block(vec![
            Instruction::if_else(
                Condition::eq(ip_dst().field(), allowed),
                Instruction::forward(0),
                Instruction::fail("unknown destination"),
            ),
        ]))
    }

    /// `a` decrements the TTL and forks to the filter (port 0) and to an
    /// unlinked delivery port (port 1) — so a delta to the filter leaves the
    /// port-1 subtree intact for the service to keep.
    fn chain() -> (Network, ElementId, ElementId) {
        let mut net = Network::new();
        let a = net.add_element(ElementProgram::new("a", 1, 2).with_any_input_code(
            Instruction::block(vec![
                Instruction::assign(ip_ttl().field(), Expr::reference(ip_ttl().field()).minus(1)),
                Instruction::fork(vec![0, 1]),
            ]),
        ));
        let f = net.add_element(filter_program(10));
        net.add_link(a, 0, f, 0);
        (net, a, f)
    }

    #[test]
    fn first_verify_is_from_scratch_then_cached() {
        let (net, a, _) = chain();
        let mut service = VerifyService::new(net, ExecConfig::default());
        let q = service.add_query("reach", a, 0, symbolic_tcp_packet());
        let first = service.verify(q).unwrap();
        assert!(first.stats.from_scratch);
        assert!(first.report.path_count() > 0);
        let second = service.verify(q).unwrap();
        assert!(!second.stats.from_scratch);
        assert_eq!(second.stats.kept_paths, first.report.path_count());
        assert_eq!(second.stats.reexplored_paths, 0);
        // The cached answer is byte-identical to the fresh one.
        assert_eq!(
            canonical_report_json_string(&first.report, service.network()),
            canonical_report_json_string(&second.report, service.network()),
        );
    }

    #[test]
    fn delta_reverify_matches_from_scratch() {
        let (net, a, f) = chain();
        let mut service = VerifyService::new(net, ExecConfig::default());
        let q = service.add_query("reach", a, 0, symbolic_tcp_packet());
        service.verify(q).unwrap();

        // Delta: the filter learns a different address.
        let update = service.apply_update(f, filter_program(20));
        assert_eq!(update.queries_affected, 1);
        assert_eq!(update.roots_invalidated, 1);
        let incremental = service.verify(q).unwrap();
        assert!(!incremental.stats.from_scratch);
        assert!(incremental.stats.kept_paths > 0);
        assert!(incremental.stats.reexplored_paths > 0);

        // From-scratch baseline over the same (post-delta) snapshot.
        let scratch = service
            .snapshot()
            .try_inject(a, 0, &symbolic_tcp_packet())
            .unwrap();
        assert_eq!(
            canonical_report_json_string(&incremental.report, service.network()),
            canonical_report_json_string(&scratch, service.network()),
        );
        // The path through the filter carries the post-delta constraint.
        let path = incremental.report.delivered_at(f, 0).next().unwrap();
        assert!(path.state.path_condition().to_string().contains("== 20"));
    }

    #[test]
    fn unrelated_delta_invalidates_nothing() {
        let (mut net, _, _) = chain();
        let lonely = net.add_element(filter_program(99));
        let (a, _) = (ElementId(0), ElementId(1));
        let mut service = VerifyService::new(net, ExecConfig::default());
        let q = service.add_query("reach", a, 0, symbolic_tcp_packet());
        let first = service.verify(q).unwrap();
        let update = service.apply_update(lonely, filter_program(7));
        assert_eq!(update, UpdateStats::default());
        let second = service.verify(q).unwrap();
        assert_eq!(second.stats.kept_paths, first.report.path_count());
        assert_eq!(second.stats.reexplored_paths, 0);
    }

    #[test]
    fn verify_all_runs_every_query() {
        let (net, a, f) = chain();
        let mut service = VerifyService::new(net, ExecConfig::default());
        service.add_query("from-a", a, 0, symbolic_tcp_packet());
        service.add_query("from-filter", f, 0, symbolic_tcp_packet());
        let reports = service.verify_all();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.as_ref().unwrap().report.path_count() > 0);
        }
        assert_eq!(service.query_name(QueryId(0)), "from-a");
    }

    #[test]
    fn worker_panic_surfaces_through_the_service() {
        let mut net = Network::new();
        let bomb = net.add_element(
            ElementProgram::new("bomb", 1, 1).with_any_input_code(Instruction::abort("boom")),
        );
        let mut service = VerifyService::new(net, ExecConfig::default());
        let q = service.add_query("bomb", bomb, 0, symbolic_tcp_packet());
        let err = service.verify(q).expect_err("must fail");
        let EngineError::WorkerPanicked { message } = err;
        assert!(message.contains("boom"), "{message}");
        // The service survives: a later verify retries from scratch.
        let err = service.verify(q).expect_err("still failing");
        let EngineError::WorkerPanicked { message } = err;
        assert!(message.contains("boom"), "{message}");
    }
}
