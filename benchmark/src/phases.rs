//! Set-up and the three measured phases every workload runs: one-shot
//! operations (inject, answer, render), resident-service operations (delta,
//! re-verify) and served queries under churn — plus the extra probes of the
//! traced run. Every answer is held against the workload's [`Truth`]; every
//! library call sits inside a [`Tracer`] span.

use crate::adapter::{
    canonical_report_json_string, check_scenario, fanout_mac, reachable_ports, reset_memos,
    ExecConfig, ExecutionReport, FuzzScenario, Network, PathCond, QueryId, RuleTables, ServeHandle,
    ServerConfig, Solver, SolverResult, SolverStats, SymNet, SymNetServer, VerifyService,
};
use crate::jsoncheck;
use crate::oracle::{self, Truth};
use crate::scenario::{DeltaPlan, Scenario, Workload, QUERIES_PER_DELTA};
use crate::trace::{Span, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Worker threads of the server's pool and its admission capacity.
const SERVER_WORKERS: usize = 1;
const SERVER_CAPACITY: usize = 16;
/// Closed-loop clients of the served phase.
pub const CLIENTS: usize = 2;
/// A resident operation's report is probed address by address this often (and
/// on the last operation); in between, only its counts are checked, so that
/// checking does not swamp sub-millisecond operations.
const PROBE_EVERY: usize = 64;
/// A resident report is compared with a from-scratch run on the same
/// snapshot this often (and on the last operation).
const SCRATCH_EVERY: usize = 1000;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Failure reasons a tally keeps (the count goes on).
const REASONS_KEPT: usize = 5;

/// Attempted and failed operations, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < REASONS_KEPT {
                self.reasons.push(format!("{what}: {reason}"));
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(REASONS_KEPT);
    }
}

/// Everything set-up builds: the one-shot engine, the resident service and
/// the server, each over its own copy of the network, with the tables and
/// reference model that track the deltas published to it.
pub struct Ready {
    pub workload: &'static Workload,
    pub config: ExecConfig,
    pub scenario: Scenario,
    pub engine: SymNet,
    pub service: VerifyService,
    pub query: QueryId,
    pub served: Scenario,
    pub server: SymNetServer,
}

/// Exploration threads of the engine and the resident service. One: a run is
/// confined to one CPU (see `crate::pin`), and with two threads the same
/// exploration took anything from 9 to 18 ms from one run to the next. The
/// traced run reports the two-thread time as `engine.explore_2t_ms`.
const THREADS: usize = 1;

fn exec_config(max_hops: usize) -> ExecConfig {
    ExecConfig {
        max_hops,
        threads: THREADS,
        ..ExecConfig::default()
    }
}

/// One complete set-up from seeded text to warmed-up engine, service and
/// server — what `setup_s` times.
pub fn set_up(workload: &'static Workload, seed: u64) -> Result<Ready, String> {
    reset_memos();
    let scenario = workload.build(seed);
    let config = exec_config(scenario.max_hops);
    let engine = SymNet::with_config(scenario.network.clone(), config.clone());
    for _ in 0..if workload.cold { 1 } else { 3 } {
        let report = engine
            .try_inject(scenario.inject_at, 0, &scenario.packet)
            .map_err(|e| format!("warm-up inject: {e}"))?;
        std::hint::black_box(oracle::answers(&report, &scenario.field));
    }
    let mut service = VerifyService::new(scenario.network.clone(), config.clone());
    let query = service.add_query("standing", scenario.inject_at, 0, scenario.packet.clone());
    service
        .verify(query)
        .map_err(|e| format!("first verification: {e}"))?;

    // The server is a second deployment with tables of its own: deltas
    // published to it must not move the service's tables.
    let mut served = workload.build(seed);
    served.plan = served.plan.second_deployment();
    let server = SymNetServer::start(
        served.network.clone(),
        ServerConfig {
            workers: SERVER_WORKERS,
            capacity: SERVER_CAPACITY,
            exec: config.clone(),
        },
    );
    server
        .handle()
        .verify(served.inject_at, 0, served.packet.clone())
        .and_then(|ticket| ticket.wait())
        .map_err(|e| format!("warm-up query: {e}"))?;
    Ok(Ready {
        workload,
        config,
        scenario,
        engine,
        service,
        query,
        served,
        server,
    })
}

/// The oracle's own set-up, outside `setup_s`: establishes the reference for
/// the base tables and checks a first report against *every* address the
/// tables name.
pub fn establish_truth(ready: &mut Ready) -> Result<(), String> {
    let s = &ready.scenario;
    let report = ready
        .engine
        .try_inject(s.inject_at, 0, &s.packet)
        .map_err(|e| e.to_string())?;
    let mut probes = s.probes.clone();
    match &s.truth {
        Truth::Replayed { .. } => {
            let replayed = check_scenario(&FuzzScenario {
                name: ready.workload.name.to_string(),
                network: s.network.clone(),
                reference: s.network.clone(),
                tables: RuleTables::new(),
                inject_at: s.inject_at,
                inject_port: 0,
                packet: s.packet.clone(),
                max_hops: s.max_hops,
            })?;
            let truth = Truth::Replayed {
                delivered: replayed,
                digest: oracle::shape_digest(&report),
            };
            ready.scenario.truth = truth.clone();
            ready.served.truth = truth;
        }
        Truth::Fanout {
            leaves,
            macs_per_leaf,
        } => {
            probes = (0..leaves.len())
                .flat_map(|l| (0..*macs_per_leaf).map(move |s| fanout_mac(l, s)))
                .collect();
        }
        Truth::Lpm { .. } | Truth::Mac { .. } => {}
    }
    let s = &ready.scenario;
    oracle::check_complete(&report, ready.config.max_paths)?;
    oracle::check(
        &s.truth,
        &report,
        &oracle::answers(&report, &s.field),
        &probes,
    )
}

/// Sums of the counters the reports of one phase carried.
#[derive(Default)]
pub struct Counters {
    pub solver: SolverStats,
    pub local_hits: u64,
    pub steals: u64,
    pub batch_stolen: u64,
    pub overflow: u64,
    pub paths: u64,
}

impl Counters {
    fn add(&mut self, report: &ExecutionReport) {
        self.solver.merge(&report.solver_stats);
        self.local_hits += report.sched.local_hits;
        self.steals += report.sched.steals;
        self.batch_stolen += report.sched.batch_stolen;
        self.overflow += report.sched.overflow_pushes;
        self.paths += report.path_count() as u64;
    }
}

/// Results of the one-shot phase.
#[derive(Default)]
pub struct OneShot {
    pub verdict_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub bytes: u64,
    pub counters: Counters,
    pub tally: Tally,
}

/// `SymNet::try_inject`, the `verify` answers, and the canonical JSON, `ops`
/// times over.
pub fn one_shot(ready: &Ready, ops: usize, tracer: &mut Tracer) -> OneShot {
    let s = &ready.scenario;
    let mut out = OneShot::default();
    for op in 0..ops {
        if ready.workload.cold {
            reset_memos();
        }
        tracer.set_op(op as u64);
        let start = Instant::now();
        tracer.enter("one_shot");
        let injected = tracer.span("engine.inject", |t| {
            let report = ready.engine.try_inject(s.inject_at, 0, &s.packet);
            if let Ok(report) = &report {
                t.derived("solver.in_inject", report.solver_stats.time_in_solver);
            }
            report
        });
        let report = match injected {
            Ok(report) => report,
            Err(e) => {
                tracer.exit();
                out.tally.record("inject", Err(e.to_string()));
                continue;
            }
        };
        let (ports, answers) = tracer.span("verify.queries", |_| {
            (reachable_ports(&report), oracle::answers(&report, &s.field))
        });
        let verdict = start.elapsed();
        let json = tracer.span("report.render", |_| {
            canonical_report_json_string(&report, ready.engine.network())
        });
        let total = start.elapsed();
        tracer.exit();

        out.verdict_ms.push(ms(verdict));
        out.report_ms.push(ms(total));
        out.bytes = json.len() as u64;
        out.counters.add(&report);
        let outcome = oracle::check_complete(&report, ready.config.max_paths)
            .and_then(|()| oracle::check(&s.truth, &report, &answers, &s.probes))
            .and_then(|()| {
                if ports.is_empty() || ports.len() > s.truth.delivered() {
                    return Err(format!("{} reachable ports", ports.len()));
                }
                let rendered = jsoncheck::read_report(&json)?;
                let want = jsoncheck::Rendered {
                    path_count: report.path_count() as u64,
                    delivered_count: s.truth.delivered() as u64,
                    paths_len: report.path_count() as u64,
                };
                if rendered != want {
                    return Err(format!("rendered {rendered:?}, expected {want:?}"));
                }
                Ok(())
            });
        out.tally.record("one-shot", outcome);
    }
    out
}

/// Results of the resident-service phase.
#[derive(Default)]
pub struct Resident {
    pub reverify_ms: Vec<f64>,
    pub kept: u64,
    pub reexplored: u64,
    pub scratch_ms: Vec<f64>,
    pub tally: Tally,
}

/// `RuleTables::apply_with` of one delta into `VerifyService::apply_update`,
/// then `VerifyService::verify`, `ops` times over.
pub fn resident(ready: &mut Ready, ops: usize, tracer: &mut Tracer) -> Resident {
    let mut out = Resident::default();
    let Ready {
        scenario: s,
        service,
        query,
        config,
        ..
    } = ready;
    for op in 0..ops {
        let delta = s.plan.delta(op);
        tracer.set_op(op as u64);
        let start = Instant::now();
        tracer.enter("reverify");
        tracer.enter("models.delta_compile");
        let published = s.tables.apply_with(&delta, |element, program| {
            tracer.exit();
            tracer.span("service.apply_update", |_| {
                service.apply_update(element, program)
            })
        });
        if !matches!(published, Ok(Some(_))) {
            // The closure never ran: close the compile span here.
            tracer.exit();
        }
        let verified = tracer.span("service.verify", |_| service.verify(*query));
        let elapsed = start.elapsed();
        tracer.exit();

        s.truth.apply(&delta);
        let outcome = match (published, verified) {
            (Ok(Some(_)), Ok(answer)) => {
                out.reverify_ms.push(ms(elapsed));
                out.kept += answer.stats.kept_paths as u64;
                out.reexplored += answer.stats.reexplored_paths as u64;
                let last = op + 1 == ops;
                let mut outcome = oracle::check_complete(&answer.report, config.max_paths);
                if outcome.is_ok() {
                    outcome = if last || (op + 1).is_multiple_of(PROBE_EVERY) {
                        let mut probes = s.probes.clone();
                        probes.push(DeltaPlan::address(&delta));
                        let answers = oracle::answers(&answer.report, &s.field);
                        oracle::check(&s.truth, &answer.report, &answers, &probes)
                    } else {
                        oracle::check_counts(&s.truth, &answer.report)
                    };
                }
                if outcome.is_ok() && (last || (op + 1).is_multiple_of(SCRATCH_EVERY)) {
                    let t = Instant::now();
                    let scratch = service.snapshot().try_inject(s.inject_at, 0, &s.packet);
                    out.scratch_ms.push(ms(t.elapsed()));
                    outcome = same_as_scratch(&answer.report, scratch);
                }
                outcome
            }
            (Ok(None), _) => Err("the delta was a no-op on its table".to_string()),
            (Err(e), _) => Err(e.to_string()),
            (_, Err(e)) => Err(e.to_string()),
        };
        out.tally.record("reverify", outcome);
    }
    out
}

/// The consistency check: a resident answer equals a from-scratch run on the
/// same snapshot, path for path.
fn same_as_scratch<E: std::fmt::Display>(
    resident: &ExecutionReport,
    scratch: Result<ExecutionReport, E>,
) -> Result<(), String> {
    let scratch = scratch.map_err(|e| format!("from-scratch inject: {e}"))?;
    if oracle::content_digest(resident) == oracle::content_digest(&scratch) {
        Ok(())
    } else {
        Err("resident answer differs from a from-scratch run on the same snapshot".to_string())
    }
}

/// Results of the served phase.
#[derive(Default)]
pub struct Served {
    pub latency_ms: Vec<f64>,
    pub wall_ms: Vec<f64>,
    pub publish_us: Vec<f64>,
    pub elapsed: Duration,
    pub rejected: u64,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

/// What both clients of the served phase share.
struct Load<'a> {
    handle: ServeHandle,
    scenario: &'a Scenario,
    queries: usize,
    max_paths: usize,
    /// The delivered count the tables imply after each published delta.
    expected: Vec<usize>,
    /// The epoch of the last delta whose ticket has resolved.
    published: AtomicU64,
}

/// One closed-loop client and what it measured.
struct Client {
    latency_ms: Vec<f64>,
    wall_ms: Vec<f64>,
    publish_us: Vec<f64>,
    tally: Tally,
    /// Reports kept for the from-scratch comparison, with their snapshots.
    kept: Vec<(ExecutionReport, Arc<Network>)>,
    tracer: Tracer,
}

impl Client {
    /// Submits query `i` and waits for its reply. `truth` is the publisher's
    /// reference: only the publisher knows which tables the epoch of its
    /// reply was compiled from, so only its replies are probed.
    fn query(&mut self, load: &Load, i: usize, truth: Option<&Truth>) {
        let s = load.scenario;
        let floor = load.published.load(Ordering::SeqCst);
        let start = Instant::now();
        let reply = self.tracer.span("query", |t| {
            let reply = load
                .handle
                .verify(s.inject_at, 0, s.packet.clone())
                .and_then(|ticket| ticket.wait());
            if let Ok(reply) = &reply {
                t.derived("server.wall", reply.wall);
            }
            reply
        });
        self.latency_ms.push(ms(start.elapsed()));
        let outcome = reply.map_err(|e| e.to_string()).and_then(|reply| {
            self.wall_ms.push(ms(reply.wall));
            oracle::check_complete(&reply.report, load.max_paths)?;
            if reply.epoch < floor {
                return Err(format!(
                    "reply pinned to epoch {}, delta {floor} had already resolved",
                    reply.epoch
                ));
            }
            let delivered = reply.report.delivered().count();
            if load.expected.get(reply.epoch as usize) != Some(&delivered) {
                return Err(format!(
                    "{delivered} delivered paths at epoch {}",
                    reply.epoch
                ));
            }
            let Some(truth) = truth else { return Ok(()) };
            let last = i + 1 == load.queries;
            if last || (i + 1).is_multiple_of(PROBE_EVERY) {
                let answers = oracle::answers(&reply.report, &s.field);
                oracle::check(truth, &reply.report, &answers, &s.probes)?;
            }
            if last || (i + 1).is_multiple_of(SCRATCH_EVERY) {
                let (epoch, network) = load
                    .handle
                    .snapshot()
                    .and_then(|ticket| ticket.wait())
                    .map_err(|e| e.to_string())?;
                if epoch != reply.epoch {
                    return Err(format!(
                        "snapshot at epoch {epoch}, reply at {}",
                        reply.epoch
                    ));
                }
                self.kept.push((reply.report, network));
            }
            Ok(())
        });
        self.tally.record("query", outcome);
    }

    /// Publishes delta `k` through `RuleTables::apply_with` into
    /// `ServeHandle::apply_delta` and waits for its epoch.
    fn publish(&mut self, load: &Load, k: usize, tables: &mut RuleTables, truth: &mut Truth) {
        let delta = load.scenario.plan.delta(k);
        let start = Instant::now();
        self.tracer.enter("delta");
        self.tracer.enter("models.delta_compile");
        let tracer = &mut self.tracer;
        let epoch = tables.apply_with(&delta, |element, program| {
            tracer.exit();
            tracer.span("server.delta_publish", |_| {
                load.handle
                    .apply_delta(element, program)
                    .and_then(|ticket| ticket.wait())
            })
        });
        if !matches!(epoch, Ok(Some(_))) {
            // The closure never ran: close the compile span here.
            self.tracer.exit();
        }
        self.tracer.exit();
        self.publish_us.push(ms(start.elapsed()) * 1e3);
        truth.apply(&delta);
        let outcome = match epoch {
            Ok(Some(Ok(epoch))) if epoch == k as u64 + 1 => {
                load.published.store(epoch, Ordering::SeqCst);
                Ok(())
            }
            Ok(Some(Ok(epoch))) => Err(format!("delta {k} published as epoch {epoch}")),
            Ok(Some(Err(e))) => Err(e.to_string()),
            Ok(None) => Err("the delta was a no-op on its table".to_string()),
            Err(e) => Err(e.to_string()),
        };
        self.tally.record("delta", outcome);
    }
}

/// Two closed-loop clients, `queries` each, against the one-worker server;
/// client 0 publishes a delta after every eighth query of its own.
pub fn served(ready: &mut Ready, queries: usize, trace: bool, origin: Instant) -> Served {
    let Ready {
        served: s,
        server,
        config,
        ..
    } = ready;
    let handle = server.handle();
    let rejected_before = handle.stats().rejected;
    let mut expected = vec![s.truth.delivered()];
    let mut future = s.truth.clone();
    for k in 0..queries / QUERIES_PER_DELTA {
        future.apply(&s.plan.delta(k));
        expected.push(future.delivered());
    }
    // The publisher's tables and reference leave the scenario for the
    // duration of the phase, so that both clients can share the rest of it.
    let mut tables = std::mem::take(&mut s.tables);
    let mut truth = s.truth.clone();
    let load = Load {
        handle,
        scenario: s,
        queries,
        max_paths: config.max_paths,
        expected,
        published: AtomicU64::new(0),
    };
    let barrier = Barrier::new(CLIENTS);
    let mut publisher = Some((&mut tables, &mut truth));

    let started = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let mut publisher = if id == 0 { publisher.take() } else { None };
                let (load, barrier) = (&load, &barrier);
                scope.spawn(move || {
                    let mut c = Client {
                        latency_ms: Vec::with_capacity(queries),
                        wall_ms: Vec::with_capacity(queries),
                        publish_us: Vec::new(),
                        tally: Tally::default(),
                        kept: Vec::new(),
                        tracer: Tracer::new(trace, origin),
                    };
                    barrier.wait();
                    for i in 0..queries {
                        c.tracer.set_op((id * queries + i) as u64);
                        c.query(load, i, publisher.as_ref().map(|(_, truth)| &**truth));
                        if let Some((tables, truth)) = &mut publisher {
                            if (i + 1).is_multiple_of(QUERIES_PER_DELTA) {
                                c.publish(load, (i + 1) / QUERIES_PER_DELTA - 1, tables, truth);
                            }
                        }
                    }
                    c
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut out = Served {
        elapsed,
        rejected: load.handle.stats().rejected - rejected_before,
        ..Served::default()
    };
    for mut c in clients {
        for (report, network) in c.kept.drain(..) {
            let scratch =
                SymNet::shared(network, config.clone()).try_inject(s.inject_at, 0, &s.packet);
            if let Err(reason) = same_as_scratch(&report, scratch) {
                // The query itself was already counted as attempted.
                c.tally.failed += 1;
                c.tally.reasons.push(reason);
            }
        }
        out.latency_ms.extend(c.latency_ms);
        out.wall_ms.extend(c.wall_ms);
        out.publish_us.extend(c.publish_us);
        out.tally.absorb(c.tally);
        c.tracer.drain_into(&mut out.spans);
    }
    s.tables = tables;
    s.truth = truth;
    out
}

// -- the traced run's extra probes -------------------------------------------

/// `solver.check_cold_ms` / `solver.check_warm_us`: a fresh `Solver` checks
/// path conditions rebuilt, conjunct by conjunct, from delivered paths of one
/// report — so no analysis cached on the original nodes helps. Of a report
/// with many delivered paths, [`SWEEP_PATHS`] evenly spaced ones are taken
/// (the basic switch's thousand conditions of up to a thousand conjuncts
/// take a fresh solver five seconds). Returns the time of one sweep over
/// those paths (median of three), with the process-wide memos reset before
/// each cold sweep and left alone for the warm ones.
pub fn solver_sweeps(ready: &Ready) -> Result<(f64, f64), String> {
    let s = &ready.scenario;
    let report = ready
        .engine
        .try_inject(s.inject_at, 0, &s.packet)
        .map_err(|e| e.to_string())?;
    let delivered: Vec<_> = report.delivered().collect();
    let stride = delivered.len().div_ceil(SWEEP_PATHS).max(1);
    let sweep = || -> Result<f64, String> {
        let rebuilt: Vec<PathCond> = delivered
            .iter()
            .step_by(stride)
            .map(|p| {
                p.state
                    .path_cond()
                    .conjuncts()
                    .into_iter()
                    .fold(PathCond::empty(), |pc, f| pc.push(f.clone()))
            })
            .collect();
        let t = Instant::now();
        for pc in &rebuilt {
            if !matches!(Solver::default().check_path(pc), SolverResult::Sat(_)) {
                return Err("a delivered path's condition is not satisfiable".to_string());
            }
        }
        Ok(ms(t.elapsed()))
    };
    let mut cold = Vec::new();
    for _ in 0..3 {
        reset_memos();
        cold.push(sweep()?);
    }
    let mut warm = Vec::new();
    for _ in 0..3 {
        warm.push(sweep()?);
    }
    Ok((
        crate::stats::median(&cold),
        crate::stats::median(&warm) * 1e3,
    ))
}

/// `engine.explore_2t_ms` and the `sched.*` counters: the one-shot exploration
/// with two worker threads (the work-stealing driver instead of the sequential
/// loop), memos as in the one-shot phase. Returns the median time and the
/// counters of all runs.
pub fn threaded_explore(ready: &Ready) -> Result<(f64, Counters), String> {
    let s = &ready.scenario;
    let engine = SymNet::with_config(s.network.clone(), ready.config.clone().with_threads(2));
    let mut samples = Vec::new();
    let mut counters = Counters::default();
    for _ in 0..THREADED_RUNS {
        if ready.workload.cold {
            reset_memos();
        }
        let t = Instant::now();
        let report = engine
            .try_inject(s.inject_at, 0, &s.packet)
            .map_err(|e| e.to_string())?;
        samples.push(ms(t.elapsed()));
        counters.add(&report);
    }
    Ok((crate::stats::median(&samples), counters))
}

/// Delivered paths one solver sweep checks, at most.
const SWEEP_PATHS: usize = 64;

/// Two-thread explorations the traced run makes.
pub const THREADED_RUNS: usize = 15;

/// `server.solo_ms`: the served query run alone, through `SymNet::shared` on
/// the server's current snapshot.
pub fn solo_query(ready: &Ready) -> Result<f64, String> {
    let (_, network) = ready
        .server
        .handle()
        .snapshot()
        .and_then(|t| t.wait())
        .map_err(|e| e.to_string())?;
    let engine = SymNet::shared(network, ready.config.clone());
    let s = &ready.served;
    let mut samples = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        engine
            .try_inject(s.inject_at, 0, &s.packet)
            .map_err(|e| e.to_string())?;
        samples.push(ms(t.elapsed()));
    }
    Ok(crate::stats::median(&samples))
}

/// What the disk-layer child process reports (see `main`'s `--disk-child`).
pub struct DiskProbe {
    pub open_ms: f64,
    pub verdict_ms: f64,
    pub persisted_hits: u64,
}

/// Runs one verdict with the memos cold and the disk cache at `dir` active.
/// The first process to do so finds the directory empty and fills it; a later
/// one finds it primed, and its numbers are the warm-disk ones.
pub fn disk_probe(
    workload: &'static Workload,
    seed: u64,
    dir: &std::path::Path,
) -> Result<DiskProbe, String> {
    let scenario = workload.build(seed);
    let config = exec_config(scenario.max_hops).with_cache_dir(dir);
    let t = Instant::now();
    let active = config.activate_cache().map_err(|e| e.to_string())?;
    let open_ms = ms(t.elapsed());
    if !active {
        return Err("the cache directory is locked by another process".to_string());
    }
    let engine = SymNet::with_config(scenario.network.clone(), config);
    reset_memos();
    let t = Instant::now();
    let report = engine
        .try_inject(scenario.inject_at, 0, &scenario.packet)
        .map_err(|e| e.to_string())?;
    std::hint::black_box(oracle::answers(&report, &scenario.field));
    let verdict_ms = ms(t.elapsed());
    crate::adapter::flush_disk_cache();
    Ok(DiskProbe {
        open_ms,
        verdict_ms,
        persisted_hits: report.solver_stats.persisted_hits,
    })
}
