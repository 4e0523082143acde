//! Degradation and identity properties of the persistent solver cache
//! (`symnet_solver::cache`).
//!
//! Every corruption the store can meet — a torn tail from a crashed writer, a
//! bit-flipped record, a log written under a different `SolverConfig`, a
//! directory locked by a second live process — must degrade to *fewer warm
//! hits*, never to a wrong verdict. The final tests close the loop at the
//! engine level: reports rendered from a warm-disk cache must be
//! byte-identical to cold runs at 1, 2 and 8 workers (the same invariant
//! `tests/determinism.rs` and `tests/memo_reinject.rs` prove for the
//! in-process memo layers).
//!
//! Kept in its own integration binary: the cache is process-global, and the
//! counter assertions here must not race tests that assume it is off. Within
//! the binary, every test serializes on [`gate`] and uses its own temp
//! directory.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use symnet_store::LogStore;
use symnet_suite::core::engine::{ExecConfig, ExecutionReport, PathReport, SymNet};
use symnet_suite::core::report::report_to_json_string;
use symnet_suite::core::state::ExecState;
use symnet_suite::models::scenarios::{department, DepartmentConfig};
use symnet_suite::sefl::packet::symbolic_l3_tcp_packet;
use symnet_suite::solver::solve::reset_process_memos;
use symnet_suite::solver::{
    cache, CmpOp, Formula, IntervalSet, PathCond, Solver, SolverConfig, SymVar, Term,
};

/// The cache is process-global; tests touching it serialize on this.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fresh per-test cache directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "symnet-persistent-cache-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn log_path(dir: &std::path::Path) -> PathBuf {
    dir.join("solver-cache.log")
}

/// One step of a random conjunct chain (the same op vocabulary as
/// `crates/solver/tests/proptests.rs`).
type ChainOp = (usize, u64, u64, u64);

fn conjunct(vars: &[SymVar], (kind, a, b, value): &ChainOp) -> Formula {
    let (va, vb) = (vars[*a as usize], vars[*b as usize]);
    match kind {
        0 => Formula::eq_const(va, *value),
        1 => Formula::ne_const(va, *value),
        2 => Formula::cmp_const(CmpOp::Le, va, *value),
        3 => Formula::cmp_const(CmpOp::Ge, va, *value),
        4 => Formula::cmp(
            CmpOp::Eq,
            Term::var(va),
            Term::var(vb).plus((*value as i128) % 8),
        ),
        5 => Formula::cmp(CmpOp::Lt, Term::var(va), Term::var(vb)),
        6 => Formula::prefix_match(va, *value, (*value % 7) as u8),
        _ => Formula::or(vec![
            Formula::eq_const(va, *value),
            Formula::cmp_const(CmpOp::Ge, vb, *value),
        ]),
    }
}

/// Runs the chain through `solver`, recording the verdict and every
/// per-variable projection at every prefix.
#[allow(clippy::type_complexity)]
fn run_chain(solver: &mut Solver, ops: &[ChainOp]) -> Vec<(bool, bool, Vec<Option<IntervalSet>>)> {
    let vars: Vec<SymVar> = (0..3).map(|i| SymVar::new(i, 6)).collect();
    let mut cond = PathCond::empty();
    let mut out = Vec::new();
    for op in ops {
        cond = cond.push(conjunct(&vars, op));
        let verdict = solver.check_path(&cond);
        let projections = vars
            .iter()
            .map(|v| solver.feasible_values_path(&cond, *v))
            .collect();
        out.push((verdict.is_sat(), verdict.is_unsat(), projections));
    }
    out
}

/// The ground truth: a fresh solver with the incremental procedure disabled,
/// re-solving every materialised prefix (path queries then bypass every cache
/// layer, the persistent one included).
fn scratch_chain(ops: &[ChainOp]) -> Vec<(bool, bool, Vec<Option<IntervalSet>>)> {
    let mut scratch = Solver::with_config(SolverConfig {
        incremental: false,
        ..SolverConfig::default()
    });
    run_chain(&mut scratch, ops)
}

/// A fixed chain used by the corruption tests — long enough to spread records
/// across the log, mixing Sat and Unsat prefixes.
fn fixed_ops() -> Vec<ChainOp> {
    vec![
        (3, 0, 1, 9),
        (2, 0, 2, 40),
        (4, 1, 0, 3),
        (7, 2, 0, 33),
        (5, 2, 1, 0),
        (0, 1, 1, 14),
    ]
}

/// Populates `dir` with the verdicts/projections of `ops`, flushes, and shuts
/// the cache down, leaving only the on-disk log behind.
fn populate(dir: &std::path::Path, ops: &[ChainOp]) {
    // Sibling tests may have run the same chain already; clear the content
    // memos so the run reaches the persistent layer instead of stopping at a
    // memo hit (the persistent lookup sits behind the memo miss path).
    reset_process_memos();
    assert!(cache::configure(dir).unwrap(), "populate: store is locked");
    let mut solver = Solver::default();
    run_chain(&mut solver, ops);
    cache::flush();
    cache::deactivate();
    reset_process_memos();
}

/// Reopens `dir` warm, runs the chain on a fresh solver, shuts down, and
/// returns the observed verdicts. The process memos are cleared first so every
/// answer comes from disk or the real decision procedure, never a memo.
fn rerun_warm(
    dir: &std::path::Path,
    ops: &[ChainOp],
) -> Vec<(bool, bool, Vec<Option<IntervalSet>>)> {
    reset_process_memos();
    assert!(cache::configure(dir).unwrap(), "rerun: store is locked");
    let mut solver = Solver::default();
    let got = run_chain(&mut solver, ops);
    cache::deactivate();
    got
}

#[test]
fn torn_tail_degrades_to_cold_never_wrong() {
    let _gate = gate();
    let dir = temp_dir("torn-tail");
    let ops = fixed_ops();
    populate(&dir, &ops);

    // Crash mid-append: the last frame on disk is incomplete.
    let log = log_path(&dir);
    let len = std::fs::metadata(&log).unwrap().len();
    assert!(len > 16, "populated log is implausibly small: {len} bytes");
    let file = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    // The store truncates the torn tail on open; surviving records replay and
    // the dropped ones are re-solved — verdict-for-verdict identical to a
    // from-scratch solver either way.
    cache::reset_counters();
    assert_eq!(rerun_warm(&dir, &ops), scratch_chain(&ops));
    let c = cache::counters();
    assert!(
        c.verdict_hits + c.verdict_misses > 0,
        "the persistent layer was never consulted: {c:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_record_degrades_to_cold_never_wrong() {
    let _gate = gate();
    let dir = temp_dir("bit-flip");
    let ops = fixed_ops();
    populate(&dir, &ops);

    // Flip one byte in the middle of the log: the CRC of that frame no longer
    // matches, so the store drops it (and the suffix behind it) on open.
    let log = log_path(&dir);
    let before = LogStore::open(&log).unwrap().take_records().len();
    let mut bytes = std::fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    let after = LogStore::open(&log).unwrap().take_records().len();
    assert!(
        after < before,
        "the corrupt frame and its suffix must be dropped ({before} -> {after} records)"
    );

    // The warm rerun replays the surviving prefix, re-solves (and re-stores)
    // the dropped suffix, and agrees with from-scratch either way.
    assert_eq!(rerun_warm(&dir, &ops), scratch_chain(&ops));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_solver_config_fingerprint_never_matches() {
    let _gate = gate();
    let dir = temp_dir("stale-config");
    let ops = fixed_ops();
    populate(&dir, &ops);

    // A solver whose verdict-affecting knobs differ must never see the old
    // records: its config fingerprint is mixed into every key.
    let stale = SolverConfig {
        samples_per_var: 3,
        ..SolverConfig::default()
    };
    reset_process_memos();
    assert!(cache::configure(&dir).unwrap());
    cache::reset_counters();
    let mut solver = Solver::with_config(stale);
    let got = run_chain(&mut solver, &ops);
    let c = cache::counters();
    assert_eq!(
        c.verdict_hits + c.projection_hits,
        0,
        "records keyed by a different SolverConfig must not match: {c:?}"
    );
    assert!(c.verdict_misses > 0, "the store was never consulted: {c:?}");

    // ... and its verdicts match its own from-scratch baseline.
    let mut scratch = Solver::with_config(SolverConfig {
        incremental: false,
        ..stale
    });
    assert_eq!(got, run_chain(&mut scratch, &ops));

    // The original config still hits.
    reset_process_memos();
    cache::reset_counters();
    let mut original = Solver::default();
    run_chain(&mut original, &ops);
    assert!(
        cache::counters().verdict_hits > 0,
        "the original config's records are still warm: {:?}",
        cache::counters()
    );
    cache::deactivate();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn format_v1_log_with_cex_records_is_wiped_and_runs_cold() {
    let _gate = gate();
    let dir = temp_dir("format-v1");
    let ops = fixed_ops();

    // A log exactly as format version 1 wrote it: verdicts and projections
    // carry a replayed `examined` count, and counterexample records exist.
    let v1_records = [
        r#"{"Header":{"version":1}}"#,
        r#"{"Verdict":{"key_hi":10136256223109630741,"key_lo":7519394403605326041,"verdict":2,"examined":1,"model":[[5,1]]}}"#,
        r#"{"Projection":{"key_hi":2572223750679497822,"key_lo":9739315749922201771,"examined":1,"known":true,"ranges":[[0,4294967295]]}}"#,
        r#"{"Cex":{"atoms":[[9286472827821205871,16488617705120008706]],"sat":true,"model":[[5,1],[8,167772160]]}}"#,
    ];
    {
        let mut store = LogStore::open(&log_path(&dir)).unwrap();
        for record in v1_records {
            store.append(record.as_bytes()).unwrap();
        }
        store.sync().unwrap();
    }

    // Opening wipes it; the run is cold, stores afresh, and agrees with a
    // from-scratch solver.
    cache::reset_counters();
    reset_process_memos();
    assert!(cache::configure(&dir).unwrap());
    let mut solver = Solver::default();
    let got = run_chain(&mut solver, &ops);
    cache::flush();
    cache::deactivate();
    assert_eq!(got, scratch_chain(&ops));
    let c = cache::counters();
    assert_eq!(
        c.verdict_hits + c.projection_hits,
        0,
        "a wiped log answers nothing: {c:?}"
    );
    assert!(c.verdict_stores > 0 && c.projection_stores > 0, "{c:?}");

    // What is on disk now is a current-format log with none of the old
    // records in it — and it is warm.
    let records = LogStore::open(&log_path(&dir)).unwrap().take_records();
    let header = format!(r#"{{"Header":{{"version":{}}}}}"#, cache::FORMAT_VERSION);
    assert_eq!(records[0], header.as_bytes());
    for record in &records[1..] {
        let text = std::str::from_utf8(record).unwrap();
        assert!(
            !text.contains("Cex") && !text.contains("examined"),
            "a v1 record survived the wipe: {text}"
        );
    }
    cache::reset_counters();
    assert_eq!(rerun_warm(&dir, &ops), scratch_chain(&ops));
    let c = cache::counters();
    assert!(c.verdict_hits > 0 && c.projection_hits > 0, "{c:?}");
    assert_eq!(c.verdict_misses + c.projection_misses, 0, "{c:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_locked_by_live_process_degrades_to_cold() {
    let _gate = gate();
    let dir = temp_dir("locked");
    let ops = fixed_ops();

    // Hold the writer lock exactly the way a second live process would.
    let holder = LogStore::open(&log_path(&dir)).unwrap();
    assert!(
        !cache::configure(&dir).unwrap(),
        "a locked store must refuse activation, not error"
    );
    assert!(!cache::active());

    // Solving still works — cold — and touches no cache counters.
    cache::reset_counters();
    let mut solver = Solver::default();
    let got = run_chain(&mut solver, &ops);
    assert_eq!(got, scratch_chain(&ops));
    assert_eq!(cache::counters(), cache::CacheCounters::default());

    // Once the other writer exits, the same directory activates normally.
    drop(holder);
    assert!(cache::configure(&dir).unwrap());
    cache::deactivate();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Warm-disk answers are the from-scratch answers: populate a cache from a
    /// random conjunct chain, clear every in-process memo, reopen the log, and
    /// re-run — the replayed verdicts and projections must equal those of a
    /// solver with `incremental = false` and no cache at all.
    #[test]
    fn warm_disk_verdicts_match_from_scratch(
        ops in prop::collection::vec((0usize..8, 0u64..3, 0u64..3, 0u64..64), 1..8),
    ) {
        let _gate = gate();
        let dir = temp_dir("prop");
        populate(&dir, &ops);
        let warm = rerun_warm(&dir, &ops);
        prop_assert_eq!(warm, scratch_chain(&ops));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Engine-level closure of the loop: one injection rendered with timing
/// zeroed, plus its paths and injected state, exactly like
/// `tests/determinism.rs`.
fn canonical(threads: usize) -> (String, Vec<PathReport>, ExecState) {
    // A department config no other test uses, so memo state from sibling
    // binaries cannot leak in (each binary is its own process anyway).
    let (net, topo) = department(DepartmentConfig {
        access_switches: 5,
        mac_entries: 150,
        routes: 17,
    });
    let engine = SymNet::with_config(
        net,
        ExecConfig {
            max_hops: 32,
            ..ExecConfig::default().with_threads(threads)
        },
    );
    let mut report: ExecutionReport = engine.inject(topo.exit_router, 0, &symbolic_l3_tcp_packet());
    report.wall_time = Duration::ZERO;
    report.solver_stats.time_in_solver = Duration::ZERO;
    let paper_json = report_to_json_string(&report, engine.network());
    (paper_json, report.paths, report.injected)
}

#[test]
fn warm_disk_reports_are_byte_identical_across_worker_counts() {
    let _gate = gate();
    let dir = temp_dir("reports");

    // Cold baseline: no cache anywhere.
    cache::deactivate();
    reset_process_memos();
    let baseline = canonical(1);
    assert!(!baseline.0.is_empty() && !baseline.1.is_empty());

    // Cache-populating runs must not change a byte at any worker count. The
    // memos warmed by the baseline are cleared so the runs actually reach the
    // persistent layer.
    assert!(cache::configure(&dir).unwrap());
    reset_process_memos();
    cache::reset_counters();
    for threads in [1usize, 2, 8] {
        assert!(
            canonical(threads) == baseline,
            "cache-populating run diverged at {threads} workers"
        );
    }
    assert!(
        cache::counters().verdict_stores > 0,
        "the runs never populated the store: {:?}",
        cache::counters()
    );
    cache::flush();
    cache::deactivate();

    // Warm-disk runs: memos cleared, every verdict replayed from the log.
    // Still byte-identical, and — the headline acceptance criterion — with
    // zero persisted verdict or projection misses.
    reset_process_memos();
    assert!(cache::configure(&dir).unwrap());
    cache::reset_counters();
    for threads in [1usize, 2, 8] {
        assert!(
            canonical(threads) == baseline,
            "warm-disk run diverged at {threads} workers"
        );
        reset_process_memos();
    }
    let c = cache::counters();
    assert!(c.verdict_hits > 0, "warm runs never hit the store: {c:?}");
    assert!(
        c.projection_hits > 0,
        "warm runs never hit a projection: {c:?}"
    );
    assert_eq!(
        c.verdict_misses + c.projection_misses,
        0,
        "a warm-disk re-run of an identical scenario must miss nothing: {c:?}"
    );
    cache::deactivate();
    let _ = std::fs::remove_dir_all(&dir);
}
