//! Re-injection hits the process-wide content memos.
//!
//! The solver's global memo tables are keyed on interned *content* ids, not
//! node identities (see `crates/solver/src/intern.rs`), so injecting the same
//! scenario into a **freshly built** `SymNet` — new network, new engine, new
//! path-condition nodes — must be answered from the memos without re-solving
//! a single prefix. This is the headline property of the interning layer: a
//! verification service that re-checks an unchanged network pays solver time
//! only once per process.
//!
//! Kept in its own integration binary: the asserts count *process-global*
//! memo traffic for one scenario, so no other test may run the same scenario
//! in this process first.

use std::time::Duration;
use symnet_suite::core::engine::{ExecConfig, ExecutionReport, SymNet};
use symnet_suite::core::report::report_to_json_string;
use symnet_suite::models::scenarios::{department, DepartmentConfig};
use symnet_suite::models::tcp_options::symbolic_options_metadata;
use symnet_suite::sefl::packet::symbolic_tcp_packet;
use symnet_suite::sefl::Instruction;

/// A department config no other test uses, so this binary's first run is the
/// first time this content enters the process-wide interner.
fn scenario() -> DepartmentConfig {
    DepartmentConfig {
        access_switches: 4,
        mac_entries: 250,
        routes: 23,
    }
}

fn run() -> (ExecutionReport, String) {
    let (net, topo) = department(scenario());
    let engine = SymNet::with_config(
        net,
        ExecConfig {
            max_hops: 32,
            ..ExecConfig::default().with_threads(1)
        },
    );
    let packet = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    let mut report = engine.inject(topo.office_switch, 0, &packet);
    report.wall_time = Duration::ZERO;
    report.solver_stats.time_in_solver = Duration::ZERO;
    let paper_json = report_to_json_string(&report, engine.network());
    (report, paper_json)
}

#[test]
fn reinjection_into_a_fresh_symnet_is_answered_from_the_content_memo() {
    let (first, first_paper) = run();
    assert!(first.path_count() > 0, "scenario produced no paths");
    assert!(
        first.solver_stats.content_misses > 0,
        "cold run must populate the content memo: {:?}",
        first.solver_stats
    );

    // Everything is rebuilt from scratch; only the process-wide interner and
    // memos persist.
    let (second, second_paper) = run();
    assert_eq!(
        second.solver_stats.content_misses, 0,
        "re-injected scenario re-solved a prefix instead of hitting the \
         content memo: {:?}",
        second.solver_stats
    );
    assert!(
        second.solver_stats.content_hits > 0,
        "re-injected scenario never consulted the content memo: {:?}",
        second.solver_stats
    );

    // Warm-memo runs must not change a single report byte or state: which
    // layer answered a query is a measurement the report never prints, and
    // everything a report does print is a function of the queries asked.
    assert_eq!(
        first_paper, second_paper,
        "paper JSON changed on re-injection"
    );
    assert!(
        first.paths == second.paths && first.injected == second.injected,
        "paths or injected state changed on re-injection"
    );
}
