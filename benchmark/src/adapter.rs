//! The benchmark's contract with the program: every library item the
//! benchmark touches is named in this file and nowhere else.
//!
//! The benchmark times the library from outside, through public items only.
//! A later change that renames, moves or removes one of these breaks the
//! benchmark here, in one place; everything else in `benchmark/src` speaks in
//! terms of this module. The one item that is not part of the documented API
//! is [`reset_memos`], which wraps the `#[doc(hidden)]`
//! `symnet_solver::solve::reset_process_memos`.

// -- sefl: packets, fields, programs -----------------------------------------
pub use symnet_sefl::field::FieldRef;
pub use symnet_sefl::packet::{symbolic_l3_tcp_packet, symbolic_tcp_packet};
pub use symnet_sefl::{ElementProgram, Instruction};

/// The destination-IP field routers match on.
pub fn ip_dst() -> FieldRef {
    symnet_sefl::fields::ip_dst().field()
}

/// The destination-MAC field switches match on.
pub fn ether_dst() -> FieldRef {
    symnet_sefl::fields::ether_dst().field()
}

/// Instructions in a compiled element program (input code of port 0 plus the
/// code of every output port).
pub fn program_instrs(program: &ElementProgram) -> usize {
    program.code_for_input(0).len()
        + (0..program.output_count)
            .map(|p| program.code_for_output(p).len())
            .sum::<usize>()
}

// -- parsers -----------------------------------------------------------------
pub use symnet_parsers::{parse_fib, parse_mac_table};

// -- models: table → program compilers, deltas, the fan-out scenario ----------
pub use symnet_models::delta::{Delta, RouterModel, RuleTables, SwitchModel};
pub use symnet_models::router::router_egress;
pub use symnet_models::scenarios::{delta_fanout, fanout_mac};
pub use symnet_models::switch::{switch_basic, switch_egress};

// -- core: network, engine, verification queries, report rendering ------------
pub use symnet_core::engine::{ExecConfig, ExecutionReport, PathReport, PathStatus, SymNet};
pub use symnet_core::error::DropReason;
pub use symnet_core::network::{ElementId, Network};
pub use symnet_core::report::canonical_report_json_string;
pub use symnet_core::verify::{allowed_values, reachable_ports};

// -- core: the resident service and the concurrent server ---------------------
pub use symnet_core::server::{ServeHandle, ServerConfig, SymNetServer};
pub use symnet_core::service::{QueryId, VerifyService};

// -- solver: path conditions, fresh checks, the process-wide memos ------------
pub use symnet_solver::{IntervalSet, PathCond, Solver, SolverResult, SolverStats};

/// Clears the process-wide solver memos, so the next operation pays the full
/// decision-procedure cost (the interners stay: they cannot be reset).
pub fn reset_memos() {
    symnet_solver::solve::reset_process_memos();
}

/// Makes everything enqueued for the disk cache durable.
pub fn flush_disk_cache() {
    symnet_solver::cache::flush();
}

// -- testgen: the concrete-replay oracle --------------------------------------
pub use symnet_testgen::fuzz::check_scenario;
pub use symnet_testgen::generators::FuzzScenario;
