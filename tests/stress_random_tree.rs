//! Stress tests over the `symnet-parsers` random switch-tree generator:
//! fork-heavy synthetic topologies exercising the O(1) persistent-state fork
//! path (shared path conditions and loop histories), the incremental solver's
//! prefix cache, and the exact `max_paths` budget under contention.

use symnet_suite::core::engine::{ExecConfig, SymNet};
use symnet_suite::parsers::random_switch_tree;
use symnet_suite::sefl::packet::symbolic_tcp_packet;
use symnet_suite::solver::SolverConfig;

/// A fork-heavy tree: the generator wires both up- and down-links, so
/// injecting at the root forks the packet multiplicatively down the tree and
/// the up/down cycles exercise loop detection.
fn tree() -> (
    symnet_suite::parsers::Topology,
    symnet_suite::core::ElementId,
) {
    let topo = random_switch_tree(7, 10, 30);
    let root = topo.elements["sw0"];
    (topo, root)
}

#[test]
fn random_tree_reports_are_thread_invariant() {
    let (topo, root) = tree();
    let mut baseline = None;
    for threads in [1usize, 2, 8] {
        let engine = SymNet::with_config(
            topo.network.clone(),
            ExecConfig::default().with_threads(threads),
        );
        let report = engine.inject(root, 0, &symbolic_tcp_packet());
        assert!(
            report.path_count() > 10,
            "expected a fork-heavy exploration"
        );
        assert!(
            report.loops().count() > 0,
            "up/down cycles must be detected"
        );
        let statuses: Vec<_> = report
            .paths
            .iter()
            .map(|p| (p.id, p.status.clone()))
            .collect();
        let states: Vec<_> = report.paths.iter().map(|p| p.state.clone()).collect();
        match &baseline {
            None => baseline = Some((statuses, states)),
            Some((expect_statuses, expect_states)) => {
                assert_eq!(&statuses, expect_statuses, "statuses at {threads} threads");
                assert_eq!(&states, expect_states, "states at {threads} threads");
            }
        }
    }
}

#[test]
fn random_tree_exercises_the_prefix_cache() {
    // A tree no other test in this binary explores: the prefix counters
    // measure work the content memos did not already hold, and a sibling
    // test that explored the same tree first would leave none.
    let topo = random_switch_tree(8, 10, 30);
    let root = topo.elements["sw0"];
    let engine = SymNet::with_config(topo.network.clone(), ExecConfig::default().with_threads(1));
    let report = engine.inject(root, 0, &symbolic_tcp_packet());
    let stats = &report.solver_stats;
    assert!(
        stats.prefix_hits > 0,
        "forked siblings share prefixes, so the prefix cache must hit: {stats:?}"
    );
    assert!(stats.prefix_misses > 0, "fresh conjuncts must be analysed");
}

#[test]
fn identical_sibling_constraints_hit_the_memo_cache() {
    // Fork to two output ports that apply the *same* constraint: the engine
    // creates two distinct path-condition nodes with identical content
    // (distinct identities, so the node-keyed prefix cache cannot collapse
    // them), which the process-wide content memo answers on the second
    // sibling.
    use symnet_suite::core::network::Network;
    use symnet_suite::sefl::cond::Condition;
    use symnet_suite::sefl::fields::ip_ttl;
    use symnet_suite::sefl::{ElementProgram, Instruction};

    let mut net = Network::new();
    let mut program =
        ElementProgram::new("dup", 1, 2).with_any_input_code(Instruction::fork(vec![0, 1]));
    for port in 0..2 {
        program.set_output_code(
            port,
            Instruction::constrain(Condition::ge(ip_ttl().field(), 1u64)),
        );
    }
    let e = net.add_element(program);
    let engine = SymNet::with_config(net, ExecConfig::default().with_threads(1));
    let report = engine.inject(e, 0, &symbolic_tcp_packet());
    assert_eq!(report.delivered().count(), 2);
    let stats = &report.solver_stats;
    assert!(
        stats.content_hits > 0,
        "the second sibling's identical conjunct must hit the memo: {stats:?}"
    );
}

#[test]
fn incremental_and_scratch_solvers_agree_on_the_tree() {
    let (topo, root) = tree();
    let mut reports = Vec::new();
    for incremental in [true, false] {
        let engine = SymNet::with_config(
            topo.network.clone(),
            ExecConfig {
                solver: SolverConfig {
                    incremental,
                    ..SolverConfig::default()
                },
                ..ExecConfig::default().with_threads(1)
            },
        );
        reports.push(engine.inject(root, 0, &symbolic_tcp_packet()));
    }
    let (inc, scratch) = (&reports[0], &reports[1]);
    assert_eq!(inc.path_count(), scratch.path_count());
    for (a, b) in inc.paths.iter().zip(scratch.paths.iter()) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.state, b.state);
    }
}

#[test]
fn max_paths_cap_is_exact_under_eight_threads() {
    // An 8×8 fork fan-out (64 delivered paths uncapped) truncated to a small
    // budget: the reservation scheme must report *exactly* the cap at every
    // thread count, with no per-worker overshoot.
    use symnet_suite::core::network::Network;
    use symnet_suite::sefl::{ElementProgram, Instruction};

    let cap = 10usize;
    for threads in [1usize, 8] {
        let mut net = Network::new();
        let a = net.add_element(
            ElementProgram::new("a", 1, 8).with_any_input_code(Instruction::fork((0..8).collect())),
        );
        let b = net.add_element(
            ElementProgram::new("b", 1, 8).with_any_input_code(Instruction::fork((0..8).collect())),
        );
        for port in 0..8 {
            net.add_link(a, port, b, 0);
        }
        let config = ExecConfig {
            max_paths: cap,
            ..ExecConfig::default().with_threads(threads)
        };
        let report = SymNet::with_config(net, config).inject(a, 0, &symbolic_tcp_packet());
        assert_eq!(
            report.path_count(),
            cap,
            "max_paths must be exact at {threads} threads"
        );
    }
}
