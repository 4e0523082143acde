//! Engine determinism across thread counts: on every scenario topology of
//! `crates/models/src/scenarios.rs` — plus the fork-heavy random switch tree,
//! the workload that actually exercises stealing and local-deque overflow in
//! the work-stealing scheduler — running `SymNet::inject` with 1, 2 and 8
//! workers must produce byte-identical paper-style JSON from `report.rs`
//! and equal (`==`) `paths` and `injected` states, which cover what the
//! text leaves out (tags, masked allocations, slot widths). Wall-clock
//! fields (`wall_time`, `solver_stats.time_in_solver`) are zeroed before
//! comparing: they are the only physically nondeterministic part of a
//! report (the work-stealing counters in `ExecutionReport::sched` are
//! scheduling-dependent too, but the JSON never prints them — these
//! comparisons prove exactly that).

use std::time::Duration;
use symnet_suite::core::engine::{ExecConfig, ExecutionReport, PathReport, SymNet};
use symnet_suite::core::network::{ElementId, Network};
use symnet_suite::core::report::report_to_json_string;
use symnet_suite::core::state::ExecState;
use symnet_suite::models::scenarios::{
    department, split_tcp, stanford_backbone, tunnel_chain, DepartmentConfig, SplitTcpConfig,
};
use symnet_suite::models::tcp_options::symbolic_options_metadata;
use symnet_suite::sefl::packet::{symbolic_l3_tcp_packet, symbolic_tcp_packet};
use symnet_suite::sefl::Instruction;

/// Runs one injection at a given worker count and returns its paper JSON
/// (timing fields zeroed), its paths and its injected state.
fn canonical(
    net: &Network,
    config: &ExecConfig,
    threads: usize,
    inject_at: ElementId,
    packet: &Instruction,
) -> (String, Vec<PathReport>, ExecState) {
    let engine = SymNet::with_config(net.clone(), config.clone().with_threads(threads));
    let mut report: ExecutionReport = engine.inject(inject_at, 0, packet);
    report.wall_time = Duration::ZERO;
    report.solver_stats.time_in_solver = Duration::ZERO;
    let paper_json = report_to_json_string(&report, engine.network());
    (paper_json, report.paths, report.injected)
}

/// Asserts byte-identical reports at 1, 2 and 8 workers, then re-runs the
/// 1-worker baseline once more: by then the process-wide content-keyed
/// solver memos are warm, so the re-run answers from the interner layer and
/// must still serialize byte-identically: a report pins what was asked and
/// answered, never which cache layer answered (the report contract — see
/// DESIGN.md "Determinism invariants").
fn assert_thread_invariant(
    name: &str,
    net: &Network,
    config: &ExecConfig,
    inject_at: ElementId,
    packet: &Instruction,
) {
    let baseline = canonical(net, config, 1, inject_at, packet);
    assert!(
        !baseline.0.is_empty() && !baseline.1.is_empty(),
        "{name}: empty report"
    );
    for threads in [2usize, 8] {
        let got = canonical(net, config, threads, inject_at, packet);
        assert_eq!(
            got.0, baseline.0,
            "{name}: paper JSON differs between 1 and {threads} threads"
        );
        assert!(
            got == baseline,
            "{name}: paths or injected state differ between 1 and {threads} threads"
        );
    }
    let warm = canonical(net, config, 1, inject_at, packet);
    assert!(
        warm == baseline,
        "{name}: warm re-injection (content memos populated) differs from the cold run"
    );
}

#[test]
fn tunnel_chain_reports_are_thread_invariant() {
    let (net, a, _b) = tunnel_chain();
    assert_thread_invariant(
        "tunnel_chain",
        &net,
        &ExecConfig::default(),
        a,
        &symbolic_tcp_packet(),
    );
}

#[test]
fn split_tcp_reports_are_thread_invariant() {
    // Every documented §8.4 incident configuration.
    let configs = [
        ("default", SplitTcpConfig::default()),
        (
            "tunnel_to_proxy",
            SplitTcpConfig {
                tunnel_to_proxy: true,
                ..Default::default()
            },
        ),
        (
            "vlan_stripping_bug",
            SplitTcpConfig {
                vlan_stripping_bug: true,
                ..Default::default()
            },
        ),
        (
            "dhcp_security_check",
            SplitTcpConfig {
                dhcp_security_check: true,
                ..Default::default()
            },
        ),
        (
            "mirror_at_r2",
            SplitTcpConfig {
                mirror_at_r2: true,
                ..Default::default()
            },
        ),
    ];
    for (name, config) in configs {
        let (net, topo) = split_tcp(config);
        assert_thread_invariant(
            &format!("split_tcp/{name}"),
            &net,
            &ExecConfig::default(),
            topo.client,
            &symbolic_tcp_packet(),
        );
    }
}

#[test]
fn department_reports_are_thread_invariant() {
    let (net, topo) = department(DepartmentConfig {
        access_switches: 3,
        mac_entries: 120,
        routes: 20,
    });
    let config = ExecConfig {
        max_hops: 32,
        ..ExecConfig::default()
    };
    // Outbound: office to Internet with symbolic TCP options (the §8.5 run).
    let outbound = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    assert_thread_invariant(
        "department/outbound",
        &net,
        &config,
        topo.office_switch,
        &outbound,
    );
    // Inbound scan from the exit router.
    assert_thread_invariant(
        "department/inbound",
        &net,
        &config,
        topo.exit_router,
        &symbolic_l3_tcp_packet(),
    );
}

#[test]
fn stanford_backbone_reports_are_thread_invariant() {
    let backbone = stanford_backbone(4, 60);
    assert_thread_invariant(
        "stanford_backbone",
        &backbone.network,
        &ExecConfig::default(),
        backbone.access,
        &symbolic_l3_tcp_packet(),
    );
}

#[test]
fn random_tree_reports_are_thread_invariant() {
    // The random switch tree is the fork-heaviest topology in the repo:
    // every egress switch forks per output-port group and the bidirectional
    // links re-enqueue paths until loop detection fires. At 8 workers this
    // drives real steals (and, on the bushier trees, local-deque overflow),
    // so byte-identical reports here are the determinism proof for the
    // work-stealing scheduler specifically.
    for (seed, switches, macs) in [(42u64, 12usize, 40usize), (7, 20, 24)] {
        let topo = symnet_suite::parsers::random_switch_tree(seed, switches, macs);
        assert_thread_invariant(
            &format!("random_tree/seed{seed}"),
            &topo.network,
            &ExecConfig::default(),
            topo.elements["sw0"],
            &symbolic_tcp_packet(),
        );
    }
}

#[test]
fn reports_are_invariant_under_persistent_cache() {
    // The persistent solver cache (`symnet_solver::cache`) must be transparent
    // to every report byte: runs that populate the disk store and runs that
    // replay verdicts from it serialize identically to the cache-less baseline
    // at every worker count. Only byte-identity is asserted here, so sibling
    // tests running concurrently in this binary — whose solver traffic flows
    // through the cache while it is active — cannot perturb the outcome;
    // counter-sensitive assertions (hit/miss/store counts) live in
    // `tests/persistent_cache.rs`, which owns its own process.
    use symnet_suite::solver::cache;
    let backbone = stanford_backbone(3, 48);
    let config = ExecConfig::default();
    let run = |threads| {
        canonical(
            &backbone.network,
            &config,
            threads,
            backbone.access,
            &symbolic_l3_tcp_packet(),
        )
    };
    let baseline = run(1);
    let dir = std::env::temp_dir().join(format!("symnet-determinism-cache-{}", std::process::id()));
    assert!(
        cache::configure(&dir).expect("cache dir opens"),
        "per-process temp dir cannot be locked by another process"
    );
    symnet_suite::solver::solve::reset_process_memos();
    for threads in [1usize, 2, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "cache-populating run diverged at {threads} workers"
        );
    }
    cache::flush();
    cache::deactivate();
    // Reopen warm from disk with the in-process memos cleared: every verdict
    // now replays from the log, and still not a byte may change.
    symnet_suite::solver::solve::reset_process_memos();
    assert!(cache::configure(&dir).expect("cache dir reopens"));
    for threads in [1usize, 2, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "warm-disk run diverged at {threads} workers"
        );
    }
    cache::deactivate();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn max_paths_cap_is_exact_under_work_stealing() {
    // Which paths survive a truncated run is scheduling-dependent, but the
    // *count* must be exact at every worker count: each reported path
    // reserves a slot from the shared atomic budget before it is recorded.
    let topo = symnet_suite::parsers::random_switch_tree(42, 12, 40);
    for threads in [1usize, 2, 8] {
        let config = ExecConfig {
            max_paths: 25,
            ..ExecConfig::default().with_threads(threads)
        };
        let engine = SymNet::with_config(topo.network.clone(), config);
        let report = engine.inject(topo.elements["sw0"], 0, &symbolic_tcp_packet());
        assert_eq!(
            report.path_count(),
            25,
            "cap must be exact at {threads} threads"
        );
    }
}

#[test]
fn service_delta_stream_is_thread_invariant() {
    // Resident-service mode: the same delta stream, replayed at 1, 2 and 8
    // workers, must yield byte-identical canonical reports after every
    // re-verification. The incremental path merges kept results with
    // re-explored subtrees, so this proves the merge + EmitKey sort erases
    // scheduling order exactly like a from-scratch run.
    use symnet_suite::core::report::canonical_report_json_string;
    use symnet_suite::core::VerifyService;
    use symnet_suite::models::delta::Delta;
    use symnet_suite::models::scenarios::{delta_fanout, fanout_mac};

    let run = |threads: usize| -> Vec<String> {
        let fanout = delta_fanout(3, 2);
        let mut tables = fanout.tables;
        let mut service =
            VerifyService::new(fanout.network, ExecConfig::default().with_threads(threads));
        let q = service.add_query("fanout", fanout.access, 0, symbolic_tcp_packet());
        let stream = [
            Delta::MacLearn {
                element: fanout.leaves[1],
                mac: fanout_mac(9, 0),
                vlan: None,
                port: 0,
            },
            Delta::MacAge {
                element: fanout.leaves[2],
                mac: fanout_mac(2, 1),
                vlan: None,
            },
            Delta::MacLearn {
                element: fanout.root,
                mac: fanout_mac(9, 0),
                vlan: None,
                port: 1,
            },
        ];
        let mut reports = vec![canonical_report_json_string(
            &service.verify(q).expect("initial verify").report,
            service.network(),
        )];
        for delta in &stream {
            tables
                .apply(&mut service, delta)
                .expect("delta applies")
                .expect("delta changes its table");
            reports.push(canonical_report_json_string(
                &service.verify(q).expect("re-verify").report,
                service.network(),
            ));
        }
        reports
    };

    let baseline = run(1);
    assert_eq!(baseline.len(), 4);
    for threads in [2usize, 8] {
        assert_eq!(
            run(threads),
            baseline,
            "service delta stream diverged at {threads} workers"
        );
    }
}

#[test]
fn service_max_paths_cap_is_exact_across_reverifications() {
    // A capped standing query must report exactly `max_paths` paths after
    // every re-verification: the kept set plus the re-explored set share one
    // budget, so the merge can neither exceed nor undershoot the cap while
    // enough paths exist.
    use symnet_suite::core::VerifyService;
    use symnet_suite::models::delta::Delta;
    use symnet_suite::models::scenarios::{delta_fanout, fanout_mac};

    for threads in [1usize, 2, 8] {
        let fanout = delta_fanout(4, 3);
        let mut tables = fanout.tables;
        let config = ExecConfig {
            max_paths: 8,
            ..ExecConfig::default().with_threads(threads)
        };
        let mut service = VerifyService::new(fanout.network, config);
        let q = service.add_query("capped", fanout.access, 0, symbolic_tcp_packet());
        assert_eq!(service.verify(q).unwrap().report.path_count(), 8);
        for (round, delta) in [
            Delta::MacLearn {
                element: fanout.leaves[0],
                mac: fanout_mac(9, 1),
                vlan: None,
                port: 2,
            },
            Delta::MacAge {
                element: fanout.leaves[3],
                mac: fanout_mac(3, 0),
                vlan: None,
            },
        ]
        .iter()
        .enumerate()
        {
            tables
                .apply(&mut service, delta)
                .expect("delta applies")
                .expect("delta changes its table");
            assert_eq!(
                service.verify(q).unwrap().report.path_count(),
                8,
                "cap must stay exact at {threads} threads, round {round}"
            );
        }
    }
}

#[test]
fn served_concurrent_reports_are_byte_identical_to_solo_runs() {
    // Serving-layer determinism: the same query, executed concurrently with
    // five siblings on a shared pool of 1, 2 or 8 workers, must produce a
    // canonical report byte-identical to a solo single-threaded
    // `SymNet::inject` over the same snapshot. Per-query lineage tags and the
    // EmitKey sort erase both intra-query scheduling and cross-query
    // interleaving.
    use symnet_suite::core::report::canonical_report_json_string;
    use symnet_suite::core::{ServerConfig, SymNetServer};
    use symnet_suite::models::scenarios::delta_fanout;

    let fanout = delta_fanout(3, 2);
    let solo = {
        let engine = SymNet::with_config(
            fanout.network.clone(),
            ExecConfig::default().with_threads(1),
        );
        canonical_report_json_string(
            &engine.inject(fanout.access, 0, &symbolic_tcp_packet()),
            &fanout.network,
        )
    };
    for workers in [1usize, 2, 8] {
        let server = SymNetServer::start(
            fanout.network.clone(),
            ServerConfig::default().with_workers(workers),
        );
        let handle = server.handle();
        let tickets: Vec<_> = (0..6)
            .map(|_| {
                handle
                    .verify(fanout.access, 0, symbolic_tcp_packet())
                    .expect("query admitted")
            })
            .collect();
        for ticket in tickets {
            let served = ticket.wait().expect("query completes");
            assert_eq!(
                canonical_report_json_string(&served.report, &fanout.network),
                solo,
                "served report diverged from solo at {workers} workers"
            );
        }
        server.shutdown();
    }
}
