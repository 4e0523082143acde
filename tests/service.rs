//! Resident-service regression tests: delta re-verification must never
//! return a stale verdict.
//!
//! The dangerous failure mode of incremental re-verification is a *stale
//! cache*: a delta replaces an element program, but a `PathCond` node shared
//! with an untouched prefix still holds a verdict computed against the old
//! program, and the re-verification silently reports the old network's
//! behaviour. These tests pin the contract from the other side: after any
//! delta stream, the incremental report must be byte-identical (canonical
//! JSON, which excludes the solver work counters) and structurally equal
//! (paths and injected state) to a from-scratch exploration of the updated
//! network — both with the incremental solver and with
//! `SolverConfig::incremental = false`, which bypasses every prefix-cache
//! layer and recomputes each verdict from nothing.

use symnet_suite::core::engine::{ExecConfig, ExecutionReport, PathReport, SymNet};
use symnet_suite::core::network::Network;
use symnet_suite::core::report::canonical_report_json_string;
use symnet_suite::core::state::ExecState;
use symnet_suite::core::VerifyService;
use symnet_suite::models::delta::Delta;
use symnet_suite::models::scenarios::{delta_fanout, fanout_mac};
use symnet_suite::sefl::packet::symbolic_tcp_packet;
use symnet_suite::testgen::generators::{random_switch_tree_scenario, GeneratorConfig};

/// The canonical JSON text plus the paths and injected state it leaves
/// partly out (tags, masked allocations, slot widths), compared structurally.
fn canonical(report: &ExecutionReport, network: &Network) -> (String, Vec<PathReport>, ExecState) {
    (
        canonical_report_json_string(report, network),
        report.paths.clone(),
        report.injected.clone(),
    )
}

/// MAC learn delta + re-verify: the incremental report must match both a
/// from-scratch run and a from-scratch run with the incremental solver
/// disabled, byte for byte.
#[test]
fn mac_delta_reverify_cannot_return_stale_verdicts() {
    let fanout = delta_fanout(3, 2);
    let access = fanout.access;
    let mut tables = fanout.tables;
    let mut service = VerifyService::new(fanout.network, ExecConfig::default().with_threads(1));
    let q = service.add_query("fanout", access, 0, symbolic_tcp_packet());

    let first = service.verify(q).expect("first verify");
    assert!(first.stats.from_scratch);
    assert_eq!(first.report.delivered().count(), 6);

    // A station with a fresh MAC appears behind leaf 2. The leaf learns it
    // first (the root hasn't yet): only paths entering leaf 2 may be
    // re-explored; the four paths through leaves 0 and 1 must be reused.
    let mac = fanout_mac(9, 0);
    tables
        .apply(
            &mut service,
            &Delta::MacLearn {
                element: fanout.leaves[2],
                mac,
                vlan: None,
                port: 0,
            },
        )
        .expect("leaf learn")
        .expect("leaf table changed");

    let incremental = service.verify(q).expect("incremental verify");
    assert!(!incremental.stats.from_scratch);
    assert!(
        incremental.stats.kept_paths >= 4,
        "paths avoiding the changed leaf must be reused, kept {}",
        incremental.stats.kept_paths
    );
    assert!(
        incremental.stats.reexplored_paths > 0,
        "paths through the changed leaf must be re-explored"
    );
    let scratch = service
        .snapshot()
        .try_inject(access, 0, &symbolic_tcp_packet())
        .expect("from-scratch inject");
    assert_eq!(
        canonical(&incremental.report, service.network()),
        canonical(&scratch, service.network()),
        "incremental re-verification diverged from from-scratch after the leaf delta"
    );

    // Then the root learns the MAC too — a delta on the element every path
    // traverses, so nothing survives and re-verification degenerates to a
    // (correct) full re-exploration.
    tables
        .apply(
            &mut service,
            &Delta::MacLearn {
                element: fanout.root,
                mac,
                vlan: None,
                port: 2,
            },
        )
        .expect("root learn")
        .expect("root table changed");
    let incremental = service.verify(q).expect("re-verify after root delta");
    assert!(!incremental.stats.from_scratch);
    // The egress switch forks per port, so the new station joins leaf 2's
    // port-0 path as a disjunct rather than adding a path — but its MAC must
    // now appear in that path's constraints (a stale verdict would still
    // show the old two-MAC disjunction).
    assert_eq!(incremental.report.delivered().count(), 6);
    let leaf2_path = incremental
        .report
        .delivered_at(fanout.leaves[2], 0)
        .next()
        .expect("leaf 2 port 0 still delivers");
    assert!(
        leaf2_path
            .state
            .path_condition()
            .to_string()
            .contains(&mac.to_string()),
        "the learned MAC must show up in the re-verified path condition"
    );

    // From-scratch on the updated topology, incremental solver on.
    let scratch = service
        .snapshot()
        .try_inject(access, 0, &symbolic_tcp_packet())
        .expect("from-scratch inject");
    assert_eq!(
        canonical(&incremental.report, service.network()),
        canonical(&scratch, service.network()),
        "incremental re-verification diverged from from-scratch"
    );

    // From-scratch with every solver cache disabled: if the incremental
    // report matched scratch only because both read the same stale cache,
    // this comparison catches it.
    let mut cold_config = ExecConfig::default().with_threads(1);
    cold_config.solver.incremental = false;
    let cold_engine = SymNet::with_config(service.network().clone(), cold_config);
    let cold = cold_engine
        .try_inject(access, 0, &symbolic_tcp_packet())
        .expect("non-incremental inject");
    assert_eq!(
        canonical(&incremental.report, service.network()),
        canonical(&cold, cold_engine.network()),
        "incremental re-verification diverged from the non-incremental solver"
    );
}

/// A delta that *removes* behaviour is the classic stale-verdict shape: the
/// old verdict said "delivered", the new network drops the packet. The aged
/// MAC's path must disappear from the incremental report.
#[test]
fn mac_age_delta_drops_the_stale_path() {
    let fanout = delta_fanout(2, 2);
    let access = fanout.access;
    let mut tables = fanout.tables;
    let mut service = VerifyService::new(fanout.network, ExecConfig::default().with_threads(1));
    let q = service.add_query("fanout", access, 0, symbolic_tcp_packet());
    assert_eq!(service.verify(q).unwrap().report.delivered().count(), 4);

    // The station behind leaf 0, port 0 goes away.
    let mac = fanout_mac(0, 0);
    for (element, _) in [(fanout.root, 0usize), (fanout.leaves[0], 0)] {
        tables
            .apply(
                &mut service,
                &Delta::MacAge {
                    element,
                    mac,
                    vlan: None,
                },
            )
            .expect("age")
            .expect("table changed");
    }

    let after = service.verify(q).unwrap();
    assert!(!after.stats.from_scratch);
    assert_eq!(
        after.report.delivered().count(),
        3,
        "a stale cached verdict resurrected the aged-out path"
    );
    let scratch = service
        .snapshot()
        .try_inject(access, 0, &symbolic_tcp_packet())
        .unwrap();
    assert_eq!(
        canonical(&after.report, service.network()),
        canonical(&scratch, service.network()),
    );
}

/// Repeated delta/verify rounds keep converging to from-scratch: state
/// carried across rounds (pending roots, kept results) never accumulates
/// drift. Each round applies a slice of deltas, then verifies once; the
/// last five rounds are a station's life on the fan-out: A joins behind
/// leaf 0, B behind the last leaf, A roams to leaf 1 (age and learn on two
/// elements before one verification), A ages out, and finally the root
/// learns B — the delta every path traverses.
#[test]
fn delta_streams_stay_convergent_over_many_rounds() {
    let fanout = delta_fanout(3, 2);
    let access = fanout.access;
    let mut tables = fanout.tables;
    let mut service = VerifyService::new(fanout.network, ExecConfig::default().with_threads(1));
    let q = service.add_query("fanout", access, 0, symbolic_tcp_packet());
    service.verify(q).unwrap();

    let last = fanout.leaves.len() - 1;
    let station_a = fanout_mac(4, 0);
    let station_b = fanout_mac(5, 0);
    let learn = |element, mac, port| Delta::MacLearn {
        element,
        mac,
        vlan: None,
        port,
    };
    let age = |element, mac| Delta::MacAge {
        element,
        mac,
        vlan: None,
    };
    let stream: [&[Delta]; 9] = [
        &[learn(fanout.leaves[0], fanout_mac(8, 0), 1)],
        &[age(fanout.leaves[1], fanout_mac(1, 1))],
        &[learn(fanout.root, fanout_mac(8, 0), 0)],
        &[learn(fanout.leaves[1], fanout_mac(1, 1), 1)],
        &[learn(fanout.leaves[0], station_a, 0)],
        &[learn(fanout.leaves[last], station_b, 1)],
        &[
            age(fanout.leaves[0], station_a),
            learn(fanout.leaves[1], station_a, 0),
        ],
        &[age(fanout.leaves[1], station_a)],
        &[learn(fanout.root, station_b, last)],
    ];
    for (round, deltas) in stream.iter().enumerate() {
        for delta in *deltas {
            tables
                .apply(&mut service, delta)
                .expect("delta applies")
                .expect("every delta in the stream changes its table");
        }
        let incremental = service.verify(q).unwrap();
        let scratch = service
            .snapshot()
            .try_inject(access, 0, &symbolic_tcp_packet())
            .unwrap();
        assert_eq!(
            canonical(&incremental.report, service.network()),
            canonical(&scratch, service.network()),
            "round {round}: incremental diverged from from-scratch"
        );
    }
}

/// Bursts of MAC learns on `k` of the 8 leaves of `delta_fanout(8, 4)`, for
/// k = 1, 2, 4 and 8: the incremental answer must equal the from-scratch one
/// whether one leaf's subtree or every leaf's subtree is invalidated.
#[test]
fn delta_bursts_of_every_size_agree_with_from_scratch() {
    for k in [1usize, 2, 4, 8] {
        let fanout = delta_fanout(8, 4);
        let access = fanout.access;
        let mut tables = fanout.tables;
        let mut service = VerifyService::new(fanout.network, ExecConfig::default().with_threads(1));
        let q = service.add_query("fanout", access, 0, symbolic_tcp_packet());
        service.verify(q).expect("initial verification");
        for (leaf, &element) in fanout.leaves.iter().enumerate().take(k) {
            tables
                .apply(
                    &mut service,
                    &Delta::MacLearn {
                        element,
                        mac: fanout_mac(20 + leaf, 0),
                        vlan: None,
                        port: 0,
                    },
                )
                .expect("delta applies")
                .expect("delta changes its table");
        }
        let incremental = service.verify(q).expect("re-verify");
        let scratch = service
            .snapshot()
            .try_inject(access, 0, &symbolic_tcp_packet())
            .expect("from-scratch inject");
        assert_eq!(
            canonical(&incremental.report, service.network()),
            canonical(&scratch, service.network()),
            "incremental and from-scratch reports diverged at delta size {k}"
        );
    }
}

/// A delta on a switch the standing query enters through two checkpoints
/// (the random tree wires up- and down-links, so the injected packet reaches
/// `sw3` of this tree along two different paths): every such entry must be
/// re-explored, not just the first one found.
#[test]
fn delta_reroots_every_checkpoint_entering_the_changed_element() {
    let config = GeneratorConfig {
        seed: 3,
        size: 4,
        entries: 8,
    };
    let scenario = random_switch_tree_scenario(&config);
    let mut tables = scenario.tables;
    let element = tables
        .registered()
        .find(|(_, name, _)| *name == "sw3")
        .map(|(id, _, _)| id)
        .expect("the tree has a switch sw3");
    let exec = ExecConfig {
        max_hops: scenario.max_hops,
        ..ExecConfig::default().with_threads(1)
    };
    let mut service = VerifyService::new(scenario.network, exec);
    let q = service.add_query("tree", scenario.inject_at, 0, scenario.packet.clone());
    service.verify(q).expect("initial verification");

    let update = tables
        .apply(
            &mut service,
            &Delta::MacLearn {
                element,
                mac: 0x0200_0000_0001,
                vlan: None,
                port: 1,
            },
        )
        .expect("delta applies")
        .expect("delta changes its table");
    let incremental = service.verify(q).expect("re-verify");
    let scratch = service
        .snapshot()
        .try_inject(scenario.inject_at, 0, &scenario.packet)
        .expect("from-scratch inject");
    assert_eq!(
        canonical(&incremental.report, service.network()),
        canonical(&scratch, service.network()),
        "incremental re-verification kept a stale suffix behind a second entry into sw3"
    );
    // The scenario must keep exercising what the comparison guards: more
    // than one invalidated entry, and paths elsewhere that were reused.
    assert!(
        update.roots_invalidated >= 2,
        "sw3 must be entered through at least two checkpoints, got {}",
        update.roots_invalidated
    );
    assert!(incremental.stats.kept_paths > 0);
}
