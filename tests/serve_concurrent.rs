//! Integration tests of the concurrent serving subsystem: snapshot isolation
//! across `ApplyDelta`, admission backpressure, and deadline cancellation —
//! all against paper-shaped topologies rather than toy elements.

use symnet_suite::core::engine::{ExecConfig, ExecutionReport, PathReport, SymNet};
use symnet_suite::core::network::Network;
use symnet_suite::core::report::canonical_report_json_string;
use symnet_suite::core::state::ExecState;
use symnet_suite::core::{ServerConfig, ServerError, SymNetServer};
use symnet_suite::models::delta::Delta;
use symnet_suite::models::scenarios::{delta_fanout, fanout_mac};
use symnet_suite::sefl::packet::symbolic_tcp_packet;

/// Canonical JSON text, plus the paths and injected state compared with `==`.
type Canonical = (String, Vec<PathReport>, ExecState);

fn canonical(report: &ExecutionReport, network: &Network) -> Canonical {
    (
        canonical_report_json_string(report, network),
        report.paths.clone(),
        report.injected.clone(),
    )
}

fn solo_canonical(network: &Network, element: symnet_suite::core::ElementId) -> Canonical {
    let engine = SymNet::with_config(network.clone(), ExecConfig::default().with_threads(1));
    let report = engine.inject(element, 0, &symbolic_tcp_packet());
    canonical(&report, network)
}

/// (a) Two queries straddling an `ApplyDelta` see strictly pre- and post-delta
/// epochs, and both reports are byte-identical (canonical form) to solo runs
/// against the corresponding snapshot — at 1, 2 and 8 pool workers.
#[test]
fn queries_straddling_a_delta_see_strict_epochs_and_match_solo_runs() {
    let fanout = delta_fanout(3, 2);
    let delta = Delta::MacLearn {
        element: fanout.leaves[1],
        mac: fanout_mac(9, 0),
        vlan: None,
        port: 0,
    };
    // Compile the post-delta program once from the table state, exactly as a
    // server client would, and build the post-delta reference network.
    let mut tables = fanout.tables;
    let (element, program) = tables
        .apply_with(&delta, |element, program| (element, program))
        .expect("delta applies")
        .expect("delta changes its table");
    let mut post_network = fanout.network.clone();
    post_network.replace_element(element, program.clone());

    let solo_pre = solo_canonical(&fanout.network, fanout.access);
    let solo_post = solo_canonical(&post_network, fanout.access);
    assert_ne!(solo_pre, solo_post, "the delta must be observable");

    for workers in [1usize, 2, 8] {
        let server = SymNetServer::start(
            fanout.network.clone(),
            ServerConfig::default().with_workers(workers),
        );
        let handle = server.handle();
        // FIFO admission is the serialization point: the first query is
        // pinned strictly before the delta publishes, the second strictly
        // after.
        let pre = handle
            .verify(fanout.access, 0, symbolic_tcp_packet())
            .expect("pre-delta query admitted");
        let publish = handle
            .apply_delta(element, program.clone())
            .expect("delta admitted");
        let post = handle
            .verify(fanout.access, 0, symbolic_tcp_packet())
            .expect("post-delta query admitted");

        let pre = pre.wait().expect("pre-delta query completes");
        let new_epoch = publish.wait().expect("delta publishes");
        let post = post.wait().expect("post-delta query completes");

        assert!(pre.epoch < new_epoch, "pre-delta query pinned to old epoch");
        assert_eq!(post.epoch, new_epoch, "post-delta query sees new epoch");
        assert_eq!(
            canonical(&pre.report, &fanout.network),
            solo_pre,
            "pre-delta report diverged from solo at {workers} workers"
        );
        assert_eq!(
            canonical(&post.report, &post_network),
            solo_post,
            "post-delta report diverged from solo at {workers} workers"
        );

        let stats = handle.stats();
        assert_eq!(stats.epochs_published, 1);
        assert_eq!(stats.completed, 2);
        server.shutdown();
    }
}

/// A burst beyond the admission capacity is rejected with `Overloaded` at the
/// front door; every admitted query still completes normally.
#[test]
fn over_capacity_burst_is_rejected_with_overloaded() {
    let fanout = delta_fanout(8, 4);
    let server = SymNetServer::start(
        fanout.network.clone(),
        ServerConfig::default().with_workers(1).with_capacity(3),
    );
    let handle = server.handle();
    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..10 {
        match handle.verify(fanout.access, 0, symbolic_tcp_packet()) {
            Ok(ticket) => admitted.push(ticket),
            Err(e) => {
                assert_eq!(e, ServerError::Overloaded);
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "a burst of 10 against capacity 3 must reject");
    assert!(
        !admitted.is_empty(),
        "the first submissions must be admitted"
    );
    for ticket in admitted {
        ticket.wait().expect("admitted queries complete");
    }
    let stats = handle.stats();
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.completed + stats.rejected, 10);
    server.shutdown();
}

/// Capacity bounds queries only: with the one slot held by a query not yet
/// awaited, a delta and a snapshot are still answered, and the query keeps
/// the epoch it was pinned to at admission.
#[test]
fn deltas_and_snapshots_bypass_a_full_admission_queue() {
    let fanout = delta_fanout(8, 4);
    let server = SymNetServer::start(
        fanout.network.clone(),
        ServerConfig::default().with_workers(1).with_capacity(1),
    );
    let handle = server.handle();
    let query = handle
        .verify(fanout.access, 0, symbolic_tcp_packet())
        .expect("query admitted");
    let program = fanout.network.element(fanout.leaves[1]).clone();
    let epoch = handle
        .apply_delta(fanout.leaves[1], program)
        .expect("delta admitted")
        .wait()
        .expect("delta publishes");
    let (snapshot_epoch, _) = handle
        .snapshot()
        .expect("snapshot admitted")
        .wait()
        .expect("snapshot serves");
    assert_eq!((epoch, snapshot_epoch), (1, 1));
    let served = query.wait().expect("query completes");
    assert_eq!(served.epoch, 0, "the query keeps its admission epoch");
    assert_eq!(handle.stats().rejected, 0);
    server.shutdown();
}

/// (b) A query cancelled by its deadline resolves to `DeadlineExceeded` and
/// leaves the service fully re-usable: the pool is not poisoned and the next
/// query completes with a solo-identical report.
#[test]
fn deadline_cancelled_query_leaves_the_service_reusable() {
    let fanout = delta_fanout(4, 3);
    let solo = solo_canonical(&fanout.network, fanout.access);
    let server = SymNetServer::start(
        fanout.network.clone(),
        ServerConfig::default().with_workers(2),
    );
    let handle = server.handle();
    let doomed = handle
        .verify_with_deadline(
            fanout.access,
            0,
            symbolic_tcp_packet(),
            std::time::Duration::ZERO,
        )
        .expect("query admitted");
    match doomed.wait() {
        Err(ServerError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let after = handle
        .verify(fanout.access, 0, symbolic_tcp_packet())
        .expect("service stays usable")
        .wait()
        .expect("post-cancel query completes");
    assert_eq!(
        canonical(&after.report, &fanout.network),
        solo,
        "post-cancel report must match a solo run"
    );
    let stats = handle.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    server.shutdown();
}

/// Mixed workload smoke: many concurrent queries interleaved with a delta
/// stream; every ticket resolves, every report is pinned to a valid epoch,
/// and the final snapshot reflects every published delta.
#[test]
fn mixed_query_and_delta_stream_resolves_every_ticket() {
    let fanout = delta_fanout(3, 2);
    let mut tables = fanout.tables;
    let server = SymNetServer::start(
        fanout.network.clone(),
        ServerConfig::default().with_workers(4),
    );
    let handle = server.handle();
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
    let mut queries = Vec::new();
    let mut published = Vec::new();
    for delta in &stream {
        queries.push(
            handle
                .verify(fanout.access, 0, symbolic_tcp_packet())
                .expect("query admitted"),
        );
        let (element, program) = tables
            .apply_with(delta, |element, program| (element, program))
            .expect("delta applies")
            .expect("delta changes its table");
        published.push(
            handle
                .apply_delta(element, program)
                .expect("delta admitted"),
        );
    }
    let epochs: Vec<u64> = published
        .into_iter()
        .map(|t| t.wait().expect("delta publishes"))
        .collect();
    assert_eq!(epochs, vec![1, 2, 3], "epochs publish in admission order");
    for (i, query) in queries.into_iter().enumerate() {
        let served = query.wait().expect("query completes");
        assert_eq!(
            served.epoch, i as u64,
            "query {i} pinned to the epoch preceding its paired delta"
        );
        assert!(served.report.path_count() > 0);
    }
    let (epoch, network) = handle
        .snapshot()
        .expect("snapshot admitted")
        .wait()
        .expect("snapshot serves");
    assert_eq!(epoch, 3);
    // The snapshot is the post-stream topology: a fresh solo run over it must
    // differ from the pre-stream solo run (the deltas were not no-ops).
    assert_ne!(
        solo_canonical(&network, fanout.access),
        solo_canonical(&fanout.network, fanout.access)
    );
    server.shutdown();
}
