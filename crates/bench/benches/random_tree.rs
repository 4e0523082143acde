//! Criterion bench over the `symnet-parsers` random switch-tree generator:
//! fork-heavy synthetic topologies (every egress switch forks the packet per
//! output-port group) exercising the O(1) persistent-state fork path, the
//! incremental solver, and the parallel engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symnet_core::engine::{ExecConfig, SymNet};
use symnet_parsers::random_switch_tree;
use symnet_sefl::packet::symbolic_tcp_packet;
use symnet_solver::SolverConfig;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_tree");
    group.sample_size(10);

    // The generator wires both up- and down-links, so injecting at the root
    // forks the packet multiplicatively down the tree (and the up/down cycles
    // exercise loop detection along the way).
    let topo = random_switch_tree(42, 12, 40);
    let root = topo.elements["sw0"];

    // Incremental prefix-cached solving vs the from-scratch baseline.
    for (label, incremental) in [("incremental", true), ("from_scratch", false)] {
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
        group.bench_function(BenchmarkId::new("inject_solver", label), |b| {
            b.iter(|| engine.inject(root, 0, &symbolic_tcp_packet()).path_count())
        });
    }

    // Parallel exploration of the same fork-heavy tree, swept over the
    // worker counts the determinism suite pins (1 = one scheduler worker on
    // the caller's thread, 2 and 8 = scoped workers under low and high
    // contention).
    for threads in [1usize, 2, 8] {
        let engine = SymNet::with_config(
            topo.network.clone(),
            ExecConfig::default().with_threads(threads),
        );
        group.bench_with_input(
            BenchmarkId::new("inject_threads", threads),
            &threads,
            |b, _| b.iter(|| engine.inject(root, 0, &symbolic_tcp_packet()).path_count()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
