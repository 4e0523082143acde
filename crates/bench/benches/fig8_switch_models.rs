//! Criterion bench behind Figure 8: basic vs ingress vs egress switch models,
//! plus the incremental-vs-from-scratch solver comparison on the basic model
//! (the paper's fork-heavy worst case: one execution path per MAC entry, each
//! sharing a long prefix of negated matches with its siblings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symnet_bench::measure_switch;
use symnet_core::engine::{ExecConfig, SymNet};
use symnet_core::network::Network;
use symnet_models::switch::{switch_basic, MacTable};
use symnet_sefl::packet::symbolic_tcp_packet;
use symnet_solver::SolverConfig;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_switch_models");
    group.sample_size(10);
    for &entries in &[440usize, 2_000, 10_000] {
        for model in ["ingress", "egress"] {
            group.bench_with_input(BenchmarkId::new(model, entries), &entries, |b, &entries| {
                b.iter(|| measure_switch(model, entries, 20).paths)
            });
        }
    }
    // The basic model is only benchable at small sizes (DNF in the paper).
    group.bench_function(BenchmarkId::new("basic", 440usize), |b| {
        b.iter(|| measure_switch("basic", 440, 20).paths)
    });

    // Basic model across worker counts: the paper's fork-heavy worst case is
    // where scheduler contention shows, so this sweep is the headline number
    // for the work-stealing scheduler (1 = one worker on the caller's thread,
    // 2/8 = scoped worker threads).
    let table = MacTable::synthetic(440, 20);
    for threads in [1usize, 2, 8] {
        let mut net = Network::new();
        let id = net.add_element(switch_basic("switch", &table));
        let engine = SymNet::with_config(net, ExecConfig::default().with_threads(threads));
        group.bench_with_input(
            BenchmarkId::new("basic_threads", threads),
            &threads,
            |b, _| b.iter(|| engine.inject(id, 0, &symbolic_tcp_packet()).path_count()),
        );
    }

    // Basic model, incremental prefix-cached solving vs re-solving the whole
    // path condition from scratch on every check.
    for (label, incremental) in [("incremental", true), ("from_scratch", false)] {
        let mut net = Network::new();
        let id = net.add_element(switch_basic("switch", &table));
        let engine = SymNet::with_config(
            net,
            ExecConfig {
                solver: SolverConfig {
                    incremental,
                    ..SolverConfig::default()
                },
                ..ExecConfig::default().with_threads(1)
            },
        );
        group.bench_function(BenchmarkId::new("basic_solver", label), |b| {
            b.iter(|| engine.inject(id, 0, &symbolic_tcp_packet()).path_count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
