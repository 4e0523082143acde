//! Criterion bench behind the §8.5 department-network verification runs,
//! including the single-thread vs multi-thread comparison of the parallel
//! path-exploration engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symnet_core::engine::{ExecConfig, SymNet};
use symnet_models::scenarios::{department, DepartmentConfig};
use symnet_models::tcp_options::symbolic_options_metadata;
use symnet_sefl::packet::{symbolic_l3_tcp_packet, symbolic_tcp_packet};
use symnet_sefl::Instruction;
use symnet_solver::SolverConfig;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec85_department");
    group.sample_size(10);
    let (net, topo) = department(DepartmentConfig {
        access_switches: 6,
        mac_entries: 600,
        routes: 50,
    });
    let engine = SymNet::with_config(
        net.clone(),
        ExecConfig {
            max_hops: 32,
            ..ExecConfig::default()
        },
    );
    let outbound = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    group.bench_function("office_to_internet", |b| {
        b.iter(|| engine.inject(topo.office_switch, 0, &outbound).path_count())
    });
    group.bench_function("inbound_scan", |b| {
        b.iter(|| {
            engine
                .inject(topo.exit_router, 0, &symbolic_l3_tcp_packet())
                .path_count()
        })
    });

    // Parallel-engine speedup: the same outbound verification at 1 worker
    // (the scheduler on the caller's thread) vs 2 and 8 workers (scoped
    // threads under low and high contention — the same counts the
    // determinism suite pins). The reports are byte-identical; only the
    // wall clock changes.
    for threads in [1usize, 2, 8] {
        let engine = SymNet::with_config(
            net.clone(),
            ExecConfig {
                max_hops: 32,
                ..ExecConfig::default().with_threads(threads)
            },
        );
        group.bench_with_input(
            BenchmarkId::new("office_to_internet_threads", threads),
            &threads,
            |b, _| b.iter(|| engine.inject(topo.office_switch, 0, &outbound).path_count()),
        );
    }

    // Incremental-solver speedup: the same run, single-threaded so that the
    // solver dominates, with the prefix-cached incremental procedure vs the
    // from-scratch baseline that re-normalises the entire path condition at
    // every `Constrain`/`If` check. The reports are identical; only the
    // solver-side work (and wall clock) changes.
    for (label, incremental) in [("incremental", true), ("from_scratch", false)] {
        let engine = SymNet::with_config(
            net.clone(),
            ExecConfig {
                max_hops: 32,
                solver: SolverConfig {
                    incremental,
                    ..SolverConfig::default()
                },
                ..ExecConfig::default().with_threads(1)
            },
        );
        group.bench_function(BenchmarkId::new("office_to_internet_solver", label), |b| {
            b.iter(|| engine.inject(topo.office_switch, 0, &outbound).path_count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
