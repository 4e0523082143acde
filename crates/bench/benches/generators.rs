//! Criterion bench over the differential fuzzer's scenario-generator family:
//! per-family scenario construction cost, symbolic exploration of the
//! unmutated scenario, and one full differential fuzz case (build + mutate +
//! explore + concretize + replay). Fixed seeds and CI-scale sizes keep the
//! series' work the same from run to run, so two runs compare like for like.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symnet_core::engine::{ExecConfig, SymNet};
use symnet_testgen::fuzz::{run_case, FuzzConfig};
use symnet_testgen::generators::{GeneratorConfig, GeneratorKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);

    let config = GeneratorConfig {
        seed: 0xBE_BC4,
        size: 4,
        entries: 8,
    };

    // Scenario construction alone: topology wiring + table compilation.
    for kind in GeneratorKind::ALL {
        group.bench_function(BenchmarkId::new("build", kind.name()), |b| {
            b.iter(|| kind.build(&config).network.element_count())
        });
    }

    // Symbolic exploration of the unmutated scenario (single worker, so the
    // series measures engine + solver work, not scheduling).
    for kind in GeneratorKind::ALL {
        let scenario = kind.build(&config);
        let engine = SymNet::with_config(
            scenario.network.clone(),
            ExecConfig {
                max_hops: scenario.max_hops,
                ..ExecConfig::default().with_threads(1)
            },
        );
        group.bench_function(BenchmarkId::new("inject", kind.name()), |b| {
            b.iter(|| {
                engine
                    .inject(scenario.inject_at, scenario.inject_port, &scenario.packet)
                    .path_count()
            })
        });
    }

    // One end-to-end differential fuzz case per family: build, seeded
    // mutations, symbolic exploration, per-path concretization and concrete
    // replay against the reference twin.
    let fuzz_config = FuzzConfig {
        seed: 0xBE_BC4,
        iters: 1,
        generator: config,
        max_mutations: 2,
    };
    for kind in GeneratorKind::ALL {
        group.bench_function(BenchmarkId::new("fuzz_case", kind.name()), |b| {
            b.iter(|| {
                let result = run_case(kind, 0xBE_BC4, &fuzz_config);
                assert!(result.failure.is_none());
                result.paths_checked
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
