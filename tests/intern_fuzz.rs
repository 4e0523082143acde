//! Interner behaviour under fuzz-chain load: a multi-scenario differential
//! fuzz chain churns the process-wide formula interner with thousands of
//! short-lived terms. The eviction counters must stay monotone (they are
//! cumulative process-wide counters), and a scenario re-run after heavy churn
//! must produce a byte-identical canonical report — every memo layer is keyed
//! on structural fingerprints, so whether a formula survived churn or was
//! re-interned into a fresh allocation never shows in a result.

use symnet_suite::core::engine::{ExecConfig, SymNet};
use symnet_suite::core::report::canonical_report_json_string;
use symnet_suite::solver::eviction_stats;
use symnet_suite::testgen::fuzz::{run_case, FuzzConfig};
use symnet_suite::testgen::generators::{fat_tree, GeneratorConfig, GeneratorKind};

fn fuzz_chain(seed: u64, cases: usize) -> usize {
    let config = FuzzConfig {
        seed,
        iters: cases,
        generator: GeneratorConfig {
            seed: 0,
            size: 4,
            entries: 8,
        },
        max_mutations: 2,
    };
    let mut paths = 0;
    for i in 0..cases {
        let kind = GeneratorKind::ALL[i % GeneratorKind::ALL.len()];
        let result = run_case(kind, seed.wrapping_add(i as u64), &config);
        assert!(
            result.failure.is_none(),
            "fuzz chain case {i} diverged: {:?}",
            result.failure
        );
        paths += result.paths_checked;
    }
    paths
}

#[test]
fn eviction_counters_are_monotone_across_fuzz_chains() {
    let before = eviction_stats();
    let paths = fuzz_chain(0x1273_4EED, 10);
    assert!(paths > 0, "the chain must exercise the solver");
    let after = eviction_stats();
    assert!(
        after.evicted >= before.evicted,
        "evicted must be monotone: {} -> {}",
        before.evicted,
        after.evicted
    );
    assert!(
        after.sweeps >= before.sweeps,
        "sweeps must be monotone: {} -> {}",
        before.sweeps,
        after.sweeps
    );
}

#[test]
fn hot_scenario_reports_survive_interner_churn() {
    let scenario = fat_tree(&GeneratorConfig {
        seed: 0x407_CA5E,
        size: 4,
        entries: 8,
    });
    let run = || {
        let engine = SymNet::with_config(
            scenario.network.clone(),
            ExecConfig {
                max_hops: scenario.max_hops,
                ..ExecConfig::default()
            },
        );
        let report = engine.inject(scenario.inject_at, scenario.inject_port, &scenario.packet);
        canonical_report_json_string(&report, &scenario.network)
    };
    let baseline = run();
    // Churn the process-wide interners with unrelated scenarios.
    fuzz_chain(0xC4_0211, 8);
    let after_churn = run();
    assert_eq!(
        baseline, after_churn,
        "interner churn must never change a scenario's canonical report"
    );
}
