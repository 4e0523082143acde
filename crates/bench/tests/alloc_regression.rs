//! Allocation-regression gates (enabled with `--features count-allocs`).
//!
//! Allocation counts repeat exactly from run to run when the tests run on one
//! thread, which wall-clock numbers on a shared box do not, so these are the
//! first gate a regression meets. The counters are process-global: under the
//! default parallel harness, allocations made on the harness's other threads
//! while a test measures land in its count, so compare counts only from
//! `--test-threads=1` runs.
//!
//! The first runs the §8.5 outbound department verification — the workload
//! the interner and small-value-storage work (hash-consed formulas, inline
//! interval sets) was sized against — under the counting global allocator
//! and fails if allocator traffic regresses past a generous ceiling. The
//! ceiling is ~2× the count measured when the gate was introduced (see
//! docs/BENCHMARKS.md for the measured before/after numbers), so it only trips
//! on wholesale regressions (an accidental `clone()` in the hot loop, a lost
//! inline representation), not on noise.
//!
//! The second renders the Figure 8 basic-switch report and bounds the
//! allocations of the report writer (see the test's doc comment).
//!
//! The third bounds the bytes a cold 20 000-prefix egress-router verification
//! allocates, which is what a quadratic in single-variable normalisation
//! shows up as first (see the test's doc comment).
//!
//! Without the feature the binary compiles to nothing; CI runs it as
//! `cargo test -p symnet-bench --features count-allocs --test alloc_regression --release
//! -- --test-threads=1`.

#![cfg(feature = "count-allocs")]

use symnet_bench::measure_router;
use symnet_core::engine::{ExecConfig, SymNet};
use symnet_core::network::Network;
use symnet_core::report::canonical_report_json_string;
use symnet_models::router::Fib;
use symnet_models::scenarios::{department, DepartmentConfig};
use symnet_models::switch::{switch_basic, MacTable};
use symnet_models::tcp_options::symbolic_options_metadata;
use symnet_sefl::packet::symbolic_tcp_packet;
use symnet_sefl::Instruction;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();

/// The counters are process-global and the test harness runs tests on
/// parallel threads: each test holds this lock while it measures.
static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn measuring() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in the other test poisons the lock, not the counters.
    MEASURING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Allocations allowed per measured run (~2× the count at introduction).
const MAX_ALLOCATIONS_PER_RUN: u64 = 8_000; // measured 3 604 at introduction

#[test]
fn sec85_outbound_stays_within_allocation_budget() {
    let _alone = measuring();
    let (net, topo) = department(DepartmentConfig {
        access_switches: 6,
        mac_entries: 600,
        routes: 50,
    });
    // Single worker: the counters are process-global, so keep the run
    // deterministic and free of scheduler noise.
    let engine = SymNet::with_config(
        net,
        ExecConfig {
            max_hops: 32,
            ..ExecConfig::default().with_threads(1)
        },
    );
    let outbound = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);

    // Warm-up run: fills the process-wide interner and content memos, so the
    // measured run sees the steady state the benchmarks measure.
    let warm = engine.inject(topo.office_switch, 0, &outbound).path_count();
    assert!(warm > 0, "scenario produced no paths");

    let before = alloc_counter::snapshot();
    let paths = engine.inject(topo.office_switch, 0, &outbound).path_count();
    let delta = alloc_counter::snapshot().since(&before);
    assert_eq!(paths, warm, "re-injection must reproduce the run");

    eprintln!(
        "sec85 outbound: {} allocations, {} deallocations, {} bytes",
        delta.allocations, delta.deallocations, delta.bytes_allocated
    );
    assert!(
        delta.allocations > 0,
        "counting allocator is not installed (delta: {delta:?})"
    );
    assert!(
        delta.allocations <= MAX_ALLOCATIONS_PER_RUN,
        "sec85 outbound run allocated {} times (budget {MAX_ALLOCATIONS_PER_RUN}); \
         allocator traffic regressed — see docs/BENCHMARKS.md",
        delta.allocations
    );
}

/// Allocations allowed for one rendering of the fig8 basic/440 report.
const MAX_RENDER_ALLOCATIONS: u64 = 1_000; // measured 126 at introduction

/// Rendering the canonical report of the Figure 8 basic switch with 440 MAC
/// entries: 441 paths whose conditions hold 97 460 conjuncts between them,
/// 880 of them distinct, and traces of the same shape — 9.3 MB of JSON.
///
/// The `Value`-tree renderer this gate was introduced against allocated
/// several times per conjunct and trace entry *occurrence*: 1 663 886
/// allocations, 136.9 MB requested. The streaming writer allocates only when
/// one of its buffers grows (the output, the distinct-conjunct cache, the
/// scratch vectors) and for the 15 header-field descriptors it builds once
/// per call: 126 allocations, 33.8 MB requested. The budget sits below one
/// allocation per path and header field (441 × 15), so a descriptor table
/// rebuilt per path trips it, and far below one per occurrence.
#[test]
fn fig8_basic_440_render_stays_within_allocation_budget() {
    let _alone = measuring();
    let mut net = Network::new();
    let switch = net.add_element(switch_basic("switch", &MacTable::synthetic(440, 20)));
    let engine = SymNet::with_config(net, ExecConfig::default().with_threads(1));
    let report = engine.inject(switch, 0, &symbolic_tcp_packet());
    assert_eq!(report.path_count(), 441);

    let conjuncts: usize = report
        .paths
        .iter()
        .map(|p| p.state.constraint_count())
        .sum();
    assert_eq!(conjuncts, 97_460);

    let before = alloc_counter::snapshot();
    let text = canonical_report_json_string(&report, engine.network());
    let delta = alloc_counter::snapshot().since(&before);

    eprintln!(
        "fig8 basic/440 render: {} bytes of JSON, {} allocations, {} bytes allocated",
        text.len(),
        delta.allocations,
        delta.bytes_allocated
    );
    assert!(
        text.len() > 8_000_000,
        "report shrank to {} bytes",
        text.len()
    );
    assert!(
        delta.allocations <= MAX_RENDER_ALLOCATIONS,
        "rendering allocated {} times (budget {MAX_RENDER_ALLOCATIONS}); the writer must \
         allocate per distinct conjunct, not per occurrence",
        delta.allocations
    );
}

/// Bytes allowed for one cold egress-router verification at 20 000 prefixes
/// (~2× the bytes measured when the gate was introduced).
const MAX_ROUTER_BYTES: u64 = 175_000_000; // measured 87 203 122

/// A cold egress-router verification of the synthetic 20 000-prefix FIB. The
/// default route's port condition is `/0 ∧ ¬p₁ ∧ … ∧ ¬pₙ` over every prefix
/// that leaves by another port, and the solver normalises it into one
/// interval set. When `cube::eval_single_var` folded `acc ∩ part` over the
/// conjuncts, it copied a growing accumulator once per conjunct. That
/// allocated 18 463 526 530 bytes (657 034 allocations, 1.48 s). The one-merge
/// De Morgan form allocates 87 203 122 bytes (413 077 allocations, 0.05 s).
/// Byte counts repeat exactly, so the gate trips on a reintroduced quadratic
/// without depending on the box's speed. No other test in this binary builds
/// a router, so the content memos are cold when it runs.
#[test]
fn egress_router_20k_stays_within_byte_budget() {
    let _alone = measuring();
    let fib = Fib::synthetic(20_000, 8);
    let before = alloc_counter::snapshot();
    let m = measure_router("egress", &fib, 20_000);
    let delta = alloc_counter::snapshot().since(&before);
    assert_eq!(m.paths, 8, "one delivered path per port in use");
    eprintln!(
        "egress router/20k: {} allocations, {} bytes allocated, {:?}",
        delta.allocations, delta.bytes_allocated, m.runtime
    );
    assert!(
        delta.bytes_allocated <= MAX_ROUTER_BYTES,
        "cold egress router at 20k prefixes allocated {} bytes (budget {MAX_ROUTER_BYTES}); \
         single-variable normalisation went quadratic again",
        delta.bytes_allocated
    );
}
