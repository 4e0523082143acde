//! The report's JSON text is a byte-pinned format: the determinism, service,
//! serve and fuzz suites and CI's `cmp r1.json r2.json` all compare rendered
//! strings, so a renderer change must reproduce every byte. The files under
//! `tests/golden/` were written by the `serde_json::Value`-tree renderer this
//! repository had before the streaming writer replaced it; the tests below
//! hold the writer to them.
//!
//! `SYMNET_BLESS_GOLDEN=1 cargo test --test report_format` rewrites the files.
//! That is only right when the format is changed on purpose.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use symnet_suite::core::engine::{ExecConfig, ExecutionReport, PathReport, PathStatus, SymNet};
use symnet_suite::core::error::DropReason;
use symnet_suite::core::network::Network;
use symnet_suite::core::report::{canonical_report_json_string, report_to_json_string};
use symnet_suite::core::sched::SchedStats;
use symnet_suite::core::state::{ExecState, TraceEntry};
use symnet_suite::core::value::Value;
use symnet_suite::models::scenarios::{department, DepartmentConfig};
use symnet_suite::models::tcp_options::symbolic_options_metadata;
use symnet_suite::sefl::cond::Condition;
use symnet_suite::sefl::fields::{self, tcp_dst};
use symnet_suite::sefl::packet::symbolic_tcp_packet;
use symnet_suite::sefl::{ElementProgram, Instruction};
use symnet_suite::solver::{CmpOp, Formula, SolverStats, SymVar};
use symnet_suite::testgen::generators::{tunnel_nat_chain, GeneratorConfig};

/// Compares `text` with `tests/golden/<name>`, or rewrites the file when
/// `SYMNET_BLESS_GOLDEN` is set.
fn assert_golden(name: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("SYMNET_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, text).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if text != want {
        let at = text
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(text.len().min(want.len()));
        let from = at.saturating_sub(60);
        panic!(
            "{name}: rendered report differs from the golden file at byte {at} \
             (rendered {} bytes, golden {} bytes)\nrendered: {:?}\ngolden:   {:?}",
            text.len(),
            want.len(),
            String::from_utf8_lossy(&text.as_bytes()[from..(at + 60).min(text.len())]),
            String::from_utf8_lossy(&want.as_bytes()[from..(at + 60).min(want.len())]),
        );
    }
}

/// The worker counts every exploration golden is rendered at: one worker on
/// the caller's thread, and enough to steal. Both must produce the same file.
const WORKERS: [usize; 2] = [1, 8];

/// Both renderings of one report, timing fields zeroed.
fn assert_golden_pair(name: &str, mut report: ExecutionReport, network: &Network) {
    report.wall_time = Duration::ZERO;
    report.solver_stats.time_in_solver = Duration::ZERO;
    assert_golden(
        &format!("{name}.canonical.json"),
        &canonical_report_json_string(&report, network),
    );
    assert_golden(
        &format!("{name}.full.json"),
        &report_to_json_string(&report, network),
    );
}

#[test]
fn sec85_outbound_matches_golden() {
    let (net, topo) = department(DepartmentConfig {
        access_switches: 2,
        mac_entries: 24,
        routes: 8,
    });
    let pkt = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    for threads in WORKERS {
        let engine = SymNet::with_config(
            net.clone(),
            ExecConfig {
                max_hops: 32,
                ..ExecConfig::default().with_threads(threads)
            },
        );
        let report = engine.inject(topo.office_switch, 0, &pkt);
        assert!(report.delivered().count() > 0);
        assert_golden_pair("sec85_outbound", report, engine.network());
    }
}

#[test]
fn sec85_report_json_document_matches_golden() {
    // The `paper -- sec85 --report-json` document nests two full reports
    // under "outbound" / "inbound": the writer's base indent.
    let text = symnet_bench::sec85_report_json(2, 24, 8);
    // What earlier tests left in the process-wide memos shows only in the
    // unserialised measurement counters and in `time_in_solver`, which the
    // function zeroes.
    assert_golden("sec85_document.json", &text);
}

#[test]
fn tunnel_nat_chain_matches_golden() {
    let scenario = tunnel_nat_chain(&GeneratorConfig {
        seed: 1,
        size: 2,
        entries: 4,
    });
    for threads in WORKERS {
        let engine = SymNet::with_config(
            scenario.network.clone(),
            ExecConfig {
                max_hops: scenario.max_hops,
                ..ExecConfig::default().with_threads(threads)
            },
        );
        let report = engine.inject(scenario.inject_at, scenario.inject_port, &scenario.packet);
        assert!(
            report
                .paths
                .iter()
                .any(|p| p.state.metadata().next().is_some()),
            "the NAT stages must leave metadata behind"
        );
        assert_golden_pair("tunnel_nat_chain", report, engine.network());
    }
}

#[test]
fn dropped_and_unconstrained_paths_match_golden() {
    let mut net = Network::new();
    // Forks: port 0 leads to a filter that drops everything but port 80,
    // port 1 is an unlinked output, so that path carries no constraint.
    let tap = net.add_element(
        ElementProgram::new("tap", 1, 2).with_any_input_code(Instruction::fork(vec![0, 1])),
    );
    let filter = net.add_element(ElementProgram::new("filter", 1, 1).with_any_input_code(
        Instruction::if_else(
            Condition::eq(tcp_dst().field(), 80u64),
            Instruction::forward(0),
            Instruction::fail("only \"http\" passes"),
        ),
    ));
    net.add_link(tap, 0, filter, 0);
    for threads in WORKERS {
        let engine = SymNet::with_config(net.clone(), ExecConfig::default().with_threads(threads));
        let report = engine.inject(tap, 0, &symbolic_tcp_packet());
        assert!(report.dropped().count() > 0);
        assert!(report.paths.iter().any(|p| p.state.path_cond().is_empty()));
        assert_golden_pair("dropped_unconstrained", report, engine.network());
    }
}

/// Text with every class of byte the escaper treats specially: the two
/// characters JSON escapes by name, the five control characters with short
/// escapes, two that need `\u00XX`, DEL (which is *not* escaped) and
/// multi-byte UTF-8.
const AWKWARD: &str =
    "q\"uote b\\ackslash n\new\rline\ttab \u{08}\u{0c} \u{01}\u{1f}\u{7f} δ→✓ 你好";

fn var(id: u64, width: u8) -> SymVar {
    SymVar::new(id, width)
}

fn path(id: usize, status: PathStatus, state: ExecState) -> PathReport {
    PathReport { id, status, state }
}

/// A report no exploration would produce: awkward names everywhere a string is
/// printed, and path conditions that exercise each clause of the
/// `Formula::and` contract the writer reproduces.
fn hand_built() -> (ExecutionReport, Network) {
    let mut net = Network::new();
    let odd = net.add_element(ElementProgram::new(format!("el {AWKWARD}"), 1, 4));
    let plain = net.add_element(ElementProgram::new("plain", 1, 1));

    let a = Formula::eq_const(var(1, 16), 80);
    let b = Formula::cmp_const(CmpOp::Ge, var(2, 8), 5);
    let c = Formula::prefix_match(var(3, 32), 0x0a00_0000, 8);
    let d = Formula::or(vec![
        Formula::eq_const(var(4, 8), 1),
        Formula::eq_const(var(4, 8), 2),
    ]);
    let mut paths = Vec::new();

    // 0: a pushed And(b, c) is flattened; `a` and `b` pushed again are dropped
    // (first occurrence wins); awkward trace, port and metadata strings; real
    // header fields behind real tags.
    let mut s = ExecState::new();
    s.create_tag(fields::TAG_L3, 0);
    s.create_tag(fields::TAG_L4, 160);
    for (f, value) in [
        (fields::ip_ttl(), Value::Concrete(64)),
        (
            fields::ip_src(),
            Value::Sym {
                var: var(9, 32),
                offset: 0,
            },
        ),
        (
            fields::ip_dst(),
            Value::Sym {
                var: var(10, 32),
                offset: -3,
            },
        ),
        (
            fields::tcp_dst(),
            Value::Sym {
                var: var(1, 16),
                offset: 7,
            },
        ),
    ] {
        let addr = s.resolve_addr(&f.addr).expect("tag exists");
        s.allocate_header(addr, f.width).expect("free address");
        s.write_header(addr, value).expect("allocated");
    }
    s.write_meta(format!("key {AWKWARD}"), Value::Concrete(7));
    s.write_meta(
        "nat-port",
        Value::Sym {
            var: var(11, 16),
            offset: 0,
        },
    );
    s.push_trace(TraceEntry::Port(format!("el {AWKWARD}:in[0] {AWKWARD}")));
    s.push_trace(TraceEntry::Instruction(format!("Constrain({AWKWARD})")));
    s.push_trace(TraceEntry::Message(AWKWARD.to_string()));
    s.push_trace(TraceEntry::Port("plain:out[0]".into()));
    s.add_constraint(a.clone());
    s.add_constraint(Formula::and(vec![b.clone(), c.clone()]));
    s.add_constraint(a.clone());
    s.add_constraint(d.clone());
    s.add_constraint(b.clone());
    paths.push(path(
        0,
        PathStatus::Delivered {
            element: odd,
            port: 3,
        },
        s,
    ));

    // 1: a single conjunct is still a one-element array.
    let mut s = ExecState::new();
    s.push_trace(TraceEntry::Port("plain:in[0]".into()));
    s.add_constraint(d.clone());
    paths.push(path(
        1,
        PathStatus::Dropped {
            element: plain,
            reason: DropReason::Failed(AWKWARD.to_string()),
        },
        s,
    ));

    // 2: nothing at all: `[]` and `{}` everywhere.
    paths.push(path(
        2,
        PathStatus::Dropped {
            element: odd,
            reason: DropReason::NotForwarded,
        },
        ExecState::new(),
    ));

    // 3: `false` short-circuits whatever came before and after it.
    let mut s = ExecState::new();
    s.add_constraint(a.clone());
    s.add_constraint(Formula::False);
    s.add_constraint(b.clone());
    paths.push(path(
        3,
        PathStatus::Dropped {
            element: plain,
            reason: DropReason::Unsatisfiable("a & false".into()),
        },
        s,
    ));

    // 4: the same text for different structures (the width is not printed):
    // both stay, because deduplication is structural.
    let mut s = ExecState::new();
    s.add_constraint(Formula::eq_const(var(7, 8), 1));
    s.add_constraint(Formula::eq_const(var(7, 16), 1));
    paths.push(path(
        4,
        PathStatus::Delivered {
            element: plain,
            port: 0,
        },
        s,
    ));

    // 5, 6: conjunctions no smart constructor builds. One level of nesting is
    // flattened, and a lone survivor that is itself a conjunction (or `true`)
    // is unpacked once more by the report.
    let mut s = ExecState::new();
    s.add_constraint(Formula::And(Arc::new(vec![Formula::And(Arc::new(vec![
        a.clone(),
        b.clone(),
    ]))])));
    paths.push(path(
        5,
        PathStatus::Delivered {
            element: plain,
            port: 0,
        },
        s,
    ));
    let mut s = ExecState::new();
    s.add_constraint(Formula::And(Arc::new(vec![Formula::True])));
    paths.push(path(
        6,
        PathStatus::Delivered {
            element: plain,
            port: 0,
        },
        s,
    ));

    // 7: a nested conjunction's children are taken as they are — `true` and a
    // deeper conjunction are printed, not folded — next to an ordinary one.
    let mut s = ExecState::new();
    s.add_constraint(Formula::And(Arc::new(vec![
        Formula::True,
        Formula::And(Arc::new(vec![c.clone(), a.clone()])),
        Formula::not(d.clone()),
    ])));
    s.add_constraint(c.clone());
    paths.push(path(
        7,
        PathStatus::Delivered {
            element: plain,
            port: 0,
        },
        s,
    ));

    let report = ExecutionReport {
        paths,
        injected: ExecState::new(),
        solver_stats: SolverStats {
            calls: 12,
            sat: 7,
            unsat: 4,
            unknown: 1,
            time_in_solver: Duration::from_micros(1234),
            ..SolverStats::default()
        },
        sched: SchedStats::default(),
        wall_time: Duration::from_micros(98_765),
    };
    (report, net)
}

#[test]
fn hand_built_report_matches_golden() {
    let (report, net) = hand_built();
    assert_golden(
        "hand_built.canonical.json",
        &canonical_report_json_string(&report, &net),
    );
    assert_golden(
        "hand_built.full.json",
        &report_to_json_string(&report, &net),
    );
}

#[test]
fn hand_built_report_parses_back_to_what_was_put_in() {
    let (report, net) = hand_built();
    let text = report_to_json_string(&report, &net);
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(doc["path_count"], 8);
    assert_eq!(doc["delivered_count"], 5);
    assert_eq!(doc["wall_time_us"], 98_765);
    assert_eq!(doc["solver"]["time_in_solver_us"], 1234);
    let first = &doc["paths"][0];
    assert_eq!(
        first["status"]["element"].as_str().unwrap(),
        format!("el {AWKWARD}")
    );
    assert_eq!(
        first["trace"][2].as_str().unwrap(),
        format!("message: {AWKWARD}")
    );
    assert_eq!(first["ports"].as_array().unwrap().len(), 2);
    assert_eq!(first["headers"]["IpTtl"], "64");
    assert_eq!(first["headers"]["IpDst"], "s10-3");
    assert_eq!(first["metadata"][format!("key {AWKWARD}").as_str()], "7");
    let constraints = |i: usize| strings(&doc["paths"][i]["constraints"]);
    assert_eq!(constraints(0).len(), 4);
    assert_eq!(constraints(1).len(), 1);
    assert!(constraints(2).is_empty());
    assert_eq!(constraints(3), ["false"]);
    assert_eq!(constraints(4), ["(s7 == 1)", "(s7 == 1)"]);
    assert_eq!(constraints(5).len(), 2);
    assert!(constraints(6).is_empty());
    assert_eq!(constraints(7)[0], "true");
    assert_eq!(constraints(7).len(), 4);
}

// -- the `Formula::and` contract, against the materialised formula -------------

/// What the `Value`-tree renderer printed for a state's constraints: the
/// materialised conjunction, unpacked one level.
fn constraints_by_materialising(state: &ExecState) -> Vec<String> {
    match state.path_condition() {
        Formula::And(parts) => parts.iter().map(|f| f.to_string()).collect(),
        Formula::True => Vec::new(),
        other => vec![other.to_string()],
    }
}

/// A small pool of conjuncts with deliberate collisions: repeated atoms,
/// equal text at different widths, smart-constructor and raw conjunctions,
/// and the two constants.
fn pool_formula(pick: usize) -> Formula {
    let atom = |i: usize| Formula::eq_const(var(20 + (i % 3) as u64, 8), (i % 2) as u64);
    match pick % 12 {
        0..=3 => atom(pick),
        4 => Formula::eq_const(var(20, 16), 0),
        5 => Formula::and(vec![atom(0), atom(1)]),
        6 => Formula::and(vec![atom(1), atom(2), atom(3)]),
        7 => Formula::or(vec![atom(0), atom(3)]),
        8 => Formula::And(Arc::new(vec![Formula::True, atom(2)])),
        9 => Formula::And(Arc::new(vec![Formula::and(vec![atom(0), atom(1)])])),
        10 => Formula::not(Formula::or(vec![atom(1), atom(2)])),
        _ => Formula::False,
    }
}

/// Applies one pick to a state: a conjunct from the pool and two trace
/// entries, one of them a port.
fn extend(state: &mut ExecState, pick: usize) {
    // `false` is rare (1 pick in 48), so most sequences reach the flatten /
    // dedup / lone-survivor clauses.
    let pick = if pick == 47 { 11 } else { pick % 11 };
    state.add_constraint(pool_formula(pick));
    state.push_trace(TraceEntry::Port(format!("e:in[{pick}]")));
    state.push_trace(TraceEntry::Instruction(format!("If(pick \"{pick}\")")));
}

fn strings(array: &serde_json::Value) -> Vec<String> {
    array
        .as_array()
        .expect("an array")
        .iter()
        .map(|item| item.as_str().expect("a string").to_string())
        .collect()
}

proptest! {
    #[test]
    fn arrays_equal_the_materialised_lists_whatever_the_paths_share(
        picks in prop::collection::vec(0usize..48, 0..9),
        fork_at in 0usize..9,
        branch in prop::collection::vec(0usize..48, 0..5),
    ) {
        // Four paths as an exploration leaves them: a trunk, a path that
        // forked from it part-way (shares those cells), the trunk again (shares
        // every cell) and the branch rebuilt from nothing (shares no cell, but
        // every conjunct is in the per-call cache by then).
        let mut trunk = ExecState::new();
        let mut forked = ExecState::new();
        let mut rebuilt = ExecState::new();
        for (i, &pick) in picks.iter().enumerate() {
            if i == fork_at {
                forked = trunk.clone();
            }
            extend(&mut trunk, pick);
            if i < fork_at {
                extend(&mut rebuilt, pick);
            }
        }
        if fork_at >= picks.len() {
            forked = trunk.clone();
        }
        for &pick in &branch {
            extend(&mut forked, pick);
            extend(&mut rebuilt, pick);
        }
        let states = [trunk.clone(), forked, trunk, rebuilt];

        let mut net = Network::new();
        let el = net.add_element(ElementProgram::new("e", 1, 1));
        let report = ExecutionReport {
            paths: states
                .iter()
                .enumerate()
                .map(|(i, s)| path(i, PathStatus::Delivered { element: el, port: 0 }, s.clone()))
                .collect(),
            injected: ExecState::new(),
            solver_stats: SolverStats::default(),
            sched: SchedStats::default(),
            wall_time: Duration::ZERO,
        };
        let text = canonical_report_json_string(&report, &net);
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (i, state) in states.iter().enumerate() {
            let rendered = &doc["paths"][i];
            prop_assert_eq!(
                strings(&rendered["constraints"]),
                constraints_by_materialising(state)
            );
            let trace: Vec<String> = state
                .trace()
                .into_iter()
                .map(|entry| match entry {
                    TraceEntry::Port(p) => format!("port {p}"),
                    TraceEntry::Instruction(i) => i.clone(),
                    TraceEntry::Message(m) => format!("message: {m}"),
                })
                .collect();
            prop_assert_eq!(strings(&rendered["trace"]), trace);
            prop_assert_eq!(strings(&rendered["ports"]), state.ports_visited());
        }
    }
}

// -- the parser is linear: a large report round-trips --------------------------

#[test]
fn fig8_basic_440_report_round_trips_through_the_parser() {
    use symnet_suite::models::switch::{switch_basic, MacTable};
    let mut net = Network::new();
    let switch = net.add_element(switch_basic("switch", &MacTable::synthetic(440, 20)));
    let engine = SymNet::with_config(net, ExecConfig::default().with_threads(1));
    let report = engine.inject(switch, 0, &symbolic_tcp_packet());
    let text = canonical_report_json_string(&report, engine.network());
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        doc["paths"].as_array().unwrap().len(),
        report.path_count(),
        "every path is in the document"
    );
    assert_eq!(doc["path_count"], report.path_count());
    assert_eq!(doc["delivered_count"], report.delivered().count());
    // Printing what was parsed gives the text back: the shim's printer and
    // the report writer agree on every byte of a 9 MB document.
    assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), text);
}
