//! # symnet-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! SymNet paper's evaluation (§2 and §8). Each experiment is a plain function
//! returning printable rows, so the same code backs
//!
//! * the `paper` report binary (`cargo run --release -p symnet-bench --bin
//!   paper -- <experiment>`),
//! * the Criterion benches (`cargo bench -p symnet-bench`), and
//! * the repository-level integration tests that assert the qualitative shape
//!   of every result (who wins, by roughly what factor, where the crossovers
//!   are).
//!
//! Absolute numbers differ from the paper — the original experiments ran Z3 on
//! a 2016-era quad-core i5 against real Stanford/RouteViews datasets — but the
//! relationships the paper reports (egress ≪ ingress ≪ basic, SymNet within a
//! small factor of HSA, Klee exploding exponentially with the options length)
//! are reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};
use symnet_core::engine::{ExecConfig, SymNet};
use symnet_core::network::Network;
use symnet_hsa::{router_transfer_function, HsaNetwork, Ternary};
use symnet_klee::programs::tcp_options_program;
use symnet_klee::symex::{SymConfig, SymExecutor};
use symnet_models::router::{router_basic, router_egress, router_ingress, Fib};
use symnet_models::scenarios;
use symnet_models::switch::{switch_basic, switch_egress, switch_ingress, MacTable};
use symnet_models::tcp_options::{
    opt_key, option_kind, symbolic_options_metadata, AsaOptionsConfig,
};
use symnet_sefl::packet::{symbolic_l3_tcp_packet, symbolic_tcp_packet};
use symnet_sefl::{ElementProgram, Instruction};

/// One row of a generated table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Column values, already formatted.
    pub cells: Vec<String>,
}

/// A generated table or figure data series.
#[derive(Clone, Debug)]
pub struct TableReport {
    /// Experiment label (e.g. `"Table 1"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl TableReport {
    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.cells.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(&row.cells, &widths));
            out.push('\n');
        }
        out
    }
}

fn ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1000.0)
}

fn run_single_element(
    program: ElementProgram,
    packet: &Instruction,
) -> (symnet_core::engine::ExecutionReport, Duration) {
    let mut net = Network::new();
    let id = net.add_element(program);
    let engine = SymNet::new(net);
    let start = Instant::now();
    let report = engine.inject(id, 0, packet);
    (report, start.elapsed())
}

// ---------------------------------------------------------------------------
// Table 1 — Klee path explosion on the TCP-options C code (§2)
// ---------------------------------------------------------------------------

/// Runs classic symbolic execution on the Figure 1 options code for options
/// lengths `1..=max_length`, returning `(length, paths, runtime, exhausted)`.
pub fn table1_data(max_length: u64, max_paths: usize) -> Vec<(u64, usize, Duration, bool)> {
    let mut out = Vec::new();
    for length in 1..=max_length {
        let mut executor = SymExecutor::new(SymConfig {
            max_paths,
            ..SymConfig::default()
        });
        let start = Instant::now();
        let report = executor.run_symbolic(&tcp_options_program(length), length as usize);
        out.push((
            length,
            report.path_count(),
            start.elapsed(),
            report.budget_exhausted,
        ));
    }
    out
}

/// Table 1 as a printable report.
pub fn table1(max_length: u64) -> TableReport {
    let rows = table1_data(max_length, 100_000)
        .into_iter()
        .map(|(len, paths, runtime, exhausted)| Row {
            cells: vec![
                len.to_string(),
                if exhausted {
                    format!(">{paths} (budget)")
                } else {
                    paths.to_string()
                },
                ms(runtime),
            ],
        })
        .collect();
    TableReport {
        title: "Table 1: classic symbolic execution of the TCP-options parsing code".into(),
        headers: vec!["Options length".into(), "Paths".into(), "Runtime".into()],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 8 — switch model scaling (§8.1)
// ---------------------------------------------------------------------------

/// One Figure 8 measurement.
#[derive(Clone, Debug)]
pub struct SwitchMeasurement {
    /// Model variant (`basic` / `ingress` / `egress`).
    pub model: &'static str,
    /// MAC-table entries.
    pub entries: usize,
    /// Delivered paths.
    pub paths: usize,
    /// Total constraint atoms across delivered paths.
    pub constraint_atoms: usize,
    /// Wall-clock verification time.
    pub runtime: Duration,
}

/// Runs one switch-model measurement.
pub fn measure_switch(model: &'static str, entries: usize, ports: usize) -> SwitchMeasurement {
    let table = MacTable::synthetic(entries, ports);
    let program = match model {
        "basic" => switch_basic("switch", &table),
        "ingress" => switch_ingress("switch", &table),
        "egress" => switch_egress("switch", &table),
        other => panic!("unknown switch model {other}"),
    };
    let (report, runtime) = run_single_element(program, &symbolic_tcp_packet());
    SwitchMeasurement {
        model,
        entries,
        paths: report.delivered().count(),
        constraint_atoms: report.delivered().map(|p| p.state.constraint_atoms()).sum(),
        runtime,
    }
}

/// Figure 8 as a printable report. `sizes` is the sweep of MAC-table sizes;
/// the basic model is only run up to `basic_cutoff` entries (the paper's run
/// exhausts 8 GB of RAM beyond ~1000 entries).
pub fn fig8(sizes: &[usize], basic_cutoff: usize) -> TableReport {
    let mut rows = Vec::new();
    for &entries in sizes {
        for model in ["basic", "ingress", "egress"] {
            if model == "basic" && entries > basic_cutoff {
                rows.push(Row {
                    cells: vec![
                        model.into(),
                        entries.to_string(),
                        "-".into(),
                        "-".into(),
                        "DNF".into(),
                    ],
                });
                continue;
            }
            let m = measure_switch(model, entries, 20);
            rows.push(Row {
                cells: vec![
                    m.model.into(),
                    m.entries.to_string(),
                    m.paths.to_string(),
                    m.constraint_atoms.to_string(),
                    ms(m.runtime),
                ],
            });
        }
    }
    TableReport {
        title: "Figure 8: symbolic execution of different switch models".into(),
        headers: vec![
            "Model".into(),
            "MAC entries".into(),
            "Paths".into(),
            "Constraints".into(),
            "Runtime".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table 2 — core-router analysis (§8.1)
// ---------------------------------------------------------------------------

/// One Table 2 measurement (`None` runtime = did not finish / skipped).
#[derive(Clone, Debug)]
pub struct RouterMeasurement {
    /// Model variant.
    pub model: &'static str,
    /// Number of prefixes.
    pub prefixes: usize,
    /// Delivered paths.
    pub paths: usize,
    /// Wall-clock verification time.
    pub runtime: Duration,
    /// Solver queries issued — a deterministic proxy for the verification
    /// work (the paper reports >90% of runtime is solver time), which the
    /// shape tests assert on instead of flaky wall-clock ratios.
    pub solver_calls: u64,
}

/// Runs one router measurement on the synthetic FIB truncated to `prefixes`.
pub fn measure_router(model: &'static str, fib: &Fib, prefixes: usize) -> RouterMeasurement {
    let fib = fib.truncated(prefixes);
    let program = match model {
        "basic" => router_basic("router", &fib),
        "ingress" => router_ingress("router", &fib),
        "egress" => router_egress("router", &fib),
        other => panic!("unknown router model {other}"),
    };
    let (report, runtime) = run_single_element(program, &symbolic_l3_tcp_packet());
    RouterMeasurement {
        model,
        prefixes,
        paths: report.delivered().count(),
        runtime,
        solver_calls: report.solver_stats.calls,
    }
}

/// Table 2 as a printable report: `total` prefixes evaluated at 1%, 33% and
/// 100%, with the basic model skipped above `basic_cutoff` prefixes (DNF in
/// the paper: it has one path per prefix by design). The ingress and egress
/// models always run at full size.
pub fn table2(total: usize, basic_cutoff: usize) -> TableReport {
    let fib = Fib::synthetic(total, 8);
    let fractions = [(total / 100).max(1), total / 3, total];
    let mut rows = Vec::new();
    for prefixes in fractions {
        for model in ["basic", "ingress", "egress"] {
            if model == "basic" && prefixes > basic_cutoff {
                rows.push(Row {
                    cells: vec![prefixes.to_string(), model.into(), "-".into(), "DNF".into()],
                });
                continue;
            }
            let m = measure_router(model, &fib, prefixes);
            rows.push(Row {
                cells: vec![
                    m.prefixes.to_string(),
                    m.model.into(),
                    m.paths.to_string(),
                    ms(m.runtime),
                ],
            });
        }
    }
    TableReport {
        title: "Table 2: core router analysis".into(),
        headers: vec![
            "Prefixes".into(),
            "Model".into(),
            "Paths".into(),
            "Runtime".into(),
        ],
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table 3 — comparison to Header Space Analysis (§8.1)
// ---------------------------------------------------------------------------

/// Table 3 measurement: model-generation time and reachability runtime for
/// SymNet and the HSA baseline on the same synthetic backbone.
pub fn table3(zone_routers: usize, prefixes_per_router: usize) -> TableReport {
    // --- SymNet ---
    let gen_start = Instant::now();
    let backbone = scenarios::stanford_backbone(zone_routers, prefixes_per_router);
    let symnet_generation = gen_start.elapsed();
    let engine = SymNet::with_config(
        backbone.network.clone(),
        ExecConfig {
            detect_loops: true,
            ..ExecConfig::default()
        },
    );
    let run_start = Instant::now();
    let report = engine.inject(backbone.access, 0, &symbolic_l3_tcp_packet());
    let symnet_runtime = run_start.elapsed();
    let symnet_paths = report.delivered().count();

    // --- HSA --- (built from the very same FIBs)
    let gen_start = Instant::now();
    let mut hsa = HsaNetwork::new();
    let mut node_ids = Vec::new();
    for (name, fib) in &backbone.fibs {
        let routes: Vec<(u32, u8, usize)> = fib
            .entries
            .iter()
            .map(|e| (e.prefix, e.prefix_len, e.port))
            .collect();
        node_ids.push((
            name.clone(),
            hsa.add_node(name.clone(), router_transfer_function(&routes)),
        ));
    }
    // Mirror the backbone wiring: every zone router's ports 0/1 go to the two
    // cores (node order in `fibs` is core0, core1, zone0..).
    for (i, (name, id)) in node_ids.iter().enumerate() {
        if name.starts_with("zone") {
            hsa.add_link(*id, 0, node_ids[0].1);
            hsa.add_link(*id, 1, node_ids[1].1);
        }
        let _ = i;
    }
    let hsa_generation = gen_start.elapsed();
    let run_start = Instant::now();
    let hsa_paths = hsa.reachability(node_ids[2].1, Ternary::any(32), 8).len();
    let hsa_runtime = run_start.elapsed();

    TableReport {
        title: "Table 3: comparison to Header Space Analysis (synthetic backbone)".into(),
        headers: vec![
            "Tool".into(),
            "Generation".into(),
            "Runtime".into(),
            "Paths".into(),
        ],
        rows: vec![
            Row {
                cells: vec![
                    "HSA".into(),
                    ms(hsa_generation),
                    ms(hsa_runtime),
                    hsa_paths.to_string(),
                ],
            },
            Row {
                cells: vec![
                    "SymNet".into(),
                    ms(symnet_generation),
                    ms(symnet_runtime),
                    symnet_paths.to_string(),
                ],
            },
        ],
    }
}

// ---------------------------------------------------------------------------
// Table 4 — Klee vs SymNet on the TCP-options code (§8.2)
// ---------------------------------------------------------------------------

/// Table 4: the property-coverage comparison. The Klee column is computed by
/// running the classic executor on small options fields (as the paper did) and
/// the SymNet column by querying the SEFL model.
pub fn table4(klee_length: u64) -> TableReport {
    // Klee side: run the classic executor and measure what it can conclude.
    let klee_start = Instant::now();
    let mut executor = SymExecutor::new(SymConfig::default());
    let klee_report =
        executor.run_symbolic(&tcp_options_program(klee_length), klee_length as usize);
    let klee_runtime = klee_start.elapsed();
    let klee_terminates = !klee_report.budget_exhausted;

    // SymNet side: run the SEFL model with a symbolic pre-parsed options field.
    let symnet_start = Instant::now();
    let packet = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    let (report, _) = run_single_element(
        symnet_models::tcp_options::asa_options_filter("asa-options", &AsaOptionsConfig::default()),
        &packet,
    );
    let symnet_runtime = symnet_start.elapsed();
    let delivered: Vec<_> = report.delivered().collect();
    let mptcp_stripped = delivered.iter().all(|p| {
        p.state
            .read_meta(&opt_key(option_kind::MPTCP))
            .map(|s| s.value)
            == Ok(symnet_core::Value::Concrete(0))
    });
    let timestamp_allowed = delivered.iter().any(|p| {
        symnet_core::verify::allowed_values(
            p,
            &symnet_sefl::FieldRef::meta(opt_key(option_kind::TIMESTAMP)),
        )
        .is_some_and(|s| s.contains(1))
    });
    let combinations_allowed = delivered.iter().any(|p| {
        [
            option_kind::WSCALE,
            option_kind::SACK_OK,
            option_kind::TIMESTAMP,
        ]
        .iter()
        .all(|k| {
            symnet_core::verify::allowed_values(p, &symnet_sefl::FieldRef::meta(opt_key(*k)))
                .is_some_and(|s| s.contains(1))
        })
    });

    let row = |property: &str, klee: String, symnet: String| Row {
        cells: vec![property.to_string(), klee, symnet],
    };
    TableReport {
        title: "Table 4: Klee vs SymNet on the TCP-options firewall code".into(),
        headers: vec![
            "Property".into(),
            "Klee (classic symex)".into(),
            "SymNet (SEFL model)".into(),
        ],
        rows: vec![
            row(
                "Runtime",
                format!("{} ({}B options)", ms(klee_runtime), klee_length),
                ms(symnet_runtime),
            ),
            row(
                "Bounded execution",
                format!(
                    "proved up to {klee_length}B only ({} paths)",
                    klee_report.path_count()
                ),
                "by construction (model)".into(),
            ),
            row(
                "Memory safety",
                format!("proved up to {klee_length}B only"),
                "by construction (model)".into(),
            ),
            row(
                "Terminates within budget",
                if klee_terminates {
                    "yes".into()
                } else {
                    "no (budget exhausted)".into()
                },
                "yes".into(),
            ),
            row(
                "Timestamp allowed",
                "wrong on short fields (reported blocked)".into(),
                if timestamp_allowed {
                    "yes (correct)".into()
                } else {
                    "no".into()
                },
            ),
            row(
                "Multipath stripped",
                "unprovable on short fields".into(),
                if mptcp_stripped {
                    "yes (always)".into()
                } else {
                    "no".into()
                },
            ),
            row(
                "All allowed options simultaneously",
                "wrong (limited by options-field budget)".into(),
                if combinations_allowed {
                    "yes".into()
                } else {
                    "no".into()
                },
            ),
        ],
    }
}

// ---------------------------------------------------------------------------
// Table 5 — qualitative capability matrix (§9)
// ---------------------------------------------------------------------------

/// Table 5: the capability matrix. The SymNet column is probed against this
/// repository's engine (each "yes" corresponds to a test or example that
/// exercises it); the other columns restate the paper's qualitative claims.
pub fn table5() -> TableReport {
    let rows = vec![
        ("Reachability", "yes", "yes", "yes", "yes", "yes"),
        ("Invariants", "no", "yes", "yes", "yes", "yes"),
        ("Header visibility", "no", "yes", "yes", "yes", "yes"),
        ("Memory correctness", "no", "no", "no", "no", "yes"),
        ("Scalability", "high", "low", "med", "low", "high"),
        ("Model independence", "yes", "yes", "no", "yes", "yes"),
        ("IP router", "yes", "yes", "yes", "yes", "yes"),
        ("Dynamic tunneling", "no", "no", "no", "no", "yes"),
        ("TCP options", "no", "no", "yes", "no", "yes"),
        ("Dynamic NATs", "no", "no", "yes", "yes", "yes"),
        ("Encryption", "no", "no", "no", "no", "yes"),
        ("TCP segment splitting", "no", "no", "no", "no", "no"),
        ("IP fragmentation", "no", "no", "no", "no", "no"),
    ];
    TableReport {
        title: "Table 5: SymNet vs other network verification tools".into(),
        headers: vec![
            "Capability".into(),
            "HSA".into(),
            "AntEater".into(),
            "NOD".into(),
            "Panda".into(),
            "SymNet (this repo)".into(),
        ],
        rows: rows
            .into_iter()
            .map(|(c, a, b, n, p, s)| Row {
                cells: vec![c.into(), a.into(), b.into(), n.into(), p.into(), s.into()],
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// §8.4 and §8.5 functional evaluations
// ---------------------------------------------------------------------------

/// §8.4: the four Split-TCP findings as a printable report.
pub fn sec84() -> TableReport {
    use symnet_models::scenarios::{split_tcp, SplitTcpConfig};
    use symnet_sefl::fields::ip_length;

    let mut rows = Vec::new();
    let packet = symbolic_tcp_packet();

    // Asymmetric routing: every Internet-bound path crosses the proxy.
    let (net, topo) = split_tcp(SplitTcpConfig::default());
    let engine = SymNet::new(net);
    let report = engine.inject(topo.client, 0, &packet);
    let all_via_proxy = report
        .delivered_at(topo.internet, 0)
        .all(|p| p.ports_visited().iter().any(|port| port.starts_with("P:")));
    rows.push(Row {
        cells: vec![
            "Traffic symmetric through the proxy".into(),
            format!(
                "{} paths, all via P: {}",
                report.delivered_at(topo.internet, 0).count(),
                all_via_proxy
            ),
        ],
    });
    let mtu_plain = report
        .delivered_at(topo.internet, 0)
        .next()
        .and_then(|p| symnet_core::verify::allowed_values(p, &ip_length().field()))
        .and_then(|s| s.max());
    rows.push(Row {
        cells: vec![
            "MTU constraint without tunnel".into(),
            format!("IP length <= {:?}", mtu_plain),
        ],
    });

    // MTU with the IP-in-IP tunnel.
    let (net, topo) = split_tcp(SplitTcpConfig {
        tunnel_to_proxy: true,
        ..Default::default()
    });
    let engine = SymNet::new(net);
    let report = engine.inject(topo.client, 0, &packet);
    let mtu_tunnel = report
        .delivered_at(topo.internet, 0)
        .next()
        .and_then(|p| symnet_core::verify::allowed_values(p, &ip_length().field()))
        .and_then(|s| s.max());
    rows.push(Row {
        cells: vec![
            "MTU constraint with IP-in-IP tunnel".into(),
            format!("IP length <= {:?} (20 bytes lower)", mtu_tunnel),
        ],
    });

    // Missing VLAN tagging.
    let (net, topo) = split_tcp(SplitTcpConfig {
        vlan_stripping_bug: true,
        ..Default::default()
    });
    let engine = SymNet::new(net);
    let report = engine.inject(topo.client, 0, &packet);
    rows.push(Row {
        cells: vec![
            "Missing VLAN tagging at the proxy".into(),
            format!(
                "Internet reachable on {} paths (expected 0: blackhole)",
                report.delivered_at(topo.internet, 0).count()
            ),
        ],
    });

    // DHCP security appliance.
    let (net, topo) = split_tcp(SplitTcpConfig {
        dhcp_security_check: true,
        ..Default::default()
    });
    let engine = SymNet::new(net);
    let report = engine.inject(topo.client, 0, &packet);
    rows.push(Row {
        cells: vec![
            "DHCP lease check at R2".into(),
            format!(
                "Internet reachable on {} paths (expected 0: proxy rewrites the source MAC)",
                report.delivered_at(topo.internet, 0).count()
            ),
        ],
    });

    TableReport {
        title: "Section 8.4: Split-TCP middlebox deployment findings".into(),
        headers: vec!["Scenario".into(), "SymNet finding".into()],
        rows,
    }
}

/// §8.5: the department-network verification, scaled by `access_switches`,
/// `mac_entries` and `routes`.
pub fn sec85(access_switches: usize, mac_entries: usize, routes: usize) -> TableReport {
    use symnet_models::scenarios::{department, DepartmentConfig};
    let (net, topo) = department(DepartmentConfig {
        access_switches,
        mac_entries,
        routes,
    });
    let devices = net.element_count();
    let ports = net.port_count();
    let engine = SymNet::with_config(
        net,
        ExecConfig {
            max_hops: 32,
            ..ExecConfig::default()
        },
    );

    let mut rows = Vec::new();
    rows.push(Row {
        cells: vec![
            "Topology".into(),
            format!("{devices} devices, {ports} ports, {mac_entries} MAC entries, {routes} routes"),
        ],
    });

    // Office → Internet with a fully symbolic TCP packet.
    let pkt = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    let start = Instant::now();
    let report = engine.inject(topo.office_switch, 0, &pkt);
    let outbound_runtime = start.elapsed();
    let internet_paths = report.delivered_at(topo.internet, 0).count();
    let via_asa = report.delivered_at(topo.internet, 0).all(|p| {
        p.ports_visited()
            .iter()
            .any(|port| port.starts_with("ASA:"))
    });
    let mptcp_removed = report.delivered_at(topo.internet, 0).all(|p| {
        p.state
            .read_meta(&opt_key(option_kind::MPTCP))
            .map(|s| s.value)
            == Ok(symnet_core::Value::Concrete(0))
    });
    rows.push(Row {
        cells: vec![
            "Office → Internet".into(),
            format!(
                "{} paths ({} total), all via ASA: {}, MPTCP stripped: {}, {}",
                internet_paths,
                report.path_count(),
                via_asa,
                mptcp_removed,
                ms(outbound_runtime)
            ),
        ],
    });

    // Incremental-solver cache effectiveness on the outbound run. Which
    // layer answered is a measurement of this process's cache state, so
    // these counters are absent from serialized reports.
    let stats = &report.solver_stats;
    rows.push(Row {
        cells: vec![
            "Solver cache (outbound)".into(),
            format!(
                "{} calls, prefix cache {} hits / {} misses, content memo {} hits / {} misses",
                stats.calls,
                stats.prefix_hits,
                stats.prefix_misses,
                stats.content_hits,
                stats.content_misses
            ),
        ],
    });

    // Work-stealing scheduler counters for the same run (scheduling-dependent
    // and therefore absent from serialized reports — this table is where they
    // surface). Roots arrive through the shared injector, which neither
    // counter tracks, so even one worker does not count every pop.
    rows.push(Row {
        cells: vec![
            "Scheduler (outbound)".into(),
            format!(
                "{} local hits, {} steals, {} overflow pushes ({} workers)",
                report.sched.local_hits,
                report.sched.steals,
                report.sched.overflow_pushes,
                engine.config().threads
            ),
        ],
    });

    // Inbound scan from the exit router.
    let start = Instant::now();
    let inbound = engine.inject(topo.exit_router, 0, &symbolic_l3_tcp_packet());
    let inbound_runtime = start.elapsed();
    let leaked = inbound.delivered_at(topo.management, 0).count();
    let leak_bypasses_asa = inbound.delivered_at(topo.management, 0).all(|p| {
        !p.ports_visited()
            .iter()
            .any(|port| port.starts_with("ASA:"))
    });
    rows.push(Row {
        cells: vec![
            "Inbound scan".into(),
            format!(
                "{} paths total, management VLAN reachable on {} paths bypassing the ASA ({}), {}",
                inbound.path_count(),
                leaked,
                leak_bypasses_asa,
                ms(inbound_runtime)
            ),
        ],
    });

    TableReport {
        title: "Section 8.5: CS department network verification".into(),
        headers: vec!["Check".into(), "Result".into()],
        rows,
    }
}

/// The §8.5 department network rendered as a machine-readable JSON document:
/// the same outbound and inbound injections as [`sec85`], each rendered by
/// `write_report_json` one level deep, with the two timing fields zeroed so
/// repeated runs of the same binary produce byte-identical output.
///
/// This is the comparison form behind the `paper -- sec85 --report-json`
/// flag: a report serialises only what is a function of the queries asked
/// (paths, outcome counts), never which cache layer answered them, so this
/// JSON is byte-identical between a cold run and a warm-disk run — CI
/// asserts exactly that.
pub fn sec85_report_json(access_switches: usize, mac_entries: usize, routes: usize) -> String {
    use symnet_core::report::write_report_json;
    use symnet_models::scenarios::{department, DepartmentConfig};
    let (net, topo) = department(DepartmentConfig {
        access_switches,
        mac_entries,
        routes,
    });
    let engine = SymNet::with_config(
        net,
        ExecConfig {
            max_hops: 32,
            ..ExecConfig::default()
        },
    );
    let pkt = Instruction::block(vec![symbolic_tcp_packet(), symbolic_options_metadata()]);
    let mut outbound = engine.inject(topo.office_switch, 0, &pkt);
    let mut inbound = engine.inject(topo.exit_router, 0, &symbolic_l3_tcp_packet());
    for report in [&mut outbound, &mut inbound] {
        report.wall_time = Duration::ZERO;
        report.solver_stats.time_in_solver = Duration::ZERO;
    }
    let mut doc = String::from("{\n  \"outbound\": ");
    write_report_json(&mut doc, &outbound, engine.network(), 1);
    doc.push_str(",\n  \"inbound\": ");
    write_report_json(&mut doc, &inbound, engine.network(), 1);
    doc.push_str("\n}");
    doc
}

/// §8.3: the automated-testing bug catalogue.
pub fn sec83() -> TableReport {
    use symnet_models::click::{
        dec_ip_ttl, host_ether_filter, host_ether_filter_buggy, ip_mirror, ip_mirror_buggy,
    };
    use symnet_testgen::{
        reference_dec_ip_ttl, reference_host_ether_filter, reference_ip_mirror, test_element,
        TestgenConfig,
    };

    let run = |program: ElementProgram,
               packet: &Instruction,
               reference: &symnet_testgen::Reference<'_>| {
        let mut net = Network::new();
        let id = net.add_element(program);
        let engine = SymNet::new(net);
        test_element(&engine, id, packet, reference, TestgenConfig::default())
    };

    let symbolic_ether = symnet_sefl::packet::PacketBuilder::new()
        .ethernet(None)
        .ipv4(Some(symnet_sefl::fields::ipproto::TCP))
        .tcp()
        .build();
    let tcp = symbolic_tcp_packet();

    let cases: Vec<(&str, symnet_testgen::TestgenReport)> = vec![
        (
            "IPMirror (correct)",
            run(ip_mirror("m"), &tcp, &reference_ip_mirror),
        ),
        (
            "IPMirror (buggy: ports not mirrored)",
            run(ip_mirror_buggy("m"), &tcp, &reference_ip_mirror),
        ),
        (
            "DecIPTTL (correct)",
            run(dec_ip_ttl("t"), &tcp, &reference_dec_ip_ttl),
        ),
        (
            "HostEtherFilter (correct)",
            run(
                host_ether_filter("f", 0xaa),
                &symbolic_ether,
                &reference_host_ether_filter(0xaa),
            ),
        ),
        (
            "HostEtherFilter (buggy: checks EtherType)",
            run(
                host_ether_filter_buggy("f", 0xaa),
                &symbolic_ether,
                &reference_host_ether_filter(0xaa),
            ),
        ),
    ];
    TableReport {
        title: "Section 8.3: automated testing of models against reference implementations".into(),
        headers: vec!["Model".into(), "Test cases".into(), "Mismatches".into()],
        rows: cases
            .into_iter()
            .map(|(name, report)| Row {
                cells: vec![
                    name.into(),
                    (report.cases_from_paths + report.random_cases).to_string(),
                    report.mismatches.len().to_string(),
                ],
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// serve — resident-service demo (scripted delta stream)
// ---------------------------------------------------------------------------

/// Runs the resident verification service against a scripted delta stream on
/// the `delta_fanout` topology: one standing query, a sequence of MAC
/// learn/age events of varying blast radius, and — per event — the
/// incremental re-verification next to a from-scratch baseline over the same
/// updated snapshot. The `identical` column asserts the two canonical
/// reports byte-for-byte; `kept`/`re-explored` show how much of the path
/// tree the service reused.
pub fn serve(leaves: usize, macs_per_leaf: usize) -> TableReport {
    use symnet_core::report::canonical_report_json_string;
    use symnet_core::VerifyService;
    use symnet_models::delta::Delta;
    use symnet_models::scenarios::{delta_fanout, fanout_mac};

    let fanout = delta_fanout(leaves, macs_per_leaf);
    let mut tables = fanout.tables;
    let mut service = VerifyService::new(fanout.network, ExecConfig::default());
    let query = service.add_query("fanout", fanout.access, 0, symbolic_tcp_packet());

    let start = Instant::now();
    let first = service.verify(query).expect("initial verification");
    let first_time = start.elapsed();

    // The scripted stream: a station joins behind leaf 0, another joins
    // behind the last leaf, the first roams to leaf 1 (age + learn), then
    // ages out entirely; finally the root itself learns a MAC — the
    // worst-case delta every path traverses.
    let last = leaves - 1;
    let station_a = fanout_mac(leaves + 1, 0);
    let station_b = fanout_mac(leaves + 2, 0);
    let stream: Vec<(&str, Vec<Delta>)> = vec![
        (
            "learn A @ leaf0",
            vec![Delta::MacLearn {
                element: fanout.leaves[0],
                mac: station_a,
                vlan: None,
                port: 0,
            }],
        ),
        (
            "learn B @ last leaf",
            vec![Delta::MacLearn {
                element: fanout.leaves[last],
                mac: station_b,
                vlan: None,
                port: macs_per_leaf - 1,
            }],
        ),
        (
            "A roams leaf0→leaf1",
            vec![
                Delta::MacAge {
                    element: fanout.leaves[0],
                    mac: station_a,
                    vlan: None,
                },
                Delta::MacLearn {
                    element: fanout.leaves[1],
                    mac: station_a,
                    vlan: None,
                    port: 0,
                },
            ],
        ),
        (
            "A ages out",
            vec![Delta::MacAge {
                element: fanout.leaves[1],
                mac: station_a,
                vlan: None,
            }],
        ),
        (
            "root learns B",
            vec![Delta::MacLearn {
                element: fanout.root,
                mac: station_b,
                vlan: None,
                port: last,
            }],
        ),
    ];

    let mut rows = vec![Row {
        cells: vec![
            "initial".into(),
            "-".into(),
            "0".into(),
            first.stats.reexplored_paths.to_string(),
            first.report.delivered().count().to_string(),
            ms(first_time),
            "-".into(),
            "-".into(),
        ],
    }];
    for (label, deltas) in stream {
        for delta in &deltas {
            tables
                .apply(&mut service, delta)
                .expect("delta applies")
                .expect("every scripted delta changes its table");
        }
        let start = Instant::now();
        let incremental = service.verify(query).expect("re-verify");
        let incremental_time = start.elapsed();
        let start = Instant::now();
        let scratch = service
            .snapshot()
            .try_inject(fanout.access, 0, &symbolic_tcp_packet())
            .expect("from-scratch inject");
        let scratch_time = start.elapsed();
        let identical = canonical_report_json_string(&incremental.report, service.network())
            == canonical_report_json_string(&scratch, service.network());
        assert!(identical, "incremental diverged from from-scratch: {label}");
        rows.push(Row {
            cells: vec![
                label.into(),
                deltas.len().to_string(),
                incremental.stats.kept_paths.to_string(),
                incremental.stats.reexplored_paths.to_string(),
                incremental.report.delivered().count().to_string(),
                ms(incremental_time),
                ms(scratch_time),
                if identical { "yes" } else { "NO" }.into(),
            ],
        });
    }

    TableReport {
        title: format!("serve — resident service, {leaves}-leaf fan-out, scripted delta stream"),
        headers: [
            "event",
            "deltas",
            "kept",
            "re-explored",
            "delivered",
            "incremental",
            "from-scratch",
            "identical",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// serve --clients — closed-loop concurrent serving load
// ---------------------------------------------------------------------------

/// Latency distribution of one closed-loop serving run.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Nearest-rank median.
    pub median: Duration,
    /// Nearest-rank 99th percentile.
    pub p99: Duration,
}

/// Sorts the sample and computes mean/median/p99 (nearest-rank).
pub fn summarize_latencies(latencies: &mut [Duration]) -> LatencySummary {
    latencies.sort();
    let percentile = |p: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((latencies.len() as f64) * p).ceil() as usize;
        latencies[rank.saturating_sub(1).min(latencies.len() - 1)]
    };
    let mean = if latencies.is_empty() {
        Duration::ZERO
    } else {
        latencies.iter().sum::<Duration>() / latencies.len() as u32
    };
    LatencySummary {
        mean,
        median: percentile(0.50),
        p99: percentile(0.99),
    }
}

/// One closed-loop round: `clients` threads each submit `per_client`
/// verification queries back-to-back (waiting for every reply before the next
/// submission, briefly backing off when admission pushes back). Returns the
/// per-query wall latencies (admission to finalization) of every client.
pub fn closed_loop(
    handle: &symnet_core::ServeHandle,
    access: symnet_core::network::ElementId,
    clients: usize,
    per_client: usize,
) -> Vec<Duration> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        loop {
                            match handle.verify(access, 0, symbolic_tcp_packet()) {
                                Ok(ticket) => {
                                    let served = ticket.wait().expect("query completes");
                                    latencies.push(served.wall);
                                    break;
                                }
                                Err(_) => std::thread::sleep(Duration::from_micros(100)),
                            }
                        }
                    }
                    latencies
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    })
}

/// Closed-loop load test of the concurrent serving subsystem, sweeping client
/// counts with and without a concurrent delta stream.
///
/// Per row: a fresh [`SymNetServer`](symnet_core::SymNetServer) over the
/// `delta_fanout` topology, `clients` closed-loop clients submitting
/// `per_client` queries each, and — in the delta rows — a publisher thread
/// driving a station join/leave loop through
/// [`apply_delta`](symnet_core::ServeHandle::apply_delta), so every few
/// queries land on a fresh epoch. Reported: total queries, throughput and the
/// wall-latency mean/median/p99 (queueing included).
pub fn serve_concurrent(
    clients_sweep: &[usize],
    per_client: usize,
    leaves: usize,
    macs_per_leaf: usize,
) -> TableReport {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use symnet_core::{ServerConfig, SymNetServer};
    use symnet_models::delta::Delta;
    use symnet_models::scenarios::{delta_fanout, fanout_mac};

    let mut rows = Vec::new();
    for &clients in clients_sweep {
        for with_deltas in [false, true] {
            let fanout = delta_fanout(leaves, macs_per_leaf);
            let mut tables = fanout.tables;
            let access = fanout.access;
            let server = SymNetServer::start(
                fanout.network,
                ServerConfig::default().with_capacity(2 * clients + 8),
            );
            let handle = server.handle();
            let stop = Arc::new(AtomicBool::new(false));

            // The delta stream: a station joins and leaves leaf 0 in a loop,
            // publishing a new epoch per event. In-flight queries keep their
            // pinned snapshot; the next admission sees the new epoch.
            let publisher = with_deltas.then(|| {
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                let leaf = fanout.leaves[0];
                let station = fanout_mac(leaves + 7, 0);
                std::thread::spawn(move || {
                    let mut published = 0u64;
                    let mut joined = false;
                    while !stop.load(Ordering::Relaxed) {
                        let delta = if joined {
                            Delta::MacAge {
                                element: leaf,
                                mac: station,
                                vlan: None,
                            }
                        } else {
                            Delta::MacLearn {
                                element: leaf,
                                mac: station,
                                vlan: None,
                                port: 0,
                            }
                        };
                        joined = !joined;
                        let submitted = tables
                            .apply_with(&delta, |element, program| {
                                handle.apply_delta(element, program)
                            })
                            .expect("join/leave deltas always change the table")
                            .expect("join/leave deltas always change the table");
                        match submitted.map(|ticket| ticket.wait()) {
                            Ok(Ok(_)) => published += 1,
                            _ => break, // overloaded or shutting down
                        }
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    published
                })
            });

            let start = Instant::now();
            let mut latencies = closed_loop(&handle, access, clients, per_client);
            let elapsed = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            let published = publisher
                .map(|p| p.join().expect("delta publisher"))
                .unwrap_or(0);
            server.shutdown();

            let summary = summarize_latencies(&mut latencies);
            let throughput = latencies.len() as f64 / elapsed.as_secs_f64();
            rows.push(Row {
                cells: vec![
                    clients.to_string(),
                    published.to_string(),
                    latencies.len().to_string(),
                    format!("{throughput:.1}"),
                    ms(summary.mean),
                    ms(summary.median),
                    ms(summary.p99),
                ],
            });
        }
    }

    TableReport {
        title: format!(
            "serve --clients: closed-loop concurrent serving, {leaves}-leaf fan-out, {per_client} queries/client"
        ),
        headers: ["clients", "deltas", "queries", "q/s", "mean", "median", "p99"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let t = TableReport {
            title: "t".into(),
            headers: vec!["a".into(), "bbbb".into()],
            rows: vec![Row {
                cells: vec!["xxxxx".into(), "y".into()],
            }],
        };
        let text = t.render();
        assert!(text.contains("== t =="));
        assert!(text.contains("xxxxx"));
    }

    #[test]
    fn table1_shape_is_exponential() {
        let data = table1_data(3, 100_000);
        assert_eq!(data.len(), 3);
        assert!(data[1].1 > data[0].1);
        assert!(data[2].1 > data[1].1);
    }

    #[test]
    fn fig8_egress_beats_ingress_and_basic() {
        let basic = measure_switch("basic", 300, 20);
        let ingress = measure_switch("ingress", 300, 20);
        let egress = measure_switch("egress", 300, 20);
        // Path counts: basic = entries, grouped models = ports.
        assert_eq!(basic.paths, 300);
        assert_eq!(ingress.paths, 20);
        assert_eq!(egress.paths, 20);
        // Constraint totals: egress is linear in the entries, ingress is not.
        assert!(egress.constraint_atoms <= 300);
        assert!(ingress.constraint_atoms > egress.constraint_atoms);
    }

    #[test]
    fn table2_models_agree_on_path_counts() {
        let fib = Fib::synthetic(200, 8);
        let e = measure_router("egress", &fib, 200);
        let i = measure_router("ingress", &fib, 200);
        assert_eq!(e.paths, i.paths);
        assert!(e.paths <= 8);
    }

    #[test]
    fn table5_matches_paper_claims_for_symnet() {
        let t = table5();
        // SymNet supports everything except splitting/fragmentation.
        for row in &t.rows {
            let capability = &row.cells[0];
            let symnet = &row.cells[5];
            if capability.contains("splitting") || capability.contains("fragmentation") {
                assert_eq!(symnet, "no");
            }
        }
    }
}
