//! The five workloads: what each is built from, how it is run, and why.

use crate::adapter::{
    delta_fanout, ether_dst, fanout_mac, ip_dst, parse_fib, parse_mac_table, program_instrs,
    router_egress, switch_basic, switch_egress, symbolic_l3_tcp_packet, symbolic_tcp_packet, Delta,
    ElementId, FieldRef, Instruction, Network, RouterModel, RuleTables, SwitchModel,
};
use crate::gen;
use crate::oracle::Truth;
use std::time::Instant;

/// How a workload is run. Op counts are per run at [`RUN_SECONDS`] and scale
/// linearly with `--seconds`; they are fixed rather than timed so that two
/// commits do the same work and every counter repeats exactly.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Clear the process-wide solver memos before each one-shot operation.
    pub cold: bool,
    /// One-shot operations: inject, answer the queries, render the report.
    pub inject_ops: usize,
    /// Resident-service operations: apply one delta, re-verify.
    pub reverify_ops: usize,
    /// Served queries per client (two closed-loop clients).
    pub queries_per_client: usize,
    build: fn(u64) -> Scenario,
}

/// The `--seconds` value the op counts below are sized for.
pub const RUN_SECONDS: u64 = 12;

/// A delta is published after every this many queries of client 0.
pub const QUERIES_PER_DELTA: usize = 8;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "router_lpm_cold",
        why: "one-shot CLI user on a 10k-prefix router: solver normalisation and solve_cubes do nearly all the work, memos cold",
        cold: true,
        inject_ops: 24,
        reverify_ops: 8,
        queries_per_client: 24,
        build: router,
    },
    Workload {
        name: "tree_fork_warm",
        why: "32-switch tree with warm memos: the solver only looks up, SEFL interpretation, state forking and PathCond extension do the work",
        cold: false,
        inject_ops: 100,
        reverify_ops: 1200,
        queries_per_client: 80,
        build: tree,
    },
    Workload {
        name: "switch_report",
        why: "basic switch with 1000 MACs: 1001 long paths, so rendering the JSON report dwarfs the exploration",
        cold: true,
        inject_ops: 12,
        reverify_ops: 240,
        queries_per_client: 48,
        build: basic_switch,
    },
    Workload {
        name: "fanout_reverify",
        why: "128-leaf fan-out in the resident service: each delta invalidates 1/128 of 4096 paths, isolating suffix re-verification",
        cold: false,
        inject_ops: 24,
        reverify_ops: 6000,
        queries_per_client: 24,
        build: fanout_large,
    },
    Workload {
        name: "serve_churn",
        why: "two closed-loop clients on a one-worker server with a delta every 8th query: admission, epoch pinning, queue wait",
        cold: false,
        inject_ops: 60,
        reverify_ops: 2000,
        queries_per_client: 3000,
        build: fanout_small,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generates the seeded inputs and builds the scenario from them.
    pub fn build(&self, seed: u64) -> Scenario {
        (self.build)(seed)
    }
}

/// Where set-up time goes, by layer.
#[derive(Clone, Copy, Default)]
pub struct BuildCost {
    pub parse_ms: f64,
    pub compile_ms: f64,
    pub program_instrs: usize,
}

/// Which delta the `i`-th operation publishes.
#[derive(Clone)]
pub enum DeltaPlan {
    /// A never-seen /24 per announcement, each withdrawn two operations
    /// later: the table stays within two routes of its base size and every
    /// state is new to the memos (a route the solver has seen before would be
    /// answered from them, making every other operation twenty times cheaper
    /// and the median meaningless).
    Routes { router: ElementId, spare: Vec<u32> },
    /// One station learned and aged out, alternately, at one switch after
    /// another in seeded order.
    Station {
        hosts: Vec<ElementId>,
        order: Vec<usize>,
        mac: u64,
    },
}

impl DeltaPlan {
    /// The plan for a second deployment in the same process: announcements
    /// draw on the other half of the spare routes, so that what the first
    /// deployment's deltas left in the process-wide memos does not answer the
    /// second's.
    pub fn second_deployment(mut self) -> DeltaPlan {
        if let DeltaPlan::Routes { spare, .. } = &mut self {
            let half = spare.len() / 2;
            spare.rotate_left(half);
        }
        self
    }

    pub fn delta(&self, i: usize) -> Delta {
        match self {
            DeltaPlan::Routes { router, spare } => {
                let announce = |k: usize| Delta::RouteAdd {
                    element: *router,
                    prefix: spare[k % spare.len()],
                    prefix_len: 24,
                    port: k % (gen::ROUTER_PORTS - 1),
                };
                match i {
                    0 => announce(0),
                    i if i % 2 == 1 => announce(i.div_ceil(2)),
                    i => Delta::RouteWithdraw {
                        element: *router,
                        prefix: spare[(i / 2 - 1) % spare.len()],
                        prefix_len: 24,
                    },
                }
            }
            DeltaPlan::Station { hosts, order, mac } => {
                let element = hosts[order[(i / 2) % order.len()]];
                if i.is_multiple_of(2) {
                    Delta::MacLearn {
                        element,
                        mac: *mac,
                        vlan: None,
                        port: 0,
                    }
                } else {
                    Delta::MacAge {
                        element,
                        mac: *mac,
                        vlan: None,
                    }
                }
            }
        }
    }

    /// The address a delta is about: a probe worth checking after it.
    pub fn address(delta: &Delta) -> u64 {
        match delta {
            Delta::RouteAdd { prefix, .. } | Delta::RouteWithdraw { prefix, .. } => {
                *prefix as u64 | 1
            }
            Delta::MacLearn { mac, .. } | Delta::MacAge { mac, .. } => *mac,
            other => panic!("the benchmark publishes no {other:?}"),
        }
    }
}

/// One built workload input: the network the program runs on, and everything
/// the benchmark knows about it from the generator's side.
pub struct Scenario {
    pub network: Network,
    pub tables: RuleTables,
    pub inject_at: ElementId,
    pub packet: Instruction,
    /// The header field the tables match on and the probes are values of.
    pub field: FieldRef,
    pub max_hops: usize,
    pub truth: Truth,
    pub probes: Vec<u64>,
    pub plan: DeltaPlan,
    pub cost: BuildCost,
}

/// Probed addresses per report.
const PROBES: usize = 200;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn router(seed: u64) -> Scenario {
    let text = gen::fib(seed, 10_000, 256);
    let t = Instant::now();
    let fib = parse_fib(&text.text).expect("generated FIB parses");
    let parse_ms = ms_since(t);
    let t = Instant::now();
    let program = router_egress("router", &fib);
    let compile_ms = ms_since(t);
    let instrs = program_instrs(&program);
    let mut network = Network::new();
    let router = network.add_element(program);
    let mut tables = RuleTables::new();
    tables.register_router(router, "router", fib, RouterModel::Egress);
    let known: Vec<u64> = text.entries.iter().map(|r| r.prefix as u64 | 1).collect();
    Scenario {
        network,
        tables,
        inject_at: router,
        packet: symbolic_l3_tcp_packet(),
        field: ip_dst(),
        max_hops: 64,
        truth: Truth::Lpm {
            element: router,
            routes: text.entries,
        },
        probes: gen::probes(seed, PROBES, 32, &known),
        plan: DeltaPlan::Routes {
            router,
            spare: text.spare,
        },
        cost: BuildCost {
            parse_ms,
            compile_ms,
            program_instrs: instrs,
        },
    }
}

fn basic_switch(seed: u64) -> Scenario {
    let (text, station) = gen::mac_table(seed, 1000, 20);
    let t = Instant::now();
    let table = parse_mac_table(&text.text).expect("generated MAC table parses");
    let parse_ms = ms_since(t);
    let t = Instant::now();
    let program = switch_basic("switch", &table);
    let compile_ms = ms_since(t);
    let instrs = program_instrs(&program);
    let mut network = Network::new();
    let switch = network.add_element(program);
    let mut tables = RuleTables::new();
    tables.register_switch(switch, "switch", table, SwitchModel::Basic);
    let known: Vec<u64> = text.entries.iter().map(|s| s.mac).collect();
    Scenario {
        network,
        tables,
        inject_at: switch,
        packet: symbolic_tcp_packet(),
        field: ether_dst(),
        max_hops: 64,
        truth: Truth::Mac {
            element: switch,
            stations: text.entries,
        },
        probes: gen::probes(seed, PROBES, 48, &known),
        plan: DeltaPlan::Station {
            hosts: vec![switch],
            order: vec![0],
            mac: station,
        },
        cost: BuildCost {
            parse_ms,
            compile_ms,
            program_instrs: instrs,
        },
    }
}

fn tree(seed: u64) -> Scenario {
    let text = gen::switch_tree(seed, 32, 512);
    let mut cost = BuildCost::default();
    let mut network = Network::new();
    let mut tables = RuleTables::new();
    let mut ids = Vec::new();
    for (s, table_text) in text.tables.iter().enumerate() {
        let name = format!("sw{s}");
        let t = Instant::now();
        let table = parse_mac_table(&table_text.text).expect("generated MAC table parses");
        cost.parse_ms += ms_since(t);
        let t = Instant::now();
        let program = switch_egress(&name, &table);
        cost.compile_ms += ms_since(t);
        cost.program_instrs += program_instrs(&program);
        let id = network.add_element(program);
        tables.register_switch(id, &name, table, SwitchModel::Egress);
        ids.push(id);
    }
    for &(from, out, to, input) in &text.links {
        network.add_link(ids[from], out, ids[to], input);
    }
    Scenario {
        network,
        tables,
        inject_at: ids[0],
        packet: symbolic_tcp_packet(),
        field: ether_dst(),
        max_hops: 24,
        // Filled in by set-up, once the concrete replay has vouched for a report.
        truth: Truth::Replayed {
            delivered: 0,
            digest: 0,
        },
        probes: Vec::new(),
        plan: DeltaPlan::Station {
            order: gen::permutation(seed, text.reachable.len()),
            hosts: text.reachable.iter().map(|&s| ids[s]).collect(),
            mac: text.station,
        },
        cost,
    }
}

/// `delta_fanout` comes ready-made from the library (its tables are a fixed
/// function of leaf and slot), so here the seed drives only the delta order.
fn fanout(seed: u64, leaves: usize, macs_per_leaf: usize) -> Scenario {
    let t = Instant::now();
    let built = delta_fanout(leaves, macs_per_leaf);
    let compile_ms = ms_since(t);
    let instrs = built
        .network
        .elements()
        .map(|(_, program)| program_instrs(program))
        .sum();
    Scenario {
        network: built.network,
        tables: built.tables,
        inject_at: built.access,
        packet: symbolic_tcp_packet(),
        field: ether_dst(),
        max_hops: 64,
        truth: Truth::Fanout {
            leaves: built.leaves.clone(),
            macs_per_leaf,
        },
        // Sampled leaves' addresses; the full set is checked once in set-up.
        probes: gen::permutation(seed, leaves)
            .into_iter()
            .take(8)
            .map(|leaf| fanout_mac(leaf, leaf % macs_per_leaf))
            .collect(),
        plan: DeltaPlan::Station {
            order: gen::permutation(seed, leaves),
            hosts: built.leaves,
            mac: fanout_mac(leaves + 1, 0),
        },
        cost: BuildCost {
            parse_ms: 0.0,
            compile_ms,
            program_instrs: instrs,
        },
    }
}

fn fanout_large(seed: u64) -> Scenario {
    fanout(seed, 128, 32)
}

fn fanout_small(seed: u64) -> Scenario {
    fanout(seed, 32, 16)
}
