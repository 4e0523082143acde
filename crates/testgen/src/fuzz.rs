//! Seeded differential fuzzing: mutated scenarios, a symbolic-vs-concrete
//! oracle, and minimized failure reports.
//!
//! One fuzz *case* is a pure function of `(generator, case_seed)`:
//!
//! 1. a [`GeneratorKind`] builds a [`FuzzScenario`] — a network, an identical
//!    reference twin and the registered rule tables;
//! 2. a seeded mutation layer perturbs the scenario through the typed
//!    [`Delta`] vocabulary (MAC learn/age, route add/withdraw, NAT rebinds,
//!    positional ACL inserts/removes), semantics-preserving table shuffles
//!    and link rewires — every mutation is published into **both** networks,
//!    so they stay behaviorally identical;
//! 3. the differential oracle symbolically explores the mutated network,
//!    concretizes every delivered path with the solver model, replays the
//!    concrete packet through the reference network's element programs
//!    ([`crate::replay`]) and demands that some replayed copy arrives at the
//!    same element/port with the same tracked header fields.
//!
//! Any divergence produces a [`FuzzFailure`] carrying the case seed (rerunning
//! [`run_case`] with it reproduces the failure exactly), the campaign seed and
//! case index when it came from [`run_fuzz`] (see [`campaign_case`]), and a
//! greedily minimized mutation list. The [`canary_scenario`] plants a real
//! off-by-one in a TTL-decrement model to prove the oracle catches genuine
//! model bugs.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symnet_core::engine::{ExecConfig, PathStatus, SymNet};
use symnet_core::network::{ElementId, Network};
use symnet_models::acl::{AclAction, AclRule};
use symnet_models::delta::{Delta, RuleTables, TableView};
use symnet_models::nat::NatConfig;
use symnet_models::router::{router_egress_with_ttl, Fib};
use symnet_sefl::fields::ip_ttl;
use symnet_sefl::packet::symbolic_l3_tcp_packet;
use symnet_sefl::{Condition, ElementProgram, Expr, Instruction};
use symnet_solver::{Solver, SolverResult};

use crate::generators::{FuzzScenario, GeneratorConfig, GeneratorKind};
use crate::replay::{concretize_exec_state, replay_network};
use crate::{concretize_state, ConcretePacket};

/// One perturbation of a scenario. Applied to the network under test *and*
/// its reference twin, so a mutation never explains a differential failure by
/// itself — only a model/engine bug can.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// A typed control-plane event routed through [`RuleTables::apply_with`].
    Delta(Delta),
    /// A semantics-preserving seeded permutation of an element's table
    /// entries (recompiles the program with a different syntactic shape).
    ShuffleTable {
        /// The element whose table is permuted.
        element: ElementId,
        /// Shuffle seed.
        seed: u64,
    },
    /// Swaps the destinations of two links (a seeded mis-cabling).
    RewireSwap {
        /// First link, as `(element, output port)`.
        a: (ElementId, usize),
        /// Second link, as `(element, output port)`.
        b: (ElementId, usize),
    },
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::Delta(delta) => write!(f, "{delta:?}"),
            Mutation::ShuffleTable { element, seed } => {
                write!(f, "ShuffleTable {{ element: {element}, seed: {seed:#x} }}")
            }
            Mutation::RewireSwap { a, b } => {
                write!(f, "RewireSwap {{ {}#{} <-> {}#{} }}", a.0, a.1, b.0, b.1)
            }
        }
    }
}

/// Campaign configuration.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Campaign seed; every case seed derives from it.
    pub seed: u64,
    /// Number of mutated scenarios to run (rotating over
    /// [`GeneratorKind::ALL`]).
    pub iters: usize,
    /// Sizing knobs passed to every generator (its `seed` field is replaced
    /// by the per-case seed).
    pub generator: GeneratorConfig,
    /// Maximum mutations drawn per case (the actual count is seeded in
    /// `0..=max_mutations`).
    pub max_mutations: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x5EF1_D1FF,
            iters: 50,
            generator: GeneratorConfig::default(),
            max_mutations: 3,
        }
    }
}

/// A reproducible differential failure.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Generator family name.
    pub generator: &'static str,
    /// The case seed: `run_case(kind, case_seed, &config)` reproduces the
    /// failure deterministically.
    pub case_seed: u64,
    /// `(campaign seed, case index)` when the case ran inside [`run_fuzz`]:
    /// [`campaign_case`] maps it back to `(kind, case_seed)`. `None` for a
    /// case run on its own.
    pub campaign: Option<(u64, usize)>,
    /// Every mutation the failing case applied, rendered for the report.
    pub mutations: Vec<String>,
    /// The greedily minimized subset of mutations that still fails (empty if
    /// the unmutated scenario already diverges — a pure model/engine bug).
    pub minimized: Vec<String>,
    /// What diverged.
    pub detail: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential failure in {} (case seed {:#x}):",
            self.generator, self.case_seed
        )?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  mutations applied: {}", self.mutations.len())?;
        for m in &self.mutations {
            writeln!(f, "    {m}")?;
        }
        writeln!(f, "  minimized to: {}", self.minimized.len())?;
        for m in &self.minimized {
            writeln!(f, "    {m}")?;
        }
        match self.campaign {
            // The campaign's last case is the failing one.
            Some((seed, index)) => write!(
                f,
                "  reproduce with: paper -- fuzz --seed {seed:#x} --iters {} \
                 (case {index}, {} family, case seed {:#x})",
                index + 1,
                self.generator,
                self.case_seed
            ),
            None => write!(
                f,
                "  reproduce with: the {} scenario at case seed {:#x}",
                self.generator, self.case_seed
            ),
        }
    }
}

/// Summary of one fuzz campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Scenarios executed.
    pub cases: usize,
    /// Delivered symbolic paths that were concretized and replayed.
    pub paths_checked: usize,
    /// Mutations that actually changed a scenario (no-op deltas excluded).
    pub mutations_applied: usize,
    /// Cases per generator family.
    pub per_generator: BTreeMap<&'static str, usize>,
    /// Every differential failure, already minimized.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True if every case agreed symbolically and concretely.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The outcome of one fuzz case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Delivered paths checked against the replay.
    pub paths_checked: usize,
    /// Mutations that changed the scenario.
    pub mutations_applied: usize,
    /// The divergence, if the case failed.
    pub failure: Option<FuzzFailure>,
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Case `index` of a campaign seeded with `seed`: the generator family (the
/// campaign rotates over [`GeneratorKind::ALL`]) and the case seed it hands to
/// [`run_case`]. A campaign run with `iters = index + 1` ends on this case.
pub fn campaign_case(seed: u64, index: usize) -> (GeneratorKind, u64) {
    let kind = GeneratorKind::ALL[index % GeneratorKind::ALL.len()];
    let case_seed = splitmix64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (kind, case_seed)
}

/// Draws a seeded mutation batch against a pristine scenario. Purely a
/// function of the RNG state and the scenario, so minimization can rebuild
/// the scenario and re-apply any subset.
fn generate_mutations(scenario: &FuzzScenario, rng: &mut StdRng, max: usize) -> Vec<Mutation> {
    let registered: Vec<ElementId> = scenario.tables.registered().map(|(id, _, _)| id).collect();
    let links: Vec<(ElementId, usize)> = scenario.network.links().map(|(from, _)| from).collect();
    let count = rng.gen_range(0..max + 1);
    let mut mutations = Vec::with_capacity(count);
    for _ in 0..count {
        // Rewires are rarer than typed deltas (they reshape the topology
        // wholesale); table-less scenarios fall back to rewires entirely.
        let want_rewire =
            links.len() >= 2 && (registered.is_empty() || rng.gen_range(0..4u32) == 0);
        if want_rewire {
            let i = rng.gen_range(0..links.len());
            let j = rng.gen_range(0..links.len());
            if i != j {
                mutations.push(Mutation::RewireSwap {
                    a: links[i],
                    b: links[j],
                });
            }
            continue;
        }
        if registered.is_empty() {
            continue;
        }
        let element = registered[rng.gen_range(0..registered.len())];
        if rng.gen_range(0..5u32) == 0 {
            mutations.push(Mutation::ShuffleTable {
                element,
                seed: rng.gen(),
            });
            continue;
        }
        let Some(view) = scenario.tables.view(element) else {
            continue;
        };
        let delta = match view {
            TableView::Switch(table) => {
                if !table.entries.is_empty() && rng.gen::<bool>() {
                    let entry = &table.entries[rng.gen_range(0..table.entries.len())];
                    Delta::MacAge {
                        element,
                        mac: entry.mac,
                        vlan: entry.vlan,
                    }
                } else {
                    Delta::MacLearn {
                        element,
                        mac: rng.gen::<u64>() & 0xffff_ffff_ffff,
                        vlan: None,
                        port: rng.gen_range(0..table.port_count.max(1)),
                    }
                }
            }
            TableView::Router(fib) => {
                if !fib.entries.is_empty() && rng.gen::<bool>() {
                    let entry = &fib.entries[rng.gen_range(0..fib.entries.len())];
                    Delta::RouteWithdraw {
                        element,
                        prefix: entry.prefix,
                        prefix_len: entry.prefix_len,
                    }
                } else {
                    let wide = rng.gen::<bool>();
                    Delta::RouteAdd {
                        element,
                        prefix: rng.gen::<u32>() & if wide { 0xffff_0000 } else { 0xffff_ff00 },
                        prefix_len: if wide { 16 } else { 24 },
                        port: rng.gen_range(0..fib.port_count.max(1)),
                    }
                }
            }
            TableView::Nat(config) => Delta::NatRebind {
                element,
                config: NatConfig {
                    public_ip: config.public_ip ^ (1 + rng.gen::<u32>() % 255),
                    port_low: 1024 + rng.gen::<u16>() % 4096,
                    port_high: 50_000 + rng.gen::<u16>() % 15_000,
                },
            },
            TableView::Acl(table) => {
                if !table.rules.is_empty() && rng.gen::<bool>() {
                    Delta::AclRemove {
                        element,
                        index: rng.gen_range(0..table.rules.len()),
                    }
                } else {
                    // A positional insert anywhere in the list (including one
                    // past the end) — a deny landing above a permit shadows
                    // it, which is the shadowing semantics the replay oracle
                    // must reproduce.
                    let h = rng.gen::<u64>();
                    Delta::AclInsert {
                        element,
                        index: rng.gen_range(0..table.rules.len() + 1),
                        rule: AclRule {
                            src: (h & 1 != 0).then_some(((h >> 8) as u32 & 0xffff_0000, 16)),
                            dst: (h & 2 != 0)
                                .then_some((0x0a00_0000 | ((h >> 24) as u32 & 0x00ff_ff00), 24)),
                            proto: (h & 4 != 0).then_some(6),
                            dst_port: (h & 8 != 0).then_some((h >> 40) & 0xffff),
                            action: if h & 16 != 0 {
                                AclAction::Deny
                            } else {
                                AclAction::Permit
                            },
                        },
                    }
                }
            }
        };
        mutations.push(Mutation::Delta(delta));
    }
    mutations
}

/// Applies one mutation to both networks of a scenario. Returns `true` if the
/// scenario actually changed (no-op deltas and unluckily-identical shuffles
/// return `false`).
pub fn apply_mutation(scenario: &mut FuzzScenario, mutation: &Mutation) -> bool {
    let FuzzScenario {
        network,
        reference,
        tables,
        ..
    } = scenario;
    match mutation {
        Mutation::Delta(delta) => tables
            .apply_with(delta, |element, program| {
                network.replace_element(element, program.clone());
                reference.replace_element(element, program);
            })
            .map(|published| published.is_some())
            .unwrap_or(false),
        Mutation::ShuffleTable { element, seed } => tables
            .shuffle_with(*element, *seed, |element, program| {
                network.replace_element(element, program.clone());
                reference.replace_element(element, program);
            })
            .map(|published| published.is_some())
            .unwrap_or(false),
        Mutation::RewireSwap { a, b } => {
            if a == b {
                return false;
            }
            let (Some(dest_a), Some(dest_b)) =
                (network.link_from(a.0, a.1), network.link_from(b.0, b.1))
            else {
                return false;
            };
            if dest_a == dest_b {
                return false;
            }
            for net in [&mut *network, &mut *reference] {
                net.rewire_link(a.0, a.1, dest_b.0, dest_b.1);
                net.rewire_link(b.0, b.1, dest_a.0, dest_a.1);
            }
            true
        }
    }
}

/// True if every field present in *both* packets has the same value (the
/// replay may track fields a symbolic path left unallocated, and vice versa).
fn packets_agree(expected: &ConcretePacket, observed: &ConcretePacket) -> Option<String> {
    for (name, expected_value) in &expected.fields {
        if let Some(observed_value) = observed.fields.get(name) {
            if observed_value != expected_value {
                return Some(format!(
                    "{name}: symbolic path says {expected_value:#x}, replay says {observed_value:#x}"
                ));
            }
        }
    }
    None
}

/// The differential oracle: explores `scenario.network` symbolically, then
/// concretizes and replays every delivered path through
/// `scenario.reference`. `Ok(paths_checked)` or the first divergence.
pub fn check_scenario(scenario: &FuzzScenario) -> Result<usize, String> {
    let engine = SymNet::with_config(
        scenario.network.clone(),
        ExecConfig {
            max_hops: scenario.max_hops,
            threads: 1,
            ..ExecConfig::default()
        },
    );
    let report = engine
        .try_inject(scenario.inject_at, scenario.inject_port, &scenario.packet)
        .map_err(|e| format!("symbolic engine failed on {}: {e}", scenario.name))?;
    let next_var = report.injected.max_symbol_id().map_or(0, |id| id + 1);
    let mut solver = Solver::default();
    let mut checked = 0usize;
    for path in report.delivered() {
        let PathStatus::Delivered { element, port } = path.status else {
            continue;
        };
        let model = match solver.check_path(path.state.path_cond()) {
            SolverResult::Sat(model) => model,
            SolverResult::Unsat => {
                return Err(format!(
                    "path {} of {} was delivered at {element}#{port} but its path condition \
                     is unsatisfiable",
                    path.id, scenario.name
                ))
            }
            SolverResult::Unknown => {
                return Err(format!(
                    "path {} of {} was delivered at {element}#{port} but the solver returned \
                     Unknown on its path condition: its feasibility was never established",
                    path.id, scenario.name
                ))
            }
        };
        let expected = concretize_state(&path.state, &model).map_err(|e| {
            format!(
                "path {} of {}: concretizing the final state failed: {e:?}",
                path.id, scenario.name
            )
        })?;
        let injected = concretize_exec_state(&report.injected, &model);
        let replay = replay_network(
            &scenario.reference,
            scenario.inject_at,
            scenario.inject_port,
            injected,
            &model,
            next_var,
            scenario.max_hops,
        );
        let candidates: Vec<_> = replay
            .outcomes
            .iter()
            .filter(|o| o.element == element && o.port == port)
            .collect();
        if candidates.is_empty() {
            let arrived: Vec<String> = replay
                .outcomes
                .iter()
                .map(|o| format!("{}#{}", o.element, o.port))
                .collect();
            return Err(format!(
                "path {} of {}: symbolic path delivered at {element}#{port}, but the concrete \
                 replay delivered no copy there (replay outcomes: [{}], {} dropped)",
                path.id,
                scenario.name,
                arrived.join(", "),
                replay.dropped
            ));
        }
        let agreed = candidates
            .iter()
            .any(|o| packets_agree(&expected, &o.packet).is_none());
        if !agreed {
            // Report the first field divergence of the first candidate.
            let detail = packets_agree(&expected, &candidates[0].packet)
                .unwrap_or_else(|| "unknown field divergence".to_string());
            return Err(format!(
                "path {} of {} at {element}#{port}: header mismatch — {detail}",
                path.id, scenario.name
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Greedy delta-debugging: tries to remove each element while the predicate
/// keeps failing, yielding a (locally) minimal failing subset.
pub fn minimize<T: Clone>(items: &[T], mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut kept: Vec<T> = items.to_vec();
    let mut i = 0;
    while i < kept.len() {
        let mut candidate = kept.clone();
        candidate.remove(i);
        if still_fails(&candidate) {
            kept = candidate;
        } else {
            i += 1;
        }
    }
    kept
}

/// Runs one fuzz case: builds `kind`'s scenario from `case_seed`, draws and
/// applies a seeded mutation batch, and checks the differential oracle.
/// Deterministic: the same `(kind, case_seed, config)` reproduces the same
/// scenario, mutations and verdict.
pub fn run_case(kind: GeneratorKind, case_seed: u64, config: &FuzzConfig) -> CaseResult {
    let generator_config = GeneratorConfig {
        seed: case_seed,
        ..config.generator
    };
    let build = || kind.build(&generator_config);
    let mut scenario = build();
    let mut rng = StdRng::seed_from_u64(splitmix64(case_seed ^ 0x4D55_5441_5445)); // "MUTATE"
    let mutations = generate_mutations(&scenario, &mut rng, config.max_mutations);
    let mut applied = 0usize;
    for mutation in &mutations {
        if apply_mutation(&mut scenario, mutation) {
            applied += 1;
        }
    }
    match check_scenario(&scenario) {
        Ok(paths) => CaseResult {
            paths_checked: paths,
            mutations_applied: applied,
            failure: None,
        },
        Err(detail) => {
            let minimized = minimize(&mutations, |subset| {
                let mut candidate = build();
                for mutation in subset {
                    apply_mutation(&mut candidate, mutation);
                }
                check_scenario(&candidate).is_err()
            });
            CaseResult {
                paths_checked: 0,
                mutations_applied: applied,
                failure: Some(FuzzFailure {
                    generator: kind.name(),
                    case_seed,
                    campaign: None,
                    mutations: mutations.iter().map(|m| m.to_string()).collect(),
                    minimized: minimized.iter().map(|m| m.to_string()).collect(),
                    detail,
                }),
            }
        }
    }
}

/// Runs a fuzz campaign: `config.iters` cases rotating over every generator
/// family, each seeded from the campaign seed.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..config.iters {
        let (kind, case_seed) = campaign_case(config.seed, i);
        let result = run_case(kind, case_seed, config);
        report.cases += 1;
        report.paths_checked += result.paths_checked;
        report.mutations_applied += result.mutations_applied;
        *report.per_generator.entry(kind.name()).or_insert(0) += 1;
        if let Some(failure) = result.failure {
            report.failures.push(FuzzFailure {
                campaign: Some((config.seed, i)),
                ..failure
            });
        }
    }
    report
}

/// A TTL-decrement router with a deliberate off-by-one: it burns **two** TTL
/// units per hop instead of one, while advertising the exact same routes as
/// [`router_egress_with_ttl`]. The forwarding behavior is identical; only the
/// emitted TTL diverges — precisely the class of header bug the differential
/// oracle exists to catch.
fn buggy_ttl_router(name: &str, fib: &Fib) -> ElementProgram {
    let ports = fib.ports_in_use();
    let mut program = ElementProgram::new(name, fib.port_count, fib.port_count)
        .with_any_input_code(Instruction::block(vec![
            Instruction::constrain(Condition::ge(ip_ttl().field(), 1u64)),
            // The planted bug: decrement by 2 instead of 1.
            Instruction::assign(ip_ttl().field(), Expr::reference(ip_ttl().field()).minus(2)),
            Instruction::fork(ports),
        ]));
    for (port, cond) in fib.port_conditions() {
        program.set_output_code(port, Instruction::constrain(cond));
    }
    program
}

/// The canary scenario: a two-router chain whose *model under test* uses a
/// buggy TTL router (decrements by 2) for the first hop while the reference
/// twin keeps the correct `router_egress_with_ttl`. Everything else —
/// topology, routes, packet — is identical, so any reported failure is the
/// planted bug.
pub fn canary_scenario() -> FuzzScenario {
    let mut fib0 = Fib::new(2);
    fib0.add(0x0a00_0000, 8, 0).add(0, 0, 1);
    let mut fib1 = Fib::new(2);
    fib1.add(0, 0, 1);

    let mut network = Network::new();
    let first = network.add_element(buggy_ttl_router("hop0", &fib0));
    let second = network.add_element(router_egress_with_ttl("hop1", &fib1));
    network.add_link(first, 1, second, 0);

    let mut reference = Network::new();
    let ref_first = reference.add_element(router_egress_with_ttl("hop0", &fib0));
    let ref_second = reference.add_element(router_egress_with_ttl("hop1", &fib1));
    assert_eq!((first, second), (ref_first, ref_second));
    reference.add_link(ref_first, 1, ref_second, 0);

    FuzzScenario {
        name: "canary(ttl double-decrement)".to_string(),
        network,
        reference,
        tables: RuleTables::new(),
        inject_at: first,
        inject_port: 0,
        packet: symbolic_l3_tcp_packet(),
        max_hops: 8,
    }
}

/// Runs the canary: the oracle **must** report the planted TTL bug.
/// `Ok(failure)` carries the (seed-reproducible, trivially minimized) report;
/// `Err` means the oracle is blind and the fuzzer cannot be trusted.
pub fn run_canary() -> Result<FuzzFailure, String> {
    let scenario = canary_scenario();
    match check_scenario(&scenario) {
        Err(detail) => Ok(FuzzFailure {
            generator: "canary",
            case_seed: 0,
            campaign: None,
            mutations: Vec::new(),
            minimized: Vec::new(),
            detail,
        }),
        Ok(paths) => Err(format!(
            "canary not detected: the oracle accepted {paths} delivered paths from a model \
             that double-decrements TTL"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_finds_minimal_failing_subset() {
        // Fails iff the subset contains both 2 and 5.
        let items = vec![1, 2, 3, 4, 5, 6];
        let minimal = minimize(&items, |subset| subset.contains(&2) && subset.contains(&5));
        assert_eq!(minimal, vec![2, 5]);
    }

    /// The `--seed`/`--iters` pair a campaign failure prints must, fed back
    /// into a campaign config, end on the very `(kind, case_seed)` that failed.
    #[test]
    fn printed_reproduce_command_regenerates_the_failing_case() {
        for (seed, index) in [(0xC0FFEE, 22usize), (0x5EF1_D1FF, 0), (7, 49)] {
            let (kind, case_seed) = campaign_case(seed, index);
            let failure = FuzzFailure {
                generator: kind.name(),
                case_seed,
                campaign: Some((seed, index)),
                mutations: Vec::new(),
                minimized: Vec::new(),
                detail: "planted".to_string(),
            };
            let rendered = failure.to_string();
            let line = rendered
                .lines()
                .find(|l| l.contains("reproduce with: paper -- fuzz"))
                .unwrap_or_else(|| panic!("no reproduce command in {rendered}"));
            assert!(line.contains(kind.name()), "family missing: {line}");
            let arg = |flag: &str| {
                let mut words = line.split_whitespace();
                words.find(|w| *w == flag);
                words
                    .next()
                    .unwrap_or_else(|| panic!("{flag} missing: {line}"))
            };
            let config = FuzzConfig {
                seed: u64::from_str_radix(arg("--seed").trim_start_matches("0x"), 16).unwrap(),
                iters: arg("--iters").parse().unwrap(),
                ..FuzzConfig::default()
            };
            let (last_kind, last_seed) = campaign_case(config.seed, config.iters - 1);
            assert_eq!(
                (last_kind.name(), last_seed),
                (kind.name(), case_seed),
                "{line}"
            );
        }
    }

    #[test]
    fn minimize_keeps_empty_when_failure_is_unconditional() {
        let items = vec![1, 2, 3];
        let minimal = minimize(&items, |_| true);
        assert!(minimal.is_empty());
    }
}
