//! Reference answers that do not come from the engine.
//!
//! A [`Truth`] is the generator's own record of the rule tables (see
//! [`crate::gen`]), kept in step with every delta the benchmark publishes. It
//! says how many paths must be delivered and, for any concrete address, at
//! which `(element, port)` — if anywhere — a packet to that address must come
//! out. [`check`] holds an engine report against it: *exactly one* delivered
//! path may admit a probed address (via `verify::allowed_values`), and it
//! must be the one at the reference port.

use crate::adapter::{
    allowed_values, fanout_mac, Delta, DropReason, ElementId, ExecutionReport, FieldRef,
    IntervalSet, PathReport, PathStatus,
};
use crate::gen::{Route, Station};

/// The reference model of one scenario's tables.
#[derive(Clone)]
pub enum Truth {
    /// One router: longest-prefix match over the generated routes.
    Lpm {
        element: ElementId,
        routes: Vec<Route>,
    },
    /// One switch compiled to the basic (one branch per entry) model: one
    /// delivered path per table line, first match wins.
    Mac {
        element: ElementId,
        stations: Vec<Station>,
    },
    /// `delta_fanout`: leaf `l` delivers `fanout_mac(l, s)` on its port `s`.
    /// Stations learned at a leaf stay invisible, because the root in front
    /// of it never learns them.
    Fanout {
        leaves: Vec<ElementId>,
        macs_per_leaf: usize,
    },
    /// The switch tree: a multi-hop answer needs a concrete replay, which
    /// `testgen::fuzz::check_scenario` performs once in set-up. Afterwards
    /// the shape digest of the replay-checked report is the reference
    /// (stations learned below the root are invisible, as in `Fanout`).
    Replayed { delivered: usize, digest: u64 },
}

impl Truth {
    /// Delivered paths the current tables must produce.
    pub fn delivered(&self) -> usize {
        match self {
            Truth::Lpm { routes, .. } => {
                let mut ports: Vec<usize> = routes.iter().map(|r| r.port).collect();
                ports.sort_unstable();
                ports.dedup();
                ports.len()
            }
            Truth::Mac { stations, .. } => stations.len(),
            Truth::Fanout {
                leaves,
                macs_per_leaf,
                ..
            } => leaves.len() * macs_per_leaf,
            Truth::Replayed { delivered, .. } => *delivered,
        }
    }

    /// Where a packet to `address` must be delivered; `None` if nowhere.
    /// `Replayed` has no per-address answer.
    pub fn locate(&self, address: u64) -> Option<(ElementId, usize)> {
        match self {
            Truth::Lpm { element, routes } => routes
                .iter()
                .filter(|r| r.matches(address as u32))
                .max_by_key(|r| r.len)
                .map(|r| (*element, r.port)),
            Truth::Mac { element, stations } => stations
                .iter()
                .find(|s| s.mac == address)
                .map(|s| (*element, s.port)),
            Truth::Fanout {
                leaves,
                macs_per_leaf,
            } => (0..leaves.len())
                .flat_map(|l| (0..*macs_per_leaf).map(move |s| (l, s)))
                .find(|&(l, s)| fanout_mac(l, s) == address)
                .map(|(l, s)| (leaves[l], s)),
            Truth::Replayed { .. } => None,
        }
    }

    /// Mirrors a published delta into the reference tables.
    pub fn apply(&mut self, delta: &Delta) {
        match (self, delta) {
            (
                Truth::Lpm { routes, .. },
                Delta::RouteAdd {
                    prefix,
                    prefix_len,
                    port,
                    ..
                },
            ) => {
                routes.retain(|r| !(r.prefix == *prefix && r.len == *prefix_len));
                routes.push(Route {
                    prefix: *prefix,
                    len: *prefix_len,
                    port: *port,
                });
            }
            (
                Truth::Lpm { routes, .. },
                Delta::RouteWithdraw {
                    prefix, prefix_len, ..
                },
            ) => routes.retain(|r| !(r.prefix == *prefix && r.len == *prefix_len)),
            (Truth::Mac { stations, .. }, Delta::MacLearn { mac, port, .. }) => {
                stations.retain(|s| s.mac != *mac);
                stations.push(Station {
                    mac: *mac,
                    port: *port,
                });
            }
            (Truth::Mac { stations, .. }, Delta::MacAge { mac, .. }) => {
                stations.retain(|s| s.mac != *mac)
            }
            // Learned below the root: no verdict changes.
            (Truth::Fanout { .. } | Truth::Replayed { .. }, _) => {}
            (_, other) => panic!("delta {other:?} does not fit this scenario's tables"),
        }
    }

    /// `--selftest`: corrupts the reference so that a correct engine answer
    /// must be reported as a failure.
    pub fn plant_wrong_port(&mut self) {
        match self {
            Truth::Lpm { routes, .. } => {
                for r in routes.iter_mut().filter(|r| r.len > 0) {
                    r.port = (r.port + 1) % (crate::gen::ROUTER_PORTS - 1);
                }
            }
            Truth::Mac { stations, .. } => stations.iter_mut().for_each(|s| s.port += 1),
            Truth::Fanout { macs_per_leaf, .. } => *macs_per_leaf += 1,
            Truth::Replayed { digest, .. } => *digest ^= 1,
        }
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A digest of a report's shape: per path, in report order, its status and
/// the ports it visited. A delta that changes no verdict leaves it alone.
pub fn shape_digest(report: &ExecutionReport) -> u64 {
    digest_with(report, false)
}

/// A digest of a report's full content: its shape plus the content
/// fingerprint of every path condition. Two explorations of the same network
/// agree on it whatever strategy (from scratch, incremental, served)
/// produced them.
pub fn content_digest(report: &ExecutionReport) -> u64 {
    digest_with(report, true)
}

fn digest_with(report: &ExecutionReport, conditions: bool) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for path in &report.paths {
        match &path.status {
            PathStatus::Delivered { element, port } => {
                fnv(&mut hash, &[1]);
                fnv(&mut hash, &(element.0 as u64).to_le_bytes());
                fnv(&mut hash, &(*port as u64).to_le_bytes());
            }
            PathStatus::Dropped { element, reason } => {
                // The kind of drop only: the text of an unsatisfiable
                // constraint names every address of the table it came from.
                let kind = match reason {
                    DropReason::Failed(_) => 2,
                    DropReason::Unsatisfiable(_) => 3,
                    DropReason::InfeasibleBranch => 4,
                    DropReason::Memory(_) => 5,
                    DropReason::NotForwarded => 6,
                    DropReason::HopLimit => 7,
                    DropReason::Loop => 8,
                };
                fnv(&mut hash, &[0, kind]);
                fnv(&mut hash, &(element.0 as u64).to_le_bytes());
            }
        }
        for port in path.ports_visited() {
            fnv(&mut hash, port.as_bytes());
        }
        if conditions {
            fnv(
                &mut hash,
                &path.state.path_cond().fingerprint().to_le_bytes(),
            );
        }
    }
    hash
}

/// The engine's answer to "which addresses can take this path".
pub type Answer = Option<IntervalSet>;

/// Asks `verify::allowed_values` for every delivered path, in report order.
pub fn answers(report: &ExecutionReport, field: &FieldRef) -> Vec<Answer> {
    report
        .delivered()
        .map(|p| allowed_values(p, field))
        .collect()
}

fn delivered_at(path: &PathReport) -> (ElementId, usize) {
    match path.status {
        PathStatus::Delivered { element, port } => (element, port),
        PathStatus::Dropped { .. } => unreachable!("delivered() yields delivered paths"),
    }
}

/// Conditions every report must meet whatever the tables say: the solver
/// never gave up, and the path cap did not truncate the exploration.
pub fn check_complete(report: &ExecutionReport, max_paths: usize) -> Result<(), String> {
    if report.solver_stats.unknown > 0 {
        return Err(format!(
            "solver answered unknown {} times",
            report.solver_stats.unknown
        ));
    }
    if report.path_count() >= max_paths {
        return Err(format!("exploration truncated at {max_paths} paths"));
    }
    Ok(())
}

/// The cheap check: the delivered count and, for a replayed reference, the
/// digest.
pub fn check_counts(truth: &Truth, report: &ExecutionReport) -> Result<(), String> {
    let delivered = report.delivered().count();
    if delivered != truth.delivered() {
        return Err(format!(
            "{delivered} delivered paths, the tables say {}",
            truth.delivered()
        ));
    }
    if let Truth::Replayed { digest: want, .. } = truth {
        let got = shape_digest(report);
        if got != *want {
            return Err(format!(
                "report digest {got:#x}, the replay-checked one is {want:#x}"
            ));
        }
    }
    Ok(())
}

/// The full check: [`check_counts`], and for every probe address, that
/// exactly the delivered path at the reference port admits it. `answers` are
/// the engine's [`answers`] for this report.
pub fn check(
    truth: &Truth,
    report: &ExecutionReport,
    answers: &[Answer],
    probes: &[u64],
) -> Result<(), String> {
    check_counts(truth, report)?;
    if answers.len() != truth.delivered() {
        return Err("one answer per delivered path expected".to_string());
    }
    for &address in probes {
        let admitting: Vec<(ElementId, usize)> = report
            .delivered()
            .zip(answers)
            .filter(|(_, set)| set.as_ref().is_some_and(|s| s.contains(address as i128)))
            .map(|(p, _)| delivered_at(p))
            .collect();
        let want: Vec<(ElementId, usize)> = truth.locate(address).into_iter().collect();
        if admitting != want {
            return Err(format!(
                "address {address:#x}: admitted by the paths at {admitting:?}, the tables say {want:?}"
            ));
        }
    }
    Ok(())
}
