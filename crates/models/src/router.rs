//! Longest-prefix-match IP router models generated from forwarding tables.
//!
//! §7 "Modeling an IP Router": grouping prefixes per output interface is only
//! correct if longest-prefix-match semantics are preserved. The trick is, for
//! every prefix `b`, to conjoin the negation of each *more specific*
//! overlapping prefix `a` that forwards to a different interface (`!a & b`),
//! after which prefixes can be grouped per interface exactly like MAC
//! addresses — dropping the number of paths from the number of prefixes to the
//! number of links. Table 2 of the paper evaluates the three variants below on
//! a 188,500-entry forwarding table.

use symnet_sefl::cond::Condition;
use symnet_sefl::fields::ip_dst;
use symnet_sefl::{ElementProgram, Instruction};

/// One forwarding-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FibEntry {
    /// Prefix value (host bits zero).
    pub prefix: u32,
    /// Prefix length in bits (0–32).
    pub prefix_len: u8,
    /// Output interface index.
    pub port: usize,
}

impl FibEntry {
    /// True if `other` is strictly more specific than `self` and nested inside
    /// it.
    pub fn covers(&self, other: &FibEntry) -> bool {
        if other.prefix_len <= self.prefix_len {
            return false;
        }
        let shift = 32 - self.prefix_len as u32;
        if shift >= 32 {
            return true; // a /0 covers everything more specific
        }
        (other.prefix >> shift) == (self.prefix >> shift)
    }

    /// True if the concrete address matches this prefix.
    pub fn matches(&self, address: u32) -> bool {
        if self.prefix_len == 0 {
            return true;
        }
        let shift = 32 - self.prefix_len as u32;
        (address >> shift) == (self.prefix >> shift)
    }
}

/// A router forwarding table (FIB).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fib {
    /// Number of output interfaces.
    pub port_count: usize,
    /// Table entries.
    pub entries: Vec<FibEntry>,
}

impl Fib {
    /// Creates an empty FIB for a router with `port_count` interfaces.
    pub fn new(port_count: usize) -> Self {
        Fib {
            port_count,
            entries: Vec::new(),
        }
    }

    /// Adds an entry.
    pub fn add(&mut self, prefix: u32, prefix_len: u8, port: usize) -> &mut Self {
        assert!(port < self.port_count, "port {port} out of range");
        assert!(prefix_len <= 32);
        self.entries.push(FibEntry {
            prefix,
            prefix_len,
            port,
        });
        self
    }

    /// Withdraws a route: removes every entry with exactly this prefix — the
    /// route-withdrawal delta of the resident service. Returns true if an
    /// entry was removed. (Adding a route is [`Fib::add`].)
    pub fn withdraw(&mut self, prefix: u32, prefix_len: u8) -> bool {
        let before = self.entries.len();
        self.entries
            .retain(|e| !(e.prefix == prefix && e.prefix_len == prefix_len));
        self.entries.len() != before
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the FIB has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keeps only the first `n` entries (the Table 2 sweep runs 1%, 33% and
    /// 100% of the full table).
    pub fn truncated(&self, n: usize) -> Fib {
        Fib {
            port_count: self.port_count,
            entries: self.entries.iter().take(n).copied().collect(),
        }
    }

    /// Interfaces that appear in at least one entry.
    pub fn ports_in_use(&self) -> Vec<usize> {
        let mut ports: Vec<usize> = self.entries.iter().map(|e| e.port).collect();
        ports.sort_unstable();
        ports.dedup();
        ports
    }

    /// Longest-prefix-match lookup of a concrete address (reference semantics
    /// used by tests and by the automated-testing harness).
    pub fn lookup(&self, address: u32) -> Option<usize> {
        self.entries
            .iter()
            .filter(|e| e.matches(address))
            .max_by_key(|e| e.prefix_len)
            .map(|e| e.port)
    }

    /// Deterministically generates a synthetic FIB with a realistic mix of
    /// overlapping prefixes: mostly /24s, with /16 aggregates that cover some
    /// of them through a different interface (so the LPM exclusion constraints
    /// are actually exercised) and a default route.
    pub fn synthetic(entries: usize, port_count: usize) -> Fib {
        assert!(port_count >= 2);
        let mut fib = Fib::new(port_count);
        if entries == 0 {
            return fib;
        }
        // Default route on the last port.
        fib.add(0, 0, port_count - 1);
        let mut i: u64 = 0;
        while fib.len() < entries {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            if i % 10 == 9 {
                // A /16 aggregate that covers the /24s generated from the same
                // seed region but points to a different interface.
                let prefix = ((h >> 16) as u32) & 0xffff_0000;
                fib.add(prefix, 16, (h as usize) % (port_count - 1));
            } else {
                let prefix = (h as u32) & 0xffff_ff00;
                fib.add(prefix, 24, (h >> 32) as usize % (port_count - 1));
            }
            i += 1;
        }
        fib
    }

    /// For every entry, the indices of the more specific overlapping entries
    /// that forward to a *different* interface — the prefixes whose negation
    /// must be conjoined to preserve longest-prefix-match semantics (the `!a &
    /// b` trick of §7). Exclusions towards the same interface do not change the
    /// forwarding decision and are omitted to keep the constraint count low,
    /// mirroring the ~183k additional constraints the paper reports for 188.5k
    /// prefixes. Built with a sort + range scan so that generating the model
    /// for a full-size FIB stays well below the paper's 8-minute generation
    /// time.
    pub fn exclusion_index(&self) -> Vec<Vec<usize>> {
        let mut by_prefix: Vec<usize> = (0..self.entries.len()).collect();
        by_prefix.sort_unstable_by_key(|&i| self.entries[i].prefix);
        let prefixes: Vec<u32> = by_prefix.iter().map(|&i| self.entries[i].prefix).collect();
        let mut out = vec![Vec::new(); self.entries.len()];
        for (idx, entry) in self.entries.iter().enumerate() {
            let base = entry.prefix;
            let end = if entry.prefix_len == 0 {
                u32::MAX
            } else {
                let host = 32 - entry.prefix_len as u32;
                if host >= 32 {
                    u32::MAX
                } else {
                    base | ((1u32 << host) - 1)
                }
            };
            let start = prefixes.partition_point(|&p| p < base);
            let stop = prefixes.partition_point(|&p| p <= end);
            for &other_idx in &by_prefix[start..stop] {
                if other_idx == idx {
                    continue;
                }
                let other = &self.entries[other_idx];
                if other.port != entry.port && entry.covers(other) {
                    out[idx].push(other_idx);
                }
            }
        }
        out
    }

    fn entry_condition_with(&self, index: usize, exclusions: &[Vec<usize>]) -> Condition {
        let entry = self.entries[index];
        let mut parts = vec![Condition::matches_ipv4_prefix(
            ip_dst().field(),
            entry.prefix as u64,
            entry.prefix_len,
        )];
        for &other_idx in &exclusions[index] {
            let other = self.entries[other_idx];
            parts.push(Condition::not(Condition::matches_ipv4_prefix(
                ip_dst().field(),
                other.prefix as u64,
                other.prefix_len,
            )));
        }
        Condition::and(parts)
    }

    fn port_condition_with(&self, port: usize, exclusions: &[Vec<usize>]) -> Condition {
        let conds: Vec<Condition> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.port == port)
            .map(|(i, _)| self.entry_condition_with(i, exclusions))
            .collect();
        Condition::or(conds)
    }

    /// Per-interface conditions for every interface in use, sharing one
    /// exclusion index (use this when generating a full router model).
    pub fn port_conditions(&self) -> Vec<(usize, Condition)> {
        let exclusions = self.exclusion_index();
        self.ports_in_use()
            .into_iter()
            .map(|p| (p, self.port_condition_with(p, &exclusions)))
            .collect()
    }

    /// Total number of prefix checks in the grouped model (the paper reports
    /// 371,000 checks for the 188,500-entry table).
    pub fn total_prefix_checks(&self) -> usize {
        let exclusions = self.exclusion_index();
        self.entries.len() + exclusions.iter().map(Vec::len).sum::<usize>()
    }
}

/// The *basic* router model: one `If` per prefix, most specific first.
pub fn router_basic(name: &str, fib: &Fib) -> ElementProgram {
    let mut order: Vec<usize> = (0..fib.entries.len()).collect();
    // Most specific prefixes are checked first so plain nesting is correct.
    order.sort_by_key(|&i| std::cmp::Reverse(fib.entries[i].prefix_len));
    let mut code = Instruction::fail("no route");
    for &i in order.iter().rev() {
        let entry = fib.entries[i];
        code = Instruction::if_else(
            Condition::matches_ipv4_prefix(ip_dst().field(), entry.prefix as u64, entry.prefix_len),
            Instruction::forward(entry.port),
            code,
        );
    }
    ElementProgram::new(name, fib.port_count, fib.port_count).with_any_input_code(code)
}

/// The *ingress* router model: prefixes grouped per interface with LPM
/// exclusion constraints, applied as nested `If`s on the input port.
pub fn router_ingress(name: &str, fib: &Fib) -> ElementProgram {
    let mut code = Instruction::fail("no route");
    for (port, cond) in fib.port_conditions().into_iter().rev() {
        code = Instruction::if_else(cond, Instruction::forward(port), code);
    }
    ElementProgram::new(name, fib.port_count, fib.port_count).with_any_input_code(code)
}

/// The *egress* router model: fork to every interface in use and constrain the
/// destination per output port — the fastest variant in Table 2.
pub fn router_egress(name: &str, fib: &Fib) -> ElementProgram {
    let ports = fib.ports_in_use();
    let mut program = ElementProgram::new(name, fib.port_count, fib.port_count)
        .with_any_input_code(Instruction::fork(ports));
    for (port, cond) in fib.port_conditions() {
        program.set_output_code(port, Instruction::constrain(cond));
    }
    program
}

/// A router that additionally decrements the TTL and drops expired packets —
/// used by the scenario topologies where forwarding loops must eventually
/// terminate.
pub fn router_egress_with_ttl(name: &str, fib: &Fib) -> ElementProgram {
    use symnet_sefl::fields::ip_ttl;
    use symnet_sefl::Expr;
    let ports = fib.ports_in_use();
    let mut program = ElementProgram::new(name, fib.port_count, fib.port_count)
        .with_any_input_code(Instruction::block(vec![
            Instruction::constrain(Condition::ge(ip_ttl().field(), 1u64)),
            Instruction::assign(ip_ttl().field(), Expr::reference(ip_ttl().field()).minus(1)),
            Instruction::fork(ports),
        ]));
    for (port, cond) in fib.port_conditions() {
        program.set_output_code(port, Instruction::constrain(cond));
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use symnet_core::engine::SymNet;
    use symnet_core::network::Network;
    use symnet_core::verify::allowed_values;
    use symnet_sefl::packet::symbolic_l3_tcp_packet;

    /// The example forwarding table from §7 of the paper.
    fn paper_fib() -> Fib {
        let mut fib = Fib::new(2);
        fib.add(0xc0a80001, 32, 0) // 192.168.0.1/32  -> If0
            .add(0x0a000000, 8, 0) // 10.0.0.0/8      -> If0
            .add(0xc0a80000, 24, 1) // 192.168.0.0/24 -> If1
            .add(0x0a0a0001, 32, 1); // 10.10.0.1/32  -> If1
        fib
    }

    fn run(
        program: ElementProgram,
    ) -> (symnet_core::engine::ExecutionReport, symnet_core::ElementId) {
        let mut net = Network::new();
        let id = net.add_element(program);
        let engine = SymNet::new(net);
        (engine.inject(id, 0, &symbolic_l3_tcp_packet()), id)
    }

    #[test]
    fn covers_and_matches() {
        let wide = FibEntry {
            prefix: 0x0a000000,
            prefix_len: 8,
            port: 0,
        };
        let narrow = FibEntry {
            prefix: 0x0a0a0001,
            prefix_len: 32,
            port: 1,
        };
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.matches(0x0a0a0001));
        assert!(narrow.matches(0x0a0a0001));
        assert!(!narrow.matches(0x0a0a0002));
        let default = FibEntry {
            prefix: 0,
            prefix_len: 0,
            port: 0,
        };
        assert!(default.covers(&wide));
        assert!(default.matches(0xffffffff));
    }

    #[test]
    fn lookup_uses_longest_prefix_match() {
        let fib = paper_fib();
        // The §7 motivating case: 10.10.0.1 must go to If1, not If0.
        assert_eq!(fib.lookup(0x0a0a0001), Some(1));
        assert_eq!(fib.lookup(0x0a000001), Some(0));
        assert_eq!(fib.lookup(0xc0a80001), Some(0));
        assert_eq!(fib.lookup(0xc0a80002), Some(1));
        assert_eq!(fib.lookup(0x08080808), None);
    }

    #[test]
    fn all_three_models_respect_lpm_on_the_paper_example() {
        let fib = paper_fib();
        for model in [
            router_basic("r", &fib),
            router_ingress("r", &fib),
            router_egress("r", &fib),
        ] {
            let (report, id) = run(model);
            // The basic model has several paths per interface (one per entry);
            // aggregate the admissible destinations per interface.
            let allowed_on = |port: usize| {
                report
                    .delivered_at(id, port)
                    .filter_map(|p| allowed_values(p, &ip_dst().field()))
                    .fold(symnet_solver::IntervalSet::empty(), |acc, s| acc.union(&s))
            };
            // 10.10.0.1 is admissible only on interface 1 (LPM), while the rest
            // of 10.0.0.0/8 still goes to interface 0.
            let allowed0 = allowed_on(0);
            assert!(!allowed0.contains(0x0a0a0001), "LPM violated on If0");
            assert!(allowed0.contains(0x0a000001));
            assert!(allowed_on(1).contains(0x0a0a0001));
        }
    }

    #[test]
    fn grouped_models_have_one_path_per_interface() {
        let fib = Fib::synthetic(300, 8);
        let (ingress, _) = run(router_ingress("r", &fib));
        let (egress, _) = run(router_egress("r", &fib));
        let ports = fib.ports_in_use().len();
        assert_eq!(ingress.delivered().count(), ports);
        assert_eq!(egress.delivered().count(), ports);
        // The basic model produces one path per prefix instead.
        let (basic, _) = run(router_basic("r", &fib));
        assert_eq!(basic.delivered().count(), fib.len());
    }

    #[test]
    fn synthetic_fib_is_deterministic_and_has_overlaps() {
        let a = Fib::synthetic(500, 4);
        let b = Fib::synthetic(500, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let overlaps = a.entries.iter().enumerate().any(|(i, e)| {
            a.entries
                .iter()
                .skip(i + 1)
                .any(|o| e.covers(o) || o.covers(e))
        });
        assert!(overlaps, "synthetic FIB must contain nested prefixes");
        assert!(a.total_prefix_checks() >= a.len());
    }

    #[test]
    fn truncation_keeps_prefix_counts() {
        let fib = Fib::synthetic(1000, 4);
        assert_eq!(fib.truncated(10).len(), 10);
        assert_eq!(fib.truncated(10_000).len(), 1000);
    }

    #[test]
    fn ttl_router_drops_expired_packets() {
        use symnet_sefl::fields::ip_ttl;
        use symnet_sefl::{Expr, Instruction};
        let fib = paper_fib();
        let mut net = Network::new();
        let id = net.add_element(router_egress_with_ttl("r", &fib));
        let engine = SymNet::new(net);
        let dead = Instruction::block(vec![
            symbolic_l3_tcp_packet(),
            Instruction::assign(ip_ttl().field(), Expr::constant(0)),
        ]);
        let report = engine.inject(id, 0, &dead);
        assert_eq!(report.delivered().count(), 0);
        let alive = Instruction::block(vec![
            symbolic_l3_tcp_packet(),
            Instruction::assign(ip_ttl().field(), Expr::constant(64)),
        ]);
        let report = engine.inject(id, 0, &alive);
        assert!(report.delivered().count() >= 1);
    }
}
