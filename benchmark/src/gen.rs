//! Seeded input generator: device configuration *text* in the formats
//! `symnet_parsers::parse_fib` / `parse_mac_table` accept.
//!
//! The program under test sees only what the parsers make of this text. The
//! generator keeps its own, independent record of what it wrote
//! ([`FibText::entries`], [`MacText::entries`]) — the oracles answer from that
//! record, never from the engine.
//!
//! `--seed` picks the *values* (prefixes, MAC addresses, probe addresses,
//! delta order). The *shape* of every table — entry count, prefix-length mix,
//! which /24 sits under which /16, which port an entry points to, the tree
//! wiring — is a fixed function of the entry index, so two seeds give inputs
//! of the same cost and a metric's spread over seeds measures the machine,
//! not the generator.

use std::collections::BTreeSet;
use std::fmt::Write;

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `count` distinct values of `bits` bits, none of them in `taken`;
    /// every value drawn is added to `taken`.
    fn distinct(&mut self, count: usize, bits: u32, taken: &mut BTreeSet<u64>) -> Vec<u64> {
        let mask = (1u64 << bits) - 1;
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.next() & mask;
            if taken.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// One generated forwarding-table line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    pub prefix: u32,
    pub len: u8,
    pub port: usize,
}

impl Route {
    pub fn matches(&self, address: u32) -> bool {
        self.len == 0
            || (address >> (32 - self.len as u32)) == (self.prefix >> (32 - self.len as u32))
    }
}

/// A generated FIB: the text for the parser and the generator's own record.
pub struct FibText {
    pub text: String,
    pub entries: Vec<Route>,
    /// /24 prefixes that no generated route covers except the default: the
    /// pool route-announcement deltas draw from.
    pub spare: Vec<u32>,
}

/// Router ports: 7 carry routes, the last one carries the default.
pub const ROUTER_PORTS: usize = 8;
/// /24 routes generated under each /16 aggregate.
const COVERED_PER_AGGREGATE: usize = 4;

/// A FIB of `entries` routes: one default on the last port, one /16 aggregate
/// per ten routes, the rest /24s. Each aggregate covers four of the /24s, all
/// on ports other than its own (so the longest-prefix exclusions of the model
/// are exercised); the remaining /24s lie outside every aggregate.
pub fn fib(seed: u64, entries: usize, spare: usize) -> FibText {
    assert!(entries >= 20);
    let mut rng = Rng::new(seed ^ 0xF1B);
    let aggregates = entries / 10 - 1;
    let covered = aggregates * COVERED_PER_AGGREGATE;
    let free = entries - 1 - aggregates - covered;
    let route_ports = ROUTER_PORTS - 1;

    let mut blocks16 = BTreeSet::new();
    let agg_blocks = rng.distinct(aggregates, 16, &mut blocks16);
    let mut routes = vec![Route {
        prefix: 0,
        len: 0,
        port: ROUTER_PORTS - 1,
    }];
    for (k, &block) in agg_blocks.iter().enumerate() {
        routes.push(Route {
            prefix: (block as u32) << 16,
            len: 16,
            port: k % route_ports,
        });
        let mut thirds = BTreeSet::new();
        for (j, third) in rng
            .distinct(COVERED_PER_AGGREGATE, 8, &mut thirds)
            .into_iter()
            .enumerate()
        {
            routes.push(Route {
                prefix: ((block as u32) << 16) | ((third as u32) << 8),
                len: 24,
                port: (k + 1 + j) % route_ports,
            });
        }
    }
    // Free /24s and the spare pool live in /16 blocks no aggregate owns.
    let mut taken24 = BTreeSet::new();
    let mut outside = |rng: &mut Rng, count: usize| -> Vec<u32> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = rng.next() & 0xff_ffff;
            if !blocks16.contains(&(v >> 8)) && taken24.insert(v) {
                out.push((v as u32) << 8);
            }
        }
        out
    };
    for (i, prefix) in outside(&mut rng, free).into_iter().enumerate() {
        routes.push(Route {
            prefix,
            len: 24,
            port: i % route_ports,
        });
    }
    let spare = outside(&mut rng, spare);

    // Fixed interleaving (default first, then every aggregate followed by its
    // /24s, then the free /24s) keeps the compiled model's shape seed-free.
    let mut text = String::from("# seeded FIB: PREFIX/LEN PORT\n");
    for r in &routes {
        let p = r.prefix;
        writeln!(
            text,
            "{}.{}.{}.{}/{} {}",
            p >> 24,
            (p >> 16) & 0xff,
            (p >> 8) & 0xff,
            p & 0xff,
            r.len,
            r.port
        )
        .expect("write to String");
    }
    FibText {
        text,
        entries: routes,
        spare,
    }
}

/// One generated MAC-table line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Station {
    pub mac: u64,
    pub port: usize,
}

/// A generated MAC table: the text for the parser and the generator's record.
pub struct MacText {
    pub text: String,
    pub entries: Vec<Station>,
}

fn mac_text(entries: Vec<Station>) -> MacText {
    let mut text = String::from("# seeded MAC table: MAC VLAN PORT\n");
    for s in &entries {
        let b = s.mac.to_be_bytes();
        writeln!(
            text,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x} - {}",
            b[2], b[3], b[4], b[5], b[6], b[7], s.port
        )
        .expect("write to String");
    }
    MacText { text, entries }
}

/// `entries` distinct seeded MACs spread round-robin over `ports` ports, and
/// one more address the table does not hold (the station that deltas learn).
pub fn mac_table(seed: u64, entries: usize, ports: usize) -> (MacText, u64) {
    let mut rng = Rng::new(seed ^ 0x3AC);
    let mut macs = rng.distinct(entries + 1, 48, &mut BTreeSet::new());
    let station = macs.pop().expect("entries + 1 addresses drawn");
    let table = mac_text(
        macs.into_iter()
            .enumerate()
            .map(|(i, mac)| Station {
                mac,
                port: i % ports,
            })
            .collect(),
    );
    (table, station)
}

/// A generated switch tree: one MAC table per switch plus the wiring.
pub struct TreeText {
    /// `tables[s]` is switch `s`'s table; switch 0 is the root.
    pub tables: Vec<MacText>,
    /// `(from switch, output port, to switch, input port)`.
    pub links: Vec<(usize, usize, usize, usize)>,
    /// Switches below the root that a packet injected at the root can enter.
    pub reachable: Vec<usize>,
    /// An address no table holds.
    pub station: u64,
}

/// The shape stream of the switch tree. A constant: the wiring and the
/// choice of which pool address each table line holds must not move with
/// `--seed`, or the path count (and with it every timing) would.
const TREE_SHAPE: u64 = 0x5EED_7EEE;

/// A tree of `switches` four-port switches, `entries` table lines each, drawn
/// from a shared pool of `entries` addresses (as hosts in one L2 domain, so
/// constraints stay satisfiable across hops). Every child's port 0 links up
/// to its parent; the parent's ports 1–3 link down to its first three
/// children. The layout follows `symnet_parsers::random_switch_tree`, with
/// the shape drawn from a constant stream and the addresses from `seed`.
pub fn switch_tree(seed: u64, switches: usize, entries: usize) -> TreeText {
    let mut values = Rng::new(seed ^ 0x7EE);
    let mut pool = values.distinct(entries.max(8) + 1, 48, &mut BTreeSet::new());
    let station = pool.pop().expect("pool + 1 addresses drawn");
    let mut shape = Rng::new(TREE_SHAPE);
    let tables = (0..switches)
        .map(|_| {
            mac_text(
                (0..entries)
                    .map(|e| Station {
                        mac: pool[shape.below(pool.len())],
                        port: e % 4,
                    })
                    .collect(),
            )
        })
        .collect();
    let mut next_down = vec![1usize; switches];
    let mut links = Vec::new();
    let mut entered = vec![false; switches];
    entered[0] = true;
    for s in 1..switches {
        let parent = shape.below(s);
        links.push((s, 0, parent, 1));
        if next_down[parent] <= 3 {
            links.push((parent, next_down[parent], s, 0));
            next_down[parent] += 1;
            // Parents precede children, so `entered[parent]` is final here.
            entered[s] = entered[parent];
        }
    }
    TreeText {
        tables,
        links,
        reachable: (1..switches).filter(|&s| entered[s]).collect(),
        station,
    }
}

/// `count` probe values of `bits` bits: half drawn from `known` (values the
/// table names), half uniformly random (mostly values it does not).
pub fn probes(seed: u64, count: usize, bits: u32, known: &[u64]) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x9B0BE);
    let mask = (1u64 << bits) - 1;
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                known[rng.below(known.len())]
            } else {
                rng.next() & mask
            }
        })
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0DE17A);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}
