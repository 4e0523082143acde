//! # symnet-hsa
//!
//! A from-scratch Header Space Analysis (HSA) baseline, standing in for the
//! Hassel tool the paper compares against in Table 3.
//!
//! HSA models the packet header as a fixed-width vector of ternary bits
//! (`0`, `1`, `*`) and every network box as a list of transfer-function rules:
//! a match pattern over the header, a rewrite mask, and the output port.
//! Reachability propagates header-space regions hop by hop, intersecting them
//! with rule matches. HSA is fast, but — as §2 of the SymNet paper argues — a
//! wildcarded output cannot express that the output *equals* the input, so it
//! cannot prove invariance, visibility or memory-safety properties; the
//! Table 5 capability matrix reflects exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

/// A ternary header pattern over `width` bits: for every bit, `mask` says
/// whether the bit is constrained (1) and `bits` gives its value. Unmasked
/// bits are wildcards.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Ternary {
    /// Number of header bits.
    pub width: u32,
    /// Constrained-bit mask (little-endian u64 words).
    mask: Vec<u64>,
    /// Bit values where constrained.
    bits: Vec<u64>,
}

impl Ternary {
    fn words(width: u32) -> usize {
        width.div_ceil(64) as usize
    }

    /// The all-wildcard header of the given width.
    pub fn any(width: u32) -> Self {
        Ternary {
            width,
            mask: vec![0; Self::words(width)],
            bits: vec![0; Self::words(width)],
        }
    }

    /// Constrains the field `[offset, offset+len)` (bit offsets from 0) to the
    /// low `len` bits of `value`.
    pub fn with_field(mut self, offset: u32, len: u32, value: u64) -> Self {
        for i in 0..len {
            let bit = (value >> (len - 1 - i)) & 1;
            self.set_bit(offset + i, Some(bit == 1));
        }
        self
    }

    /// Constrains the top `prefix_len` bits of the field `[offset,
    /// offset+len)` to the top bits of `value` (an IPv4-style prefix match).
    pub fn with_prefix(mut self, offset: u32, len: u32, value: u64, prefix_len: u32) -> Self {
        for i in 0..prefix_len.min(len) {
            let bit = (value >> (len - 1 - i)) & 1;
            self.set_bit(offset + i, Some(bit == 1));
        }
        self
    }

    fn set_bit(&mut self, index: u32, value: Option<bool>) {
        let word = (index / 64) as usize;
        let bit = index % 64;
        match value {
            None => {
                self.mask[word] &= !(1 << bit);
                self.bits[word] &= !(1 << bit);
            }
            Some(v) => {
                self.mask[word] |= 1 << bit;
                if v {
                    self.bits[word] |= 1 << bit;
                } else {
                    self.bits[word] &= !(1 << bit);
                }
            }
        }
    }

    /// Intersection of two ternary headers; `None` if they are incompatible
    /// (some bit constrained to different values).
    pub fn intersect(&self, other: &Ternary) -> Option<Ternary> {
        debug_assert_eq!(self.width, other.width);
        let mut out = self.clone();
        for w in 0..self.mask.len() {
            let both = self.mask[w] & other.mask[w];
            if (self.bits[w] ^ other.bits[w]) & both != 0 {
                return None;
            }
            out.mask[w] = self.mask[w] | other.mask[w];
            out.bits[w] = (self.bits[w] & self.mask[w]) | (other.bits[w] & other.mask[w]);
        }
        Some(out)
    }

    /// Applies a rewrite: bits constrained in `rewrite` take its values, all
    /// other bits keep their (possibly wildcard) values.
    pub fn rewrite(&self, rewrite: &Ternary) -> Ternary {
        let mut out = self.clone();
        for w in 0..self.mask.len() {
            out.mask[w] |= rewrite.mask[w];
            out.bits[w] = (out.bits[w] & !rewrite.mask[w]) | (rewrite.bits[w] & rewrite.mask[w]);
        }
        out
    }

    /// Number of constrained bits (used in tests and statistics).
    pub fn constrained_bits(&self) -> u32 {
        self.mask.iter().map(|w| w.count_ones()).sum()
    }
}

/// One transfer-function rule of a network box.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Match pattern.
    pub matches: Ternary,
    /// Optional rewrite applied to matching headers.
    pub rewrite: Option<Ternary>,
    /// Output port the matching traffic is sent to.
    pub out_port: usize,
}

/// A network box: a prioritised rule list (first match wins, like a FIB after
/// longest-prefix expansion).
#[derive(Clone, Debug, Default)]
pub struct TransferFunction {
    /// Rules in priority order.
    pub rules: Vec<Rule>,
}

impl TransferFunction {
    /// Applies the box to a header-space region, producing `(region, port)`
    /// pairs. Because rules are prioritised, each rule's effective match is
    /// intersected with the complement of earlier rules only implicitly: the
    /// standard HSA implementation (and this one) over-approximates by not
    /// subtracting earlier matches, which is sound for reachability
    /// upper-bounds and is what the runtime comparison exercises.
    pub fn apply(&self, input: &Ternary) -> Vec<(Ternary, usize)> {
        let mut out = Vec::new();
        for rule in &self.rules {
            if let Some(matched) = input.intersect(&rule.matches) {
                let result = match &rule.rewrite {
                    Some(rw) => matched.rewrite(rw),
                    None => matched,
                };
                out.push((result, rule.out_port));
            }
        }
        out
    }
}

/// A node in the HSA network graph.
#[derive(Clone, Debug)]
pub struct HsaNode {
    /// Node name.
    pub name: String,
    /// The node's transfer function.
    pub tf: TransferFunction,
}

/// The HSA network: nodes plus links `(node, out_port) → node`.
#[derive(Clone, Debug, Default)]
pub struct HsaNetwork {
    /// Nodes.
    pub nodes: Vec<HsaNode>,
    links: BTreeMap<(usize, usize), usize>,
}

/// A reachability result: the header-space region arriving at a node's
/// unlinked output port.
#[derive(Clone, Debug)]
pub struct HsaPath {
    /// Final node index.
    pub node: usize,
    /// Final output port.
    pub port: usize,
    /// Nodes visited along the way.
    pub hops: Vec<usize>,
    /// The surviving header-space region.
    pub region: Ternary,
}

impl HsaNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        HsaNetwork::default()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self, name: impl Into<String>, tf: TransferFunction) -> usize {
        self.nodes.push(HsaNode {
            name: name.into(),
            tf,
        });
        self.nodes.len() - 1
    }

    /// Links `(from, out_port)` to `to`.
    pub fn add_link(&mut self, from: usize, out_port: usize, to: usize) {
        self.links.insert((from, out_port), to);
    }

    /// Propagates a header-space region from `start` and returns every region
    /// that reaches an unlinked output port. `max_hops` bounds loops.
    pub fn reachability(&self, start: usize, input: Ternary, max_hops: usize) -> Vec<HsaPath> {
        let mut results = Vec::new();
        let mut worklist = vec![(start, input, vec![start], 0usize)];
        while let Some((node, region, hops, depth)) = worklist.pop() {
            if depth > max_hops {
                continue;
            }
            for (out_region, port) in self.nodes[node].tf.apply(&region) {
                match self.links.get(&(node, port)) {
                    Some(&next) => {
                        let mut next_hops = hops.clone();
                        next_hops.push(next);
                        worklist.push((next, out_region, next_hops, depth + 1));
                    }
                    None => results.push(HsaPath {
                        node,
                        port,
                        hops: hops.clone(),
                        region: out_region,
                    }),
                }
            }
        }
        results
    }
}

/// Header layout used when translating router FIBs into transfer functions:
/// only the 32-bit destination address matters for the Table 3 workload.
pub const IPV4_DST_OFFSET: u32 = 0;
/// Width of the HSA header used for the router workload.
pub const ROUTER_HEADER_WIDTH: u32 = 32;

/// Builds a transfer function from `(prefix, prefix_len, port)` routes,
/// longest prefix first.
pub fn router_transfer_function(routes: &[(u32, u8, usize)]) -> TransferFunction {
    let mut sorted: Vec<_> = routes.to_vec();
    sorted.sort_by_key(|(_, len, _)| std::cmp::Reverse(*len));
    TransferFunction {
        rules: sorted
            .into_iter()
            .map(|(prefix, len, port)| Rule {
                matches: Ternary::any(ROUTER_HEADER_WIDTH).with_prefix(
                    IPV4_DST_OFFSET,
                    32,
                    prefix as u64,
                    len as u32,
                ),
                rewrite: None,
                out_port: port,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_field_and_intersection() {
        let a = Ternary::any(32).with_field(0, 8, 0x0a);
        let b = Ternary::any(32).with_field(8, 8, 0x01);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.constrained_bits(), 16);
        // Conflicting constraints do not intersect.
        let c = Ternary::any(32).with_field(0, 8, 0x0b);
        assert!(a.intersect(&c).is_none());
        // Intersection with itself is itself.
        assert_eq!(a.intersect(&a), Some(a.clone()));
    }

    #[test]
    fn prefix_matches_constrain_only_top_bits() {
        let p = Ternary::any(32).with_prefix(0, 32, 0x0a000000, 8);
        assert_eq!(p.constrained_bits(), 8);
        let full = Ternary::any(32).with_prefix(0, 32, 0xc0a80101, 32);
        assert_eq!(full.constrained_bits(), 32);
    }

    #[test]
    fn rewrite_overrides_bits() {
        let input = Ternary::any(32).with_field(0, 8, 0xaa);
        let rw = Ternary::any(32).with_field(0, 8, 0xbb);
        let out = input.rewrite(&rw);
        assert_eq!(out.intersect(&rw), Some(out.clone()));
        // HSA's fundamental limitation (§2): after a wildcard rewrite nothing
        // links the output bits to the input bits, so "is the header
        // invariant?" cannot even be asked of the result.
    }

    #[test]
    fn router_tf_applies_longest_prefix_first() {
        let tf = router_transfer_function(&[(0x0a000000, 8, 0), (0x0a0a0001, 32, 1)]);
        assert_eq!(tf.rules[0].out_port, 1, "most specific rule first");
        // A /32-constrained packet matches both rules (HSA over-approximates),
        // a disjoint packet matches only the /8.
        let pkt = Ternary::any(32).with_field(0, 32, 0x0a0a0001);
        assert_eq!(tf.apply(&pkt).len(), 2);
        let other = Ternary::any(32).with_field(0, 32, 0x0a000099);
        let outs = tf.apply(&other);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1, 0);
    }

    #[test]
    fn reachability_follows_links_and_stops_at_edges() {
        let mut net = HsaNetwork::new();
        let a = net.add_node("a", router_transfer_function(&[(0, 0, 0)]));
        let b = net.add_node(
            "b",
            router_transfer_function(&[(0x0a000000, 8, 0), (0, 0, 1)]),
        );
        net.add_link(a, 0, b);
        let paths = net.reachability(a, Ternary::any(32), 10);
        // Both of b's rules fire on the wildcard region.
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.node == b));
        assert!(paths.iter().any(|p| p.port == 0));
        assert!(paths.iter().any(|p| p.port == 1));
        assert!(paths.iter().all(|p| p.hops == vec![a, b]));
    }

    #[test]
    fn reachability_is_bounded_on_loops() {
        let mut net = HsaNetwork::new();
        let a = net.add_node("a", router_transfer_function(&[(0, 0, 0)]));
        let b = net.add_node("b", router_transfer_function(&[(0, 0, 0)]));
        net.add_link(a, 0, b);
        net.add_link(b, 0, a);
        let paths = net.reachability(a, Ternary::any(32), 16);
        assert!(paths.is_empty());
    }
}
