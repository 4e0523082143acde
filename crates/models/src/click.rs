//! A library of Click modular-router elements modeled in SEFL (§7.1).
//!
//! The paper models "a large subset of the elements of the Click modular
//! router" both to validate that SEFL is expressive enough and to compose
//! larger boxes (firewalls, NATs, the ASA). The elements here are the ones the
//! evaluation exercises, plus the deliberately buggy variants that the
//! automated-testing framework of §8.3 catches (`*_buggy`).

use symnet_sefl::cond::Condition;
use symnet_sefl::expr::Expr;
use symnet_sefl::field::FieldRef;
use symnet_sefl::fields::{
    ether_dst, ether_src, ether_type, ethernet_fields, ethertype, ip_dst, ip_src, ip_ttl, tcp_dst,
    tcp_src, vlan_id, ETHERNET_HEADER_BITS, TAG_L2, TAG_L3,
};
use symnet_sefl::{ElementProgram, HeaderAddr, Instruction};

/// `IPMirror`: swaps the IP source/destination addresses and the transport
/// ports — used to model return traffic in unidirectional test setups (§8.3).
pub fn ip_mirror(name: &str) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::allocate_local_meta("tmp-ip", 32),
        Instruction::assign(FieldRef::meta("tmp-ip"), Expr::reference(ip_src().field())),
        Instruction::assign(ip_src().field(), Expr::reference(ip_dst().field())),
        Instruction::assign(ip_dst().field(), Expr::reference(FieldRef::meta("tmp-ip"))),
        Instruction::allocate_local_meta("tmp-port", 16),
        Instruction::assign(
            FieldRef::meta("tmp-port"),
            Expr::reference(tcp_src().field()),
        ),
        Instruction::assign(tcp_src().field(), Expr::reference(tcp_dst().field())),
        Instruction::assign(
            tcp_dst().field(),
            Expr::reference(FieldRef::meta("tmp-port")),
        ),
        Instruction::forward(0),
    ]))
}

/// The buggy `IPMirror` model found by automated testing: it mirrors the IP
/// addresses but forgets the transport ports.
pub fn ip_mirror_buggy(name: &str) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::allocate_local_meta("tmp-ip", 32),
        Instruction::assign(FieldRef::meta("tmp-ip"), Expr::reference(ip_src().field())),
        Instruction::assign(ip_src().field(), Expr::reference(ip_dst().field())),
        Instruction::assign(ip_dst().field(), Expr::reference(FieldRef::meta("tmp-ip"))),
        Instruction::forward(0),
    ]))
}

/// `DecIPTTL` (fixed model): drop packets whose TTL is already 0, then
/// decrement. This is the corrected ordering from §8.3: constrain first, then
/// decrement, so the unsigned wrap-around can never happen.
pub fn dec_ip_ttl(name: &str) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::constrain(Condition::ge(ip_ttl().field(), 1u64)),
        Instruction::assign(ip_ttl().field(), Expr::reference(ip_ttl().field()).minus(1)),
        Instruction::forward(0),
    ]))
}

/// The original, buggy `DecIPTTL` model: decrement first, then require the
/// result to be positive. Because the decrement of a symbolic TTL is modeled
/// without wrap-around, the `TTL-1 >= 1` constraint silently excludes TTL 1
/// packets and never models the TTL 0 wrap-around of the real code — SymNet
/// reported a single path instead of the expected two (§8.3).
pub fn dec_ip_ttl_buggy(name: &str) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::assign(ip_ttl().field(), Expr::reference(ip_ttl().field()).minus(1)),
        Instruction::constrain(Condition::ge(ip_ttl().field(), 1u64)),
        Instruction::forward(0),
    ]))
}

/// `HostEtherFilter`: only admits frames destined to the host's MAC address.
pub fn host_ether_filter(name: &str, mac: u64) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::constrain(Condition::eq(ether_dst().field(), mac)),
        Instruction::forward(0),
    ]))
}

/// The buggy `HostEtherFilter` of §8.3: it checks the EtherType field instead
/// of the destination address.
pub fn host_ether_filter_buggy(name: &str, mac: u64) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::constrain(Condition::eq(ether_type().field(), mac)),
        Instruction::forward(0),
    ]))
}

/// `IPClassifier`: forwards the packet on the first output port whose filter
/// condition matches (Click's first-match semantics). Packets matching no
/// filter are dropped.
pub fn ip_classifier(name: &str, filters: Vec<Condition>) -> ElementProgram {
    let outputs = filters.len().max(1);
    let mut code = Instruction::fail("no filter matched");
    for (port, cond) in filters.into_iter().enumerate().rev() {
        code = Instruction::if_else(cond, Instruction::forward(port), code);
    }
    ElementProgram::new(name, 1, outputs).with_any_input_code(code)
}

/// `EtherEncap`: prepends an Ethernet header with the given addresses and
/// EtherType (creating the `L2` tag in front of `L3`).
pub fn ether_encap(name: &str, src: u64, dst: u64, etype: u64) -> ElementProgram {
    let mut code = vec![Instruction::create_tag(
        TAG_L2,
        HeaderAddr::tag_offset(TAG_L3, -ETHERNET_HEADER_BITS),
    )];
    for f in ethernet_fields() {
        code.push(Instruction::allocate_header(f.addr.clone(), f.width));
    }
    code.extend([
        Instruction::assign(ether_src().field(), Expr::constant(src)),
        Instruction::assign(ether_dst().field(), Expr::constant(dst)),
        Instruction::assign(ether_type().field(), Expr::constant(etype)),
        Instruction::forward(0),
    ]);
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(code))
}

/// `Strip(14)` as used for Ethernet: removes the Ethernet header and the `L2`
/// tag, leaving an L3 packet.
pub fn ether_strip(name: &str) -> ElementProgram {
    let mut code = Vec::new();
    for f in ethernet_fields() {
        code.push(Instruction::deallocate_checked(
            FieldRef::Header(f.addr.clone()),
            f.width,
        ));
    }
    code.push(Instruction::destroy_tag(TAG_L2));
    code.push(Instruction::forward(0));
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(code))
}

/// `VLANEncap`: tags the frame with a VLAN id. The original EtherType is saved
/// in metadata, the EtherType becomes 0x8100 and the VLAN id is stored in a
/// dedicated field allocated behind the Ethernet header.
pub fn vlan_encap(name: &str, vlan: u64) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::allocate_meta("orig-ethertype", 16),
        Instruction::assign(
            FieldRef::meta("orig-ethertype"),
            Expr::reference(ether_type().field()),
        ),
        Instruction::assign(ether_type().field(), Expr::constant(ethertype::VLAN)),
        Instruction::allocate_header(vlan_id().addr.clone(), vlan_id().width),
        Instruction::assign(vlan_id().field(), Expr::constant(vlan)),
        Instruction::forward(0),
    ]))
}

/// `VLANDecap`: removes the VLAN tag. The frame must actually be tagged
/// (EtherType 0x8100); otherwise the path fails — exactly the check that
/// exposed the §8.4 "missing VLAN tagging" problem.
pub fn vlan_decap(name: &str) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::block(vec![
        Instruction::constrain(Condition::eq(ether_type().field(), ethertype::VLAN)),
        Instruction::assign(
            ether_type().field(),
            Expr::reference(FieldRef::meta("orig-ethertype")),
        ),
        Instruction::deallocate(vlan_id().field()),
        Instruction::deallocate(FieldRef::meta("orig-ethertype")),
        Instruction::forward(0),
    ]))
}

/// A plain wire/host endpoint that forwards everything — used as sources and
/// sinks in the scenario topologies.
pub fn wire(name: &str) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::forward(0))
}

/// A sink that accepts every packet (an unlinked output port ends the path).
pub fn sink(name: &str) -> ElementProgram {
    ElementProgram::new(name, 1, 1).with_any_input_code(Instruction::forward(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symnet_core::engine::SymNet;
    use symnet_core::network::Network;
    use symnet_core::verify::{field_invariant, values_equal, Tristate};
    use symnet_sefl::packet::{symbolic_l3_tcp_packet, symbolic_tcp_packet};
    use symnet_solver::Solver;

    fn run_one(
        program: ElementProgram,
        packet: &Instruction,
    ) -> (symnet_core::engine::ExecutionReport, symnet_core::ElementId) {
        let mut net = Network::new();
        let id = net.add_element(program);
        let engine = SymNet::new(net);
        (engine.inject(id, 0, packet), id)
    }

    #[test]
    fn ip_mirror_swaps_addresses_and_ports() {
        let (report, _) = run_one(ip_mirror("m"), &symbolic_tcp_packet());
        let path = report.delivered().next().unwrap();
        let mut solver = Solver::default();
        let orig_src = report
            .injected
            .read_field(&ip_src().field(), "")
            .unwrap()
            .value;
        let new_dst = path.state.read_field(&ip_dst().field(), "").unwrap().value;
        assert_eq!(
            values_equal(
                &mut solver,
                &path.state.path_condition(),
                &orig_src,
                &new_dst
            ),
            Tristate::Always
        );
        let orig_sport = report
            .injected
            .read_field(&tcp_src().field(), "")
            .unwrap()
            .value;
        let new_dport = path.state.read_field(&tcp_dst().field(), "").unwrap().value;
        assert_eq!(
            values_equal(
                &mut solver,
                &path.state.path_condition(),
                &orig_sport,
                &new_dport
            ),
            Tristate::Always
        );
    }

    #[test]
    fn buggy_ip_mirror_leaves_ports_unswapped() {
        let (report, _) = run_one(ip_mirror_buggy("m"), &symbolic_tcp_packet());
        let path = report.delivered().next().unwrap();
        // Ports are untouched: TcpSrc is still the original TcpSrc.
        assert_eq!(
            field_invariant(&report.injected, path, &tcp_src().field()),
            Ok(Tristate::Always)
        );
        // Addresses were swapped, so IpSrc is NOT invariant in general.
        assert_eq!(
            field_invariant(&report.injected, path, &ip_src().field()),
            Ok(Tristate::Sometimes)
        );
    }

    #[test]
    fn dec_ip_ttl_produces_two_outcomes() {
        // Fixed model: one delivered path (TTL >= 1) and, with a TTL-0 packet,
        // a dropped path.
        let (report, _) = run_one(dec_ip_ttl("ttl"), &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 1);
        let ttl0 = Instruction::block(vec![
            symbolic_tcp_packet(),
            Instruction::assign(ip_ttl().field(), Expr::constant(0)),
        ]);
        let (report, _) = run_one(dec_ip_ttl("ttl"), &ttl0);
        assert_eq!(report.delivered().count(), 0);
    }

    #[test]
    fn buggy_dec_ip_ttl_admits_every_ttl_value() {
        // The bug: with the constraint applied after the decrement, the
        // delivered path requires original TTL >= 2, and a TTL-1 packet is
        // silently dropped rather than being forwarded with a wrapped TTL.
        let ttl1 = Instruction::block(vec![
            symbolic_tcp_packet(),
            Instruction::assign(ip_ttl().field(), Expr::constant(1)),
        ]);
        let (buggy, _) = run_one(dec_ip_ttl_buggy("ttl"), &ttl1);
        assert_eq!(buggy.delivered().count(), 0);
        // The fixed model forwards the TTL-1 packet (decremented to 0).
        let (fixed, _) = run_one(dec_ip_ttl("ttl"), &ttl1);
        assert_eq!(fixed.delivered().count(), 1);
    }

    #[test]
    fn host_ether_filter_checks_the_right_field() {
        let mac = 0x00aa00aa00aa;
        let pkt = Instruction::block(vec![
            symbolic_tcp_packet(),
            Instruction::assign(ether_dst().field(), Expr::constant(mac)),
        ]);
        let (ok_report, _) = run_one(host_ether_filter("f", mac), &pkt);
        assert_eq!(ok_report.delivered().count(), 1);
        // The buggy variant compares the EtherType to the MAC and drops it.
        let (bad_report, _) = run_one(host_ether_filter_buggy("f", mac), &pkt);
        assert_eq!(bad_report.delivered().count(), 0);
    }

    #[test]
    fn ip_classifier_uses_first_match_semantics() {
        let classifier = ip_classifier(
            "c",
            vec![
                Condition::eq(tcp_dst().field(), 80u64),
                Condition::ge(tcp_dst().field(), 0u64), // catch-all
            ],
        );
        let (report, id) = run_one(classifier, &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 2);
        // Port 1 (catch-all) excludes what port 0 matched.
        let path1 = report.delivered_at(id, 1).next().unwrap();
        let allowed = symnet_core::verify::allowed_values(path1, &tcp_dst().field()).unwrap();
        assert!(!allowed.contains(80));
        let path0 = report.delivered_at(id, 0).next().unwrap();
        let allowed = symnet_core::verify::allowed_values(path0, &tcp_dst().field()).unwrap();
        assert_eq!(allowed.cardinality(), 1);
    }

    #[test]
    fn ether_encap_and_strip_round_trip() {
        let mut net = Network::new();
        let strip = net.add_element(ether_strip("strip"));
        let encap = net.add_element(ether_encap("encap", 0x1, 0x2, ethertype::IPV4));
        net.add_link(strip, 0, encap, 0);
        let engine = SymNet::new(net);
        let report = engine.inject(strip, 0, &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 1);
        let path = report.delivered().next().unwrap();
        let dst = path.state.read_field(&ether_dst().field(), "").unwrap();
        assert_eq!(dst.value, symnet_core::Value::Concrete(0x2));
        // The IP payload is untouched by the L2 rewrite.
        assert_eq!(
            field_invariant(&report.injected, path, &ip_dst().field()),
            Ok(Tristate::Always)
        );
    }

    #[test]
    fn vlan_encap_decap_round_trip_and_missing_tag_detection() {
        // Tag then untag: EtherType is restored.
        let mut net = Network::new();
        let tag = net.add_element(vlan_encap("tag", 302));
        let untag = net.add_element(vlan_decap("untag"));
        net.add_link(tag, 0, untag, 0);
        let engine = SymNet::new(net);
        let report = engine.inject(tag, 0, &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 1);
        let path = report.delivered().next().unwrap();
        assert_eq!(
            path.state
                .read_field(&ether_type().field(), "")
                .unwrap()
                .value,
            symnet_core::Value::Concrete(ethertype::IPV4)
        );
        // Untagging an untagged frame fails (§8.4 missing VLAN tagging).
        let (report, _) = run_one(vlan_decap("untag"), &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 0);
    }

    #[test]
    fn l3_packets_work_with_ether_encap() {
        let (report, _) = run_one(
            ether_encap("encap", 0x1, 0x2, ethertype::IPV4),
            &symbolic_l3_tcp_packet(),
        );
        assert_eq!(report.delivered().count(), 1);
    }

    #[test]
    fn wire_and_sink_forward_everything() {
        let (report, _) = run_one(wire("w"), &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 1);
        let (report, _) = run_one(sink("s"), &symbolic_tcp_packet());
        assert_eq!(report.delivered().count(), 1);
    }
}
