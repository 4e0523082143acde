//! The network graph: elements, ports and unidirectional links.
//!
//! "To analyze a network configuration, SymNet requires as input the
//! descriptions of all the network elements and their connections. Each
//! network element has input and output ports ... Connections are
//! unidirectional from output to input ports, so we need two pairs of ports
//! and two links for bidirectional connectivity" (§5).

use std::collections::BTreeMap;
use std::fmt;
use symnet_sefl::ElementProgram;

/// Identifier of an element inside a [`Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElementId(pub usize);

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A network: elements plus unidirectional links from output ports to input
/// ports.
#[derive(Clone, Debug, Default)]
pub struct Network {
    elements: Vec<ElementProgram>,
    /// (source element, source output port) → (destination element,
    /// destination input port).
    links: BTreeMap<(ElementId, usize), (ElementId, usize)>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds an element and returns its id.
    pub fn add_element(&mut self, program: ElementProgram) -> ElementId {
        let id = ElementId(self.elements.len());
        self.elements.push(program);
        id
    }

    /// Returns the element with the given id.
    pub fn element(&self, id: ElementId) -> &ElementProgram {
        &self.elements[id.0]
    }

    /// Replaces an element's program in place, keeping its id and links — how
    /// the resident service applies a rule delta to a copy-on-write topology
    /// snapshot. The new program must keep the old port counts (links refer
    /// to ports by index); changing the shape of an element is a topology
    /// change, not a rule delta. Panics on a port-count mismatch.
    pub fn replace_element(&mut self, id: ElementId, program: ElementProgram) {
        let old = &self.elements[id.0];
        assert_eq!(
            (old.input_count, old.output_count),
            (program.input_count, program.output_count),
            "replacement for element {id} must keep its port counts"
        );
        self.elements[id.0] = program;
    }

    /// Returns the element with the given name, if unique names are used.
    pub fn element_by_name(&self, name: &str) -> Option<ElementId> {
        self.elements
            .iter()
            .position(|e| e.name == name)
            .map(ElementId)
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Iterates over `(id, element)` pairs.
    pub fn elements(&self) -> impl Iterator<Item = (ElementId, &ElementProgram)> {
        self.elements
            .iter()
            .enumerate()
            .map(|(i, e)| (ElementId(i), e))
    }

    /// Total number of ports (input + output) across all elements — the
    /// "connected network ports" metric of §8.5.
    pub fn port_count(&self) -> usize {
        self.elements
            .iter()
            .map(|e| e.input_count + e.output_count)
            .sum()
    }

    /// Adds a unidirectional link from an output port to an input port.
    /// Panics if either port does not exist or the output port is already
    /// linked — both are construction-time modeling bugs.
    pub fn add_link(
        &mut self,
        from: ElementId,
        from_output: usize,
        to: ElementId,
        to_input: usize,
    ) {
        assert!(
            from_output < self.element(from).output_count,
            "element {from} has no output port {from_output}"
        );
        assert!(
            to_input < self.element(to).input_count,
            "element {to} has no input port {to_input}"
        );
        let previous = self.links.insert((from, from_output), (to, to_input));
        assert!(
            previous.is_none(),
            "output port {from_output} of element {from} is already linked"
        );
    }

    /// Adds a pair of links forming a bidirectional connection:
    /// `a.out[a_out] → b.in[b_in]` and `b.out[b_out] → a.in[a_in]`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_duplex_link(
        &mut self,
        a: ElementId,
        a_out: usize,
        a_in: usize,
        b: ElementId,
        b_out: usize,
        b_in: usize,
    ) {
        self.add_link(a, a_out, b, b_in);
        self.add_link(b, b_out, a, a_in);
    }

    /// Re-points an *existing* link at a new destination input port, keeping
    /// the source output unchanged — the topology-mutation primitive of the
    /// differential fuzzer (a cabling change or failover reroute). Panics if
    /// `(from, from_output)` is not currently linked or the target input port
    /// does not exist, both of which are mutation-generator bugs.
    pub fn rewire_link(
        &mut self,
        from: ElementId,
        from_output: usize,
        to: ElementId,
        to_input: usize,
    ) {
        assert!(
            to_input < self.element(to).input_count,
            "element {to} has no input port {to_input}"
        );
        let slot = self
            .links
            .get_mut(&(from, from_output))
            .unwrap_or_else(|| panic!("output port {from_output} of element {from} is not linked"));
        *slot = (to, to_input);
    }

    /// The destination of the link leaving `(element, output_port)`, if any.
    pub fn link_from(&self, element: ElementId, output_port: usize) -> Option<(ElementId, usize)> {
        self.links.get(&(element, output_port)).copied()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all links as `((from, out_port), (to, in_port))`.
    pub fn links(&self) -> impl Iterator<Item = ((ElementId, usize), (ElementId, usize))> + '_ {
        self.links.iter().map(|(k, v)| (*k, *v))
    }

    /// A short human-readable label for a port, used in traces and reports.
    pub fn port_label(&self, element: ElementId, input: bool, port: usize) -> String {
        let name = &self.element(element).name;
        if input {
            format!("{name}:InputPort({port})")
        } else {
            format!("{name}:OutputPort({port})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symnet_sefl::Instruction;

    fn two_element_net() -> (Network, ElementId, ElementId) {
        let mut net = Network::new();
        let a = net.add_element(
            ElementProgram::new("A", 1, 2).with_any_input_code(Instruction::forward(0)),
        );
        let b = net.add_element(
            ElementProgram::new("B", 2, 1).with_any_input_code(Instruction::forward(0)),
        );
        (net, a, b)
    }

    #[test]
    fn elements_and_lookup() {
        let (net, a, b) = two_element_net();
        assert_eq!(net.element_count(), 2);
        assert_eq!(net.element(a).name, "A");
        assert_eq!(net.element_by_name("B"), Some(b));
        assert_eq!(net.element_by_name("C"), None);
        assert_eq!(net.port_count(), 3 + 3);
    }

    #[test]
    fn links_are_unidirectional() {
        let (mut net, a, b) = two_element_net();
        net.add_link(a, 0, b, 0);
        assert_eq!(net.link_from(a, 0), Some((b, 0)));
        assert_eq!(net.link_from(a, 1), None);
        assert_eq!(net.link_from(b, 0), None);
        assert_eq!(net.link_count(), 1);
    }

    #[test]
    fn duplex_links_create_both_directions() {
        let (mut net, a, b) = two_element_net();
        net.add_duplex_link(a, 0, 0, b, 0, 0);
        assert_eq!(net.link_from(a, 0), Some((b, 0)));
        assert_eq!(net.link_from(b, 0), Some((a, 0)));
    }

    #[test]
    #[should_panic(expected = "already linked")]
    fn double_linking_an_output_port_panics() {
        let (mut net, a, b) = two_element_net();
        net.add_link(a, 0, b, 0);
        net.add_link(a, 0, b, 1);
    }

    #[test]
    #[should_panic(expected = "has no output port")]
    fn linking_missing_port_panics() {
        let (mut net, a, b) = two_element_net();
        net.add_link(a, 5, b, 0);
    }

    #[test]
    fn replace_element_keeps_ids_and_links() {
        let (mut net, a, b) = two_element_net();
        net.add_link(a, 0, b, 0);
        net.replace_element(
            a,
            ElementProgram::new("A'", 1, 2).with_any_input_code(Instruction::forward(1)),
        );
        assert_eq!(net.element(a).name, "A'");
        assert_eq!(net.link_from(a, 0), Some((b, 0)));
        assert_eq!(net.element_count(), 2);
    }

    #[test]
    #[should_panic(expected = "port counts")]
    fn replace_element_rejects_shape_changes() {
        let (mut net, a, _) = two_element_net();
        net.replace_element(a, ElementProgram::new("A'", 2, 2));
    }

    #[test]
    fn port_labels() {
        let (net, a, _) = two_element_net();
        assert_eq!(net.port_label(a, true, 0), "A:InputPort(0)");
        assert_eq!(net.port_label(a, false, 1), "A:OutputPort(1)");
    }
}
