//! Network element programs.
//!
//! "Providing a model for a network element means specifying the number of
//! inputs and output ports and associating a set of SEFL instructions to each
//! port" (§5). An [`ElementProgram`] is exactly that: per-input-port and
//! per-output-port instruction blocks, plus optional wildcard code applied to
//! any input port (the paper's `InputPort(*)`).

use crate::instr::Instruction;
use std::collections::BTreeMap;
use std::fmt;

/// Whether a port is an input or an output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortKind {
    /// Packet enters the element here.
    Input,
    /// Packet leaves the element here.
    Output,
}

/// A port of a network element, identified by kind and index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId {
    /// Input or output.
    pub kind: PortKind,
    /// Zero-based port index within the element.
    pub index: usize,
}

impl PortId {
    /// Input port `index`.
    pub fn input(index: usize) -> Self {
        PortId {
            kind: PortKind::Input,
            index,
        }
    }

    /// Output port `index`.
    pub fn output(index: usize) -> Self {
        PortId {
            kind: PortKind::Output,
            index,
        }
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            PortKind::Input => write!(f, "InputPort({})", self.index),
            PortKind::Output => write!(f, "OutputPort({})", self.index),
        }
    }
}

/// The SEFL model of one network element.
#[derive(Clone, Debug, PartialEq)]
pub struct ElementProgram {
    /// Element name (e.g. `"switch-core"`, `"ASA"`, `"IPMirror"`).
    pub name: String,
    /// Number of input ports.
    pub input_count: usize,
    /// Number of output ports.
    pub output_count: usize,
    /// Code attached to specific input ports.
    input_code: BTreeMap<usize, Instruction>,
    /// Code attached to specific output ports.
    output_code: BTreeMap<usize, Instruction>,
    /// Code applied to every input port without specific code
    /// (`InputPort(*)` in the paper).
    any_input_code: Option<Instruction>,
}

impl ElementProgram {
    /// Creates an element with the given number of input and output ports and
    /// no code.
    pub fn new(name: impl Into<String>, input_count: usize, output_count: usize) -> Self {
        ElementProgram {
            name: name.into(),
            input_count,
            output_count,
            input_code: BTreeMap::new(),
            output_code: BTreeMap::new(),
            any_input_code: None,
        }
    }

    /// Attaches code to a specific input port. Panics if the port is out of
    /// range (that is a modeling bug, not a runtime condition).
    pub fn set_input_code(&mut self, port: usize, code: Instruction) -> &mut Self {
        assert!(port < self.input_count, "input port {port} out of range");
        self.input_code.insert(port, code);
        self
    }

    /// Attaches code to every input port that has no specific code.
    pub fn set_any_input_code(&mut self, code: Instruction) -> &mut Self {
        self.any_input_code = Some(code);
        self
    }

    /// Attaches code to a specific output port.
    pub fn set_output_code(&mut self, port: usize, code: Instruction) -> &mut Self {
        assert!(port < self.output_count, "output port {port} out of range");
        self.output_code.insert(port, code);
        self
    }

    /// Builder-style variant of [`Self::set_input_code`].
    pub fn with_input_code(mut self, port: usize, code: Instruction) -> Self {
        self.set_input_code(port, code);
        self
    }

    /// Builder-style variant of [`Self::set_any_input_code`].
    pub fn with_any_input_code(mut self, code: Instruction) -> Self {
        self.set_any_input_code(code);
        self
    }

    /// Builder-style variant of [`Self::set_output_code`].
    pub fn with_output_code(mut self, port: usize, code: Instruction) -> Self {
        self.set_output_code(port, code);
        self
    }

    /// The code executed when a packet arrives at input port `port`: the
    /// port-specific code if present, otherwise the wildcard code, otherwise
    /// `NoOp`.
    pub fn code_for_input(&self, port: usize) -> Instruction {
        self.input_code
            .get(&port)
            .or(self.any_input_code.as_ref())
            .cloned()
            .unwrap_or(Instruction::NoOp)
    }

    /// The code executed when a packet is forwarded to output port `port`
    /// (before it crosses the link), `NoOp` if none was attached.
    pub fn code_for_output(&self, port: usize) -> Instruction {
        self.output_code
            .get(&port)
            .cloned()
            .unwrap_or(Instruction::NoOp)
    }

    /// True if the given port id exists on this element.
    pub fn has_port(&self, port: PortId) -> bool {
        match port.kind {
            PortKind::Input => port.index < self.input_count,
            PortKind::Output => port.index < self.output_count,
        }
    }

    /// Upper bound on the number of execution paths a single packet can
    /// produce inside this element: the worst input-port branching times the
    /// worst output-port branching. The paper's optimised models keep this at
    /// the number of output ports.
    pub fn max_branching(&self) -> usize {
        let input_worst = (0..self.input_count)
            .map(|p| self.code_for_input(p).max_branching())
            .max()
            .unwrap_or(1);
        let output_worst = (0..self.output_count)
            .map(|p| self.code_for_output(p).max_branching())
            .max()
            .unwrap_or(1);
        input_worst.saturating_mul(output_worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Condition;
    use crate::field::FieldRef;

    #[test]
    fn port_ids_display_like_the_paper() {
        assert_eq!(PortId::input(0).to_string(), "InputPort(0)");
        assert_eq!(PortId::output(2).to_string(), "OutputPort(2)");
    }

    #[test]
    fn wildcard_input_code_is_used_as_fallback() {
        let mut e = ElementProgram::new("fw", 2, 1);
        e.set_any_input_code(Instruction::forward(0));
        e.set_input_code(1, Instruction::fail("blocked"));
        assert_eq!(e.code_for_input(0), Instruction::forward(0));
        assert_eq!(e.code_for_input(1), Instruction::fail("blocked"));
        assert_eq!(e.code_for_output(0), Instruction::NoOp);
    }

    #[test]
    fn has_port_checks_ranges() {
        let e = ElementProgram::new("sw", 2, 3);
        assert!(e.has_port(PortId::input(1)));
        assert!(!e.has_port(PortId::input(2)));
        assert!(e.has_port(PortId::output(2)));
        assert!(!e.has_port(PortId::output(3)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn setting_code_on_missing_port_panics() {
        let mut e = ElementProgram::new("sw", 1, 1);
        e.set_input_code(5, Instruction::NoOp);
    }

    #[test]
    fn element_branching_combines_input_and_output() {
        let e = ElementProgram::new("sw", 1, 3)
            .with_any_input_code(Instruction::fork(vec![0, 1, 2]))
            .with_output_code(
                0,
                Instruction::constrain(Condition::eq(FieldRef::meta("EtherDst"), 1u64)),
            );
        assert_eq!(e.max_branching(), 3);
    }
}
