//! The SEFL instruction set (Table 2 of the paper).
//!
//! Every instruction implicitly takes the current execution state (the packet)
//! as input and outputs a new state; `If` and `Fork` may spawn additional
//! execution paths, `Constrain` and `Fail` may terminate the current one.

use crate::cond::Condition;
use crate::expr::Expr;
use crate::field::{FieldRef, HeaderAddr, Visibility};
use std::fmt;

/// A single SEFL instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Instruction {
    /// `Allocate(v[,s,m])` — allocates a new value stack for `v` of `width`
    /// bits. Header allocations require a width; metadata allocations default
    /// to 64 bits and accept a visibility.
    Allocate {
        /// The allocated header field or metadata entry.
        field: FieldRef,
        /// Width in bits (mandatory for header fields).
        width: Option<u16>,
        /// Metadata visibility (ignored for header fields).
        visibility: Visibility,
    },
    /// `Deallocate(v[,s])` — pops the topmost value stack of `v`; if a width is
    /// given it is checked against the allocated width and the path fails on a
    /// mismatch.
    Deallocate {
        /// The deallocated field.
        field: FieldRef,
        /// Expected width in bits, checked if present.
        width: Option<u16>,
    },
    /// `Assign(v, e)` — symbolically evaluates `e` and assigns the result to
    /// `v`, clearing all constraints that applied to `v`'s previous value.
    Assign {
        /// Target field.
        field: FieldRef,
        /// Assigned expression.
        expr: Expr,
    },
    /// `CreateTag(t, e)` — creates tag `t` at the (concrete) bit address `e`.
    CreateTag {
        /// Tag name.
        name: String,
        /// Address: absolute or relative to an existing tag.
        value: HeaderAddr,
    },
    /// `DestroyTag(t)` — removes tag `t`.
    DestroyTag {
        /// Tag name.
        name: String,
    },
    /// `Constrain(cond)` — ensures the condition always holds on this path;
    /// the path fails if it cannot. Crucially this does *not* branch.
    Constrain(Condition),
    /// `Fail(msg)` — stops the current path and records `msg`.
    Fail(String),
    /// `If(cond, i1, i2)` — forks the state: one path assumes `cond` and runs
    /// `i1`, the other assumes `!cond` and runs `i2`.
    If {
        /// Branch condition.
        cond: Condition,
        /// Instruction executed when `cond` holds.
        then_branch: Box<Instruction>,
        /// Instruction executed when `cond` does not hold.
        else_branch: Box<Instruction>,
    },
    /// `For(v in pattern, instr)` — binds `v` to every metadata key matching
    /// `pattern` (a glob with `*` wildcards over a snapshot of the keys) and
    /// executes `instr` for each match. The loop is unfolded before execution
    /// and never branches.
    For {
        /// Loop variable; inside the body, metadata key `var` resolves to the
        /// matched key.
        var: String,
        /// Glob pattern over metadata keys (`*` matches any substring).
        pattern: String,
        /// Loop body.
        body: Box<Instruction>,
    },
    /// `Forward(i)` — sends the packet to output port `i` of the current
    /// element.
    Forward(usize),
    /// `Fork(i1, i2, ...)` — duplicates the packet and forwards one copy to
    /// each listed output port.
    Fork(Vec<usize>),
    /// `InstructionBlock(i, ...)` — executes the instructions in order.
    Block(Vec<Instruction>),
    /// `NoOp` — does nothing.
    NoOp,
    /// `Abort(msg)` — a testing/fuzzing poison pill: the interpreter panics
    /// when it reaches this instruction. Unlike [`Instruction::Fail`], which
    /// terminates one execution *path*, `Abort` simulates a defect in a model
    /// or in the engine itself (the kind of panic the executor must survive
    /// without deadlocking its worker pool). Used by the engine's
    /// panic-safety tests and by differential fuzzing; never emitted by the
    /// shipped models.
    Abort(String),
}

impl Instruction {
    /// Allocates a header field of `width` bits.
    pub fn allocate_header(addr: HeaderAddr, width: u16) -> Instruction {
        Instruction::Allocate {
            field: FieldRef::Header(addr),
            width: Some(width),
            visibility: Visibility::Global,
        }
    }

    /// Allocates a global metadata entry.
    pub fn allocate_meta(key: impl Into<String>, width: u16) -> Instruction {
        Instruction::Allocate {
            field: FieldRef::meta(key),
            width: Some(width),
            visibility: Visibility::Global,
        }
    }

    /// Allocates a metadata entry local to the current element instance (the
    /// paper's `Allocate("orig-ip", 32, local)`).
    pub fn allocate_local_meta(key: impl Into<String>, width: u16) -> Instruction {
        Instruction::Allocate {
            field: FieldRef::meta(key),
            width: Some(width),
            visibility: Visibility::Local,
        }
    }

    /// Deallocates a field without a width check.
    pub fn deallocate(field: impl Into<FieldRef>) -> Instruction {
        Instruction::Deallocate {
            field: field.into(),
            width: None,
        }
    }

    /// Deallocates a field, checking the allocated width.
    pub fn deallocate_checked(field: impl Into<FieldRef>, width: u16) -> Instruction {
        Instruction::Deallocate {
            field: field.into(),
            width: Some(width),
        }
    }

    /// Assigns an expression to a field.
    pub fn assign(field: impl Into<FieldRef>, expr: impl Into<Expr>) -> Instruction {
        Instruction::Assign {
            field: field.into(),
            expr: expr.into(),
        }
    }

    /// Creates a tag.
    pub fn create_tag(name: impl Into<String>, value: HeaderAddr) -> Instruction {
        Instruction::CreateTag {
            name: name.into(),
            value,
        }
    }

    /// Destroys a tag.
    pub fn destroy_tag(name: impl Into<String>) -> Instruction {
        Instruction::DestroyTag { name: name.into() }
    }

    /// Constrains the current path (no branching).
    pub fn constrain(cond: Condition) -> Instruction {
        Instruction::Constrain(cond)
    }

    /// Fails the current path with a message.
    pub fn fail(msg: impl Into<String>) -> Instruction {
        Instruction::Fail(msg.into())
    }

    /// A poison pill that panics the interpreter when executed (see
    /// [`Instruction::Abort`]).
    pub fn abort(msg: impl Into<String>) -> Instruction {
        Instruction::Abort(msg.into())
    }

    /// An `If` with both branches.
    pub fn if_else(
        cond: Condition,
        then_branch: Instruction,
        else_branch: Instruction,
    ) -> Instruction {
        Instruction::If {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        }
    }

    /// An `If` whose else branch is `NoOp`.
    pub fn if_then(cond: Condition, then_branch: Instruction) -> Instruction {
        Instruction::if_else(cond, then_branch, Instruction::NoOp)
    }

    /// A `For` loop over metadata keys matching a glob pattern.
    pub fn for_each(
        var: impl Into<String>,
        pattern: impl Into<String>,
        body: Instruction,
    ) -> Instruction {
        Instruction::For {
            var: var.into(),
            pattern: pattern.into(),
            body: Box::new(body),
        }
    }

    /// Forwards to an output port.
    pub fn forward(port: usize) -> Instruction {
        Instruction::Forward(port)
    }

    /// Forks to several output ports.
    pub fn fork(ports: Vec<usize>) -> Instruction {
        Instruction::Fork(ports)
    }

    /// Groups instructions into a block.
    pub fn block(instructions: Vec<Instruction>) -> Instruction {
        Instruction::Block(instructions)
    }

    /// Counts the instructions in this tree (blocks and branches included).
    pub fn len(&self) -> usize {
        match self {
            Instruction::Block(instrs) => 1 + instrs.iter().map(Instruction::len).sum::<usize>(),
            Instruction::If {
                then_branch,
                else_branch,
                ..
            } => 1 + then_branch.len() + else_branch.len(),
            Instruction::For { body, .. } => 1 + body.len(),
            _ => 1,
        }
    }

    /// Returns true when the instruction tree is a bare `NoOp`.
    pub fn is_empty(&self) -> bool {
        matches!(self, Instruction::NoOp)
    }

    /// The maximum number of execution paths this instruction tree can create
    /// from a single incoming path, ignoring path failures. This is the
    /// "branching factor" the paper's §7 models are optimised for; model tests
    /// assert it stays at or below the number of output ports.
    pub fn max_branching(&self) -> usize {
        match self {
            Instruction::If {
                then_branch,
                else_branch,
                ..
            } => then_branch.max_branching() + else_branch.max_branching(),
            Instruction::Fork(ports) => ports.len().max(1),
            Instruction::Block(instrs) => instrs
                .iter()
                .map(Instruction::max_branching)
                .fold(1usize, |acc, b| acc.saturating_mul(b)),
            Instruction::For { body, .. } => body.max_branching(),
            _ => 1,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Allocate {
                field,
                width,
                visibility,
            } => match width {
                Some(w) => match visibility {
                    Visibility::Local => write!(f, "Allocate({field},{w},local)"),
                    Visibility::Global => write!(f, "Allocate({field},{w})"),
                },
                None => write!(f, "Allocate({field})"),
            },
            Instruction::Deallocate { field, width } => match width {
                Some(w) => write!(f, "Deallocate({field},{w})"),
                None => write!(f, "Deallocate({field})"),
            },
            Instruction::Assign { field, expr } => write!(f, "Assign({field},{expr})"),
            Instruction::CreateTag { name, value } => write!(f, "CreateTag(\"{name}\",{value})"),
            Instruction::DestroyTag { name } => write!(f, "DestroyTag(\"{name}\")"),
            Instruction::Constrain(cond) => write!(f, "Constrain({cond})"),
            Instruction::Fail(msg) => write!(f, "Fail(\"{msg}\")"),
            Instruction::If {
                cond,
                then_branch,
                else_branch,
            } => write!(f, "If({cond}, {then_branch}, {else_branch})"),
            Instruction::For { var, pattern, body } => {
                write!(f, "For({var} in \"{pattern}\", {body})")
            }
            Instruction::Forward(port) => write!(f, "Forward(OutputPort({port}))"),
            Instruction::Fork(ports) => {
                write!(f, "Fork(")?;
                for (i, p) in ports.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "OutputPort({p})")?;
                }
                write!(f, ")")
            }
            Instruction::Block(instrs) => {
                write!(f, "InstructionBlock(")?;
                for (i, instr) in instrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{instr}")?;
                }
                write!(f, ")")
            }
            Instruction::NoOp => write!(f, "NoOp"),
            Instruction::Abort(msg) => write!(f, "Abort(\"{msg}\")"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Condition;
    use crate::field::FieldRef;

    #[test]
    fn builders_produce_expected_variants() {
        let i = Instruction::allocate_local_meta("orig-ip", 32);
        match i {
            Instruction::Allocate {
                visibility: Visibility::Local,
                width: Some(32),
                ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(Instruction::forward(1), Instruction::Forward(1)));
        assert!(Instruction::NoOp.is_empty());
        assert!(!Instruction::fail("x").is_empty());
    }

    #[test]
    fn len_counts_nested_instructions() {
        let block = Instruction::block(vec![
            Instruction::NoOp,
            Instruction::if_else(
                Condition::True,
                Instruction::NoOp,
                Instruction::block(vec![Instruction::NoOp, Instruction::NoOp]),
            ),
        ]);
        // outer block(1) + NoOp(1) + If(1) + then NoOp(1) + else block(1) + 2*NoOp(2) = 7
        assert_eq!(block.len(), 7);
    }

    #[test]
    fn branching_factor_of_paper_models() {
        // Constrain-based filtering does not branch.
        let constrain = Instruction::block(vec![
            Instruction::constrain(Condition::eq(FieldRef::meta("TcpDst"), 80u64)),
            Instruction::forward(0),
        ]);
        assert_eq!(constrain.max_branching(), 1);
        // The egress switch model forks once per output port.
        let egress = Instruction::fork(vec![0, 1, 2, 3]);
        assert_eq!(egress.max_branching(), 4);
        // The ingress model's nested Ifs produce one path per port too.
        let ingress = Instruction::if_else(
            Condition::True,
            Instruction::forward(0),
            Instruction::if_else(
                Condition::True,
                Instruction::forward(1),
                Instruction::fail("unknown"),
            ),
        );
        assert_eq!(ingress.max_branching(), 3);
    }

    #[test]
    fn display_matches_paper_syntax() {
        let i = Instruction::constrain(Condition::eq(FieldRef::meta("TcpDst"), 80u64));
        assert_eq!(i.to_string(), "Constrain(\"TcpDst\" == 80)");
        let fwd = Instruction::forward(2);
        assert_eq!(fwd.to_string(), "Forward(OutputPort(2))");
        let fork = Instruction::fork(vec![0, 1]);
        assert_eq!(fork.to_string(), "Fork(OutputPort(0),OutputPort(1))");
    }
}
