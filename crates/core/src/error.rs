//! Execution errors and path termination reasons.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An error raised while executing a single SEFL instruction. Errors do not
/// abort the analysis: they terminate the execution path that raised them,
/// exactly as the paper specifies ("the execution path fails").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecError {
    /// A header access referenced a tag that does not exist.
    UnknownTag(String),
    /// A header access hit an address with no live allocation — e.g. reading
    /// an L4 field of an IP-in-IP packet before decapsulation (§7).
    Unallocated {
        /// The offending bit address.
        address: i64,
    },
    /// An allocation would overlap an existing live allocation at a different
    /// address (broken encapsulation layout).
    Overlap {
        /// The requested bit address.
        address: i64,
        /// Requested width in bits.
        width: u16,
        /// The conflicting existing allocation's address.
        existing: i64,
    },
    /// `Deallocate` found a different width than the one it expected.
    WidthMismatch {
        /// Expected width in bits.
        expected: u16,
        /// Actual allocated width in bits.
        actual: u16,
    },
    /// A metadata entry was read or written without being allocated.
    UnknownMetadata(String),
    /// `CreateTag` was given an address that does not evaluate to a concrete
    /// value, or an expression used an unsupported operand combination (e.g.
    /// the sum of two symbolic values).
    Unsupported(String),
    /// An instruction was used in a place the engine does not allow (e.g.
    /// `Forward` inside output-port code).
    ModelError(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTag(tag) => write!(f, "unknown tag \"{tag}\""),
            ExecError::Unallocated { address } => {
                write!(f, "access to unallocated header address {address}")
            }
            ExecError::Overlap {
                address,
                width,
                existing,
            } => write!(
                f,
                "allocation of {width} bits at {address} overlaps allocation at {existing}"
            ),
            ExecError::WidthMismatch { expected, actual } => {
                write!(
                    f,
                    "deallocation width mismatch: expected {expected}, found {actual}"
                )
            }
            ExecError::UnknownMetadata(key) => write!(f, "unknown metadata \"{key}\""),
            ExecError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            ExecError::ModelError(msg) => write!(f, "model error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A run-level failure of the execution engine. Unlike [`ExecError`], which
/// terminates a single symbolic path, an `EngineError` aborts the whole
/// analysis: no report is produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A scheduler worker (on its own thread or the caller's) panicked while
    /// processing a path — a defect in a model or in the engine itself. The
    /// engine catches the first panic, stops the scheduler, drains the
    /// remaining workers cleanly and surfaces the panic message here instead
    /// of cascading poisoned-mutex panics through the whole pool.
    WorkerPanicked {
        /// The panic payload, rendered as text (`"<non-string panic>"` when
        /// the payload is neither `&str` nor `String`).
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanicked { message } => {
                write!(f, "engine worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Why an execution path terminated without being delivered.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The model called `Fail(msg)`.
    Failed(String),
    /// A `Constrain` made the path condition unsatisfiable.
    Unsatisfiable(String),
    /// An `If` branch whose assumed condition is infeasible (this is pruning,
    /// not an error; such paths are hidden from reports by default).
    InfeasibleBranch,
    /// A header-memory-safety violation or other execution error.
    Memory(String),
    /// The input-port code finished without forwarding the packet.
    NotForwarded,
    /// The per-path hop budget was exhausted.
    HopLimit,
    /// The Figure 5 state-inclusion check found a loop.
    Loop,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::Failed(msg) => write!(f, "Fail(\"{msg}\")"),
            DropReason::Unsatisfiable(detail) => write!(f, "unsatisfiable constraint: {detail}"),
            DropReason::InfeasibleBranch => write!(f, "infeasible branch"),
            DropReason::Memory(detail) => write!(f, "memory safety violation: {detail}"),
            DropReason::NotForwarded => write!(f, "packet not forwarded"),
            DropReason::HopLimit => write!(f, "hop limit exceeded"),
            DropReason::Loop => write!(f, "loop detected"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_readably() {
        assert!(ExecError::UnknownTag("L4".into())
            .to_string()
            .contains("L4"));
        assert!(ExecError::Unallocated { address: 128 }
            .to_string()
            .contains("128"));
        assert!(ExecError::WidthMismatch {
            expected: 32,
            actual: 16
        }
        .to_string()
        .contains("32"));
        assert!(DropReason::Failed("Mac unknown".into())
            .to_string()
            .contains("Mac unknown"));
        assert!(DropReason::Loop.to_string().contains("loop"));
    }
}
