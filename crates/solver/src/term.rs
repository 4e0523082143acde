//! Symbolic variables and terms.
//!
//! A [`SymVar`] is a process-unique symbolic value of a fixed bit width (the
//! width of the packet-header field or metadata slot it was created for). A
//! [`Term`] is either a constant or a variable plus a signed offset — the only
//! arithmetic SEFL supports (§5: "SymNet (via SEFL) only supports simple
//! expressions (referencing, subtraction, addition, negation)").

use std::fmt;

/// Identifier of a symbolic variable. Allocated by the execution engine; the
/// solver treats it as opaque.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u64);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A symbolic variable together with its bit width.
///
/// The width bounds the variable's domain to `[0, 2^width - 1]`. Widths above
/// 64 bits are clamped to 64: SEFL models treat large opaque fields (e.g. the
/// TCP payload after encryption) as a single unbounded-looking symbol, and 64
/// bits of freedom is enough to distinguish "fresh unconstrained symbol" from
/// any concrete content in every analysis the paper performs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymVar {
    /// Unique identifier.
    pub id: VarId,
    /// Bit width of the variable (1..=64).
    pub width: u8,
}

impl SymVar {
    /// Creates a variable with the given raw id and bit width (clamped to 1..=64).
    pub fn new(id: u64, width: u8) -> Self {
        SymVar {
            id: VarId(id),
            width: width.clamp(1, 64),
        }
    }

    /// Maximum value representable in this variable's width.
    pub fn max_value(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// The full domain of the variable as an inclusive `(lo, hi)` pair.
    pub fn domain(&self) -> (i128, i128) {
        (0, self.max_value() as i128)
    }
}

impl fmt::Debug for SymVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.id, self.width)
    }
}

impl fmt::Display for SymVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// A term: either a constant or `variable + offset`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant integer value.
    Const(i128),
    /// A symbolic variable plus a signed constant offset.
    Var {
        /// The variable.
        var: SymVar,
        /// Offset added to the variable's value.
        offset: i128,
    },
}

impl Term {
    /// A term referencing `var` with no offset.
    pub fn var(var: SymVar) -> Self {
        Term::Var { var, offset: 0 }
    }

    /// A constant term.
    pub fn constant<T: Into<i128>>(value: T) -> Self {
        Term::Const(value.into())
    }

    /// Adds a constant offset to this term.
    pub fn plus(self, delta: i128) -> Self {
        match self {
            Term::Const(c) => Term::Const(c + delta),
            Term::Var { var, offset } => Term::Var {
                var,
                offset: offset + delta,
            },
        }
    }

    /// Returns the variable referenced by this term, if any.
    pub fn as_var(&self) -> Option<SymVar> {
        match self {
            Term::Const(_) => None,
            Term::Var { var, .. } => Some(*var),
        }
    }

    /// Evaluates the term under a concrete assignment lookup.
    pub fn eval(&self, lookup: impl Fn(VarId) -> Option<u64>) -> Option<i128> {
        match self {
            Term::Const(c) => Some(*c),
            Term::Var { var, offset } => lookup(var.id).map(|v| v as i128 + offset),
        }
    }
}

impl From<i128> for Term {
    fn from(value: i128) -> Self {
        Term::Const(value)
    }
}

impl From<u64> for Term {
    fn from(value: u64) -> Self {
        Term::Const(value as i128)
    }
}

impl From<SymVar> for Term {
    fn from(var: SymVar) -> Self {
        Term::var(var)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(c) => write!(f, "{c}"),
            Term::Var { var, offset } if *offset == 0 => write!(f, "{var}"),
            Term::Var { var, offset } if *offset > 0 => write!(f, "{var}+{offset}"),
            Term::Var { var, offset } => write!(f, "{var}{offset}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symvar_width_is_clamped() {
        assert_eq!(SymVar::new(1, 0).width, 1);
        assert_eq!(SymVar::new(1, 200).width, 64);
        assert_eq!(SymVar::new(1, 32).width, 32);
    }

    #[test]
    fn symvar_max_value() {
        assert_eq!(SymVar::new(0, 1).max_value(), 1);
        assert_eq!(SymVar::new(0, 8).max_value(), 255);
        assert_eq!(SymVar::new(0, 16).max_value(), 65535);
        assert_eq!(SymVar::new(0, 64).max_value(), u64::MAX);
    }

    #[test]
    fn term_plus_folds_offsets() {
        let v = SymVar::new(3, 32);
        let t = Term::var(v).plus(10).plus(-4);
        assert_eq!(t, Term::Var { var: v, offset: 6 });
        assert_eq!(Term::Const(5).plus(3), Term::Const(8));
    }

    #[test]
    fn term_eval_uses_lookup() {
        let v = SymVar::new(7, 16);
        let t = Term::var(v).plus(20);
        assert_eq!(t.eval(|_| Some(100)), Some(120));
        assert_eq!(t.eval(|_| None), None);
        assert_eq!(Term::Const(9).eval(|_| None), Some(9));
    }

    #[test]
    fn term_display_formats() {
        let v = SymVar::new(2, 8);
        assert_eq!(Term::var(v).to_string(), "s2");
        assert_eq!(Term::var(v).plus(3).to_string(), "s2+3");
        assert_eq!(Term::var(v).plus(-3).to_string(), "s2-3");
        assert_eq!(Term::constant(42i128).to_string(), "42");
    }
}
