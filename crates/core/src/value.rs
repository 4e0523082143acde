//! Values stored in packet headers and metadata.
//!
//! A value is either concrete or symbolic-plus-offset. Keeping the offset in
//! the value (rather than allocating a fresh symbol for `x + 20`) is what lets
//! the engine express SEFL's arithmetic (`Assign(IpLength, IpLength + 20)`)
//! without growing the constraint store, mirroring the paper's observation
//! that SEFL only needs referencing, addition, subtraction and negation.

use std::fmt;
use symnet_solver::{SymVar, Term};

/// A concrete or symbolic value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// A concrete value.
    Concrete(u64),
    /// A symbolic variable plus a signed offset.
    Sym {
        /// The symbolic variable.
        var: SymVar,
        /// Offset added to the variable.
        offset: i64,
    },
}

impl Value {
    /// A fresh symbolic value with no offset.
    pub fn symbolic(var: SymVar) -> Self {
        Value::Sym { var, offset: 0 }
    }

    /// A concrete value.
    pub fn concrete(value: u64) -> Self {
        Value::Concrete(value)
    }

    /// Returns the concrete value, if this value is concrete.
    pub fn as_concrete(&self) -> Option<u64> {
        match self {
            Value::Concrete(v) => Some(*v),
            Value::Sym { .. } => None,
        }
    }

    /// Returns the underlying symbolic variable, if any.
    pub fn as_symbolic(&self) -> Option<SymVar> {
        match self {
            Value::Concrete(_) => None,
            Value::Sym { var, .. } => Some(*var),
        }
    }

    /// True if the value is symbolic.
    pub fn is_symbolic(&self) -> bool {
        matches!(self, Value::Sym { .. })
    }

    /// Adds a signed offset to the value. Concrete values wrap modulo
    /// 2^`width` like real header fields do; symbolic values carry the offset.
    pub fn offset_by(&self, delta: i64, width: u16) -> Value {
        match self {
            Value::Concrete(v) => {
                let mask = width_mask(width);
                Value::Concrete((v.wrapping_add(delta as u64)) & mask)
            }
            Value::Sym { var, offset } => Value::Sym {
                var: *var,
                offset: offset + delta,
            },
        }
    }

    /// Converts the value into a solver term.
    pub fn to_term(&self) -> Term {
        match self {
            Value::Concrete(v) => Term::Const(*v as i128),
            Value::Sym { var, offset } => Term::Var {
                var: *var,
                offset: *offset as i128,
            },
        }
    }

    /// Evaluates the value under a concrete assignment of symbolic variables.
    pub fn eval(&self, lookup: impl Fn(SymVar) -> Option<u64>) -> Option<u64> {
        match self {
            Value::Concrete(v) => Some(*v),
            Value::Sym { var, offset } => {
                lookup(*var).map(|v| (v as i128 + *offset as i128).max(0) as u64)
            }
        }
    }

    /// True if two values are *syntactically* identical (same constant, or
    /// same symbol with the same offset). This is the cheap invariance check:
    /// an untouched field keeps the very same symbolic value across hops.
    pub fn same_value(&self, other: &Value) -> bool {
        self == other
    }
}

/// Bit mask with the lowest `width` bits set.
pub fn width_mask(width: u16) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Concrete(v) => write!(f, "{v}"),
            Value::Sym { var, offset } if *offset == 0 => write!(f, "{var}"),
            Value::Sym { var, offset } if *offset > 0 => write!(f, "{var}+{offset}"),
            Value::Sym { var, offset } => write!(f, "{var}{offset}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_offset_wraps_at_width() {
        let ttl = Value::concrete(0);
        assert_eq!(ttl.offset_by(-1, 8), Value::Concrete(255));
        let v = Value::concrete(250);
        assert_eq!(v.offset_by(10, 8), Value::Concrete(4));
        assert_eq!(v.offset_by(10, 16), Value::Concrete(260));
    }

    #[test]
    fn symbolic_offset_accumulates() {
        let var = SymVar::new(1, 16);
        let v = Value::symbolic(var).offset_by(20, 16).offset_by(-5, 16);
        assert_eq!(v, Value::Sym { var, offset: 15 });
        assert!(v.is_symbolic());
        assert_eq!(v.as_symbolic(), Some(var));
        assert_eq!(v.as_concrete(), None);
    }

    #[test]
    fn to_term_round_trips() {
        let var = SymVar::new(2, 32);
        assert_eq!(Value::concrete(7).to_term(), Term::Const(7));
        assert_eq!(
            Value::Sym { var, offset: -3 }.to_term(),
            Term::Var { var, offset: -3 }
        );
    }

    #[test]
    fn eval_under_assignment() {
        let var = SymVar::new(3, 16);
        let v = Value::Sym { var, offset: 5 };
        assert_eq!(v.eval(|_| Some(10)), Some(15));
        assert_eq!(v.eval(|_| None), None);
        assert_eq!(Value::concrete(9).eval(|_| None), Some(9));
    }

    #[test]
    fn width_mask_limits() {
        assert_eq!(width_mask(8), 0xff);
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(64), u64::MAX);
    }

    #[test]
    fn same_value_is_syntactic() {
        let a = SymVar::new(1, 8);
        let b = SymVar::new(2, 8);
        assert!(Value::symbolic(a).same_value(&Value::symbolic(a)));
        assert!(!Value::symbolic(a).same_value(&Value::symbolic(b)));
        assert!(!Value::symbolic(a).same_value(&Value::symbolic(a).offset_by(1, 8)));
    }
}
