//! The SEFL expression language.
//!
//! SEFL deliberately keeps expressions minimal — "referencing, subtraction,
//! addition, negation" (§5) — which is what keeps the symbolic state small
//! enough to verify whole networks. [`Expr::Symbolic`] introduces a fresh,
//! unconstrained symbolic value, which the paper's models use for NAT port
//! assignment and for the ciphertext produced by encryption.

use crate::field::FieldRef;
use std::fmt;

/// An SEFL expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant value (`ConstantValue(..)` in the paper's notation).
    Const(u64),
    /// The current value of a header field or metadata entry.
    Ref(FieldRef),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// A fresh, unconstrained symbolic value (`SymbolicValue()` in the paper).
    /// The optional width (in bits) defaults to the width of the assigned
    /// field.
    Symbolic {
        /// Optional bit width of the fresh symbol.
        width: Option<u16>,
    },
}

impl Expr {
    /// A constant expression.
    pub fn constant(value: u64) -> Self {
        Expr::Const(value)
    }

    /// A reference to a field or metadata entry.
    pub fn reference(field: impl Into<FieldRef>) -> Self {
        Expr::Ref(field.into())
    }

    /// A fresh symbolic value with the width of the assigned field.
    pub fn symbolic() -> Self {
        Expr::Symbolic { width: None }
    }

    /// A fresh symbolic value with an explicit bit width.
    pub fn symbolic_with_width(width: u16) -> Self {
        Expr::Symbolic { width: Some(width) }
    }

    /// `self + other`. (A builder method mirroring SEFL syntax; SEFL
    /// expressions deliberately do not implement the `std::ops` traits, whose
    /// `Output` machinery would obscure the tiny DSL.)
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Self {
        Expr::Add(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Self {
        Expr::Sub(Box::new(self), Box::new(other))
    }

    /// `-self`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Self {
        Expr::Neg(Box::new(self))
    }

    /// `self + constant`.
    pub fn plus(self, delta: u64) -> Self {
        self.add(Expr::Const(delta))
    }

    /// `self - constant`.
    pub fn minus(self, delta: u64) -> Self {
        self.sub(Expr::Const(delta))
    }

    /// Returns true if the expression introduces a fresh symbolic value
    /// anywhere.
    pub fn has_symbolic(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Ref(_) => false,
            Expr::Symbolic { .. } => true,
            Expr::Add(a, b) | Expr::Sub(a, b) => a.has_symbolic() || b.has_symbolic(),
            Expr::Neg(a) => a.has_symbolic(),
        }
    }

    /// Collects every field/metadata reference in the expression.
    pub fn references(&self) -> Vec<&FieldRef> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a FieldRef>) {
        match self {
            Expr::Const(_) | Expr::Symbolic { .. } => {}
            Expr::Ref(f) => out.push(f),
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            Expr::Neg(a) => a.collect_refs(out),
        }
    }
}

impl From<u64> for Expr {
    fn from(value: u64) -> Self {
        Expr::Const(value)
    }
}

impl From<FieldRef> for Expr {
    fn from(field: FieldRef) -> Self {
        Expr::Ref(field)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Ref(r) => write!(f, "{r}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Neg(a) => write!(f, "-({a})"),
            Expr::Symbolic { width: None } => write!(f, "SymbolicValue()"),
            Expr::Symbolic { width: Some(w) } => write!(f, "SymbolicValue({w})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldRef;

    #[test]
    fn builders_compose() {
        let f = FieldRef::meta("x");
        let e = Expr::reference(f.clone()).plus(5).minus(2);
        assert!(matches!(e, Expr::Sub(_, _)));
        assert_eq!(e.references(), vec![&f]);
        assert!(!e.has_symbolic());
    }

    #[test]
    fn symbolic_detection() {
        let e = Expr::reference(FieldRef::meta("x")).add(Expr::symbolic());
        assert!(e.has_symbolic());
        assert!(Expr::symbolic_with_width(16).has_symbolic());
        assert!(!Expr::constant(3).has_symbolic());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::reference(FieldRef::meta("len")).plus(20);
        assert_eq!(e.to_string(), "(\"len\" + 20)");
        assert_eq!(Expr::constant(7).neg().to_string(), "-(7)");
        assert_eq!(Expr::symbolic().to_string(), "SymbolicValue()");
    }

    #[test]
    fn conversions() {
        let from_u64: Expr = 9u64.into();
        assert_eq!(from_u64, Expr::Const(9));
        let from_field: Expr = FieldRef::meta("k").into();
        assert_eq!(from_field, Expr::Ref(FieldRef::meta("k")));
    }
}
