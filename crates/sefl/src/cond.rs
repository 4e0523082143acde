//! Boolean conditions used by `Constrain` and `If`.

use crate::expr::Expr;
use crate::field::FieldRef;
use std::fmt;

/// Relational operators usable in SEFL conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl RelOp {
    /// The complementary operator.
    pub fn negate(self) -> RelOp {
        match self {
            RelOp::Eq => RelOp::Ne,
            RelOp::Ne => RelOp::Eq,
            RelOp::Lt => RelOp::Ge,
            RelOp::Le => RelOp::Gt,
            RelOp::Gt => RelOp::Le,
            RelOp::Ge => RelOp::Lt,
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelOp::Eq => "==",
            RelOp::Ne => "!=",
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean condition over packet fields and metadata.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Comparison between two expressions.
    Cmp {
        /// Operator.
        op: RelOp,
        /// Left-hand side.
        lhs: Expr,
        /// Right-hand side.
        rhs: Expr,
    },
    /// Longest-prefix match: the top `prefix_len` bits of the field equal the
    /// top bits of `value`. `width` is the field width the prefix refers to
    /// (32 for IPv4 prefixes, 48 for MAC prefixes, ...).
    Match {
        /// The matched field.
        field: FieldRef,
        /// Prefix value.
        value: u64,
        /// Number of leading bits that must match.
        prefix_len: u8,
        /// Width of the field the prefix refers to.
        width: u8,
    },
    /// Conjunction.
    And(Vec<Condition>),
    /// Disjunction.
    Or(Vec<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    /// `lhs op rhs` on arbitrary expressions.
    pub fn cmp(op: RelOp, lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Condition {
        Condition::Cmp {
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// `field == value`.
    pub fn eq(field: impl Into<FieldRef>, value: impl Into<Expr>) -> Condition {
        Condition::cmp(RelOp::Eq, Expr::Ref(field.into()), value)
    }

    /// `field != value`.
    pub fn ne(field: impl Into<FieldRef>, value: impl Into<Expr>) -> Condition {
        Condition::cmp(RelOp::Ne, Expr::Ref(field.into()), value)
    }

    /// `field < value`.
    pub fn lt(field: impl Into<FieldRef>, value: impl Into<Expr>) -> Condition {
        Condition::cmp(RelOp::Lt, Expr::Ref(field.into()), value)
    }

    /// `field <= value`.
    pub fn le(field: impl Into<FieldRef>, value: impl Into<Expr>) -> Condition {
        Condition::cmp(RelOp::Le, Expr::Ref(field.into()), value)
    }

    /// `field > value`.
    pub fn gt(field: impl Into<FieldRef>, value: impl Into<Expr>) -> Condition {
        Condition::cmp(RelOp::Gt, Expr::Ref(field.into()), value)
    }

    /// `field >= value`.
    pub fn ge(field: impl Into<FieldRef>, value: impl Into<Expr>) -> Condition {
        Condition::cmp(RelOp::Ge, Expr::Ref(field.into()), value)
    }

    /// Longest-prefix match on an IPv4 destination-style 32-bit field.
    pub fn matches_ipv4_prefix(
        field: impl Into<FieldRef>,
        prefix: u64,
        prefix_len: u8,
    ) -> Condition {
        Condition::Match {
            field: field.into(),
            value: prefix,
            prefix_len,
            width: 32,
        }
    }

    /// Conjunction with flattening and constant folding.
    pub fn and(parts: Vec<Condition>) -> Condition {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Condition::True => {}
                Condition::False => return Condition::False,
                Condition::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Condition::True,
            1 => out.pop().unwrap(),
            _ => Condition::And(out),
        }
    }

    /// Disjunction with flattening and constant folding.
    pub fn or(parts: Vec<Condition>) -> Condition {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Condition::False => {}
                Condition::True => return Condition::True,
                Condition::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Condition::False,
            1 => out.pop().unwrap(),
            _ => Condition::Or(out),
        }
    }

    /// Negation with folding of comparisons and double negations.
    /// (An associated constructor mirroring SEFL's `Not(...)`, not `std::ops::Not`.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(cond: Condition) -> Condition {
        match cond {
            Condition::True => Condition::False,
            Condition::False => Condition::True,
            Condition::Not(inner) => *inner,
            Condition::Cmp { op, lhs, rhs } => Condition::Cmp {
                op: op.negate(),
                lhs,
                rhs,
            },
            other => Condition::Not(Box::new(other)),
        }
    }

    /// Collects every field/metadata reference mentioned by the condition.
    pub fn references(&self) -> Vec<&FieldRef> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a FieldRef>) {
        match self {
            Condition::True | Condition::False => {}
            Condition::Cmp { lhs, rhs, .. } => {
                out.extend(lhs.references());
                out.extend(rhs.references());
            }
            Condition::Match { field, .. } => out.push(field),
            Condition::And(parts) | Condition::Or(parts) => {
                for p in parts {
                    p.collect_refs(out);
                }
            }
            Condition::Not(inner) => inner.collect_refs(out),
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::True => write!(f, "true"),
            Condition::False => write!(f, "false"),
            Condition::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Condition::Match {
                field,
                value,
                prefix_len,
                ..
            } => write!(f, "{field} in {value}/{prefix_len}"),
            Condition::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Condition::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Condition::Not(inner) => write!(f, "!({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relop_negation_is_involutive() {
        for op in [
            RelOp::Eq,
            RelOp::Ne,
            RelOp::Lt,
            RelOp::Le,
            RelOp::Gt,
            RelOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn builders_produce_expected_shape() {
        let c = Condition::eq(FieldRef::meta("TcpDst"), 80u64);
        match &c {
            Condition::Cmp { op, lhs, rhs } => {
                assert_eq!(*op, RelOp::Eq);
                assert_eq!(*lhs, Expr::Ref(FieldRef::meta("TcpDst")));
                assert_eq!(*rhs, Expr::Const(80));
            }
            _ => panic!("expected comparison"),
        }
        assert_eq!(c.references().len(), 1);
    }

    #[test]
    fn and_or_folding() {
        let a = Condition::eq(FieldRef::meta("a"), 1u64);
        assert_eq!(Condition::and(vec![]), Condition::True);
        assert_eq!(Condition::or(vec![]), Condition::False);
        assert_eq!(Condition::and(vec![Condition::True, a.clone()]), a);
        assert_eq!(
            Condition::and(vec![a.clone(), Condition::False]),
            Condition::False
        );
        assert_eq!(
            Condition::or(vec![Condition::True, a.clone()]),
            Condition::True
        );
    }

    #[test]
    fn negation_folds_comparisons() {
        let c = Condition::lt(FieldRef::meta("ttl"), 1u64);
        let n = Condition::not(c);
        match n {
            Condition::Cmp { op, .. } => assert_eq!(op, RelOp::Ge),
            _ => panic!("expected comparison"),
        }
        let m = Condition::matches_ipv4_prefix(FieldRef::meta("IpDst"), 0x0a000000, 8);
        assert!(matches!(Condition::not(m.clone()), Condition::Not(_)));
        assert_eq!(Condition::not(Condition::not(m.clone())), m);
    }

    #[test]
    fn display_is_readable() {
        let c = Condition::and(vec![
            Condition::eq(FieldRef::meta("IPProto"), 6u64),
            Condition::matches_ipv4_prefix(FieldRef::meta("IpDst"), 167772160, 8),
        ]);
        let s = c.to_string();
        assert!(s.contains("=="));
        assert!(s.contains("/8"));
    }
}
