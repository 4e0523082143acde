//! Constraint formulas.
//!
//! A [`Formula`] is the solver-facing representation of an SEFL path
//! condition: atoms are comparisons between [`Term`]s or prefix matches on a
//! single variable, composed with `and` / `or` / `not`. The execution engine
//! lowers SEFL `Constrain` / `If` conditions into this type.

use crate::term::{SymVar, Term, VarId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Comparison operators supported by SEFL conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
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

impl CmpOp {
    /// The operator accepting exactly the complement set of value pairs.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with both sides swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluates the comparison on concrete values.
    pub fn eval(self, lhs: i128, rhs: i128) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean formula over comparison and prefix-match atoms.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Formula {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Comparison between two terms.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left-hand side.
        lhs: Term,
        /// Right-hand side.
        rhs: Term,
    },
    /// Longest-prefix / bit-mask match on a single variable: the top
    /// `prefix_len` bits of the variable equal the top bits of `value`.
    PrefixMatch {
        /// The matched variable.
        var: SymVar,
        /// Prefix value, aligned to the variable width (host bits ignored).
        value: u64,
        /// Number of leading bits that must match.
        prefix_len: u8,
    },
    /// Conjunction. Children are `Arc`-shared so cloning an `And` (which the
    /// engine does every time a path condition is materialized or memoized)
    /// is a reference-count bump, not a deep copy.
    And(Arc<Vec<Formula>>),
    /// Disjunction. `Arc`-shared for the same reason — the `--full` paper
    /// workloads build disjunctions with hundreds of thousands of children.
    Or(Arc<Vec<Formula>>),
    /// Negation.
    Not(Arc<Formula>),
}

/// Appends `f` to `out` unless a structurally identical child is already
/// present. Small lists use a plain linear scan (no allocation); larger ones
/// lazily build a hash index over the accumulated children.
fn push_unique(out: &mut Vec<Formula>, index: &mut Option<HashMap<u64, Vec<u32>>>, f: Formula) {
    // Threshold below which a linear equality scan beats building an index.
    const LINEAR_MAX: usize = 8;
    fn hash_of(f: &Formula) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        f.hash(&mut h);
        h.finish()
    }
    if index.is_none() {
        if out.len() < LINEAR_MAX {
            if !out.contains(&f) {
                out.push(f);
            }
            return;
        }
        // Crossing the threshold: index everything accumulated so far.
        let mut map: HashMap<u64, Vec<u32>> = HashMap::with_capacity(out.len() * 2);
        for (i, existing) in out.iter().enumerate() {
            map.entry(hash_of(existing)).or_default().push(i as u32);
        }
        *index = Some(map);
    }
    let map = index.as_mut().expect("index built above");
    let bucket = map.entry(hash_of(&f)).or_default();
    if bucket.iter().any(|&i| out[i as usize] == f) {
        return;
    }
    bucket.push(out.len() as u32);
    out.push(f);
}

impl Formula {
    /// Comparison between arbitrary terms.
    pub fn cmp(op: CmpOp, lhs: impl Into<Term>, rhs: impl Into<Term>) -> Formula {
        Formula::Cmp {
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// `var op constant`.
    pub fn cmp_const(op: CmpOp, var: SymVar, value: u64) -> Formula {
        Formula::cmp(op, Term::var(var), Term::constant(value as i128))
    }

    /// `var == constant`.
    pub fn eq_const(var: SymVar, value: u64) -> Formula {
        Formula::cmp_const(CmpOp::Eq, var, value)
    }

    /// `var != constant`.
    pub fn ne_const(var: SymVar, value: u64) -> Formula {
        Formula::cmp_const(CmpOp::Ne, var, value)
    }

    /// Prefix match on a variable: the top `prefix_len` bits of `var` equal the
    /// top bits of `value`.
    pub fn prefix_match(var: SymVar, value: u64, prefix_len: u8) -> Formula {
        Formula::PrefixMatch {
            var,
            value,
            prefix_len: prefix_len.min(var.width),
        }
    }

    /// Conjunction with flattening, constant folding, and deduplication of
    /// structurally identical children (first occurrence wins).
    ///
    /// The report writer of `symnet-core` prints a path condition as this
    /// function would build it, without calling it: one level of flattening,
    /// `True` skipped, `False` absorbing, first-wins structural dedup. A
    /// change to that contract must change the writer with it; the property
    /// test in `tests/report_format.rs` compares the two.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::with_capacity(parts.len());
        let mut index = None;
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => match Arc::try_unwrap(inner) {
                    Ok(inner) => {
                        for q in inner {
                            push_unique(&mut out, &mut index, q);
                        }
                    }
                    Err(shared) => {
                        for q in shared.iter() {
                            push_unique(&mut out, &mut index, q.clone());
                        }
                    }
                },
                other => push_unique(&mut out, &mut index, other),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().unwrap(),
            _ => Formula::And(Arc::new(out)),
        }
    }

    /// Disjunction with flattening, constant folding, and deduplication of
    /// structurally identical children (first occurrence wins).
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::with_capacity(parts.len());
        let mut index = None;
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => match Arc::try_unwrap(inner) {
                    Ok(inner) => {
                        for q in inner {
                            push_unique(&mut out, &mut index, q);
                        }
                    }
                    Err(shared) => {
                        for q in shared.iter() {
                            push_unique(&mut out, &mut index, q.clone());
                        }
                    }
                },
                other => push_unique(&mut out, &mut index, other),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.pop().unwrap(),
            _ => Formula::Or(Arc::new(out)),
        }
    }

    /// Negation with constant folding and double-negation elimination.
    /// (Deliberately an associated constructor, not `std::ops::Not`: it takes
    /// the formula by value and mirrors the paper's `Not(...)` syntax.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => Arc::try_unwrap(inner).unwrap_or_else(|a| (*a).clone()),
            Formula::Cmp { op, lhs, rhs } => Formula::Cmp {
                op: op.negate(),
                lhs,
                rhs,
            },
            other => Formula::Not(Arc::new(other)),
        }
    }

    /// Collects every variable mentioned in the formula.
    pub fn variables(&self) -> BTreeSet<SymVar> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<SymVar>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Cmp { lhs, rhs, .. } => {
                if let Some(v) = lhs.as_var() {
                    out.insert(v);
                }
                if let Some(v) = rhs.as_var() {
                    out.insert(v);
                }
            }
            Formula::PrefixMatch { var, .. } => {
                out.insert(*var);
            }
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts.iter() {
                    p.collect_vars(out);
                }
            }
            Formula::Not(inner) => inner.collect_vars(out),
        }
    }

    /// Returns the number of atoms (comparisons and prefix matches) in the
    /// formula. Used by the evaluation harness to report constraint counts the
    /// way §8.1 of the paper does.
    pub fn atom_count(&self) -> usize {
        match self {
            Formula::True | Formula::False => 0,
            Formula::Cmp { .. } | Formula::PrefixMatch { .. } => 1,
            Formula::And(parts) | Formula::Or(parts) => parts.iter().map(Formula::atom_count).sum(),
            Formula::Not(inner) => inner.atom_count(),
        }
    }

    /// Evaluates the formula under a concrete assignment. Returns `None` if a
    /// referenced variable has no value in the assignment.
    pub fn eval(&self, lookup: &impl Fn(VarId) -> Option<u64>) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(lookup)?;
                let r = rhs.eval(lookup)?;
                Some(op.eval(l, r))
            }
            Formula::PrefixMatch {
                var,
                value,
                prefix_len,
            } => {
                let x = lookup(var.id)?;
                let shift = var.width.saturating_sub(*prefix_len);
                Some((x >> shift) == (*value & var.max_value()) >> shift)
            }
            Formula::And(parts) => {
                let mut all = true;
                for p in parts.iter() {
                    match p.eval(lookup) {
                        Some(true) => {}
                        Some(false) => all = false,
                        None => return None,
                    }
                }
                Some(all)
            }
            Formula::Or(parts) => {
                let mut any = false;
                for p in parts.iter() {
                    match p.eval(lookup) {
                        Some(true) => any = true,
                        Some(false) => {}
                        None => return None,
                    }
                }
                Some(any)
            }
            Formula::Not(inner) => inner.eval(lookup).map(|b| !b),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Cmp { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Formula::PrefixMatch {
                var,
                value,
                prefix_len,
            } => write!(f, "({var} in {value}/{prefix_len})"),
            Formula::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Not(inner) => write!(f, "!{inner}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(id: u64, w: u8) -> SymVar {
        SymVar::new(id, w)
    }

    #[test]
    fn cmp_op_negate_and_swap() {
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.swap(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.swap(), CmpOp::Eq);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn and_or_fold_constants() {
        let a = Formula::eq_const(v(0, 8), 1);
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::and(vec![Formula::True, a.clone()]), a);
        assert_eq!(
            Formula::and(vec![a.clone(), Formula::False]),
            Formula::False
        );
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::or(vec![Formula::False, a.clone()]), a);
        assert_eq!(Formula::or(vec![a.clone(), Formula::True]), Formula::True);
    }

    #[test]
    fn and_or_flatten_nested() {
        let a = Formula::eq_const(v(0, 8), 1);
        let b = Formula::eq_const(v(1, 8), 2);
        let c = Formula::eq_const(v(2, 8), 3);
        let nested = Formula::and(vec![a.clone(), Formula::and(vec![b.clone(), c.clone()])]);
        assert_eq!(nested, Formula::And(Arc::new(vec![a, b, c])));
    }

    #[test]
    fn and_or_dedup_identical_children() {
        let a = Formula::eq_const(v(0, 8), 1);
        let b = Formula::eq_const(v(1, 8), 2);
        // Duplicates collapse, first occurrence order is preserved.
        assert_eq!(
            Formula::and(vec![a.clone(), b.clone(), a.clone()]),
            Formula::And(Arc::new(vec![a.clone(), b.clone()]))
        );
        // A fully duplicated list collapses to the single child.
        assert_eq!(Formula::or(vec![a.clone(), a.clone(), a.clone()]), a);
        // Dedup also applies across flattened nesting and past the linear
        // threshold (more than 8 accumulated children).
        let many: Vec<Formula> = (0..20)
            .map(|i| Formula::eq_const(v(i % 10, 8), i % 10))
            .collect();
        let deduped = Formula::or(many);
        match &deduped {
            Formula::Or(parts) => assert_eq!(parts.len(), 10),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn not_pushes_into_comparisons() {
        let a = Formula::cmp_const(CmpOp::Lt, v(0, 8), 10);
        assert_eq!(Formula::not(a), Formula::cmp_const(CmpOp::Ge, v(0, 8), 10));
        let b = Formula::or(vec![
            Formula::eq_const(v(0, 8), 1),
            Formula::eq_const(v(1, 8), 2),
        ]);
        assert_eq!(Formula::not(Formula::not(b.clone())), b);
        assert_eq!(Formula::not(Formula::True), Formula::False);
    }

    #[test]
    fn variables_are_collected() {
        let f = Formula::and(vec![
            Formula::eq_const(v(3, 8), 1),
            Formula::cmp(CmpOp::Ne, Term::var(v(5, 16)), Term::var(v(3, 8))),
            Formula::prefix_match(v(9, 32), 0x0a000000, 8),
        ]);
        let vars: Vec<u64> = f.variables().iter().map(|s| s.id.0).collect();
        assert_eq!(vars, vec![3, 5, 9]);
        assert_eq!(f.atom_count(), 3);
    }

    #[test]
    fn eval_concrete() {
        let x = v(0, 16);
        let y = v(1, 16);
        let f = Formula::and(vec![
            Formula::cmp_const(CmpOp::Ge, x, 10),
            Formula::cmp(CmpOp::Eq, Term::var(y), Term::var(x).plus(5)),
        ]);
        let lookup = |id: VarId| -> Option<u64> {
            match id.0 {
                0 => Some(20),
                1 => Some(25),
                _ => None,
            }
        };
        assert_eq!(f.eval(&lookup), Some(true));
        let lookup2 = |id: VarId| -> Option<u64> {
            match id.0 {
                0 => Some(20),
                1 => Some(26),
                _ => None,
            }
        };
        assert_eq!(f.eval(&lookup2), Some(false));
        let partial = |id: VarId| -> Option<u64> { (id.0 == 0).then_some(20) };
        assert_eq!(f.eval(&partial), None);
    }

    #[test]
    fn eval_prefix_match() {
        let ip = v(0, 32);
        // 10.0.0.0/8
        let f = Formula::prefix_match(ip, 0x0a000000, 8);
        let in_prefix = |_: VarId| Some(0x0a0a0001u64);
        let out_prefix = |_: VarId| Some(0x0b000001u64);
        assert_eq!(f.eval(&in_prefix), Some(true));
        assert_eq!(f.eval(&out_prefix), Some(false));
        // /0 matches everything.
        let any = Formula::prefix_match(ip, 0, 0);
        assert_eq!(any.eval(&out_prefix), Some(true));
    }

    #[test]
    fn display_round_trips_structure() {
        let x = v(0, 16);
        let f = Formula::or(vec![Formula::eq_const(x, 80), Formula::eq_const(x, 443)]);
        let s = f.to_string();
        assert!(s.contains("=="));
        assert!(s.contains('|'));
    }
}
