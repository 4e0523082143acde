//! Normalisation of formulas into cubes (conjunctions of literals).
//!
//! The key trick, which is what makes the switch/router models of the paper
//! cheap to check, is that any sub-formula mentioning a *single* variable is
//! evaluated exactly into an [`IntervalSet`] instead of being split into
//! cases. A disjunction of 480,000 MAC equalities therefore becomes one
//! [`Literal::Domain`] literal with 480,000 points, not 480,000 cubes.
//!
//! Complexity contract of [`eval_single_var`]: a single-variable `And` or
//! `Or` of `n` parts takes **one** merge of its parts' ranges (one sort plus
//! a linear sweep), never a fold that copies a growing accumulator per part.
//! An `Or` unions its parts' ranges directly; an `And` unions its parts'
//! complements and complements the result. Both are O(r log r) in the total
//! range count `r`, so a router's default-route condition
//! `/0 ∧ ¬p₁ ∧ … ∧ ¬pₙ` normalises in O(n log n), not O(n²).

use crate::formula::{CmpOp, Formula};
use crate::interval::IntervalSet;
use crate::term::{SymVar, Term};
use std::collections::BTreeMap;

/// A single literal of a cube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Literal {
    /// The variable's value must lie in the given set (already clipped to the
    /// variable's width domain).
    Domain {
        /// Constrained variable.
        var: SymVar,
        /// Allowed values.
        set: IntervalSet,
    },
    /// A comparison between two different variables (with offsets):
    /// `lhs.0 + lhs.1  op  rhs.0 + rhs.1`.
    Cross {
        /// Comparison operator.
        op: CmpOp,
        /// Left variable and offset.
        lhs: (SymVar, i128),
        /// Right variable and offset.
        rhs: (SymVar, i128),
    },
}

/// A conjunction of literals. An empty cube is trivially satisfiable.
#[derive(Clone, Debug, Default)]
pub struct Cube {
    /// Per-variable domain restrictions, merged by intersection.
    pub domains: BTreeMap<SymVar, IntervalSet>,
    /// Cross-variable comparison literals. Almost every cube carries none
    /// (they only arise from genuine variable-to-variable comparisons, never
    /// from table lookups), and an empty `Vec` does not allocate.
    pub cross: Vec<Literal>,
    /// Set to true if a trivially-false literal was added.
    contradictory: bool,
}

impl Cube {
    /// Adds a domain restriction for `var`, intersecting with any existing one.
    pub fn restrict(&mut self, var: SymVar, set: IntervalSet) {
        let (lo, hi) = var.domain();
        let clipped = set.intersect(&IntervalSet::range(lo, hi));
        let entry = self
            .domains
            .entry(var)
            .or_insert_with(|| IntervalSet::range(lo, hi));
        *entry = entry.intersect(&clipped);
        if entry.is_empty() {
            self.contradictory = true;
        }
    }

    /// Adds a cross-variable literal.
    pub fn add_cross(&mut self, op: CmpOp, lhs: (SymVar, i128), rhs: (SymVar, i128)) {
        if lhs.0 == rhs.0 {
            // Same variable on both sides: the comparison is a constant.
            if !op.eval(lhs.1, rhs.1) {
                self.contradictory = true;
            }
            return;
        }
        self.cross.push(Literal::Cross { op, lhs, rhs });
    }

    /// Marks the cube as contradictory (contains `false`).
    pub fn mark_false(&mut self) {
        self.contradictory = true;
    }

    /// Returns true if the cube contains an obviously-false literal.
    pub fn is_contradictory(&self) -> bool {
        self.contradictory || self.domains.values().any(IntervalSet::is_empty)
    }

    /// Merges another cube into this one (conjunction).
    pub fn merge(&mut self, other: &Cube) {
        if other.contradictory {
            self.contradictory = true;
            return;
        }
        for (var, set) in &other.domains {
            self.restrict(*var, set.clone());
        }
        self.cross.extend(other.cross.iter().cloned());
    }
}

/// Error returned when normalisation would exceed the configured cube budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CubeOverflow {
    /// The budget that was exceeded.
    pub max_cubes: usize,
}

/// Converts a formula into a disjunction of cubes, with at most `max_cubes`
/// cubes. Returns an error if the budget would be exceeded, in which case the
/// solver reports `Unknown`.
pub fn to_cubes(formula: &Formula, max_cubes: usize) -> Result<Vec<Cube>, CubeOverflow> {
    // Fast path: formulas over zero or one variable are decided exactly.
    let vars = formula.variables();
    match vars.len() {
        0 => {
            return Ok(match eval_const(formula) {
                true => vec![Cube::default()],
                false => vec![],
            })
        }
        1 => {
            let var = *vars.iter().next().unwrap();
            let set = eval_single_var(formula, var);
            if set.is_empty() {
                return Ok(vec![]);
            }
            let mut cube = Cube::default();
            cube.restrict(var, set);
            return Ok(vec![cube]);
        }
        _ => {}
    }
    let cubes = build(formula, max_cubes)?;
    Ok(cubes
        .into_iter()
        .filter(|c| !c.is_contradictory())
        .collect())
}

/// Folds one more conjunct into an existing cube list — the incremental
/// counterpart of the `And` case of [`build`], used by the prefix-cached path
/// solver: the cubes of `P` are reused verbatim and only `part` is normalised.
/// `acc` must already be contradiction-free (as produced by [`to_cubes`] or a
/// previous `append_conjunct`).
pub(crate) fn append_conjunct(
    acc: &[Cube],
    part: &Formula,
    max_cubes: usize,
) -> Result<Vec<Cube>, CubeOverflow> {
    let part_cubes = build(part, max_cubes)?;
    if part_cubes.is_empty() {
        return Ok(Vec::new());
    }
    let mut out;
    if part_cubes.len() == 1 {
        out = acc.to_vec();
        for cube in &mut out {
            cube.merge(&part_cubes[0]);
        }
    } else {
        out = Vec::with_capacity(acc.len() * part_cubes.len());
        for a in acc {
            for b in &part_cubes {
                if out.len() >= max_cubes {
                    return Err(CubeOverflow { max_cubes });
                }
                let mut merged = a.clone();
                merged.merge(b);
                if !merged.is_contradictory() {
                    out.push(merged);
                }
            }
        }
    }
    out.retain(|c| !c.is_contradictory());
    Ok(out)
}

fn build(formula: &Formula, max_cubes: usize) -> Result<Vec<Cube>, CubeOverflow> {
    // Single-variable sub-formulas collapse to one literal.
    let vars = formula.variables();
    if vars.len() <= 1 {
        let mut cube = Cube::default();
        match vars.iter().next() {
            Some(&var) => {
                let set = eval_single_var(formula, var);
                if set.is_empty() {
                    return Ok(vec![]);
                }
                cube.restrict(var, set);
            }
            None => {
                if !eval_const(formula) {
                    return Ok(vec![]);
                }
            }
        }
        return Ok(vec![cube]);
    }

    match formula {
        Formula::True => Ok(vec![Cube::default()]),
        Formula::False => Ok(vec![]),
        Formula::Cmp { op, lhs, rhs } => {
            let mut cube = Cube::default();
            add_cmp(&mut cube, *op, *lhs, *rhs);
            Ok(if cube.is_contradictory() {
                vec![]
            } else {
                vec![cube]
            })
        }
        Formula::PrefixMatch { .. } => unreachable!("prefix match mentions one variable"),
        Formula::Not(inner) => build(&push_not(inner), max_cubes),
        Formula::And(parts) => {
            let mut acc: Vec<Cube> = vec![Cube::default()];
            for part in parts.iter() {
                let part_cubes = build(part, max_cubes)?;
                if part_cubes.is_empty() {
                    return Ok(vec![]);
                }
                if part_cubes.len() == 1 {
                    for cube in &mut acc {
                        cube.merge(&part_cubes[0]);
                    }
                } else {
                    let mut next = Vec::with_capacity(acc.len() * part_cubes.len());
                    for a in &acc {
                        for b in &part_cubes {
                            if next.len() >= max_cubes {
                                return Err(CubeOverflow { max_cubes });
                            }
                            let mut merged = a.clone();
                            merged.merge(b);
                            if !merged.is_contradictory() {
                                next.push(merged);
                            }
                        }
                    }
                    acc = next;
                }
                acc.retain(|c| !c.is_contradictory());
                if acc.is_empty() {
                    return Ok(vec![]);
                }
            }
            Ok(acc)
        }
        Formula::Or(parts) => {
            // Group children that each mention a single variable: per variable,
            // their union is one Domain literal (so one cube).
            let mut grouped: BTreeMap<SymVar, Vec<(i128, i128)>> = BTreeMap::new();
            let mut const_true = false;
            let mut rest: Vec<&Formula> = Vec::new();
            for part in parts.iter() {
                let pv = part.variables();
                match pv.len() {
                    0 => {
                        if eval_const(part) {
                            const_true = true;
                        }
                    }
                    1 => {
                        let var = *pv.iter().next().unwrap();
                        let set = eval_single_var(part, var);
                        grouped.entry(var).or_default().extend(set.iter_ranges());
                    }
                    _ => rest.push(part),
                }
            }
            if const_true {
                return Ok(vec![Cube::default()]);
            }
            let mut out: Vec<Cube> = Vec::new();
            for (var, ranges) in grouped {
                let set = IntervalSet::from_ranges(ranges);
                if set.is_empty() {
                    continue;
                }
                let mut cube = Cube::default();
                cube.restrict(var, set);
                out.push(cube);
            }
            for part in rest {
                let cubes = build(part, max_cubes)?;
                if out.len() + cubes.len() > max_cubes {
                    return Err(CubeOverflow { max_cubes });
                }
                out.extend(cubes);
            }
            Ok(out)
        }
    }
}

/// Adds a comparison atom to a cube, classifying it as a domain restriction
/// (one side constant) or a cross-variable literal.
fn add_cmp(cube: &mut Cube, op: CmpOp, lhs: Term, rhs: Term) {
    match (lhs, rhs) {
        (Term::Const(a), Term::Const(b)) => {
            if !op.eval(a, b) {
                cube.mark_false();
            }
        }
        (Term::Var { var, offset }, Term::Const(c)) => {
            cube.restrict(var, cmp_to_set(op, var, c - offset));
        }
        (Term::Const(c), Term::Var { var, offset }) => {
            cube.restrict(var, cmp_to_set(op.swap(), var, c - offset));
        }
        (
            Term::Var {
                var: va,
                offset: oa,
            },
            Term::Var {
                var: vb,
                offset: ob,
            },
        ) => {
            cube.add_cross(op, (va, oa), (vb, ob));
        }
    }
}

/// The set of values `x` of `var` with `x op bound`.
fn cmp_to_set(op: CmpOp, var: SymVar, bound: i128) -> IntervalSet {
    let (lo, hi) = var.domain();
    match op {
        CmpOp::Eq => IntervalSet::point(bound).intersect(&IntervalSet::range(lo, hi)),
        CmpOp::Ne => IntervalSet::range(lo, hi).remove_point(bound),
        CmpOp::Lt => IntervalSet::range(lo, hi.min(bound - 1)),
        CmpOp::Le => IntervalSet::range(lo, hi.min(bound)),
        CmpOp::Gt => IntervalSet::range(lo.max(bound + 1), hi),
        CmpOp::Ge => IntervalSet::range(lo.max(bound), hi),
    }
}

/// Exact evaluation of a formula that mentions at most the single variable
/// `var`, as the set of values of `var` satisfying it.
pub fn eval_single_var(formula: &Formula, var: SymVar) -> IntervalSet {
    let (lo, hi) = var.domain();
    let full = IntervalSet::range(lo, hi);
    match formula {
        Formula::True => full,
        Formula::False => IntervalSet::empty(),
        Formula::Cmp { op, lhs, rhs } => match (lhs, rhs) {
            (Term::Const(a), Term::Const(b)) => {
                if op.eval(*a, *b) {
                    full
                } else {
                    IntervalSet::empty()
                }
            }
            (Term::Var { offset, .. }, Term::Const(c)) => {
                cmp_to_set(*op, var, c - offset).intersect(&full)
            }
            (Term::Const(c), Term::Var { offset, .. }) => {
                cmp_to_set(op.swap(), var, c - offset).intersect(&full)
            }
            (Term::Var { offset: oa, .. }, Term::Var { offset: ob, .. }) => {
                // Both sides are the same variable (the caller guarantees only
                // one variable occurs), so the comparison is constant.
                if op.eval(*oa, *ob) {
                    full
                } else {
                    IntervalSet::empty()
                }
            }
        },
        Formula::PrefixMatch {
            value, prefix_len, ..
        } => prefix_to_set(var, *value, *prefix_len),
        Formula::And(parts) => {
            // De Morgan, ⋂ Sᵢ = ¬⋃ ¬Sᵢ: collect the ranges every conjunct
            // excludes and merge them in one pass. A fold of intersections
            // copies the accumulator per conjunct, which is quadratic on an
            // LPM exclusion `/0 ∧ ¬p₁ ∧ … ∧ ¬pₙ`.
            let mut excluded = Vec::with_capacity(parts.len());
            for p in parts.iter() {
                excluded.extend(eval_single_var(p, var).complement(lo, hi).iter_ranges());
            }
            IntervalSet::from_ranges(excluded).complement(lo, hi)
        }
        Formula::Or(parts) => {
            // Collect the ranges of every disjunct and merge them in one pass:
            // an incremental fold of unions would be quadratic in the number of
            // disjuncts, which matters for 100k+-entry MAC-table constraints.
            let mut ranges = Vec::with_capacity(parts.len());
            for p in parts.iter() {
                ranges.extend(eval_single_var(p, var).iter_ranges());
            }
            IntervalSet::from_ranges(ranges)
        }
        Formula::Not(inner) => eval_single_var(inner, var).complement(lo, hi),
    }
}

/// The set of values of `var` whose top `prefix_len` bits match `value`.
pub fn prefix_to_set(var: SymVar, value: u64, prefix_len: u8) -> IntervalSet {
    let width = var.width;
    let plen = prefix_len.min(width);
    if plen == 0 {
        let (lo, hi) = var.domain();
        return IntervalSet::range(lo, hi);
    }
    let host_bits = width - plen;
    let max = var.max_value();
    let base = (value & max) >> host_bits << host_bits;
    let top = if host_bits >= 64 {
        u64::MAX
    } else {
        base | ((1u64 << host_bits) - 1)
    };
    IntervalSet::range(base as i128, top as i128)
}

fn eval_const(formula: &Formula) -> bool {
    formula
        .eval(&|_| None)
        .expect("formula without variables must evaluate")
}

/// Negation pushed one level down, used when normalising `Not` of a compound
/// formula (comparison atoms are already negated by [`Formula::not`]).
fn push_not(inner: &Formula) -> Formula {
    match inner {
        Formula::True => Formula::False,
        Formula::False => Formula::True,
        Formula::Cmp { op, lhs, rhs } => Formula::Cmp {
            op: op.negate(),
            lhs: *lhs,
            rhs: *rhs,
        },
        Formula::PrefixMatch { .. } => Formula::Not(std::sync::Arc::new(inner.clone())),
        Formula::And(parts) => Formula::or(parts.iter().cloned().map(Formula::not).collect()),
        Formula::Or(parts) => Formula::and(parts.iter().cloned().map(Formula::not).collect()),
        Formula::Not(f) => (**f).clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    fn v(id: u64, w: u8) -> SymVar {
        SymVar::new(id, w)
    }

    #[test]
    fn constant_formulas() {
        assert_eq!(to_cubes(&Formula::True, 10).unwrap().len(), 1);
        assert!(to_cubes(&Formula::False, 10).unwrap().is_empty());
    }

    #[test]
    fn single_var_or_is_one_cube() {
        let x = v(0, 48);
        let macs: Vec<Formula> = (0..10_000u64)
            .map(|m| Formula::eq_const(x, m * 7))
            .collect();
        let f = Formula::or(macs);
        let cubes = to_cubes(&f, 4).unwrap();
        assert_eq!(cubes.len(), 1);
        let set = &cubes[0].domains[&x];
        assert_eq!(set.cardinality(), 10_000);
    }

    #[test]
    fn negated_single_var_or() {
        let x = v(0, 8);
        let f = Formula::not(Formula::or(vec![
            Formula::eq_const(x, 3),
            Formula::eq_const(x, 5),
        ]));
        let cubes = to_cubes(&f, 4).unwrap();
        assert_eq!(cubes.len(), 1);
        let set = &cubes[0].domains[&x];
        assert!(!set.contains(3));
        assert!(!set.contains(5));
        assert!(set.contains(4));
        assert_eq!(set.cardinality(), 254);
    }

    #[test]
    fn prefix_match_to_set() {
        let ip = v(0, 32);
        let s = prefix_to_set(ip, 0x0a000000, 8);
        assert!(s.contains(0x0a000000));
        assert!(s.contains(0x0affffff));
        assert!(!s.contains(0x0b000000));
        assert_eq!(s.cardinality(), 1 << 24);
        // /32 is a point.
        let p = prefix_to_set(ip, 0xc0a80101, 32);
        assert_eq!(p.cardinality(), 1);
        // /0 is everything.
        let all = prefix_to_set(ip, 0, 0);
        assert_eq!(all.cardinality(), 1u128 << 32);
    }

    #[test]
    fn cross_variable_conjunction() {
        let x = v(0, 16);
        let y = v(1, 16);
        let f = Formula::and(vec![
            Formula::eq_const(x, 100),
            Formula::cmp(CmpOp::Eq, Term::var(y), Term::var(x).plus(1)),
        ]);
        let cubes = to_cubes(&f, 16).unwrap();
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].cross.len(), 1);
        assert!(cubes[0].domains[&x].contains(100));
    }

    #[test]
    fn full_scale_mac_or_is_one_domain_literal() {
        // The module-doc claim at the paper's headline size: a disjunction of
        // 480,000 MAC equalities becomes one `Literal::Domain` with 480,000
        // points, not 480,000 cubes. Each MAC appears twice (learned, then
        // re-learned) so `Formula::or`'s dedup also runs at this scale.
        let x = v(0, 48);
        let macs: Vec<Formula> = (0..960_000u64)
            .map(|m| Formula::eq_const(x, (m % 480_000) * 2))
            .collect();
        let f = Formula::or(macs);
        match &f {
            Formula::Or(parts) => assert_eq!(parts.len(), 480_000),
            other => panic!("expected Or, got {other:?}"),
        }
        let cubes = to_cubes(&f, 4).unwrap();
        assert_eq!(cubes.len(), 1);
        assert!(cubes[0].cross.is_empty());
        assert_eq!(cubes[0].domains.len(), 1);
        assert_eq!(cubes[0].domains[&x].cardinality(), 480_000);
    }

    #[test]
    fn full_scale_lpm_exclusion_is_one_domain_literal() {
        // The egress router's default-route shape at Table 2's full size:
        // `/0 ∧ ¬p₁ ∧ … ∧ ¬p₁₈₈₅₀₀` over distinct, non-adjacent /24s (every
        // other /24 from 10.0.0.0). The result keeps the n + 1 gaps between
        // the excluded /24s, as one `Literal::Domain`, in one merge.
        let ip = v(0, 32);
        let n = 188_500u64;
        let slash24 = |i: u64| 0x0a00_0000 + (i << 9);
        let mut parts = vec![Formula::prefix_match(ip, 0, 0)];
        parts.extend((0..n).map(|i| Formula::not(Formula::prefix_match(ip, slash24(i), 24))));
        let f = Formula::and(parts);
        let cubes = to_cubes(&f, 4).unwrap();
        assert_eq!(cubes.len(), 1);
        assert!(cubes[0].cross.is_empty());
        assert_eq!(cubes[0].domains.len(), 1);
        let set = &cubes[0].domains[&ip];
        assert_eq!(set.interval_count(), n as usize + 1);
        assert_eq!(set.cardinality(), (1u128 << 32) - 256 * n as u128);
        assert!(set.contains(slash24(1) as i128 - 1));
        assert!(!set.contains(slash24(n - 1) as i128 + 255));
    }

    #[test]
    fn multi_var_or_concatenates_cubes() {
        let x = v(0, 16);
        let y = v(1, 16);
        let f = Formula::or(vec![
            Formula::eq_const(x, 1),
            Formula::eq_const(y, 2),
            Formula::eq_const(x, 3),
        ]);
        let cubes = to_cubes(&f, 16).unwrap();
        // x-literals grouped into one cube, y into another.
        assert_eq!(cubes.len(), 2);
    }

    #[test]
    fn cube_budget_is_enforced() {
        // (x0=0 | y0=0) & (x1=0 | y1=0) & ... expands multiplicatively.
        let mut parts = Vec::new();
        for i in 0..12u64 {
            parts.push(Formula::or(vec![
                Formula::eq_const(v(2 * i, 8), 0),
                Formula::eq_const(v(2 * i + 1, 8), 0),
            ]));
        }
        let f = Formula::and(parts);
        assert!(to_cubes(&f, 64).is_err());
        assert!(to_cubes(&f, 1 << 14).is_ok());
    }

    #[test]
    fn contradictory_single_var_conjunction_is_empty() {
        let x = v(0, 8);
        let f = Formula::and(vec![Formula::eq_const(x, 1), Formula::eq_const(x, 2)]);
        assert!(to_cubes(&f, 8).unwrap().is_empty());
    }

    #[test]
    fn same_var_cross_literal_folds_to_constant() {
        let x = v(0, 8);
        let mut cube = Cube::default();
        // x + 1 > x  — always true.
        cube.add_cross(CmpOp::Gt, (x, 1), (x, 0));
        assert!(!cube.is_contradictory());
        // x > x — always false.
        cube.add_cross(CmpOp::Gt, (x, 0), (x, 0));
        assert!(cube.is_contradictory());
    }
}
