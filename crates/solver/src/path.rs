//! Persistent path conditions.
//!
//! A [`PathCond`] is the solver-facing representation of an execution path's
//! accumulated constraints: an immutable cons-list of conjuncts in which every
//! extension shares its entire prefix with the condition it extends. Forking a
//! path therefore costs one `Arc` clone (O(1)) instead of a deep copy of the
//! constraint vector, and the solver can key its per-prefix analysis on the
//! shared list node: checking `P ∧ c` reuses the cube normalisation of `P`
//! (cached on `P`'s node, shared by every path that forked from it) and only
//! folds in the new conjunct `c` (see [`crate::Solver::check_path`]).
//!
//! The cached analysis lives *on the node*, guarded by a mutex that is held
//! while the analysis is computed, so two workers racing for the same prefix
//! never duplicate work. Nodes have no identity of their own: everything
//! keyed on a prefix uses its fingerprint (see [`crate::fingerprint`]), a
//! function of the conjunct sequence alone, equal in every process.

use crate::cube::{Cube, CubeOverflow};
use crate::fingerprint;
use crate::formula::Formula;
use crate::intern::{self, Interned};
use crate::solve::SolverResult;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The solver analysis cached on one prefix node.
#[derive(Debug, Default)]
pub(crate) struct NodeCache {
    /// Cube normalisation of the conjunction up to and including this node
    /// (shared with every query that extends this prefix), or the budget
    /// overflow that aborted it.
    pub(crate) cubes: Option<Result<Arc<Vec<Cube>>, CubeOverflow>>,
    /// The satisfiability verdict of exactly this prefix.
    pub(crate) result: Option<SolverResult>,
}

/// One node of a persistent path condition: the conjunct added at this point
/// plus the shared prefix it extends.
pub struct PathNode {
    formula: Interned<Formula>,
    /// Stable structural fingerprint of the whole prefix ending here: equal
    /// conjunct sequences produce equal fingerprints in every run (see
    /// [`crate::fingerprint`]), which is what keys the solver's content memos
    /// and its persistent cache.
    fp: u128,
    parent: PathCond,
    len: usize,
    cache: Mutex<NodeCache>,
}

impl PathNode {
    /// Locks the analysis cached on this node. A poisoned lock is taken over
    /// rather than propagated: each field is assigned whole, after its
    /// computation, so whatever a worker that panicked under the lock left
    /// behind is either empty or the complete answer for this prefix.
    pub(crate) fn lock_cache(&self) -> MutexGuard<'_, NodeCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The conjunct added at this node.
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The interned handle of the conjunct added at this node.
    pub fn interned_formula(&self) -> &Interned<Formula> {
        &self.formula
    }

    /// The stable structural fingerprint of the whole prefix ending at this
    /// node. It identifies the conjunct *sequence* independent of which nodes
    /// carry it, and is reproduced bit-identically by every process that
    /// builds the same sequence.
    pub fn fingerprint(&self) -> u128 {
        self.fp
    }

    /// The shared prefix this node extends.
    pub fn parent(&self) -> &PathCond {
        &self.parent
    }
}

impl fmt::Debug for PathNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathNode")
            .field("formula", &self.formula)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// A persistent (structurally shared) conjunction of formulas. Cloning and
/// extending are O(1); two conditions that forked from a common ancestor share
/// that ancestor's nodes — and the solver analyses cached on them.
#[derive(Clone, Debug, Default)]
pub struct PathCond(Option<Arc<PathNode>>);

impl PathCond {
    /// The empty (always-true) condition.
    pub fn empty() -> Self {
        PathCond(None)
    }

    /// True if no conjunct has been added.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    /// The newest node, if any.
    pub fn node(&self) -> Option<&Arc<PathNode>> {
        self.0.as_ref()
    }

    /// Returns this condition extended with one conjunct. `Formula::True` is
    /// absorbed (the condition is returned unchanged). O(1): the receiver
    /// becomes the shared prefix of the result.
    #[must_use]
    pub fn push(&self, formula: Formula) -> PathCond {
        if formula == Formula::True {
            return self.clone();
        }
        let formula = intern::intern_formula(formula);
        let fp = fingerprint::combine(
            fingerprint::DOMAIN_PATH_NODE,
            &[self.fingerprint(), formula.fingerprint()],
        );
        PathCond(Some(Arc::new(PathNode {
            formula,
            fp,
            parent: self.clone(),
            len: self.len() + 1,
            cache: Mutex::new(NodeCache::default()),
        })))
    }

    /// The stable structural fingerprint of the conjunct sequence
    /// ([`fingerprint::EMPTY_PATH_FP`] for the empty condition). Equal across
    /// independently built paths *and across processes* — see
    /// [`PathNode::fingerprint`].
    pub fn fingerprint(&self) -> u128 {
        self.0.as_ref().map_or(fingerprint::EMPTY_PATH_FP, |n| n.fp)
    }

    /// Iterates over the conjuncts, newest first.
    pub fn iter(&self) -> PathIter<'_> {
        PathIter(self.0.as_deref())
    }

    /// The conjuncts oldest-first (insertion order), as used by reports and by
    /// the materialised formula.
    pub fn conjuncts(&self) -> Vec<&Formula> {
        let mut out: Vec<&Formula> = self.iter().collect();
        out.reverse();
        out
    }

    /// Materialises the condition as a single [`Formula`] conjunction, in
    /// insertion order. O(n) — intended for reports and for from-scratch
    /// baselines, not for the solving hot path.
    pub fn to_formula(&self) -> Formula {
        Formula::and(self.conjuncts().into_iter().cloned().collect())
    }

    /// Total number of comparison/prefix-match atoms across the conjuncts.
    pub fn atom_count(&self) -> usize {
        self.iter().map(Formula::atom_count).sum()
    }
}

/// Iterator over a path condition's conjuncts, newest first.
pub struct PathIter<'a>(Option<&'a PathNode>);

impl<'a> Iterator for PathIter<'a> {
    type Item = &'a Formula;

    fn next(&mut self) -> Option<&'a Formula> {
        let node = self.0?;
        self.0 = node.parent.0.as_deref();
        Some(&node.formula)
    }
}

impl Drop for PathCond {
    /// Unlinks the chain iteratively: the naive recursive drop of a long
    /// cons-list (one `Drop` frame per node) overflows the stack on the
    /// thousand-conjunct conditions produced by basic switch/router models.
    fn drop(&mut self) {
        let mut cur = self.0.take();
        while let Some(node) = cur {
            match Arc::try_unwrap(node) {
                // Sole owner: steal the parent link and keep unlinking.
                Ok(mut owned) => cur = owned.parent.0.take(),
                // Still shared: the other owners keep the rest alive.
                Err(_) => break,
            }
        }
    }
}

impl PartialEq for PathCond {
    /// Exact structural equality. Different fingerprints decide the common
    /// unequal case; equal ones are confirmed conjunct by conjunct, so a
    /// fingerprint collision can never make two different conditions equal.
    fn eq(&self, other: &Self) -> bool {
        if self.fingerprint() != other.fingerprint() || self.len() != other.len() {
            return false;
        }
        let (mut a, mut b) = (self.0.as_deref(), other.0.as_deref());
        while let (Some(x), Some(y)) = (a, b) {
            // Shared suffix (common fork ancestor): equal by construction.
            if std::ptr::eq(x, y) {
                return true;
            }
            if x.formula != y.formula {
                return false;
            }
            a = x.parent.0.as_deref();
            b = y.parent.0.as_deref();
        }
        true
    }
}

impl FromIterator<Formula> for PathCond {
    fn from_iter<T: IntoIterator<Item = Formula>>(iter: T) -> Self {
        iter.into_iter()
            .fold(PathCond::empty(), |cond, f| cond.push(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::CmpOp;
    use crate::term::SymVar;

    fn v(id: u64) -> SymVar {
        SymVar::new(id, 8)
    }

    #[test]
    fn push_shares_the_prefix() {
        let base = PathCond::empty().push(Formula::eq_const(v(0), 1));
        let a = base.push(Formula::eq_const(v(1), 2));
        let b = base.push(Formula::eq_const(v(1), 3));
        assert_eq!(base.len(), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        // Both extensions share the base node.
        assert!(std::ptr::eq(
            Arc::as_ptr(a.node().unwrap().parent().node().unwrap()),
            Arc::as_ptr(b.node().unwrap().parent().node().unwrap()),
        ));
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn true_is_absorbed_and_materialisation_preserves_order() {
        let cond = PathCond::empty()
            .push(Formula::eq_const(v(0), 1))
            .push(Formula::True)
            .push(Formula::cmp_const(CmpOp::Ge, v(1), 5));
        assert_eq!(cond.len(), 2);
        assert_eq!(cond.atom_count(), 2);
        assert_eq!(
            cond.to_formula(),
            Formula::and(vec![
                Formula::eq_const(v(0), 1),
                Formula::cmp_const(CmpOp::Ge, v(1), 5),
            ])
        );
        assert_eq!(PathCond::empty().to_formula(), Formula::True);
    }

    #[test]
    fn fingerprints_depend_only_on_content() {
        let parts = [
            Formula::eq_const(v(40), 1),
            Formula::cmp_const(CmpOp::Lt, v(41), 9),
        ];
        let a: PathCond = parts.iter().cloned().collect();
        let b: PathCond = parts.iter().cloned().collect();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), PathCond::empty().fingerprint());
        assert_eq!(PathCond::empty().fingerprint(), fingerprint::EMPTY_PATH_FP);
        // Order is significant: swapped conjuncts are a different sequence.
        let swapped: PathCond = parts.iter().rev().cloned().collect();
        assert_ne!(a.fingerprint(), swapped.fingerprint());
        // The prefix fingerprint is the parent node's fingerprint.
        assert_eq!(
            a.node().unwrap().parent().fingerprint(),
            PathCond::empty().push(parts[0].clone()).fingerprint()
        );
    }

    #[test]
    fn equality_is_structural() {
        let parts = [
            Formula::eq_const(v(0), 1),
            Formula::cmp_const(CmpOp::Lt, v(1), 9),
        ];
        let a: PathCond = parts.iter().cloned().collect();
        let b: PathCond = parts.iter().cloned().collect();
        assert_eq!(a, b); // distinct nodes, equal content
        assert_ne!(a, PathCond::empty());
        assert_ne!(a, PathCond::empty().push(parts[0].clone()));
    }

    #[test]
    fn long_chains_drop_without_overflowing() {
        let mut cond = PathCond::empty();
        for i in 0..200_000u64 {
            cond = cond.push(Formula::ne_const(v(i % 4), i));
        }
        assert_eq!(cond.len(), 200_000);
        drop(cond);
    }
}
