//! Interval sets over signed 128-bit integers.
//!
//! An [`IntervalSet`] is a finite union of disjoint, inclusive integer
//! intervals kept in sorted order. Boolean formulas over a *single* variable
//! are evaluated exactly into an interval set (equalities become points,
//! orderings become half-lines clipped to the variable domain, prefix matches
//! become aligned ranges), and conjunction / disjunction / negation of such
//! formulas become intersection / union / complement of the sets. This is what
//! lets the solver handle the enormous same-variable disjunctions produced by
//! switch MAC tables and router FIBs without any case splitting.
//!
//! # Memory layout
//!
//! The overwhelming majority of sets on the solver hot path come from
//! [`cmp_to_set`](crate::cube)-style lowering: a single point, a half-line, or
//! the two ranges of a `!=` — never more than two intervals. Those are stored
//! inline (no heap allocation at all). Sets with more than two intervals — the
//! 480k-point MAC disjunctions and 188.5k-prefix FIBs of the paper's `--full`
//! workloads — are stored behind an `Arc`, so cloning a cube that carries one
//! is a reference-count bump instead of a multi-megabyte `memcpy`.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A set of integers represented as sorted, disjoint, inclusive intervals.
///
/// Up to two intervals are stored inline; larger sets share an `Arc`-backed
/// vector so clones are O(1). Equality, hashing and `Debug` all operate on
/// the logical range list, so the two representations are interchangeable
/// (a canonical set with ≤ 2 ranges is always stored inline).
#[derive(Clone)]
pub struct IntervalSet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// `len` live ranges in `ranges[..len]` (0, 1 or 2).
    Small {
        /// Number of live inline ranges.
        len: u8,
        /// Inline storage; slots at `len..` are `(0, 0)` padding.
        ranges: [(i128, i128); 2],
    },
    /// More than two ranges, shared so that clones are reference bumps.
    Big(Arc<Vec<(i128, i128)>>),
}

impl IntervalSet {
    /// Wraps a **sorted, disjoint, non-adjacent** range list in the canonical
    /// representation: inline when it fits, `Arc`-shared otherwise.
    fn from_sorted(ranges: Vec<(i128, i128)>) -> Self {
        match ranges.len() {
            0 => IntervalSet {
                repr: Repr::Small {
                    len: 0,
                    ranges: [(0, 0); 2],
                },
            },
            1 => IntervalSet {
                repr: Repr::Small {
                    len: 1,
                    ranges: [ranges[0], (0, 0)],
                },
            },
            2 => IntervalSet {
                repr: Repr::Small {
                    len: 2,
                    ranges: [ranges[0], ranges[1]],
                },
            },
            _ => IntervalSet {
                repr: Repr::Big(Arc::new(ranges)),
            },
        }
    }

    /// The sorted, disjoint range list as a slice (the logical value).
    pub fn as_slice(&self) -> &[(i128, i128)] {
        match &self.repr {
            Repr::Small { len, ranges } => &ranges[..*len as usize],
            Repr::Big(v) => v,
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet::from_sorted(Vec::new())
    }

    /// The set containing every integer in `lo..=hi`. Returns the empty set if
    /// `lo > hi`.
    pub fn range(lo: i128, hi: i128) -> Self {
        if lo > hi {
            IntervalSet::empty()
        } else {
            IntervalSet::from_sorted(vec![(lo, hi)])
        }
    }

    /// The singleton set `{value}`.
    pub fn point(value: i128) -> Self {
        IntervalSet::range(value, value)
    }

    /// Builds a set from an arbitrary iterator of inclusive ranges.
    pub fn from_ranges(iter: impl IntoIterator<Item = (i128, i128)>) -> Self {
        let mut ranges: Vec<(i128, i128)> = iter.into_iter().filter(|(lo, hi)| lo <= hi).collect();
        ranges.sort_unstable();
        let mut out: Vec<(i128, i128)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match out.last_mut() {
                Some((_, prev_hi)) if lo <= prev_hi.saturating_add(1) => {
                    if hi > *prev_hi {
                        *prev_hi = hi;
                    }
                }
                _ => out.push((lo, hi)),
            }
        }
        IntervalSet::from_sorted(out)
    }

    /// Returns true if the set contains no integers.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Number of disjoint intervals (not the number of integers).
    pub fn interval_count(&self) -> usize {
        self.as_slice().len()
    }

    /// Total number of integers in the set (saturating).
    pub fn cardinality(&self) -> u128 {
        self.as_slice()
            .iter()
            .map(|(lo, hi)| (hi - lo) as u128 + 1)
            .fold(0u128, |acc, n| acc.saturating_add(n))
    }

    /// Smallest element, if any.
    pub fn min(&self) -> Option<i128> {
        self.as_slice().first().map(|(lo, _)| *lo)
    }

    /// Largest element, if any.
    pub fn max(&self) -> Option<i128> {
        self.as_slice().last().map(|(_, hi)| *hi)
    }

    /// Returns true if `value` is in the set.
    pub fn contains(&self, value: i128) -> bool {
        self.as_slice()
            .binary_search_by(|(lo, hi)| {
                if value < *lo {
                    std::cmp::Ordering::Greater
                } else if value > *hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Iterates over the disjoint inclusive intervals.
    pub fn iter_ranges(&self) -> impl Iterator<Item = (i128, i128)> + '_ {
        self.as_slice().iter().copied()
    }

    /// True when both sets share the same `Arc`-backed storage (implies
    /// equality; the converse need not hold). Used as an O(1) fast path.
    pub fn ptr_eq(&self, other: &IntervalSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Big(a), Repr::Big(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Union of two sets.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        if self.is_empty() || self.ptr_eq(other) {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (sa, sb) = (self.as_slice(), other.as_slice());
        // Merge the two sorted range lists, coalescing overlapping or adjacent
        // intervals as we go.
        let mut out: Vec<(i128, i128)> = Vec::with_capacity(sa.len() + sb.len());
        let mut a = sa.iter().peekable();
        let mut b = sb.iter().peekable();
        let push = |out: &mut Vec<(i128, i128)>, (lo, hi): (i128, i128)| match out.last_mut() {
            Some((_, prev_hi)) if lo <= prev_hi.saturating_add(1) => {
                if hi > *prev_hi {
                    *prev_hi = hi;
                }
            }
            _ => out.push((lo, hi)),
        };
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&ra), Some(&&rb)) => {
                    if ra.0 <= rb.0 {
                        push(&mut out, ra);
                        a.next();
                    } else {
                        push(&mut out, rb);
                        b.next();
                    }
                }
                (Some(&&ra), None) => {
                    push(&mut out, ra);
                    a.next();
                }
                (None, Some(&&rb)) => {
                    push(&mut out, rb);
                    b.next();
                }
                (None, None) => break,
            }
        }
        IntervalSet::from_sorted(out)
    }

    /// Intersection of two sets.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        if self.ptr_eq(other) {
            return self.clone();
        }
        let (sa, sb) = (self.as_slice(), other.as_slice());
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < sa.len() && j < sb.len() {
            let (alo, ahi) = sa[i];
            let (blo, bhi) = sb[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet::from_sorted(out)
    }

    /// Complement of the set within the inclusive universe `[lo, hi]`.
    pub fn complement(&self, lo: i128, hi: i128) -> IntervalSet {
        if lo > hi {
            return IntervalSet::empty();
        }
        let mut out = Vec::new();
        let mut cursor = lo;
        for &(rlo, rhi) in self.as_slice() {
            if rhi < lo {
                continue;
            }
            if rlo > hi {
                break;
            }
            if rlo > cursor {
                out.push((cursor, rlo - 1));
            }
            cursor = cursor.max(rhi.saturating_add(1));
            if cursor > hi {
                break;
            }
        }
        if cursor <= hi {
            out.push((cursor, hi));
        }
        IntervalSet::from_sorted(out)
    }

    /// Set difference `self \ other` within no particular universe.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        if self.ptr_eq(other) {
            return IntervalSet::empty();
        }
        let (lo, hi) = (self.min().unwrap(), self.max().unwrap());
        self.intersect(&other.complement(lo, hi))
    }

    /// Shifts every element of the set by `delta` (used to rewrite
    /// `var + offset ⋈ c` into a constraint on `var` itself).
    pub fn shift(&self, delta: i128) -> IntervalSet {
        if delta == 0 {
            return self.clone();
        }
        IntervalSet::from_sorted(
            self.as_slice()
                .iter()
                .map(|(lo, hi)| (lo + delta, hi + delta))
                .collect(),
        )
    }

    /// Removes a single point from the set.
    pub fn remove_point(&self, value: i128) -> IntervalSet {
        self.difference(&IntervalSet::point(value))
    }

    /// Returns true if `self` is a subset of `other`.
    pub fn is_subset_of(&self, other: &IntervalSet) -> bool {
        self.difference(other).is_empty()
    }

    /// Picks up to `n` sample elements spread across the set (always including
    /// the minimum and maximum when present). Used by the model search.
    pub fn samples(&self, n: usize) -> Vec<i128> {
        let mut out = Vec::new();
        if self.is_empty() || n == 0 {
            return out;
        }
        out.push(self.min().unwrap());
        if n > 1 {
            let max = self.max().unwrap();
            if max != out[0] {
                out.push(max);
            }
        }
        // Take the first element of each interval until we have enough.
        for (lo, hi) in self.iter_ranges() {
            if out.len() >= n {
                break;
            }
            if !out.contains(&lo) {
                out.push(lo);
            }
            if out.len() < n && hi != lo && !out.contains(&hi) {
                out.push(hi);
            }
        }
        out
    }
}

impl Default for IntervalSet {
    fn default() -> Self {
        IntervalSet::empty()
    }
}

impl PartialEq for IntervalSet {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for IntervalSet {}

impl Hash for IntervalSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the logical range list so Small and Big representations of the
        // same set hash identically, consistent with `PartialEq`.
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (lo, hi)) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "[{lo},{hi}]")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_point() {
        assert!(IntervalSet::empty().is_empty());
        assert!(IntervalSet::range(5, 4).is_empty());
        let p = IntervalSet::point(7);
        assert!(p.contains(7));
        assert!(!p.contains(6));
        assert_eq!(p.cardinality(), 1);
    }

    #[test]
    fn from_ranges_merges_overlaps_and_adjacent() {
        let s = IntervalSet::from_ranges(vec![(1, 3), (4, 6), (10, 12), (11, 15), (20, 20)]);
        assert_eq!(
            s.iter_ranges().collect::<Vec<_>>(),
            vec![(1, 6), (10, 15), (20, 20)]
        );
    }

    #[test]
    fn union_merges() {
        let a = IntervalSet::from_ranges(vec![(0, 5), (10, 15)]);
        let b = IntervalSet::from_ranges(vec![(4, 11), (20, 25)]);
        let u = a.union(&b);
        assert_eq!(u.iter_ranges().collect::<Vec<_>>(), vec![(0, 15), (20, 25)]);
        assert_eq!(a.union(&IntervalSet::empty()), a);
        assert_eq!(IntervalSet::empty().union(&b), b);
    }

    #[test]
    fn intersect_clips() {
        let a = IntervalSet::from_ranges(vec![(0, 10), (20, 30)]);
        let b = IntervalSet::from_ranges(vec![(5, 25)]);
        let i = a.intersect(&b);
        assert_eq!(i.iter_ranges().collect::<Vec<_>>(), vec![(5, 10), (20, 25)]);
        assert!(a.intersect(&IntervalSet::empty()).is_empty());
    }

    #[test]
    fn complement_within_universe() {
        let a = IntervalSet::from_ranges(vec![(2, 3), (6, 8)]);
        let c = a.complement(0, 10);
        assert_eq!(
            c.iter_ranges().collect::<Vec<_>>(),
            vec![(0, 1), (4, 5), (9, 10)]
        );
        assert_eq!(
            IntervalSet::empty()
                .complement(0, 3)
                .iter_ranges()
                .collect::<Vec<_>>(),
            vec![(0, 3)]
        );
        let full = IntervalSet::range(0, 10);
        assert!(full.complement(0, 10).is_empty());
    }

    #[test]
    fn difference_and_subset() {
        let a = IntervalSet::range(0, 10);
        let b = IntervalSet::range(3, 5);
        let d = a.difference(&b);
        assert_eq!(d.iter_ranges().collect::<Vec<_>>(), vec![(0, 2), (6, 10)]);
        assert!(b.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(IntervalSet::empty().is_subset_of(&b));
    }

    #[test]
    fn shift_moves_all_ranges() {
        let a = IntervalSet::from_ranges(vec![(0, 2), (10, 11)]);
        let s = a.shift(-5);
        assert_eq!(s.iter_ranges().collect::<Vec<_>>(), vec![(-5, -3), (5, 6)]);
    }

    #[test]
    fn remove_point_splits_interval() {
        let a = IntervalSet::range(0, 4);
        let r = a.remove_point(2);
        assert_eq!(r.iter_ranges().collect::<Vec<_>>(), vec![(0, 1), (3, 4)]);
        assert_eq!(a.remove_point(9), a);
    }

    #[test]
    fn samples_cover_extremes() {
        let a = IntervalSet::from_ranges(vec![(1, 3), (10, 20), (30, 30)]);
        let s = a.samples(4);
        assert!(s.contains(&1));
        assert!(s.contains(&30));
        assert!(s.len() <= 4);
        assert!(IntervalSet::empty().samples(3).is_empty());
    }

    #[test]
    fn cardinality_saturates() {
        let a = IntervalSet::range(0, i128::MAX - 1);
        assert!(a.cardinality() > 0);
    }

    #[test]
    fn large_point_set_operations() {
        // Mimics an egress switch constraint: thousands of individual MAC points.
        let points: Vec<(i128, i128)> = (0..5000).map(|i| (i * 2, i * 2)).collect();
        let s = IntervalSet::from_ranges(points);
        assert_eq!(s.cardinality(), 5000);
        assert!(s.contains(4998));
        assert!(!s.contains(4999));
        let c = s.complement(0, 9999);
        assert_eq!(c.cardinality(), 5000);
        assert!(s.intersect(&c).is_empty());
        assert_eq!(s.union(&c), IntervalSet::range(0, 9999));
    }

    #[test]
    fn small_sets_are_inline_and_big_clones_share_storage() {
        // ≤ 2 ranges: inline representation, no Arc involved.
        let small = IntervalSet::from_ranges(vec![(0, 3), (10, 12)]);
        assert!(!small.ptr_eq(&small.clone()));
        assert_eq!(small, small.clone());
        // > 2 ranges: Arc-backed, clones share storage.
        let big = IntervalSet::from_ranges(vec![(0, 0), (2, 2), (4, 4)]);
        let copy = big.clone();
        assert!(big.ptr_eq(&copy));
        assert_eq!(big, copy);
        // Equality still holds across distinct allocations.
        let rebuilt = IntervalSet::from_ranges(vec![(0, 0), (2, 2), (4, 4)]);
        assert!(!big.ptr_eq(&rebuilt));
        assert_eq!(big, rebuilt);
    }
}
