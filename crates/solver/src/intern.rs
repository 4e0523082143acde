//! Hash-consed interning of formulas.
//!
//! Solver content has one identity: the 128-bit structural fingerprint of
//! [`crate::fingerprint`]. This module is where a formula gets it:
//!
//! * [`Interned<T>`] — an `Arc`-shared, hash-consed value carrying its
//!   fingerprint. Two `Interned` handles are equal exactly when their values
//!   are structurally equal; the common case is decided by pointer comparison,
//!   and `Hash` writes the fingerprint.
//! * [`Interner`] — a hash-cons table of [`Formula`]s keyed by
//!   [`formula_fp`]. The process-wide instance is exposed through
//!   [`formulas`] and [`intern_formula`].
//!
//! [`PathCond`](crate::path::PathCond) chains the fingerprints of its conjuncts
//! into one fingerprint per prefix, and every cache layer above the prefix
//! nodes — the in-process content memos and the on-disk store — is keyed on
//! values combined from it (see [`crate::Solver`]). The fingerprint is
//! computed once, when a formula is first interned.
//!
//! # Lifecycle and eviction
//!
//! Interners hold *strong* references to their canonical values: an interned
//! formula stays resident after the last path referencing it dies, so the next
//! injection of the same scenario shares the canonical allocations instead of
//! re-interning. Memory is bounded by the rule every solver table follows
//! (see `table.rs`): each of the 16 shards is cleared when a new formula
//! arrives and it already holds 8 192. The bound is not reached at paper
//! scale: `paper --full all`, Table 2's 188 500-prefix router included, ends
//! with `interner evictions: formulas 0/0 (evicted/sweeps)`, and so does the
//! differential fuzz campaign. [`eviction_stats`] exposes the counters.
//! Nothing is keyed on an allocation, so a formula that returns after a clear
//! gets a new allocation with the same fingerprint and still hits every memo.
//!
//! A table slot holds one value per fingerprint. Should two different
//! formulas ever share a 128-bit fingerprint, the second gets a handle that is
//! not stored; `Interned` equality compares structure behind the pointer
//! test, so the two stay apart.
//!
//! `Arc` rather than `Rc` because interned values cross threads: the engine's
//! work-stealing workers push and steal paths (whose nodes hold `Interned<
//! Formula>`) freely.
//!
//! [`formula_fp`]: crate::fingerprint::formula_fp

use crate::fingerprint::formula_fp;
use crate::formula::Formula;
use crate::table::Table;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Lifetime eviction counters of an interner.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvictionStats {
    /// Canonical values dropped by capacity clears.
    pub evicted: u64,
    /// Capacity clears: a shard was full when a new formula arrived.
    pub sweeps: u64,
}

/// Snapshot of the eviction counters of the process-wide [`formulas`]
/// interner.
///
/// `evicted == 0` after a long run means the working set fit in the table.
pub fn eviction_stats() -> EvictionStats {
    formulas().eviction_stats()
}

struct Entry<T> {
    /// Stable structural fingerprint of `value` (see [`crate::fingerprint`]).
    fp: u128,
    value: T,
}

/// A hash-consed, `Arc`-shared value carrying its structural fingerprint.
///
/// Obtained from an [`Interner`]; see the module docs for the equality and
/// lifecycle guarantees.
pub struct Interned<T>(Arc<Entry<T>>);

impl<T> Interned<T> {
    fn new(fp: u128, value: T) -> Self {
        Interned(Arc::new(Entry { fp, value }))
    }

    /// True when both handles point at the same canonical allocation.
    pub fn ptr_eq(a: &Interned<T>, b: &Interned<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The stable structural fingerprint of this value: equal for equal
    /// values, in every process.
    pub fn fingerprint(&self) -> u128 {
        self.0.fp
    }
}

impl<T> Clone for Interned<T> {
    fn clone(&self) -> Self {
        Interned(Arc::clone(&self.0))
    }
}

impl<T> Deref for Interned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T: PartialEq> PartialEq for Interned<T> {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality decides the common case; the structural fallback
        // covers handles that straddle a shard clear (same value interned
        // twice into distinct canonical allocations) and values that share a
        // fingerprint.
        Interned::ptr_eq(self, other) || (self.0.fp == other.0.fp && self.0.value == other.0.value)
    }
}

impl<T: Eq> Eq for Interned<T> {}

impl<T> Hash for Interned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.0.fp);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: std::fmt::Display> std::fmt::Display for Interned<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.value.fmt(f)
    }
}

/// Distinct formulas a shard of an interner holds before it is cleared.
const SHARD_CAP: usize = 8192;

/// A sharded hash-cons table of formulas. See the module docs.
pub struct Interner {
    table: Table<Interned<Formula>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            table: Table::new(SHARD_CAP),
        }
    }

    /// Returns the canonical [`Interned`] handle for `value`, creating it if
    /// this value has not been seen (since its shard was last cleared).
    pub fn intern(&self, value: Formula) -> Interned<Formula> {
        self.intern_with_fp(formula_fp(&value), value)
    }

    /// [`Interner::intern`] under a given fingerprint, so that tests can
    /// force a collision.
    pub(crate) fn intern_with_fp(&self, fp: u128, value: Formula) -> Interned<Formula> {
        let mut fresh = Some(value);
        let handle = self.table.get_or_insert_with(fp, || {
            Interned::new(fp, fresh.take().expect("`make` runs at most once"))
        });
        match fresh {
            // A different value already holds this fingerprint: the table
            // keeps it, and this value gets a handle of its own, which
            // equality tells apart by structure.
            Some(value) if *handle != value => Interned::new(fp, value),
            _ => handle,
        }
    }

    /// Number of canonical values currently resident (for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Lifetime eviction counters of this interner, summed over its shards.
    pub fn eviction_stats(&self) -> EvictionStats {
        let c = self.table.counters();
        EvictionStats {
            evicted: c.evicted,
            sweeps: c.clears,
        }
    }

    /// True when no value is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

/// The process-wide [`Formula`] interner.
pub fn formulas() -> &'static Interner {
    static FORMULAS: OnceLock<Interner> = OnceLock::new();
    FORMULAS.get_or_init(Interner::new)
}

/// Interns a formula in the process-wide table.
pub fn intern_formula(formula: Formula) -> Interned<Formula> {
    formulas().intern(formula)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::SHARDS;
    use crate::term::SymVar;
    use std::collections::hash_map::DefaultHasher;

    fn v(id: u64) -> SymVar {
        SymVar::new(id, 16)
    }

    #[test]
    fn interning_the_same_formula_yields_the_same_id_and_pointer() {
        // Use constants unlikely to collide with other tests sharing the
        // process-wide interner.
        let f = Formula::eq_const(v(70_001), 12_345);
        let a = intern_formula(f.clone());
        let b = intern_formula(f.clone());
        assert!(Interned::ptr_eq(&a, &b));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), formula_fp(&f));
        assert_eq!(*a, f);
        let other = intern_formula(Formula::eq_const(v(70_001), 12_346));
        assert!(!Interned::ptr_eq(&a, &other));
        assert_ne!(a.fingerprint(), other.fingerprint());
        assert_ne!(a, other);
    }

    #[test]
    fn cold_traffic_past_capacity_clears_shards_and_stays_bounded() {
        let local = Interner::new();
        // Enough distinct values to drive every shard past capacity (twice
        // over, so variance in hash distribution cannot save a shard from
        // clearing).
        let total = SHARDS * SHARD_CAP * 2;
        for i in 0..total {
            local.intern(Formula::eq_const(v(80_000 + (i as u64 % 64)), i as u64));
        }
        let stats = local.eviction_stats();
        assert!(stats.sweeps > 0, "cold traffic must clear shards");
        assert!(stats.evicted > 0, "cleared values must be counted");
        assert!(
            local.len() < total,
            "table stays bounded: {} resident after {} inserts",
            local.len(),
            total
        );
        assert!(local.len() <= SHARDS * SHARD_CAP);
    }

    #[test]
    fn a_fingerprint_collision_gets_a_handle_of_its_own() {
        let local = Interner::new();
        let fp = formula_fp(&Formula::eq_const(v(70_020), 1));
        let stored = local.intern_with_fp(fp, Formula::eq_const(v(70_020), 1));
        let other = Formula::eq_const(v(70_021), 2);
        let colliding = local.intern_with_fp(fp, other.clone());
        assert_eq!(*colliding, other);
        assert_ne!(colliding, stored);
        // The table keeps the first value; the colliding one is not stored.
        assert_eq!(local.len(), 1);
        assert!(Interned::ptr_eq(
            &stored,
            &local.intern_with_fp(fp, Formula::eq_const(v(70_020), 1))
        ));
        let again = local.intern_with_fp(fp, other);
        assert!(!Interned::ptr_eq(&colliding, &again));
        assert_eq!(colliding, again);
    }

    #[test]
    fn process_wide_eviction_stats_are_readable() {
        let stats = eviction_stats();
        // Counters are monotone and only move together: an eviction implies at
        // least one clear.
        assert!(stats.evicted == 0 || stats.sweeps > 0);
    }

    #[test]
    fn interned_equality_survives_distinct_allocations() {
        // Simulate the post-clear case: equal values behind different Arcs.
        let local = Interner::new();
        let a = local.intern(Formula::eq_const(v(70_004), 1));
        let other = Interner::new();
        let b = other.intern(Formula::eq_const(v(70_004), 1));
        assert!(!Interned::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
