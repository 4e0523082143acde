//! Hash-consed interning of formulas.
//!
//! Solver content has one identity: the 128-bit structural fingerprint of
//! [`crate::fingerprint`]. This module is where a formula gets it:
//!
//! * [`Interned<T>`] — an `Arc`-shared, hash-consed value carrying its
//!   fingerprint. Two `Interned` handles are equal exactly when their values
//!   are structurally equal; the common case is decided by pointer comparison,
//!   and `Hash` writes the fingerprint.
//! * [`Interner`] — a sharded, mutex-guarded hash-cons table of [`Formula`]s
//!   bucketed by [`formula_fp`]. The process-wide instance is exposed through
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
//! re-interning. To bound memory, every shard runs a **second-chance sweep**
//! once it reaches capacity: entries hit since the previous sweep keep their
//! slot (their reference bit is cleared, arming them for the next round),
//! one-shot entries are evicted. A working set that genuinely exceeds capacity
//! degrades to the old clear-at-capacity behaviour — the sweep falls back to a
//! full clear when it frees nothing — so memory stays bounded either way, but
//! a hot working set survives instead of being thrashed out by cold traffic.
//! [`eviction_stats`] exposes the eviction and sweep counters. Nothing is
//! keyed on an allocation, so an evicted formula that returns under a new
//! allocation has the same fingerprint and still hits every memo.
//!
//! `Arc` rather than `Rc` because interned values cross threads: the engine's
//! work-stealing workers push and steal paths (whose nodes hold `Interned<
//! Formula>`) freely.
//!
//! [`formula_fp`]: crate::fingerprint::formula_fp

use crate::fingerprint::formula_fp;
use crate::formula::Formula;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of independently locked shards per interner.
const SHARD_COUNT: usize = 16;
/// Distinct values a shard holds before it runs a second-chance sweep.
const SHARD_CAP: usize = 8192;

/// Lifetime eviction counters of an interner.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvictionStats {
    /// Canonical values dropped by second-chance sweeps (including full-clear
    /// fallbacks).
    pub evicted: u64,
    /// Sweeps run.
    pub sweeps: u64,
}

/// Snapshot of the eviction and sweep counters of the process-wide
/// [`formulas`] interner.
///
/// `evicted == 0` after a long run means the hot working set fit in the table;
/// a large count with few sweeps means mostly one-shot traffic aged out, which
/// is the intended behaviour.
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
        // covers handles that straddle a shard eviction (same value interned
        // twice into distinct canonical allocations).
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

/// One resident canonical value plus its second-chance reference bit (set on
/// every hit, cleared by a sweep — an entry survives a sweep iff it was hit
/// since the previous one).
struct Slot {
    handle: Interned<Formula>,
    touched: bool,
}

#[derive(Default)]
struct Shard {
    /// Fingerprint → canonical entries with that fingerprint (one, barring a
    /// 128-bit collision, which the structural comparison still separates).
    entries: HashMap<u128, Vec<Slot>>,
    /// Total canonical values across all buckets.
    live: usize,
    /// Values evicted by sweeps over this shard's lifetime.
    evicted: u64,
    /// Second-chance sweeps run on this shard.
    sweeps: u64,
}

impl Shard {
    /// The second-chance eviction pass: keep entries whose reference bit is
    /// set (clearing it, so surviving another round requires another hit),
    /// evict the rest. When everything is hot — the working set genuinely
    /// exceeds capacity — fall back to a full clear so memory stays bounded.
    fn sweep(&mut self) {
        let mut freed = 0usize;
        self.entries.retain(|_, bucket| {
            bucket.retain_mut(|slot| {
                if slot.touched {
                    slot.touched = false;
                    true
                } else {
                    freed += 1;
                    false
                }
            });
            !bucket.is_empty()
        });
        self.live -= freed;
        self.evicted += freed as u64;
        self.sweeps += 1;
        if self.live >= SHARD_CAP {
            self.evicted += self.live as u64;
            self.entries.clear();
            self.live = 0;
        }
    }
}

/// A sharded hash-cons table of formulas. See the module docs.
pub struct Interner {
    shards: Vec<Mutex<Shard>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
        }
    }

    /// Returns the canonical [`Interned`] handle for `value`, creating it if
    /// this value has not been seen (since the last shard eviction).
    pub fn intern(&self, value: Formula) -> Interned<Formula> {
        let fp = formula_fp(&value);
        let shard = &self.shards[(fp as usize) % SHARD_COUNT];
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(bucket) = guard.entries.get_mut(&fp) {
            if let Some(found) = bucket.iter_mut().find(|s| s.handle.0.value == value) {
                // A hit sets the reference bit: this entry survives the next
                // sweep.
                found.touched = true;
                return found.handle.clone();
            }
        }
        if guard.live >= SHARD_CAP {
            guard.sweep();
        }
        let interned = Interned(Arc::new(Entry { fp, value }));
        // New entries start cold: a value never hit again is evicted by the
        // next sweep, so one-shot traffic cannot thrash the hot working set.
        guard.entries.entry(fp).or_default().push(Slot {
            handle: interned.clone(),
            touched: false,
        });
        guard.live += 1;
        interned
    }

    /// Number of canonical values currently resident (for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).live)
            .sum()
    }

    /// Lifetime eviction counters of this interner, summed over its shards.
    pub fn eviction_stats(&self) -> EvictionStats {
        let mut stats = EvictionStats::default();
        for shard in &self.shards {
            let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            stats.evicted += guard.evicted;
            stats.sweeps += guard.sweeps;
        }
        stats
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
    fn hot_values_survive_sweeps_while_cold_traffic_is_evicted() {
        let local = Interner::new();
        let hot = Formula::eq_const(v(70_010), 42);
        let hot_handle = local.intern(hot.clone());
        // Enough distinct cold values to drive every shard past capacity
        // (twice over, so variance in hash distribution cannot save a shard
        // from sweeping), re-touching the hot value often enough that its
        // reference bit is always set when its shard sweeps.
        let total = SHARD_COUNT * SHARD_CAP * 2;
        for i in 0..total {
            local.intern(Formula::eq_const(v(80_000 + (i as u64 % 64)), i as u64));
            if i % 1024 == 0 {
                let again = local.intern(hot.clone());
                assert!(Interned::ptr_eq(&hot_handle, &again));
            }
        }
        let stats = local.eviction_stats();
        assert!(stats.sweeps > 0, "cold traffic must trigger sweeps");
        assert!(stats.evicted > 0, "one-shot values must be evicted");
        assert!(
            local.len() < total,
            "table stays bounded: {} resident after {} inserts",
            local.len(),
            total
        );
        // The hot value kept its slot: same canonical allocation.
        let again = local.intern(hot);
        assert!(Interned::ptr_eq(&hot_handle, &again));
    }

    #[test]
    fn process_wide_eviction_stats_are_readable() {
        let stats = eviction_stats();
        // Counters are monotone and only move together: an eviction implies at
        // least one sweep.
        assert!(stats.evicted == 0 || stats.sweeps > 0);
    }

    #[test]
    fn interned_equality_survives_distinct_allocations() {
        // Simulate the post-eviction case: equal values behind different Arcs.
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
