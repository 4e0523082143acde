//! The one table type behind the solver's process-wide caches: the formula
//! interner ([`crate::intern`]), the two content memos ([`crate::solve`]) and
//! the disk index ([`crate::cache`]).
//!
//! A [`Table`] maps 128-bit fingerprints to values in [`SHARDS`]
//! independently locked shards. Each use fixes a per-shard capacity in code,
//! and there is one eviction rule: a shard at capacity is cleared before its
//! next new key goes in, and the clear is counted. Every table caches a pure
//! function of its key, so a clear can only cost a recomputation, never change
//! an answer. The shards also keep the table's traffic [`Counters`].

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of independently locked shards of every table.
pub(crate) const SHARDS: usize = 16;

/// Lifetime traffic of a table, summed over its shards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// New keys inserted (not counting [`Table::load`]).
    pub inserts: u64,
    /// Values dropped by capacity clears.
    pub evicted: u64,
    /// Capacity clears: a shard was full when a new key arrived.
    pub clears: u64,
}

struct Shard<V> {
    map: HashMap<u128, V>,
    counters: Counters,
}

impl<V> Shard<V> {
    /// Inserts `value` unless `key` is present, clearing the shard first when
    /// it is at capacity; true when it went in.
    fn insert_new(&mut self, key: u128, value: V, capacity: usize) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        if self.map.len() >= capacity {
            self.counters.evicted += self.map.len() as u64;
            self.counters.clears += 1;
            self.map.clear();
        }
        self.map.insert(key, value);
        true
    }
}

/// A sharded `u128 → V` table, cleared shard by shard at capacity. See the
/// module docs.
pub(crate) struct Table<V> {
    shards: [Mutex<Shard<V>>; SHARDS],
    capacity: usize,
}

impl<V: Clone> Table<V> {
    /// An empty table whose shards hold up to `capacity` keys each
    /// (`usize::MAX`: uncapped).
    pub(crate) fn new(capacity: usize) -> Self {
        Table {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    counters: Counters::default(),
                })
            }),
            capacity,
        }
    }

    fn shard(&self, key: u128) -> MutexGuard<'_, Shard<V>> {
        self.shards[(key as usize) % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The value under `key`, counting a hit or a miss.
    pub(crate) fn get(&self, key: u128) -> Option<V> {
        let mut shard = self.shard(key);
        let found = shard.map.get(&key).cloned();
        match found {
            Some(_) => shard.counters.hits += 1,
            None => shard.counters.misses += 1,
        }
        found
    }

    /// Inserts `value` unless `key` is present; true when it went in.
    pub(crate) fn insert(&self, key: u128, value: V) -> bool {
        let mut shard = self.shard(key);
        let inserted = shard.insert_new(key, value, self.capacity);
        shard.counters.inserts += u64::from(inserted);
        inserted
    }

    /// The value under `key`, or `make()` inserted under it: one lock for
    /// the lookup and the insert, counting a hit, or a miss and an insert.
    pub(crate) fn get_or_insert_with(&self, key: u128, make: impl FnOnce() -> V) -> V {
        let mut shard = self.shard(key);
        if let Some(found) = shard.map.get(&key).cloned() {
            shard.counters.hits += 1;
            return found;
        }
        shard.counters.misses += 1;
        shard.counters.inserts += 1;
        let value = make();
        shard.insert_new(key, value.clone(), self.capacity);
        value
    }

    /// Inserts `value` unless `key` is present, counting nothing: for entries
    /// read back from disk, which are not new answers.
    pub(crate) fn load(&self, key: u128, value: V) {
        self.shard(key).insert_new(key, value, self.capacity);
    }

    /// Empties every shard. Counted as neither a clear nor an eviction: the
    /// caller chose it, capacity did not force it.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            shard.map.clear();
        }
    }

    /// Number of resident keys.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// The counters, summed over the shards.
    pub(crate) fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for shard in &self.shards {
            let c = shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .counters;
            sum.hits += c.hits;
            sum.misses += c.misses;
            sum.inserts += c.inserts;
            sum.evicted += c.evicted;
            sum.clears += c.clears;
        }
        sum
    }

    /// Zeroes the counters; the contents stay.
    pub(crate) fn reset_counters(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .counters = Counters::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `i`-th key of shard 0.
    fn key(i: u128) -> u128 {
        i * SHARDS as u128
    }

    #[test]
    fn a_full_shard_is_cleared_and_the_clear_is_counted() {
        let table = Table::new(2);
        assert!(table.insert(key(0), "a"));
        assert!(table.insert(key(1), "b"));
        assert!(!table.insert(key(1), "b again"), "a present key stays");
        assert_eq!(table.get(key(1)), Some("b"));
        // Another shard is not full: no clear.
        assert!(table.insert(1, "other shard"));
        assert_eq!(table.counters().clears, 0);
        // Shard 0 is at capacity: its third key clears it first.
        assert_eq!(table.get_or_insert_with(key(2), || "c"), "c");
        assert_eq!(table.get(key(0)), None);
        assert_eq!(table.get(1), Some("other shard"));
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.counters(),
            Counters {
                hits: 2,
                misses: 2,
                inserts: 4,
                evicted: 2,
                clears: 1,
            }
        );
    }

    #[test]
    fn an_uncapped_table_never_clears() {
        let table = Table::new(usize::MAX);
        for i in 0..10_000 {
            assert!(table.insert(key(i), i));
        }
        table.load(key(10_000), 0);
        assert_eq!(table.len(), 10_001);
        let c = table.counters();
        assert_eq!((c.inserts, c.evicted, c.clears), (10_000, 0, 0));
    }

    #[test]
    fn clear_and_load_are_not_counted() {
        let table = Table::new(4);
        table.load(key(0), 0);
        assert_eq!(table.counters(), Counters::default(), "a load is no insert");
        assert_eq!(
            table.get_or_insert_with(key(0), || 1),
            0,
            "loaded value kept"
        );
        table.insert(key(1), 1);
        table.clear();
        assert_eq!(table.len(), 0);
        assert_eq!(
            table.counters(),
            Counters {
                hits: 1,
                inserts: 1,
                ..Counters::default()
            },
            "a chosen clear evicts nothing and keeps the counters"
        );
        table.reset_counters();
        assert_eq!(table.counters(), Counters::default());
    }
}
