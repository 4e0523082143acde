//! A persistent, path-copying ordered map.
//!
//! [`PMap`] is the storage behind [`crate::state::ExecState`]'s header and
//! metadata maps. Symbolic execution forks a path at every `If`/`Fork`, and a
//! fork used to deep-clone both `BTreeMap`s; with `PMap` a fork is one `Arc`
//! clone of the root pointer, and the first mutation after a fork copies only
//! the O(log n) nodes on the search path (KLEE-style copy-on-write state
//! forking — siblings share everything they have not written to).
//!
//! The tree is a *weight-balanced* binary search tree (the Adams variant used
//! by Haskell's `Data.Map`, Δ = 3 / ratio = 2), chosen over an HAMT because
//! the engine and the reports need cheap **in-order** iteration: the JSON
//! report prints maps in key order, and [`crate::engine`]'s `For` instruction
//! snapshots metadata keys sorted. Rebalancing is deterministic — the shape
//! of the tree is a function of the insertion/removal sequence alone — so
//! reports stay byte-identical across thread counts.
//!
//! Mutation comes in two flavours:
//!
//! * [`PMap::insert`] / [`PMap::remove`] build a new spine functionally
//!   (fresh `Arc`s along the search path, everything else shared), and
//! * [`PMap::get_mut`] copies the search path in place via [`Arc::make_mut`],
//!   which is free when the path is unshared — the common case for the hot
//!   `Assign`-to-an-existing-field loop of a single path between forks.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Weight-balance parameters (Adams' trees as tuned for Haskell `Data.Map`):
/// a node is balanced while neither subtree is more than `DELTA` times the
/// size of the other; an imbalanced node is repaired with a single rotation
/// when the inner grandchild is light (`< RATIO ×` the outer one) and a
/// double rotation otherwise.
const DELTA: usize = 3;
const RATIO: usize = 2;

/// One tree node. Shared between map versions via `Arc`; `Clone` (required
/// by [`Arc::make_mut`]) copies the key/value and bumps the child refcounts.
#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Number of entries in the subtree rooted here.
    size: usize,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

/// A persistent ordered map with `Arc`-shared nodes and copy-on-write
/// mutation. `Clone` is O(1); lookup, insertion, removal and in-place value
/// mutation are O(log n) and copy at most the nodes on the search path.
///
/// The API mirrors the subset of `std::collections::BTreeMap` the execution
/// state uses, and iteration is in key order like `BTreeMap`'s.
pub struct PMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PMap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// In-order iterator over `(&key, &value)` pairs.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.push_left(&self.root);
        iter
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// Returns a reference to the value for `key`, if present.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut link = &self.root;
        while let Some(node) = link {
            match key.cmp(node.key.borrow()) {
                Ordering::Less => link = &node.left,
                Ordering::Greater => link = &node.right,
                Ordering::Equal => return Some(&node.value),
            }
        }
        None
    }

    /// True if `key` has an entry.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Inserts or replaces the entry for `key`. Path-copying: O(log n) fresh
    /// nodes, everything off the search path shared with the previous
    /// version (and with every forked sibling still holding it).
    pub fn insert(&mut self, key: K, value: V) {
        self.root = insert_link(&self.root, key, value);
    }

    /// Removes the entry for `key`, returning its value (a clone when the
    /// node is shared with another map version). Path-copying like
    /// [`PMap::insert`].
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (new_root, value) = remove_link(&self.root, key)?;
        self.root = new_root;
        Some(value)
    }

    /// Returns a mutable reference to the value for `key`, copying the nodes
    /// on the search path first if they are shared with another map version
    /// ([`Arc::make_mut`]). When this map is the sole owner — a path mutating
    /// its own state between forks — no node is copied. A missing key is
    /// detected with a read-only probe first, so a miss never un-shares
    /// anything.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            return None;
        }
        get_mut_link(&mut self.root, key)
    }
}

fn get_mut_link<'a, K, V, Q>(link: &'a mut Link<K, V>, key: &Q) -> Option<&'a mut V>
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    let node = Arc::make_mut(link.as_mut()?);
    match key.cmp(node.key.borrow()) {
        Ordering::Less => get_mut_link(&mut node.left, key),
        Ordering::Greater => get_mut_link(&mut node.right, key),
        Ordering::Equal => Some(&mut node.value),
    }
}

fn size<K, V>(link: &Link<K, V>) -> usize {
    link.as_ref().map_or(0, |n| n.size)
}

fn mk<K, V>(key: K, value: V, left: Link<K, V>, right: Link<K, V>) -> Link<K, V> {
    let size = 1 + size(&left) + size(&right);
    Some(Arc::new(Node {
        key,
        value,
        size,
        left,
        right,
    }))
}

/// Rebuilds a node whose subtrees changed by at most one entry, restoring the
/// weight-balance invariant with at most a double rotation.
fn balance<K: Clone, V: Clone>(
    key: K,
    value: V,
    left: Link<K, V>,
    right: Link<K, V>,
) -> Link<K, V> {
    let (ls, rs) = (size(&left), size(&right));
    if ls + rs <= 1 {
        return mk(key, value, left, right);
    }
    if rs > DELTA * ls {
        // Right-heavy. `right` is non-empty (rs >= 2).
        let r = right.as_ref().expect("right-heavy node has a right child");
        if size(&r.left) < RATIO * size(&r.right) {
            // Single left rotation.
            let r = r.as_ref();
            mk(
                r.key.clone(),
                r.value.clone(),
                mk(key, value, left, r.left.clone()),
                r.right.clone(),
            )
        } else {
            // Double rotation: lift right.left.
            let r = r.as_ref();
            let rl = r.left.as_ref().expect("heavy inner grandchild").as_ref();
            mk(
                rl.key.clone(),
                rl.value.clone(),
                mk(key, value, left, rl.left.clone()),
                mk(
                    r.key.clone(),
                    r.value.clone(),
                    rl.right.clone(),
                    r.right.clone(),
                ),
            )
        }
    } else if ls > DELTA * rs {
        // Left-heavy, mirror image.
        let l = left.as_ref().expect("left-heavy node has a left child");
        if size(&l.right) < RATIO * size(&l.left) {
            let l = l.as_ref();
            mk(
                l.key.clone(),
                l.value.clone(),
                l.left.clone(),
                mk(key, value, l.right.clone(), right),
            )
        } else {
            let l = l.as_ref();
            let lr = l.right.as_ref().expect("heavy inner grandchild").as_ref();
            mk(
                lr.key.clone(),
                lr.value.clone(),
                mk(
                    l.key.clone(),
                    l.value.clone(),
                    l.left.clone(),
                    lr.left.clone(),
                ),
                mk(key, value, lr.right.clone(), right),
            )
        }
    } else {
        mk(key, value, left, right)
    }
}

fn insert_link<K: Ord + Clone, V: Clone>(link: &Link<K, V>, key: K, value: V) -> Link<K, V> {
    match link {
        None => mk(key, value, None, None),
        Some(n) => match key.cmp(&n.key) {
            // Replacement: sizes are unchanged, no rebalancing needed.
            Ordering::Equal => mk(key, value, n.left.clone(), n.right.clone()),
            Ordering::Less => balance(
                n.key.clone(),
                n.value.clone(),
                insert_link(&n.left, key, value),
                n.right.clone(),
            ),
            Ordering::Greater => balance(
                n.key.clone(),
                n.value.clone(),
                n.left.clone(),
                insert_link(&n.right, key, value),
            ),
        },
    }
}

/// `None` means the key was absent (the original tree is unchanged);
/// otherwise the rebuilt tree plus the removed value (cloned out of the
/// possibly-shared node).
fn remove_link<K, V, Q>(link: &Link<K, V>, key: &Q) -> Option<(Link<K, V>, V)>
where
    K: Ord + Clone + Borrow<Q>,
    V: Clone,
    Q: Ord + ?Sized,
{
    let n = link.as_ref()?;
    match key.cmp(n.key.borrow()) {
        Ordering::Less => {
            let (left, value) = remove_link(&n.left, key)?;
            Some((
                balance(n.key.clone(), n.value.clone(), left, n.right.clone()),
                value,
            ))
        }
        Ordering::Greater => {
            let (right, value) = remove_link(&n.right, key)?;
            Some((
                balance(n.key.clone(), n.value.clone(), n.left.clone(), right),
                value,
            ))
        }
        Ordering::Equal => Some((glue(&n.left, &n.right), n.value.clone())),
    }
}

/// Joins two subtrees whose every key in `left` is smaller than every key in
/// `right`, pulling the replacement root from the heavier side.
fn glue<K: Ord + Clone, V: Clone>(left: &Link<K, V>, right: &Link<K, V>) -> Link<K, V> {
    match (left, right) {
        (None, _) => right.clone(),
        (_, None) => left.clone(),
        _ if size(left) > size(right) => {
            let ((k, v), rest) = extract_max(left);
            balance(k, v, rest, right.clone())
        }
        _ => {
            let ((k, v), rest) = extract_min(right);
            balance(k, v, left.clone(), rest)
        }
    }
}

fn extract_min<K: Clone, V: Clone>(link: &Link<K, V>) -> ((K, V), Link<K, V>) {
    let n = link.as_ref().expect("extract_min of empty tree");
    match &n.left {
        None => ((n.key.clone(), n.value.clone()), n.right.clone()),
        Some(_) => {
            let (kv, rest) = extract_min(&n.left);
            (
                kv,
                balance(n.key.clone(), n.value.clone(), rest, n.right.clone()),
            )
        }
    }
}

fn extract_max<K: Clone, V: Clone>(link: &Link<K, V>) -> ((K, V), Link<K, V>) {
    let n = link.as_ref().expect("extract_max of empty tree");
    match &n.right {
        None => ((n.key.clone(), n.value.clone()), n.left.clone()),
        Some(_) => {
            let (kv, rest) = extract_max(&n.right);
            (
                kv,
                balance(n.key.clone(), n.value.clone(), n.left.clone(), rest),
            )
        }
    }
}

/// In-order borrowing iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn push_left(&mut self, mut link: &'a Link<K, V>) {
        while let Some(node) = link {
            self.stack.push(node);
            link = &node.left;
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        self.push_left(&node.right);
        Some((&node.key, &node.value))
    }
}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

// `Clone` is a root-pointer copy — the O(1) fork this type exists for. Not
// derived: a derive would demand `K: Clone, V: Clone` it does not need.
impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        // Forked siblings usually still share their root: compare pointers
        // before walking. Tree *shapes* may differ for equal content (shape
        // depends on the operation sequence), so the slow path compares the
        // in-order entry sequences, exactly like `BTreeMap` equality.
        if let (Some(a), Some(b)) = (&self.root, &other.root) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq> Eq for PMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Checks the BST order, the cached sizes and the weight-balance
    /// invariant on every node.
    fn check_invariants<K: Ord + fmt::Debug, V>(map: &PMap<K, V>) {
        fn walk<K: Ord + fmt::Debug, V>(link: &Link<K, V>) -> usize {
            let Some(n) = link else { return 0 };
            if let Some(l) = &n.left {
                assert!(
                    l.key < n.key,
                    "left child {:?} >= parent {:?}",
                    l.key,
                    n.key
                );
            }
            if let Some(r) = &n.right {
                assert!(
                    r.key > n.key,
                    "right child {:?} <= parent {:?}",
                    r.key,
                    n.key
                );
            }
            let (ls, rs) = (walk(&n.left), walk(&n.right));
            assert_eq!(n.size, 1 + ls + rs, "stale cached size");
            if ls + rs > 1 {
                assert!(
                    ls <= DELTA * rs && rs <= DELTA * ls,
                    "imbalanced node: left {ls}, right {rs}"
                );
            }
            n.size
        }
        walk(&map.root);
    }

    #[test]
    fn insert_get_remove() {
        let mut map: PMap<i64, &str> = PMap::new();
        assert!(map.is_empty());
        map.insert(2, "b");
        map.insert(1, "a");
        map.insert(3, "c");
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(&1), Some(&"a"));
        assert_eq!(map.get(&4), None);
        map.insert(1, "A"); // overwrite
        assert_eq!(map.get(&1), Some(&"A"));
        assert_eq!(map.len(), 3);
        assert_eq!(map.remove(&2), Some("b"));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&2), None);
        assert_eq!(map.remove(&42), None); // absent: no-op
        assert_eq!(map.len(), 2);
        check_invariants(&map);
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut map: PMap<i64, i64> = PMap::new();
        for k in [5i64, 1, 9, 3, 7, 2, 8] {
            map.insert(k, k * 10);
        }
        let keys: Vec<i64> = map.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        // The worst case for an unbalanced BST: monotonically growing keys
        // (exactly how header fields are allocated). Depth must stay
        // logarithmic, which `check_invariants` implies via weight balance.
        let mut map: PMap<i64, i64> = PMap::new();
        for k in 0..1000 {
            map.insert(k, k);
        }
        check_invariants(&map);
        fn depth<K, V>(link: &Link<K, V>) -> usize {
            link.as_ref()
                .map_or(0, |n| 1 + depth(&n.left).max(depth(&n.right)))
        }
        assert!(
            depth(&map.root) <= 25,
            "depth {} at 1000 keys",
            depth(&map.root)
        );
    }

    #[test]
    fn clone_is_shared_and_mutation_unshares() {
        let mut parent: PMap<String, i64> = PMap::new();
        parent.insert("a".into(), 1);
        parent.insert("b".into(), 2);
        let mut child = parent.clone();
        // Mutating the child never leaks into the parent...
        *child.get_mut(&"a".to_string()).unwrap() = 100;
        child.insert("c".into(), 3);
        assert_eq!(parent.get(&"a".to_string()), Some(&1));
        assert_eq!(parent.get(&"c".to_string()), None);
        // ...and vice versa.
        parent.remove(&"b".to_string());
        assert_eq!(child.get(&"b".to_string()), Some(&2));
    }

    proptest! {
        /// Random edit scripts agree with `BTreeMap` at every step: same
        /// lookup results, same length, same in-order entry sequence — and
        /// the tree invariants hold throughout.
        #[test]
        fn agrees_with_btreemap(
            ops in prop::collection::vec((0u8..3, -40i64..40, 0i64..1000), 0..120)
        ) {
            let mut pmap: PMap<i64, i64> = PMap::new();
            let mut bmap: BTreeMap<i64, i64> = BTreeMap::new();
            for (op, key, value) in ops {
                match op {
                    0 | 1 => { // insert twice as often as remove
                        pmap.insert(key, value);
                        bmap.insert(key, value);
                    }
                    _ => {
                        pmap.remove(&key);
                        bmap.remove(&key);
                    }
                }
                prop_assert_eq!(pmap.len(), bmap.len());
                prop_assert_eq!(pmap.get(&key), bmap.get(&key));
            }
            check_invariants(&pmap);
            let pairs: Vec<(i64, i64)> = pmap.iter().map(|(k, v)| (*k, *v)).collect();
            let expect: Vec<(i64, i64)> = bmap.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(pairs, expect);
        }

        /// Fork isolation: a forked map sees the parent's entries, and
        /// mutations on either side after the fork never leak to the other.
        #[test]
        fn forks_are_isolated(
            base in prop::collection::vec((-40i64..40, 0i64..1000), 0..60),
            edits in prop::collection::vec((0u8..3, -40i64..40, 0i64..1000), 1..60),
        ) {
            let mut parent: PMap<i64, i64> = PMap::new();
            for (k, v) in base {
                parent.insert(k, v);
            }
            let snapshot: Vec<(i64, i64)> = parent.iter().map(|(k, v)| (*k, *v)).collect();
            let mut child = parent.clone();
            for (op, key, value) in edits {
                match op {
                    0 => child.insert(key, value),
                    1 => {
                        child.remove(&key);
                    }
                    _ => {
                        if let Some(v) = child.get_mut(&key) {
                            *v = value;
                        }
                    }
                }
            }
            check_invariants(&child);
            let after: Vec<(i64, i64)> = parent.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(parent.len(), snapshot.len());
            prop_assert_eq!(after, snapshot);
        }
    }
}
