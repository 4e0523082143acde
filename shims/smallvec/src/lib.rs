//! Offline stand-in for `smallvec`.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a minimal small-size-optimized vector under the `smallvec` package name:
//! up to `N` elements are stored inline (no heap allocation), and pushing
//! beyond that spills the whole buffer to an ordinary `Vec<T>`.
//!
//! Unlike the real crate this implementation is written entirely in safe
//! Rust: the inline buffer is `[Option<T>; N]`, so contiguous-slice views are
//! not offered — iteration goes through [`SmallVec::iter`] and the
//! `IntoIterator` impls, which is all the workspace uses. Only the API
//! surface this repository actually needs is provided; extend the shim rather
//! than depending on crates.io if a new call-site needs more.

#![forbid(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};

/// A vector storing up to `N` elements inline before spilling to the heap.
pub struct SmallVec<T, const N: usize> {
    repr: Repr<T, N>,
}

enum Repr<T, const N: usize> {
    /// `len` live elements in `slots[..len]`; every live slot is `Some`.
    Inline { len: usize, slots: [Option<T>; N] },
    /// Spilled storage once the inline capacity is exceeded.
    Heap(Vec<T>),
}

impl<T, const N: usize> SmallVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        SmallVec {
            repr: Repr::Inline {
                len: 0,
                slots: [(); N].map(|_| None),
            },
        }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(v) => v.len(),
        }
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an element, spilling to the heap when the inline buffer is full.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, slots } => {
                if *len < N {
                    slots[*len] = Some(value);
                    *len += 1;
                } else {
                    let mut v: Vec<T> = Vec::with_capacity(N * 2);
                    for slot in slots.iter_mut() {
                        v.push(slot.take().expect("inline slot below len is Some"));
                    }
                    v.push(value);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Removes and returns the last element, if any.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, slots } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    slots[*len].take()
                }
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Removes all elements, keeping the current storage mode.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, slots } => {
                for slot in slots.iter_mut().take(*len) {
                    *slot = None;
                }
                *len = 0;
            }
            Repr::Heap(v) => v.clear(),
        }
    }

    /// True when the elements still live in the inline buffer.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Iterator over element references in insertion order.
    pub fn iter(&self) -> Iter<'_, T, N> {
        Iter { vec: self, pos: 0 }
    }

    /// Reference to the element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        match &self.repr {
            Repr::Inline { len, slots } => {
                if index < *len {
                    slots[index].as_ref()
                } else {
                    None
                }
            }
            Repr::Heap(v) => v.get(index),
        }
    }
}

impl<T, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Clone, const N: usize> Clone for SmallVec<T, N> {
    fn clone(&self) -> Self {
        self.iter().cloned().collect()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Hash, const N: usize> Hash for SmallVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Match `Vec`/slice hashing: length prefix, then each element.
        self.len().hash(state);
        for item in self.iter() {
            item.hash(state);
        }
    }
}

impl<T, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallVec::new();
        out.extend(iter);
        out
    }
}

/// Borrowing iterator over a [`SmallVec`].
pub struct Iter<'a, T, const N: usize> {
    vec: &'a SmallVec<T, N>,
    pos: usize,
}

impl<'a, T, const N: usize> Iterator for Iter<'a, T, N> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        let item = self.vec.get(self.pos);
        if item.is_some() {
            self.pos += 1;
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len().saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T, N>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Owning iterator over a [`SmallVec`].
pub struct IntoIter<T, const N: usize> {
    repr: IntoRepr<T, N>,
}

enum IntoRepr<T, const N: usize> {
    Inline {
        pos: usize,
        len: usize,
        slots: [Option<T>; N],
    },
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match &mut self.repr {
            IntoRepr::Inline { pos, len, slots } => {
                if *pos < *len {
                    let item = slots[*pos].take();
                    *pos += 1;
                    item
                } else {
                    None
                }
            }
            IntoRepr::Heap(it) => it.next(),
        }
    }
}

impl<T, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        IntoIter {
            repr: match self.repr {
                Repr::Inline { len, slots } => IntoRepr::Inline { pos: 0, len, slots },
                Repr::Heap(v) => IntoRepr::Heap(v.into_iter()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity_then_spills() {
        let mut v: SmallVec<u32, 2> = SmallVec::new();
        assert!(v.is_empty() && !v.spilled());
        v.push(1);
        v.push(2);
        assert!(!v.spilled());
        v.push(3);
        assert!(v.spilled());
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn equality_and_hash_ignore_storage_mode() {
        use std::collections::hash_map::DefaultHasher;
        let inline: SmallVec<u32, 4> = [1u32, 2, 3].into_iter().collect();
        let mut spilled: SmallVec<u32, 2> = [1u32, 2, 3].into_iter().collect();
        assert!(spilled.spilled());
        let h = |x: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            x(&mut s);
            s.finish()
        };
        assert_eq!(
            h(&|s| Hash::hash(&inline, s)),
            h(&|s| {
                // Same length-prefixed element hashing as a Vec of the same contents.
                vec![1u32, 2, 3].hash(s)
            })
        );
        assert_eq!(spilled.pop(), Some(3));
        assert_eq!(spilled.iter().count(), 2);
    }
}
