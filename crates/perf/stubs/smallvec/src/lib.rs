//! Stand-in for `smallvec`: `SmallVec<[T; N]>` backed by a plain `Vec`
//! (no inline storage, so no `unsafe`). The one measured user is the
//! CDG adjacency in `dfsssp-core`; it pays one heap allocation per
//! non-empty channel that the published crate would avoid.

use std::ops::{Deref, DerefMut};

/// Backing-array marker, implemented for `[T; N]`.
pub trait Array {
    /// Element type.
    type Item;
}

impl<T, const N: usize> Array for [T; N] {
    type Item = T;
}

/// A growable vector; see the crate docs for how it differs from the
/// published `SmallVec`.
pub struct SmallVec<A: Array>(Vec<A::Item>);

impl<A: Array> SmallVec<A> {
    /// An empty vector.
    #[inline]
    pub fn new() -> Self {
        SmallVec(Vec::new())
    }

    /// Consume into the backing `Vec`.
    pub fn into_vec(self) -> Vec<A::Item> {
        self.0
    }
}

impl<A: Array> Default for SmallVec<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Array> Clone for SmallVec<A>
where
    A::Item: Clone,
{
    fn clone(&self) -> Self {
        SmallVec(self.0.clone())
    }
}

impl<A: Array> std::fmt::Debug for SmallVec<A>
where
    A::Item: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<A: Array> PartialEq for SmallVec<A>
where
    A::Item: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<A: Array> Eq for SmallVec<A> where A::Item: Eq {}

impl<A: Array> Deref for SmallVec<A> {
    type Target = Vec<A::Item>;
    #[inline]
    fn deref(&self) -> &Vec<A::Item> {
        &self.0
    }
}

impl<A: Array> DerefMut for SmallVec<A> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<A::Item> {
        &mut self.0
    }
}

impl<A: Array> FromIterator<A::Item> for SmallVec<A> {
    fn from_iter<I: IntoIterator<Item = A::Item>>(iter: I) -> Self {
        SmallVec(iter.into_iter().collect())
    }
}

impl<A: Array> IntoIterator for SmallVec<A> {
    type Item = A::Item;
    type IntoIter = std::vec::IntoIter<A::Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a, A: Array> IntoIterator for &'a SmallVec<A> {
    type Item = &'a A::Item;
    type IntoIter = std::slice::Iter<'a, A::Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}
