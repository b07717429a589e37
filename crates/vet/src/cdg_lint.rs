//! Per-layer channel dependency edges and the cycle search over them.
//!
//! The walker fills one [`EdgeSet`] per virtual layer; an acyclic set
//! satisfies the Dally & Seitz condition for that layer. A cycle is
//! reported with its actual channel sequence as the witness.

use fabric::{ChannelId, DepSlots};
use std::sync::Arc;

/// A set of dependency edges `(c1, c2)` between adjacent channels of one
/// network: one bit per [`DepSlots`] slot. Sets built over the same
/// network compare, and merge, word by word.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeSet {
    slots: Arc<DepSlots>,
    bits: Vec<u64>,
}

impl EdgeSet {
    /// The empty set over `slots`.
    pub fn over(slots: Arc<DepSlots>) -> EdgeSet {
        EdgeSet {
            bits: vec![0; slots.num_slots().div_ceil(64)],
            slots,
        }
    }

    /// Add `(c1, c2)`, which must be adjacent (consecutive hops of a
    /// validated walk).
    #[inline]
    pub fn insert(&mut self, c1: u32, c2: u32) {
        self.insert_slot(self.slots.slot(c1, c2));
    }

    fn has(&self, slot: usize) -> bool {
        self.bits[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no edge.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Whether `(c1, c2)` is in the set; any two channels of the network
    /// may be asked about, adjacent or not.
    pub fn contains(&self, &(c1, c2): &(u32, u32)) -> bool {
        let mut row = self.slots.row(c1);
        row.any(|slot| self.has(slot) && self.slots.ends(slot).1 == c2)
    }

    /// The edges, ascending by `(c1, c2)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.slots_held().map(|slot| self.slots.ends(slot))
    }

    /// Add every edge of `other`, a set over the same network.
    pub(crate) fn absorb(&mut self, other: &EdgeSet) {
        assert_eq!(self.bits.len(), other.bits.len(), "sets of two networks");
        for (word, more) in self.bits.iter_mut().zip(&other.bits) {
            *word |= more;
        }
    }

    /// Add the dependency of `slot`.
    #[inline]
    pub(crate) fn insert_slot(&mut self, slot: usize) {
        self.bits[slot / 64] |= 1 << (slot % 64);
    }

    /// Remove the dependency of `slot`.
    pub(crate) fn remove_slot(&mut self, slot: usize) {
        self.bits[slot / 64] &= !(1 << (slot % 64));
    }

    /// The slots of the set's edges, ascending.
    pub(crate) fn slots_held(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots_where(|word, _| word)
    }

    /// The slots of the edges of this set that `other`, a set over the
    /// same network, does not hold, ascending.
    pub(crate) fn slots_not_in<'a>(
        &'a self,
        other: &'a EdgeSet,
    ) -> impl Iterator<Item = usize> + 'a {
        self.slots_where(move |word, i| word & !other.bits[i])
    }

    /// The set bits of `pick(word, i)` over the words of the set.
    fn slots_where<'a>(
        &'a self,
        pick: impl Fn(u64, usize) -> u64 + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let words = self
            .bits
            .iter()
            .enumerate()
            .map(move |(i, &w)| (i, pick(w, i)));
        words.flat_map(|(i, word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(i * 64 + bit)
            })
        })
    }

    /// The slots the set is over.
    pub(crate) fn slots(&self) -> &Arc<DepSlots> {
        &self.slots
    }

    /// Find a cycle among the edges, if any: the channel sequence
    /// `c_0 → c_1 → … → c_k → c_0` (without repeating `c_0` at the end).
    /// Roots and successors are tried in ascending channel order — a
    /// slot row is its channel's successors, sorted — so the witness is
    /// a function of the edge set alone.
    pub fn find_cycle(&self) -> Option<Vec<ChannelId>> {
        self.search(0..self.slots.num_channels() as u32)
    }

    /// [`Self::find_cycle`] for a set whose every cycle runs through one
    /// of `heads` — the heads of the edges it gained over an acyclic set:
    /// only what they reach is searched, and a cycle found there is
    /// reported with `find_cycle`'s witness.
    pub fn find_cycle_from(&self, heads: &[u32]) -> Option<Vec<ChannelId>> {
        self.search(heads.iter().copied())?;
        self.find_cycle()
    }

    /// Depth-first search from each of `roots` in turn, sharing colors: a
    /// cycle reachable from a root is found.
    fn search(&self, roots: impl Iterator<Item = u32>) -> Option<Vec<ChannelId>> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let slots = &*self.slots;
        let mut color = vec![WHITE; slots.num_channels()];
        // DFS stack of (channel, next slot of its row); the grey path is
        // the stack itself, so a back edge yields the cycle as a suffix.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in roots {
            if color[start as usize] != WHITE {
                continue;
            }
            color[start as usize] = GREY;
            stack.push((start, slots.row(start).start));
            while let Some(top) = stack.last_mut() {
                let u = top.0;
                if top.1 == slots.row(u).end {
                    color[u as usize] = BLACK;
                    stack.pop();
                    continue;
                }
                top.1 += 1;
                if !self.has(top.1 - 1) {
                    continue;
                }
                let v = slots.ends(top.1 - 1).1;
                match color[v as usize] {
                    WHITE => {
                        color[v as usize] = GREY;
                        stack.push((v, slots.row(v).start));
                    }
                    GREY => {
                        let pos = stack
                            .iter()
                            .position(|&(c, _)| c == v)
                            .expect("grey node is on the stack");
                        return Some(stack[pos..].iter().map(|&(c, _)| ChannelId(c)).collect());
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `edges` over `n` channels, any pair allowed.
    fn set(n: usize, edges: &[(u32, u32)]) -> EdgeSet {
        let mut set = EdgeSet::over(DepSlots::complete(n));
        for &(a, b) in edges {
            set.insert(a, b);
        }
        set
    }

    #[test]
    fn acyclic_has_no_cycle() {
        assert!(set(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
            .find_cycle()
            .is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let cycle = set(2, &[(1, 1)]).find_cycle().unwrap();
        assert_eq!(cycle, vec![ChannelId(1)]);
    }

    #[test]
    fn cycle_is_closed_and_chained() {
        let edges = set(4, &[(0, 1), (1, 2), (2, 3), (3, 1)]);
        let cycle = edges.find_cycle().unwrap();
        assert!(!cycle.is_empty());
        for w in cycle.windows(2) {
            assert!(edges.contains(&(w[0].0, w[1].0)));
        }
        assert!(edges.contains(&(cycle.last().unwrap().0, cycle[0].0)));
        // Node 0 feeds the cycle but is not part of it.
        assert!(!cycle.contains(&ChannelId(0)));
    }

    #[test]
    fn empty_is_acyclic() {
        assert!(set(8, &[]).find_cycle().is_none());
    }

    /// A search from the heads of the edges added to an acyclic set finds
    /// a cycle exactly when the full search does, and reports the full
    /// search's witness: random acyclic bases (edges forward in a random
    /// order of the channels) plus random edges in any direction.
    #[test]
    fn a_search_from_gained_heads_is_the_full_search() {
        let mut rng = fabric::rng::Rng::seed_from_u64(37);
        let (mut cyclic, mut acyclic) = (0, 0);
        for _ in 0..2000 {
            let n = rng.range(2usize..24);
            let mut order: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut order);
            let mut edges = EdgeSet::over(DepSlots::complete(n));
            for _ in 0..rng.range(0..3 * n) {
                let (i, j) = (rng.range(0..n), rng.range(0..n));
                if i < j {
                    edges.insert(order[i], order[j]);
                }
            }
            assert!(edges.find_cycle().is_none(), "the base is acyclic");
            let mut heads = Vec::new();
            for _ in 0..rng.range(0..4usize) {
                let (a, b) = (rng.range(0..n as u32), rng.range(0..n as u32));
                edges.insert(a, b);
                heads.push(b);
            }
            let full = edges.find_cycle();
            assert_eq!(edges.find_cycle_from(&heads), full, "heads {heads:?}");
            match full {
                Some(_) => cyclic += 1,
                None => acyclic += 1,
            }
        }
        assert!(
            cyclic > 200 && acyclic > 200,
            "{cyclic} cyclic, {acyclic} acyclic"
        );
    }

    #[test]
    fn a_set_counts_lists_and_merges_its_edges() {
        let mut a = set(4, &[(2, 3), (0, 1), (2, 3)]);
        assert_eq!((a.len(), a.is_empty()), (2, false));
        assert_eq!(a.iter().collect::<Vec<_>>(), [(0, 1), (2, 3)]);
        assert!(a.contains(&(0, 1)) && !a.contains(&(1, 0)) && !a.contains(&(3, 3)));
        a.absorb(&set(4, &[(0, 1), (3, 0)]));
        assert!(a == set(4, &[(3, 0), (2, 3), (0, 1)]) && a != set(4, &[(3, 0)]));
        assert_eq!(a.len(), 3);
    }
}
