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
        let slot = self.slots.slot(c1, c2);
        self.bits[slot / 64] |= 1 << (slot % 64);
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
        (0..self.slots.num_slots())
            .filter(|&slot| self.has(slot))
            .map(|slot| self.slots.ends(slot))
    }

    /// Add every edge of `other`, a set over the same network.
    pub(crate) fn absorb(&mut self, other: &EdgeSet) {
        assert_eq!(self.bits.len(), other.bits.len(), "sets of two networks");
        for (word, more) in self.bits.iter_mut().zip(&other.bits) {
            *word |= more;
        }
    }

    /// Find a cycle among the edges, if any: the channel sequence
    /// `c_0 → c_1 → … → c_k → c_0` (without repeating `c_0` at the end).
    /// Roots and successors are tried in ascending channel order — a
    /// slot row is its channel's successors, sorted — so the witness is
    /// a function of the edge set alone.
    pub fn find_cycle(&self) -> Option<Vec<ChannelId>> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let slots = &*self.slots;
        let mut color = vec![WHITE; slots.num_channels()];
        // DFS stack of (channel, next slot of its row); the grey path is
        // the stack itself, so a back edge yields the cycle as a suffix.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..slots.num_channels() as u32 {
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
