//! Local identifier (LID) assignment.
//!
//! InfiniBand addresses ports by 16-bit LIDs assigned by the subnet
//! manager. We assign one LID per node (base LID, LMC = 0), terminals
//! first — so terminal LIDs are dense, which keeps the LFTs compact.

use fabric::{Network, NodeId};

/// A local identifier. Valid unicast LIDs are `1..=0xBFFF`; 0 means
/// unassigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lid(pub u16);

impl Lid {
    /// Whether this is an assigned unicast LID.
    pub fn is_valid(self) -> bool {
        self.0 >= 1 && self.0 <= 0xBFFF
    }
}

/// Bidirectional node ↔ LID mapping.
#[derive(Clone, Debug)]
pub struct LidMap {
    by_node: Vec<u16>,
    node_by_lid: Vec<u32>,
}

impl LidMap {
    /// Assign LIDs: terminals get `1..=T`, switches follow.
    pub fn assign(net: &Network) -> LidMap {
        assert!(
            net.num_nodes() < 0xBFFF,
            "fabric exceeds the unicast LID space"
        );
        let mut by_node = vec![0u16; net.num_nodes()];
        let mut node_by_lid = vec![u32::MAX; net.num_nodes() + 1];
        let mut next = 1u16;
        for &t in net.terminals() {
            by_node[t.idx()] = next;
            node_by_lid[next as usize] = t.0;
            next += 1;
        }
        for &s in net.switches() {
            by_node[s.idx()] = next;
            node_by_lid[next as usize] = s.0;
            next += 1;
        }
        LidMap {
            by_node,
            node_by_lid,
        }
    }

    /// LID of a node.
    pub fn lid(&self, node: NodeId) -> Lid {
        Lid(self.by_node[node.idx()])
    }

    /// Node owning a LID, if assigned.
    pub fn node(&self, lid: Lid) -> Option<NodeId> {
        match self.node_by_lid.get(lid.0 as usize) {
            Some(&n) if n != u32::MAX => Some(NodeId(n)),
            _ => None,
        }
    }

    /// Highest assigned LID (the LFT length).
    pub fn max_lid(&self) -> Lid {
        Lid((self.node_by_lid.len() - 1) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    #[test]
    fn terminals_get_dense_low_lids() {
        let net = topo::ring(4, 2);
        let lids = LidMap::assign(&net);
        for (i, &t) in net.terminals().iter().enumerate() {
            assert_eq!(lids.lid(t), Lid(i as u16 + 1));
        }
        for &s in net.switches() {
            assert!(lids.lid(s).0 > net.num_terminals() as u16);
        }
    }

    #[test]
    fn mapping_is_bijective() {
        let net = topo::kary_ntree(2, 3);
        let lids = LidMap::assign(&net);
        for (id, _) in net.nodes() {
            let lid = lids.lid(id);
            assert!(lid.is_valid());
            assert_eq!(lids.node(lid), Some(id));
        }
        assert_eq!(lids.node(Lid(0)), None);
        assert_eq!(lids.max_lid().0 as usize, net.num_nodes());
    }

    #[test]
    fn lid_zero_is_invalid() {
        assert!(!Lid(0).is_valid());
        assert!(Lid(1).is_valid());
        assert!(!Lid(0xC000).is_valid()); // multicast space
    }
}
