//! Local identifier (LID) assignment.
//!
//! InfiniBand addresses ports by 16-bit LIDs assigned by the subnet
//! manager. We assign one LID per node of the roster (base LID, LMC = 0),
//! terminals first — so terminal LIDs are dense, which keeps the LFTs
//! compact. The views of one fabric share its roster, dead nodes
//! included, so a node keeps its LID across every sweep, as an
//! InfiniBand port keeps its LID.

use fabric::{Network, NodeId, NodeKind};

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
    /// Assign LIDs over the roster: its terminals get `1..=T` in node id
    /// order, its switches follow, dead ones of a degraded view included.
    pub fn assign(net: &Network) -> LidMap {
        assert!(
            net.num_nodes() < 0xBFFF,
            "fabric exceeds the unicast LID space"
        );
        let by_kind = |kind| net.nodes().filter(move |(_, n)| n.kind == kind);
        let roster = by_kind(NodeKind::Terminal).chain(by_kind(NodeKind::Switch));
        let mut by_node = vec![0u16; net.num_nodes()];
        let mut node_by_lid = vec![u32::MAX];
        for (id, _) in roster {
            by_node[id.idx()] = node_by_lid.len() as u16;
            node_by_lid.push(id.0);
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
