//! Subnet discovery: the SM's sweep of the fabric.
//!
//! OpenSM learns the topology by sending directed-route probes out of
//! every discovered port. We model the same process: starting from the
//! node hosting the subnet manager, repeatedly probe each known node's
//! ports (reading the far end of each cable) until no new nodes appear.

use fabric::{ChannelId, Network, NodeId};
use telemetry::fx::FxHashSet;

/// Result of a sweep.
#[derive(Clone, Debug, Default)]
pub struct DiscoveredFabric {
    /// Nodes in discovery (BFS) order; the SM's node is first.
    pub nodes: Vec<NodeId>,
    /// Cables discovered (one channel id per bidirectional pair; the
    /// lower id of the pair).
    pub cables: Vec<ChannelId>,
    /// Number of probe operations issued (each port is probed once).
    pub probes: usize,
}

impl DiscoveredFabric {
    /// Whether the sweep saw the entire fabric: every live node (a dead
    /// node of a degraded view has no port to answer a probe).
    pub fn complete(&self, net: &Network) -> bool {
        self.nodes.len() == net.num_terminals() + net.num_switches()
    }
}

/// Sweep the fabric starting at `sm_node` (usually a terminal: the host
/// running the subnet manager).
pub fn discover(net: &Network, sm_node: NodeId) -> DiscoveredFabric {
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    let mut cables_seen: FxHashSet<ChannelId> = FxHashSet::default();
    let mut nodes = Vec::new();
    let mut cables = Vec::new();
    let mut probes = 0usize;
    let mut queue = std::collections::VecDeque::new();
    seen.insert(sm_node);
    queue.push_back(sm_node);
    while let Some(n) = queue.pop_front() {
        nodes.push(n);
        // Probe each port of n: learn the cable and the far node.
        for &c in net.out_channels(n) {
            probes += 1;
            let ch = net.channel(c);
            let canonical = match ch.rev {
                Some(r) => ChannelId(c.0.min(r.0)),
                None => c,
            };
            if cables_seen.insert(canonical) {
                cables.push(canonical);
            }
            if seen.insert(ch.dst) {
                queue.push_back(ch.dst);
            }
        }
    }
    DiscoveredFabric {
        nodes,
        cables,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    #[test]
    fn sweep_finds_whole_connected_fabric() {
        let net = topo::kary_ntree(2, 3);
        let sm = net.terminals()[0];
        let d = discover(&net, sm);
        assert!(d.complete(&net));
        assert_eq!(d.nodes.len(), net.num_nodes());
        assert_eq!(d.cables.len(), net.num_cables());
        assert_eq!(d.nodes[0], sm);
    }

    #[test]
    fn probe_count_equals_outgoing_ports() {
        let net = topo::ring(5, 1);
        let d = discover(&net, net.terminals()[0]);
        assert_eq!(d.probes, net.num_channels());
    }

    #[test]
    fn partial_fabric_detected() {
        // Two disconnected islands: the sweep only sees the SM's island.
        let mut b = fabric::NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let t0 = b.add_terminal("t0");
        b.link(t0, s0).unwrap();
        let s1 = b.add_switch("s1", 4);
        let t1 = b.add_terminal("t1");
        b.link(t1, s1).unwrap();
        let net = b.build();
        let d = discover(&net, t0);
        assert!(!d.complete(&net));
        assert_eq!(d.nodes.len(), 2);
    }

    #[test]
    fn discovery_from_any_start_is_complete() {
        let net = topo::torus(&[3, 3], 1);
        for (id, _) in net.nodes() {
            assert!(discover(&net, id).complete(&net));
        }
    }
}
