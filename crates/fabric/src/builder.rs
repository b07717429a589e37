//! Incremental network construction with port bookkeeping.

use crate::graph::{Channel, ChannelId, Network, Node, NodeId, NodeKind};
use telemetry::fx::FxHashSet;

/// Error raised while wiring a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A node ran out of ports: `(node name, radix)`.
    OutOfPorts(String, u16),
    /// Attempted to link a node to itself.
    SelfLoop(String),
    /// An explicitly requested port is already cabled or out of range:
    /// `(node name, port)`.
    PortTaken(String, u16),
    /// A cable endpoint referenced a node id this builder never created
    /// (a dangling endpoint).
    NoSuchNode(u32),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::OutOfPorts(name, radix) => {
                write!(f, "node {name} has no free port (radix {radix})")
            }
            BuildError::SelfLoop(name) => write!(f, "self-loop on node {name}"),
            BuildError::PortTaken(name, port) => {
                write!(f, "port {port} of {name} is taken or out of range")
            }
            BuildError::NoSuchNode(id) => write!(f, "node id {id} does not exist"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Network`] node by node and cable by cable.
///
/// Port numbers are assigned in cabling order, 1-based, like InfiniBand
/// port numbering. `link` creates a bidirectional cable (two channels);
/// `add_channel` creates a single unidirectional channel for directed
/// topologies such as classical Kautz networks.
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    channels: Vec<Channel>,
    next_port: Vec<u16>,
    /// Ports claimed explicitly via [`Self::link_at`].
    used_ports: Vec<FxHashSet<u16>>,
    label: String,
}

impl NetworkBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the topology label recorded on the built network.
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        self.label = label.into();
        self
    }

    /// Add a switch with the given radix (port count).
    pub fn add_switch(&mut self, name: impl Into<String>, radix: u16) -> NodeId {
        self.add_node(NodeKind::Switch, name.into(), radix)
    }

    /// Add a terminal (endpoint). Terminals get 2 ports so that redundantly
    /// attached service nodes (a real-world irregularity the paper calls
    /// out) can be modeled.
    pub fn add_terminal(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Terminal, name.into(), 2)
    }

    /// Add a node of arbitrary kind/radix.
    pub fn add_node(&mut self, kind: NodeKind, name: String, max_ports: u16) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            name,
            max_ports,
            coord: None,
            level: None,
        });
        self.next_port.push(1);
        self.used_ports.push(FxHashSet::default());
        id
    }

    /// Set the coordinate of a node (for dimension-order routing).
    pub fn set_coord(&mut self, node: NodeId, coord: Vec<u16>) {
        self.nodes[node.idx()].coord = Some(coord);
    }

    /// Set the tree level of a node (0 = leaf) for tree topologies.
    pub fn set_level(&mut self, node: NodeId, level: u8) {
        self.nodes[node.idx()].level = Some(level);
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Free ports remaining on `node`.
    pub fn free_ports(&self, node: NodeId) -> u16 {
        let sequential = self.next_port[node.idx()] - 1;
        // Explicit ports at or above the cursor also consume capacity.
        let explicit = self.used_ports[node.idx()]
            .iter()
            .filter(|&&p| p >= self.next_port[node.idx()])
            .count() as u16;
        self.nodes[node.idx()]
            .max_ports
            .saturating_sub(sequential + explicit)
    }

    /// Reject node ids this builder never handed out, so cable calls
    /// return a typed error instead of panicking on a dangling endpoint.
    fn check_node(&self, node: NodeId) -> Result<(), BuildError> {
        if node.idx() >= self.nodes.len() {
            return Err(BuildError::NoSuchNode(node.0));
        }
        Ok(())
    }

    fn take_port(&mut self, node: NodeId) -> Result<u16, BuildError> {
        let n = &self.nodes[node.idx()];
        let mut p = self.next_port[node.idx()];
        while self.used_ports[node.idx()].contains(&p) {
            p += 1;
        }
        if p > n.max_ports {
            return Err(BuildError::OutOfPorts(n.name.clone(), n.max_ports));
        }
        self.next_port[node.idx()] = p + 1;
        Ok(p)
    }

    fn take_specific_port(&mut self, node: NodeId, port: u16) -> Result<u16, BuildError> {
        let n = &self.nodes[node.idx()];
        let taken = port == 0
            || port > n.max_ports
            || port < self.next_port[node.idx()]
            || self.used_ports[node.idx()].contains(&port);
        if taken {
            return Err(BuildError::PortTaken(n.name.clone(), port));
        }
        self.used_ports[node.idx()].insert(port);
        Ok(port)
    }

    /// Connect `a` and `b` with a bidirectional cable. Returns the two
    /// channel ids `(a→b, b→a)`.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> Result<(ChannelId, ChannelId), BuildError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(BuildError::SelfLoop(self.nodes[a.idx()].name.clone()));
        }
        let pa = self.take_port(a)?;
        let pb = self.take_port(b)?;
        let ab = ChannelId(self.channels.len() as u32);
        let ba = ChannelId(self.channels.len() as u32 + 1);
        self.channels.push(Channel {
            src: a,
            dst: b,
            src_port: pa,
            dst_port: pb,
            rev: Some(ba),
            live: true,
        });
        self.channels.push(Channel {
            src: b,
            dst: a,
            src_port: pb,
            dst_port: pa,
            rev: Some(ab),
            live: true,
        });
        Ok((ab, ba))
    }

    /// Connect `a` port `pa` to `b` port `pb` with a bidirectional cable
    /// using the given 1-based port numbers (for replaying cabling dumps
    /// like `ibnetdiscover` output, where ports are facts, not choices).
    pub fn link_at(
        &mut self,
        a: NodeId,
        pa: u16,
        b: NodeId,
        pb: u16,
    ) -> Result<(ChannelId, ChannelId), BuildError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(BuildError::SelfLoop(self.nodes[a.idx()].name.clone()));
        }
        let pa = self.take_specific_port(a, pa)?;
        let pb = match self.take_specific_port(b, pb) {
            Ok(p) => p,
            Err(e) => {
                // Roll back a's claim so the builder stays consistent.
                self.used_ports[a.idx()].remove(&pa);
                return Err(e);
            }
        };
        let ab = ChannelId(self.channels.len() as u32);
        let ba = ChannelId(self.channels.len() as u32 + 1);
        self.channels.push(Channel {
            src: a,
            dst: b,
            src_port: pa,
            dst_port: pb,
            rev: Some(ba),
            live: true,
        });
        self.channels.push(Channel {
            src: b,
            dst: a,
            src_port: pb,
            dst_port: pa,
            rev: Some(ab),
            live: true,
        });
        Ok((ab, ba))
    }

    /// Add a single unidirectional channel `a→b` at explicit 1-based port
    /// numbers (the directed counterpart of [`Self::link_at`]).
    pub fn add_channel_at(
        &mut self,
        a: NodeId,
        pa: u16,
        b: NodeId,
        pb: u16,
    ) -> Result<ChannelId, BuildError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(BuildError::SelfLoop(self.nodes[a.idx()].name.clone()));
        }
        let pa = self.take_specific_port(a, pa)?;
        let pb = match self.take_specific_port(b, pb) {
            Ok(p) => p,
            Err(e) => {
                self.used_ports[a.idx()].remove(&pa);
                return Err(e);
            }
        };
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel {
            src: a,
            dst: b,
            src_port: pa,
            dst_port: pb,
            rev: None,
            live: true,
        });
        Ok(id)
    }

    /// Add a single unidirectional channel `a→b` (directed topologies).
    pub fn add_channel(&mut self, a: NodeId, b: NodeId) -> Result<ChannelId, BuildError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(BuildError::SelfLoop(self.nodes[a.idx()].name.clone()));
        }
        let pa = self.take_port(a)?;
        let pb = self.take_port(b)?;
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel {
            src: a,
            dst: b,
            src_port: pa,
            dst_port: pb,
            rev: None,
            live: true,
        });
        Ok(id)
    }

    /// Whether any channel (in either direction) already connects `a`/`b`.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.channels
            .iter()
            .any(|c| (c.src == a && c.dst == b) || (c.src == b && c.dst == a))
    }

    /// Finalize into an immutable [`Network`].
    pub fn build(self) -> Network {
        let slots = Default::default();
        Network::assemble(self.nodes, self.channels, |_| false, self.label, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_assigned_in_cabling_order() {
        let mut b = NetworkBuilder::new();
        let s = b.add_switch("s", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        let (c0, _) = b.link(s, t0).unwrap();
        let (c1, _) = b.link(s, t1).unwrap();
        let net = b.build();
        assert_eq!(net.channel(c0).src_port, 1);
        assert_eq!(net.channel(c1).src_port, 2);
        assert_eq!(net.channel(c0).dst_port, 1);
    }

    #[test]
    fn radix_is_enforced() {
        let mut b = NetworkBuilder::new();
        let s = b.add_switch("s", 1);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(s, t0).unwrap();
        let err = b.link(s, t1).unwrap_err();
        assert_eq!(err, BuildError::OutOfPorts("s".into(), 1));
    }

    #[test]
    fn dangling_endpoints_rejected() {
        let mut b = NetworkBuilder::new();
        let s = b.add_switch("s", 4);
        let ghost = NodeId(99);
        assert_eq!(b.link(s, ghost), Err(BuildError::NoSuchNode(99)));
        assert_eq!(b.link(ghost, s), Err(BuildError::NoSuchNode(99)));
        assert_eq!(b.add_channel(s, ghost), Err(BuildError::NoSuchNode(99)));
        assert_eq!(b.link_at(s, 1, ghost, 1), Err(BuildError::NoSuchNode(99)));
        assert_eq!(
            b.add_channel_at(ghost, 1, s, 1),
            Err(BuildError::NoSuchNode(99))
        );
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = NetworkBuilder::new();
        let s = b.add_switch("s", 4);
        assert!(matches!(b.link(s, s), Err(BuildError::SelfLoop(_))));
        assert!(matches!(b.add_channel(s, s), Err(BuildError::SelfLoop(_))));
    }

    #[test]
    fn unidirectional_channel_has_no_reverse() {
        let mut b = NetworkBuilder::new();
        let a = b.add_switch("a", 4);
        let c = b.add_switch("c", 4);
        let ch = b.add_channel(a, c).unwrap();
        let net = b.build();
        assert!(net.channel(ch).rev.is_none());
        assert!(!net.is_strongly_connected());
    }

    #[test]
    fn explicit_ports_on_unidirectional_channels() {
        let mut b = NetworkBuilder::new();
        let a = b.add_switch("a", 8);
        let c = b.add_switch("c", 8);
        let ch = b.add_channel_at(a, 5, c, 3).unwrap();
        // A failed claim must roll back the source port.
        assert!(matches!(
            b.add_channel_at(a, 6, c, 3),
            Err(BuildError::PortTaken(_, 3))
        ));
        b.add_channel_at(a, 6, c, 4).unwrap();
        let net = b.build();
        assert_eq!(net.channel(ch).src_port, 5);
        assert_eq!(net.channel(ch).dst_port, 3);
        assert!(net.channel(ch).rev.is_none());
    }

    #[test]
    fn connected_checks_both_directions() {
        let mut b = NetworkBuilder::new();
        let a = b.add_switch("a", 4);
        let c = b.add_switch("c", 4);
        assert!(!b.connected(a, c));
        b.add_channel(a, c).unwrap();
        assert!(b.connected(a, c));
        assert!(b.connected(c, a));
    }

    #[test]
    fn free_ports_tracks_usage() {
        let mut b = NetworkBuilder::new();
        let s = b.add_switch("s", 3);
        let t = b.add_terminal("t");
        assert_eq!(b.free_ports(s), 3);
        b.link(s, t).unwrap();
        assert_eq!(b.free_ports(s), 2);
        assert_eq!(b.free_ports(t), 1);
    }
}
