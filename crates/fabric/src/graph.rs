//! Directed multigraph model of an interconnection network.
//!
//! Nodes are either *switches* (routing elements with a bounded number of
//! ports, e.g. 36-port InfiniBand switches) or *terminals* (endpoints /
//! channel adapters). Every physical cable is represented by two
//! unidirectional [`Channel`]s, one per direction, which are each other's
//! [`Channel::rev`]. Purely unidirectional links (e.g. a classical directed
//! Kautz network) have `rev == None`.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Index of a node (switch or terminal) in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of a unidirectional channel in a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl NodeId {
    /// The raw index as a usize, for indexing per-node arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ChannelId {
    /// The raw index as a usize, for indexing per-channel arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Kind of a network node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// A routing element; holds a forwarding table.
    Switch,
    /// An endpoint (InfiniBand: host channel adapter). Sources and sinks
    /// of traffic; `Routes` destinations are always terminals.
    Terminal,
}

/// A node of the network.
#[derive(Clone, Debug)]
pub struct Node {
    /// Switch or terminal.
    pub kind: NodeKind,
    /// Human-readable name (used by the text format and error messages).
    pub name: String,
    /// Maximum number of ports (cable attachment points). Switch radix.
    pub max_ports: u16,
    /// Optional coordinate for structured topologies (meshes, tori); used
    /// by dimension-order routing.
    pub coord: Option<Vec<u16>>,
    /// Optional tree level for fat-tree-like topologies (0 = leaf level);
    /// used by the fat-tree routing baseline and Up*/Down* root selection.
    pub level: Option<u8>,
}

/// A unidirectional communication channel between two nodes.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Port number on `src` this channel leaves from (1-based, like IB).
    pub src_port: u16,
    /// Port number on `dst` this channel arrives at (1-based).
    pub dst_port: u16,
    /// The opposite-direction channel of the same cable, if bidirectional.
    pub rev: Option<ChannelId>,
    /// Live, or a tombstone: a dead cable's channel, which a degraded
    /// view keeps at its id (see [`Network::is_live_channel`]).
    pub(crate) live: bool,
}

/// Flat compressed-sparse-row adjacency: one contiguous channel-id
/// array plus per-node offsets. The routing hot loops (Dijkstra
/// relaxation, BFS sweeps, reachability walks) iterate adjacency
/// millions of times per run; a CSR row is one pointer-width slice into
/// a single allocation. Built once per `Network` straight from the live
/// channels (a tombstone of a degraded view is in no row);
/// [`Network::validate`] re-checks it against `channels`.
#[derive(Clone, Debug, Default)]
pub(crate) struct CsrAdj {
    /// `channel_offsets[v]..channel_offsets[v+1]` indexes
    /// `channel_ids` for node `v`; length `num_nodes + 1`.
    pub(crate) channel_offsets: Vec<u32>,
    /// Concatenated per-node channel rows, each ascending.
    pub(crate) channel_ids: Vec<ChannelId>,
}

impl CsrAdj {
    /// Group the live channels by `end(channel)` over `n` nodes with a
    /// counting pass; every row lists its channels in ascending id order.
    pub(crate) fn from_channels(
        n: usize,
        channels: &[Channel],
        end: impl Fn(&Channel) -> NodeId,
    ) -> CsrAdj {
        let live_channels = || channels.iter().enumerate().filter(|&(_, ch)| ch.live);
        let mut channel_offsets = vec![0u32; n + 1];
        for (_, ch) in live_channels() {
            channel_offsets[end(ch).idx() + 1] += 1;
        }
        for v in 0..n {
            channel_offsets[v + 1] += channel_offsets[v];
        }
        let mut cursor = channel_offsets.clone();
        let mut channel_ids = vec![ChannelId(0); channel_offsets[n] as usize];
        for (i, ch) in live_channels() {
            let at = &mut cursor[end(ch).idx()];
            channel_ids[*at as usize] = ChannelId(i as u32);
            *at += 1;
        }
        CsrAdj {
            channel_offsets,
            channel_ids,
        }
    }

    /// The adjacency row of node `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[ChannelId] {
        let s = self.channel_offsets[i] as usize;
        let e = self.channel_offsets[i + 1] as usize;
        &self.channel_ids[s..e]
    }

    /// Drift check against the channel list this CSR was built from:
    /// offsets start at 0, are monotone and end at the number of live
    /// channels; every row is ascending and holds only live channels
    /// whose `end` is the row's node. With one slot per live channel that
    /// places every live channel exactly once. Bounds-checked throughout.
    fn check(
        &self,
        name: &str,
        n: usize,
        channels: &[Channel],
        end: impl Fn(&Channel) -> NodeId,
    ) -> Result<(), String> {
        let offs = &self.channel_offsets;
        let total = channels.iter().filter(|ch| ch.live).count();
        if offs.len() != n + 1
            || offs.first() != Some(&0)
            || offs.last().map(|&o| o as usize) != Some(total)
            || self.channel_ids.len() != total
        {
            return Err(format!("{name} offsets do not span the channel list"));
        }
        for (v, w) in offs.windows(2).enumerate() {
            // `get` is `None` for a decreasing pair as well as an overrun.
            let row = self
                .channel_ids
                .get(w[0] as usize..w[1] as usize)
                .ok_or_else(|| format!("{name} offsets of n{v} are not monotone"))?;
            if !row.windows(2).all(|p| p[0] < p[1]) {
                return Err(format!("{name} row of n{v} is not ascending"));
            }
            for &c in row {
                match channels.get(c.idx()).filter(|ch| ch.live) {
                    None => return Err(format!("{name} of n{v} lists missing channel c{}", c.0)),
                    Some(ch) if end(ch).idx() != v => {
                        return Err(format!("{name} of n{v} lists foreign channel c{}", c.0))
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// Dense addressing of channel dependencies. A dependency `(c1, c2)` — a
/// route takes `c2` directly after `c1` — can only exist where `c2`
/// leaves the node `c1` enters, so a fabric has Σ_c outdeg(head(c))
/// places one can be: a few per channel, not `|C|²`.
/// [`Network::dep_slots`] numbers them, once per reference fabric: every
/// degraded view shares its reference's slots, so a dependency has one
/// slot in all of them (a view just never uses a tombstone's). Each `c1`
/// owns one contiguous row holding its
/// successors in ascending channel order, rows in channel order, so
/// ascending slots are ascending `(c1, c2)` pairs. Whatever is kept per
/// dependency (CDG edges, window counts, edge sets) is a flat array
/// indexed by slot instead of a hash map keyed by the pair.
#[derive(Clone, Debug, PartialEq)]
pub struct DepSlots {
    /// `base[c1]..base[c1 + 1]` is `c1`'s row; length `num_channels + 1`.
    base: Vec<u32>,
    /// `rank[c2]`: where `c2` sits within every row that holds it.
    rank: Vec<u32>,
    /// The pair each slot stands for.
    ends: Vec<(u32, u32)>,
}

impl DepSlots {
    /// The slots of `net`, a fabric with no tombstones: one per adjacent
    /// channel pair.
    fn of(net: &Network) -> Arc<DepSlots> {
        let n = net.num_channels();
        let (mut base, mut rank) = (Vec::with_capacity(n + 1), vec![0u32; n]);
        let mut ends = Vec::new();
        for (c1, ch) in net.channels.iter().enumerate() {
            base.push(ends.len() as u32);
            for (i, c2) in net.out_csr.row(ch.dst.idx()).iter().enumerate() {
                rank[c2.idx()] = i as u32;
                ends.push((c1 as u32, c2.0));
            }
        }
        base.push(u32::try_from(ends.len()).expect("slots are addressed by u32"));
        Arc::new(DepSlots { base, rank, ends })
    }

    /// All `n²` ordered pairs over `n` channels, `slot = c1·n + c2`: for
    /// small digraphs that are not a fabric's dependencies.
    pub fn complete(n: usize) -> Arc<DepSlots> {
        let n = u32::from(u16::try_from(n).expect("n² slots are addressed by u32"));
        Arc::new(DepSlots {
            base: (0..=n).map(|c1| c1 * n).collect(),
            rank: (0..n).collect(),
            ends: (0..n)
                .flat_map(|c1| (0..n).map(move |c2| (c1, c2)))
                .collect(),
        })
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.ends.len()
    }

    /// Number of channels the slots range over.
    pub fn num_channels(&self) -> usize {
        self.rank.len()
    }

    /// The slot of `(c1, c2)`, which must be adjacent (`c2` leaves the
    /// node `c1` enters): callers pass consecutive hops of a walk they
    /// validated. Two loads, checked in debug builds only.
    #[inline]
    pub fn slot(&self, c1: u32, c2: u32) -> usize {
        let slot = (self.base[c1 as usize] + self.rank[c2 as usize]) as usize;
        debug_assert_eq!(self.ends.get(slot), Some(&(c1, c2)), "not adjacent");
        slot
    }

    /// The slots of `c1`'s successors, ascending by successor.
    #[inline]
    pub fn row(&self, c1: u32) -> std::ops::Range<usize> {
        self.base[c1 as usize] as usize..self.base[c1 as usize + 1] as usize
    }

    /// The pair `(c1, c2)` a slot stands for.
    #[inline]
    pub fn ends(&self, slot: usize) -> (u32, u32) {
        self.ends[slot]
    }
}

/// An immutable interconnection network `I = G(N, C)`.
///
/// Built via [`crate::NetworkBuilder`] or one of the [`crate::topo`]
/// generators. Provides O(1) access to per-node adjacency and cached
/// switch/terminal index maps used by routing engines and simulators.
/// Adjacency is held as flat [`CsrAdj`] arrays derived from `channels`.
#[derive(Clone, Debug)]
pub struct Network {
    pub(crate) nodes: Vec<Node>,
    /// Every channel id of the fabric, a degraded view's tombstones too
    /// (in no adjacency row).
    pub(crate) channels: Vec<Channel>,
    /// Outgoing channels per node, grouped by `Channel::src`.
    pub(crate) out_csr: CsrAdj,
    /// Incoming channels per node, grouped by `Channel::dst`.
    pub(crate) in_csr: CsrAdj,
    /// All switch node ids, in id order.
    pub(crate) switches: Vec<NodeId>,
    /// All terminal node ids, in id order.
    pub(crate) terminals: Vec<NodeId>,
    /// For each node: its index within `terminals`, or `u32::MAX`.
    pub(crate) terminal_index: Vec<u32>,
    /// For each node: its index within `switches`, or `u32::MAX`.
    pub(crate) switch_index: Vec<u32>,
    /// Free-form topology label, e.g. `"xgft(2;8,8;4,4)"`.
    pub(crate) label: String,
    /// The reference fabric's dependency slots, built on first use and
    /// shared by every view [`crate::degrade::remove`] makes of it.
    pub(crate) dep_slots: OnceLock<Arc<DepSlots>>,
}

pub(crate) const NONE_U32: u32 = u32::MAX;

impl Network {
    /// Assemble a network from its roster and channel list: the nodes
    /// `dead` names are kept but live in neither [`Network::terminals`]
    /// nor [`Network::switches`], and the channels not marked live are
    /// tombstones (the caller cabled no live channel to a dead node).
    pub(crate) fn assemble(
        nodes: Vec<Node>,
        channels: Vec<Channel>,
        dead: impl Fn(NodeId) -> bool,
        label: String,
        dep_slots: OnceLock<Arc<DepSlots>>,
    ) -> Network {
        let n = nodes.len();
        let mut switches = Vec::new();
        let mut terminals = Vec::new();
        let mut switch_index = vec![NONE_U32; n];
        let mut terminal_index = vec![NONE_U32; n];
        for (i, node) in nodes.iter().enumerate() {
            if dead(NodeId(i as u32)) {
                continue;
            }
            match node.kind {
                NodeKind::Switch => {
                    switch_index[i] = switches.len() as u32;
                    switches.push(NodeId(i as u32));
                }
                NodeKind::Terminal => {
                    terminal_index[i] = terminals.len() as u32;
                    terminals.push(NodeId(i as u32));
                }
            }
        }
        Network {
            out_csr: CsrAdj::from_channels(n, &channels, |ch| ch.src),
            in_csr: CsrAdj::from_channels(n, &channels, |ch| ch.dst),
            nodes,
            channels,
            switches,
            terminals,
            terminal_index,
            switch_index,
            label,
            dep_slots,
        }
    }

    /// Number of nodes `|N|` (switches + terminals).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Size of the channel id space: every channel of the fabric, the
    /// tombstones of a degraded view included (per-channel arrays are
    /// this long, and a channel keeps its id in every view).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of live unidirectional channels `|C|` of this view.
    #[inline]
    pub fn num_live_channels(&self) -> usize {
        self.out_csr.channel_ids.len()
    }

    /// Whether `c` is a live channel of this view: in the id space and
    /// not a tombstone. A degraded view ([`crate::degrade::remove`])
    /// keeps a dead cable's channels at their ids, with their ends and
    /// ports, but in no adjacency row and not in [`Self::channels`].
    #[inline]
    pub fn is_live_channel(&self, c: ChannelId) -> bool {
        self.live_channel(c).is_some()
    }

    /// The channel `c`, if it is live in this view (see
    /// [`Self::is_live_channel`]): one look-up for a walk that checks an
    /// entry and follows it.
    #[inline]
    pub fn live_channel(&self, c: ChannelId) -> Option<&Channel> {
        self.channels.get(c.idx()).filter(|ch| ch.live)
    }

    /// Whether `self` and `other` are views of one fabric: one roster and
    /// one channel id space, every channel with the same ends and ports,
    /// so a node, a channel and a dependency slot mean the same in both.
    /// O(1) for views [`crate::degrade::remove`] made of one reference.
    pub fn same_fabric(&self, other: &Network) -> bool {
        if let (Some(a), Some(b)) = (self.dep_slots.get(), other.dep_slots.get()) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
        }
        let ends = |ch: &Channel| (ch.src, ch.dst, ch.src_port, ch.dst_port);
        self.nodes.len() == other.nodes.len()
            && self.channels.len() == other.channels.len()
            && (self.channels.iter().zip(&other.channels)).all(|(a, b)| ends(a) == ends(b))
    }

    /// The dependency slots of this network's reference fabric (see
    /// [`DepSlots`]), built on first use: every view of one fabric
    /// shares them, so a dependency has one slot in all of them.
    pub fn dep_slots(&self) -> &Arc<DepSlots> {
        self.dep_slots.get_or_init(|| DepSlots::of(self))
    }

    /// Number of terminals (endpoints).
    #[inline]
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// The node with the given id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// The channel with the given id, live or a tombstone.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.idx()]
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All live channels with their ids, ascending (tombstones skipped).
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        let all = self.channels.iter().enumerate();
        all.filter(|(_, c)| c.live)
            .map(|(i, c)| (ChannelId(i as u32), c))
    }

    /// Channels leaving `node`.
    #[inline]
    pub fn out_channels(&self, node: NodeId) -> &[ChannelId] {
        self.out_csr.row(node.idx())
    }

    /// Channels arriving at `node`.
    #[inline]
    pub fn in_channels(&self, node: NodeId) -> &[ChannelId] {
        self.in_csr.row(node.idx())
    }

    /// All live switch ids, ascending.
    #[inline]
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// All live terminal ids, ascending.
    #[inline]
    pub fn terminals(&self) -> &[NodeId] {
        &self.terminals
    }

    /// Index of `node` within [`Self::terminals`], if it is a terminal.
    #[inline]
    pub fn terminal_index(&self, node: NodeId) -> Option<usize> {
        match self.terminal_index[node.idx()] {
            NONE_U32 => None,
            i => Some(i as usize),
        }
    }

    /// Index of `node` within [`Self::switches`], if it is a switch.
    #[inline]
    pub fn switch_index(&self, node: NodeId) -> Option<usize> {
        match self.switch_index[node.idx()] {
            NONE_U32 => None,
            i => Some(i as usize),
        }
    }

    /// Whether `node` is a terminal.
    #[inline]
    pub fn is_terminal(&self, node: NodeId) -> bool {
        self.terminal_index[node.idx()] != NONE_U32
    }

    /// Whether `node` is a switch.
    #[inline]
    pub fn is_switch(&self, node: NodeId) -> bool {
        self.switch_index[node.idx()] != NONE_U32
    }

    /// Whether `node` is live: a terminal or a switch of this view. A
    /// degraded view ([`crate::degrade::remove`]) keeps its reference's
    /// whole roster, so a dead switch or a stranded terminal is still a
    /// node, but one with no channels that is neither.
    #[inline]
    pub fn is_live(&self, node: NodeId) -> bool {
        self.is_terminal(node) || self.is_switch(node)
    }

    /// Free-form topology label, e.g. `"kautz(3,3)"`.
    #[inline]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Replace the topology label.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Find a node by name. O(n); for tests and file parsing only: the
    /// views of one fabric share its node ids, so nothing matches nodes
    /// across views by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Whether every live node can reach every other along directed
    /// channels. Routing engines require this.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.nodes.len();
        let Some(&start) = self.switches.first().or(self.terminals.first()) else {
            return true;
        };
        let live = self.terminals.len() + self.switches.len();
        let reach = |adj: &CsrAdj, forward: bool| -> usize {
            let mut seen = vec![false; n];
            let mut stack = vec![start];
            seen[start.idx()] = true;
            let mut count = 1;
            while let Some(u) = stack.pop() {
                for &c in adj.row(u.idx()) {
                    let v = if forward {
                        self.channels[c.idx()].dst
                    } else {
                        self.channels[c.idx()].src
                    };
                    if !seen[v.idx()] {
                        seen[v.idx()] = true;
                        count += 1;
                        stack.push(v);
                    }
                }
            }
            count
        };
        reach(&self.out_csr, true) == live && reach(&self.in_csr, false) == live
    }

    /// Graph diameter `d(I)` in hops (over directed channels), computed by
    /// BFS from every live node. `None` for disconnected networks.
    pub fn diameter(&self) -> Option<usize> {
        let n = self.nodes.len();
        let mut diameter = 0;
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        let live = || self.switches.iter().chain(&self.terminals);
        for &s in live() {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[s.idx()] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &c in self.out_csr.row(u.idx()) {
                    let v = self.channels[c.idx()].dst;
                    if dist[v.idx()] == u32::MAX {
                        dist[v.idx()] = dist[u.idx()] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let max = live().map(|v| dist[v.idx()]).max().unwrap_or(0);
            if max == u32::MAX {
                return None;
            }
            diameter = diameter.max(max as usize);
        }
        Some(diameter)
    }

    /// The unique channel from `a` to `b`, if there is exactly one.
    pub fn channel_between(&self, a: NodeId, b: NodeId) -> Option<ChannelId> {
        let mut found = None;
        for &c in self.out_csr.row(a.idx()) {
            if self.channels[c.idx()].dst == b {
                if found.is_some() {
                    return None; // ambiguous: parallel channels
                }
                found = Some(c);
            }
        }
        found
    }

    /// All channels from `a` to `b` (parallel cables produce several).
    pub fn channels_between(&self, a: NodeId, b: NodeId) -> Vec<ChannelId> {
        self.out_csr
            .row(a.idx())
            .iter()
            .copied()
            .filter(|&c| self.channels[c.idx()].dst == b)
            .collect()
    }

    /// Minimum *routable* hop distances from every node to `dst`,
    /// following channels forward (`hops[v]` = length of a shortest
    /// directed path v→dst). Paths never transit terminals: channel
    /// adapters do not forward, so only `dst` itself and switches are
    /// expanded. This is the metric every routing engine's minimality is
    /// measured against.
    pub fn hops_to(&self, dst: NodeId) -> Vec<u32> {
        self.bfs_hops(dst, false)
    }

    /// The same metric from the other end: `hops_from(src)[v]` is the
    /// length of a shortest directed path src→v that transits switches
    /// only, so `hops_from(a)[d] == hops_to(d)[a]` for every pair. One
    /// BFS answers "how far is `src` from every destination" where
    /// [`Self::hops_to`] would need one BFS per destination.
    pub fn hops_from(&self, src: NodeId) -> Vec<u32> {
        self.bfs_hops(src, true)
    }

    /// BFS hop counts around `root`, along out-channels when `forward`
    /// and against in-channels otherwise (`u32::MAX` = unreached).
    /// Terminals other than `root` are reached but never expanded.
    fn bfs_hops(&self, root: NodeId, forward: bool) -> Vec<u32> {
        let adj = if forward { &self.out_csr } else { &self.in_csr };
        let mut dist = vec![u32::MAX; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[root.idx()] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            if u != root && self.nodes[u.idx()].kind == NodeKind::Terminal {
                continue; // terminals sink traffic; they never forward
            }
            for &c in adj.row(u.idx()) {
                let ch = &self.channels[c.idx()];
                let v = if forward { ch.dst } else { ch.src };
                if dist[v.idx()] == u32::MAX {
                    dist[v.idx()] = dist[u.idx()] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Internal consistency check: adjacency rows, index maps and port
    /// assignments all agree with the node and channel lists, a node in
    /// neither index map (a dead node of a degraded view) has no
    /// channels, and a cable's two directions are both live or both
    /// tombstones. Used by tests and after file parsing.
    ///
    /// This must never panic, whatever the contents (short index maps,
    /// dangling channel ids, foreign adjacency), so every array length
    /// is checked before any indexed access.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if self.terminal_index.len() != n || self.switch_index.len() != n {
            return Err(format!(
                "index maps cover {}/{} nodes, expected {n}",
                self.terminal_index.len(),
                self.switch_index.len()
            ));
        }
        for (i, ch) in self.channels.iter().enumerate() {
            if ch.src.idx() >= n || ch.dst.idx() >= n {
                return Err(format!("channel c{i} references missing node"));
            }
            if ch.src == ch.dst {
                return Err(format!("channel c{i} is a self-loop"));
            }
            if let Some(r) = ch.rev {
                let Some(rc) = self.channels.get(r.idx()) else {
                    return Err(format!("channel c{i} has a dangling reverse c{}", r.0));
                };
                if rc.src != ch.dst || rc.dst != ch.src || rc.rev != Some(ChannelId(i as u32)) {
                    return Err(format!("channel c{i} has inconsistent reverse"));
                }
                if ch.live != rc.live {
                    return Err(format!("channel c{i} and its reverse differ in liveness"));
                }
            }
        }
        // Hot loops read the CSR rows, so any drift from `channels`
        // silently changes routing.
        self.out_csr
            .check("out_csr", n, &self.channels, |ch| ch.src)?;
        self.in_csr
            .check("in_csr", n, &self.channels, |ch| ch.dst)?;
        // Port usage per node must be within max_ports and unique per
        // direction pair (a bidirectional cable uses the same port number
        // for both of its channels).
        let mut used: Vec<Vec<u16>> = vec![Vec::new(); n];
        for (_, ch) in self.channels() {
            used[ch.src.idx()].push(ch.src_port);
        }
        for (u, ports) in used.iter_mut().enumerate() {
            ports.sort_unstable();
            ports.dedup();
            // A port may appear once as src over all channels of a node
            // only when unidirectional; bidirectional pairs share numbers,
            // so after dedup the count bounds physical port usage.
            if let Some(&max) = ports.last() {
                if max > self.nodes[u].max_ports {
                    return Err(format!(
                        "node n{u} ({}) uses port {max} beyond radix {}",
                        self.nodes[u].name, self.nodes[u].max_ports
                    ));
                }
            }
        }
        let mut want_switches = 0usize;
        let mut want_terminals = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            let ti = self.terminal_index[i];
            let si = self.switch_index[i];
            if ti == NONE_U32 && si == NONE_U32 {
                // A dead node of a degraded view: in the roster, cabled to
                // nothing.
                if !self.out_csr.row(i).is_empty() || !self.in_csr.row(i).is_empty() {
                    return Err(format!("dead node n{i} ({}) has channels", node.name));
                }
                continue;
            }
            match node.kind {
                NodeKind::Terminal => {
                    if ti == NONE_U32 || si != NONE_U32 {
                        return Err(format!("terminal n{i} has bad index maps"));
                    }
                    if self.terminals.get(ti as usize) != Some(&NodeId(i as u32)) {
                        return Err(format!("terminal n{i} not at terminals[{ti}]"));
                    }
                    want_terminals += 1;
                }
                NodeKind::Switch => {
                    if si == NONE_U32 || ti != NONE_U32 {
                        return Err(format!("switch n{i} has bad index maps"));
                    }
                    if self.switches.get(si as usize) != Some(&NodeId(i as u32)) {
                        return Err(format!("switch n{i} not at switches[{si}]"));
                    }
                    want_switches += 1;
                }
            }
        }
        if self.switches.len() != want_switches || self.terminals.len() != want_terminals {
            return Err(format!(
                "switch/terminal lists hold {}/{} entries, expected {want_switches}/{want_terminals}",
                self.switches.len(),
                self.terminals.len()
            ));
        }
        Ok(())
    }

    /// Total number of live bidirectional cables (channel pairs) plus
    /// live unidirectional channels. Useful for reporting topology sizes.
    pub fn num_cables(&self) -> usize {
        let bidir = self.channels().filter(|(_, c)| c.rev.is_some()).count();
        let unidir = self.num_live_channels() - bidir;
        bidir / 2 + unidir
    }

    /// Every switch-to-switch cable once, as its canonical (lower-id)
    /// direction, in channel order; a unidirectional switch-to-switch
    /// channel counts as a cable of its own. What failure schedules and
    /// fabric events name a cable by.
    pub fn switch_cables(&self) -> Vec<ChannelId> {
        self.channels()
            .filter(|(id, ch)| {
                self.is_switch(ch.src)
                    && self.is_switch(ch.dst)
                    && ch.rev.is_none_or(|r| r.0 > id.0)
            })
            .map(|(id, _)| id)
            .collect()
    }
}

/// [`Network::hops_to`] of every switch, one reverse BFS apiece, from
/// which any node's row is derived. Terminals never relay, so for
/// `v != dst` a shortest routable path into `dst` is a last channel
/// `u → dst` after nothing (`v == u`) or after a path into the switch
/// `u`: `hops_to(dst)[v]` is the least `hops_to(u)[v] + 1` over the
/// channels into `dst` (`hops_to(u)[u] = 0`; a terminal `u` counts only
/// for itself). Where terminals outnumber switches this costs a fraction
/// of a BFS per destination.
pub struct HopTable<'a> {
    net: &'a Network,
    /// `hops_to` of each switch, in [`Network::switches`] order.
    to_switch: Vec<Vec<u32>>,
}

impl<'a> HopTable<'a> {
    /// One reverse BFS per switch of `net`.
    pub fn of(net: &'a Network) -> Self {
        let to_switch = net.switches().iter().map(|&s| net.hops_to(s)).collect();
        HopTable { net, to_switch }
    }

    /// `hops_to(dst)`, derived, written over `row`: a caller deriving one
    /// row per destination reuses its allocation.
    pub fn row_into(&self, dst: NodeId, row: &mut Vec<u32>) {
        let net = self.net;
        row.clear();
        row.resize(net.num_nodes(), u32::MAX);
        for &c in net.in_channels(dst) {
            let u = net.channel(c).src;
            let Some(k) = net.switch_index(u) else {
                row[u.idx()] = 1;
                continue;
            };
            for (hops, &via) in row.iter_mut().zip(&self.to_switch[k]) {
                *hops = (*hops).min(via.saturating_add(1));
            }
        }
        row[dst.idx()] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 36);
        let s1 = b.add_switch("s1", 36);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(s0, s1).unwrap();
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_index_maps() {
        let net = tiny();
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_channels(), 6);
        assert_eq!(net.num_switches(), 2);
        assert_eq!(net.num_terminals(), 2);
        assert_eq!(net.num_cables(), 3);
        let t0 = net.node_by_name("t0").unwrap();
        assert!(net.is_terminal(t0));
        assert!(!net.is_switch(t0));
        assert_eq!(net.terminal_index(t0), Some(0));
        assert_eq!(net.switch_index(t0), None);
        let s1 = net.node_by_name("s1").unwrap();
        assert_eq!(net.switch_index(s1), Some(1));
    }

    #[test]
    fn reverse_channels_pair_up() {
        let net = tiny();
        for (id, ch) in net.channels() {
            let r = ch.rev.expect("all links bidirectional");
            let rc = net.channel(r);
            assert_eq!(rc.src, ch.dst);
            assert_eq!(rc.dst, ch.src);
            assert_eq!(rc.rev, Some(id));
            // The two directions of one cable share port numbers.
            assert_eq!(rc.src_port, ch.dst_port);
            assert_eq!(rc.dst_port, ch.src_port);
        }
    }

    #[test]
    fn connectivity_and_diameter() {
        let net = tiny();
        assert!(net.is_strongly_connected());
        // t0 -> s0 -> s1 -> t1 = 3 hops.
        assert_eq!(net.diameter(), Some(3));
    }

    #[test]
    fn hops_to_destination() {
        let net = tiny();
        let t1 = net.node_by_name("t1").unwrap();
        let hops = net.hops_to(t1);
        assert_eq!(hops[net.node_by_name("t0").unwrap().idx()], 3);
        assert_eq!(hops[net.node_by_name("s0").unwrap().idx()], 2);
        assert_eq!(hops[net.node_by_name("s1").unwrap().idx()], 1);
        assert_eq!(hops[t1.idx()], 0);
    }

    #[test]
    fn hops_from_is_hops_to_transposed() {
        for net in [
            tiny(),
            crate::topo::torus(&[3, 3], 2),
            crate::topo::kary_ntree(2, 3),
        ] {
            for (a, _) in net.nodes() {
                let from_a = net.hops_from(a);
                for (d, _) in net.nodes() {
                    assert_eq!(from_a[d.idx()], net.hops_to(d)[a.idx()], "{a:?} -> {d:?}");
                }
            }
        }
    }

    #[test]
    fn channel_between_finds_unique_channel() {
        let net = tiny();
        let s0 = net.node_by_name("s0").unwrap();
        let s1 = net.node_by_name("s1").unwrap();
        let c = net.channel_between(s0, s1).unwrap();
        assert_eq!(net.channel(c).src, s0);
        assert_eq!(net.channel(c).dst, s1);
        let t0 = net.node_by_name("t0").unwrap();
        assert!(net.channel_between(t0, s1).is_none());
    }

    #[test]
    fn validate_accepts_builder_output() {
        tiny().validate().unwrap();
    }

    #[test]
    fn csr_matches_adjacency_lists() {
        let net = tiny();
        net.validate().unwrap();
        let s0 = net.node_by_name("s0").unwrap();
        let t1 = net.node_by_name("t1").unwrap();
        assert_eq!(net.out_channels(s0), &[ChannelId(0), ChannelId(3)]);
        assert_eq!(net.in_channels(s0), &[ChannelId(1), ChannelId(2)]);
        assert_eq!(net.out_channels(t1), &[ChannelId(4)]);
        assert_eq!(net.in_channels(t1), &[ChannelId(5)]);
        // No nodes, and a node without channels, are valid rows too.
        NetworkBuilder::new().build().validate().unwrap();
        let mut b = NetworkBuilder::new();
        b.add_switch("lonely", 4);
        let net = b.build();
        net.validate().unwrap();
        assert!(net.out_channels(NodeId(0)).is_empty());
    }

    #[test]
    fn validate_rejects_csr_drift() {
        let mut net = tiny();
        net.out_csr.channel_ids.swap(0, 1);
        assert!(net.validate().unwrap_err().contains("out_csr"));
        let mut net = tiny();
        net.in_csr.channel_offsets[1] += 1;
        assert!(net.validate().unwrap_err().contains("in_csr"));
        // Truncated CSR must be rejected, not panic.
        let mut net = tiny();
        net.in_csr.channel_offsets.pop();
        assert!(net.validate().is_err());
        // With plausible offsets: a channel under the wrong node, one
        // listed twice at the expense of another, an id past the list.
        let mut net = tiny();
        net.out_csr.channel_ids.swap(1, 2);
        assert!(net.validate().unwrap_err().contains("foreign"));
        let mut net = tiny();
        net.out_csr.channel_ids[1] = ChannelId(0);
        assert!(net.validate().unwrap_err().contains("ascending"));
        let mut net = tiny();
        net.out_csr.channel_ids[4] = ChannelId(9);
        assert!(net.validate().unwrap_err().contains("missing channel"));
    }
}
