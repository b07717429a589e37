//! Forwarding tables and virtual-layer assignment.
//!
//! A [`Routes`] value is what every routing engine produces and what the
//! simulators consume: destination-based next-hop channels (the InfiniBand
//! linear forwarding table, lifted from ports to channels) plus the virtual
//! layer each terminal-to-terminal path is assigned to (InfiniBand: the
//! service level / virtual lane of the path record).

use crate::graph::{ChannelId, Network, NodeId, NONE_U32};

/// Errors raised when constructing or querying [`Routes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutesError {
    /// A next-hop walk exceeded the hop budget — the tables contain a loop.
    ForwardingLoop { src: NodeId, dst: NodeId },
    /// No next hop programmed for this (node, destination) pair.
    MissingEntry { node: NodeId, dst: NodeId },
    /// Destination must be a terminal.
    NotATerminal(NodeId),
    /// Virtual layer out of range for the configured layer count.
    BadLayer { layer: u8, num_layers: u8 },
    /// Tables were built for a different network (node or terminal
    /// counts disagree), e.g. a stale or corrupt artifact.
    NetworkMismatch { nodes: usize, net_nodes: usize },
    /// A table entry names a channel the network does not have.
    BadChannel { node: NodeId, channel: u32 },
}

impl std::fmt::Display for RoutesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutesError::ForwardingLoop { src, dst } => {
                write!(f, "forwarding loop on route {src:?} -> {dst:?}")
            }
            RoutesError::MissingEntry { node, dst } => {
                write!(f, "no next hop at {node:?} toward {dst:?}")
            }
            RoutesError::NotATerminal(n) => write!(f, "{n:?} is not a terminal"),
            RoutesError::BadLayer { layer, num_layers } => {
                write!(f, "virtual layer {layer} >= layer count {num_layers}")
            }
            RoutesError::NetworkMismatch { nodes, net_nodes } => {
                write!(
                    f,
                    "tables sized for {nodes} nodes but the network has {net_nodes}"
                )
            }
            RoutesError::BadChannel { node, channel } => {
                write!(f, "table entry at {node:?} names missing channel {channel}")
            }
        }
    }
}

impl std::error::Error for RoutesError {}

/// Destination-based forwarding tables plus per-path virtual layers,
/// stored destination-major: everything about one destination — its
/// in-tree and the layers of the paths into it — is one contiguous
/// column ([`Routes::column`]), the order in which routing, vetting,
/// planning and programming all walk the tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Routes {
    /// `next[dst_t * num_nodes + node]` = channel to take at `node`
    /// toward terminal index `dst_t`, or `u32::MAX` when unset (at the
    /// destination itself, or for unreachable pairs).
    next: Vec<u32>,
    /// `vl[dst_t * num_terminals + src_t]` = virtual layer of that path.
    vl: Vec<u8>,
    /// Number of virtual layers in use (`max(vl) + 1`).
    num_layers: u8,
    num_nodes: usize,
    num_terminals: usize,
    /// Engine name that produced these tables (for reports).
    engine: String,
}

impl Routes {
    /// Fresh tables for `net` with no entries and a single virtual layer.
    pub fn new(net: &Network, engine: impl Into<String>) -> Self {
        Self::blank(net.num_nodes(), net.num_terminals(), engine.into())
    }

    /// Tables of the given shape with no entries and a single layer.
    fn blank(num_nodes: usize, num_terminals: usize, engine: String) -> Self {
        Routes {
            next: vec![NONE_U32; num_nodes * num_terminals],
            vl: vec![0; num_terminals * num_terminals],
            num_layers: 1,
            num_nodes,
            num_terminals,
            engine,
        }
    }

    /// Rebuild tables from their raw parts (the JSON reader): `next` one
    /// row per node, `vl` source-major, the artifact's order. Shapes are
    /// validated — uniform `next` rows, a square `vl` matrix, layers in
    /// the representable range — and `num_layers` is recomputed, so no
    /// corrupt artifact can construct tables that panic later.
    pub(crate) fn from_raw(
        next: Vec<Vec<u32>>,
        vl: Vec<u8>,
        num_terminals: usize,
        engine: String,
    ) -> Result<Self, String> {
        for (i, row) in next.iter().enumerate() {
            if row.len() != num_terminals {
                return Err(format!(
                    "next[{i}] has {} entries, expected {num_terminals}",
                    row.len()
                ));
            }
        }
        let want = num_terminals
            .checked_mul(num_terminals)
            .ok_or("num_terminals overflows the vl matrix")?;
        if vl.len() != want {
            return Err(format!("vl has {} entries, expected {want}", vl.len()));
        }
        if vl.contains(&u8::MAX) {
            return Err(format!("virtual layer {} is not representable", u8::MAX));
        }
        let mut routes = Routes::blank(next.len(), num_terminals, engine);
        for (node, row) in next.iter().enumerate() {
            for (dst_t, &c) in row.iter().enumerate() {
                routes.set_next(NodeId(node as u32), dst_t, ChannelId(c));
            }
        }
        for (i, &layer) in vl.iter().enumerate() {
            routes.set_layer(i / num_terminals, i % num_terminals, layer);
        }
        Ok(routes)
    }

    /// Name of the engine that produced these tables.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// Rebrand the tables (engines that post-process another engine's
    /// tables, like DFSSSP over SSSP, set their own name).
    pub fn set_engine(&mut self, engine: impl Into<String>) {
        self.engine = engine.into();
    }

    /// Number of virtual layers used by these routes.
    pub fn num_layers(&self) -> u8 {
        self.num_layers
    }

    /// Number of terminals the tables were sized for.
    pub fn num_terminals(&self) -> usize {
        self.num_terminals
    }

    /// Number of nodes the tables were sized for. Static checkers compare
    /// this against the network before indexing, so stale tables are
    /// reported instead of panicking.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Where the entry of `node` toward `dst_t` is stored.
    #[inline]
    fn slot(&self, node: NodeId, dst_t: usize) -> usize {
        assert!(node.idx() < self.num_nodes, "{node:?} is not a table row");
        dst_t * self.num_nodes + node.idx()
    }

    /// Program the next hop at `node` toward terminal index `dst_t`.
    #[inline]
    pub fn set_next(&mut self, node: NodeId, dst_t: usize, channel: ChannelId) {
        let at = self.slot(node, dst_t);
        self.next[at] = channel.0;
    }

    /// Next-hop channel at `node` toward terminal index `dst_t`.
    #[inline]
    pub fn next_hop(&self, node: NodeId, dst_t: usize) -> Option<ChannelId> {
        match self.next[self.slot(node, dst_t)] {
            NONE_U32 => None,
            c => Some(ChannelId(c)),
        }
    }

    /// Erase the next hop at `node` toward terminal index `dst_t` (used by
    /// fault-injection tests and table scrubbing).
    #[inline]
    pub fn clear_next(&mut self, node: NodeId, dst_t: usize) {
        let at = self.slot(node, dst_t);
        self.next[at] = NONE_U32;
    }

    /// Assign the virtual layer for the path `src_t → dst_t`
    /// (terminal indices).
    #[inline]
    pub fn set_layer(&mut self, src_t: usize, dst_t: usize, layer: u8) {
        self.vl[dst_t * self.num_terminals + src_t] = layer;
        self.num_layers = self.num_layers.max(layer.saturating_add(1));
    }

    /// Virtual layer of the path `src_t → dst_t` (terminal indices).
    #[inline]
    pub fn layer(&self, src_t: usize, dst_t: usize) -> u8 {
        self.vl[dst_t * self.num_terminals + src_t]
    }

    /// Destination column `dst_t` as stored: the raw next-hop entry of
    /// every node toward it (channel ids, `u32::MAX` where unset) and the
    /// virtual layer of every source's path to it.
    pub fn column(&self, dst_t: usize) -> (&[u32], &[u8]) {
        let (nn, nt) = (self.num_nodes, self.num_terminals);
        (&self.next[dst_t * nn..][..nn], &self.vl[dst_t * nt..][..nt])
    }

    /// The next-hop entries of destination column `dst_t`, one per node,
    /// to write in place (channel ids, `u32::MAX` where unset): a sweep
    /// kernel fills a tree's column without a per-entry call.
    pub fn next_column_mut(&mut self, dst_t: usize) -> &mut [u32] {
        let nn = self.num_nodes;
        &mut self.next[dst_t * nn..][..nn]
    }

    /// Overwrite destination column `dst_t` with entries and layers shaped
    /// as [`Routes::column`] returns them.
    pub fn set_column(&mut self, dst_t: usize, next: &[u32], layers: &[u8]) {
        let (nn, nt) = (self.num_nodes, self.num_terminals);
        self.next[dst_t * nn..][..nn].copy_from_slice(next);
        self.vl[dst_t * nt..][..nt].copy_from_slice(layers);
        let top = layers.iter().map(|l| l.saturating_add(1)).max();
        self.num_layers = self.num_layers.max(top.unwrap_or(0));
    }

    /// Recompute `num_layers` from the stored assignment (used after bulk
    /// layer rewrites, e.g. the balancing step of Algorithm 2).
    pub fn recompute_num_layers(&mut self) {
        self.num_layers = self.vl.iter().copied().max().unwrap_or(0) + 1;
    }

    /// Assign every path's virtual layer at once: `layers[p]` is the
    /// layer of the `p`-th ordered terminal pair `(src_t, dst_t)`,
    /// `src_t != dst_t`, in lexicographic order — a transpose around the
    /// diagonal into the destination-major matrix, one column at a time
    /// (the rows it gathers from stay in cache from one column to the
    /// next), then [`Routes::recompute_num_layers`].
    pub fn set_path_layers(&mut self, layers: &[u8]) {
        let nt = self.num_terminals;
        assert_eq!(layers.len(), nt * nt.saturating_sub(1), "a layer per pair");
        for (d, column) in self.vl.chunks_exact_mut(nt.max(1)).enumerate() {
            let (below, above) = column.split_at_mut(d);
            for (s, slot) in below.iter_mut().enumerate() {
                *slot = layers[s * (nt - 1) + d - 1];
            }
            for (s, slot) in (d + 1..).zip(&mut above[1..]) {
                *slot = layers[s * (nt - 1) + d];
            }
        }
        self.recompute_num_layers();
    }

    /// Bulk-copy the whole virtual-layer matrix from `other` (tables for
    /// the same terminal roster). Incremental reroute uses this when the
    /// layer assignment is provably unchanged between epochs: one memcpy
    /// instead of a per-pair rewrite.
    pub fn copy_layers_from(&mut self, other: &Routes) {
        assert_eq!(
            self.vl.len(),
            other.vl.len(),
            "layer matrices must have the same shape"
        );
        self.vl.copy_from_slice(&other.vl);
        self.num_layers = other.num_layers;
    }

    /// Copy the next-hop entries of every destination column *not*
    /// flagged in `dirty` from `other`, tables of the same shape (the
    /// views of one fabric share node and channel ids, so a column that
    /// did not change is the same bytes); a dirty column is left as it is.
    pub fn copy_clean_columns(&mut self, other: &Routes, dirty: &[bool]) {
        assert_eq!(self.next.len(), other.next.len(), "tables of one shape");
        let nn = self.num_nodes;
        for d in (0..self.num_terminals).filter(|&d| !dirty[d]) {
            self.next[d * nn..][..nn].copy_from_slice(&other.next[d * nn..][..nn]);
        }
    }

    /// Iterate over the channels of the path from terminal `src` to
    /// terminal `dst` by walking the tables. Lazy; detects loops via a
    /// hop budget of `num_nodes + 1`.
    pub fn path<'a>(
        &'a self,
        net: &'a Network,
        src: NodeId,
        dst: NodeId,
    ) -> Result<PathIter<'a>, RoutesError> {
        if self.num_nodes() != net.num_nodes() || self.num_terminals != net.num_terminals() {
            return Err(RoutesError::NetworkMismatch {
                nodes: self.num_nodes(),
                net_nodes: net.num_nodes(),
            });
        }
        let dst_t = net
            .terminal_index(dst)
            .ok_or(RoutesError::NotATerminal(dst))?;
        if net.terminal_index(src).is_none() {
            return Err(RoutesError::NotATerminal(src));
        }
        Ok(PathIter {
            routes: self,
            net,
            at: src,
            src,
            dst,
            dst_t,
            budget: net.num_nodes() + 1,
        })
    }

    /// Collect the path `src → dst` into a channel vector, validating that
    /// it terminates at `dst`.
    pub fn path_channels(
        &self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<ChannelId>, RoutesError> {
        let mut out = Vec::new();
        for step in self.path(net, src, dst)? {
            out.push(step?);
        }
        Ok(out)
    }

    /// Check that every ordered terminal pair is connected by a loop-free
    /// walk of the tables; returns the number of pairs checked.
    pub fn validate_connectivity(&self, net: &Network) -> Result<usize, RoutesError> {
        let mut pairs = 0;
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src == dst {
                    continue;
                }
                for step in self.path(net, src, dst)? {
                    step?;
                }
                pairs += 1;
            }
        }
        Ok(pairs)
    }

    /// Number of routes crossing each channel, counting every ordered
    /// terminal pair once. This is the per-link load the paper's balancing
    /// optimizes; also used by the congestion simulator's reports.
    pub fn channel_loads(&self, net: &Network) -> Result<Vec<u32>, RoutesError> {
        let mut loads = vec![0u32; net.num_channels()];
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src == dst {
                    continue;
                }
                for step in self.path(net, src, dst)? {
                    loads[step?.idx()] += 1;
                }
            }
        }
        Ok(loads)
    }
}

/// Lazy iterator over the channels of one route (see [`Routes::path`]).
pub struct PathIter<'a> {
    routes: &'a Routes,
    net: &'a Network,
    at: NodeId,
    src: NodeId,
    dst: NodeId,
    dst_t: usize,
    budget: usize,
}

impl<'a> Iterator for PathIter<'a> {
    type Item = Result<ChannelId, RoutesError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.at == self.dst {
            return None;
        }
        if self.budget == 0 {
            return Some(Err(RoutesError::ForwardingLoop {
                src: self.src,
                dst: self.dst,
            }));
        }
        self.budget -= 1;
        match self.routes.next_hop(self.at, self.dst_t) {
            None => Some(Err(RoutesError::MissingEntry {
                node: self.at,
                dst: self.dst,
            })),
            // Loaded artifacts can name channels this network does not
            // have, and stale tables a dead cable's tombstone; report
            // instead of indexing out of bounds or crossing it.
            Some(c) => match self.net.live_channel(c) {
                None => Some(Err(RoutesError::BadChannel {
                    node: self.at,
                    channel: c.0,
                })),
                Some(ch) => {
                    self.at = ch.dst;
                    Some(Ok(c))
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    /// t0 - s0 - s1 - t1, plus t2 on s1.
    fn line() -> Network {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 36);
        let s1 = b.add_switch("s1", 36);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        let t2 = b.add_terminal("t2");
        b.link(s0, s1).unwrap();
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        b.link(t2, s1).unwrap();
        b.build()
    }

    /// Program shortest-path tables on `line()` by BFS per destination.
    fn bfs_routes(net: &Network) -> Routes {
        let mut r = Routes::new(net, "bfs-test");
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let hops = net.hops_to(dst);
            for (id, _) in net.nodes() {
                if id == dst || hops[id.idx()] == u32::MAX {
                    continue;
                }
                let best = net
                    .out_channels(id)
                    .iter()
                    .copied()
                    .min_by_key(|&c| hops[net.channel(c).dst.idx()])
                    .unwrap();
                r.set_next(id, dst_t, best);
            }
        }
        r
    }

    #[test]
    fn path_walks_tables() {
        let net = line();
        let r = bfs_routes(&net);
        let t0 = net.node_by_name("t0").unwrap();
        let t1 = net.node_by_name("t1").unwrap();
        let p = r.path_channels(&net, t0, t1).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(net.channel(p[0]).src, t0);
        assert_eq!(net.channel(p[2]).dst, t1);
        // consecutive channels chain
        for w in p.windows(2) {
            assert_eq!(net.channel(w[0]).dst, net.channel(w[1]).src);
        }
    }

    #[test]
    fn missing_entry_is_reported() {
        let net = line();
        let r = Routes::new(&net, "empty");
        let t0 = net.node_by_name("t0").unwrap();
        let t1 = net.node_by_name("t1").unwrap();
        let err = r.path_channels(&net, t0, t1).unwrap_err();
        assert!(matches!(err, RoutesError::MissingEntry { .. }));
    }

    #[test]
    fn loops_are_detected() {
        let net = line();
        let mut r = Routes::new(&net, "loopy");
        let s0 = net.node_by_name("s0").unwrap();
        let s1 = net.node_by_name("s1").unwrap();
        let t0 = net.node_by_name("t0").unwrap();
        let t1 = net.node_by_name("t1").unwrap();
        let t1_t = net.terminal_index(t1).unwrap();
        // t0 -> s0 -> s1 -> s0 -> ... never reaches t1.
        r.set_next(t0, t1_t, net.channel_between(t0, s0).unwrap());
        r.set_next(s0, t1_t, net.channel_between(s0, s1).unwrap());
        r.set_next(s1, t1_t, net.channel_between(s1, s0).unwrap());
        let err = r.path_channels(&net, t0, t1).unwrap_err();
        assert!(matches!(err, RoutesError::ForwardingLoop { .. }));
    }

    #[test]
    fn validate_connectivity_counts_pairs() {
        let net = line();
        let r = bfs_routes(&net);
        assert_eq!(r.validate_connectivity(&net).unwrap(), 3 * 2);
    }

    #[test]
    fn layers_default_to_zero_and_track_max() {
        let net = line();
        let mut r = bfs_routes(&net);
        assert_eq!(r.num_layers(), 1);
        assert_eq!(r.layer(0, 1), 0);
        r.set_layer(0, 1, 3);
        assert_eq!(r.num_layers(), 4);
        r.set_layer(0, 1, 0);
        r.recompute_num_layers();
        assert_eq!(r.num_layers(), 1);
    }

    #[test]
    fn channel_loads_count_every_pair() {
        let net = line();
        let r = bfs_routes(&net);
        let loads = r.channel_loads(&net).unwrap();
        let total: u32 = loads.iter().sum();
        // Sum over channels of load = sum over pairs of path length.
        // Paths: t0<->t1: 3 hops each way, t0<->t2: 3 each, t1<->t2: 2 each.
        assert_eq!(total, 3 + 3 + 3 + 3 + 2 + 2);
        let s0 = net.node_by_name("s0").unwrap();
        let s1 = net.node_by_name("s1").unwrap();
        let c = net.channel_between(s0, s1).unwrap();
        assert_eq!(loads[c.idx()], 2); // t0->t1 and t0->t2
    }

    #[test]
    fn stale_tables_are_reported_not_panicking() {
        let net = line();
        // Tables sized for a different network.
        let mut b = NetworkBuilder::new();
        let s = b.add_switch("s0", 4);
        let t = b.add_terminal("t0");
        b.link(s, t).unwrap();
        let other = b.build();
        let r = bfs_routes(&net);
        let t0 = other.node_by_name("t0").unwrap();
        let err = r.path(&other, t0, t0).err().unwrap();
        assert!(matches!(err, RoutesError::NetworkMismatch { .. }));

        // Tables naming a channel the network does not have.
        let nt = net.num_terminals();
        let next = vec![vec![999u32; nt]; net.num_nodes()];
        let r = Routes::from_raw(next, vec![0; nt * nt], nt, "corrupt".into()).unwrap();
        let t0 = net.node_by_name("t0").unwrap();
        let t1 = net.node_by_name("t1").unwrap();
        let err = r.path_channels(&net, t0, t1).unwrap_err();
        assert!(matches!(err, RoutesError::BadChannel { .. }));
    }

    #[test]
    fn from_raw_rejects_corrupt_shapes() {
        assert!(Routes::from_raw(vec![vec![0; 2]], vec![0; 3], 2, "x".into()).is_err());
        assert!(Routes::from_raw(vec![vec![0; 1]], vec![0; 4], 2, "x".into()).is_err());
        assert!(Routes::from_raw(vec![vec![0; 1]], vec![255], 1, "x".into()).is_err());
        let r = Routes::from_raw(vec![vec![0; 1]], vec![3], 1, "x".into()).unwrap();
        assert_eq!(r.num_layers(), 4);
    }

    #[test]
    fn bulk_copy_helpers_mirror_per_entry_writes() {
        let net = line();
        let mut src = bfs_routes(&net);
        src.set_layer(0, 1, 2);
        src.set_layer(2, 0, 1);

        // Nothing dirty: a verbatim copy.
        let dirty = vec![false; net.num_terminals()];
        let mut out = Routes::new(&net, "copy");
        out.copy_clean_columns(&src, &dirty);
        assert_eq!(out.next, src.next);
        out.copy_layers_from(&src);
        assert_eq!(out.vl, src.vl);
        assert_eq!(out.num_layers(), src.num_layers());

        // Layers by path id are the per-pair writes, diagonal untouched.
        let nt = net.num_terminals();
        let pairs =
            || (0..nt).flat_map(|s| (0..nt).map(move |d| (s, d)).filter(move |&(_, d)| d != s));
        let by_path: Vec<u8> = (0..pairs().count()).map(|p| (p % 3) as u8).collect();
        let (mut bulk, mut looped) = (src.clone(), src.clone());
        bulk.set_path_layers(&by_path);
        for ((s, d), &layer) in pairs().zip(&by_path) {
            looped.set_layer(s, d, layer);
        }
        looped.recompute_num_layers();
        assert_eq!(bulk, looped);
        assert_eq!(bulk.num_layers(), 3);

        // Dirty columns are left untouched.
        let mut masked = Routes::new(&net, "masked");
        let mut dirty0 = dirty.clone();
        dirty0[0] = true;
        masked.copy_clean_columns(&src, &dirty0);
        for (id, _) in net.nodes() {
            assert_eq!(masked.next_hop(id, 0), None);
            assert_eq!(masked.next_hop(id, 1), src.next_hop(id, 1));
        }
    }

    /// The tables as the artifact lays them out, kept as the oracle of
    /// the stored layout: one `next` row per node, a source-major layer
    /// matrix, every operation written entry by entry.
    struct RowMajor {
        next: Vec<Vec<u32>>,
        vl: Vec<Vec<u8>>,
        num_layers: u8,
    }

    impl RowMajor {
        fn new(nn: usize, nt: usize) -> Self {
            RowMajor {
                next: vec![vec![NONE_U32; nt]; nn],
                vl: vec![vec![0; nt]; nt],
                num_layers: 1,
            }
        }

        fn raise(&mut self, layer: u8) {
            self.num_layers = self.num_layers.max(layer + 1);
        }

        fn recompute(&mut self) {
            self.num_layers = self.vl.iter().flatten().copied().max().unwrap_or(0) + 1;
        }

        /// What `routes_to_json` must write for these tables.
        fn json(&self, engine: &str) -> String {
            let entry = |&c: &u32| match c {
                NONE_U32 => "null".to_string(),
                c => c.to_string(),
            };
            let rows: Vec<String> = self
                .next
                .iter()
                .map(|row| format!("[{}]", row.iter().map(entry).collect::<Vec<_>>().join(",")))
                .collect();
            let vl: Vec<String> = self.vl.iter().flatten().map(u8::to_string).collect();
            format!(
                "{{\"engine\":\"{engine}\",\"num_terminals\":{},\"num_layers\":{},\
                 \"next\":[{}],\"vl\":[{}]}}",
                self.vl.len(),
                self.num_layers,
                rows.join(","),
                vl.join(",")
            )
        }

        /// `routes` holds exactly this state, read through the public API.
        fn assert_is(&self, routes: &Routes, what: &str) {
            let shape = (self.next.len(), self.vl.len(), self.num_layers);
            let got = (
                routes.num_nodes(),
                routes.num_terminals(),
                routes.num_layers(),
            );
            assert_eq!(got, shape, "{what}: nodes, terminals, layers");
            for (node, row) in self.next.iter().enumerate() {
                for (d, &c) in row.iter().enumerate() {
                    let want = (c != NONE_U32).then_some(ChannelId(c));
                    let got = routes.next_hop(NodeId(node as u32), d);
                    assert_eq!(got, want, "{what}: next[{node}][{d}]");
                }
            }
            for (s, row) in self.vl.iter().enumerate() {
                for (d, &layer) in row.iter().enumerate() {
                    assert_eq!(routes.layer(s, d), layer, "{what}: vl[{s}][{d}]");
                }
            }
        }
    }

    /// Seeded random writes through every public operation, each checked
    /// against the row-major model: the layout is pinned, not just the
    /// bytes one artifact happens to produce.
    #[test]
    fn every_operation_matches_a_row_major_model() {
        use crate::format::{routes_from_json, routes_to_json};
        use crate::rng::Rng;
        use crate::topo;
        let switches_only = {
            let mut b = NetworkBuilder::new();
            let (s0, s1) = (b.add_switch("s0", 4), b.add_switch("s1", 4));
            b.link(s0, s1).unwrap();
            b.build()
        };
        let nets = [
            line(),
            topo::torus(&[3, 3], 2),
            topo::kary_ntree(3, 2),
            switches_only,
        ];
        for (seed, net) in nets.iter().enumerate() {
            let (nn, nt) = (net.num_nodes(), net.num_terminals());
            let mut rng = Rng::seed_from_u64(seed as u64);
            let (mut routes, mut model) = (Routes::new(net, "model"), RowMajor::new(nn, nt));
            let (mut other, mut other_model) = (Routes::new(net, "other"), RowMajor::new(nn, nt));
            model.assert_is(&routes, "fresh");
            if nt == 0 {
                // Nodes without terminals: no entries, yet every node
                // still counts, and the bulk operations have nothing to do.
                routes.set_path_layers(&[]);
                routes.copy_layers_from(&other);
                routes.copy_clean_columns(&other, &[]);
                model.assert_is(&routes, "no terminals");
                continue;
            }
            let channel = |rng: &mut Rng| ChannelId(rng.range(0..net.num_channels() as u32 + 2));
            for step in 0..600 {
                let what = format!("{} step {step}", net.label());
                let (node, d, s) = (rng.range(0..nn), rng.range(0..nt), rng.range(0..nt));
                let id = NodeId(node as u32);
                match rng.range(0..9u32) {
                    0 => {
                        let c = channel(&mut rng);
                        routes.set_next(id, d, c);
                        model.next[node][d] = c.0;
                    }
                    1 => {
                        routes.clear_next(id, d);
                        model.next[node][d] = NONE_U32;
                    }
                    2 => {
                        let layer = rng.range(0..6u8);
                        routes.set_layer(s, d, layer);
                        model.vl[s][d] = layer;
                        model.raise(layer);
                    }
                    3 => {
                        routes.recompute_num_layers();
                        model.recompute();
                    }
                    4 => {
                        let layers: Vec<u8> =
                            (0..nt * (nt - 1)).map(|_| rng.range(0..5u8)).collect();
                        routes.set_path_layers(&layers);
                        let pairs = (0..nt)
                            .flat_map(|s| (0..nt).filter(move |&d| d != s).map(move |d| (s, d)));
                        for ((s, d), &layer) in pairs.zip(&layers) {
                            model.vl[s][d] = layer;
                        }
                        model.recompute();
                    }
                    5 => {
                        routes.copy_layers_from(&other);
                        (model.vl, model.num_layers) =
                            (other_model.vl.clone(), other_model.num_layers);
                    }
                    6 => {
                        let dirty: Vec<bool> = (0..nt).map(|_| rng.chance(0.3)).collect();
                        routes.copy_clean_columns(&other, &dirty);
                        for (row, orow) in model.next.iter_mut().zip(&other_model.next) {
                            for d in (0..nt).filter(|&d| !dirty[d]) {
                                row[d] = orow[d];
                            }
                        }
                    }
                    7 => {
                        let (next, layers) = other.column(d);
                        routes.set_column(d, next, layers);
                        for (row, orow) in model.next.iter_mut().zip(&other_model.next) {
                            row[d] = orow[d];
                        }
                        for s in 0..nt {
                            model.vl[s][d] = other_model.vl[s][d];
                            model.raise(model.vl[s][d]);
                        }
                    }
                    _ => {
                        // Give the copy source something to carry.
                        let (c, layer) = (channel(&mut rng), rng.range(0..7u8));
                        other.set_next(id, d, c);
                        other.set_layer(s, d, layer);
                        other_model.next[node][d] = c.0;
                        other_model.vl[s][d] = layer;
                        other_model.raise(layer);
                    }
                }
                model.assert_is(&routes, &what);
            }

            // The artifact round trip: raw rows in, the same bytes out.
            routes.recompute_num_layers();
            model.recompute();
            let raw = Routes::from_raw(model.next.clone(), model.vl.concat(), nt, "model".into());
            assert_eq!(raw.as_ref(), Ok(&routes), "{}", net.label());
            let json = routes_to_json(&routes);
            assert_eq!(json, model.json("model"), "{}", net.label());
            assert_eq!(routes_from_json(&json).unwrap(), routes, "{}", net.label());
        }
    }
}
