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

/// Destination-based forwarding tables plus per-path virtual layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Routes {
    /// `next[node][t]` = channel to take at `node` toward terminal index
    /// `t`, or `u32::MAX` when unset (at the destination itself, or for
    /// unreachable pairs).
    next: Vec<Vec<u32>>,
    /// `vl[src_t * num_terminals + dst_t]` = virtual layer of that path.
    vl: Vec<u8>,
    /// Number of virtual layers in use (`max(vl) + 1`).
    num_layers: u8,
    num_terminals: usize,
    /// Engine name that produced these tables (for reports).
    engine: String,
}

impl Routes {
    /// Fresh tables for `net` with no entries and a single virtual layer.
    pub fn new(net: &Network, engine: impl Into<String>) -> Self {
        let nt = net.num_terminals();
        Routes {
            next: vec![vec![NONE_U32; nt]; net.num_nodes()],
            vl: vec![0; nt * nt],
            num_layers: 1,
            num_terminals: nt,
            engine: engine.into(),
        }
    }

    /// Rebuild tables from their raw parts (the JSON reader). Shapes are
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
        let num_layers = vl.iter().copied().max().unwrap_or(0) + 1;
        Ok(Routes {
            next,
            vl,
            num_layers,
            num_terminals,
            engine,
        })
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
        self.next.len()
    }

    /// Program the next hop at `node` toward terminal index `dst_t`.
    #[inline]
    pub fn set_next(&mut self, node: NodeId, dst_t: usize, channel: ChannelId) {
        self.next[node.idx()][dst_t] = channel.0;
    }

    /// Next-hop channel at `node` toward terminal index `dst_t`.
    #[inline]
    pub fn next_hop(&self, node: NodeId, dst_t: usize) -> Option<ChannelId> {
        match self.next[node.idx()][dst_t] {
            NONE_U32 => None,
            c => Some(ChannelId(c)),
        }
    }

    /// Erase the next hop at `node` toward terminal index `dst_t` (used by
    /// fault-injection tests and table scrubbing).
    #[inline]
    pub fn clear_next(&mut self, node: NodeId, dst_t: usize) {
        self.next[node.idx()][dst_t] = NONE_U32;
    }

    /// Assign the virtual layer for the path `src_t → dst_t`
    /// (terminal indices).
    #[inline]
    pub fn set_layer(&mut self, src_t: usize, dst_t: usize, layer: u8) {
        self.vl[src_t * self.num_terminals + dst_t] = layer;
        self.num_layers = self.num_layers.max(layer.saturating_add(1));
    }

    /// Virtual layer of the path `src_t → dst_t` (terminal indices).
    #[inline]
    pub fn layer(&self, src_t: usize, dst_t: usize) -> u8 {
        self.vl[src_t * self.num_terminals + dst_t]
    }

    /// Recompute `num_layers` from the stored assignment (used after bulk
    /// layer rewrites, e.g. the balancing step of Algorithm 2).
    pub fn recompute_num_layers(&mut self) {
        self.num_layers = self.vl.iter().copied().max().unwrap_or(0) + 1;
    }

    /// Assign every path's virtual layer at once: `layers[p]` is the
    /// layer of the `p`-th ordered terminal pair `(src_t, dst_t)`,
    /// `src_t != dst_t`, in lexicographic order — one row copy around the
    /// diagonal per source, then [`Routes::recompute_num_layers`].
    pub fn set_path_layers(&mut self, layers: &[u8]) {
        let nt = self.num_terminals;
        assert_eq!(layers.len(), nt * nt.saturating_sub(1), "a layer per pair");
        for s in 0..nt {
            let (row, vl) = (&layers[s * (nt - 1)..][..nt - 1], &mut self.vl[s * nt..]);
            vl[..s].copy_from_slice(&row[..s]);
            vl[s + 1..nt].copy_from_slice(&row[s..]);
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

    /// Copy every destination column *not* flagged in `dirty` from
    /// `other`, renaming each channel through `translate` (`None` = the
    /// channel no longer exists). One row-major pass over the tables —
    /// the cache-friendly direction. Returns `false` (tables partially
    /// written — discard them) when a populated clean entry fails to
    /// translate, which callers treat as a stale-cache signal.
    pub fn copy_clean_columns_translated(
        &mut self,
        other: &Routes,
        dirty: &[bool],
        translate: &[Option<ChannelId>],
    ) -> bool {
        for (row, orow) in self.next.iter_mut().zip(&other.next) {
            for (d, slot) in row.iter_mut().enumerate() {
                if dirty[d] {
                    continue;
                }
                let v = orow[d];
                if v == NONE_U32 {
                    continue;
                }
                match translate.get(v as usize).copied().flatten() {
                    Some(nc) => *slot = nc.0,
                    None => return false,
                }
            }
        }
        true
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
            // have; report instead of indexing out of bounds.
            Some(c) if c.idx() >= self.net.num_channels() => Some(Err(RoutesError::BadChannel {
                node: self.at,
                channel: c.0,
            })),
            Some(c) => {
                self.at = self.net.channel(c).dst;
                Some(Ok(c))
            }
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

        // Identity translation, nothing dirty: a verbatim copy.
        let ident: Vec<Option<ChannelId>> = (0..net.num_channels() as u32)
            .map(|c| Some(ChannelId(c)))
            .collect();
        let dirty = vec![false; net.num_terminals()];
        let mut out = Routes::new(&net, "copy");
        assert!(out.copy_clean_columns_translated(&src, &dirty, &ident));
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
        assert!(masked.copy_clean_columns_translated(&src, &dirty0, &ident));
        for (id, _) in net.nodes() {
            assert_eq!(masked.next_hop(id, 0), None);
            assert_eq!(masked.next_hop(id, 1), src.next_hop(id, 1));
        }

        // An untranslatable clean entry aborts the copy.
        let none: Vec<Option<ChannelId>> = vec![None; net.num_channels()];
        let mut broken = Routes::new(&net, "broken");
        assert!(!broken.copy_clean_columns_translated(&src, &dirty, &none));
    }
}
