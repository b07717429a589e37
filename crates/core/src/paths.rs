//! Compact storage of all terminal-to-terminal routes.
//!
//! The offline DFSSSP algorithm (Algorithm 2) must know, for every edge of
//! the channel dependency graph, which paths induce it, and must be able
//! to move whole paths between layers. That requires materializing all
//! `|T|·(|T|-1)` paths; this module stores them in one flat channel array
//! with offsets (the paper reports ~340 MB for a 4096-node network — this
//! layout is what keeps that figure practical).

use crate::engine::RouteError;
use fabric::{ChannelId, DepSlots, Network, NodeId, Routes};
use std::sync::Arc;

/// Identifier of one terminal-to-terminal path in a [`PathSet`].
pub type PathId = u32;

/// All terminal-pair routes of a [`Routes`] table, flattened.
pub struct PathSet {
    /// Concatenated channel sequences.
    channels: Vec<ChannelId>,
    /// `offsets[p]..offsets[p+1]` indexes `channels` for path `p`.
    offsets: Vec<u64>,
    /// `(src_t, dst_t)` terminal indices per path.
    pairs: Vec<(u32, u32)>,
    /// Where the network the paths run on can hold a dependency: what
    /// every layer's [`crate::cdg::Cdg`] over these paths is indexed by.
    slots: Arc<DepSlots>,
}

impl PathSet {
    /// Extract every ordered terminal pair's route from `routes`, in
    /// `(src_t, dst_t)` lexicographic order.
    ///
    /// One validated pass per destination walks each terminal toward it
    /// until a node of known depth, so every table entry a route uses is
    /// checked once — a missing entry, a channel the network does not
    /// have or that leaves another node, and a loop are all
    /// [`RouteError::Disconnected`] — and every path's length is known
    /// before a channel is stored. The flat arrays are then allocated
    /// exactly and filled without re-checking.
    pub fn extract(net: &Network, routes: &Routes) -> Result<PathSet, RouteError> {
        let (n, nt) = (net.num_nodes(), net.num_terminals());
        if routes.num_nodes() != n || routes.num_terminals() != nt {
            return Err(RouteError::Disconnected);
        }
        let terminals = net.terminals();
        let num_paths = nt * nt.saturating_sub(1);
        // Path lengths first (path `p`'s at `offsets[p + 1]`), summed in
        // place after.
        let mut offsets = vec![0u64; num_paths + 1];
        const UNKNOWN: u32 = u32::MAX;
        let mut depth = vec![UNKNOWN; n];
        let mut stack: Vec<NodeId> = Vec::new();
        for (dst_t, &dst) in terminals.iter().enumerate() {
            depth.fill(UNKNOWN);
            depth[dst.idx()] = 0;
            for (src_t, &src) in terminals.iter().enumerate() {
                let mut at = src;
                while depth[at.idx()] == UNKNOWN {
                    let c = routes
                        .next_hop(at, dst_t)
                        .filter(|c| c.idx() < net.num_channels());
                    let ch = net.channel(c.ok_or(RouteError::Disconnected)?);
                    // A walk longer than the node count has closed a loop.
                    if ch.src != at || stack.len() == n {
                        return Err(RouteError::Disconnected);
                    }
                    stack.push(at);
                    at = ch.dst;
                }
                let mut hops = depth[at.idx()];
                for v in stack.drain(..).rev() {
                    hops += 1;
                    depth[v.idx()] = hops;
                }
                if src != dst {
                    let p = src_t * (nt - 1) + dst_t - usize::from(dst_t > src_t);
                    offsets[p + 1] = u64::from(hops);
                }
            }
        }
        for p in 0..num_paths {
            offsets[p + 1] += offsets[p];
        }
        let mut channels = Vec::with_capacity(offsets[num_paths] as usize);
        let mut pairs = Vec::with_capacity(num_paths);
        for (src_t, &src) in terminals.iter().enumerate() {
            for (dst_t, &dst) in terminals.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let mut at = src;
                while at != dst {
                    let c = routes.next_hop(at, dst_t).expect("validated above");
                    channels.push(c);
                    at = net.channel(c).dst;
                }
                pairs.push((src_t as u32, dst_t as u32));
            }
        }
        Ok(PathSet {
            channels,
            offsets,
            pairs,
            slots: DepSlots::of(net),
        })
    }

    /// Assemble a path set over `net` from raw parts — for engines whose
    /// layer assignment granularity is not terminal pairs (e.g. LASH
    /// works on switch pairs). `offsets` must have `pairs.len() + 1`
    /// monotone entries ending at `channels.len()`; each path's channels
    /// must chain head-to-tail in `net`.
    pub fn from_parts(
        net: &Network,
        channels: Vec<ChannelId>,
        offsets: Vec<u64>,
        pairs: Vec<(u32, u32)>,
    ) -> PathSet {
        assert_eq!(offsets.len(), pairs.len() + 1, "offsets/pairs mismatch");
        assert_eq!(*offsets.last().unwrap_or(&0), channels.len() as u64);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        PathSet {
            channels,
            offsets,
            pairs,
            slots: DepSlots::of(net),
        }
    }

    /// The dependency-slot index of the network these paths run on.
    pub fn slots(&self) -> &Arc<DepSlots> {
        &self.slots
    }

    /// Number of stored paths.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Channel sequence of path `p`.
    #[inline]
    pub fn channels(&self, p: PathId) -> &[ChannelId] {
        let s = self.offsets[p as usize] as usize;
        let e = self.offsets[p as usize + 1] as usize;
        &self.channels[s..e]
    }

    /// `(src_t, dst_t)` terminal indices of path `p`.
    #[inline]
    pub fn pair(&self, p: PathId) -> (u32, u32) {
        self.pairs[p as usize]
    }

    /// Iterate all path ids.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        0..self.pairs.len() as u32
    }

    /// Total stored channel hops (diagnostic; drives the paper's memory
    /// complexity term `O(d(I) · |N|²)`).
    pub fn total_hops(&self) -> usize {
        self.channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoutingEngine;
    use crate::sssp::Sssp;
    use fabric::topo;

    #[test]
    fn extracts_every_ordered_pair() {
        let net = topo::ring(4, 2);
        let routes = Sssp::new()
            .route_in(&net, &crate::ComputeCtx::seq())
            .unwrap();
        let ps = PathSet::extract(&net, &routes).unwrap();
        assert_eq!(ps.len(), 8 * 7);
        // Pairs are unique and ordered.
        let mut seen = std::collections::HashSet::new();
        for p in ps.ids() {
            assert!(seen.insert(ps.pair(p)));
        }
    }

    #[test]
    fn channel_sequences_chain() {
        let net = topo::kary_ntree(2, 2);
        let routes = Sssp::new()
            .route_in(&net, &crate::ComputeCtx::seq())
            .unwrap();
        let ps = PathSet::extract(&net, &routes).unwrap();
        for p in ps.ids() {
            let (src_t, dst_t) = ps.pair(p);
            let chans = ps.channels(p);
            assert!(!chans.is_empty());
            let src = net.terminals()[src_t as usize];
            let dst = net.terminals()[dst_t as usize];
            assert_eq!(net.channel(chans[0]).src, src);
            assert_eq!(net.channel(*chans.last().unwrap()).dst, dst);
            for w in chans.windows(2) {
                assert_eq!(net.channel(w[0]).dst, net.channel(w[1]).src);
            }
        }
    }

    #[test]
    fn total_hops_matches_load_sum() {
        let net = topo::torus(&[3, 3], 1);
        let routes = Sssp::new()
            .route_in(&net, &crate::ComputeCtx::seq())
            .unwrap();
        let ps = PathSet::extract(&net, &routes).unwrap();
        let loads = routes.channel_loads(&net).unwrap();
        assert_eq!(ps.total_hops() as u32, loads.iter().sum::<u32>());
    }
}
