//! Destination-rooted weighted shortest-path trees.
//!
//! The paper's Algorithm 1 iterates over sources and uses the reverse
//! paths to fill forwarding tables toward each source. Equivalently — and
//! correctly for directed topologies like unidirectional Kautz networks —
//! we run Dijkstra from each *destination* over the reversed graph: the
//! relaxation follows in-channels, and the recorded parent channel at node
//! `v` is the forward channel a packet at `v` takes toward the
//! destination. Two kernels: [`spt_to`] for weighted sweeps, and
//! [`bfs_column`], which builds the same tree without a heap when every
//! channel weighs the same, settles ties by [`bfs_prefers`] and writes
//! it straight into its table column.

use fabric::{ChannelId, Network, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one destination-rooted shortest-path computation.
pub struct Spt {
    /// `parent[v]` = forward channel to take at `v` toward the root, or
    /// `None` at the root / for unreachable nodes.
    pub parent: Vec<Option<ChannelId>>,
    /// Weighted distance from each node to the root (`u64::MAX` if
    /// unreachable).
    pub dist: Vec<u64>,
    /// Nodes in the order Dijkstra settled them (non-decreasing distance);
    /// the root is first. Used for subtree-size accumulation.
    pub pop_order: Vec<NodeId>,
}

/// Compute the shortest-path tree toward `root` under per-channel
/// `weights` (indexed by [`ChannelId`]).
pub fn spt_to(net: &Network, root: NodeId, weights: &[u64]) -> Spt {
    let n = net.num_nodes();
    debug_assert_eq!(weights.len(), net.num_channels());
    let mut dist = vec![u64::MAX; n];
    let mut parent: Vec<Option<ChannelId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut pop_order = Vec::with_capacity(n);
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[root.idx()] = 0;
    heap.push(Reverse((0, root.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = NodeId(u);
        if settled[u.idx()] {
            continue;
        }
        settled[u.idx()] = true;
        pop_order.push(u);
        // Terminals never forward (InfiniBand channel adapters sink
        // traffic), so only the root terminal and switches are expanded.
        if u != root && net.is_terminal(u) {
            continue;
        }
        // Relax over in-channels: v --c--> u means a packet at v can move
        // one hop closer by taking c.
        for &c in net.in_channels(u) {
            let v = net.channel(c).src;
            if settled[v.idx()] {
                continue;
            }
            let cand = d + weights[c.idx()];
            if cand < dist[v.idx()] {
                dist[v.idx()] = cand;
                parent[v.idx()] = Some(c);
                heap.push(Reverse((cand, v.0)));
            }
        }
    }
    Spt {
        parent,
        dist,
        pop_order,
    }
}

/// Shortest-hop tree toward `root`, written into its table column:
/// `column[v]` becomes the raw id of `v`'s forward channel toward `root`
/// (the parent [`spt_to`] picks under any uniform weight, bit for bit);
/// the root's entry and those of unreachable nodes are left as they
/// arrive, which must be unset (`u32::MAX`), so an unset non-root entry
/// is an unvisited node. `order` is cleared and left holding the
/// forwarding nodes the tree reached — the root, then the switches level
/// by level, each level in ascending node id — in the order they were
/// expanded, a node's parent head before it; a sweep reuses one `order`
/// across its trees. O(|N| + |C|) plus a sort per level of switches. The
/// heap settles each level in ascending node id and a node keeps the
/// first in-channel that reached it, so the levels are expanded in that
/// order; a FIFO queue would expand them in discovery order and hand ties
/// to other parents. Terminals never forward, so only the root and
/// switches enter the queue. This is the sweep of the snapshot schedule
/// (`chunk >= |T|`), and its tie rule, stated by [`bfs_prefers`], is the
/// one the served tables have.
pub fn bfs_column(net: &Network, root: NodeId, column: &mut [u32], order: &mut Vec<NodeId>) {
    debug_assert_eq!(column.len(), net.num_nodes());
    debug_assert!(
        column.iter().all(|&c| c == u32::MAX),
        "column arrives unset"
    );
    order.clear();
    order.push(root);
    // `order[i..end]` is what is left of the level being expanded; what
    // it discovers lands behind it and is sorted once the level is done.
    let (mut i, mut end) = (0, 1);
    while let Some(&u) = order.get(i) {
        i += 1;
        for &c in net.in_channels(u) {
            let v = net.channel(c).src;
            if v != root && column[v.idx()] == u32::MAX {
                column[v.idx()] = c.0;
                if !net.is_terminal(v) {
                    order.push(v);
                }
            }
        }
        if i == end {
            order[end..].sort_unstable();
            end = order.len();
        }
    }
}

/// The tie rule of [`bfs_column`]: of two tight channels out of one
/// node whose heads forward toward the root, whether `bfs_column` takes
/// `c` rather than `other`. A level expands in ascending node id and each
/// node's `in_channels` in order (ascending channel id), so the lower
/// head wins, and between parallel cables into one head the one listed
/// first. `delta` judges a restored channel against a tree's incumbent
/// with it; a different tie rule changes `bfs_column` and this together.
pub fn bfs_prefers(net: &Network, c: ChannelId, other: ChannelId) -> bool {
    (net.channel(c).dst, c) < (net.channel(other).dst, other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    /// The tree [`bfs_column`] writes toward `root`, as parents.
    fn bfs_tree(net: &Network, root: NodeId, order: &mut Vec<NodeId>) -> Vec<Option<ChannelId>> {
        let mut column = vec![u32::MAX; net.num_nodes()];
        bfs_column(net, root, &mut column, order);
        let parent = |&c: &u32| (c != u32::MAX).then_some(ChannelId(c));
        column.iter().map(parent).collect()
    }

    /// The column kernel is `spt_to` at uniform weight `w`: the same
    /// parents, unreachable nodes left unset, with one `order` across
    /// every root; and it expands the forwarding nodes in `spt_to`'s
    /// settle order.
    fn assert_bfs_is_the_heap(net: &Network, w: u64) {
        let weights = vec![w; net.num_channels()];
        let mut order = Vec::new();
        for &root in net.terminals() {
            let heap = spt_to(net, root, &weights);
            let bfs = bfs_tree(net, root, &mut order);
            assert_eq!(heap.parent, bfs, "{} root {root:?}", net.label());
            let forwarding = heap.pop_order.iter().copied();
            let forwarding: Vec<_> = forwarding
                .filter(|&v| v == root || !net.is_terminal(v))
                .collect();
            assert_eq!(forwarding, order, "{} root {root:?}", net.label());
        }
    }

    #[test]
    fn level_bfs_is_the_heap_at_any_uniform_weight() {
        // Where a FIFO queue hands ties to other parents.
        for net in [
            topo::torus(&[4, 4], 1),
            topo::torus(&[8, 8], 2),
            topo::ring(5, 1),
            topo::kautz(2, 2, 12, false),
            topo::dragonfly(3, 2, 2),
        ] {
            for w in [1, 7] {
                assert_bfs_is_the_heap(&net, w);
            }
        }
        let mut b = fabric::NetworkBuilder::new();
        let s: Vec<NodeId> = (0..4).map(|i| b.add_switch(format!("s{i}"), 8)).collect();
        let t: Vec<NodeId> = (0..5).map(|i| b.add_terminal(format!("t{i}"))).collect();
        b.link(s[0], s[1]).unwrap();
        b.link(s[0], s[1]).unwrap(); // parallel cables: the first in-channel wins
        b.link(s[1], s[2]).unwrap();
        b.add_channel(s[2], s[0]).unwrap(); // one way
        b.link(t[0], s[0]).unwrap();
        b.link(t[1], s[1]).unwrap();
        b.link(t[1], s[2]).unwrap(); // multi-homed
        b.link(t[2], s[2]).unwrap();
        b.link(t[3], t[2]).unwrap(); // terminal to terminal
        b.add_channel(s[3], s[1]).unwrap(); // only t4 reaches s3 ...
        b.link(t[4], s[3]).unwrap(); // ... so toward t4 the rest is unreachable
        let net = b.build();
        assert_bfs_is_the_heap(&net, 1);
        assert_bfs_is_the_heap(&net, 1 << 40);
        let mut order = Vec::new();
        let to_t0 = bfs_tree(&net, t[0], &mut order);
        let cables = net
            .out_channels(s[1])
            .iter()
            .filter(|&&c| net.channel(c).dst == s[0]);
        assert_eq!(to_t0[s[1].idx()], cables.min().copied());
        // t3 hangs off a terminal, which never forwards.
        assert!(to_t0[t[3].idx()].is_none());
        let to_t4 = bfs_tree(&net, t[4], &mut order);
        assert!(to_t4[s[0].idx()].is_none());
    }

    #[test]
    fn parents_walk_to_root() {
        let net = topo::kary_ntree(2, 3);
        let weights = vec![3u64; net.num_channels()];
        let root = net.terminals()[5];
        let spt = spt_to(&net, root, &weights);
        for (id, _) in net.nodes() {
            if id == root {
                assert!(spt.parent[id.idx()].is_none());
                continue;
            }
            let mut at = id;
            let mut hops = 0u64;
            while at != root {
                let c = spt.parent[at.idx()].expect("connected");
                assert_eq!(net.channel(c).src, at);
                at = net.channel(c).dst;
                hops += 1;
                assert!(hops <= net.num_nodes() as u64);
            }
            assert_eq!(spt.dist[id.idx()], hops * 3);
        }
    }

    #[test]
    fn pop_order_is_nondecreasing_distance() {
        let net = topo::torus(&[3, 3], 2);
        let mut weights = vec![1u64; net.num_channels()];
        // Perturb weights to make distances interesting.
        for (i, w) in weights.iter_mut().enumerate() {
            *w = 1 + (i as u64 % 3);
        }
        let spt = spt_to(&net, net.terminals()[0], &weights);
        let dists: Vec<u64> = spt.pop_order.iter().map(|n| spt.dist[n.idx()]).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(spt.pop_order.len(), net.num_nodes());
    }

    #[test]
    fn directed_graph_routes_forward() {
        // Unidirectional Kautz: parents must be forward channels.
        let net = topo::kautz(2, 2, 12, false);
        let weights = vec![1u64; net.num_channels()];
        let root = net.terminals()[0];
        let spt = spt_to(&net, root, &weights);
        for (id, _) in net.nodes() {
            if let Some(c) = spt.parent[id.idx()] {
                assert_eq!(net.channel(c).src, id);
                assert_eq!(
                    spt.dist[id.idx()],
                    spt.dist[net.channel(c).dst.idx()] + weights[c.idx()]
                );
            }
        }
    }

    #[test]
    fn unreachable_nodes_marked() {
        let mut b = fabric::NetworkBuilder::new();
        let a = b.add_switch("a", 4);
        let c = b.add_switch("c", 4);
        // Only a -> c; nothing reaches a.
        b.add_channel(a, c).unwrap();
        let net = b.build();
        let spt = spt_to(&net, c, &[1]);
        assert_eq!(spt.dist[a.idx()], 1);
        let spt = spt_to(&net, a, &[1]);
        assert_eq!(spt.dist[c.idx()], u64::MAX);
        assert!(spt.parent[c.idx()].is_none());
    }
}
