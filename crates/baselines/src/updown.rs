//! Up*/Down* routing.
//!
//! Channels are oriented "up" (toward a root) or "down" from a BFS
//! spanning orientation; a legal path uses zero or more up channels
//! followed by zero or more down channels, which makes the channel
//! dependency graph acyclic (deadlock-free) but forbids many minimal
//! paths — the bandwidth limitation the paper measures against.
//!
//! Destination-based tables are built per destination with a Dijkstra
//! over (node, phase) states, settling each node with a *consistent*
//! choice: a node may forward down into `u` only if `u` itself settled
//! on an all-down continuation. Ties prefer down continuations (to keep
//! more down options open for predecessors), then the lesser channel
//! load (balancing like MinHop).

use dfsssp_core::{RouteError, RoutingEngine};
use fabric::{ChannelId, Network, NodeId, Routes};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry: `(dist, up_flag, load, node, via_channel)` — `up_flag`
/// orders all-down continuations first among equal distances.
type HeapEntry = (u32, u8, u32, u32, u32);

/// The Up*/Down* engine.
#[derive(Clone, Debug, Default)]
pub struct UpDown {
    /// Optional explicit root switch; `None` picks the minimum-eccentricity
    /// switch.
    pub root: Option<NodeId>,
}

impl UpDown {
    /// Up*/Down* with automatic root selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pick the root of the switch component containing the most
    /// switches: the switch minimizing its eccentricity over the
    /// switch-only graph, ties to the lowest id (OpenSM-style ranking).
    /// Multi-component fabrics (e.g. XGFTs with multi-homed terminals,
    /// whose switch graph splits into disjoint "planes") get one root
    /// per component internally.
    pub fn select_root(net: &Network) -> Option<NodeId> {
        let levels = Self::orientation(net, None);
        net.switches()
            .iter()
            .copied()
            .find(|&s| levels[s.idx()] == 0)
    }

    /// Per-node levels over the switch-only graph, one BFS ranking per
    /// switch component (terminals never forward, so up/down legality is
    /// meaningful per component; terminal links are directed by kind).
    /// `forced_root` pins the root of its own component.
    fn orientation(net: &Network, forced_root: Option<NodeId>) -> Vec<u32> {
        // Switch-only adjacency.
        let switch_neighbors = |s: NodeId| {
            net.out_channels(s)
                .iter()
                .map(|&c| net.channel(c).dst)
                .filter(|&d| net.is_switch(d))
                .collect::<Vec<_>>()
        };
        let n = net.num_nodes();
        let mut levels = vec![u32::MAX; n];
        let mut component = vec![u32::MAX; n];
        // Label components.
        let mut comp_members: Vec<Vec<NodeId>> = Vec::new();
        for &s in net.switches() {
            if component[s.idx()] != u32::MAX {
                continue;
            }
            let cid = comp_members.len() as u32;
            let mut members = vec![s];
            component[s.idx()] = cid;
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for v in switch_neighbors(u) {
                    if component[v.idx()] == u32::MAX {
                        component[v.idx()] = cid;
                        members.push(v);
                        stack.push(v);
                    }
                }
            }
            comp_members.push(members);
        }
        // Per component: min-eccentricity root (or the forced one), then
        // BFS levels from it.
        for members in &comp_members {
            let bfs = |root: NodeId| {
                let mut dist = vec![u32::MAX; n];
                let mut q = std::collections::VecDeque::new();
                dist[root.idx()] = 0;
                q.push_back(root);
                while let Some(u) = q.pop_front() {
                    for v in switch_neighbors(u) {
                        if dist[v.idx()] == u32::MAX {
                            dist[v.idx()] = dist[u.idx()] + 1;
                            q.push_back(v);
                        }
                    }
                }
                dist
            };
            let root = match forced_root {
                Some(r) if members.contains(&r) => r,
                _ => members
                    .iter()
                    .copied()
                    .map(|s| {
                        let dist = bfs(s);
                        let ecc = members
                            .iter()
                            .map(|m| dist[m.idx()])
                            .max()
                            .unwrap_or(u32::MAX);
                        (ecc, s)
                    })
                    .min_by_key(|&(ecc, s)| (ecc, s.0))
                    .map(|(_, s)| s)
                    .expect("component is non-empty"),
            };
            let dist = bfs(root);
            for &m in members {
                levels[m.idx()] = dist[m.idx()];
            }
        }
        // Terminals sit one level below their lowest parent (value is
        // only informational; legality uses the kind rule).
        for &t in net.terminals() {
            let min_parent = net
                .out_channels(t)
                .iter()
                .map(|&c| levels[net.channel(c).dst.idx()])
                .min()
                .unwrap_or(u32::MAX - 1);
            levels[t.idx()] = min_parent.saturating_add(1);
        }
        levels
    }

    /// Whether channel `c` is an "up" channel: terminal→switch is always
    /// up, switch→terminal always down; switch↔switch compares levels
    /// (toward the component root), ties broken by node id.
    #[inline]
    fn is_up(net: &Network, levels: &[u32], c: ChannelId) -> bool {
        let ch = net.channel(c);
        if net.is_terminal(ch.src) {
            return true;
        }
        if net.is_terminal(ch.dst) {
            return false;
        }
        let (ls, ld) = (levels[ch.src.idx()], levels[ch.dst.idx()]);
        ld < ls || (ld == ls && ch.dst.0 < ch.src.0)
    }
}

impl RoutingEngine for UpDown {
    fn name(&self) -> &'static str {
        "Up*/Down*"
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        if net.num_switches() == 0 {
            return Err(RouteError::UnsupportedTopology("no switches".into()));
        }
        let levels = Self::orientation(net, self.root);
        let mut routes = Routes::new(net, self.name());
        let mut load = vec![0u32; net.num_channels()];

        // Per node: settled distance, whether its chosen continuation is
        // all-down, and the chosen channel.
        let n = net.num_nodes();
        let mut dist = vec![u32::MAX; n];
        let mut all_down = vec![false; n];
        let mut choice: Vec<Option<ChannelId>> = vec![None; n];
        let mut settled = vec![false; n];

        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            settled.iter_mut().for_each(|s| *s = false);
            all_down.iter_mut().for_each(|a| *a = false);
            choice.iter_mut().for_each(|c| *c = None);
            dist[dst.idx()] = 0;
            all_down[dst.idx()] = true;
            // Heap entries: (dist, !down_pref, load, node, via_channel).
            // down_pref is a tie-break so that all-down continuations win.
            let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
            heap.push(Reverse((0, 0, 0, dst.0, u32::MAX)));
            while let Some(Reverse((d, up_flag, _ld, v, via))) = heap.pop() {
                let v = NodeId(v);
                if settled[v.idx()] {
                    continue;
                }
                settled[v.idx()] = true;
                dist[v.idx()] = d;
                if via != u32::MAX {
                    let c = ChannelId(via);
                    choice[v.idx()] = Some(c);
                    // Continuation is all-down iff this first hop is down
                    // (up_flag 0) and the rest is all-down; encoded below.
                    all_down[v.idx()] = up_flag == 0;
                    load[c.idx()] += 1;
                    routes.set_next(v, dst_t, c);
                }
                // Terminals never forward: only the destination and
                // switches are expanded.
                if v != dst && net.is_terminal(v) {
                    continue;
                }
                // Relax predecessors: channel c = (w -> v).
                for &c in net.in_channels(v) {
                    let w = net.channel(c).src;
                    if settled[w.idx()] {
                        continue;
                    }
                    let up = Self::is_up(net, &levels, c);
                    if !up && !all_down[v.idx()] {
                        // Going down into v requires v's continuation to
                        // be all-down.
                        continue;
                    }
                    heap.push(Reverse((d + 1, u8::from(up), load[c.idx()], w.0, c.0)));
                }
            }
            // Consistency requires relaxing from settled nodes only; a
            // node settled via an up hop can still be entered by further
            // up hops, which the relaxation above already allows.
            // A dead node of a degraded view is no node to reach.
            let live = |v: usize| net.is_live(NodeId(v as u32));
            if settled.iter().enumerate().any(|(v, &s)| !s && live(v)) {
                return Err(RouteError::UnsupportedTopology(format!(
                    "up*/down* could not reach every node toward {}",
                    net.node(dst).name
                )));
            }
        }
        Ok(routes)
    }

    fn deadlock_free(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::verify::verify_deadlock_free;
    use fabric::topo;

    fn assert_valid(net: &Network) -> Routes {
        let routes = UpDown::new().route(net).unwrap();
        let nt = net.num_terminals();
        assert_eq!(routes.validate_connectivity(net).unwrap(), nt * (nt - 1));
        verify_deadlock_free(net, &routes).unwrap();
        routes
    }

    #[test]
    fn deadlock_free_on_ring() {
        // The whole point: unlike SSSP/MinHop, Up*/Down* has an acyclic
        // CDG even on rings.
        assert_valid(&topo::ring(6, 1));
    }

    #[test]
    fn deadlock_free_on_torus() {
        assert_valid(&topo::torus(&[4, 4], 1));
    }

    /// The subnet manager's fallback serves degraded views, whose dead
    /// switches stay in the roster uncabled.
    #[test]
    fn deadlock_free_beside_a_dead_switch() {
        let net = topo::kary_ntree(4, 2);
        let spine = *net
            .switches()
            .iter()
            .find(|&&s| net.node(s).level == Some(1))
            .unwrap();
        let dead = [spine].into_iter().collect();
        let view = fabric::degrade::remove(&net, &dead, &Default::default());
        assert_eq!(view.num_nodes(), net.num_nodes());
        assert_valid(&view);
    }

    #[test]
    fn deadlock_free_on_tree_and_minimal_there() {
        let net = topo::kary_ntree(2, 3);
        let routes = assert_valid(&net);
        // On a tree every legal path is minimal.
        dfsssp_core::verify::verify_minimal(&net, &routes).unwrap();
    }

    #[test]
    fn paths_follow_up_then_down() {
        let net = topo::torus(&[3, 3], 1);
        let levels = UpDown::orientation(&net, None);
        let routes = assert_valid(&net);
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src == dst {
                    continue;
                }
                let mut gone_down = false;
                for c in routes.path_channels(&net, src, dst).unwrap() {
                    let up = UpDown::is_up(&net, &levels, c);
                    if up {
                        assert!(!gone_down, "up after down on {src:?}->{dst:?}");
                    } else {
                        gone_down = true;
                    }
                }
            }
        }
    }

    #[test]
    fn root_selection_prefers_center() {
        // On a line of switches the center minimizes eccentricity.
        let net = topo::mesh(&[5], 1);
        let root = UpDown::select_root(&net).unwrap();
        assert_eq!(net.node(root).name, "s2");
    }

    #[test]
    fn explicit_root_is_respected() {
        let net = topo::ring(5, 1);
        let root = net.node_by_name("s3").unwrap();
        let engine = UpDown { root: Some(root) };
        let routes = engine.route(&net).unwrap();
        verify_deadlock_free(&net, &routes).unwrap();
    }

    #[test]
    fn works_on_irregular_random_topology() {
        let spec = fabric::topo::RandomTopoSpec {
            switches: 12,
            radix: 12,
            terminals_per_switch: 3,
            interswitch_links: 20,
        };
        for seed in 0..3 {
            let net = fabric::topo::random_topology(&spec, seed);
            assert_valid(&net);
        }
    }
}
