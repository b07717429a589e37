//! Failure injection: remove cables or switches from a network, and
//! carve out the serving core of a partitioned fabric. (Recovery is a
//! fresh [`remove`] from the pristine network with a smaller dead set —
//! how the subnet manager's loop rebuilds every view.)
//!
//! The paper's introduction motivates DFSSSP with networks that grew or
//! degraded away from their ideal structure ("supercomputers are extended
//! later and topologies grow with the machines"); these helpers create
//! such networks from the regular generators. A degraded view keeps its
//! ancestor's whole roster and id space: every node keeps its [`NodeId`]
//! (a dead switch or a stranded terminal stays, cabled to nothing and in
//! neither [`Network::terminals`] nor [`Network::switches`]), and every
//! channel keeps its [`ChannelId`] (a dead cable's two channels stay as
//! tombstones, in no adjacency row: [`Network::is_live_channel`]), as
//! InfiniBand hardware keeps its LIDs and port numbers across sweeps. So
//! the views of one fabric address a node and a channel by one id, and
//! share one numbering of dependencies ([`Network::dep_slots`]) — what the
//! subnet manager's loop and the incremental engines rely on to address
//! events and compare tables across rebuilds without translating them.

use std::sync::OnceLock;

use crate::graph::{ChannelId, NodeId, NodeKind};
use crate::rng::Rng;
use crate::Network;
use telemetry::fx::FxHashSet;

/// `net` without the channels in `dead_channels` and with the nodes in
/// `dead_nodes` dead: kept at their ids, cabled to nothing, in neither
/// [`Network::terminals`] nor [`Network::switches`] (as are the nodes
/// already dead in `net`). Every channel keeps its id, ends and ports; a
/// removed one, or one into or out of a dead node, is a tombstone. A
/// cable that loses one direction leaves the other a one-way channel (no
/// [`crate::Channel::rev`]). The view shares `net`'s dependency slots.
pub fn remove(
    net: &Network,
    dead_nodes: &FxHashSet<NodeId>,
    dead_channels: &FxHashSet<ChannelId>,
) -> Network {
    let dead = |v: NodeId| dead_nodes.contains(&v) || !net.is_live(v);
    let mut channels = net.channels.clone();
    for (i, ch) in channels.iter_mut().enumerate() {
        ch.live &= !dead_channels.contains(&ChannelId(i as u32)) && !dead(ch.src) && !dead(ch.dst);
    }
    for i in 0..channels.len() {
        if channels[i]
            .rev
            .is_some_and(|r| channels[r.idx()].live != channels[i].live)
        {
            channels[i].rev = None;
        }
    }
    let slots = OnceLock::from(net.dep_slots().clone());
    let label = format!("{}-degraded", net.label());
    Network::assemble(net.nodes.clone(), channels, dead, label, slots)
}

/// The channels live in exactly one of two views of one fabric, as
/// `(removed, added)`: live in `old` only, and live in `new` only, each
/// ascending. What an event changed, read off the shared id space.
pub fn changed_channels(old: &Network, new: &Network) -> (Vec<ChannelId>, Vec<ChannelId>) {
    debug_assert_eq!(old.num_channels(), new.num_channels(), "one id space");
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    for c in (0..old.num_channels().max(new.num_channels())).map(|c| ChannelId(c as u32)) {
        match (old.is_live_channel(c), new.is_live_channel(c)) {
            (true, false) => removed.push(c),
            (false, true) => added.push(c),
            _ => {}
        }
    }
    (removed, added)
}

/// The live nodes outside the largest serving core of a (possibly
/// disconnected) network, ascending. The core is the mutually-reachable
/// node set of the undirected component holding the most terminals (ties:
/// most nodes, then lowest node id); [`remove`] of the returned nodes
/// leaves exactly it.
pub fn extract_core(net: &Network) -> Vec<NodeId> {
    let n = net.num_nodes();
    // Undirected components of the live nodes over all channels.
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0;
    let mut queue = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX || !net.is_live(NodeId(start as u32)) {
            continue;
        }
        comp[start] = ncomp;
        queue.push(NodeId(start as u32));
        while let Some(v) = queue.pop() {
            for &c in net.out_channels(v).iter().chain(net.in_channels(v)) {
                let ch = net.channel(c);
                for w in [ch.src, ch.dst] {
                    if comp[w.idx()] == usize::MAX {
                        comp[w.idx()] = ncomp;
                        queue.push(w);
                    }
                }
            }
        }
        ncomp += 1;
    }
    let mut terminals = vec![0usize; ncomp];
    let mut sizes = vec![0usize; ncomp];
    for (id, _) in net.nodes().filter(|&(id, _)| net.is_live(id)) {
        sizes[comp[id.idx()]] += 1;
        terminals[comp[id.idx()]] += usize::from(net.is_terminal(id));
    }
    let best = (0..ncomp)
        .max_by_key(|&c| (terminals[c], sizes[c], std::cmp::Reverse(c)))
        .expect("a network has at least one component");
    // Within the best component, keep the strong component of its
    // lowest-id node (for all-bidirectional fabrics this is the whole
    // component; unidirectional channels can shrink it further).
    let pivot = NodeId((0..n).find(|&i| comp[i] == best).expect("non-empty") as u32);
    let fwd = reach(net, pivot, false);
    let bwd = reach(net, pivot, true);
    (0..n)
        .map(|i| NodeId(i as u32))
        .filter(|&v| net.is_live(v) && !(fwd[v.idx()] && bwd[v.idx()]))
        .collect()
}

/// Nodes reachable from `start` following channels forward (or backward).
fn reach(net: &Network, start: NodeId, backward: bool) -> Vec<bool> {
    let mut seen = vec![false; net.num_nodes()];
    seen[start.idx()] = true;
    let mut queue = vec![start];
    while let Some(v) = queue.pop() {
        let chans = if backward {
            net.in_channels(v)
        } else {
            net.out_channels(v)
        };
        for &c in chans {
            let ch = net.channel(c);
            let w = if backward { ch.src } else { ch.dst };
            if !seen[w.idx()] {
                seen[w.idx()] = true;
                queue.push(w);
            }
        }
    }
    seen
}

/// Bridge cables of `net`: bidirectional channel pairs whose removal
/// disconnects the undirected cable graph. Both direction ids of each
/// bridge are in the returned set. Parallel cables between the same
/// switch pair are handled (neither is a bridge). Unidirectional
/// channels are not cables and are ignored.
pub fn cable_bridges(net: &Network) -> FxHashSet<ChannelId> {
    let n = net.num_nodes();
    // One undirected edge per cable, keyed by the lower channel id.
    let mut edges: Vec<(NodeId, NodeId, ChannelId)> = Vec::new();
    let mut adj: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n];
    for (id, ch) in net.channels() {
        match ch.rev {
            Some(r) if r.0 > id.0 => {
                let e = edges.len();
                edges.push((ch.src, ch.dst, id));
                adj[ch.src.idx()].push((ch.dst, e));
                adj[ch.dst.idx()].push((ch.src, e));
            }
            _ => {}
        }
    }
    // Iterative Tarjan low-link over the undirected multigraph: a tree
    // edge (v, w) is a bridge iff low[w] > disc[v]; entering a node again
    // through a different parallel edge keeps both off the bridge list.
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![u32::MAX; n];
    let mut bridges = FxHashSet::default();
    let mut timer = 0u32;
    // Stack frames: (node, incoming edge, next adjacency index).
    let mut stack: Vec<(NodeId, usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != u32::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((NodeId(root as u32), usize::MAX, 0));
        while let Some(&mut (v, via, ref mut next)) = stack.last_mut() {
            let slot = *next;
            *next += 1;
            if let Some(&(w, e)) = adj[v.idx()].get(slot) {
                if e == via {
                    continue; // the edge we came in on; a parallel edge differs
                }
                if disc[w.idx()] == u32::MAX {
                    disc[w.idx()] = timer;
                    low[w.idx()] = timer;
                    timer += 1;
                    stack.push((w, e, 0));
                } else {
                    low[v.idx()] = low[v.idx()].min(disc[w.idx()]);
                }
            } else {
                stack.pop();
                if let Some(&(parent, _, _)) = stack.last() {
                    low[parent.idx()] = low[parent.idx()].min(low[v.idx()]);
                    if low[v.idx()] > disc[parent.idx()] {
                        let c = edges[via].2;
                        bridges.insert(c);
                        if let Some(r) = net.channel(c).rev {
                            bridges.insert(r);
                        }
                    }
                }
            }
        }
    }
    bridges
}

/// The switch-to-switch cables whose loss keeps `net` connected: the
/// bidirectional [`Network::switch_cables`] that are not
/// [`cable_bridges`]. O(V + E), where trying each removal is O(E²).
pub fn redundant_cables(net: &Network) -> Vec<ChannelId> {
    let bridges = cable_bridges(net);
    let mut cables = net.switch_cables();
    cables.retain(|c| net.channel(*c).rev.is_some() && !bridges.contains(c));
    cables
}

/// Remove `count` random cables (bidirectional channel pairs), skipping
/// any removal that would disconnect the network or isolate a terminal.
/// Returns the degraded network and the number of cables actually removed
/// (which can be lower than `count` on sparse networks).
pub fn fail_random_cables(net: &Network, count: usize, seed: u64) -> (Network, usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut current = net.clone();
    let mut removed = 0;
    // With unidirectional channels around, undirected bridges are too
    // conservative a filter (a directed shortcut can cover for a cable),
    // so fall back to testing candidates by trial removal.
    let mixed = net.channels().any(|(_, c)| c.rev.is_none());
    while removed < count {
        // Bridges are computed once per removal round — O(V + E) — so
        // only the chosen candidate's network is ever cloned.
        let bridges = if mixed {
            FxHashSet::default()
        } else {
            cable_bridges(&current)
        };
        let mut cables: Vec<ChannelId> = current
            .channels()
            .filter(|(id, c)| {
                c.rev.is_some()
                    && current.node(c.src).kind == NodeKind::Switch
                    && current.node(c.dst).kind == NodeKind::Switch
                    && !bridges.contains(id)
            })
            .map(|(id, _)| id)
            .collect();
        if cables.is_empty() {
            break; // every remaining cable is a bridge
        }
        rng.shuffle(&mut cables);
        let mut progressed = false;
        for cand in cables {
            let rev = current.channel(cand).rev.unwrap();
            let dead: FxHashSet<ChannelId> = [cand, rev].into_iter().collect();
            let candidate = remove(&current, &FxHashSet::default(), &dead);
            if candidate.is_strongly_connected() {
                current = candidate;
                removed += 1;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    (current, removed)
}

/// Remove one switch (and everything attached to it must survive: switches
/// with terminals attached are skipped). Returns `None` if no switch can
/// be removed without disconnecting the network or stranding terminals.
pub fn fail_random_switch(net: &Network, seed: u64) -> Option<Network> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut candidates: Vec<NodeId> = net
        .switches()
        .iter()
        .copied()
        .filter(|&s| {
            net.out_channels(s)
                .iter()
                .all(|&c| net.node(net.channel(c).dst).kind == NodeKind::Switch)
        })
        .collect();
    rng.shuffle(&mut candidates);
    for s in candidates {
        let dead: FxHashSet<NodeId> = [s].into_iter().collect();
        let candidate = remove(net, &dead, &FxHashSet::default());
        if candidate.is_strongly_connected() {
            return Some(candidate);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topo, NetworkBuilder};

    #[test]
    fn removing_nothing_preserves_structure() {
        let net = topo::torus(&[3, 3], 1);
        let same = remove(&net, &FxHashSet::default(), &FxHashSet::default());
        assert_eq!(same.num_nodes(), net.num_nodes());
        assert_eq!(same.num_channels(), net.num_channels());
        same.validate().unwrap();
    }

    #[test]
    fn removal_preserves_port_numbers() {
        let net = topo::kary_ntree(2, 3);
        let victim = net
            .channels()
            .find(|(_, c)| c.rev.is_some() && net.is_switch(c.src) && net.is_switch(c.dst))
            .map(|(id, _)| id)
            .unwrap();
        let rev = net.channel(victim).rev.unwrap();
        let dead: FxHashSet<ChannelId> = [victim, rev].into_iter().collect();
        let degraded = remove(&net, &FxHashSet::default(), &dead);
        degraded.validate().unwrap();
        for (_, ch) in degraded.channels() {
            let orig = net
                .out_channels(ch.src)
                .iter()
                .find(|&&c| net.channel(c).src_port == ch.src_port)
                .map(|&c| net.channel(c))
                .expect("cable existed at this port before degradation");
            assert_eq!(orig.dst, ch.dst);
            assert_eq!(orig.dst_port, ch.dst_port);
        }
    }

    #[test]
    fn extract_core_keeps_the_bigger_side() {
        // Two islands: a 3-ring with 3 terminals and a lone switch with 1.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..3).map(|i| b.add_switch(format!("s{i}"), 8)).collect();
        for i in 0..3 {
            b.link(s[i], s[(i + 1) % 3]).unwrap();
            let t = b.add_terminal(format!("t{i}"));
            b.link(t, s[i]).unwrap();
        }
        let lone = b.add_switch("lone", 4);
        let tl = b.add_terminal("tl");
        b.link(tl, lone).unwrap();
        let net = b.build();
        assert!(!net.is_strongly_connected());
        let stranded = extract_core(&net);
        assert_eq!(stranded, vec![lone, tl]);
        let core = remove(&net, &stranded.into_iter().collect(), &FxHashSet::default());
        core.validate().unwrap();
        assert!(core.is_strongly_connected());
        assert_eq!(core.num_terminals(), 3);
        // Nothing more is stranded, and a dead node is never stranded again.
        assert!(extract_core(&core).is_empty());
    }

    /// A view keeps the whole roster: every node at its id with its name
    /// and kind, the dead ones live in neither list and cabled to
    /// nothing, and every surviving cable between the same two ids over
    /// the same ports.
    #[test]
    fn a_view_keeps_every_node_at_its_id() {
        let net = topo::kary_ntree(4, 2);
        let leaf = *net
            .switches()
            .iter()
            .find(|&&s| net.node(s).level == Some(0))
            .unwrap();
        let cable = net.switch_cables()[5];
        let dead_c = [cable, net.channel(cable).rev.unwrap()]
            .into_iter()
            .collect();
        let view = remove(&net, &[leaf].into_iter().collect(), &dead_c);
        view.validate().unwrap();
        assert_eq!(view.num_nodes(), net.num_nodes());
        for (id, node) in net.nodes() {
            assert_eq!(view.node(id).name, node.name);
            assert_eq!(view.node(id).kind, node.kind);
        }
        assert!(!view.is_live(leaf) && view.out_channels(leaf).is_empty());
        assert_eq!(view.num_switches(), net.num_switches() - 1);
        let stranded = net.out_channels(leaf).iter().map(|&c| net.channel(c).dst);
        let stranded: Vec<NodeId> = stranded.filter(|&v| net.is_terminal(v)).collect();
        assert_eq!(stranded.len(), 4);
        // The leaf's terminals are cut off: live, and stranded outside the core.
        assert!(stranded.iter().all(|&t| view.is_terminal(t)));
        assert!(!view.is_strongly_connected());
        let mut gone = stranded.clone();
        gone.sort_unstable();
        assert_eq!(extract_core(&view), gone);
        let core = remove(
            &view,
            &gone.iter().copied().collect(),
            &FxHashSet::default(),
        );
        assert!(core.is_strongly_connected());
        assert_eq!(core.num_nodes(), net.num_nodes());
        assert_eq!(core.num_terminals(), net.num_terminals() - 4);
        assert!(gone.iter().all(|&t| !core.is_live(t)));
        // Every channel keeps its id, ends and ports; the dead ones are
        // tombstones, and the view shares the reference's slots.
        assert_eq!(core.num_channels(), net.num_channels());
        for (c, ch) in net.channels() {
            let kept = core.channel(c);
            assert_eq!(
                (kept.src, kept.src_port, kept.dst, kept.dst_port),
                (ch.src, ch.src_port, ch.dst, ch.dst_port)
            );
        }
        assert!(!core.is_live_channel(cable) && core.channel(cable).rev.is_some());
        assert_eq!(core.num_cables(), net.num_cables() - 1 - 4 * 2);
        assert_eq!(core.num_live_channels(), core.channels().count());
        assert_eq!(core.num_live_channels(), 2 * core.num_cables());
        assert!(std::sync::Arc::ptr_eq(core.dep_slots(), net.dep_slots()));
        let (removed, added) = changed_channels(&net, &core);
        assert_eq!(removed.len(), 2 * (net.num_cables() - core.num_cables()));
        assert!(added.is_empty() && removed.contains(&cable));
        assert_eq!(changed_channels(&core, &net), (added, removed));
    }

    #[test]
    fn bridge_detection_on_line_ring_and_parallel_cables() {
        // Line: both cables are bridges.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 8);
        let s1 = b.add_switch("s1", 8);
        let s2 = b.add_switch("s2", 8);
        b.link(s0, s1).unwrap();
        b.link(s1, s2).unwrap();
        let line = b.build();
        assert_eq!(cable_bridges(&line).len(), 4, "2 cables x 2 directions");

        // Ring: no bridges.
        let ring = topo::ring(4, 0);
        assert!(cable_bridges(&ring).is_empty());

        // Two parallel cables between the same pair: neither is a bridge.
        let mut b = NetworkBuilder::new();
        let a = b.add_switch("a", 8);
        let c = b.add_switch("c", 8);
        b.link(a, c).unwrap();
        b.link(a, c).unwrap();
        let parallel = b.build();
        assert!(cable_bridges(&parallel).is_empty());
    }

    #[test]
    fn cable_failures_keep_connectivity() {
        let net = topo::torus(&[4, 4], 1);
        let (degraded, removed) = fail_random_cables(&net, 5, 42);
        assert_eq!(removed, 5);
        assert!(degraded.is_strongly_connected());
        assert_eq!(degraded.num_terminals(), net.num_terminals());
        assert_eq!(degraded.num_cables(), net.num_cables() - 5,);
        degraded.validate().unwrap();
    }

    /// `Network::switch_cables` against the definition the seven inline
    /// enumerations it replaced shared: each switch-to-switch channel is
    /// named by the lower id of its pair, or by itself when it has no
    /// reverse — over the generator zoo, directed Kautz included.
    #[test]
    fn switch_cables_name_each_cable_by_its_lower_direction() {
        let random = topo::RandomTopoSpec {
            switches: 16,
            radix: 16,
            terminals_per_switch: 4,
            interswitch_links: 40,
        };
        let zoo = [
            topo::ring(5, 1),
            topo::torus(&[4, 4], 1),
            topo::mesh(&[3, 3], 1),
            topo::kary_ntree(4, 2),
            topo::xgft(2, &[4, 4], &[1, 2]),
            topo::dragonfly(3, 1, 1),
            topo::kautz(3, 2, 36, true),
            topo::kautz(2, 2, 12, false),
            topo::random_topology(&random, 7),
        ];
        for net in &zoo {
            let mut expected: Vec<ChannelId> = net
                .channels()
                .filter(|(_, ch)| net.is_switch(ch.src) && net.is_switch(ch.dst))
                .map(|(id, ch)| ch.rev.map_or(id, |r| id.min(r)))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(net.switch_cables(), expected, "{}", net.label());
            assert!(!expected.is_empty(), "{}", net.label());
        }
        let directed = &zoo[7];
        assert!(directed
            .switch_cables()
            .iter()
            .all(|&c| directed.channel(c).rev.is_none()));
    }

    /// On the fabrics the chaos writers run, "not a bridge" and "the
    /// fabric stays strongly connected without it" pick the same cables.
    #[test]
    fn redundant_cables_are_exactly_the_removable_ones() {
        for net in [
            topo::kary_ntree(4, 2),
            topo::kary_ntree(8, 2),
            topo::torus(&[4, 4], 1),
        ] {
            let by_removal: Vec<ChannelId> = net
                .switch_cables()
                .into_iter()
                .filter(|&c| {
                    let dead = [Some(c), net.channel(c).rev]
                        .into_iter()
                        .flatten()
                        .collect();
                    remove(&net, &FxHashSet::default(), &dead).is_strongly_connected()
                })
                .collect();
            assert_eq!(redundant_cables(&net), by_removal, "{}", net.label());
            assert!(!by_removal.is_empty(), "{}", net.label());
        }
        // A line of switches is all bridges; one-way links are not cables.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..3).map(|i| b.add_switch(format!("s{i}"), 8)).collect();
        b.link(s[0], s[1]).unwrap();
        b.link(s[1], s[2]).unwrap();
        assert!(redundant_cables(&b.build()).is_empty());
        assert!(redundant_cables(&topo::kautz(2, 2, 12, false)).is_empty());
    }

    #[test]
    fn bridges_are_never_removed() {
        // A ring: removing any single cable keeps it connected, but
        // removing two could split it; the helper must stop at safe ones.
        let net = topo::ring(4, 1);
        let (degraded, removed) = fail_random_cables(&net, 10, 7);
        assert!(degraded.is_strongly_connected());
        assert!(removed <= 1, "after one removal the ring is a line");
    }

    #[test]
    fn switch_failure_preserves_terminals() {
        // k-ary n-tree roots carry no terminals and are redundant.
        let net = topo::kary_ntree(2, 3);
        let degraded = fail_random_switch(&net, 3).expect("a root can fail");
        assert_eq!(degraded.num_terminals(), net.num_terminals());
        assert_eq!(degraded.num_switches(), net.num_switches() - 1);
        assert!(degraded.is_strongly_connected());
    }

    #[test]
    fn star_has_no_removable_switch() {
        let net = topo::star(4);
        assert!(fail_random_switch(&net, 0).is_none());
    }

    #[test]
    fn degrade_keeps_csr_in_sync() {
        let net = topo::torus(&[3, 3], 1);
        let (degraded, _) = fail_random_cables(&net, 3, 11);
        degraded.validate().unwrap();
    }
}
