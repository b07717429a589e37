//! The terminal-to-terminal paths of a routing, as what they are stored
//! as: |T| destination in-trees.
//!
//! The offline DFSSSP algorithm (Algorithm 2) must know, for every edge of
//! the channel dependency graph, which paths induce it, and must be able
//! to move whole paths between layers. The paper materializes all
//! `|T|·(|T|-1)` paths plus per-edge path lists for that (~340 MB for a
//! 4096-node network). [`TreePaths`] answers the same questions from the
//! forwarding tables themselves: how many paths take a dependency and
//! which one does first fall out of one leaves-first pass per destination
//! tree ([`TreePaths::windows`]), and the paths behind an edge are the
//! terminals in a subtree, which a cycle break moves to the next layer a
//! subtree at a time ([`TreePaths::move_victims`]): each subtree node's
//! victim count goes to its parent's window, and no path is walked.
//! Algorithm 2's state per path is its layer and a move stamp
//! ([`Placement`]).
//!
//! No caller stores a path. The online assignment, the compaction and the
//! APP bridge place paths one at a time, so they [`TreePaths::validate`]
//! the tables once (or build layer 0, which does) and then walk each path
//! when they reach it ([`TreePaths::walk`]).

use crate::cdg::{Cdg, Edge, EdgeId};
use crate::engine::RouteError;
use fabric::{ChannelId, DepSlots, Network, NodeId, Routes};
use std::sync::Arc;

/// Identifier of one terminal-to-terminal path: the `p`-th ordered pair
/// `(src_t, dst_t)`, `src_t != dst_t`, in lexicographic order.
pub type PathId = u32;

/// The paths of `routes` over `net`, read off the tables.
#[derive(Clone, Copy)]
pub struct TreePaths<'a> {
    /// The network the tables route.
    pub net: &'a Network,
    /// Destination-based tables: column `d` is `d`'s in-tree.
    pub routes: &'a Routes,
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
thread_local! {
    /// Destination trees [`TreePaths::windows`] passed over on this
    /// thread — the deterministic cost pin of a cold route.
    pub(crate) static TREE_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Paths [`TreePaths::walk`] walked on this thread.
    pub(crate) static WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl TreePaths<'_> {
    /// Number of paths: every ordered terminal pair.
    pub fn num_paths(&self) -> usize {
        self.net.num_terminals() * self.net.num_terminals().saturating_sub(1)
    }

    /// The path `src_t → dst_t` (distinct terminal indices).
    pub fn id(&self, src_t: usize, dst_t: usize) -> PathId {
        (src_t * (self.net.num_terminals() - 1) + dst_t - usize::from(dst_t > src_t)) as PathId
    }

    /// `(src_t, dst_t)` terminal indices of path `p`.
    pub fn pair(&self, p: PathId) -> (u32, u32) {
        let row = self.net.num_terminals() as u32 - 1;
        (p / row, p % row + u32::from(p % row >= p / row))
    }

    /// The window kernel's checks with nothing reported: the tables every
    /// route walks through are well formed and loop-free, else
    /// [`RouteError::Disconnected`].
    pub fn validate(&self) -> Result<(), RouteError> {
        self.windows(0..self.net.num_terminals(), |_, _, _, _| {})
    }

    /// The channel sequence of path `p`, walked into `out`. The tables
    /// must have passed [`TreePaths::validate`] (or [`TreePaths::windows`]
    /// over every destination); a loop would never end.
    pub fn walk(&self, p: PathId, out: &mut Vec<ChannelId>) {
        #[cfg(test)]
        WALKS.set(WALKS.get() + 1);
        let (src_t, dst_t) = self.pair(p);
        let terminals = self.net.terminals();
        let (mut at, dst) = (terminals[src_t as usize], terminals[dst_t as usize]);
        out.clear();
        while at != dst {
            let c = self.routes.next_hop(at, dst_t as usize);
            let c = c.expect("validated tables");
            out.push(c);
            at = self.net.channel(c).dst;
        }
    }

    /// The window kernel: one validated pass per destination tree of
    /// `dests`, reporting every dependency the tree's paths take as
    /// `(c1, c2, paths, first)` — `paths` of them take `c2` directly
    /// after `c1`, and the first of those in path-id order does so at
    /// `first = (src_t·|T| + dst_t) << 32 | hop position`, so the minimum
    /// of `first` over a dependency's reports orders dependencies as a
    /// scan of every path in id order would first meet them.
    ///
    /// Terminals in ascending index walk toward the destination until a
    /// node of known depth, so every table entry a route uses is checked
    /// once — a missing entry, a channel the network does not have or
    /// that leaves another node, and a loop are all
    /// [`RouteError::Disconnected`], as are tables of another network's
    /// shape; entries no terminal's route uses are not judged — and the
    /// first walk to reach a node is the lowest source behind it. Running
    /// the order depths were assigned in backwards visits children before
    /// parents and sums the terminal sources below each node: a node with
    /// `k` of them, next hop `c` into a node forwarding over `c'`, puts
    /// `k` paths on `(c, c')`. O(|N|) per tree; no path is scanned.
    pub fn windows(
        &self,
        dests: impl Iterator<Item = usize>,
        mut report: impl FnMut(u32, u32, u32, u64),
    ) -> Result<(), RouteError> {
        let (net, routes) = (self.net, self.routes);
        let (n, nt) = (net.num_nodes(), net.num_terminals());
        if routes.num_nodes() != n || routes.num_terminals() != nt {
            return Err(RouteError::Disconnected);
        }
        const UNKNOWN: u32 = u32::MAX;
        // Per channel id: the node it leaves (none for a tombstone, which
        // no entry may take) and the node it enters.
        let mut ends = vec![(usize::MAX, 0); net.num_channels()];
        for (c, ch) in net.channels() {
            ends[c.idx()] = (ch.src.idx(), ch.dst.idx());
        }
        let usable = |at: usize, c: u32| ends.get(c as usize).filter(|e| e.0 == at).map(|e| e.1);
        let mut depth = vec![UNKNOWN; n];
        // Per node of the tree at hand: next-hop channel, the node it
        // leads to, terminal sources at or below, `first` of its window.
        let (mut hop, mut up) = (vec![0u32; n], vec![0usize; n]);
        let (mut below, mut first) = (vec![0u32; n], vec![0u64; n]);
        let mut stack: Vec<usize> = Vec::new();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for d in dests {
            #[cfg(test)]
            TREE_PASSES.set(TREE_PASSES.get() + 1);
            let (next, dst) = (routes.column(d).0, net.terminals()[d].idx());
            depth.fill(UNKNOWN);
            depth[dst] = 0;
            for (src_t, &src) in net.terminals().iter().enumerate() {
                let (tag, mut at) = (((src_t * nt + d) as u64) << 32, src.idx());
                // A terminal whose first hop lands on a node of known
                // depth is a walk of one, taken without the stack.
                if depth[at] == UNKNOWN {
                    let to = usable(at, next[at]).ok_or(RouteError::Disconnected)?;
                    if depth[to] != UNKNOWN {
                        (hop[at], up[at], depth[at]) = (next[at], to, depth[to] + 1);
                        (below[at], first[at]) = (1, tag);
                        order.push(at);
                        continue;
                    }
                }
                while depth[at] == UNKNOWN {
                    // A walk longer than the node count has closed a loop.
                    let to = usable(at, next[at]).filter(|_| stack.len() < n);
                    (hop[at], up[at]) = (next[at], to.ok_or(RouteError::Disconnected)?);
                    stack.push(at);
                    at = up[at];
                }
                let mut hops = depth[at];
                for (i, v) in stack.drain(..).enumerate().rev() {
                    hops += 1;
                    depth[v] = hops;
                    below[v] = u32::from(net.is_terminal(NodeId(v as u32)));
                    first[v] = tag | i as u64;
                    order.push(v);
                }
            }
            for v in order.drain(..).rev() {
                let parent = up[v];
                if parent != dst {
                    report(hop[v], hop[parent], below[v], first[v]);
                    below[parent] += below[v];
                }
            }
        }
        Ok(())
    }

    /// Layer 0 of Algorithm 2 — the CDG of every path, over `slots` —
    /// and its path count per slot, from one [`TreePaths::windows`] pass:
    /// counts summed per slot, edges numbered by ascending minimum
    /// `first`. Identical to [`Cdg::add_path`] for every path in id order
    /// (edge ids, `out` order, counts).
    pub fn layer0(&self, slots: &Arc<DepSlots>) -> Result<(Cdg, Vec<u32>), RouteError> {
        let mut counts = vec![0u32; slots.num_slots()];
        let mut first = vec![u64::MAX; slots.num_slots()];
        self.windows(0..self.net.num_terminals(), |c1, c2, paths, at| {
            let slot = slots.slot(c1, c2);
            counts[slot] += paths;
            first[slot] = first[slot].min(at);
        })?;
        let mut order: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
        order.sort_unstable_by_key(|&slot| first[slot]);
        let cdg = Cdg::of_counts(slots.clone(), &order, &counts, self.num_paths());
        Ok((cdg, counts))
    }

    /// One cycle break of Algorithm 2: move every path of layer `i` over
    /// its edge `edge` to layer `i + 1`, exactly as removing and adding
    /// them one by one would — in arrival order, `(moved_at, id)` — but a
    /// subtree at a time, without walking a path.
    ///
    /// The trees that hold the window `(from, to)` are those in which
    /// `from`'s tail forwards over `from` and its head over `to`; in each,
    /// the paths over it start at the terminals of the subtree behind the
    /// tail, found by descending incoming channels that are their
    /// source's next hop. The descent never enters the destination, whose
    /// own entry accepted tables leave unjudged, nor re-enters the tail
    /// over `from` (an unjudged loop through it, in a tree no terminal
    /// reaches it in). One leaves-first pass per tree then hands each
    /// node's victim count to its parent: the window `(c_v, c_parent)`
    /// loses and gains that many paths, the tail's window and the suffix
    /// to the destination the tail's count. A dependency new to layer
    /// `i + 1` is numbered first, in ascending `(rank of the first victim
    /// at or below the node, hops from it)`, which is where the one-by-one
    /// `add_path` calls in rank order would first have met it — so edge
    /// ids, `out` order, counts, `place` and [`Placement::moves`] are
    /// those of the per-path loop. The victims are sorted once; no path
    /// is walked. `layers[i + 1]` must exist, and the tables must have
    /// passed validation ([`TreePaths::layer0`] does).
    pub fn move_victims(
        &self,
        edge: EdgeId,
        layers: &mut [Cdg],
        i: usize,
        place: &mut Placement,
        v: &mut Victims,
    ) {
        #[cfg(test)]
        let before = reference::CHECK_MOVES
            .get()
            .then(|| (layers[i..=i + 1].to_vec(), place.clone()));
        let (net, routes) = (self.net, self.routes);
        let Edge { from, to, count } = *layers[i].edge(edge);
        let (from_c, to_c) = (ChannelId(from), ChannelId(to));
        let (tail, head) = (net.channel(from_c).src, net.channel(from_c).dst);
        v.clear();
        for (d, &dst) in net.terminals().iter().enumerate() {
            let held =
                routes.next_hop(tail, d) == Some(from_c) && routes.next_hop(head, d) == Some(to_c);
            if !held || tail == dst || head == dst {
                continue;
            }
            let next = routes.column(d).0;
            // Breadth first over the growing list: parents come first.
            let root = v.nodes.len();
            v.trees.push((root, d));
            v.nodes.push(Node::new(from, u32::MAX));
            for at in root.. {
                let Some(&Node { chan, .. }) = v.nodes.get(at) else {
                    break;
                };
                let node = net.channel(ChannelId(chan)).src;
                if let Some(src_t) = net.terminal_index(node) {
                    let p = self.id(src_t, d);
                    if place.layer[p as usize] as usize == i {
                        v.nodes[at].path = p;
                        let stamp = u64::from(place.moved_at[p as usize]);
                        v.found.push(stamp << 32 | u64::from(p));
                    }
                }
                for &c in net.in_channels(node) {
                    let u = net.channel(c).src;
                    if next[u.idx()] == c.0 && u != dst && c != from_c {
                        v.nodes.push(Node::new(c.0, at as u32));
                    }
                }
            }
        }
        debug_assert_eq!(v.found.len(), count as usize);
        // Arrival order: a layer above 0 hands its victims out in the
        // order they came; layer 0 (all stamps zero) in path-id order.
        v.found.sort_unstable();
        for (rank, &order) in v.found.iter().enumerate() {
            let p = order as u32 as usize;
            place.layer[p] = (i + 1) as u8;
            place.moved_at[p] = (place.moves + rank + 1) as u32;
        }
        place.moves += v.found.len();
        let (lower, upper) = layers[i..].split_at_mut(1);
        let (lower, upper) = (&mut lower[0], &mut upper[0]);
        let slots = lower.slots().clone();
        v.fresh_at
            .resize(slots.num_slots().max(v.fresh_at.len()), NOT_FRESH);
        // A slot layer `i + 1` has yet to number is one entry of `fresh`
        // however many windows of the break take it: the first of them,
        // their paths summed.
        let (fresh, fresh_at) = (&mut v.fresh, &mut v.fresh_at);
        let mut window = |c1: u32, c2: u32, n: u32, first: u64| {
            let slot = slots.slot(c1, c2);
            lower.take(slot, n);
            if upper.numbered(slot) {
                return upper.put(slot, n);
            }
            if fresh_at[slot] == NOT_FRESH {
                fresh_at[slot] = fresh.len() as u32;
                fresh.push((first, slot, 0));
            }
            let (at, _, paths) = &mut fresh[fresh_at[slot] as usize];
            (*at, *paths) = ((*at).min(first), *paths + n);
        };
        // Leaves first; a victim's new stamp stands in for its rank.
        for (t, &(root, d)) in v.trees.iter().enumerate() {
            let end = v.trees.get(t + 1).map_or(v.nodes.len(), |&(next, _)| next);
            for at in (root..end).rev() {
                let Node {
                    chan,
                    parent,
                    path,
                    mut below,
                    mut first,
                } = v.nodes[at];
                if path != NO_PATH {
                    below += 1;
                    first = first.min(u64::from(place.moved_at[path as usize]) << 32);
                }
                if below == 0 {
                    continue;
                }
                if at > root {
                    let up = &mut v.nodes[parent as usize];
                    window(chan, up.chan, below, first);
                    (up.below, up.first) = (up.below + below, up.first.min(first + 1));
                    continue;
                }
                // The tail's window and the suffix: a victim's walk
                // arrives, so this one does.
                let (next, dst) = (routes.column(d).0, net.terminals()[d]);
                let (mut c, mut node) = (from, head);
                while node != dst {
                    let hop = next[node.idx()];
                    window(c, hop, below, first);
                    (c, node, first) = (hop, net.channel(ChannelId(hop)).dst, first + 1);
                }
            }
        }
        // Ids for the new dependencies, in the order the per-path loop
        // would first have met them (equal keys would be one window: the
        // same victim, the same hop — so one slot).
        v.fresh.sort_unstable_by_key(|&(first, ..)| first);
        for &(_, slot, n) in &v.fresh {
            upper.number(slot);
            upper.put(slot, n);
            v.fresh_at[slot] = NOT_FRESH;
        }
        lower.pass_paths(upper, count as usize);
        #[cfg(test)]
        if let Some(before) = before {
            reference::check_move(self, edge, i, before, (lower, upper, place));
        }
    }
}

/// Algorithm 2's whole state per path: its layer, and when it last moved
/// — the value [`Placement::moves`] took when it did (0: never moved).
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    /// Layer per path, indexed by [`PathId`].
    pub layer: Vec<u8>,
    /// Move stamp per path, indexed by [`PathId`].
    pub moved_at: Vec<u32>,
    /// Paths moved so far.
    pub moves: usize,
}

impl Placement {
    /// Every one of `num_paths` paths in layer 0, none moved.
    pub fn new(num_paths: usize) -> Placement {
        Placement {
            layer: vec![0; num_paths],
            moved_at: vec![0; num_paths],
            moves: 0,
        }
    }
}

/// Scratch of [`TreePaths::move_victims`], kept across the breaks of a
/// run so that a break allocates nothing once it has grown.
#[derive(Default)]
pub struct Victims {
    /// The subtrees behind the tail, tree after tree.
    nodes: Vec<Node>,
    /// `(index of its tail, destination)` per tree holding the window.
    trees: Vec<(usize, usize)>,
    /// `moved_at << 32 | path` per victim.
    found: Vec<u64>,
    /// `(first, slot, paths)` per slot that layer `i + 1` has not
    /// numbered yet, over the windows that take it.
    fresh: Vec<(u64, usize, u32)>,
    /// Per dependency slot: its index in `fresh`, [`NOT_FRESH`] between
    /// breaks.
    fresh_at: Vec<u32>,
}

impl Victims {
    fn clear(&mut self) {
        self.nodes.clear();
        self.trees.clear();
        self.found.clear();
        self.fresh.clear();
    }
}

/// [`Victims::fresh_at`] of a slot that is not in `fresh`.
const NOT_FRESH: u32 = u32::MAX;

/// [`Node::path`] of a node that is no victim.
const NO_PATH: PathId = PathId::MAX;

/// A node of a subtree behind the tail: its next hop, its parent's index
/// (`u32::MAX` at the tail), its own victim path, the victims below it,
/// and `new stamp << 32 | hops` of the first of them (`u64::MAX` while
/// there is none).
#[derive(Clone, Copy)]
struct Node {
    chan: u32,
    parent: u32,
    path: PathId,
    below: u32,
    first: u64,
}

impl Node {
    fn new(chan: u32, parent: u32) -> Node {
        Node {
            chan,
            parent,
            path: NO_PATH,
            below: 0,
            first: u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoutingEngine;
    use crate::sssp::Sssp;
    use fabric::topo;

    // `tests/dep_slots.rs` pins `id` and `pair` as the enumeration of
    // ordered terminal pairs, over the generator zoo.

    #[test]
    fn walks_chain_from_source_to_destination() {
        let net = topo::kary_ntree(2, 2);
        let routes = Sssp::new().route(&net).unwrap();
        let trees = TreePaths {
            net: &net,
            routes: &routes,
        };
        trees.validate().unwrap();
        let mut chans = Vec::new();
        for p in 0..trees.num_paths() as PathId {
            let (src_t, dst_t) = trees.pair(p);
            trees.walk(p, &mut chans);
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

    /// A table entry naming a dead cable's channel — it still leaves the
    /// node and enters a switch, and its id is in range — fails the
    /// window kernel on a degraded view: it is not a channel of the view.
    #[test]
    fn windows_refuse_a_dead_cable() {
        let net = topo::torus(&[3, 3], 1);
        let cable = net.switch_cables()[0];
        let dead = [cable, net.channel(cable).rev.unwrap()];
        let view = fabric::degrade::remove(&net, &Default::default(), &dead.into_iter().collect());
        let mut routes = Sssp::new().route(&view).unwrap();
        let net = &view;
        (TreePaths {
            net,
            routes: &routes,
        })
        .validate()
        .unwrap();
        let at = view.channel(cable).src;
        let d = (0..view.num_terminals())
            .find(|&d| view.channel(routes.next_hop(at, d).unwrap()).dst != view.terminals()[d])
            .unwrap();
        routes.set_next(at, d, cable);
        let trees = TreePaths {
            net,
            routes: &routes,
        };
        assert_eq!(trees.validate(), Err(RouteError::Disconnected));
        assert!(trees.layer0(view.dep_slots()).is_err());
    }

    #[test]
    fn walk_lengths_sum_to_channel_loads() {
        let net = topo::torus(&[3, 3], 1);
        let routes = Sssp::new().route(&net).unwrap();
        let trees = TreePaths {
            net: &net,
            routes: &routes,
        };
        trees.validate().unwrap();
        let mut chans = Vec::new();
        let hops: usize = (0..trees.num_paths() as PathId)
            .map(|p| {
                trees.walk(p, &mut chans);
                chans.len()
            })
            .sum();
        let loads = routes.channel_loads(&net).unwrap();
        assert_eq!(hops as u32, loads.iter().sum::<u32>());
    }

    #[test]
    fn paths_over_stays_out_of_unjudged_entries() {
        // t0 - s0 - a - b - x - s1 - t1 with a triangle a - b - x - a, a
        // shortcut s0 - s1 and a second uplink t1 - s0. Toward t1 the
        // route is programmed the long way, over the window (a→b, b→x);
        // toward t0 it takes the shortcut, so no terminal reaches a, b or
        // x in that tree and their entries are free to chase each other
        // around the triangle — over the very same window. And t1's own
        // entry toward itself points back into its tree, behind a.
        let mut nb = fabric::NetworkBuilder::new();
        let [s0, a, b, x, s1] = ["s0", "a", "b", "x", "s1"].map(|name| nb.add_switch(name, 8));
        let (t0, t1) = (nb.add_terminal("t0"), nb.add_terminal("t1"));
        for (u, v) in [
            (t0, s0),
            (s0, a),
            (a, b),
            (b, x),
            (x, s1),
            (s1, t1),
            (x, a),
            (s0, s1),
            (t1, s0),
        ] {
            nb.link(u, v).unwrap();
        }
        let net = nb.build();
        let chan = |u, v| net.channel_between(u, v).unwrap();
        let mut routes = Routes::new(&net, "hand-built");
        for hops in [[t0, s0, a, b, x, s1, t1], [t1, s1, s0, t0, t0, t0, t0]] {
            let d = net.terminal_index(hops[6]).unwrap();
            for w in hops.windows(2).filter(|w| w[0] != w[1]) {
                routes.set_next(w[0], d, chan(w[0], w[1]));
            }
        }
        for (u, v) in [(a, b), (b, x), (x, a)] {
            routes.set_next(u, 0, chan(u, v));
        }
        routes.set_next(t1, 1, chan(t1, s0));
        let trees = TreePaths {
            net: &net,
            routes: &routes,
        };
        let (cdg, counts) = trees.layer0(net.dep_slots()).unwrap();
        assert_eq!((cdg.num_paths(), counts.iter().sum::<u32>()), (2, 5 + 2));
        let (from, to) = (chan(a, b).0, chan(b, x).0);
        assert_eq!(trees.paths_over(from, to, &[0, 0], 0), [trees.id(0, 1)]);
        assert_eq!(trees.paths_over(from, to, &[1, 0], 0), []);
        // The bulk step descends the same way: one victim, and the
        // windows of its walk alone move.
        let edge = (0..cdg.num_edges() as EdgeId)
            .find(|&e| (cdg.edge(e).from, cdg.edge(e).to) == (from, to));
        let mut place = Placement::new(2);
        let mut layers = [cdg, Cdg::over(net.dep_slots().clone())];
        reference::CHECK_MOVES.set(true);
        trees.move_victims(
            edge.unwrap(),
            &mut layers,
            0,
            &mut place,
            &mut Victims::default(),
        );
        reference::CHECK_MOVES.set(false);
        assert_eq!((place.layer, place.moved_at), (vec![1, 0], vec![1, 0]));
        assert_eq!((layers[1].num_paths(), layers[1].num_edges()), (1, 5));
    }
}
