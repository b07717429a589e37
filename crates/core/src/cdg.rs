//! Channel dependency graphs (CDGs) with per-edge path counts and a
//! resumable cycle search.
//!
//! Following Dally & Seitz, the CDG of a network and routing function has
//! one node per *channel* and an edge `(c_i, c_j)` whenever some route
//! uses `c_j` directly after `c_i`. A routing is deadlock-free if every
//! virtual layer's CDG is acyclic (sufficient condition; §III of the
//! paper).
//!
//! The offline DFSSSP algorithm needs two things beyond a plain digraph:
//!
//! 1. **How many paths induce each edge** — an edge lives while its count
//!    is positive, and the heuristics weigh edges by it. *Which* paths
//!    they are is not kept here: a layer knows no path, only the channel
//!    sequences added to and removed from it, or the per-slot counts a
//!    cycle break moves in bulk (`take`, `number`, `put`); the paths
//!    behind an edge are read off the routing's destination trees when a
//!    break asks ([`crate::paths::TreePaths::move_victims`]).
//! 2. **A resumable cycle search** — Algorithm 2's efficiency hinges on
//!    "the cycle search is resumed on the same place where the search
//!    aborted". [`CycleSearch`] keeps its DFS stack across edge removals:
//!    removing edges can never create cycles, so black (fully explored)
//!    nodes stay black, and only the stack suffix above the first dead
//!    tree edge must be re-opened.

use fabric::{ChannelId, DepSlots};
use std::sync::Arc;

/// Index of a CDG edge within its [`Cdg`].
pub type EdgeId = u32;

/// "No edge recorded at this dependency slot yet."
const NO_EDGE: EdgeId = u32::MAX;

/// A CDG edge `from → to` (both are channel indices).
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// Source channel index.
    pub from: u32,
    /// Target channel index.
    pub to: u32,
    /// Number of *live* paths currently inducing this edge. The edge is
    /// part of the graph iff `count > 0`.
    pub count: u32,
}

/// The channel dependency graph of one virtual layer.
///
/// A dependency is an address: edge ids live in a flat array indexed by
/// [`DepSlots`], so recording or finding `(from, to)` is two small loads
/// and an index, never a hash. Edge ids are handed out in first-recorded
/// order and `out[from]` lists them in that order; the cycle search, the
/// heuristics' tie-breaks and therefore every layer assignment depend on
/// both, which is why [`Cdg::of_counts`] is handed the order to number in.
#[derive(Clone, PartialEq)]
pub struct Cdg {
    slots: Arc<DepSlots>,
    /// Edge id per dependency slot, [`NO_EDGE`] until first recorded.
    edge_of_slot: Vec<EdgeId>,
    /// Outgoing edge ids per channel (append-only; dead edges skipped).
    out: Vec<Vec<EdgeId>>,
    edges: Vec<Edge>,
    live_edges: usize,
    live_paths: usize,
}

impl Cdg {
    /// An empty CDG over `num_channels` channels in which any ordered
    /// pair may depend ([`DepSlots::complete`], `num_channels²` slots):
    /// for small synthetic digraphs. A fabric's layers are [`Cdg::over`]
    /// its dependency-slot index.
    pub fn new(num_channels: usize) -> Cdg {
        Cdg::over(DepSlots::complete(num_channels))
    }

    /// An empty CDG whose dependencies are addressed by `slots`.
    pub fn over(slots: Arc<DepSlots>) -> Cdg {
        Cdg {
            edge_of_slot: vec![NO_EDGE; slots.num_slots()],
            out: vec![Vec::new(); slots.num_channels()],
            slots,
            edges: Vec::new(),
            live_edges: 0,
            live_paths: 0,
        }
    }

    /// A CDG of `paths` paths given as path counts: the edges are
    /// the slots listed in `order`, numbered (and pushed to `out`) in
    /// that order, edge `slot` induced by `counts[slot]` paths. With the
    /// slots in the order their dependencies first appear over all paths
    /// in id order, this is [`Cdg::add_path`] called for every path.
    pub fn of_counts(slots: Arc<DepSlots>, order: &[usize], counts: &[u32], paths: usize) -> Cdg {
        let mut cdg = Cdg::over(slots);
        for &slot in order {
            cdg.number(slot);
            cdg.put(slot, counts[slot]);
        }
        cdg.live_paths = paths;
        cdg
    }

    /// Number of channels (CDG nodes).
    pub fn num_channels(&self) -> usize {
        self.out.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// Number of live paths added to this layer.
    pub fn num_paths(&self) -> usize {
        self.live_paths
    }

    /// The edge with the given id.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e as usize]
    }

    /// Record a single dependency `from → to` without path bookkeeping
    /// (for drivers that only need the digraph: tests, exact solvers).
    pub fn add_dependency(&mut self, from: u32, to: u32) {
        self.bump(from, to);
    }

    /// The dependency-slot index this layer's edges are addressed by.
    pub(crate) fn slots(&self) -> &Arc<DepSlots> {
        &self.slots
    }

    /// Whether dependency `slot` has an edge id, live or dead.
    pub(crate) fn numbered(&self, slot: usize) -> bool {
        self.edge_of_slot[slot] != NO_EDGE
    }

    /// Give dependency `slot` the next edge id, with no path on it, unless
    /// it has one: the id order, and the `out` order, are the order of
    /// the calls that number.
    pub(crate) fn number(&mut self, slot: usize) {
        if self.edge_of_slot[slot] == NO_EDGE {
            let (from, to) = self.slots.ends(slot);
            debug_assert_ne!(from, to, "self-dependency");
            self.edge_of_slot[slot] = self.edges.len() as EdgeId;
            self.out[from as usize].push(self.edge_of_slot[slot]);
            self.edges.push(Edge { from, to, count: 0 });
        }
    }

    /// `n` more live paths on the (numbered) edge at `slot`.
    pub(crate) fn put(&mut self, slot: usize, n: u32) {
        let edge = &mut self.edges[self.edge_of_slot[slot] as usize];
        self.live_edges += usize::from(edge.count == 0 && n > 0);
        edge.count += n;
    }

    /// `n` fewer live paths on the edge at `slot`, which must hold them
    /// (counts underflow otherwise, caught in debug).
    pub(crate) fn take(&mut self, slot: usize, n: u32) {
        let edge = &mut self.edges[self.edge_of_slot[slot] as usize];
        debug_assert!(edge.count >= n, "removing paths not present");
        edge.count -= n;
        self.live_edges -= usize::from(edge.count == 0 && n > 0);
    }

    /// `n` of this layer's paths move to `upper`. Only the path counts:
    /// the counts of their edges move through `take` and `put`.
    pub(crate) fn pass_paths(&mut self, upper: &mut Cdg, n: usize) {
        self.live_paths -= n;
        upper.live_paths += n;
    }

    /// One more live path on the edge `from → to`, created on first use.
    fn bump(&mut self, from: u32, to: u32) {
        let slot = self.slots.slot(from, to);
        self.number(slot);
        self.put(slot, 1);
    }

    /// Add a path, given as its channel sequence (all consecutive pairs),
    /// to this layer. Paths with fewer than two channels add no edges but
    /// still count.
    pub fn add_path(&mut self, path: &[ChannelId]) {
        for w in path.windows(2) {
            self.bump(w[0].0, w[1].0);
        }
        self.live_paths += 1;
    }

    /// Remove a path's contribution from this layer. The path must have
    /// been added before (counts underflow otherwise, caught in debug).
    pub fn remove_path(&mut self, path: &[ChannelId]) {
        for w in path.windows(2) {
            self.take(self.slots.slot(w[0].0, w[1].0), 1);
        }
        self.live_paths -= 1;
    }

    /// Kill edge `e` outright (count to zero), regardless of how many
    /// dependencies were recorded on it. For drivers that manage path
    /// membership externally (tests, exact solvers); the engine code
    /// always removes whole paths instead.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let edge = &mut self.edges[e as usize];
        if edge.count > 0 {
            edge.count = 0;
            self.live_edges -= 1;
        }
    }

    /// Whether the live-edge graph is acyclic (iterative 3-color DFS).
    pub fn is_acyclic(&self) -> bool {
        let mut search = CycleSearch::new(self.num_channels());
        search.next_cycle(self).is_none()
    }

    /// Whether channel `to` is reachable from channel `from` over live
    /// edges. Early-exits; explores only `from`'s descendant cone —
    /// the workhorse of the online (per-path) cycle check, where a full
    /// graph scan per insertion would be ruinous.
    pub fn reaches(&self, from: u32, to: u32, seen: &mut [u32], epoch: u32) -> bool {
        if from == to {
            return true;
        }
        debug_assert!(seen.len() >= self.out.len());
        let mut stack = vec![from];
        seen[from as usize] = epoch;
        while let Some(u) = stack.pop() {
            for &e in &self.out[u as usize] {
                let edge = &self.edges[e as usize];
                if edge.count == 0 {
                    continue;
                }
                let v = edge.to;
                if v == to {
                    return true;
                }
                if seen[v as usize] != epoch {
                    seen[v as usize] = epoch;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Would adding `path` close a cycle? Checked *after* tentatively
    /// adding it: any new cycle must traverse one of its edges
    /// `(c_i, c_(i+1))`, i.e. `c_(i+1)` must reach `c_i`. `seen`/`epoch`
    /// implement O(1) visited-set reset across calls (caller increments
    /// `epoch` per query).
    pub fn path_closes_cycle(&self, path: &[ChannelId], seen: &mut [u32], epoch: &mut u32) -> bool {
        for w in path.windows(2) {
            *epoch += 1;
            if self.reaches(w[1].0, w[0].0, seen, *epoch) {
                return true;
            }
        }
        false
    }

    /// Find one cycle in the live-edge graph, as a list of edge ids.
    pub fn find_cycle(&self) -> Option<Vec<EdgeId>> {
        let mut search = CycleSearch::new(self.num_channels());
        search.next_cycle(self)
    }
}

const WHITE: u8 = 0;
const GREY: u8 = 1;
const BLACK: u8 = 2;

struct Frame {
    chan: u32,
    /// Next position in `out[chan]` to inspect.
    pos: usize,
    /// Edge taken from the previous frame to reach this one
    /// (`u32::MAX` for root frames).
    via: EdgeId,
}

/// Resumable cycle search over a [`Cdg`].
///
/// Call [`CycleSearch::next_cycle`] to get a cycle; remove paths (which
/// kills edges) and call it again. The search continues from where it
/// stopped: black nodes stay settled (edge removal cannot create cycles),
/// and the stack is only unwound past dead tree edges.
pub struct CycleSearch {
    color: Vec<u8>,
    stack: Vec<Frame>,
    next_root: usize,
}

impl CycleSearch {
    /// Fresh search state over a graph with `num_channels` nodes.
    pub fn new(num_channels: usize) -> CycleSearch {
        CycleSearch {
            color: vec![WHITE; num_channels],
            stack: Vec::new(),
            next_root: 0,
        }
    }

    /// Repair the stack after the caller removed edges: unwind everything
    /// above the first dead tree edge, re-whitening unwound nodes. Since
    /// re-whitened nodes can sit below the root cursor, the cursor is
    /// reset whenever anything is popped (the rescan only skips over
    /// settled nodes, so it stays cheap).
    fn repair(&mut self, cdg: &Cdg) {
        let mut valid = self.stack.len();
        for (i, f) in self.stack.iter().enumerate() {
            if f.via != u32::MAX && cdg.edge(f.via).count == 0 {
                valid = i;
                break;
            }
        }
        if self.stack.len() > valid {
            self.next_root = 0;
        }
        while self.stack.len() > valid {
            let f = self.stack.pop().unwrap();
            self.color[f.chan as usize] = WHITE;
        }
    }

    /// Find the next cycle of `cdg`'s live edges, or `None` when acyclic.
    ///
    /// **Contract:** after a cycle is returned, the caller must remove at
    /// least one edge of that cycle (by removing all paths inducing it)
    /// before calling `next_cycle` again; otherwise nodes on the still
    /// existing cycle could be settled incorrectly.
    pub fn next_cycle(&mut self, cdg: &Cdg) -> Option<Vec<EdgeId>> {
        self.repair(cdg);
        loop {
            // Ensure there is a frame to work on.
            if self.stack.is_empty() {
                let root = (self.next_root..cdg.num_channels())
                    .find(|&c| self.color[c] == WHITE && !cdg.out[c].is_empty());
                match root {
                    None => return None,
                    Some(c) => {
                        self.next_root = c; // roots before c are settled
                        self.color[c] = GREY;
                        self.stack.push(Frame {
                            chan: c as u32,
                            pos: 0,
                            via: u32::MAX,
                        });
                    }
                }
            }
            // Advance the top frame.
            let top = self.stack.len() - 1;
            let chan = self.stack[top].chan as usize;
            let pos = self.stack[top].pos;
            match cdg.out[chan].get(pos) {
                None => {
                    // Exhausted: blacken and pop.
                    let f = self.stack.pop().unwrap();
                    self.color[f.chan as usize] = BLACK;
                }
                Some(&e) => {
                    self.stack[top].pos += 1;
                    let edge = cdg.edge(e);
                    if edge.count == 0 {
                        continue; // dead edge
                    }
                    match self.color[edge.to as usize] {
                        BLACK => {}
                        WHITE => {
                            self.color[edge.to as usize] = GREY;
                            self.stack.push(Frame {
                                chan: edge.to,
                                pos: 0,
                                via: e,
                            });
                        }
                        GREY => {
                            // Back edge: cycle = stack path from `to` to
                            // top, plus this closing edge.
                            let start = self
                                .stack
                                .iter()
                                .position(|f| f.chan == edge.to)
                                .expect("grey nodes are on the stack");
                            let mut cycle: Vec<EdgeId> =
                                self.stack[start + 1..].iter().map(|f| f.via).collect();
                            cycle.push(e);
                            return Some(cycle);
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a CDG with explicit unit dependencies.
    fn cdg_of(n: usize, deps: &[(u32, u32)]) -> Cdg {
        let mut cdg = Cdg::new(n);
        for &(a, b) in deps {
            cdg.add_dependency(a, b);
        }
        cdg
    }

    #[test]
    fn empty_and_dag_are_acyclic() {
        assert!(Cdg::new(0).is_acyclic());
        assert!(cdg_of(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).is_acyclic());
    }

    #[test]
    fn self_cycle_detected() {
        let cdg = cdg_of(3, &[(0, 1), (1, 0)]);
        assert!(!cdg.is_acyclic());
        let cycle = cdg.find_cycle().unwrap();
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn long_cycle_edges_chain() {
        let cdg = cdg_of(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]);
        let cycle = cdg.find_cycle().unwrap();
        // Cycle must be 1->2->3->4->1.
        assert_eq!(cycle.len(), 4);
        for w in cycle.windows(2) {
            assert_eq!(cdg.edge(w[0]).to, cdg.edge(w[1]).from);
        }
        let first = cdg.edge(cycle[0]);
        let last = cdg.edge(*cycle.last().unwrap());
        assert_eq!(last.to, first.from);
    }

    #[test]
    fn resumable_search_drains_all_cycles() {
        // Two disjoint cycles plus a diamond.
        let mut cdg = cdg_of(
            8,
            &[
                (0, 1),
                (1, 0),
                (2, 3),
                (3, 4),
                (4, 2),
                (5, 6),
                (6, 7),
                (5, 7),
            ],
        );
        let mut search = CycleSearch::new(cdg.num_channels());
        let mut found = 0;
        while let Some(cycle) = search.next_cycle(&cdg) {
            found += 1;
            // Kill the whole cycle by zeroing one edge's count.
            let e = cycle[0];
            cdg.edges[e as usize].count = 0;
            cdg.live_edges -= 1;
        }
        assert_eq!(found, 2);
        assert!(cdg.is_acyclic());
    }

    /// SSSP routes on the 5-ring and their layer-0 CDG.
    fn ring_layer0(check: impl Fn(crate::paths::TreePaths, Cdg)) {
        use crate::engine::RoutingEngine;
        let net = fabric::topo::ring(5, 1);
        let routes = crate::sssp::Sssp::new().route(&net).unwrap();
        let paths = crate::paths::TreePaths {
            net: &net,
            routes: &routes,
        };
        let cdg = paths.layer0(net.dep_slots()).unwrap().0;
        check(paths, cdg);
    }

    #[test]
    fn path_bookkeeping_counts() {
        ring_layer0(|paths, mut cdg| {
            assert_eq!(cdg.num_paths(), paths.num_paths());
            assert!(cdg.num_edges() > 0);
            // Removing everything empties the graph.
            let mut channels = Vec::new();
            for p in 0..paths.num_paths() as u32 {
                paths.walk(p, &mut channels);
                cdg.remove_path(&channels);
            }
            assert_eq!(cdg.num_paths(), 0);
            assert_eq!(cdg.num_edges(), 0);
            assert!(cdg.is_acyclic());
        });
    }

    #[test]
    fn live_paths_filter_stale_entries() {
        // The reference's victim lists filter by layer: a moved path is
        // found where it went and not where it was.
        ring_layer0(|paths, mut cdg| {
            let mut path_layer = vec![0u8; paths.num_paths()];
            // Take any edge; move one of its paths "away".
            let (from, to, count) = (cdg.edge(0).from, cdg.edge(0).to, cdg.edge(0).count);
            let all = paths.paths_over(from, to, &path_layer, 0);
            assert_eq!(all.len(), count as usize);
            let victim = all[0];
            let mut channels = Vec::new();
            paths.walk(victim, &mut channels);
            cdg.remove_path(&channels);
            path_layer[victim as usize] = 1;
            let remaining = paths.paths_over(from, to, &path_layer, 0);
            assert_eq!(remaining.len(), cdg.edge(0).count as usize);
            assert_eq!(remaining.len(), all.len() - 1);
            assert!(!remaining.contains(&victim));
            assert_eq!(paths.paths_over(from, to, &path_layer, 1), [victim]);
        });
    }

    #[test]
    fn black_nodes_survive_removals() {
        // Chain into a cycle: 0 -> 1 -> 2 -> 3 -> 2. After breaking
        // (3, 2), resuming must not revisit settled parts and must report
        // acyclic.
        let mut cdg = cdg_of(4, &[(0, 1), (1, 2), (2, 3), (3, 2)]);
        let mut search = CycleSearch::new(4);
        let cycle = search.next_cycle(&cdg).unwrap();
        assert_eq!(cycle.len(), 2);
        // Break the back edge (whichever edge closes the cycle works).
        let victim = *cycle.last().unwrap();
        cdg.edges[victim as usize].count = 0;
        cdg.live_edges -= 1;
        assert!(search.next_cycle(&cdg).is_none());
    }

    #[test]
    fn ring_sssp_dependencies_are_cyclic() {
        // The paper's Fig 2: SSSP on a 5-ring creates a cyclic CDG.
        ring_layer0(|_, cdg| assert!(!cdg.is_acyclic(), "5-ring SSSP must have a cyclic CDG"));
    }
}
