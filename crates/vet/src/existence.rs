//! V007 — does a deadlock-free routing *exist* for this fabric at all?
//!
//! Every other lint judges an artifact; this one judges the network.
//! Mendlovic & Matias (arXiv:2503.04583) study exactly this question:
//! given an arbitrary channel graph, does *some* assignment of paths
//! connecting the required terminal pairs have an acyclic channel
//! dependency graph (Dally & Seitz), without adding virtual layers? A
//! degraded fabric can fail this condition — at which point no reroute,
//! however clever, can restore single-layer deadlock freedom, and the
//! control plane should escalate (add a layer, quarantine, drain)
//! instead of burning reroute budget on an impossible ask.
//!
//! Deciding existence exactly is hard in general, so [`existence`] is a
//! sound three-valued decision procedure scoped to **one virtual
//! layer** (the Mendlovic–Matias setting; the multi-layer escape hatch
//! is precisely what the escalation ladder buys):
//!
//! * [`Existence::NotExists`] — a machine-checkable refutation:
//!   * **One-way pair**: terminals connected by cabling but directed
//!     reachability holds in only one direction (a half-dead link). No
//!     routing of any kind serves the pair, deadlock-free or not.
//!   * **Forced cycle**: for some pairs the fabric admits exactly one
//!     path (at every node along it, exactly one usable out-channel
//!     makes progress). The dependency edges of such paths appear in
//!     *every* routing; if their union is cyclic, every single-layer
//!     routing violates Dally & Seitz.
//! * [`Existence::Exists`] — a certificate: orient the bidirected
//!   subgraph up*/down* from a BFS root per component ((depth, id)
//!   order), verify the allowed-dependency graph (everything except
//!   down→up turns) is acyclic — every allowed turn climbs one explicit
//!   channel order — and check every required pair has both
//!   endpoints under a common root. Up*/down* paths then connect every
//!   required pair with dependencies drawn only from the acyclic
//!   allowed graph — a constructive deadlock-free routing.
//! * [`Existence::Undecided`] — neither side closed: some pair is
//!   routable only over one-directional channels the up*/down*
//!   certificate cannot order. Reported as a warning, never an error.
//!
//! Pairs in different undirected (cabling) components are *not*
//! required: they are latent fabric facts in V002's jurisdiction, and a
//! fabric split in two still deserves an existence verdict per half.
//!
//! Cost: about one sweep of the view. The certificate is a BFS and a
//! turn-by-turn order check (`O(Σ in · out)`, no search). Under the
//! forced-walk budget: one reverse BFS per switch, a hop-distance row per
//! destination read off them ([`HopTable`]), and forced walks that
//! search about once per destination (see [`ForcedWalks`]) —
//! `O(S · E + T · V)` on fabrics with path diversity. Past the budget no
//! walk runs, and a fabric whose cabling islands are strongly connected
//! needs no row: the one-way test and the pair count read the island
//! labelling (`O(V + E)`, see `Cabling::no_pair_is_one_way`); anything
//! else takes the rows. A publish gate that runs on every epoch needs
//! that.

use crate::cdg_lint::EdgeSet;
use fabric::{ChannelId, HopTable, Network, NodeId};

/// The V007 verdict for a fabric. See the module docs for semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Existence {
    /// A deadlock-free single-layer routing exists; the up*/down*
    /// orientation rooted at `roots` (one per bidirected component) is
    /// a constructive witness covering all `pairs` required pairs.
    Exists {
        roots: Vec<NodeId>,
        /// Ordered terminal pairs the certificate covers.
        pairs: usize,
    },
    /// No single-layer deadlock-free routing exists; the witness is a
    /// concrete refutation.
    NotExists(ExistenceWitness),
    /// The procedure could neither certify nor refute; `(src, dst)` is
    /// the first required pair the certificate fails to cover.
    Undecided { src: NodeId, dst: NodeId },
}

/// A concrete refutation of single-layer deadlock-free-routing
/// existence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExistenceWitness {
    /// `src` and `dst` share a cable path but no directed path: the
    /// pair is unservable outright.
    OneWayPair { src: NodeId, dst: NodeId },
    /// Dependency edges forced by unique paths close this cycle
    /// (channels chain head-to-tail, last feeds first).
    ForcedCycle { channels: Vec<ChannelId> },
}

/// Per-pair work cap for the forced-path walks: pairs² × channels
/// beyond this skips the walks (the refuter weakens to one-way pairs
/// only — sound, the verdict just leans Undecided on huge degraded
/// fabrics instead of stalling a publish gate).
const FORCED_WALK_BUDGET: u64 = 50_000_000;

/// Decide whether `net` admits a deadlock-free routing on a single
/// virtual layer.
///
/// Every node's hop distance to each destination (`Network::hops_to`,
/// read off a [`HopTable`]: `O(S · E)` for the table, `O(V)` a row);
/// unreachable sources of a cabled pair are the one-way refutation. The
/// forced-path walks (budget-capped by [`FORCED_WALK_BUDGET`]) reuse
/// those distances: see [`ForcedWalks`] for why most steps need no
/// further search, which leaves the whole procedure that cheap unless
/// the fabric really has long unique paths — each step of those still
/// costs one exact `O(E)` search. With the walks off no forced-edge set
/// is built, and a fabric whose cabling islands are strongly connected
/// needs no rows at all (`Cabling::no_pair_is_one_way`).
pub fn existence(net: &Network) -> Existence {
    let terms = net.terminals();
    if terms.len() < 2 {
        // Nothing to route: the empty routing is vacuously deadlock-free.
        return Existence::Exists {
            roots: Vec::new(),
            pairs: 0,
        };
    }

    let cert = Certificate::build(net);
    let walk_forced = (terms.len() as u64)
        .pow(2)
        .saturating_mul(net.num_live_channels().max(1) as u64)
        <= FORCED_WALK_BUDGET;
    let mut cabling = Cabling::new(net);
    if !walk_forced && cabling.no_pair_is_one_way(net) {
        return cabling.cover(net, cert);
    }
    let mut forced = walk_forced.then(|| {
        (
            ForcedWalks::new(net.num_nodes()),
            EdgeSet::over(net.dep_slots().clone()),
        )
    });
    let mut uncertified: Option<(NodeId, NodeId)> = None;
    let mut required_pairs = 0usize;
    let hops = HopTable::of(net);
    let mut dist = Vec::new();

    for &d in terms {
        #[cfg(test)]
        HOP_ROWS.with(|n| n.set(n.get() + 1));
        hops.row_into(d, &mut dist);
        required_pairs += cabling.mark(net, d);
        for &s in terms {
            if s == d || !cabling.has(s, d) {
                continue;
            }
            if dist[s.idx()] == u32::MAX {
                return Existence::NotExists(ExistenceWitness::OneWayPair { src: s, dst: d });
            }
            if let Some((walks, edges)) = &mut forced {
                walks.collect(net, &dist, s, d, edges);
            }
            if uncertified.is_none() && !cert.covers(net, s, d) {
                uncertified = Some((s, d));
            }
        }
    }

    if let Some(channels) = forced.and_then(|(_, edges)| edges.find_cycle()) {
        return Existence::NotExists(ExistenceWitness::ForcedCycle { channels });
    }
    if let Some((src, dst)) = uncertified {
        return Existence::Undecided { src, dst };
    }
    Existence::Exists {
        roots: cert.roots,
        pairs: required_pairs,
    }
}

/// Which terminal pairs share a cable path (channels taken in either
/// direction, transiting only switches). Defines which pairs the fabric
/// *intends* to connect — and therefore which pairs V007 must account
/// for. Two terminals are cabled when they are adjacent or each sits
/// next to a switch of the same island (component of the switch-only
/// cable graph), so one labelling serves every destination.
struct Cabling {
    /// Island of each switch; `u32::MAX` for terminals.
    island: Vec<u32>,
    /// Per island, the terminals next to one of its switches.
    attached: Vec<Vec<NodeId>>,
    /// `cabled_to[s] == d.0` once [`Self::mark`] ran for `d`.
    cabled_to: Vec<u32>,
    /// `marked[island] == d.0` once that island's terminals are stamped.
    marked: Vec<u32>,
}

impl Cabling {
    fn new(net: &Network) -> Self {
        let mut island = vec![u32::MAX; net.num_nodes()];
        let mut attached = Vec::new();
        let mut stack = Vec::new();
        for &root in net.switches() {
            if island[root.idx()] != u32::MAX {
                continue;
            }
            let label = attached.len() as u32;
            let mut terminals = Vec::new();
            island[root.idx()] = label;
            stack.push(root);
            while let Some(v) = stack.pop() {
                for u in neighbours(net, v) {
                    if net.is_terminal(u) {
                        terminals.push(u);
                    } else if island[u.idx()] == u32::MAX {
                        island[u.idx()] = label;
                        stack.push(u);
                    }
                }
            }
            terminals.sort_unstable();
            terminals.dedup();
            attached.push(terminals);
        }
        Cabling {
            island,
            marked: vec![u32::MAX; attached.len()],
            attached,
            cabled_to: vec![u32::MAX; net.num_nodes()],
        }
    }

    /// Stamp every terminal cabled to `d`; returns how many besides `d`
    /// — the required pairs toward `d`.
    fn mark(&mut self, net: &Network, d: NodeId) -> usize {
        let Cabling {
            island,
            attached,
            cabled_to,
            marked,
        } = self;
        let mut stamped = 0;
        let mut stamp = |t: NodeId| {
            if cabled_to[t.idx()] != d.0 {
                cabled_to[t.idx()] = d.0;
                stamped += usize::from(t != d);
            }
        };
        for a in neighbours(net, d) {
            if net.is_terminal(a) {
                stamp(a);
                continue;
            }
            let island = island[a.idx()] as usize;
            if marked[island] != d.0 {
                marked[island] = d.0;
                attached[island].iter().for_each(|&t| stamp(t));
            }
        }
        stamped
    }

    fn has(&self, s: NodeId, d: NodeId) -> bool {
        self.cabled_to[s.idx()] == d.0
    }

    /// Whether no cabled pair can be one-way, read off the cabling alone:
    /// every island's switches are strongly connected over their
    /// switch-to-switch channels, every terminal feeds and is fed by each
    /// island it touches, and no channel joins two terminals. A cabled
    /// pair then shares an island, which its source enters, crosses and
    /// leaves toward its destination. `O(V + E)`.
    fn no_pair_is_one_way(&self, net: &Network) -> bool {
        // Bit 1: reached from its island's first switch; bit 2: reaches it.
        let mut reach = vec![0u8; net.num_nodes()];
        let mut rooted = vec![false; self.attached.len()];
        let mut stack = Vec::new();
        for &root in net.switches() {
            if std::mem::replace(&mut rooted[self.island[root.idx()] as usize], true) {
                continue;
            }
            for bit in [1, 2] {
                reach[root.idx()] |= bit;
                stack.push(root);
                while let Some(v) = stack.pop() {
                    let channels = match bit {
                        1 => net.out_channels(v),
                        _ => net.in_channels(v),
                    };
                    for &c in channels {
                        let ch = net.channel(c);
                        let u = if bit == 1 { ch.dst } else { ch.src };
                        if net.is_switch(u) && reach[u.idx()] & bit == 0 {
                            reach[u.idx()] |= bit;
                            stack.push(u);
                        }
                    }
                }
            }
        }
        if net.switches().iter().any(|s| reach[s.idx()] != 3) {
            return false;
        }
        // Each channel of a terminal against its others: a terminal has
        // few ports (`NetworkBuilder::add_terminal` gives it two).
        net.terminals().iter().all(|&t| {
            let island = |v: NodeId| net.is_switch(v).then(|| self.island[v.idx()]);
            let feeds = || {
                net.out_channels(t)
                    .iter()
                    .map(|&c| island(net.channel(c).dst))
            };
            let fed = || {
                net.in_channels(t)
                    .iter()
                    .map(|&c| island(net.channel(c).src))
            };
            feeds()
                .chain(fed())
                .all(|i| i.is_some() && feeds().any(|j| j == i) && fed().any(|j| j == i))
        })
    }

    /// The verdict once [`Self::no_pair_is_one_way`] holds and no walk
    /// runs: nothing can be refuted, and coverage is read per island. A
    /// destination inside one island whose terminals all share a
    /// certificate component is covered whole, its pairs counted off the
    /// island's size. Any other destination is stamped and scanned for
    /// its first uncovered source, the pair the per-pair loop would
    /// report. `O(T)` on a fabric whose terminals each sit in one island.
    fn cover(&mut self, net: &Network, cert: Certificate) -> Existence {
        // Per island, whether the certificate covers every pair among its
        // terminals: they share one component.
        let covered: Vec<bool> = self
            .attached
            .iter()
            .map(|ts| {
                let comp = ts.first().map_or(usize::MAX, |t| cert.comp[t.idx()]);
                cert.valid && comp != usize::MAX && ts.iter().all(|t| cert.comp[t.idx()] == comp)
            })
            .collect();
        let mut pairs = 0;
        for &d in net.terminals() {
            let mut islands = neighbours(net, d).map(|v| self.island[v.idx()] as usize);
            let Some(home) = islands.next() else {
                continue; // unplugged: no pair
            };
            // Inside one island `d` is cabled to that island's terminals.
            if islands.all(|i| i == home) && covered[home] {
                pairs += self.attached[home].len() - 1;
                continue;
            }
            pairs += self.mark(net, d);
            let first = net
                .terminals()
                .iter()
                .find(|&&s| s != d && self.has(s, d) && !cert.covers(net, s, d));
            if let Some(&src) = first {
                return Existence::Undecided { src, dst: d };
            }
        }
        Existence::Exists {
            roots: cert.roots,
            pairs,
        }
    }
}

/// Nodes one channel away from `v`, in either direction.
fn neighbours(net: &Network, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    let backwards = net.in_channels(v).iter().map(|&c| net.channel(c).src);
    let forwards = net.out_channels(v).iter().map(|&c| net.channel(c).dst);
    backwards.chain(forwards)
}

/// What walking from one first switch toward the current destination
/// found.
#[derive(Clone, Copy)]
enum Walk {
    Unwalked,
    /// Some step had a choice: the pair pins nothing.
    Branches,
    /// Every step was forced; the channels are `chains[start..start + len]`.
    Forced {
        start: usize,
        len: usize,
    },
}

/// The forced-path walks of every source toward one destination at a
/// time: walk from `s` toward `d` as long as exactly one out-channel
/// makes progress — progress meaning its head still reaches `d` by a
/// *simple* continuation (avoiding every node already on the walk; a
/// head that can only reach `d` back through the walk offers no real
/// choice). A fully forced walk pins its dependency edges into every
/// routing that serves the pair; any genuine branching point ends the
/// obligation and the pair contributes nothing.
///
/// Three facts keep this off the `O(T² · diameter · E)` a search per
/// step per pair would cost, without changing a single answer:
///
/// * Terminals never relay, so avoiding the source changes nobody
///   else's reachability: the source's usable heads read straight off
///   the destination's hop distances, and the walk from the first switch
///   on is the same for every terminal entering there — walked once per
///   (first switch, destination) and replayed per source.
/// * A head `h` off the walk with `dist[h] <=` the least distance on the
///   walk certainly makes progress: a shortest path from `h` visits only
///   strictly smaller distances after `h`, so it meets no walk node. So
///   does a switch head one hop short of that — one with an off-walk
///   out-neighbour `g` (`d` or a switch) and `dist[g] <=` that floor:
///   `h → g` and then `g`'s shortest path. Two heads certified either
///   way are a choice with no search at all. On `torus(8x8,2)` the
///   second tier takes the exact searches from 1 664 to 128, one per
///   destination, where the switch next to it offers only `d`.
/// * Only when fewer than two heads are certified that way does the
///   exact search run — a reverse BFS from `d` dodging the walk, on
///   scratch reused across the whole call.
struct ForcedWalks {
    /// The destination `memo` and `chains` belong to; moving on to the
    /// next one clears both, which keeps scratch `O(nodes)`.
    dest: Option<NodeId>,
    /// Per first switch, toward `dest`.
    memo: Vec<Walk>,
    /// Arena for the forced channel chains toward `dest`.
    chains: Vec<ChannelId>,
    on_walk: Vec<bool>,
    /// `seen[v] == epoch` marks `v` reached by the current exact search.
    seen: Vec<u64>,
    epoch: u64,
    stack: Vec<NodeId>,
}

impl ForcedWalks {
    fn new(num_nodes: usize) -> Self {
        ForcedWalks {
            dest: None,
            memo: vec![Walk::Unwalked; num_nodes],
            chains: Vec::new(),
            on_walk: vec![false; num_nodes],
            seen: vec![0; num_nodes],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Add the dependency edges the pair `(s, d)` forces, if its walk is
    /// forced end to end. `dist` is `net.hops_to(d)`.
    fn collect(&mut self, net: &Network, dist: &[u32], s: NodeId, d: NodeId, forced: &mut EdgeSet) {
        let mut usable = net.out_channels(s).iter().copied().filter(|&c| {
            let head = net.channel(c).dst;
            dist[head.idx()] != u32::MAX && (head == d || net.is_switch(head))
        });
        let (Some(first), None) = (usable.next(), usable.next()) else {
            return; // a choice exists (or none) — nothing is forced
        };
        let entry = net.channel(first).dst;
        if entry == d {
            return; // a single hop has no dependencies
        }
        if self.dest != Some(d) {
            self.dest = Some(d);
            self.memo.fill(Walk::Unwalked);
            self.chains.clear();
        }
        if let Walk::Unwalked = self.memo[entry.idx()] {
            self.memo[entry.idx()] = self.walk_from(net, dist, entry, d);
        }
        if let Walk::Forced { start, len } = self.memo[entry.idx()] {
            let mut prev = first;
            for &c in &self.chains[start..start + len] {
                forced.insert(prev.0, c.0);
                prev = c;
            }
        }
    }

    /// Walk from the switch `entry` to `d` while every step is forced.
    fn walk_from(&mut self, net: &Network, dist: &[u32], entry: NodeId, d: NodeId) -> Walk {
        let start = self.chains.len();
        let mut cur = entry;
        let mut floor = dist[entry.idx()];
        self.on_walk[entry.idx()] = true;
        let progresses = |head: NodeId| head == d || net.is_switch(head);
        while cur != d {
            let on_walk = &self.on_walk;
            let near = |v: NodeId| !on_walk[v.idx()] && progresses(v) && dist[v.idx()] <= floor;
            let certified = net
                .out_channels(cur)
                .iter()
                .map(|&c| net.channel(c).dst)
                .filter(|&h| {
                    near(h)
                        || !on_walk[h.idx()]
                            && net.is_switch(h)
                            && net
                                .out_channels(h)
                                .iter()
                                .any(|&c| near(net.channel(c).dst))
                })
                .take(2)
                .count();
            if certified >= 2 {
                break;
            }
            self.reach_avoiding_walk(net, d);
            let mut usable = net.out_channels(cur).iter().copied().filter(|&c| {
                let head = net.channel(c).dst;
                self.seen[head.idx()] == self.epoch && progresses(head)
            });
            let (Some(c), None) = (usable.next(), usable.next()) else {
                break; // a choice exists (or none) — nothing is forced
            };
            self.chains.push(c);
            cur = net.channel(c).dst;
            self.on_walk[cur.idx()] = true;
            floor = floor.min(dist[cur.idx()]);
        }
        self.on_walk[entry.idx()] = false;
        for &c in &self.chains[start..] {
            self.on_walk[net.channel(c).dst.idx()] = false;
        }
        if cur == d {
            Walk::Forced {
                start,
                len: self.chains.len() - start,
            }
        } else {
            self.chains.truncate(start);
            Walk::Branches
        }
    }

    /// Stamp `seen` with the nodes that have a directed path to `d`
    /// transiting only switches and dodging the walk.
    fn reach_avoiding_walk(&mut self, net: &Network, d: NodeId) {
        #[cfg(test)]
        EXACT_SEARCHES.with(|n| n.set(n.get() + 1));
        self.epoch += 1;
        self.seen[d.idx()] = self.epoch;
        self.stack.push(d);
        while let Some(v) = self.stack.pop() {
            for &c in net.in_channels(v) {
                let u = net.channel(c).src;
                if self.seen[u.idx()] != self.epoch && !self.on_walk[u.idx()] {
                    self.seen[u.idx()] = self.epoch;
                    if net.is_switch(u) {
                        self.stack.push(u);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Exact avoiding searches run on this thread — the deterministic
    /// cost pin of the forced walks.
    static EXACT_SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Hop-distance rows derived on this thread — the cost pin of the
    /// one-way test.
    static HOP_ROWS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The up*/down* existence certificate: a BFS orientation of the
/// bidirected subgraph, self-checked for acyclicity of its allowed
/// dependency graph.
struct Certificate {
    /// One BFS root per bidirected switch component.
    roots: Vec<NodeId>,
    /// Switch component index, `usize::MAX` off the bidirected subgraph.
    comp: Vec<usize>,
    /// BFS depth within the component (switches only).
    depth: Vec<u32>,
    /// Whether the allowed-dependency acyclicity self-check passed; if
    /// not, the certificate covers nothing (conservative).
    valid: bool,
}

impl Certificate {
    fn build(net: &Network) -> Certificate {
        let n = net.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut depth = vec![u32::MAX; n];
        let mut roots = Vec::new();

        // Components and depths over bidirected switch-switch links.
        for &root in net.switches() {
            if comp[root.idx()] != usize::MAX {
                continue;
            }
            let cid = roots.len();
            roots.push(root);
            comp[root.idx()] = cid;
            depth[root.idx()] = 0;
            let mut queue = std::collections::VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                for &c in net.out_channels(u) {
                    let v = net.channel(c).dst;
                    if net.is_switch(v) && paired(net, c) && comp[v.idx()] == usize::MAX {
                        comp[v.idx()] = cid;
                        depth[v.idx()] = depth[u.idx()] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        // Terminals hang one level below their (unique-component) switch.
        // A terminal cabled into several components keeps MAX: `covers`
        // certifies its pairs only across a direct bidirected cable.
        for &t in net.terminals() {
            let mut attached: Option<(usize, u32)> = None;
            let mut multi = false;
            for &c in net.out_channels(t) {
                let v = net.channel(c).dst;
                if net.is_switch(v) && paired(net, c) && comp[v.idx()] != usize::MAX {
                    match attached {
                        None => attached = Some((comp[v.idx()], depth[v.idx()] + 1)),
                        Some((cid, ref mut dep)) if cid == comp[v.idx()] => {
                            *dep = (*dep).min(depth[v.idx()] + 1);
                        }
                        Some(_) => multi = true,
                    }
                }
            }
            if let (Some((cid, dep)), false) = (attached, multi) {
                comp[t.idx()] = cid;
                depth[t.idx()] = dep;
            }
        }

        let mut cert = Certificate {
            roots,
            comp,
            depth,
            valid: false,
        };
        cert.valid = cert.allowed_turns_climb(net);
        cert
    }

    /// (depth, id) order within a component; `None` when the node has
    /// no single home component.
    fn ord(&self, v: NodeId) -> Option<(u32, u32)> {
        (self.comp[v.idx()] != usize::MAX).then(|| (self.depth[v.idx()], v.0))
    }

    /// `true` when the channel ascends toward its component's root.
    fn is_up(&self, net: &Network, c: ChannelId) -> Option<bool> {
        let ch = net.channel(c);
        if self.comp[ch.src.idx()] != self.comp[ch.dst.idx()] {
            return None;
        }
        Some(self.ord(ch.dst)? < self.ord(ch.src)?)
    }

    /// Self-check: every dependency up*/down* permits — any chain except
    /// a down-channel feeding an up-channel — must climb the channel
    /// order of [`Self::rank`], or the orientation proves nothing. A
    /// strict order admits no cycle, so this is the acyclicity of the
    /// allowed graph, checked turn by turn in `O(Σ in · out)` without a
    /// search; a non-strict [`Self::ord`] would fail it.
    fn allowed_turns_climb(&self, net: &Network) -> bool {
        net.switches().iter().all(|&v| {
            net.in_channels(v).iter().all(|&a| {
                let Some(a_up) = self.is_up(net, a) else {
                    return true;
                };
                net.out_channels(v)
                    .iter()
                    .all(|&b| match self.is_up(net, b) {
                        Some(b_up) if a_up || !b_up => {
                            self.rank(net, a, a_up) < self.rank(net, b, b_up)
                        }
                        _ => true,
                    })
            })
        })
    }

    /// Where an oriented channel sits in the order every allowed turn
    /// climbs: up-channels first, by descending (depth, id) of their
    /// source, then down-channels by ascending — an up-turn leaves a
    /// nearer source, a down-turn a farther one.
    fn rank(&self, net: &Network, c: ChannelId, up: bool) -> (bool, u64) {
        let (depth, id) = self
            .ord(net.channel(c).src)
            .expect("oriented channels have a home");
        let key = u64::from(depth) << 32 | u64::from(id);
        (!up, if up { !key } else { key })
    }

    /// Does the certificate cover the ordered pair `(s, d)`? Yes when
    /// the self-check passed and either both live under one root (an
    /// up-then-down path connects them) or a bidirected link joins
    /// them directly (a single hop has no dependencies).
    fn covers(&self, net: &Network, s: NodeId, d: NodeId) -> bool {
        if !self.valid {
            return false;
        }
        if self.comp[s.idx()] != usize::MAX && self.comp[s.idx()] == self.comp[d.idx()] {
            return true;
        }
        net.channel_between(s, d).is_some_and(|c| paired(net, c))
    }
}

/// Does the reverse channel exist? Bidirected channels are the raw
/// material of the up*/down* certificate.
fn paired(net: &Network, c: ChannelId) -> bool {
    let ch = net.channel(c);
    net.channel_between(ch.dst, ch.src).is_some()
}

#[cfg(test)]
mod reference {
    use super::*;
    use telemetry::fx::FxHashSet;

    /// The per-pair procedure [`existence`] replaced, kept verbatim as its
    /// oracle: a fresh avoiding search at every step of every ordered
    /// pair's walk, `O(T² · diameter · E)`.
    pub(super) fn existence_reference(net: &Network) -> Existence {
        let terms = net.terminals();
        if terms.len() < 2 {
            // Nothing to route: the empty routing is vacuously deadlock-free.
            return Existence::Exists {
                roots: Vec::new(),
                pairs: 0,
            };
        }

        let cert = Certificate::build(net);
        let walk_forced = (terms.len() as u64)
            .pow(2)
            .saturating_mul(net.num_live_channels().max(1) as u64)
            <= FORCED_WALK_BUDGET;
        let mut forced: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut uncertified: Option<(NodeId, NodeId)> = None;
        let mut required_pairs = 0usize;

        for &d in terms {
            let reach = directed_reach_to(net, d);
            let cabled = undirected_reach_to(net, d);
            for &s in terms {
                if s == d || !cabled[s.idx()] {
                    continue;
                }
                required_pairs += 1;
                if !reach[s.idx()] {
                    return Existence::NotExists(ExistenceWitness::OneWayPair { src: s, dst: d });
                }
                if walk_forced {
                    collect_forced_edges(net, s, d, &mut forced);
                }
                if uncertified.is_none() && !cert.covers(net, s, d) {
                    uncertified = Some((s, d));
                }
            }
        }

        let mut cdg = EdgeSet::over(net.dep_slots().clone());
        forced.iter().for_each(|&(a, b)| cdg.insert(a, b));
        if let Some(channels) = cdg.find_cycle() {
            return Existence::NotExists(ExistenceWitness::ForcedCycle { channels });
        }
        if let Some((src, dst)) = uncertified {
            return Existence::Undecided { src, dst };
        }
        Existence::Exists {
            roots: cert.roots,
            pairs: required_pairs,
        }
    }

    /// The cycle search [`Certificate::allowed_turns_climb`] replaced,
    /// kept as its oracle: build the allowed dependency graph of `cert`'s
    /// orientation and look for a cycle.
    pub(super) fn allowed_graph_is_acyclic(cert: &Certificate, net: &Network) -> bool {
        let mut allowed = EdgeSet::over(net.dep_slots().clone());
        for &v in net.switches() {
            for &a in net.in_channels(v) {
                let Some(a_up) = cert.is_up(net, a) else {
                    continue;
                };
                for &b in net.out_channels(v) {
                    let Some(b_up) = cert.is_up(net, b) else {
                        continue;
                    };
                    if a_up || !b_up {
                        allowed.insert(a.0, b.0);
                    }
                }
            }
        }
        allowed.find_cycle().is_none()
    }

    /// Nodes with a directed path to `d` transiting only switches. `d`
    /// itself is marked; terminals may source such a path but never relay
    /// one, so the reverse BFS expands switch nodes only.
    fn directed_reach_to(net: &Network, d: NodeId) -> Vec<bool> {
        let mut reach = vec![false; net.num_nodes()];
        reach[d.idx()] = true;
        let mut queue = vec![d];
        while let Some(v) = queue.pop() {
            for &c in net.in_channels(v) {
                let u = net.channel(c).src;
                if !reach[u.idx()] {
                    reach[u.idx()] = true;
                    if net.is_switch(u) {
                        queue.push(u);
                    }
                }
            }
        }
        reach
    }

    /// Nodes sharing a cable path with `d` (channels taken in either
    /// direction), same switch-transit rule. Defines which pairs the
    /// fabric *intends* to connect — and therefore which pairs V007 must
    /// account for.
    fn undirected_reach_to(net: &Network, d: NodeId) -> Vec<bool> {
        let mut reach = vec![false; net.num_nodes()];
        reach[d.idx()] = true;
        let mut queue = vec![d];
        while let Some(v) = queue.pop() {
            let backwards = net.in_channels(v).iter().map(|&c| net.channel(c).src);
            let forwards = net.out_channels(v).iter().map(|&c| net.channel(c).dst);
            for u in backwards.chain(forwards) {
                if !reach[u.idx()] {
                    reach[u.idx()] = true;
                    if net.is_switch(u) {
                        queue.push(u);
                    }
                }
            }
        }
        reach
    }

    /// Walk from `s` toward `d` as long as exactly one out-channel makes
    /// progress — progress meaning its head still reaches `d` by a *simple*
    /// continuation (avoiding every node already on the walk; a head that
    /// can only reach `d` back through the walk offers no real choice). A
    /// fully forced walk pins its dependency edges into every routing that
    /// serves the pair; any genuine branching point ends the obligation and
    /// the pair contributes nothing.
    pub(super) fn collect_forced_edges(
        net: &Network,
        s: NodeId,
        d: NodeId,
        forced: &mut FxHashSet<(u32, u32)>,
    ) {
        let mut cur = s;
        let mut prev: Option<ChannelId> = None;
        let mut pending: Vec<(u32, u32)> = Vec::new();
        let mut visited = FxHashSet::default();
        visited.insert(s);
        while cur != d {
            let reach = directed_reach_avoiding(net, d, &visited);
            let mut usable = net.out_channels(cur).iter().copied().filter(|&c| {
                let head = net.channel(c).dst;
                reach[head.idx()] && (head == d || net.is_switch(head))
            });
            let (Some(c), None) = (usable.next(), usable.next()) else {
                return; // a choice exists (or none) — nothing is forced
            };
            let head = net.channel(c).dst;
            visited.insert(head);
            if let Some(p) = prev {
                pending.push((p.0, c.0));
            }
            prev = Some(c);
            cur = head;
        }
        forced.extend(pending);
    }

    /// [`directed_reach_to`] restricted to paths that dodge `avoid`
    /// (`d` itself is assumed not to be avoided).
    fn directed_reach_avoiding(net: &Network, d: NodeId, avoid: &FxHashSet<NodeId>) -> Vec<bool> {
        let mut reach = vec![false; net.num_nodes()];
        reach[d.idx()] = true;
        let mut queue = vec![d];
        while let Some(v) = queue.pop() {
            for &c in net.in_channels(v) {
                let u = net.channel(c).src;
                if !reach[u.idx()] && !avoid.contains(&u) {
                    reach[u.idx()] = true;
                    if net.is_switch(u) {
                        queue.push(u);
                    }
                }
            }
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::reference::existence_reference;
    use super::*;
    use fabric::{degrade, topo, NetworkBuilder};
    use telemetry::fx::FxHashSet;

    /// t0 - s0 - s1 - t1 with everything bidirected.
    fn healthy_line() -> Network {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(s0, s1).unwrap();
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        b.build()
    }

    #[test]
    fn healthy_line_is_certified() {
        let v = existence(&healthy_line());
        let Existence::Exists { roots, pairs } = v else {
            panic!("expected a certificate, got {v:?}");
        };
        assert_eq!(roots.len(), 1);
        assert_eq!(pairs, 2);
    }

    #[test]
    fn one_way_degradation_is_refuted() {
        // t0 - s0 = s1 - t1 where the s1 -> s0 direction is dead.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.add_channel(s0, s1).unwrap();
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        let net = b.build();
        let v = existence(&net);
        assert_eq!(
            v,
            Existence::NotExists(ExistenceWitness::OneWayPair { src: t1, dst: t0 })
        );
    }

    #[test]
    fn unidirectional_ring_forces_a_cycle() {
        // Switches cabled clockwise-only: every pair has exactly one
        // path, and the forced dependencies close the ring.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        for i in 0..4 {
            b.add_channel(s[i], s[(i + 1) % 4]).unwrap();
            b.link(t[i], s[i]).unwrap();
        }
        let net = b.build();
        let v = existence(&net);
        let Existence::NotExists(ExistenceWitness::ForcedCycle { channels }) = v else {
            panic!("expected a forced cycle, got {v:?}");
        };
        assert!(!channels.is_empty());
        // The witness chains head-to-tail and closes.
        for w in channels.windows(2) {
            assert_eq!(net.channel(w[0]).dst, net.channel(w[1]).src);
        }
        assert_eq!(
            net.channel(*channels.last().unwrap()).dst,
            net.channel(channels[0]).src
        );
    }

    #[test]
    fn bidirected_ring_is_certified_despite_cycles_in_the_graph() {
        // A healthy ring has cyclic channel dependencies available, but
        // up*/down* avoids them: existence holds.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        for i in 0..4 {
            b.link(s[i], s[(i + 1) % 4]).unwrap();
            b.link(t[i], s[i]).unwrap();
        }
        let v = existence(&b.build());
        assert!(matches!(v, Existence::Exists { pairs: 12, .. }), "{v:?}");
    }

    #[test]
    fn split_fabric_certifies_each_island() {
        // Two disconnected islands: pairs across are not required, each
        // island certifies on its own root.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        b.link(t[0], s0).unwrap();
        b.link(t[1], s0).unwrap();
        b.link(t[2], s1).unwrap();
        b.link(t[3], s1).unwrap();
        let v = existence(&b.build());
        let Existence::Exists { roots, pairs } = v else {
            panic!("expected per-island certificates, got {v:?}");
        };
        assert_eq!(roots.len(), 2);
        assert_eq!(pairs, 4, "two ordered pairs per island");
    }

    #[test]
    fn directed_only_detour_is_undecided() {
        // s0 and s1 joined by one-way rings through two relay switches:
        // both directions are reachable (no one-way pair) and the
        // forced dependencies do not close a cycle, but the bidirected
        // certificate cannot order the relay channels — Undecided.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let ra = b.add_switch("ra", 4);
        let rb = b.add_switch("rb", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        b.add_channel(s0, ra).unwrap();
        b.add_channel(ra, s1).unwrap();
        b.add_channel(s1, rb).unwrap();
        b.add_channel(rb, s0).unwrap();
        let v = existence(&b.build());
        assert!(matches!(v, Existence::Undecided { .. }), "{v:?}");
    }

    #[test]
    fn single_terminal_is_vacuously_deadlock_free() {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let t0 = b.add_terminal("t0");
        b.link(t0, s0).unwrap();
        assert!(matches!(
            existence(&b.build()),
            Existence::Exists { pairs: 0, .. }
        ));
    }

    /// Acceptance: V007 stays silent (certifies) on every healthy example
    /// topology. The one honest exception is the directed Kautz graph,
    /// whose antiparallel detours the forced-walk cannot certify or
    /// refute — it must land on `Undecided`, never `NotExists`.
    #[test]
    fn example_topologies_stay_silent() {
        use fabric::topo;
        let healthy: Vec<(&str, Network)> = vec![
            ("ring", topo::ring(8, 1)),
            ("star", topo::star(6)),
            ("fully-connected", topo::fully_connected(5, 1)),
            ("mesh", topo::mesh(&[3, 3], 1)),
            ("torus", topo::torus(&[4, 4], 1)),
            ("hypercube", topo::hypercube(3, 1)),
            ("kary-ntree", topo::kary_ntree(2, 3)),
            ("xgft", topo::xgft(2, &[4, 4], &[1, 2])),
            ("dragonfly", topo::dragonfly(4, 2, 2)),
            ("kautz-bidirected", topo::kautz(2, 3, 24, true)),
            (
                "random",
                topo::random_topology(
                    &topo::RandomTopoSpec {
                        switches: 8,
                        radix: 8,
                        terminals_per_switch: 2,
                        interswitch_links: 12,
                    },
                    42,
                ),
            ),
        ];
        for (name, net) in &healthy {
            let v = existence(net);
            assert!(
                matches!(v, Existence::Exists { .. }),
                "{name}: expected a certificate, got {v:?}"
            );
        }
        let v = existence(&topo::kautz(2, 3, 24, false));
        assert!(
            matches!(v, Existence::Undecided { .. }),
            "directed kautz: expected undecided, got {v:?}"
        );
    }

    /// Exact avoiding searches `existence(net)` runs on this thread.
    fn exact_searches(net: &Network) -> usize {
        let before = EXACT_SEARCHES.with(|n| n.get());
        existence(net);
        EXACT_SEARCHES.with(|n| n.get()) - before
    }

    /// Full verdict equality, and — because a verdict only shows the
    /// forced edges once they close a cycle — the same forced edge set
    /// for every servable ordered pair.
    fn assert_matches_reference(what: &str, net: &Network) {
        assert_eq!(existence(net), existence_reference(net), "{what}");
        let mut walks = ForcedWalks::new(net.num_nodes());
        for &d in net.terminals() {
            let dist = net.hops_to(d);
            for &s in net.terminals() {
                if s == d || dist[s.idx()] == u32::MAX {
                    continue;
                }
                let new = forced_edges(&mut walks, net, &dist, s, d);
                let mut old = FxHashSet::default();
                reference::collect_forced_edges(net, s, d, &mut old);
                assert_eq!(new, old, "{what}: forced edges of {s:?} -> {d:?}");
            }
        }
    }

    /// What one pair's forced walk collects, as a plain set.
    fn forced_edges(
        walks: &mut ForcedWalks,
        net: &Network,
        dist: &[u32],
        s: NodeId,
        d: NodeId,
    ) -> FxHashSet<(u32, u32)> {
        let mut forced = EdgeSet::over(net.dep_slots().clone());
        walks.collect(net, dist, s, d, &mut forced);
        forced.iter().collect()
    }

    fn without(net: &Network, dead: &[ChannelId]) -> Network {
        degrade::remove(net, &FxHashSet::default(), &dead.iter().copied().collect())
    }

    /// Switches cabled clockwise only, two terminals each, optionally
    /// with one bidirected chord across: the fabrics whose forced walks
    /// are long and close cycles.
    fn one_way_ring(n: usize, chord: bool) -> Network {
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..n).map(|i| b.add_switch(format!("s{i}"), 6)).collect();
        for i in 0..n {
            b.add_channel(s[i], s[(i + 1) % n]).unwrap();
            for k in 0..2 {
                let t = b.add_terminal(format!("t{i}{k}"));
                b.link(t, s[i]).unwrap();
            }
        }
        if chord {
            b.link(s[0], s[n / 2]).unwrap();
        }
        b.build()
    }

    /// `t0 - t1 - s0 - s1 - t2` plus `t3` on `s1`: a terminal-to-terminal
    /// cable makes `(t0, t1)` a required pair and nothing beyond it.
    fn terminal_cable() -> Network {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        b.link(t[0], t[1]).unwrap();
        b.link(t[1], s0).unwrap();
        b.link(s0, s1).unwrap();
        b.link(t[2], s1).unwrap();
        b.link(t[3], s1).unwrap();
        b.build()
    }

    /// The fabrics the oracles sweep, each with the stride of its
    /// degraded variants ([`each_variant`]).
    fn zoo() -> Vec<(&'static str, Network, usize)> {
        let random = |seed| {
            let spec = topo::RandomTopoSpec {
                switches: 8,
                radix: 8,
                terminals_per_switch: 2,
                interswitch_links: 12,
            };
            topo::random_topology(&spec, seed)
        };
        vec![
            ("ring", topo::ring(6, 2), 1),
            ("mesh", topo::mesh(&[3, 3], 1), 1),
            ("torus", topo::torus(&[4, 4], 1), 1),
            ("torus-8x8x2", topo::torus(&[8, 8], 2), 400),
            ("hypercube", topo::hypercube(3, 2), 1),
            ("kary-ntree", topo::kary_ntree(2, 3), 1),
            ("xgft", topo::xgft(2, &[4, 4], &[1, 2]), 1),
            ("dragonfly", topo::dragonfly(2, 2, 1), 1),
            ("kautz-bidirected", topo::kautz(2, 2, 12, true), 1),
            ("kautz-directed", topo::kautz(2, 2, 12, false), 1),
            ("terminal-cable", terminal_cable(), 1),
            ("one-way-ring", one_way_ring(5, false), 1),
            ("one-way-ring-chord", one_way_ring(6, true), 1),
            ("random-42", random(42), 1),
            ("random-43", random(43), 1),
        ]
    }

    /// `net` pristine, with every `stride`-th directed channel removed (a
    /// half-dead link), every `stride`-th cable removed, and under seeded
    /// three-channel kills.
    fn each_variant(
        name: &str,
        net: &Network,
        stride: usize,
        mut check: impl FnMut(&str, &Network),
    ) {
        check(name, net);
        let channels: Vec<ChannelId> = net.channels().map(|(c, _)| c).collect();
        for &c in channels.iter().step_by(stride) {
            check(&format!("{name} minus {c:?}"), &without(net, &[c]));
        }
        let cables = net.channels().filter_map(|(c, ch)| Some((c, ch.rev?)));
        for (c, rev) in cables.filter(|(c, rev)| c < rev).step_by(stride) {
            check(
                &format!("{name} minus cable {c:?}/{rev:?}"),
                &without(net, &[c, rev]),
            );
        }
        // Seeded kills (duplicates just kill fewer).
        let mut stream = fabric::rng::SplitMix64(0x9e37_79b9_7f4a_7c15);
        let mut draw = || channels[(stream.next_u64() % channels.len() as u64) as usize];
        for _ in 0..(24 / stride).max(2) {
            let dead = [draw(), draw(), draw()];
            check(&format!("{name} minus {dead:?}"), &without(net, &dead));
        }
    }

    /// Oracle: the memoised, distance-certified walker returns the very
    /// `Existence` value (roots, pair counts, witness channels) of the
    /// per-pair reference on every zoo fabric and its degraded variants.
    #[test]
    fn matches_the_per_pair_reference_across_the_zoo() {
        for (name, net, stride) in &zoo() {
            each_variant(name, net, *stride, assert_matches_reference);
        }
    }

    /// Oracle: the up*/down* self-check read as a channel order agrees
    /// with the cycle search it replaced, on every zoo fabric and its
    /// degraded variants.
    #[test]
    fn the_ordered_self_check_is_the_cycle_search() {
        for (name, net, stride) in &zoo() {
            each_variant(name, net, *stride, |what, net| {
                let cert = Certificate::build(net);
                assert_eq!(
                    cert.valid,
                    reference::allowed_graph_is_acyclic(&cert, net),
                    "{what}"
                );
            });
        }
    }

    /// Hop-distance rows `existence(net)` derives on this thread.
    fn hop_rows(net: &Network) -> usize {
        let before = HOP_ROWS.with(|n| n.get());
        existence(net);
        HOP_ROWS.with(|n| n.get()) - before
    }

    /// Whether `existence(net)` runs no forced walk.
    fn past_the_budget(net: &Network) -> bool {
        (net.num_terminals() as u64).pow(2) * net.num_live_channels() as u64 > FORCED_WALK_BUDGET
    }

    /// The benchmark's 512-terminal irregular fabric.
    fn irregular(seed: u64) -> Network {
        let spec = topo::RandomTopoSpec {
            switches: 64,
            radix: 24,
            terminals_per_switch: 8,
            interswitch_links: 160,
        };
        topo::random_topology(&spec, seed)
    }

    /// Oracle past the forced-walk budget, where no walk runs and the
    /// one-way test reads the cabling instead of hop rows: the same
    /// `Existence` as the reference on the benchmark's fat tree and
    /// irregular fabrics, a wide XGFT and a directed Kautz graph (left
    /// undecided), pristine and under seeded single-channel and
    /// whole-cable kills. The fat tree reads no row.
    #[test]
    fn matches_the_reference_past_the_walk_budget() {
        let fabrics = [
            ("kary-16-2", topo::kary_ntree(16, 2)),
            ("irregular-7", irregular(7)),
            ("irregular-8", irregular(8)),
            ("xgft-16x16", topo::xgft(2, &[16, 16], &[1, 16])),
            ("kautz-directed-320", topo::kautz(2, 3, 320, false)),
        ];
        for (name, net) in &fabrics {
            assert!(past_the_budget(net), "{name}");
            assert_eq!(existence(net), existence_reference(net), "{name}");
            let mut stream = fabric::rng::SplitMix64(0x5eed_7007);
            for _ in 0..3 {
                let c = ChannelId((stream.next_u64() % net.num_channels() as u64) as u32);
                let rev = net.channel(c).rev.unwrap_or(c);
                for dead in [vec![c], vec![c, rev]] {
                    let net = without(net, &dead);
                    let what = format!("{name} minus {dead:?}");
                    assert_eq!(existence(&net), existence_reference(&net), "{what}");
                }
            }
        }
        assert_eq!(hop_rows(&topo::kary_ntree(16, 2)), 0);
    }

    /// Past the budget, each condition of the row-free one-way test
    /// broken on its own: a leaf that cannot climb (its island is not
    /// strongly connected), a terminal that cannot send, and a cable
    /// between two terminals. Each is refused (rows are read) and the
    /// verdict is the reference's.
    #[test]
    fn each_refusal_of_the_row_free_test_matches_the_reference() {
        let fat = topo::kary_ntree(16, 2);
        let send = fat.out_channels(fat.terminals()[0])[0];
        let leaf = fat.channel(send).dst;
        let climbs = fat.out_channels(leaf).iter().copied();
        let climbs: Vec<ChannelId> = climbs
            .filter(|&c| fat.is_switch(fat.channel(c).dst))
            .collect();
        let mut b = NetworkBuilder::new();
        let hub = b.add_switch("hub", 320);
        let ts: Vec<_> = (0..320).map(|i| b.add_terminal(format!("t{i}"))).collect();
        for &t in &ts {
            b.link(t, hub).unwrap();
        }
        b.link(ts[0], ts[1]).unwrap();
        let cases = [
            ("leaf without up-channels", without(&fat, &climbs)),
            ("terminal that cannot send", without(&fat, &[send])),
            ("star with a terminal cable", b.build()),
        ];
        for (what, net) in &cases {
            assert!(past_the_budget(net), "{what}");
            assert!(hop_rows(net) > 0, "{what}: the row-free test must refuse");
            assert_eq!(existence(net), existence_reference(net), "{what}");
        }
    }

    /// Pin (memo replay): on a clockwise-only ring every walk is forced
    /// for up to four hops, and two terminals share each first switch.
    /// The walk runs once per (first switch, destination) — 10
    /// destinations x (1 + 2 + 3 + 4 + 5) switch steps — and is replayed
    /// for the second terminal, with the witness the reference finds.
    #[test]
    fn shared_forced_walk_is_walked_once_and_replayed() {
        let net = one_way_ring(5, false);
        assert_matches_reference("one-way ring, two terminals a switch", &net);
        assert!(matches!(
            existence(&net),
            Existence::NotExists(ExistenceWitness::ForcedCycle { .. })
        ));
        assert_eq!(exact_searches(&net), 10 * 15);
    }

    /// Pin (the distance shortcut must not count what the walk blocks):
    /// `t0 - s0 -> s1 - s2 - t2` with a one-way detour `s1 -> y -> s0`.
    /// At `s1` the head `y` has a finite distance to `t2` — but only back
    /// through `s0`, which the walk already holds — so the step is still
    /// forced and only the exact search can tell. Walks descend strictly
    /// in distance, so an on-walk head is never *nearer* than the walk's
    /// floor; the nearest constructible cases are this detour and the
    /// plain backward head (`s0` seen from `s1` on a bidirected line).
    #[test]
    fn head_that_only_returns_through_the_walk_is_no_choice() {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let s2 = b.add_switch("s2", 4);
        let y = b.add_switch("y", 4);
        let t0 = b.add_terminal("t0");
        let t2 = b.add_terminal("t2");
        b.link(t0, s0).unwrap();
        let c01 = b.add_channel(s0, s1).unwrap();
        let (c12, _) = b.link(s1, s2).unwrap();
        let (_, c2t) = b.link(t2, s2).unwrap();
        b.add_channel(s1, y).unwrap();
        b.add_channel(y, s0).unwrap();
        let net = b.build();
        assert_matches_reference("detour back through the walk", &net);

        let dist = net.hops_to(t2);
        let mut walks = ForcedWalks::new(net.num_nodes());
        let forced = forced_edges(&mut walks, &net, &dist, t0, t2);
        let c0 = net.channel_between(t0, s0).unwrap();
        let expect: FxHashSet<(u32, u32)> = [(c0.0, c01.0), (c01.0, c12.0), (c12.0, c2t.0)]
            .into_iter()
            .collect();
        assert_eq!(forced, expect, "the whole walk is forced");

        // The same with the line bidirected: `s0` is a head of `s1`, on
        // the walk, reachable in the full graph — and never counted.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..3).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        let t0 = b.add_terminal("t0");
        let t2 = b.add_terminal("t2");
        b.link(t0, s[0]).unwrap();
        b.link(s[0], s[1]).unwrap();
        b.link(s[1], s[2]).unwrap();
        b.link(t2, s[2]).unwrap();
        let net = b.build();
        assert_matches_reference("bidirected line", &net);
        let mut walks = ForcedWalks::new(net.num_nodes());
        let forced = forced_edges(&mut walks, &net, &net.hops_to(t2), t0, t2);
        assert_eq!(forced.len(), 3, "t0 -> t2 is forced end to end");
    }

    /// Pin (multi-homed source): `t0` is cabled to `s0` and to `s1`.
    /// While `s1` leads nowhere the source step is forced through `s0`;
    /// once `s1` also reaches `s2` the source itself has a choice and
    /// the pair pins nothing.
    #[test]
    fn multi_homed_source_reads_its_heads_off_the_distances() {
        let build = |second_uplink: bool| {
            let mut b = NetworkBuilder::new();
            let s0 = b.add_switch("s0", 4);
            let s1 = b.add_switch("s1", 4);
            let s2 = b.add_switch("s2", 4);
            let t0 = b.add_terminal("t0");
            let t1 = b.add_terminal("t1");
            b.link(t0, s0).unwrap();
            b.link(t0, s1).unwrap();
            b.link(s0, s2).unwrap();
            b.link(t1, s2).unwrap();
            if second_uplink {
                b.link(s1, s2).unwrap();
            }
            (b.build(), t0, t1)
        };
        for second_uplink in [false, true] {
            let (net, t0, t1) = build(second_uplink);
            assert_matches_reference("multi-homed source", &net);
            let mut walks = ForcedWalks::new(net.num_nodes());
            let forced = forced_edges(&mut walks, &net, &net.hops_to(t1), t0, t1);
            assert_eq!(forced.is_empty(), second_uplink);
        }
    }

    /// Deterministic cost pin: on the pristine benchmark torus the exact
    /// search runs at most once per destination (the per-pair procedure
    /// ran two per pair; the one-hop certificate alone left 1 664 for
    /// 128 destinations). A count, so an edit that falls back to a
    /// search per pair fails here instead of in a noisy timing.
    #[test]
    fn exact_searches_stay_rare_on_the_benchmark_torus() {
        let net = topo::torus(&[8, 8], 2);
        let searches = exact_searches(&net);
        assert!(
            searches <= net.num_terminals(),
            "{searches} exact searches for {} destinations",
            net.num_terminals()
        );
    }
}
