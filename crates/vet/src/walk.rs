//! Destination-based table walk.
//!
//! For each destination terminal the forwarding tables induce a next-hop
//! function over nodes. One pass over a destination's column classifies
//! every node as reaching the destination or not — O(V) work per
//! destination instead of the O(pairs · hops) of walking every
//! source/destination pair separately — and only the sources that fail
//! are walked again to report why. Dependency-graph edges are also
//! collected here, marked per (node, layer) so shared path suffixes are
//! traversed once.
//!
//! The walk's product is a value, [`TableWalk`]: one pass over an
//! artifact answers every question later checks ask of it (pair
//! statistics, per-layer dependency edges, which destinations are
//! broken, the findings), so a caller that needs several answers walks
//! once and reads them all.
//!
//! A walk keeps each column's share of what it learned in a form it can
//! subtract: how many unbroken columns depend on each dependency slot,
//! and each clean column's tally. A later artifact on a changed view is
//! then walked from it ([`crate::rewalk_tables`]): the columns that
//! differ are walked out of the counts on the old network and into them
//! on the new one, and every other column is carried over.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use fabric::{ChannelId, DepSlots, HopTable, Network, NodeId, Routes};

use crate::diag::{Diagnostic, Emitter, LintCode, Severity, Witness};
use crate::{Config, EdgeSet};

const UNVISITED: u8 = 0;
const ON_STACK: u8 = 1;
const BROKEN: u8 = 3;

/// Everything one destination-colored walk of an artifact learned (see
/// [`crate::walk_tables`]). The pair counters mean what the fields of
/// the same name in [`crate::Stats`] mean.
#[derive(Default)]
pub struct TableWalk {
    /// Virtual layers the artifact declares (`Routes::num_layers`).
    pub num_layers: u8,
    pub pairs: usize,
    pub pairs_routed: usize,
    pub pairs_broken: usize,
    pub pairs_unreachable: usize,
    pub max_hops: u32,
    /// Routed paths per virtual layer.
    pub paths_per_layer: Vec<usize>,
    /// Per-layer dependency edges between channel ids. Pairs that do not
    /// walk cleanly contribute none; empty (no layers at all) when the
    /// artifact is sized for a different network.
    pub edges: Vec<EdgeSet>,
    /// Sample of failed terminal pairs (see [`crate::Stats::broken_pairs`]).
    pub broken_pairs: Vec<(NodeId, NodeId)>,
    /// Per destination terminal index: whether some terminal's walk
    /// toward it failed (loop, missing entry, unusable next hop).
    pub broken: Vec<bool>,
    /// The part of `edges` the destinations that are not `broken`
    /// contributed, per layer. The walk starts over at every
    /// destination, so this and `unbroken_errors` are what the walk of an
    /// artifact keeps of this one when only the broken destinations'
    /// columns differ.
    pub unbroken_edges: Vec<EdgeSet>,
    /// Error-severity findings toward destinations that are not `broken`
    /// (V003 entries of the switch pass, V005 layers out of range).
    pub unbroken_errors: usize,
    /// `None` for a walk of every column; `Some((out, in))` for a walk
    /// made from a base ([`crate::rewalk_tables`]) that walked `out`
    /// columns out of the base on its network and `in` into this walk.
    pub rewalked: Option<(usize, usize)>,
    /// The walk's findings (V001–V003, V005 per-pair, V006).
    pub(crate) em: Emitter,
    /// Whether V006 was checked: the one setting a clean column's
    /// verdict depends on.
    check_minimal: bool,
    /// How many unbroken columns depend on each edge of `unbroken_edges`,
    /// per layer and slot. A column's walk adds each edge at most once, so
    /// its share subtracts exactly. A re-walk counts as it goes and keeps
    /// its tally as it is; a walk of every column only adds edges, and
    /// is counted on its first use as a base ([`Self::counts`]).
    counts: OnceLock<Tally>,
    /// Per destination terminal index: what a later walk can carry of it.
    cols: Vec<Col>,
    /// Per destination terminal index and layer (`dst_t * layers +
    /// layer`): the column's routed paths on the layer.
    col_paths: Vec<u32>,
    /// Per layer: `Some(channels)` when every cycle of the layer's edges
    /// runs through one of them (the heads of the dependencies the walk
    /// gained: those its base, searched acyclic there, does not hold),
    /// `None` to search from every channel.
    pub(crate) heads: Vec<Option<Vec<u32>>>,
    /// [`Self::cyclic_layers`], searched on first use.
    cyclic: OnceLock<Vec<(u8, Vec<ChannelId>)>>,
    /// This walk, among every walk of the process: what a walk carried
    /// from it records.
    id: u64,
    /// The [`Self::id`] of the base this walk carried its clean columns
    /// from ([`crate::rewalk_tables`]), if it carried any.
    pub(crate) carried_from: Option<u64>,
}

/// What a walk knows of one destination column.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Col {
    /// Not in the counts: broken, or outside the walk's scope.
    Uncounted,
    /// In the counts, with findings: walked again by every re-walk.
    Counted,
    /// In the counts, no findings, every source routed; its longest path.
    Clean(u32),
}

impl TableWalk {
    /// A walk of nothing yet, sized for `routes`' layers under `cfg`.
    pub(crate) fn empty(routes: &Routes, cfg: &Config) -> TableWalk {
        static WALKS: AtomicU64 = AtomicU64::new(1);
        TableWalk {
            id: WALKS.fetch_add(1, Relaxed),
            num_layers: routes.num_layers(),
            em: Emitter::new(cfg.max_diagnostics_per_code),
            check_minimal: cfg.check_minimal,
            heads: vec![None; routes.num_layers() as usize],
            ..TableWalk::default()
        }
    }

    /// Retained findings of the walk, in emission order (capped per code
    /// by [`Config::max_diagnostics_per_code`]).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.em.diagnostics
    }

    /// Error-severity findings of the walk, suppressed ones included.
    pub fn num_errors(&self) -> usize {
        self.em.severity_counts[Severity::Error.index()]
    }

    /// Each layer whose dependency edges close a cycle, with a witness
    /// (the V004 search, run on first use and kept). A re-walk from a
    /// base whose layer was searched acyclic searches only from the heads
    /// of the dependencies it gained; the witness is still the full
    /// search's.
    pub fn cyclic_layers(&self) -> &[(u8, Vec<ChannelId>)] {
        self.cyclic.get_or_init(|| {
            let layers = self.edges.iter().zip(&self.heads).enumerate();
            let cycles = layers.filter_map(|(layer, (set, heads))| {
                let cycle = match heads {
                    Some(heads) => set.find_cycle_from(heads),
                    None => set.find_cycle(),
                };
                cycle.map(|c| (layer as u8, c))
            });
            cycles.collect()
        })
    }

    /// How [`Self::cyclic_layers`] will search: `None` once it has,
    /// `Some(true)` when some layer is searched only from gained heads.
    pub fn pending_search(&self) -> Option<bool> {
        let gained = self.heads.iter().any(Option::is_some);
        self.cyclic.get().is_none().then_some(gained)
    }
}

/// The current destination's `hops_to` row on first use, derived from a
/// [`HopTable`] the walk builds on its first use: hop distances are a
/// large share of a walk, and a clean artifact walked without
/// `check_minimal` never reads them.
struct LazyHops<'a> {
    net: &'a Network,
    table: Option<HopTable<'a>>,
    dst: NodeId,
    /// `dst`'s row, empty until derived; the allocation is reused.
    row: Vec<u32>,
}

impl LazyHops<'_> {
    fn get(&mut self) -> &[u32] {
        if self.row.is_empty() {
            #[cfg(test)]
            HOP_SEARCHES.with(|n| n.set(n.get() + 1));
            let table = self.table.get_or_insert_with(|| HopTable::of(self.net));
            table.row_into(self.dst, &mut self.row);
        }
        &self.row
    }
}

#[cfg(test)]
thread_local! {
    /// Destination rows of hop distances derived on this thread — the
    /// pin that a clean walk without `check_minimal` reads none.
    pub(crate) static HOP_SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// An artifact already walked: its network, its tables and their walk.
pub type Base<'a> = (&'a Network, &'a Routes, &'a TableWalk);

/// Walk `routes`' tables on `net`, one destination column at a time.
/// With `scope = Some(dests)` only the listed destination terminal
/// indices are walked (each still against every source), so
/// re-verifying an incrementally patched artifact costs O(scope · V)
/// instead of O(T · V); out-of-range indices are ignored. `None` walks
/// everything.
///
/// From a `base` (unscoped), the columns [`carry`] finds unchanged are
/// carried over and only the others are walked; the result is the walk
/// of every column.
///
/// A column is classified first and reported second. [`settle`] gives
/// every switch its table distance to the destination or marks it
/// failing, emitting nothing. A terminal whose first hop is usable and
/// lands on a settled node is then a routed pair, read off inline; every
/// other source fails, and [`walk_one`] reports it against a state only
/// failing nodes enter. A failing walk never touches a settled node, so
/// it meets exactly the states it met when every source was walked in
/// turn: each finding keeps its order, severity and witness. Leftover
/// failing switches are reported the same way.
///
/// Tables sized for a different network cannot be indexed safely, and
/// tables that program a node the network drops (a switch that died
/// since) route through hardware that is gone: either is one V003 and an
/// otherwise empty walk.
pub(crate) fn walk(
    net: &Network,
    routes: &Routes,
    cfg: &Config,
    scope: Option<&[usize]>,
    base: Option<Base>,
) -> TableWalk {
    let nl = routes.num_layers() as usize;
    let mut res = TableWalk::empty(routes, cfg);
    if !crate::shape_matches(net, routes) {
        res.em.emit(
            LintCode::InvalidNextHop,
            Severity::Error,
            format!(
                "tables sized for {} node(s) / {} terminal(s), network has {} ({} live) / {} — \
                 artifact does not match this network",
                routes.num_nodes(),
                routes.num_terminals(),
                net.num_nodes(),
                net.num_switches() + net.num_terminals(),
                net.num_terminals()
            ),
            Witness::Shape {
                table_nodes: routes.num_nodes(),
                net_nodes: net.num_nodes(),
                table_terminals: routes.num_terminals(),
                net_terminals: net.num_terminals(),
            },
        );
        return res;
    }
    let nt = net.num_terminals();
    let slots = net.dep_slots().clone();
    res.cols = vec![Col::Uncounted; nt];
    res.col_paths = vec![0; nt * nl];
    res.broken = vec![false; nt];
    let (mut counter, dests) = match (base.and_then(|b| carry(b, net, routes, &mut res)), scope) {
        (Some(carried), _) => carried,
        (None, None) => (Counter::over(&slots, nl), (0..nt).collect()),
        (None, Some(dests)) => {
            let dests = dests.iter().copied().filter(|&d| d < nt).collect();
            (Counter::over(&slots, nl), dests)
        }
    };
    if let Some((_, walked_in)) = &mut res.rewalked {
        *walked_in = dests.len();
    }
    let mut edges = vec![EdgeSet::over(slots.clone()); nl];
    walk_in(net, routes, cfg, &dests, &mut counter, &mut res, &mut edges);
    for (all, unbroken) in edges.iter_mut().zip(&counter.sets) {
        all.absorb(unbroken);
    }
    // Every cycle the base's acyclic layer did not have runs through a
    // dependency the base did not hold.
    let held = base.map_or(&[][..], |(_, _, prev)| &prev.edges[..]);
    for ((heads, all), held) in res.heads.iter_mut().zip(&edges).zip(held) {
        if let Some(heads) = heads {
            heads.extend(all.slots_not_in(held).map(|s| slots.ends(s).1));
            heads.sort_unstable();
            heads.dedup();
        }
    }
    res.edges = edges;
    if counter.counting() {
        res.counts = OnceLock::from(counter.tally);
    }
    res.unbroken_edges = counter.sets;
    res.paths_per_layer = vec![0; nl];
    for column in res.col_paths.chunks(nl.max(1)) {
        for (total, &n) in res.paths_per_layer.iter_mut().zip(column) {
            *total += n as usize;
        }
    }
    res
}

impl TableWalk {
    /// The `counts` field, made on first use by a pass
    /// over the dependencies of every counted column of `routes` on
    /// `net`, the artifact this is the walk of.
    pub(crate) fn counts(&self, net: &Network, routes: &Routes) -> &Tally {
        self.counts.get_or_init(|| {
            let nl = self.num_layers as usize;
            let slots = self.edges[0].slots();
            let ns = slots.num_slots();
            let mut tally = Tally::zeros(nl * ns);
            let mut mask = vec![0u64; net.num_nodes() * nl.div_ceil(64)];
            let ends = ends_of(net);
            for d in (0..self.cols.len()).filter(|&d| self.cols[d] != Col::Uncounted) {
                let ((next, layers), dst) = (routes.column(d), net.terminals()[d]);
                let firsts = sources(net, next, layers, dst, nl);
                chain(&ends, next, dst, firsts, &mut mask, nl, |layer, c1, c2| {
                    tally.up(layer * ns + slots.slot(c1, c2));
                });
            }
            tally
        })
    }
}

/// How many columns depend on each dependency slot of a network, per
/// layer and slot (`layer * slots + slot`): a byte each, the few counts
/// past [`MANY`] kept aside, since a dense array of them is what a
/// re-walk holds while it works, and what it keeps for the next one.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Tally {
    counts: Vec<u8>,
    /// The counts of the slots whose byte reads [`MANY`].
    many: telemetry::fx::FxHashMap<usize, u32>,
}

/// A count byte that says "look in `many`".
const MANY: u8 = u8::MAX;

impl Tally {
    /// `len` counts of zero.
    fn zeros(len: usize) -> Tally {
        Tally {
            counts: vec![0; len],
            many: Default::default(),
        }
    }

    /// The count at `at`.
    fn get(&self, at: usize) -> u32 {
        match self.counts[at] {
            MANY => self.many[&at],
            n => u32::from(n),
        }
    }

    /// One more at `at`; whether it was zero.
    #[inline(always)]
    fn up(&mut self, at: usize) -> bool {
        match self.counts[at] {
            0 => {
                self.counts[at] = 1;
                return true;
            }
            MANY => *self.many.get_mut(&at).expect("kept aside") += 1,
            n if n == MANY - 1 => {
                self.counts[at] = MANY;
                self.many.insert(at, u32::from(MANY));
            }
            n => self.counts[at] = n + 1,
        }
        false
    }

    /// One fewer at `at`; whether it is zero now.
    fn down(&mut self, at: usize) -> bool {
        let n = self.get(at) - 1;
        if self.counts[at] == MANY {
            self.many.remove(&at);
        }
        self.counts[at] = u8::try_from(n).unwrap_or(MANY);
        if self.counts[at] == MANY {
            self.many.insert(at, n);
        }
        n == 0
    }
}

/// The dependencies of a walk in the making: each layer's edge set and,
/// when the walk counts, its [`Tally`].
struct Counter {
    slots: Arc<DepSlots>,
    /// Empty when the walk does not count.
    tally: Tally,
    sets: Vec<EdgeSet>,
}

impl Counter {
    /// Empty sets over `slots` on `layers` layers, not counting.
    fn over(slots: &Arc<DepSlots>, layers: usize) -> Counter {
        Counter {
            slots: slots.clone(),
            tally: Tally::zeros(0),
            sets: vec![EdgeSet::over(slots.clone()); layers],
        }
    }

    /// Whether the walk counts.
    fn counting(&self) -> bool {
        !self.tally.counts.is_empty()
    }

    /// One more on `slot` of `layer`.
    #[inline(always)]
    fn up(&mut self, layer: usize, slot: usize) {
        if self.tally.up(layer * self.slots.num_slots() + slot) {
            self.sets[layer].insert_slot(slot);
        }
    }

    /// One fewer on `slot` of `layer`.
    fn down(&mut self, layer: usize, slot: usize) {
        if self.tally.down(layer * self.slots.num_slots() + slot) {
            self.sets[layer].remove_slot(slot);
        }
    }
}

/// Start `res` — sized for `routes` on `net` — from `base`: compare
/// every column of `routes` with the base's (the views of one fabric
/// share node and channel ids and dependency slots, so a column that did
/// not change is the same bytes); clone the base's counts onto the same
/// slots; walk the columns that differ out of them, on the base's
/// network; and carry every other column's tally. Returns the counter
/// and the columns left to walk, or `None` — nothing carried, the walk
/// starts from nothing — when the base cannot be read on `net` or so
/// many columns differ that walking them all is cheaper: more than half,
/// or a quarter when the base has yet to be counted.
///
/// A column is carried only if the base walked it clean (routed from
/// every source, no finding), the two rosters, slots and layer counts
/// agree, its layers and entries are equal but for the rows of nodes
/// `net` drops, and no entry takes a channel `net` killed (O(removed)
/// per column): then every source follows the same path on the new view
/// as on the old one (a path into a dropped node took a channel that is
/// gone), so its walk finds nothing and adds the same dependencies. With
/// V006 on, one more thing can change: a distance to the destination can
/// shrink. It cannot unless some added channel `a → b` has `hop(a) >
/// hop(b) + 1` on the old view (removals only lengthen), so such a
/// column is walked.
fn carry(
    (old_net, old, prev): Base,
    net: &Network,
    routes: &Routes,
    res: &mut TableWalk,
) -> Option<(Counter, Vec<usize>)> {
    let (nt, nl) = (net.num_terminals(), res.num_layers as usize);
    let slots = net.dep_slots().clone();
    // Node `n` and terminal `t` are the old ones of their ids, and no node
    // comes back: a returning switch owes every column a row.
    let agree = prev.cols.len() == nt
        && prev.num_layers == res.num_layers
        && prev.check_minimal == res.check_minimal
        && crate::shape_matches(old_net, old)
        && !prev.edges.is_empty()
        && old_net.same_fabric(net)
        && old_net.terminals() == net.terminals()
        && (net.nodes()).all(|(v, _)| old_net.is_live(v) || !net.is_live(v));
    if !agree {
        return None;
    }
    // The cost model, in walks of every column: walking `c` columns out
    // and in costs `2c / nt`, and counting a base that only added its
    // edges costs about half a walk more. Past that, walk fresh.
    let too_many = |c: usize| c * if prev.counts.get().is_some() { 2 } else { 4 } > nt;
    // Layers first: where the paths were re-layered most columns differ
    // there, and the compare ends before any entry is read.
    let relayered: Vec<bool> = (0..nt)
        .map(|d| old.column(d).1 != routes.column(d).1)
        .collect();
    if too_many(relayered.iter().filter(|&&r| r).count()) {
        return None;
    }
    let (removed, added) = fabric::degrade::changed_channels(old_net, net);
    let killed: Vec<(usize, u32)> = (removed.iter())
        .map(|&c| (old_net.channel(c).src.idx(), c.0))
        .collect();
    let hops_from = |n| old_net.hops_from(n);
    let added = added.iter().filter(|_| res.check_minimal);
    let shortcuts: Vec<_> = added
        .map(|&c| (hops_from(net.channel(c).src), hops_from(net.channel(c).dst)))
        .collect();
    let drops = (net.nodes()).any(|(v, _)| old_net.is_live(v) && !net.is_live(v));

    let same = |d: usize| {
        let ((old_next, _), (next, _)) = (old.column(d), routes.column(d));
        !relayered[d]
            && (old_next == next
                || drops
                    && (old_next.iter().zip(next).enumerate())
                        // A node `net` drops: its row goes, and no path entered it.
                        .all(|(n, (&oc, &c))| {
                            oc == c || c == NONE && !net.is_live(NodeId(n as u32))
                        }))
            && killed.iter().all(|&(src, c)| next[src] != c)
    };
    let mut changed = Vec::new();
    for d in 0..nt {
        let od = old_net.terminals()[d].idx();
        let shorter = || {
            shortcuts
                .iter()
                .any(|(a, b)| a[od] > b[od].saturating_add(1))
        };
        if !matches!(prev.cols[d], Col::Clean(_)) || !same(d) || shorter() {
            changed.push(d);
            if too_many(changed.len()) {
                return None;
            }
        }
    }

    // Across: the base's tally and edge sets, on the same slots. A
    // dependency through a channel that is gone is the changed columns'
    // alone, and leaves with them.
    let mut counter = Counter {
        slots: slots.clone(),
        tally: prev.counts(old_net, old).clone(),
        sets: prev.unbroken_edges.clone(),
    };
    // Out: the changed columns' share, walked on the base's network.
    let mut mask = vec![0u64; old_net.num_nodes() * nl.div_ceil(64)];
    let ends = ends_of(old_net);
    let mut out = 0;
    for &d in changed.iter().filter(|&&d| prev.cols[d] != Col::Uncounted) {
        let (next, layers) = old.column(d);
        let dst = old_net.terminals()[d];
        let firsts = sources(old_net, next, layers, dst, nl);
        chain(&ends, next, dst, firsts, &mut mask, nl, |layer, c1, c2| {
            counter.down(layer, slots.slot(c1, c2))
        });
        out += 1;
    }
    // The carried columns' tallies: every source routed, nothing found.
    let mut walk = changed.iter().copied().peekable();
    for d in 0..nt {
        if walk.next_if_eq(&d).is_some() {
            continue;
        }
        let Col::Clean(max_hops) = prev.cols[d] else {
            unreachable!("a carried column is clean")
        };
        res.cols[d] = prev.cols[d];
        res.col_paths[d * nl..][..nl].copy_from_slice(&prev.col_paths[d * nl..][..nl]);
        res.pairs += nt - 1;
        res.pairs_routed += nt - 1;
        res.max_hops = res.max_hops.max(max_hops);
    }
    // Layers the base searched and found acyclic search from gained heads.
    if let Some(cyclic) = prev.cyclic.get() {
        for (layer, heads) in res.heads.iter_mut().enumerate() {
            if !cyclic.iter().any(|&(l, _)| l as usize == layer) {
                *heads = Some(Vec::new());
            }
        }
    }
    res.rewalked = Some((out, 0));
    res.carried_from = Some(prev.id);
    Some((counter, changed))
}

/// Unset entry.
const NONE: u32 = u32::MAX;

/// Each terminal source's first channel and layer toward `dst`, for the
/// sources whose layer exists: what [`chain`] starts from in a column
/// every source walks cleanly.
fn sources<'a>(
    net: &'a Network,
    next: &'a [u32],
    layers: &'a [u8],
    dst: NodeId,
    nl: usize,
) -> impl Iterator<Item = (u32, u8)> + 'a {
    let terminals = net.terminals().iter().zip(layers);
    terminals
        .filter(move |&(&src, &layer)| src != dst && (layer as usize) < nl)
        .map(|(&src, &layer)| (next[src.idx()], layer))
}

/// Every channel id of a network: the node it leaves ([`NONE`] for a
/// tombstone, so that no entry can take it) and the node it enters.
/// Built once per pass and read at every hop.
fn ends_of(net: &Network) -> Vec<(u32, u32)> {
    let mut ends = vec![(NONE, NONE); net.num_channels()];
    for (c, ch) in net.channels() {
        ends[c.idx()] = (ch.src.0, ch.dst.0);
    }
    ends
}

/// Where the entry `c` at `at` leads, if it names a live channel of the
/// network leaving `at`.
#[inline(always)]
fn hop(ends: &[(u32, u32)], c: u32, at: NodeId) -> Option<NodeId> {
    ends.get(c as usize)
        .filter(|e| e.0 == at.0)
        .map(|e| NodeId(e.1))
}

/// Dependency edges of one column: each routed source's path is followed
/// from its first channel until a node already carrying its layer's bit
/// in `mask` (cleared here) — a chain shared by many sources of one layer
/// is traversed a single time, so `dep(layer, c1, c2)` sees each
/// dependency of the column at most once.
#[inline(always)]
fn chain(
    ends: &[(u32, u32)],
    next: &[u32],
    dst: NodeId,
    firsts: impl Iterator<Item = (u32, u8)>,
    mask: &mut [u64],
    nl: usize,
    mut dep: impl FnMut(usize, u32, u32),
) {
    let words = nl.div_ceil(64);
    mask.fill(0);
    for (mut prev, layer) in firsts {
        let (layer, word, bit) = (layer as usize, layer as usize / 64, 1 << (layer % 64));
        let mut at = ends[prev as usize].1;
        while at != dst.0 {
            let c = next[at as usize];
            dep(layer, prev, c);
            let seen = &mut mask[at as usize * words + word];
            if *seen & bit != 0 {
                break;
            }
            *seen |= bit;
            prev = c;
            at = ends[c as usize].1;
        }
    }
}

/// The column kernel over `dests`, ascending: classify and report each
/// column, tally it into `res`, and add its dependencies — a broken
/// column's to `broken_edges`, any other's to `counter`.
fn walk_in(
    net: &Network,
    routes: &Routes,
    cfg: &Config,
    dests: &[usize],
    counter: &mut Counter,
    res: &mut TableWalk,
    broken_edges: &mut [EdgeSet],
) {
    let (n, nl) = (net.num_nodes(), res.num_layers as usize);
    let slots = counter.slots.clone();
    let em = &mut res.em;
    let mut hops = LazyHops {
        net,
        table: None,
        dst: NodeId(0),
        row: Vec::new(),
    };

    // Reused across destinations: `dist` is the classification, `state`
    // the report state, `mask` a layer bit set per node, `firsts` each
    // routed source's first channel and layer.
    let mut dist = vec![UNSEEN; n];
    let mut state = vec![UNVISITED; n];
    let mut mask = vec![0u64; n * nl.div_ceil(64)];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut firsts: Vec<(u32, u8)> = Vec::new();
    let ends = ends_of(net);
    // A terminal forwards nothing: each but the destination starts
    // settled as failing, so that an entry into it fails as an unusable
    // one does.
    let mut unsettled = vec![UNSEEN; n];
    for &t in net.terminals() {
        unsettled[t.idx()] = FAILS;
    }

    for &dst_t in dests {
        let dst = net.terminals()[dst_t];
        let (next, layers) = routes.column(dst_t);
        dist.copy_from_slice(&unsettled);
        dist[dst.idx()] = 0;
        settle(&ends, net.switches(), next, &mut dist, &mut stack);
        state.fill(UNVISITED);
        hops.dst = dst;
        hops.row.clear();
        let errors_before = em.severity_counts[Severity::Error.index()];
        let found_before: usize = em.severity_counts.iter().sum();
        let mut max_hops = 0;
        let paths = &mut res.col_paths[dst_t * nl..][..nl];

        // Terminal sources first (broken walks here are reachable-pair
        // errors), then leftover switches (latent findings, warnings).
        for (src_t, &src) in net.terminals().iter().enumerate() {
            if src == dst {
                continue;
            }
            res.pairs += 1;
            let landed = hop(&ends, next[src.idx()], src).map(|to| dist[to.idx()]);
            let Some(routed) = landed.filter(|&d| d < FAILS).map(|d| d + 1) else {
                walk_one(
                    net, routes, dst, dst_t, src, true, &mut hops, &mut state, &mut stack, em,
                );
                fail(&stack, &mut state);
                res.broken[dst_t] = true;
                if hops.get()[src.idx()] == u32::MAX {
                    res.pairs_unreachable += 1;
                } else {
                    res.pairs_broken += 1;
                }
                if res.broken_pairs.len() < crate::Stats::BROKEN_PAIR_SAMPLE {
                    res.broken_pairs.push((src, dst));
                }
                continue;
            };
            res.pairs_routed += 1;
            max_hops = max_hops.max(routed);
            let minimal = cfg.check_minimal.then(|| hops.get()[src.idx()]);
            if let Some(minimal) = minimal.filter(|&m| m != u32::MAX && routed > m) {
                em.emit(
                    LintCode::NonMinimalPath,
                    Severity::Warning,
                    format!(
                        "route {src:?} -> {dst:?} takes {routed} hops, minimum is \
                         {minimal} (stretch {:.2})",
                        routed as f64 / minimal as f64
                    ),
                    Witness::Stretch {
                        src,
                        dst,
                        hops: routed,
                        minimal,
                    },
                );
            }
            let layer = layers[src_t];
            if (layer as usize) < nl {
                paths[layer as usize] += 1;
                firsts.push((next[src.idx()], layer));
            } else {
                em.emit(
                    LintCode::VlOutOfRange,
                    Severity::Error,
                    format!(
                        "path {src:?} -> {dst:?} assigned layer {layer}, but only \
                         {nl} layer(s) exist"
                    ),
                    Witness::Layer { src, dst, layer },
                );
            }
        }
        for &sw in net.switches() {
            if dist[sw.idx()] == FAILS && state[sw.idx()] == UNVISITED {
                walk_one(
                    net, routes, dst, dst_t, sw, false, &mut hops, &mut state, &mut stack, em,
                );
                fail(&stack, &mut state);
            }
        }
        res.max_hops = res.max_hops.max(max_hops);

        let firsts = firsts.drain(..);
        if res.broken[dst_t] {
            res.cols[dst_t] = Col::Uncounted;
            chain(&ends, next, dst, firsts, &mut mask, nl, |layer, c1, c2| {
                broken_edges[layer].insert(c1, c2);
            });
            continue;
        }
        res.unbroken_errors += em.severity_counts[Severity::Error.index()] - errors_before;
        let found = em.severity_counts.iter().sum::<usize>() > found_before;
        res.cols[dst_t] = if found {
            Col::Counted
        } else {
            Col::Clean(max_hops)
        };
        if !counter.counting() {
            let sets = &mut counter.sets;
            chain(&ends, next, dst, firsts, &mut mask, nl, |layer, c1, c2| {
                sets[layer].insert_slot(slots.slot(c1, c2));
            });
        } else {
            chain(&ends, next, dst, firsts, &mut mask, nl, |layer, c1, c2| {
                counter.up(layer, slots.slot(c1, c2));
            });
        }
    }
}

/// `dist` sentinels above every table distance.
const UNSEEN: u32 = u32::MAX;
const PENDING: u32 = u32::MAX - 1;
const FAILS: u32 = u32::MAX - 2;

/// The classification pass of a destination column: every switch's
/// table distance to the destination, or [`FAILS`] where following the
/// entries from it loops or meets an unusable one, from `dist` holding
/// the column's settled nodes (the destination, the other terminals).
/// Emits nothing.
fn settle(
    ends: &[(u32, u32)],
    switches: &[NodeId],
    next: &[u32],
    dist: &mut [u32],
    stack: &mut Vec<NodeId>,
) {
    stack.clear();
    for &sw in switches {
        let mut at = sw;
        let end = loop {
            match dist[at.idx()] {
                UNSEEN => {}
                PENDING => break FAILS,
                d => break d,
            }
            dist[at.idx()] = PENDING;
            stack.push(at);
            match hop(ends, next[at.idx()], at) {
                Some(to) => at = to,
                None => break FAILS,
            }
        };
        let mut d = end;
        for v in stack.drain(..).rev() {
            d += u32::from(d != FAILS);
            dist[v.idx()] = d;
        }
    }
}

/// Follow the next-hop function from a failing `start` toward `dst` until
/// a node already known broken, a loop, or an unusable entry, and report
/// what stopped it. Pushes the newly visited nodes (all left `ON_STACK`)
/// onto `stack` for the caller to resolve.
#[allow(clippy::too_many_arguments)]
fn walk_one(
    net: &Network,
    routes: &Routes,
    dst: NodeId,
    dst_t: usize,
    start: NodeId,
    terminal_pass: bool,
    hops: &mut LazyHops,
    state: &mut [u8],
    stack: &mut Vec<NodeId>,
    em: &mut Emitter,
) {
    // Broken walks from a terminal are errors a packet would hit; walks
    // only reachable from unrouted switches are latent — warnings.
    let broken_sev = if terminal_pass {
        Severity::Error
    } else {
        Severity::Warning
    };
    stack.clear();
    let mut at = start;
    loop {
        match state[at.idx()] {
            BROKEN => return,
            ON_STACK => {
                // `at` closes a cycle: the stack suffix from its first
                // occurrence is the loop body.
                let pos = stack
                    .iter()
                    .position(|&v| v == at)
                    .expect("on-stack node is on the stack");
                let channels: Vec<ChannelId> = stack[pos..]
                    .iter()
                    .map(|&v| routes.next_hop(v, dst_t).expect("stacked entry is valid"))
                    .collect();
                em.emit(
                    LintCode::ForwardingLoop,
                    broken_sev,
                    format!(
                        "tables toward {dst:?} loop through {} node(s) starting at {:?}",
                        channels.len(),
                        stack[pos]
                    ),
                    Witness::TableLoop { dst, channels },
                );
                return;
            }
            _ => {}
        }
        let Some(c) = routes.next_hop(at, dst_t) else {
            let (sev, why) = if hops.get()[at.idx()] == u32::MAX {
                // No physical path either: a coverage gap, not a bug.
                (Severity::Warning, "no entry and no physical path")
            } else {
                (broken_sev, "no entry despite a physical path")
            };
            em.emit(
                LintCode::MissingEntry,
                sev,
                format!("{why} at {at:?} toward {dst:?}"),
                Witness::Entry { node: at, dst },
            );
            state[at.idx()] = BROKEN;
            return;
        };
        if !net.is_live_channel(c) {
            let what = match c.idx() < net.num_channels() {
                true => format!("channel {} of a dead cable", c.0),
                false => format!(
                    "channel {} but the network has only {}",
                    c.0,
                    net.num_channels()
                ),
            };
            em.emit(
                LintCode::InvalidNextHop,
                Severity::Error,
                format!("entry at {at:?} toward {dst:?} names {what} (stale tables?)"),
                Witness::NextHop {
                    node: at,
                    dst,
                    channel: c.0,
                },
            );
            state[at.idx()] = BROKEN;
            return;
        }
        let ch = net.channel(c);
        if ch.src != at {
            em.emit(
                LintCode::InvalidNextHop,
                Severity::Error,
                format!(
                    "entry at {at:?} toward {dst:?} names channel {c:?}, which leaves \
                     {:?} instead",
                    ch.src
                ),
                Witness::NextHop {
                    node: at,
                    dst,
                    channel: c.0,
                },
            );
            state[at.idx()] = BROKEN;
            return;
        }
        if ch.dst != dst && net.is_terminal(ch.dst) {
            em.emit(
                LintCode::InvalidNextHop,
                Severity::Error,
                format!(
                    "entry at {at:?} toward {dst:?} enters terminal {:?}, which cannot \
                     forward",
                    ch.dst
                ),
                Witness::NextHop {
                    node: at,
                    dst,
                    channel: c.0,
                },
            );
            state[at.idx()] = BROKEN;
            return;
        }
        state[at.idx()] = ON_STACK;
        stack.push(at);
        at = ch.dst;
    }
}

/// Failed walk: nothing on the stack can reach the destination.
fn fail(stack: &[NodeId], state: &mut [u8]) {
    for &v in stack {
        state[v.idx()] = BROKEN;
    }
}

#[cfg(test)]
mod reference;
