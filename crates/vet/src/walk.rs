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

use fabric::{ChannelId, DepSlots, HopTable, Network, NodeId, Routes};

use crate::diag::{Diagnostic, Emitter, LintCode, Severity, Witness};
use crate::{Config, EdgeSet};

const UNVISITED: u8 = 0;
const ON_STACK: u8 = 1;
const BROKEN: u8 = 3;

/// Everything one destination-colored walk of an artifact learned (see
/// [`crate::walk_tables`]). The pair counters mean what the fields of
/// the same name in [`crate::Stats`] mean.
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
    /// The walk's findings (V001–V003, V005 per-pair, V006).
    pub(crate) em: Emitter,
}

impl TableWalk {
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
    /// (the V004 search, run on demand).
    pub fn cyclic_layers(&self) -> Vec<(u8, Vec<ChannelId>)> {
        crate::union_cycles_of(&[self])
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

/// Walk `routes`' tables on `net`, one destination column at a time.
/// With `scope = Some(dests)` only the listed destination terminal
/// indices are walked (each still against every source), so
/// re-verifying an incrementally patched artifact costs O(scope · V)
/// instead of O(T · V); out-of-range indices are ignored. `None` walks
/// everything.
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
/// Tables sized for a different network cannot be indexed safely
/// (degraded fabrics renumber everything): that is one V003 and an
/// otherwise empty walk.
pub(crate) fn walk(
    net: &Network,
    routes: &Routes,
    cfg: &Config,
    scope: Option<&[usize]>,
) -> TableWalk {
    let mut res = TableWalk {
        num_layers: routes.num_layers(),
        pairs: 0,
        pairs_routed: 0,
        pairs_broken: 0,
        pairs_unreachable: 0,
        max_hops: 0,
        paths_per_layer: Vec::new(),
        edges: Vec::new(),
        broken_pairs: Vec::new(),
        broken: Vec::new(),
        unbroken_edges: Vec::new(),
        unbroken_errors: 0,
        em: Emitter::new(cfg.max_diagnostics_per_code),
    };
    if !crate::shape_matches(net, routes) {
        res.em.emit(
            LintCode::InvalidNextHop,
            Severity::Error,
            format!(
                "tables sized for {} node(s) / {} terminal(s), network has {} / {} — \
                 artifact does not match this network",
                routes.num_nodes(),
                routes.num_terminals(),
                net.num_nodes(),
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
    let (n, nl) = (net.num_nodes(), routes.num_layers() as usize);
    let words = nl.div_ceil(64);
    res.paths_per_layer = vec![0; nl];
    // Broken destinations' edges until the last one is walked, then all.
    res.edges = vec![EdgeSet::over(DepSlots::of(net)); nl];
    res.unbroken_edges = res.edges.clone();
    res.broken = vec![false; net.num_terminals()];
    let em = &mut res.em;
    let mut hops = LazyHops {
        net,
        table: None,
        dst: NodeId(0),
        row: Vec::new(),
    };

    // Reused across destinations: `dist` is the classification, `state`
    // the report state, `mask` a layer bit set per node (in `words`
    // words), `firsts` each routed source's first channel and layer.
    let mut dist = vec![UNSEEN; n];
    let mut state = vec![UNVISITED; n];
    let mut mask = vec![0u64; n * words];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut firsts: Vec<(u32, u8)> = Vec::new();

    let dest_list: Vec<usize> = match scope {
        None => (0..net.num_terminals()).collect(),
        Some(dests) => dests
            .iter()
            .copied()
            .filter(|&d| d < net.num_terminals())
            .collect(),
    };
    for dst_t in dest_list {
        let dst = net.terminals()[dst_t];
        let (next, layers) = routes.column(dst_t);
        settle(net, next, dst, &mut dist, &mut stack);
        mask.fill(0);
        state.fill(UNVISITED);
        hops.dst = dst;
        hops.row.clear();
        let errors_before = em.severity_counts[Severity::Error.index()];

        // Terminal sources first (broken walks here are reachable-pair
        // errors), then leftover switches (latent findings, warnings).
        for (src_t, &src) in net.terminals().iter().enumerate() {
            if src == dst {
                continue;
            }
            res.pairs += 1;
            let landed = hop(net, next[src.idx()], src, dst).map(|to| dist[to.idx()]);
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
            res.max_hops = res.max_hops.max(routed);
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
                res.paths_per_layer[layer as usize] += 1;
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

        let edges = if res.broken[dst_t] {
            &mut res.edges
        } else {
            res.unbroken_errors += em.severity_counts[Severity::Error.index()] - errors_before;
            &mut res.unbroken_edges
        };
        // Dependency edges: each routed source's path is followed from
        // its first channel until a node already carrying its layer's bit
        // — a chain shared by many sources of one layer is traversed a
        // single time.
        for (mut prev, layer) in firsts.drain(..) {
            let (layer, word, bit) = (layer as usize, layer as usize / 64, 1 << (layer % 64));
            let mut at = net.channel(ChannelId(prev)).dst;
            while at != dst {
                let c = next[at.idx()];
                edges[layer].insert(prev, c);
                let seen = &mut mask[at.idx() * words + word];
                if *seen & bit != 0 {
                    break;
                }
                *seen |= bit;
                prev = c;
                at = net.channel(ChannelId(c)).dst;
            }
        }
    }
    for (all, unbroken) in res.edges.iter_mut().zip(&res.unbroken_edges) {
        all.absorb(unbroken);
    }
    res
}

/// `dist` sentinels above every table distance.
const UNSEEN: u32 = u32::MAX;
const PENDING: u32 = u32::MAX - 1;
const FAILS: u32 = u32::MAX - 2;

/// The classification pass of a destination column: every switch's
/// table distance to `dst`, or [`FAILS`] where following the entries
/// from it loops or meets an unusable one. Emits nothing.
fn settle(net: &Network, next: &[u32], dst: NodeId, dist: &mut [u32], stack: &mut Vec<NodeId>) {
    dist.fill(UNSEEN);
    dist[dst.idx()] = 0;
    stack.clear();
    for &sw in net.switches() {
        let mut at = sw;
        let end = loop {
            match dist[at.idx()] {
                UNSEEN => {}
                PENDING => break FAILS,
                d => break d,
            }
            dist[at.idx()] = PENDING;
            stack.push(at);
            match hop(net, next[at.idx()], at, dst) {
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

/// Where the entry `c` at `at` leads toward `dst`, if it is usable: a
/// channel of the network, leaving `at`, into `dst` or a switch.
#[inline]
fn hop(net: &Network, c: u32, at: NodeId, dst: NodeId) -> Option<NodeId> {
    let ch = ((c as usize) < net.num_channels()).then(|| net.channel(ChannelId(c)))?;
    (ch.src == at && (ch.dst == dst || !net.is_terminal(ch.dst))).then_some(ch.dst)
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
        if c.idx() >= net.num_channels() {
            em.emit(
                LintCode::InvalidNextHop,
                Severity::Error,
                format!(
                    "entry at {at:?} toward {dst:?} names channel {} but the network has \
                     only {} (stale tables?)",
                    c.0,
                    net.num_channels()
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
