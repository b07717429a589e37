//! Destination-based table walk.
//!
//! For each destination terminal the forwarding tables induce a next-hop
//! function over nodes. One colored walk per destination classifies every
//! node as reaching the destination, looping, or broken — O(V) work per
//! destination instead of the O(pairs · hops) of walking every
//! source/destination pair separately. Dependency-graph edges are also
//! collected here, memoized per (destination, layer) so shared path
//! suffixes are traversed once.
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
const OK: u8 = 2;
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
    row: Option<Vec<u32>>,
}

impl LazyHops<'_> {
    fn get(&mut self) -> &[u32] {
        self.row.get_or_insert_with(|| {
            #[cfg(test)]
            HOP_SEARCHES.with(|n| n.set(n.get() + 1));
            let table = self.table.get_or_insert_with(|| HopTable::of(self.net));
            table.row(self.dst)
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Destination rows of hop distances derived on this thread — the
    /// pin that a clean walk without `check_minimal` reads none.
    pub(crate) static HOP_SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Why one walk stopped.
enum Stop {
    /// Reached a node already known to route to the destination.
    Reached,
    /// Hit a loop, a broken node, or an unusable entry.
    Failed,
}

/// Walk `routes`' tables on `net`, one colored pass per destination.
/// With `scope = Some(dests)` only the listed destination terminal
/// indices are walked (each still against every source), so
/// re-verifying an incrementally patched artifact costs O(scope · V)
/// instead of O(T · V); out-of-range indices are ignored. `None` walks
/// everything.
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
    let n = net.num_nodes();
    let nl = routes.num_layers() as usize;
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
        row: None,
    };

    // Reused across destinations.
    let mut state = vec![UNVISITED; n];
    let mut tdist = vec![u32::MAX; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut srcs_by_layer: Vec<Vec<NodeId>> = vec![Vec::new(); nl];
    let mut mark = vec![0u32; n];
    let mut generation = 0u32;

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
        state.iter_mut().for_each(|s| *s = UNVISITED);
        tdist.iter_mut().for_each(|d| *d = u32::MAX);
        srcs_by_layer.iter_mut().for_each(Vec::clear);
        state[dst.idx()] = OK;
        tdist[dst.idx()] = 0;
        (hops.dst, hops.row) = (dst, None);
        let errors_before = em.severity_counts[Severity::Error.index()];

        // Terminal sources first (broken walks here are reachable-pair
        // errors), then leftover switches (latent findings, warnings).
        for &src in net.terminals() {
            if src == dst {
                continue;
            }
            res.pairs += 1;
            let src_t = net.terminal_index(src).expect("terminal list entry");
            match walk_one(
                net, routes, dst, dst_t, src, true, &mut hops, &mut state, &mut stack, em,
            ) {
                Stop::Reached => {
                    unwind(net, routes, dst_t, &stack, &mut state, &mut tdist);
                    res.pairs_routed += 1;
                    let routed = tdist[src.idx()];
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
                    let layer = routes.layer(src_t, dst_t);
                    if (layer as usize) < nl {
                        res.paths_per_layer[layer as usize] += 1;
                        srcs_by_layer[layer as usize].push(src);
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
                Stop::Failed => {
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
                }
            }
        }
        for &sw in net.switches() {
            if state[sw.idx()] != UNVISITED {
                continue;
            }
            match walk_one(
                net, routes, dst, dst_t, sw, false, &mut hops, &mut state, &mut stack, em,
            ) {
                Stop::Reached => unwind(net, routes, dst_t, &stack, &mut state, &mut tdist),
                Stop::Failed => fail(&stack, &mut state),
            }
        }

        let edges = if res.broken[dst_t] {
            &mut res.edges
        } else {
            res.unbroken_errors += em.severity_counts[Severity::Error.index()] - errors_before;
            &mut res.unbroken_edges
        };
        // Dependency edges: per (destination, layer), each node's entry is
        // followed at most once — chains shared by many sources are
        // traversed a single time.
        for (layer, srcs) in srcs_by_layer.iter().enumerate() {
            if srcs.is_empty() {
                continue;
            }
            generation += 1;
            for &src in srcs {
                let mut at = src;
                let mut prev: Option<ChannelId> = None;
                while at != dst {
                    let c = routes
                        .next_hop(at, dst_t)
                        .expect("entry exists on a routed path");
                    if let Some(p) = prev {
                        edges[layer].insert(p.0, c.0);
                    }
                    if mark[at.idx()] == generation {
                        break;
                    }
                    mark[at.idx()] = generation;
                    prev = Some(c);
                    at = net.channel(c).dst;
                }
            }
        }
    }
    for (all, unbroken) in res.edges.iter_mut().zip(&res.unbroken_edges) {
        all.absorb(unbroken);
    }
    res
}

/// Follow the next-hop function from `start` toward `dst` until a node of
/// known state, a loop, or an unusable entry. Pushes the newly visited
/// nodes (all left `ON_STACK`) onto `stack` for the caller to resolve.
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
) -> Stop {
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
            OK => return Stop::Reached,
            BROKEN => return Stop::Failed,
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
                return Stop::Failed;
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
            return Stop::Failed;
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
            return Stop::Failed;
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
            return Stop::Failed;
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
            return Stop::Failed;
        }
        state[at.idx()] = ON_STACK;
        stack.push(at);
        at = ch.dst;
    }
}

/// Successful walk: every stacked node routes to the destination. The
/// stack top's entry points at the junction node whose table distance is
/// already known; distances accumulate backward from there.
fn unwind(
    net: &Network,
    routes: &Routes,
    dst_t: usize,
    stack: &[NodeId],
    state: &mut [u8],
    tdist: &mut [u32],
) {
    let Some(&top) = stack.last() else {
        return;
    };
    let junction = net
        .channel(routes.next_hop(top, dst_t).expect("stacked entry is valid"))
        .dst;
    let mut d = tdist[junction.idx()];
    debug_assert_ne!(d, u32::MAX, "junction distance must be resolved");
    for &v in stack.iter().rev() {
        d += 1;
        tdist[v.idx()] = d;
        state[v.idx()] = OK;
    }
}

/// Failed walk: nothing on the stack can reach the destination.
fn fail(stack: &[NodeId], state: &mut [u8]) {
    for &v in stack {
        state[v.idx()] = BROKEN;
    }
}
