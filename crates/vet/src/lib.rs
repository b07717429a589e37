//! `vet` — static analysis of routing artifacts.
//!
//! Routing engines produce `(Network, Routes)` pairs; simulators consume
//! them. This crate sits between: it lints an artifact *without*
//! simulating, emitting structured diagnostics with machine-checkable
//! witnesses. The checks:
//!
//! | code | name | what it catches |
//! |------|------|-----------------|
//! | V001 | forwarding-loop | table walks that revisit a node |
//! | V002 | missing-entry | (node, destination) pairs with no next hop |
//! | V003 | invalid-next-hop | entries naming unusable channels |
//! | V004 | cdg-cycle | cyclic channel dependencies within a layer |
//! | V005 | vl-out-of-range | layer assignment out of range / over the hardware limit / imbalanced |
//! | V006 | non-minimal-path | routes longer than the shortest path |
//! | V007 | deadlock-existence | fabrics where *no* single-layer deadlock-free routing can exist |
//!
//! The analysis is destination-centric: one colored walk of the next-hop
//! function per destination classifies every node in O(V), instead of
//! re-walking each of the O(V²) pairs. See [`check`] and [`Report`].
//!
//! V001–V006 judge the artifact; V007 judges the *network* (see
//! [`existence`] and the [`existence()`][fn@existence] decision
//! procedure): after degradation, can any reroute on one virtual layer
//! still be deadlock-free? Its verdict gates admission upstream — an
//! Error here means escalate (extra layer, quarantine), not reroute.

mod cdg_lint;
mod diag;
mod existence;
mod walk;

pub use cdg_lint::EdgeSet;
pub use diag::{Diagnostic, LintCode, Report, Severity, Stats, Witness};
pub use existence::{existence, Existence, ExistenceWitness};
pub use walk::{Base, TableWalk};

use fabric::{ChannelId, Network, Routes};

/// Tunables for one analysis run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Hardware virtual-lane budget (InfiniBand switches commonly expose
    /// 8). When set, using more layers than this is a V005 error.
    pub hw_vls: Option<u8>,
    /// Whether a cyclic dependency graph (V004) is an error. Engines that
    /// never claimed deadlock freedom (plain SSSP) can downgrade it to a
    /// warning.
    pub deadlock_error: bool,
    /// Whether to emit V006 for non-minimal routes. Engines that are
    /// non-minimal by design (Up*/Down*) can switch it off.
    pub check_minimal: bool,
    /// Retain at most this many diagnostics per lint code; the rest are
    /// counted but dropped (see [`Report::suppressed`]).
    pub max_diagnostics_per_code: usize,
    /// Whether to run the V007 existence check ([`existence`]): does the
    /// fabric itself still admit *some* single-layer deadlock-free
    /// routing? `NotExists` is an error with a concrete witness,
    /// `Undecided` a warning, `Exists` records its certificate in
    /// [`Stats::existence`].
    pub check_existence: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hw_vls: None,
            deadlock_error: true,
            check_minimal: true,
            max_diagnostics_per_code: 25,
            check_existence: true,
        }
    }
}

/// Analyze `routes` against `net` with default settings (`use
/// dfsssp::prelude::*; vet::check(&net, &routes)`): [`check_with_verdict`]
/// with the verdict decided here.
pub fn check(net: &Network, routes: &Routes) -> Report {
    check_with_verdict(net, routes, &existence(net))
}

/// [`check`] with V007's verdict supplied: `verdict` must be
/// `existence(net)`, decided by a caller that already judged this very
/// network. The verdict reads the network alone, so everything the
/// artifact is judged on — the walk, the cycle search, the severity of
/// a refutation for its layer count — is still decided here.
pub fn check_with_verdict(net: &Network, routes: &Routes, verdict: &Existence) -> Report {
    recheck(None, net, routes, verdict).0
}

/// [`check_with_verdict`], walking from `base` (see [`rewalk_tables`])
/// when there is one, and returning the walk beside the report: the
/// base of the next check. The report is the one `check_with_verdict`
/// makes.
pub fn recheck(
    base: Option<Base>,
    net: &Network,
    routes: &Routes,
    verdict: &Existence,
) -> (Report, TableWalk) {
    let cfg = Config::default();
    let walked = walk::walk(net, routes, &cfg, None, base);
    let report = analyze_inner(net, routes, &cfg, None, Some(verdict), &walked);
    (report, walked)
}

/// Analyze `routes` against `net` with explicit settings.
pub fn analyze_with(net: &Network, routes: &Routes, cfg: &Config) -> Report {
    let verdict = cfg.check_existence.then(|| existence(net));
    let walked = walk::walk(net, routes, cfg, None, None);
    analyze_inner(net, routes, cfg, None, verdict.as_ref(), &walked)
}

/// [`analyze_with`] restricted to a destination subset — the scoped
/// re-check incremental rerouting uses: only the listed destination
/// terminal indices' columns are walked (V001–V003, V006 over the
/// scope; V004 over the scope's dependency edges; the V005 hardware
/// budget and the network-level V007 judgement are global and run as
/// usual). Costs O(|dests| · V) instead of O(T · V).
///
/// The caller owns the claim that the unscoped columns are unchanged
/// since their last full analysis; this function verifies exactly the
/// scope it is given. Out-of-range indices are ignored; per-layer
/// population stats cover only the scope, so the layer-imbalance
/// heuristic is skipped (its denominators would be misleading).
pub fn analyze_scoped(net: &Network, routes: &Routes, dests: &[usize], cfg: &Config) -> Report {
    let verdict = cfg.check_existence.then(|| existence(net));
    let walked = walk::walk(net, routes, cfg, Some(dests), None);
    analyze_inner(net, routes, cfg, Some(dests), verdict.as_ref(), &walked)
}

/// Walk `routes`' tables on `net` once and return everything the walk
/// learned as a value: pair statistics, per-layer dependency edges,
/// which destinations are broken, and the V001–V003/V005/V006 findings
/// (only `check_minimal` and `max_diagnostics_per_code` of `cfg` apply
/// to a walk). [`analyze_with`] is this walk plus the per-layer cycle
/// search and the artifact- and network-level summary checks; a caller
/// that needs several of a walk's answers — a deploy guard that then
/// plans an update window, say — walks once and reads them all (see
/// [`union_cycles_of`], [`TableWalk::cyclic_layers`]).
///
/// Minimal hop distances (a row per destination, read off one
/// [`fabric::HopTable`] per walk) are computed only when a check reads
/// them: with `check_minimal` off, a clean artifact never pays for them.
pub fn walk_tables(net: &Network, routes: &Routes, cfg: &Config) -> TableWalk {
    walk::walk(net, routes, cfg, None, None)
}

/// [`walk_tables`] of `routes` on `net`, made from `base` — the walk of
/// an earlier artifact, say the one this artifact replaces on a view
/// before an event. The result is what `walk_tables(net, routes, cfg)`
/// returns, field for field, but only the columns that differ from the
/// base's — the two views share their node and channel ids, so a column
/// differs in its bytes or in taking a channel `net` killed — are walked
/// (out of the base on its network, into this walk on `net`); the others
/// are carried over. When the base cannot be read
/// on `net`, or more than half the columns differ, every column is
/// walked, as `walk_tables` walks them. See DESIGN §8.
pub fn rewalk_tables(base: Base, net: &Network, routes: &Routes, cfg: &Config) -> TableWalk {
    walk::walk(net, routes, cfg, None, Some(base))
}

/// [`walk_tables`] toward the listed destination terminal indices only
/// (out-of-range ones are ignored), each still from every source: what
/// the full walk learns about exactly those destinations, in
/// O(|dests| · V).
pub fn walk_scoped(net: &Network, routes: &Routes, dests: &[usize], cfg: &Config) -> TableWalk {
    walk::walk(net, routes, cfg, Some(dests), None)
}

/// Whether `routes` is sized for `net` and programs no node `net` drops
/// (tables for a different network cannot be indexed safely, and tables
/// for the view before a switch died still route through it).
fn shape_matches(net: &Network, routes: &Routes) -> bool {
    let nt = net.num_terminals();
    let unset = |v| (0..nt).all(|d| routes.next_hop(v, d).is_none());
    routes.num_nodes() == net.num_nodes()
        && routes.num_terminals() == nt
        && (net.nodes()).all(|(v, _)| net.is_live(v) || unset(v))
}

/// The one analysis of `walked`, the walk of `routes` on `net`; V007 is
/// reported on `verdict` when there is one.
fn analyze_inner(
    net: &Network,
    routes: &Routes,
    cfg: &Config,
    scope: Option<&[usize]>,
    verdict: Option<&Existence>,
    walked: &TableWalk,
) -> Report {
    let mut stats = Stats {
        num_nodes: net.num_nodes(),
        num_switches: net.num_switches(),
        num_terminals: net.num_terminals(),
        num_channels: net.num_live_channels(),
        num_layers: routes.num_layers(),
        pairs: walked.pairs,
        pairs_routed: walked.pairs_routed,
        pairs_broken: walked.pairs_broken,
        pairs_unreachable: walked.pairs_unreachable,
        max_hops: walked.max_hops,
        paths_per_layer: walked.paths_per_layer.clone(),
        edges_per_layer: walked.edges.iter().map(|e| e.len()).collect(),
        broken_pairs: walked.broken_pairs.clone(),
        ..Stats::default()
    };
    let mut em = walked.em.clone();
    if !shape_matches(net, routes) {
        // The walk's one V003 says it all.
        return finish(net, routes, em, stats);
    }

    // V004: Dally & Seitz — every layer's dependency graph must be acyclic.
    let cdg_sev = if cfg.deadlock_error {
        Severity::Error
    } else {
        Severity::Warning
    };
    let scoped = scope.map_or(String::new(), |dests| {
        format!(" (scoped to {} destination(s))", dests.len())
    });
    for (layer, channels) in walked.cyclic_layers().iter().cloned() {
        stats.cyclic_layers.push(layer);
        em.emit(
            LintCode::CdgCycle,
            cdg_sev,
            format!(
                "layer {layer} channel dependency graph{scoped} has a cycle of {} \
                 channel(s) — routes on this layer can deadlock",
                channels.len()
            ),
            Witness::CdgCycle { layer, channels },
        );
    }

    // V005 summary checks: hardware budget and population balance.
    if let Some(hw) = cfg.hw_vls {
        if routes.num_layers() > hw {
            em.emit(
                LintCode::VlOutOfRange,
                Severity::Error,
                format!(
                    "routes use {} virtual layers but the hardware provides {hw} VLs",
                    routes.num_layers()
                ),
                Witness::LayerHistogram {
                    populations: stats.paths_per_layer.clone(),
                },
            );
        }
    }
    /// The imbalance warning fires when the most-populated layer holds
    /// more than this many times the mean.
    const IMBALANCE_FACTOR: f64 = 4.0;
    if scope.is_none() && stats.num_layers > 1 && stats.pairs_routed > 0 {
        let max = *stats.paths_per_layer.iter().max().unwrap_or(&0);
        let mean = stats.pairs_routed as f64 / stats.num_layers as f64;
        if max as f64 > IMBALANCE_FACTOR * mean {
            em.emit(
                LintCode::VlOutOfRange,
                Severity::Warning,
                format!(
                    "layer population imbalanced: busiest layer carries {max} of {} routed \
                     path(s) across {} layers (mean {mean:.1})",
                    stats.pairs_routed, stats.num_layers
                ),
                Witness::LayerHistogram {
                    populations: stats.paths_per_layer.clone(),
                },
            );
        }
    }

    if let Some(verdict) = verdict {
        report_existence(verdict, routes, &mut em, &mut stats);
    }

    finish(net, routes, em, stats)
}

/// V007: Mendlovic & Matias — does the fabric still admit *any*
/// single-layer deadlock-free routing? A network-level verdict, so
/// scoping does not change what it looks at and the artifact under
/// analysis neither helps nor hurts it. A refutation condemns
/// *single-layer* artifacts outright; an artifact already on multiple
/// layers took the one escape hatch the theorem leaves open, so for it
/// the refutation is a (citable) warning that the extra layers are
/// provably necessary, not optional. The verdict `v007` is the
/// network's; the severity is decided here, from the artifact.
fn report_existence(v007: &Existence, routes: &Routes, em: &mut diag::Emitter, stats: &mut Stats) {
    let refuted_sev = if routes.num_layers() <= 1 {
        Severity::Error
    } else {
        Severity::Warning
    };
    match v007.clone() {
        Existence::Exists { roots, pairs } => {
            stats.existence = Some(format!(
                "certified: up*/down* orientation from {} root(s) covers all {pairs} \
                 required pair(s) with an acyclic dependency graph",
                roots.len()
            ));
        }
        Existence::NotExists(ExistenceWitness::OneWayPair { src, dst }) => {
            stats.existence = Some(format!("refuted: one-way pair {src:?} -> {dst:?}"));
            em.emit(
                LintCode::DeadlockExistence,
                // One-way pairs are unservable at *any* layer count.
                Severity::Error,
                format!(
                    "no routing can serve {src:?} -> {dst:?}: the pair is cabled but \
                     directed reachability holds only the other way (half-dead link?)"
                ),
                Witness::OneWayPair { src, dst },
            );
        }
        Existence::NotExists(ExistenceWitness::ForcedCycle { channels }) => {
            stats.existence = Some(format!(
                "refuted: forced dependency cycle of {} channel(s)",
                channels.len()
            ));
            em.emit(
                LintCode::DeadlockExistence,
                refuted_sev,
                format!(
                    "no single-layer deadlock-free routing exists: unique paths force a \
                     dependency cycle of {} channel(s) into every routing{}",
                    channels.len(),
                    if refuted_sev == Severity::Warning {
                        format!(
                            " (this artifact's {} layers are provably necessary)",
                            routes.num_layers()
                        )
                    } else {
                        String::new()
                    }
                ),
                Witness::ForcedCycle { channels },
            );
        }
        Existence::Undecided { src, dst } => {
            stats.existence = Some(format!("undecided: pair {src:?} -> {dst:?} uncertified"));
            em.emit(
                LintCode::DeadlockExistence,
                Severity::Warning,
                format!(
                    "existence of a single-layer deadlock-free routing is undecided: \
                     {src:?} -> {dst:?} is routable only over channels the up*/down* \
                     certificate cannot order"
                ),
                Witness::UncertifiedPair { src, dst },
            );
        }
    }
}

/// The per-layer channel-dependency edge sets induced by walking
/// `routes`' tables on `net`, without emitting diagnostics — the raw
/// material for update-window hazard checks (see [`union_cycles`]).
/// Pairs that do not walk cleanly contribute no edges; an artifact sized
/// for a different network yields an empty vector.
pub fn dependency_edges(net: &Network, routes: &Routes) -> Vec<EdgeSet> {
    walk::walk(net, routes, &edges_only(), None, None).edges
}

/// The walk behind [`dependency_edges`]: no minimality check (so no hop
/// distances on a clean artifact) and no retained findings.
fn edges_only() -> Config {
    Config {
        check_minimal: false,
        max_diagnostics_per_code: 0,
        ..Config::default()
    }
}

/// Check the union of several artifacts' per-layer CDGs for cycles.
///
/// This is the safety condition for an unsynchronized table-update
/// window: while switches are being reprogrammed from one artifact to
/// another, in-flight packets can follow any mix of the artifacts'
/// entries, so the dependencies of the *union* must satisfy Dally &
/// Seitz, not just each artifact's own. Layers are matched by index
/// (shorter artifacts simply contribute nothing to higher layers).
/// Returns each cyclic layer with a witness cycle.
pub fn union_cycles(net: &Network, artifacts: &[&Routes]) -> Vec<(u8, Vec<ChannelId>)> {
    let walks: Vec<TableWalk> = artifacts
        .iter()
        .map(|r| walk::walk(net, r, &edges_only(), None, None))
        .collect();
    union_cycles_of(&walks.iter().collect::<Vec<_>>())
}

/// [`union_cycles`] over artifacts that have already been walked (see
/// [`walk_tables`], all on one network): the cycle search alone, no
/// table is touched. A layer [`union_heads`] gives heads for is searched
/// only from them, every other layer from every channel; the witness is
/// the search from every channel's either way.
pub fn union_cycles_of(walks: &[&TableWalk]) -> Vec<(u8, Vec<ChannelId>)> {
    let edges: Vec<&[EdgeSet]> = walks.iter().map(|w| &w.edges[..]).collect();
    union_search(&edges, &union_heads(walks))
}

/// Per layer of the union of `walks`, the channels [`union_cycles_of`]
/// searches it from: the heads of the dependencies each walk gained over
/// its base (those the base does not hold), concatenated, when every walk
/// was carried from one base ([`rewalk_tables`]) and that base searched
/// the layer and found it acyclic; `None` — search from every channel —
/// otherwise. A dependency no walk gained is in the base's acyclic layer,
/// so every cycle of the union runs through a gained one.
pub fn union_heads(walks: &[&TableWalk]) -> Vec<Option<Vec<u32>>> {
    let base = walks.first().and_then(|w| w.carried_from);
    let one_base = base.is_some() && walks.iter().all(|w| w.carried_from == base);
    let layers = walks.iter().map(|w| w.edges.len()).max().unwrap_or(0);
    let heads = |layer: usize| {
        let each = walks.iter().map(|w| w.heads.get(layer)?.as_deref());
        Some(each.collect::<Option<Vec<_>>>()?.concat())
    };
    (0..layers)
        .map(|layer| one_base.then(|| heads(layer)).flatten())
        .collect()
}

/// [`union_cycles_of`] over per-layer edge sets of one network however
/// they were gathered — a part of a walk, say
/// ([`TableWalk::unbroken_edges`]): every layer searched from every
/// channel.
pub fn union_cycles_in(edges: &[&[EdgeSet]]) -> Vec<(u8, Vec<ChannelId>)> {
    union_search(edges, &[])
}

/// The union of `edges` per layer, searched for a cycle from the layer's
/// `heads` when it has some and from every channel when not.
fn union_search(edges: &[&[EdgeSet]], heads: &[Option<Vec<u32>>]) -> Vec<(u8, Vec<ChannelId>)> {
    let layers = edges.iter().map(|e| e.len()).max().unwrap_or(0);
    (0..layers)
        .filter_map(|layer| {
            let mut sets = edges.iter().filter_map(|e| e.get(layer));
            let mut union = sets.next()?.clone();
            sets.for_each(|set| union.absorb(set));
            let cycle = match heads.get(layer) {
                Some(Some(heads)) => union.find_cycle_from(heads),
                _ => union.find_cycle(),
            };
            cycle.map(|c| (layer as u8, c))
        })
        .collect()
}

fn finish(net: &Network, routes: &Routes, em: diag::Emitter, stats: Stats) -> Report {
    Report {
        engine: routes.engine().to_string(),
        network: net.label().to_string(),
        stats,
        diagnostics: em.diagnostics,
        counts: em.counts,
        severity_counts: em.severity_counts,
        suppressed: em.suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{ChannelId, Network, NetworkBuilder};

    /// t0 - s0 - s1 - t1, plus t2 on s1 (same shape as the fabric tests).
    fn line() -> Network {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 36);
        let s1 = b.add_switch("s1", 36);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        let t2 = b.add_terminal("t2");
        b.link(s0, s1).unwrap();
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        b.link(t2, s1).unwrap();
        b.build()
    }

    fn bfs_routes(net: &Network) -> fabric::Routes {
        let mut r = fabric::Routes::new(net, "bfs-test");
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let hops = net.hops_to(dst);
            for (id, _) in net.nodes() {
                if id == dst || hops[id.idx()] == u32::MAX {
                    continue;
                }
                let best = net
                    .out_channels(id)
                    .iter()
                    .copied()
                    .min_by_key(|&c| hops[net.channel(c).dst.idx()])
                    .unwrap();
                r.set_next(id, dst_t, best);
            }
        }
        r
    }

    #[test]
    fn clean_tables_produce_clean_report() {
        let net = line();
        let report = check(&net, &bfs_routes(&net));
        assert!(
            report.clean(),
            "unexpected findings: {:?}",
            report.diagnostics
        );
        assert_eq!(report.num_warnings(), 0);
        assert_eq!(report.stats.pairs, 6);
        assert_eq!(report.stats.pairs_routed, 6);
        assert_eq!(report.stats.pairs_broken, 0);
        assert_eq!(report.stats.max_hops, 3);
        assert_eq!(report.stats.paths_per_layer, vec![6]);
        assert_eq!(report.engine, "bfs-test");
    }

    #[test]
    fn dropped_entry_is_v002() {
        let net = line();
        let mut r = bfs_routes(&net);
        let s0 = net.node_by_name("s0").unwrap();
        r.clear_next(s0, 1); // s0 no longer knows about t1
        let report = check(&net, &r);
        assert!(report.has(LintCode::MissingEntry));
        assert!(!report.clean());
        // t0 -> t1 is the broken pair; t2 -> t1 does not cross s0.
        assert_eq!(report.stats.pairs_broken, 1);
        let d = report
            .diagnostics_for(LintCode::MissingEntry)
            .next()
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(matches!(d.witness, Witness::Entry { node, .. } if node == s0));
    }

    #[test]
    fn unreachable_pairs_are_v002_warnings_not_errors() {
        // Two disconnected islands: t0-s0 and t1-s1. No table can route
        // across, so the missing entries are latent facts about the
        // fabric, not artifact bugs.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        let net = b.build();
        let report = check(&net, &bfs_routes(&net));
        assert!(report.has(LintCode::MissingEntry));
        assert!(report.clean(), "{:?}", report.diagnostics);
        assert!(report.num_warnings() > 0);
        assert_eq!(report.stats.pairs_unreachable, 2);
        assert_eq!(report.stats.pairs_broken, 0);
    }

    #[test]
    fn two_switch_loop_is_v001_with_witness() {
        let net = line();
        let mut r = bfs_routes(&net);
        let s0 = net.node_by_name("s0").unwrap();
        let s1 = net.node_by_name("s1").unwrap();
        // Route s1's traffic for t1 back to s0: s0 <-> s1 ping-pong.
        r.set_next(s1, 1, net.channel_between(s1, s0).unwrap());
        let report = check(&net, &r);
        assert!(report.has(LintCode::ForwardingLoop));
        let d = report
            .diagnostics_for(LintCode::ForwardingLoop)
            .next()
            .unwrap();
        let Witness::TableLoop { channels, .. } = &d.witness else {
            panic!("V001 must carry a TableLoop witness");
        };
        assert_eq!(channels.len(), 2);
        // The loop chains: each channel's head is the next channel's tail.
        for w in channels.windows(2) {
            assert_eq!(net.channel(w[0]).dst, net.channel(w[1]).src);
        }
        assert_eq!(
            net.channel(*channels.last().unwrap()).dst,
            net.channel(channels[0]).src
        );
    }

    #[test]
    fn garbage_channel_is_v003() {
        let net = line();
        let mut r = bfs_routes(&net);
        let s0 = net.node_by_name("s0").unwrap();
        r.set_next(s0, 1, ChannelId(9999));
        let report = check(&net, &r);
        assert!(report.has(LintCode::InvalidNextHop));
        assert!(!report.clean());
    }

    #[test]
    fn foreign_channel_is_v003() {
        let net = line();
        let mut r = bfs_routes(&net);
        let s0 = net.node_by_name("s0").unwrap();
        let s1 = net.node_by_name("s1").unwrap();
        let t1 = net.node_by_name("t1").unwrap();
        // A real channel, but it leaves s1, not s0.
        r.set_next(s0, 1, net.channel_between(s1, t1).unwrap());
        let report = check(&net, &r);
        let d = report
            .diagnostics_for(LintCode::InvalidNextHop)
            .next()
            .unwrap();
        assert!(matches!(d.witness, Witness::NextHop { node, .. } if node == s0));
    }

    #[test]
    fn shape_mismatch_is_a_single_v003() {
        let net = line();
        let routes = bfs_routes(&net);
        // Vet those tables against a *different* network.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 36);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(t0, s0).unwrap();
        b.link(t1, s0).unwrap();
        let other = b.build();
        let report = check(&other, &routes);
        assert_eq!(report.count(LintCode::InvalidNextHop), 1);
        assert!(!report.clean());
        assert!(matches!(
            report.diagnostics[0].witness,
            Witness::Shape { .. }
        ));
    }

    #[test]
    fn overflowing_hw_vls_is_v005() {
        let net = line();
        let mut r = bfs_routes(&net);
        r.set_layer(0, 1, 3); // forces num_layers to 4
        let cfg = Config {
            hw_vls: Some(2),
            ..Config::default()
        };
        let report = analyze_with(&net, &r, &cfg);
        assert!(report.has(LintCode::VlOutOfRange));
        assert!(!report.clean());
    }

    #[test]
    fn detour_is_v006_with_stretch_witness() {
        // Triangle a-c, a-d, d-c: the a -> d -> c detour is one hop longer
        // than a -> c.
        let mut b = NetworkBuilder::new();
        let a = b.add_switch("a", 36);
        let c = b.add_switch("c", 36);
        let d = b.add_switch("d", 36);
        let ta = b.add_terminal("ta");
        let tc = b.add_terminal("tc");
        b.link(a, c).unwrap();
        b.link(a, d).unwrap();
        b.link(d, c).unwrap();
        b.link(ta, a).unwrap();
        b.link(tc, c).unwrap();
        let net = b.build();
        let mut r = bfs_routes(&net);
        // ta -> a -> d -> c -> tc (4 hops) instead of ta -> a -> c -> tc.
        let tc_t = net.terminal_index(tc).unwrap();
        r.set_next(a, tc_t, net.channel_between(a, d).unwrap());
        let report = check(&net, &r);
        assert!(report.has(LintCode::NonMinimalPath));
        let diag = report
            .diagnostics_for(LintCode::NonMinimalPath)
            .next()
            .unwrap();
        let Witness::Stretch {
            src,
            dst,
            hops,
            minimal,
        } = diag.witness
        else {
            panic!("V006 must carry a Stretch witness");
        };
        assert_eq!((src, dst, hops, minimal), (ta, tc, 4, 3));
        // Non-minimal alone is a warning, not an error.
        assert!(report.clean());
        assert_eq!(report.num_warnings(), 1);
    }

    #[test]
    fn cdg_cycle_on_ring_is_v004_with_chained_witness() {
        // 4-switch unidirectional-ish ring routed the "wrong way" so layer
        // 0's dependencies close a cycle: route everything clockwise.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 36)).collect();
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        for i in 0..4 {
            b.link(s[i], s[(i + 1) % 4]).unwrap();
            b.link(t[i], s[i]).unwrap();
        }
        let net = b.build();
        let mut r = fabric::Routes::new(&net, "clockwise");
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let host = net.channel(net.out_channels(dst)[0]).dst; // its switch
            for i in 0..4 {
                if t[i] == dst {
                    continue;
                }
                r.set_next(t[i], dst_t, net.channel_between(t[i], s[i]).unwrap());
            }
            for i in 0..4 {
                if s[i] == host {
                    r.set_next(s[i], dst_t, net.channel_between(s[i], dst).unwrap());
                } else {
                    r.set_next(
                        s[i],
                        dst_t,
                        net.channel_between(s[i], s[(i + 1) % 4]).unwrap(),
                    );
                }
            }
        }
        let report = check(&net, &r);
        assert!(report.has(LintCode::CdgCycle));
        assert!(!report.clean());
        assert_eq!(report.stats.cyclic_layers, vec![0]);
        let d = report.diagnostics_for(LintCode::CdgCycle).next().unwrap();
        let Witness::CdgCycle { channels, .. } = &d.witness else {
            panic!("V004 must carry a CdgCycle witness");
        };
        assert!(!channels.is_empty());
        // Witness channels chain: consecutive dependencies share a node.
        for w in channels.windows(2) {
            assert_eq!(net.channel(w[0]).dst, net.channel(w[1]).src);
        }
    }

    #[test]
    fn dependency_edges_follow_the_tables() {
        let net = line();
        let r = bfs_routes(&net);
        let edges = dependency_edges(&net, &r);
        assert_eq!(edges.len(), 1, "single-layer artifact");
        assert!(!edges[0].is_empty());
        // Every edge chains two channels through a node.
        for (a, b) in edges[0].iter() {
            assert_eq!(net.channel(ChannelId(a)).dst, net.channel(ChannelId(b)).src);
        }
        // An artifact for a different network contributes nothing.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let t0 = b.add_terminal("t0");
        b.link(t0, s0).unwrap();
        let other = b.build();
        assert!(dependency_edges(&other, &r).is_empty());
    }

    #[test]
    fn union_cycles_catch_update_window_hazards() {
        let net = line();
        let r = bfs_routes(&net);
        // A clean artifact unioned with itself stays clean.
        assert!(union_cycles(&net, &[&r, &r]).is_empty());

        // A ring routed all-clockwise toward one destination is an
        // acyclic dependency arc; two such artifacts toward *opposite*
        // destinations each stay acyclic, but their union closes the
        // ring — the classic update-window hazard.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 36)).collect();
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        for i in 0..4 {
            b.link(s[i], s[(i + 1) % 4]).unwrap();
            b.link(t[i], s[i]).unwrap();
        }
        let ring = b.build();
        let route_to = |dst: usize| {
            let mut r = fabric::Routes::new(&ring, format!("cw-to-{dst}"));
            for i in 0..4 {
                if i != dst {
                    r.set_next(t[i], dst, ring.channel_between(t[i], s[i]).unwrap());
                }
                let hop = if i == dst {
                    ring.channel_between(s[i], t[dst]).unwrap()
                } else {
                    ring.channel_between(s[i], s[(i + 1) % 4]).unwrap()
                };
                r.set_next(s[i], dst, hop);
            }
            r
        };
        let a = route_to(2);
        let b = route_to(0);
        assert!(union_cycles(&ring, &[&a]).is_empty(), "one arc is acyclic");
        assert!(union_cycles(&ring, &[&b]).is_empty(), "one arc is acyclic");
        let hazards = union_cycles(&ring, &[&a, &b]);
        assert_eq!(hazards.len(), 1, "the union closes the ring on layer 0");
        assert_eq!(hazards[0].0, 0);
        assert!(!hazards[0].1.is_empty());
        // The same search over artifacts already walked.
        let cfg = Config::default();
        let (wa, wb) = (walk_tables(&ring, &a, &cfg), walk_tables(&ring, &b, &cfg));
        assert_eq!(union_cycles_of(&[&wa, &wb]), hazards);
        assert!(union_cycles_of(&[&wa]).is_empty());
    }

    /// `s0 … s3` cabled in a ring with `t_i` on `s_i`, and shortest tables
    /// on it: toward `t_d` the neighbours of `s_d` take their one hop, and
    /// the opposite switch goes clockwise iff `cw[d]`, adding the one
    /// ring dependency of the column. Returns the ring, the tables and the
    /// clockwise channel out of each switch.
    fn opposite(cw: [bool; 4]) -> (Network, fabric::Routes, Vec<u32>) {
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        for i in 0..4 {
            b.link(s[i], s[(i + 1) % 4]).unwrap();
            b.link(t[i], s[i]).unwrap();
        }
        let ring = b.build();
        let hop = |a, b| ring.channel_between(a, b).unwrap();
        let mut r = fabric::Routes::new(&ring, "opposite");
        for d in 0..4 {
            let (next, prev, far) = (s[(d + 1) % 4], s[(d + 3) % 4], s[(d + 2) % 4]);
            r.set_next(s[d], d, hop(s[d], t[d]));
            r.set_next(next, d, hop(next, s[d]));
            r.set_next(prev, d, hop(prev, s[d]));
            r.set_next(far, d, hop(far, if cw[d] { prev } else { next }));
            for i in (0..4).filter(|&i| i != d) {
                r.set_next(t[i], d, hop(t[i], s[i]));
            }
        }
        let clockwise = (0..4).map(|i| hop(s[i], s[(i + 1) % 4]).0).collect();
        (ring, r, clockwise)
    }

    /// A walk of `r` whose layers have been searched, and a walk of each
    /// of `to` carried from it.
    fn carried<const N: usize>(
        net: &Network,
        r: &fabric::Routes,
        to: [&fabric::Routes; N],
    ) -> [TableWalk; N] {
        let base = walk_tables(net, r, &Config::default());
        assert!(base.cyclic_layers().is_empty());
        to.map(|to| {
            let walked = rewalk_tables((net, r, &base), net, to, &Config::default());
            assert!(walked.rewalked.is_some());
            walked
        })
    }

    #[test]
    fn a_union_cycle_through_both_walks_gains_is_found_from_their_heads() {
        // The base's clockwise dependencies run c0 → c1 → c2 (toward t2 and
        // t3). One walk turns toward t1 at s3 clockwise and gains c3 → c0,
        // the other toward t0 at s2 and gains c2 → c3: each alone is
        // acyclic, and the ring closes only through both gains.
        let (ring, base, c) = opposite([false, false, true, true]);
        let (_, via_c3, _) = opposite([false, true, true, true]);
        let (_, via_c2, _) = opposite([true, false, true, true]);
        let [a, b] = carried(&ring, &base, [&via_c3, &via_c2]);
        assert!(a.cyclic_layers().is_empty() && b.cyclic_layers().is_empty());
        let heads = union_heads(&[&a, &b]);
        let [Some(heads)] = &heads[..] else {
            panic!("one layer, searched from heads: {heads:?}")
        };
        assert!(heads.contains(&c[0]) && heads.contains(&c[3]), "{heads:?}");
        let hazards = union_cycles_of(&[&a, &b]);
        assert_eq!(hazards, union_cycles_in(&[&a.edges, &b.edges]));
        let mut cycle: Vec<u32> = hazards[0].1.iter().map(|c| c.0).collect();
        let mut ring = c;
        cycle.sort_unstable();
        ring.sort_unstable();
        assert_eq!(cycle, ring, "the witness is the ring");
    }

    #[test]
    fn walks_carried_from_two_bases_search_the_union_from_every_channel() {
        // Each walk carries its own tables unchanged, so neither gains a
        // dependency; the union of what the two bases hold closes the ring.
        let (ring, via_c3, _) = opposite([false, true, true, true]);
        let (_, via_c2, _) = opposite([true, false, true, true]);
        let [a] = carried(&ring, &via_c3, [&via_c3]);
        let [b] = carried(&ring, &via_c2, [&via_c2]);
        assert_eq!(union_heads(&[&a, &b]), vec![None]);
        assert_eq!(union_heads(&[&a, &a]), vec![Some(Vec::new())]);
        let hazards = union_cycles_of(&[&a, &b]);
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards, union_cycles_in(&[&a.edges, &b.edges]));
    }

    #[test]
    fn a_walk_answers_what_the_analysis_reads_off_it() {
        let net = line();
        let mut r = bfs_routes(&net);
        let quiet = Config {
            check_minimal: false,
            ..Config::default()
        };
        let searches = || walk::HOP_SEARCHES.with(|n| n.get());

        // Clean tables: nothing is broken, the counters are the
        // report's, and without V006 no hop distance is ever computed.
        let before = searches();
        let walked = walk_tables(&net, &r, &quiet);
        assert_eq!(searches(), before, "clean walk read hop distances");
        assert_eq!(walked.broken, vec![false; 3]);
        assert_eq!((walked.num_errors(), walked.diagnostics().len()), (0, 0));
        assert!(walked.cyclic_layers().is_empty());
        let report = check(&net, &r);
        assert_eq!(searches(), before + 3, "V006 reads one BFS per destination");
        assert_eq!(walked.pairs_routed, report.stats.pairs_routed);
        assert_eq!(walked.edges, dependency_edges(&net, &r));
        assert_eq!(walked.num_layers, r.num_layers());

        // s0 forgets t1: exactly that destination is broken, and
        // classifying the failed walk is what reads the distances.
        r.clear_next(net.node_by_name("s0").unwrap(), 1);
        let before = searches();
        let walked = walk_tables(&net, &r, &quiet);
        assert_eq!(searches(), before + 1);
        assert_eq!(walked.broken, vec![false, true, false]);
        assert_eq!(walked.num_errors(), 1);
        assert_eq!(walked.diagnostics()[0].code, LintCode::MissingEntry);
        assert_eq!(walked.pairs_broken, 1);

        // s0 - s1 - s2 with t0, t1, t2 on them in turn; toward t2, s0 and
        // s1 ping-pong (both t0 and t1 enter the loop) and s2, which no
        // terminal's walk reaches, has no entry: one V001 error, then one
        // latent V002 warning, off one row of hop distances.
        let mut b = NetworkBuilder::new();
        let s: Vec<_> = (0..3).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        for (i, &sw) in s.iter().enumerate() {
            let t = b.add_terminal(format!("t{i}"));
            b.link(t, sw).unwrap();
        }
        b.link(s[0], s[1]).unwrap();
        b.link(s[1], s[2]).unwrap();
        let chain = b.build();
        let mut r = bfs_routes(&chain);
        r.set_next(s[1], 2, chain.channel_between(s[1], s[0]).unwrap());
        r.clear_next(s[2], 2);
        let before = searches();
        let walked = walk_tables(&chain, &r, &quiet);
        assert_eq!(searches(), before + 1);
        let found: Vec<_> = walked
            .diagnostics()
            .iter()
            .map(|d| (d.code, d.severity))
            .collect();
        assert_eq!(
            found,
            [
                (LintCode::ForwardingLoop, Severity::Error),
                (LintCode::MissingEntry, Severity::Warning)
            ]
        );
        assert!(
            matches!(walked.diagnostics()[1].witness, Witness::Entry { node, .. } if node == s[2])
        );
        assert_eq!(walked.broken, vec![false, false, true]);
        assert_eq!((walked.pairs_broken, walked.pairs_routed), (2, 4));

        // A walk of foreign tables is one V003 and nothing else.
        let other = {
            let mut b = NetworkBuilder::new();
            let s0 = b.add_switch("s0", 4);
            let t0 = b.add_terminal("t0");
            b.link(t0, s0).unwrap();
            b.build()
        };
        let walked = walk_tables(&other, &r, &quiet);
        assert_eq!((walked.num_errors(), walked.pairs), (1, 0));
        assert!(walked.edges.is_empty() && walked.broken.is_empty());
    }

    #[test]
    fn a_rewalk_keeps_exact_counts() {
        // t0 on s0, 300 terminals on s1: every path from t0 into s1 turns
        // through (t0 → s0, s0 → s1), a count of 300. Moving 60 of those
        // columns to layer 1 and back moves 60 of that count between the
        // layers; each re-walk counts what a count of every column does.
        let mut b = NetworkBuilder::new();
        let (s0, s1) = (b.add_switch("s0", 2), b.add_switch("s1", 301));
        b.link(s0, s1).unwrap();
        let t0 = b.add_terminal("t0");
        b.link(t0, s0).unwrap();
        for i in 0..300 {
            let t = b.add_terminal(format!("t{}", i + 1));
            b.link(t, s1).unwrap();
        }
        let net = b.build();
        // Both ends on two layers: one path into t0 rides layer 1.
        let mut flat = bfs_routes(&net);
        flat.set_layer(1, 0, 1);
        flat.recompute_num_layers();
        let mut moved = flat.clone();
        for d in 1..=60 {
            (0..net.num_terminals()).for_each(|s| moved.set_layer(s, d, 1));
        }
        let cfg = Config::default();
        let mut base = walk_tables(&net, &flat, &cfg);
        for (step, (from, to)) in [(&flat, &moved), (&moved, &flat), (&flat, &moved)]
            .into_iter()
            .enumerate()
        {
            let walked = rewalk_tables((&net, from, &base), &net, to, &cfg);
            let fresh = walk_tables(&net, to, &cfg);
            assert_eq!(walked.rewalked, Some((60, 60)), "step {step}");
            assert!(walked.unbroken_edges == fresh.unbroken_edges, "step {step}");
            assert_eq!(
                walked.counts(&net, to),
                fresh.counts(&net, to),
                "step {step}"
            );
            base = walked;
        }
    }

    #[test]
    fn renderers_mention_code_and_summary() {
        let net = line();
        let mut r = bfs_routes(&net);
        r.clear_next(net.node_by_name("s0").unwrap(), 1);
        let report = check(&net, &r);
        let human = report.render_human();
        assert!(human.contains("V002"));
        assert!(human.contains("summary:"));
        let json = telemetry::json::parse(&report.to_json()).unwrap();
        let first = &json.get("diagnostics").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("code").unwrap().as_str(), Some("MissingEntry"));
        assert_eq!(
            json.get("stats")
                .unwrap()
                .get("pairs_broken")
                .unwrap()
                .as_u64(),
            Some(report.stats.pairs_broken as u64)
        );
    }
}
