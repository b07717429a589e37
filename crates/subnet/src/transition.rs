//! Safe table transitions: remapping an old routing onto a changed
//! fabric and planning the update window.
//!
//! Reprogramming a live fabric is not atomic: while the SM walks the
//! switches, in-flight packets can follow any mix of old and new
//! entries. The update window is deadlock-safe iff the *union* of the
//! old and new per-layer channel dependency graphs is acyclic (the
//! Dally & Seitz condition applied to the mixed state). When it is,
//! tables can be pushed directly; when it is not, [`plan_update`] emits
//! a destination-batched drain-and-swap plan whose every intermediate
//! state is vetted.
//!
//! The safety argument for a staged plan: each stage drains traffic
//! toward its destination batch before swapping those columns, so
//! during a stage's window the *active* dependency edges are a subset
//! of the stage's post-state edges — and every post-state is checked
//! acyclic with `vet` before the plan is emitted.
//!
//! The planner reads two table walks ([`vet::TableWalk`]), one per end
//! of the transition: the union hazards come from both walks' edge
//! sets, the already-broken destinations from the old walk, and the
//! bulk-drain stage's verdict from the new walk — which, inside
//! [`crate::events::SmLoop`], is the walk the deploy guard already made
//! of the same tables. Only the hybrid states in between are distinct
//! artifacts, and each of those is walked once by [`vet_ok`]. Every full
//! walk in this crate goes through [`walk_artifact`], and every per-layer
//! cycle search through the [`Walked`] it returns, which runs it at most
//! once however many callers ask — so a test can count both.

use fabric::{ChannelId, Network, NodeId, Routes};
use telemetry::fx::{FxHashMap, FxHashSet};
use vet::TableWalk;

/// Beyond this many changed destinations the per-stage vetting cost of
/// greedy batching is not worth it; the plan falls back to one drained
/// bulk stage (safe by construction, just slower for the fabric).
const MAX_GREEDY_DESTS: usize = 64;

/// One stage of a staged update: swap the table columns of `dests`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateStage {
    /// Terminal indices whose columns this stage reprograms.
    pub dests: Vec<usize>,
    /// Switch-table entries rewritten by this stage (SMP set cost).
    pub entries: usize,
    /// Whether traffic toward `dests` must be drained before the swap.
    pub drained: bool,
    /// Whether the stage's post-state passed the static analyzer.
    pub vetted: bool,
}

/// A plan for moving the fabric from one programmed state to another.
/// The default is empty, like [`UpdatePlan::noop`], but not marked
/// direct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdatePlan {
    /// The union CDG was acyclic: all entries can be pushed in one
    /// unsynchronized sweep.
    pub direct: bool,
    /// The stages, in order. Empty means nothing changed.
    pub stages: Vec<UpdateStage>,
    /// Layers whose old∪new dependency graph was cyclic (the reason the
    /// plan is staged). Empty for direct plans.
    pub hazard_layers: Vec<u8>,
}

impl UpdatePlan {
    /// A plan for "nothing changed".
    pub fn noop() -> Self {
        UpdatePlan {
            direct: true,
            stages: Vec::new(),
            hazard_layers: Vec::new(),
        }
    }

    /// Total switch-table entries rewritten across all stages.
    pub fn total_entries(&self) -> usize {
        self.stages.iter().map(|s| s.entries).sum()
    }

    /// Whether every stage's post-state passed the analyzer.
    pub fn all_vetted(&self) -> bool {
        self.stages.iter().all(|s| s.vetted)
    }

    /// Short human description: `no-op`, `direct`, `staged(3)`,
    /// `staged(2)+drain`.
    pub fn describe(&self) -> String {
        if self.stages.is_empty() {
            return "no-op".into();
        }
        if self.direct {
            return "direct".into();
        }
        let drain = if self.stages.iter().any(|s| s.drained) {
            "+drain"
        } else {
            ""
        };
        format!("staged({}){drain}", self.stages.len())
    }
}

/// A source of cheaper, already-certified update plans.
///
/// An incremental routing engine that just computed `new` from `old`
/// knows *which* destination columns it touched and whether the mixed
/// old∪new state is acyclic — evidence [`plan_update`] would have to
/// re-derive from scratch. Implementors return `Some(plan)` when they
/// hold a valid safety certificate for this exact `(old, new)` pair and
/// `None` otherwise; callers fall back to [`plan_update`] on `None`, so
/// a provider never has to be conservative about *planning*, only about
/// *certifying*.
pub trait DiffPlanProvider {
    /// A transition plan for `old -> new` on `net`, or `None` if no
    /// certificate covering this pair is held. `hw_vls` is the hardware
    /// VL budget any staged vetting must respect.
    fn diff_plan(
        &self,
        net: &Network,
        old: &Routes,
        new: &Routes,
        hw_vls: usize,
    ) -> Option<UpdatePlan>;
}

/// Re-express `old` (tables for `old_net`) against `new_net`.
///
/// Nodes are matched by name and channels by `(source node, source
/// port)` — the invariant `degrade` preserves. Entries whose node,
/// channel, or destination no longer exists are dropped; virtual layers
/// of surviving terminal pairs are carried over. The result always has
/// `new_net`'s shape, so it can be compared and vetted against the new
/// network (expect broken pairs where hardware vanished).
///
/// The matching is done once per node and once per channel; the entries
/// are then copied one destination column at a time, each translated
/// through the channel table.
pub fn remap_routes(old_net: &Network, old: &Routes, new_net: &Network) -> Routes {
    let mut routes = Routes::new(new_net, old.engine());
    // Old node id per new node, matched by name (the first old node of
    // that name), and per old node the last new node matched to it.
    let mut by_name: FxHashMap<&str, NodeId> = FxHashMap::default();
    for (id, n) in old_net.nodes() {
        by_name.entry(&n.name).or_insert(id);
    }
    let old_node: Vec<Option<NodeId>> = new_net
        .nodes()
        .map(|(_, n)| by_name.get(n.name.as_str()).copied())
        .collect();
    let mut twin = vec![None; old_net.num_nodes()];
    for ((n, _), o) in new_net.nodes().zip(&old_node) {
        if let Some(o) = o {
            twin[o.idx()] = Some(n);
        }
    }
    // Old terminal index per new terminal index, if the old tables have it.
    let old_t: Vec<Option<usize>> = new_net
        .terminals()
        .iter()
        .map(|&t| old_node[t.idx()].and_then(|o| old_net.terminal_index(o)))
        .map(|o| o.filter(|&o| o < old.num_terminals()))
        .collect();
    // The channel leaving new node `n` over `port` (ports are unique per
    // node), and per old channel its source and that channel at the
    // source's twin. An entry at `n` translates through the table when
    // it leaves `n`'s old node and `n` is that node's twin; any other
    // entry is looked up at `n` by port, as it always was.
    let port_at = |n: NodeId, port: u16| {
        let mut out = new_net.out_channels(n).iter().copied();
        out.find(|&c| new_net.channel(c).src_port == port)
    };
    let via: Vec<(NodeId, Option<ChannelId>)> = old_net
        .channels()
        .map(|(_, ch)| {
            (
                ch.src,
                twin[ch.src.idx()].and_then(|n| port_at(n, ch.src_port)),
            )
        })
        .collect();
    for (new_dst, od) in old_t.iter().enumerate() {
        let Some(od) = *od else { continue };
        let (next, layers) = old.column(od);
        for ((n, _), o) in new_net.nodes().zip(&old_node) {
            let Some(o) = *o else { continue };
            let ch = next[o.idx()];
            if ch == u32::MAX {
                continue;
            }
            let c = match via[ch as usize] {
                (src, c) if src == o && twin[o.idx()] == Some(n) => c,
                _ => port_at(n, old_net.channel(ChannelId(ch)).src_port),
            };
            if let Some(c) = c {
                routes.set_next(n, new_dst, c);
            }
        }
        for (new_src, os) in old_t.iter().enumerate() {
            if let Some(os) = *os {
                routes.set_layer(new_src, new_dst, layers[os]);
            }
        }
    }
    routes.recompute_num_layers();
    routes
}

/// Which end of a transition a walked artifact is — what
/// [`walk_artifact`] counts by.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Artifact {
    /// The routing being deployed.
    New,
    /// The serving routing, remapped onto the new view.
    Old,
    /// A mix of old and new columns: one stage's post-state.
    Hybrid,
}

/// A walked artifact that remembers which of its layers are cyclic once
/// somebody asked: the deploy guard and the planner's bulk-drain stage
/// both ask it of the new routing's walk.
pub(crate) struct Walked {
    pub(crate) table: TableWalk,
    cyclic: std::sync::OnceLock<Vec<u8>>,
}

impl Walked {
    /// The layers whose dependency edges close a cycle (the V004 search,
    /// run on first use).
    pub(crate) fn cyclic_layers(&self) -> &[u8] {
        self.cyclic.get_or_init(|| {
            #[cfg(test)]
            SEARCHES.set(SEARCHES.get() + 1);
            let cyclic = self.table.cyclic_layers();
            cyclic.into_iter().map(|(layer, _)| layer).collect()
        })
    }
}

/// The one full-table walk of this crate: the deploy guard, the planner
/// and every hybrid vetting call it, so the walks of an event can be
/// counted. Minimality is nobody's question here, which also keeps the
/// per-destination hop distances unread on clean tables.
#[cfg_attr(not(test), allow(unused_variables))]
pub(crate) fn walk_artifact(net: &Network, routes: &Routes, which: Artifact) -> Walked {
    #[cfg(test)]
    WALKS.with(|w| {
        let mut counts = w.get();
        counts[which as usize] += 1;
        w.set(counts);
    });
    let cfg = vet::Config {
        check_minimal: false,
        ..vet::Config::default()
    };
    Walked {
        table: vet::walk_tables(net, routes, &cfg),
        cyclic: std::sync::OnceLock::new(),
    }
}

#[cfg(test)]
thread_local! {
    /// Full-table walks on this thread, indexed by [`Artifact`] — the
    /// deterministic cost pin of a handled event.
    pub(crate) static WALKS: std::cell::Cell<[usize; 3]> = const { std::cell::Cell::new([0; 3]) };
    /// Per-layer cycle searches of walked artifacts on this thread.
    pub(crate) static SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Whether a walked artifact is deployable: walkable, within the VL
/// budget, and — the point of the exercise — acyclic per layer.
fn deployable(walk: &Walked, hw_vls: usize) -> bool {
    let table = &walk.table;
    table.num_layers as usize <= hw_vls
        && table.num_errors() == 0
        && walk.cyclic_layers().is_empty()
}

/// Plan the transition from `old` to `new` on `net`.
///
/// `old` must already be expressed against `net` (see
/// [`remap_routes`]); pass `None` for an initial bring-up. `hw_vls` is
/// the hardware VL budget the per-stage vetting enforces.
pub fn plan_update(net: &Network, old: Option<&Routes>, new: &Routes, hw_vls: usize) -> UpdatePlan {
    plan_update_walked(net, old, new, None, hw_vls)
}

/// [`plan_update`] for a caller that has already walked `new` on `net`
/// (the deploy guard): `new_walk` is read instead of walking the same
/// tables again. `None` walks them here, if the plan needs a walk at all.
pub(crate) fn plan_update_walked(
    net: &Network,
    old: Option<&Routes>,
    new: &Routes,
    new_walk: Option<&Walked>,
    hw_vls: usize,
) -> UpdatePlan {
    let nt = net.num_terminals();
    let old = old.filter(|o| o.num_nodes() == net.num_nodes() && o.num_terminals() == nt);
    let Some(old) = old else {
        // Nothing programmed yet: no in-flight traffic, direct is safe.
        let entries = |d| column_entries(net, new, d);
        return direct(stage((0..nt).collect(), entries, false, true));
    };

    let changed: Vec<usize> = (0..nt)
        .filter(|&d| column_differs(net, old, new, d))
        .collect();
    if changed.is_empty() {
        return UpdatePlan::noop();
    }

    let mut walked_here = None;
    let new_walk = match new_walk {
        Some(walk) => walk,
        None => walked_here.insert(walk_artifact(net, new, Artifact::New)),
    };
    // The old walk's edge sets are dead weight once the union is
    // searched; only its per-destination verdicts live on.
    let (hazards, old_broken) = {
        let old_walk = walk_artifact(net, old, Artifact::Old);
        let hazards = vet::union_cycles_of(&[&old_walk.table, &new_walk.table]);
        (hazards, old_walk.table.broken)
    };
    let swap = |d| column_swap_entries(net, old, new, d);
    if hazards.is_empty() {
        return direct(stage(changed, swap, false, true));
    }
    let hazard_layers: Vec<u8> = hazards.iter().map(|(l, _)| *l).collect();

    // Staged drain-and-swap. Stage 0: destinations whose old routes are
    // already broken — no working traffic toward them exists, so their
    // columns swap first (drained trivially).
    let mut stages = Vec::new();
    let mut swapped: FxHashSet<usize> = FxHashSet::default();
    let mut hybrid = old.clone();
    let broken: Vec<usize> = changed.iter().copied().filter(|&d| old_broken[d]).collect();
    let mut stalled = false;
    if !broken.is_empty() {
        for &d in &broken {
            apply_column(&mut hybrid, new, d);
        }
        if vet_ok(net, &mut hybrid, hw_vls) {
            swapped.extend(broken.iter().copied());
            stages.push(stage(broken, swap, true, true));
        } else {
            // Swapping only the broken columns still leaves a hazardous
            // mix; fold them into the bulk drain below instead.
            hybrid = old.clone();
            stalled = true;
        }
    }

    let mut remaining: Vec<usize> = changed
        .iter()
        .copied()
        .filter(|d| !swapped.contains(d))
        .collect();
    if remaining.len() > MAX_GREEDY_DESTS {
        stalled = true;
    }
    while !stalled && !remaining.is_empty() {
        let mut batch = Vec::new();
        let mut deferred = Vec::new();
        for &d in &remaining {
            let before = snapshot_column(&hybrid, d);
            apply_column(&mut hybrid, new, d);
            if vet_ok(net, &mut hybrid, hw_vls) {
                batch.push(d);
            } else {
                rollback_column(&mut hybrid, &before, d);
                deferred.push(d);
            }
        }
        if batch.is_empty() {
            stalled = true;
            break;
        }
        stages.push(stage(batch, swap, true, true));
        remaining = deferred;
    }
    if stalled && !remaining.is_empty() {
        // Bulk drain: with traffic toward every remaining destination
        // drained, only the post-state's edges are active — and the
        // post-state is the full new routing, whose walk is in hand.
        stages.push(stage(remaining, swap, true, deployable(new_walk, hw_vls)));
    }
    UpdatePlan {
        direct: false,
        stages,
        hazard_layers,
    }
}

/// A one-stage plan, pushed in one unsynchronized sweep.
fn direct(stage: UpdateStage) -> UpdatePlan {
    UpdatePlan {
        direct: true,
        stages: vec![stage],
        hazard_layers: Vec::new(),
    }
}

/// The stage swapping the columns of `dests`, at `entries(d)` switch-table
/// writes per column.
fn stage(
    dests: Vec<usize>,
    entries: impl Fn(usize) -> usize,
    drained: bool,
    vetted: bool,
) -> UpdateStage {
    UpdateStage {
        entries: dests.iter().map(|&d| entries(d)).sum(),
        dests,
        drained,
        vetted,
    }
}

/// Whether any table entry of `net`'s nodes or layer of its terminals
/// differs in destination column `d`.
pub fn column_differs(net: &Network, old: &Routes, new: &Routes, d: usize) -> bool {
    let ((old_next, old_layers), (new_next, new_layers)) = (old.column(d), new.column(d));
    let (nn, nt) = (net.num_nodes(), net.num_terminals());
    old_next[..nn] != new_next[..nn] || old_layers[..nt] != new_layers[..nt]
}

/// Switch-table entries set in `new`'s column `d` (bring-up cost).
fn column_entries(net: &Network, new: &Routes, d: usize) -> usize {
    let (next, _) = new.column(d);
    net.switches()
        .iter()
        .filter(|s| next[s.idx()] != u32::MAX)
        .count()
}

/// Switch-table entries that differ between the two columns (SMP cost).
pub fn column_swap_entries(net: &Network, old: &Routes, new: &Routes, d: usize) -> usize {
    let ((old_next, _), (new_next, _)) = (old.column(d), new.column(d));
    net.switches()
        .iter()
        .filter(|s| old_next[s.idx()] != new_next[s.idx()])
        .count()
}

/// One destination column of a routing, as [`Routes::column`] reads it.
type Column = (Vec<u32>, Vec<u8>);

fn snapshot_column(r: &Routes, d: usize) -> Column {
    let (next, layers) = r.column(d);
    (next.to_vec(), layers.to_vec())
}

fn apply_column(r: &mut Routes, from: &Routes, d: usize) {
    let (next, layers) = from.column(d);
    r.set_column(d, next, layers);
}

fn rollback_column(r: &mut Routes, (next, layers): &Column, d: usize) {
    r.set_column(d, next, layers);
}

/// Vet one intermediate (hybrid) state with a walk of its own. The
/// network is constant across an update window, so its V007 verdict is
/// decided once by the ladder and the publish gate, not per stage.
fn vet_ok(net: &Network, r: &mut Routes, hw_vls: usize) -> bool {
    r.recompute_num_layers();
    deployable(&walk_artifact(net, r, Artifact::Hybrid), hw_vls)
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{dest_broken, route, without, zoo};
    use super::*;
    use dfsssp_core::{ComputeCtx, DfSssp, RoutingEngine};
    use fabric::{degrade, topo, ChannelId};
    use telemetry::fx::FxHashSet;

    #[test]
    fn remap_onto_the_same_network_is_identity() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        let m = remap_routes(&net, &r, &net);
        for (id, _) in net.nodes() {
            for d in 0..net.num_terminals() {
                assert_eq!(m.next_hop(id, d), r.next_hop(id, d));
            }
        }
        for s in 0..net.num_terminals() {
            for d in 0..net.num_terminals() {
                assert_eq!(m.layer(s, d), r.layer(s, d));
            }
        }
        assert_eq!(m.num_layers(), r.num_layers());
    }

    #[test]
    fn remap_drops_entries_through_vanished_hardware() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        // Kill one switch-switch cable.
        let cable = net
            .channels()
            .find(|(_, c)| net.is_switch(c.src) && net.is_switch(c.dst))
            .map(|(id, _)| id)
            .unwrap();
        let mut dead = FxHashSet::default();
        dead.insert(cable);
        if let Some(rev) = net.channel(cable).rev {
            dead.insert(rev);
        }
        let degraded = degrade::remove(&net, &FxHashSet::default(), &dead);
        let m = remap_routes(&net, &r, &degraded);
        assert_eq!(m.num_nodes(), degraded.num_nodes());
        assert_eq!(m.num_terminals(), degraded.num_terminals());
        // The old routing used that cable, so at least one destination
        // must now be broken in the remapped tables.
        let broken = (0..degraded.num_terminals())
            .filter(|&d| dest_broken(&degraded, &m, d))
            .count();
        assert!(broken > 0, "removing a used cable must break a column");
        // And no surviving entry may point at a channel that is gone.
        for (id, _) in degraded.nodes() {
            for d in 0..degraded.num_terminals() {
                if let Some(c) = m.next_hop(id, d) {
                    assert_eq!(degraded.channel(c).src, id);
                }
            }
        }
    }

    /// [`remap_routes`] as it stood before it translated through a channel
    /// table: every node matched by a linear name search, every entry by a
    /// hash look-up of its port at its new node, row by row.
    fn remap_routes_reference(old_net: &Network, old: &Routes, new_net: &Network) -> Routes {
        let mut routes = Routes::new(new_net, old.engine());
        // Old node id per new node, matched by name.
        let old_node: Vec<Option<NodeId>> = new_net
            .nodes()
            .map(|(_, n)| old_net.node_by_name(&n.name))
            .collect();
        // Old terminal index per new terminal index.
        let old_t: Vec<Option<usize>> = new_net
            .terminals()
            .iter()
            .map(|&t| old_node[t.idx()].and_then(|o| old_net.terminal_index(o)))
            .collect();
        // (src node, src port) -> channel in the new network.
        let mut by_port: FxHashMap<(u32, u16), u32> = FxHashMap::default();
        for (id, ch) in new_net.channels() {
            by_port.insert((ch.src.0, ch.src_port), id.0);
        }
        for (new_id, _) in new_net.nodes() {
            let Some(o) = old_node[new_id.idx()] else {
                continue;
            };
            for (new_dst, old_dst) in old_t.iter().enumerate() {
                let Some(od) = *old_dst else { continue };
                if od >= old.num_terminals() {
                    continue;
                }
                let Some(ch) = old.next_hop(o, od) else {
                    continue;
                };
                let port = old_net.channel(ch).src_port;
                if let Some(&c) = by_port.get(&(new_id.0, port)) {
                    routes.set_next(new_id, new_dst, ChannelId(c));
                }
            }
        }
        for (new_src, old_src) in old_t.iter().enumerate() {
            let Some(os) = *old_src else { continue };
            for (new_dst, old_dst) in old_t.iter().enumerate() {
                let Some(od) = *old_dst else { continue };
                if os < old.num_terminals() && od < old.num_terminals() {
                    routes.set_layer(new_src, new_dst, old.layer(os, od));
                }
            }
        }
        routes.recompute_num_layers();
        routes
    }

    /// Both remaps of `old` (tables for `from`) onto `onto`, whole tables
    /// compared.
    fn assert_remap_matches(from: &Network, old: &Routes, onto: &Network, what: &str) -> Routes {
        let want = remap_routes_reference(from, old, onto);
        assert_eq!(remap_routes(from, old, onto), want, "{what}");
        want
    }

    #[test]
    fn remap_equals_the_reference_across_the_zoo() {
        for net in zoo() {
            let pristine = route(&net);
            let label = net.label().to_string();
            assert_remap_matches(&net, &pristine, &net, &format!("{label} onto itself"));
            // Cables down, and back up from the remapped tables: every cable,
            // or 64 spread evenly over a larger fabric's (host links too).
            let cables: Vec<ChannelId> = net
                .channels()
                .filter(|(id, ch)| ch.rev.is_none_or(|r| r.0 > id.0))
                .map(|(id, _)| id)
                .collect();
            for &c in cables.iter().step_by(cables.len().div_ceil(64)) {
                let degraded = without(&net, c);
                let what = format!("{label} cable {} down", c.0);
                let down = assert_remap_matches(&net, &pristine, &degraded, &what);
                let what = format!("{label} cable {} up", c.0);
                assert_remap_matches(&degraded, &down, &net, &what);
            }
            // A switch down, and the core a stranding one leaves.
            for sw in [net.switches()[0], *net.switches().last().unwrap()] {
                let dead = std::iter::once(sw).collect();
                let view = degrade::remove(&net, &dead, &FxHashSet::default());
                let what = format!("{label} switch {} down", sw.0);
                let down = assert_remap_matches(&net, &pristine, &view, &what);
                assert_remap_matches(&view, &down, &net, &format!("{what}, back up"));
                let (core, _) = degrade::extract_core(&view);
                assert_remap_matches(&net, &pristine, &core, &format!("{what}, its core"));
            }
        }
    }

    #[test]
    fn remap_of_hand_built_oddities_equals_the_reference() {
        // t0 - s0 - s1 - t1, and a second t2 on s1.
        let line = |extra_s0: bool| {
            let mut b = fabric::NetworkBuilder::new();
            let (s0, s1) = (b.add_switch("s0", 8), b.add_switch("s1", 8));
            let (t0, t1, t2) = (
                b.add_terminal("t0"),
                b.add_terminal("t1"),
                b.add_terminal("t2"),
            );
            for (u, v) in [(s0, s1), (t0, s0), (t1, s1), (t2, s1)] {
                b.link(u, v).unwrap();
            }
            if extra_s0 {
                // A second node named `s0`: both new `s0`s match the old one.
                let twin = b.add_switch("s0", 8);
                b.link(twin, s1).unwrap();
            }
            b.build()
        };
        let net = line(false);
        let mut old = route(&net);
        let node = |name| net.node_by_name(name).unwrap();
        // An entry naming a channel that leaves another node: the port it
        // names is looked up at the entry's own node.
        let foreign = net.channel_between(node("s1"), node("t2")).unwrap();
        old.set_next(node("s0"), 1, foreign);
        old.set_next(
            node("t0"),
            2,
            net.channel_between(node("s0"), node("s1")).unwrap(),
        );
        let cut = without(&net, net.channel_between(node("s0"), node("s1")).unwrap());
        for (onto, what) in [
            (&net, "same net"),
            (&line(true), "twin names"),
            (&cut, "cut"),
        ] {
            assert_remap_matches(&net, &old, onto, what);
        }
    }

    #[test]
    fn unchanged_routing_plans_a_noop() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        let plan = plan_update(&net, Some(&r), &r, 8);
        assert!(plan.direct);
        assert!(plan.stages.is_empty());
        assert_eq!(plan.describe(), "no-op");
        assert_eq!(plan.total_entries(), 0);
    }

    #[test]
    fn bring_up_plans_direct() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        let plan = plan_update(&net, None, &r, 8);
        assert!(plan.direct);
        assert_eq!(plan.stages.len(), 1);
        assert!(!plan.stages[0].drained);
        assert!(plan.total_entries() > 0);
        assert_eq!(plan.describe(), "direct");
    }

    #[test]
    fn acyclic_union_goes_direct() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        // Move one pair to a fresh (empty) layer: its new edges are a
        // subset of a single acyclic path, the union stays clean.
        let mut r2 = r.clone();
        r2.set_layer(0, 1, r.num_layers());
        r2.recompute_num_layers();
        let plan = plan_update(&net, Some(&r), &r2, 8);
        assert!(plan.direct, "union of old and new must be acyclic");
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.stages[0].dests, vec![1]);
        assert!(plan.hazard_layers.is_empty());
    }

    /// All-clockwise routing on ring(4,1), with destination layers as
    /// given. Clockwise means following each switch's channel to the
    /// next higher-index switch (wrapping).
    pub(super) fn clockwise(net: &fabric::Network, dest_layer: &[u8]) -> Routes {
        let sw: Vec<_> = net.switches().to_vec();
        let step: Vec<ChannelId> = (0..sw.len())
            .map(|i| net.channel_between(sw[i], sw[(i + 1) % sw.len()]).unwrap())
            .collect();
        let mut r = Routes::new(net, "cw-test");
        for (d, &dst) in net.terminals().iter().enumerate() {
            let home = net
                .out_channels(dst)
                .iter()
                .map(|&c| net.channel(c).dst)
                .find(|&n| net.is_switch(n))
                .unwrap();
            let home_i = sw.iter().position(|&s| s == home).unwrap();
            for (i, &s) in sw.iter().enumerate() {
                if i == home_i {
                    r.set_next(s, d, net.channel_between(s, dst).unwrap());
                } else {
                    r.set_next(s, d, step[i]);
                }
            }
            for (s, &src) in net.terminals().iter().enumerate() {
                if src == dst {
                    continue;
                }
                let inj = net
                    .out_channels(src)
                    .iter()
                    .copied()
                    .find(|&c| net.is_switch(net.channel(c).dst))
                    .unwrap();
                r.set_next(src, d, inj);
                r.set_layer(s, d, dest_layer[d]);
            }
        }
        r.recompute_num_layers();
        r
    }

    #[test]
    fn cyclic_union_forces_a_staged_plan() {
        let net = topo::ring(4, 1);
        // Both routings are individually clean (each layer's clockwise
        // arcs stop short of closing the ring), but swapping the layer
        // split makes each layer's union close the cycle.
        let old = clockwise(&net, &[0, 0, 1, 1]);
        let new = clockwise(&net, &[1, 1, 0, 0]);
        assert!(vet::analyze(&net, &old).clean());
        assert!(vet::analyze(&net, &new).clean());
        assert!(!vet::union_cycles(&net, &[&old, &new]).is_empty());

        let plan = plan_update(&net, Some(&old), &new, 8);
        assert!(!plan.direct);
        assert!(!plan.hazard_layers.is_empty());
        assert!(!plan.stages.is_empty());
        assert!(plan.all_vetted(), "every stage post-state must be clean");
        assert!(plan.stages.iter().any(|s| s.drained));
        assert!(plan.describe().starts_with("staged("));
        // Every changed destination is covered exactly once.
        let mut seen = FxHashSet::default();
        for s in &plan.stages {
            for &d in &s.dests {
                assert!(seen.insert(d), "dest {d} appears in two stages");
            }
        }
        assert_eq!(seen.len(), net.num_terminals());
    }
}
