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

use fabric::{Network, NodeId, Routes};
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
pub fn remap_routes(old_net: &Network, old: &Routes, new_net: &Network) -> Routes {
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
                routes.set_next(new_id, new_dst, fabric::ChannelId(c));
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
        let dests: Vec<usize> = (0..nt).collect();
        let entries = dests.iter().map(|&d| column_entries(net, new, d)).sum();
        return UpdatePlan {
            direct: true,
            stages: vec![UpdateStage {
                dests,
                entries,
                drained: false,
                vetted: true,
            }],
            hazard_layers: Vec::new(),
        };
    };

    let changed: Vec<usize> = (0..nt)
        .filter(|&d| column_differs(net, old, new, d))
        .collect();
    if changed.is_empty() {
        return UpdatePlan::noop();
    }

    let walked_here;
    let new_walk = match new_walk {
        Some(walk) => walk,
        None => {
            walked_here = walk_artifact(net, new, Artifact::New);
            &walked_here
        }
    };
    // The old walk's edge sets are dead weight once the union is
    // searched; only its per-destination verdicts live on.
    let (hazards, old_broken) = {
        let old_walk = walk_artifact(net, old, Artifact::Old);
        let hazards = vet::union_cycles_of(&[&old_walk.table, &new_walk.table]);
        (hazards, old_walk.table.broken)
    };
    if hazards.is_empty() {
        let entries = changed
            .iter()
            .map(|&d| column_swap_entries(net, old, new, d))
            .sum();
        return UpdatePlan {
            direct: true,
            stages: vec![UpdateStage {
                dests: changed,
                entries,
                drained: false,
                vetted: true,
            }],
            hazard_layers: Vec::new(),
        };
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
            apply_column(net, &mut hybrid, new, d);
        }
        if vet_ok(net, &mut hybrid, hw_vls) {
            swapped.extend(broken.iter().copied());
            stages.push(UpdateStage {
                entries: broken
                    .iter()
                    .map(|&d| column_swap_entries(net, old, new, d))
                    .sum(),
                dests: broken,
                drained: true,
                vetted: true,
            });
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
            let before = snapshot_column(net, &hybrid, d);
            apply_column(net, &mut hybrid, new, d);
            if vet_ok(net, &mut hybrid, hw_vls) {
                batch.push(d);
            } else {
                rollback_column(net, &mut hybrid, &before, d);
                deferred.push(d);
            }
        }
        if batch.is_empty() {
            stalled = true;
            break;
        }
        stages.push(UpdateStage {
            entries: batch
                .iter()
                .map(|&d| column_swap_entries(net, old, new, d))
                .sum(),
            dests: batch,
            drained: true,
            vetted: true,
        });
        remaining = deferred;
    }
    if stalled && !remaining.is_empty() {
        // Bulk drain: with traffic toward every remaining destination
        // drained, only the post-state's edges are active — and the
        // post-state is the full new routing, whose walk is in hand.
        stages.push(UpdateStage {
            entries: remaining
                .iter()
                .map(|&d| column_swap_entries(net, old, new, d))
                .sum(),
            dests: remaining,
            drained: true,
            vetted: deployable(new_walk, hw_vls),
        });
    }
    UpdatePlan {
        direct: false,
        stages,
        hazard_layers,
    }
}

/// Whether any table entry or layer of destination column `d` differs.
pub fn column_differs(net: &Network, old: &Routes, new: &Routes, d: usize) -> bool {
    for (id, _) in net.nodes() {
        if old.next_hop(id, d) != new.next_hop(id, d) {
            return true;
        }
    }
    (0..net.num_terminals()).any(|s| old.layer(s, d) != new.layer(s, d))
}

/// Switch-table entries set in `new`'s column `d` (bring-up cost).
fn column_entries(net: &Network, new: &Routes, d: usize) -> usize {
    net.switches()
        .iter()
        .filter(|&&s| new.next_hop(s, d).is_some())
        .count()
}

/// Switch-table entries that differ between the two columns (SMP cost).
pub fn column_swap_entries(net: &Network, old: &Routes, new: &Routes, d: usize) -> usize {
    net.switches()
        .iter()
        .filter(|&&s| old.next_hop(s, d) != new.next_hop(s, d))
        .count()
}

/// One destination column of `r`: next hops per node + layers per source.
struct Column {
    next: Vec<Option<fabric::ChannelId>>,
    layers: Vec<u8>,
}

fn snapshot_column(net: &Network, r: &Routes, d: usize) -> Column {
    Column {
        next: net.nodes().map(|(id, _)| r.next_hop(id, d)).collect(),
        layers: (0..net.num_terminals()).map(|s| r.layer(s, d)).collect(),
    }
}

fn apply_column(net: &Network, r: &mut Routes, from: &Routes, d: usize) {
    for (id, _) in net.nodes() {
        match from.next_hop(id, d) {
            Some(c) => r.set_next(id, d, c),
            None => r.clear_next(id, d),
        }
    }
    for s in 0..net.num_terminals() {
        r.set_layer(s, d, from.layer(s, d));
    }
}

fn rollback_column(net: &Network, r: &mut Routes, col: &Column, d: usize) {
    for (id, _) in net.nodes() {
        match col.next[id.idx()] {
            Some(c) => r.set_next(id, d, c),
            None => r.clear_next(id, d),
        }
    }
    for s in 0..net.num_terminals() {
        r.set_layer(s, d, col.layers[s]);
    }
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
    use super::reference::dest_broken;
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
