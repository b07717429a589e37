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
//! bulk-drain stage's verdict from the new walk. Inside
//! [`crate::events::SmLoop`] both are in hand before the planner starts:
//! the deploy guard walked the new tables, and the old ones were walked
//! beside the ladder. The broken-columns stage's post-state is judged
//! from the old walk's unbroken part and a walk of `new` scoped to the
//! broken columns ([`broken_stage_ok`]); only the greedy stages' hybrid
//! states are walked whole, each once by [`vet_ok`]. Every table walk in
//! this crate goes through [`walk_artifact`] — the guard's and the old
//! end's from the guard's walk of the previous epoch, when the loop has
//! one ([`vet::rewalk_tables`]) — every per-layer cycle search of a walk
//! through [`cyclic_layers`], and the union's through [`union_cycles`];
//! a walk searches at most once however many callers ask, so a test can
//! count each kind. When both ends were walked from that one base, the
//! union is searched only from the heads of the dependencies the two
//! gained over it ([`vet::union_heads`]): on a fat-tree cable event that
//! is a few channels, not the whole layer. The old end itself is the
//! serving tables copied whole ([`remap_routes`]) when the event keeps
//! the terminal roster.

use fabric::{ChannelId, Network, NodeId, Routes};
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

/// A hook [`crate::events::SmLoop`] consults before `plan_walked` on
/// every post-bring-up reroute: `Some(plan)` is published as the
/// transition's plan, `None` falls through to the loop's own planner.
/// No production implementor answers it (`delta::DeltaPlanner` returns
/// `None`); it is the seam the loop's panic-containment tests inject a
/// failing planner through.
pub trait DiffPlanProvider {
    /// A transition plan for `old -> new` on `net`, or `None` to leave
    /// the plan to the loop. `hw_vls` is the hardware VL budget any
    /// staged vetting must respect.
    fn diff_plan(
        &self,
        net: &Network,
        old: &Routes,
        new: &Routes,
        hw_vls: usize,
    ) -> Option<UpdatePlan>;
}

/// Re-express `old` (tables for `old_net`) against `new_net`, a view of
/// the same fabric.
///
/// The views share node and channel ids, so an entry carries over as it
/// is: only entries at a node `new_net` drops or over a channel that is
/// not live in it are dropped. Virtual layers of
/// surviving terminal pairs are carried over. The result always has
/// `new_net`'s shape, so it can be compared and vetted against the new
/// network (expect broken pairs where hardware vanished). When the two
/// views have one terminal roster and `old` has `new_net`'s shape — every
/// cable event — the tables are copied whole and only then scrubbed.
pub fn remap_routes(old_net: &Network, old: &Routes, new_net: &Network) -> Routes {
    assert!(
        old_net.same_fabric(new_net),
        "remap needs two views of one fabric"
    );
    let nodes = new_net.num_nodes().min(old.num_nodes());
    let dropped: Vec<usize> = (0..nodes)
        .filter(|&n| !new_net.is_live(NodeId(n as u32)))
        .collect();
    let scrub = |column: &mut [u32]| {
        for c in column.iter_mut() {
            if *c != u32::MAX && !new_net.is_live_channel(ChannelId(*c)) {
                *c = u32::MAX;
            }
        }
        for &n in &dropped {
            column[n] = u32::MAX;
        }
    };
    let nt = new_net.num_terminals();
    if old_net.terminals() == new_net.terminals()
        && (old.num_nodes(), old.num_terminals()) == (new_net.num_nodes(), nt)
    {
        let mut routes = old.clone();
        (0..nt).for_each(|d| scrub(routes.next_column_mut(d)));
        routes.recompute_num_layers();
        return routes;
    }
    let mut routes = Routes::new(new_net, old.engine());
    // Old terminal index per new terminal index, if the old tables have it.
    let old_t: Vec<Option<usize>> = new_net
        .terminals()
        .iter()
        .map(|&t| {
            (t.idx() < old_net.num_nodes())
                .then(|| old_net.terminal_index(t))
                .flatten()
        })
        .map(|o| o.filter(|&o| o < old.num_terminals()))
        .collect();
    for (new_dst, od) in old_t.iter().enumerate() {
        let Some(od) = *od else { continue };
        let (next, layers) = old.column(od);
        let column = &mut routes.next_column_mut(new_dst)[..nodes];
        column.copy_from_slice(&next[..nodes]);
        scrub(column);
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

/// The walk of `routes` on `net` every table walk of this crate goes
/// through: from `base` (the walk of an earlier artifact) when there is
/// one, only the columns that differ from it are walked.
#[cfg_attr(not(test), allow(unused_variables))]
pub(crate) fn walk_artifact(
    base: Option<vet::Base>,
    net: &Network,
    routes: &Routes,
    which: Artifact,
) -> TableWalk {
    let walk = match base {
        Some(base) => vet::rewalk_tables(base, net, routes, &quiet()),
        None => vet::walk_tables(net, routes, &quiet()),
    };
    #[cfg(test)]
    match walk.rewalked {
        None => counts::add(&counts::WALKS[which as usize], 1),
        Some((out, walked_in)) => {
            counts::add(&counts::COLUMNS[which as usize][0], out);
            counts::add(&counts::COLUMNS[which as usize][1], walked_in);
        }
    }
    walk
}

/// The layers of `walk` whose dependencies close a cycle, each with its
/// witness: the search runs on the first ask (counted under test).
pub(crate) fn cyclic_layers(walk: &TableWalk) -> &[(u8, Vec<ChannelId>)] {
    #[cfg(test)]
    match walk.pending_search() {
        Some(false) => counts::add(&counts::SEARCHES, 1),
        Some(true) => counts::add(&counts::GAINED_SEARCHES, 1),
        None => {}
    }
    walk.cyclic_layers()
}

/// The layers of the union of `walks` whose dependencies close a cycle,
/// each with its witness (the search counted under test, by where it
/// starts: see [`vet::union_heads`]).
fn union_cycles(walks: &[&TableWalk]) -> Vec<(u8, Vec<ChannelId>)> {
    #[cfg(test)]
    {
        let gained = vet::union_heads(walks).iter().any(Option::is_some);
        counts::add(&counts::UNION_SEARCHES[gained as usize], 1);
    }
    vet::union_cycles_of(walks)
}

/// How this crate walks: minimality is nobody's question here, which
/// also keeps the hop distances unread on clean tables.
fn quiet() -> vet::Config {
    vet::Config {
        check_minimal: false,
        ..vet::Config::default()
    }
}

/// What this crate's tests count: full-table walks by [`Artifact`], the
/// columns re-walks walked out and in, walks scoped to some destinations,
/// per-layer cycle searches of what was walked and the planner's searches
/// of the old∪new union (each from every channel, or from gained heads
/// only), per-pair LFT walks and the destination columns the LFT
/// validation walked. Process-wide, because an event
/// walks on two threads ([`dfsssp_core::pool::join`]); only the thread
/// inside [`counts::counted`], and the helpers it lends work to through
/// [`counts::inherit`], add to them, and one `counted` runs at a time.
#[cfg(test)]
pub(crate) mod counts {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Mutex;

    pub(crate) static WALKS: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];
    pub(crate) static COLUMNS: [[AtomicUsize; 2]; 3] =
        [const { [const { AtomicUsize::new(0) }; 2] }; 3];
    pub(crate) static SCOPED: AtomicUsize = AtomicUsize::new(0);
    pub(crate) static SEARCHES: AtomicUsize = AtomicUsize::new(0);
    pub(crate) static GAINED_SEARCHES: AtomicUsize = AtomicUsize::new(0);
    pub(crate) static UNION_SEARCHES: [AtomicUsize; 2] = [const { AtomicUsize::new(0) }; 2];
    pub(crate) static PAIR_WALKS: AtomicUsize = AtomicUsize::new(0);
    pub(crate) static LFT_COLUMNS: AtomicUsize = AtomicUsize::new(0);
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    thread_local! {
        static COUNTING: Cell<bool> = const { Cell::new(false) };
    }

    /// What one [`counted`] run did.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) struct Counts {
        /// Walks of every column, `[new, old, hybrid]`.
        pub(crate) walks: [usize; 3],
        /// Columns re-walks walked `[out, in]`, per artifact as `walks`.
        pub(crate) columns: [[usize; 2]; 3],
        pub(crate) scoped: usize,
        /// Cycle searches from every channel.
        pub(crate) searches: usize,
        /// Cycle searches from the heads of gained dependencies only.
        pub(crate) gained_searches: usize,
        /// The planner's searches of the old∪new union, `[from every
        /// channel, from gained heads]`.
        pub(crate) union_searches: [usize; 2],
        pub(crate) pair_walks: usize,
        /// Destination columns the LFT validation's colored pass walked.
        pub(crate) lft_columns: usize,
    }

    pub(crate) fn add(counter: &AtomicUsize, n: usize) {
        if COUNTING.get() {
            counter.fetch_add(n, Relaxed);
        }
    }

    /// Run `f` and count what it does.
    pub(crate) fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
        let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let [[new_out, new_in], [old_out, old_in], [hybrid_out, hybrid_in]] = &COLUMNS;
        let all = [
            &WALKS[0],
            &WALKS[1],
            &WALKS[2],
            new_out,
            new_in,
            old_out,
            old_in,
            hybrid_out,
            hybrid_in,
            &SCOPED,
            &SEARCHES,
            &GAINED_SEARCHES,
            &UNION_SEARCHES[0],
            &UNION_SEARCHES[1],
            &PAIR_WALKS,
            &LFT_COLUMNS,
        ];
        all.iter().for_each(|c| c.store(0, Relaxed));
        COUNTING.set(true);
        let out = f();
        COUNTING.set(false);
        let [new, old, hybrid, n_out, n_in, o_out, o_in, h_out, h_in, scoped, searches, gained_searches, union_all, union_gained, pair_walks, lft_columns] =
            all.map(|c| c.load(Relaxed));
        let counts = Counts {
            walks: [new, old, hybrid],
            columns: [[n_out, n_in], [o_out, o_in], [h_out, h_in]],
            scoped,
            searches,
            gained_searches,
            union_searches: [union_all, union_gained],
            pair_walks,
            lft_columns,
        };
        (out, counts)
    }

    /// `f`, counting on whichever thread runs it iff this one counts.
    pub(crate) fn inherit<R>(f: impl FnOnce() -> R + Send) -> impl FnOnce() -> R + Send {
        let counting = COUNTING.get();
        move || {
            let was = COUNTING.replace(counting);
            let out = f();
            COUNTING.set(was);
            out
        }
    }
}

/// Whether a walked artifact is deployable: walkable, within the VL
/// budget, and — the point of the exercise — acyclic per layer.
fn deployable(walk: &TableWalk, hw_vls: usize) -> bool {
    walk.num_layers as usize <= hw_vls && walk.num_errors() == 0 && cyclic_layers(walk).is_empty()
}

/// Plan the transition from `old` to `new` on `net`.
///
/// `old` must already be expressed against `net` (see
/// [`remap_routes`]); pass `None` for an initial bring-up. `hw_vls` is
/// the hardware VL budget the per-stage vetting enforces.
pub fn plan_update(net: &Network, old: Option<&Routes>, new: &Routes, hw_vls: usize) -> UpdatePlan {
    plan_walked(net, old, new, (None, None), hw_vls)
}

/// [`plan_update`] for a caller that has already walked `old` or `new`
/// on `net` — the event path, whose helper walks `old` beside the ladder
/// and whose deploy guard walks `new`: `walks` (old, new) are read
/// instead of walking the same tables again. A walk not handed in is made
/// here, if the plan needs it at all.
pub(crate) fn plan_walked(
    net: &Network,
    old: Option<&Routes>,
    new: &Routes,
    walks: (Option<&TableWalk>, Option<&TableWalk>),
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

    let (mut old_here, mut new_here) = (None, None);
    let old_walk = match walks.0 {
        Some(walk) => walk,
        None => old_here.insert(walk_artifact(None, net, old, Artifact::Old)),
    };
    let new_walk = match walks.1 {
        Some(walk) => walk,
        None => new_here.insert(walk_artifact(None, net, new, Artifact::New)),
    };
    let hazards = union_cycles(&[old_walk, new_walk]);
    let swap = |d| column_swap_entries(net, old, new, d);
    if hazards.is_empty() {
        return direct(stage(changed, swap, false, true));
    }
    let hazard_layers: Vec<u8> = hazards.iter().map(|(l, _)| *l).collect();

    // Staged drain-and-swap. Stage 0: destinations whose old routes are
    // already broken — no working traffic toward them exists, so their
    // columns swap first (drained trivially).
    let mut stages = Vec::new();
    let mut hybrid = old.clone();
    let (broken, mut remaining): (Vec<usize>, Vec<usize>) =
        (changed.iter().copied()).partition(|&d| old_walk.broken[d]);
    let mut stalled = false;
    if !broken.is_empty() {
        for &d in &broken {
            apply_column(&mut hybrid, new, d);
        }
        hybrid.recompute_num_layers();
        if broken_stage_ok(net, new, old_walk, hybrid.num_layers(), hw_vls) {
            stages.push(stage(broken, swap, true, true));
        } else {
            // Swapping only the broken columns still leaves a hazardous
            // mix; fold them into the bulk drain below instead.
            (remaining, stalled) = (changed, true);
        }
    }

    stalled |= remaining.len() > MAX_GREEDY_DESTS;
    while !stalled && !remaining.is_empty() {
        let mut batch = Vec::new();
        let mut deferred = Vec::new();
        for &d in &remaining {
            // Not swapped yet: the hybrid's column is still `old`'s.
            apply_column(&mut hybrid, new, d);
            if vet_ok(net, &mut hybrid, hw_vls) {
                batch.push(d);
            } else {
                apply_column(&mut hybrid, old, d);
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
pub(crate) fn column_differs(net: &Network, old: &Routes, new: &Routes, d: usize) -> bool {
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
pub(crate) fn column_swap_entries(net: &Network, old: &Routes, new: &Routes, d: usize) -> usize {
    let ((old_next, _), (new_next, _)) = (old.column(d), new.column(d));
    net.switches()
        .iter()
        .filter(|s| old_next[s.idx()] != new_next[s.idx()])
        .count()
}

fn apply_column(r: &mut Routes, from: &Routes, d: usize) {
    let (next, layers) = from.column(d);
    r.set_column(d, next, layers);
}

/// [`deployable`] of the broken-columns stage's post-state — `old` with
/// the columns its walk found broken taken from `new` — without walking
/// it. The walk starts over at every destination and reads only that
/// destination's column (and the layer count, which bounds every layer
/// of each of the three tables alike), so the post-state's walk is
/// `old_walk` at its unbroken destinations plus a walk of `new` at the
/// broken ones: the errors add up and the edge sets unite. A broken
/// column that did not change is `new`'s as much as `old`'s. `layers` is
/// the post-state's layer count.
fn broken_stage_ok(
    net: &Network,
    new: &Routes,
    old_walk: &TableWalk,
    layers: u8,
    hw_vls: usize,
) -> bool {
    if layers as usize > hw_vls || old_walk.unbroken_errors > 0 {
        return false;
    }
    let broken: Vec<usize> = (0..net.num_terminals())
        .filter(|&d| old_walk.broken[d])
        .collect();
    #[cfg(test)]
    counts::add(&counts::SCOPED, 1);
    let walk = vet::walk_scoped(net, new, &broken, &quiet());
    if walk.num_errors() > 0 {
        return false;
    }
    #[cfg(test)]
    counts::add(&counts::SEARCHES, 1);
    vet::union_cycles_in(&[&old_walk.unbroken_edges, &walk.edges]).is_empty()
}

/// Vet one intermediate (hybrid) state with a walk of its own. The
/// network is constant across an update window, so its V007 verdict is
/// decided once by the ladder and the publish gate, not per stage.
fn vet_ok(net: &Network, r: &mut Routes, hw_vls: usize) -> bool {
    r.recompute_num_layers();
    deployable(&walk_artifact(None, net, r, Artifact::Hybrid), hw_vls)
}

#[cfg(test)]
pub(crate) mod reference;
/// What the reference planner, kept verbatim, still calls.
#[cfg(test)]
use tests::{plan_update_walked, rollback_column, snapshot_column, FxHashSet};

#[cfg(test)]
mod tests {
    use super::reference::{
        assert_matches_reference, dest_broken, route, transitions, without, zoo,
    };
    use super::*;
    use dfsssp_core::{DfSssp, RoutingEngine};
    use fabric::{degrade, topo, NodeId};
    pub(super) use telemetry::fx::FxHashSet;

    /// [`plan_update`] for a caller that has already walked `new` on `net`.
    pub(super) fn plan_update_walked(
        net: &Network,
        old: Option<&Routes>,
        new: &Routes,
        new_walk: Option<&TableWalk>,
        hw_vls: usize,
    ) -> UpdatePlan {
        plan_walked(net, old, new, (None, new_walk), hw_vls)
    }

    /// One destination column of a routing, as [`Routes::column`] reads it.
    type Column = (Vec<u32>, Vec<u8>);

    pub(super) fn snapshot_column(r: &Routes, d: usize) -> Column {
        let (next, layers) = r.column(d);
        (next.to_vec(), layers.to_vec())
    }

    pub(super) fn rollback_column(r: &mut Routes, (next, layers): &Column, d: usize) {
        r.set_column(d, next, layers);
    }

    #[test]
    fn remap_onto_the_same_network_is_identity() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route(&net).unwrap();
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
        let r = DfSssp::new().route(&net).unwrap();
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

    /// [`remap_routes`] entry by entry, row by row: an entry survives iff
    /// its node and its channel are live in the new view (the views share
    /// their node and channel ids).
    fn remap_routes_reference(old_net: &Network, old: &Routes, new_net: &Network) -> Routes {
        let mut routes = Routes::new(new_net, old.engine());
        // Old node id per new node: the same id.
        let old_node: Vec<Option<NodeId>> = new_net
            .nodes()
            .map(|(id, _)| (id.idx() < old_net.num_nodes()).then_some(id))
            .collect();
        // Old terminal index per new terminal index.
        let old_t: Vec<Option<usize>> = new_net
            .terminals()
            .iter()
            .map(|&t| old_node[t.idx()].and_then(|o| old_net.terminal_index(o)))
            .collect();
        for (new_id, _) in new_net.nodes().filter(|&(id, _)| new_net.is_live(id)) {
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
                if new_net.is_live_channel(ch) {
                    routes.set_next(new_id, new_dst, ch);
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
                let stranded = degrade::extract_core(&view).into_iter().collect();
                let core = degrade::remove(&view, &stranded, &FxHashSet::default());
                assert_remap_matches(&net, &pristine, &core, &format!("{what}, its core"));
            }
        }
    }

    #[test]
    fn remap_of_hand_built_oddities_equals_the_reference() {
        // t0 - s0 - s1 - t1, and a second t2 on s1.
        let net = {
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
            b.build()
        };
        let mut old = route(&net);
        let node = |name| net.node_by_name(name).unwrap();
        // An entry naming a channel that leaves another node is carried
        // as it is (the walk of the remapped tables reports it).
        let foreign = net.channel_between(node("s1"), node("t2")).unwrap();
        old.set_next(node("s0"), 1, foreign);
        old.set_next(
            node("t0"),
            2,
            net.channel_between(node("s0"), node("s1")).unwrap(),
        );
        let cut = without(&net, net.channel_between(node("s0"), node("s1")).unwrap());
        for (onto, what) in [(&net, "same net"), (&cut, "cut")] {
            assert_remap_matches(&net, &old, onto, what);
        }
    }

    #[test]
    fn unchanged_routing_plans_a_noop() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route(&net).unwrap();
        let plan = plan_update(&net, Some(&r), &r, 8);
        assert!(plan.direct);
        assert!(plan.stages.is_empty());
        assert_eq!(plan.describe(), "no-op");
        assert_eq!(plan.total_entries(), 0);
    }

    #[test]
    fn bring_up_plans_direct() {
        let net = topo::torus(&[3, 3], 1);
        let r = DfSssp::new().route(&net).unwrap();
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
        let r = DfSssp::new().route(&net).unwrap();
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
        assert!(vet::check(&net, &old).clean());
        assert!(vet::check(&net, &new).clean());
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

    /// The broken-columns stage of `old -> new` judged as the planner judges
    /// it, from the walk of `old` and a scoped walk of `new`, and by a walk of
    /// its post-state; the two must agree. Returns the verdict, `None` when
    /// no broken column changes (the planner forms no such stage then).
    fn assert_composed_matches(
        net: &Network,
        old: &Routes,
        new: &Routes,
        hw_vls: usize,
        what: &str,
    ) -> Option<bool> {
        let old_walk = walk_artifact(None, net, old, Artifact::Old);
        let mut hybrid = old.clone();
        let mut swapped = 0;
        for d in 0..net.num_terminals() {
            if old_walk.broken[d] && column_differs(net, old, new, d) {
                apply_column(&mut hybrid, new, d);
                swapped += 1;
            }
        }
        hybrid.recompute_num_layers();
        let composed = broken_stage_ok(net, new, &old_walk, hybrid.num_layers(), hw_vls);
        let walked = walk_artifact(None, net, &hybrid, Artifact::Hybrid);
        assert_eq!(composed, deployable(&walked, hw_vls), "{what}");
        (swapped > 0).then_some(composed)
    }

    #[test]
    fn composed_broken_stages_equal_a_walk_of_the_post_state() {
        let (mut admitted, mut refused) = (0, 0);
        for net in zoo() {
            for (i, (view, old, new)) in transitions(&net).iter().enumerate() {
                for hw_vls in [1, 2, 8] {
                    let what = format!("{} transition {i} on {hw_vls} VL(s)", net.label());
                    match assert_composed_matches(view, old, new, hw_vls, &what) {
                        Some(true) => admitted += 1,
                        Some(false) => refused += 1,
                        None => {}
                    }
                }
            }
        }
        assert!(
            admitted > 0 && refused > 0,
            "{admitted} admitted, {refused} refused"
        );
    }

    /// `s0 … s3` cabled in a ring with `t_i` on `s_i`, plus a spur switch `x`
    /// on `s0` that no path crosses. Every switch forwards clockwise (`x` to
    /// `s0`), and every path into `t_d` rides layer `dest_layer[d]`: the
    /// layer-split ring of `hand_built_cyclic_union_equals_the_reference`
    /// with one switch whose entries only the switch pass reads.
    fn spurred(dest_layer: &[u8]) -> (Network, Routes) {
        let mut b = fabric::NetworkBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        let t: Vec<_> = (0..4).map(|i| b.add_terminal(format!("t{i}"))).collect();
        for i in 0..4 {
            b.link(s[i], s[(i + 1) % 4]).unwrap();
            b.link(t[i], s[i]).unwrap();
        }
        let x = b.add_switch("x", 4);
        b.link(x, s[0]).unwrap();
        let net = b.build();
        let hop = |a, b| net.channel_between(a, b).unwrap();
        let mut r = Routes::new(&net, "spurred");
        for d in 0..4 {
            r.set_next(x, d, hop(x, s[0]));
            for i in 0..4 {
                r.set_next(
                    s[i],
                    d,
                    if i == d {
                        hop(s[i], t[d])
                    } else {
                        hop(s[i], s[(i + 1) % 4])
                    },
                );
                if i != d {
                    r.set_next(t[i], d, hop(t[i], s[i]));
                    r.set_layer(i, d, dest_layer[d]);
                }
            }
        }
        (net, r)
    }

    #[test]
    fn hand_built_broken_stages_equal_the_reference() {
        // The layer split of the two ends closes the ring on layer 0 in the
        // window, and `old` has lost `s1`'s entry toward `t0`. Swapping that
        // broken column first is safe, and the rest follows in one batch.
        let (net, new) = spurred(&[2, 2, 0, 0]);
        let (_, mut old) = spurred(&[0, 0, 1, 1]);
        let node = |name| net.node_by_name(name).unwrap();
        old.clear_next(node("s1"), 0);
        let what = "broken column swapped first";
        assert_eq!(
            assert_composed_matches(&net, &old, &new, 8, what),
            Some(true)
        );
        let plan = assert_matches_reference(&net, &old, &new, 8, what);
        assert_eq!(plan.stages.len(), 2, "{plan:?}");
        assert_eq!(
            (&plan.stages[0].dests[..], plan.all_vetted()),
            (&[0][..], true)
        );

        // A column that walks clean from every terminal but names a channel
        // `x` cannot use (V003, from the switch pass) stays in the post-state.
        let mut v003 = old.clone();
        v003.set_next(
            node("x"),
            1,
            net.channel_between(node("s1"), node("s2")).unwrap(),
        );
        // A path of a clean column on a layer the hardware does not have
        // (V005): three VLs, four layers once the broken column is swapped.
        let mut v005 = old.clone();
        v005.set_layer(3, 2, 3);
        let on_8 = assert_composed_matches(&net, &v005, &new, 8, "layer 3 on 8 VLs");
        assert_eq!(on_8, Some(true));
        for (old, hw_vls, what) in [
            (&v003, 8, "V003 in a clean column"),
            (&v005, 3, "layer 3 on 3 VLs"),
        ] {
            assert_eq!(
                assert_composed_matches(&net, old, &new, hw_vls, what),
                Some(false)
            );
            let plan = assert_matches_reference(&net, old, &new, hw_vls, what);
            assert_eq!(plan.stages.len(), 1, "{what}: {plan:?}");
        }
    }
}
