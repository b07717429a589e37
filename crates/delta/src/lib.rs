//! Incremental rerouting: recompute only what a fabric event dirtied.
//!
//! A cable failure on a large fabric typically invalidates a handful of
//! destination trees, yet the subnet manager's reroute path recomputes
//! every tree, rebuilds the full channel dependency graph and re-runs the
//! cycle search — O(fabric) work for an O(change) event. This crate adds
//! a cache over [`DfSssp`] that patches routes instead:
//!
//! * [`DeltaEngine`] caches the last epoch it routed — the network, the
//!   routes, the layer regime they were assigned under and, **only while
//!   the all-paths CDG is acyclic**, its layer-0 window counts. Nothing
//!   else: the cached tables *are* the channel → tree reverse index (one
//!   entry per destination column), and hop distances are two BFSs on the cached network
//!   when an event needs them. On the next route request it diffs the
//!   networks by id (a degraded view keeps every node and channel of its
//!   fabric at its id, a dead cable as a tombstone, and shares its
//!   dependency slots, so nothing is translated), extracts the *affected
//!   set* of destinations, re-sweeps only those trees, copies the clean
//!   columns and patches the counts on the same slots instead of
//!   rebuilding them.
//! * The result is **bit-identical** to a full recompute under the
//!   snapshot schedule the wrapped engine is configured with
//!   (`compute.chunk >= |T|`; narrower chunks pass through): clean trees
//!   are provably unchanged (see the dirty rules below), dirty trees are
//!   recomputed with the same level-ordered BFS column kernel
//!   (`dijkstra::bfs_column`, straight into their table columns),
//!   and the layer assignment either provably produces all-zeros
//!   (patched layer-0 CDG still acyclic) or re-runs the real budgeted
//!   assignment.
//!
//! Table transitions are not planned here: the subnet manager's loop
//! plans every one from the table walks it already holds
//! (`subnet::transition`).
//!
//! # Dirty rules
//!
//! With uniform weights (what a snapshot chunk uses), a node's parent in
//! destination `d`'s tree is a local choice: among its tight channels
//! (one hop shorter) whose head forwards (a switch, or `d`), the one
//! `dijkstra::bfs_prefers` ranks first. So the tree changes exactly when
//!
//! * a **removed** channel `c` was a tree edge of `d`, i.e.
//!   `next[c.src][d] == c` in the cached tables, and `c.src` is still
//!   live (a dead switch's row just goes: a tree through it also lost the
//!   channel into it), or
//! * an **added** channel `a → b` whose head forwards toward `d` and
//!   reaches it on the *old* network either shortens the path,
//!   `hop(a,d) > hop(b,d) + 1`, or ties it and wins the parent from the
//!   incumbent `next[a][d]` under `bfs_prefers`. A tie that loses, an
//!   edge into a terminal other than `d` and an edge into a node that
//!   could not reach `d` change nothing (if the additions connect that
//!   node, some other added edge on the new path fires for `d`).
//!
//! Both rules compose across multi-event diffs because clean
//! destinations' hop distances and parents remain valid by the same
//! argument. A switch event that strands no terminal is such a diff: the
//! views keep every node and channel at its id, so a removed or added
//! channel is one whose liveness differs between the two, a dead switch
//! is a node whose channels were removed and a returning one a node
//! whose channels were added (which gives it a row in every tree, so
//! every tree is dirty).
//! On a single cable or switch event the dirty set is the set of trees
//! whose column changes on the live nodes (`tests/delta_equivalence.rs`
//! checks it against cold routes).
//!
//! # When the engine falls back
//!
//! A patch costs a cold route minus the clean trees' sweeps, so the
//! engine runs the full pipeline only when there is nothing to reuse:
//! no cached epoch, a changed set of live terminals (a quarantine or its
//! end), or **every** destination dirty — an event that changes every
//! tree, such as a fat-tree leaf's cable to its lowest-id spine, or a
//! switch's return. A fallback costs that cold route and
//! two clones: the counts of an acyclic fabric are the ones the route's
//! own layer-0 pass made.

use std::sync::{Arc, Mutex, MutexGuard};

use dfsssp_core::balance::balance_layers;
use dfsssp_core::budget::{clamp_layers, record_trip};
use dfsssp_core::dfsssp::{assign_layers_budgeted, LayerAssignMode};
use dfsssp_core::dijkstra::{bfs_column, bfs_prefers};
use dfsssp_core::paths::TreePaths;
use dfsssp_core::{DfSssp, EngineConfig, RouteError, RoutingEngine};
use fabric::{degrade, ChannelId, DepSlots, Network, NodeId, Routes};
use subnet::transition::{DiffPlanProvider, UpdatePlan};
use telemetry::{counters, phases, Recorder};

/// Tuning knobs for the delta engine.
#[derive(Clone, Copy, Debug)]
pub struct DeltaConfig {
    /// Fall back to a full recompute when more than this fraction of the
    /// destinations is dirty (strictly more). Inert at the default of
    /// 1.0: the engine already falls back when *every* destination is
    /// dirty and patches otherwise, because a patch is a cold route
    /// minus the clean trees' sweeps. Tests lower it to force the
    /// fallback path.
    pub max_dirty_fraction: f64,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig {
            max_dirty_fraction: 1.0,
        }
    }
}

/// What the last [`DeltaEngine`] route request did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Whether the delta path produced the routes (false = full
    /// recompute, passthrough, or error).
    pub delta: bool,
    /// Destination terminal indices the diff against the cached epoch
    /// dirtied: the trees a patch re-swept, or what made a diffable
    /// request fall back. Empty when there was nothing to diff (first
    /// route, changed live terminals, passthrough, error).
    pub dirty_dests: Vec<usize>,
    /// Whether the all-paths (layer-0) CDG of the result is acyclic (all
    /// paths fit one layer before balancing).
    pub layer0_acyclic: bool,
    /// Whether a patch found the old∪new all-paths CDG union acyclic: the
    /// one search that, when it holds, also settles the patched layer 0
    /// acyclic (the union is a superset of it). False for a fallback and
    /// for a patch that held no counts.
    pub union_acyclic: bool,
}

/// Cached epoch: what the next network is diffed against, and nothing
/// that cannot be brought forward in O(change).
struct DeltaState {
    net: Network,
    routes: Routes,
    /// The all-paths (layer-0) CDG as window counts: per dependency slot
    /// of `net` ([`DepSlots`]), the number of terminal-to-terminal paths
    /// taking its two channels in that order. Mirrors `Cdg::add_path`
    /// over every extracted path. Held only while that CDG is known
    /// acyclic — the counts' one use is certifying the next epoch acyclic
    /// without the real assignment, which a cyclic fabric can never skip.
    l0: Option<Vec<u32>>,
    /// `(clamped layer budget, balance)` the cached epoch's layer
    /// assignment ran under. While `l0` is held, the assignment is a
    /// pure function of the pair index and these two knobs, so a later
    /// acyclic epoch in the same regime bulk-copies the layer matrix.
    layer_cfg: (usize, bool),
}

#[derive(Default)]
struct Shared {
    state: Option<DeltaState>,
    last: Option<DeltaOutcome>,
}

/// What changed between the cached fabric and the requested one.
struct Diff {
    /// Nodes live in the cached view that the new one drops: their rows
    /// go from every clean column.
    dropped: Vec<NodeId>,
    /// Per destination terminal index: must its tree be re-swept?
    dirty: Vec<bool>,
    /// The indices flagged in `dirty`, ascending.
    dirty_dests: Vec<usize>,
}

/// What a delta attempt came to.
enum Attempt {
    /// Patched; the outcome and the new cache are already recorded.
    Patched(Routes),
    /// Nothing to reuse — run the full pipeline. Carries the dirty set
    /// when there was a cached epoch to diff against.
    Fallback(Vec<usize>),
}

/// A patch's products: the routes, the counts to cache with them (if
/// acyclic) and whether the old∪new union was acyclic.
struct Patched {
    routes: Routes,
    l0: Option<Vec<u32>>,
    union_acyclic: bool,
}

/// A cache over [`DfSssp`] that patches its routes.
///
/// Behaves exactly like the wrapped engine (same routes, same errors,
/// same `RoutingEngine` surface); the only observable differences are
/// speed and the `delta_*` telemetry.
pub struct DeltaEngine {
    inner: DfSssp,
    cfg: DeltaConfig,
    shared: Mutex<Shared>,
}

impl DeltaEngine {
    /// Wrap `inner` with the default [`DeltaConfig`].
    pub fn new(inner: DfSssp) -> Self {
        Self::with_delta_config(inner, DeltaConfig::default())
    }

    /// Wrap `inner` with an explicit [`DeltaConfig`].
    pub fn with_delta_config(inner: DfSssp, cfg: DeltaConfig) -> Self {
        DeltaEngine {
            inner,
            cfg,
            shared: Mutex::new(Shared::default()),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &DfSssp {
        &self.inner
    }

    /// A [`DeltaPlanner`], which answers no transition. Kept only because
    /// `crates/perf/src/stack.rs:221` and `crates/perf/src/shadow.rs:105`
    /// call it; delete it with those calls.
    pub fn planner(&self) -> DeltaPlanner {
        DeltaPlanner
    }

    /// What the most recent route request did, if any.
    pub fn last_outcome(&self) -> Option<DeltaOutcome> {
        self.lock().last.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Full recompute through the inner engine, then rebuild the cache
    /// from the result: two clones, and the window counts the engine
    /// hands back when it broke no cycle. An engine error leaves the
    /// cache (and the caller's reset outcome) as they were.
    fn full_recompute(
        &self,
        g: &mut Shared,
        net: &Network,
        dirty_dests: Vec<usize>,
    ) -> Result<Routes, RouteError> {
        let cfg = &self.inner.config;
        let (routes, _, l0) = self.inner.route_with_counts(net)?;
        debug_assert!(l0
            .as_ref()
            .is_none_or(|l0| l0.len() == net.dep_slots().num_slots()));
        let layer_cfg = (clamp_layers(cfg.max_layers)?, cfg.balance);
        g.last = Some(DeltaOutcome {
            delta: false,
            dirty_dests,
            layer0_acyclic: l0.is_some(),
            union_acyclic: false,
        });
        g.state = Some(telemetry::timed(
            &*cfg.recorder,
            phases::DELTA_REBUILD,
            || DeltaState {
                net: net.clone(),
                routes: routes.clone(),
                l0,
                layer_cfg,
            },
        ));
        Ok(routes)
    }

    /// The delta path. Errors are exactly the ones the full pipeline
    /// would raise on the same input.
    fn try_delta(&self, g: &mut Shared, net: &Network) -> Result<Attempt, RouteError> {
        let Some(prev) = g.state.as_ref() else {
            return Ok(Attempt::Fallback(Vec::new()));
        };
        let nt = net.num_terminals();
        let cfg = &self.inner.config;
        let rec: &dyn Recorder = &*cfg.recorder;
        let fall_back = |dirty_dests| {
            if rec.enabled() {
                rec.add(counters::DELTA_FALLBACKS, 1);
            }
            Ok(Attempt::Fallback(dirty_dests))
        };
        // The diff reads node and channel ids across the two views, which
        // share them (degrade keeps the roster and the id space), and
        // tables by terminal index, which a stranded or returning terminal
        // moves: anything else is a different fabric, not an event.
        if !prev.net.same_fabric(net) || prev.net.terminals() != net.terminals() {
            return fall_back(Vec::new());
        }

        let guard = cfg.budget.start();
        guard.admit(net)?;
        let max_layers = clamp_layers(cfg.max_layers)?;
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        guard.check_deadline()?;

        let diff = telemetry::timed(rec, phases::DELTA_DIRTY, || diff(prev, net));
        let dirty_count = diff.dirty_dests.len();
        if rec.enabled() {
            rec.add(counters::DELTA_DIRTY_DSTS, dirty_count as u64);
        }
        // Every tree dirty: nothing to reuse, the cold route is the
        // patch. (The configured fraction is inert at its default.)
        if dirty_count == nt || dirty_count as f64 > self.cfg.max_dirty_fraction * nt as f64 {
            return fall_back(diff.dirty_dests);
        }

        let patched = telemetry::timed(rec, phases::DELTA_PATCH, || {
            self.patch(prev, net, &guard, max_layers, &diff)
        })?;
        let Some(patched) = patched else {
            // Cache inconsistent with the diff (should not happen); a
            // full recompute both serves the request and repairs it.
            return fall_back(diff.dirty_dests);
        };

        // Commit the new cache; the previous epoch is dropped.
        g.last = Some(DeltaOutcome {
            delta: true,
            dirty_dests: diff.dirty_dests,
            layer0_acyclic: patched.l0.is_some(),
            union_acyclic: patched.union_acyclic,
        });
        g.state = Some(DeltaState {
            net: net.clone(),
            routes: patched.routes.clone(),
            l0: patched.l0,
            layer_cfg: (max_layers, cfg.balance),
        });
        Ok(Attempt::Patched(patched.routes))
    }

    /// Assemble the new routes, counts and layers. `Ok(None)` means the
    /// cache disagrees with the diff (fall back defensively).
    fn patch(
        &self,
        prev: &DeltaState,
        net: &Network,
        guard: &dfsssp_core::BudgetGuard,
        max_layers: usize,
        diff: &Diff,
    ) -> Result<Option<Patched>, RouteError> {
        let (e, balance) = (&self.inner, self.inner.config.balance);
        let rec: &dyn Recorder = &*e.config.recorder;
        let dirty_dests = || diff.dirty_dests.iter().copied();

        // New tables: clean columns are copied whole (the views share
        // their ids, and a clean tree takes no removed channel) but for
        // the rows of dropped nodes; dirty columns (left unset) re-sweep
        // with the snapshot chunk's own kernel, the level-ordered
        // `bfs_column` (any uniform weight gives its trees bit for bit,
        // so none is sized).
        let mut routes = Routes::new(net, e.name());
        telemetry::timed(rec, phases::DELTA_DIFF, || {
            routes.copy_clean_columns(&prev.routes, &diff.dirty);
            for d in (0..net.num_terminals()).filter(|&d| !diff.dirty[d]) {
                diff.dropped.iter().for_each(|&v| routes.clear_next(v, d));
            }
        });
        telemetry::timed(rec, phases::DELTA_SWEEP, || {
            let mut order = Vec::with_capacity(net.num_switches() + 1);
            for d in dirty_dests() {
                let column = routes.next_column_mut(d);
                bfs_column(net, net.terminals()[d], column, &mut order);
            }
        });

        // Counts, only if the cached epoch holds them. The views share
        // their dependency slots, so the cached counts are read where
        // they are: take the dirty trees' old windows out and put their
        // new windows in; a decrement the old count does not cover means
        // the cache disagrees with the diff. A window through a removed
        // channel falls to zero, which is exact because only dirty trees'
        // paths used it. The old∪new union (the old windows the new view
        // can still take, and the new ones) is a superset of the patched
        // graph, so when it is acyclic — the common case for a cable
        // event on a path-diverse fabric — one search settles it. The old
        // windows close no cycle, so each search starts only from the
        // windows the old count leaves empty ([`acyclic_over`]).
        let (mut l0, mut union_acyclic) = (None, false);
        if let Some(old) = &prev.l0 {
            let counted = telemetry::timed(rec, phases::DELTA_COUNTS, || {
                let slots = net.dep_slots();
                let decs = tree_windows(&prev.net, slots, &prev.routes, dirty_dests())?;
                let incs = tree_windows(net, slots, &routes, dirty_dests())?;
                let live = |s: usize| {
                    let (c1, c2) = slots.ends(s);
                    net.is_live_channel(ChannelId(c1)) && net.is_live_channel(ChannelId(c2))
                };
                let union = (old.iter().zip(&incs).enumerate()).map(|(s, (&b, &i))| {
                    if b > 0 && i == 0 && !live(s) {
                        0
                    } else {
                        b | i
                    }
                });
                let union = acyclic_over(slots, old, union);
                let l0 = (0..old.len()).map(|s| Some(old[s].checked_sub(decs[s])? + incs[s]));
                let l0 = l0.collect::<Option<Vec<u32>>>()?;
                let acyclic = union || acyclic_over(slots, old, l0.iter().copied());
                Some((l0, acyclic, union))
            });
            let Some((counts, acyclic, union)) = counted else {
                return Ok(None);
            };
            // Same budget the full pipeline holds layer 0 against.
            guard.check_cdg_edges(counts.iter().filter(|&&n| n > 0).count())?;
            l0 = acyclic.then_some(counts);
            union_acyclic = union;
        }

        // Layers. Patched all-paths CDG acyclic: the budgeted assignment
        // would break no cycle, every path stays in layer 0 and only the
        // balancing spread remains — a pure function of the pair index
        // and the (budget, balance) regime, so in the cached epoch's
        // regime its matrix is bit-identical and one memcpy replaces the
        // assignment. Otherwise run the real thing on the new trees; if it
        // breaks no cycle, the fabric just became acyclic and starts
        // holding the counts of its layer-0 pass.
        telemetry::timed(rec, phases::DELTA_LAYERS, || {
            if l0.is_some() && prev.layer_cfg == (max_layers, balance) {
                routes.copy_layers_from(&prev.routes);
                return Ok(());
            }
            let (mut layers, stats, counts) = assign_layers_budgeted(
                net,
                &routes,
                e.heuristic,
                max_layers,
                e.compact,
                rec,
                guard,
            )?;
            telemetry::timed(rec, phases::BALANCE, || {
                if balance {
                    balance_layers(&mut layers, stats.layers_used, max_layers);
                }
            });
            routes.set_path_layers(&layers);
            // The DFS and the budgeted assignment agree on acyclicity.
            debug_assert!(prev.l0.is_none() || (stats.cycles_broken == 0) == l0.is_some());
            if stats.cycles_broken == 0 {
                l0 = Some(counts);
            }
            Ok::<_, RouteError>(())
        })?;
        Ok(Some(Patched {
            routes,
            l0,
            union_acyclic,
        }))
    }
}

impl RoutingEngine for DeltaEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        let mut g = self.lock();
        // Whatever this request comes to — passthrough and every error
        // path included — the previous request's outcome is not its own.
        g.last = Some(DeltaOutcome::default());
        if self.inner.mode != LayerAssignMode::Offline {
            // Online assignment adds paths one at a time in global order;
            // a patched CDG cannot reproduce its history. Plain
            // passthrough, and the cache no longer describes what this
            // engine produces.
            g.state = None;
            drop(g);
            return self.inner.route(net);
        }
        if self.inner.config.compute.chunk.max(1) < net.num_terminals() {
            // Narrower chunks use balanced weights; the dirty rules
            // only hold for the single-snapshot schedule.
            drop(g);
            return self.inner.route(net);
        }
        let attempt = self.try_delta(&mut g, net);
        match record_trip(&*self.inner.config.recorder, attempt)? {
            Attempt::Patched(routes) => Ok(routes),
            Attempt::Fallback(dirty_dests) => self.full_recompute(&mut g, net, dirty_dests),
        }
    }

    fn deadlock_free(&self) -> bool {
        self.inner.deadlock_free()
    }

    fn tunables(&self) -> bool {
        self.inner.tunables()
    }

    fn config(&self) -> EngineConfig {
        self.inner.config()
    }

    fn set_config(&mut self, config: EngineConfig) {
        self.inner.set_config(config);
    }
}

/// A [`DiffPlanProvider`] that answers no transition: every update plan
/// is the subnet manager loop's own. Kept only because
/// `crates/perf/src/stack.rs:221,227` and
/// `crates/perf/src/shadow.rs:11,79,105,227` spell it; delete it with
/// those calls.
pub struct DeltaPlanner;

impl DiffPlanProvider for DeltaPlanner {
    fn diff_plan(&self, _: &Network, _: &Routes, _: &Routes, _: usize) -> Option<UpdatePlan> {
        None
    }
}

/// Diff `net` against the cached epoch: the views share their ids, so
/// the removed and added channels are the ones whose liveness differs
/// between the two, and the two dirty rules of the module docs apply to
/// them (a channel out of a node `net` drops is no tree edge there). The
/// cached tables are the reverse index — a removed channel's users are
/// its source node's entry in every column — and an added channel is
/// judged from two forward BFSs on the cached network and, on a tie,
/// against its source's cached entry.
fn diff(prev: &DeltaState, net: &Network) -> Diff {
    let nt = net.num_terminals();
    let (removed, added) = degrade::changed_channels(&prev.net, net);
    let mut dirty = vec![false; nt];
    for c in removed {
        let src = prev.net.channel(c).src;
        // A node the new view drops takes its own row with it.
        if net.is_live(src) {
            for (d, flag) in dirty.iter_mut().enumerate() {
                *flag |= prev.routes.next_hop(src, d) == Some(c);
            }
        }
    }
    for c in added {
        let ch = net.channel(c);
        let (from_a, from_b) = (prev.net.hops_from(ch.src), prev.net.hops_from(ch.dst));
        let wins = |i: ChannelId| !net.is_live_channel(i) || bfs_prefers(net, c, i);
        for (d, (flag, &t)) in dirty.iter_mut().zip(net.terminals()).enumerate() {
            // A head that does not forward toward `t`, or cannot reach it,
            // is inert; a tie is judged against the cached parent.
            let forwards = ch.dst == t || !net.is_terminal(ch.dst);
            let (hops, via_c) = (from_a[t.idx()], from_b[t.idx()].saturating_add(1));
            let tie = || prev.routes.next_hop(ch.src, d).is_none_or(wins);
            *flag |= forwards && via_c != u32::MAX && (hops > via_c || hops == via_c && tie());
        }
    }
    let dropped = (prev.net.nodes().map(|(v, _)| v))
        .filter(|&v| prev.net.is_live(v) && !net.is_live(v))
        .collect();
    Diff {
        dropped,
        dirty_dests: (0..nt).filter(|&d| dirty[d]).collect(),
        dirty,
    }
}

/// The all-paths CDG windows the trees of `dests` contribute, as a path
/// count per dependency slot of `net`: [`TreePaths::windows`], the kernel
/// the cold route builds layer 0 with, in O(|N|) per tree. `None` when a
/// source cannot reach the destination — a missing entry, a channel the
/// network does not have or that does not leave the node it is
/// programmed at, a forwarding loop — or the tables have another
/// network's shape.
fn tree_windows(
    net: &Network,
    slots: &DepSlots,
    routes: &Routes,
    dests: impl Iterator<Item = usize>,
) -> Option<Vec<u32>> {
    let mut counts = vec![0u32; slots.num_slots()];
    #[cfg(test)]
    let dests = dests.inspect(|_| TREES_COUNTED.set(TREES_COUNTED.get() + 1));
    let count = |c1, c2, paths, _| counts[slots.slot(c1, c2)] += paths;
    TreePaths { net, routes }.windows(dests, count).ok()?;
    Some(counts)
}

#[cfg(test)]
thread_local! {
    /// Trees [`tree_windows`] counted on this thread: what this crate
    /// ran the kernel for beside the cold route's own pass.
    static TREES_COUNTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Whether the dependency slots that hold a count, as CDG edges, close
/// no cycle, given that the slots `old` holds close none: every cycle
/// then runs through a slot that holds a count and `old` leaves empty, so
/// the search starts from those slots' heads alone
/// ([`vet::EdgeSet::find_cycle_from`]), and there is none to run when no
/// such slot exists.
fn acyclic_over(slots: &Arc<DepSlots>, old: &[u32], counts: impl Iterator<Item = u32>) -> bool {
    let mut cdg = vet::EdgeSet::over(slots.clone());
    let mut heads = Vec::new();
    for (slot, _) in counts.enumerate().filter(|&(_, n)| n > 0) {
        let (from, to) = slots.ends(slot);
        cdg.insert(from, to);
        if old[slot] == 0 {
            heads.push(to);
        }
    }
    let acyclic = heads.is_empty() || cdg.find_cycle_from(&heads).is_none();
    #[cfg(test)]
    tests::SEARCHES.with_borrow_mut(|s| s.push((acyclic, cdg.find_cycle().is_none())));
    acyclic
}

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::verify::verify_deadlock_free;
    use dfsssp_core::{Budget, ComputeOpts, Sssp};
    use fabric::{degrade, topo};
    use telemetry::fx::FxHashMap;
    use telemetry::Collector;

    /// The snapshot schedule for `net` and every fabric an event
    /// leaves of it: one chunk of all its terminals.
    fn snap(net: &Network) -> EngineConfig {
        EngineConfig::new().compute(ComputeOpts::new().chunk(net.num_terminals()))
    }

    /// A cold `DfSssp` under [`snap`].
    fn cold(net: &Network) -> DfSssp {
        DfSssp::new().with_config(snap(net))
    }

    fn fail_one_cable(net: &Network, seed: u64) -> Network {
        let (degraded, n) = degrade::fail_random_cables(net, 1, seed);
        assert_eq!(n, 1, "seed must find a removable cable");
        degraded
    }

    /// `net` without its first switch cable. On `kary_ntree(k,2)` that
    /// joins the lowest-id spine to the lowest-id leaf, whose trees it
    /// carries down and every other tree up: all their columns change,
    /// so the event falls back.
    fn first_cable_down(net: &Network) -> Network {
        let cable = net.switch_cables()[0];
        let dead = [Some(cable), net.channel(cable).rev].into_iter().flatten();
        degrade::remove(net, &Default::default(), &dead.collect())
    }

    fn delta_engine(net: &Network) -> DeltaEngine {
        DeltaEngine::new(cold(net))
    }

    /// The code [`tree_windows`] replaced, kept as its oracle: walk every
    /// source's path toward each destination and count its consecutive
    /// channel pairs.
    fn path_windows(
        net: &Network,
        routes: &Routes,
        dests: impl Iterator<Item = usize>,
    ) -> Option<Vec<((u32, u32), u32)>> {
        let terminals = net.terminals();
        let mut l0: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for d in dests {
            for (s, &src) in terminals.iter().enumerate() {
                if s == d {
                    continue;
                }
                let chans = routes.path_channels(net, src, terminals[d]).ok()?;
                for w in chans.windows(2) {
                    *l0.entry((w[0].0, w[1].0)).or_insert(0) += 1;
                }
            }
        }
        let mut l0: Vec<_> = l0.into_iter().collect();
        l0.sort_unstable_by_key(|e| e.0);
        Some(l0)
    }

    /// The kernel's counts in the oracle's form: `((from, to), count)`
    /// per window that has one, ascending.
    fn kernel_windows(
        net: &Network,
        routes: &Routes,
        dests: impl Iterator<Item = usize>,
    ) -> Option<Vec<((u32, u32), u32)>> {
        let slots = net.dep_slots().clone();
        let counts = tree_windows(net, &slots, routes, dests)?;
        assert_eq!(counts.len(), slots.num_slots());
        let counted = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
        Some(counted.map(|(slot, &n)| (slots.ends(slot), n)).collect())
    }

    #[test]
    fn window_kernel_matches_the_per_path_walk_it_replaced() {
        let irregular = topo::RandomTopoSpec {
            switches: 12,
            radix: 12,
            terminals_per_switch: 3,
            interswitch_links: 22,
        };
        let zoo = [
            topo::ring(5, 2),
            topo::torus(&[4, 4], 1),
            topo::torus(&[8, 8], 2),
            topo::kary_ntree(4, 2),
            topo::kary_ntree(16, 2),
            topo::dragonfly(3, 2, 2),
            topo::fully_connected(8, 2),
            topo::random_topology(&irregular, 17),
        ];
        for base in zoo {
            let mut net = base;
            // Pristine, then after each of four chained cable failures
            // (fewer where only bridges are left: the ring has one).
            for step in 0..5u64 {
                if step > 0 {
                    let (degraded, removed) = degrade::fail_random_cables(&net, 1, 100 + step);
                    if removed == 0 {
                        break;
                    }
                    net = degraded;
                }
                let label = format!("{} after {step} failures", net.label());
                let routes = Sssp::new()
                    .with_config(snap(&net))
                    .route(&net)
                    .expect(&label);
                let nt = net.num_terminals();
                let all = kernel_windows(&net, &routes, 0..nt).expect(&label);
                assert_eq!(Some(all), path_windows(&net, &routes, 0..nt), "{label}");
                let some = || (0..nt).step_by(3);
                assert_eq!(
                    kernel_windows(&net, &routes, some()),
                    path_windows(&net, &routes, some()),
                    "{label}: a subset of the trees"
                );
            }
        }
    }

    /// The kernel against the same oracle on tables whose walks transit a
    /// terminal: one source's walk reaches another source before that
    /// one's own turn, and a source's first hop lands on a node reached.
    #[test]
    fn window_kernel_matches_the_per_path_walk_through_a_terminal() {
        let (net, routes) = super::common::terminal_transit();
        let nt = net.num_terminals();
        let all = kernel_windows(&net, &routes, 0..nt);
        assert!(all.is_some());
        assert_eq!(all, path_windows(&net, &routes, 0..nt));
        for d in 0..nt {
            let one = || std::iter::once(d);
            assert_eq!(
                kernel_windows(&net, &routes, one()),
                path_windows(&net, &routes, one())
            );
        }
    }

    /// A way to damage tables in place.
    type Corrupt = Box<dyn Fn(&mut Routes) + Send + Sync>;

    /// Three ways to break destination column `d` of `routes` so that
    /// some source no longer reaches it: a two-switch loop, a cleared
    /// terminal entry, a channel the network does not have.
    fn corruptions(net: &Network, d: usize) -> [(&'static str, Corrupt); 3] {
        let dst = net.terminals()[d];
        let src = *net.terminals().iter().find(|&&t| t != dst).unwrap();
        let bogus = ChannelId(net.num_channels() as u32 + 7);
        let net = net.clone();
        let looped = move |r: &mut Routes| {
            // The first switch-to-switch tree edge a → b gains b → a.
            let (b, back) = net
                .switches()
                .iter()
                .filter_map(|&a| r.next_hop(a, d))
                .map(|c| net.channel(c))
                .find_map(|ch| Some((ch.dst, ch.rev?)).filter(|_| net.is_switch(ch.dst)))
                .expect("a tree edge between two switches");
            r.set_next(b, d, back);
        };
        [
            ("two-switch loop", Box::new(looped)),
            (
                "cleared terminal entry",
                Box::new(move |r| r.clear_next(src, d)),
            ),
            (
                "out-of-range channel",
                Box::new(move |r| r.set_next(src, d, bogus)),
            ),
        ]
    }

    #[test]
    fn corrupt_tables_fail_the_kernel_and_never_poison_the_engine() {
        let net = topo::kary_ntree(4, 2);
        let degraded = fail_one_cable(&net, 3);
        // Which trees that failure dirties, from an untouched engine.
        let probe = delta_engine(&net);
        probe.route(&net).unwrap();
        probe.route(&degraded).unwrap();
        let outcome = probe.last_outcome().unwrap();
        assert!(outcome.delta && outcome.layer0_acyclic);
        let d = outcome.dirty_dests[0];

        for (what, corrupt) in corruptions(&net, d) {
            let mut routes = cold(&net).route(&net).unwrap();
            corrupt(&mut routes);
            let nt = net.num_terminals();
            assert_eq!(
                tree_windows(&net, net.dep_slots(), &routes, 0..nt),
                None,
                "{what}"
            );
            assert_eq!(path_windows(&net, &routes, 0..nt), None, "{what}: oracle");

            // The same damage inside a warm engine's cache: the patch
            // notices, the cache is dropped for the full pipeline's,
            // and the answers stay the cold ones.
            let engine = delta_engine(&net);
            engine.route(&net).unwrap();
            corrupt(&mut engine.lock().state.as_mut().unwrap().routes);
            let served = engine.route(&degraded).unwrap();
            assert!(!engine.last_outcome().unwrap().delta, "{what}: patched");
            assert_eq!(served, cold(&net).route(&degraded).unwrap());
            let cache_ok = engine.lock().state.as_ref().map(|s| s.routes == served);
            assert_eq!(cache_ok, Some(true), "{what}: cache not rebuilt");
            assert_eq!(
                engine.route(&net).unwrap(),
                cold(&net).route(&net).unwrap(),
                "{what}: the event after"
            );
        }
    }

    #[test]
    fn a_fallback_runs_the_kernel_once_per_tree() {
        let net = topo::kary_ntree(4, 2);
        let nt = net.num_terminals();
        let rec = Arc::new(Collector::new());
        let engine = DeltaEngine::new(DfSssp::new().with_config(snap(&net).recorder(rec.clone())));
        let before = TREES_COUNTED.get();
        let passes = || rec.snapshot().phases[phases::CDG_BUILD].count;
        // Boot, a patch, then the first cable down too: every tree dirty.
        engine.route(&net).unwrap();
        let degraded = fail_one_cable(&net, 3);
        engine.route(&degraded).unwrap();
        let patched = TREES_COUNTED.get();
        assert!(engine.last_outcome().unwrap().delta && patched > before);
        let net = first_cable_down(&degraded);
        let cold = engine.route(&net).unwrap();
        let outcome = engine.last_outcome().unwrap();
        assert!(!outcome.delta && outcome.layer0_acyclic);
        // Each cold route built layer 0 once, and only the patch in
        // between ran the kernel on this crate's account...
        assert_eq!((passes(), TREES_COUNTED.get()), (2, patched));
        // ...yet the cache holds the counts of a pass over every tree.
        let held = engine.lock().state.as_ref().unwrap().l0.clone();
        assert_eq!(held, tree_windows(&net, net.dep_slots(), &cold, 0..nt));
        assert_eq!(TREES_COUNTED.get(), patched + nt);
    }

    /// A leaf switch's loss strands its terminals, and its return brings
    /// them back: either moves the terminal indices the cache is keyed
    /// by, so each event routes cold and reads as one fallback. The boot
    /// before them, with nothing cached, reads none.
    #[test]
    fn a_roster_change_is_counted_as_a_fallback() {
        let net = topo::kary_ntree(4, 2);
        let rec = Arc::new(Collector::new());
        let engine = DeltaEngine::new(DfSssp::new().with_config(snap(&net).recorder(rec.clone())));
        let fallbacks = || {
            let counted = rec
                .snapshot()
                .counters
                .get(counters::DELTA_FALLBACKS)
                .copied();
            counted.unwrap_or(0)
        };
        let into_terminal = |s: &&NodeId| {
            let out = net.out_channels(**s).iter();
            out.map(|&c| net.channel(c).dst).any(|v| net.is_terminal(v))
        };
        let leaf = *net.switches().iter().find(into_terminal).unwrap();
        let cut = degrade::remove(&net, &[leaf].into_iter().collect(), &Default::default());
        let stranded = degrade::extract_core(&cut).into_iter().collect();
        let lost = degrade::remove(&cut, &stranded, &Default::default());
        assert!(lost.num_terminals() < net.num_terminals());
        engine.route(&net).unwrap();
        let mut seen = fallbacks();
        assert_eq!(seen, 0, "the first route has nothing to fall back from");
        for view in [&lost, &net] {
            assert_eq!(engine.route(view).unwrap(), cold(&net).route(view).unwrap());
            assert!(!engine.last_outcome().unwrap().delta);
            assert_eq!(fallbacks() - seen, 1, "{} terminals", view.num_terminals());
            seen = fallbacks();
        }
    }

    #[test]
    fn delta_matches_full_recompute_on_cable_failure() {
        let net = topo::torus(&[4, 4], 1);
        let engine = delta_engine(&net);
        let warm = engine.route(&net).unwrap();
        assert_eq!(warm, cold(&net).route(&net).unwrap());
        assert!(!engine.last_outcome().unwrap().delta);

        let degraded = fail_one_cable(&net, 7);
        let fast = engine.route(&degraded).unwrap();
        let outcome = engine.last_outcome().unwrap();
        assert!(
            outcome.delta,
            "single cable failure must take the delta path"
        );
        assert!(!outcome.dirty_dests.is_empty());
        assert!(
            outcome.dirty_dests.len() < net.num_terminals(),
            "a single cable must not dirty every destination"
        );
        let full = cold(&net).route(&degraded).unwrap();
        assert_eq!(fast, full, "delta must be bit-identical to full recompute");
        verify_deadlock_free(&degraded, &fast).unwrap();
    }

    #[test]
    fn delta_chains_across_consecutive_failures() {
        let net = topo::dragonfly(3, 1, 1);
        let engine = delta_engine(&net);
        engine.route(&net).unwrap();
        let mut current = net;
        for seed in 1..4u64 {
            let (next, n) = degrade::fail_random_cables(&current, 1, seed);
            if n == 0 {
                break;
            }
            let fast = engine.route(&next).unwrap();
            let full = cold(&next).route(&next).unwrap();
            assert_eq!(fast, full, "epoch after seed {seed}");
            current = next;
        }
    }

    #[test]
    fn zero_threshold_forces_full_recompute() {
        let net = topo::torus(&[4, 4], 1);
        let engine = DeltaEngine::with_delta_config(
            cold(&net),
            DeltaConfig {
                max_dirty_fraction: 0.0,
            },
        );
        engine.route(&net).unwrap();
        let degraded = fail_one_cable(&net, 7);
        let routes = engine.route(&degraded).unwrap();
        assert!(!engine.last_outcome().unwrap().delta);
        assert_eq!(routes, cold(&net).route(&degraded).unwrap());
    }

    #[test]
    fn chunked_context_passes_through() {
        let net = topo::torus(&[3, 3], 1);
        let engine = DeltaEngine::new(DfSssp::new());
        let routes = engine.route(&net).unwrap();
        assert_eq!(routes, DfSssp::new().route(&net).unwrap());
        assert!(!engine.last_outcome().unwrap().delta);
    }

    #[test]
    fn online_mode_is_not_delta_capable() {
        let net = topo::ring(5, 1);
        let engine = DfSssp {
            mode: LayerAssignMode::Online,
            ..cold(&net)
        };
        let wrapped = DeltaEngine::new(engine.clone());
        assert_eq!(wrapped.route(&net).unwrap(), engine.route(&net).unwrap());
        assert!(!wrapped.last_outcome().unwrap().delta);
        assert!(wrapped.lock().state.is_none(), "online routes were cached");
    }

    #[test]
    fn a_patch_reports_whether_the_layer0_union_is_acyclic() {
        // (fabric, whether a cable failure's old∪new layer-0 union stays acyclic)
        for (net, acyclic) in [
            (topo::torus(&[5, 5], 1), false),
            (topo::kary_ntree(2, 3), true),
        ] {
            let engine = delta_engine(&net);
            engine.route(&net).unwrap();
            engine.route(&fail_one_cable(&net, 3)).unwrap();
            let outcome = engine.last_outcome().unwrap();
            assert_eq!(
                (outcome.delta, outcome.union_acyclic),
                (true, acyclic),
                "{}",
                net.label()
            );
        }
    }

    thread_local! {
        /// Each [`acyclic_over`] verdict on this thread, beside the
        /// verdict of a search from every channel of the same graph.
        pub(super) static SEARCHES: std::cell::RefCell<Vec<(bool, bool)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Over cable and switch events down and back up on the generator
    /// zoo, every search [`acyclic_over`] runs — on the old∪new union
    /// and on the patched layer 0 — gives the verdict of a search from
    /// every channel, and both verdicts occur.
    #[test]
    fn a_search_from_the_new_windows_is_the_whole_search() {
        SEARCHES.take();
        super::common::sweep(0..200, |c| {
            let base = super::common::zoo_net(c);
            let engine = delta_engine(&base);
            if engine.route(&base).is_err() {
                return;
            }
            let spare = degrade::redundant_cables(&base);
            if !spare.is_empty() {
                let cable = spare[c.draw("cable", 0..spare.len())];
                let dead = [Some(cable), base.channel(cable).rev];
                let down = degrade::remove(
                    &base,
                    &Default::default(),
                    &dead.into_iter().flatten().collect(),
                );
                let _ = engine.route(&down);
                let _ = engine.route(&base);
            }
            let switch = base.switches()[c.draw("switch", 0..base.num_switches())];
            let down = degrade::remove(&base, &[switch].into_iter().collect(), &Default::default());
            if down.is_strongly_connected() {
                let _ = engine.route(&down);
                let _ = engine.route(&base);
            }
        });
        let searches = SEARCHES.take();
        for (i, &(from_heads, whole)) in searches.iter().enumerate() {
            assert_eq!(from_heads, whole, "search {i} of {}", searches.len());
        }
        let cyclic = searches.iter().filter(|&&(_, whole)| !whole).count();
        println!("{} searches, {cyclic} cyclic", searches.len());
        // A cycle of new windows alone, beside an old window elsewhere.
        let ring = topo::ring(4, 1);
        let (slots, sw) = (ring.dep_slots(), ring.switches());
        let hop = |i: usize| ring.channel_between(sw[i % 4], sw[(i + 1) % 4]).unwrap().0;
        let back = |i: usize| ring.channel_between(sw[(i + 1) % 4], sw[i % 4]).unwrap().0;
        let (mut old, mut new) = (vec![0; slots.num_slots()], vec![0; slots.num_slots()]);
        old[slots.slot(back(1), back(0))] = 1;
        (0..4).for_each(|i| new[slots.slot(hop(i), hop(i + 1))] = 1);
        assert!(!acyclic_over(slots, &old, new.into_iter()));
        assert!(
            cyclic > 0 && cyclic < searches.len(),
            "{cyclic} of {}",
            searches.len()
        );
    }

    #[test]
    fn a_patch_reports_the_cycles_it_broke() {
        // The boot and the patch each report what a cold route of their
        // fabric reports, once: the counters come from the loop itself.
        let net = topo::torus(&[5, 5], 1);
        let rec = Arc::new(Collector::new());
        let engine = DeltaEngine::new(DfSssp::new().with_config(snap(&net).recorder(rec.clone())));
        let reported = || {
            let snap = rec.snapshot();
            [counters::CYCLES_BROKEN, counters::PATHS_MOVED].map(|c| snap.counters[c] as usize)
        };
        let mut before = [0, 0];
        for view in [net.clone(), fail_one_cable(&net, 3)] {
            engine.route(&view).unwrap();
            let (_, stats) = cold(&net).route_with_stats(&view).unwrap();
            assert!(stats.cycles_broken > 0 && stats.paths_moved > 0);
            let now = reported();
            let got = [now[0] - before[0], now[1] - before[1]];
            assert_eq!(got, [stats.cycles_broken, stats.paths_moved]);
            before = now;
        }
        assert!(engine.last_outcome().unwrap().delta);
    }

    #[test]
    fn the_planner_answers_no_transition() {
        // Every update plan is the subnet manager loop's own.
        let net = topo::torus(&[4, 4], 1);
        let engine = delta_engine(&net);
        let routes = engine.route(&net).unwrap();
        let plan = engine.planner().diff_plan(&net, &routes, &routes, 8);
        assert!(plan.is_none());
    }

    #[test]
    fn recovery_readd_is_handled() {
        // Remove a cable, then restore it: the second delta must match a
        // fresh full recompute on the restored (original) network. (On a
        // full mesh the re-added cable changes, and dirties, a few trees.)
        let net = topo::fully_connected(8, 2);
        let engine = delta_engine(&net);
        engine.route(&net).unwrap();
        let degraded = fail_one_cable(&net, 7);
        engine.route(&degraded).unwrap();
        let fast = engine.route(&net).unwrap();
        let outcome = engine.last_outcome().unwrap();
        assert!(outcome.delta, "re-add must take the delta path");
        assert_eq!(fast, cold(&net).route(&net).unwrap());
    }

    #[test]
    fn a_failed_full_recompute_resets_the_outcome() {
        let net = topo::kary_ntree(4, 2);
        let mut engine = delta_engine(&net);
        engine.route(&net).unwrap();
        engine.route(&fail_one_cable(&net, 3)).unwrap();
        assert!(engine.last_outcome().unwrap().delta);

        // A switch down: the patch (or the full pipeline) trips the edge
        // cap on layer 0.
        let smaller = degrade::fail_random_switch(&net, 7).expect("a removable switch");
        let unlimited = engine.config();
        engine.set_config(snap(&net).budget(Budget::new().max_cdg_edges(1)));
        let err = engine.route(&smaller).unwrap_err();
        assert!(matches!(err, RouteError::BudgetExceeded { .. }), "{err}");
        assert_eq!(engine.last_outcome(), Some(DeltaOutcome::default()));

        engine.set_config(unlimited);
        let good = engine.route(&smaller).unwrap();
        assert_eq!(good, cold(&net).route(&smaller).unwrap());
    }

    #[test]
    fn each_stage_reports_its_phase_once() {
        let net = topo::kary_ntree(4, 2);
        let rec = Arc::new(Collector::new());
        let engine = DeltaEngine::new(DfSssp::new().with_config(snap(&net).recorder(rec.clone())));
        engine.route(&net).unwrap();
        const STAGES: [&str; 4] = [
            phases::DELTA_DIFF,
            phases::DELTA_SWEEP,
            phases::DELTA_COUNTS,
            phases::DELTA_LAYERS,
        ];
        let spans = |names: &[&str]| -> Vec<(u64, u64)> {
            let snap = rec.snapshot();
            let stat = |n: &&str| snap.phases.get(*n).cloned().unwrap_or_default();
            names.iter().map(stat).map(|p| (p.count, p.nanos)).collect()
        };
        let counts = |names: &[&str]| -> Vec<u64> { spans(names).iter().map(|s| s.0).collect() };
        assert_eq!(
            counts(&[phases::DELTA_REBUILD, phases::DELTA_DIRTY]),
            [1, 0]
        );

        // A leaf cable down: patched, with counts held (acyclic fabric).
        let degraded = fail_one_cable(&net, 3);
        engine.route(&degraded).unwrap();
        assert!(engine.last_outcome().unwrap().delta);
        assert_eq!(counts(&STAGES), [1, 1, 1, 1]);
        let outer = [
            phases::DELTA_DIRTY,
            phases::DELTA_PATCH,
            phases::DELTA_REBUILD,
        ];
        assert_eq!(counts(&outer), [1, 1, 1]);
        let nested: u64 = spans(&STAGES).iter().map(|s| s.1).sum();
        assert!(nested <= spans(&[phases::DELTA_PATCH])[0].1);

        // The first cable down too dirties every tree: fallback, cache
        // rebuilt.
        engine.route(&first_cable_down(&degraded)).unwrap();
        assert!(!engine.last_outcome().unwrap().delta);
        assert_eq!(counts(&STAGES), [1, 1, 1, 1]);
        assert_eq!(counts(&outer), [2, 1, 2]);
    }

    /// A recorder nobody listens to: reporting to it is a bug.
    #[derive(Debug)]
    struct Deaf;

    impl Recorder for Deaf {
        fn enabled(&self) -> bool {
            false
        }
        fn phase(&self, name: &'static str, _: u64) {
            panic!("phase {name} timed for a disabled recorder");
        }
        fn add(&self, name: &'static str, _: u64) {
            panic!("counter {name} reported to a disabled recorder");
        }
        fn observe(&self, name: &'static str, _: u64) {
            panic!("histogram {name} reported to a disabled recorder");
        }
    }

    #[test]
    fn a_disabled_recorder_is_never_timed_for() {
        let net = topo::kary_ntree(4, 2);
        let engine =
            DeltaEngine::new(DfSssp::new().with_config(snap(&net).recorder(Arc::new(Deaf))));
        engine.route(&net).unwrap();
        let degraded = fail_one_cable(&net, 3);
        engine.route(&degraded).unwrap();
        assert!(engine.last_outcome().unwrap().delta);
        engine.route(&first_cable_down(&degraded)).unwrap();
        assert!(!engine.last_outcome().unwrap().delta);
    }
}
