//! Incremental rerouting: recompute only what a fabric event dirtied.
//!
//! A cable failure on a large fabric typically invalidates a handful of
//! destination trees, yet the subnet manager's reroute path recomputes
//! every tree, rebuilds the full channel dependency graph and re-runs the
//! cycle search — O(fabric) work for an O(change) event. This crate adds
//! a delta-compute layer over a [`RoutingEngine`]:
//!
//! * [`DeltaEngine`] caches the last published epoch (network, routes, a
//!   [`fabric::ReverseIndex`] from channels to the destination trees using
//!   them, per-destination hop distances, and the layer-0 CDG edge
//!   counts). On the next route request it diffs the networks, extracts
//!   the *affected set* of destinations, re-sweeps only those trees, and
//!   patches the CDG counts instead of rebuilding them.
//! * The result is **bit-identical** to a full recompute under a
//!   snapshot-chunk compute context (`cx.chunk >= |T|`): clean trees are
//!   provably unchanged (see the dirty rules below), dirty trees are
//!   recomputed with the same deterministic Dijkstra, and the layer
//!   assignment either provably produces all-zeros (patched layer-0 CDG
//!   still acyclic) or re-runs the real budgeted assignment.
//! * [`DeltaEngine::planner`] hands out a [`DeltaPlanner`], a
//!   [`DiffPlanProvider`] that certifies *direct* table transitions in
//!   O(change): the union of the old and new all-paths CDGs is acyclic,
//!   which bounds every per-layer old∪new CDG, so no drain is needed.
//!
//! # Dirty rules
//!
//! With uniform weights (what a snapshot chunk uses), destination `d`'s
//! tree can only change if
//!
//! * a **removed** channel was a tree edge of `d` (found via the reverse
//!   index), or
//! * an **added** channel `a → b` satisfies `hop(a,d) >= hop(b,d) + 1`
//!   on the *old* network — i.e. the edge offers a path at least as short
//!   as the incumbent. Equality is included because a tie can flip the
//!   deterministic parent choice. Edges into a node that could not reach
//!   `d` are inert: if the additions connect it, some later added edge on
//!   the new path triggers the rule for `d` anyway.
//!
//! Both rules compose across multi-event diffs because clean
//! destinations' hop-distance rows remain valid by the same argument.
//!
//! When the dirty fraction exceeds [`DeltaConfig::max_dirty_fraction`],
//! the engine falls back to a full recompute (the delta would not pay for
//! itself) and rebuilds its cache from the result.

use std::sync::{Arc, Mutex, MutexGuard};

use dfsssp_core::balance::balance_layers;
use dfsssp_core::budget::{record_trip, Budget};
use dfsssp_core::dfsssp::{assign_layers_budgeted_in, LayerAssignMode};
use dfsssp_core::dijkstra::spt_to;
use dfsssp_core::paths::PathSet;
use dfsssp_core::{
    ComputeCtx, CycleBreakHeuristic, DfSssp, EngineConfig, RouteError, RoutingEngine,
};
use fabric::{ChannelId, Network, ReverseIndex, Routes};
use subnet::transition::{self, DiffPlanProvider, UpdatePlan, UpdateStage};
use telemetry::fx::FxHashMap;
use telemetry::{counters, phases, Recorder, RecorderHandle};

/// Tuning knobs for the delta engine.
#[derive(Clone, Copy, Debug)]
pub struct DeltaConfig {
    /// Fall back to a full recompute when more than this fraction of the
    /// destinations is dirty. The patch path is linear in the dirty
    /// count; past roughly half the fabric a fresh sweep is cheaper and
    /// produces the identical result anyway.
    pub max_dirty_fraction: f64,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig {
            max_dirty_fraction: 0.5,
        }
    }
}

/// The inner-engine parameters a delta run must replicate to stay
/// bit-identical to the full pipeline.
#[derive(Clone)]
pub struct DeltaParams {
    /// Cycle-break heuristic of the budgeted layer assignment.
    pub heuristic: CycleBreakHeuristic,
    /// Virtual-layer budget.
    pub max_layers: usize,
    /// Whether paths are spread over unused layers afterwards.
    pub balance: bool,
    /// Whether the offline assignment compacts overflow layers.
    pub compact: bool,
    /// Resource bounds for each run.
    pub budget: Budget,
    /// Telemetry sink.
    pub recorder: RecorderHandle,
}

/// Engines that expose enough of their pipeline for [`DeltaEngine`] to
/// reproduce it incrementally. Returning `None` (e.g. for a
/// configuration whose layer assignment is order-dependent) disables the
/// delta path; the engine is then called through unchanged.
pub trait DeltaCapable: RoutingEngine {
    /// The parameters of the replicable pipeline, if any.
    fn delta_params(&self) -> Option<DeltaParams>;
}

impl DeltaCapable for DfSssp {
    fn delta_params(&self) -> Option<DeltaParams> {
        // Online assignment adds paths one at a time in global order; a
        // patched CDG cannot reproduce its history, so only the offline
        // mode (the paper's contribution) is delta-capable.
        if self.mode != LayerAssignMode::Offline {
            return None;
        }
        Some(DeltaParams {
            heuristic: self.heuristic,
            max_layers: self.max_layers,
            balance: self.balance,
            compact: self.compact,
            budget: self.budget.clone(),
            recorder: self.recorder.clone(),
        })
    }
}

/// What the last [`DeltaEngine`] route request did.
#[derive(Clone, Debug, Default)]
pub struct DeltaOutcome {
    /// Whether the delta path produced the routes (false = full
    /// recompute, passthrough, or error).
    pub delta: bool,
    /// Destination terminal indices whose trees were re-swept.
    pub dirty_dests: Vec<usize>,
    /// Whether the patched layer-0 CDG is acyclic (all paths fit one
    /// layer before balancing).
    pub layer0_acyclic: bool,
    /// Whether the old∪new all-paths CDG union is acyclic — the direct
    /// transition certificate [`DeltaPlanner`] hands out.
    pub union_acyclic: bool,
}

/// Cached epoch: everything needed to diff the next network against.
struct DeltaState {
    net: Network,
    routes: Routes,
    rindex: ReverseIndex,
    /// Per destination terminal index: hop distances from every node
    /// (terminal-sink metric, `u32::MAX` when unreachable).
    hopdist: Vec<Arc<Vec<u32>>>,
    /// All-paths (layer-0) CDG edge counts as a flat vector sorted by
    /// consecutive channel pair. Mirrors `Cdg::add_path` over every
    /// extracted path; kept sorted so the per-epoch patch is a linear
    /// merge with no hashing on the reroute's critical path.
    l0: Vec<((u32, u32), u32)>,
    /// Whether `l0` is acyclic.
    l0_acyclic: bool,
    /// `(clamped layer budget, balance)` the cached epoch's layer
    /// assignment ran under. When `l0_acyclic` holds, the assignment is
    /// a pure function of the pair index and these two knobs, so a later
    /// epoch in the same regime can bulk-copy the layer matrix instead
    /// of recomputing it.
    layer_cfg: Option<(usize, bool)>,
    /// The planner's transition certificate.
    cert: Cert,
}

/// The transition certificate, finished lazily: the O(fabric) remap and
/// column diff run at plan time (publication), not on the reroute's
/// critical path — [`DeltaPlanner::diff_plan`] completes and caches it
/// on first use.
enum Cert {
    /// No certificate (epoch came from a full recompute: there is no
    /// vetted predecessor to transition from).
    None,
    /// Ingredients moved (not cloned) from the previous epoch's cache.
    /// `union_acyclic` — old∪new all-paths CDG union acyclic — is
    /// already decided: it is one cheap DFS and [`DeltaOutcome`]
    /// reports it at route time.
    Pending {
        prev_net: Box<Network>,
        prev_routes: Routes,
        union_acyclic: bool,
    },
    /// Finished: what the subnet manager's remapped previous routes
    /// must look like (the planner's identity check), plus the changed
    /// destination columns and their switch-entry swap cost.
    Ready {
        expected_old: Routes,
        union_acyclic: bool,
        plan_changed: Vec<usize>,
        plan_entries: usize,
    },
}

#[derive(Default)]
struct Shared {
    state: Option<DeltaState>,
    last: Option<DeltaOutcome>,
}

/// A delta-compute wrapper around a [`DeltaCapable`] routing engine.
///
/// Behaves exactly like the inner engine (same routes, same errors, same
/// `RoutingEngine` surface); the only observable differences are speed,
/// the `delta_*` telemetry, and the [`DeltaPlanner`] certificates.
pub struct DeltaEngine<E = DfSssp> {
    inner: E,
    cfg: DeltaConfig,
    shared: Arc<Mutex<Shared>>,
}

impl<E: RoutingEngine + DeltaCapable> DeltaEngine<E> {
    /// Wrap `inner` with the default [`DeltaConfig`].
    pub fn new(inner: E) -> Self {
        Self::with_delta_config(inner, DeltaConfig::default())
    }

    /// Wrap `inner` with an explicit [`DeltaConfig`].
    pub fn with_delta_config(inner: E, cfg: DeltaConfig) -> Self {
        DeltaEngine {
            inner,
            cfg,
            shared: Arc::new(Mutex::new(Shared::default())),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// A transition-plan provider backed by this engine's certificates.
    /// Hand it to `subnet::SmLoop::set_plan_provider`; it returns plans
    /// only for the exact `(old, new)` pairs this engine just computed.
    pub fn planner(&self) -> DeltaPlanner {
        DeltaPlanner {
            shared: Arc::clone(&self.shared),
        }
    }

    /// What the most recent route request did, if any.
    pub fn last_outcome(&self) -> Option<DeltaOutcome> {
        self.lock().last.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Full recompute through the inner engine, then rebuild the cache
    /// from the result (only meaningful under a snapshot chunk — other
    /// chunkings use balanced weights the dirty rules don't model).
    fn full_recompute(
        &self,
        g: &mut Shared,
        params: &DeltaParams,
        net: &Network,
        cx: &ComputeCtx,
    ) -> Result<Routes, RouteError> {
        let routes = self.inner.route_in(net, cx)?;
        if cx.chunk.max(1) >= net.num_terminals() {
            let layer_cfg = (
                params.budget.start().clamp_layers(params.max_layers),
                params.balance,
            );
            g.state = rebuild_state(net, &routes, layer_cfg);
        } else {
            g.state = None;
        }
        g.last = Some(DeltaOutcome {
            delta: false,
            dirty_dests: Vec::new(),
            layer0_acyclic: g.state.as_ref().is_some_and(|s| s.l0_acyclic),
            union_acyclic: false,
        });
        Ok(routes)
    }

    /// The delta path. `Ok(None)` means "not eligible, run the full
    /// pipeline"; errors are exactly the ones the full pipeline would
    /// raise on the same input.
    fn try_delta(
        &self,
        g: &mut Shared,
        params: &DeltaParams,
        net: &Network,
        cx: &ComputeCtx,
    ) -> Result<Option<Routes>, RouteError> {
        let Some(prev) = g.state.as_ref() else {
            return Ok(None);
        };
        let nt = net.num_terminals();
        // The diff assumes an identical node roster (degrade preserves
        // it); anything else is a different fabric, not an event.
        if prev.net.num_nodes() != net.num_nodes()
            || prev.net.num_terminals() != nt
            || prev.net.terminals() != net.terminals()
            || net
                .nodes()
                .zip(prev.net.nodes())
                .any(|((_, a), (_, b))| a.name != b.name)
        {
            return Ok(None);
        }

        let rec: &dyn Recorder = &*params.recorder;
        let guard = params.budget.start();
        guard.admit(net)?;
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        guard.check_deadline()?;
        let max_layers = guard.clamp_layers(params.max_layers);

        // ---- Channel diff: match by (source node, source port). ----
        let mut new_by_key: FxHashMap<(u32, u16), ChannelId> = FxHashMap::default();
        for (cid, ch) in net.channels() {
            new_by_key.insert((ch.src.0, ch.src_port), cid);
        }
        let mut translate: Vec<Option<ChannelId>> = vec![None; prev.net.num_channels()];
        let mut matched = vec![false; net.num_channels()];
        let mut removed: Vec<ChannelId> = Vec::new();
        for (cid, ch) in prev.net.channels() {
            match new_by_key.get(&(ch.src.0, ch.src_port)) {
                Some(&nc) if net.channel(nc).dst == ch.dst => {
                    translate[cid.idx()] = Some(nc);
                    matched[nc.idx()] = true;
                }
                _ => removed.push(cid),
            }
        }
        let added: Vec<ChannelId> = net
            .channels()
            .filter(|&(c, _)| !matched[c.idx()])
            .map(|(c, _)| c)
            .collect();

        // ---- Affected set. ----
        let mut dirty = vec![false; nt];
        telemetry::timed(rec, phases::DELTA_DIRTY, || {
            for &c in &removed {
                for &d in prev.rindex.dests_of(c) {
                    dirty[d as usize] = true;
                }
            }
            for &c in &added {
                let ch = net.channel(c);
                let (a, b) = (ch.src.idx(), ch.dst.idx());
                for (d, flag) in dirty.iter_mut().enumerate() {
                    if *flag {
                        continue;
                    }
                    let row = &prev.hopdist[d];
                    if row[b] != u32::MAX && row[a] > row[b] {
                        *flag = true;
                    }
                }
            }
        });
        let dirty_dests: Vec<usize> = (0..nt).filter(|&d| dirty[d]).collect();
        if rec.enabled() {
            rec.add(counters::DELTA_DIRTY_DSTS, dirty_dests.len() as u64);
        }
        if dirty_dests.len() as f64 > self.cfg.max_dirty_fraction * nt as f64 {
            if rec.enabled() {
                rec.add(counters::DELTA_FALLBACKS, 1);
            }
            return Ok(None);
        }

        // ---- Patch: trees, tables, CDG counts, layers. ----
        let patch = telemetry::timed(rec, phases::DELTA_PATCH, || {
            self.patch(
                prev, params, net, cx, &guard, max_layers, &dirty, &translate,
            )
        })?;
        let Some((routes, l0, l0_acyclic, union_acyclic, dirty_rows)) = patch else {
            // Cache inconsistent with the diff (should not happen); a
            // full recompute both serves the request and repairs it.
            if rec.enabled() {
                rec.add(counters::DELTA_FALLBACKS, 1);
            }
            return Ok(None);
        };

        // ---- Commit the new cache; the previous epoch's artifacts move
        // into the pending certificate. ----
        // Reverse index by translation: clean destinations keep their
        // incidences (renamed into the new id space), dirty destinations
        // re-walk their fresh columns — O(incidences), not O(fabric²).
        // Ascending order per channel is restored by sorting only the
        // lists the dirty walk touched.
        let rindex = {
            let n = net.num_channels();
            // Capacity per new channel: the translated old list plus
            // room for this event's dirty appends (removals only leave
            // slack the loose CSR tolerates).
            let mut off = vec![0u32; n + 1];
            for (oc, nc) in translate.iter().enumerate() {
                if let Some(nc) = nc {
                    off[nc.idx() + 1] = prev.rindex.dests_of(ChannelId(oc as u32)).len() as u32;
                }
            }
            for &d in &dirty_dests {
                for (id, _) in net.nodes() {
                    if let Some(c) = routes.next_hop(id, d) {
                        off[c.idx() + 1] += 1;
                    }
                }
            }
            for i in 1..off.len() {
                off[i] += off[i - 1];
            }
            // Bulk-copy every surviving channel's list into its slot —
            // O(incidences) of memcpy, no per-entry dirty test.
            let mut len = vec![0u32; n];
            let mut dests = vec![0u32; off[n] as usize];
            for (oc, nc) in translate.iter().enumerate() {
                if let Some(nc) = nc {
                    let src = prev.rindex.dests_of(ChannelId(oc as u32));
                    let lo = off[nc.idx()] as usize;
                    dests[lo..lo + src.len()].copy_from_slice(src);
                    len[nc.idx()] = src.len() as u32;
                }
            }
            // Reconcile each dirty destination by walking its column
            // once: most nodes keep their next hop (and so their slot in
            // the index); only the handful that changed need an ordered
            // removal from the old channel's slice and an ordered insert
            // into the new one.
            for &d in &dirty_dests {
                for (id, _) in net.nodes() {
                    let new_c = routes.next_hop(id, d);
                    let old_c = prev
                        .routes
                        .next_hop(id, d)
                        .and_then(|oc| translate.get(oc.idx()).copied().flatten());
                    if new_c == old_c {
                        continue;
                    }
                    if let Some(c) = old_c {
                        let lo = off[c.idx()] as usize;
                        let l = len[c.idx()] as usize;
                        if let Ok(pos) = dests[lo..lo + l].binary_search(&(d as u32)) {
                            dests.copy_within(lo + pos + 1..lo + l, lo + pos);
                            len[c.idx()] -= 1;
                        }
                    }
                    if let Some(c) = new_c {
                        let lo = off[c.idx()] as usize;
                        let l = len[c.idx()] as usize;
                        if let Err(pos) = dests[lo..lo + l].binary_search(&(d as u32)) {
                            dests.copy_within(lo + pos..lo + l, lo + pos + 1);
                            dests[lo + pos] = d as u32;
                            len[c.idx()] += 1;
                        }
                    }
                }
            }
            ReverseIndex::from_loose_csr(off, len, dests)
        };
        let prev = g.state.take().expect("present since the diff began");
        let mut hopdist: Vec<Arc<Vec<u32>>> = Vec::with_capacity(nt);
        let mut fresh = dirty_rows.into_iter();
        for (&is_dirty, old_row) in dirty.iter().zip(&prev.hopdist) {
            hopdist.push(if is_dirty {
                Arc::new(fresh.next().expect("one row per dirty dest"))
            } else {
                Arc::clone(old_row)
            });
        }
        let routes_copy = routes.clone();
        let net_copy = net.clone();
        g.state = Some(DeltaState {
            net: net_copy,
            routes: routes_copy,
            rindex,
            hopdist,
            l0,
            l0_acyclic,
            layer_cfg: Some((max_layers, params.balance)),
            cert: Cert::Pending {
                prev_net: Box::new(prev.net),
                prev_routes: prev.routes,
                union_acyclic,
            },
        });
        g.last = Some(DeltaOutcome {
            delta: true,
            dirty_dests,
            layer0_acyclic: l0_acyclic,
            union_acyclic,
        });
        Ok(Some(routes))
    }

    /// Assemble the new routes and patched CDG counts. `Ok(None)` means
    /// the cache disagrees with the diff (fall back defensively).
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn patch(
        &self,
        prev: &DeltaState,
        params: &DeltaParams,
        net: &Network,
        cx: &ComputeCtx,
        guard: &dfsssp_core::BudgetGuard,
        max_layers: usize,
        dirty: &[bool],
        translate: &[Option<ChannelId>],
    ) -> Result<Option<(Routes, Vec<((u32, u32), u32)>, bool, bool, Vec<Vec<u32>>)>, RouteError>
    {
        let nt = net.num_terminals();
        let terminals = net.terminals();
        let rec: &dyn Recorder = &*params.recorder;

        // New tables: clean columns translate in one row-major bulk
        // pass, dirty columns re-sweep. Any uniform weight reproduces
        // the snapshot-chunk trees bit for bit (the comparisons are
        // scale-invariant), so sweep with 1s and skip the diameter-sized
        // base weight entirely.
        let mut routes = Routes::new(net, self.inner.name());
        if !routes.copy_clean_columns_translated(&prev.routes, dirty, translate) {
            return Ok(None); // clean tree through a removed channel
        }
        let ones = vec![1u64; net.num_channels()];
        let mut dirty_rows: Vec<Vec<u32>> = Vec::new();
        for d in 0..nt {
            if dirty[d] {
                let spt = spt_to(net, terminals[d], &ones);
                for (id, _) in net.nodes() {
                    if let Some(c) = spt.parent[id.idx()] {
                        routes.set_next(id, d, c);
                    }
                }
                dirty_rows.push(
                    spt.dist
                        .iter()
                        .map(|&x| if x == u64::MAX { u32::MAX } else { x as u32 })
                        .collect(),
                );
            }
        }

        // CDG counts, all flat: rename the survivors — windows through a
        // removed channel drop out, which is exact because only dirty
        // trees' paths used them — collect the dirty destinations' old
        // windows (skipping dropped ones for the same reason) and their
        // new windows as sorted delta lists, then apply both in one
        // three-way merge. The channel translation is monotone for the
        // event diffs this path serves (degrade preserves relative
        // order), so the renamed vector is already sorted; the linear
        // re-sort check below covers any exotic pairing.
        let mut base: Vec<((u32, u32), u32)> = Vec::with_capacity(prev.l0.len());
        for &((f, t), c) in &prev.l0 {
            if let (Some(nf), Some(nt2)) = (translate[f as usize], translate[t as usize]) {
                base.push(((nf.0, nt2.0), c));
            }
        }
        if !base.windows(2).all(|w| w[0].0 < w[1].0) {
            base.sort_unstable_by_key(|e| e.0);
        }
        let mut decs: Vec<(u32, u32)> = Vec::new();
        let mut incs: Vec<(u32, u32)> = Vec::new();
        for (d, &t) in terminals.iter().enumerate() {
            if !dirty[d] {
                continue;
            }
            for (s, &src) in terminals.iter().enumerate() {
                if s == d {
                    continue;
                }
                let Ok(walk) = prev.routes.path(&prev.net, src, t) else {
                    return Ok(None);
                };
                let mut last: Option<u32> = None;
                for step in walk {
                    let Ok(c) = step else { return Ok(None) };
                    if let Some(p) = last {
                        if let (Some(nf), Some(nt2)) = (translate[p as usize], translate[c.idx()]) {
                            decs.push((nf.0, nt2.0));
                        }
                    }
                    last = Some(c.0);
                }
                let Ok(walk) = routes.path(net, src, t) else {
                    return Ok(None);
                };
                let mut last: Option<u32> = None;
                for step in walk {
                    let Ok(c) = step else { return Ok(None) };
                    if let Some(p) = last {
                        incs.push((p, c.0));
                    }
                    last = Some(c.0);
                }
            }
        }
        decs.sort_unstable();
        incs.sort_unstable();

        // Union-first acyclicity: the old∪new all-paths CDG union is
        // both the planner's direct-transition certificate and a
        // superset of the patched graph, so when it is acyclic — the
        // common case for a cable event on a path-diverse fabric — one
        // DFS settles both questions. (`base ∪ incs` covers the union:
        // every patched window survives from `base` or was added by a
        // dirty tree.)
        let union_acyclic = prev.l0_acyclic
            && dense_acyclic(
                net.num_channels(),
                base.iter().map(|&(k, _)| k).chain(incs.iter().copied()),
            );

        // Apply the delta: one merge pass in key order. A decrement of a
        // missing key (or below zero) means the cache disagrees with the
        // diff — bail and let the full pipeline repair it.
        let mut l0: Vec<((u32, u32), u32)> = Vec::with_capacity(base.len() + incs.len());
        let (mut bi, mut di, mut ii) = (0, 0, 0);
        while bi < base.len() || di < decs.len() || ii < incs.len() {
            let mut k = (u32::MAX, u32::MAX);
            if let Some(&(bk, _)) = base.get(bi) {
                k = k.min(bk);
            }
            if let Some(&dk) = decs.get(di) {
                k = k.min(dk);
            }
            if let Some(&ik) = incs.get(ii) {
                k = k.min(ik);
            }
            let mut count: i64 = 0;
            let mut in_base = false;
            if let Some(&(bk, c)) = base.get(bi) {
                if bk == k {
                    count = i64::from(c);
                    in_base = true;
                    bi += 1;
                }
            }
            let mut removed_here: i64 = 0;
            while decs.get(di) == Some(&k) {
                removed_here += 1;
                di += 1;
            }
            // Decrements must be covered by the old count alone; the
            // increments only land afterwards, as in a map-based patch.
            if removed_here > 0 && (!in_base || removed_here > count) {
                return Ok(None);
            }
            count -= removed_here;
            while incs.get(ii) == Some(&k) {
                count += 1;
                ii += 1;
            }
            if count > 0 {
                l0.push((k, count as u32));
            }
        }
        // Same budget the full pipeline holds layer 0 against.
        guard.check_cdg_edges(l0.len())?;

        // Layer assignment. Fast path: the patched all-paths CDG is
        // acyclic (it is a subgraph of an acyclic union, or its own DFS
        // says so), so the budgeted assignment would break no cycles,
        // every path stays in layer 0, and only the balancing spread
        // remains. In that regime the assignment is a pure function of
        // the pair index and the (budget, balance) knobs — when the
        // cached epoch ran under the same knobs with an acyclic layer 0,
        // its matrix is bit-identical and one memcpy replaces the
        // per-pair rewrite. Otherwise run the real thing on the real
        // path set.
        let l0_acyclic =
            union_acyclic || dense_acyclic(net.num_channels(), l0.iter().map(|&(k, _)| k));
        if l0_acyclic {
            if prev.l0_acyclic && prev.layer_cfg == Some((max_layers, params.balance)) {
                routes.copy_layers_from(&prev.routes);
            } else {
                let mut layers = vec![0u8; nt * (nt - 1)];
                telemetry::timed(rec, phases::BALANCE, || {
                    if params.balance {
                        balance_layers(&mut layers, 1, max_layers);
                    }
                });
                let mut p = 0usize;
                for s in 0..nt {
                    for d in 0..nt {
                        if s == d {
                            continue;
                        }
                        routes.set_layer(s, d, layers[p]);
                        p += 1;
                    }
                }
            }
        } else {
            let ps = PathSet::extract_in(net, &routes, cx)?;
            let (mut layers, stats) = assign_layers_budgeted_in(
                &ps,
                params.heuristic,
                max_layers,
                params.compact,
                rec,
                guard,
                cx,
            )?;
            telemetry::timed(rec, phases::BALANCE, || {
                if params.balance {
                    balance_layers(&mut layers, stats.layers_used, max_layers);
                }
            });
            for p in ps.ids() {
                let (s, d) = ps.pair(p);
                routes.set_layer(s as usize, d as usize, layers[p as usize]);
            }
            // The DFS and the budgeted assignment agree on acyclicity:
            // a cyclic all-paths CDG forces at least one break.
            debug_assert!(stats.cycles_broken > 0);
        }
        routes.recompute_num_layers();
        routes.set_engine(self.inner.name());
        Ok(Some((routes, l0, l0_acyclic, union_acyclic, dirty_rows)))
    }
}

impl<E: RoutingEngine + DeltaCapable> RoutingEngine for DeltaEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route_in(&self, net: &Network, cx: &ComputeCtx) -> Result<Routes, RouteError> {
        let Some(params) = self.inner.delta_params() else {
            // Not replicable (e.g. online mode): plain passthrough, and
            // the cache no longer describes what this engine produces.
            let mut g = self.lock();
            g.state = None;
            g.last = Some(DeltaOutcome::default());
            drop(g);
            return self.inner.route_in(net, cx);
        };
        if cx.chunk.max(1) < net.num_terminals() {
            // Chunked wavefronts use balanced weights; the dirty rules
            // only hold for the single-snapshot schedule.
            let mut g = self.lock();
            g.last = Some(DeltaOutcome::default());
            drop(g);
            return self.inner.route_in(net, cx);
        }
        let mut g = self.lock();
        let rec = params.recorder.clone();
        let res = self.try_delta(&mut g, &params, net, cx);
        match record_trip(&*rec, res) {
            Ok(Some(routes)) => Ok(routes),
            Ok(None) => self.full_recompute(&mut g, &params, net, cx),
            Err(e) => {
                g.last = Some(DeltaOutcome::default());
                Err(e)
            }
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

/// A [`DiffPlanProvider`] backed by a [`DeltaEngine`]'s certificates.
///
/// Returns a one-stage *direct* plan when the `(old, new)` pair it is
/// asked about is exactly the pair the engine just computed — the served
/// previous routes remap to what the engine expected, the new routes are
/// the engine's own output, and the old∪new all-paths CDG union was
/// acyclic (which bounds every per-layer union, the actual hazard
/// condition). Anything else returns `None` and the caller re-derives a
/// plan from scratch.
pub struct DeltaPlanner {
    shared: Arc<Mutex<Shared>>,
}

impl DiffPlanProvider for DeltaPlanner {
    fn diff_plan(
        &self,
        net: &Network,
        old: &Routes,
        new: &Routes,
        _hw_vls: usize,
    ) -> Option<UpdatePlan> {
        let mut g = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        let st = g.state.as_mut()?;
        // Finish a pending certificate once: the O(fabric) remap and
        // column diff were deferred off the reroute's critical path.
        if matches!(st.cert, Cert::Pending { .. }) {
            let Cert::Pending {
                prev_net,
                prev_routes,
                union_acyclic,
            } = std::mem::replace(&mut st.cert, Cert::None)
            else {
                unreachable!("matched Pending above");
            };
            let expected_old = transition::remap_routes(&prev_net, &prev_routes, &st.net);
            let plan_changed: Vec<usize> = (0..st.net.num_terminals())
                .filter(|&d| transition::column_differs(&st.net, &expected_old, &st.routes, d))
                .collect();
            let plan_entries = plan_changed
                .iter()
                .map(|&d| transition::column_swap_entries(&st.net, &expected_old, &st.routes, d))
                .sum();
            st.cert = Cert::Ready {
                expected_old,
                union_acyclic,
                plan_changed,
                plan_entries,
            };
        }
        let Cert::Ready {
            expected_old,
            union_acyclic,
            plan_changed,
            plan_entries,
        } = &st.cert
        else {
            return None;
        };
        if !union_acyclic {
            return None;
        }
        if old != expected_old || *new != st.routes {
            return None;
        }
        if new.num_nodes() != net.num_nodes() || new.num_terminals() != net.num_terminals() {
            return None;
        }
        if plan_changed.is_empty() {
            return Some(UpdatePlan::noop());
        }
        Some(UpdatePlan {
            direct: true,
            stages: vec![UpdateStage {
                dests: plan_changed.clone(),
                entries: *plan_entries,
                drained: false,
                vetted: true,
            }],
            hazard_layers: Vec::new(),
        })
    }
}

/// Rebuild the cache from a full recompute's output. `None` if the
/// routes cannot be walked (leave the cache empty rather than poisoned).
/// `layer_cfg` is the layer-assignment regime the recompute ran under
/// (see [`DeltaState::layer_cfg`]).
fn rebuild_state(net: &Network, routes: &Routes, layer_cfg: (usize, bool)) -> Option<DeltaState> {
    let terminals = net.terminals();
    let mut l0: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    for (d, &t) in terminals.iter().enumerate() {
        for (s, &src) in terminals.iter().enumerate() {
            if s == d {
                continue;
            }
            let chans = routes.path_channels(net, src, t).ok()?;
            for w in chans.windows(2) {
                *l0.entry((w[0].0, w[1].0)).or_insert(0) += 1;
            }
        }
    }
    let mut l0: Vec<((u32, u32), u32)> = l0.into_iter().collect();
    l0.sort_unstable_by_key(|e| e.0);
    let l0_acyclic = dense_acyclic(net.num_channels(), l0.iter().map(|&(k, _)| k));
    Some(DeltaState {
        net: net.clone(),
        routes: routes.clone(),
        rindex: ReverseIndex::build(net, routes),
        hopdist: terminals
            .iter()
            .map(|&t| Arc::new(net.hops_to(t)))
            .collect(),
        l0,
        l0_acyclic,
        layer_cfg: Some(layer_cfg),
        cert: Cert::None,
    })
}

/// Iterative three-color DFS over channel-id edges. Channel ids are
/// dense (`< num_channels`), so the graph is a flat CSR and the colors
/// a flat byte vector — this sits on the reroute's critical path, where
/// both hashing and per-node adjacency allocations dominated. The edge
/// iterator is walked twice (degree count, then fill); duplicate edges
/// are harmless.
fn dense_acyclic<I>(num_channels: usize, edges: I) -> bool
where
    I: Iterator<Item = (u32, u32)> + Clone,
{
    // CSR: off[c] .. off[c + 1] indexes c's successors in `heads`.
    let mut off = vec![0u32; num_channels + 1];
    for (f, _) in edges.clone() {
        off[f as usize + 1] += 1;
    }
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
    let mut cursor: Vec<u32> = off[..num_channels].to_vec();
    let mut heads = vec![0u32; off[num_channels] as usize];
    for (f, t) in edges {
        let slot = &mut cursor[f as usize];
        heads[*slot as usize] = t;
        *slot += 1;
    }
    let mut color = vec![0u8; num_channels]; // 1 = open, 2 = done
    let mut stack: Vec<(u32, u32)> = Vec::new(); // (node, next edge slot)
    for start in 0..num_channels {
        if color[start] != 0 {
            continue;
        }
        color[start] = 1;
        stack.push((start as u32, off[start]));
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i < off[u as usize + 1] {
                let v = heads[*i as usize];
                *i += 1;
                match color[v as usize] {
                    1 => return false,
                    2 => {}
                    _ => {
                        color[v as usize] = 1;
                        stack.push((v, off[v as usize]));
                    }
                }
            } else {
                color[u as usize] = 2;
                stack.pop();
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::verify::verify_deadlock_free;
    use fabric::{degrade, topo};

    fn snap_cx(net: &Network) -> ComputeCtx {
        ComputeCtx {
            threads: 1,
            chunk: net.num_terminals().max(1),
        }
    }

    fn fail_one_cable(net: &Network, seed: u64) -> Network {
        let (degraded, n) = degrade::fail_random_cables(net, 1, seed);
        assert_eq!(n, 1, "seed must find a removable cable");
        degraded
    }

    /// Engine that never falls back on dirty fraction — the test
    /// topologies are small enough that one cable can dirty most trees.
    fn eager() -> DeltaEngine {
        DeltaEngine::with_delta_config(
            DfSssp::new(),
            DeltaConfig {
                max_dirty_fraction: 1.0,
            },
        )
    }

    #[test]
    fn delta_matches_full_recompute_on_cable_failure() {
        let net = topo::torus(&[4, 4], 1);
        let cx = snap_cx(&net);
        let engine = eager();
        let warm = engine.route_in(&net, &cx).unwrap();
        assert_eq!(warm, DfSssp::new().route_in(&net, &cx).unwrap());
        assert!(!engine.last_outcome().unwrap().delta);

        let degraded = fail_one_cable(&net, 7);
        let fast = engine.route_in(&degraded, &cx).unwrap();
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
        let full = DfSssp::new().route_in(&degraded, &cx).unwrap();
        assert_eq!(fast, full, "delta must be bit-identical to full recompute");
        verify_deadlock_free(&degraded, &fast).unwrap();
    }

    #[test]
    fn delta_chains_across_consecutive_failures() {
        let net = topo::dragonfly(3, 1, 1);
        let cx = snap_cx(&net);
        let engine = eager();
        engine.route_in(&net, &cx).unwrap();
        let mut current = net;
        for seed in 1..4u64 {
            let (next, n) = degrade::fail_random_cables(&current, 1, seed);
            if n == 0 {
                break;
            }
            let fast = engine.route_in(&next, &cx).unwrap();
            let full = DfSssp::new().route_in(&next, &cx).unwrap();
            assert_eq!(fast, full, "epoch after seed {seed}");
            current = next;
        }
    }

    #[test]
    fn zero_threshold_forces_full_recompute() {
        let net = topo::torus(&[4, 4], 1);
        let cx = snap_cx(&net);
        let engine = DeltaEngine::with_delta_config(
            DfSssp::new(),
            DeltaConfig {
                max_dirty_fraction: 0.0,
            },
        );
        engine.route_in(&net, &cx).unwrap();
        let degraded = fail_one_cable(&net, 7);
        let routes = engine.route_in(&degraded, &cx).unwrap();
        assert!(!engine.last_outcome().unwrap().delta);
        assert_eq!(routes, DfSssp::new().route_in(&degraded, &cx).unwrap());
    }

    #[test]
    fn chunked_context_passes_through() {
        let net = topo::torus(&[3, 3], 1);
        let engine = DeltaEngine::new(DfSssp::new());
        let cx = ComputeCtx {
            threads: 1,
            chunk: 1,
        };
        let routes = engine.route_in(&net, &cx).unwrap();
        assert_eq!(routes, DfSssp::new().route_in(&net, &cx).unwrap());
        assert!(!engine.last_outcome().unwrap().delta);
    }

    #[test]
    fn online_mode_is_not_delta_capable() {
        let engine = DfSssp {
            mode: LayerAssignMode::Online,
            ..DfSssp::new()
        };
        assert!(engine.delta_params().is_none());
        let net = topo::ring(5, 1);
        let wrapped = DeltaEngine::new(engine.clone());
        let cx = snap_cx(&net);
        assert_eq!(
            wrapped.route_in(&net, &cx).unwrap(),
            engine.route_in(&net, &cx).unwrap()
        );
    }

    #[test]
    fn planner_certifies_direct_transition() {
        let net = topo::kary_ntree(2, 3); // tree: layer-0 CDG stays acyclic
        let cx = snap_cx(&net);
        let engine = eager();
        let planner = engine.planner();
        let old = engine.route_in(&net, &cx).unwrap();
        let degraded = fail_one_cable(&net, 3);
        let new = engine.route_in(&degraded, &cx).unwrap();
        let outcome = engine.last_outcome().unwrap();
        assert!(outcome.delta);
        assert!(outcome.union_acyclic, "tree unions stay acyclic");
        let remapped = transition::remap_routes(&net, &old, &degraded);
        let plan = planner
            .diff_plan(&degraded, &remapped, &new, 8)
            .expect("certificate held");
        assert!(plan.direct);
        assert!(plan.all_vetted());
        let dests: Vec<usize> = plan.stages.iter().flat_map(|s| s.dests.clone()).collect();
        for d in &dests {
            assert!(
                transition::column_differs(&degraded, &remapped, &new, *d),
                "planned dest {d} must actually differ"
            );
        }
        // The plan agrees with the from-scratch planner about safety.
        let scratch = transition::plan_update(&degraded, Some(&remapped), &new, 8);
        assert!(
            scratch.direct,
            "scratch planner must agree the union is safe"
        );
    }

    #[test]
    fn planner_rejects_foreign_pairs() {
        let net = topo::torus(&[4, 4], 1);
        let cx = snap_cx(&net);
        let engine = eager();
        let planner = engine.planner();
        let routes = engine.route_in(&net, &cx).unwrap();
        // Full recompute holds no certificate.
        assert!(planner.diff_plan(&net, &routes, &routes, 8).is_none());
        let degraded = fail_one_cable(&net, 7);
        let new = engine.route_in(&degraded, &cx).unwrap();
        // A mismatched old (not the remap of the served epoch) is refused.
        assert!(planner.diff_plan(&degraded, &new, &new, 8).is_none());
    }

    #[test]
    fn recovery_readd_is_handled() {
        // Remove a cable, then restore it: the second delta must match a
        // fresh full recompute on the restored (original) network.
        let net = topo::torus(&[4, 4], 1);
        let cx = snap_cx(&net);
        let engine = eager();
        engine.route_in(&net, &cx).unwrap();
        let degraded = fail_one_cable(&net, 7);
        engine.route_in(&degraded, &cx).unwrap();
        let fast = engine.route_in(&net, &cx).unwrap();
        let outcome = engine.last_outcome().unwrap();
        assert!(outcome.delta, "re-add must take the delta path");
        assert_eq!(fast, DfSssp::new().route_in(&net, &cx).unwrap());
    }
}
