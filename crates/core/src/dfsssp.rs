//! Deadlock-free SSSP routing (the paper's §IV, Algorithm 2).
//!
//! DFSSSP first computes balanced minimal paths with [`crate::Sssp`]
//! (Algorithm 1), then assigns every terminal-to-terminal path to a
//! virtual layer such that each layer's channel dependency graph is
//! acyclic — the Dally & Seitz sufficient condition for deadlock freedom.
//!
//! Two assignment modes are implemented, matching the paper:
//!
//! * [`LayerAssignMode::Offline`] (the contribution): put **all** paths in
//!   layer 1, then repeatedly find a cycle in the layer's CDG, break it by
//!   moving every path that induces one chosen edge (see
//!   [`CycleBreakHeuristic`]) to the next layer, and resume the cycle
//!   search in place. Each layer needs exactly one (resumable) cycle
//!   search, which is what makes the approach scale (the paper reports
//!   ~170 s instead of ~2 h for a 4096-node network).
//! * [`LayerAssignMode::Online`] (the LASH-style baseline approach): add
//!   paths one by one to the first layer where they do not close a cycle,
//!   at the cost of one cycle search per path.
//!
//! After assignment, the paths of the used layers can be spread over the
//! remaining empty layers ([`crate::balance`]) — safe without any further
//! cycle search because every subset of an acyclic layer is acyclic.

use crate::balance::balance_layers;
use crate::budget::{clamp_layers, record_trip, BudgetGuard};
use crate::cdg::{Cdg, CycleSearch};
use crate::engine::{EngineConfig, RouteError, RoutingEngine};
use crate::heuristics::CycleBreakHeuristic;
use crate::paths::{PathId, Placement, TreePaths, Victims};
use crate::sssp::Sssp;
use fabric::{ChannelId, DepSlots, Network, Routes};
use std::sync::Arc;
use telemetry::{counters, phases, Acc, Noop, Recorder};

/// How paths are assigned to virtual layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerAssignMode {
    /// Algorithm 2: one resumable cycle search per layer (fast).
    Offline,
    /// One cycle search per path (slow; the paper's first approach).
    Online,
}

/// Statistics of one DFSSSP run, used by the Fig 9/10 and §IV benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct DfStats {
    /// Layers containing paths after cycle breaking, before balancing.
    /// This is the "number of virtual layers needed" the paper reports.
    pub layers_used: usize,
    /// Layers in use after balancing across the allowed budget.
    pub layers_final: usize,
    /// Cycles discovered and broken (offline mode only).
    pub cycles_broken: usize,
    /// Path moves between layers.
    pub paths_moved: usize,
}

/// The deadlock-free SSSP routing engine.
#[derive(Clone, Debug)]
pub struct DfSssp {
    /// Cycle-break heuristic (offline mode). Default: weakest edge.
    pub heuristic: CycleBreakHeuristic,
    /// Assignment mode. Default: offline (the paper's contribution).
    pub mode: LayerAssignMode,
    /// Compact layers after offline assignment: sink each moved path to
    /// the lowest layer where it closes no cycle. A refinement beyond
    /// the paper's Algorithm 2 that typically saves a layer or two on
    /// dense networks (e.g. large Kautz graphs); disable to measure the
    /// unmodified algorithm. Default: true.
    pub compact: bool,
    /// Layer budget, balancing, telemetry sink, resource bounds and the
    /// sweep's chunk width. Default: [`EngineConfig::default`].
    pub config: EngineConfig,
}

impl Default for DfSssp {
    fn default() -> Self {
        DfSssp {
            heuristic: CycleBreakHeuristic::WeakestEdge,
            mode: LayerAssignMode::Offline,
            compact: true,
            config: EngineConfig::default(),
        }
    }
}

impl DfSssp {
    /// The paper's configuration: offline, weakest edge, 8 layers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Same, with a specific heuristic.
    pub fn with_heuristic(heuristic: CycleBreakHeuristic) -> Self {
        DfSssp {
            heuristic,
            ..Self::default()
        }
    }

    /// Route and also return run statistics (layer counts etc.).
    ///
    /// When a recorder is attached, the run reports the five DFSSSP
    /// phases (`sssp`, `cdg_build`, `cycle_search`, `layer_assign`,
    /// `balance`) plus the `edges_weighted`, `cycles_broken` and
    /// `paths_moved` counters; with the no-op recorder not even the
    /// clock is read.
    pub fn route_with_stats(&self, net: &Network) -> Result<(Routes, DfStats), RouteError> {
        self.route_with_counts(net).map(|(r, s, _)| (r, s))
    }

    /// [`DfSssp::route_with_stats`], plus what the layer-0 pass of an
    /// offline run that broke no cycle counted: the paths over each
    /// dependency slot of `net` (the all-paths CDG, known acyclic).
    pub fn route_with_counts(&self, net: &Network) -> Result<Observed, RouteError> {
        record_trip(&*self.config.recorder, self.route_with_counts_inner(net))
    }

    fn route_with_counts_inner(&self, net: &Network) -> Result<Observed, RouteError> {
        let cfg = &self.config;
        let rec: &dyn Recorder = &*cfg.recorder;
        let guard = cfg.budget.start();
        guard.admit(net)?;
        let max_layers = clamp_layers(cfg.max_layers)?;
        let sweep = Sssp {
            compute: cfg.compute,
            ..Sssp::new()
        };
        let routes = telemetry::timed(rec, phases::SSSP, || {
            let (routes, load) = sweep.route_with_loads(net, &guard, rec.enabled())?;
            if let Some(load) = load {
                let grown = load.iter().filter(|&&l| l > 0).count() as u64;
                rec.add(counters::EDGES_WEIGHTED, grown);
            }
            Ok(routes)
        })?;
        Layering {
            heuristic: self.heuristic,
            mode: self.mode,
            max_layers,
            compact: self.compact,
            balance: cfg.balance,
        }
        .apply(net, routes, self.name(), rec, &guard)
    }
}

/// A layered routing, its statistics, and the layer-0 path counts per
/// dependency slot if the all-paths CDG was found acyclic.
pub type Observed = (Routes, DfStats, Option<Vec<u32>>);

/// The layer-assignment half of a deadlock-free engine's configuration,
/// shared by [`DfSssp`] and [`crate::DeadlockFree`].
pub(crate) struct Layering {
    pub heuristic: CycleBreakHeuristic,
    pub mode: LayerAssignMode,
    /// Layer budget, already passed through [`clamp_layers`].
    pub max_layers: usize,
    pub compact: bool,
    pub balance: bool,
}

impl Layering {
    /// Algorithm 2 over whatever computed `routes`: assign and balance
    /// layers, report the counters, and write the layers back under the
    /// label `engine`.
    pub(crate) fn apply(
        &self,
        net: &Network,
        mut routes: Routes,
        engine: impl Into<String>,
        rec: &dyn Recorder,
        guard: &BudgetGuard,
    ) -> Result<Observed, RouteError> {
        let (mut path_layer, mut stats, counts) = match self.mode {
            LayerAssignMode::Offline => assign_layers_budgeted(
                net,
                &routes,
                self.heuristic,
                self.max_layers,
                self.compact,
                rec,
                guard,
            )?,
            LayerAssignMode::Online => {
                let paths = TreePaths {
                    net,
                    routes: &routes,
                };
                telemetry::timed(rec, phases::CDG_BUILD, || paths.validate())?;
                let (layers, stats) = assign_layers_online_budgeted(
                    net.dep_slots(),
                    paths.num_paths(),
                    |p, out| paths.walk(p, out),
                    self.max_layers,
                    rec,
                    guard,
                )?;
                record_moves(rec, &stats);
                (layers, stats, Vec::new())
            }
        };
        stats.layers_final = telemetry::timed(rec, phases::BALANCE, || {
            if self.balance {
                balance_layers(&mut path_layer, stats.layers_used, self.max_layers)
            } else {
                stats.layers_used
            }
        });
        routes.set_path_layers(&path_layer);
        routes.set_engine(engine);
        let acyclic = self.mode == LayerAssignMode::Offline && stats.cycles_broken == 0;
        Ok((routes, stats, acyclic.then_some(counts)))
    }
}

impl RoutingEngine for DfSssp {
    fn name(&self) -> &'static str {
        "DFSSSP"
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        self.route_with_stats(net).map(|(r, _)| r)
    }

    fn deadlock_free(&self) -> bool {
        true
    }

    fn tunables(&self) -> bool {
        true
    }

    fn config(&self) -> EngineConfig {
        self.config.clone()
    }

    fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }
}

/// Offline layer assignment (Algorithm 2) of the paths of `routes` over
/// `net`. Returns the layer per path (indexed by
/// [`crate::paths::PathId`]) and run statistics. Fails with
/// [`RouteError::NeedMoreLayers`] if a cycle remains in the last allowed
/// layer, with [`RouteError::Disconnected`] if some pair's walk of the
/// tables does not arrive.
///
/// With `compact = true`, the assignment may temporarily exceed
/// `max_layers`; a compaction pass then sinks every moved path to the
/// lowest layer where it closes no cycle, and only the compacted layer
/// count is held against the budget.
pub fn assign_layers_offline(
    net: &Network,
    routes: &Routes,
    heuristic: CycleBreakHeuristic,
    max_layers: usize,
    compact: bool,
) -> Result<(Vec<u8>, DfStats), RouteError> {
    let (paths, unlimited) = (TreePaths { net, routes }, BudgetGuard::unlimited());
    assign(
        paths, heuristic, max_layers, compact, true, &Noop, &unlimited,
    )
    .map(|(layers, stats, _)| (layers, stats))
}

/// [`assign_layers_offline`] with phase telemetry, under a
/// [`BudgetGuard`]; also returns what the layer-0 pass counted, the
/// paths over each dependency slot of `net`.
///
/// Telemetry: table validation and the layer-0 CDG report as
/// `cdg_build`, the resumable search as `cycle_search`, each break's
/// victim search and move and the compaction as `layer_assign`. The loop
/// phases report once per call (via [`telemetry::Acc`]) even when zero
/// cycles were found, so manifests always carry all phases; so do the
/// `cycles_broken` and `paths_moved` counters, whichever engine or
/// patch entered the loop.
///
/// Budget: the layer-0 CDG is held against the edge cap, and the
/// deadline is checked before every cycle break, so degenerate
/// instances (adversarially dense dependency graphs) abort promptly with
/// [`RouteError::BudgetExceeded`] instead of grinding.
pub fn assign_layers_budgeted(
    net: &Network,
    routes: &Routes,
    heuristic: CycleBreakHeuristic,
    max_layers: usize,
    compact: bool,
    rec: &dyn Recorder,
    guard: &BudgetGuard,
) -> Result<(Vec<u8>, DfStats, Vec<u32>), RouteError> {
    let paths = TreePaths { net, routes };
    assign(paths, heuristic, max_layers, compact, true, rec, guard)
}

/// The one offline loop. No path is materialised: layer 0 is built from
/// the destination trees, a cycle break moves its victims off them a
/// subtree at a time ([`TreePaths::move_victims`]), and a path's
/// channels are walked (into one scratch vector) only when compaction
/// tries it lower. With `resume = false` the cycle search starts afresh
/// after every break ([`assign_layers_offline_restart`]).
fn assign(
    paths: TreePaths,
    heuristic: CycleBreakHeuristic,
    max_layers: usize,
    compact: bool,
    resume: bool,
    rec: &dyn Recorder,
    guard: &BudgetGuard,
) -> Result<(Vec<u8>, DfStats, Vec<u32>), RouteError> {
    // Idempotent, so a budget the engine already clamped passes as is.
    let max_layers = clamp_layers(max_layers)?;
    let work_budget = if compact {
        (max_layers * 4).clamp(max_layers, u8::MAX as usize + 1)
    } else {
        max_layers
    };
    let slots = paths.net.dep_slots().clone();
    let (layer0, counts) = telemetry::timed(rec, phases::CDG_BUILD, || paths.layer0(&slots))?;
    let mut layers = vec![layer0];
    guard.check_cdg_edges(layers[0].num_edges())?;
    let mut place = Placement::new(paths.num_paths());
    let mut victims = Victims::default();
    let mut stats = DfStats::default();
    let mut search_acc = Acc::new(rec, phases::CYCLE_SEARCH);
    let mut assign_acc = Acc::new(rec, phases::LAYER_ASSIGN);
    let mut i = 0usize;
    while i < layers.len() {
        let mut search = CycleSearch::new(layers[i].num_channels());
        while let Some(cycle) = search_acc.measure(|| search.next_cycle(&layers[i])) {
            guard.check_deadline()?;
            guard.check_cdg_edges_lazy(|| layers.iter().map(|l| l.num_edges()).sum())?;
            stats.cycles_broken += 1;
            if i + 1 >= work_budget {
                return Err(RouteError::NeedMoreLayers {
                    required: work_budget + 1,
                    allowed: max_layers,
                });
            }
            let edge = heuristic.pick_counted(&layers[i], &cycle, stats.cycles_broken as u64);
            if i + 1 >= layers.len() {
                layers.push(Cdg::over(slots.clone()));
            }
            assign_acc
                .measure(|| paths.move_victims(edge, &mut layers, i, &mut place, &mut victims));
            if !resume {
                search = CycleSearch::new(layers[i].num_channels());
            }
        }
        i += 1;
    }
    let mut path_layer = place.layer;
    stats.paths_moved = place.moves;
    if compact {
        assign_acc.measure(|| {
            compact_layers(paths, &mut path_layer, &mut layers, &mut stats, max_layers)
        });
    }
    stats.layers_used = layers.iter().filter(|l| l.num_paths() > 0).count().max(1);
    if stats.layers_used > max_layers {
        return Err(RouteError::NeedMoreLayers {
            required: stats.layers_used,
            allowed: max_layers,
        });
    }
    record_moves(rec, &stats);
    Ok((path_layer, stats, counts))
}

/// Report an assignment's `cycles_broken` and `paths_moved`, once per
/// run: from the offline loop itself, so a patch that enters it reports
/// them as a cold route does.
fn record_moves(rec: &dyn Recorder, stats: &DfStats) {
    if rec.enabled() {
        rec.add(counters::CYCLES_BROKEN, stats.cycles_broken as u64);
        rec.add(counters::PATHS_MOVED, stats.paths_moved as u64);
    }
}

/// Compaction: sink paths to the lowest layer where they close no cycle
/// (checked with the incremental reachability test), processing layers
/// from the top down and stopping as soon as the non-empty layer count
/// fits `budget` — so the common case (one layer of overflow) only
/// touches the overflow paths. Empty layers left behind are squeezed out
/// so the numbering stays dense.
fn compact_layers(
    paths: TreePaths,
    path_layer: &mut [u8],
    layers: &mut Vec<Cdg>,
    stats: &mut DfStats,
    budget: usize,
) {
    let non_empty = |layers: &Vec<Cdg>| layers.iter().filter(|l| l.num_paths() > 0).count().max(1);
    if non_empty(layers) <= budget && layers.iter().all(|l| l.num_paths() > 0) {
        return; // nothing to sink, nothing to renumber
    }
    let num_channels = layers.first().map_or(0, |l| l.num_channels());
    let mut seen = vec![0u32; num_channels];
    let mut epoch = 0u32;
    // Paths grouped by their current layer, highest layer first.
    let mut by_layer: Vec<Vec<PathId>> = vec![Vec::new(); layers.len()];
    for (p, &layer) in path_layer.iter().enumerate() {
        by_layer[layer as usize].push(p as PathId);
    }
    let mut channels = Vec::new();
    for cur in (1..layers.len()).rev() {
        if non_empty(layers) <= budget {
            break;
        }
        for &p in &by_layer[cur] {
            debug_assert_eq!(path_layer[p as usize] as usize, cur);
            paths.walk(p, &mut channels);
            for l in 0..cur {
                layers[l].add_path(&channels);
                if !layers[l].path_closes_cycle(&channels, &mut seen, &mut epoch) {
                    layers[cur].remove_path(&channels);
                    path_layer[p as usize] = l as u8;
                    stats.paths_moved += 1;
                    break;
                }
                layers[l].remove_path(&channels);
            }
        }
    }
    // Squeeze out layers that emptied: renumber densely.
    let mut remap = vec![0u8; layers.len()];
    let mut next = 0u8;
    for (to, layer) in remap.iter_mut().zip(layers.iter()) {
        *to = next;
        next += u8::from(layer.num_paths() > 0);
    }
    for l in path_layer.iter_mut() {
        *l = remap[*l as usize];
    }
    layers.retain(|layer| layer.num_paths() > 0);
}

/// Ablation variant of [`assign_layers_offline`]: identical cycle
/// breaking, but the cycle search restarts from scratch after every
/// break instead of resuming in place. Exists to measure what the
/// paper's "resumed on the same place where the search aborted" buys;
/// see `repro sec4_online_offline`. Results (layers, moves) are NOT
/// guaranteed identical to the resumable version — a fresh search may
/// discover cycles in a different order.
pub fn assign_layers_offline_restart(
    net: &Network,
    routes: &Routes,
    heuristic: CycleBreakHeuristic,
    max_layers: usize,
) -> Result<(Vec<u8>, DfStats), RouteError> {
    let (paths, unlimited) = (TreePaths { net, routes }, BudgetGuard::unlimited());
    assign(
        paths, heuristic, max_layers, false, false, &Noop, &unlimited,
    )
    .map(|(layers, stats, _)| (layers, stats))
}

/// Online layer assignment: greedily place each path, in id order, into
/// the first layer whose CDG stays acyclic. One full cycle check per
/// placement attempt — the `O(|N|² · (|C| + |E|))` cost the paper's
/// offline algorithm avoids. No path is stored: `walk(p, out)` writes
/// path `p`'s channels (over the network `slots` indexes) into `out`,
/// once per path. `max_layers` is what [`clamp_layers`] returned. The
/// walks and the add/remove traffic report as `layer_assign`, the
/// per-placement acyclicity checks as `cycle_search`; under the
/// [`BudgetGuard`] the deadline is checked before each path placement
/// (the unit of work whose count makes the online mode quadratic), and
/// the growing CDGs are held against the edge cap.
pub fn assign_layers_online_budgeted(
    slots: &Arc<DepSlots>,
    num_paths: usize,
    mut walk: impl FnMut(PathId, &mut Vec<ChannelId>),
    max_layers: usize,
    rec: &dyn Recorder,
    guard: &BudgetGuard,
) -> Result<(Vec<u8>, DfStats), RouteError> {
    let mut path_layer = vec![0u8; num_paths];
    let mut layers = vec![Cdg::over(slots.clone())];
    let mut stats = DfStats::default();
    let mut seen = vec![0u32; slots.num_channels()];
    let mut epoch = 0u32;
    let mut path = Vec::new();
    let mut search_acc = Acc::new(rec, phases::CYCLE_SEARCH);
    let mut assign_acc = Acc::new(rec, phases::LAYER_ASSIGN);
    for p in 0..num_paths as PathId {
        guard.check_deadline()?;
        guard.check_cdg_edges_lazy(|| layers.iter().map(|l| l.num_edges()).sum())?;
        assign_acc.measure(|| walk(p, &mut path));
        let mut placed = false;
        for l in 0..max_layers {
            if l >= layers.len() {
                layers.push(Cdg::over(slots.clone()));
            }
            assign_acc.measure(|| layers[l].add_path(&path));
            // Incremental check: the layer was acyclic before, so any
            // new cycle runs through one of p's edges.
            if !search_acc.measure(|| layers[l].path_closes_cycle(&path, &mut seen, &mut epoch)) {
                path_layer[p as usize] = l as u8;
                placed = true;
                if l > 0 {
                    stats.paths_moved += 1;
                }
                break;
            }
            assign_acc.measure(|| layers[l].remove_path(&path));
        }
        if !placed {
            return Err(RouteError::NeedMoreLayers {
                required: max_layers + 1,
                allowed: max_layers,
            });
        }
    }
    stats.layers_used = layers.iter().filter(|l| l.num_paths() > 0).count().max(1);
    Ok((path_layer, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ComputeOpts;
    use crate::verify::verify_deadlock_free;
    use fabric::topo;

    fn check_deadlock_free(net: &fabric::Network, engine: &DfSssp) -> DfStats {
        let (routes, stats) = engine.route_with_stats(net).unwrap();
        verify_deadlock_free(net, &routes).unwrap();
        assert_eq!(
            routes.validate_connectivity(net).unwrap(),
            net.num_terminals() * (net.num_terminals() - 1)
        );
        stats
    }

    #[test]
    fn ring_needs_exactly_two_layers() {
        // Fig 2: the 5-ring SSSP CDG is one big cycle; breaking it needs a
        // second layer and no more.
        let net = topo::ring(5, 1);
        let stats = check_deadlock_free(&net, &DfSssp::new());
        assert_eq!(stats.layers_used, 2);
        assert!(stats.cycles_broken >= 1);
    }

    #[test]
    fn tree_needs_one_layer() {
        // Up/down traffic on a tree has an acyclic CDG already.
        let net = topo::kary_ntree(2, 3);
        let stats = check_deadlock_free(&net, &DfSssp::new());
        assert_eq!(stats.layers_used, 1);
        assert_eq!(stats.cycles_broken, 0);
    }

    #[test]
    fn torus_is_made_deadlock_free() {
        let net = topo::torus(&[4, 4], 1);
        let stats = check_deadlock_free(&net, &DfSssp::new());
        assert!(stats.layers_used >= 2, "a torus needs extra layers");
        assert!(stats.layers_used <= 8);
    }

    #[test]
    fn online_and_offline_agree_on_freedom() {
        let net = topo::torus(&[3, 3], 1);
        for mode in [LayerAssignMode::Offline, LayerAssignMode::Online] {
            let engine = DfSssp {
                mode,
                ..DfSssp::new()
            };
            check_deadlock_free(&net, &engine);
        }
    }

    #[test]
    fn all_heuristics_produce_valid_routings() {
        let net = topo::torus(&[4, 3], 1);
        for h in CycleBreakHeuristic::ALL {
            let engine = DfSssp::with_heuristic(h);
            check_deadlock_free(&net, &engine);
        }
    }

    #[test]
    fn layer_budget_is_enforced() {
        let net = topo::torus(&[4, 4], 1);
        let engine = DfSssp::new().with_config(EngineConfig::new().max_layers(1));
        let err = engine.route(&net).unwrap_err();
        assert!(matches!(err, RouteError::NeedMoreLayers { allowed: 1, .. }));
    }

    #[test]
    fn balancing_spreads_layers_without_breaking_freedom() {
        let net = topo::ring(6, 1);
        let balanced = DfSssp::new();
        let (routes, stats) = balanced.route_with_stats(&net).unwrap();
        verify_deadlock_free(&net, &routes).unwrap();
        assert!(stats.layers_final >= stats.layers_used);
        assert!(routes.num_layers() as usize <= 8);

        let unbalanced = DfSssp::new().with_config(EngineConfig::new().balance(false));
        let (routes_u, stats_u) = unbalanced.route_with_stats(&net).unwrap();
        verify_deadlock_free(&net, &routes_u).unwrap();
        assert_eq!(stats_u.layers_final, stats_u.layers_used);
        assert_eq!(routes_u.num_layers() as usize, stats_u.layers_used);
    }

    #[test]
    fn kautz_directed_topology_supported() {
        let net = topo::kautz(2, 2, 12, false);
        let stats = check_deadlock_free(&net, &DfSssp::new());
        assert!(stats.layers_used <= 8);
    }

    #[test]
    fn dragonfly_supported() {
        let net = topo::dragonfly(3, 1, 1);
        check_deadlock_free(&net, &DfSssp::new());
    }

    #[test]
    fn restart_ablation_matches_resumable_quality() {
        // The restart variant must produce a valid assignment; since both
        // break the same first cycles, layer counts are close (identical
        // on these small nets).
        for net in [topo::ring(8, 1), topo::torus(&[4, 4], 1)] {
            let routes = crate::Sssp::new().route(&net).unwrap();
            let weakest = CycleBreakHeuristic::WeakestEdge;
            let (a, sa) = assign_layers_offline(&net, &routes, weakest, 16, false).unwrap();
            let (b, sb) = assign_layers_offline_restart(&net, &routes, weakest, 16).unwrap();
            assert_eq!(sa.layers_used, sb.layers_used, "{}", net.label());
            // Both are covers: every layer's CDG acyclic.
            for assignment in [&a, &b] {
                let mut routes2 = routes.clone();
                routes2.set_path_layers(assignment);
                crate::verify::verify_deadlock_free(&net, &routes2).unwrap();
            }
        }
    }

    #[test]
    fn compaction_fits_budget_on_dense_networks() {
        // kautz(2,3) with many endpoints: raw Algorithm 2 may overflow a
        // tight budget where compaction fits it.
        let net = topo::kautz(2, 3, 96, true);
        let routes = crate::Sssp::new().route(&net).unwrap();
        let weakest = CycleBreakHeuristic::WeakestEdge;
        let (_, raw) = assign_layers_offline(&net, &routes, weakest, 64, false).unwrap();
        let budget = raw.layers_used.saturating_sub(1).max(2);
        match assign_layers_offline(&net, &routes, weakest, budget, true) {
            Ok((layers, stats)) => {
                assert!(stats.layers_used <= budget);
                // Compacted assignment is still a cover.
                let mut routes2 = routes.clone();
                routes2.set_path_layers(&layers);
                crate::verify::verify_deadlock_free(&net, &routes2).unwrap();
            }
            Err(RouteError::NeedMoreLayers { .. }) => {
                // Compaction could not squeeze a layer out: acceptable,
                // the instance genuinely needs them.
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn a_cold_route_passes_over_each_tree_once() {
        // Cyclic, and tight enough that compaction runs: validation,
        // layer 0, every victim list and every move come out of one
        // kernel pass per destination tree.
        use crate::paths::TREE_PASSES;
        let net = topo::torus(&[5, 5], 1);
        let engine = DfSssp::with_heuristic(CycleBreakHeuristic::FirstEdge)
            .with_config(EngineConfig::new().max_layers(3));
        let before = TREE_PASSES.get();
        let (_, stats) = engine.route_with_stats(&net).unwrap();
        assert!(stats.cycles_broken > 0 && stats.paths_moved > 0);
        assert_eq!(TREE_PASSES.get() - before, net.num_terminals());
    }

    #[test]
    fn every_break_moves_what_the_per_path_loop_moves() {
        // After every cycle break the bulk step checks both touched
        // layers (edge ids, `out` order, counts, live counts) and the
        // placement (layers, stamps, move count) against the per-path
        // loop run from the same state.
        use crate::paths::reference::{CHECKED_MOVES, CHECK_MOVES};
        use fabric::degrade::fail_random_cables;
        use fabric::topo::{random_topology, RandomTopoSpec};
        let mut zoo = vec![
            topo::ring(5, 1),
            topo::ring(7, 2),
            topo::torus(&[4, 4], 1),
            topo::torus(&[3, 4], 2),
            topo::kautz(2, 2, 12, false),
            topo::kautz(2, 3, 24, false),
            topo::dragonfly(3, 1, 1),
            topo::dragonfly(2, 2, 1),
        ];
        for seed in 0..4 {
            let spec = RandomTopoSpec {
                switches: 10,
                radix: 12,
                terminals_per_switch: 2,
                interswitch_links: 16,
            };
            zoo.push(random_topology(&spec, seed));
        }
        let cut: Vec<_> = (0..zoo.len() as u64)
            .filter_map(|seed| {
                let (net, removed) = fail_random_cables(&zoo[seed as usize], 2, seed);
                (removed > 0).then_some(net)
            })
            .collect();
        assert!(cut.len() >= 8, "only {} cable-kill variants", cut.len());
        zoo.extend(cut);
        let heuristics = [
            CycleBreakHeuristic::WeakestEdge,
            CycleBreakHeuristic::HeaviestEdge,
            CycleBreakHeuristic::FirstEdge,
            CycleBreakHeuristic::RandomEdge(7),
        ];
        let unlimited = BudgetGuard::unlimited();
        CHECK_MOVES.set(true);
        let before = CHECKED_MOVES.get();
        for net in &zoo {
            let routes = crate::Sssp::new().route(net).unwrap();
            let paths = TreePaths {
                net,
                routes: &routes,
            };
            for h in heuristics {
                for (budget, compact, resume) in
                    [(16, false, true), (16, false, false), (2, true, true)]
                {
                    let run = assign(paths, h, budget, compact, resume, &Noop, &unlimited);
                    match run {
                        Ok(_) | Err(RouteError::NeedMoreLayers { .. }) => {}
                        Err(e) => panic!("{}: {e}", net.label()),
                    }
                }
            }
        }
        CHECK_MOVES.set(false);
        let [low, high] = CHECKED_MOVES.get();
        // Breaks in layer 0 and, stamps deciding the order, above it.
        assert!(
            low - before[0] >= 2000 && high - before[1] >= 800,
            "{low} / {high}"
        );
    }

    #[test]
    fn an_uncompacted_cold_route_walks_no_path() {
        // Victims move a subtree at a time: only compaction walks paths.
        use crate::paths::WALKS;
        for net in [topo::ring(6, 1), topo::torus(&[4, 4], 1)] {
            let engine = DfSssp {
                compact: false,
                ..DfSssp::new()
            };
            let before = WALKS.get();
            let (_, stats) = engine.route_with_stats(&net).unwrap();
            assert!(stats.cycles_broken > 0 && stats.paths_moved > 0);
            assert_eq!(WALKS.get() - before, 0, "{}", net.label());
        }
    }

    #[test]
    fn edges_weighted_counts_the_loaded_channels() {
        // The counter reads the sweep's own loads: recording sizes no
        // second base weight, and a snapshot-chunk route sizes none.
        use crate::sssp::BASE_WEIGHTS;
        for net in [topo::torus(&[4, 4], 1), topo::kary_ntree(4, 2)] {
            for chunk in [1, net.num_terminals()] {
                let rec = std::sync::Arc::new(telemetry::Collector::new());
                let engine = DfSssp::new().with_config(
                    EngineConfig::new()
                        .recorder(rec.clone())
                        .compute(ComputeOpts::new().chunk(chunk)),
                );
                let before = BASE_WEIGHTS.get();
                let routes = engine.route(&net).unwrap();
                let sized = BASE_WEIGHTS.get() - before;
                assert_eq!(
                    sized,
                    usize::from(chunk == 1),
                    "{} chunk {chunk}",
                    net.label()
                );
                let loads = routes.channel_loads(&net).unwrap();
                let loaded = loads.iter().filter(|&&l| l > 0).count() as u64;
                let counted = rec.snapshot().counters[counters::EDGES_WEIGHTED];
                assert_eq!(counted, loaded, "{} chunk {chunk}", net.label());
            }
        }
    }

    #[test]
    fn a_snapshot_route_counts_loads_only_for_an_enabled_recorder() {
        // Nobody reads a snapshot sweep's loads but the counter above.
        use crate::sssp::LOAD_PASSES;
        let net = topo::kary_ntree(4, 2);
        let snapshot = ComputeOpts::new().chunk(net.num_terminals());
        let quiet = DfSssp::new().with_config(EngineConfig::new().compute(snapshot));
        let before = LOAD_PASSES.get();
        quiet.route(&net).unwrap();
        assert_eq!(LOAD_PASSES.get() - before, 0);
        let traced = quiet.with_config(
            EngineConfig::new()
                .recorder(std::sync::Arc::new(telemetry::Collector::new()))
                .compute(snapshot),
        );
        traced.route(&net).unwrap();
        assert_eq!(LOAD_PASSES.get() - before, net.num_terminals());
    }

    #[test]
    fn offline_is_deterministic() {
        let net = topo::torus(&[4, 4], 1);
        let (_, s1) = DfSssp::new().route_with_stats(&net).unwrap();
        let (_, s2) = DfSssp::new().route_with_stats(&net).unwrap();
        assert_eq!(s1.layers_used, s2.layers_used);
        assert_eq!(s1.cycles_broken, s2.cycles_broken);
        assert_eq!(s1.paths_moved, s2.paths_moved);
    }

    #[test]
    fn chunked_wavefront_stays_deadlock_free() {
        // Wider chunks change the balanced-weight schedule (a declared
        // algorithm parameter) but must keep every guarantee.
        let net = topo::torus(&[4, 4], 1);
        for chunk in [2usize, 16, 1024] {
            let engine = DfSssp::new()
                .with_config(EngineConfig::new().compute(ComputeOpts::new().chunk(chunk)));
            let (routes, _) = engine.route_with_stats(&net).unwrap();
            verify_deadlock_free(&net, &routes).unwrap();
            assert_eq!(
                routes.validate_connectivity(&net).unwrap(),
                net.num_terminals() * (net.num_terminals() - 1)
            );
        }
    }
}
