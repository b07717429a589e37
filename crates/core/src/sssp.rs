//! Single-source-shortest-path routing (the paper's Algorithm 1).
//!
//! SSSP routing globally balances the number of routes per channel: it
//! iterates over all destinations, computes a weighted shortest-path tree
//! toward each, programs the forwarding tables from the tree, and then
//! increments every tree channel's weight by the number of routed paths
//! crossing it. Later iterations therefore steer around channels that
//! already carry many routes.
//!
//! **Minimality.** Weights start at a base `W0` large enough that no
//! accumulated balancing weight can ever make a hop-longer path cheaper
//! (§II of the paper; we use `W0 = |N|² · (d+2)` with `d` the diameter,
//! which strengthens the paper's bound to hold across all iterations —
//! see DESIGN.md §6.1). Setting [`Sssp::minimal`] to `false` reproduces
//! the paper's Fig 1 detour anomaly.
//!
//! **Ordering.** Like OpenSM's implementation, destinations are the
//! terminals in index order, and weight updates count terminal-to-terminal
//! paths (switch-sourced traffic does not exist in operation).
//!
//! **Chunk schedule.** Each destination's tree depends on the weights
//! left by all previous destinations; the engine's chunk width
//! ([`Sssp::compute`], the `compute` of its [`crate::EngineConfig`])
//! coarsens that feedback: the trees of one `chunk`-wide run of
//! destinations are all computed against the weights at the run's start,
//! and tables and weight updates are applied in destination order. The
//! output is a function of the network and the chunk width alone;
//! `chunk = 1` is the paper's algorithm byte for byte, `chunk = |T|` the
//! snapshot schedule `delta` patches under (DESIGN.md §15): there every
//! tree is the shortest-hop tree [`bfs_column`] writes into its column,
//! no base weight is sized and no load is counted that nobody reads.

use crate::budget::BudgetGuard;
use crate::dijkstra::{bfs_column, spt_to};
use crate::engine::{ComputeOpts, EngineConfig, RouteError, RoutingEngine};
use fabric::{ChannelId, Network, NodeId, Routes};

#[cfg(test)]
thread_local! {
    /// Base weights sized on this thread, each an all-pairs diameter —
    /// the pin that a snapshot-chunk route sizes none.
    pub(crate) static BASE_WEIGHTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Trees whose loads were counted on this thread — the pin that a
    /// snapshot route nobody reads the loads of counts none.
    pub(crate) static LOAD_PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The SSSP routing engine (not deadlock-free; see [`crate::DfSssp`]).
#[derive(Clone, Debug)]
pub struct Sssp {
    /// Force minimal (shortest-hop) paths via a large base weight.
    pub minimal: bool,
    /// Chunk width of the sweep (see the module docs); the paper's `1`
    /// by default.
    pub compute: ComputeOpts,
}

impl Default for Sssp {
    fn default() -> Self {
        Sssp {
            minimal: true,
            compute: ComputeOpts::default(),
        }
    }
}

impl Sssp {
    /// Minimal-path SSSP, the paper's configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The base edge weight `W0` used for minimality.
    pub fn base_weight(&self, net: &Network) -> u64 {
        if !self.minimal {
            return 1;
        }
        #[cfg(test)]
        BASE_WEIGHTS.with(|n| n.set(n.get() + 1));
        let n = net.num_nodes() as u64;
        let d = net.diameter().unwrap_or(net.num_nodes()) as u64;
        n * n * (d + 2)
    }

    /// Run Algorithm 1, returning the tables and the final channel
    /// weights (the weights are exposed for tests and diagnostics).
    pub fn route_with_weights(&self, net: &Network) -> Result<(Routes, Vec<u64>), RouteError> {
        let (unlimited, w0) = (BudgetGuard::unlimited(), self.base_weight(net));
        let (routes, load) = self.route_with_loads(net, &unlimited, true)?;
        let load = load.expect("loads asked for");
        Ok((routes, load.iter().map(|l| w0 + l).collect()))
    }

    /// Algorithm 1 under a [`BudgetGuard`] and the engine's chunk
    /// schedule (see the module docs), returning the tables and, when
    /// `loads` asks for them, what the trees added to each channel's
    /// weight (its *load*: the number of terminal-to-terminal paths over
    /// it). The deadline is checked before every destination's tree (the
    /// expensive unit of Algorithm 1), so a run over a hostile or
    /// oversized network stops within one tree of its deadline.
    ///
    /// A chunk reads the weights `W0 + load` as they stood when it
    /// began. Under one chunk (`chunk >= |T|`) that is `W0` everywhere:
    /// every tree is the shortest-hop tree [`bfs_column`] writes straight
    /// into its column, whatever `W0` is, so the base weight (an
    /// all-pairs diameter) is never computed, and no load is counted
    /// unless the caller reads it.
    pub fn route_with_loads(
        &self,
        net: &Network,
        guard: &BudgetGuard,
        loads: bool,
    ) -> Result<(Routes, Option<Vec<u64>>), RouteError> {
        guard.admit(net)?;
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        let chunk = self.compute.chunk.max(1);
        let snapshot = chunk >= net.num_terminals();
        let w0 = if snapshot { 0 } else { self.base_weight(net) };
        let (mut load, mut subtree) = (vec![0u64; net.num_channels()], vec![0; net.num_nodes()]);
        // What the trees of the current chunk see (weighted chunks only).
        let mut weights = Vec::new();
        let mut routes = Routes::new(net, self.name());
        let mut order = Vec::with_capacity(net.num_switches() + 1);
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            guard.check_deadline()?;
            let column = routes.next_column_mut(dst_t);
            if snapshot {
                bfs_column(net, dst, column, &mut order);
                // Only weighted chunks read the loads themselves.
                if loads {
                    add_loads(net, dst, column, &order, &mut subtree, &mut load);
                }
                continue;
            }
            if dst_t % chunk == 0 {
                weights = load.iter().map(|l| w0 + l).collect();
            }
            let spt = spt_to(net, dst, &weights);
            let parents = column.iter_mut().zip(&spt.parent);
            parents.for_each(|(slot, c)| *slot = c.map_or(u32::MAX, |c| c.0));
            add_loads(net, dst, column, &spt.pop_order, &mut subtree, &mut load);
        }
        Ok((routes, loads.then_some(load)))
    }
}

/// Add the loads of the tree toward `root` held in `column`: each
/// channel gains the number of terminal sources behind it. `order` holds
/// the tree's forwarding nodes (it may hold its terminals too), each
/// after its parent's head; `subtree` arrives zeroed and is left so.
fn add_loads(
    net: &Network,
    root: NodeId,
    column: &[u32],
    order: &[NodeId],
    subtree: &mut [u64],
    load: &mut [u64],
) {
    #[cfg(test)]
    LOAD_PASSES.set(LOAD_PASSES.get() + 1);
    let parent = |v: NodeId| Some(ChannelId(column[v.idx()])).filter(|c| c.0 != u32::MAX);
    // Terminals never forward, so each is a leaf with itself behind it.
    for &t in net.terminals().iter().filter(|&&t| t != root) {
        if let Some(c) = parent(t) {
            load[c.idx()] += 1;
            subtree[net.channel(c).dst.idx()] += 1;
        }
    }
    // Reverse order sees every node after all of its children.
    for &v in order.iter().rev() {
        let behind = std::mem::take(&mut subtree[v.idx()]);
        if let Some(c) = parent(v).filter(|_| behind > 0) {
            load[c.idx()] += behind;
            subtree[net.channel(c).dst.idx()] += behind;
        }
    }
}

impl RoutingEngine for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        self.route_with_loads(net, &BudgetGuard::unlimited(), false)
            .map(|(r, _)| r)
    }

    fn deadlock_free(&self) -> bool {
        false
    }

    fn config(&self) -> EngineConfig {
        EngineConfig::new().compute(self.compute)
    }

    fn set_config(&mut self, config: EngineConfig) {
        self.compute = config.compute;
    }
}

/// Plain shortest paths, used as a comparison point in tests and
/// ablations: [`Sssp`] under one chunk (every tree against the uniform
/// start weights, no balancing), labelled `ShortestPath`. These are the
/// tables the serving schedule routes.
pub fn unbalanced_shortest_paths(net: &Network) -> Result<Routes, RouteError> {
    let snapshot = ComputeOpts::new().chunk(net.num_terminals());
    let mut routes = Sssp::new()
        .with_config(EngineConfig::new().compute(snapshot))
        .route(net)?;
    routes.set_engine("ShortestPath");
    Ok(routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;
    use fabric::NetworkBuilder;

    #[test]
    fn routes_all_pairs_on_torus() {
        let net = topo::torus(&[3, 3], 1);
        let routes = Sssp::new().route(&net).unwrap();
        assert_eq!(routes.validate_connectivity(&net).unwrap(), 9 * 8);
    }

    #[test]
    fn paths_are_minimal() {
        let net = topo::kautz(2, 2, 12, true);
        let routes = Sssp::new().route(&net).unwrap();
        for &dst in net.terminals() {
            let hops = net.hops_to(dst);
            for &src in net.terminals() {
                if src == dst {
                    continue;
                }
                let len = routes.path_channels(&net, src, dst).unwrap().len();
                assert_eq!(len as u32, hops[src.idx()], "{src:?}->{dst:?}");
            }
        }
    }

    #[test]
    fn balancing_beats_unbalanced_max_load() {
        // On a fat tree the unbalanced variant funnels everything through
        // the first-found root; SSSP must spread the load.
        let net = topo::kary_ntree(4, 2);
        let balanced = Sssp::new().route(&net).unwrap();
        let unbalanced = unbalanced_shortest_paths(&net).unwrap();
        let max_b = *balanced.channel_loads(&net).unwrap().iter().max().unwrap();
        let max_u = *unbalanced
            .channel_loads(&net)
            .unwrap()
            .iter()
            .max()
            .unwrap();
        assert!(
            max_b < max_u,
            "balanced max load {max_b} should beat unbalanced {max_u}"
        );
    }

    /// The paper's Figure 1 phenomenon: with unit initial weights, the
    /// balancing weight accumulated while routing toward earlier
    /// destinations makes a later search take a hop-longer detour; the
    /// minimality initialization (`W0 = |N|²·(d+2)`) prevents this.
    #[test]
    fn figure1_weight_update() {
        // Triangle v1-v2 plus two-hop alternative v2-v3-v1. Five terminal
        // pairs across the v2->v1 edge load it; destination x2 (processed
        // after x1) then detours via v3 when weights start at 1.
        let mut b = NetworkBuilder::new();
        let v1 = b.add_switch("v1", 16);
        let v2 = b.add_switch("v2", 16);
        let v3 = b.add_switch("v3", 16);
        b.link(v1, v2).unwrap();
        b.link(v2, v3).unwrap();
        b.link(v3, v1).unwrap();
        // Creation order fixes destination order: x* at v1 first.
        for i in 0..2 {
            let t = b.add_terminal(format!("x{i}"));
            b.link(t, v1).unwrap();
        }
        for i in 0..5 {
            let t = b.add_terminal(format!("y{i}"));
            b.link(t, v2).unwrap();
        }
        let z = b.add_terminal("z");
        b.link(z, v3).unwrap();
        let net = b.build();

        // Non-minimal configuration can produce non-shortest paths.
        let routes = Sssp {
            minimal: false,
            ..Sssp::new()
        }
        .route(&net)
        .unwrap();
        let mut any_detour = false;
        for &dst in net.terminals() {
            let hops = net.hops_to(dst);
            for &src in net.terminals() {
                if src == dst {
                    continue;
                }
                let len = routes.path_channels(&net, src, dst).unwrap().len() as u32;
                if len > hops[src.idx()] {
                    any_detour = true;
                }
            }
        }
        assert!(any_detour, "unit initial weights must allow detours");

        // Minimal configuration never does.
        let routes = Sssp::new().route(&net).unwrap();
        for &dst in net.terminals() {
            let hops = net.hops_to(dst);
            for &src in net.terminals() {
                if src == dst {
                    continue;
                }
                let len = routes.path_channels(&net, src, dst).unwrap().len() as u32;
                assert_eq!(len, hops[src.idx()]);
            }
        }
    }

    #[test]
    fn weight_updates_count_paths() {
        // Line: t0-s0-s1-t1; after routing, the s0->s1 channel carries
        // exactly the t0->t1 path, so its weight grew by 1; and s1->s0 by
        // one for t1->t0.
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(t0, s0).unwrap();
        b.link(s0, s1).unwrap();
        b.link(t1, s1).unwrap();
        let net = b.build();
        let engine = Sssp::new();
        let w0 = engine.base_weight(&net);
        let (_, weights) = engine.route_with_weights(&net).unwrap();
        let c01 = net.channel_between(s0, s1).unwrap();
        let c10 = net.channel_between(s1, s0).unwrap();
        assert_eq!(weights[c01.idx()], w0 + 1);
        assert_eq!(weights[c10.idx()], w0 + 1);
        // Terminal injection channel t0->s0 carries t0's paths to both
        // other terminals... only t1 exists, so +1; s0->t0 carries t1->t0.
        let inj = net.channel_between(t0, s0).unwrap();
        assert_eq!(weights[inj.idx()], w0 + 1);
    }

    #[test]
    fn deadline_is_checked_before_every_tree() {
        // The serving schedule is one chunk wide; a deadline looked at
        // once per chunk would be looked at once per run.
        use crate::budget::DEADLINE_CHECKS;
        let net = topo::kary_ntree(4, 2);
        let terminals = net.num_terminals();
        let before = DEADLINE_CHECKS.with(|n| n.get());
        Sssp::new()
            .with_config(EngineConfig::new().compute(ComputeOpts::new().chunk(terminals)))
            .route(&net)
            .unwrap();
        let checks = DEADLINE_CHECKS.with(|n| n.get()) - before;
        assert!(checks >= terminals, "{checks} checks for {terminals} trees");
    }

    #[test]
    fn disconnected_network_is_rejected() {
        let mut b = NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        let net = b.build();
        assert_eq!(
            Sssp::new().route(&net).unwrap_err(),
            RouteError::Disconnected
        );
        assert!(unbalanced_shortest_paths(&net).is_err());
    }
}
