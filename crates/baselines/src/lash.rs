//! LASH — layered shortest path routing (Skeie/Lysne et al.).
//!
//! LASH routes along plain (unbalanced) shortest paths and assigns each
//! *switch-pair* path to a virtual layer such that every layer's channel
//! dependency graph stays acyclic — the *online* approach of the paper's
//! §IV, one cycle check per added path. Working at switch granularity
//! (as the real OpenSM engine does) keeps the path count at `|S|²`
//! instead of `|T|²`.
//!
//! Deadlock-free on arbitrary topologies, but its paths are not
//! load-balanced, which is why its effective bisection bandwidth trails
//! SSSP-based routing on fat trees (Fig 5) while matching it on Kautz
//! graphs (Fig 6).

use dfsssp_core::budget::{clamp_layers, record_trip};
use dfsssp_core::dfsssp::assign_layers_online_budgeted;
use dfsssp_core::paths::PathId;
use dfsssp_core::{EngineConfig, RouteError, RoutingEngine};
use fabric::{ChannelId, Network, NodeId, Routes};
use telemetry::fx::FxHashMap;
use telemetry::{phases, Recorder};

/// The LASH engine.
#[derive(Clone, Debug, Default)]
pub struct Lash {
    /// Virtual-layer budget (InfiniBand: 8 in hardware), telemetry sink
    /// (`cycle_search`/`layer_assign` phases of the online assignment,
    /// which walks the paths; `cdg_build` covers tree building only) and
    /// resource bounds. LASH has no balancing step and no balanced
    /// sweep, so it ignores `balance` and `compute`.
    pub config: EngineConfig,
}

/// A delivery tree: multi-source BFS over the switch graph from a
/// terminal's attachment switches. Terminals with the same attachment
/// set share one tree.
struct Tree {
    /// Per node: the channel toward the nearest attachment switch
    /// (`None` at attachment switches themselves and for terminals).
    parent: Vec<Option<ChannelId>>,
    /// Per node: switch-hops to the nearest attachment.
    dist: Vec<u32>,
}

impl Lash {
    /// LASH with the hardware-default 8 layers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attachment switches of a terminal, sorted (the tree key).
    fn attachments(net: &Network, t: NodeId) -> Vec<u32> {
        let mut a: Vec<u32> = net
            .out_channels(t)
            .iter()
            .map(|&c| net.channel(c).dst.0)
            .filter(|&d| net.is_switch(NodeId(d)))
            .collect();
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Multi-source BFS over the switch graph.
    fn build_tree(net: &Network, attachments: &[u32]) -> Tree {
        let n = net.num_nodes();
        let mut dist = vec![u32::MAX; n];
        let mut parent: Vec<Option<ChannelId>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        for &a in attachments {
            dist[a as usize] = 0;
            queue.push_back(NodeId(a));
        }
        while let Some(u) = queue.pop_front() {
            for &c in net.in_channels(u) {
                let v = net.channel(c).src;
                if !net.is_switch(v) {
                    continue;
                }
                if dist[v.idx()] == u32::MAX {
                    dist[v.idx()] = dist[u.idx()] + 1;
                    parent[v.idx()] = Some(c);
                    queue.push_back(v);
                }
            }
        }
        Tree { parent, dist }
    }

    /// Route and also return the number of layers used (Fig 9/10 data).
    pub fn route_with_layers(&self, net: &Network) -> Result<(Routes, usize), RouteError> {
        record_trip(&*self.config.recorder, self.route_with_layers_inner(net))
    }

    fn route_with_layers_inner(&self, net: &Network) -> Result<(Routes, usize), RouteError> {
        let guard = self.config.budget.start();
        guard.admit(net)?;
        let max_layers = clamp_layers(self.config.max_layers)?;
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        let rec: &dyn Recorder = &*self.config.recorder;
        let (trees, terminal_tree) = telemetry::timed(rec, phases::CDG_BUILD, || {
            // One tree per distinct attachment set.
            let mut tree_of_key: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            let mut trees: Vec<Tree> = Vec::new();
            let mut terminal_tree: Vec<u32> = Vec::with_capacity(net.num_terminals());
            for &t in net.terminals() {
                guard.check_deadline()?;
                let key = Self::attachments(net, t);
                let id = *tree_of_key.entry(key.clone()).or_insert_with(|| {
                    trees.push(Self::build_tree(net, &key));
                    (trees.len() - 1) as u32
                });
                terminal_tree.push(id);
            }
            let unreached = |s: &NodeId| trees.iter().any(|t| t.dist[s.idx()] == u32::MAX);
            if net.switches().iter().any(unreached) {
                return Err(RouteError::Disconnected);
            }
            Ok((trees, terminal_tree))
        })?;
        // Switch-pair paths for the layer assignment: path `tree · |N| +
        // node` is the node's walk to the tree's nearest attachment, empty
        // at attachment switches and terminals (layer 0, no dependency).
        let n = net.num_nodes();
        let walk = |p: PathId, out: &mut Vec<ChannelId>| {
            let (tree, mut at) = (&trees[p as usize / n], NodeId(p % n as u32));
            out.clear();
            while let Some(c) = tree.parent[at.idx()] {
                out.push(c);
                at = net.channel(c).dst;
            }
        };
        let slots = net.dep_slots().clone();
        let (path_layer, stats) =
            assign_layers_online_budgeted(&slots, trees.len() * n, walk, max_layers, rec, &guard)?;

        // Compile destination-based tables.
        let mut routes = Routes::new(net, self.name());
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            guard.check_deadline()?;
            let tree = &trees[terminal_tree[dst_t] as usize];
            for &s in net.switches() {
                match tree.parent[s.idx()] {
                    Some(c) => routes.set_next(s, dst_t, c),
                    None => {
                        // Attachment switch: deliver directly.
                        let c = net
                            .channel_between(s, dst)
                            .or_else(|| net.channels_between(s, dst).first().copied())
                            .ok_or_else(|| {
                                RouteError::UnsupportedTopology(
                                    "attachment switch without delivery channel".into(),
                                )
                            })?;
                        routes.set_next(s, dst_t, c);
                    }
                }
            }
            // Terminals inject via the attachment closest to dst.
            for (src_t, &src) in net.terminals().iter().enumerate() {
                if src == dst {
                    continue;
                }
                let inj = net
                    .out_channels(src)
                    .iter()
                    .copied()
                    .filter(|&c| net.is_switch(net.channel(c).dst))
                    .min_by_key(|&c| (tree.dist[net.channel(c).dst.idx()], c.0))
                    .ok_or_else(|| {
                        RouteError::UnsupportedTopology("terminal without switch".into())
                    })?;
                routes.set_next(src, dst_t, inj);
                // The pair's layer is the layer of its switch path.
                let src_sw = net.channel(inj).dst;
                let path = terminal_tree[dst_t] as usize * n + src_sw.idx();
                routes.set_layer(src_t, dst_t, path_layer[path]);
            }
        }
        routes.recompute_num_layers();
        Ok((routes, stats.layers_used))
    }
}

impl RoutingEngine for Lash {
    fn name(&self) -> &'static str {
        "LASH"
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        self.route_with_layers(net).map(|(r, _)| r)
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

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::verify::{verify_deadlock_free, verify_minimal};
    use fabric::topo;

    fn assert_valid(net: &Network) -> usize {
        let (routes, layers) = Lash::new().route_with_layers(net).unwrap();
        let nt = net.num_terminals();
        assert_eq!(routes.validate_connectivity(net).unwrap(), nt * (nt - 1));
        verify_deadlock_free(net, &routes).unwrap();
        verify_minimal(net, &routes).unwrap();
        layers
    }

    #[test]
    fn ring_needs_two_layers() {
        let layers = assert_valid(&topo::ring(5, 1));
        assert_eq!(layers, 2);
    }

    #[test]
    fn tree_needs_one_layer() {
        let layers = assert_valid(&topo::kary_ntree(2, 3));
        assert_eq!(layers, 1);
    }

    #[test]
    fn torus_within_hardware_budget() {
        // Odd extents: minimal paths have a unique ring direction, so the
        // dependency cycles of the classic torus hazard are guaranteed.
        let layers = assert_valid(&topo::torus(&[5, 5], 1));
        assert!((2..=8).contains(&layers), "layers = {layers}");
    }

    #[test]
    fn layer_budget_enforced() {
        let engine = Lash::new().with_config(EngineConfig::new().max_layers(1));
        let err = engine.route(&topo::ring(5, 1)).unwrap_err();
        assert!(matches!(err, RouteError::NeedMoreLayers { .. }));
    }

    #[test]
    fn random_topology_supported() {
        let spec = fabric::topo::RandomTopoSpec {
            switches: 10,
            radix: 12,
            terminals_per_switch: 2,
            interswitch_links: 15,
        };
        let net = fabric::topo::random_topology(&spec, 5);
        let layers = assert_valid(&net);
        assert!(layers <= 8);
    }

    #[test]
    fn multi_homed_terminals_deliver_via_nearest_attachment() {
        let net = fabric::topo::realworld::RealSystem::Chic.build(0.2);
        assert_valid(&net);
    }

    #[test]
    fn same_switch_pairs_use_layer_zero() {
        let net = topo::ring(5, 3);
        let (routes, _) = Lash::new().route_with_layers(&net).unwrap();
        // Terminals 0,1,2 share switch s0.
        assert_eq!(routes.layer(0, 1), 0);
        assert_eq!(routes.layer(2, 0), 0);
    }
}
