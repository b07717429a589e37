//! Fat-tree routing for k-ary n-trees and XGFTs.
//!
//! Classic destination-based fat-tree routing: below the least common
//! ancestor level a packet climbs, choosing the uplink by destination
//! index (which statically spreads destinations over the root set); above
//! it the downward path to any destination is unique. Requires a leveled
//! tree topology — on anything else the engine refuses, matching
//! OpenSM's ftree engine failing on the paper's irregular systems.

use dfsssp_core::{RouteError, RoutingEngine};
use fabric::{Network, Routes};

/// The fat-tree engine.
#[derive(Clone, Debug, Default)]
pub struct FatTree;

impl FatTree {
    /// New fat-tree engine.
    pub fn new() -> Self {
        FatTree
    }
}

impl RoutingEngine for FatTree {
    fn name(&self) -> &'static str {
        "FatTree"
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        // Every switch must carry a level, and every channel must move
        // exactly one level (a proper multi-stage tree). Terminals sit one
        // level below their (unique-level) attachment switches.
        let mut level = vec![0i32; net.num_nodes()];
        for (id, node) in net.nodes() {
            if node.kind == fabric::NodeKind::Switch {
                level[id.idx()] = match node.level {
                    Some(l) => l as i32,
                    None => {
                        return Err(RouteError::UnsupportedTopology(format!(
                            "switch {} has no tree level",
                            node.name
                        )))
                    }
                };
            }
        }
        for &t in net.terminals() {
            let attach = net
                .out_channels(t)
                .iter()
                .map(|&c| level[net.channel(c).dst.idx()])
                .min()
                .ok_or_else(|| {
                    RouteError::UnsupportedTopology("terminal without attachment".into())
                })?;
            level[t.idx()] = attach - 1;
        }
        for (_, ch) in net.channels() {
            let d = level[ch.src.idx()] - level[ch.dst.idx()];
            if d.abs() != 1 {
                return Err(RouteError::UnsupportedTopology(format!(
                    "link {} - {} does not cross exactly one level",
                    net.node(ch.src).name,
                    net.node(ch.dst).name
                )));
            }
        }
        let mut routes = Routes::new(net, self.name());
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let hops = net.hops_to(dst);
            for (v, _) in net.nodes() {
                if v == dst || hops[v.idx()] == u32::MAX {
                    continue;
                }
                let mut candidates: Vec<_> = net
                    .out_channels(v)
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let u = net.channel(c).dst;
                        (net.is_switch(u) || u == dst)
                            && hops[u.idx()] != u32::MAX
                            && hops[u.idx()] + 1 == hops[v.idx()]
                    })
                    .collect();
                if candidates.is_empty() {
                    return Err(RouteError::UnsupportedTopology(
                        "no minimal tree step".into(),
                    ));
                }
                // Downward candidates are unique in a proper tree; upward
                // candidates are spread by destination index.
                candidates.sort_by_key(|c| c.0);
                let pick = candidates[dst_t % candidates.len()];
                routes.set_next(v, dst_t, pick);
            }
        }
        Ok(routes)
    }

    fn deadlock_free(&self) -> bool {
        true // up-then-down paths on a tree have an acyclic CDG
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::verify::{verify_deadlock_free, verify_minimal};
    use fabric::topo;

    #[test]
    fn routes_kary_ntree() {
        let net = topo::kary_ntree(4, 2);
        let routes = FatTree::new().route(&net).unwrap();
        let nt = net.num_terminals();
        assert_eq!(routes.validate_connectivity(&net).unwrap(), nt * (nt - 1));
        verify_minimal(&net, &routes).unwrap();
        verify_deadlock_free(&net, &routes).unwrap();
    }

    #[test]
    fn routes_xgft() {
        let net = topo::xgft(2, &[4, 4], &[2, 2]);
        let routes = FatTree::new().route(&net).unwrap();
        verify_minimal(&net, &routes).unwrap();
        verify_deadlock_free(&net, &routes).unwrap();
    }

    #[test]
    fn spreads_destinations_over_roots() {
        let net = topo::kary_ntree(4, 2);
        let routes = FatTree::new().route(&net).unwrap();
        let loads = routes.channel_loads(&net).unwrap();
        let up_loads: Vec<u32> = net
            .channels()
            .filter(|(_, c)| {
                net.is_switch(c.src)
                    && net.is_switch(c.dst)
                    && net.node(c.dst).level > net.node(c.src).level
            })
            .map(|(id, _)| loads[id.idx()])
            .collect();
        let max = *up_loads.iter().max().unwrap();
        let min = *up_loads.iter().min().unwrap();
        assert!(max <= 2 * min.max(1), "uplink loads {up_loads:?}");
    }

    #[test]
    fn refuses_ring() {
        let err = FatTree::new().route(&topo::ring(5, 1)).unwrap_err();
        assert!(matches!(err, RouteError::UnsupportedTopology(_)));
    }

    #[test]
    fn refuses_torus() {
        let err = FatTree::new().route(&topo::torus(&[3, 3], 1)).unwrap_err();
        assert!(matches!(err, RouteError::UnsupportedTopology(_)));
    }
}
