//! MinHop routing: minimal paths with per-channel load balancing.
//!
//! OpenSM's default engine. For every destination it computes hop counts
//! (BFS) and then lets each node forward over the least-loaded channel
//! among those on a minimal path. Delivers the second-highest bandwidth
//! after SSSP/DFSSSP in the paper's measurements, but is **not**
//! deadlock-free (its CDG can be cyclic, e.g. on rings and tori).

use dfsssp_core::{RouteError, RoutingEngine};
use fabric::{Network, Routes};

/// The MinHop engine.
#[derive(Clone, Debug, Default)]
pub struct MinHop;

impl MinHop {
    /// New MinHop engine.
    pub fn new() -> Self {
        MinHop
    }
}

impl RoutingEngine for MinHop {
    fn name(&self) -> &'static str {
        "MinHop"
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        let mut routes = Routes::new(net, self.name());
        // Per-channel route counters, persistent across destinations:
        // this is OpenSM's port-load balancing.
        let mut load = vec![0u32; net.num_channels()];
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let hops = net.hops_to(dst);
            for (v, _) in net.nodes() {
                if v == dst || hops[v.idx()] == u32::MAX {
                    continue;
                }
                let best = net
                    .out_channels(v)
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let u = net.channel(c).dst;
                        // Next hop must be closer AND able to forward
                        // (a switch) or be the destination itself.
                        (net.is_switch(u) || u == dst)
                            && hops[u.idx()] != u32::MAX
                            && hops[u.idx()] + 1 == hops[v.idx()]
                    })
                    .min_by_key(|&c| (load[c.idx()], c.0))
                    .expect("connected network always has a minimal next hop");
                routes.set_next(v, dst_t, best);
                load[best.idx()] += 1;
            }
        }
        Ok(routes)
    }

    fn deadlock_free(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::verify::{deadlock_report, verify_minimal};
    use fabric::topo;

    #[test]
    fn connects_all_pairs_minimally() {
        let net = topo::kary_ntree(3, 2);
        let routes = MinHop::new().route(&net).unwrap();
        let nt = net.num_terminals();
        assert_eq!(routes.validate_connectivity(&net).unwrap(), nt * (nt - 1));
        verify_minimal(&net, &routes).unwrap();
    }

    #[test]
    fn balances_across_parallel_uplinks() {
        // Two leaves connected via two spines: loads must split.
        let net = topo::clos2(8, 2, 4, 2, 2);
        let routes = MinHop::new().route(&net).unwrap();
        let loads = routes.channel_loads(&net).unwrap();
        let spine_loads: Vec<u32> = net
            .channels()
            .filter(|(_, c)| net.is_switch(c.src) && net.is_switch(c.dst))
            .map(|(id, _)| loads[id.idx()])
            .collect();
        let max = *spine_loads.iter().max().unwrap();
        let min = *spine_loads.iter().min().unwrap();
        assert!(max - min <= max / 2 + 1, "loads {spine_loads:?} unbalanced");
    }

    #[test]
    fn cyclic_on_ring() {
        // MinHop is not deadlock-free: the 5-ring CDG must be cyclic.
        let net = topo::ring(5, 1);
        let routes = MinHop::new().route(&net).unwrap();
        let report = deadlock_report(&net, &routes).unwrap();
        assert!(!report.is_deadlock_free());
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = fabric::NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let t0 = b.add_terminal("t0");
        b.link(t0, s0).unwrap();
        let s1 = b.add_switch("s1", 4);
        let t1 = b.add_terminal("t1");
        b.link(t1, s1).unwrap();
        assert_eq!(
            MinHop::new().route(&b.build()).unwrap_err(),
            RouteError::Disconnected
        );
    }
}
