//! Phased all-to-all timing (Fig 13).
//!
//! Large-message MPI all-to-all implementations schedule `P-1` ring
//! phases; in phase `p`, rank `i` exchanges with rank `i ± p`. Each
//! phase's duration is the per-pair message time divided by the worst
//! congestion-shared bandwidth the fabric gives that phase's pattern.

use crate::alloc::Allocation;
use fabric::{Network, Routes};
use orcs::Pattern;

/// Time (seconds) for an all-to-all of `bytes_per_pair` bytes among
/// `cores` ranks, with `link_mibs` MiB/s links.
pub fn alltoall_time(
    net: &Network,
    routes: &Routes,
    cores: usize,
    alloc: Allocation,
    bytes_per_pair: usize,
    link_mibs: f64,
) -> Result<f64, fabric::RoutesError> {
    let mut total = 0.0;
    for phase in 1..cores {
        let pattern = Pattern::alltoall_phase(cores, phase);
        let mapped = alloc.map_pattern(net, cores, &pattern);
        let bws = orcs::flow_bandwidths(net, routes, &mapped)?;
        // The phase completes when its slowest pair finishes.
        let worst = bws.iter().copied().fold(f64::INFINITY, f64::min);
        let mib = bytes_per_pair as f64 / (1024.0 * 1024.0);
        total += mib / (link_mibs * worst);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::MinHop;
    use dfsssp_core::{DfSssp, RoutingEngine};
    use fabric::topo;

    #[test]
    fn time_scales_linearly_with_message_size() {
        let net = topo::kary_ntree(2, 3);
        let routes = DfSssp::new().route(&net).unwrap();
        let t1 = alltoall_time(&net, &routes, 8, Allocation::Packed, 1 << 10, 946.0).unwrap();
        let t2 = alltoall_time(&net, &routes, 8, Allocation::Packed, 1 << 12, 946.0).unwrap();
        assert!((t2 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn more_cores_take_longer() {
        let net = topo::kary_ntree(4, 2);
        let routes = MinHop::new().route(&net).unwrap();
        let t8 = alltoall_time(&net, &routes, 8, Allocation::Spread, 1 << 14, 946.0).unwrap();
        let t16 = alltoall_time(&net, &routes, 16, Allocation::Spread, 1 << 14, 946.0).unwrap();
        assert!(t16 > t8);
    }

    #[test]
    fn congestion_free_bound_matches_analytic() {
        // 2 ranks: one phase, full bandwidth both ways.
        let net = topo::kary_ntree(2, 2);
        let routes = DfSssp::new().route(&net).unwrap();
        let bytes = 1 << 20; // 1 MiB
        let t = alltoall_time(&net, &routes, 2, Allocation::Spread, bytes, 1000.0).unwrap();
        assert!((t - 0.001).abs() < 1e-9, "t = {t}");
    }
}
