//! Netgauge's effective-bisection-bandwidth benchmark (Fig 12).
//!
//! The real tool partitions the ranks into two random halves, pairs them
//! up, and measures 1 MiB ping-pongs over many random partitions. We
//! generate the same patterns over the allocated subset of terminals and
//! charge each pair the congestion-shared bandwidth the fabric gives it.

use crate::alloc::Allocation;
use dfsssp_core::pool;
use fabric::{Network, Routes};
use orcs::report::Summary;
use orcs::Pattern;

/// Simulated Netgauge eBB: mean per-pair bandwidth (in `link_mibs`
/// units, e.g. 946 MiB/s for Deimos' PCIe 1.1 hosts) over `partitions`
/// random bisections of `cores` ranks.
pub fn netgauge_ebb(
    net: &Network,
    routes: &Routes,
    cores: usize,
    alloc: Allocation,
    partitions: usize,
    link_mibs: f64,
    seed: u64,
) -> Result<Summary, fabric::RoutesError> {
    let samples = pool::map(partitions, |i| {
        let pattern = Pattern::random_bisection(cores, seed.wrapping_add(i as u64));
        let mapped = alloc.map_pattern(net, cores, &pattern);
        let bws = orcs::flow_bandwidths(net, routes, &mapped)?;
        Ok(bws.iter().sum::<f64>() / bws.len().max(1) as f64 * link_mibs)
    });
    let samples: Result<Vec<f64>, fabric::RoutesError> = samples.into_iter().collect();
    Ok(Summary::of(&samples?))
}

/// The §VI-A reference measurement: rank 0 sends `message_mib` MiB to
/// every other rank *sequentially* (no congestion), with a per-hop
/// latency of `hop_us` microseconds. Returns `(min, avg, max)` achieved
/// bandwidth in MiB/s over destinations.
///
/// The paper's point: "all routing algorithms delivered the same
/// bandwidths due to the absence of congestions and shortest path
/// routing" — every minimal engine produces identical numbers here,
/// while path-restricting engines (Up*/Down* off-tree) fall behind via
/// their longer paths.
pub fn point_to_point_reference(
    net: &Network,
    routes: &Routes,
    src_t: usize,
    message_mib: f64,
    link_mibs: f64,
    hop_us: f64,
) -> Result<(f64, f64, f64), fabric::RoutesError> {
    let terminals = net.terminals();
    let src = terminals[src_t];
    let mut bws = Vec::with_capacity(terminals.len() - 1);
    for (dst_t, &dst) in terminals.iter().enumerate() {
        if dst_t == src_t {
            continue;
        }
        let hops = routes.path_channels(net, src, dst)?.len() as f64;
        let seconds = hops * hop_us * 1e-6 + message_mib / link_mibs;
        bws.push(message_mib / seconds);
    }
    let min = bws.iter().copied().fold(f64::INFINITY, f64::min);
    let max = bws.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let avg = bws.iter().sum::<f64>() / bws.len().max(1) as f64;
    Ok((min, avg, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::MinHop;
    use dfsssp_core::{DfSssp, RoutingEngine};
    use fabric::topo;

    #[test]
    fn small_runs_get_full_bandwidth_on_big_tree() {
        // 4 ranks spread over a 64-terminal full fat tree barely contend.
        let net = topo::kary_ntree(4, 3);
        let routes = DfSssp::new().route(&net).unwrap();
        let s = netgauge_ebb(&net, &routes, 4, Allocation::Spread, 20, 946.0, 1).unwrap();
        assert!(s.mean > 0.8 * 946.0, "{s}");
    }

    #[test]
    fn ebb_decreases_with_scale_like_fig12() {
        // On an oversubscribed topology, more cores = more congestion.
        let net = topo::xgft(2, &[8, 8], &[2, 2]);
        let routes = DfSssp::new().route(&net).unwrap();
        let small = netgauge_ebb(&net, &routes, 16, Allocation::Spread, 50, 946.0, 1).unwrap();
        let large = netgauge_ebb(&net, &routes, 64, Allocation::Spread, 50, 946.0, 1).unwrap();
        assert!(
            large.mean < small.mean,
            "64-core eBB {} should trail 16-core {}",
            large.mean,
            small.mean
        );
    }

    #[test]
    fn p2p_reference_is_routing_independent_for_minimal_engines() {
        // §VI-A: without congestion, minimal engines tie exactly.
        let net = topo::torus(&[4, 4], 1);
        let a = point_to_point_reference(
            &net,
            &MinHop::new().route(&net).unwrap(),
            0,
            2.5,
            946.0,
            1.0,
        )
        .unwrap();
        let b = point_to_point_reference(
            &net,
            &DfSssp::new().route(&net).unwrap(),
            0,
            2.5,
            946.0,
            1.0,
        )
        .unwrap();
        assert_eq!(a, b);
        // Large messages amortize latency: avg close to line rate.
        assert!(a.1 > 0.99 * 946.0, "avg {:.1}", a.1);
    }

    #[test]
    fn p2p_reference_penalizes_path_restricting_engines() {
        use baselines::UpDown;
        let net = topo::torus(&[5, 5], 1);
        // Tiny messages expose per-hop latency differences; average the
        // per-source averages so sources far from the Up*/Down* root
        // (whose legal paths detour) are represented.
        let df = DfSssp::new().route(&net).unwrap();
        let ud = UpDown::new().route(&net).unwrap();
        let mean_over_sources = |routes: &fabric::Routes| {
            let nt = net.num_terminals();
            (0..nt)
                .map(|s| {
                    point_to_point_reference(&net, routes, s, 0.001, 946.0, 10.0)
                        .unwrap()
                        .1
                })
                .sum::<f64>()
                / nt as f64
        };
        let minimal = mean_over_sources(&df);
        let restricted = mean_over_sources(&ud);
        assert!(
            restricted < minimal,
            "up*/down* avg {restricted:.2} should trail minimal {minimal:.2}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let net = topo::kary_ntree(2, 3);
        let routes = MinHop::new().route(&net).unwrap();
        let a = netgauge_ebb(&net, &routes, 8, Allocation::Packed, 10, 1.0, 7).unwrap();
        let b = netgauge_ebb(&net, &routes, 8, Allocation::Packed, 10, 1.0, 7).unwrap();
        assert_eq!(a.mean, b.mean);
    }
}
