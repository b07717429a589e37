//! Routing-quality report: the summary numbers by which the paper judges
//! a routing function (path minimality, link-load balance) in one place.

use crate::engine::RouteError;
use fabric::{Network, NodeKind, Routes};

/// Quality summary of a routing on a network.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteQuality {
    /// Mean path length (hops) over ordered terminal pairs.
    pub avg_path_len: f64,
    /// Longest routed path.
    pub max_path_len: usize,
    /// Fraction of pairs routed hop-minimally.
    pub minimal_fraction: f64,
    /// Largest number of routes on any inter-switch channel.
    pub max_interswitch_load: u32,
    /// Mean routes per inter-switch channel (idle channels included —
    /// a funneling routing leaves capacity unused, and that shows here).
    pub mean_interswitch_load: f64,
    /// `max / mean` over all inter-switch channels — the balance figure
    /// SSSP's weight updates minimize (1.0 = perfectly even use of the
    /// whole fabric).
    pub load_imbalance: f64,
    /// Virtual layers the routing uses.
    pub layers: u8,
}

/// Compute the quality report for `routes` on `net`.
pub fn route_quality(net: &Network, routes: &Routes) -> Result<RouteQuality, RouteError> {
    let mut total_hops = 0usize;
    let mut pairs = 0usize;
    let mut max_len = 0usize;
    let mut minimal = 0usize;
    for &dst in net.terminals() {
        let hops = net.hops_to(dst);
        for &src in net.terminals() {
            if src == dst {
                continue;
            }
            let len = routes
                .path_channels(net, src, dst)
                .map_err(|_| RouteError::Disconnected)?
                .len();
            total_hops += len;
            max_len = max_len.max(len);
            if len as u32 == hops[src.idx()] {
                minimal += 1;
            }
            pairs += 1;
        }
    }
    let loads = routes
        .channel_loads(net)
        .map_err(|_| RouteError::Disconnected)?;
    let inter: Vec<u32> = net
        .channels()
        .filter(|(_, ch)| {
            net.node(ch.src).kind == NodeKind::Switch && net.node(ch.dst).kind == NodeKind::Switch
        })
        .map(|(id, _)| loads[id.idx()])
        .collect();
    let max_load = inter.iter().copied().max().unwrap_or(0);
    let mean_load = if inter.is_empty() {
        0.0
    } else {
        inter.iter().map(|&l| l as f64).sum::<f64>() / inter.len() as f64
    };
    Ok(RouteQuality {
        avg_path_len: total_hops as f64 / pairs.max(1) as f64,
        max_path_len: max_len,
        minimal_fraction: minimal as f64 / pairs.max(1) as f64,
        max_interswitch_load: max_load,
        mean_interswitch_load: mean_load,
        load_imbalance: if mean_load > 0.0 {
            max_load as f64 / mean_load
        } else {
            1.0
        },
        layers: routes.num_layers(),
    })
}

impl std::fmt::Display for RouteQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "paths avg {:.2} / max {} hops ({:.0}% minimal), inter-switch load max {} / mean {:.1} (imbalance {:.2}), {} VLs",
            self.avg_path_len,
            self.max_path_len,
            self.minimal_fraction * 100.0,
            self.max_interswitch_load,
            self.mean_interswitch_load,
            self.load_imbalance,
            self.layers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoutingEngine;
    use crate::sssp::{unbalanced_shortest_paths, Sssp};
    use crate::DfSssp;
    use fabric::topo;

    #[test]
    fn minimal_engines_report_full_minimality() {
        let net = topo::torus(&[4, 4], 1);
        let q = route_quality(&net, &Sssp::new().route(&net).unwrap()).unwrap();
        assert_eq!(q.minimal_fraction, 1.0);
        assert!(q.avg_path_len >= 2.0);
        assert_eq!(q.layers, 1);
    }

    #[test]
    fn balancing_shows_in_the_imbalance_figure() {
        let net = topo::kary_ntree(4, 2);
        let balanced = route_quality(&net, &Sssp::new().route(&net).unwrap()).unwrap();
        let plain = route_quality(&net, &unbalanced_shortest_paths(&net).unwrap()).unwrap();
        assert!(
            balanced.load_imbalance < plain.load_imbalance,
            "balanced {:.2} vs plain {:.2}",
            balanced.load_imbalance,
            plain.load_imbalance
        );
        // Same path lengths either way (both minimal).
        assert_eq!(balanced.avg_path_len, plain.avg_path_len);
    }

    #[test]
    fn dfsssp_matches_sssp_quality_plus_layers() {
        let net = topo::torus(&[3, 3], 1);
        let s = route_quality(&net, &Sssp::new().route(&net).unwrap()).unwrap();
        let d = route_quality(&net, &DfSssp::new().route(&net).unwrap()).unwrap();
        assert_eq!(s.avg_path_len, d.avg_path_len);
        assert_eq!(s.max_interswitch_load, d.max_interswitch_load);
        assert!(d.layers >= s.layers);
    }

    #[test]
    fn display_is_compact() {
        let net = topo::ring(4, 1);
        let q = route_quality(&net, &Sssp::new().route(&net).unwrap()).unwrap();
        let s = q.to_string();
        assert!(s.contains("minimal"));
        assert!(s.contains("VLs"));
    }
}
