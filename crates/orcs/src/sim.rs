//! Congestion accounting and the effective-bisection-bandwidth driver.

use crate::patterns::Pattern;
use crate::report::Summary;
use dfsssp_core::pool;
use fabric::{Network, Routes, RoutesError};

/// Per-flow relative bandwidths under `pattern`: every channel's
/// congestion is the number of flows crossing it, and a flow's bandwidth
/// is `1 / max(congestion along its path)` (ORCS's model: the bottleneck
/// link is shared fairly among its flows). `1.0` means unshared
/// full-speed; the terminal injection channel always carries at least the
/// flow itself.
pub fn flow_bandwidths(
    net: &Network,
    routes: &Routes,
    pattern: &Pattern,
) -> Result<Vec<f64>, RoutesError> {
    let mut congestion = vec![0u32; net.num_channels()];
    let terminals = net.terminals();
    // Two walks: count congestion, then score flows.
    for &(s, d) in &pattern.flows {
        let (src, dst) = (terminals[s as usize], terminals[d as usize]);
        for step in routes.path(net, src, dst)? {
            congestion[step?.idx()] += 1;
        }
    }
    let mut out = Vec::with_capacity(pattern.flows.len());
    for &(s, d) in &pattern.flows {
        let (src, dst) = (terminals[s as usize], terminals[d as usize]);
        let mut worst = 1u32;
        for step in routes.path(net, src, dst)? {
            worst = worst.max(congestion[step?.idx()]);
        }
        out.push(1.0 / worst as f64);
    }
    Ok(out)
}

/// Options for the eBB simulation.
#[derive(Clone, Copy, Debug)]
pub struct EbbOptions {
    /// Number of random bisection patterns (the paper uses 1000 for the
    /// Netgauge runs; §V plots use ORCS defaults).
    pub patterns: usize,
    /// Base RNG seed; pattern `i` uses `seed + i`.
    pub seed: u64,
    /// Physical per-link bandwidth used to scale the relative result
    /// (e.g. 946.0 MiB/s for Deimos' PCIe 1.1 HCAs); `1.0` keeps the
    /// result relative.
    pub link_bandwidth: f64,
}

impl Default for EbbOptions {
    fn default() -> Self {
        EbbOptions {
            patterns: 1000,
            seed: 0x0DF5_55B0,
            link_bandwidth: 1.0,
        }
    }
}

/// Effective bisection bandwidth: the mean flow bandwidth over
/// `opts.patterns` random bisections, scaled by `opts.link_bandwidth`.
/// The returned [`Summary`] aggregates per-pattern means.
pub fn effective_bisection_bandwidth(
    net: &Network,
    routes: &Routes,
    opts: &EbbOptions,
) -> Result<Summary, RoutesError> {
    effective_bisection_bandwidth_recorded(net, routes, opts, &telemetry::Noop)
}

/// [`effective_bisection_bandwidth`] with telemetry: the whole sweep
/// reports as one `ebb` phase, each pattern bumps `patterns_simulated`,
/// and per-pattern mean bandwidths land in the `pattern_bw_milli`
/// histogram (relative bandwidth × 1000, so 1000 = unshared
/// full speed). Identical results either way — the recorder only
/// observes.
pub fn effective_bisection_bandwidth_recorded(
    net: &Network,
    routes: &Routes,
    opts: &EbbOptions,
    rec: &dyn telemetry::Recorder,
) -> Result<Summary, RoutesError> {
    let nt = net.num_terminals();
    let per_pattern = telemetry::timed(rec, telemetry::phases::EBB, || {
        pool::map(opts.patterns, |i| {
            let pattern = Pattern::random_bisection(nt, opts.seed.wrapping_add(i as u64));
            let bws = flow_bandwidths(net, routes, &pattern)?;
            let mean = bws.iter().sum::<f64>() / bws.len().max(1) as f64;
            if rec.enabled() {
                rec.add(telemetry::counters::PATTERNS_SIMULATED, 1);
                rec.observe(
                    telemetry::hists::PATTERN_BW_MILLI,
                    (mean * 1000.0).round() as u64,
                );
            }
            Ok(mean * opts.link_bandwidth)
        })
    });
    let per_pattern: Result<Vec<f64>, RoutesError> = per_pattern.into_iter().collect();
    Ok(Summary::of(&per_pattern?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::MinHop;
    use dfsssp_core::{DfSssp, RoutingEngine, Sssp};
    use fabric::topo;

    #[test]
    fn lone_pair_gets_full_bandwidth() {
        let net = topo::kary_ntree(2, 2);
        let routes = Sssp::new().route(&net).unwrap();
        let pattern = Pattern {
            flows: vec![(0, 3)],
        };
        let bws = flow_bandwidths(&net, &routes, &pattern).unwrap();
        assert_eq!(bws, vec![1.0]);
    }

    #[test]
    fn shared_bottleneck_halves_bandwidth() {
        // Two switches, one cable, two flows crossing it.
        let mut b = fabric::NetworkBuilder::new();
        let s0 = b.add_switch("s0", 8);
        let s1 = b.add_switch("s1", 8);
        b.link(s0, s1).unwrap();
        let mut ts = Vec::new();
        for i in 0..4 {
            let t = b.add_terminal(format!("t{i}"));
            b.link(t, if i < 2 { s0 } else { s1 }).unwrap();
            ts.push(t);
        }
        let net = b.build();
        let routes = Sssp::new().route(&net).unwrap();
        let pattern = Pattern {
            flows: vec![(0, 2), (1, 3)],
        };
        let bws = flow_bandwidths(&net, &routes, &pattern).unwrap();
        assert_eq!(bws, vec![0.5, 0.5]);
    }

    #[test]
    fn ebb_is_deterministic_and_bounded() {
        let net = topo::kary_ntree(2, 3);
        let routes = Sssp::new().route(&net).unwrap();
        let opts = EbbOptions {
            patterns: 50,
            ..Default::default()
        };
        let a = effective_bisection_bandwidth(&net, &routes, &opts).unwrap();
        let b = effective_bisection_bandwidth(&net, &routes, &opts).unwrap();
        assert_eq!(a.mean, b.mean);
        assert!(a.mean > 0.0 && a.mean <= 1.0);
        assert!(a.min <= a.mean && a.mean <= a.max);
    }

    #[test]
    fn full_fat_tree_achieves_high_ebb() {
        // A non-oversubscribed 2-level tree should give most flows full
        // bandwidth under balanced minimal routing.
        let net = topo::kary_ntree(4, 2);
        let routes = DfSssp::new().route(&net).unwrap();
        let opts = EbbOptions {
            patterns: 100,
            ..Default::default()
        };
        let s = effective_bisection_bandwidth(&net, &routes, &opts).unwrap();
        assert!(s.mean > 0.5, "eBB {s:?} too low for a full fat tree");
    }

    #[test]
    fn balanced_routing_beats_unbalanced() {
        let net = topo::kary_ntree(4, 2);
        let opts = EbbOptions {
            patterns: 100,
            ..Default::default()
        };
        let sssp = Sssp::new().route(&net).unwrap();
        let plain = dfsssp_core::sssp::unbalanced_shortest_paths(&net).unwrap();
        let a = effective_bisection_bandwidth(&net, &sssp, &opts).unwrap();
        let b = effective_bisection_bandwidth(&net, &plain, &opts).unwrap();
        assert!(
            a.mean > b.mean,
            "balanced {} should beat unbalanced {}",
            a.mean,
            b.mean
        );
    }

    #[test]
    fn link_bandwidth_scales_result() {
        let net = topo::kary_ntree(2, 2);
        let routes = MinHop::new().route(&net).unwrap();
        let rel = effective_bisection_bandwidth(
            &net,
            &routes,
            &EbbOptions {
                patterns: 10,
                link_bandwidth: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let scaled = effective_bisection_bandwidth(
            &net,
            &routes,
            &EbbOptions {
                patterns: 10,
                link_bandwidth: 946.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((scaled.mean - rel.mean * 946.0).abs() < 1e-9);
    }
}
