//! Shared plumbing for the `repro` binary's commands (one per paper
//! table / figure plus the operator tools; see DESIGN.md §2 for the
//! index): the common [`Cli`], the Table I sweeps, eBB cells and the
//! table printer, the fuzz campaign and the open-loop overload bench.
//!
//! Environment knobs (all optional):
//!
//! * `REPRO_SCALE` — real-world topology scale factor in `(0, 1]`
//!   (default 0.5; `1.0` = published system sizes. Below ~0.4 the Deimos
//!   reconstruction has too much slack for congestion effects to show).
//! * `REPRO_PATTERNS` — random bisection patterns per eBB point
//!   (default 250; the paper's Netgauge runs used 1000).
//! * `REPRO_MAX_ENDPOINTS` — cap for the topology sweeps
//!   (default 1024; the paper sweeps to 4096).
//! * `REPRO_SEEDS` — seeds per random-topology point (default 20; the
//!   paper uses 100).

pub mod cli;
pub mod fuzz;
pub mod loadgen;

pub use cli::Cli;

use dfsssp_core::{RouteError, RoutingEngine};
use fabric::Network;
use telemetry::Recorder;

/// Real-world scale factor (`REPRO_SCALE`, default 0.5).
pub fn scale() -> f64 {
    env_f64("REPRO_SCALE", 0.5).clamp(0.01, 1.0)
}

/// Bisection patterns per eBB measurement (`REPRO_PATTERNS`, default 250).
pub fn patterns() -> usize {
    env_usize("REPRO_PATTERNS", 250)
}

/// Sweep cap in endpoints (`REPRO_MAX_ENDPOINTS`, default 1024).
pub fn max_endpoints() -> usize {
    env_usize("REPRO_MAX_ENDPOINTS", 1024)
}

/// Random-topology seeds per point (`REPRO_SEEDS`, default 20).
pub fn seeds() -> usize {
    env_usize("REPRO_SEEDS", 20)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The Fig 4/8 engine lineup.
pub fn engines() -> Vec<Box<dyn RoutingEngine + Send + Sync>> {
    baselines::all_engines()
}

/// The XGFT sweep (Fig 5): endpoint count and generator, 36-port
/// compatible. The OCR'd Table I parameters are internally inconsistent
/// with the stated endpoint counts (see EXPERIMENTS.md), so these hit
/// the stated counts with `w = m/2` tapering.
pub fn xgft_series() -> Vec<(usize, Network)> {
    let specs: [(usize, usize, Vec<usize>, Vec<usize>); 7] = [
        (64, 2, vec![8, 8], vec![4, 4]),
        (128, 2, vec![16, 8], vec![8, 4]),
        (256, 2, vec![16, 16], vec![8, 8]),
        (512, 3, vec![8, 8, 8], vec![4, 4, 4]),
        (1024, 3, vec![16, 8, 8], vec![8, 4, 4]),
        (2048, 3, vec![16, 16, 8], vec![8, 8, 4]),
        (4096, 3, vec![16, 16, 16], vec![8, 8, 8]),
    ];
    let cap = max_endpoints();
    specs
        .into_iter()
        .filter(|(n, ..)| *n <= cap)
        .map(|(n, h, m, w)| (n, fabric::topo::xgft(h, &m, &w)))
        .collect()
}

/// The Kautz sweep (Fig 6), parameters from Table I.
pub fn kautz_series() -> Vec<(usize, Network)> {
    let specs: [(usize, usize, usize); 7] = [
        (64, 2, 2),
        (128, 2, 2),
        (256, 2, 3),
        (512, 3, 3),
        (1024, 3, 3),
        (2048, 4, 3),
        (4096, 6, 3),
    ];
    let cap = max_endpoints();
    specs
        .into_iter()
        .filter(|(n, ..)| *n <= cap)
        .map(|(n, b, len)| (n, fabric::topo::kautz(b, len, n, true)))
        .collect()
}

/// The k-ary n-tree sweep (Fig 7), parameters from Table I; reported
/// size is the true endpoint count `k^n`.
pub fn tree_series() -> Vec<(usize, Network)> {
    let specs: [(usize, usize); 7] = [(6, 2), (10, 2), (16, 2), (6, 3), (10, 3), (14, 3), (18, 3)];
    let cap = max_endpoints();
    specs
        .into_iter()
        .map(|(k, n)| (k.pow(n as u32), fabric::topo::kary_ntree(k, n)))
        .filter(|(n, _)| *n <= cap)
        .collect()
}

/// Route `net` with `engine`, returning the eBB mean or a failure label
/// (the paper's "missing bar"). The eBB sweep reports to `rec`; the
/// engine's own phases go to whatever recorder the engine carries.
pub fn ebb_cell(engine: &dyn RoutingEngine, net: &Network, rec: &dyn Recorder) -> String {
    match engine.route(net) {
        Err(e) => failure_label(&e),
        Ok(routes) => {
            let opts = orcs::EbbOptions {
                patterns: patterns(),
                ..Default::default()
            };
            match orcs::effective_bisection_bandwidth_recorded(net, &routes, &opts, rec) {
                Ok(s) => format!("{:.4}", s.mean),
                Err(_) => "walk-error".into(),
            }
        }
    }
}

/// Short label for a routing failure.
pub fn failure_label(e: &RouteError) -> String {
    match e {
        RouteError::Disconnected => "disconnected".into(),
        RouteError::NeedMoreLayers { allowed, .. } => format!("needs>{allowed}VL"),
        RouteError::UnsupportedTopology(_) => "n/a".into(),
        RouteError::BudgetExceeded { .. } => "budget".into(),
    }
}

/// Print a fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_respect_endpoint_counts() {
        for (n, net) in xgft_series() {
            assert_eq!(net.num_terminals(), n, "{}", net.label());
        }
        for (n, net) in kautz_series() {
            assert_eq!(net.num_terminals(), n, "{}", net.label());
        }
        for (n, net) in tree_series() {
            assert_eq!(net.num_terminals(), n, "{}", net.label());
        }
    }

    #[test]
    fn engine_lineup_matches_fig4() {
        let names: Vec<&str> = engines().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "MinHop",
                "Up*/Down*",
                "DOR",
                "LASH",
                "FatTree",
                "SSSP",
                "DFSSSP"
            ]
        );
    }

    #[test]
    fn failure_labels_are_short() {
        assert_eq!(failure_label(&RouteError::Disconnected), "disconnected");
        assert_eq!(
            failure_label(&RouteError::UnsupportedTopology("x".into())),
            "n/a"
        );
        // The label names the budget the run had, not a constant:
        // `sec4_online_offline` allows 16 layers, `fig10` 64.
        for (allowed, label) in [(8, "needs>8VL"), (16, "needs>16VL")] {
            let e = RouteError::NeedMoreLayers {
                required: allowed + 1,
                allowed,
            };
            assert_eq!(failure_label(&e), label);
        }
    }
}
