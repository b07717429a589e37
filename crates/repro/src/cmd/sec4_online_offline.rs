//! Sec IV: online vs offline DFSSSP layer-assignment runtime (the paper:
//! ~170 s offline vs ~2 h online at 4096 nodes; we sweep smaller sizes).
//! A third column times the restart-search ablation — the same SSSP
//! sweep, then the offline algorithm with its cycle search restarted
//! from scratch after every break — which is what the paper's resumable
//! search saves.

use dfsssp_core::dfsssp::{assign_layers_offline_restart, DfStats};
use dfsssp_core::{
    CycleBreakHeuristic, DfSssp, EngineConfig, LayerAssignMode, RouteError, RoutingEngine, Sssp,
};
use std::time::Instant;

pub fn main() {
    let cli = repro::Cli::parse();
    let rec = cli.recorder();
    println!("Sec IV: online vs offline DFSSSP runtime (seconds)\n");
    let cap = repro::max_endpoints();
    let mut rows = Vec::new();
    for (n, net) in [
        (64, fabric::topo::torus(&[4, 4], 4)),
        (128, fabric::topo::torus(&[4, 8], 4)),
        (256, fabric::topo::torus(&[8, 8], 4)),
        (512, fabric::topo::torus(&[8, 16], 4)),
    ] {
        if n > cap {
            continue;
        }
        let mut row = vec![n.to_string(), net.label().to_string()];
        // One timed cell: run `f`, print its wall clock and layer count.
        let mut cell = |f: &dyn Fn() -> Result<DfStats, RouteError>| {
            let t = Instant::now();
            let res = f();
            let dt = t.elapsed().as_secs_f64();
            row.push(match res {
                Ok(stats) => format!("{dt:.3} ({} VLs)", stats.layers_used),
                Err(e) => repro::failure_label(&e),
            });
        };
        for mode in [LayerAssignMode::Offline, LayerAssignMode::Online] {
            let engine = DfSssp {
                mode,
                // 16 is the IB spec limit, so both modes fit.
                config: EngineConfig::new().max_layers(16).recorder(rec.clone()),
                ..DfSssp::new()
            };
            cell(&|| engine.route_with_stats(&net).map(|(_, stats)| stats));
        }
        cell(&|| {
            let routes = Sssp::new().route(&net)?;
            assign_layers_offline_restart(&net, &routes, CycleBreakHeuristic::WeakestEdge, 16)
                .map(|(_, stats)| stats)
        });
        rows.push(row);
        eprintln!("  done: {n}");
    }
    cli.table(
        &[
            "endpoints",
            "topology",
            "offline",
            "online",
            "offline-restart",
        ],
        &rows,
    );
    cli.finish().expect("write metrics");
}
