//! Sec IV: cycle-break heuristic comparison on random topologies
//! (64 switches, 1024 terminals, 128 inter-switch links): layer counts
//! per heuristic (paper: weakest 3-5, first-edge 4-8, heaviest 4-16).

use dfsssp_core::{pool, CycleBreakHeuristic, DfSssp, EngineConfig};
use fabric::topo::{random_topology, RandomTopoSpec};

pub fn main() {
    let cli = repro::Cli::parse();
    let seeds = repro::seeds();
    println!("Sec IV: heuristic comparison ({seeds} random topologies)\n");
    let spec = RandomTopoSpec::heuristic_study();
    let mut rows = Vec::new();
    for h in CycleBreakHeuristic::ALL {
        let layers = pool::map(seeds, |seed| {
            let net = random_topology(&spec, seed as u64);
            let engine = DfSssp {
                config: EngineConfig::new().max_layers(64).balance(false),
                heuristic: h,
                compact: false, // raw heuristic quality
                ..DfSssp::new()
            };
            engine
                .route_with_stats(&net)
                .map(|(_, s)| s.layers_used)
                .unwrap_or(64)
        });
        let min = *layers.iter().min().unwrap();
        let max = *layers.iter().max().unwrap();
        let avg = layers.iter().sum::<usize>() as f64 / layers.len() as f64;
        rows.push(vec![
            h.name().to_string(),
            min.to_string(),
            format!("{avg:.2}"),
            max.to_string(),
        ]);
        eprintln!("  done: {}", h.name());
    }
    cli.table(&["heuristic", "min VLs", "avg VLs", "max VLs"], &rows);
    cli.finish().expect("write metrics");
}
