//! Fig 9: virtual layers needed on random topologies (128 32-port
//! switches, 16 terminals each) as the inter-switch link count varies,
//! LASH vs DFSSSP, min/avg/max over seeds.

use baselines::Lash;
use dfsssp_core::{pool, DfSssp, EngineConfig};
use fabric::topo::{random_topology, RandomTopoSpec};

pub fn main() {
    let cli = repro::Cli::parse();
    let seeds = repro::seeds();
    println!("Figure 9: #virtual layers on random topologies ({seeds} seeds per point)\n");
    let mut rows = Vec::new();
    for links in [130usize, 140, 150, 175, 200, 225, 250, 275, 300] {
        let spec = RandomTopoSpec::fig9(links);
        let results = pool::map(seeds, |seed| {
            let net = random_topology(&spec, seed as u64);
            let dfsssp = DfSssp {
                config: EngineConfig::new().max_layers(64).balance(false),
                compact: false, // measure the unmodified Algorithm 2
                ..DfSssp::new()
            };
            let df = dfsssp
                .route_with_stats(&net)
                .map(|(_, s)| s.layers_used)
                .unwrap_or(64);
            let lash = Lash {
                config: EngineConfig::new().max_layers(64),
            }
            .route_with_layers(&net)
            .map(|(_, l)| l)
            .unwrap_or(64);
            (df, lash)
        });
        let stats = |xs: Vec<usize>| {
            let min = *xs.iter().min().unwrap();
            let max = *xs.iter().max().unwrap();
            let avg = xs.iter().sum::<usize>() as f64 / xs.len() as f64;
            format!("{min}/{avg:.2}/{max}")
        };
        rows.push(vec![
            links.to_string(),
            stats(results.iter().map(|r| r.0).collect()),
            stats(results.iter().map(|r| r.1).collect()),
        ]);
        eprintln!("  done: {links} links");
    }
    cli.table(&["links", "DFSSSP min/avg/max", "LASH min/avg/max"], &rows);
    cli.finish().expect("write metrics");
}
