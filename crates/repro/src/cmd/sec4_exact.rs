//! Sec III/IV: heuristics vs the exact APP optimum on networks small
//! enough for the exponential solver (the paper proves finding the
//! optimum is NP-complete — Theorem 1 — which is exactly why it ships
//! heuristics; this command quantifies how far the heuristics land from
//! optimal on tractable instances).

use dfsssp_core::app::{from_tree_paths, lower_bound_layers};
use dfsssp_core::dfsssp::assign_layers_offline;
use dfsssp_core::paths::TreePaths;
use dfsssp_core::{CycleBreakHeuristic, EngineConfig, RoutingEngine, Sssp};

pub fn main() {
    let cli = repro::Cli::parse();
    let sssp = Sssp::new().with_config(EngineConfig::new().compute(cli.compute()));
    println!("Sec III/IV: heuristic layers vs exact APP minimum (tiny networks)\n");
    let nets = vec![
        fabric::topo::ring(4, 1),
        fabric::topo::ring(5, 1),
        fabric::topo::ring(6, 1),
        fabric::topo::torus(&[3, 3], 1),
        fabric::topo::kautz(2, 1, 6, true),
    ];
    let mut rows = Vec::new();
    for net in nets {
        let routes = sssp.route(&net).unwrap();
        let paths = TreePaths {
            net: &net,
            routes: &routes,
        };
        let (generator, _) = from_tree_paths(paths).unwrap();
        let lb = lower_bound_layers(&generator);
        let exact = generator
            .min_cover(8)
            .map(|(k, _)| k.to_string())
            .unwrap_or_else(|| "-".into());
        let mut row = vec![
            net.label().to_string(),
            generator.len().to_string(),
            lb.to_string(),
            exact,
        ];
        for h in CycleBreakHeuristic::ALL {
            let layers = assign_layers_offline(&net, &routes, h, 64, false)
                .map(|(_, s)| s.layers_used.to_string())
                .unwrap_or_else(|_| ">64".into());
            row.push(layers);
        }
        rows.push(row);
        eprintln!("  done: {}", net.label());
    }
    cli.table(
        &[
            "network",
            "paths",
            "lower bound",
            "exact",
            "weakest",
            "heaviest",
            "first",
        ],
        &rows,
    );
    println!("\nNP-completeness (Theorem 1) is why 'exact' only exists for toys;");
    println!("the lower bound comes from mutually conflicting path cliques.");
    cli.finish().expect("write metrics");
}
