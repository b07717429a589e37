//! Fig 10: virtual layers needed to route the real-world systems
//! deadlock-free, LASH vs DFSSSP.

use baselines::Lash;
use dfsssp_core::{DfSssp, EngineConfig};
use fabric::topo::realworld::RealSystem;

pub fn main() {
    let cli = repro::Cli::parse();
    let scale = repro::scale();
    println!("Figure 10: #virtual layers on real systems (scale={scale})\n");
    let mut rows = Vec::new();
    for sys in RealSystem::ALL {
        let net = sys.build(scale);
        let dfsssp = DfSssp {
            config: EngineConfig::new().max_layers(64).balance(false),
            compact: false, // measure the unmodified Algorithm 2
            ..DfSssp::new()
        };
        let df = dfsssp
            .route_with_stats(&net)
            .map(|(_, s)| s.layers_used.to_string())
            .unwrap_or_else(|e| repro::failure_label(&e));
        let lash = Lash {
            config: EngineConfig::new().max_layers(64),
        }
        .route_with_layers(&net)
        .map(|(_, l)| l.to_string())
        .unwrap_or_else(|e| repro::failure_label(&e));
        rows.push(vec![
            sys.name().to_string(),
            net.num_terminals().to_string(),
            df,
            lash,
        ]);
        eprintln!("  done: {}", sys.name());
    }
    cli.table(&["system", "endpoints", "DFSSSP VLs", "LASH VLs"], &rows);
    cli.finish().expect("write metrics");
}
