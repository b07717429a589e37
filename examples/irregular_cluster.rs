//! The paper's motivation, §I: regular topologies degrade in practice
//! (failed cables, grown clusters), specialized routings stop working,
//! and DFSSSP keeps both deadlock-freedom and bandwidth.
//!
//! ```sh
//! cargo run --release --example irregular_cluster
//! ```

use dfsssp::fabric::degrade;
use dfsssp::prelude::*;

fn main() {
    // Start from a clean 4-ary 3-tree (64 endpoints).
    let pristine = dfsssp::topo::kary_ntree(4, 3);
    // Cut 12 random cables: the operator's Tuesday morning.
    let (degraded, removed) = degrade::fail_random_cables(&pristine, 12, 2026);
    println!(
        "degraded {}: removed {removed} cables, still connected: {}\n",
        pristine.label(),
        degraded.is_strongly_connected()
    );

    let opts = EbbOptions {
        patterns: 200,
        ..Default::default()
    };
    let engines: Vec<Box<dyn RoutingEngine>> = vec![
        Box::new(FatTree::new()),
        Box::new(UpDown::new()),
        Box::new(MinHop::new()),
        Box::new(Lash::new()),
        Box::new(DfSssp::new()),
    ];
    println!(
        "{:<12} {:>10} {:>10} {:>14}",
        "engine", "pristine", "degraded", "deadlock-free?"
    );
    for engine in engines {
        let cell = |net: &Network| match engine.route(net) {
            Err(_) => "n/a".to_string(),
            Ok(routes) => {
                let ok = dfsssp::verify::verify_deadlock_free(net, &routes).is_ok();
                let ebb = effective_bisection_bandwidth(net, &routes, &opts).unwrap();
                format!("{:.3}{}", ebb.mean, if ok { "" } else { "!" })
            }
        };
        let df = if engine.deadlock_free() { "yes" } else { "NO" };
        println!(
            "{:<12} {:>10} {:>10} {:>14}",
            engine.name(),
            cell(&pristine),
            cell(&degraded),
            df
        );
    }
    println!("\n('!' marks routings whose dependency graph is cyclic — a deadlock hazard;");
    println!(" 'n/a' marks engines that reject the topology, like OpenSM's do.)");
}
