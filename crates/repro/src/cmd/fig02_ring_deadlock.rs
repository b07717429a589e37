//! Fig 2: the 5-node ring whose clockwise 2-hop pattern deadlocks under
//! SSSP routing, demonstrated with the buffer-level simulator, and the
//! same workload completing under DFSSSP.

use dfsssp_core::{DfSssp, EngineConfig, RoutingEngine, Sssp};
use flitsim::{simulate_recorded, SimConfig, Workload};

pub fn main() {
    let mut cli = repro::Cli::parse();
    let compute = cli.compute();
    let rec = cli.recorder();
    let net = fabric::topo::ring(5, 1);
    cli.note_topology(&net);
    let workload = Workload::shift(5, 2, 8);
    let config = SimConfig {
        buffer_capacity: 1,
        max_cycles: 100_000,
        ..SimConfig::default()
    };
    println!("Figure 2: ring(5), every node sends 8 packets 2 hops clockwise");
    println!("buffers: 1 packet per (channel, VL)\n");
    for engine in [
        Box::new(Sssp::new().with_config(EngineConfig::new().compute(compute)))
            as Box<dyn RoutingEngine>,
        Box::new(
            DfSssp::new().with_config(EngineConfig::new().recorder(rec.clone()).compute(compute)),
        ),
    ] {
        let routes = engine.route(&net).expect("ring routes");
        let report = dfsssp_core::verify::deadlock_report(&net, &routes).unwrap();
        let outcome = simulate_recorded(&net, &routes, &workload, &config, &*rec);
        println!(
            "{:<8} layers={} cdg-cyclic={:<5} outcome={:?}",
            engine.name(),
            routes.num_layers(),
            !report.is_deadlock_free(),
            outcome
        );
        for (layer, cycle) in &report.cycles {
            let chain: Vec<String> = cycle
                .iter()
                .map(|&c| {
                    let ch = net.channel(c);
                    format!("{:?}->{:?}", ch.src, ch.dst)
                })
                .collect();
            println!("         layer {layer} witness cycle: {}", chain.join(" "));
        }
    }
    cli.finish().expect("write metrics");
}
