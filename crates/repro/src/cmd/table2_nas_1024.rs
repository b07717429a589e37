//! Table II: all NAS kernels at the largest core count, MinHop vs
//! DFSSSP improvement.

use appsim::{Allocation, NasBenchmark};
use baselines::MinHop;
use dfsssp_core::{DfSssp, EngineConfig, RoutingEngine};
use fabric::topo::realworld::RealSystem;

pub fn main() {
    let mut cli = repro::Cli::parse();
    let scale = repro::scale();
    let net = RealSystem::Deimos.build(scale);
    cli.note_topology(&net);
    let cores = 1024.min(net.num_terminals() / 4 * 4);
    println!("Table II: NAS models at {cores} cores on Deimos (scale={scale})\n");
    let minhop = MinHop::new().route(&net).unwrap();
    let config = EngineConfig::new().compute(cli.compute());
    let dfsssp = DfSssp::new().with_config(config).route(&net).unwrap();
    let mut rows = Vec::new();
    for bench in NasBenchmark::ALL {
        let a = bench.run(&net, &minhop, cores, Allocation::Spread).unwrap();
        let b = bench.run(&net, &dfsssp, cores, Allocation::Spread).unwrap();
        rows.push(vec![
            bench.name().to_string(),
            format!("{:.2}", a.gflops_total),
            format!("{:.2}", b.gflops_total),
            format!("{:+.1}%", (b.gflops_total / a.gflops_total - 1.0) * 100.0),
        ]);
    }
    cli.table(
        &[
            "benchmark",
            "MinHop Gflop/s",
            "DFSSSP Gflop/s",
            "improvement",
        ],
        &rows,
    );
    cli.finish().expect("write metrics");
}
