//! Fig 13: MPI all-to-all runtime vs message size on 128 cores of the
//! Deimos reconstruction, MinHop vs DFSSSP.

use appsim::{alltoall_time, Allocation};
use baselines::MinHop;
use dfsssp_core::{DfSssp, EngineConfig, RoutingEngine};
use fabric::topo::realworld::RealSystem;

pub fn main() {
    let mut cli = repro::Cli::parse();
    let scale = repro::scale();
    let net = RealSystem::Deimos.build(scale);
    cli.note_topology(&net);
    let cores = 128.min(net.num_terminals());
    println!("Figure 13: all-to-all runtime on Deimos, {cores} cores (milliseconds)\n");
    let minhop = MinHop::new().route(&net).unwrap();
    let config = EngineConfig::new().compute(cli.compute());
    let dfsssp = DfSssp::new().with_config(config).route(&net).unwrap();
    let mut rows = Vec::new();
    for floats in [4usize, 16, 64, 256, 1024, 4096] {
        let bytes = floats * 4 * cores; // send buffer per rank -> per pair
        let per_pair = floats * 4;
        let a = alltoall_time(&net, &minhop, cores, Allocation::Spread, per_pair, 946.0).unwrap();
        let b = alltoall_time(&net, &dfsssp, cores, Allocation::Spread, per_pair, 946.0).unwrap();
        rows.push(vec![
            floats.to_string(),
            format!("{}", bytes),
            format!("{:.3}", a * 1e3),
            format!("{:.3}", b * 1e3),
            format!("{:+.1}%", (a / b - 1.0) * 100.0),
        ]);
    }
    cli.table(
        &["floats", "bytes/rank", "MinHop ms", "DFSSSP ms", "speedup"],
        &rows,
    );
    cli.finish().expect("write metrics");
}
