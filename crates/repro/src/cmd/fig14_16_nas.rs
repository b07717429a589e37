//! Figs 14-16: NAS BT / SP / FT scaling on the Deimos reconstruction,
//! MinHop vs DFSSSP (total Gflop/s of the model).

use appsim::{Allocation, NasBenchmark};
use baselines::MinHop;
use dfsssp_core::{DfSssp, EngineConfig, RoutingEngine};
use fabric::topo::realworld::RealSystem;

pub fn main() {
    let mut cli = repro::Cli::parse();
    let scale = repro::scale();
    let net = RealSystem::Deimos.build(scale);
    cli.note_topology(&net);
    let nt = net.num_terminals();
    println!("Figures 14-16: NAS models on Deimos (scale={scale}, Gflop/s total)\n");
    let minhop = MinHop::new().route(&net).unwrap();
    let config = EngineConfig::new().compute(cli.compute());
    let dfsssp = DfSssp::new().with_config(config).route(&net).unwrap();
    for bench in [NasBenchmark::BT, NasBenchmark::SP, NasBenchmark::FT] {
        println!("{}:", bench.name());
        let mut rows = Vec::new();
        // BT/SP need square rank counts; FT takes powers of two. Pick
        // the largest four that fit the reconstruction.
        let grid_counts: Vec<usize> = if bench == NasBenchmark::FT {
            (4..)
                .map(|k| 1usize << k)
                .take_while(|&c| c <= nt)
                .collect()
        } else {
            (4..).map(|k| k * k).take_while(|&c| c <= nt).collect()
        };
        let tail = grid_counts.len().saturating_sub(4);
        for &cores in &grid_counts[tail..] {
            let a = bench.run(&net, &minhop, cores, Allocation::Spread).unwrap();
            let b = bench.run(&net, &dfsssp, cores, Allocation::Spread).unwrap();
            rows.push(vec![
                cores.to_string(),
                format!("{:.2}", a.gflops_total),
                format!("{:.2}", b.gflops_total),
                format!("{:+.1}%", (b.gflops_total / a.gflops_total - 1.0) * 100.0),
                format!("{:.0}%", b.comm_fraction * 100.0),
            ]);
        }
        cli.table(
            &["cores", "MinHop", "DFSSSP", "improvement", "comm(DFSSSP)"],
            &rows,
        );
        println!();
    }
    cli.finish().expect("write metrics");
}
