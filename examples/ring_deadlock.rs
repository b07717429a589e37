//! The paper's Figure 2, live: a 5-switch ring where plain SSSP routing
//! deadlocks real traffic, and DFSSSP's virtual layers dissolve the
//! cycle.
//!
//! ```sh
//! cargo run --release --example ring_deadlock
//! ```

use dfsssp::prelude::*;

fn main() {
    let net = dfsssp::topo::ring(5, 1);
    println!("ring(5): every endpoint sends 8 packets 2 hops clockwise\n");

    let workload = Workload::shift(5, 2, 8);
    let config = SimConfig {
        buffer_capacity: 1,
        max_cycles: 100_000,
        ..SimConfig::default()
    };

    // Plain SSSP: the channel dependency graph is one big cycle.
    let sssp = Sssp::new().route(&net).unwrap();
    let report = dfsssp::verify::deadlock_report(&net, &sssp).unwrap();
    println!(
        "SSSP   : {} layer(s), cyclic layers {:?}",
        sssp.num_layers(),
        report.cyclic_layers
    );
    match simulate(&net, &sssp, &workload, &config) {
        Outcome::Deadlock {
            cycle,
            stuck,
            delivered,
        } => println!(
            "         -> DEADLOCK at cycle {cycle}: {stuck} packets stuck, {delivered} delivered\n"
        ),
        other => println!("         -> unexpected outcome {other:?}\n"),
    }

    // DFSSSP: same paths, but split over virtual layers with acyclic
    // dependency graphs.
    let dfsssp = DfSssp::new().route(&net).unwrap();
    let report = dfsssp::verify::deadlock_report(&net, &dfsssp).unwrap();
    println!(
        "DFSSSP : {} layer(s), cyclic layers {:?}",
        dfsssp.num_layers(),
        report.cyclic_layers
    );
    match simulate(&net, &dfsssp, &workload, &config) {
        Outcome::Completed(stats) => println!(
            "         -> completed: {} packets in {} cycles (avg latency {:.1})",
            stats.delivered, stats.cycles, stats.avg_latency
        ),
        other => println!("         -> unexpected outcome {other:?}"),
    }
}
