//! Quickstart: route a torus deadlock-free and measure its effective
//! bisection bandwidth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dfsssp::prelude::*;

fn main() {
    // 1. Build a topology. Tori deadlock under unrestricted minimal
    //    routing, which is exactly what DFSSSP fixes.
    let net = dfsssp::topo::torus(&[4, 4], 2);
    println!(
        "network: {} ({} switches, {} endpoints, {} cables)",
        net.label(),
        net.num_switches(),
        net.num_terminals(),
        net.num_cables()
    );

    // 2. Route it with DFSSSP (offline layer assignment, weakest-edge
    //    heuristic, 8 virtual lanes — the paper's configuration).
    let engine = DfSssp::new();
    let routes = engine.route(&net).expect("torus is routable");
    println!(
        "routed by {}: {} virtual layers",
        routes.engine(),
        routes.num_layers()
    );

    // 3. Verify the deadlock-freedom condition (per-layer acyclic CDGs).
    dfsssp::verify::verify_deadlock_free(&net, &routes).expect("DFSSSP is deadlock-free");
    dfsssp::verify::verify_minimal(&net, &routes).expect("DFSSSP paths are minimal");
    println!("verified: all layers acyclic, all paths minimal");

    // 4. Compare the effective bisection bandwidth against MinHop.
    let opts = EbbOptions {
        patterns: 200,
        ..Default::default()
    };
    let minhop = MinHop::new().route(&net).expect("routable");
    let ebb_df = effective_bisection_bandwidth(&net, &routes, &opts).unwrap();
    let ebb_mh = effective_bisection_bandwidth(&net, &minhop, &opts).unwrap();
    println!("eBB DFSSSP: {ebb_df}");
    println!("eBB MinHop: {ebb_mh}");

    // 5. And prove the difference matters: drive real packets through
    //    finite buffers.
    let workload = Workload::uniform_random(net.num_terminals(), 30, 7);
    let outcome = simulate(&net, &routes, &workload, &SimConfig::default());
    println!("packet simulation under DFSSSP: {outcome:?}");
}
