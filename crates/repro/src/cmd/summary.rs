//! One-shot summary: a fast battery of the paper's headline claims,
//! suitable for CI and for a first look after building. Each section
//! names the figure/table it corresponds to; the full-size runs live in
//! the dedicated per-figure commands.

use appsim::{netgauge_ebb, Allocation};
use baselines::{Lash, MinHop};
use dfsssp_core::{DfSssp, EngineConfig, RoutingEngine, Sssp};
use fabric::topo::realworld::RealSystem;
use flitsim::{simulate_recorded, SimConfig, Workload};
use orcs::{effective_bisection_bandwidth_recorded, EbbOptions};

pub fn main() {
    let cli = repro::Cli::parse();
    let rec = cli.recorder();
    let chunked = EngineConfig::new().compute(cli.compute());
    let sssp_engine = Sssp::new().with_config(chunked.clone());
    let dfsssp_engine = DfSssp::new().with_config(chunked);
    println!("DFSSSP reproduction summary\n===========================\n");

    // 1. Fig 2: the ring deadlock, live.
    let ring = fabric::topo::ring(5, 1);
    let config = SimConfig {
        buffer_capacity: 1,
        max_cycles: 100_000,
        ..SimConfig::default()
    };
    let w = Workload::shift(5, 2, 8);
    let sssp = sssp_engine.route(&ring).unwrap();
    let dfsssp = dfsssp_engine.route(&ring).unwrap();
    let deadlocks = simulate_recorded(&ring, &sssp, &w, &config, &*rec).deadlocked();
    let completes = simulate_recorded(&ring, &dfsssp, &w, &config, &*rec).completed();
    println!(
        "[Fig 2] 5-ring shift pattern: SSSP {} | DFSSSP ({} VLs) {}",
        if deadlocks { "DEADLOCKS" } else { "survives?!" },
        dfsssp.num_layers(),
        if completes { "completes" } else { "fails?!" },
    );
    // Each section's claim; a miss is named at the end with its numbers.
    let mut misses = Vec::new();
    if !(deadlocks && completes) {
        misses.push(format!(
            "[Fig 2] SSSP deadlocked: {deadlocks}, DFSSSP completed: {completes} (both should hold)"
        ));
    }

    // 2. Fig 5 flavor: eBB on an oversubscribed XGFT.
    let xgft = fabric::topo::xgft(2, &[16, 16], &[8, 8]);
    let opts = EbbOptions {
        patterns: 100,
        ..Default::default()
    };
    let mh = MinHop::new().route(&xgft).unwrap();
    let df = dfsssp_engine.route(&xgft).unwrap();
    let lash = Lash::new().route(&xgft).unwrap();
    let e = |r| {
        effective_bisection_bandwidth_recorded(&xgft, r, &opts, &*rec)
            .unwrap()
            .mean
    };
    let (mh_ebb, lash_ebb, df_ebb) = (e(&mh), e(&lash), e(&df));
    println!(
        "[Fig 5] XGFT(2;16,16;8,8) eBB: MinHop {mh_ebb:.3} | LASH {lash_ebb:.3} | DFSSSP {df_ebb:.3}"
    );
    if df_ebb < mh_ebb {
        misses.push(format!(
            "[Fig 5] DFSSSP eBB {df_ebb:.3} is below MinHop's {mh_ebb:.3}"
        ));
    }

    // 3. Fig 10 flavor: VLs on the Deimos reconstruction.
    let deimos = RealSystem::Deimos.build(0.1);
    let vls = DfSssp {
        config: EngineConfig::new().max_layers(64).balance(false),
        compact: false,
        ..DfSssp::new()
    };
    let (_, stats) = vls.route_with_stats(&deimos).unwrap();
    let (_, lash_vls) = Lash::new()
        .with_config(EngineConfig::new().max_layers(64))
        .route_with_layers(&deimos)
        .unwrap();
    println!(
        "[Fig 10] Deimos(x0.1) virtual layers: DFSSSP {} | LASH {}",
        stats.layers_used, lash_vls
    );
    if stats.layers_used > lash_vls {
        misses.push(format!(
            "[Fig 10] DFSSSP needs {} VLs, more than LASH's {lash_vls}",
            stats.layers_used
        ));
    }

    // 4. Fig 12 flavor: Netgauge eBB on Deimos.
    let dmh = MinHop::new().route(&deimos).unwrap();
    let ddf = dfsssp_engine.route(&deimos).unwrap();
    let cores = 64.min(deimos.num_terminals());
    let a = netgauge_ebb(&deimos, &dmh, cores, Allocation::Spread, 100, 946.0, 1).unwrap();
    let b = netgauge_ebb(&deimos, &ddf, cores, Allocation::Spread, 100, 946.0, 1).unwrap();
    let gain = (b.mean / a.mean - 1.0) * 100.0;
    println!(
        "[Fig 12] Deimos(x0.1) {cores}-core Netgauge eBB: MinHop {:.0} MiB/s | DFSSSP {:.0} MiB/s ({gain:+.0}%)",
        a.mean,
        b.mean,
    );
    if b.mean < a.mean {
        misses.push(format!(
            "[Fig 12] DFSSSP Netgauge eBB {:.0} MiB/s is below MinHop's {:.0} MiB/s ({gain:+.0}%)",
            b.mean, a.mean
        ));
    }

    match misses.len() {
        0 => println!("\nAll headline mechanisms verified. See DESIGN.md / EXPERIMENTS.md."),
        n => println!(
            "\n{n} of 4 headline checks missed:\n  {}\nSee DESIGN.md / EXPERIMENTS.md.",
            misses.join("\n  ")
        ),
    }
    cli.finish().expect("write metrics");
}
