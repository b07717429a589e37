//! Fig 12: Netgauge-style effective bisection bandwidth on the Deimos
//! reconstruction at 128..1024 cores, MinHop vs LASH vs DFSSSP.

use appsim::{netgauge_ebb, Allocation};
use baselines::{Lash, MinHop};
use dfsssp_core::{DfSssp, RoutingEngine};
use fabric::topo::realworld::RealSystem;

pub fn main() {
    let mut cli = repro::Cli::parse();
    let rec = cli.recorder();
    let scale = repro::scale();
    let partitions = repro::patterns();
    let net = RealSystem::Deimos.build(scale);
    let nt = net.num_terminals();
    println!(
        "Figure 12: Netgauge eBB on Deimos (scale={scale}, {nt} endpoints, {partitions} partitions, MiB/s)\n"
    );
    cli.note_topology(&net);
    let config = || {
        dfsssp_core::EngineConfig::new()
            .recorder(rec.clone())
            .compute(cli.compute())
    };
    let engines: Vec<Box<dyn RoutingEngine>> = vec![
        Box::new(MinHop::new()),
        Box::new(Lash::new().with_config(config())),
        Box::new(DfSssp::new().with_config(config())),
    ];
    let routed: Vec<(String, Option<fabric::Routes>)> = engines
        .iter()
        .map(|e| (e.name().to_string(), e.route(&net).ok()))
        .collect();
    let mut rows = Vec::new();
    for cores in [128usize, 256, 512, 1024] {
        let cores = cores.min(nt);
        let mut row = vec![cores.to_string()];
        for (_, routes) in &routed {
            row.push(match routes {
                None => "n/a".into(),
                Some(r) => {
                    let s = netgauge_ebb(&net, r, cores, Allocation::Spread, partitions, 946.0, 42)
                        .unwrap();
                    format!("{:.1}", s.mean)
                }
            });
        }
        rows.push(row);
        eprintln!("  done: {cores} cores");
        if cores == nt {
            break;
        }
    }
    let mut headers = vec!["cores"];
    let names: Vec<String> = routed.iter().map(|(n, _)| n.clone()).collect();
    headers.extend(names.iter().map(String::as_str));
    cli.table(&headers, &rows);
    cli.finish().expect("write metrics");
}
