//! `repro route_cli` — an `opensm -R <engine>`-flavored command line: load a
//! topology file, run a routing engine, verify, report, and optionally
//! export tables and a metrics manifest.
//!
//! ```text
//! repro route_cli --topo fabric.topo [--format text|ibnetdiscover|json] | --gen <spec>
//!                 [--engine dfsssp]     minhop|updown|dor|lash|fattree|sssp|dfsssp
//!                 [--max-vls 8] [--heuristic weakest|heaviest|first|random:<seed>]
//!                 [--no-balance] [--no-compact] [--ebb <patterns>]
//!                 [--out-routes routes.json] [--metrics metrics.json]
//! ```

use dfsssp_core::quality::route_quality;
use dfsssp_core::verify::deadlock_report;
use dfsssp_core::{CycleBreakHeuristic, DfSssp, EngineConfig};
use fabric::{format, TopologyStats};
use std::process::ExitCode;

const EXTRA_USAGE: &str = " [--max-vls N] \
    [--heuristic weakest|heaviest|first|random:<seed>] [--no-balance] \
    [--no-compact] [--ebb <patterns>] [--quality] [--out-routes <file>]";

pub fn main() -> Result<ExitCode, String> {
    let mut max_vls = 8usize;
    let mut heuristic = CycleBreakHeuristic::WeakestEdge;
    let mut balance = true;
    let mut compact = true;
    let mut ebb: Option<usize> = None;
    let mut quality = false;
    let mut out_routes: Option<String> = None;
    let mut bad = false;
    let mut cli = repro::Cli::parse_with(EXTRA_USAGE, |flag, val| match flag {
        "--max-vls" => {
            max_vls = val().parse().unwrap_or_else(|_| {
                bad = true;
                0
            });
            true
        }
        "--heuristic" => {
            let v = val();
            heuristic = match v.as_str() {
                "weakest" => CycleBreakHeuristic::WeakestEdge,
                "heaviest" => CycleBreakHeuristic::HeaviestEdge,
                "first" => CycleBreakHeuristic::FirstEdge,
                other => match other.strip_prefix("random:").and_then(|s| s.parse().ok()) {
                    Some(seed) => CycleBreakHeuristic::RandomEdge(seed),
                    None => {
                        bad = true;
                        CycleBreakHeuristic::WeakestEdge
                    }
                },
            };
            true
        }
        "--no-balance" => {
            balance = false;
            true
        }
        "--no-compact" => {
            compact = false;
            true
        }
        "--ebb" => {
            ebb = val().parse().ok().or_else(|| {
                bad = true;
                None
            });
            true
        }
        "--quality" => {
            quality = true;
            true
        }
        "--out-routes" => {
            out_routes = Some(val());
            true
        }
        _ => false,
    });
    if bad {
        return Err("route_cli: bad or missing arguments (see --help)".into());
    }

    let net = cli.network().map_err(|e| format!("error: {e}"))?;
    println!("fabric: {}", TopologyStats::of(&net));

    let config = EngineConfig::new().max_layers(max_vls).balance(balance);
    let tune = |d| DfSssp {
        heuristic,
        compact,
        ..d
    };
    let engine = cli
        .engine_with(config, tune)
        .map_err(|e| format!("error: {e}"))?;
    let t = std::time::Instant::now();
    let routes = engine
        .route(&net)
        .map_err(|e| format!("routing failed: {e}"))?;
    println!(
        "routed by {} in {:.3}s: {} virtual layer(s)",
        routes.engine(),
        t.elapsed().as_secs_f64(),
        routes.num_layers()
    );

    let report =
        deadlock_report(&net, &routes).map_err(|e| format!("deadlock check failed to run: {e}"))?;
    if report.is_deadlock_free() {
        println!("deadlock check: PASS (all layers acyclic)");
    } else {
        println!(
            "deadlock check: HAZARD — cyclic dependency layers {:?}",
            report.cyclic_layers
        );
    }
    let nt = net.num_terminals();
    let pairs = routes
        .validate_connectivity(&net)
        .map_err(|e| format!("connectivity check failed: {e}"))?;
    println!("connectivity: {pairs}/{} ordered pairs", nt * (nt - 1));

    if quality {
        match route_quality(&net, &routes) {
            Ok(q) => println!("quality: {q}"),
            Err(e) => eprintln!("quality report failed: {e}"),
        }
    }

    if let Some(patterns) = ebb {
        let opts = orcs::EbbOptions {
            patterns,
            seed: cli.seed.unwrap_or(orcs::EbbOptions::default().seed),
            ..Default::default()
        };
        let rec = cli.recorder();
        match orcs::effective_bisection_bandwidth_recorded(&net, &routes, &opts, &*rec) {
            Ok(s) => println!("effective bisection bandwidth: {s}"),
            Err(e) => eprintln!("eBB simulation failed: {e}"),
        }
    }

    if let Some(path) = &out_routes {
        std::fs::write(path, format::routes_to_json(&routes))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("routes written to {path}");
    }
    cli.finish()?;
    Ok(ExitCode::SUCCESS)
}
