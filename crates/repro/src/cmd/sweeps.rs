//! Figs 4-8: one row per fabric, one column per engine of the Fig 4/8
//! lineup. Figs 4-6 fill the cells with effective bisection bandwidth
//! (a failure label = the engine fails on the topology — the paper's
//! missing bars), Figs 7-8 with the routing wall clock.

use dfsssp_core::RoutingEngine;
use fabric::topo::realworld::RealSystem;
use fabric::Network;
use std::time::Instant;

/// The two leading cells of a row, and the fabric the engines route.
type Row = ([String; 2], Network);

/// The six real-world reconstructions at `scale`, built one at a time.
fn real_systems(scale: f64) -> ([&'static str; 2], impl Iterator<Item = Row>) {
    let rows = RealSystem::ALL.into_iter().map(move |sys| {
        let net = sys.build(scale);
        (
            [sys.name().to_string(), net.num_terminals().to_string()],
            net,
        )
    });
    (["system", "endpoints"], rows)
}

/// A Table I sweep, labelled by endpoint count.
fn by_size(series: Vec<(usize, Network)>) -> ([&'static str; 2], impl Iterator<Item = Row>) {
    let rows = series
        .into_iter()
        .map(|(n, net)| ([n.to_string(), net.label().to_string()], net));
    (["endpoints", "topology"], rows)
}

/// Print `title`, then one row per fabric of `series` with `cell`
/// evaluated under every engine of the lineup.
fn lineup_table(
    title: String,
    (lead, series): ([&'static str; 2], impl Iterator<Item = Row>),
    cell: impl Fn(&repro::Cli, &dyn RoutingEngine, &Network) -> String,
) {
    let cli = repro::Cli::parse();
    println!("{title}\n");
    let engines = cli.engines();
    let mut headers: Vec<&str> = lead.to_vec();
    headers.extend(engines.iter().map(|e| e.name()));
    let mut rows = Vec::new();
    for ([first, second], net) in series {
        let mut row = vec![first, second];
        row.extend(engines.iter().map(|e| cell(&cli, e.as_ref(), &net)));
        eprintln!("  done: {}", row[0]);
        rows.push(row);
    }
    cli.table(&headers, &rows);
    cli.finish().expect("write metrics");
}

fn ebb(cli: &repro::Cli, engine: &dyn RoutingEngine, net: &Network) -> String {
    repro::ebb_cell(engine, net, &*cli.recorder())
}

fn runtime(_: &repro::Cli, engine: &dyn RoutingEngine, net: &Network) -> String {
    let t = Instant::now();
    let res = engine.route(net);
    let dt = t.elapsed().as_secs_f64();
    match res {
        Ok(_) => format!("{dt:.3}"),
        Err(e) => repro::failure_label(&e),
    }
}

pub fn fig04() {
    let (scale, patterns) = (repro::scale(), repro::patterns());
    let title =
        format!("Figure 4: eBB on real-world reconstructions (scale={scale}, {patterns} patterns)");
    lineup_table(title, real_systems(scale), ebb);
}

pub fn fig05() {
    let (patterns, cap) = (repro::patterns(), repro::max_endpoints());
    let title = format!("Figure 5: eBB on XGFTs ({patterns} patterns, cap {cap})");
    lineup_table(title, by_size(repro::xgft_series()), ebb);
}

pub fn fig06() {
    let (patterns, cap) = (repro::patterns(), repro::max_endpoints());
    let title = format!("Figure 6: eBB on Kautz graphs ({patterns} patterns, cap {cap})");
    lineup_table(title, by_size(repro::kautz_series()), ebb);
}

pub fn fig07() {
    let title = "Figure 7: routing runtime on k-ary n-trees (seconds)".to_string();
    lineup_table(title, by_size(repro::tree_series()), runtime);
}

pub fn fig08() {
    let scale = repro::scale();
    let title = format!("Figure 8: routing runtime on real systems (seconds, scale={scale})");
    lineup_table(title, real_systems(scale), runtime);
}
