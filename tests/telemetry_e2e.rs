//! End-to-end checks of the telemetry layer: the zero-cost-when-disabled
//! property, phase coverage of a recorded DFSSSP run and manifest schema
//! stability.

use dfsssp::prelude::*;
use dfsssp::telemetry::{self, hists, phases};
use std::sync::Arc;

/// Routing with the no-op recorder and with a collector attached must
/// produce byte-identical tables: the recorder only observes.
#[test]
fn recording_does_not_change_routes() {
    let net = dfsssp::topo::torus(&[4, 4], 1);
    let plain = DfSssp::new().route(&net).unwrap();
    let collector = Arc::new(Collector::new());
    let config = EngineConfig::new().recorder(collector.clone());
    let recorded = Recorded::new(DfSssp::new().with_config(config), collector.clone())
        .route(&net)
        .unwrap();
    assert_eq!(plain, recorded);
    assert!(!collector.snapshot().phases.is_empty());
}

/// A recorded DFSSSP run reports all five algorithm phases plus the
/// wrapper's `route_total`, and the standard route-quality histograms.
#[test]
fn dfsssp_run_covers_all_phases_and_histograms() {
    let net = dfsssp::topo::torus(&[4, 4], 1);
    let collector = Arc::new(Collector::new());
    let config = EngineConfig::new().recorder(collector.clone());
    let engine = Recorded::new(DfSssp::new().with_config(config), collector.clone());
    engine.route(&net).unwrap();
    let snap = collector.snapshot();
    for phase in [
        phases::SSSP,
        phases::CDG_BUILD,
        phases::CYCLE_SEARCH,
        phases::LAYER_ASSIGN,
        phases::BALANCE,
        phases::ROUTE_TOTAL,
    ] {
        assert!(snap.phases.contains_key(phase), "missing phase {phase}");
    }
    for hist in [hists::PATH_LENGTH, hists::VL_CHANNELS, hists::EDGE_LOAD] {
        assert!(snap.histograms.contains_key(hist), "missing hist {hist}");
    }
    let nt = net.num_terminals() as u64;
    assert_eq!(snap.counters["paths_routed"], nt * (nt - 1));
    assert!(snap.counters["vls_used"] >= 2, "torus needs >= 2 VLs");
    // Every ordered pair contributed one path-length observation.
    assert_eq!(snap.histograms[hists::PATH_LENGTH].count, nt * (nt - 1));
}

/// The collector aggregates across engines: routing twice doubles the
/// pair counters.
#[test]
fn collector_aggregates_across_runs() {
    let net = dfsssp::topo::kary_ntree(2, 2);
    let collector = Arc::new(Collector::new());
    let engine = Recorded::new(Sssp::new(), collector.clone());
    engine.route(&net).unwrap();
    let once = collector.snapshot().counters["paths_routed"];
    engine.route(&net).unwrap();
    assert_eq!(collector.snapshot().counters["paths_routed"], 2 * once);
    assert_eq!(collector.snapshot().phases[phases::ROUTE_TOTAL].count, 2);
}

/// A manifest built from a real run parses as JSON and carries every
/// phase, counter and histogram of the snapshot it was built from.
#[test]
fn manifest_round_trips_from_a_real_run() {
    let net = dfsssp::topo::ring(6, 1);
    let collector = Arc::new(Collector::new());
    let config = EngineConfig::new().recorder(collector.clone());
    Recorded::new(DfSssp::new().with_config(config), collector.clone())
        .route(&net)
        .unwrap();
    let snap = collector.snapshot();
    let manifest = RunManifest::new("telemetry_e2e")
        .engine("DFSSSP")
        .seed(42)
        .metrics(snap.clone());
    let v = telemetry::json::parse(&manifest.to_json()).unwrap();
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |v, key| v.get(key))
            .unwrap_or_else(|| panic!("missing {path:?}"))
    };
    assert_eq!(at(&["schema"]).as_str(), Some(telemetry::SCHEMA));
    assert_eq!(at(&["engine"]).as_str(), Some("DFSSSP"));
    assert_eq!(at(&["seed"]).as_u64(), Some(42));
    assert!(!snap.phases.is_empty() && !snap.counters.is_empty() && !snap.histograms.is_empty());
    let metrics = |key| at(&["metrics", key]).as_obj().map(|m| m.len());
    assert_eq!(metrics("phases"), Some(snap.phases.len()));
    assert_eq!(metrics("counters"), Some(snap.counters.len()));
    assert_eq!(metrics("histograms"), Some(snap.histograms.len()));
    for (name, p) in &snap.phases {
        let phase = at(&["metrics", "phases", name]);
        assert_eq!(
            phase.get("nanos").and_then(|n| n.as_u64()),
            Some(p.nanos),
            "{name}"
        );
        assert_eq!(
            phase.get("count").and_then(|n| n.as_u64()),
            Some(p.count),
            "{name}"
        );
    }
    for (name, &n) in &snap.counters {
        assert_eq!(
            at(&["metrics", "counters", name]).as_u64(),
            Some(n),
            "{name}"
        );
    }
    for (name, h) in &snap.histograms {
        let count = at(&["metrics", "histograms", name, "count"]).as_u64();
        assert_eq!(count, Some(h.count), "{name}");
    }
}

/// The recorded eBB sweep reports the same summary as the plain one and
/// fills the pattern histogram.
#[test]
fn recorded_ebb_matches_plain_ebb() {
    let net = dfsssp::topo::kary_ntree(4, 2);
    let routes = DfSssp::new().route(&net).unwrap();
    let opts = EbbOptions {
        patterns: 50,
        ..Default::default()
    };
    let plain = effective_bisection_bandwidth(&net, &routes, &opts).unwrap();
    let collector = Arc::new(Collector::new());
    let recorded = dfsssp::orcs::effective_bisection_bandwidth_recorded(
        &net,
        &routes,
        &opts,
        collector.as_ref(),
    )
    .unwrap();
    assert_eq!(plain.mean, recorded.mean);
    let snap = collector.snapshot();
    assert_eq!(snap.counters["patterns_simulated"], 50);
    assert_eq!(snap.histograms["pattern_bw_milli"].count, 50);
    assert_eq!(snap.phases[phases::EBB].count, 1);
}

/// The subnet-manager loop reports reroute latency and rung counters.
#[test]
fn sm_loop_reroutes_report_telemetry() {
    let net = dfsssp::topo::kary_ntree(2, 2);
    let mut sm = SmLoop::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).unwrap();
    let collector = Arc::new(Collector::new());
    sm.set_recorder(collector.clone());
    // Killing a leaf switch strands its terminals: the quarantine rung
    // fires and the reroute is measured.
    let leaf = *net
        .switches()
        .iter()
        .find(|&&s| net.node(s).level == Some(0))
        .unwrap();
    sm.handle(FabricEvent::SwitchDown(leaf)).unwrap();
    let snap = collector.snapshot();
    assert_eq!(snap.counters["reroutes"], 1);
    assert_eq!(snap.counters["rung_quarantine"], 1);
    assert_eq!(snap.phases[phases::REROUTE].count, 1);
    assert_eq!(snap.histograms["reroute_us"].count, 1);
}
