//! Vet on degraded fabrics: the paper's motivating scenario is a machine
//! that lost cables or a switch. Re-routing the degraded network must
//! produce a vet-clean artifact; *stale* tables from before the failure
//! must be flagged, not silently accepted.

use dfsssp::prelude::*;
use fabric::degrade::{fail_random_cables, fail_random_switch};
use fabric::topo;
use vet::{LintCode, Witness};

#[test]
fn rerouting_after_cable_failures_is_vet_clean() {
    let net = topo::torus(&[4, 4], 2);
    let (degraded, removed) = fail_random_cables(&net, 4, 7);
    assert!(removed > 0, "a torus has removable cables");
    assert!(degraded.is_strongly_connected());
    let routes = DfSssp::new().route(&degraded).unwrap();
    let report = vet::check(&degraded, &routes);
    assert_eq!(
        report.num_errors(),
        0,
        "re-routed degraded fabric must be clean: {:?}",
        report.diagnostics
    );
    assert!(!report.has(LintCode::CdgCycle));
    assert_eq!(report.stats.pairs_routed, report.stats.pairs);
}

#[test]
fn rerouting_after_switch_failure_is_vet_clean() {
    // Terminals sit on every torus switch, so removal candidates need a
    // fabric with terminal-free switches: a fat tree's spine qualifies.
    let net = topo::kary_ntree(4, 2);
    let degraded = fail_random_switch(&net, 3).expect("a spine switch can fail");
    assert!(degraded.num_switches() < net.num_switches());
    assert!(degraded.is_strongly_connected());
    let routes = DfSssp::new().route(&degraded).unwrap();
    let report = vet::check(&degraded, &routes);
    assert_eq!(report.num_errors(), 0, "{:?}", report.diagnostics);
}

#[test]
fn stale_tables_after_cable_failure_are_flagged() {
    // Route the healthy fabric, then lose cables. Node and channel counts
    // still match (a lost cable's channels are tombstones at their ids),
    // so this is exactly the trap a structural shape check cannot catch —
    // the walk has to.
    let net = topo::torus(&[4, 4], 2);
    let routes = DfSssp::new().route(&net).unwrap();
    let (degraded, removed) = fail_random_cables(&net, 4, 7);
    assert!(removed > 0);
    assert_eq!(degraded.num_nodes(), net.num_nodes());
    let report = vet::check(&degraded, &routes);
    assert!(
        report.num_errors() > 0,
        "stale tables must not pass vet: {:?}",
        report.stats
    );
    assert!(
        report.has(LintCode::InvalidNextHop) || report.has(LintCode::ForwardingLoop),
        "entries over dead cables surface as V003 (or V001): {:?}",
        report.diagnostics
    );
}

#[test]
fn stale_tables_after_switch_failure_are_a_shape_mismatch() {
    let net = topo::kary_ntree(4, 2);
    let routes = DfSssp::new().route(&net).unwrap();
    let degraded = fail_random_switch(&net, 3).expect("a spine switch can fail");
    let report = vet::check(&degraded, &routes);
    assert_eq!(report.count(LintCode::InvalidNextHop), 1);
    assert!(report.num_errors() > 0);
    assert!(matches!(
        report.diagnostics[0].witness,
        Witness::Shape { .. }
    ));
}
