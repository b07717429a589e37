//! Update windows × the V007 existence lint.
//!
//! `plan_update` stages drain-and-swap transitions using
//! [`vet::union_cycles`] / [`vet::dependency_edges`]; V007 answers a
//! different question — whether the *fabric* still admits any single-layer
//! deadlock-free routing at all. These tests pin their interaction down:
//! on a certified fabric every stage of a staged plan is clean, and on a
//! refuted fabric the update machinery keeps working (layering is the one
//! escape hatch the theorem leaves open) while single-layer artifacts are
//! condemned outright.

mod common;

use dfsssp::prelude::*;
use fabric::degrade::fail_random_cables;
use fabric::topo;
use std::cell::Cell;
use subnet::{plan_update, remap_routes};
use vet::{Existence, ExistenceWitness, LintCode, Severity};

/// The publish gate's report with V007 handed in, as the route server
/// runs it, against the report that decides V007 itself — through
/// `vet::check` and through `vet::analyze_with` under the default
/// `Config` — byte for byte. Returns the shared report's V007 findings.
fn assert_the_verdict_shares(net: &Network, routes: &Routes, what: &str) -> Vec<Severity> {
    let shared = vet::check_with_verdict(net, routes, &vet::existence(net));
    assert_eq!(
        shared.to_json(),
        vet::check(net, routes).to_json(),
        "{what}"
    );
    assert_eq!(
        shared.to_json(),
        vet::analyze_with(net, routes, &vet::Config::default()).to_json(),
        "{what}"
    );
    let v007 = shared.diagnostics_for(LintCode::DeadlockExistence);
    v007.map(|d| d.severity).collect()
}

#[test]
fn a_supplied_verdict_reports_what_a_decided_one_does() {
    common::sweep(0..48, |c| {
        let net = common::zoo_net(c);
        // Up*/Down* detours: the report carries V006 findings too.
        let engines: [&dyn RoutingEngine; 3] = [&Sssp::new(), &DfSssp::new(), &UpDown::new()];
        let engine = engines[c.draw("engine", 0..3)];
        if let Ok(routes) = engine.route(&net) {
            assert_the_verdict_shares(&net, &routes, "zoo");
        }
    });

    // Refuted views, each with a single-layer and a multi-layer artifact:
    // the severity of a refutation is the artifact's, decided by the gate.
    let ring = unidirectional_ring(4);
    let flat = Sssp::new().route(&ring).unwrap();
    let layered = DfSssp::new().route(&ring).unwrap();
    assert_eq!(
        assert_the_verdict_shares(&ring, &flat, "forced cycle, one layer"),
        [Severity::Error]
    );
    assert_eq!(
        assert_the_verdict_shares(&ring, &layered, "forced cycle, layered"),
        [Severity::Warning]
    );
    // t0 - s0 - s1 - t1 with the s1 -> s0 direction dead: a one-way pair
    // is an error at any layer count.
    let mut b = NetworkBuilder::new();
    let (s0, s1) = (b.add_switch("s0", 4), b.add_switch("s1", 4));
    let (t0, t1) = (b.add_terminal("t0"), b.add_terminal("t1"));
    b.add_channel(s0, s1).unwrap();
    b.link(t0, s0).unwrap();
    b.link(t1, s1).unwrap();
    let one_way = b.build();
    let mut routes = Routes::new(&one_way, "hand-built");
    for (at, to) in [(t0, s0), (s0, s1), (s1, t1)] {
        routes.set_next(at, 1, one_way.channel_between(at, to).unwrap());
    }
    let what = "one-way pair, one layer";
    assert_eq!(
        assert_the_verdict_shares(&one_way, &routes, what),
        [Severity::Error]
    );
    routes.set_layer(0, 1, 1);
    let what = "one-way pair, two layers";
    assert_eq!(
        assert_the_verdict_shares(&one_way, &routes, what),
        [Severity::Error]
    );

    // Undecided: the directed Kautz graph.
    let kautz = topo::kautz(2, 3, 24, false);
    assert!(matches!(
        vet::existence(&kautz),
        Existence::Undecided { .. }
    ));
    let routes = DfSssp::new()
        .route(&kautz)
        .unwrap_or_else(|_| Routes::new(&kautz, "unrouted"));
    assert_eq!(
        assert_the_verdict_shares(&kautz, &routes, "undecided"),
        [Severity::Warning]
    );
}

/// Switches cabled clockwise-only: strongly connected, but every
/// switch-to-switch pair has exactly one path and the forced dependencies
/// close the ring — V007 refutes single-layer existence.
fn unidirectional_ring(n: usize) -> Network {
    let mut b = NetworkBuilder::new();
    let s: Vec<_> = (0..n).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
    let t: Vec<_> = (0..n).map(|i| b.add_terminal(format!("t{i}"))).collect();
    for i in 0..n {
        b.add_channel(s[i], s[(i + 1) % n]).unwrap();
        b.link(t[i], s[i]).unwrap();
    }
    b.build()
}

#[test]
fn staged_update_on_a_certified_fabric_is_clean_at_every_stage() {
    let net = topo::torus(&[4, 4], 1);
    let old = DfSssp::new().route(&net).unwrap();

    // Lose some cables, re-express the stale tables against the survivor
    // fabric, and re-route. The degraded fabric still certifies.
    let (degraded, removed) = fail_random_cables(&net, 4, 11);
    assert!(removed > 0);
    let stale = remap_routes(&net, &old, &degraded);
    let fresh = DfSssp::new().route(&degraded).unwrap();
    assert!(
        matches!(vet::existence(&degraded), Existence::Exists { .. }),
        "losing {removed} cables must not refute existence on a torus"
    );

    let plan = plan_update(&degraded, Some(&stale), &fresh, 8);
    assert!(
        !plan.stages.is_empty(),
        "stale tables must need reprogramming"
    );
    assert!(
        plan.all_vetted(),
        "every drain-and-swap stage must pass the analyzer: {}",
        plan.describe()
    );

    // If the planner staged the window, the hazards it cites must be real:
    // each union cycle's consecutive edges exist in the merged per-layer
    // dependency edges of the two endpoint artifacts.
    if !plan.direct {
        let cycles = vet::union_cycles(&degraded, &[&stale, &fresh]);
        assert!(!cycles.is_empty(), "staged plans exist only under hazards");
        assert_eq!(
            plan.hazard_layers,
            cycles.iter().map(|(l, _)| *l).collect::<Vec<_>>()
        );
        let a = vet::dependency_edges(&degraded, &stale);
        let b = vet::dependency_edges(&degraded, &fresh);
        for (layer, cycle) in &cycles {
            let l = *layer as usize;
            for w in cycle.windows(2) {
                let edge = (w[0].0, w[1].0);
                assert!(
                    a.get(l).is_some_and(|s| s.contains(&edge))
                        || b.get(l).is_some_and(|s| s.contains(&edge)),
                    "cited hazard edge {edge:?} is in neither artifact"
                );
            }
        }
    }

    // Both endpoints of the window carry the certificate in their report.
    for artifact in [&stale, &fresh] {
        let report = vet::check(&degraded, artifact);
        assert!(!report.has(LintCode::DeadlockExistence));
        assert!(
            report
                .stats
                .existence
                .as_deref()
                .is_some_and(|p| p.starts_with("certified")),
            "expected a certificate, got {:?}",
            report.stats.existence
        );
    }
}

#[test]
fn refuted_fabric_condemns_single_layer_but_not_layered_artifacts() {
    let net = unidirectional_ring(4);
    assert!(matches!(vet::existence(&net), Existence::NotExists(_)));

    // A single-layer routing on this fabric is impossible to make
    // deadlock-free — V007 is an *error* for it.
    let flat = Sssp::new().route(&net).unwrap();
    let report = vet::check(&net, &flat);
    let diag = report
        .diagnostics_for(LintCode::DeadlockExistence)
        .next()
        .expect("V007 must fire on a refuted fabric");
    assert_eq!(diag.severity, Severity::Error);

    // A layered routing took the only escape hatch: V007 downgrades to a
    // warning citing that the layers are provably necessary.
    let layered = DfSssp::new().route(&net).unwrap();
    assert!(layered.num_layers() > 1, "the ring needs layers");
    let report = vet::check(&net, &layered);
    let diag = report
        .diagnostics_for(LintCode::DeadlockExistence)
        .next()
        .expect("V007 still reports the refutation");
    assert_eq!(diag.severity, Severity::Warning);
    assert!(
        diag.message.contains("provably necessary"),
        "{}",
        diag.message
    );
    assert_eq!(report.num_errors(), 0, "{:?}", report.diagnostics);

    // And the update machinery keeps working above the refuted fabric:
    // bring-up (no old tables) plans direct and fully vetted.
    let plan = plan_update(&net, None, &layered, 8);
    assert!(plan.direct && plan.all_vetted());
}

/// V007's verdict census over the generator zoo: how many of 400 seeded
/// `zoo_net` fabrics (pristine and degraded alike) V007 certifies,
/// refutes by a one-way pair, refutes by a forced cycle, or leaves
/// undecided. A change to the decision procedure's cost must leave every
/// count where it is; EXPERIMENTS.md quotes the `Undecided` rate.
#[test]
fn the_verdict_census_over_the_zoo_is_pinned() {
    let counts: [Cell<usize>; 4] = Default::default();
    common::sweep(0..400, |c| {
        let kind = match vet::existence(&common::zoo_net(c)) {
            Existence::Exists { .. } => 0,
            Existence::NotExists(ExistenceWitness::OneWayPair { .. }) => 1,
            Existence::NotExists(ExistenceWitness::ForcedCycle { .. }) => 2,
            Existence::Undecided { .. } => 3,
        };
        counts[kind].set(counts[kind].get() + 1);
    });
    let [exists, one_way, forced_cycle, undecided] = counts.map(Cell::into_inner);
    assert_eq!(
        (exists, one_way, forced_cycle, undecided),
        (341, 0, 0, 59),
        "Exists / OneWayPair / ForcedCycle / Undecided"
    );
}
