//! Quantitative routing-quality assertions: the paper's comparative
//! claims, encoded with tolerances as regression tests. These guard the
//! *shape* results of EXPERIMENTS.md against algorithmic regressions.

use dfsssp::prelude::*;
use orcs::effective_bisection_bandwidth;

fn ebb(net: &Network, routes: &fabric::Routes) -> f64 {
    // Quality numbers are only meaningful for artifacts that actually
    // walk: gate every measurement on the static analyzer first (cyclic
    // CDGs and detours are legitimate engine trade-offs here, broken
    // tables are not).
    let lenient = vet::Config {
        deadlock_error: false,
        check_minimal: false,
        ..vet::Config::default()
    };
    let report = vet::analyze_with(net, routes, &lenient);
    assert_eq!(
        report.num_errors(),
        0,
        "{} tables broken on {}: {:?}",
        routes.engine(),
        net.label(),
        report.diagnostics
    );
    let opts = EbbOptions {
        patterns: 150,
        ..Default::default()
    };
    effective_bisection_bandwidth(net, routes, &opts)
        .unwrap()
        .mean
}

/// Fig 5's core claim: on oversubscribed fat trees, DFSSSP clearly beats
/// MinHop and LASH.
#[test]
fn dfsssp_dominates_on_oversubscribed_xgft() {
    let net = dfsssp::topo::xgft(2, &[16, 16], &[8, 8]);
    let df = ebb(&net, &DfSssp::new().route(&net).unwrap());
    let mh = ebb(&net, &MinHop::new().route(&net).unwrap());
    let lash = ebb(&net, &Lash::new().route(&net).unwrap());
    assert!(df > 1.3 * mh, "DFSSSP {df:.3} vs MinHop {mh:.3}");
    assert!(df > 2.0 * lash, "DFSSSP {df:.3} vs LASH {lash:.3}");
}

/// Fig 4's Odin claim: on a single-crossbar-class fabric there is nothing
/// to balance, so no engine should beat another by much.
#[test]
fn engines_tie_on_odin_class_fabric() {
    let net = dfsssp::topo::realworld::RealSystem::Odin.build(0.5);
    let df = ebb(&net, &DfSssp::new().route(&net).unwrap());
    let mh = ebb(&net, &MinHop::new().route(&net).unwrap());
    let ratio = df / mh;
    assert!(
        (0.85..=1.25).contains(&ratio),
        "DFSSSP {df:.3} vs MinHop {mh:.3} differ too much on Odin"
    );
}

/// Fig 6's claim: on Kautz graphs all reasonable engines are close.
#[test]
fn engines_tie_on_kautz() {
    let net = dfsssp::topo::kautz(2, 2, 48, true);
    let df = ebb(&net, &DfSssp::new().route(&net).unwrap());
    let mh = ebb(&net, &MinHop::new().route(&net).unwrap());
    let lash = ebb(&net, &Lash::new().route(&net).unwrap());
    for (name, x) in [("MinHop", mh), ("LASH", lash)] {
        let ratio = df / x;
        assert!(
            (0.8..=1.3).contains(&ratio),
            "DFSSSP {df:.3} vs {name} {x:.3} too far apart on Kautz"
        );
    }
}

/// DFSSSP's layers must never *cost* bandwidth: eBB is computed on
/// physical channels, so DFSSSP == SSSP exactly (same paths).
#[test]
fn layers_are_free_for_bandwidth() {
    let net = dfsssp::topo::torus(&[4, 4], 2);
    let sssp = Sssp::new().route(&net).unwrap();
    let dfsssp = DfSssp::new().route(&net).unwrap();
    assert_eq!(ebb(&net, &sssp), ebb(&net, &dfsssp));
}

/// Up*/Down*'s root bottleneck: on a torus it must trail DFSSSP clearly
/// (the limitation the paper cites for path-restricting schemes).
#[test]
fn updown_bottlenecks_on_torus() {
    let net = dfsssp::topo::torus(&[5, 5], 1);
    let df = ebb(&net, &DfSssp::new().route(&net).unwrap());
    let ud = ebb(&net, &UpDown::new().route(&net).unwrap());
    assert!(df > ud, "DFSSSP {df:.3} must beat Up*/Down* {ud:.3}");
}

/// Degradation sensitivity: DFSSSP keeps more of its bandwidth than the
/// tree-specialized engine when cables fail (the §I motivation).
#[test]
fn dfsssp_degrades_gracefully() {
    let pristine = dfsssp::topo::kary_ntree(4, 3);
    let (degraded, removed) = dfsssp::fabric::degrade::fail_random_cables(&pristine, 16, 4);
    assert!(removed >= 8);
    let before = ebb(&pristine, &DfSssp::new().route(&pristine).unwrap());
    let after = ebb(&degraded, &DfSssp::new().route(&degraded).unwrap());
    assert!(
        after > 0.5 * before,
        "DFSSSP lost too much: {before:.3} -> {after:.3}"
    );
    // And it still guarantees deadlock freedom there — vet-clean under
    // the strict default configuration.
    let routes = DfSssp::new().route(&degraded).unwrap();
    dfsssp::verify::verify_deadlock_free(&degraded, &routes).unwrap();
    assert!(vet::check(&degraded, &routes).clean());
}
