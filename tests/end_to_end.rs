//! Cross-crate integration: every engine against every topology family,
//! checking the paper's claimed properties of each combination.

use dfsssp::prelude::*;
use dfsssp::verify::{deadlock_report, verify_minimal};

fn topologies() -> Vec<Network> {
    vec![
        dfsssp::topo::ring(6, 2),
        dfsssp::topo::torus(&[4, 4], 1),
        dfsssp::topo::torus(&[5, 5], 1),
        dfsssp::topo::mesh(&[4, 3], 2),
        dfsssp::topo::hypercube(4, 1),
        dfsssp::topo::kary_ntree(4, 2),
        dfsssp::topo::xgft(2, &[6, 6], &[3, 3]),
        dfsssp::topo::kautz(2, 2, 24, true),
        dfsssp::topo::dragonfly(4, 2, 2),
        dfsssp::topo::random_topology(
            &dfsssp::topo::RandomTopoSpec {
                switches: 16,
                radix: 16,
                terminals_per_switch: 3,
                interswitch_links: 28,
            },
            99,
        ),
    ]
}

/// Engines that must route EVERY strongly connected topology.
fn universal_engines() -> Vec<Box<dyn RoutingEngine>> {
    vec![
        Box::new(MinHop::new()),
        Box::new(UpDown::new()),
        Box::new(Lash::new()),
        Box::new(Sssp::new()),
        Box::new(DfSssp::new()),
    ]
}

#[test]
fn universal_engines_connect_every_pair_everywhere() {
    for net in topologies() {
        for engine in universal_engines() {
            let routes = engine
                .route(&net)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", engine.name(), net.label()));
            let nt = net.num_terminals();
            assert_eq!(
                routes.validate_connectivity(&net).unwrap(),
                nt * (nt - 1),
                "{} on {}",
                engine.name(),
                net.label()
            );
        }
    }
}

/// Post-routing static analysis: every engine's artifact must survive the
/// vet walk (no loops, no missing entries, no invalid hops); engines that
/// claim deadlock freedom must additionally be V004-clean under the
/// default (strict) configuration.
#[test]
fn every_artifact_passes_vet() {
    // Cyclic CDGs and detours are engine design choices, not table bugs;
    // tolerate them for the non-deadlock-free, non-minimal baselines.
    let lenient = vet::Config {
        deadlock_error: false,
        check_minimal: false,
        ..vet::Config::default()
    };
    for net in topologies() {
        for engine in universal_engines() {
            let routes = engine.route(&net).unwrap();
            let report = vet::analyze_with(&net, &routes, &lenient);
            assert_eq!(
                report.num_errors(),
                0,
                "{} on {}: {:?}",
                engine.name(),
                net.label(),
                report.diagnostics
            );
            if engine.deadlock_free() {
                let strict = vet::check(&net, &routes);
                assert!(
                    strict.clean(),
                    "{} on {}: {:?}",
                    engine.name(),
                    net.label(),
                    strict.diagnostics
                );
            }
        }
    }
}

#[test]
fn deadlock_free_claims_hold() {
    for net in topologies() {
        for engine in universal_engines() {
            if !engine.deadlock_free() {
                continue;
            }
            let routes = engine.route(&net).unwrap();
            let report = deadlock_report(&net, &routes).unwrap();
            assert!(
                report.is_deadlock_free(),
                "{} claims deadlock-freedom but is cyclic on {} (layers {:?})",
                engine.name(),
                net.label(),
                report.cyclic_layers
            );
        }
    }
}

#[test]
fn minimal_engines_are_minimal() {
    for net in topologies() {
        for engine in [
            Box::new(MinHop::new()) as Box<dyn RoutingEngine>,
            Box::new(Sssp::new()),
            Box::new(DfSssp::new()),
            Box::new(Lash::new()),
        ] {
            let routes = engine.route(&net).unwrap();
            verify_minimal(&net, &routes).unwrap_or_else(|(s, d)| {
                panic!(
                    "{} non-minimal on {} for {s:?}->{d:?}",
                    engine.name(),
                    net.label()
                )
            });
        }
    }
}

#[test]
fn dfsssp_matches_sssp_paths_exactly() {
    // DFSSSP only adds layers; the forwarding tables are SSSP's.
    for net in topologies() {
        let sssp = Sssp::new().route(&net).unwrap();
        let dfsssp = DfSssp::new().route(&net).unwrap();
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    sssp.path_channels(&net, src, dst).unwrap(),
                    dfsssp.path_channels(&net, src, dst).unwrap(),
                    "paths differ on {}",
                    net.label()
                );
            }
        }
    }
}

#[test]
fn dfsssp_respects_hardware_layer_budget() {
    for net in topologies() {
        let routes = DfSssp::new().route(&net).unwrap();
        assert!(routes.num_layers() <= 8, "{}", net.label());
    }
}

#[test]
fn dor_agrees_with_dfsssp_on_mesh_connectivity() {
    let net = dfsssp::topo::mesh(&[4, 4], 1);
    let dor = Dor::new().route(&net).unwrap();
    let nt = net.num_terminals();
    assert_eq!(dor.validate_connectivity(&net).unwrap(), nt * (nt - 1));
    // DOR on a mesh is deadlock-free even though the engine cannot
    // promise it for tori.
    assert!(deadlock_report(&net, &dor).unwrap().is_deadlock_free());
}

#[test]
fn deadlock_free_wrapper_upgrades_any_engine() {
    // DOR on a torus is the canonical cyclic routing (Dally & Seitz);
    // wrapping it with the APP machinery fixes it. Same for MinHop on a
    // ring.
    let torus = dfsssp::topo::torus(&[4, 4], 1);
    let plain = Dor::new().route(&torus).unwrap();
    assert!(!deadlock_report(&torus, &plain).unwrap().is_deadlock_free());
    let wrapped = DeadlockFree::new(Dor::new()).route(&torus).unwrap();
    assert!(deadlock_report(&torus, &wrapped)
        .unwrap()
        .is_deadlock_free());
    // The wrapper only adds layers: forwarding is still pure DOR.
    for &src in torus.terminals() {
        for &dst in torus.terminals() {
            if src == dst {
                continue;
            }
            assert_eq!(
                plain.path_channels(&torus, src, dst).unwrap(),
                wrapped.path_channels(&torus, src, dst).unwrap()
            );
        }
    }

    let ring = dfsssp::topo::ring(7, 1);
    let wrapped = DeadlockFree::new(MinHop::new()).route(&ring).unwrap();
    assert!(deadlock_report(&ring, &wrapped).unwrap().is_deadlock_free());
    assert_eq!(wrapped.engine(), "DF-MinHop");
}

#[test]
fn fattree_engine_matches_tree_claims() {
    let net = dfsssp::topo::kary_ntree(4, 3);
    let routes = FatTree::new().route(&net).unwrap();
    verify_minimal(&net, &routes).unwrap();
    assert!(deadlock_report(&net, &routes).unwrap().is_deadlock_free());
}
