//! Cross-validation of the static deadlock analysis (channel dependency
//! graphs) against the dynamic packet simulator: acyclic CDGs must never
//! wedge, and the known cyclic configurations must wedge under pressure.

mod common;

use common::{sweep, zoo_net};
use dfsssp::prelude::*;
use dfsssp::verify::deadlock_report;
use std::cell::Cell;

fn uniform_traffic(net: &Network, routes: &Routes, buffer_capacity: usize, seed: u64) -> Outcome {
    let w = Workload::uniform_random(net.num_terminals(), 12, seed);
    let config = SimConfig {
        buffer_capacity,
        max_cycles: 2_000_000,
        ..SimConfig::default()
    };
    simulate(net, routes, &w, &config)
}

/// Whether `engine` accepts its layer budget on `net` (`false`: it needs
/// more layers). What it then emits must be vet-clean, within the budget,
/// and drain uniform-random traffic through single-packet buffers.
fn drains(net: &Network, engine: &DfSssp, seed: u64) -> bool {
    let what = format!(
        "{} {:?} at {}",
        net.label(),
        engine.heuristic,
        engine.config.max_layers
    );
    let routes = match engine.route(net) {
        Ok(routes) => routes,
        Err(RouteError::NeedMoreLayers { .. }) => return false,
        Err(e) => panic!("{what}: {e}"),
    };
    let report = vet::check(net, &routes);
    assert!(report.clean(), "{what}: {:?}", report.diagnostics);
    assert!(
        routes.num_layers() as usize <= engine.config.max_layers,
        "{what}"
    );
    let out = uniform_traffic(net, &routes, 1, seed);
    assert!(out.completed(), "{what}: {out:?}");
    true
}

/// Any routing whose per-layer CDGs are acyclic must complete any finite
/// workload (the Dally & Seitz direction we rely on). The packet
/// simulator shares no code with the CDG machinery, so this is the
/// independent oracle for what Algorithm 2 emits: over the generator zoo
/// (degraded views included), under every cycle-break heuristic, at the
/// layer budget the uncompacted run needed and at one below it — where
/// compaction must fit the assignment or the engine must refuse — and on
/// four denser fabrics at budgets compaction is known to fit.
#[test]
fn acyclic_routings_never_wedge() {
    let (layered, compacted) = (Cell::new(0), Cell::new(0));
    sweep(0..96, |c| {
        let net = zoo_net(c);
        if !net.is_strongly_connected() {
            return;
        }
        let seed = c.draw("traffic", 0u64..1000);
        for heuristic in CycleBreakHeuristic::ALL {
            let raw = DfSssp {
                config: EngineConfig::new().max_layers(64),
                compact: false,
                ..DfSssp::with_heuristic(heuristic)
            };
            let needed = raw.route_with_stats(&net).unwrap().1.layers_used;
            let at = |max_layers| DfSssp {
                config: EngineConfig::new().max_layers(max_layers),
                ..DfSssp::with_heuristic(heuristic)
            };
            assert!(drains(&net, &at(needed), seed), "{}", net.label());
            layered.set(layered.get() + usize::from(needed > 1));
            let fit = needed > 1 && drains(&net, &at(needed - 1), seed);
            compacted.set(compacted.get() + usize::from(fit));
        }
    });
    let (layered, compacted) = (layered.get(), compacted.get());
    assert!(
        layered >= 48 && compacted > 0,
        "{layered} layered runs, {compacted} compacted"
    );
    let (heaviest, first) = (
        CycleBreakHeuristic::HeaviestEdge,
        CycleBreakHeuristic::FirstEdge,
    );
    for (net, heuristic, max_layers) in [
        (dfsssp::topo::torus(&[6, 6], 1), heaviest, 5),
        (dfsssp::topo::kautz(2, 3, 96, true), heaviest, 4),
        (dfsssp::topo::torus(&[5, 5], 1), first, 3),
        (dfsssp::topo::hypercube(4, 1), first, 2),
    ] {
        let engine = DfSssp {
            config: EngineConfig::new().max_layers(max_layers),
            ..DfSssp::with_heuristic(heuristic)
        };
        assert!(drains(&net, &engine, 1), "{}", net.label());
    }

    // The layered baselines, on the fabrics this test began with.
    let cases: Vec<Network> = vec![
        dfsssp::topo::ring(5, 1),
        dfsssp::topo::ring(8, 1),
        dfsssp::topo::torus(&[4, 4], 1),
        dfsssp::topo::torus(&[5, 5], 1),
        dfsssp::topo::kautz(2, 2, 12, true),
        dfsssp::topo::dragonfly(3, 1, 1),
    ];
    for net in cases {
        for engine in [
            Box::new(DfSssp::new()) as Box<dyn RoutingEngine>,
            Box::new(Lash::new()),
            Box::new(UpDown::new()),
        ] {
            let routes = engine.route(&net).unwrap();
            assert!(deadlock_report(&net, &routes).unwrap().is_deadlock_free());
            for (cap, seed) in [(1, 1u64), (2, 2), (4, 3)] {
                let out = uniform_traffic(&net, &routes, cap, seed);
                assert!(
                    out.completed(),
                    "{} on {} cap={cap}: {out:?}",
                    engine.name(),
                    net.label()
                );
            }
        }
    }
}

/// The cyclic configurations of the paper's argument wedge in practice.
#[test]
fn cyclic_routings_wedge_under_adversarial_load() {
    // (network, shift hops): saturating directional patterns.
    let cases = [
        (dfsssp::topo::ring(5, 1), 2usize),
        (dfsssp::topo::ring(8, 1), 3),
        (dfsssp::topo::ring(11, 1), 4),
    ];
    for (net, hops) in cases {
        let routes = Sssp::new().route(&net).unwrap();
        assert!(!deadlock_report(&net, &routes).unwrap().is_deadlock_free());
        let w = Workload::shift(net.num_terminals(), hops, 32);
        let config = SimConfig {
            buffer_capacity: 1,
            max_cycles: 1_000_000,
            ..SimConfig::default()
        };
        let out = simulate(&net, &routes, &w, &config);
        assert!(out.deadlocked(), "{}: {out:?}", net.label());
    }
}

/// A cyclic CDG is only a hazard, not a guarantee: light traffic on the
/// same rings sails through. (This is why the bug class is so insidious
/// on production clusters — and why the paper insists on the static
/// guarantee.)
#[test]
fn cyclic_routings_survive_light_traffic() {
    let net = dfsssp::topo::ring(5, 1);
    let routes = Sssp::new().route(&net).unwrap();
    let mut w = Workload::new(5);
    w.queues[0] = vec![2]; // one packet, no contention
    let out = simulate(&net, &routes, &w, &SimConfig::default());
    assert!(out.completed());
}

/// The balancing step must not reintroduce deadlock: simulate heavily on
/// balanced vs unbalanced DFSSSP.
#[test]
fn balanced_layers_still_safe_dynamically() {
    let net = dfsssp::topo::torus(&[4, 4], 1);
    for balance in [false, true] {
        let engine = DfSssp {
            config: EngineConfig::new().balance(balance),
            ..DfSssp::new()
        };
        let routes = engine.route(&net).unwrap();
        let w = Workload::uniform_random(net.num_terminals(), 25, 5);
        let out = simulate(&net, &routes, &w, &SimConfig::default());
        assert!(out.completed(), "balance={balance}: {out:?}");
    }
}
