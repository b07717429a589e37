//! Routing budgets end to end: an exhausted [`Budget`] must surface as
//! a typed `RouteError::BudgetExceeded` — promptly, on every engine
//! that accepts a budget — and never as a hang or a panic.

use dfsssp::core::Budget;
use dfsssp::fabric::format::routes_to_json;
use dfsssp::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A random topology big enough that routing takes real work.
fn big_random() -> Network {
    let spec = dfsssp::topo::RandomTopoSpec {
        switches: 60,
        radix: 24,
        terminals_per_switch: 4,
        interswitch_links: 240,
    };
    dfsssp::topo::random_topology(&spec, 7)
}

#[test]
fn elapsed_deadline_returns_budget_exceeded_promptly() {
    let net = big_random();
    let engine = DfSssp::new()
        .with_config(EngineConfig::new().budget(Budget::new().deadline(Duration::ZERO)));
    let start = Instant::now();
    let err = engine.route(&net).unwrap_err();
    assert!(
        matches!(
            err,
            RouteError::BudgetExceeded {
                resource: "deadline_ms",
                ..
            }
        ),
        "got {err}"
    );
    // A zero deadline must trip at the first checkpoint, not after the
    // full route: well under a second even on a loaded CI machine.
    assert!(start.elapsed() < Duration::from_secs(1));
}

#[test]
fn node_admission_is_checked_before_any_work() {
    let net = big_random();
    let engine = DfSssp::new().with_config(EngineConfig::new().budget(Budget::new().max_nodes(10)));
    match engine.route(&net).unwrap_err() {
        RouteError::BudgetExceeded {
            resource: "nodes",
            limit,
        } => assert_eq!(limit, 10),
        other => panic!("expected node admission failure, got {other}"),
    }
}

#[test]
fn cdg_edge_cap_trips_during_layer_assignment() {
    let net = dfsssp::topo::torus(&[4, 4], 1);
    let engine =
        DfSssp::new().with_config(EngineConfig::new().budget(Budget::new().max_cdg_edges(1)));
    let err = engine.route(&net).unwrap_err();
    assert!(
        matches!(
            err,
            RouteError::BudgetExceeded {
                resource: "cdg_edges",
                limit: 1,
            }
        ),
        "got {err}"
    );
}

#[test]
fn out_of_range_layer_budgets_are_typed_or_clamped() {
    // No layer budget panics: 0 places no path, and layer ids are `u8`,
    // so anything above 256 routes exactly as 256 does.
    let net = dfsssp::topo::ring(5, 1);
    let layers = |max_layers| EngineConfig::new().max_layers(max_layers);
    let engines: [fn(EngineConfig) -> Box<dyn RoutingEngine>; 4] = [
        |config| Box::new(DfSssp::new().with_config(config)),
        |config| {
            let online = DfSssp {
                mode: LayerAssignMode::Online,
                ..DfSssp::new()
            };
            Box::new(online.with_config(config))
        },
        |config| Box::new(DeadlockFree::new(Sssp::new()).with_config(config)),
        |config| Box::new(Lash::new().with_config(config)),
    ];
    let zero = RouteError::NeedMoreLayers {
        required: 1,
        allowed: 0,
    };
    for (i, engine) in engines.into_iter().enumerate() {
        let at = |max_layers| engine(layers(max_layers)).route(&net);
        assert_eq!(at(0).unwrap_err(), zero, "engine {i}");
        let (over, max) = (at(300).unwrap(), at(256).unwrap());
        assert_eq!(routes_to_json(&over), routes_to_json(&max), "engine {i}");
        dfsssp::verify::verify_deadlock_free(&net, &over).unwrap();
    }
}

#[test]
fn lash_honors_the_same_budget() {
    let net = big_random();
    let engine =
        Lash::new().with_config(EngineConfig::new().budget(Budget::new().deadline(Duration::ZERO)));
    let err = engine.route(&net).unwrap_err();
    assert!(
        matches!(err, RouteError::BudgetExceeded { .. }),
        "got {err}"
    );
}

#[test]
fn wrapped_engines_honor_the_budget() {
    let net = big_random();
    let engine = DeadlockFree::new(Sssp::new())
        .with_config(EngineConfig::new().budget(Budget::new().deadline(Duration::ZERO)));
    let err = engine.route(&net).unwrap_err();
    assert!(
        matches!(err, RouteError::BudgetExceeded { .. }),
        "got {err}"
    );
}

#[test]
fn budget_trips_are_counted() {
    let net = big_random();
    let collector = Arc::new(Collector::new());
    let engine = DfSssp::new().with_config(
        EngineConfig::new()
            .recorder(collector.clone())
            .budget(Budget::new().max_nodes(10)),
    );
    engine.route(&net).unwrap_err();
    engine.route(&net).unwrap_err();
    let snapshot = collector.snapshot();
    assert_eq!(snapshot.counters.get("budget_trips"), Some(&2));
}

#[test]
fn unlimited_budget_changes_nothing() {
    let net = dfsssp::topo::torus(&[4, 4], 1);
    let plain = DfSssp::new().route(&net).unwrap();
    let budgeted = DfSssp::new()
        .with_config(
            EngineConfig::new().budget(
                Budget::new()
                    .deadline(Duration::from_secs(3600))
                    .max_nodes(1 << 30)
                    .max_cdg_edges(1 << 30),
            ),
        )
        .route(&net)
        .unwrap();
    assert_eq!(plain.num_layers(), budgeted.num_layers());
    dfsssp::verify::verify_deadlock_free(&net, &budgeted).unwrap();
}
