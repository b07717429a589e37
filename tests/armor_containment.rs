//! Panic containment end to end: a crashing routing engine must never
//! take the subnet-manager loop down. The loop catches the panic,
//! retries deterministically, trips the circuit breaker, and keeps the
//! fabric served from the deadlock-free fallback — with tables that
//! pass the static analyzer.

use dfsssp::prelude::*;
use dfsssp::subnet::{BreakerState, CircuitBreaker};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Silence the default panic hook once per process: every panic in this
/// binary's engines is *meant* to be caught.
fn quiet_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

/// An engine that always panics — the worst-behaved plugin possible.
struct PanickingEngine;

impl RoutingEngine for PanickingEngine {
    fn name(&self) -> &'static str {
        "Panicky"
    }
    fn route(&self, _net: &Network) -> Result<Routes, dfsssp::core::RouteError> {
        panic!("injected engine bug")
    }
    fn deadlock_free(&self) -> bool {
        true
    }
}

/// An engine that panics while its shared failure budget is positive,
/// then behaves. The `Rc<Cell<_>>` handle lets a test refill the budget
/// after the loop has taken ownership of the engine.
struct FlakyEngine {
    fails: Rc<Cell<usize>>,
    inner: DfSssp,
}

impl FlakyEngine {
    fn new(fails: usize) -> (Self, Rc<Cell<usize>>) {
        let handle = Rc::new(Cell::new(fails));
        (
            FlakyEngine {
                fails: handle.clone(),
                inner: DfSssp::new(),
            },
            handle,
        )
    }
}

impl RoutingEngine for FlakyEngine {
    fn name(&self) -> &'static str {
        "Flaky"
    }
    fn route(&self, net: &Network) -> Result<Routes, dfsssp::core::RouteError> {
        let left = self.fails.get();
        if left > 0 {
            self.fails.set(left - 1);
            panic!("flaky engine crash ({left} left)");
        }
        self.inner.route(net)
    }
    fn deadlock_free(&self) -> bool {
        true
    }
}

fn vet_clean(net: &Network, routes: &fabric::Routes) {
    let cfg = vet::Config {
        hw_vls: Some(8),
        deadlock_error: true,
        check_minimal: false,
        ..vet::Config::default()
    };
    let report = vet::analyze_with(net, routes, &cfg);
    assert!(
        report.clean(),
        "fallback tables must vet clean:\n{report:?}"
    );
}

#[test]
fn panicking_engine_is_contained_and_fallback_serves() {
    quiet_panics();
    let net = dfsssp::topo::kary_ntree(4, 2);
    let sm = SmLoop::bring_up(PanickingEngine, net.clone(), net.terminals()[0]).unwrap();

    // The loop survived: retries were spent, then the fallback served.
    let outcome = sm.outcome();
    assert!(outcome.rerouted);
    assert_eq!(
        outcome.retries,
        sm.max_retries(),
        "every configured retry is spent before falling back"
    );
    assert!(matches!(outcome.resolved_by(), Rung::Fallback { .. }));
    assert_eq!(sm.programmed().routes.engine(), "Up*/Down*");

    // 1 initial + 2 retries = 3 consecutive panics: breaker is open.
    assert_eq!(sm.breaker().state(), BreakerState::Open);

    // The full fabric still works, and the tables are deployable.
    let nt = net.num_terminals();
    assert_eq!(sm.light_sweep().unwrap(), nt * (nt - 1));
    vet_clean(sm.network(), &sm.programmed().routes);
}

#[test]
fn open_breaker_skips_the_primary_until_a_probe() {
    quiet_panics();
    let net = dfsssp::topo::kary_ntree(4, 2);
    let collector = Arc::new(Collector::new());
    let mut sm = SmLoop::bring_up(PanickingEngine, net.clone(), net.terminals()[0]).unwrap();
    sm.set_recorder(collector.clone());
    assert_eq!(sm.breaker().state(), BreakerState::Open);

    // Find a redundant switch-switch cable to flap.
    let cable = net
        .channels()
        .find(|(_, ch)| net.is_switch(ch.src) && net.is_switch(ch.dst))
        .map(|(id, _)| id)
        .unwrap();

    // Cooldown is 2 reroutes. First event: breaker refuses the primary,
    // the fallback serves directly, no retries are burned.
    let outcome = sm.handle(FabricEvent::CableDown(cable)).unwrap();
    assert_eq!(outcome.retries, 0, "open breaker skips the primary");
    assert!(matches!(outcome.resolved_by(), Rung::Fallback { .. }));

    // Second event exhausts the cooldown: the probe runs the primary,
    // which panics again, burns its retries, and re-opens the breaker.
    let outcome = sm.handle(FabricEvent::CableUp(cable)).unwrap();
    assert_eq!(outcome.retries, sm.max_retries());
    assert_eq!(sm.breaker().state(), BreakerState::Open);

    let counters = collector.snapshot().counters;
    assert_eq!(counters.get("breaker_probes"), Some(&1));
    assert!(counters.get("engine_panics").copied().unwrap_or(0) >= 3);
    assert!(counters.get("breaker_opens").copied().unwrap_or(0) >= 1);
    assert!(counters.get("engine_retries").copied().unwrap_or(0) >= 2);

    // Throughout all of it the fabric stayed served.
    let nt = sm.network().num_terminals();
    assert_eq!(sm.light_sweep().unwrap(), nt * (nt - 1));
    vet_clean(sm.network(), &sm.programmed().routes);
}

#[test]
fn transient_panic_recovers_without_fallback() {
    quiet_panics();
    let net = dfsssp::topo::kary_ntree(4, 2);
    let (engine, _) = FlakyEngine::new(1);
    let sm = SmLoop::bring_up(engine, net.clone(), net.terminals()[0]).unwrap();
    let outcome = sm.outcome();
    assert_eq!(outcome.retries, 1, "one crash, one retry, then success");
    assert_eq!(outcome.resolved_by(), Rung::Baseline);
    assert_eq!(sm.programmed().routes.engine(), "DFSSSP");
    assert_eq!(
        sm.breaker().state(),
        BreakerState::Closed,
        "a success closes the breaker"
    );
    vet_clean(sm.network(), &sm.programmed().routes);
}

#[test]
fn panic_with_armor_disarmed_is_a_typed_error_and_rolls_back() {
    quiet_panics();
    // Bring up healthily, then disarm the armor (no fallback, no
    // retries, a breaker that never trips) and make the engine crash
    // forever via its shared failure budget. The panic must come back
    // as SmError::EnginePanicked — a value, not an unwind — and the
    // failed event must roll back cleanly.
    let net = dfsssp::topo::kary_ntree(4, 2);
    let (engine, fails) = FlakyEngine::new(0);
    let mut sm = SmLoop::bring_up(engine, net.clone(), net.terminals()[0]).unwrap();
    sm.set_fallback(None);
    sm.set_max_retries(0);
    sm.set_breaker(CircuitBreaker::new(usize::MAX, 1));
    fails.set(usize::MAX);

    let cable = net
        .channels()
        .find(|(_, ch)| net.is_switch(ch.src) && net.is_switch(ch.dst))
        .map(|(id, _)| id)
        .unwrap();
    let err = sm.handle(FabricEvent::CableDown(cable)).unwrap_err();
    match err {
        dfsssp::subnet::SmError::EnginePanicked(msg) => {
            assert!(msg.contains("flaky engine crash"), "message: {msg}")
        }
        other => panic!("expected EnginePanicked, got {other}"),
    }

    // Rollback: the failed event left the serving state intact, and a
    // healed engine handles the same event afterwards.
    let nt = sm.network().num_terminals();
    assert_eq!(sm.light_sweep().unwrap(), nt * (nt - 1));
    fails.set(0);
    let outcome = sm.handle(FabricEvent::CableDown(cable)).unwrap();
    assert!(outcome.rerouted);
    assert_eq!(outcome.retries, 0);
}
