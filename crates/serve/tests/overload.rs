//! The overload stress test (ISSUE 7): open-loop-style load far past
//! one worker's capacity, with a chaos writer publishing epochs mid-run.
//!
//! The contract under test is the robustness acceptance bar:
//!
//! * every response is either a **valid epoch-consistent answer**
//!   (re-derived exactly from the snapshot of the epoch it claims) or a
//!   **typed shed** (`Overloaded { retry_after > 0 }` or a
//!   `BudgetExceeded` deadline trip) — never a malformed answer, never
//!   an untyped failure;
//! * the protected class keeps flowing and meets a latency objective
//!   while best-effort traffic is thinned;
//! * the shed rate never reaches 100% (the controller's floor), and a
//!   mid-run chaos epoch publishes normally.

use dfsssp_core::{DfSssp, RouteError};
use fabric::rng::splitmix64;
use fabric::{topo, NodeId};
use serve::sync::Arc;
use serve::{
    Admission, ClassPolicy, PathAnswer, PathQuery, QueryClass, QueryOpts, RouteServer, ServeError,
    ShedConfig, SloPolicy, Snapshot, Ticket,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use subnet::{FabricEvent, Rung};
use telemetry::Collector;

/// What one client observed, tallied post-hoc.
#[derive(Default)]
struct Tally {
    answered: u64,
    overloaded: u64,
    expired: u64,
    /// Sampled Ok answers for epoch-consistency verification.
    samples: Vec<(NodeId, NodeId, PathAnswer)>,
}

fn redeem(ticket: Result<Ticket, ServeError>, src: NodeId, dst: NodeId, tally: &mut Tally) {
    let outcome = match ticket {
        Ok(t) => t.wait(),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(a) => {
            tally.answered += 1;
            // Sample for post-run re-derivation; keeping every answer
            // would dominate the test's memory.
            if tally.answered.is_multiple_of(8) {
                tally.samples.push((src, dst, a));
            }
        }
        Err(ServeError::Overloaded { retry_after }) => {
            assert!(retry_after > Duration::ZERO, "untyped backoff hint");
            tally.overloaded += 1;
        }
        Err(ServeError::Budget(RouteError::BudgetExceeded { resource, .. })) => {
            assert_eq!(resource, "deadline_ms", "only deadline trips expected");
            tally.expired += 1;
        }
        Err(other) => panic!("response was neither an answer nor a typed shed: {other}"),
    }
}

#[test]
fn four_x_overload_sheds_typed_and_answers_stay_epoch_consistent() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 20_000;
    const BURST: usize = 64;

    let net = topo::kary_ntree(4, 2);
    let collector = std::sync::Arc::new(Collector::new());
    let mut server = RouteServer::bring_up_recorded(
        DfSssp::new(),
        net.clone(),
        net.terminals()[0],
        collector.clone(),
    )
    .expect("bring-up");
    let safe = fabric::degrade::redundant_cables(&net);
    assert!(!safe.is_empty(), "test topology must have redundant cables");

    // One worker, small queues, a tight shed servo: the point is to be
    // overdriven — four burst-submitting clients offer far more than
    // 4x what a single worker drains from 32-deep queues.
    let engine = server.query_engine(QueryOpts {
        workers: 1,
        batch: 16,
        admission: Admission {
            interactive: ClassPolicy {
                weight: 8,
                max_queued: 64,
                ..ClassPolicy::default()
            },
            bulk: ClassPolicy {
                budget: dfsssp_core::Budget::new().deadline(Duration::from_millis(50)),
                weight: 1,
                max_queued: 32,
                sheddable: true,
            },
        },
        shed: ShedConfig {
            target_delay: Duration::from_millis(1),
            tick: Duration::from_millis(5),
            floor_permille: 50,
            step_permille: 25,
        },
        recorder: collector.clone(),
    });
    let shed = engine.shed_controller();
    let store = server.store();
    let history: Mutex<Vec<Arc<Snapshot>>> = Mutex::new(vec![store.read()]);
    let live_clients = AtomicUsize::new(CLIENTS);
    let chaos_epochs = AtomicU64::new(0);
    let terminals = net.terminals().to_vec();
    let tallies: Mutex<Vec<Tally>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (engine, terminals) = (&engine, &terminals);
            let (tallies, live_clients) = (&tallies, &live_clients);
            s.spawn(move || {
                let mut rng = 0xC0FF_EE00 ^ ((c as u64) << 17);
                let mut tally = Tally::default();
                let mut inflight: Vec<(Result<Ticket, ServeError>, NodeId, NodeId)> =
                    Vec::with_capacity(BURST);
                for _ in 0..PER_CLIENT {
                    rng = splitmix64(rng);
                    let src = terminals[(rng % terminals.len() as u64) as usize];
                    rng = splitmix64(rng);
                    let dst = terminals[(rng % terminals.len() as u64) as usize];
                    if src == dst {
                        continue;
                    }
                    rng = splitmix64(rng);
                    let class = if rng % 100 < 75 {
                        QueryClass::Bulk
                    } else {
                        QueryClass::Interactive
                    };
                    let q = PathQuery { src, dst, class };
                    // Open-loop-style: keep a burst in flight instead of
                    // waiting per query, so queues actually fill.
                    inflight.push((engine.submit(q), src, dst));
                    if inflight.len() >= BURST {
                        for (t, src, dst) in inflight.drain(..) {
                            redeem(t, src, dst, &mut tally);
                        }
                    }
                }
                for (t, src, dst) in inflight.drain(..) {
                    redeem(t, src, dst, &mut tally);
                }
                tallies.lock().unwrap().push(tally);
                live_clients.fetch_sub(1, Ordering::Relaxed);
            });
        }
        // The chaos writer: publish down/up epochs while the clients
        // hammer the engine; every publish is captured for post-run
        // verification.
        let mut rng = 7u64;
        while live_clients.load(Ordering::Relaxed) > 0 {
            rng = splitmix64(rng);
            let cable = safe[(rng % safe.len() as u64) as usize];
            for event in [FabricEvent::CableDown(cable), FabricEvent::CableUp(cable)] {
                let served = server.handle(event).expect("chaos event");
                if served.epoch.is_some() {
                    chaos_epochs.fetch_add(1, Ordering::Relaxed);
                    history.lock().unwrap().push(store.read());
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    let history = history.into_inner().unwrap();
    let mut total = Tally::default();
    for t in tallies.into_inner().unwrap() {
        total.answered += t.answered;
        total.overloaded += t.overloaded;
        total.expired += t.expired;
        total.samples.extend(t.samples);
    }

    // The load/availability bar: work flowed, load was shed, and the
    // shed rate never reached 100%.
    assert!(
        total.answered > 0,
        "overload must not collapse availability"
    );
    assert!(
        total.overloaded > 0,
        "4x load against 32-deep queues must shed something"
    );
    assert!(
        shed.min_admitted_permille() > 0,
        "the shed floor must hold: admitted rate hit zero"
    );
    assert!(
        chaos_epochs.load(Ordering::Relaxed) >= 2,
        "chaos epochs must publish during overload"
    );

    // Consistency bar: every sampled answer re-derives exactly from the
    // snapshot of the epoch it claims.
    for (src, dst, a) in &total.samples {
        let snap = history
            .iter()
            .find(|s| s.epoch == a.epoch)
            .unwrap_or_else(|| panic!("answer from unknown epoch {}", a.epoch));
        let expected = snap
            .answer(*src, *dst)
            .expect("safe chaos never unserves a terminal");
        assert_eq!(&expected, a, "answer mixed epochs for {src:?}->{dst:?}");
    }

    // SLO bar: the protected class held a (generous, scheduler-noise
    // tolerant) p99 while bulk was the class being thinned.
    let metrics = collector.snapshot();
    let verdict = SloPolicy {
        class: QueryClass::Interactive,
        p99: Duration::from_millis(500),
    }
    .judge(&metrics);
    assert!(
        verdict.met(),
        "protected class blew its objective: {verdict}"
    );

    // The engine still serves after the storm.
    let (a, b) = (terminals[0], terminals[1]);
    let answer = engine
        .query(PathQuery::new(a, b))
        .expect("post-storm query");
    assert_eq!(answer.epoch, store.epoch());
}

#[test]
fn publishing_while_shedding_carries_the_overload_rung() {
    let net = topo::kary_ntree(4, 2);
    let mut server =
        RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).expect("bring-up");
    let engine = server.query_engine(QueryOpts {
        workers: 1,
        shed: ShedConfig {
            tick: Duration::from_millis(5),
            ..ShedConfig::default()
        },
        ..QueryOpts::default()
    });
    // Drive the controller into shed by hand (one halving per tick).
    let shed = engine.shed_controller();
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(6));
        shed.on_queue_full(&telemetry::Noop);
    }
    assert!(shed.shedding());
    let cable = fabric::degrade::redundant_cables(&net)[0];
    let served = server.handle(FabricEvent::CableDown(cable)).expect("chaos");
    assert!(served.epoch.is_some());
    let rung = served
        .outcome
        .rungs
        .iter()
        .find(|r| matches!(r, Rung::OverloadShed { .. }))
        .expect("an epoch published mid-shed must carry the overload rung");
    match rung {
        Rung::OverloadShed { admitted_permille } => {
            assert!(*admitted_permille > 0, "rung must prove the floor held");
            assert!(*admitted_permille < 1000);
        }
        _ => unreachable!(),
    }
    assert_eq!(rung.to_string(), format!("{rung}"));
}
