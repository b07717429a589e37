//! The concurrent snapshot-swap stress test (ISSUE 5 satellite):
//! reader threads hammer [`PathQuery`]s while a writer publishes a
//! stream of epochs through chaos events. Afterwards every recorded
//! answer is re-derived from the *exact snapshot of its epoch* — hops
//! and VL must match, proving no answer ever mixed epochs — and every
//! snapshot any reader could have observed is vet-clean.

use dfsssp_core::DfSssp;
use fabric::rng::splitmix64;
use fabric::{topo, NodeId};
use serve::{PathAnswer, PathQuery, QueryEngine, QueryOpts, RouteServer, ServedOutcome, Snapshot};
use telemetry::fx::FxHashSet;
// `serve::sync::Arc` so `store.read()`'s type matches under both the std
// build and `--features loom-tests` (where it is weave's tracked Arc).
use serve::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use subnet::FabricEvent;

#[test]
fn readers_never_observe_inconsistent_or_unvetted_epochs() {
    const EPOCHS: u64 = 12;
    const READERS: usize = 4;

    let net = topo::kary_ntree(4, 2);
    let mut server =
        RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).expect("bring-up");
    let safe = fabric::degrade::redundant_cables(&net);
    assert!(!safe.is_empty(), "test topology must have redundant cables");

    let store = server.store();
    let engine = QueryEngine::new(store.clone(), QueryOpts::default());
    // Every snapshot a reader could have seen: epoch 0 plus one entry
    // per publish, captured by the (single) writer right after the swap.
    let history: Mutex<Vec<Arc<Snapshot>>> = Mutex::new(vec![store.read()]);
    let answers: Mutex<Vec<(NodeId, NodeId, PathAnswer)>> = Mutex::new(Vec::new());
    let answered = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let terminals = net.terminals().to_vec();

    std::thread::scope(|s| {
        for r in 0..READERS {
            let (engine, terminals) = (&engine, &terminals);
            let (answers, answered, done) = (&answers, &answered, &done);
            s.spawn(move || {
                let mut rng = 0xDEAD_BEEF ^ (r as u64) << 21;
                let mut local = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    rng = splitmix64(rng);
                    let src = terminals[(rng % terminals.len() as u64) as usize];
                    rng = splitmix64(rng);
                    let dst = terminals[(rng % terminals.len() as u64) as usize];
                    if src == dst {
                        continue;
                    }
                    let a = engine
                        .query(PathQuery::new(src, dst))
                        .expect("safe chaos never unserves a terminal");
                    local.push((src, dst, a));
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                answers.lock().unwrap().extend(local);
            });
        }
        // The writer: down/up redundant cables until EPOCHS epochs are
        // out, pacing on reader progress so swaps interleave queries.
        let mut rng = 7u64;
        let mut published = 0u64;
        while published < EPOCHS {
            rng = splitmix64(rng);
            let cable = safe[(rng % safe.len() as u64) as usize];
            for event in [FabricEvent::CableDown(cable), FabricEvent::CableUp(cable)] {
                if published >= EPOCHS {
                    break;
                }
                if let ServedOutcome { epoch: Some(e), .. } =
                    server.handle(event).expect("chaos event")
                {
                    published += 1;
                    let snap = store.read();
                    assert_eq!(snap.epoch, e, "single writer captures its own epoch");
                    history.lock().unwrap().push(snap);
                }
                let target = answered.load(Ordering::Relaxed) + READERS as u64 * 2;
                while answered.load(Ordering::Relaxed) < target {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    drop(engine);

    let history = history.into_inner().unwrap();
    let answers = answers.into_inner().unwrap();
    assert_eq!(history.len() as u64, EPOCHS + 1);
    assert!(!answers.is_empty());

    // No reader can have observed a non-vet-clean table: everything
    // that was ever current is in `history`, and all of it is clean.
    for snap in &history {
        assert_eq!(
            snap.vet.num_errors(),
            0,
            "epoch {} not vet-clean",
            snap.epoch
        );
    }

    // Internal consistency: re-derive each answer from the snapshot of
    // the epoch it claims; hops and VL must match exactly.
    let mut seen_epochs = FxHashSet::default();
    for (src, dst, a) in &answers {
        let snap = history
            .iter()
            .find(|s| s.epoch == a.epoch)
            .unwrap_or_else(|| panic!("answer from unknown epoch {}", a.epoch));
        let expected = snap
            .answer(*src, *dst)
            .expect("epoch served this pair when it was current");
        assert_eq!(a, &expected, "answer mixed epochs for {src:?}->{dst:?}");
        seen_epochs.insert(a.epoch);
    }
    assert!(
        seen_epochs.len() > 1,
        "paced chaos must spread answers over multiple epochs, got {seen_epochs:?}"
    );
}
