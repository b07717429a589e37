//! Exhaustive interleaving models for the crate's concurrent cores,
//! checked with [`weave`] (compiled only under `--features loom-tests`).
//!
//! Three protocols are modeled over the *production types* — the same
//! code paths readers and writers execute in a running server, compiled
//! against the model checker through the [`crate::sync`] shim:
//!
//! 1. [`AnswerCell`]'s in-flight coalescing (exactly one fulfiller, every
//!    sleeper woken, first-write-wins stability);
//! 2. the shard worker's parked/wake-elision handshake and its close
//!    path (no lost wakeup, clean shutdown);
//! 3. the deficit-weighted pop under that handshake (no work stranded
//!    on a class the cursor is not on).
//!
//! Each protocol is accompanied by *mutants*: minimally broken variants
//! (an elided notify, an unconditional wake elision, a cursor-only pop)
//! that the checker must refute. Those tests pin the checker's power —
//! if a refactor ever weakens the models, the mutants fail first.
//!
//! What weave does **not** cover — weaker-than-SeqCst orderings and
//! real-thread data races — is covered by the Miri and TSan CI jobs;
//! see DESIGN.md §13 for the full division of labour.

use crate::query::{AnswerCell, Key, QueryClass, QueueEntry, ServeError, Shard};
use crate::sync::Arc;
use std::time::Duration;
use weave::{thread, Builder};

/// Full-DFS builder for 2-thread models (trees stay small).
fn exhaustive() -> Builder {
    Builder::default()
}

/// Preemption-bounded builder for 3-thread models. Bound 3 keeps the
/// tree well under a second while covering every schedule that needs at
/// most three forced context switches — the CHESS result: almost all
/// concurrency bugs manifest within two.
fn bounded() -> Builder {
    Builder {
        preemption_bound: Some(3),
        ..Builder::default()
    }
}

// ---------------------------------------------------------------------
// 1. AnswerCell coalescing
// ---------------------------------------------------------------------

#[test]
fn answer_cell_every_sleeper_wakes() {
    bounded()
        .check(|| {
            let cell = AnswerCell::new();
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&cell);
                    thread::spawn(move || c.wait())
                })
                .collect();
            cell.fulfill(Err(ServeError::ShuttingDown));
            for w in waiters {
                assert!(matches!(w.join().unwrap(), Err(ServeError::ShuttingDown)));
            }
        })
        .expect("every coalesced waiter must observe the answer");
}

#[test]
fn answer_cell_first_fulfiller_wins_and_sticks() {
    bounded()
        .check(|| {
            let cell = AnswerCell::new();
            let c2 = Arc::clone(&cell);
            let racer = thread::spawn(move || {
                c2.fulfill(Err(ServeError::ShuttingDown));
            });
            cell.fulfill(Err(ServeError::Overloaded {
                retry_after: Duration::from_millis(1),
            }));
            racer.join().unwrap();
            // Whichever fulfiller won, the cell must have settled: two
            // waits observe the same answer.
            let first = cell.wait();
            let second = cell.wait();
            let same = matches!(
                (&first, &second),
                (Err(ServeError::ShuttingDown), Err(ServeError::ShuttingDown))
                    | (
                        Err(ServeError::Overloaded { .. }),
                        Err(ServeError::Overloaded { .. })
                    )
            );
            assert!(same, "cell changed its answer: {first:?} then {second:?}");
        })
        .expect("exactly one fulfiller must win, permanently");
}

#[test]
fn mutant_elided_notify_is_refuted() {
    // The seeded bug: fulfill sets the answer but skips `notify_all`
    // even though sleepers are parked — the wake-elision gone wrong.
    let failure = exhaustive()
        .check(|| {
            let cell = AnswerCell::new();
            let c = Arc::clone(&cell);
            let waiter = thread::spawn(move || c.wait());
            {
                let mut st = cell.state.lock().unwrap();
                if st.answer.is_none() {
                    st.answer = Some(Err(ServeError::ShuttingDown));
                    // bug: no `cell.ready.notify_all()`
                }
            }
            let _ = waiter.join().unwrap();
        })
        .expect_err("a sleeper must be lost on some schedule");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

// ---------------------------------------------------------------------
// 2. Parked/wake-elision handshake (shard worker)
// ---------------------------------------------------------------------

/// The worker side of the handshake, verbatim from `Engine::worker`'s
/// park loop: drain the deficit-weighted queues, else mark parked and
/// wait. Equal quanta here — the weights are a fairness property, the
/// model checks the wakeup protocol.
fn park_until_work(shard: &Shard) -> Option<Key> {
    let mut st = shard.state.lock().unwrap();
    loop {
        if let Some(entry) = st.pop_next(&[1, 1]) {
            return Some(entry.key);
        }
        if st.closed {
            return None;
        }
        st.parked = true;
        st = shard.work.wait(st).unwrap();
        st.parked = false;
    }
}

/// The submitter side, verbatim from `QueryEngine::submit`: enqueue
/// into the class queue, read `parked` under the lock, wake outside it
/// only when needed.
fn submit_key_class(shard: &Shard, key: Key, class: QueryClass) {
    let mut st = shard.state.lock().unwrap();
    st.queues[class.index()].push_back(QueueEntry::immediate(key));
    let wake = st.parked;
    drop(st);
    if wake {
        shard.work.notify_one();
    }
}

fn submit_key(shard: &Shard, key: Key) {
    submit_key_class(shard, key, QueryClass::Interactive);
}

#[test]
fn wake_elision_handshake_never_loses_work() {
    let report = exhaustive()
        .check(|| {
            let shard = Arc::new(Shard::new());
            let s2 = Arc::clone(&shard);
            let worker = thread::spawn(move || park_until_work(&s2));
            submit_key(&shard, (1, 2));
            assert_eq!(worker.join().unwrap(), Some((1, 2)));
        })
        .expect("the parked flag must never elide a needed wakeup");
    assert!(report.complete);
}

#[test]
fn wake_elision_handshake_two_submitters() {
    bounded()
        .check(|| {
            let shard = Arc::new(Shard::new());
            let s2 = Arc::clone(&shard);
            let worker = thread::spawn(move || {
                let first = park_until_work(&s2);
                let second = park_until_work(&s2);
                (first, second)
            });
            let s3 = Arc::clone(&shard);
            let other = thread::spawn(move || submit_key(&s3, (3, 4)));
            submit_key(&shard, (1, 2));
            other.join().unwrap();
            let (first, second) = worker.join().unwrap();
            let mut got = [first.unwrap(), second.unwrap()];
            got.sort_unstable();
            assert_eq!(got, [(1, 2), (3, 4)]);
        })
        .expect("two racing submitters, one parked worker");
}

#[test]
fn shutdown_wakes_parked_worker() {
    exhaustive()
        .check(|| {
            let shard = Arc::new(Shard::new());
            let s2 = Arc::clone(&shard);
            let worker = thread::spawn(move || park_until_work(&s2));
            // Verbatim from `Drop for QueryEngine`: set closed, then wake
            // unconditionally.
            {
                let mut st = shard.state.lock().unwrap();
                st.closed = true;
            }
            shard.work.notify_all();
            assert_eq!(worker.join().unwrap(), None);
        })
        .expect("close must always rouse a parked worker");
}

#[test]
fn mutant_unconditional_elision_is_refuted() {
    // Submitter that never wakes anyone: the handshake's reason to read
    // `parked` at all. Must deadlock whenever the worker parked first.
    let failure = exhaustive()
        .check(|| {
            let shard = Arc::new(Shard::new());
            let s2 = Arc::clone(&shard);
            let worker = thread::spawn(move || park_until_work(&s2));
            {
                let mut st = shard.state.lock().unwrap();
                st.queues[0].push_back(QueueEntry::immediate((1, 2)));
                // bug: `st.parked` ignored, notify elided unconditionally
            }
            assert_eq!(worker.join().unwrap(), Some((1, 2)));
        })
        .expect_err("eliding every wakeup must strand a parked worker");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

// ---------------------------------------------------------------------
// 3. Fair-admission gate: the DWRR pop under the same parked/wake
// handshake. The risk the models pin down is a *lost wakeup through the
// scheduler*: a submitter refills a class's deficit (by making its
// queue non-empty) while the worker is parked or mid-round on another
// class, and the worker must still find the work.
// ---------------------------------------------------------------------

#[test]
fn dwrr_cross_class_submit_wakes_parked_worker() {
    // Submissions race into *different* class queues; one parked
    // worker must retrieve both regardless of where the cursor and the
    // deficits are when each submitter lands.
    bounded()
        .check(|| {
            let shard = Arc::new(Shard::new());
            let s2 = Arc::clone(&shard);
            let worker = thread::spawn(move || {
                let first = park_until_work(&s2);
                let second = park_until_work(&s2);
                (first, second)
            });
            let s3 = Arc::clone(&shard);
            let bulk = thread::spawn(move || submit_key_class(&s3, (3, 4), QueryClass::Bulk));
            submit_key_class(&shard, (1, 2), QueryClass::Interactive);
            bulk.join().unwrap();
            let (first, second) = worker.join().unwrap();
            let mut got = [first.unwrap(), second.unwrap()];
            got.sort_unstable();
            assert_eq!(got, [(1, 2), (3, 4)]);
        })
        .expect("a submit to either class must reach a parked worker");
}

#[test]
fn dwrr_stale_credit_never_blocks_the_other_class() {
    // The refill race: the bulk class holds leftover deficit from an
    // earlier round but its queue is empty, and the cursor is parked on
    // it. A submit to the *other* class must still be found — pop_next
    // has to retire the stale credit and scan on, on every schedule.
    exhaustive()
        .check(|| {
            let shard = Arc::new(Shard::new());
            {
                let mut st = shard.state.lock().unwrap();
                st.cursor = QueryClass::Bulk.index();
                st.deficit[QueryClass::Bulk.index()] = 5; // stale credit
            }
            let s2 = Arc::clone(&shard);
            let worker = thread::spawn(move || park_until_work(&s2));
            submit_key_class(&shard, (1, 2), QueryClass::Interactive);
            assert_eq!(worker.join().unwrap(), Some((1, 2)));
        })
        .expect("stale deficit on an empty class must not strand work");
}

#[test]
fn mutant_cursor_only_pop_is_refuted() {
    // The seeded bug: a pop that only ever looks at the cursor's class
    // and parks when that queue is empty. Work arriving on the other
    // class refills its deficit, the wakeup fires — and the worker
    // re-checks the wrong queue and parks again, forever.
    fn park_cursor_only(shard: &Shard) -> Option<Key> {
        let mut st = shard.state.lock().unwrap();
        loop {
            let c = st.cursor;
            if let Some(entry) = st.queues[c].pop_front() {
                return Some(entry.key);
            }
            if st.closed {
                return None;
            }
            st.parked = true;
            st = shard.work.wait(st).unwrap();
            st.parked = false;
        }
    }
    let failure = exhaustive()
        .check(|| {
            let shard = Arc::new(Shard::new());
            let s2 = Arc::clone(&shard);
            let worker = thread::spawn(move || park_cursor_only(&s2));
            // Cursor starts at Interactive; the work lands on Bulk.
            submit_key_class(&shard, (1, 2), QueryClass::Bulk);
            assert_eq!(worker.join().unwrap(), Some((1, 2)));
        })
        .expect_err("ignoring non-cursor classes must strand their work");
    assert!(failure.message.contains("deadlock"), "{failure}");
}
