//! Exhaustive interleaving models for the crate's concurrent cores,
//! checked with [`weave`] (compiled only under `--features loom-tests`).
//!
//! Three protocols are modeled over the *production types* — the same
//! code paths readers and writers execute in a running server, compiled
//! against the model checker through the [`crate::sync`] shim:
//!
//! 1. [`Swap`]'s slot-ring publish/read protocol (reader entry vs. slot
//!    recycling, retired-slot drain, the raw-`Arc` round trip);
//! 2. [`AnswerCell`]'s in-flight coalescing (exactly one fulfiller, every
//!    sleeper woken, first-write-wins stability);
//! 3. the shard worker's parked/wake-elision handshake and its close
//!    path (no lost wakeup, clean shutdown).
//!
//! Each protocol is accompanied by *mutants*: minimally broken variants
//! (a dropped reader-count decrement, a drop-before-drain, an elided
//! notify) that the checker must refute. Those tests pin the checker's
//! power — if a refactor ever weakens the models, the mutants fail first.
//!
//! What weave does **not** cover — weaker-than-SeqCst orderings and raw
//! pointer provenance — is covered by the Miri and TSan CI jobs; see
//! DESIGN.md §13 for the full division of labour.

use crate::query::{AnswerCell, Key, QueryClass, QueueEntry, ServeError, Shard};
use crate::swap::Swap;
use crate::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};
use crate::sync::{Arc, Mutex};
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
// 1. Swap slot-ring protocol
// ---------------------------------------------------------------------

#[test]
fn swap_reader_vs_recycling_writer() {
    // RING is 2 under this feature, so the second publish recycles the
    // slot the reader may still be inside: the exact race the drain
    // protocol exists for. weave's tracked Arc turns any
    // use-after-free, double-free or leak into a model failure.
    let report = bounded()
        .check(|| {
            let cell = Arc::new(Swap::new(Arc::new(0usize)));
            let c2 = Arc::clone(&cell);
            let reader = thread::spawn(move || *c2.read());
            cell.publish(Arc::new(1));
            cell.publish(Arc::new(2));
            let seen = reader.join().unwrap();
            assert!(seen <= 2, "reader saw unpublished value {seen}");
        })
        .expect("Swap reader/recycle protocol");
    assert!(report.executions > 1);
}

#[test]
fn swap_reader_observes_monotonic_generations() {
    // Before the read-side `current` re-check this property was FALSE:
    // the checker produced a schedule where the reader entered a slot
    // mid-recycle, grabbed the *newer* value before `current` was
    // redirected, and then read an older one. The re-check in
    // `Swap::read` is what makes this test pass.
    let report = bounded()
        .check(|| {
            let cell = Arc::new(Swap::new(Arc::new(0usize)));
            let c2 = Arc::clone(&cell);
            let reader = thread::spawn(move || {
                let first = *c2.read();
                let second = *c2.read();
                (first, second)
            });
            cell.publish(Arc::new(1));
            cell.publish(Arc::new(2));
            let (first, second) = reader.join().unwrap();
            assert!(
                second >= first,
                "reads went backwards: {first} then {second}"
            );
        })
        .expect("Swap monotonic reads");
    assert!(report.executions > 1);
}

#[test]
fn swap_two_readers_one_recycling_writer() {
    bounded()
        .check(|| {
            let cell = Arc::new(Swap::new(Arc::new(0usize)));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&cell);
                    thread::spawn(move || *c.read())
                })
                .collect();
            cell.publish(Arc::new(1));
            cell.publish(Arc::new(2));
            for r in readers {
                assert!(r.join().unwrap() <= 2);
            }
        })
        .expect("Swap with two concurrent readers");
}

#[test]
fn swap_concurrent_publishers_serialize() {
    bounded()
        .check(|| {
            let cell = Arc::new(Swap::new(Arc::new(0usize)));
            let c2 = Arc::clone(&cell);
            let other = thread::spawn(move || {
                c2.publish(Arc::new(1));
            });
            cell.publish(Arc::new(2));
            other.join().unwrap();
            assert_eq!(cell.generation(), 2);
            let last = *cell.read();
            assert!(last == 1 || last == 2);
        })
        .expect("Swap publisher serialization");
}

// ---------------------------------------------------------------------
// Swap mutants: a 2-slot replica of the exact protocol with seeded
// bugs. `Faithful` re-derives the protocol to prove the replica itself
// is sound; each fault then differs in precisely one line.
// ---------------------------------------------------------------------

mod mini_swap {
    use super::*;
    use std::ptr;

    pub const FAITHFUL: u8 = 0;
    /// `read` forgets to decrement the slot's reader count.
    pub const NO_DECREMENT: u8 = 1;
    /// `publish` drops the old value *before* draining readers.
    pub const DROP_BEFORE_DRAIN: u8 = 2;

    pub struct MiniSwap<const FAULT: u8> {
        current: AtomicUsize,
        readers: [AtomicUsize; 2],
        ptrs: [AtomicPtr<usize>; 2],
        writer: Mutex<usize>,
    }

    impl<const FAULT: u8> MiniSwap<FAULT> {
        pub fn new(initial: Arc<usize>) -> Self {
            let s = MiniSwap {
                current: AtomicUsize::new(0),
                readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
                ptrs: [
                    AtomicPtr::new(ptr::null_mut()),
                    AtomicPtr::new(ptr::null_mut()),
                ],
                writer: Mutex::new(0),
            };
            s.ptrs[0].store(Arc::into_raw(initial) as *mut usize, SeqCst);
            s
        }

        pub fn read(&self) -> Arc<usize> {
            loop {
                let gen = self.current.load(SeqCst);
                let i = gen % 2;
                self.readers[i].fetch_add(1, SeqCst);
                let p = self.ptrs[i].load(SeqCst);
                if !p.is_null() {
                    // SAFETY(model): replica of `Swap::read`'s licensed
                    // round trip; the faults under test break exactly the
                    // invariants that license it, and weave catches that.
                    let arc = unsafe {
                        Arc::increment_strong_count(p);
                        Arc::from_raw(p)
                    };
                    if FAULT != NO_DECREMENT {
                        self.readers[i].fetch_sub(1, SeqCst);
                    }
                    if self.current.load(SeqCst) == gen {
                        return arc;
                    }
                    drop(arc);
                } else {
                    self.readers[i].fetch_sub(1, SeqCst);
                }
                crate::sync::spin_loop();
            }
        }

        pub fn publish(&self, value: Arc<usize>) -> usize {
            let mut generation = self.writer.lock().unwrap();
            *generation += 1;
            let i = *generation % 2;
            let old = self.ptrs[i].swap(ptr::null_mut(), SeqCst);
            if FAULT == DROP_BEFORE_DRAIN {
                if !old.is_null() {
                    // SAFETY(model): the seeded bug — releasing before the
                    // drain, exactly what the real protocol forbids.
                    unsafe { drop(Arc::from_raw(old)) };
                }
            }
            while self.readers[i].load(SeqCst) != 0 {
                crate::sync::yield_now();
            }
            if FAULT != DROP_BEFORE_DRAIN {
                if !old.is_null() {
                    // SAFETY(model): replica of the real post-drain drop.
                    unsafe { drop(Arc::from_raw(old)) };
                }
            }
            self.ptrs[i].store(Arc::into_raw(value) as *mut usize, SeqCst);
            self.current.store(*generation, SeqCst);
            *generation
        }
    }

    impl<const FAULT: u8> Drop for MiniSwap<FAULT> {
        fn drop(&mut self) {
            for p in &self.ptrs {
                let p = p.swap(ptr::null_mut(), SeqCst);
                if !p.is_null() {
                    // SAFETY(model): replica of `Swap`'s `&mut self` drop.
                    unsafe { drop(Arc::from_raw(p)) };
                }
            }
        }
    }

    // SAFETY(model): same contract as the real `Swap`.
    unsafe impl<const FAULT: u8> Send for MiniSwap<FAULT> {}
    // SAFETY(model): same contract as the real `Swap`.
    unsafe impl<const FAULT: u8> Sync for MiniSwap<FAULT> {}
}

fn run_mini_swap<const FAULT: u8>() -> Result<weave::Report, weave::Failure> {
    use mini_swap::MiniSwap;
    bounded().check(|| {
        let cell = Arc::new(MiniSwap::<FAULT>::new(Arc::new(0usize)));
        let c2 = Arc::clone(&cell);
        let reader = thread::spawn(move || *c2.read());
        cell.publish(Arc::new(1));
        cell.publish(Arc::new(2));
        assert!(reader.join().unwrap() <= 2);
    })
}

#[test]
fn mini_swap_faithful_replica_passes() {
    // The replica must be exactly as sound as the real Swap, otherwise
    // the mutant failures below prove nothing.
    run_mini_swap::<{ mini_swap::FAITHFUL }>().expect("faithful replica");
}

#[test]
fn mutant_dropped_reader_decrement_is_refuted() {
    let failure = run_mini_swap::<{ mini_swap::NO_DECREMENT }>()
        .expect_err("a never-drained reader count must hang the writer");
    assert!(
        failure.message.contains("livelock") || failure.message.contains("deadlock"),
        "{failure}"
    );
}

#[test]
fn mutant_drop_before_drain_is_refuted() {
    let failure = run_mini_swap::<{ mini_swap::DROP_BEFORE_DRAIN }>()
        .expect_err("dropping before the drain must be a use-after-free");
    assert!(
        failure.message.contains("freed allocation") || failure.message.contains("leaked"),
        "{failure}"
    );
}

// ---------------------------------------------------------------------
// 2. AnswerCell coalescing
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
// 3. Parked/wake-elision handshake (shard worker)
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
// 4. Fair-admission gate: the DWRR pop under the same parked/wake
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
