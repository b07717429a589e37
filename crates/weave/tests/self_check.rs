//! Self-tests for the model checker: every detector (race-exposed
//! assertion, deadlock, lost wakeup, lock-order inversion, leak,
//! livelock) must fire on a minimal known-bad program and stay silent on
//! the corrected variant. The serve model suite leans on these
//! guarantees, so this file is the checker's own mutation test.

use weave::sync::atomic::{AtomicUsize, Ordering};
use weave::sync::{Arc, Condvar, Mutex};
use weave::{thread, Builder};

#[test]
fn atomic_counter_passes_exhaustively() {
    let report = weave::model(|| {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        n.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2);
    });
    assert!(report.complete);
    // One interleaving choice exists (who increments first), so the tree
    // must have more than one execution.
    assert!(report.executions > 1, "explored {}", report.executions);
}

#[test]
fn finds_lost_update_in_read_modify_write() {
    // Classic torn increment: load, then store load+1. Some schedule must
    // interleave the two threads between load and store and lose a count.
    let failure = Builder::default()
        .check(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let t = thread::spawn(move || {
                let v = n2.load(Ordering::SeqCst);
                n2.store(v + 1, Ordering::SeqCst);
            });
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        })
        .expect_err("the torn increment must be found");
    assert!(failure.message.contains("lost update"), "{failure}");
}

#[test]
fn detects_lost_wakeup_as_deadlock() {
    // The setter flips the flag but never notifies: the waiter sleeps
    // forever on some schedule (whenever it checks the flag before the
    // store) and weave must report the deadlock.
    let failure = Builder::default()
        .check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = Arc::clone(&pair);
            let waiter = thread::spawn(move || {
                let (flag, cv) = &*pair2;
                let mut st = flag.lock().unwrap();
                while !*st {
                    st = cv.wait(st).unwrap(); // bug: may never be woken
                }
            });
            {
                let (flag, _cv) = &*pair;
                *flag.lock().unwrap() = true;
                // bug: missing cv.notify_one()
            }
            waiter.join().unwrap();
        })
        .expect_err("missing notify must deadlock on some schedule");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

#[test]
fn condvar_handshake_passes() {
    let report = weave::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (flag, cv) = &*pair2;
            let mut st = flag.lock().unwrap();
            while !*st {
                st = cv.wait(st).unwrap();
            }
        });
        {
            let (flag, cv) = &*pair;
            *flag.lock().unwrap() = true;
            cv.notify_one();
        }
        waiter.join().unwrap();
    });
    assert!(report.complete);
}

#[test]
fn detects_lock_order_inversion() {
    let failure = Builder::default()
        .check(|| {
            let locks = Arc::new((Mutex::new(0u32), Mutex::new(0u32)));
            let locks2 = Arc::clone(&locks);
            let t = thread::spawn(move || {
                let _b = locks2.1.lock().unwrap();
                let _a = locks2.0.lock().unwrap();
            });
            let _a = locks.0.lock().unwrap();
            let _b = locks.1.lock().unwrap();
            drop((_a, _b));
            t.join().unwrap();
        })
        .expect_err("AB/BA ordering must deadlock on some schedule");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

#[test]
fn detects_leaked_arc() {
    let failure = Builder::default()
        .check(|| {
            let a = Arc::new(3u64);
            std::mem::forget(a);
        })
        .expect_err("forgotten Arc must be reported as a leak");
    assert!(failure.message.contains("leaked"), "{failure}");
}

#[test]
fn spin_drain_loop_terminates_and_passes() {
    // A drain idiom: spin (with yield) until a reader count hits zero.
    // The yield deprioritisation must keep the schedule tree finite and
    // the protocol must pass.
    let report = weave::model(|| {
        let gate = Arc::new(AtomicUsize::new(1));
        let gate2 = Arc::clone(&gate);
        let reader = thread::spawn(move || {
            gate2.fetch_sub(1, Ordering::SeqCst);
        });
        while gate.load(Ordering::SeqCst) != 0 {
            thread::yield_now();
        }
        reader.join().unwrap();
    });
    assert!(report.complete);
}

#[test]
fn reports_livelock_when_step_budget_exceeded() {
    let failure = Builder {
        max_steps: 200,
        ..Builder::default()
    }
    .check(|| {
        let n = AtomicUsize::new(0);
        // No other thread will ever flip this: pure livelock.
        while n.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
    })
    .expect_err("unbounded spin must trip the step budget");
    assert!(failure.message.contains("livelock"), "{failure}");
}

#[test]
fn preemption_bound_caps_exploration() {
    let unbounded = Builder::default()
        .check(three_thread_counter)
        .expect("correct counter must pass");
    let bounded = Builder {
        preemption_bound: Some(1),
        ..Builder::default()
    }
    .check(three_thread_counter)
    .expect("correct counter must pass bounded too");
    assert!(bounded.executions <= unbounded.executions);
}

fn three_thread_counter() {
    let n = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let n2 = Arc::clone(&n);
        handles.push(thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        }));
    }
    n.fetch_add(1, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(n.load(Ordering::SeqCst), 3);
}

#[test]
fn primitives_pass_through_outside_models() {
    // No model active: everything must behave like std across real threads.
    let n = Arc::new(AtomicUsize::new(0));
    let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let n2 = Arc::clone(&n);
        let pair2 = Arc::clone(&pair);
        handles.push(thread::spawn(move || {
            n2.fetch_add(1, Ordering::Relaxed);
            let (m, cv) = &*pair2;
            *m.lock().unwrap() += 1;
            cv.notify_all();
        }));
    }
    let (m, cv) = &*pair;
    let mut done = m.lock().unwrap();
    while *done < 4 {
        done = cv.wait(done).unwrap();
    }
    drop(done);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(n.load(Ordering::Relaxed), 4);
}
