//! A small pool for deterministic parallel sweeps.
//!
//! Route computation itself is sequential (DESIGN.md §15). What fans out
//! are the embarrassingly parallel sweeps around it — eBB patterns,
//! Netgauge partitions, per-seed figure runs — with [`map`]: item `i`'s
//! result lands in output slot `i`, so the merged output is *identical to
//! the sequential map whatever the host's core count or the schedule* —
//! determinism comes from the slot discipline, not from the schedule.
//!
//! Every item is a whole simulation, so work is handed out one index at
//! a time: the workers, the caller among them, claim the next index off
//! one shared atomic cursor and keep their `(index, result)` pairs. A
//! worker that drew cheap items simply claims more; items this coarse
//! need no stealing to balance. The pairs go to their slots once the
//! scope has joined every worker.
//!
//! [`join`] is the other shape: two different computations, one beside
//! the other, for the subnet manager's event path (DESIGN.md §15).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's available parallelism, read once per process: each read
/// goes to the scheduler affinity and cgroup files, which costs more than
/// a small [`join`] saves.
fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Map `f` over `0..n` on one worker per available core; `f(i)`'s result
/// is placed in output slot `i`, so the returned vector equals the
/// sequential `(0..n).map(f).collect()` bit for bit, whatever the
/// schedule did.
///
/// `f` runs on borrowed scoped threads — it may capture references to the
/// caller's stack (networks, route tables) without `'static` bounds. On
/// a one-core host or with `n <= 1` no threads are spawned at all and `f`
/// runs inline, in order.
pub fn map<O, F>(n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    map_on(n, width(), f)
}

/// [`map`] at an explicit width: the caller and `workers - 1` helpers.
fn map_on<O, F>(n: usize, workers: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    // `fetch_add` hands each index to exactly one worker; the results
    // travel back through `join`, so no ordering beyond the RMW is needed.
    let claim = || {
        std::iter::from_fn(|| Some(cursor.fetch_add(1, Ordering::Relaxed)))
            .take_while(|&i| i < n)
            .map(|i| (i, f(i)))
            .collect::<Vec<_>>()
    };
    let parts = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(claim)).collect();
        let mut parts = vec![claim()];
        for helper in helpers {
            parts.push(helper.join().expect("a sweep worker panicked"));
        }
        parts
    });
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, out) in parts.into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

/// Run `a` on the calling thread and `b` beside it on a scoped helper;
/// return both results once both are done. A panic in `b` resumes on the
/// caller after `a` returned. On a one-core host `a` runs, then `b`,
/// inline. Either way each result is what its closure alone returns.
pub fn join<RA, RB: Send>(a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB) {
    join_on(width(), a, b)
}

/// [`join`] at an explicit width.
fn join_on<RA, RB: Send>(
    width: usize,
    a: impl FnOnce() -> RA,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    if width <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let helper = scope.spawn(b);
        let ra = a();
        let rb = helper.join();
        (ra, rb.unwrap_or_else(|p| std::panic::resume_unwind(p)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_runs_each_arm_once_and_keeps_results_in_place() {
        for width in [1, 2, 4] {
            let (runs_a, runs_b) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (a, b) = join_on(
                width,
                || (runs_a.fetch_add(1, Ordering::SeqCst), "a"),
                || (runs_b.fetch_add(1, Ordering::SeqCst), 7u64),
            );
            assert_eq!((a, b), ((0, "a"), (0, 7)), "width {width}");
            assert_eq!(runs_a.load(Ordering::SeqCst), 1);
            assert_eq!(runs_b.load(Ordering::SeqCst), 1);
        }
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_after_the_inline_arm() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for width in [1, 2] {
            let inline_done = AtomicUsize::new(0);
            let (panicking, helper_panics) = std::sync::mpsc::channel();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                join_on(
                    width,
                    || {
                        // Beside a helper, finish only once it is
                        // panicking; inline, the helper runs after.
                        if width > 1 {
                            helper_panics.recv().expect("the helper reports first");
                        }
                        inline_done.fetch_add(1, Ordering::SeqCst)
                    },
                    move || -> u8 {
                        panicking.send(()).expect("the inline arm listens");
                        panic!("helper arm")
                    },
                )
            }));
            let payload = caught.expect_err("the helper's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper arm"));
            assert_eq!(inline_done.load(Ordering::SeqCst), 1, "width {width}");
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn sequential_fast_path_is_in_order() {
        assert_eq!(map_on(5, 1, |i| i * 10), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn parallel_output_equals_sequential() {
        let seq = map_on(100, 1, |i| i * i + 1);
        for workers in [2, 3, 4, 7] {
            assert_eq!(map_on(100, workers, |i| i * i + 1), seq, "{workers}");
        }
        assert_eq!(map(100, |i| i * i + 1), seq);
    }

    #[test]
    fn more_threads_than_items_caps_workers() {
        assert_eq!(map_on(3, 16, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(map_on(0, 4, |i| i).is_empty());
    }

    #[test]
    fn skewed_work_keeps_slot_order() {
        // The heavy items are the front half; whichever worker claims
        // them, the output stays slot-ordered.
        let n = 64;
        let out = map_on(n, 2, |i| {
            if i < n / 2 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn each_index_runs_exactly_once() {
        let n = 10_000;
        for workers in [2, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = map_on(n, workers, |i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                i
            });
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "width {workers}");
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::SeqCst), 1, "index {i} at width {workers}");
            }
        }
    }
}
