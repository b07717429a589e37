//! A small work-stealing pool for deterministic parallel sweeps.
//!
//! Route computation itself is sequential (DESIGN.md §15). What fans out
//! are the embarrassingly parallel sweeps around it — eBB patterns,
//! Netgauge partitions, per-seed figure runs — with [`map_stealing`]:
//! item `i`'s result lands in output slot `i`, so the merged output is
//! *identical to the sequential map whatever the host's core count or
//! the schedule* — determinism comes from the slot discipline, not from
//! the schedule.
//!
//! Work distribution is deque-based: every worker is pre-loaded with a
//! contiguous block of indices and walks it front-to-back (streaming
//! through memory in index order); a worker whose own deque runs dry
//! steals from the *back* of a victim's deque, taking the work farthest
//! from where the victim is currently reading. Items are only ever
//! removed after construction, so a full empty scan is a proof of
//! completion — no condvar, no termination protocol.
//!
//! The deques live behind the [`crate::sync`] shim: under
//! `--features loom-tests` the exact steal/pop protocol runs inside the
//! [`weave`] model checker (`src/models.rs`).
//!
//! [`join`] is the other shape: two different computations, one beside
//! the other, for the subnet manager's event path (DESIGN.md §15).

use crate::sync::Mutex;
use std::collections::VecDeque;

/// The index deques of one work-stealing run: worker `w` owns deque `w`,
/// pre-filled with a contiguous block of `0..n` in ascending order.
///
/// Shared by reference across the workers of [`map_stealing`]; the
/// interleaving models drive it directly. Every claim happens under one
/// deque mutex, so each index is handed out exactly once.
pub struct StealQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Split `0..n` into `workers` contiguous blocks, one deque each.
    /// Block sizes differ by at most one.
    pub fn new(n: usize, workers: usize) -> StealQueues {
        let workers = workers.max(1);
        let mut deques = Vec::with_capacity(workers);
        let mut start = 0usize;
        for w in 0..workers {
            // Even split: the first `n % workers` blocks get one extra.
            let len = n / workers + usize::from(w < n % workers);
            deques.push(Mutex::new((start..start + len).collect()));
            start += len;
        }
        debug_assert_eq!(start, n);
        StealQueues { deques }
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Claim the next index for worker `w`: the front of its own deque,
    /// else one stolen from the back of the first non-empty victim.
    /// `None` means every deque was empty — and since indices are never
    /// re-added, none will ever appear again: the run is complete.
    pub fn next(&self, w: usize) -> Option<usize> {
        if let Some(i) = self.deques[w].lock().unwrap().pop_front() {
            return Some(i);
        }
        for k in 1..self.deques.len() {
            let victim = (w + k) % self.deques.len();
            if let Some(i) = self.deques[victim].lock().unwrap().pop_back() {
                return Some(i);
            }
        }
        None
    }
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
pub fn map_stealing<O, F>(n: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    map_on(n, workers, f)
}

/// [`map_stealing`] at an explicit width.
fn map_on<O, F>(n: usize, workers: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let queues = StealQueues::new(n, workers.min(n));
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..queues.workers() {
            let (queues, slots, f) = (&queues, &slots, &f);
            scope.spawn(move || {
                while let Some(i) = queues.next(w) {
                    let out = f(i);
                    *slots[i].lock().unwrap() = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every index claimed exactly once")
        })
        .collect()
}

/// Run `a` on the calling thread and `b` beside it on a scoped helper;
/// return both results once both are done. A panic in `b` resumes on the
/// caller after `a` returned. On a one-core host `a` runs, then `b`,
/// inline. Either way each result is what its closure alone returns.
pub fn join<RA, RB: Send>(a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB) {
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    join_on(width, a, b)
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        assert_eq!(map_stealing(100, |i| i * i + 1), seq);
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
    fn stealing_rebalances_skewed_work() {
        // Worker 0 owns the heavy front half; with 2 workers the other
        // must steal to finish. The output stays slot-ordered.
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
    fn queues_split_contiguously() {
        let q = StealQueues::new(10, 3);
        assert_eq!(q.workers(), 3);
        // Blocks: [0..4), [4..7), [7..10).
        let mut seen = Vec::new();
        while let Some(i) = q.next(0) {
            seen.push(i);
        }
        assert_eq!(seen.len(), 10, "worker 0 drains everything when alone");
        // Own block front-to-back first, then steals from victims' backs.
        assert_eq!(&seen[..4], &[0, 1, 2, 3]);
    }
}
