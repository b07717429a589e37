//! Worker-pool plumbing: sharded blocking queues, `std::thread`-only.
//!
//! The query engine builds its shard workers on [`ShardedQueue`]. Pool
//! sizes default to [`std::thread::available_parallelism`] via
//! [`default_workers`]. (Data-parallel sweeps use
//! `dfsssp_core::pool::map_stealing`.)

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// The machine's available parallelism (≥ 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

struct Shard<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
}

/// A set of independent FIFO queues with blocking consumers — the
/// spine of the query engine's thread pool. Producers pick a shard
/// (usually by key hash, so related work lands together); each worker
/// drains one shard, pulling *batches* so a burst of items costs one
/// wakeup, not one per item.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    closed: Mutex<bool>,
}

impl<T> ShardedQueue<T> {
    /// `shards` independent queues (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        ShardedQueue {
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            closed: Mutex::new(false),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Enqueue `item` on `shard` (mod the shard count). Returns the
    /// item back when the queue is closed.
    pub fn push(&self, shard: usize, item: T) -> Result<(), T> {
        if *self.closed.lock().unwrap() {
            return Err(item);
        }
        let s = &self.shards[shard % self.shards.len()];
        s.queue.lock().unwrap().push_back(item);
        s.ready.notify_one();
        Ok(())
    }

    /// Block until `shard` has work (or the queue closes), then move up
    /// to `max` items into `out`. Returns `false` when the queue is
    /// closed *and* drained — the worker's signal to exit.
    pub fn pop_batch(&self, shard: usize, max: usize, out: &mut Vec<T>) -> bool {
        let s = &self.shards[shard % self.shards.len()];
        let mut q = s.queue.lock().unwrap();
        loop {
            if !q.is_empty() {
                let n = q.len().min(max.max(1));
                out.extend(q.drain(..n));
                return true;
            }
            if *self.closed.lock().unwrap() {
                return false;
            }
            q = s.ready.wait(q).unwrap();
        }
    }

    /// Close the queue: producers start failing, consumers drain what
    /// is left and then see `false`.
    pub fn close(&self) {
        *self.closed.lock().unwrap() = true;
        for s in &self.shards {
            // Acquire each shard's queue mutex before notifying. `closed`
            // lives under its own lock, so without this a consumer could
            // read `closed == false`, lose the CPU, and park *after* the
            // notification below — a lost wakeup that hangs the worker
            // forever. Taking the queue mutex forces that consumer to
            // either finish parking first (the notify reaches it) or
            // re-check `closed` after we set it. Found by the `weave`
            // model in `crate::models::pool_queue_close_releases_blocked_consumer`.
            let _q = s.queue.lock().unwrap();
            s.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn push_pop_batch_roundtrip() {
        let q = ShardedQueue::new(2);
        for i in 0..10 {
            q.push(i % 2, i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(0, 64, &mut out));
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        out.clear();
        assert!(q.pop_batch(1, 2, &mut out));
        assert_eq!(out, vec![1, 3], "batch cap respected");
    }

    #[test]
    fn close_drains_then_stops() {
        let q = ShardedQueue::new(1);
        q.push(0, 7).unwrap();
        q.close();
        assert!(q.push(0, 8).is_err());
        let mut out = Vec::new();
        assert!(q.pop_batch(0, 64, &mut out));
        assert_eq!(out, vec![7]);
        out.clear();
        assert!(!q.pop_batch(0, 64, &mut out));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(ShardedQueue::<u32>::new(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.pop_batch(0, 8, &mut out)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!h.join().unwrap());
    }
}
