//! Workloads: the packets each terminal will inject, in order.

use fabric::rng::Rng;

/// A packet injection plan: per source terminal, an ordered list of
/// destination terminal indices.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// `queues[src_t]` = destinations to send to, front first.
    pub queues: Vec<Vec<u32>>,
}

impl Workload {
    /// Empty workload for `num_terminals` sources.
    pub fn new(num_terminals: usize) -> Workload {
        Workload {
            queues: vec![Vec::new(); num_terminals],
        }
    }

    /// Every source sends `count` packets to the terminal `hops`
    /// positions ahead (mod n) — the paper's Fig 2 ring pattern with
    /// `hops = 2`.
    pub fn shift(num_terminals: usize, hops: usize, count: usize) -> Workload {
        let mut w = Workload::new(num_terminals);
        let n = num_terminals as u32;
        for s in 0..num_terminals {
            let d = (s as u32 + hops as u32) % n;
            if d != s as u32 {
                w.queues[s] = vec![d; count];
            }
        }
        w
    }

    /// Each flow of a pattern sends `count` packets.
    pub fn from_flows(num_terminals: usize, flows: &[(u32, u32)], count: usize) -> Workload {
        let mut w = Workload::new(num_terminals);
        for &(s, d) in flows {
            for _ in 0..count {
                w.queues[s as usize].push(d);
            }
        }
        w
    }

    /// Uniform random traffic: every source sends `count` packets to
    /// uniformly random other terminals.
    pub fn uniform_random(num_terminals: usize, count: usize, seed: u64) -> Workload {
        let mut rng = Rng::seed_from_u64(seed);
        let mut w = Workload::new(num_terminals);
        for s in 0..num_terminals {
            for _ in 0..count {
                let mut d = rng.range(0..num_terminals as u32);
                while d == s as u32 {
                    d = rng.range(0..num_terminals as u32);
                }
                w.queues[s].push(d);
            }
        }
        w
    }

    /// Total packets to deliver.
    pub fn total_packets(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_skips_self_sends() {
        let w = Workload::shift(4, 2, 3);
        assert_eq!(w.total_packets(), 12);
        assert_eq!(w.queues[0], vec![2, 2, 2]);
        let w = Workload::shift(4, 4, 3); // self-shift: nothing to send
        assert_eq!(w.total_packets(), 0);
    }

    #[test]
    fn from_flows_repeats_count() {
        let w = Workload::from_flows(4, &[(0, 1), (2, 3)], 2);
        assert_eq!(w.queues[0], vec![1, 1]);
        assert_eq!(w.queues[2], vec![3, 3]);
        assert_eq!(w.total_packets(), 4);
    }

    #[test]
    fn uniform_random_avoids_self() {
        let w = Workload::uniform_random(8, 10, 42);
        for (s, q) in w.queues.iter().enumerate() {
            assert_eq!(q.len(), 10);
            assert!(q.iter().all(|&d| d != s as u32));
        }
        // Deterministic.
        let w2 = Workload::uniform_random(8, 10, 42);
        assert_eq!(w.queues, w2.queues);
    }
}
