//! MPI collective-operation models over the congestion simulator.
//!
//! §VI of the paper attributes the largest DFSSSP gains to
//! collective-heavy codes ("when communication is performed, it involves
//! all processes at the same time"). This module models the classic
//! algorithms MPI implementations schedule, phase by phase, and times
//! each phase with the same congestion accounting as everything else:
//! a phase completes when its slowest flow finishes.

use crate::alloc::Allocation;
use fabric::{Network, Routes};
use orcs::Pattern;

/// A collective operation over `P` ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collective {
    /// Ring all-to-all (pairwise exchange), `P-1` phases.
    AllToAll,
    /// Ring allgather: `P-1` phases of neighbor forwarding.
    AllGather,
    /// Recursive-doubling allreduce: `log2(P)` exchange phases.
    AllReduce,
    /// Binomial-tree broadcast from rank 0: `log2(P)` phases.
    Broadcast,
    /// Binomial-tree reduce to rank 0: `log2(P)` phases.
    Reduce,
}

impl Collective {
    /// All modeled collectives.
    pub const ALL: [Collective; 5] = [
        Collective::AllToAll,
        Collective::AllGather,
        Collective::AllReduce,
        Collective::Broadcast,
        Collective::Reduce,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Collective::AllToAll => "alltoall",
            Collective::AllGather => "allgather",
            Collective::AllReduce => "allreduce",
            Collective::Broadcast => "bcast",
            Collective::Reduce => "reduce",
        }
    }

    /// The communication phases for `ranks` participants:
    /// `(pattern, bytes-per-flow factor)` where the factor scales the
    /// caller's per-rank payload (e.g. allgather forwards growing
    /// segments).
    pub fn phases(self, ranks: usize) -> Vec<(Pattern, f64)> {
        assert!(ranks >= 2, "a collective needs at least two ranks");
        match self {
            Collective::AllToAll => (1..ranks)
                .map(|p| (Pattern::alltoall_phase(ranks, p), 1.0 / ranks as f64))
                .collect(),
            Collective::AllGather => {
                // Ring: each phase forwards one 1/P segment to the right.
                (0..ranks - 1)
                    .map(|_| (Pattern::shift(ranks, 1), 1.0 / ranks as f64))
                    .collect()
            }
            Collective::AllReduce => {
                let mut phases = Vec::new();
                let mut k = 1;
                while k < ranks {
                    phases.push((xor_pairs(ranks, k), 1.0));
                    k <<= 1;
                }
                phases
            }
            Collective::Broadcast | Collective::Reduce => {
                // Binomial tree, top-down: strides halve so every sender
                // already holds the data. Reduce is the time-reverse of
                // bcast (phases reversed, flows mirrored) and costs the
                // same under our symmetric-channel model.
                let mut strides = Vec::new();
                let mut k = 1;
                while k < ranks {
                    strides.push(k);
                    k <<= 1;
                }
                strides.reverse(); // largest stride first for broadcast
                let mut phases: Vec<(Pattern, f64)> = strides
                    .into_iter()
                    .map(|k| {
                        let flows: Vec<(u32, u32)> = (0..ranks)
                            .filter(|&i| i % (2 * k) == 0 && i + k < ranks)
                            .map(|i| {
                                let (a, b) = (i as u32, (i + k) as u32);
                                if self == Collective::Broadcast {
                                    (a, b)
                                } else {
                                    (b, a)
                                }
                            })
                            .collect();
                        (Pattern { flows }, 1.0)
                    })
                    .collect();
                if self == Collective::Reduce {
                    phases.reverse(); // leaves combine first
                }
                phases
            }
        }
    }

    /// Modeled completion time (seconds) for `bytes_per_rank` payloads on
    /// `link_mibs` MiB/s links.
    pub fn time(
        self,
        net: &Network,
        routes: &Routes,
        ranks: usize,
        alloc: Allocation,
        bytes_per_rank: usize,
        link_mibs: f64,
    ) -> Result<f64, fabric::RoutesError> {
        let mut total = 0.0;
        for (pattern, factor) in self.phases(ranks) {
            if pattern.is_empty() {
                continue;
            }
            let mapped = alloc.map_pattern(net, ranks, &pattern);
            let bws = orcs::flow_bandwidths(net, routes, &mapped)?;
            let worst = bws.iter().copied().fold(f64::INFINITY, f64::min);
            let mib = bytes_per_rank as f64 * factor / (1024.0 * 1024.0);
            total += mib / (link_mibs * worst);
        }
        Ok(total)
    }
}

/// Recursive-doubling phase: rank `i` exchanges with `i ^ k` (both
/// directions, partners within range only).
fn xor_pairs(ranks: usize, k: usize) -> Pattern {
    let flows = (0..ranks as u32)
        .filter_map(|i| {
            let j = i ^ (k as u32);
            ((j as usize) < ranks && j != i).then_some((i, j))
        })
        .collect();
    Pattern { flows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::MinHop;
    use dfsssp_core::{ComputeCtx, DfSssp, RoutingEngine};
    use fabric::topo;
    use std::collections::HashSet;

    #[test]
    fn alltoall_phases_cover_all_pairs() {
        let mut seen = HashSet::new();
        for (p, _) in Collective::AllToAll.phases(6) {
            for f in p.flows {
                assert!(seen.insert(f));
            }
        }
        assert_eq!(seen.len(), 6 * 5);
    }

    #[test]
    fn broadcast_reaches_everyone_once() {
        let mut received: HashSet<u32> = [0].into_iter().collect();
        for (p, _) in Collective::Broadcast.phases(13) {
            for (s, d) in p.flows {
                assert!(received.contains(&s), "sender {s} must already hold data");
                assert!(received.insert(d), "rank {d} received twice");
            }
        }
        assert_eq!(received.len(), 13);
    }

    #[test]
    fn reduce_is_time_reversed_broadcast() {
        let b = Collective::Broadcast.phases(8);
        let r = Collective::Reduce.phases(8);
        assert_eq!(b.len(), r.len());
        for ((pb, _), (pr, _)) in b.iter().zip(r.iter().rev()) {
            let mirrored: Vec<(u32, u32)> = pr.flows.iter().map(|&(s, d)| (d, s)).collect();
            assert_eq!(pb.flows, mirrored);
        }
        // And every rank's contribution arrives at the root exactly once.
        let mut absorbed: HashSet<u32> = (1..8).collect();
        for (p, _) in r {
            for (s, _) in p.flows {
                assert!(absorbed.remove(&s), "rank {s} combined twice");
            }
        }
        assert!(absorbed.is_empty());
    }

    #[test]
    fn allreduce_has_log_phases() {
        assert_eq!(Collective::AllReduce.phases(8).len(), 3);
        assert_eq!(Collective::AllReduce.phases(16).len(), 4);
        // Non-power-of-two still terminates (partners out of range skip).
        assert_eq!(Collective::AllReduce.phases(10).len(), 4);
    }

    #[test]
    fn times_are_positive_and_scale_with_payload() {
        let net = topo::kary_ntree(4, 2);
        let routes = DfSssp::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        for c in Collective::ALL {
            let t1 = c
                .time(&net, &routes, 16, Allocation::Packed, 1 << 16, 946.0)
                .unwrap();
            let t4 = c
                .time(&net, &routes, 16, Allocation::Packed, 1 << 18, 946.0)
                .unwrap();
            assert!(t1 > 0.0, "{}", c.name());
            assert!((t4 / t1 - 4.0).abs() < 1e-9, "{}", c.name());
        }
    }

    #[test]
    fn alltoall_benefits_most_from_balanced_routing() {
        // On an oversubscribed tree, the all-to-all should gain at least
        // as much from DFSSSP as the sparse binomial broadcast does.
        let net = topo::xgft(2, &[8, 8], &[2, 2]);
        let mh = MinHop::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        let df = DfSssp::new().route_in(&net, &ComputeCtx::seq()).unwrap();
        let ranks = 32;
        let speedup = |c: Collective| {
            let a = c
                .time(&net, &mh, ranks, Allocation::Spread, 1 << 18, 946.0)
                .unwrap();
            let b = c
                .time(&net, &df, ranks, Allocation::Spread, 1 << 18, 946.0)
                .unwrap();
            a / b
        };
        let a2a = speedup(Collective::AllToAll);
        let bcast = speedup(Collective::Broadcast);
        assert!(
            a2a >= bcast * 0.95,
            "alltoall speedup {a2a:.3} vs bcast {bcast:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn singleton_rejected() {
        Collective::AllToAll.phases(1);
    }
}
