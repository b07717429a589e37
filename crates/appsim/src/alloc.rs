//! Rank-to-terminal allocation policies.
//!
//! A benchmark runs on `cores` MPI ranks placed on fabric terminals; the
//! placement shapes congestion. The paper used fixed allocations per core
//! count ("we used the same nodes (allocation) for identical number of
//! cores"); we provide the two canonical schedulers plus a seeded random
//! one.

use fabric::rng::Rng;
use fabric::Network;
use orcs::Pattern;

/// How ranks map onto terminals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Allocation {
    /// Ranks fill terminals in index order (packed onto few switches).
    Packed,
    /// Ranks are spread evenly across the terminal range (one per node
    /// group, like one-core-per-node runs).
    Spread,
    /// Random distinct terminals, deterministic per seed.
    Random(u64),
}

impl Allocation {
    /// Terminal indices for `cores` ranks.
    ///
    /// # Panics
    /// Panics if `cores` exceeds the terminal count.
    pub fn place(self, net: &Network, cores: usize) -> Vec<u32> {
        let nt = net.num_terminals();
        assert!(cores <= nt, "allocation of {cores} ranks on {nt} terminals");
        match self {
            Allocation::Packed => (0..cores as u32).collect(),
            Allocation::Spread => (0..cores).map(|i| ((i * nt) / cores) as u32).collect(),
            Allocation::Random(seed) => {
                let mut ids: Vec<u32> = (0..nt as u32).collect();
                Rng::seed_from_u64(seed).shuffle(&mut ids);
                ids.truncate(cores);
                ids
            }
        }
    }

    /// Map a rank-space pattern to a terminal-space pattern under this
    /// allocation.
    pub fn map_pattern(self, net: &Network, cores: usize, pattern: &Pattern) -> Pattern {
        let place = self.place(net, cores);
        Pattern {
            flows: pattern
                .flows
                .iter()
                .map(|&(s, d)| (place[s as usize], place[d as usize]))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    #[test]
    fn packed_is_prefix() {
        let net = topo::kary_ntree(4, 2);
        assert_eq!(Allocation::Packed.place(&net, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn spread_covers_the_range() {
        let net = topo::kary_ntree(4, 2); // 16 terminals
        let p = Allocation::Spread.place(&net, 4);
        assert_eq!(p, vec![0, 4, 8, 12]);
    }

    #[test]
    fn random_is_distinct_and_deterministic() {
        let net = topo::kary_ntree(4, 2);
        let a = Allocation::Random(3).place(&net, 10);
        let b = Allocation::Random(3).place(&net, 10);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn pattern_mapping_translates_ranks() {
        let net = topo::kary_ntree(4, 2);
        let p = Pattern {
            flows: vec![(0, 1), (1, 2)],
        };
        let mapped = Allocation::Spread.map_pattern(&net, 4, &p);
        assert_eq!(mapped.flows, vec![(0, 4), (4, 8)]);
    }

    #[test]
    #[should_panic(expected = "allocation")]
    fn overallocation_panics() {
        let net = topo::ring(3, 1);
        Allocation::Packed.place(&net, 10);
    }
}
