//! Cycle-break heuristics (§IV of the paper).
//!
//! When the offline algorithm finds a cycle in a layer's CDG it must pick
//! one edge whose inducing paths move to the next layer. Choosing which
//! edge is the APP-flavored NP-complete decision in miniature; the paper
//! evaluates three heuristics and finds "weakest edge" best (3–5 layers on
//! its random networks, vs 4–8 for pseudo-random and 4–16 for heaviest).

use crate::cdg::{Cdg, EdgeId};
use fabric::rng::splitmix64;

/// Which edge of a discovered cycle to break.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CycleBreakHeuristic {
    /// Break the edge induced by the fewest paths — minimizes the number
    /// of paths pushed to the next layer. The paper's default.
    WeakestEdge,
    /// Break the edge induced by the most paths — tries to break many
    /// undiscovered cycles at once (the paper's worst heuristic).
    HeaviestEdge,
    /// Break the first edge of the discovered cycle (the paper's
    /// "pseudo-random" heuristic: whichever edge the search found first).
    FirstEdge,
    /// Break a uniformly random cycle edge (splitmix on the seed and a
    /// per-call counter — deterministic per seed). §IV explains why
    /// heavy-weight stochastic optimizers don't fit APP; this lightweight
    /// randomization exists so restarts over seeds can be compared
    /// against the deterministic heuristics.
    RandomEdge(u64),
}

impl CycleBreakHeuristic {
    /// The paper's three, in its order of presentation.
    pub const ALL: [CycleBreakHeuristic; 3] = [
        CycleBreakHeuristic::WeakestEdge,
        CycleBreakHeuristic::HeaviestEdge,
        CycleBreakHeuristic::FirstEdge,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CycleBreakHeuristic::WeakestEdge => "weakest-edge",
            CycleBreakHeuristic::HeaviestEdge => "heaviest-edge",
            CycleBreakHeuristic::FirstEdge => "first-edge",
            CycleBreakHeuristic::RandomEdge(_) => "random-edge",
        }
    }

    /// Pick the edge of `cycle` to break. `cycle` must be non-empty; ties
    /// resolve to the earliest edge in cycle order (deterministic).
    /// `calls` is a monotone per-run counter used by the random variant.
    pub fn pick_counted(self, cdg: &Cdg, cycle: &[EdgeId], calls: u64) -> EdgeId {
        assert!(!cycle.is_empty(), "cannot break an empty cycle");
        match self {
            CycleBreakHeuristic::FirstEdge => cycle[0],
            CycleBreakHeuristic::WeakestEdge => cycle
                .iter()
                .copied()
                .min_by_key(|&e| cdg.edge(e).count)
                .unwrap(),
            CycleBreakHeuristic::HeaviestEdge => cycle
                .iter()
                .enumerate()
                .max_by_key(|&(i, &e)| (cdg.edge(e).count, std::cmp::Reverse(i)))
                .map(|(_, &e)| e)
                .unwrap(),
            CycleBreakHeuristic::RandomEdge(seed) => {
                let x = splitmix64(seed ^ calls.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                cycle[(x % cycle.len() as u64) as usize]
            }
        }
    }

    /// [`Self::pick_counted`] for deterministic heuristics (counter 0).
    pub fn pick(self, cdg: &Cdg, cycle: &[EdgeId]) -> EdgeId {
        self.pick_counted(cdg, cycle, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;

    /// CDG with weighted dependencies (weight = repeated add).
    fn weighted(n: usize, deps: &[(u32, u32, u32)]) -> Cdg {
        let mut cdg = Cdg::new(n);
        for &(a, b, w) in deps {
            for _ in 0..w {
                cdg.add_dependency(a, b);
            }
        }
        cdg
    }

    #[test]
    fn weakest_and_heaviest_pick_extremes() {
        let cdg = weighted(3, &[(0, 1, 5), (1, 2, 1), (2, 0, 3)]);
        let cycle = cdg.find_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
        let weakest = CycleBreakHeuristic::WeakestEdge.pick(&cdg, &cycle);
        assert_eq!(cdg.edge(weakest).count, 1);
        let heaviest = CycleBreakHeuristic::HeaviestEdge.pick(&cdg, &cycle);
        assert_eq!(cdg.edge(heaviest).count, 5);
        let first = CycleBreakHeuristic::FirstEdge.pick(&cdg, &cycle);
        assert_eq!(first, cycle[0]);
    }

    #[test]
    fn ties_resolve_deterministically() {
        let cdg = weighted(3, &[(0, 1, 2), (1, 2, 2), (2, 0, 2)]);
        let cycle = cdg.find_cycle().unwrap();
        let a = CycleBreakHeuristic::WeakestEdge.pick(&cdg, &cycle);
        let b = CycleBreakHeuristic::WeakestEdge.pick(&cdg, &cycle);
        assert_eq!(a, b);
        assert_eq!(a, cycle[0], "ties go to earliest cycle edge");
    }

    #[test]
    fn random_edge_is_deterministic_per_seed_and_counter() {
        let cdg = weighted(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        let cycle = cdg.find_cycle().unwrap();
        let h = CycleBreakHeuristic::RandomEdge(42);
        assert_eq!(
            h.pick_counted(&cdg, &cycle, 0),
            h.pick_counted(&cdg, &cycle, 0)
        );
        // Different counters spread over the cycle (statistically: over
        // many counters every edge gets picked).
        let mut seen = std::collections::HashSet::new();
        for calls in 0..64 {
            seen.insert(h.pick_counted(&cdg, &cycle, calls));
        }
        assert_eq!(seen.len(), cycle.len());
        assert_eq!(h.name(), "random-edge");
    }

    #[test]
    fn random_edge_routes_deadlock_free() {
        use crate::engine::RoutingEngine;
        let net = fabric::topo::torus(&[4, 3], 1);
        let engine = crate::DfSssp::with_heuristic(CycleBreakHeuristic::RandomEdge(7));
        let routes = engine.route(&net).unwrap();
        crate::verify::verify_deadlock_free(&net, &routes).unwrap();
    }

    #[test]
    #[should_panic(expected = "empty cycle")]
    fn empty_cycle_rejected() {
        let cdg = Cdg::new(1);
        CycleBreakHeuristic::WeakestEdge.pick(&cdg, &[]);
    }
}
