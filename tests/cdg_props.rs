//! Property sweeps on the channel-dependency-graph machinery: the
//! resumable cycle search against its from-scratch counterpart, and the
//! interchange formats against generated networks.

mod common;

use common::{sweep, Case};
use dfsssp::core::cdg::{Cdg, CycleSearch};
use dfsssp::core::dfsssp::{assign_layers_offline, assign_layers_offline_restart};
use dfsssp::prelude::*;

/// Random digraph as an edge list over `n` nodes, without self-loops.
fn random_digraph(c: &mut Case) -> (usize, Vec<(u32, u32)>) {
    let n = c.draw("n", 3usize..16);
    let len = c.rng.range(0usize..40);
    let edges: Vec<(u32, u32)> = (0..len)
        .map(|_| {
            let a = c.rng.range(0..n as u32);
            // Skip `a` itself: uniform over the other n - 1 nodes.
            let b = c.rng.range(0..n as u32 - 1);
            (a, b + u32::from(b >= a))
        })
        .collect();
    c.note("edges", &edges);
    (n, edges)
}

/// Draining cycles with the resumable search always terminates with an
/// acyclic graph, and it never reports a cycle containing dead edges.
#[test]
fn resumable_search_drains_arbitrary_digraphs() {
    sweep(0..64, |c| {
        let (n, edges) = random_digraph(c);
        let mut cdg = Cdg::new(n);
        for &(a, b) in &edges {
            cdg.add_dependency(a, b);
        }
        let mut search = CycleSearch::new(n);
        let mut rounds = 0;
        while let Some(cycle) = search.next_cycle(&cdg) {
            rounds += 1;
            assert!(rounds <= edges.len() + 1, "non-termination");
            assert!(!cycle.is_empty());
            // The reported cycle chains and is live.
            for w in cycle.windows(2) {
                assert_eq!(cdg.edge(w[0]).to, cdg.edge(w[1]).from);
            }
            let first = cdg.edge(cycle[0]).from;
            let last = cdg.edge(*cycle.last().unwrap()).to;
            assert_eq!(first, last);
            for &e in &cycle {
                assert!(cdg.edge(e).count > 0, "dead edge in reported cycle");
            }
            // Break the cycle like the offline algorithm would: kill one
            // edge entirely.
            let victim = cycle[0];
            cdg.remove_edge(victim);
        }
        assert!(cdg.is_acyclic());
    });
}

/// Resumable and restart-based offline assignment agree on validity
/// (both produce covers) for SSSP paths on random topologies.
#[test]
fn offline_variants_both_produce_covers() {
    sweep(0..64, |c| {
        let switches = c.draw("switches", 4usize..10);
        let seed = c.draw("seed", 0..=u64::MAX);
        let spec = dfsssp::topo::RandomTopoSpec {
            switches,
            radix: 16,
            terminals_per_switch: 2,
            interswitch_links: (switches * 3 / 2).min(switches * (switches - 1) / 2),
        };
        let net = dfsssp::topo::random_topology(&spec, seed);
        let routes = Sssp::new().route(&net).unwrap();
        for assignment in [
            assign_layers_offline(&net, &routes, CycleBreakHeuristic::WeakestEdge, 32, false)
                .unwrap()
                .0,
            assign_layers_offline_restart(&net, &routes, CycleBreakHeuristic::WeakestEdge, 32)
                .unwrap()
                .0,
        ] {
            let mut r = routes.clone();
            r.set_path_layers(&assignment);
            assert!(dfsssp::verify::verify_deadlock_free(&net, &r).is_ok());
        }
    });
}

/// The ibnetdiscover writer/parser round-trips random topologies with
/// exact port preservation.
#[test]
fn ibnetdiscover_round_trips() {
    sweep(0..64, |c| {
        let switches = c.draw("switches", 3usize..8);
        let seed = c.draw("seed", 0..=u64::MAX);
        let spec = dfsssp::topo::RandomTopoSpec {
            switches,
            radix: 12,
            terminals_per_switch: 2,
            interswitch_links: (switches - 1)
                .max(switches)
                .min(switches * (switches - 1) / 2),
        };
        let net = dfsssp::topo::random_topology(&spec, seed);
        let dump = dfsssp::fabric::format::write_ibnetdiscover(&net);
        let back = dfsssp::fabric::format::parse_ibnetdiscover(&dump).unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes());
        assert_eq!(back.num_cables(), net.num_cables());
        back.validate().unwrap();
        // Routing the reparsed fabric behaves identically.
        let a = DfSssp::new().route(&net).unwrap();
        let b = DfSssp::new().route(&back).unwrap();
        assert_eq!(a.num_layers(), b.num_layers());
    });
}
