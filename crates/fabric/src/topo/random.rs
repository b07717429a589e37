//! Random irregular switch topologies (Fig 9 and the §IV heuristic study).
//!
//! The paper's random networks consist of a fixed number of switches with a
//! fixed number of terminals each, connected by a configurable number of
//! random inter-switch cables. We guarantee connectivity by first building
//! a random spanning tree, then adding the remaining cables uniformly at
//! random between switches with free ports (no parallel cables, no
//! self-loops).

use super::attach_terminals;
use crate::graph::NodeId;
use crate::rng::Rng;
use crate::{Network, NetworkBuilder};
use telemetry::fx::FxHashSet;

/// Parameters of a random topology.
#[derive(Clone, Debug)]
pub struct RandomTopoSpec {
    /// Number of switches.
    pub switches: usize,
    /// Switch radix (ports per switch).
    pub radix: u16,
    /// Terminals attached to every switch.
    pub terminals_per_switch: usize,
    /// Total number of inter-switch cables, including the spanning tree
    /// (must be at least `switches - 1`).
    pub interswitch_links: usize,
}

impl RandomTopoSpec {
    /// The paper's Fig 9 configuration: 128 32-port switches, 16 terminals
    /// each, with a variable number of inter-switch cables.
    pub fn fig9(interswitch_links: usize) -> Self {
        RandomTopoSpec {
            switches: 128,
            radix: 32,
            terminals_per_switch: 16,
            interswitch_links,
        }
    }

    /// The §IV heuristic-study configuration: 64 switches, 1024 terminals,
    /// 128 inter-switch cables. 36-port switches fit 16 terminals plus the
    /// random cables.
    pub fn heuristic_study() -> Self {
        RandomTopoSpec {
            switches: 64,
            radix: 36,
            terminals_per_switch: 16,
            interswitch_links: 128,
        }
    }
}

/// Generate a random topology per `spec`, deterministically from `seed`.
///
/// # Panics
/// Panics if the spec is infeasible (too few links for a spanning tree, or
/// not enough ports for terminals plus the requested links).
pub fn random_topology(spec: &RandomTopoSpec, seed: u64) -> Network {
    assert!(spec.switches >= 2, "need at least two switches");
    assert!(
        spec.interswitch_links >= spec.switches - 1,
        "need at least switches-1 links for connectivity"
    );
    let free_ports = spec.radix as usize - spec.terminals_per_switch;
    assert!(
        spec.terminals_per_switch < spec.radix as usize,
        "terminals exceed radix"
    );
    assert!(
        2 * spec.interswitch_links <= spec.switches * free_ports,
        "not enough free ports for the requested links"
    );

    let mut rng = Rng::seed_from_u64(seed);
    let mut b = NetworkBuilder::new();
    b.label(format!(
        "random(s{},r{},t{},l{};seed{seed})",
        spec.switches, spec.radix, spec.terminals_per_switch, spec.interswitch_links
    ));
    let switches: Vec<NodeId> = (0..spec.switches)
        .map(|i| b.add_switch(format!("s{i}"), spec.radix))
        .collect();

    // Terminals first so the port budget for cables is exact.
    let mut tid = 0;
    for &s in &switches {
        attach_terminals(&mut b, s, spec.terminals_per_switch, &mut tid);
    }

    // Random spanning tree: random permutation, attach each new switch to
    // a random predecessor that still has free ports.
    let mut order: Vec<usize> = (0..spec.switches).collect();
    rng.shuffle(&mut order);
    let mut cabled: FxHashSet<(usize, usize)> = FxHashSet::default();
    for i in 1..order.len() {
        // Pick a random earlier switch with a free port; the tree uses at
        // most 2 ports per switch on average, so one always exists.
        let mut j = rng.range(0..i);
        let mut tries = 0;
        while b.free_ports(switches[order[j]]) == 0 {
            j = rng.range(0..i);
            tries += 1;
            assert!(tries < 10_000, "spanning tree construction starved");
        }
        let (u, v) = (order[j], order[i]);
        b.link(switches[u], switches[v]).unwrap();
        cabled.insert((u.min(v), u.max(v)));
    }

    // Remaining random cables: uniform over switch pairs with free ports.
    let mut remaining = spec.interswitch_links - (spec.switches - 1);
    let mut tries = 0usize;
    let try_budget = 1000 * spec.interswitch_links + 100_000;
    while remaining > 0 {
        tries += 1;
        assert!(
            tries < try_budget,
            "random link placement starved; spec too dense for no-parallel-cables rule"
        );
        let u = rng.range(0..spec.switches);
        let v = rng.range(0..spec.switches);
        if u == v || cabled.contains(&(u.min(v), u.max(v))) {
            continue;
        }
        if b.free_ports(switches[u]) == 0 || b.free_ports(switches[v]) == 0 {
            continue;
        }
        b.link(switches[u], switches[v]).unwrap();
        cabled.insert((u.min(v), u.max(v)));
        remaining -= 1;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let spec = RandomTopoSpec {
            switches: 16,
            radix: 16,
            terminals_per_switch: 4,
            interswitch_links: 30,
        };
        let a = random_topology(&spec, 7);
        let b = random_topology(&spec, 7);
        assert_eq!(a.num_channels(), b.num_channels());
        for ((_, ca), (_, cb)) in a.channels().zip(b.channels()) {
            assert_eq!(ca.src, cb.src);
            assert_eq!(ca.dst, cb.dst);
        }
        let c = random_topology(&spec, 8);
        let same = a
            .channels()
            .zip(c.channels())
            .all(|((_, x), (_, y))| x.src == y.src && x.dst == y.dst);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn link_count_and_connectivity() {
        let spec = RandomTopoSpec {
            switches: 32,
            radix: 24,
            terminals_per_switch: 8,
            interswitch_links: 64,
        };
        for seed in 0..5 {
            let net = random_topology(&spec, seed);
            assert!(net.is_strongly_connected());
            let switch_cables = net.num_cables() - net.num_terminals();
            assert_eq!(switch_cables, 64);
            assert_eq!(net.num_terminals(), 32 * 8);
            net.validate().unwrap();
        }
    }

    #[test]
    fn fig9_spec_is_feasible() {
        let net = random_topology(&RandomTopoSpec::fig9(200), 1);
        assert_eq!(net.num_switches(), 128);
        assert_eq!(net.num_terminals(), 2048);
        assert!(net.is_strongly_connected());
    }

    #[test]
    fn heuristic_study_spec_is_feasible() {
        let net = random_topology(&RandomTopoSpec::heuristic_study(), 1);
        assert_eq!(net.num_switches(), 64);
        assert_eq!(net.num_terminals(), 1024);
        assert!(net.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "not enough free ports")]
    fn infeasible_spec_rejected() {
        let spec = RandomTopoSpec {
            switches: 4,
            radix: 4,
            terminals_per_switch: 3,
            interswitch_links: 10,
        };
        random_topology(&spec, 0);
    }
}
