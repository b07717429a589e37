//! Mutation tests for the `vet` static analyzer.
//!
//! Two angles: (1) DFSSSP artifacts on every topology generator must come
//! back clean — the analyzer has no false positives on correct tables;
//! (2) deliberately corrupted tables must trigger the matching lint code —
//! the analyzer has no false negatives for the defect classes it claims
//! to catch. The seeded sweeps at the bottom repeat the corruptions at
//! random positions on random topologies.

mod common;

use dfsssp::prelude::*;
use fabric::topo::realworld::RealSystem;
use fabric::topo::{self, RandomTopoSpec};
use fabric::{ChannelId, Network, NodeId};
use vet::{LintCode, Severity, Witness};

fn df(net: &Network) -> fabric::Routes {
    DfSssp::new().route(net).expect("DFSSSP routes")
}

/// The channels of the routed path `src -> dst`, plus dst's terminal index.
fn routed_path(
    net: &Network,
    routes: &fabric::Routes,
    src: NodeId,
    dst: NodeId,
) -> (Vec<ChannelId>, usize) {
    let path = routes.path_channels(net, src, dst).expect("walkable path");
    (path, net.terminal_index(dst).unwrap())
}

// ---------------------------------------------------------------------------
// No false positives: DFSSSP is vet-clean on every generator.
// ---------------------------------------------------------------------------

#[test]
fn dfsssp_is_vet_clean_on_every_generator() {
    let mut nets: Vec<(String, Network)> = vec![
        ("ring".into(), topo::ring(6, 2)),
        ("star".into(), topo::star(6)),
        ("fully_connected".into(), topo::fully_connected(4, 2)),
        ("mesh".into(), topo::mesh(&[4, 3], 2)),
        ("torus".into(), topo::torus(&[4, 4], 1)),
        ("hypercube".into(), topo::hypercube(4, 1)),
        ("kary_ntree".into(), topo::kary_ntree(4, 2)),
        ("xgft".into(), topo::xgft(2, &[6, 6], &[3, 3])),
        ("clos2".into(), topo::clos2(24, 4, 6, 3, 3)),
        ("kautz".into(), topo::kautz(2, 2, 24, true)),
        ("dragonfly".into(), topo::dragonfly(4, 2, 2)),
        (
            "random".into(),
            topo::random_topology(
                &RandomTopoSpec {
                    switches: 16,
                    radix: 16,
                    terminals_per_switch: 3,
                    interswitch_links: 28,
                },
                99,
            ),
        ),
    ];
    for sys in RealSystem::ALL {
        nets.push((format!("realworld/{}", sys.name()), sys.build(0.1)));
    }
    for (name, net) in &nets {
        let report = vet::check(net, &df(net));
        assert_eq!(
            report.num_errors(),
            0,
            "{name}: DFSSSP artifact has error findings: {:?}",
            report.diagnostics
        );
        assert!(
            !report.has(LintCode::CdgCycle),
            "{name}: DFSSSP produced a cyclic layer"
        );
        assert_eq!(
            report.stats.pairs_routed, report.stats.pairs,
            "{name}: not every pair routed"
        );
    }
}

// ---------------------------------------------------------------------------
// The acceptance witness: SSSP on a ring must yield a concrete cycle.
// ---------------------------------------------------------------------------

#[test]
fn sssp_on_ring_yields_nonempty_chained_cycle_witness() {
    let net = topo::ring(5, 1);
    let routes = Sssp::new().route(&net).unwrap();
    let report = vet::check(&net, &routes);
    assert!(report.has(LintCode::CdgCycle));
    assert!(!report.clean(), "a cyclic CDG is an error by default");
    let d = report.diagnostics_for(LintCode::CdgCycle).next().unwrap();
    let Witness::CdgCycle { layer, channels } = &d.witness else {
        panic!("V004 must carry a CdgCycle witness, got {:?}", d.witness);
    };
    assert_eq!(*layer, 0);
    assert!(!channels.is_empty(), "cycle witness must not be empty");
    // Consecutive dependencies chain through shared switches, and the
    // last channel feeds the first: a genuine cycle, not a fragment.
    for w in channels.windows(2) {
        assert_eq!(net.channel(w[0]).dst, net.channel(w[1]).src);
    }
    assert_eq!(
        net.channel(*channels.last().unwrap()).dst,
        net.channel(channels[0]).src
    );
}

// ---------------------------------------------------------------------------
// No false negatives: each corruption triggers its lint code.
// ---------------------------------------------------------------------------

#[test]
fn dropping_a_used_entry_is_v002() {
    let net = topo::torus(&[4, 4], 1);
    let mut routes = df(&net);
    let (src, dst) = (net.terminals()[0], net.terminals()[5]);
    let (path, dst_t) = routed_path(&net, &routes, src, dst);
    let first_switch = net.channel(path[0]).dst;
    routes.clear_next(first_switch, dst_t);
    let report = vet::check(&net, &routes);
    assert!(report.has(LintCode::MissingEntry));
    assert!(report.num_errors() > 0, "a used entry is missing: error");
    assert!(report.stats.pairs_broken >= 1);
    assert!(
        report.stats.broken_pairs.contains(&(src, dst)),
        "the broken pair must be sampled: {:?}",
        report.stats.broken_pairs
    );
}

#[test]
fn redirecting_into_a_ping_pong_is_v001() {
    let net = topo::torus(&[4, 4], 1);
    let mut routes = df(&net);
    let (src, dst) = (net.terminals()[0], net.terminals()[5]);
    let (path, dst_t) = routed_path(&net, &routes, src, dst);
    assert!(path.len() >= 3, "need a switch-to-switch hop to corrupt");
    // path[1] is sA -> sB; point sB back at sA. sA still forwards to sB,
    // so the walk ping-pongs forever.
    let hop = net.channel(path[1]);
    let back = net.channel_between(hop.dst, hop.src).unwrap();
    routes.set_next(hop.dst, dst_t, back);
    let report = vet::check(&net, &routes);
    assert!(report.has(LintCode::ForwardingLoop));
    assert!(report.num_errors() > 0);
    let d = report
        .diagnostics_for(LintCode::ForwardingLoop)
        .next()
        .unwrap();
    let Witness::TableLoop { channels, .. } = &d.witness else {
        panic!("V001 must carry a TableLoop witness");
    };
    assert_eq!(channels.len(), 2, "the loop is the 2-channel ping-pong");
}

#[test]
fn out_of_range_channel_is_v003() {
    let net = topo::torus(&[4, 4], 1);
    let mut routes = df(&net);
    let (src, dst) = (net.terminals()[0], net.terminals()[5]);
    let (path, dst_t) = routed_path(&net, &routes, src, dst);
    let first_switch = net.channel(path[0]).dst;
    routes.set_next(
        first_switch,
        dst_t,
        ChannelId(net.num_channels() as u32 + 7),
    );
    let report = vet::check(&net, &routes);
    assert!(report.has(LintCode::InvalidNextHop));
    assert!(report.num_errors() > 0);
}

/// An entry naming a dead cable's channel — in the id space, leaving the
/// node it is programmed at, into a switch — is V003: a degraded view
/// keeps the cable's channels as tombstones, and only their liveness
/// tells them apart. The remapped-route walk (`Routes::path`) refuses it
/// too.
#[test]
fn dead_cable_channel_is_v003() {
    let net = topo::torus(&[4, 4], 1);
    let cable = net.switch_cables()[0];
    let dead = [cable, net.channel(cable).rev.unwrap()];
    let view = fabric::degrade::remove(&net, &Default::default(), &dead.into_iter().collect());
    assert!(!view.is_live_channel(cable) && cable.idx() < view.num_channels());
    let mut routes = df(&view);
    let at = view.channel(cable).src;
    let dst_t = (0..view.num_terminals())
        .find(|&d| view.channel(routes.next_hop(at, d).unwrap()).dst != view.terminals()[d])
        .unwrap();
    routes.set_next(at, dst_t, cable);
    let report = vet::check(&view, &routes);
    let d = report
        .diagnostics_for(LintCode::InvalidNextHop)
        .next()
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(
        matches!(d.witness, Witness::NextHop { node, channel, .. } if node == at && channel == cable.0),
        "{d}"
    );
    assert!(d.message.contains("dead cable"), "{d}");
    let src = (view.terminals().iter().copied())
        .find(|&s| {
            routes
                .path_channels(&view, s, view.terminals()[dst_t])
                .is_err()
        })
        .expect("a source crosses the dead entry");
    let err = routes.path_channels(&view, src, view.terminals()[dst_t]);
    assert!(
        matches!(err, Err(fabric::RoutesError::BadChannel { node, channel }) if node == at && channel == cable.0)
    );
}

#[test]
fn foreign_origin_channel_is_v003() {
    let net = topo::torus(&[4, 4], 1);
    let mut routes = df(&net);
    let (src, dst) = (net.terminals()[0], net.terminals()[5]);
    let (path, dst_t) = routed_path(&net, &routes, src, dst);
    let first_switch = net.channel(path[0]).dst;
    // A perfectly valid channel — that leaves the source terminal, not
    // this switch.
    routes.set_next(first_switch, dst_t, path[0]);
    let report = vet::check(&net, &routes);
    let d = report
        .diagnostics_for(LintCode::InvalidNextHop)
        .next()
        .unwrap();
    assert_eq!(d.severity, Severity::Error);
    assert!(matches!(d.witness, Witness::NextHop { node, .. } if node == first_switch));
}

#[test]
fn stale_tables_for_another_network_are_a_single_v003() {
    let small = topo::ring(5, 1);
    let routes = df(&small);
    let big = topo::ring(6, 1);
    let report = vet::check(&big, &routes);
    assert_eq!(report.count(LintCode::InvalidNextHop), 1);
    assert!(report.num_errors() > 0);
    assert!(matches!(
        report.diagnostics[0].witness,
        Witness::Shape { .. }
    ));
}

#[test]
fn layer_overflow_and_imbalance_are_v005() {
    // DFSSSP needs >= 2 layers on a torus; a 1-VL switch cannot hold that.
    let net = topo::torus(&[4, 4], 1);
    let routes = df(&net);
    assert!(routes.num_layers() >= 2);
    let tight = vet::Config {
        hw_vls: Some(1),
        ..vet::Config::default()
    };
    let report = vet::analyze_with(&net, &routes, &tight);
    assert!(report.has(LintCode::VlOutOfRange));
    assert!(report.num_errors() > 0);
    // With enough VLs the same artifact passes.
    let roomy = vet::Config {
        hw_vls: Some(routes.num_layers()),
        ..vet::Config::default()
    };
    assert!(vet::analyze_with(&net, &routes, &roomy).clean());

    // Bumping one pair onto layer 7 of an otherwise single-layer artifact
    // leaves layers 1..=6 empty: gross imbalance, flagged as a warning.
    let tree = topo::kary_ntree(2, 2);
    let mut routes = Sssp::new().route(&tree).unwrap();
    assert_eq!(routes.num_layers(), 1, "SSSP never adds layers");
    routes.set_layer(0, 1, 7);
    let report = vet::check(&tree, &routes);
    assert!(report.has(LintCode::VlOutOfRange));
    assert!(report.num_warnings() > 0);
    let d = report
        .diagnostics_for(LintCode::VlOutOfRange)
        .next()
        .unwrap();
    assert!(matches!(d.witness, Witness::LayerHistogram { .. }));
}

#[test]
fn detour_is_v006_with_stretch() {
    // ring(5): s0's minimal route to t2 goes s0 -> s1 -> s2 (4 hops
    // terminal to terminal). Send it the long way round instead.
    let net = topo::ring(5, 1);
    let mut routes = df(&net);
    let (s, t) = (net.switches(), net.terminals());
    let long_way = net.channel_between(s[0], s[4]).unwrap();
    routes.set_next(s[0], 2, long_way);
    let report = vet::check(&net, &routes);
    assert!(report.has(LintCode::NonMinimalPath));
    let d = report
        .diagnostics_for(LintCode::NonMinimalPath)
        .next()
        .unwrap();
    let Witness::Stretch {
        src,
        dst,
        hops,
        minimal,
    } = d.witness
    else {
        panic!("V006 must carry a Stretch witness");
    };
    assert_eq!((src, dst), (t[0], t[2]));
    assert_eq!((hops, minimal), (5, 4));
    // A detour alone is a warning; the artifact still walks and is
    // deadlock-free, so the report stays clean.
    assert!(report.clean());
    // Engines that are non-minimal by design can opt out.
    let cfg = vet::Config {
        check_minimal: false,
        ..vet::Config::default()
    };
    assert!(!vet::analyze_with(&net, &routes, &cfg).has(LintCode::NonMinimalPath));
}

// ---------------------------------------------------------------------------
// Randomized mutation properties (satellite: property tests).
// ---------------------------------------------------------------------------

mod random_mutations {
    use super::*;
    use common::{sweep, Case};

    fn small_random(seed: u64) -> Network {
        topo::random_topology(
            &RandomTopoSpec {
                switches: 10,
                radix: 10,
                terminals_per_switch: 2,
                interswitch_links: 16,
            },
            seed,
        )
    }

    /// Pick a distinct ordered terminal pair from an arbitrary index.
    fn pick_pair(net: &Network, pick: usize) -> (NodeId, NodeId) {
        let ts = net.terminals();
        let n = ts.len();
        let src = ts[pick % n];
        let step = 1 + (pick / n) % (n - 1);
        (src, ts[(pick % n + step) % n])
    }

    /// The pair picker must never alias src and dst, whatever the index.
    #[test]
    fn pick_pair_is_always_distinct() {
        let net = small_random(3);
        for pick in 0..200 {
            let (src, dst) = pick_pair(&net, pick);
            assert_ne!(src, dst);
        }
    }

    /// Redraw until the case satisfies the assumption its property needs.
    fn draw_until<T>(c: &mut Case, draw: impl Fn(&mut Case) -> Option<T>) -> T {
        (0..64)
            .find_map(|_| draw(c))
            .expect("assumption never held in 64 draws")
    }

    #[test]
    fn dfsssp_on_random_topologies_is_clean() {
        sweep(0..24, |c| {
            let net = small_random(c.draw("seed", 0u64..64));
            let report = vet::check(&net, &df(&net));
            assert_eq!(report.num_errors(), 0);
            assert!(!report.has(LintCode::CdgCycle));
        });
    }

    #[test]
    fn dropping_any_used_entry_is_caught() {
        sweep(0..24, |c| {
            let net = small_random(c.draw("seed", 0u64..64));
            let mut routes = df(&net);
            let (src, dst) = pick_pair(&net, c.draw("pick", 0usize..10_000));
            let (path, dst_t) = routed_path(&net, &routes, src, dst);
            routes.clear_next(net.channel(path[0]).dst, dst_t);
            let report = vet::check(&net, &routes);
            assert!(report.has(LintCode::MissingEntry));
            assert!(report.num_errors() > 0);
            assert!(report.stats.pairs_broken >= 1);
        });
    }

    #[test]
    fn any_garbage_next_hop_is_caught() {
        sweep(0..24, |c| {
            let net = small_random(c.draw("seed", 0u64..64));
            let mut routes = df(&net);
            let pick = c.draw("pick", 0usize..10_000);
            let (src, dst) = pick_pair(&net, pick);
            let (path, dst_t) = routed_path(&net, &routes, src, dst);
            let garbage = ChannelId((net.num_channels() + 1 + pick % 100) as u32);
            routes.set_next(net.channel(path[0]).dst, dst_t, garbage);
            let report = vet::check(&net, &routes);
            assert!(report.has(LintCode::InvalidNextHop));
            assert!(report.num_errors() > 0);
        });
    }

    #[test]
    fn any_induced_ping_pong_is_caught() {
        sweep(0..24, |c| {
            let net = small_random(c.draw("seed", 0u64..64));
            let mut routes = df(&net);
            // Need a switch-to-switch hop to reverse; direct neighbors
            // (terminal -> switch -> terminal) have none.
            let (path, dst_t) = draw_until(c, |c| {
                let (src, dst) = pick_pair(&net, c.draw("pick", 0usize..10_000));
                Some(routed_path(&net, &routes, src, dst)).filter(|(path, _)| path.len() >= 3)
            });
            let hop = net.channel(path[1]);
            let back = net.channel_between(hop.dst, hop.src).unwrap();
            routes.set_next(hop.dst, dst_t, back);
            let report = vet::check(&net, &routes);
            assert!(report.has(LintCode::ForwardingLoop));
            assert!(report.num_errors() > 0);
        });
    }

    /// A sideways first hop for `src -> dst`: a neighbor switch of the
    /// first switch at the same distance to `dst` whose own route does
    /// not come back through the first switch.
    fn sideways_detour(
        net: &Network,
        routes: &fabric::Routes,
        src: NodeId,
        dst: NodeId,
    ) -> Option<(NodeId, usize, ChannelId)> {
        let (path, dst_t) = routed_path(net, routes, src, dst);
        let first_switch = net.channel(path[0]).dst;
        let hops = net.hops_to(dst);
        let detour = net.out_channels(first_switch).iter().copied().find(|&c| {
            let ch = net.channel(c);
            if !net.is_switch(ch.dst) || hops[ch.dst.idx()] != hops[first_switch.idx()] {
                return false;
            }
            // The neighbor's existing path must avoid first_switch.
            let mut at = ch.dst;
            loop {
                match routes.next_hop(at, dst_t) {
                    Some(n) => at = net.channel(n).dst,
                    None => return false,
                }
                if at == first_switch {
                    return false;
                }
                if at == dst {
                    return true;
                }
            }
        })?;
        Some((first_switch, dst_t, detour))
    }

    #[test]
    fn any_single_detour_is_at_worst_a_warning() {
        // Rerouting one pair over a longer (loop-free) path must never
        // produce an *error*: vet separates "broken" from "wasteful".
        sweep(0..24, |c| {
            let (net, mut routes, (first_switch, dst_t, detour)) = draw_until(c, |c| {
                let seed = c.draw("seed", 0u64..32);
                let net = small_random(seed);
                let routes = df(&net);
                let (src, dst) = pick_pair(&net, seed as usize);
                let found = sideways_detour(&net, &routes, src, dst)?;
                Some((net, routes, found))
            });
            routes.set_next(first_switch, dst_t, detour);
            let report = vet::check(&net, &routes);
            assert!(report.has(LintCode::NonMinimalPath));
            assert_eq!(
                report
                    .diagnostics_for(LintCode::NonMinimalPath)
                    .filter(|d| d.severity == Severity::Error)
                    .count(),
                0
            );
        });
    }
}
