//! Property sweeps on the topology generators: structural invariants
//! every network family must satisfy.

mod common;

use common::sweep;
use dfsssp::prelude::*;

fn check_basics(net: &Network) {
    net.validate().unwrap();
    assert!(net.is_strongly_connected(), "{} disconnected", net.label());
    // Every terminal has at least one attachment and at most 2 ports.
    for &t in net.terminals() {
        assert!(!net.out_channels(t).is_empty());
    }
    // Channel endpoints consistent with num_cables.
    assert!(net.num_cables() * 2 >= net.num_channels());
}

#[test]
fn rings_are_sound() {
    sweep(0..32, |c| {
        let n = c.draw("n", 3usize..24);
        let t = c.draw("t", 1usize..4);
        let net = dfsssp::topo::ring(n, t);
        check_basics(&net);
        assert_eq!(net.num_switches(), n);
        assert_eq!(net.num_terminals(), n * t);
        // Ring diameter: floor(n/2) switch hops + 2 terminal hops.
        assert_eq!(net.diameter(), Some(n / 2 + 2));
    });
}

#[test]
fn tori_are_sound() {
    sweep(0..32, |c| {
        let a = c.draw("a", 2u16..6);
        let b = c.draw("b", 2u16..6);
        let t = c.draw("t", 1usize..3);
        let net = dfsssp::topo::torus(&[a, b], t);
        check_basics(&net);
        assert_eq!(net.num_switches(), (a * b) as usize);
        // Torus switch diameter: sum of per-dim half-extents.
        let d = (a / 2 + b / 2) as usize + 2;
        assert_eq!(net.diameter(), Some(d));
    });
}

#[test]
fn meshes_are_sound() {
    sweep(0..32, |c| {
        let a = c.draw("a", 2u16..6);
        let b = c.draw("b", 2u16..6);
        let net = dfsssp::topo::mesh(&[a, b], 1);
        check_basics(&net);
        let d = (a + b - 2) as usize + 2;
        assert_eq!(net.diameter(), Some(d));
    });
}

#[test]
fn kary_ntrees_are_sound() {
    sweep(0..32, |c| {
        let k = c.draw("k", 2usize..6);
        let n = c.draw("n", 1usize..4);
        let net = dfsssp::topo::kary_ntree(k, n);
        check_basics(&net);
        assert_eq!(net.num_terminals(), k.pow(n as u32));
        assert_eq!(net.num_switches(), n * k.pow((n - 1) as u32));
    });
}

#[test]
fn xgfts_are_sound() {
    sweep(0..32, |c| {
        let (m1, m2) = (c.draw("m1", 2usize..6), c.draw("m2", 2usize..6));
        let (w1, w2) = (c.draw("w1", 1usize..3), c.draw("w2", 1usize..3));
        let net = dfsssp::topo::xgft(2, &[m1, m2], &[w1, w2]);
        check_basics(&net);
        assert_eq!(net.num_terminals(), m1 * m2);
        // Terminals have exactly w1 attachments.
        for &t in net.terminals() {
            assert_eq!(net.out_channels(t).len(), w1);
        }
    });
}

#[test]
fn kautz_graphs_are_sound() {
    sweep(0..32, |c| {
        let b = c.draw("b", 2usize..5);
        let n = c.draw("n", 1usize..4);
        let bidir = c.draw("bidir", 0u8..=1) == 1;
        let terms = (b + 1) * b.pow(n as u32); // one per switch
        let net = dfsssp::topo::kautz(b, n, terms, bidir);
        check_basics(&net);
        assert_eq!(net.num_switches(), (b + 1) * b.pow(n as u32));
        assert_eq!(net.num_terminals(), terms);
    });
}

#[test]
fn dragonflies_are_sound() {
    sweep(0..32, |c| {
        let a = c.draw("a", 2usize..5);
        let p = c.draw("p", 1usize..3);
        let h = c.draw("h", 1usize..3);
        let net = dfsssp::topo::dragonfly(a, p, h);
        check_basics(&net);
        let g = a * h + 1;
        assert_eq!(net.num_switches(), g * a);
        assert_eq!(net.num_terminals(), g * a * p);
        // Dragonfly diameter <= 2 (terminal) + local+global+local.
        assert!(net.diameter().unwrap() <= 5 + 2);
    });
}

#[test]
fn degradation_preserves_what_it_claims() {
    sweep(0..32, |c| {
        let a = c.draw("a", 3u16..6);
        let b = c.draw("b", 3u16..6);
        let cuts = c.draw("cuts", 1usize..8);
        let seed = c.draw("seed", 0..=u64::MAX);
        let net = dfsssp::topo::torus(&[a, b], 1);
        let (degraded, removed) = dfsssp::fabric::degrade::fail_random_cables(&net, cuts, seed);
        assert!(removed <= cuts);
        assert!(degraded.is_strongly_connected());
        assert_eq!(degraded.num_terminals(), net.num_terminals());
        assert_eq!(degraded.num_cables(), net.num_cables() - removed);
        degraded.validate().unwrap();
        // The degraded network is still routable deadlock-free.
        let routes = DfSssp::new().route(&degraded).unwrap();
        dfsssp::verify::verify_deadlock_free(&degraded, &routes).unwrap();
    });
}

#[test]
fn text_format_round_trips_random_networks() {
    sweep(0..32, |c| {
        let switches = c.draw("switches", 3usize..10);
        let t = c.draw("t", 1usize..3);
        let seed = c.draw("seed", 0..=u64::MAX);
        let spec = dfsssp::topo::RandomTopoSpec {
            switches,
            radix: 16,
            terminals_per_switch: t,
            interswitch_links: (switches - 1)
                .max(switches * 3 / 2)
                .min(switches * (switches - 1) / 2),
        };
        let net = dfsssp::topo::random_topology(&spec, seed);
        let text = dfsssp::fabric::format::write_network(&net);
        let back = dfsssp::fabric::format::parse_network(&text).unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes());
        assert_eq!(back.num_channels(), net.num_channels());
        let json = dfsssp::fabric::format::network_to_json(&net);
        let back2 = dfsssp::fabric::format::network_from_json(&json).unwrap();
        assert_eq!(back2.num_cables(), net.num_cables());
    });
}

/// Every node's row of `HopTable::of(net)` is `net.hops_to` of it, each
/// written over the one before it.
fn assert_hop_rows(net: &Network, what: &str) {
    let table = dfsssp::fabric::HopTable::of(net);
    let mut row = vec![7; 3];
    for (dst, _) in net.nodes() {
        table.row_into(dst, &mut row);
        assert_eq!(row, net.hops_to(dst), "{what}: row of {dst:?}");
    }
}

/// `HopTable` derives each row from the switches' rows, which holds
/// because terminals never relay: over the generator zoo as drawn, with a
/// switch cable down and with a switch down (views that may strand
/// nodes), and on one hand-built fabric with a multi-homed terminal, a
/// terminal–terminal cable, a one-way switch channel, a switch only
/// that channel reaches, and an unreachable island.
#[test]
fn hop_table_rows_are_hops_to() {
    use dfsssp::fabric::degrade::remove;
    use telemetry::fx::FxHashSet;
    sweep(0..96, |c| {
        let net = common::zoo_net(c);
        assert_hop_rows(&net, "as drawn");
        let cables = net.switch_cables();
        if !cables.is_empty() {
            let cable = cables[c.draw("cable", 0..cables.len())];
            let dead = [Some(cable), net.channel(cable).rev];
            let view = remove(
                &net,
                &FxHashSet::default(),
                &dead.into_iter().flatten().collect(),
            );
            assert_hop_rows(&view, "one cable down");
        }
        let switch = net.switches()[c.draw("switch", 0..net.num_switches())];
        let view = remove(&net, &[switch].into_iter().collect(), &FxHashSet::default());
        assert_hop_rows(&view, "one switch down");
    });

    let mut b = dfsssp::fabric::NetworkBuilder::new();
    let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 8)).collect();
    let t: Vec<_> = (0..5).map(|i| b.add_terminal(format!("t{i}"))).collect();
    for (u, v) in [
        (s[0], s[1]),
        (t[0], s[0]),
        (t[0], s[1]),
        (t[1], t[2]),
        (t[2], s[0]),
    ] {
        b.link(u, v).unwrap();
    }
    b.add_channel(s[1], s[2]).unwrap();
    b.link(t[3], s[2]).unwrap();
    b.link(t[4], s[3]).unwrap();
    let net = b.build();
    let t3 = net.hops_to(t[3]);
    assert_eq!((t3[t[0].idx()], t3[t[1].idx()]), (3, u32::MAX));
    assert_eq!(net.hops_to(t[0])[t[3].idx()], u32::MAX);
    assert_hop_rows(&net, "hand-built");
}
