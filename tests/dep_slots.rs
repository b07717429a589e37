//! The dependency-slot index (`fabric::DepSlots`) and the three things
//! rebuilt on it, each against an oracle that shares none of its code:
//! the index against the network's own adjacency, the two-pass CDG
//! population against the `add_path` loop it replaced, `vet`'s table
//! walk against a per-pair walk collected into hash sets, and
//! `PathSet::extract` against the per-pair `PathIter` it used to be. One
//! sweep over the generator zoo, degraded views included.

mod common;

use common::{sweep, Case};
use dfsssp::core::cdg::{Cdg, CycleSearch};
use dfsssp::core::paths::PathSet;
use dfsssp::prelude::*;
use dfsssp::telemetry::fx::FxHashSet;
use fabric::topo::{self, RandomTopoSpec};
use fabric::{degrade, ChannelId, DepSlots};
use std::cell::Cell;
use std::collections::HashSet;

/// One fabric of the generator zoo; two cases in three lose up to three
/// redundant cables through `degrade::remove`.
fn zoo_net(c: &mut Case) -> Network {
    let net = match c.draw("generator", 0..12) {
        0 => topo::ring(
            c.draw("switches", 3usize..8),
            c.draw("terminals", 1usize..3),
        ),
        1 => topo::star(c.draw("terminals", 2usize..8)),
        2 => topo::fully_connected(c.draw("switches", 3usize..6), 2),
        3 => topo::mesh(&[c.draw("x", 2u16..5), c.draw("y", 2u16..4)], 1),
        4 => topo::torus(&[c.draw("x", 3u16..5), c.draw("y", 3u16..5)], 1),
        5 => topo::hypercube(c.draw("dim", 2u32..5), 1),
        6 => topo::kary_ntree(c.draw("k", 2usize..5), 2),
        7 => topo::xgft(2, &[4, 3], &[2, 2]),
        8 => topo::clos2(16, 4, 4, 2, 2),
        9 => topo::kautz(2, 2, 12, c.draw("bidirectional", 0..2) == 1),
        10 => topo::dragonfly(c.draw("a", 2usize..4), 1, 1),
        _ => {
            let switches = c.draw("switches", 6usize..12);
            let spec = RandomTopoSpec {
                switches,
                radix: 12,
                terminals_per_switch: 2,
                interswitch_links: switches + c.draw("extra_links", 0usize..8),
            };
            topo::random_topology(&spec, c.draw("seed", 0u64..1000))
        }
    };
    let spare = degrade::redundant_cables(&net);
    let cut = c.draw("cut", 0usize..4).min(spare.len());
    let dead: FxHashSet<ChannelId> = (0..cut)
        .map(|_| spare[c.rng.range(0..spare.len())])
        .flat_map(|cable| [Some(cable), net.channel(cable).rev])
        .flatten()
        .collect();
    c.note("dead", &dead);
    degrade::remove(&net, &FxHashSet::default(), &dead)
}

/// `DepSlots::of` numbers the adjacent channel pairs — `c2` leaves the
/// node `c1` enters — in ascending order, each exactly once, and nothing
/// else: Σ_c outdeg(head(c)) slots.
#[test]
fn slots_are_a_bijection_onto_adjacent_channel_pairs() {
    sweep(0..96, |c| {
        let net = zoo_net(c);
        let slots = DepSlots::of(&net);
        // Adjacency rows ascend, so this enumeration does too.
        let mut pairs = Vec::new();
        for (c1, ch) in net.channels() {
            let successors = net.out_channels(ch.dst);
            assert_eq!(slots.row(c1.0).len(), successors.len(), "row of {c1:?}");
            pairs.extend(successors.iter().map(|c2| (c1.0, c2.0)));
        }
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(slots.num_slots(), pairs.len());
        assert_eq!(slots.num_channels(), net.num_channels());
        for (slot, &(c1, c2)) in pairs.iter().enumerate() {
            assert_eq!(slots.slot(c1, c2), slot, "({c1}, {c2})");
            assert_eq!(slots.ends(slot), (c1, c2), "slot {slot}");
            assert!(slots.row(c1).contains(&slot), "slot {slot} outside its row");
        }
        // The all-pairs index `Cdg::new(n)` stands on: `from · n + to`.
        let n = c.draw("n", 0usize..7);
        let complete = DepSlots::complete(n);
        assert_eq!((complete.num_slots(), complete.num_channels()), (n * n, n));
        for (from, to) in (0..n as u32).flat_map(|a| (0..n as u32).map(move |b| (a, b))) {
            let slot = from as usize * n + to as usize;
            assert_eq!(complete.slot(from, to), slot);
            assert_eq!(complete.ends(slot), (from, to));
        }
    });
}

/// Routes `net` with `engine`, if the (possibly degraded) view still
/// connects every pair.
fn route(net: &Network, engine: &dyn RoutingEngine) -> Option<Routes> {
    net.is_strongly_connected()
        .then(|| engine.route_in(net, &ComputeCtx::seq()).expect("routes"))
}

/// `Cdg::of_paths` is the `add_path` loop: same edge ids (handed out in
/// first-appearance order), counts and path lists — and, because
/// `out[from]` is pushed to exactly when an id is handed out, the same
/// `out` order, which the resumable search then shows by reporting the
/// same cycles step by step while Algorithm 2's moves drain both graphs.
#[test]
fn bulk_cdg_population_equals_the_add_path_loop() {
    let (routed, cyclic) = (Cell::new(0), Cell::new(0));
    sweep(0..64, |c| {
        let net = zoo_net(c);
        let Some(routes) = route(&net, &Sssp::new()) else {
            return;
        };
        routed.set(routed.get() + 1);
        let ps = PathSet::extract(&net, &routes).unwrap();
        let mut bulk = Cdg::of_paths(&ps);
        let mut looped = Cdg::over(ps.slots().clone());
        for p in ps.ids() {
            looped.add_path(&ps, p);
        }
        assert_eq!(bulk.num_paths(), looped.num_paths());
        assert_eq!(bulk.num_edges(), looped.num_edges());
        let mut layer = vec![0u8; ps.len()];
        for e in 0..bulk.num_edges() as u32 {
            let (a, b) = (bulk.edge(e), looped.edge(e));
            assert_eq!((a.from, a.to, a.count), (b.from, b.to, b.count), "edge {e}");
            let paths = bulk.live_paths_of(e, &layer, 0);
            assert_eq!(paths, looped.live_paths_of(e, &layer, 0), "edge {e}");
            assert_eq!(paths.len(), a.count as usize, "edge {e}");
            assert!(paths.windows(2).all(|w| w[0] < w[1]), "edge {e} ascends");
        }
        let mut searches = [bulk.num_channels(), looped.num_channels()].map(CycleSearch::new);
        let mut next = Cdg::over(ps.slots().clone());
        loop {
            let cycle = searches[0].next_cycle(&bulk);
            assert_eq!(cycle, searches[1].next_cycle(&looped));
            let Some(cycle) = cycle else { break };
            cyclic.set(cyclic.get() + 1);
            let victims = bulk.live_paths_of(cycle[0], &layer, 0);
            assert_eq!(victims, looped.live_paths_of(cycle[0], &layer, 0));
            for p in victims {
                bulk.remove_path(&ps, p);
                looped.remove_path(&ps, p);
                // A moved path is listed where it went and filtered where it was.
                next.add_path(&ps, p);
                layer[p as usize] = 1;
            }
            assert_eq!(bulk.num_edges(), looped.num_edges());
        }
        let moved = layer.iter().filter(|&&l| l == 1).count();
        assert_eq!(
            (next.num_paths(), bulk.num_paths()),
            (moved, ps.len() - moved)
        );
    });
    assert!(routed.get() >= 32, "only {} cases routed", routed.get());
    assert!(cyclic.get() > 0, "no case had a cycle to break");
}

/// Damage `routes` the four ways `tests/vet_mutations.rs` does, at a
/// drawn pair: a dropped entry, a channel the network does not have, a
/// channel that leaves another node, a two-switch loop.
fn corrupt(c: &mut Case, net: &Network, routes: &mut Routes) {
    let ts = net.terminals();
    let (src, dst_t) = (ts[c.draw("src", 0..ts.len())], c.draw("dst", 0..ts.len()));
    if src == ts[dst_t] {
        return; // left intact: clean artifacts are part of the sweep
    }
    let path = routes.path_channels(net, src, ts[dst_t]).unwrap();
    let first = net.channel(path[0]).dst;
    if first == ts[dst_t] {
        return;
    }
    let hop = net.channel(path[1]);
    match (
        c.draw("corruption", 0..4),
        net.channel_between(hop.dst, hop.src),
    ) {
        (0, _) => routes.clear_next(first, dst_t),
        (1, _) => routes.set_next(first, dst_t, ChannelId(net.num_channels() as u32 + 3)),
        (3, Some(back)) if hop.dst != ts[dst_t] => routes.set_next(hop.dst, dst_t, back),
        _ => routes.set_next(first, dst_t, path[0]),
    }
}

/// The naive walk `vet`'s destination-coloured pass replaced: every
/// ordered pair on its own, its consecutive channels into the set of the
/// pair's layer if the whole walk is usable.
fn per_pair_edges(net: &Network, routes: &Routes) -> Vec<HashSet<(u32, u32)>> {
    if routes.num_nodes() != net.num_nodes() || routes.num_terminals() != net.num_terminals() {
        return Vec::new();
    }
    let mut edges = vec![HashSet::new(); routes.num_layers() as usize];
    for (src_t, &src) in net.terminals().iter().enumerate() {
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let (mut at, mut path) = (src, Vec::new());
            while at != dst && path.len() <= net.num_nodes() {
                let usable = routes
                    .next_hop(at, dst_t)
                    .filter(|c| c.idx() < net.num_channels())
                    .map(|c| (c, net.channel(c)))
                    .filter(|(_, ch)| ch.src == at && (ch.dst == dst || net.is_switch(ch.dst)));
                let Some((c, ch)) = usable else { break };
                path.push(c.0);
                at = ch.dst;
            }
            let layer = routes.layer(src_t, dst_t) as usize;
            if at == dst && layer < edges.len() {
                edges[layer].extend(path.windows(2).map(|w| (w[0], w[1])));
            }
        }
    }
    edges
}

/// `vet::dependency_edges` — slot bitmaps filled by one coloured pass per
/// destination — holds exactly the per-pair walk's edges: on clean,
/// multi-layer, broken and wrong-shape artifacts.
#[test]
fn dependency_edges_equal_a_per_pair_walk() {
    let (layered, broken) = (Cell::new(0), Cell::new(0));
    sweep(0..64, |c| {
        let net = zoo_net(c);
        let engines: [&dyn RoutingEngine; 2] = [&Sssp::new(), &DfSssp::new()];
        let Some(mut routes) = route(&net, engines[c.draw("engine", 0..2)]) else {
            return;
        };
        corrupt(c, &net, &mut routes);
        layered.set(layered.get() + usize::from(routes.num_layers() > 1));
        broken.set(broken.get() + usize::from(routes.validate_connectivity(&net).is_err()));
        let other = topo::ring(net.num_nodes() + 1, 1);
        for on in [&net, &other] {
            let (walked, naive) = (
                vet::dependency_edges(on, &routes),
                per_pair_edges(on, &routes),
            );
            assert_eq!(walked.len(), naive.len(), "layers on {}", on.label());
            for (layer, (set, naive)) in walked.iter().zip(&naive).enumerate() {
                assert_eq!(&set.iter().collect::<HashSet<_>>(), naive, "layer {layer}");
                assert_eq!((set.len(), set.is_empty()), (naive.len(), naive.is_empty()));
                assert!(naive.iter().all(|e| set.contains(e)), "layer {layer}");
                assert!(!set.contains(&(0, 0)), "a channel never follows itself");
            }
        }
        assert!(vet::dependency_edges(&other, &routes).is_empty());
        let stats = vet::analyze(&net, &routes).stats;
        let sizes: Vec<usize> = per_pair_edges(&net, &routes)
            .iter()
            .map(|e| e.len())
            .collect();
        assert_eq!(stats.edges_per_layer, sizes);
    });
    let (layered, broken) = (layered.get(), broken.get());
    assert!(
        layered >= 4 && broken >= 8,
        "{layered} layered, {broken} broken"
    );
}

/// `PathSet::extract` — one validated tree pass, then an unchecked fill
/// — accepts and rejects exactly what the per-pair `PathIter` walk it
/// used to be does, and stores the same channels in the same order.
#[test]
fn extract_rejects_corrupt_tables_where_the_per_pair_walk_did() {
    let rejected = Cell::new(0);
    sweep(0..96, |c| {
        let net = zoo_net(c);
        let Some(mut routes) = route(&net, &Sssp::new()) else {
            return;
        };
        corrupt(c, &net, &mut routes);
        let ts = net.terminals();
        let pairs = || (0..ts.len()).flat_map(|s| (0..ts.len()).map(move |d| (s, d)));
        let per_pair: Result<Vec<_>, _> = pairs()
            .filter(|(s, d)| s != d)
            .map(|(s, d)| routes.path_channels(&net, ts[s], ts[d]))
            .collect();
        match (PathSet::extract(&net, &routes), per_pair) {
            (Ok(ps), Ok(paths)) => {
                assert_eq!(ps.len(), paths.len());
                assert_eq!(ps.total_hops(), paths.iter().map(Vec::len).sum::<usize>());
                for (p, ((s, d), path)) in pairs().filter(|(s, d)| s != d).zip(&paths).enumerate() {
                    assert_eq!(ps.pair(p as u32), (s as u32, d as u32));
                    assert_eq!(ps.channels(p as u32), &path[..], "path {p}");
                }
            }
            (Err(RouteError::Disconnected), Err(_)) => rejected.set(rejected.get() + 1),
            (got, want) => panic!(
                "extract {:?}, per-pair walk {want:?}",
                got.map(|ps| ps.len())
            ),
        }
        let other = topo::ring(net.num_nodes() + 1, 1);
        assert!(matches!(
            PathSet::extract(&other, &routes),
            Err(RouteError::Disconnected)
        ));
    });
    assert!(
        rejected.get() >= 16,
        "only {} corrupt cases",
        rejected.get()
    );
}
