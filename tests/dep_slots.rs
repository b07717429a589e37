//! The dependency-slot index (`fabric::DepSlots`) and the things built on
//! it, each against an oracle that shares none of its code: the index
//! against the network's own adjacency, the tree-built layer 0 and the
//! cycle breaks that move victims off the trees against the `add_path`
//! loop over per-pair walks with explicit path lists, `vet`'s table walk
//! against a per-pair walk collected into hash sets, and the window
//! kernel's validation (under `TreePaths::validate` with the walks it
//! admits, under the APP bridge, and under the layer-0 constructor)
//! against the per-pair `PathIter`. One sweep over the generator zoo,
//! degraded views included.

mod common;

use common::{sweep, zoo_net, Case};
use dfsssp::core::app::from_tree_paths;
use dfsssp::core::cdg::{Cdg, CycleSearch};
use dfsssp::core::heuristics::CycleBreakHeuristic;
use dfsssp::core::paths::{Placement, TreePaths, Victims};
use dfsssp::prelude::*;
use fabric::topo;
use fabric::{ChannelId, DepSlots};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// `Network::dep_slots` numbers the adjacent channel pairs — `c2`
/// leaves the node `c1` enters — in ascending order, each exactly once,
/// and nothing else: Σ_c outdeg(head(c)) slots. A degraded view shares
/// its reference's slots, so there each live pair has its own slot,
/// ascending, among the tombstones' unused ones.
#[test]
fn slots_are_a_bijection_onto_adjacent_channel_pairs() {
    sweep(0..96, |c| {
        let net = zoo_net(c);
        let slots = net.dep_slots().clone();
        let pristine = net.num_live_channels() == net.num_channels();
        // Adjacency rows ascend, so this enumeration does too.
        let mut pairs = Vec::new();
        for (c1, ch) in net.channels() {
            let successors = net.out_channels(ch.dst);
            let row = slots.row(c1.0).len();
            assert!(row == successors.len() || !pristine && row > successors.len());
            pairs.extend(successors.iter().map(|c2| (c1.0, c2.0)));
        }
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert!(slots.num_slots() == pairs.len() || !pristine && slots.num_slots() > pairs.len());
        assert_eq!(slots.num_channels(), net.num_channels());
        let at = |&(c1, c2): &(u32, u32)| slots.slot(c1, c2);
        assert!(pairs.windows(2).all(|w| at(&w[0]) < at(&w[1])));
        for (i, &(c1, c2)) in pairs.iter().enumerate() {
            let slot = at(&(c1, c2));
            assert!(!pristine || slot == i, "({c1}, {c2})");
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
        .then(|| engine.route(net).expect("routes"))
}

/// The layer 0 `TreePaths::layer0` builds from the destination trees is
/// the `add_path` loop over every pair's `path_channels` walk in id
/// order: same edge ids (handed out in first-appearance order) and
/// counts — and, because `out[from]` is pushed to exactly when an id is
/// handed out, the same `out` order, which the resumable search then
/// shows by reporting the same cycles step by step while Algorithm 2's
/// breaks drain both graphs. Each break moves the victims of the edge a
/// drawn heuristic picks up a layer: `TreePaths::move_victims` a subtree at
/// a time, the loop path by path from the explicit lists per window,
/// filtered by layer and taken in `(moved_at, id)` order; after every
/// break every layer (ids, `out`, counts) and the placement (layers,
/// stamps) agree. `id`/`pair`/`walk` are the enumeration.
#[test]
fn bulk_cdg_population_equals_the_add_path_loop() {
    let (routed, cyclic, above) = (Cell::new(0), Cell::new(0), Cell::new(0));
    sweep(0..256, |c| {
        let net = zoo_net(c);
        let engines: [&dyn RoutingEngine; 2] = [&Sssp::new(), &MinHop::new()];
        let Some(mut routes) = route(&net, engines[c.draw("engine", 0..2)]) else {
            return;
        };
        routed.set(routed.get() + 1);
        let ts = net.terminals();
        // Accepted tables may hold anything at the destination itself.
        for (d, &dst) in ts.iter().enumerate() {
            let out = net.out_channels(dst);
            routes.set_next(dst, d, out[c.rng.range(0..out.len())]);
        }
        let slots = net.dep_slots().clone();
        let trees = TreePaths {
            net: &net,
            routes: &routes,
        };
        let (layer0, counts) = trees.layer0(&slots).unwrap();

        let mut looped = Cdg::over(slots.clone());
        let mut listed: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        let (mut walks, mut scratch) = (Vec::new(), Vec::new());
        for (s, d) in (0..ts.len()).flat_map(|s| (0..ts.len()).map(move |d| (s, d))) {
            if s == d {
                continue;
            }
            let p = walks.len() as u32;
            let walk = routes.path_channels(&net, ts[s], ts[d]).unwrap();
            assert_eq!((trees.id(s, d), trees.pair(p)), (p, (s as u32, d as u32)));
            trees.walk(p, &mut scratch);
            assert_eq!(scratch, walk, "path {p}");
            looped.add_path(&walk);
            for w in walk.windows(2) {
                listed.entry((w[0].0, w[1].0)).or_default().push(p);
            }
            walks.push(walk);
        }
        assert_eq!(trees.num_paths(), walks.len());
        assert!(layer0 == looped, "layer 0");
        assert_eq!(
            counts.iter().filter(|&&n| n > 0).count(),
            layer0.num_edges()
        );
        for e in 0..layer0.num_edges() as u32 {
            let edge = layer0.edge(e);
            assert_eq!(
                counts[slots.slot(edge.from, edge.to)],
                edge.count,
                "edge {e}"
            );
        }

        let (mut bulk, mut looped) = (vec![layer0], vec![looped]);
        let (mut place, mut oracle) = (Placement::new(walks.len()), Placement::new(walks.len()));
        let mut victims = Victims::default();
        let heuristic = [
            CycleBreakHeuristic::WeakestEdge,
            CycleBreakHeuristic::HeaviestEdge,
            CycleBreakHeuristic::FirstEdge,
            CycleBreakHeuristic::RandomEdge(c.rng.range(0..u64::MAX)),
        ][c.draw("heuristic", 0..4)];
        let mut i = 0;
        while i < bulk.len() {
            let mut searches = [&bulk[i], &looped[i]].map(|l| CycleSearch::new(l.num_channels()));
            loop {
                let cycle = searches[0].next_cycle(&bulk[i]);
                assert_eq!(cycle, searches[1].next_cycle(&looped[i]), "layer {i}");
                let Some(cycle) = cycle else { break };
                cyclic.set(cyclic.get() + 1);
                above.set(above.get() + usize::from(i > 0));
                if i + 1 == bulk.len() {
                    bulk.push(Cdg::over(slots.clone()));
                    looped.push(Cdg::over(slots.clone()));
                }
                let e = heuristic.pick_counted(&bulk[i], &cycle, cyclic.get() as u64);
                trees.move_victims(e, &mut bulk, i, &mut place, &mut victims);
                let edge = looped[i].edge(e);
                let mut moving = listed[&(edge.from, edge.to)].clone();
                moving.retain(|&p| oracle.layer[p as usize] as usize == i);
                moving.sort_by_key(|&p| (oracle.moved_at[p as usize], p));
                for p in moving {
                    looped[i].remove_path(&walks[p as usize]);
                    looped[i + 1].add_path(&walks[p as usize]);
                    oracle.layer[p as usize] = i as u8 + 1;
                    oracle.moves += 1;
                    oracle.moved_at[p as usize] = oracle.moves as u32;
                }
                assert!(bulk == looped, "layers after a break in layer {i}");
                assert_eq!(place, oracle, "placement after a break in layer {i}");
            }
            i += 1;
        }
        // Every edge of every layer holds exactly the listed paths now in
        // that layer.
        for (l, cdg) in bulk.iter().enumerate() {
            for e in 0..cdg.num_edges() as u32 {
                let edge = cdg.edge(e);
                let there = listed[&(edge.from, edge.to)].iter();
                let there = there.filter(|&&p| place.layer[p as usize] as usize == l);
                assert_eq!(there.count(), edge.count as usize, "edge {e} in layer {l}");
            }
        }
        let in_layers: usize = bulk.iter().map(Cdg::num_paths).sum();
        assert_eq!(in_layers, walks.len());
    });
    assert!(routed.get() >= 128, "only {} cases routed", routed.get());
    assert!(cyclic.get() > 0, "no case had a cycle to break");
    // Where the stamps decide the order.
    assert!(above.get() >= 32, "{} breaks above layer 0", above.get());
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
        let stats = vet::check(&net, &routes).stats;
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

/// `TreePaths::validate` — the window kernel's tree pass with nothing
/// reported — accepts and rejects exactly what the per-pair `PathIter`
/// walk does, and on what it accepts `walk` yields that walk's channels.
#[test]
fn validate_rejects_corrupt_tables_where_the_per_pair_walk_did() {
    let rejected = Cell::new(0);
    sweep(0..96, |c| {
        let net = zoo_net(c);
        let Some(mut routes) = route(&net, &Sssp::new()) else {
            return;
        };
        corrupt(c, &net, &mut routes);
        let ts = net.terminals();
        let pairs = (0..ts.len()).flat_map(|s| (0..ts.len()).map(move |d| (s, d)));
        let per_pair: Result<Vec<_>, _> = pairs
            .filter(|(s, d)| s != d)
            .map(|(s, d)| routes.path_channels(&net, ts[s], ts[d]))
            .collect();
        let trees = |on| TreePaths {
            net: on,
            routes: &routes,
        };
        match (trees(&net).validate(), per_pair) {
            (Ok(()), Ok(paths)) => {
                let mut walk = Vec::new();
                for (p, path) in paths.iter().enumerate() {
                    trees(&net).walk(p as u32, &mut walk);
                    assert_eq!(&walk, path, "path {p}");
                }
            }
            (Err(RouteError::Disconnected), Err(_)) => rejected.set(rejected.get() + 1),
            (got, want) => panic!("validate {got:?}, per-pair walk {want:?}"),
        }
        let other = topo::ring(net.num_nodes() + 1, 1);
        assert_eq!(trees(&other).validate(), Err(RouteError::Disconnected));
    });
    assert!(
        rejected.get() >= 16,
        "only {} corrupt cases",
        rejected.get()
    );
}

/// The APP bridge is the per-pair walk: on the tables the walk accepts
/// (half the cases go through `corrupt` first),
/// the same paths in the same order under the same ids, those under two
/// channels dropped; on the ones it rejects, `Disconnected` — returned,
/// not walked forever around a loop.
#[test]
fn app_bridge_is_the_per_pair_walk() {
    let (bridged, rejected) = (Cell::new(0), Cell::new(0));
    sweep(0..96, |c| {
        let net = zoo_net(c);
        let Some(mut routes) = route(&net, &Sssp::new()) else {
            return;
        };
        if c.draw("corrupt", 0..2) == 1 {
            corrupt(c, &net, &mut routes);
        }
        let ts = net.terminals();
        let pairs = (0..ts.len()).flat_map(|s| (0..ts.len()).map(move |d| (s, d)));
        let per_pair: Result<Vec<_>, _> = pairs
            .filter(|(s, d)| s != d)
            .map(|(s, d)| routes.path_channels(&net, ts[s], ts[d]))
            .collect();
        let trees = TreePaths {
            net: &net,
            routes: &routes,
        };
        match (from_tree_paths(trees), per_pair) {
            (Ok((generator, ids)), Ok(paths)) => {
                let kept = paths.iter().enumerate().filter(|(_, path)| path.len() >= 2);
                let (want_ids, want): (Vec<u32>, Vec<Vec<u32>>) = kept
                    .map(|(p, path)| (p as u32, path.iter().map(|c| c.0).collect()))
                    .unzip();
                let got: Vec<&[u32]> = generator.paths().iter().map(|p| p.nodes()).collect();
                assert_eq!(ids, want_ids);
                assert_eq!(got, want);
                bridged.set(bridged.get() + 1);
            }
            (Err(RouteError::Disconnected), Err(_)) => rejected.set(rejected.get() + 1),
            (got, want) => panic!(
                "bridge {:?}, per-pair walk {want:?}",
                got.map(|(g, _)| g.len())
            ),
        }
    });
    let (bridged, rejected) = (bridged.get(), rejected.get());
    assert!(
        bridged >= 16 && rejected >= 16,
        "{bridged} bridged, {rejected} rejected"
    );
}

/// The layer-0 constructor stands on the same validated tree pass, so it
/// accepts and rejects the same tables — and what it accepts it counts
/// window for window.
#[test]
fn layer0_rejects_corrupt_tables_where_the_per_pair_walk_did() {
    let rejected = Cell::new(0);
    sweep(0..96, |c| {
        let net = zoo_net(c);
        let Some(mut routes) = route(&net, &Sssp::new()) else {
            return;
        };
        corrupt(c, &net, &mut routes);
        let ts = net.terminals();
        let pairs = (0..ts.len()).flat_map(|s| (0..ts.len()).map(move |d| (s, d)));
        let per_pair: Result<Vec<_>, _> = pairs
            .filter(|(s, d)| s != d)
            .map(|(s, d)| routes.path_channels(&net, ts[s], ts[d]))
            .collect();
        let layer0 = |on: &Network| {
            let trees = TreePaths {
                net: on,
                routes: &routes,
            };
            trees.layer0(on.dep_slots())
        };
        match (layer0(&net), per_pair) {
            (Ok((cdg, counts)), Ok(paths)) => {
                let windows: usize = paths.iter().map(|p| p.len().saturating_sub(1)).sum();
                assert_eq!(counts.iter().sum::<u32>() as usize, windows);
                assert_eq!(cdg.num_paths(), paths.len());
            }
            (Err(RouteError::Disconnected), Err(_)) => rejected.set(rejected.get() + 1),
            (got, want) => panic!(
                "layer 0 {:?}, per-pair walk {want:?}",
                got.map(|(cdg, _)| cdg.num_paths())
            ),
        }
        let other = topo::ring(net.num_nodes() + 1, 1);
        assert!(matches!(layer0(&other), Err(RouteError::Disconnected)));
    });
    assert!(
        rejected.get() >= 16,
        "only {} corrupt cases",
        rejected.get()
    );
}
