//! Seeded property sweeps on the core invariants.

mod common;

use common::{parallel_cables, sweep, zoo_net, Case};
use dfsssp::core::app::{coloring_to_app, is_k_colorable};
use dfsssp::core::balance::balance_layers;
use dfsssp::core::dijkstra::{bfs_column, bfs_prefers, spt_to};
use dfsssp::core::paths::TreePaths;
use dfsssp::core::sssp::unbalanced_shortest_paths;
use dfsssp::fabric::degrade::remove;
use dfsssp::fabric::{ChannelId, NodeId};
use dfsssp::prelude::*;
use dfsssp::telemetry::fx::FxHashSet;
use dfsssp::verify::{deadlock_report, verify_minimal};

/// Random connected topology specs small enough for exhaustive checks.
fn random_net(c: &mut Case) -> Network {
    let switches = c.draw("switches", 4usize..12);
    let terminals_per_switch = c.draw("terminals_per_switch", 2usize..4);
    let extra_links = c.draw("extra_links", 0usize..20);
    let seed = c.draw("seed", 0..=u64::MAX);
    // No parallel cables: total links bounded by distinct pairs.
    let max_links = switches * (switches - 1) / 2;
    let spec = dfsssp::topo::RandomTopoSpec {
        switches,
        radix: 24,
        terminals_per_switch,
        interswitch_links: ((switches - 1) + extra_links).min(max_links),
    };
    dfsssp::topo::random_topology(&spec, seed)
}

/// SSSP paths are hop-minimal on every random topology.
#[test]
fn sssp_is_minimal() {
    sweep(0..48, |c| {
        let net = random_net(c);
        let routes = Sssp::new().route(&net).unwrap();
        assert!(verify_minimal(&net, &routes).is_ok());
    });
}

/// DFSSSP always yields per-layer acyclic CDGs and full connectivity.
#[test]
fn dfsssp_is_deadlock_free_and_connected() {
    sweep(0..48, |c| {
        let net = random_net(c);
        let routes = DfSssp::new().route(&net).unwrap();
        let report = deadlock_report(&net, &routes).unwrap();
        assert!(report.is_deadlock_free());
        let nt = net.num_terminals();
        assert_eq!(routes.validate_connectivity(&net).unwrap(), nt * (nt - 1));
        assert!(routes.num_layers() <= 8);
    });
}

/// Offline and online layer assignment both produce valid covers;
/// the offline algorithm never uses more layers than paths.
#[test]
fn online_assignment_is_also_safe() {
    sweep(0..48, |c| {
        let net = random_net(c);
        let engine = DfSssp {
            mode: LayerAssignMode::Online,
            ..DfSssp::new()
        };
        let routes = engine.route(&net).unwrap();
        assert!(deadlock_report(&net, &routes).unwrap().is_deadlock_free());
    });
}

/// The balancing step preserves acyclicity: any split of an acyclic
/// layer is acyclic (checked end-to-end through the verifier).
#[test]
fn balancing_preserves_safety() {
    sweep(0..48, |c| {
        let net = random_net(c);
        let route = |balance| {
            DfSssp {
                config: EngineConfig::new().balance(balance),
                ..DfSssp::new()
            }
            .route(&net)
            .unwrap()
        };
        let balanced = route(true);
        assert!(deadlock_report(&net, &balanced).unwrap().is_deadlock_free());
        assert!(balanced.num_layers() >= route(false).num_layers());
    });
}

/// Walking every path off the trees is consistent with per-channel load
/// counting.
#[test]
fn tree_path_walks_match_loads() {
    sweep(0..48, |c| {
        let net = random_net(c);
        let routes = Sssp::new().route(&net).unwrap();
        let paths = TreePaths {
            net: &net,
            routes: &routes,
        };
        paths.validate().unwrap();
        let nt = net.num_terminals();
        assert_eq!(paths.num_paths(), nt * (nt - 1));
        let mut walk = Vec::new();
        let hops: usize = (0..paths.num_paths() as u32)
            .map(|p| {
                paths.walk(p, &mut walk);
                walk.len()
            })
            .sum();
        let loads = routes.channel_loads(&net).unwrap();
        assert_eq!(hops as u32, loads.iter().sum::<u32>());
    });
}

/// Layer balancing keeps every path in its original layer's group and
/// spreads counts within one of each other.
#[test]
fn balance_layers_is_a_partition_refinement() {
    sweep(0..48, |c| {
        let n = c.draw("n", 1usize..200);
        let used = c.draw("used", 1usize..5);
        let available = c.draw("available", 1usize..9).max(used);
        let seed = c.draw("seed", 0..=u64::MAX);
        // Deterministic pseudo-random original layers.
        let mut layers: Vec<u8> = (0..n)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64);
                ((x >> 33) % used as u64) as u8
            })
            .collect();
        // Ensure every layer < used occurs (precondition of `used`).
        for (l, slot) in layers.iter_mut().enumerate().take(used) {
            *slot = l as u8;
        }
        let before = layers.clone();
        let out = balance_layers(&mut layers, used, available);
        assert!(out <= available);
        // The documented grouping, recomputed: layer i's group is the
        // next `1 + extra/used (+1 for the first extra % used)` layers,
        // so the groups partition `0..available` in layer order.
        let extra = available - used;
        let mut group_base = vec![0usize; used + 1];
        for i in 0..used {
            group_base[i + 1] = group_base[i] + 1 + extra / used + usize::from(i < extra % used);
        }
        assert_eq!(group_base[used], available, "groups partition 0..available");
        let mut counts = vec![0usize; available];
        for (path, (&b, &a)) in before.iter().zip(&layers).enumerate() {
            let group = group_base[b as usize]..group_base[b as usize + 1];
            assert!(
                group.contains(&(a as usize)),
                "path {path}: layer {b} -> {a} left its group {group:?}"
            );
            counts[a as usize] += 1;
        }
        for i in 0..used {
            let group = &counts[group_base[i]..group_base[i + 1]];
            let (min, max) = (group.iter().min().unwrap(), group.iter().max().unwrap());
            assert!(max - min <= 1, "layer {i}'s group is uneven: {group:?}");
        }
    });
}

/// The NP-completeness reduction: on random small graphs, the minimum
/// APP cover equals the chromatic number.
#[test]
fn app_reduction_matches_chromatic_number() {
    sweep(0..48, |c| {
        let edge_mask = c.draw("edge_mask", 0u32..1024);
        let all_edges = [
            (0u32, 1u32),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
        ];
        let edges: Vec<(u32, u32)> = all_edges
            .iter()
            .enumerate()
            .filter(|(i, _)| edge_mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        let chromatic = (1..=5).find(|&k| is_k_colorable(5, &edges, k)).unwrap();
        let g = coloring_to_app(5, &edges);
        let (k, assignment) = g.min_cover(5).unwrap();
        assert_eq!(k, chromatic);
        assert!(g.is_cover(&assignment, k));
    });
}

/// The tree `bfs_column` writes toward `root`, as parents (`None` at the
/// root and at nodes that cannot reach it).
fn bfs_tree(net: &Network, root: NodeId, order: &mut Vec<NodeId>) -> Vec<Option<ChannelId>> {
    let mut column = vec![u32::MAX; net.num_nodes()];
    bfs_column(net, root, &mut column, order);
    let parent = |&c: &u32| (c != u32::MAX).then_some(ChannelId(c));
    column.iter().map(parent).collect()
}

/// The column kernel writes `spt_to`'s parents at a uniform weight,
/// unreachable nodes left unset — for every terminal root of every zoo
/// fabric, pristine, with one cable down and with one switch down (which
/// may strand terminals), one `order` reused across the roots of a view.
#[test]
fn bfs_kernel_is_the_heap_at_a_uniform_weight() {
    sweep(0..64, |c| {
        let net = zoo_net(c);
        let w = c.draw("weight", 1u64..1_000);
        let cable = ChannelId(c.draw("cable", 0..net.num_channels() as u32));
        let switch = net.switches()[c.draw("switch", 0..net.switches().len())];
        let cut: FxHashSet<_> = [Some(cable), net.channel(cable).rev]
            .into_iter()
            .flatten()
            .collect();
        let views = [
            remove(&net, &FxHashSet::default(), &cut),
            remove(&net, &[switch].into_iter().collect(), &FxHashSet::default()),
            net,
        ];
        for view in &views {
            let weights = vec![w; view.num_channels()];
            let mut order = Vec::new();
            for &root in view.terminals() {
                let heap = spt_to(view, root, &weights);
                let bfs = bfs_tree(view, root, &mut order);
                assert_eq!(heap.parent, bfs, "parents toward {root:?}");
            }
        }
    });
}

/// `bfs_column` hands every node the tight channel `bfs_prefers` ranks
/// first among those whose head forwards (a switch, or the root), and
/// leaves the root and unreachable nodes without one — for every
/// terminal root of the zoo and of a fabric with parallel cables, hop
/// distances from `Network::hops_to`.
#[test]
fn bfs_parents_are_the_preferred_tight_channels() {
    let check = |net: &Network| {
        let mut order = Vec::new();
        for &root in net.terminals() {
            let (parent, hops) = (bfs_tree(net, root, &mut order), net.hops_to(root));
            for (v, _) in net.nodes() {
                let tight = net.out_channels(v).iter().copied().filter(|&c| {
                    let head = net.channel(c).dst;
                    let forwards = head == root || !net.is_terminal(head);
                    forwards && hops[head.idx()].checked_add(1) == Some(hops[v.idx()])
                });
                let preferred = tight.reduce(|a, b| if bfs_prefers(net, b, a) { b } else { a });
                assert_eq!(parent[v.idx()], preferred, "{v:?} toward {root:?}");
            }
        }
    };
    sweep(0..160, |c| check(&zoo_net(c)));
    check(&parallel_cables());
}

/// Under one chunk the balanced engines route plain shortest paths:
/// `unbalanced_shortest_paths`, `Sssp` and `DfSssp` program the same
/// next hops (the tie rule lives in `bfs_column` alone).
#[test]
fn snapshot_chunk_routes_are_the_unbalanced_shortest_paths() {
    sweep(0..48, |c| {
        let net = zoo_net(c);
        let nt = net.num_terminals();
        let snapshot = EngineConfig::new().compute(ComputeOpts::new().chunk(nt));
        let sssp = Sssp::new().with_config(snapshot.clone()).route(&net);
        let Ok(plain) = unbalanced_shortest_paths(&net) else {
            // Cuts may split the zoo fabric; then both refuse it.
            return assert_eq!(sssp.unwrap_err(), RouteError::Disconnected);
        };
        let sssp = sssp.unwrap();
        let dfsssp = DfSssp::new().with_config(snapshot).route(&net).unwrap();
        for d in 0..nt {
            assert_eq!(plain.column(d).0, sssp.column(d).0, "Sssp toward {d}");
            assert_eq!(plain.column(d).0, dfsssp.column(d).0, "DfSssp toward {d}");
        }
    });
}
