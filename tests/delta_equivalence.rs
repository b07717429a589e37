//! Bit-for-bit equivalence of the incremental reroute path against full
//! recompute, swept across topology families × seeded random failures.
//!
//! The delta engine's contract is exact: for any event sequence, routing
//! the degraded fabric through a warm [`DeltaEngine`] must produce the
//! *identical* `Routes` artifact — next-hops, layers, engine tag — that a
//! cold `DfSssp` full sweep produces under the same snapshot schedule. These
//! tests sweep that claim over torus / fat-tree / dragonfly fabrics,
//! chained cable failures, whole-switch failures (which keep the node
//! roster and patch), and both sides of the dirty-fraction fallback
//! boundary. The dirty set itself is pinned too — without a clock, and
//! re-derived here from the documented rule with no code of `delta`'s
//! ([`expected_dirty`]) — and on single cable and switch events it must
//! be exactly the trees whose cold-route column changed on the live
//! nodes ([`changed_trees`]).

mod common;

use common::{parallel_cables, sweep, zoo_net};
use dfsssp::prelude::*;
use fabric::{degrade, topo, ChannelId, Network, NodeId, Routes};
use std::cell::Cell;
use std::collections::HashSet;
use subnet::transition;

/// A cold `DfSssp` under the snapshot schedule the delta path requires:
/// a single chunk spanning every terminal of `net` (and so of every
/// fabric an event leaves of it), i.e. all destination trees swept
/// against one uniform weight snapshot.
fn cold(net: &Network) -> DfSssp {
    let snapshot = ComputeOpts::new().chunk(net.num_terminals());
    DfSssp::new().with_config(EngineConfig::new().compute(snapshot))
}

fn families() -> Vec<(&'static str, Network)> {
    vec![
        ("torus-3x3", topo::torus(&[3, 3], 1)),
        ("fat-tree-2-3", topo::kary_ntree(2, 3)),
        ("dragonfly-3-2-2", topo::dragonfly(3, 2, 2)),
    ]
}

/// An eager delta engine for `base` and the fabrics an event leaves of
/// it: never trips the dirty-fraction fallback, so every eligible event
/// exercises the incremental path.
fn eager(base: &Network) -> DeltaEngine {
    DeltaEngine::with_delta_config(
        cold(base),
        DeltaConfig {
            max_dirty_fraction: 1.0,
        },
    )
}

/// Route `net` through the warm delta engine and a cold full recompute
/// under the same snapshot schedule; assert bit-for-bit agreement. Returns
/// `false` when both paths refused (e.g. the fabric disconnected) —
/// refusal must also agree.
fn assert_equivalent(warm: &DeltaEngine, net: &Network, label: &str) -> bool {
    let incremental = warm.route(net);
    let full = cold(net).route(net);
    match (incremental, full) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{label}: delta and full recompute disagree");
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!(
            "{label}: paths disagree on viability: delta ok={} full ok={}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

/// A channel is "the same" across fabrics when it leaves the same port of
/// the same node for the same node.
fn key(ch: &fabric::Channel) -> (u32, u16, u32) {
    (ch.src.0, ch.src_port, ch.dst.0)
}

/// The documented dirty rule, recomputed from public API only: a
/// destination `d` is dirty when any `(node, d)` entry of the old tables
/// names a channel the new fabric lacks, or when a channel `a → b` the
/// old fabric lacks, into a node that forwards (a switch, or `d`), is
/// shorter than the old route by the old fabric's `hops_to(d)` row —
/// `hop(a,d) > hop(b,d) + 1` — or ties it and wins the parent: `b` has a
/// lower node id than the old `next(a, d)`'s head, or is that head and
/// lists the new channel first among its in-channels.
fn expected_dirty(old: &Network, old_routes: &Routes, new: &Network) -> Vec<usize> {
    let keys = |net: &Network| -> HashSet<_> { net.channels().map(|(_, ch)| key(ch)).collect() };
    let (old_keys, new_keys) = (keys(old), keys(new));
    (0..old.num_terminals())
        .filter(|&d| {
            let lost_edge = old.nodes().any(|(v, _)| {
                old_routes
                    .next_hop(v, d)
                    .is_some_and(|c| !new_keys.contains(&key(old.channel(c))))
            });
            let dst = old.terminals()[d];
            let hops = old.hops_to(dst);
            let wins = |a: NodeId, b: NodeId, ch: &fabric::Channel| {
                let Some(incumbent) = old_routes.next_hop(a, d).map(|c| old.channel(c)) else {
                    return true;
                };
                let rank = |k| {
                    new.in_channels(b)
                        .iter()
                        .position(|&c| key(new.channel(c)) == k)
                };
                b.0 < incumbent.dst.0 || b == incumbent.dst && rank(key(ch)) < rank(key(incumbent))
            };
            let shortcut = new.channels().any(|(_, ch)| {
                let (a, b) = (ch.src, ch.dst);
                let (hop_a, hop_b) = (hops[a.idx()], hops[b.idx()]);
                !old_keys.contains(&key(ch))
                    && (b == dst || !new.is_terminal(b))
                    && hop_b != u32::MAX
                    && (hop_a > hop_b + 1 || hop_a == hop_b + 1 && wins(a, b, ch))
            });
            lost_edge || shortcut
        })
        .collect()
}

/// The trees whose cold-route column differs between `old` and `new`,
/// entries compared by [`key`] at the nodes live in `new` (a dead
/// switch's row is gone, not changed).
fn changed_trees(old: &Network, new: &Network) -> Vec<usize> {
    let column = |net: &Network, routes: &Routes, d| -> Vec<_> {
        let entry = |v| routes.next_hop(v, d).map(|c| key(net.channel(c)));
        let live = new.nodes().filter(|&(v, _)| new.is_live(v));
        live.map(|(v, _)| entry(v)).collect()
    };
    let (a, b) = (cold(old).route(old).unwrap(), cold(new).route(new).unwrap());
    (0..old.num_terminals())
        .filter(|&d| column(old, &a, d) != column(new, &b, d))
        .collect()
}

/// After `warm` (whose cache held `old`) routed `new`: the dirty set it
/// reports must be the rule's.
fn dirty_by_the_rule(
    warm: &DeltaEngine,
    old: &Network,
    new: &Network,
    label: &str,
) -> DeltaOutcome {
    let old_routes = cold(old).route(old).expect(label);
    let outcome = warm.last_outcome().expect("route recorded an outcome");
    assert_eq!(
        outcome.dirty_dests,
        expected_dirty(old, &old_routes, new),
        "{label}: dirty set is not the documented rule's"
    );
    outcome
}

#[test]
fn delta_matches_full_across_families_and_failure_chains() {
    let mut delta_hits = 0usize;
    for (name, base) in families() {
        for seed in 0..4u64 {
            let engine = eager(&base);
            let mut net = base.clone();
            assert!(
                assert_equivalent(&engine, &net, name),
                "{name}: base fabric must route"
            );
            for step in 0..3u64 {
                let (degraded, removed) = degrade::fail_random_cables(&net, 1, seed * 31 + step);
                if removed == 0 {
                    break;
                }
                let before = std::mem::replace(&mut net, degraded);
                let label = format!("{name} seed={seed} step={step}");
                if !assert_equivalent(&engine, &net, &label) {
                    break; // disconnected: both paths refused identically
                }
                dirty_by_the_rule(&engine, &before, &net, &label);
                if engine.last_outcome().is_some_and(|o| o.delta) {
                    delta_hits += 1;
                }
            }
        }
    }
    assert!(
        delta_hits > 0,
        "sweep never exercised the incremental path; the equivalence claim was vacuous"
    );
}

/// Where the 13-15x of the old wall-clock reroute bench on `full(96,4)`
/// came from, pinned without a clock: a failed cable dirties only the
/// trees rooted at the terminals of the two switches it joined — 8 of
/// 384 — so the delta path, at the production threshold, re-sweeps 2 %
/// of the destinations and copies the rest. (`delta.vs_cold_ratio` in
/// `perf` carries the timing.) The seeds are that bench's four events.
#[test]
fn full_mesh_cable_failures_dirty_eight_trees_of_384() {
    let base = topo::fully_connected(96, 4);
    assert_eq!(base.num_terminals(), 384);
    for k in 0..4u64 {
        let engine = DeltaEngine::new(cold(&base));
        engine.route(&base).expect("the pristine mesh routes");
        let (net, removed) = degrade::fail_random_cables(&base, 1, 7 * 97 + k);
        assert_eq!(removed, 1);
        let label = format!("full(96,4) cable#{k}");
        assert!(assert_equivalent(&engine, &net, &label), "{label}");
        let outcome = engine.last_outcome().expect("route recorded an outcome");
        assert!(outcome.delta, "{label}: fell back to the full sweep");
        assert_eq!(outcome.dirty_dests.len(), 8, "{label}");
    }
}

#[test]
fn switch_failures_keep_the_roster_and_patch_identically() {
    for (name, base) in families() {
        let engine = eager(&base);
        assert!(assert_equivalent(&engine, &base, name));
        let Some(degraded) = degrade::fail_random_switch(&base, 7) else {
            continue;
        };
        assert_eq!(degraded.num_nodes(), base.num_nodes(), "{name}");
        assert_eq!(degraded.terminals(), base.terminals(), "{name}");
        if assert_equivalent(&engine, &degraded, name) {
            let outcome = engine.last_outcome().expect("route recorded an outcome");
            let all = outcome.dirty_dests.len() == base.num_terminals();
            assert_eq!(
                outcome.delta, !all,
                "{name}: the delta path runs unless every tree is dirty"
            );
        }
    }
}

#[test]
fn dirty_fraction_boundary_forces_fallback_yet_stays_identical() {
    // threshold 0.0: any dirtied destination trips the fallback, the
    // engine full-recomputes. threshold 1.0: the gate can never trip
    // (it is strict), the engine must patch. Both sides of the boundary
    // must be bit-for-bit identical to the cold sweep.
    let base = topo::torus(&[3, 3], 1);
    for (threshold, expect_delta) in [(0.0, false), (1.0, true)] {
        let engine = DeltaEngine::with_delta_config(
            cold(&base),
            DeltaConfig {
                max_dirty_fraction: threshold,
            },
        );
        assert!(assert_equivalent(&engine, &base, "warmup"));
        let (net, removed) = degrade::fail_random_cables(&base, 1, 5);
        assert_eq!(removed, 1, "seed 5 must fail exactly one cable");
        if assert_equivalent(&engine, &net, "post-failure") {
            let outcome = engine.last_outcome().expect("route recorded an outcome");
            assert_eq!(
                outcome.delta, expect_delta,
                "threshold {threshold} on the wrong side of the fallback boundary"
            );
        }
    }
}

#[test]
fn cable_recovery_is_equivalent_too() {
    // Degrade then restore: the re-added cable exercises the
    // added-channel dirty rule rather than the removal rule.
    let base = topo::kary_ntree(2, 3);
    let engine = eager(&base);
    assert!(assert_equivalent(&engine, &base, "base"));
    let (degraded, removed) = degrade::fail_random_cables(&base, 1, 11);
    assert_eq!(removed, 1);
    if assert_equivalent(&engine, &degraded, "degraded") {
        // Recovery: route the original fabric again with the warm cache
        // built on the degraded epoch.
        assert!(assert_equivalent(&engine, &base, "recovered"));
    }
}

/// `cable` down, then back up, on a warm production-default engine; each
/// time the dirty set is the rule's and is the set of trees whose
/// cold-route column changed.
fn cable_down_then_up(base: &Network, cable: ChannelId) -> [DeltaOutcome; 2] {
    let dead = [Some(cable), base.channel(cable).rev].into_iter().flatten();
    let down = degrade::remove(base, &Default::default(), &dead.collect());
    let engine = DeltaEngine::new(cold(base));
    assert!(assert_equivalent(&engine, base, "warmup"));
    [(base, &down, "down"), (&down, base, "up")].map(|(old, new, event)| {
        assert!(
            assert_equivalent(&engine, new, event),
            "{event}: must route"
        );
        let outcome = dirty_by_the_rule(&engine, old, new, event);
        assert_eq!(outcome.dirty_dests, changed_trees(old, new), "{event}");
        outcome
    })
}

/// One cable down, then back up, on a warm production-default engine.
fn down_then_up(base: &Network, seed: u64) -> [DeltaOutcome; 2] {
    let engine = DeltaEngine::new(cold(base));
    assert!(assert_equivalent(&engine, base, "warmup"));
    let (down, removed) = degrade::fail_random_cables(base, 1, seed);
    assert_eq!(removed, 1, "seed {seed} must fail exactly one cable");
    let label = format!("{} seed={seed}", base.label());
    [(base, &down, "down"), (&down, base, "up")].map(|(old, new, event)| {
        let label = format!("{label} {event}");
        assert!(
            assert_equivalent(&engine, new, &label),
            "{label}: must route"
        );
        dirty_by_the_rule(&engine, old, new, &label)
    })
}

#[test]
fn fat_tree_leaf_cable_dirties_sixteen_trees_down_and_up() {
    // The benchmark's fat tree. Down: the 16 trees rooted under the leaf
    // switch lose a downlink, nothing else moves. Up: the restored link
    // gives those 16 their downlink back and loses every other tie to
    // the leaf's lower-id spine, so the same 16 are patched.
    let base = topo::kary_ntree(16, 2);
    for outcome in down_then_up(&base, 1) {
        assert!(outcome.delta, "16 of 256 dirty must patch");
        assert_eq!(outcome.dirty_dests.len(), 16);
    }
    // The cable to the lowest-id spine (the first one built) is every
    // other tree's uplink from its leaf too: both ways, every tree
    // changes and there is nothing to reuse.
    for outcome in cable_down_then_up(&base, base.switch_cables()[0]) {
        assert!(!outcome.delta, "every tree dirty must fall back");
        assert_eq!(outcome.dirty_dests.len(), 256);
    }
}

#[test]
fn events_that_leave_any_tree_clean_are_patched_at_the_default_config() {
    // A patch is a cold route minus the clean trees' sweeps, so every
    // event that leaves a tree clean patches — the ones that dirty more
    // than half of them included.
    let irregular = topo::RandomTopoSpec {
        switches: 64,
        radix: 24,
        terminals_per_switch: 8,
        interswitch_links: 160,
    };
    let fabrics = [
        topo::torus(&[8, 8], 2),
        topo::random_topology(&irregular, 7),
    ];
    let mut patched_above_half = 0;
    for base in fabrics {
        let nt = base.num_terminals();
        for o in down_then_up(&base, 0) {
            let dirty = o.dirty_dests.len();
            assert_eq!(o.delta, dirty < nt, "{}: {dirty} of {nt}", base.label());
            patched_above_half += usize::from(o.delta && 2 * dirty > nt);
        }
    }
    // The torus's cable dirties 72 of 128 trees down and up; the
    // irregular fabric's 240 of 512 both ways.
    assert!(
        patched_above_half > 0,
        "seed 0 no longer dirties more than half the trees"
    );
}

/// Every plan is the loop's own: with the engine's planner installed, a
/// `SmLoop` over `DeltaEngine` at chunk |T| publishes, for every cable
/// event, exactly the plan `transition::plan_update` derives from scratch
/// for the remapped previous epoch and the new one.
#[test]
fn every_plan_is_the_planners_own() {
    let tiny = topo::RandomTopoSpec {
        switches: 8,
        radix: 12,
        terminals_per_switch: 3,
        interswitch_links: 14,
    };
    let fabrics = [
        topo::kary_ntree(4, 2),
        topo::kary_ntree(8, 2),
        topo::kary_ntree(16, 2),
        topo::torus(&[4, 4], 1),
        topo::torus(&[8, 8], 2),
        topo::hypercube(4, 1),
        topo::random_topology(&tiny, 1),
        topo::random_topology(&tiny, 2),
    ];
    let (mut direct, mut staged) = (0, 0);
    for base in fabrics {
        let label = base.label().to_string();
        let engine = DeltaEngine::new(cold(&base));
        let planner = engine.planner();
        let mut sm = SmLoop::bring_up(engine, base.clone(), base.terminals()[0]).expect(&label);
        sm.set_plan_provider(Some(Box::new(planner)));
        let bridges = degrade::cable_bridges(&base);
        let cables = base
            .switch_cables()
            .into_iter()
            .filter(|c| !bridges.contains(c));
        for c in cables.take(12) {
            for event in [FabricEvent::CableDown(c), FabricEvent::CableUp(c)] {
                let (prev_net, prev_routes) =
                    (sm.network().clone(), sm.programmed().routes.clone());
                let outcome = sm.handle(event).expect(&label);
                let view = sm.network();
                let old = transition::remap_routes(&prev_net, &prev_routes, view);
                let expected =
                    transition::plan_update(view, Some(&old), &sm.programmed().routes, 8);
                assert_eq!(outcome.plan, expected, "{label}: {event:?}");
                if outcome.plan.direct {
                    direct += 1;
                } else {
                    staged += 1;
                }
            }
        }
    }
    assert!(direct > 0 && staged > 0, "{direct} direct, {staged} staged");
}

/// An oracle for the dirty rules that shares no code with `delta`: one
/// redundant cable down and back up through a warm engine, over the
/// generator zoo and a fabric with parallel cables, and each time the
/// trees it reports dirty are exactly the trees whose cold-route column
/// changed.
#[test]
fn the_dirty_set_is_the_set_of_trees_that_change() {
    let events = Cell::new(0);
    let down_then_up = |base: &Network, cable: ChannelId| {
        cable_down_then_up(base, cable);
        events.set(events.get() + 2);
    };
    sweep(0..400, |c| {
        let base = zoo_net(c);
        let spare = degrade::redundant_cables(&base);
        if !spare.is_empty() && cold(&base).route(&base).is_ok() {
            down_then_up(&base, spare[c.draw("cable", 0..spare.len())]);
        }
    });
    let parallel = parallel_cables();
    for cable in degrade::redundant_cables(&parallel) {
        down_then_up(&parallel, cable);
    }
    println!("{} events, dirty == changed in each", events.get());
    assert!(events.get() > 500, "only {} events", events.get());
}

/// The same oracle over switch events: over the same `zoo_net` seeds, a
/// switch whose loss strands no terminal goes down and comes back up
/// through a warm engine, and each time the trees it reports dirty are
/// exactly the trees whose cold-route column changed on the live nodes
/// (a returning switch owes every tree a row). The delta path runs
/// unless every tree is dirty.
#[test]
fn the_dirty_set_is_the_set_of_trees_a_switch_event_changes() {
    let (events, patched) = (Cell::new(0), Cell::new(0));
    sweep(0..400, |c| {
        let base = zoo_net(c);
        let strands_none = |&s: &NodeId| {
            let dead = [s].into_iter().collect();
            degrade::remove(&base, &dead, &Default::default()).is_strongly_connected()
        };
        let spare: Vec<NodeId> = base
            .switches()
            .iter()
            .copied()
            .filter(strands_none)
            .collect();
        if spare.is_empty() || cold(&base).route(&base).is_err() {
            return;
        }
        let switch = spare[c.draw("switch", 0..spare.len())];
        let down = degrade::remove(&base, &[switch].into_iter().collect(), &Default::default());
        if cold(&down).route(&down).is_err() {
            return; // past the layer budget without the switch
        }
        let engine = DeltaEngine::new(cold(&base));
        assert!(assert_equivalent(&engine, &base, "warmup"));
        for (old, new, event) in [(&base, &down, "down"), (&down, &base, "up")] {
            let label = format!("{} switch {switch:?} {event}", base.label());
            assert!(
                assert_equivalent(&engine, new, &label),
                "{label}: must route"
            );
            let outcome = engine.last_outcome().expect("route recorded an outcome");
            assert_eq!(outcome.dirty_dests, changed_trees(old, new), "{label}");
            let all = outcome.dirty_dests.len() == base.num_terminals();
            assert_eq!(outcome.delta, !all, "{label}");
            events.set(events.get() + 1);
            patched.set(patched.get() + usize::from(outcome.delta));
        }
    });
    println!(
        "{} switch events, {} patched, dirty == changed in each",
        events.get(),
        patched.get()
    );
    assert!(
        patched.get() > 0 && events.get() > 150,
        "{} events",
        events.get()
    );
}
