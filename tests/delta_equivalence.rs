//! Bit-for-bit equivalence of the incremental reroute path against full
//! recompute, swept across topology families × seeded random failures.
//!
//! The delta engine's contract is exact: for any event sequence, routing
//! the degraded fabric through a warm [`DeltaEngine`] must produce the
//! *identical* `Routes` artifact — next-hops, layers, engine tag — that a
//! cold `DfSssp` full sweep produces at the same snapshot context. These
//! tests sweep that claim over torus / fat-tree / dragonfly fabrics,
//! chained cable failures, whole-switch failures (which change the node
//! roster and must fall back), and both sides of the dirty-fraction
//! fallback boundary.

use dfsssp::prelude::*;
use fabric::{degrade, topo, Network};

/// The snapshot compute context the delta path requires: a single chunk
/// spanning every terminal, i.e. all destination trees swept against one
/// uniform weight snapshot.
fn snap_cx(net: &Network) -> ComputeCtx {
    ComputeCtx {
        threads: 1,
        chunk: net.num_terminals().max(1),
    }
}

fn families() -> Vec<(&'static str, Network)> {
    vec![
        ("torus-3x3", topo::torus(&[3, 3], 1)),
        ("fat-tree-2-3", topo::kary_ntree(2, 3)),
        ("dragonfly-3-2-2", topo::dragonfly(3, 2, 2)),
    ]
}

/// An eager delta engine: never trips the dirty-fraction fallback, so
/// every eligible event exercises the incremental path.
fn eager() -> DeltaEngine {
    DeltaEngine::with_delta_config(
        DfSssp::new(),
        DeltaConfig {
            max_dirty_fraction: 1.0,
        },
    )
}

/// Route `net` through the warm delta engine and a cold full recompute
/// at the same snapshot context; assert bit-for-bit agreement. Returns
/// `false` when both paths refused (e.g. the fabric disconnected) —
/// refusal must also agree.
fn assert_equivalent(warm: &DeltaEngine, net: &Network, label: &str) -> bool {
    let cx = snap_cx(net);
    let incremental = warm.route_in(net, &cx);
    let full = DfSssp::new().route_in(net, &cx);
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

#[test]
fn delta_matches_full_across_families_and_failure_chains() {
    let mut delta_hits = 0usize;
    for (name, base) in families() {
        for seed in 0..4u64 {
            let engine = eager();
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
                net = degraded;
                let label = format!("{name} seed={seed} step={step}");
                if !assert_equivalent(&engine, &net, &label) {
                    break; // disconnected: both paths refused identically
                }
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
        let engine = DeltaEngine::new(DfSssp::new());
        engine
            .route_in(&base, &snap_cx(&base))
            .expect("the pristine mesh routes");
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
fn switch_failures_change_the_roster_and_fall_back_identically() {
    for (name, base) in families() {
        let engine = eager();
        assert!(assert_equivalent(&engine, &base, name));
        let Some(degraded) = degrade::fail_random_switch(&base, 7) else {
            continue;
        };
        if assert_equivalent(&engine, &degraded, name) {
            let outcome = engine.last_outcome().expect("route recorded an outcome");
            assert!(
                !outcome.delta,
                "{name}: a roster change can never take the delta path"
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
            DfSssp::new(),
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
    let engine = eager();
    assert!(assert_equivalent(&engine, &base, "base"));
    let (degraded, removed) = degrade::fail_random_cables(&base, 1, 11);
    assert_eq!(removed, 1);
    if assert_equivalent(&engine, &degraded, "degraded") {
        // Recovery: route the original fabric again with the warm cache
        // built on the degraded epoch.
        assert!(assert_equivalent(&engine, &base, "recovered"));
    }
}
