//! The determinism contract that is left now that route compute is
//! sequential: at a fixed `chunk`, the routes DFSSSP produces are a pure
//! function of the network — whatever else the process is doing.
//! Property sweeps draw seeded dragonfly / fat-tree / torus fabrics
//! (pristine and degraded), route one shared engine from 1, 2 and 4
//! concurrent caller threads, and compare every table bit for bit
//! (`Routes: Eq`) against a lone call's. This is also the only place
//! chunk 4 and 16 meet degraded dragonflies.

mod common;

use common::{sweep, Case};
use dfsssp::prelude::*;
use std::sync::Barrier;

/// Route `net` under `chunk` alone, then from 1, 2 and 4 threads that
/// share the engine and start together, and require every table
/// identical to the lone call's (and deadlock-free).
fn assert_thread_invariant(net: &Network, chunk: usize) {
    let compute = ComputeOpts::new().chunk(chunk);
    let engine = DfSssp::new().with_config(EngineConfig::new().compute(compute));
    let route = || {
        engine
            .route(net)
            .unwrap_or_else(|e| panic!("{}: {e}", net.label()))
    };
    let baseline = route();
    dfsssp::verify::verify_deadlock_free(net, &baseline)
        .unwrap_or_else(|e| panic!("{}: {e}", net.label()));
    for callers in [1usize, 2, 4] {
        let start = Barrier::new(callers);
        let tables: Vec<Routes> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        route()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        for routes in tables {
            assert!(
                routes == baseline,
                "{} diverged with {callers} concurrent callers at chunk={chunk}",
                net.label()
            );
        }
    }
}

/// Draw a chunk size, a cable-failure count and a seed, and check `net`
/// with that many redundant cables failed (the pristine network when
/// nothing can be removed safely).
fn assert_degraded_thread_invariant(c: &mut Case, net: &Network) {
    let chunk = [1usize, 4, 16][c.draw("chunk_ix", 0usize..3)];
    let cables = c.draw("cables", 0usize..3);
    let seed = c.draw("seed", 0u64..1024);
    let (worn, _removed) = dfsssp::fabric::degrade::fail_random_cables(net, cables, seed);
    assert_thread_invariant(&worn, chunk);
}

#[test]
fn torus_routes_ignore_worker_count() {
    sweep(0..8, |c| {
        let (a, b) = (c.draw("a", 3u16..6), c.draw("b", 3u16..6));
        assert_degraded_thread_invariant(c, &dfsssp::topo::torus(&[a, b], 1));
    });
}

#[test]
fn fat_tree_routes_ignore_worker_count() {
    sweep(0..8, |c| {
        let k = c.draw("k", 3usize..7);
        assert_degraded_thread_invariant(c, &dfsssp::topo::kary_ntree(k, 2));
    });
}

#[test]
fn dragonfly_routes_ignore_worker_count() {
    sweep(0..8, |c| {
        let (a, h) = (c.draw("a", 3usize..5), c.draw("h", 1usize..3));
        assert_degraded_thread_invariant(c, &dfsssp::topo::dragonfly(a, 1, h));
    });
}

/// The non-property anchor: one deterministic sweep that always runs
/// identically, so a failure here bisects cleanly.
#[test]
fn example_topologies_are_thread_invariant() {
    for net in [
        dfsssp::topo::torus(&[4, 4], 2),
        dfsssp::topo::kary_ntree(4, 2),
        dfsssp::topo::dragonfly(3, 1, 1),
        dfsssp::topo::kautz(3, 2, 36, true),
    ] {
        for chunk in [1usize, 16] {
            assert_thread_invariant(&net, chunk);
        }
    }
}
