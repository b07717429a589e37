//! Cold routes are pinned across commits. `delta_equivalence` and the
//! benchmark's cold check compare a patched epoch with a cold one from
//! the same build; nothing else compares a cold route with the cold
//! route of the build before. These are FNV-1a fingerprints of
//! `routes_to_json` for `Sssp` and `DfSssp` at chunk 1, 4, 16 and |T|,
//! generated at the commit before the in-engine thread fan-out was
//! deleted. A mismatch means the change redrew routes — a change of
//! algorithm, not a refactor.
//!
//! A second table, generated at the commit before Algorithm 2 moved onto
//! in-trees, pins what the first never reaches: `DfSssp` under the other
//! three cycle-break heuristics (tie-breaks, the `RandomEdge` counter,
//! the order victims arrive in the next layer) and at layer budgets the
//! uncompacted assignment overflows and compaction then fits (its order
//! of moves), each with the run's `DfStats`.
//!
//! A third table, generated at the commit before the online assignment
//! stopped reading a flattened path set, pins the online placement loop
//! through both of its callers: `Lash` and `DfSssp` in
//! `LayerAssignMode::Online`.

use dfsssp::core::dfsssp::DfStats;
use dfsssp::fabric::format::routes_to_json;
use dfsssp::prelude::*;
use dfsssp::topo::{self, RandomTopoSpec};

/// One row per (fabric, engine) — fabrics in `fabrics()` order, `Sssp`
/// before `DfSssp` — and one column per chunk in `chunks()` order.
#[rustfmt::skip]
const GOLDEN: [[u64; 4]; 10] = [
    [0x46f7c9cb5604f280, 0x71f1ac0219f4d174, 0x69c9d3fa2dadf1da, 0x69c9d3fa2dadf1da],
    [0x8d375814e2b1529f, 0x30f3e7d8878dbcfd, 0x99af7b01a2004ae9, 0x99af7b01a2004ae9],
    [0x9731e82b8cba3930, 0xad3c7b1e35bd368e, 0x530285a58a9da7fe, 0x530285a58a9da7fe],
    [0xb9c1f2611959834d, 0xb75ed0587667dc15, 0xc8c87f868513cf65, 0xc8c87f868513cf65],
    [0x9cad9de5af1306d9, 0x04042b2a5ba44923, 0x2047ce23c698410c, 0x2047ce23c698410c],
    [0x7ef28075f72988d0, 0xfd9c1bbeb5b97905, 0xb5679124d546aa07, 0xb5679124d546aa07],
    [0xfaa8a1618a0db8fe, 0xb479bd02128d07d4, 0x8b391b41f9c35448, 0x74dee54b80f9dafb],
    [0x5e9869d0e9cf7250, 0x07c2637e36c3e353, 0x68288a0a6872254d, 0x4aa68dac1b7a5d91],
    [0xb6fdd921a98d4739, 0xa79f5392a95cdde1, 0x6113227a0a570791, 0xd0c405cc854d41e1],
    [0xd74f712ff1bd1836, 0x87f36c1eec43aa6e, 0xd2523d0460287c0e, 0xbd44172b5d9ee48e],
];

fn fabrics() -> [Network; 5] {
    let spec = RandomTopoSpec {
        switches: 16,
        radix: 16,
        terminals_per_switch: 4,
        interswitch_links: 40,
    };
    [
        topo::torus(&[4, 4], 1),
        topo::kary_ntree(4, 2),
        topo::dragonfly(3, 1, 1),
        topo::kautz(3, 2, 36, true),
        topo::random_topology(&spec, 7),
    ]
}

fn chunks(net: &Network) -> [usize; 4] {
    [1, 4, 16, net.num_terminals()]
}

fn fingerprint(routes: &Routes) -> u64 {
    routes_to_json(routes)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn cold_routes_match_the_pinned_fingerprints() {
    let mut engines: [Box<dyn RoutingEngine>; 2] = [Box::new(Sssp::new()), Box::new(DfSssp::new())];
    let mut got = Vec::new();
    for net in fabrics() {
        for engine in &mut engines {
            got.push(chunks(&net).map(|chunk| {
                engine.set_config(EngineConfig::new().compute(ComputeOpts::new().chunk(chunk)));
                let routes = engine
                    .route(&net)
                    .unwrap_or_else(|e| panic!("{} {}: {e}", net.label(), engine.name()));
                fingerprint(&routes)
            }));
        }
    }
    // On a mismatch print the whole table as source, so an intended
    // change of algorithm regenerates it in one paste.
    let rows: String = got
        .iter()
        .map(|[a, b, c, d]| format!("    [{a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}],\n"))
        .collect();
    assert!(got == GOLDEN, "route fingerprints moved:\n{rows}");
}

/// `(fingerprint, cycles_broken, paths_moved, layers_used)` per run of
/// `heuristic_runs()` then `compaction_runs()`, in their order.
#[rustfmt::skip]
const GOLDEN_ASSIGNMENT: [(u64, usize, usize, usize); 38] = [
    (0x8dde3dec841d6baf, 23, 72, 2),
    (0x99af7b01a2004ae9, 0, 0, 1),
    (0x73c7a19c559618de, 19, 37, 2),
    (0x99af7b01a2004ae9, 0, 0, 1),
    (0xcd6d5bda8c12fcb6, 19, 37, 2),
    (0x99af7b01a2004ae9, 0, 0, 1),
    (0xb9c1f2611959834d, 0, 0, 1),
    (0xc8c87f868513cf65, 0, 0, 1),
    (0xb9c1f2611959834d, 0, 0, 1),
    (0xc8c87f868513cf65, 0, 0, 1),
    (0xb9c1f2611959834d, 0, 0, 1),
    (0xc8c87f868513cf65, 0, 0, 1),
    (0x8d11b898cd2464bd, 8, 31, 2),
    (0x4f112cc40c8202ce, 10, 40, 3),
    (0xd04b4c5c81ed0bf0, 9, 26, 2),
    (0x079dcc989b37bd26, 9, 33, 2),
    (0xedfe208d2ec805ed, 11, 35, 2),
    (0xfbccff7a6511ad67, 11, 34, 2),
    (0x30863b2c8d16419f, 259, 864, 4),
    (0xbeffe6610df393cc, 145, 612, 4),
    (0x7dde7a4b49dbddb4, 221, 481, 3),
    (0xde1c171dcc1faf47, 157, 478, 3),
    (0x201c95f76835006b, 295, 643, 3),
    (0x655b12b518b019c2, 156, 427, 3),
    (0xf133f78d32255e7e, 35, 624, 3),
    (0x83771f484992fe2e, 8, 224, 2),
    (0x5f8f27a89dc6dfce, 33, 404, 2),
    (0xbd44172b5d9ee48e, 7, 112, 2),
    (0x6548cf0da9aec58c, 47, 624, 3),
    (0xaf34f43b4aa7c38e, 10, 208, 2),
    (0x26abf9f6de547a52, 240, 2289, 7),
    (0x681a9aee624286d8, 240, 2336, 6),
    (0x11cdb36606fcd8f1, 240, 2450, 5),
    (0xb95458fcffe63341, 191, 13916, 6),
    (0xefe632442221b308, 191, 14316, 5),
    (0xae33dadb12e93d5f, 191, 15024, 4),
    (0xaaeb506ef84f83fb, 89, 263, 3),
    (0x41658d0dffa5038b, 22, 50, 2),
];

const OTHER_HEURISTICS: [CycleBreakHeuristic; 3] = [
    CycleBreakHeuristic::HeaviestEdge,
    CycleBreakHeuristic::FirstEdge,
    CycleBreakHeuristic::RandomEdge(7),
];

/// Every golden fabric under each of `OTHER_HEURISTICS`, at chunk 1 and
/// at |T| (the schedule the delta engine patches under).
fn heuristic_runs() -> Vec<(Network, DfSssp, usize)> {
    let mut runs = Vec::new();
    for net in fabrics() {
        for heuristic in OTHER_HEURISTICS {
            for chunk in [1, net.num_terminals()] {
                runs.push((net.clone(), DfSssp::with_heuristic(heuristic), chunk));
            }
        }
    }
    runs
}

/// Budgets below what the uncompacted assignment uses on a fabric, which
/// compaction fits by sinking paths (on the golden fabrics a tighter
/// budget only errors, hence four denser ones).
fn compaction_runs() -> Vec<(Network, DfSssp, usize)> {
    let heaviest = CycleBreakHeuristic::HeaviestEdge;
    let first = CycleBreakHeuristic::FirstEdge;
    let cases = [
        (topo::torus(&[6, 6], 1), heaviest, [7, 6, 5].as_slice()),
        (topo::kautz(2, 3, 96, true), heaviest, &[6, 5, 4]),
        (topo::torus(&[5, 5], 1), first, &[3]),
        (topo::hypercube(4, 1), first, &[2]),
    ];
    let mut runs = Vec::new();
    for (net, heuristic, budgets) in cases {
        for &max_layers in budgets {
            let engine = DfSssp {
                config: EngineConfig::new().max_layers(max_layers),
                ..DfSssp::with_heuristic(heuristic)
            };
            runs.push((net.clone(), engine, 1));
        }
    }
    runs
}

fn assignment_row(net: &Network, engine: &DfSssp, chunk: usize) -> (u64, DfStats) {
    let compute = ComputeOpts::new().chunk(chunk);
    let engine = engine.clone().with_config(engine.config().compute(compute));
    let (routes, stats) = engine
        .route_with_stats(net)
        .unwrap_or_else(|e| panic!("{} {:?}: {e}", net.label(), engine.heuristic));
    (fingerprint(&routes), stats)
}

#[test]
fn layer_assignments_match_the_pinned_table() {
    // The compaction rows pin compaction only if it ran and moved paths:
    // the same engine without it needs more layers than the budget and
    // moves a different number of paths.
    for (net, engine, chunk) in compaction_runs() {
        let raw = DfSssp {
            config: EngineConfig::new().max_layers(64),
            compact: false,
            ..engine.clone()
        };
        let (raw, fit) = (
            assignment_row(&net, &raw, chunk).1,
            assignment_row(&net, &engine, chunk).1,
        );
        let max_layers = engine.config.max_layers;
        let what = format!("{} at {max_layers} layers", net.label());
        assert!(raw.layers_used > max_layers, "{what}: fits uncompacted");
        assert!(fit.layers_used <= max_layers, "{what}");
        assert!(fit.paths_moved > raw.paths_moved, "{what}: nothing sank");
    }
    let got: Vec<_> = heuristic_runs()
        .iter()
        .chain(&compaction_runs())
        .map(|(net, engine, chunk)| {
            let (print, stats) = assignment_row(net, engine, *chunk);
            (
                print,
                stats.cycles_broken,
                stats.paths_moved,
                stats.layers_used,
            )
        })
        .collect();
    let rows: String = got
        .iter()
        .map(|(p, c, m, l)| format!("    ({p:#018x}, {c}, {m}, {l}),\n"))
        .collect();
    assert!(got == GOLDEN_ASSIGNMENT, "layer assignments moved:\n{rows}");
}

/// `(fingerprint, layers_used, paths_moved)` per golden fabric, in
/// `fabrics()` order: `Lash` at its budget of 8, then online `DfSssp` at
/// chunk 1 and at |T|. LASH reports no moves; its third column counts
/// the terminal pairs it placed above layer 0.
#[rustfmt::skip]
const GOLDEN_ONLINE: [(u64, usize, usize); 15] = [
    (0xd39cf0e8d9e8a05e, 1, 0),
    (0xa8a703f8c2ac445e, 2, 21),
    (0x99af7b01a2004ae9, 1, 0),
    (0x8518981978561b87, 1, 0),
    (0xb9c1f2611959834d, 1, 0),
    (0xc8c87f868513cf65, 1, 0),
    (0x05c7e74734da61a2, 2, 22),
    (0x81d6e385d4d08810, 2, 24),
    (0x972e321f2bad7fbe, 2, 17),
    (0x35fa7dc590f25194, 3, 307),
    (0x818617104e36bbbf, 3, 257),
    (0x0e1ead69ce1647ac, 2, 216),
    (0x3f543ea7b786299f, 2, 16),
    (0x4ce811eaaea3f81e, 2, 396),
    (0xa289ac03b7dbd5ee, 2, 96),
];

#[test]
fn online_assignments_match_the_pinned_table() {
    let online = DfSssp {
        mode: LayerAssignMode::Online,
        ..DfSssp::new()
    };
    let mut got = Vec::new();
    for net in fabrics() {
        let (routes, layers) = Lash::new()
            .route_with_layers(&net)
            .unwrap_or_else(|e| panic!("{} LASH: {e}", net.label()));
        let nt = net.num_terminals();
        let pairs = (0..nt).flat_map(|s| (0..nt).map(move |d| (s, d)));
        let above = pairs.filter(|&(s, d)| routes.layer(s, d) > 0).count();
        got.push((fingerprint(&routes), layers, above));
        for chunk in [1, nt] {
            let (print, stats) = assignment_row(&net, &online, chunk);
            got.push((print, stats.layers_used, stats.paths_moved));
        }
    }
    let rows: String = got
        .iter()
        .map(|(p, l, m)| format!("    ({p:#018x}, {l}, {m}),\n"))
        .collect();
    assert!(got == GOLDEN_ONLINE, "online assignments moved:\n{rows}");
}
