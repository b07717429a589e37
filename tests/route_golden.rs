//! Cold routes are pinned across commits. `delta_equivalence` and the
//! benchmark's cold check compare a patched epoch with a cold one from
//! the same build; nothing else compares a cold route with the cold
//! route of the build before. These are FNV-1a fingerprints of
//! `routes_to_json` for `Sssp` and `DfSssp` at chunk 1, 4, 16 and |T|,
//! generated at the commit before the in-engine thread fan-out was
//! deleted. A mismatch means the change redrew routes — a change of
//! algorithm, not a refactor.

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
    let engines: [Box<dyn RoutingEngine>; 2] = [Box::new(Sssp::new()), Box::new(DfSssp::new())];
    let mut got = Vec::new();
    for net in fabrics() {
        for engine in &engines {
            got.push(chunks(&net).map(|chunk| {
                let cx = ComputeOpts::new().chunk(chunk).resolve();
                let routes = engine
                    .route_in(&net, &cx)
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
