//! Seeded property sweeps: a property is a plain `#[test]` that runs its
//! body once per seed in a range, on a generator seeded with it. Every
//! parameter is drawn through the [`Case`], which records it, so a
//! failure names the case's seed and everything it drew; narrowing the
//! range to that seed (`sweep(17..18, ..)`) replays the case alone.
//! There is no shrinking — the parameters are a handful of small
//! integers.
#![allow(dead_code)]

use fabric::rng::{Rng, UniformInt};
use fabric::topo::{self, RandomTopoSpec};
use fabric::{degrade, ChannelId, Network, NetworkBuilder, NodeId, Routes};
use std::fmt::{Debug, Write as _};
use std::ops::{Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};
use telemetry::fx::FxHashSet;

/// One case of a sweep: its generator and a log of what it drew.
pub struct Case {
    /// The case's generator, for bulk draws recorded afterwards with
    /// [`Case::note`].
    pub rng: Rng,
    drawn: String,
}

impl Case {
    /// Draw `name` uniformly from `range` and record it.
    pub fn draw<T: UniformInt + Debug>(&mut self, name: &str, range: impl RangeBounds<T>) -> T {
        let value = self.rng.range(range);
        self.note(name, &value);
        value
    }

    /// Record a derived parameter (e.g. a generated edge list).
    pub fn note(&mut self, name: &str, value: &dyn Debug) {
        write!(self.drawn, " {name}={value:?}").expect("write to String");
    }
}

/// Run `property` once per seed in `seeds`.
pub fn sweep(seeds: Range<u64>, property: impl Fn(&mut Case)) {
    for seed in seeds {
        let mut case = Case {
            rng: Rng::seed_from_u64(seed),
            drawn: String::new(),
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut case))) {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("case seed {seed} failed with{}: {message}", case.drawn);
        }
    }
}

/// One fabric of the generator zoo; two cases in three lose up to three
/// redundant cables through `degrade::remove`.
pub fn zoo_net(c: &mut Case) -> Network {
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

/// Four switches in a ring with parallel cables where a tie must pick
/// one of them: three `s0–s1` cables (opened from either end) and two
/// `s1–s2`, plus one terminal per switch homed on it and its
/// successor.
pub fn parallel_cables() -> Network {
    let mut b = NetworkBuilder::new();
    let s: Vec<NodeId> = (0..4).map(|i| b.add_switch(format!("s{i}"), 8)).collect();
    for (x, y) in [(0, 1), (1, 0), (0, 1), (1, 2), (2, 3), (3, 0), (2, 1)] {
        b.link(s[x], s[y]).expect("ports to spare");
    }
    for (i, &sw) in s.iter().enumerate() {
        let t = b.add_terminal(format!("t{i}"));
        b.link(t, sw).expect("ports to spare");
        b.link(t, s[(i + 1) % 4]).expect("ports to spare");
    }
    b.build()
}

/// Two switches and four terminals, `t1` homed on `s1` and on `s0`, with
/// tables whose walks transit a terminal: toward `t2`, `s0` forwards into
/// `t1`, which forwards on over its other uplink (its lowest port) to
/// `s1`. So `t0`'s walk passes `t1` before `t1`'s own turn as a source,
/// and `t3`'s first hop lands on `s0`, reached by then. Every other
/// column is routed the short way; every path is on layer 0.
pub fn terminal_transit() -> (Network, Routes) {
    let mut b = NetworkBuilder::new();
    let [s0, s1] = ["s0", "s1"].map(|name| b.add_switch(name, 8));
    let [t0, t1, t2, t3] = ["t0", "t1", "t2", "t3"].map(|name| b.add_terminal(name));
    for (u, v) in [(t0, s0), (t1, s1), (t1, s0), (t2, s1), (t3, s0), (s0, s1)] {
        b.link(u, v).expect("ports to spare");
    }
    let net = b.build();
    let mut routes = Routes::new(&net, "hand-built");
    let columns = [
        [(t1, s0), (t2, s1), (t3, s0), (s0, t0), (s1, s0)],
        [(t0, s0), (t2, s1), (t3, s0), (s0, t1), (s1, t1)],
        [(t0, s0), (t1, s1), (t3, s0), (s0, t1), (s1, t2)],
        [(t0, s0), (t1, s0), (t2, s1), (s0, t3), (s1, s0)],
    ];
    for (d, hops) in columns.iter().enumerate() {
        for &(u, v) in hops {
            let c = net.channel_between(u, v).expect("a cable");
            routes.set_next(u, d, c);
        }
    }
    (net, routes)
}
