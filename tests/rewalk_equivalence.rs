//! A walk made from the walk of the previous artifact is the walk of
//! every column.
//!
//! `vet::rewalk_tables` walks only the columns of a new artifact that
//! differ from a base's (the two views share their node and channel
//! ids), and carries the rest; `vet::recheck` is the publish gate through
//! it. The oracle is `vet::walk_tables` of the same tables, every field
//! compared (findings in order, the cycle search's verdict and witness), and
//! `vet::check_with_verdict`'s report as JSON; the union of the old end's
//! and the new tables' re-walks, searched from the heads the two gained,
//! against `vet::union_cycles_in` over the same edges. The artifacts are the ones
//! the subnet manager's loop deploys: chains of cable failures and
//! repairs, switch failures with quarantine and coalesced batches
//! through `SmLoop<DeltaEngine>` at chunk |T|, over the generator zoo and
//! three fixed fabrics, with each re-walk the base of the next. Two hand
//! built cases pin what a column's entries alone do not show: a restored
//! cable that makes an unchanged column's path non-minimal, a column
//! whose bytes are unchanged but take the cable the event killed, and a
//! column whose warning every walk must report again.

mod common;

use common::{parallel_cables, sweep, zoo_net, Case};
use dfsssp::prelude::*;
use fabric::{degrade, topo, ChannelId, Network, Routes};
use std::cell::Cell;
use telemetry::fx::FxHashSet;
use vet::{Config, LintCode, TableWalk};

/// The walk the loop's guard and old end make: no minimality check.
fn quiet() -> Config {
    Config {
        check_minimal: false,
        ..Config::default()
    }
}

/// What the sweep saw, to show it exercised the re-walk.
#[derive(Default)]
struct Tally {
    rewalks: Cell<usize>,
    fresh: Cell<usize>,
    carried: Cell<usize>,
    gained_searches: Cell<usize>,
    /// Unions of the old end and the guard's walk searched from gained
    /// heads, and how many of them were cyclic.
    unions_from_heads: Cell<usize>,
    cyclic_unions: Cell<usize>,
}

impl Tally {
    fn bump(cell: &Cell<usize>, n: usize) {
        cell.set(cell.get() + n);
    }
}

/// Every field of a re-walk against a walk of every column, findings in
/// order, and the cycle search (from gained heads, where the re-walk may)
/// against the full one.
fn assert_same(got: &TableWalk, want: &TableWalk, tally: &Tally, what: &str) {
    match got.rewalked {
        Some((_, walked_in)) => {
            Tally::bump(&tally.rewalks, 1);
            Tally::bump(&tally.carried, got.broken.len() - walked_in);
        }
        None => Tally::bump(&tally.fresh, 1),
    }
    if got.pending_search() == Some(true) {
        Tally::bump(&tally.gained_searches, 1);
    }
    assert_eq!(got.num_layers, want.num_layers, "{what}: num_layers");
    let pairs = |w: &TableWalk| {
        let counters = (w.pairs, w.pairs_routed, w.pairs_broken, w.pairs_unreachable);
        (counters, w.max_hops)
    };
    assert_eq!(pairs(got), pairs(want), "{what}: pair statistics");
    assert_eq!(
        got.paths_per_layer, want.paths_per_layer,
        "{what}: paths_per_layer"
    );
    assert!(got.edges == want.edges, "{what}: edges");
    assert!(
        got.unbroken_edges == want.unbroken_edges,
        "{what}: unbroken_edges"
    );
    assert_eq!(got.broken, want.broken, "{what}: broken");
    assert_eq!(got.broken_pairs, want.broken_pairs, "{what}: broken_pairs");
    assert_eq!(
        got.unbroken_errors, want.unbroken_errors,
        "{what}: unbroken_errors"
    );
    let findings = |w: &TableWalk| format!("{:?}", w.diagnostics());
    assert_eq!(findings(got), findings(want), "{what}: diagnostics");
    assert_eq!(got.num_errors(), want.num_errors(), "{what}: num_errors");
    assert_eq!(
        got.cyclic_layers(),
        want.cyclic_layers(),
        "{what}: cyclic_layers"
    );
}

/// The planner's search of the old end's and the guard's union against
/// the search from every channel over the same edges: the same layers,
/// the same witnesses.
fn assert_union_matches(old: &TableWalk, new: &TableWalk, tally: &Tally, what: &str) {
    let got = vet::union_cycles_of(&[old, new]);
    let want = vet::union_cycles_in(&[&old.edges, &new.edges]);
    assert_eq!(
        got, want,
        "{what}: union of the old end and the guard's walk"
    );
    if vet::union_heads(&[old, new]).iter().any(Option::is_some) {
        Tally::bump(&tally.unions_from_heads, 1);
        Tally::bump(&tally.cyclic_unions, usize::from(!got.is_empty()));
    }
}

/// One deployed artifact and its walks: the base of the next link.
struct Link {
    net: Network,
    routes: Routes,
    quiet: TableWalk,
    default: TableWalk,
}

impl Link {
    /// `routes` on `net`, walked whole under both configs.
    fn first(net: &Network, routes: &Routes) -> Link {
        let (quiet, default) = (quiet(), Config::default());
        Link {
            net: net.clone(),
            routes: routes.clone(),
            quiet: vet::walk_tables(net, routes, &quiet),
            default: vet::walk_tables(net, routes, &default),
        }
    }

    /// `routes` on `net` walked from this link under both configs, the
    /// remap of this link's tables (the loop's old end) walked from its
    /// quiet walk, and `check` through the re-walk: each against the
    /// oracle. Returns the next link.
    fn next(&self, net: &Network, routes: &Routes, tally: &Tally, what: &str) -> Link {
        let base = |walk| (&self.net, &self.routes, walk);
        let old = subnet::remap_routes(&self.net, &self.routes, net);
        let old_walk = vet::rewalk_tables(base(&self.quiet), net, &old, &quiet());
        let want = vet::walk_tables(net, &old, &quiet());
        assert_same(&old_walk, &want, tally, &format!("{what}: old end"));

        let quiet_walk = vet::rewalk_tables(base(&self.quiet), net, routes, &quiet());
        let want = vet::walk_tables(net, routes, &quiet());
        assert_same(&quiet_walk, &want, tally, &format!("{what}: quiet"));
        assert_union_matches(&old_walk, &quiet_walk, tally, what);

        let default_walk = vet::rewalk_tables(base(&self.default), net, routes, &Config::default());
        let want = vet::walk_tables(net, routes, &Config::default());
        assert_same(&default_walk, &want, tally, &format!("{what}: default"));

        let verdict = vet::existence(net);
        let (report, _) = vet::recheck(Some(base(&self.default)), net, routes, &verdict);
        let fresh = vet::check_with_verdict(net, routes, &verdict);
        assert_eq!(report.to_json(), fresh.to_json(), "{what}: report");
        Link {
            net: net.clone(),
            routes: routes.clone(),
            quiet: quiet_walk,
            default: default_walk,
        }
    }
}

/// A cold `DfSssp` under the serving schedule: one chunk of every
/// terminal of `net`.
fn cold(net: &Network) -> DfSssp {
    let snapshot = ComputeOpts::new().chunk(net.num_terminals());
    DfSssp::new().with_config(EngineConfig::new().compute(snapshot))
}

/// Bring `base` up under `SmLoop<DeltaEngine>` and hand every batch of
/// `events` to it; each batch that reroutes is checked as the next link
/// of the chain. A batch the loop refuses rolls back and is skipped.
fn drive(base: &Network, events: &[Vec<FabricEvent>], tally: &Tally) {
    let label = base.label().to_string();
    let Ok(mut sm) = SmLoop::bring_up(
        DeltaEngine::new(cold(base)),
        base.clone(),
        base.terminals()[0],
    ) else {
        return;
    };
    let mut link = Link::first(sm.network(), &sm.programmed().routes);
    for (i, batch) in events.iter().enumerate() {
        match sm.handle_batch(batch) {
            Ok(outcome) if outcome.rerouted => {
                let what = format!("{label} batch {i} {batch:?}");
                link = link.next(sm.network(), &sm.programmed().routes, tally, &what);
            }
            _ => {}
        }
    }
}

/// A chain of events on `net`: cables down and back up, a switch down
/// (quarantining its terminals, if it has any) and up, and coalesced
/// pairs.
fn chain_of(net: &Network, c: &mut Case, len: usize) -> Vec<Vec<FabricEvent>> {
    let cables: Vec<ChannelId> = net
        .channels()
        .filter(|(id, ch)| ch.rev.is_none_or(|r| r.0 > id.0))
        .map(|(id, _)| id)
        .collect();
    let switches = net.switches();
    let mut down: Vec<FabricEvent> = Vec::new();
    let mut events = Vec::new();
    for _ in 0..len {
        let cable = FabricEvent::CableDown(cables[c.rng.range(0..cables.len())]);
        let event = match c.rng.range(0..6) {
            0..=1 => cable,
            2 => FabricEvent::SwitchDown(switches[c.rng.range(0..switches.len())]),
            _ if !down.is_empty() => match down.swap_remove(c.rng.range(0..down.len())) {
                FabricEvent::CableDown(x) => FabricEvent::CableUp(x),
                FabricEvent::SwitchDown(s) => FabricEvent::SwitchUp(s),
                up => up,
            },
            _ => cable,
        };
        if matches!(
            event,
            FabricEvent::CableDown(_) | FabricEvent::SwitchDown(_)
        ) {
            down.push(event);
        }
        if c.rng.chance(0.25) {
            let second = FabricEvent::CableDown(cables[c.rng.range(0..cables.len())]);
            down.push(second);
            events.push(vec![event, second]);
        } else {
            events.push(vec![event]);
        }
    }
    events
}

#[test]
fn a_rewalk_is_a_walk_of_every_column() {
    let tally = Tally::default();
    sweep(0..300, |c| {
        let net = zoo_net(c);
        let events = chain_of(&net, c, 6);
        drive(&net, &events, &tally);
    });
    let parallel = parallel_cables();
    sweep(0..8, |c| {
        drive(&parallel, &chain_of(&parallel, c, 6), &tally)
    });

    // The fat tree: a leaf cable to a spine other than the lowest-id one
    // moves 16 of 256 trees; one to it moves all of them.
    let fat = topo::kary_ntree(16, 2);
    let spine = fat.node_by_name("s0_0").unwrap();
    let touches = |c: ChannelId| [fat.channel(c).src, fat.channel(c).dst].contains(&spine);
    let (lowest, other): (Vec<ChannelId>, Vec<ChannelId>) =
        fat.switch_cables().into_iter().partition(|&c| touches(c));
    let (a, b, s) = (other[0], other[40], lowest[3]);
    use FabricEvent::*;
    let events = [
        vec![CableDown(a)],
        vec![CableDown(b)],
        vec![CableUp(a)],
        vec![CableDown(s)],
        vec![CableUp(s), CableUp(b)],
        vec![SwitchDown(fat.node_by_name("s1_3").unwrap())],
    ];
    drive(&fat, &events, &tally);
    let torus = topo::torus(&[8, 8], 2);
    let cables = torus.switch_cables();
    let events = [
        vec![CableDown(cables[0])],
        vec![CableUp(cables[0])],
        vec![CableDown(cables[9]), CableDown(cables[30])],
    ];
    drive(&torus, &events, &tally);

    let (rewalks, fresh) = (tally.rewalks.get(), tally.fresh.get());
    let (carried, gained) = (tally.carried.get(), tally.gained_searches.get());
    let (unions, cyclic) = (tally.unions_from_heads.get(), tally.cyclic_unions.get());
    println!(
        "{rewalks} re-walks carrying {carried} columns, {fresh} fresh, {gained} gained searches, \
         {unions} unions searched from gained heads ({cyclic} cyclic)"
    );
    assert!(rewalks > 500 && fresh > 100 && carried > 5_000 && gained > 200);
    assert!(unions > 100, "the loop's unions searched from gained heads");
}

/// Triangle `a – b – c` plus the cable `a – c`, `ta` on `a`, `tc` on `c`,
/// and eight terminals on `b`; `without_ac` is the view with `a – c`
/// down.
fn triangle() -> (Network, Network) {
    let mut b = NetworkBuilder::new();
    let (sa, sb, sc) = (
        b.add_switch("a", 8),
        b.add_switch("b", 12),
        b.add_switch("c", 8),
    );
    let on_b = (0..8).map(|i| (format!("tb{i}"), sb));
    for (name, sw) in [("ta".to_string(), sa), ("tc".to_string(), sc)]
        .into_iter()
        .chain(on_b)
    {
        let t = b.add_terminal(name);
        b.link(t, sw).unwrap();
    }
    for (x, y) in [(sa, sb), (sb, sc), (sa, sc)] {
        b.link(x, y).unwrap();
    }
    let full = b.build();
    let ac = full.channel_between(sa, sc).unwrap();
    let dead: FxHashSet<ChannelId> = [ac, full.channel(ac).rev.unwrap()].into_iter().collect();
    let without_ac = degrade::remove(&full, &FxHashSet::default(), &dead);
    (full, without_ac)
}

/// Minimal tables on `net`: each node toward each terminal over its
/// lowest-id channel on a shortest path.
fn shortest(net: &Network) -> Routes {
    let mut r = Routes::new(net, "shortest");
    for (d, &dst) in net.terminals().iter().enumerate() {
        let hops = net.hops_to(dst);
        for (id, _) in net.nodes().filter(|&(id, _)| id != dst) {
            let tight =
                |&c: &ChannelId| hops[net.channel(c).dst.idx()].saturating_add(1) == hops[id.idx()];
            if let Some(c) = net.out_channels(id).iter().copied().find(tight) {
                r.set_next(id, d, c);
            }
        }
    }
    r
}

#[test]
fn a_kept_column_over_the_killed_cable_is_walked() {
    // Up: `a` reaches `tc`, and `c` reaches `ta`, over a – c. Down: the
    // tables are kept byte for byte, so every column equals the base's,
    // but those two take the cable the event killed. Only a walk of them
    // reports the stale entries: both walk out and in, the other eight
    // are carried, and each walk is the walk of every column.
    let (full, without_ac) = triangle();
    let up = shortest(&full);
    let base = Link::first(&full, &up);
    assert_eq!(base.default.diagnostics().len(), 0, "clean before");
    let tally = Tally::default();
    let link = base.next(&without_ac, &up, &tally, "cable a – c lost, tables kept");
    assert_eq!(
        (link.quiet.rewalked, link.default.rewalked),
        (Some((2, 2)), Some((2, 2)))
    );
    let stale = link.quiet.diagnostics().iter();
    let stale: Vec<_> = stale
        .filter(|d| d.code == LintCode::InvalidNextHop)
        .collect();
    assert_eq!(stale.len(), 2, "{stale:?}");
    assert!(stale.iter().all(|d| d.message.contains("dead cable")));
}

#[test]
fn a_restored_cable_that_shortens_a_kept_column_is_walked() {
    // Down: a reaches c over b, minimally. Up: the tables keep that
    // column, entry for entry, but a – c is one hop now, so the column's
    // path from `ta` is a detour only a walk of it can report (and the
    // same toward `ta` from `tc`). Only the gate's walk checks minimality:
    // it walks those two columns, the quiet walks none.
    let (full, without_ac) = triangle();
    let down = shortest(&without_ac);
    let kept = subnet::remap_routes(&without_ac, &down, &full);
    let base = Link::first(&without_ac, &down);
    assert_eq!(base.default.diagnostics().len(), 0, "minimal before");
    let tally = Tally::default();
    let link = base.next(&full, &kept, &tally, "cable a – c restored");
    let stretch = link.default.diagnostics().iter();
    assert_eq!(
        stretch
            .filter(|d| d.code == LintCode::NonMinimalPath)
            .count(),
        2
    );
    assert_eq!(
        tally.rewalks.get(),
        3,
        "every walk of the link is a re-walk"
    );
    assert_eq!(
        (link.quiet.rewalked, link.default.rewalked),
        (Some((0, 0)), Some((2, 2)))
    );
}

#[test]
fn a_column_with_a_warning_is_walked_every_time() {
    // tc's column detours a → b → c: a V006 warning the gate's walk must
    // report on every artifact, also when nothing in the column changed.
    let (full, _) = triangle();
    let node = |name| full.node_by_name(name).unwrap();
    let mut detour = shortest(&full);
    let tc = full.terminal_index(node("tc")).unwrap();
    detour.set_next(
        node("a"),
        tc,
        full.channel_between(node("a"), node("b")).unwrap(),
    );
    let base = Link::first(&full, &detour);
    let warned = |w: &TableWalk| {
        w.diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::NonMinimalPath)
            .count()
    };
    assert_eq!(warned(&base.default), 1);
    let tally = Tally::default();
    let mut link = base;
    for round in 0..3 {
        link = link.next(&full, &detour, &tally, &format!("round {round}"));
        assert_eq!(warned(&link.default), 1, "round {round}");
        assert_eq!(link.default.rewalked, Some((1, 1)), "round {round}");
    }
}

/// `routes` with the columns toward `dests` replaced by shortest ones on
/// `view` — over the highest-id tight channel, another tree than the
/// lowest-id one — each column keeping its layers.
fn rerouted(view: &Network, routes: &Routes, dests: &[usize]) -> Routes {
    let mut r = routes.clone();
    for &d in dests {
        let dst = view.terminals()[d];
        let hops = view.hops_to(dst);
        let live = view
            .nodes()
            .filter(|&(id, _)| id != dst && view.is_live(id));
        for (id, _) in live {
            let tight = |&c: &ChannelId| {
                hops[view.channel(c).dst.idx()].saturating_add(1) == hops[id.idx()]
            };
            match view.out_channels(id).iter().rev().copied().find(tight) {
                Some(c) => r.set_next(id, d, c),
                None => r.clear_next(id, d),
            }
        }
    }
    r
}

#[test]
fn a_union_searched_from_gained_heads_is_the_whole_search() {
    // Multi-layer DFSSSP tables, then a cable or a switch down and back
    // up. Down: the old end is the tables remapped onto the view, the new
    // tables reroute its broken columns and one more on another tree,
    // layers kept; both are walked from a searched walk of the tables
    // before. Up: the old end is the new tables remapped back, and the
    // new ones are the tables before, both walked from the new tables'
    // searched walk. Each union, searched from the heads the two walks
    // gained, must be the search from every channel.
    let tally = Tally::default();
    sweep(0..600, |c| {
        let net = zoo_net(c);
        let Ok(before) = DfSssp::new().route(&net) else {
            return;
        };
        let base = vet::walk_tables(&net, &before, &quiet());
        base.cyclic_layers();
        let cables: Vec<ChannelId> = net.switch_cables();
        if cables.is_empty() {
            return;
        }
        let cable = cables[c.rng.range(0..cables.len())];
        let dead: FxHashSet<ChannelId> = std::iter::once(cable)
            .chain(net.channel(cable).rev)
            .collect();
        let switch = net.switches()[c.rng.range(0..net.num_switches())];
        let views = [
            degrade::remove(&net, &FxHashSet::default(), &dead),
            degrade::remove(&net, &[switch].into_iter().collect(), &FxHashSet::default()),
        ];
        for view in views.iter().filter(|v| v.terminals() == net.terminals()) {
            if !view.is_strongly_connected() {
                continue;
            }
            let what = format!("{} without {cable:?} or {switch:?}", net.label());
            let old = subnet::remap_routes(&net, &before, view);
            let old_walk = vet::rewalk_tables((&net, &before, &base), view, &old, &quiet());
            let nt = net.num_terminals();
            let mut dests: Vec<usize> = (0..nt).filter(|&d| old_walk.broken[d]).collect();
            dests.push(c.rng.range(0..nt));
            let after = rerouted(view, &old, &dests);
            let new_walk = vet::rewalk_tables((&net, &before, &base), view, &after, &quiet());
            assert_union_matches(&old_walk, &new_walk, &tally, &format!("{what}: down"));

            new_walk.cyclic_layers();
            let old = subnet::remap_routes(view, &after, &net);
            let up = (view, &after, &new_walk);
            let old_walk = vet::rewalk_tables(up, &net, &old, &quiet());
            let back_walk = vet::rewalk_tables(up, &net, &before, &quiet());
            assert_union_matches(&old_walk, &back_walk, &tally, &format!("{what}: up"));
        }
    });
    let (unions, cyclic) = (tally.unions_from_heads.get(), tally.cyclic_unions.get());
    println!("{unions} unions searched from gained heads, {cyclic} cyclic");
    assert!(
        unions > 100 && cyclic > 30,
        "{unions} unions, {cyclic} cyclic"
    );
}
