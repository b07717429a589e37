//! The table walk as it was before the column kernel, kept as the oracle
//! of [`super::walk`]: every source walked in turn against one colored
//! state, and the dependency edges re-walked per (destination, layer).

use super::*;

/// Walk `routes`' tables on `net`, one colored pass per destination.
/// With `scope = Some(dests)` only the listed destination terminal
/// indices are walked (each still against every source), so
/// re-verifying an incrementally patched artifact costs O(scope · V)
/// instead of O(T · V); out-of-range indices are ignored. `None` walks
/// everything.
///
/// Tables sized for a different network cannot be indexed safely, and
/// tables that program a node the network drops (a switch that died
/// since) route through hardware that is gone: either is one V003 and an
/// otherwise empty walk.
pub(crate) fn walk(
    net: &Network,
    routes: &Routes,
    cfg: &Config,
    scope: Option<&[usize]>,
) -> TableWalk {
    let n = net.num_nodes();
    let nl = routes.num_layers() as usize;
    let mut res = TableWalk::empty(routes, cfg);
    if !crate::shape_matches(net, routes) {
        res.em.emit(
            LintCode::InvalidNextHop,
            Severity::Error,
            format!(
                "tables sized for {} node(s) / {} terminal(s), network has {} ({} live) / {} — \
                 artifact does not match this network",
                routes.num_nodes(),
                routes.num_terminals(),
                net.num_nodes(),
                net.num_switches() + net.num_terminals(),
                net.num_terminals()
            ),
            Witness::Shape {
                table_nodes: routes.num_nodes(),
                net_nodes: net.num_nodes(),
                table_terminals: routes.num_terminals(),
                net_terminals: net.num_terminals(),
            },
        );
        return res;
    }
    res.paths_per_layer = vec![0; nl];
    // Broken destinations' edges until the last one is walked, then all.
    res.edges = vec![EdgeSet::over(net.dep_slots().clone()); nl];
    res.unbroken_edges = res.edges.clone();
    res.broken = vec![false; net.num_terminals()];
    let em = &mut res.em;
    let mut hops = LazyHops {
        net,
        table: None,
        dst: NodeId(0),
        row: Vec::new(),
    };

    // Reused across destinations.
    let mut state = vec![UNVISITED; n];
    let mut tdist = vec![u32::MAX; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut srcs_by_layer: Vec<Vec<NodeId>> = vec![Vec::new(); nl];
    let mut mark = vec![0u32; n];
    let mut generation = 0u32;

    let dest_list: Vec<usize> = match scope {
        None => (0..net.num_terminals()).collect(),
        Some(dests) => dests
            .iter()
            .copied()
            .filter(|&d| d < net.num_terminals())
            .collect(),
    };
    for dst_t in dest_list {
        let dst = net.terminals()[dst_t];
        state.iter_mut().for_each(|s| *s = UNVISITED);
        tdist.iter_mut().for_each(|d| *d = u32::MAX);
        srcs_by_layer.iter_mut().for_each(Vec::clear);
        state[dst.idx()] = OK;
        tdist[dst.idx()] = 0;
        (hops.dst, hops.row) = (dst, Vec::new());
        let errors_before = em.severity_counts[Severity::Error.index()];

        // Terminal sources first (broken walks here are reachable-pair
        // errors), then leftover switches (latent findings, warnings).
        for &src in net.terminals() {
            if src == dst {
                continue;
            }
            res.pairs += 1;
            let src_t = net.terminal_index(src).expect("terminal list entry");
            match walk_one(
                net, routes, dst, dst_t, src, true, &mut hops, &mut state, &mut stack, em,
            ) {
                Stop::Reached => {
                    unwind(net, routes, dst_t, &stack, &mut state, &mut tdist);
                    res.pairs_routed += 1;
                    let routed = tdist[src.idx()];
                    res.max_hops = res.max_hops.max(routed);
                    let minimal = cfg.check_minimal.then(|| hops.get()[src.idx()]);
                    if let Some(minimal) = minimal.filter(|&m| m != u32::MAX && routed > m) {
                        em.emit(
                            LintCode::NonMinimalPath,
                            Severity::Warning,
                            format!(
                                "route {src:?} -> {dst:?} takes {routed} hops, minimum is \
                                 {minimal} (stretch {:.2})",
                                routed as f64 / minimal as f64
                            ),
                            Witness::Stretch {
                                src,
                                dst,
                                hops: routed,
                                minimal,
                            },
                        );
                    }
                    let layer = routes.layer(src_t, dst_t);
                    if (layer as usize) < nl {
                        res.paths_per_layer[layer as usize] += 1;
                        srcs_by_layer[layer as usize].push(src);
                    } else {
                        em.emit(
                            LintCode::VlOutOfRange,
                            Severity::Error,
                            format!(
                                "path {src:?} -> {dst:?} assigned layer {layer}, but only \
                                 {nl} layer(s) exist"
                            ),
                            Witness::Layer { src, dst, layer },
                        );
                    }
                }
                Stop::Failed => {
                    fail(&stack, &mut state);
                    res.broken[dst_t] = true;
                    if hops.get()[src.idx()] == u32::MAX {
                        res.pairs_unreachable += 1;
                    } else {
                        res.pairs_broken += 1;
                    }
                    if res.broken_pairs.len() < crate::Stats::BROKEN_PAIR_SAMPLE {
                        res.broken_pairs.push((src, dst));
                    }
                }
            }
        }
        for &sw in net.switches() {
            if state[sw.idx()] != UNVISITED {
                continue;
            }
            match walk_one(
                net, routes, dst, dst_t, sw, false, &mut hops, &mut state, &mut stack, em,
            ) {
                Stop::Reached => unwind(net, routes, dst_t, &stack, &mut state, &mut tdist),
                Stop::Failed => fail(&stack, &mut state),
            }
        }

        let edges = if res.broken[dst_t] {
            &mut res.edges
        } else {
            res.unbroken_errors += em.severity_counts[Severity::Error.index()] - errors_before;
            &mut res.unbroken_edges
        };
        // Dependency edges: per (destination, layer), each node's entry is
        // followed at most once — chains shared by many sources are
        // traversed a single time.
        for (layer, srcs) in srcs_by_layer.iter().enumerate() {
            if srcs.is_empty() {
                continue;
            }
            generation += 1;
            for &src in srcs {
                let mut at = src;
                let mut prev: Option<ChannelId> = None;
                while at != dst {
                    let c = routes
                        .next_hop(at, dst_t)
                        .expect("entry exists on a routed path");
                    if let Some(p) = prev {
                        edges[layer].insert(p.0, c.0);
                    }
                    if mark[at.idx()] == generation {
                        break;
                    }
                    mark[at.idx()] = generation;
                    prev = Some(c);
                    at = net.channel(c).dst;
                }
            }
        }
    }
    for (all, unbroken) in res.edges.iter_mut().zip(&res.unbroken_edges) {
        all.absorb(unbroken);
    }
    res
}

/// Successful walk: every stacked node routes to the destination. The
/// stack top's entry points at the junction node whose table distance is
/// already known; distances accumulate backward from there.
fn unwind(
    net: &Network,
    routes: &Routes,
    dst_t: usize,
    stack: &[NodeId],
    state: &mut [u8],
    tdist: &mut [u32],
) {
    let Some(&top) = stack.last() else {
        return;
    };
    let junction = net
        .channel(routes.next_hop(top, dst_t).expect("stacked entry is valid"))
        .dst;
    let mut d = tdist[junction.idx()];
    debug_assert_ne!(d, u32::MAX, "junction distance must be resolved");
    for &v in stack.iter().rev() {
        d += 1;
        tdist[v.idx()] = d;
        state[v.idx()] = OK;
    }
}

const OK: u8 = 2;

/// Why one walk stopped.
enum Stop {
    /// Reached a node already known to route to the destination.
    Reached,
    /// Hit a loop, a broken node, or an unusable entry.
    Failed,
}

/// Follow the next-hop function from `start` toward `dst` until a node of
/// known state, a loop, or an unusable entry. Pushes the newly visited
/// nodes (all left `ON_STACK`) onto `stack` for the caller to resolve.
#[allow(clippy::too_many_arguments)]
fn walk_one(
    net: &Network,
    routes: &Routes,
    dst: NodeId,
    dst_t: usize,
    start: NodeId,
    terminal_pass: bool,
    hops: &mut LazyHops,
    state: &mut [u8],
    stack: &mut Vec<NodeId>,
    em: &mut Emitter,
) -> Stop {
    // Broken walks from a terminal are errors a packet would hit; walks
    // only reachable from unrouted switches are latent — warnings.
    let broken_sev = if terminal_pass {
        Severity::Error
    } else {
        Severity::Warning
    };
    stack.clear();
    let mut at = start;
    loop {
        match state[at.idx()] {
            OK => return Stop::Reached,
            BROKEN => return Stop::Failed,
            ON_STACK => {
                // `at` closes a cycle: the stack suffix from its first
                // occurrence is the loop body.
                let pos = stack
                    .iter()
                    .position(|&v| v == at)
                    .expect("on-stack node is on the stack");
                let channels: Vec<ChannelId> = stack[pos..]
                    .iter()
                    .map(|&v| routes.next_hop(v, dst_t).expect("stacked entry is valid"))
                    .collect();
                em.emit(
                    LintCode::ForwardingLoop,
                    broken_sev,
                    format!(
                        "tables toward {dst:?} loop through {} node(s) starting at {:?}",
                        channels.len(),
                        stack[pos]
                    ),
                    Witness::TableLoop { dst, channels },
                );
                return Stop::Failed;
            }
            _ => {}
        }
        let Some(c) = routes.next_hop(at, dst_t) else {
            let (sev, why) = if hops.get()[at.idx()] == u32::MAX {
                // No physical path either: a coverage gap, not a bug.
                (Severity::Warning, "no entry and no physical path")
            } else {
                (broken_sev, "no entry despite a physical path")
            };
            em.emit(
                LintCode::MissingEntry,
                sev,
                format!("{why} at {at:?} toward {dst:?}"),
                Witness::Entry { node: at, dst },
            );
            state[at.idx()] = BROKEN;
            return Stop::Failed;
        };
        if !net.is_live_channel(c) {
            let what = match c.idx() < net.num_channels() {
                true => format!("channel {} of a dead cable", c.0),
                false => format!(
                    "channel {} but the network has only {}",
                    c.0,
                    net.num_channels()
                ),
            };
            em.emit(
                LintCode::InvalidNextHop,
                Severity::Error,
                format!("entry at {at:?} toward {dst:?} names {what} (stale tables?)"),
                Witness::NextHop {
                    node: at,
                    dst,
                    channel: c.0,
                },
            );
            state[at.idx()] = BROKEN;
            return Stop::Failed;
        }
        let ch = net.channel(c);
        if ch.src != at {
            em.emit(
                LintCode::InvalidNextHop,
                Severity::Error,
                format!(
                    "entry at {at:?} toward {dst:?} names channel {c:?}, which leaves \
                     {:?} instead",
                    ch.src
                ),
                Witness::NextHop {
                    node: at,
                    dst,
                    channel: c.0,
                },
            );
            state[at.idx()] = BROKEN;
            return Stop::Failed;
        }
        if ch.dst != dst && net.is_terminal(ch.dst) {
            em.emit(
                LintCode::InvalidNextHop,
                Severity::Error,
                format!(
                    "entry at {at:?} toward {dst:?} enters terminal {:?}, which cannot \
                     forward",
                    ch.dst
                ),
                Witness::NextHop {
                    node: at,
                    dst,
                    channel: c.0,
                },
            );
            state[at.idx()] = BROKEN;
            return Stop::Failed;
        }
        state[at.idx()] = ON_STACK;
        stack.push(at);
        at = ch.dst;
    }
}

#[path = "../../../../tests/common/mod.rs"]
mod common;

use common::{sweep, terminal_transit, zoo_net, Case};

/// Shortest-path tables (the lowest channel on ties), every path on a
/// layer drawn from `0..layers`.
fn shortest_routes(net: &Network, c: &mut Case, layers: u8) -> Routes {
    let mut r = Routes::new(net, "oracle");
    for (dst_t, &dst) in net.terminals().iter().enumerate() {
        let hops = net.hops_to(dst);
        for (id, _) in net.nodes().filter(|&(id, _)| id != dst) {
            let best = net
                .out_channels(id)
                .iter()
                .copied()
                .min_by_key(|&ch| hops[net.channel(ch).dst.idx()]);
            if let Some(best) = best.filter(|_| hops[id.idx()] != u32::MAX) {
                r.set_next(id, dst_t, best);
            }
        }
        for src_t in (0..net.num_terminals()).filter(|&s| s != dst_t) {
            r.set_layer(src_t, dst_t, c.rng.range(0..layers));
        }
    }
    r
}

/// The nodes a table walk from `src` toward `dst_t` leaves, up to its
/// first unusable entry.
fn path_nodes(net: &Network, r: &Routes, src: NodeId, dst_t: usize) -> Vec<NodeId> {
    let dst = net.terminals()[dst_t];
    let mut out = vec![src];
    let usable = |c: &ChannelId| net.is_live_channel(*c);
    while let Some(c) = r.next_hop(*out.last().unwrap(), dst_t).filter(usable) {
        match net.channel(c).dst {
            at if at == dst || out.len() > net.num_nodes() => break,
            at => out.push(at),
        }
    }
    out
}

/// The seven mutations of the oracle sweep, `kind` 1..=7, and a detour,
/// 8 (0 leaves the tables as they are). Each picks its place from `c`, among the entries
/// some terminal's path toward a drawn destination uses.
fn mutate(net: &Network, r: &mut Routes, c: &mut Case, kind: usize) {
    let nt = net.num_terminals();
    let dst_t = c.rng.range(0..nt);
    let dst = net.terminals()[dst_t];
    let src_t = (dst_t + c.rng.range(1..nt)) % nt;
    let path = path_nodes(net, r, net.terminals()[src_t], dst_t);
    let at = path[c.rng.range(0..path.len())];
    let switch_hop = |from: NodeId, pick: usize| {
        let out: Vec<ChannelId> = net.out_channels(from).to_vec();
        let to_switch: Vec<ChannelId> = out
            .into_iter()
            .filter(|&ch| net.is_switch(net.channel(ch).dst))
            .collect();
        (!to_switch.is_empty()).then(|| to_switch[pick % to_switch.len()])
    };
    match kind {
        1 => r.clear_next(at, dst_t),
        2 => r.set_next(at, dst_t, ChannelId((net.num_channels() + kind) as u32)),
        3 => {
            let foreign = net
                .channels()
                .map(|(id, _)| id)
                .filter(|&ch| net.channel(ch).src != at);
            let foreign: Vec<ChannelId> = foreign.collect();
            r.set_next(at, dst_t, foreign[c.rng.range(0..foreign.len())]);
        }
        4 => {
            let into_terminal = net
                .switches()
                .iter()
                .flat_map(|&s| net.out_channels(s))
                .find(|&&ch| {
                    let to = net.channel(ch).dst;
                    to != dst && net.is_terminal(to)
                });
            if let Some(&ch) = into_terminal {
                r.set_next(net.channel(ch).src, dst_t, ch);
            }
        }
        5 => {
            let s = net.switches()[c.rng.range(0..net.num_switches())];
            if let Some(ch) = switch_hop(s, c.rng.range(0..8)) {
                let n = net.channel(ch).dst;
                r.set_next(s, dst_t, ch);
                r.set_next(n, dst_t, net.channel(ch).rev.unwrap_or(ch));
            }
        }
        6 => {
            // The destination's last switch turns back into the fabric:
            // every terminal routed through it now meets one loop.
            let mut last = net.in_channels(dst).iter().map(|&ch| net.channel(ch).src);
            if let Some(last) = last.find(|&v| net.is_switch(v)) {
                if let Some(ch) = switch_hop(last, c.rng.range(0..8)) {
                    r.set_next(last, dst_t, ch);
                }
            }
        }
        7 => r.set_layer(src_t, dst_t, u8::MAX),
        _ => {
            // A detour (or a loop) through some switch neighbour.
            if let Some(ch) = switch_hop(at, c.rng.range(0..8)) {
                r.set_next(at, dst_t, ch);
            }
        }
    }
}

/// Every field of two walks, findings in order.
fn assert_same(got: &TableWalk, want: &TableWalk, what: &str) {
    assert_eq!(got.num_layers, want.num_layers, "{what}: num_layers");
    assert_eq!(
        (
            got.pairs,
            got.pairs_routed,
            got.pairs_broken,
            got.pairs_unreachable
        ),
        (
            want.pairs,
            want.pairs_routed,
            want.pairs_broken,
            want.pairs_unreachable
        ),
        "{what}: pair counters"
    );
    assert_eq!(got.max_hops, want.max_hops, "{what}: max_hops");
    assert_eq!(
        got.paths_per_layer, want.paths_per_layer,
        "{what}: paths_per_layer"
    );
    assert!(got.edges == want.edges, "{what}: edges");
    assert_eq!(got.broken_pairs, want.broken_pairs, "{what}: broken_pairs");
    assert_eq!(got.broken, want.broken, "{what}: broken");
    assert!(
        got.unbroken_edges == want.unbroken_edges,
        "{what}: unbroken_edges"
    );
    assert_eq!(
        got.unbroken_errors, want.unbroken_errors,
        "{what}: unbroken_errors"
    );
    let findings = |w: &TableWalk| format!("{:?}", w.em.diagnostics);
    assert_eq!(findings(got), findings(want), "{what}: findings");
    assert_eq!(
        (got.em.counts, got.em.severity_counts, got.em.suppressed),
        (want.em.counts, want.em.severity_counts, want.em.suppressed),
        "{what}: counts"
    );
}

/// Walk `r` both ways under `cfg` (scoped to `scope` if given): the same
/// walk, the same hop rows read, the same report. Returns the walk's
/// finding counts per code.
fn assert_walks_agree(
    net: &Network,
    r: &Routes,
    cfg: &Config,
    scope: Option<&[usize]>,
    what: &str,
) -> [usize; 7] {
    let searches = || HOP_SEARCHES.with(|n| n.get());
    let start = searches();
    let want = walk(net, r, cfg, scope);
    let mid = searches();
    let got = super::walk(net, r, cfg, scope, None);
    assert_eq!(searches() - mid, mid - start, "{what}: hop rows derived");
    assert_same(&got, &want, what);
    let report = crate::analyze_inner(net, r, cfg, scope, None, &want);
    let analysed = crate::analyze_inner(net, r, cfg, scope, None, &got);
    assert_eq!(
        format!("{analysed:?}"),
        format!("{report:?}"),
        "{what}: report"
    );
    got.em.counts
}

/// The column kernel against the walk it replaced, over the zoo with its
/// degraded fabrics: pristine tables and each of eight mutations, then
/// some stacked, on one, three and seventy layers, walked quiet (no
/// V006), with the defaults and scoped.
#[test]
fn the_column_kernel_is_the_reference_walk() {
    let seen = std::cell::RefCell::new([0usize; 7]);
    sweep(0..160, |c| {
        let net = zoo_net(c);
        let layers = [1, 3, 70][c.draw("layers", 0usize..3)];
        let pristine = shortest_routes(&net, c, layers);
        let quiet = Config {
            check_minimal: false,
            ..Config::default()
        };
        let capped = Config {
            max_diagnostics_per_code: 2,
            ..Config::default()
        };
        for kinds in (0..9)
            .map(|k| vec![k])
            .chain([vec![1, 5, 6], vec![2, 4, 7, 8]])
        {
            let mut r = pristine.clone();
            for &kind in &kinds {
                mutate(&net, &mut r, c, kind);
            }
            let nt = net.num_terminals();
            let scope: Vec<usize> = (0..4).map(|_| c.rng.range(0..nt + 2)).collect();
            for (name, cfg, scope) in [
                ("quiet", &quiet, None),
                ("default", &Config::default(), None),
                ("capped", &capped, None),
                ("scoped", &Config::default(), Some(&scope[..])),
                ("scoped quiet", &quiet, Some(&scope[..])),
            ] {
                let what = format!("{} mutations {kinds:?} {name} {scope:?}", net.label());
                let counts = assert_walks_agree(&net, &r, cfg, scope, &what);
                let mut seen = seen.borrow_mut();
                seen.iter_mut().zip(counts).for_each(|(s, n)| *s += n);
            }
        }
    });
    // Every per-pair code of the walk was exercised (V004 and V007 are
    // not the walk's).
    let seen = seen.into_inner();
    assert!([0, 1, 2, 4, 5].iter().all(|&i| seen[i] > 0), "{seen:?}");
}

/// The column kernel against the reference walk on tables that forward
/// into a terminal, which forwards on over its other uplink: every source
/// whose walk enters it fails there, in either walk.
#[test]
fn the_column_kernel_is_the_reference_walk_through_a_terminal() {
    let (net, routes) = terminal_transit();
    let quiet = Config {
        check_minimal: false,
        ..Config::default()
    };
    for (name, cfg) in [("quiet", &quiet), ("default", &Config::default())] {
        let counts = assert_walks_agree(&net, &routes, cfg, None, name);
        let v003 = counts[LintCode::InvalidNextHop.index()];
        assert!(v003 > 0, "{name}: an entry into a terminal is V003");
    }
}

/// The column kernel against the reference walk on a degraded view whose
/// tables take a dead cable's channel: the tombstone keeps its id, its
/// ends and its ports, yet no entry may take it (V003).
#[test]
fn the_column_kernel_refuses_a_dead_cable_as_the_reference_walk_does() {
    sweep(0..1, |c| {
        let net = fabric::topo::torus(&[3, 3], 1);
        let cable = net.switch_cables()[0];
        let dead = [cable, net.channel(cable).rev.expect("a cable")];
        let view = fabric::degrade::remove(&net, &Default::default(), &dead.into_iter().collect());
        let mut routes = shortest_routes(&view, c, 1);
        // Toward a terminal of the cable's far end, a walk over it would
        // arrive.
        let (at, head) = (view.channel(cable).src, view.channel(cable).dst);
        let into = |d: usize| routes.next_hop(head, d).map(|c| view.channel(c).dst);
        let d = (0..view.num_terminals()).find(|&d| into(d) == Some(view.terminals()[d]));
        routes.set_next(at, d.expect("a terminal on the far end"), cable);
        let counts = assert_walks_agree(&view, &routes, &Config::default(), None, "dead cable");
        let v003 = counts[LintCode::InvalidNextHop.index()];
        assert!(v003 > 0, "a dead cable's channel is V003");
    });
}
