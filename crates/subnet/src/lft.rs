//! Linear forwarding tables, SL→VL maps and path records.
//!
//! This is where the engine-agnostic [`fabric::Routes`] become hardware
//! state: each switch holds a table `LID → output port`, each
//! source-destination pair gets a *service level* (its virtual layer),
//! and switches map SL→VL identically (the paper's DFSSSP deployment
//! programs exactly this). Walking the programmed tables port-by-port is
//! the authoritative connectivity check: [`FabricTables::validate`] does
//! it for the whole fabric with one colored pass per destination LID
//! (every node's programmed port is followed once, O(T·V)), and
//! [`FabricTables::walk`] answers for one pair, channel by channel.
//!
//! Everything here is reachable from parsed (possibly hostile) input,
//! so the non-test code must stay free of `unwrap`/`expect`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::lid::{Lid, LidMap};
use fabric::{ChannelId, Network, NodeId, Routes};

/// Path record: what the SM answers to a path query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathRecord {
    /// Destination LID to put on the wire.
    pub dlid: Lid,
    /// Service level (maps to the virtual lane end-to-end).
    pub sl: u8,
}

/// Errors when walking programmed tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalkError {
    /// A switch has no entry (port 0) for the destination LID.
    NoEntry { switch: NodeId, dlid: Lid },
    /// An entry names a port with no cable attached.
    DeadPort { switch: NodeId, port: u8 },
    /// The hop budget was exceeded: a forwarding loop.
    Loop,
    /// LID not assigned.
    BadLid(Lid),
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::NoEntry { switch, dlid } => {
                write!(f, "no LFT entry at {switch:?} for dlid {}", dlid.0)
            }
            WalkError::DeadPort { switch, port } => {
                write!(f, "LFT at {switch:?} names dead port {port}")
            }
            WalkError::Loop => write!(f, "forwarding loop"),
            WalkError::BadLid(l) => write!(f, "unassigned lid {}", l.0),
        }
    }
}

impl std::error::Error for WalkError {}

/// Result of comparing two programmed fabrics (see
/// [`FabricTables::diff`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LftDiff {
    /// `(switch, dlid)` entries whose output port changed.
    pub entries_changed: usize,
    /// Switches with at least one changed entry.
    pub switches_touched: usize,
    /// Switches of `self` that are not live switches of `other`.
    pub switches_missing: usize,
}

/// All programmed hardware state of the fabric.
#[derive(Clone, Debug, Default)]
pub struct FabricTables {
    /// `lft[switch_index][lid]` = output port (0 = no entry).
    lfts: Vec<Vec<u8>>,
    /// `sl2vl[switch_index][sl]` = VL (identity here, length = #VLs).
    sl2vl: Vec<Vec<u8>>,
    /// `sl[dst_t * T + src_t]` = service level of the pair, laid out as
    /// the routes hold their layers.
    sl: Vec<u8>,
    num_terminals: usize,
}

impl FabricTables {
    /// Compile routes into per-switch LFTs and SL tables, one destination
    /// column at a time.
    pub fn program(net: &Network, routes: &Routes, lids: &LidMap) -> FabricTables {
        let nt = net.num_terminals();
        let max_lid = lids.max_lid().0 as usize;
        let mut lfts = vec![vec![0u8; max_lid + 1]; net.num_switches()];
        let mut sl = Vec::with_capacity(nt * nt);
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let (next, layers) = routes.column(dst_t);
            let lid = lids.lid(dst).0 as usize;
            for (lft, s) in lfts.iter_mut().zip(net.switches()) {
                // An entry naming no live channel (a dead cable's, or
                // none at all) programs nothing: the walk reports it.
                let c = ChannelId(next[s.idx()]);
                if !net.is_live_channel(c) {
                    continue;
                }
                let port = net.channel(c).src_port;
                if port > u8::MAX as u16 {
                    // No real switch has >255 ports; a hostile input
                    // might. Leave the slot empty (0) rather than
                    // truncate — the validation walk reports it as a
                    // typed NoEntry instead of silently misrouting.
                    continue;
                }
                lft[lid] = port as u8;
            }
            sl.extend_from_slice(layers);
        }
        let vls = routes.num_layers();
        let sl2vl = vec![(0..vls).collect::<Vec<u8>>(); net.num_switches()];
        FabricTables {
            lfts,
            sl2vl,
            sl,
            num_terminals: nt,
        }
    }

    /// The SM's answer to a path query from `src_t` to `dst_t`, or
    /// `None` when either terminal index is outside the programmed
    /// fabric (a stale query against rebuilt tables).
    pub fn path_record(
        &self,
        lids: &LidMap,
        net: &Network,
        src_t: usize,
        dst_t: usize,
    ) -> Option<PathRecord> {
        let dst = net.terminals().get(dst_t)?;
        let nt = self.num_terminals;
        let sl = self.sl.get(dst_t * nt + src_t).filter(|_| src_t < nt)?;
        Some(PathRecord {
            dlid: lids.lid(*dst),
            sl: *sl,
        })
    }

    /// The VL a packet with service level `sl` travels on at `switch`,
    /// or `None` when the switch or SL is outside the programmed tables.
    pub fn vl_of(&self, switch_index: usize, sl: u8) -> Option<u8> {
        self.sl2vl.get(switch_index)?.get(sl as usize).copied()
    }

    /// Number of VLs the programmed fabric requires.
    pub fn num_vls(&self) -> usize {
        self.sl2vl.first().map_or(1, Vec::len)
    }

    /// Compare two programmed fabrics — two views of one roster, say
    /// before and after an event — matching switches by node id and table
    /// slots by destination LID. Returns how many `(switch, dlid)`
    /// entries changed and how many switches were touched — the update
    /// cost of a transparent re-route, which OpenSM pushes as SMP writes.
    pub fn diff(&self, self_net: &Network, other: &FabricTables, other_net: &Network) -> LftDiff {
        let mut entries_changed = 0usize;
        let mut switches_touched = 0usize;
        let mut switches_missing = 0usize;
        for (si, &s) in self_net.switches().iter().enumerate() {
            let peer = (s.idx() < other_net.num_nodes()).then(|| other_net.switch_index(s));
            let Some(osi) = peer.flatten() else {
                switches_missing += 1;
                continue;
            };
            let a = &self.lfts[si];
            let b = &other.lfts[osi];
            let changed = (0..a.len().max(b.len()))
                .filter(|&lid| a.get(lid).copied().unwrap_or(0) != b.get(lid).copied().unwrap_or(0))
                .count();
            if changed > 0 {
                switches_touched += 1;
                entries_changed += changed;
            }
        }
        LftDiff {
            entries_changed,
            switches_touched,
            switches_missing,
        }
    }

    /// Walk the programmed tables from terminal `src` to the destination
    /// LID, hardware-style: look up the output *port* at each switch and
    /// follow its cable. Returns the channels traversed.
    pub fn walk(
        &self,
        net: &Network,
        lids: &LidMap,
        src: NodeId,
        dlid: Lid,
    ) -> Result<Vec<ChannelId>, WalkError> {
        #[cfg(test)]
        crate::transition::counts::add(&crate::transition::counts::PAIR_WALKS, 1);
        let dst = lids.node(dlid).ok_or(WalkError::BadLid(dlid))?;
        let mut at = src;
        let mut out = Vec::new();
        let mut budget = net.num_nodes() + 1;
        while at != dst {
            if budget == 0 {
                return Err(WalkError::Loop);
            }
            budget -= 1;
            let c = self.hop(net, at, dlid)?;
            out.push(c);
            at = net.channel(c).dst;
        }
        Ok(out)
    }

    /// The channel a packet for `dlid` leaves `at` on.
    fn hop(&self, net: &Network, at: NodeId, dlid: Lid) -> Result<ChannelId, WalkError> {
        match net.switch_index(at) {
            Some(si) => {
                // `.get` twice: tables programmed for a different
                // fabric (stale walk) must report, not panic.
                let port = self
                    .lfts
                    .get(si)
                    .and_then(|lft| lft.get(dlid.0 as usize))
                    .copied()
                    .unwrap_or(0);
                if port == 0 {
                    return Err(WalkError::NoEntry { switch: at, dlid });
                }
                net.out_channels(at)
                    .iter()
                    .copied()
                    .find(|&c| net.channel(c).src_port == port as u16)
                    .ok_or(WalkError::DeadPort { switch: at, port })
            }
            None => {
                // Terminals inject through their (first) switch port;
                // multi-homed terminals follow the routing tables via
                // the same LFT-free rule OpenSM uses (host source
                // routing picks the port of the path record).
                net.out_channels(at)
                    .iter()
                    .copied()
                    .min_by_key(|&c| net.channel(c).src_port)
                    .ok_or(WalkError::DeadPort {
                        switch: at,
                        port: 0,
                    })
            }
        }
    }

    /// Validate that the programmed tables connect every ordered
    /// terminal pair; returns the pair count.
    ///
    /// For a fixed destination LID the tables induce one next-hop
    /// function over nodes, so a pair's walk succeeds iff it never
    /// revisits a node. One colored pass per destination follows each
    /// node's programmed port once — O(T·V) for the fabric instead of
    /// O(T²·hops), and nothing is allocated per pair. On failure the
    /// pairs are re-walked one by one in source-major order, so the
    /// error is the first one [`Self::walk`] reports in that order.
    ///
    /// From a `base` — the tables of another view of the same fabric,
    /// which `validate` accepted on that view (the subnet manager's last
    /// programmed tables) — the colored pass skips the columns
    /// [`Self::carried`] finds unchanged and counts their pairs.
    pub fn validate(
        &self,
        net: &Network,
        lids: &LidMap,
        base: Option<(&Network, &FabricTables)>,
    ) -> Result<usize, WalkError> {
        let carried = base.map_or_else(Vec::new, |base| self.carried(net, lids, base));
        if let Some(pairs) = self.validate_by_destination(net, lids, &carried) {
            return Ok(pairs);
        }
        let mut pairs = 0;
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src != dst {
                    self.walk(net, lids, src, lids.lid(dst))?;
                    pairs += 1;
                }
            }
        }
        Ok(pairs)
    }

    /// Per destination terminal index: whether every walk toward it is
    /// the one it took on `base`'s network, so it reaches the
    /// destination as it did there. That holds when the two views share
    /// the fabric's ids (and so its LIDs), terminals and switches, the
    /// column's entry is equal at every switch, and no entry names a
    /// port whose channel the event killed or brought back (a port with
    /// two channels may lead elsewhere when one returns). A changed
    /// channel out of a terminal moves its injection, which every column
    /// takes: then none is carried.
    fn carried(
        &self,
        net: &Network,
        lids: &LidMap,
        (old_net, old): (&Network, &Self),
    ) -> Vec<bool> {
        let agree = old_net.same_fabric(net)
            && old_net.terminals() == net.terminals()
            && old_net.switches() == net.switches()
            && old.lfts.len() == self.lfts.len();
        let ports = agree.then(|| {
            let (removed, added) = fabric::degrade::changed_channels(old_net, net);
            let changed = removed.into_iter().chain(added).map(|c| net.channel(c));
            changed
                .map(|ch| Some((net.switch_index(ch.src)?, u8::try_from(ch.src_port).ok())))
                .collect::<Option<Vec<_>>>()
        });
        let Some(ports) = ports.flatten() else {
            return Vec::new();
        };
        let column = |t: &NodeId| {
            let lid = lids.lid(*t).0 as usize;
            (self.lfts.iter().zip(&old.lfts)).all(|(lft, old)| lft.get(lid) == old.get(lid))
                && (ports.iter()).all(|&(si, port)| {
                    self.lfts.get(si).and_then(|lft| lft.get(lid)).copied() != port
                })
        };
        net.terminals().iter().map(column).collect()
    }

    /// The colored pass of [`Self::validate`]: the pair count, or `None`
    /// as soon as any pair's walk would fail. A destination flagged in
    /// `carried` counts its pairs unwalked. It takes [`Self::hop`]'s
    /// hops from flat tables built once per call — the node behind each
    /// switch port and each terminal's injection hop — and, per
    /// destination, reads the column's entries once into the node each
    /// switch forwards to, so a walk reads one node per hop.
    fn validate_by_destination(
        &self,
        net: &Network,
        lids: &LidMap,
        carried: &[bool],
    ) -> Option<usize> {
        const NONE: u32 = u32::MAX;
        let out = |v: NodeId| net.out_channels(v).iter().map(|&c| net.channel(c));
        // `behind[si * 256 + port]`: backwards, so the first channel out
        // on a port wins as in `hop`; port 0 is no entry, and ports past
        // 255 cannot be named by one.
        let mut behind = vec![NONE; net.num_switches() * 256];
        for (si, &s) in net.switches().iter().enumerate() {
            for ch in out(s).rev().filter(|ch| (1..=255).contains(&ch.src_port)) {
                behind[si * 256 + ch.src_port as usize] = ch.dst.0;
            }
        }
        // `to[v]`: where a walk at `v` goes next toward the destination
        // at hand, `NONE` where it fails. A terminal's is its injection
        // hop toward every destination; a switch's is set per column.
        let mut to = vec![NONE; net.num_nodes()];
        for &t in net.terminals() {
            let injection = out(t).min_by_key(|ch| ch.src_port);
            to[t.idx()] = injection.map_or(NONE, |ch| ch.dst.0);
        }
        // `state[v]` is `2·g` while `v` is on the current walk's stack
        // and `2·g + 1` once it is known to reach destination number `g`
        // (1-based, so stale stamps of earlier destinations never match).
        let mut state = vec![0u32; net.num_nodes()];
        let mut stack: Vec<u32> = Vec::new();
        let mut pairs = 0;
        for (g, &dst) in (1u32..).zip(net.terminals()) {
            if carried.get(g as usize - 1) == Some(&true) {
                pairs += net.num_terminals() - 1;
                continue;
            }
            #[cfg(test)]
            crate::transition::counts::add(&crate::transition::counts::LFT_COLUMNS, 1);
            let (on_stack, ok) = (2 * g, 2 * g + 1);
            let dlid = lids.lid(dst);
            let (lid, target) = (dlid.0 as usize, lids.node(dlid)?);
            for (si, &s) in net.switches().iter().enumerate() {
                let port = self.lfts.get(si).and_then(|lft| lft.get(lid));
                to[s.idx()] = port.map_or(NONE, |&port| behind[si * 256 + port as usize]);
            }
            state[target.idx()] = ok;
            for &src in net.terminals().iter().filter(|&&src| src != dst) {
                // A terminal whose injection lands on a node known to
                // reach the destination is a walk of one.
                let first = to[src.idx()];
                if first != NONE && state[first as usize] == ok {
                    state[src.idx()] = ok;
                    continue;
                }
                let mut at = src.0;
                loop {
                    match state.get(at as usize) {
                        Some(&s) if s == ok => break,
                        Some(&s) if s != on_stack => state[at as usize] = on_stack,
                        _ => return None,
                    }
                    stack.push(at);
                    at = to[at as usize];
                }
                for v in stack.drain(..) {
                    state[v as usize] = ok;
                }
            }
            pairs += net.num_terminals() - 1;
        }
        Some(pairs)
    }
}

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::{DfSssp, RoutingEngine};
    use fabric::topo;
    use std::cell::Cell;

    fn programmed(net: &Network) -> (Routes, LidMap, FabricTables) {
        let routes = DfSssp::new().route(net).unwrap();
        let lids = LidMap::assign(net);
        let tables = FabricTables::program(net, &routes, &lids);
        (routes, lids, tables)
    }

    #[test]
    fn lft_walk_reaches_every_destination() {
        let net = topo::torus(&[3, 3], 1);
        let (_, lids, tables) = programmed(&net);
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src == dst {
                    continue;
                }
                let walk = tables.walk(&net, &lids, src, lids.lid(dst)).unwrap();
                assert_eq!(net.channel(*walk.last().unwrap()).dst, dst);
            }
        }
    }

    /// An entry naming a dead cable's channel programs no port: its id
    /// and its port are the cable's still, but a degraded view keeps the
    /// cable as a tombstone, so the validation walk meets a typed
    /// `NoEntry` at that switch, not the dead port.
    #[test]
    fn a_dead_cable_programs_no_port() {
        let net = topo::torus(&[3, 3], 1);
        let cable = net.switch_cables()[0];
        let dead = [cable, net.channel(cable).rev.unwrap()];
        let view = fabric::degrade::remove(&net, &Default::default(), &dead.into_iter().collect());
        let (mut routes, lids, tables) = programmed(&view);
        assert!(tables.validate(&view, &lids, None).is_ok());
        let at = view.channel(cable).src;
        let d = (0..view.num_terminals())
            .find(|&d| view.channel(routes.next_hop(at, d).unwrap()).dst != view.terminals()[d])
            .unwrap();
        routes.set_next(at, d, cable);
        let tables = FabricTables::program(&view, &routes, &lids);
        let dlid = lids.lid(view.terminals()[d]);
        assert_eq!(
            tables.validate(&view, &lids, None),
            Err(WalkError::NoEntry { switch: at, dlid })
        );
    }

    /// Tables validated on a view, walked on the view after one of their
    /// cables died: every column keeps its bytes, and each one whose
    /// entry names a port of the dead cable is walked and fails there,
    /// as a full validation fails.
    #[test]
    fn a_kept_column_over_a_killed_port_is_walked() {
        let net = topo::kary_ntree(4, 2);
        let (_, lids, tables) = programmed(&net);
        let cable = net.switch_cables()[3];
        let dead = [cable, net.channel(cable).rev.unwrap()];
        let view = fabric::degrade::remove(&net, &Default::default(), &dead.into_iter().collect());
        let full = tables.validate(&view, &lids, None);
        assert!(matches!(full, Err(WalkError::DeadPort { .. })), "{full:?}");
        assert_eq!(tables.validate(&view, &lids, Some((&net, &tables))), full);
    }

    /// Chains of events through the subnet manager's loop over the
    /// generator zoo and a fabric of multi-homed terminals — a cable down
    /// and up, a switch down and up, a terminal's cable down (quarantine)
    /// and up: on each, the new tables and corrupt copies of them
    /// validate from the tables before as they validate alone, and some
    /// columns are carried.
    #[test]
    fn validating_from_the_last_tables_equals_a_full_validate_over_event_chains() {
        use crate::events::{FabricEvent, SmLoop};
        use crate::transition::counts;
        use dfsssp_core::{ComputeOpts, EngineConfig};
        let (checked, failed) = (Cell::new(0), Cell::new(0));
        let (walked, carried) = (Cell::new(0), Cell::new(0));
        let chain = |net: Network, c: &mut super::common::Case| {
            let chunk = ComputeOpts::new().chunk(net.num_terminals());
            let engine = DfSssp::new().with_config(EngineConfig::new().compute(chunk));
            let Ok(mut sm) = SmLoop::bring_up(engine, net.clone(), net.terminals()[0]) else {
                return;
            };
            let mut events = Vec::new();
            let spare = fabric::degrade::redundant_cables(&net);
            if !spare.is_empty() {
                let cable = spare[c.draw("cable", 0..spare.len())];
                events.extend([FabricEvent::CableDown(cable), FabricEvent::CableUp(cable)]);
            }
            let s = net.switches()[c.draw("switch", 0..net.num_switches())];
            events.extend([FabricEvent::SwitchDown(s), FabricEvent::SwitchUp(s)]);
            let t = net.terminals()[c.draw("terminal", 0..net.num_terminals())];
            let cable = net.out_channels(t)[0];
            events.extend([FabricEvent::CableDown(cable), FabricEvent::CableUp(cable)]);
            for event in events {
                let (before, old) = (sm.network().clone(), sm.programmed().tables.clone());
                if sm.handle(event).is_err() {
                    continue;
                }
                let (view, now) = (sm.network(), sm.programmed());
                let nt = view.num_terminals();
                let mut corrupt = vec![now.tables.clone()];
                for _ in (0..3).filter(|_| nt > 0 && view.num_switches() > 0) {
                    let mut tables = now.tables.clone();
                    let si = c.rng.range(0..tables.lfts.len());
                    let lid = now.lids.lid(view.terminals()[c.rng.range(0..nt)]).0 as usize;
                    tables.lfts[si][lid] = [0, u8::MAX, c.rng.range(1..=8u8)][c.rng.range(0..3)];
                    corrupt.push(tables);
                }
                for tables in &corrupt {
                    let full = tables.validate(view, &now.lids, None);
                    let (from_base, n) =
                        counts::counted(|| tables.validate(view, &now.lids, Some((&before, &old))));
                    assert_eq!(from_base, full, "{} after {event:?}", view.label());
                    checked.set(checked.get() + 1);
                    failed.set(failed.get() + usize::from(full.is_err()));
                    walked.set(walked.get() + n.lft_columns);
                    carried.set(carried.get() + nt - n.lft_columns.min(nt));
                }
            }
        };
        super::common::sweep(0..60, |c| chain(super::common::zoo_net(c), c));
        super::common::sweep(0..4, |c| chain(super::common::parallel_cables(), c));
        println!(
            "{} validations ({} failing), {} columns walked, {} carried",
            checked.get(),
            failed.get(),
            walked.get(),
            carried.get()
        );
        assert!(checked.get() > 500 && failed.get() > 100);
        assert!(carried.get() > 0 && walked.get() > 0);
    }

    #[test]
    fn walk_matches_routes_paths() {
        let net = topo::kary_ntree(2, 3);
        let (routes, lids, tables) = programmed(&net);
        let src = net.terminals()[0];
        let dst = net.terminals()[7];
        let walk = tables.walk(&net, &lids, src, lids.lid(dst)).unwrap();
        let path = routes.path_channels(&net, src, dst).unwrap();
        assert_eq!(walk, path);
    }

    #[test]
    fn path_records_carry_the_layer() {
        let net = topo::ring(5, 1);
        let (routes, lids, tables) = programmed(&net);
        assert!(routes.num_layers() >= 2);
        let mut seen_nonzero = false;
        for s in 0..5 {
            for d in 0..5 {
                if s == d {
                    continue;
                }
                let pr = tables.path_record(&lids, &net, s, d).unwrap();
                assert_eq!(pr.sl, routes.layer(s, d));
                assert_eq!(pr.dlid, lids.lid(net.terminals()[d]));
                seen_nonzero |= pr.sl != 0;
            }
        }
        assert!(seen_nonzero, "the ring needs a second layer somewhere");
    }

    #[test]
    fn sl2vl_is_identity_within_vl_count() {
        let net = topo::ring(5, 1);
        let (routes, _, tables) = programmed(&net);
        assert_eq!(tables.num_vls(), routes.num_layers() as usize);
        for sl in 0..routes.num_layers() {
            assert_eq!(tables.vl_of(0, sl), Some(sl));
        }
        assert_eq!(tables.vl_of(99, 0), None);
        assert_eq!(tables.vl_of(0, 255), None);
    }

    #[test]
    fn stale_queries_report_instead_of_panicking() {
        let net = topo::ring(5, 1);
        let (_, lids, tables) = programmed(&net);
        // Terminal indices beyond the programmed fabric.
        assert!(tables.path_record(&lids, &net, 0, 99).is_none());
        assert!(tables.path_record(&lids, &net, 99, 0).is_none());
        // Tables programmed for a smaller fabric walked against a bigger
        // one: switch index 4 has no LFT row, which must surface as a
        // typed walk error, not an index panic.
        let (_, _, small_tables) = programmed(&topo::ring(3, 1));
        let big = topo::ring(5, 1);
        let big_lids = LidMap::assign(&big);
        let src = big.terminals()[4];
        let dst = big_lids.lid(big.terminals()[0]);
        let err = small_tables.walk(&big, &big_lids, src, dst).unwrap_err();
        assert!(matches!(
            err,
            WalkError::NoEntry { .. } | WalkError::BadLid(_)
        ));
    }

    #[test]
    fn diff_of_identical_fabrics_is_empty() {
        let net = topo::torus(&[3, 3], 1);
        let (_, lids, tables) = programmed(&net);
        let _ = lids;
        let d = tables.diff(&net, &tables, &net);
        assert_eq!(d, super::LftDiff::default());
    }

    #[test]
    fn diff_after_cable_failure_is_local() {
        let net = topo::kary_ntree(4, 2);
        let (_, _, before) = programmed(&net);
        let (degraded, removed) = fabric::degrade::fail_random_cables(&net, 2, 9);
        assert!(removed > 0);
        let (_, _, after) = programmed(&degraded);
        let d = after.diff(&degraded, &before, &net);
        assert_eq!(d.switches_missing, 0);
        assert!(d.entries_changed > 0, "a failure must change some routes");
        // Transparency: far fewer entries change than exist in total.
        let total_entries = degraded.num_terminals() * degraded.num_switches();
        assert!(
            d.entries_changed < total_entries,
            "{} of {} entries changed",
            d.entries_changed,
            total_entries
        );
    }

    #[test]
    fn missing_entry_is_reported() {
        let net = topo::ring(4, 1);
        let lids = LidMap::assign(&net);
        let empty = Routes::new(&net, "none");
        let tables = FabricTables::program(&net, &empty, &lids);
        let src = net.terminals()[0];
        let dst = net.terminals()[1];
        let err = tables.walk(&net, &lids, src, lids.lid(dst)).unwrap_err();
        assert!(matches!(err, WalkError::NoEntry { .. }));
    }

    #[test]
    fn bad_lid_is_reported() {
        let net = topo::ring(4, 1);
        let (_, lids, tables) = programmed(&net);
        let err = tables
            .walk(&net, &lids, net.terminals()[0], Lid(999))
            .unwrap_err();
        assert_eq!(err, WalkError::BadLid(Lid(999)));
    }

    /// The validation loop as the manager and the light sweep used to
    /// run it: every ordered pair, source-major, first error wins.
    fn validate_per_pair(
        tables: &FabricTables,
        net: &Network,
        lids: &LidMap,
    ) -> Result<usize, WalkError> {
        let mut pairs = 0;
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src == dst {
                    continue;
                }
                tables.walk(net, lids, src, lids.lid(dst))?;
                pairs += 1;
            }
        }
        Ok(pairs)
    }

    /// The port at `from` whose cable leads to `to`.
    fn port_toward(net: &Network, from: NodeId, to: NodeId) -> u8 {
        net.channel(net.channel_between(from, to).unwrap()).src_port as u8
    }

    #[test]
    fn validate_equals_the_per_pair_loop_across_the_zoo() {
        let (mut no_entry, mut dead, mut looped) = (0, 0, 0);
        for net in crate::transition::reference::zoo() {
            let lids = LidMap::assign(&net);
            let pristine =
                FabricTables::program(&net, &crate::transition::reference::route(&net), &lids);
            let nt = net.num_terminals();
            assert_eq!(
                pristine.validate(&net, &lids, None),
                Ok(nt * (nt - 1)),
                "{}",
                net.label()
            );
            assert_eq!(validate_per_pair(&pristine, &net, &lids), Ok(nt * (nt - 1)));

            // Corrupt one slot at a time, at spread-out (switch, LID)
            // positions so the first failing pair moves around.
            let ns = net.num_switches();
            for k in 0..6 {
                let si = (k * 7 + 1) % ns;
                let sw = net.switches()[si];
                let lid = lids.lid(net.terminals()[(k * 13 + 2) % nt]).0 as usize;
                let neighbour = net
                    .out_channels(sw)
                    .iter()
                    .map(|&c| net.channel(c).dst)
                    .find(|&n| net.is_switch(n))
                    .expect("every zoo switch has a switch neighbour");
                let ni = net.switch_index(neighbour).unwrap();

                let mut zeroed = pristine.clone();
                zeroed.lfts[si][lid] = 0;
                let mut dead_port = pristine.clone();
                dead_port.lfts[si][lid] = u8::MAX;
                let mut ping_pong = pristine.clone();
                ping_pong.lfts[si][lid] = port_toward(&net, sw, neighbour);
                ping_pong.lfts[ni][lid] = port_toward(&net, neighbour, sw);

                for (what, tables) in [
                    ("zeroed", zeroed),
                    ("dead port", dead_port),
                    ("ping-pong", ping_pong),
                ] {
                    let want = validate_per_pair(&tables, &net, &lids);
                    assert_eq!(
                        tables.validate(&net, &lids, None),
                        want,
                        "{} {what} at switch {si} lid {lid}",
                        net.label()
                    );
                    // A slot no terminal's walk crosses may stay clean;
                    // the three shapes must still be told apart when hit.
                    match want {
                        Ok(pairs) => assert_eq!(pairs, nt * (nt - 1)),
                        Err(WalkError::NoEntry { .. }) => no_entry += 1,
                        Err(WalkError::DeadPort { .. }) => dead += 1,
                        Err(WalkError::Loop) => looped += 1,
                        Err(e) => panic!("{} {what}: unexpected {e}", net.label()),
                    }
                }
            }
        }
        assert!(
            no_entry > 0 && dead > 0 && looped > 0,
            "{no_entry} {dead} {looped}"
        );
    }

    /// The same on tables whose walks transit a terminal (it forwards on
    /// over its lowest port), programmed as they are and with the
    /// destination's entry cleared at each switch in turn.
    #[test]
    fn validate_equals_the_per_pair_loop_through_a_terminal() {
        let (net, routes) = super::common::terminal_transit();
        let lids = LidMap::assign(&net);
        let pristine = FabricTables::program(&net, &routes, &lids);
        let nt = net.num_terminals();
        assert_eq!(pristine.validate(&net, &lids, None), Ok(nt * (nt - 1)));
        assert_eq!(validate_per_pair(&pristine, &net, &lids), Ok(nt * (nt - 1)));
        for si in 0..net.num_switches() {
            for &dst in net.terminals() {
                let mut tables = pristine.clone();
                tables.lfts[si][lids.lid(dst).0 as usize] = 0;
                let want = validate_per_pair(&tables, &net, &lids);
                assert_eq!(tables.validate(&net, &lids, None), want, "{si} {dst:?}");
            }
        }
    }

    /// The same, over the seeded generator zoo with its degraded fabrics:
    /// pristine tables and one corrupt slot per shape the table walk's
    /// oracle mutates (cleared, a port with no cable, another switch's
    /// port, a port into a terminal that is not the destination, a
    /// ping-pong, the destination's last switch turned back into the
    /// fabric so every terminal behind it loops).
    #[test]
    fn validate_equals_the_per_pair_loop_over_the_generator_zoo() {
        let seen = std::cell::RefCell::new(std::collections::HashSet::new());
        super::common::sweep(0..96, |c| {
            let net = super::common::zoo_net(c);
            // Cuts can disconnect a fabric, which no engine routes.
            let Ok(routes) = DfSssp::new().route(&net) else {
                return;
            };
            let lids = LidMap::assign(&net);
            let pristine = FabricTables::program(&net, &routes, &lids);
            let nt = net.num_terminals();
            assert_eq!(pristine.validate(&net, &lids, None), Ok(nt * (nt - 1)));
            let switch_neighbour = |s: NodeId, pick: usize| {
                let n: Vec<NodeId> = net
                    .out_channels(s)
                    .iter()
                    .map(|&ch| net.channel(ch))
                    .filter(|ch| net.is_switch(ch.dst) && ch.rev.is_some())
                    .map(|ch| ch.dst)
                    .collect();
                (!n.is_empty()).then(|| n[pick % n.len()])
            };
            for kind in 0..6 {
                let dst = net.terminals()[c.rng.range(0..nt)];
                let lid = lids.lid(dst).0 as usize;
                let si = c.rng.range(0..net.num_switches());
                let sw = net.switches()[si];
                let mut tables = pristine.clone();
                let mut set = |at: NodeId, port: u8| {
                    tables.lfts[net.switch_index(at).unwrap()][lid] = port;
                };
                match kind {
                    0 => set(sw, 0),
                    1 => set(sw, u8::MAX),
                    2 => set(sw, c.rng.range(1..=64u8)),
                    3 => {
                        let other = net.terminals()[c.rng.range(0..nt)];
                        let mut into = net.in_channels(other).iter().map(|&ch| net.channel(ch));
                        match into.find(|ch| net.is_switch(ch.src)) {
                            Some(ch) if other != dst => set(ch.src, ch.src_port as u8),
                            _ => set(sw, 0),
                        }
                    }
                    4 => {
                        if let Some(n) = switch_neighbour(sw, c.rng.range(0..8)) {
                            set(sw, port_toward(&net, sw, n));
                            set(n, port_toward(&net, n, sw));
                        }
                    }
                    _ => {
                        let mut into = net.in_channels(dst).iter().map(|&ch| net.channel(ch).src);
                        if let Some(last) = into.find(|&v| net.is_switch(v)) {
                            if let Some(n) = switch_neighbour(last, c.rng.range(0..8)) {
                                set(last, port_toward(&net, last, n));
                            }
                        }
                    }
                }
                let want = validate_per_pair(&tables, &net, &lids);
                assert_eq!(
                    tables.validate(&net, &lids, None),
                    want,
                    "{} shape {kind} at {sw:?} lid {lid}",
                    net.label()
                );
                if let Err(e) = want {
                    seen.borrow_mut().insert(std::mem::discriminant(&e));
                }
            }
        });
        assert_eq!(
            seen.into_inner().len(),
            3,
            "NoEntry, DeadPort and Loop all met"
        );
    }
}
