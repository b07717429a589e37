//! Epoch-versioned, immutable serving snapshots and the store that
//! publishes them.
//!
//! A [`Snapshot`] is everything one epoch of the fabric needs to answer
//! path queries: the (possibly degraded) serving [`Network`], the
//! [`Routes`] the engine produced for it, the VL assignment those routes
//! carry, and the [`vet::Report`] that proves the artifact is safe to
//! serve. Snapshots are immutable — readers share them by `Arc` — and
//! carry a terminal map from *reference* node ids (the stable physical
//! identity fabric events use) to the epoch's renumbered view, so a
//! query keeps meaning the same pair of hosts across degradations.
//!
//! The [`SnapshotStore`] owns the current snapshot as an `Arc` behind a
//! mutex held only to clone or replace the pointer. Its publishing gate
//! is the subsystem's core invariant: **a snapshot becomes visible only
//! after `vet::check` passes** ([`SnapshotStore::publish`] refuses
//! artifacts with error-severity findings;
//! [`SnapshotStore::publish_vetted`] takes the report of a gate its
//! caller ran), so a bad reroute can never reach a reader — the
//! last-good epoch simply keeps serving.

use crate::sync::{Arc, Mutex};
use fabric::{Network, NodeId, Routes};
use std::time::Instant;
use telemetry::{counters, hists, phases, RecorderHandle};

/// Why the pointer lock is never poisoned: it is held only to clone or
/// replace an `Arc`, neither of which panics.
const HELD_BRIEFLY: &str = "the snapshot pointer lock is held only to clone or replace";

/// One immutable epoch of the serving state.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Epoch number; 0 is bring-up, each publish increments.
    pub epoch: u64,
    /// The serving view this epoch routes (reference minus failed
    /// hardware and quarantined terminals).
    pub net: Network,
    /// Forwarding tables + virtual-layer assignment for [`Self::net`].
    pub routes: Routes,
    /// The static-analysis report the publishing gate accepted
    /// (`vet::check`; always error-free for published snapshots).
    pub vet: vet::Report,
    /// What produced this epoch (`"bring-up"`, `"event"`, …).
    pub source: String,
    /// How the tables were pushed (`UpdatePlan::describe` of the
    /// transition that installed this epoch: `direct`, `staged(2)`, …).
    pub plan: String,
    /// Reference node id → view node id, for the terminals of the
    /// reference network (`None`: quarantined / not currently served).
    ref_terminals: Vec<Option<NodeId>>,
}

impl Snapshot {
    /// Number of virtual layers this epoch's routing uses.
    pub fn vls(&self) -> u8 {
        self.routes.num_layers()
    }

    /// The V007 existence verdict the publish gate admitted this epoch
    /// under (e.g. the up*/down* certificate summary) — the *proof* an
    /// admission decision cites, not just the absence of findings.
    pub fn existence_proof(&self) -> Option<&str> {
        self.vet.stats.existence.as_deref()
    }

    /// Resolve a reference terminal id to this epoch's view, `None`
    /// when the terminal is quarantined (or `id` is out of range).
    pub fn resolve(&self, id: NodeId) -> Option<NodeId> {
        self.ref_terminals.get(id.idx()).copied().flatten()
    }

    /// Reference terminal ids this epoch serves (resolvable ones).
    pub fn served_terminals(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ref_terminals
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Build the reference→view terminal map. With no reference the
    /// view is its own reference (identity over its terminals).
    fn terminal_map(net: &Network, reference: Option<&Network>) -> Vec<Option<NodeId>> {
        match reference {
            None => {
                let mut map = vec![None; net.num_nodes()];
                for &t in net.terminals() {
                    map[t.idx()] = Some(t);
                }
                map
            }
            Some(reference) => reference
                .nodes()
                .map(|(id, node)| {
                    if !reference.is_terminal(id) {
                        return None;
                    }
                    net.node_by_name(&node.name).filter(|&v| net.is_terminal(v))
                })
                .collect(),
        }
    }
}

/// Evidence scoping an incremental publish (see
/// [`SnapshotStore::publish_diff`]): which destination columns changed
/// relative to a base epoch, and whether the producing engine certified
/// the new all-paths layer-0 CDG acyclic.
///
/// The scoped vet gate is sound only when both hold: the unchanged
/// columns are byte-identical to the currently served (already vetted)
/// epoch, and global CDG acyclicity — the one property a per-column walk
/// cannot see — is certified by the producer. A stale `base_epoch` or a
/// missing certificate silently falls back to the full gate.
#[derive(Clone, Debug)]
pub struct DiffScope {
    /// Destination terminal indices whose columns differ from the base
    /// epoch.
    pub changed_dests: Vec<usize>,
    /// The epoch the diff was computed against; must still be current
    /// at publish time for the scoped gate to apply.
    pub base_epoch: u64,
    /// Producer's certificate that the all-paths layer-0 CDG of the new
    /// routes is acyclic (every per-layer CDG is a subset of it).
    pub layer0_acyclic: bool,
}

/// Why a publish was refused. The store's gate rejects, it never
/// panics: the previous epoch keeps serving.
#[derive(Debug)]
pub enum PublishError {
    /// `vet::check` found error-severity diagnostics; the report is
    /// attached for the operator.
    VetRejected {
        /// Error-severity findings.
        errors: usize,
        /// The full analysis.
        report: Box<vet::Report>,
    },
    /// The *fabric itself* fails the deadlock-free-routing existence
    /// condition (V007, arXiv:2503.04583): no single-layer routing —
    /// this artifact or any other — can be deadlock-free on it. A
    /// reroute cannot fix this; the caller must escalate (extra layer,
    /// quarantine, drain) instead of retrying.
    NoRoutingExists {
        /// The V007 finding, witness included.
        detail: String,
        /// The full analysis.
        report: Box<vet::Report>,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::VetRejected { errors, .. } => {
                write!(f, "vet rejected the snapshot: {errors} error(s)")
            }
            PublishError::NoRoutingExists { detail, .. } => {
                write!(f, "fabric fails the existence condition: {detail}")
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// The store: one current [`Snapshot`], a vet-gated publish path, and
/// swap telemetry.
pub struct SnapshotStore {
    /// The current epoch. Held only to clone the `Arc` (readers) or to
    /// replace it (the install), never across a gate or a free.
    current: Mutex<Arc<Snapshot>>,
    /// Serializes publishers across the whole number → gate → swap
    /// sequence so epoch numbers and swap order agree. Readers never
    /// take it, so they never wait on a gate.
    publish_lock: Mutex<()>,
    recorder: RecorderHandle,
}

impl SnapshotStore {
    /// Open a store serving `(net, routes)` as epoch 0. The same vet
    /// gate as [`SnapshotStore::publish`] applies: a store cannot even
    /// come up on a bad artifact.
    pub fn open(
        net: Network,
        routes: Routes,
        reference: Option<&Network>,
    ) -> Result<Arc<Self>, PublishError> {
        let report = vet::check(&net, &routes);
        Self::open_vetted(net, routes, report, reference)
    }

    /// [`SnapshotStore::open`] on an artifact the caller already ran the
    /// gate on: `report` must be `vet::check(&net, &routes)`, as for
    /// [`SnapshotStore::publish_vetted`] (the route server's bring-up runs
    /// it beside the SM's first plan, on the SM's V007 verdict).
    pub fn open_vetted(
        net: Network,
        routes: Routes,
        report: vet::Report,
        reference: Option<&Network>,
    ) -> Result<Arc<Self>, PublishError> {
        let snap = Self::admit(0, net, routes, "bring-up", "direct", reference, report)?;
        Ok(Arc::new(SnapshotStore {
            current: Mutex::new(Arc::new(snap)),
            publish_lock: Mutex::new(()),
            recorder: telemetry::noop(),
        }))
    }

    /// Attach a telemetry sink: `serve_publish` spans, the
    /// `epochs_published` / `publish_rejected` counters and the
    /// `swap_pause_us` histogram land here.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// The current snapshot: the lock is held for one `Arc` clone. The
    /// returned `Arc` stays internally consistent no matter how many
    /// epochs are published after this returns.
    pub fn read(&self) -> Arc<Snapshot> {
        self.current.lock().expect(HELD_BRIEFLY).clone()
    }

    /// Epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.current.lock().expect(HELD_BRIEFLY).epoch
    }

    /// Vet `(net, routes)` and, if clean, install it as the next epoch.
    /// Readers see the old epoch until the swap instant and the new one
    /// after; no reader waits on the gate or observes a mix.
    pub fn publish(
        &self,
        net: Network,
        routes: Routes,
        source: &str,
        plan: &str,
        reference: Option<&Network>,
    ) -> Result<Arc<Snapshot>, PublishError> {
        self.publish_scoped(net, routes, source, plan, reference, None)
    }

    /// [`SnapshotStore::publish`] with an incremental-vet scope: when
    /// `scope` certifies layer-0 acyclicity and was computed against the
    /// epoch still being served, the gate analyzes only the changed
    /// destination columns (plus the global existence condition) instead
    /// of every path — O(change) admission for an O(change) reroute. Any
    /// mismatch falls back to the full gate; the publish itself behaves
    /// identically either way.
    pub fn publish_diff(
        &self,
        net: Network,
        routes: Routes,
        source: &str,
        plan: &str,
        reference: Option<&Network>,
        scope: &DiffScope,
    ) -> Result<Arc<Snapshot>, PublishError> {
        self.publish_scoped(net, routes, source, plan, reference, Some(scope))
    }

    /// [`SnapshotStore::publish`] of an artifact the caller already ran
    /// the gate on: `report` must be `vet::check(&net, &routes)` (the
    /// route server computes it beside the update planner). The report
    /// is a value the install consumes, so nothing can be installed
    /// before the gate that produced it returned; admission and
    /// rejection are `publish`'s.
    pub fn publish_vetted(
        &self,
        net: Network,
        routes: Routes,
        report: vet::Report,
        source: &str,
        plan: &str,
        reference: Option<&Network>,
    ) -> Result<Arc<Snapshot>, PublishError> {
        self.install(net, routes, source, plan, reference, |_, _, _| report)
    }

    /// The store's own gate, timed as `serve_publish`: the full
    /// `vet::check`, or with a `scope` that is certified and current,
    /// `vet::analyze_scoped` over its changed columns.
    fn publish_scoped(
        &self,
        net: Network,
        routes: Routes,
        source: &str,
        plan: &str,
        reference: Option<&Network>,
        scope: Option<&DiffScope>,
    ) -> Result<Arc<Snapshot>, PublishError> {
        let gate = |net: &Network, routes: &Routes, current: u64| {
            let scope = scope.filter(|s| s.layer0_acyclic && s.base_epoch == current);
            telemetry::timed(&*self.recorder, phases::SERVE_PUBLISH, || match scope {
                Some(s) => {
                    vet::analyze_scoped(net, routes, &s.changed_dests, &vet::Config::default())
                }
                None => vet::check(net, routes),
            })
        };
        self.install(net, routes, source, plan, reference, gate)
    }

    /// The one install path: under the publish lock, number the epoch,
    /// run `gate(net, routes, current epoch)`, admit on its report, swap.
    /// The retired epoch is released after the swap's guard and its
    /// timer, so a reader waits at most for a pointer store.
    fn install(
        &self,
        net: Network,
        routes: Routes,
        source: &str,
        plan: &str,
        reference: Option<&Network>,
        gate: impl FnOnce(&Network, &Routes, u64) -> vet::Report,
    ) -> Result<Arc<Snapshot>, PublishError> {
        let rec = &*self.recorder;
        let _guard = self.publish_lock.lock().unwrap();
        let current = self.epoch();
        let report = gate(&net, &routes, current);
        let snap = match Self::admit(current + 1, net, routes, source, plan, reference, report) {
            Ok(snap) => Arc::new(snap),
            Err(e) => {
                rec.add(counters::PUBLISH_REJECTED, 1);
                return Err(e);
            }
        };
        let swap_started = Instant::now();
        let retired =
            std::mem::replace(&mut *self.current.lock().expect(HELD_BRIEFLY), snap.clone());
        let pause = swap_started.elapsed();
        drop(retired);
        if rec.enabled() {
            rec.phase(phases::EPOCH_SWAP, pause.as_nanos() as u64);
            rec.observe(hists::SWAP_PAUSE_US, pause.as_micros() as u64);
            rec.add(counters::EPOCHS_PUBLISHED, 1);
        }
        Ok(snap)
    }

    /// Refuse an artifact whose `report` holds an error finding; otherwise
    /// build its snapshot as `epoch`.
    fn admit(
        epoch: u64,
        net: Network,
        routes: Routes,
        source: &str,
        plan: &str,
        reference: Option<&Network>,
        report: vet::Report,
    ) -> Result<Snapshot, PublishError> {
        if report.num_errors() > 0 {
            // A V007 error means the fabric, not the artifact, is beyond
            // single-layer repair — name it so the caller escalates
            // instead of burning reroute budget.
            let existence_error = report
                .diagnostics_for(vet::LintCode::DeadlockExistence)
                .find(|d| d.severity == vet::Severity::Error)
                .map(|d| d.message.clone());
            if let Some(detail) = existence_error {
                return Err(PublishError::NoRoutingExists {
                    detail,
                    report: Box::new(report),
                });
            }
            return Err(PublishError::VetRejected {
                errors: report.num_errors(),
                report: Box::new(report),
            });
        }
        let ref_terminals = Snapshot::terminal_map(&net, reference);
        Ok(Snapshot {
            epoch,
            net,
            routes,
            vet: report,
            source: source.to_string(),
            plan: plan.to_string(),
            ref_terminals,
        })
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::{DfSssp, RoutingEngine, Sssp};
    use fabric::topo;

    fn routed(net: &Network) -> Routes {
        DfSssp::new().route(net).unwrap()
    }

    #[test]
    fn open_serves_epoch_zero() {
        let net = topo::torus(&[3, 3], 1);
        let store = SnapshotStore::open(net.clone(), routed(&net), None).unwrap();
        let snap = store.read();
        assert_eq!(snap.epoch, 0);
        assert_eq!(store.epoch(), 0);
        assert!(snap.vet.clean() || snap.vet.num_errors() == 0);
        assert!(snap.vls() >= 2);
        // Identity terminal map without a reference.
        for &t in net.terminals() {
            assert_eq!(snap.resolve(t), Some(t));
        }
    }

    #[test]
    fn publish_advances_the_epoch() {
        let net = topo::kary_ntree(4, 2);
        let store = SnapshotStore::open(net.clone(), routed(&net), None).unwrap();
        for e in 1..=5 {
            let snap = store
                .publish(net.clone(), routed(&net), "test", "direct", None)
                .unwrap();
            assert_eq!(snap.epoch, e);
            assert_eq!(store.epoch(), e);
            assert_eq!(store.read().epoch, e);
        }
    }

    /// A store over a small vetted artifact, and a publish of that
    /// artifact that reuses its report instead of re-running the gate.
    fn small_store() -> (Arc<SnapshotStore>, impl Fn(&SnapshotStore) -> Arc<Snapshot>) {
        let net = topo::torus(&[3, 3], 1);
        let routes = routed(&net);
        let report = vet::check(&net, &routes);
        let store = SnapshotStore::open(net.clone(), routes.clone(), None).unwrap();
        let publish = move |store: &SnapshotStore| {
            let (net, routes, report) = (net.clone(), routes.clone(), report.clone());
            store
                .publish_vetted(net, routes, report, "test", "direct", None)
                .unwrap()
        };
        (store, publish)
    }

    #[test]
    fn publishing_releases_the_previous_epoch() {
        let (store, publish) = small_store();
        let old = store.read();
        publish(&store);
        assert_eq!(Arc::strong_count(&old), 1, "the store still holds epoch 0");
    }

    #[test]
    fn every_retired_snapshot_is_freed() {
        let (store, publish) = small_store();
        let mut held = vec![store.read()];
        for _ in 0..20 {
            held.push(publish(&store));
        }
        let (current, retired) = held.split_last().unwrap();
        for snap in retired {
            assert_eq!(Arc::strong_count(snap), 1, "epoch {} kept", snap.epoch);
        }
        assert_eq!(Arc::strong_count(current), 2);
        drop(store);
        assert_eq!(Arc::strong_count(current), 1);
    }

    #[test]
    fn concurrent_readers_see_monotone_epochs() {
        const PUBLISHES: u64 = 200;
        let (store, publish) = small_store();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut last = 0;
                    while last < PUBLISHES {
                        let epoch = store.read().epoch;
                        assert!(epoch >= last, "reads went backwards: {epoch} after {last}");
                        last = epoch;
                    }
                });
            }
            for _ in 0..PUBLISHES {
                publish(&store);
            }
        });
        assert_eq!(store.read().epoch, PUBLISHES);
    }

    #[test]
    fn concurrent_publishers_get_gap_free_epochs() {
        let (store, publish) = small_store();
        let mut epochs: Vec<u64> = std::thread::scope(|s| {
            let publishers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..50).map(|_| publish(&store).epoch).collect::<Vec<_>>()))
                .collect();
            publishers
                .into_iter()
                .flat_map(|p| p.join().unwrap())
                .collect()
        });
        epochs.sort_unstable();
        assert_eq!(epochs, (1..=200).collect::<Vec<_>>());
        assert_eq!(store.epoch(), 200);
    }

    #[test]
    fn vet_gate_refuses_bad_artifacts() {
        // Plain SSSP on a ring has a cyclic CDG: V004, error severity.
        let net = topo::ring(5, 1);
        let routes = Sssp::new().route(&net).unwrap();
        match SnapshotStore::open(net.clone(), routes.clone(), None) {
            Err(PublishError::VetRejected { errors, report }) => {
                assert!(errors > 0);
                assert!(report.has(vet::LintCode::CdgCycle));
            }
            other => panic!("cyclic artifact must be VetRejected, got {other:?}"),
        }
        // And the same gate guards a running store: the good epoch
        // stays current after a refused publish.
        let store = SnapshotStore::open(net.clone(), routed(&net), None).unwrap();
        assert!(store
            .publish(net.clone(), routes, "test", "direct", None)
            .is_err());
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.read().epoch, 0);
    }

    #[test]
    fn publish_diff_scoped_accepts_and_advances() {
        let net = topo::torus(&[3, 3], 1);
        let store = SnapshotStore::open(net.clone(), routed(&net), None).unwrap();
        let scope = DiffScope {
            changed_dests: vec![0, 3],
            base_epoch: store.epoch(),
            layer0_acyclic: true,
        };
        let snap = store
            .publish_diff(net.clone(), routed(&net), "event", "direct", None, &scope)
            .unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(snap.vet.num_errors(), 0);
    }

    #[test]
    fn stale_scope_falls_back_to_the_full_gate() {
        // A cyclic artifact with an *empty* changed-dest scope would slip
        // through a scoped walk; a stale base_epoch must force the full
        // gate, which rejects it.
        let net = topo::ring(5, 1);
        let bad = Sssp::new().route(&net).unwrap();
        let store = SnapshotStore::open(net.clone(), routed(&net), None).unwrap();
        let stale = DiffScope {
            changed_dests: vec![],
            base_epoch: store.epoch() + 7,
            layer0_acyclic: true,
        };
        match store.publish_diff(net.clone(), bad.clone(), "event", "direct", None, &stale) {
            Err(PublishError::VetRejected { report, .. }) => {
                assert!(report.has(vet::LintCode::CdgCycle));
            }
            other => panic!("stale scope must full-vet and reject, got {other:?}"),
        }
        // Same for a scope missing the acyclicity certificate.
        let uncertified = DiffScope {
            changed_dests: vec![],
            base_epoch: store.epoch(),
            layer0_acyclic: false,
        };
        assert!(store
            .publish_diff(net.clone(), bad, "event", "direct", None, &uncertified)
            .is_err());
        assert_eq!(store.epoch(), 0, "rejections must not advance the epoch");
    }

    #[test]
    fn scoped_gate_still_rejects_cycles_inside_the_scope() {
        let net = topo::ring(5, 1);
        let bad = Sssp::new().route(&net).unwrap();
        let store = SnapshotStore::open(net.clone(), routed(&net), None).unwrap();
        let all: Vec<usize> = (0..net.num_terminals()).collect();
        let scope = DiffScope {
            changed_dests: all,
            base_epoch: store.epoch(),
            layer0_acyclic: true,
        };
        match store.publish_diff(net.clone(), bad, "event", "direct", None, &scope) {
            Err(PublishError::VetRejected { report, .. }) => {
                assert!(report.has(vet::LintCode::CdgCycle));
            }
            other => panic!("in-scope cycle must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn published_snapshots_carry_an_existence_proof() {
        let net = topo::torus(&[3, 3], 1);
        let store = SnapshotStore::open(net.clone(), routed(&net), None).unwrap();
        let proof = store.read().existence_proof().unwrap().to_string();
        assert!(proof.starts_with("certified"), "{proof}");
    }

    #[test]
    fn existence_violation_is_named_not_lumped_in() {
        // A half-dead inter-switch link: t1 -> t0 becomes unservable, so
        // V007 refutes existence for the *fabric* and the gate must say
        // so — this is not a "try another reroute" rejection.
        let mut b = fabric::NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let s1 = b.add_switch("s1", 4);
        let t0 = b.add_terminal("t0");
        let t1 = b.add_terminal("t1");
        b.add_channel(s0, s1).unwrap();
        b.link(t0, s0).unwrap();
        b.link(t1, s1).unwrap();
        let net = b.build();
        let routes = Routes::new(&net, "none");
        match SnapshotStore::open(net, routes, None) {
            Err(PublishError::NoRoutingExists { detail, report }) => {
                assert!(detail.contains("no routing can serve"), "{detail}");
                assert!(report.has(vet::LintCode::DeadlockExistence));
            }
            other => panic!("expected NoRoutingExists, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_refused_not_panicking() {
        let net = topo::ring(5, 1);
        let other = topo::ring(6, 1);
        let routes = routed(&other);
        assert!(SnapshotStore::open(net, routes, None).is_err());
    }

    #[test]
    fn reference_map_tracks_degraded_views() {
        use telemetry::fx::FxHashSet;
        let reference = topo::kary_ntree(4, 2);
        // Kill one leaf switch: its terminals leave the view.
        let leaf = *reference
            .switches()
            .iter()
            .find(|&&s| reference.node(s).level == Some(0))
            .unwrap();
        let removed: FxHashSet<_> = [leaf].into_iter().collect();
        let view = fabric::degrade::remove(&reference, &removed, &FxHashSet::default());
        let (core, _) = fabric::degrade::extract_core(&view);
        let store = SnapshotStore::open(core.clone(), routed(&core), Some(&reference)).unwrap();
        let snap = store.read();
        let mut served = 0;
        let mut gone = 0;
        for &t in reference.terminals() {
            match snap.resolve(t) {
                Some(v) => {
                    assert_eq!(core.node(v).name, reference.node(t).name);
                    served += 1;
                }
                None => gone += 1,
            }
        }
        assert!(gone > 0, "the dead leaf's terminals must be unresolvable");
        assert_eq!(served + gone, reference.num_terminals());
        assert_eq!(snap.served_terminals().count(), served);
    }
}
