//! The route server: a subnet-manager loop whose reroutes feed the
//! snapshot store.
//!
//! [`RouteServer`] owns an [`SmLoop`] (the writer side) and a
//! [`SnapshotStore`] (the reader side) and keeps them in the only
//! relationship the serving invariant allows:
//!
//! * Fabric events go through the SM's full machinery — coalescing,
//!   the escalation ladder, staged update planning — *contained*: the
//!   SM runs every batch under [`subnet::armor::contain`], so even a
//!   panic that escapes its own engine containment (a bug in planning,
//!   diffing, remapping …) becomes a typed error and rolls the batch
//!   back instead of unwinding through the serving thread.
//! * Only a reroute that produced new tables is offered to the store,
//!   and the vet gate — `vet::check` of exactly those tables, run
//!   beside the SM's planner, with the V007 verdict the SM decided for
//!   the same view — decides whether it becomes an epoch. The gate walks
//!   from its own walk of the epoch it last installed
//!   ([`vet::recheck`]), so it walks only the columns the event
//!   changed; nothing of the SM's walks reaches it.
//!   Every failure mode — SM error, contained panic, vet rejection —
//!   leaves the last-good snapshot serving.
//!
//! Query engines attach to the store ([`RouteServer::store`]); the
//! server can live on a background thread (it is `Send` when the engine
//! is) while readers keep their `Arc<SnapshotStore>`.

use crate::query::{QueryEngine, QueryOpts};
use crate::shed::ShedController;
use crate::snapshot::{PublishError, Snapshot, SnapshotStore};
use crate::sync::Arc;
use dfsssp_core::RoutingEngine;
use fabric::{Network, NodeId};
use subnet::{EventOutcome, FabricEvent, Rung, SmError, SmLoop};
use telemetry::{counters, phases, RecorderHandle};

/// Why the server could not apply a batch of events.
#[derive(Debug)]
pub enum ServerError {
    /// The subnet manager failed (or its recompute panicked and was
    /// contained). The down-sets were rolled back; the previous epoch
    /// keeps serving.
    Sm(SmError),
    /// The SM rerouted but the store's vet gate refused the artifact.
    /// The SM now serves tables the store never published — the last
    /// vet-clean epoch keeps serving readers.
    Publish(PublishError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Sm(e) => write!(f, "subnet manager: {e}"),
            ServerError::Publish(e) => write!(f, "publish gate: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// What one served batch did: the SM outcome plus the epoch it became
/// (when the reroute published).
#[derive(Clone, Debug)]
pub struct ServedOutcome {
    /// The subnet manager's view of the batch.
    pub outcome: EventOutcome,
    /// Epoch the new tables were published as; `None` when the batch
    /// was a no-op (no reroute, nothing to publish).
    pub epoch: Option<u64>,
}

/// A subnet manager wired to a snapshot store. See the module docs.
pub struct RouteServer<E> {
    sm: SmLoop<E>,
    store: Arc<SnapshotStore>,
    /// Shed controllers of the query engines spawned off this server;
    /// lets epoch publication see overload state (and vice versa).
    sheds: Vec<Arc<ShedController>>,
    recorder: RecorderHandle,
    /// The epoch the gate last admitted and the gate's walk of it: the
    /// base the next gate walks from.
    gated: Option<(Arc<Snapshot>, vet::TableWalk)>,
}

impl<E: RoutingEngine> RouteServer<E> {
    /// Bring up the fabric and open the store on the resulting tables
    /// (epoch 0). Fails if bring-up fails or its artifact cannot pass
    /// the vet gate, which runs as an event's does: inside the reroute,
    /// on the SM's V007 verdict.
    pub fn bring_up(engine: E, net: Network, sm_node: NodeId) -> Result<Self, ServerError> {
        Self::bring_up_recorded(engine, net, sm_node, telemetry::noop())
    }

    /// [`RouteServer::bring_up`] with a telemetry sink attached to both
    /// the SM loop (reroute metrics) and the store (publish metrics).
    pub fn bring_up_recorded(
        engine: E,
        net: Network,
        sm_node: NodeId,
        recorder: RecorderHandle,
    ) -> Result<Self, ServerError> {
        let gate =
            |net: &Network, routes: &_, verdict: &_| vet::recheck(None, net, routes, verdict);
        let (sm, (report, walk)) =
            SmLoop::bring_up_with(engine, net, sm_node, recorder.clone(), gate)
                .map_err(ServerError::Sm)?;
        let mut store = SnapshotStore::open_vetted(
            sm.network().clone(),
            sm.programmed().routes.clone(),
            report,
            Some(sm.reference()),
        )
        .map_err(ServerError::Publish)?;
        Arc::get_mut(&mut store)
            .expect("store not yet shared")
            .set_recorder(recorder.clone());
        Ok(RouteServer {
            sm,
            gated: Some((store.read(), walk)),
            store,
            sheds: Vec::new(),
            recorder,
        })
    }

    /// The store query engines read from. Clone the `Arc` freely; it
    /// stays valid (serving the last published epoch) even if the
    /// server itself is dropped.
    pub fn store(&self) -> Arc<SnapshotStore> {
        self.store.clone()
    }

    /// The current snapshot (shorthand for `store().read()`).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.read()
    }

    /// Spawn a query engine over this server's store. The engine's shed
    /// controller is registered with the server, so event outcomes
    /// published while the engine is thinning load carry an
    /// [`Rung::OverloadShed`] rung — reroute storms and overload are
    /// visible in one escalation ladder.
    pub fn query_engine(&mut self, opts: QueryOpts) -> QueryEngine {
        let engine = QueryEngine::new(self.store(), opts);
        self.sheds.push(engine.shed_controller());
        engine
    }

    /// The underlying subnet-manager loop (fallback, breaker and retry
    /// knobs live there).
    pub fn sm(&mut self) -> &mut SmLoop<E> {
        &mut self.sm
    }

    /// Apply one fabric event. See [`RouteServer::handle_batch`].
    pub fn handle(&mut self, event: FabricEvent) -> Result<ServedOutcome, ServerError> {
        self.handle_batch(&[event])
    }

    /// Apply a batch of fabric events: coalesce + reroute in the SM
    /// (contained there: any panic is an [`SmError`] and rolls the
    /// batch back), then install the new tables. The store's vet gate
    /// runs inside the reroute, on this thread, while the SM's update
    /// planner runs beside it; its report is what admits the epoch. The
    /// gate reads the V007 verdict the SM decided for the same view and
    /// judges the tables itself, walking from its own walk of the last
    /// epoch it admitted. On any error the last-good epoch keeps serving.
    pub fn handle_batch(&mut self, events: &[FabricEvent]) -> Result<ServedOutcome, ServerError> {
        let rec = &*self.recorder;
        let base = (self.gated.as_ref()).map(|(snap, walk)| (&snap.net, &snap.routes, walk));
        let (mut outcome, gated) = self
            .sm
            .handle_batch_with(events, |net, routes, verdict| {
                let gate = || vet::recheck(base, net, routes, verdict);
                telemetry::timed(rec, phases::SERVE_PUBLISH, gate)
            })
            .map_err(ServerError::Sm)?;
        let Some((report, walk)) = gated else {
            return Ok(ServedOutcome {
                outcome,
                epoch: None,
            });
        };
        let snap = self
            .store
            .publish_vetted(
                self.sm.network().clone(),
                self.sm.programmed().routes.clone(),
                report,
                "event",
                &outcome.plan.describe(),
                Some(self.sm.reference()),
            )
            .map_err(ServerError::Publish)?;
        self.gated = Some((snap.clone(), walk));
        // Fold serving-side overload into the escalation record: an
        // epoch published while an attached engine is thinning load is
        // a reroute storm meeting a flash crowd — the ladder should say
        // so. The shed floor guarantees admitted_permille > 0 here.
        if let Some(admitted) = self
            .sheds
            .iter()
            .filter(|s| s.shedding())
            .map(|s| s.admitted_permille())
            .min()
        {
            outcome.rungs.push(Rung::OverloadShed {
                admitted_permille: admitted,
            });
            self.recorder.add(counters::RUNG_OVERLOAD_SHED, 1);
        }
        Ok(ServedOutcome {
            outcome,
            epoch: Some(snap.epoch),
        })
    }
}

impl<E> std::fmt::Debug for RouteServer<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteServer")
            .field("epoch", &self.store.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::PathQuery;
    use dfsssp_core::{DfSssp, EngineConfig, Sssp};
    use fabric::topo;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fat_tree() -> Network {
        topo::kary_ntree(4, 2)
    }

    #[test]
    fn bring_up_publishes_epoch_zero() {
        let net = fat_tree();
        let server = RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).unwrap();
        let snap = server.snapshot();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.source, "bring-up");
        for &t in net.terminals() {
            assert!(snap.resolve(t).is_some());
        }
    }

    #[test]
    fn bring_up_records_epoch_zeros_reroute() {
        use telemetry::phases;
        let net = fat_tree();
        let collector = std::sync::Arc::new(telemetry::Collector::new());
        let _server = RouteServer::bring_up_recorded(
            DfSssp::new(),
            net.clone(),
            net.terminals()[0],
            collector.clone(),
        )
        .unwrap();
        let snap = collector.snapshot();
        for name in [
            phases::REROUTE,
            phases::SM_EXISTENCE,
            phases::SM_GUARD,
            phases::SM_VALIDATE,
            phases::SM_PLAN,
        ] {
            let count = snap.phases.get(name).map_or(0, |p| p.count);
            assert_eq!(count, 1, "{name} after bring-up alone");
        }
        assert_eq!(snap.counters[telemetry::counters::REROUTES], 1);
    }

    #[test]
    fn events_publish_new_epochs() {
        let net = fat_tree();
        let mut server =
            RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).unwrap();
        let c = net.switch_cables()[0];
        let served = server.handle(FabricEvent::CableDown(c)).unwrap();
        assert_eq!(served.epoch, Some(1));
        assert_eq!(server.snapshot().epoch, 1);
        assert_eq!(server.snapshot().source, "event");
        assert!(!server.snapshot().plan.is_empty());
        // Flap of a healthy cable with no net change: no reroute, no epoch.
        let flapper = net.switch_cables()[1];
        let served = server
            .handle_batch(&[
                FabricEvent::CableDown(flapper),
                FabricEvent::CableUp(flapper),
            ])
            .unwrap();
        assert_eq!(served.epoch, None);
        assert_eq!(server.snapshot().epoch, 1);
        // Repair publishes again.
        let served = server.handle(FabricEvent::CableUp(c)).unwrap();
        assert_eq!(served.epoch, Some(2));
    }

    #[test]
    fn quarantined_terminals_drop_out_of_the_snapshot() {
        let net = fat_tree();
        let mut server =
            RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).unwrap();
        let leaf = *net
            .switches()
            .iter()
            .find(|&&s| net.node(s).level == Some(0))
            .unwrap();
        let served = server.handle(FabricEvent::SwitchDown(leaf)).unwrap();
        assert!(!served.outcome.quarantined.is_empty());
        let snap = server.snapshot();
        for &q in &served.outcome.quarantined {
            assert_eq!(snap.resolve(q), None, "quarantined terminal still resolves");
        }
        // A query engine attached to the store sees the same truth.
        let engine = server.query_engine(QueryOpts::default());
        let q = served.outcome.quarantined[0];
        let other = *net
            .terminals()
            .iter()
            .find(|t| !served.outcome.quarantined.contains(t))
            .unwrap();
        assert!(matches!(
            engine.query(PathQuery::new(q, other)),
            Err(crate::query::ServeError::Quarantined(_))
        ));
        assert!(matches!(
            engine.query(PathQuery::new(other, q)),
            Err(crate::query::ServeError::Quarantined(_))
        ));
    }

    /// An engine that panics on every reroute after the first.
    #[derive(Debug)]
    struct PanicAfterFirst {
        inner: DfSssp,
        calls: AtomicUsize,
    }

    impl RoutingEngine for PanicAfterFirst {
        fn name(&self) -> &'static str {
            "panic-after-first"
        }
        fn deadlock_free(&self) -> bool {
            true
        }
        fn route(&self, net: &Network) -> Result<fabric::Routes, dfsssp_core::RouteError> {
            if self.calls.fetch_add(1, Ordering::SeqCst) > 0 {
                panic!("chaos monkey");
            }
            self.inner.route(net)
        }
        fn tunables(&self) -> bool {
            true
        }
        fn config(&self) -> EngineConfig {
            self.inner.config()
        }
        fn set_config(&mut self, config: EngineConfig) {
            self.inner.set_config(config)
        }
    }

    #[test]
    fn contained_panic_keeps_last_good_epoch_serving() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let net = fat_tree();
        let engine = PanicAfterFirst {
            inner: DfSssp::new(),
            calls: AtomicUsize::new(0),
        };
        let mut server = RouteServer::bring_up(engine, net.clone(), net.terminals()[0]).unwrap();
        server.sm().set_fallback(None); // no rung to hide behind
        let c = net.switch_cables()[0];
        let err = server.handle(FabricEvent::CableDown(c)).unwrap_err();
        std::panic::set_hook(hook);
        assert!(matches!(err, ServerError::Sm(SmError::EnginePanicked(_))));
        // The store still serves epoch 0 and answers queries.
        let snap = server.snapshot();
        assert_eq!(snap.epoch, 0);
        let (a, b) = (net.terminals()[0], net.terminals()[1]);
        assert!(snap.answer(a, b).is_ok());
    }

    /// A plan provider with a bug past the engine's containment.
    struct PanickingPlanner;

    impl subnet::DiffPlanProvider for PanickingPlanner {
        fn diff_plan(
            &self,
            _: &Network,
            _: &fabric::Routes,
            _: &fabric::Routes,
            _: usize,
        ) -> Option<subnet::UpdatePlan> {
            panic!("planner bug")
        }
    }

    #[test]
    fn a_contained_planner_panic_leaves_the_event_retryable() {
        let net = fat_tree();
        let mut server =
            RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).unwrap();
        server
            .sm()
            .set_plan_provider(Some(Box::new(PanickingPlanner)));
        let c = net.switch_cables()[0];
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = server.handle(FabricEvent::CableDown(c));
        std::panic::set_hook(hook);
        assert!(matches!(
            err,
            Err(ServerError::Sm(SmError::EnginePanicked(_)))
        ));
        assert_eq!(server.snapshot().epoch, 0);
        // The retried event reroutes and publishes the view without the
        // cable; nothing keeps routing over it.
        server.sm().set_plan_provider(None);
        let served = server.handle(FabricEvent::CableDown(c)).unwrap();
        assert!(served.outcome.rerouted);
        assert_eq!(served.epoch, Some(1));
        assert_eq!(server.snapshot().net.num_cables(), net.num_cables() - 1);
    }

    #[test]
    fn bring_up_is_vetted_on_what_it_installed() {
        // A one-way ring: V007 refutes one layer, DFSSSP takes two.
        let mut b = fabric::NetworkBuilder::new();
        let s: Vec<_> = (0..4).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        for i in 0..4 {
            b.add_channel(s[i], s[(i + 1) % 4]).unwrap();
            let t = b.add_terminal(format!("t{i}"));
            b.link(t, s[i]).unwrap();
        }
        let nets = [
            (topo::torus(&[4, 4], 1), "certified"),
            (fat_tree(), "certified"),
        ];
        for (net, proof) in nets.into_iter().chain([(b.build(), "refuted")]) {
            let server = RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]);
            let snap = server.unwrap().snapshot();
            let vetted = vet::check(&snap.net, &snap.routes);
            assert_eq!(
                snap.vet.to_json(),
                vetted.to_json(),
                "{proof} {}",
                net.label()
            );
            assert!(snap.existence_proof().unwrap().starts_with(proof));
        }
    }

    /// Cable down/up events through a server on `engine`; every epoch's
    /// report must be the gate's verdict on exactly what it installed.
    /// Returns the rung that resolved each event.
    fn published_reports_are_of_the_published_tables<E: RoutingEngine>(
        engine: E,
        net: Network,
    ) -> Vec<Rung> {
        let mut server = RouteServer::bring_up(engine, net.clone(), net.terminals()[0]).unwrap();
        let cables = net.switch_cables();
        let events = cables[..3]
            .iter()
            .map(|&c| FabricEvent::CableDown(c))
            .chain(cables[..3].iter().map(|&c| FabricEvent::CableUp(c)));
        let mut resolved = Vec::new();
        for (i, event) in events.enumerate() {
            let served = server.handle(event).unwrap();
            assert_eq!(served.epoch, Some(i as u64 + 1));
            let snap = server.snapshot();
            let vetted = vet::check(&snap.net, &snap.routes);
            assert_eq!(snap.vet.to_json(), vetted.to_json(), "epoch {}", snap.epoch);
            resolved.push(served.outcome.resolved_by());
        }
        resolved
    }

    #[test]
    fn every_epoch_is_vetted_on_what_it_installed() {
        let torus = || topo::torus(&[4, 4], 1);
        for net in [torus(), fat_tree()] {
            let resolved = published_reports_are_of_the_published_tables(DfSssp::new(), net);
            assert!(
                resolved.iter().all(|r| *r == Rung::Baseline),
                "{resolved:?}"
            );
        }
        // Plain SSSP wedges the torus: every epoch is the fallback's.
        let resolved = published_reports_are_of_the_published_tables(Sssp::new(), torus());
        assert!(resolved.iter().all(|r| matches!(r, Rung::Fallback { .. })));
    }

    #[test]
    fn server_moves_to_a_background_thread() {
        // The writer side must be Send: SmLoop + store handle cross a
        // thread boundary while readers keep querying from here.
        let net = fat_tree();
        let mut server =
            RouteServer::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).unwrap();
        let store = server.store();
        let c = net.switch_cables()[0];
        let writer = std::thread::spawn(move || {
            server.handle(FabricEvent::CableDown(c)).unwrap();
            server.handle(FabricEvent::CableUp(c)).unwrap();
            server.snapshot().epoch
        });
        let final_epoch = writer.join().unwrap();
        assert_eq!(final_epoch, 2);
        assert_eq!(store.read().epoch, 2);
    }
}
