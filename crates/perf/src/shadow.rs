//! The per-layer replay of the traced run.
//!
//! After each live boot or event, the same `(old view, old routes, new
//! view)` is pushed once more, off the clock, through the public function
//! of every layer the live operation went through — one call per span.
//! A shadow `DeltaEngine` fed the same view sequence stands in for the
//! serving engine that sits, unreachable, inside the live `SmLoop`.

use crate::stack::{cold_engine, compute_ctx, serving_engine, HW_VLS};
use crate::trace::Tracer;
use delta::{DeltaEngine, DeltaPlanner};
use dfsssp_core::verify::deadlock_report;
use dfsssp_core::{ComputeCtx, DfSssp, RoutingEngine};
use fabric::{degrade, format, ChannelId, Network, Routes};
use serve::{DiffScope, Snapshot, SnapshotStore};
use std::sync::Arc;
use subnet::{
    discover, plan_update, remap_routes, DiffPlanProvider, FabricTables, LidMap, SubnetManager,
};
use telemetry::{counters, phases, Collector};

/// Replay spans that together retrace a live boot or event. Their sum
/// against the live wall time is `trace.unattributed_pct`.
pub const ATTRIBUTED: &[&str] = &[
    "fabric.parse",
    "fabric.degrade",
    "fabric.connectivity",
    "vet.existence",
    "subnet.discover",
    "delta.route",
    "core.deadlock_report",
    "subnet.program",
    "subnet.walk_validate",
    "subnet.remap",
    "subnet.diff_plan",
    "subnet.plan",
    "subnet.lft_diff",
    "serve.publish",
    "serve.first_answer",
];

/// Phase nanoseconds and counter values of a collector, to diff around
/// one call.
struct Mark(telemetry::Snapshot);

impl Mark {
    fn of(c: &Collector) -> Self {
        Mark(c.snapshot())
    }

    fn phase_ms(&self, later: &Mark, name: &str) -> f64 {
        let nanos = |s: &telemetry::Snapshot| s.phases.get(name).map_or(0, |p| p.nanos);
        (nanos(&later.0) - nanos(&self.0)) as f64 / 1e6
    }

    fn counter(&self, later: &Mark, name: &str) -> f64 {
        let value = |s: &telemetry::Snapshot| s.counters.get(name).copied().unwrap_or(0);
        (value(&later.0) - value(&self.0)) as f64
    }
}

/// One replayed epoch: what the next event is diffed against.
struct Epoch {
    net: Network,
    routes: Routes,
    tables: FabricTables,
    store: Arc<SnapshotStore>,
    store_diff: Arc<SnapshotStore>,
}

/// The off-clock twin of one live serving stack.
pub struct Shadow {
    reference: Network,
    sm_node_name: String,
    cx: ComputeCtx,
    /// Stands in for the live serving engine.
    engine: DeltaEngine,
    engine_rec: Arc<Collector>,
    planner: DeltaPlanner,
    /// A second warm engine behind a `SubnetManager`, for `sm_run`.
    sm: SubnetManager<DeltaEngine>,
    cold: DfSssp,
    cold_rec: Arc<Collector>,
    /// The epoch before the next event; `None` until the boot replay.
    epoch: Option<Epoch>,
}

impl Shadow {
    /// Replay a boot from topology text and keep the resulting state as
    /// the baseline for event replays. `live` is the epoch-0 snapshot of
    /// the stack the live boot produced.
    pub fn boot(text: &str, live: &Snapshot, tr: &mut Tracer) -> Result<Shadow, String> {
        tr.span("replay", |tr| {
            let reference = tr
                .span("fabric.parse", |_| format::text::parse_network(text))
                .map_err(|e| format!("replay parse: {e}"))?;
            let t = reference.num_terminals();
            let first = *reference.terminals().first().ok_or("no terminals")?;
            let engine_rec = Arc::new(Collector::new());
            let cold_rec = Arc::new(Collector::new());
            let engine = serving_engine(t, Some(engine_rec.clone()));
            let mut shadow = Shadow {
                sm_node_name: reference.node(first).name.clone(),
                cx: compute_ctx(t),
                planner: engine.planner(),
                engine,
                engine_rec,
                sm: SubnetManager::new(serving_engine(t, None)),
                cold: cold_engine(t, Some(cold_rec.clone())),
                cold_rec,
                reference,
                epoch: None,
            };
            shadow.epoch = Some(shadow.replay(None, live, tr)?);
            Ok(shadow)
        })
    }

    /// Replay one event: `down` is the cable that is down once the event
    /// is applied (`None`: the fabric is pristine again), `live` the
    /// snapshot the live server published for it.
    pub fn event(
        &mut self,
        down: Option<ChannelId>,
        live: &Snapshot,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let next = tr.span("replay", |tr| self.replay(down, live, tr))?;
        self.epoch = Some(next);
        Ok(())
    }

    /// Push one `(previous epoch, new view)` through every layer. With
    /// no previous epoch this is the bring-up path.
    fn replay(
        &self,
        down: Option<ChannelId>,
        live: &Snapshot,
        tr: &mut Tracer,
    ) -> Result<Epoch, String> {
        let reference = &self.reference;
        let prev = self.epoch.as_ref();
        let terminals = reference.num_terminals() as f64;

        // --- What SmLoop::reroute does, one layer call per span. ---
        let view = tr.span("fabric.degrade", |_| {
            let dead = down
                .into_iter()
                .flat_map(|c| [Some(c), reference.channel(c).rev])
                .flatten()
                .collect();
            degrade::remove(reference, &Default::default(), &dead)
        });
        if !tr.span("fabric.connectivity", |_| view.is_strongly_connected()) {
            return Err("replayed view is not strongly connected".to_string());
        }
        let verdict = tr.span("vet.existence", |_| vet::existence(&view));
        tr.add("vet.existence.calls", 1.0);
        if matches!(verdict, vet::Existence::Undecided { .. }) {
            tr.add("vet.existence.undecided", 1.0);
        }
        let sm_node = view
            .node_by_name(&self.sm_node_name)
            .ok_or("SM node missing from the replayed view")?;
        tr.span("subnet.discover", |_| discover(&view, sm_node));

        let before = Mark::of(&self.engine_rec);
        let routes = tr
            .span("delta.route", |_| self.engine.route_in(&view, &self.cx))
            .map_err(|e| format!("shadow route: {e}"))?;
        let after = Mark::of(&self.engine_rec);
        if routes != live.routes {
            return Err(format!(
                "shadow routes differ from the live epoch {}",
                live.epoch
            ));
        }
        let outcome = self.engine.last_outcome().unwrap_or_default();
        if prev.is_some() {
            let dirty = before.counter(&after, counters::DELTA_DIRTY_DSTS);
            tr.add("delta.events", 1.0);
            tr.add("delta.taken", f64::from(u8::from(outcome.delta)));
            tr.add("delta.fallbacks", f64::from(u8::from(!outcome.delta)));
            tr.add(
                "delta.union_acyclic",
                f64::from(u8::from(outcome.union_acyclic)),
            );
            tr.add("delta.dirty_dests_sum", dirty);
            tr.sample("delta.dirty_fraction", dirty / terminals);
            tr.sample("delta.dirty", before.phase_ms(&after, phases::DELTA_DIRTY));
            if outcome.delta {
                tr.sample("delta.patch", before.phase_ms(&after, phases::DELTA_PATCH));
            }
        }

        let report = tr
            .span("core.deadlock_report", |_| deadlock_report(&view, &routes))
            .map_err(|e| format!("deadlock report: {e}"))?;
        if !report.is_deadlock_free() {
            return Err(format!("cyclic layers {:?}", report.cyclic_layers));
        }
        let (lids, tables) = tr.span("subnet.program", |_| {
            let lids = LidMap::assign(&view);
            let tables = FabricTables::program(&view, &routes, &lids);
            (lids, tables)
        });
        tr.span("subnet.walk_validate", |_| {
            for &src in view.terminals() {
                for &dst in view.terminals() {
                    if src != dst {
                        tables
                            .walk(&view, &lids, src, lids.lid(dst))
                            .map_err(|e| format!("LFT walk: {e}"))?;
                    }
                }
            }
            Ok::<(), String>(())
        })?;

        let plan = match prev {
            None => tr.span("subnet.plan", |_| plan_update(&view, None, &routes, HW_VLS)),
            Some(prev) => {
                let old = tr.span("subnet.remap", |_| {
                    remap_routes(&prev.net, &prev.routes, &view)
                });
                let hit = tr.span("subnet.diff_plan", |_| {
                    self.planner.diff_plan(&view, &old, &routes, HW_VLS)
                });
                tr.add("subnet.diff_plan.calls", 1.0);
                tr.add("subnet.diff_plan.hits", f64::from(u8::from(hit.is_some())));
                let plan = match hit {
                    Some(plan) => plan,
                    None => tr.span("subnet.plan", |_| {
                        plan_update(&view, Some(&old), &routes, HW_VLS)
                    }),
                };
                tr.span("subnet.lft_diff", |_| {
                    tables.diff(&view, &prev.tables, &prev.net)
                });
                plan
            }
        };

        // --- What RouteServer adds: the publish and the first answer. ---
        let describe = plan.describe();
        let store = match prev {
            None => tr
                .span("serve.publish", |_| {
                    SnapshotStore::open(view.clone(), routes.clone(), Some(reference))
                })
                .map_err(|e| format!("shadow open: {e}"))?,
            Some(prev) => {
                tr.span("serve.publish", |_| {
                    prev.store.publish(
                        view.clone(),
                        routes.clone(),
                        "event",
                        &describe,
                        Some(reference),
                    )
                })
                .map_err(|e| format!("shadow publish: {e}"))?;
                prev.store.clone()
            }
        };
        tr.span("serve.first_answer", |_| {
            let ts = reference.terminals();
            store.read().answer(ts[0], ts[ts.len() - 1]).is_ok()
        });

        // --- Inside or beside the live path: not part of the sum. ---
        let gate = tr.span("vet.check", |_| vet::check(&view, &routes));
        tr.add("vet.errors", gate.num_errors() as f64);
        let store_diff = match prev {
            None => SnapshotStore::open(view.clone(), routes.clone(), Some(reference))
                .map_err(|e| format!("shadow open: {e}"))?,
            Some(prev) => {
                tr.span("vet.scoped", |_| {
                    vet::analyze_scoped(
                        &view,
                        &routes,
                        &outcome.dirty_dests,
                        &vet::Config::default(),
                    )
                });
                let scope = DiffScope {
                    changed_dests: outcome.dirty_dests.clone(),
                    base_epoch: prev.store_diff.epoch(),
                    layer0_acyclic: outcome.layer0_acyclic,
                };
                tr.span("serve.publish_diff", |_| {
                    prev.store_diff.publish_diff(
                        view.clone(),
                        routes.clone(),
                        "event",
                        &describe,
                        Some(reference),
                        &scope,
                    )
                })
                .map_err(|e| format!("shadow publish_diff: {e}"))?;
                prev.store_diff.clone()
            }
        };
        tr.span("subnet.sm_run", |_| self.sm.run(&view, sm_node))
            .map_err(|e| format!("shadow SM run: {e}"))?;

        let before = Mark::of(&self.cold_rec);
        let cold = tr
            .span("core.route_cold", |_| self.cold.route_in(&view, &self.cx))
            .map_err(|e| format!("cold route: {e}"))?;
        let after = Mark::of(&self.cold_rec);
        if cold != routes {
            return Err(format!(
                "epoch {} differs from a cold recompute",
                live.epoch
            ));
        }
        for (span, phase) in [
            ("core.sssp", phases::SSSP),
            ("core.cdg_build", phases::CDG_BUILD),
            ("core.cycle_search", phases::CYCLE_SEARCH),
            ("core.layer_assign", phases::LAYER_ASSIGN),
            ("core.balance", phases::BALANCE),
        ] {
            tr.sample(span, before.phase_ms(&after, phase));
        }
        tr.add("core.paths_routed", terminals * (terminals - 1.0));
        tr.add(
            "core.cycles_broken",
            before.counter(&after, counters::CYCLES_BROKEN),
        );
        tr.max("core.vls_used", f64::from(routes.num_layers()));

        Ok(Epoch {
            net: view,
            routes,
            tables,
            store,
            store_diff,
        })
    }
}
