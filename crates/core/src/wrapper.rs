//! Make *any* routing engine deadlock-free.
//!
//! The paper's closing claim — "although our implementation is
//! InfiniBand-specific, the algorithms apply to generic networks" — holds
//! one level deeper: the offline cycle-breaking of Algorithm 2 never
//! looks at how the paths were computed. [`DeadlockFree`] wraps an
//! arbitrary [`RoutingEngine`], extracts its paths, and assigns virtual
//! layers until every layer's channel dependency graph is acyclic.
//! `DeadlockFree<Sssp>` is DFSSSP; `DeadlockFree<Dor>` is a
//! deadlock-free dimension-order routing for tori (the problem Dally &
//! Seitz originally solved with hop-level virtual channels, here solved
//! with path-level layers); `DeadlockFree<MinHop>` upgrades OpenSM's
//! default engine.

use crate::budget::{record_trip, Budget};
use crate::dfsssp::{DfStats, LayerAssignMode, Layering};
use crate::engine::{ComputeCtx, ComputeOpts, EngineConfig, RouteError, RoutingEngine};
use crate::heuristics::CycleBreakHeuristic;
use fabric::{Network, Routes};
use telemetry::{phases, Recorder, RecorderHandle};

/// A deadlock-freedom wrapper around any routing engine.
#[derive(Clone, Debug)]
pub struct DeadlockFree<E> {
    /// The engine computing the paths.
    pub inner: E,
    /// Cycle-break heuristic (offline mode).
    pub heuristic: CycleBreakHeuristic,
    /// Virtual-layer budget.
    pub max_layers: usize,
    /// Offline (Algorithm 2) or online assignment.
    pub mode: LayerAssignMode,
    /// Spread paths over unused layers afterwards.
    pub balance: bool,
    /// Compact layers after offline assignment (see [`crate::DfSssp`]).
    pub compact: bool,
    /// Telemetry sink (phases as in [`crate::DfSssp`], plus the inner
    /// engine's share of the run as `inner_route`).
    pub recorder: RecorderHandle,
    /// Resource bounds for each run (see [`crate::Budget`]). The inner
    /// engine is not interrupted mid-call, but the deadline is checked
    /// when it returns and throughout the layer assignment.
    pub budget: Budget,
    /// Chunk width forwarded to the inner engine's `route_in` by
    /// [`DeadlockFree::route_with_stats`]; engines without a balanced
    /// sweep ignore it.
    pub compute: ComputeOpts,
}

impl<E: RoutingEngine> DeadlockFree<E> {
    /// Wrap `inner` with the paper's default configuration.
    pub fn new(inner: E) -> Self {
        DeadlockFree {
            inner,
            heuristic: CycleBreakHeuristic::WeakestEdge,
            max_layers: 8,
            mode: LayerAssignMode::Offline,
            balance: true,
            compact: true,
            recorder: telemetry::noop(),
            budget: Budget::default(),
            compute: ComputeOpts::default(),
        }
    }

    /// Route and return assignment statistics.
    pub fn route_with_stats(&self, net: &Network) -> Result<(Routes, DfStats), RouteError> {
        self.route_with_stats_in(net, &self.compute.resolve())
    }

    /// [`DeadlockFree::route_with_stats`] under an explicit compute
    /// context, overriding the wrapper's own request. The context is
    /// forwarded to the inner engine.
    pub fn route_with_stats_in(
        &self,
        net: &Network,
        cx: &ComputeCtx,
    ) -> Result<(Routes, DfStats), RouteError> {
        record_trip(&*self.recorder, self.route_with_stats_inner(net, cx))
    }

    fn route_with_stats_inner(
        &self,
        net: &Network,
        cx: &ComputeCtx,
    ) -> Result<(Routes, DfStats), RouteError> {
        let rec: &dyn Recorder = &*self.recorder;
        let guard = self.budget.start();
        guard.admit(net)?;
        let max_layers = guard.clamp_layers(self.max_layers)?;
        let routes = telemetry::timed(rec, phases::INNER_ROUTE, || self.inner.route_in(net, cx))?;
        guard.check_deadline()?;
        Layering {
            heuristic: self.heuristic,
            mode: self.mode,
            max_layers,
            compact: self.compact,
            balance: self.balance,
        }
        .apply(
            net,
            routes,
            format!("DF-{}", self.inner.name()),
            rec,
            &guard,
        )
        .map(|(routes, stats, _)| (routes, stats))
    }
}

impl<E: RoutingEngine> RoutingEngine for DeadlockFree<E> {
    fn name(&self) -> &'static str {
        "DF-wrapped"
    }

    fn route_in(&self, net: &Network, cx: &ComputeCtx) -> Result<Routes, RouteError> {
        self.route_with_stats_in(net, cx).map(|(r, _)| r)
    }

    fn deadlock_free(&self) -> bool {
        true
    }

    fn tunables(&self) -> bool {
        true
    }

    fn config(&self) -> EngineConfig {
        EngineConfig {
            max_layers: self.max_layers,
            balance: self.balance,
            recorder: self.recorder.clone(),
            budget: self.budget.clone(),
            compute: self.compute,
        }
    }

    fn set_config(&mut self, config: EngineConfig) {
        self.max_layers = config.max_layers;
        self.balance = config.balance;
        self.recorder = config.recorder;
        self.budget = config.budget;
        self.compute = config.compute;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::Sssp;
    use crate::verify::verify_deadlock_free;
    use fabric::topo;

    #[test]
    fn wrapped_sssp_behaves_like_dfsssp() {
        let net = topo::torus(&[4, 4], 1);
        let wrapped = DeadlockFree::new(Sssp::new());
        let (routes, stats) = wrapped.route_with_stats(&net).unwrap();
        verify_deadlock_free(&net, &routes).unwrap();
        let (_, df_stats) = crate::DfSssp::new().route_with_stats(&net).unwrap();
        assert_eq!(stats.layers_used, df_stats.layers_used);
        assert_eq!(stats.cycles_broken, df_stats.cycles_broken);
        assert_eq!(routes.engine(), "DF-SSSP");
    }

    #[test]
    fn wrapped_engine_reports_freedom() {
        let w = DeadlockFree::new(Sssp::new());
        assert!(w.deadlock_free());
    }

    #[test]
    fn inner_failures_propagate() {
        let mut b = fabric::NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let t0 = b.add_terminal("t0");
        b.link(t0, s0).unwrap();
        let s1 = b.add_switch("s1", 4);
        let t1 = b.add_terminal("t1");
        b.link(t1, s1).unwrap();
        let net = b.build();
        let err = DeadlockFree::new(Sssp::new())
            .route_in(&net, &ComputeCtx::seq())
            .unwrap_err();
        assert_eq!(err, RouteError::Disconnected);
    }
}
