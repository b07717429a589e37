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

use crate::budget::{clamp_layers, record_trip};
use crate::dfsssp::{DfStats, LayerAssignMode, Layering};
use crate::engine::{EngineConfig, RouteError, RoutingEngine};
use crate::heuristics::CycleBreakHeuristic;
use fabric::{Network, Routes};
use telemetry::{phases, Recorder};

/// A deadlock-freedom wrapper around any routing engine.
#[derive(Clone, Debug)]
pub struct DeadlockFree<E> {
    /// The engine computing the paths.
    pub inner: E,
    /// Cycle-break heuristic (offline mode).
    pub heuristic: CycleBreakHeuristic,
    /// Offline (Algorithm 2) or online assignment.
    pub mode: LayerAssignMode,
    /// Compact layers after offline assignment (see [`crate::DfSssp`]).
    pub compact: bool,
    /// Layer budget, balancing, telemetry sink (phases as in
    /// [`crate::DfSssp`], plus the inner engine's share of the run as
    /// `inner_route`), resource bounds and chunk width. The inner
    /// engine is not interrupted mid-call, but the deadline is checked
    /// when it returns and throughout the layer assignment.
    /// [`RoutingEngine::set_config`] passes `compute` on to the inner
    /// engine.
    pub config: EngineConfig,
}

impl<E: RoutingEngine> DeadlockFree<E> {
    /// Wrap `inner` with the paper's default configuration and the inner
    /// engine's chunk width.
    pub fn new(inner: E) -> Self {
        let config = EngineConfig::new().compute(inner.config().compute);
        DeadlockFree {
            inner,
            heuristic: CycleBreakHeuristic::WeakestEdge,
            mode: LayerAssignMode::Offline,
            compact: true,
            config,
        }
    }

    /// Route and return assignment statistics.
    pub fn route_with_stats(&self, net: &Network) -> Result<(Routes, DfStats), RouteError> {
        record_trip(&*self.config.recorder, self.route_with_stats_inner(net))
    }

    fn route_with_stats_inner(&self, net: &Network) -> Result<(Routes, DfStats), RouteError> {
        let cfg = &self.config;
        let rec: &dyn Recorder = &*cfg.recorder;
        let guard = cfg.budget.start();
        guard.admit(net)?;
        let max_layers = clamp_layers(cfg.max_layers)?;
        let routes = telemetry::timed(rec, phases::INNER_ROUTE, || self.inner.route(net))?;
        guard.check_deadline()?;
        Layering {
            heuristic: self.heuristic,
            mode: self.mode,
            max_layers,
            compact: self.compact,
            balance: cfg.balance,
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

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        self.route_with_stats(net).map(|(r, _)| r)
    }

    fn deadlock_free(&self) -> bool {
        true
    }

    fn tunables(&self) -> bool {
        true
    }

    fn config(&self) -> EngineConfig {
        self.config.clone()
    }

    fn set_config(&mut self, config: EngineConfig) {
        let inner = self.inner.config().compute(config.compute);
        self.inner.set_config(inner);
        self.config = config;
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
        let err = DeadlockFree::new(Sssp::new()).route(&net).unwrap_err();
        assert_eq!(err, RouteError::Disconnected);
    }
}
