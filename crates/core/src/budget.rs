//! Routing budgets: deadlines and size caps for the serving path.
//!
//! A subnet manager reroutes *inline* with fabric recovery — a routing
//! run that walks a hostile or degenerate topology for minutes is as bad
//! as one that panics. [`Budget`] bounds a single `route()` call along
//! three axes (wall-clock deadline, admitted network size, CDG edge
//! count) and is threaded through
//! [`crate::EngineConfig`] so the escalation ladder, CLIs and benches
//! all configure it the same way.
//!
//! Engines call [`Budget::start`] once per run and then hit the
//! resulting [`BudgetGuard`]'s checkpoints from their hot loops (per
//! SSSP destination, per cycle broken, per online path placement).
//! An exhausted budget surfaces as [`RouteError::BudgetExceeded`] —
//! promptly, instead of hanging — and is counted on the engine's
//! recorder under `budget_trips`. The layer budget is the engine's own
//! [`crate::EngineConfig::max_layers`], checked by [`clamp_layers`].

use crate::engine::RouteError;
use fabric::Network;
use std::time::{Duration, Instant};
use telemetry::{counters, Recorder};

/// Resource bounds for one routing run. `None` means unlimited; the
/// default budget is fully unlimited, so existing callers see no change
/// unless they opt in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline for the whole run.
    pub deadline: Option<Duration>,
    /// Maximum network size (nodes) admitted at all.
    pub max_nodes: Option<usize>,
    /// Maximum live edges across the layers' channel dependency graphs.
    pub max_cdg_edges: Option<usize>,
}

impl Budget {
    /// The unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the wall-clock deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the admitted network size (nodes).
    pub fn max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Set the CDG edge cap.
    pub fn max_cdg_edges(mut self, n: usize) -> Self {
        self.max_cdg_edges = Some(n);
        self
    }

    /// Whether every axis is unlimited (checkpoints are free to skip).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_nodes.is_none() && self.max_cdg_edges.is_none()
    }

    /// Arm the budget for one run (the deadline clock starts now).
    pub fn start(&self) -> BudgetGuard {
        BudgetGuard {
            deadline: self.deadline.map(|d| (Instant::now() + d, d)),
            max_nodes: self.max_nodes,
            max_cdg_edges: self.max_cdg_edges,
        }
    }
}

/// An armed [`Budget`]: the checkpoint object engines thread through
/// their hot loops.
#[derive(Clone, Debug)]
pub struct BudgetGuard {
    deadline: Option<(Instant, Duration)>,
    max_nodes: Option<usize>,
    max_cdg_edges: Option<usize>,
}

#[cfg(test)]
thread_local! {
    /// Deadline checkpoints hit on this thread — the pin that the sweep
    /// looks at its deadline before every tree, whatever the chunk.
    pub(crate) static DEADLINE_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl BudgetGuard {
    /// A guard that never trips (for the non-budgeted entry points).
    pub fn unlimited() -> Self {
        BudgetGuard {
            deadline: None,
            max_nodes: None,
            max_cdg_edges: None,
        }
    }

    /// Admission check, called once per run before any work: reject
    /// networks larger than the budget admits.
    pub fn admit(&self, net: &Network) -> Result<(), RouteError> {
        self.admit_with(|| net.num_nodes())
    }

    /// [`Self::admit`] for a caller that must fetch the network to size
    /// it: `nodes` is called only when the budget caps the node count.
    pub fn admit_with(&self, nodes: impl FnOnce() -> usize) -> Result<(), RouteError> {
        match self.max_nodes {
            Some(max) if nodes() > max => Err(RouteError::BudgetExceeded {
                resource: "nodes",
                limit: max as u64,
            }),
            _ => Ok(()),
        }
    }

    /// Deadline checkpoint; engines call this from every hot loop
    /// (per destination, per cycle, per placement).
    #[inline]
    pub fn check_deadline(&self) -> Result<(), RouteError> {
        #[cfg(test)]
        DEADLINE_CHECKS.with(|n| n.set(n.get() + 1));
        if let Some((at, total)) = self.deadline {
            if Instant::now() >= at {
                return Err(RouteError::BudgetExceeded {
                    resource: "deadline_ms",
                    limit: total.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// CDG size checkpoint: `edges` is the current live edge count
    /// across layers.
    #[inline]
    pub fn check_cdg_edges(&self, edges: usize) -> Result<(), RouteError> {
        if let Some(max) = self.max_cdg_edges {
            if edges > max {
                return Err(RouteError::BudgetExceeded {
                    resource: "cdg_edges",
                    limit: max as u64,
                });
            }
        }
        Ok(())
    }

    /// [`BudgetGuard::check_cdg_edges`] with a lazily computed count, so
    /// hot loops pay nothing for the tally when the axis is unlimited.
    #[inline]
    pub fn check_cdg_edges_lazy(&self, edges: impl FnOnce() -> usize) -> Result<(), RouteError> {
        if self.max_cdg_edges.is_some() {
            self.check_cdg_edges(edges())?;
        }
        Ok(())
    }
}

/// Check a configured virtual-layer budget and clamp it to the 256
/// layers a `u8` layer id can name. Every deadlock-free engine checks
/// its budget here, once: a budget of 0 can place no path, so it is
/// [`RouteError::NeedMoreLayers`] before any work.
pub fn clamp_layers(configured: usize) -> Result<usize, RouteError> {
    if configured == 0 {
        return Err(RouteError::NeedMoreLayers {
            required: 1,
            allowed: 0,
        });
    }
    Ok(configured.min(u8::MAX as usize + 1))
}

/// Count budget trips on the engine's recorder: passes `res` through,
/// bumping the `budget_trips` counter when it is a
/// [`RouteError::BudgetExceeded`].
pub fn record_trip<T>(rec: &dyn Recorder, res: Result<T, RouteError>) -> Result<T, RouteError> {
    if let Err(RouteError::BudgetExceeded { .. }) = &res {
        if rec.enabled() {
            rec.add(counters::BUDGET_TRIPS, 1);
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = BudgetGuard::unlimited();
        let net = topo::ring(4, 1);
        g.admit(&net).unwrap();
        g.admit_with(|| unreachable!("no cap, so no view is sized"))
            .unwrap();
        g.check_deadline().unwrap();
        g.check_cdg_edges(usize::MAX).unwrap();
        assert!(Budget::default().is_unlimited());
    }

    #[test]
    fn node_admission_is_enforced() {
        let net = topo::ring(4, 1);
        let g = Budget::new().max_nodes(3).start();
        let err = g.admit(&net).unwrap_err();
        assert_eq!(
            err,
            RouteError::BudgetExceeded {
                resource: "nodes",
                limit: 3
            }
        );
        Budget::new().max_nodes(64).start().admit(&net).unwrap();
    }

    #[test]
    fn elapsed_deadline_trips() {
        let g = Budget::new().deadline(Duration::ZERO).start();
        let err = g.check_deadline().unwrap_err();
        assert!(matches!(
            err,
            RouteError::BudgetExceeded {
                resource: "deadline_ms",
                ..
            }
        ));
    }

    #[test]
    fn cdg_edge_cap_trips() {
        let g = Budget::new().max_cdg_edges(10).start();
        g.check_cdg_edges(10).unwrap();
        assert!(g.check_cdg_edges(11).is_err());
    }

    #[test]
    fn layer_budgets_outside_a_u8_are_typed_or_clamped() {
        let zero = RouteError::NeedMoreLayers {
            required: 1,
            allowed: 0,
        };
        assert_eq!(clamp_layers(0), Err(zero));
        assert_eq!(clamp_layers(8), Ok(8));
        assert_eq!(clamp_layers(300), Ok(256));
        assert_eq!(clamp_layers(256), Ok(256));
    }
}
