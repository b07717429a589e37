//! Per-class service-level objectives judged from recorded telemetry.
//!
//! The serving path records a submit-to-redeem latency histogram per
//! [`QueryClass`] (`wait_us_interactive` / `wait_us_bulk`, observed by
//! [`crate::Ticket::wait`] and by a synchronous
//! [`crate::QueryEngine::query`] whenever a recorder is attached). An
//! [`SloPolicy`] turns one of those histograms into a typed pass/fail
//! [`SloVerdict`] — the contract the overload bench and CI's
//! overload-smoke job gate on, instead of eyeballing percentiles.
//!
//! The p99 estimate comes from [`telemetry::Hist`]'s log₂ buckets, so
//! it is an upper edge, not an exact order statistic — conservative in
//! the right direction for a "did we stay under the target" question.

use crate::query::QueryClass;
use std::time::Duration;
use telemetry::Snapshot as Metrics;

/// A latency objective for one query class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloPolicy {
    /// The class under judgment.
    pub class: QueryClass,
    /// 99th-percentile submit-to-redeem latency target.
    pub p99: Duration,
}

impl SloPolicy {
    /// Judge this objective against a recorded metrics snapshot.
    pub fn judge(&self, metrics: &Metrics) -> SloVerdict {
        let class = self.class.name();
        let target_us = self.p99.as_micros() as u64;
        match metrics.histograms.get(wait_hist(self.class)) {
            None => SloVerdict::NoData { class },
            Some(h) if h.count == 0 => SloVerdict::NoData { class },
            Some(h) => {
                let Some(p99_us) = h.quantile(0.99) else {
                    return SloVerdict::NoData { class };
                };
                if p99_us <= target_us {
                    SloVerdict::Met {
                        class,
                        p99_us,
                        target_us,
                        served: h.count,
                    }
                } else {
                    SloVerdict::Violated {
                        class,
                        p99_us,
                        target_us,
                        served: h.count,
                    }
                }
            }
        }
    }
}

/// The wait-latency histogram name for a class (see [`telemetry::hists`]).
pub(crate) fn wait_hist(class: QueryClass) -> &'static str {
    match class {
        QueryClass::Interactive => telemetry::hists::WAIT_US_INTERACTIVE,
        QueryClass::Bulk => telemetry::hists::WAIT_US_BULK,
    }
}

/// The outcome of judging one [`SloPolicy`]. Dropping a verdict on the
/// floor defeats the point of computing it, hence `#[must_use]`.
#[must_use = "an SLO verdict exists to be acted on; check met() or match it"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloVerdict {
    /// The class stayed within its objective.
    Met {
        /// Class name.
        class: &'static str,
        /// Estimated p99 latency, microseconds (bucket upper edge).
        p99_us: u64,
        /// The configured target, microseconds.
        target_us: u64,
        /// Observations behind the estimate.
        served: u64,
    },
    /// The class blew its objective.
    Violated {
        /// Class name.
        class: &'static str,
        /// Estimated p99 latency, microseconds (bucket upper edge).
        p99_us: u64,
        /// The configured target, microseconds.
        target_us: u64,
        /// Observations behind the estimate.
        served: u64,
    },
    /// No latency observations were recorded for the class.
    NoData {
        /// Class name.
        class: &'static str,
    },
}

impl SloVerdict {
    /// `true` when the objective held. [`SloVerdict::NoData`] is *not*
    /// a pass — a silent recorder must not green-light a gate.
    pub fn met(&self) -> bool {
        matches!(self, SloVerdict::Met { .. })
    }
}

impl std::fmt::Display for SloVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloVerdict::Met {
                class,
                p99_us,
                target_us,
                served,
            } => write!(
                f,
                "{class}: MET p99 {p99_us}us <= {target_us}us over {served} queries"
            ),
            SloVerdict::Violated {
                class,
                p99_us,
                target_us,
                served,
            } => write!(
                f,
                "{class}: VIOLATED p99 {p99_us}us > {target_us}us over {served} queries"
            ),
            SloVerdict::NoData { class } => write!(f, "{class}: no latency data"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Collector, Recorder};

    fn policy(class: QueryClass, p99_ms: u64) -> SloPolicy {
        SloPolicy {
            class,
            p99: Duration::from_millis(p99_ms),
        }
    }

    #[test]
    fn met_when_under_target() {
        let c = Collector::new();
        for _ in 0..100 {
            c.observe(wait_hist(QueryClass::Interactive), 200);
        }
        let v = policy(QueryClass::Interactive, 10).judge(&c.snapshot());
        assert!(v.met());
        match v {
            SloVerdict::Met {
                class,
                served,
                target_us,
                ..
            } => {
                assert_eq!(class, "interactive");
                assert_eq!(served, 100);
                assert_eq!(target_us, 10_000);
            }
            other => panic!("expected Met, got {other}"),
        }
    }

    #[test]
    fn violated_when_the_tail_is_slow() {
        let c = Collector::new();
        // 99 fast, 2 catastrophically slow: p99 lands in the slow tail.
        for _ in 0..99 {
            c.observe(wait_hist(QueryClass::Bulk), 100);
        }
        c.observe(wait_hist(QueryClass::Bulk), 5_000_000);
        c.observe(wait_hist(QueryClass::Bulk), 5_000_000);
        let v = policy(QueryClass::Bulk, 1).judge(&c.snapshot());
        assert!(!v.met());
        assert!(matches!(v, SloVerdict::Violated { class: "bulk", .. }));
    }

    #[test]
    fn no_data_is_not_a_pass() {
        let c = Collector::new();
        let v = policy(QueryClass::Interactive, 1).judge(&c.snapshot());
        assert!(!v.met());
        assert!(matches!(v, SloVerdict::NoData { .. }));
        assert_eq!(v.to_string(), "interactive: no latency data");
    }

    #[test]
    fn verdicts_render_for_operators() {
        let c = Collector::new();
        c.observe(wait_hist(QueryClass::Interactive), 10);
        let v = policy(QueryClass::Interactive, 5).judge(&c.snapshot());
        assert!(v.to_string().contains("MET"));
    }
}
