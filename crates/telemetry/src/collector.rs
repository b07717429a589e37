//! The in-memory [`Collector`], the one recording [`Recorder`].

use crate::fx::FxHashMap;
use crate::hist::Hist;
use crate::manifest::{PhaseStat, Snapshot};
use crate::Recorder;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Debug, Default)]
struct Inner {
    phases: FxHashMap<&'static str, PhaseStat>,
    counters: FxHashMap<&'static str, u64>,
    histograms: FxHashMap<&'static str, Hist>,
}

/// A thread-safe in-memory aggregator. One mutex guards everything —
/// hot paths report aggregates (an accumulated phase, a batch counter),
/// not per-iteration events, so contention is not a concern; the
/// pool-parallel simulators report per work item and stay well under
/// the lock's capacity.
#[derive(Debug, Default)]
pub struct Collector {
    inner: Mutex<Inner>,
}

impl Collector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An aggregated, ordered copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            phases: inner
                .phases
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect::<BTreeMap<_, _>>(),
            counters: inner
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect::<BTreeMap<_, _>>(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect::<BTreeMap<_, _>>(),
        }
    }
}

impl Recorder for Collector {
    fn enabled(&self) -> bool {
        true
    }

    fn phase(&self, name: &'static str, nanos: u64) {
        let mut inner = self.inner.lock().unwrap();
        let stat = inner.phases.entry(name).or_default();
        stat.nanos += nanos;
        stat.count += 1;
    }

    fn add(&self, name: &'static str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn observe(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.histograms.entry(name).or_default().observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_phases_counters_hists() {
        let c = Collector::new();
        c.phase("sssp", 100);
        c.phase("sssp", 50);
        c.phase("balance", 7);
        c.add("paths_routed", 10);
        c.add("paths_routed", 5);
        c.observe("path_length", 3);
        c.observe("path_length", 4);
        let snap = c.snapshot();
        assert_eq!(snap.phases["sssp"].nanos, 150);
        assert_eq!(snap.phases["sssp"].count, 2);
        assert_eq!(snap.phases["balance"].count, 1);
        assert_eq!(snap.counters["paths_routed"], 15);
        assert_eq!(snap.histograms["path_length"].count, 2);
        assert_eq!(snap.histograms["path_length"].sum, 7);
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        // Compile-time contract: every piece the serving path moves
        // across threads really is Send + Sync — recorder impls, the
        // shared handle, and the sink-carrying engine config.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Collector>();
        assert_send_sync::<crate::Noop>();
        assert_send_sync::<crate::RecorderHandle>();

        // Borrowed sharing, no Arc: scoped threads hammer one collector.
        let c = Collector::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().counters["n"], 4000);
    }
}
