//! Instrumentation for routing engines and simulators: phase timers,
//! counters, histograms, and versioned run manifests.
//!
//! The paper's evaluation is quantitative — routing runtime (Figs 7–8),
//! virtual-layer consumption (Figs 9–10), edge-load balance (Figs 4–6) —
//! and OpenSM's DFSSSP integration reports per-phase timings for exactly
//! this reason: the counters are the contract between a routing engine
//! and its operators. This crate is that contract for the workspace.
//!
//! Three pieces:
//!
//! * [`Recorder`] — the sink trait every hot path talks to. The default
//!   is [`Noop`], whose methods are empty and whose [`Recorder::enabled`]
//!   gate lets call sites skip even the `Instant::now()` when nobody is
//!   listening (the zero-cost-when-disabled property the overhead test
//!   in `tests/telemetry_e2e.rs` pins down).
//! * [`Collector`] — a thread-safe in-memory aggregator whose
//!   [`Collector::snapshot`] turns into the `metrics` section of a
//!   [`RunManifest`].
//! * [`RunManifest`] — the versioned JSON artifact (`dfsssp-metrics/v1`)
//!   the `--metrics <out.json>` flag of every reproduction binary emits:
//!   topology, engine, seed, phase timings, counters, histograms.
//!
//! Naming is by convention, not by enum, so downstream crates can add
//! phases without touching this crate; the well-known names live in
//! [`phases`], [`counters`] and [`hists`].

pub mod collector;
pub mod fx;
pub mod hist;
pub mod json;
pub mod manifest;

pub use collector::Collector;
pub use hist::Hist;
pub use manifest::{PhaseStat, RunManifest, Snapshot, TopologySummary, SCHEMA};

use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Well-known phase names. A phase is a wall-clock span; the same name
/// may be reported several times per run (the collector accumulates).
pub mod phases {
    /// Algorithm 1: balanced shortest-path table construction.
    pub const SSSP: &str = "sssp";
    /// Path extraction + channel-dependency-graph population.
    pub const CDG_BUILD: &str = "cdg_build";
    /// Time inside the (resumable) cycle search.
    pub const CYCLE_SEARCH: &str = "cycle_search";
    /// Moving paths between layers, incremental acyclicity checks,
    /// compaction — everything in layer assignment that is not search.
    pub const LAYER_ASSIGN: &str = "layer_assign";
    /// Spreading used layers over the remaining VL budget.
    pub const BALANCE: &str = "balance";
    /// One full `RoutingEngine::route` call (any engine).
    pub const ROUTE_TOTAL: &str = "route_total";
    /// The wrapped inner engine of a `DeadlockFree<E>` run.
    pub const INNER_ROUTE: &str = "inner_route";
    /// One subnet-manager reroute (event handling or bring-up).
    pub const REROUTE: &str = "reroute";
    /// Inside a reroute: the V007 existence verdict on the degraded view.
    pub const SM_EXISTENCE: &str = "sm_existence";
    /// Inside a reroute: the deploy guard — one destination-colored walk
    /// of the engine's tables plus the per-layer cycle search.
    pub const SM_GUARD: &str = "sm_guard";
    /// Inside a reroute: port-by-port validation of the compiled LFTs.
    pub const SM_VALIDATE: &str = "sm_validate";
    /// Inside a reroute, beside the ladder: remapping the serving tables
    /// onto the new view and walking them (the old end of the update
    /// window).
    pub const SM_PLAN_OLD: &str = "sm_plan_old";
    /// Inside a reroute, beside the publish gate: planning the update
    /// window and diffing the LFTs.
    pub const SM_PLAN: &str = "sm_plan";
    /// One effective-bisection-bandwidth simulation.
    pub const EBB: &str = "ebb";
    /// One buffer-level simulation.
    pub const FLITSIM: &str = "flitsim";
    /// Whole-binary wall clock (recorded by the repro CLI harness).
    pub const TOTAL: &str = "total";
    /// One snapshot publish's vet gate: the store's own, or the route
    /// server's, run beside the SM's update planner.
    pub const SERVE_PUBLISH: &str = "serve_publish";
    /// The atomic swap installing a published snapshot (the only part
    /// of a publish concurrent readers can even theoretically notice).
    pub const EPOCH_SWAP: &str = "epoch_swap";
    /// One drained query batch answered by a serve worker.
    pub const SERVE_BATCH: &str = "serve_batch";
    /// Delta reroute: channel diff + affected-set (dirty destination)
    /// extraction. Reported by every diffable request, patched or not.
    pub const DELTA_DIRTY: &str = "delta_dirty";
    /// Delta reroute: the whole patch — the four `delta_*` stages below.
    pub const DELTA_PATCH: &str = "delta_patch";
    /// Inside a patch: the cached tables' clean destination columns
    /// copied (the views share their ids).
    pub const DELTA_DIFF: &str = "delta_diff";
    /// Inside a patch: the dirty destinations' trees re-swept.
    pub const DELTA_SWEEP: &str = "delta_sweep";
    /// Inside a patch: layer-0 window counts patched (or rebuilt) and
    /// the acyclicity DFS — absent while the all-paths CDG is cyclic.
    pub const DELTA_COUNTS: &str = "delta_counts";
    /// Inside a patch: layer matrix copied, rebalanced or reassigned.
    pub const DELTA_LAYERS: &str = "delta_layers";
    /// After a full recompute: the delta cache rebuilt from its output.
    pub const DELTA_REBUILD: &str = "delta_rebuild";
}

/// Well-known counter names.
pub mod counters {
    /// Ordered terminal pairs routed.
    pub const PATHS_ROUTED: &str = "paths_routed";
    /// Virtual layers the final routing uses.
    pub const VLS_USED: &str = "vls_used";
    /// Channels whose balancing weight grew during SSSP.
    pub const EDGES_WEIGHTED: &str = "edges_weighted";
    /// CDG cycles discovered and broken.
    pub const CYCLES_BROKEN: &str = "cycles_broken";
    /// Paths moved between layers during assignment.
    pub const PATHS_MOVED: &str = "paths_moved";
    /// Subnet-manager reroutes performed.
    pub const REROUTES: &str = "reroutes";
    /// Fabric events coalesced into reroutes.
    pub const EVENTS_COALESCED: &str = "events_coalesced";
    /// Escalation rungs, by kind.
    pub const RUNG_QUARANTINE: &str = "rung_quarantine";
    /// See [`RUNG_QUARANTINE`].
    pub const RUNG_WIDENED_VLS: &str = "rung_widened_vls";
    /// See [`RUNG_QUARANTINE`].
    pub const RUNG_FALLBACK: &str = "rung_fallback";
    /// See [`RUNG_QUARANTINE`] — fired when V007 proves the degraded
    /// view needs multiple virtual layers (existence refuted).
    pub const RUNG_MULTI_LAYER_FORCED: &str = "rung_multi_layer_forced";
    /// Traffic patterns simulated (ORCS).
    pub const PATTERNS_SIMULATED: &str = "patterns_simulated";
    /// Packets delivered (flit simulator).
    pub const PACKETS_DELIVERED: &str = "packets_delivered";
    /// Cycles simulated (flit simulator).
    pub const SIM_CYCLES: &str = "sim_cycles";
    /// Routing runs aborted because a budget axis ran out.
    pub const BUDGET_TRIPS: &str = "budget_trips";
    /// Engine panics caught and contained by the subnet manager.
    pub const ENGINE_PANICS: &str = "engine_panics";
    /// Circuit-breaker transitions to the open state.
    pub const BREAKER_OPENS: &str = "breaker_opens";
    /// Half-open probe calls let through an open breaker.
    pub const BREAKER_PROBES: &str = "breaker_probes";
    /// Bounded retries of a panicking primary engine.
    pub const ENGINE_RETRIES: &str = "engine_retries";
    /// Path queries answered by the serve workers.
    pub const QUERIES_SERVED: &str = "queries_served";
    /// Queries that attached to an identical in-flight query.
    pub const QUERIES_COALESCED: &str = "queries_coalesced";
    /// Queries refused by admission control (budget or overload).
    pub const QUERIES_REJECTED: &str = "queries_rejected";
    /// Snapshot epochs published to readers.
    pub const EPOCHS_PUBLISHED: &str = "epochs_published";
    /// Snapshot publishes the vet gate refused.
    pub const PUBLISH_REJECTED: &str = "publish_rejected";
    /// Queries answered from an epoch older than the newest published
    /// one (consistent, but one swap behind).
    pub const STALE_READS: &str = "stale_reads";
    /// Queries whose class deadline passed while they sat in a shard
    /// queue; dropped before a snapshot read was paid for them.
    pub const QUERIES_EXPIRED: &str = "queries_expired";
    /// Best-effort queries refused by the adaptive shed controller
    /// (AIMD admitted-rate gate, not a queue cap).
    pub const QUERIES_SHED: &str = "queries_shed";
    /// See [`RUNG_QUARANTINE`] — a reroute published while the serving
    /// path was actively shedding best-effort load.
    pub const RUNG_OVERLOAD_SHED: &str = "rung_overload_shed";
    /// Never recorded: route compute no longer fans out. Kept only
    /// because `crates/perf/src/run.rs:869` names it; delete it with
    /// that line.
    pub const PAR_TASKS: &str = "par_tasks";
    /// Never recorded; pinned by `crates/perf/src/run.rs:870` like
    /// [`PAR_TASKS`].
    pub const STEAL_COUNT: &str = "steal_count";
    /// Destinations dirtied (re-swept) by delta reroutes.
    pub const DELTA_DIRTY_DSTS: &str = "delta_dirty_dsts";
    /// Delta reroutes that fell back to a full recompute.
    pub const DELTA_FALLBACKS: &str = "delta_fallbacks";
}

/// Well-known histogram names.
pub mod hists {
    /// Channels per terminal-to-terminal path.
    pub const PATH_LENGTH: &str = "path_length";
    /// Distinct channels used per virtual layer.
    pub const VL_CHANNELS: &str = "vl_channels";
    /// Routed paths per channel (the Fig 4–6 balance evidence).
    pub const EDGE_LOAD: &str = "edge_load";
    /// Per-event reroute latency, microseconds.
    pub const REROUTE_US: &str = "reroute_us";
    /// Per-pattern mean flow bandwidth, milli-units (ORCS).
    pub const PATTERN_BW_MILLI: &str = "pattern_bw_milli";
    /// Reader-visible pause per epoch swap, microseconds.
    pub const SWAP_PAUSE_US: &str = "swap_pause_us";
    /// Queries drained per serve-worker batch.
    pub const SERVE_BATCH_SIZE: &str = "serve_batch_size";
    /// Worst in-queue wait of a drained batch, microseconds (the signal
    /// the adaptive shed controller keys its EWMA off).
    pub const QUEUE_DELAY_US: &str = "queue_delay_us";
    /// Admitted-rate setting (permille) each time the AIMD controller
    /// adjusts it; min shows the deepest shed, max the recovery.
    pub const ADMITTED_PERMILLE: &str = "admitted_permille";
    /// Submit-to-redeem latency of interactive queries, microseconds
    /// (the histogram per-class SLO verdicts are judged from).
    pub const WAIT_US_INTERACTIVE: &str = "wait_us_interactive";
    /// See [`WAIT_US_INTERACTIVE`]; the bulk class.
    pub const WAIT_US_BULK: &str = "wait_us_bulk";
}

/// A metrics sink. Implementations must be cheap to call; hot paths
/// additionally gate any *measurement-only* work (clock reads, metric
/// computation) behind [`Recorder::enabled`].
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Whether anybody is listening. `false` lets call sites skip clock
    /// reads and metric computation entirely.
    fn enabled(&self) -> bool;

    /// Report one span of `nanos` nanoseconds spent in phase `name`.
    fn phase(&self, name: &'static str, nanos: u64);

    /// Add `delta` to counter `name`.
    fn add(&self, name: &'static str, delta: u64);

    /// Record one observation of histogram `name`.
    fn observe(&self, name: &'static str, value: u64);
}

/// A shared, cloneable recorder handle (the form engine configs carry).
pub type RecorderHandle = Arc<dyn Recorder>;

/// The default recorder: drops everything, reports disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noop;

impl Recorder for Noop {
    fn enabled(&self) -> bool {
        false
    }
    fn phase(&self, _name: &'static str, _nanos: u64) {}
    fn add(&self, _name: &'static str, _delta: u64) {}
    fn observe(&self, _name: &'static str, _value: u64) {}
}

/// The shared no-op handle (one allocation per process).
pub fn noop() -> RecorderHandle {
    static NOOP: OnceLock<RecorderHandle> = OnceLock::new();
    NOOP.get_or_init(|| Arc::new(Noop)).clone()
}

/// Time `f` and report it as one span of `name`. When the recorder is
/// disabled the clock is never read.
pub fn timed<T>(rec: &dyn Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !rec.enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    rec.phase(name, start.elapsed().as_nanos() as u64);
    out
}

/// Accumulates many short intervals into one phase report — for timing
/// the inside of tight loops (e.g. the cycle search inside layer
/// assignment) without one `phase` call per iteration. Reports on drop
/// even when zero intervals were measured, so the phase is present in
/// the manifest whenever a recorder is attached.
pub struct Acc<'a> {
    rec: &'a dyn Recorder,
    name: &'static str,
    nanos: u64,
    enabled: bool,
}

impl<'a> Acc<'a> {
    /// A fresh accumulator for phase `name`.
    pub fn new(rec: &'a dyn Recorder, name: &'static str) -> Self {
        Acc {
            rec,
            name,
            nanos: 0,
            enabled: rec.enabled(),
        }
    }

    /// Run `f`, adding its duration to the accumulator.
    #[inline]
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.nanos += start.elapsed().as_nanos() as u64;
        out
    }
}

impl Drop for Acc<'_> {
    fn drop(&mut self) {
        if self.enabled {
            self.rec.phase(self.name, self.nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let n = noop();
        assert!(!n.enabled());
        n.phase("x", 1);
        n.add("x", 1);
        n.observe("x", 1);
    }

    #[test]
    fn noop_handle_is_shared() {
        assert!(Arc::ptr_eq(&noop(), &noop()));
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed(&Noop, "x", || 42), 42);
        let c = Collector::default();
        assert_eq!(timed(&c, "x", || 42), 42);
        assert_eq!(c.snapshot().phases["x"].count, 1);
    }

    #[test]
    fn acc_reports_once_even_when_empty() {
        let c = Collector::default();
        {
            let mut a = Acc::new(&c, "loop");
            for _ in 0..10 {
                a.measure(|| ());
            }
        }
        {
            let _empty = Acc::new(&c, "empty");
        }
        let snap = c.snapshot();
        assert_eq!(snap.phases["loop"].count, 1);
        assert_eq!(snap.phases["empty"].count, 1);
    }
}
