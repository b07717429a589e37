//! The benchmark's vocabulary: every workload and every metric, with its
//! unit, direction, regression bound and the call it is measured around.
//!
//! `BENCHMARK.json` at the repository root restates this table for the
//! driver; `tests/smoke.rs` fails when the two drift apart.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, memory, error counts).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed, `<module>.<what>_<unit>` for per-layer metrics.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for the ungated
    /// per-layer metrics.
    pub bound: Option<f64>,
    /// The public call (or derivation) the number comes from.
    pub source: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        source,
    }
}

use Better::{Higher, Lower};

/// What an operator sees. Measured with tracing off; every workload
/// reports every one of them (see `run.rs` for how each workload splits
/// its time between the segments that produce them). Reads per second
/// (`serve.answer_qps`) is not among them: between identical runs on the
/// reference host it spread by up to 28 % even calibrated, wider than
/// any bound the driver accepts, so it is reported ungated.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "input generation + parse + RouteServer::bring_up + first answer, median of the set-up repetitions",
    ),
    e2e(
        "boot_ms",
        "ms",
        Lower,
        0.25,
        "format::text::parse_network -> RouteServer::bring_up -> first Snapshot::answer, median",
    ),
    e2e(
        "event_to_answer_ms",
        "ms",
        Lower,
        0.25,
        "RouteServer::handle(event) -> first answer whose epoch is the new one; median over CableDown/CableUp pairs of the pair's mean",
    ),
    e2e(
        "query_rtt_us",
        "us",
        Lower,
        0.25,
        "QueryEngine::query round trip, one closed-loop client against workers: 1 on one CPU; median of the 32-query blocks' medians",
    ),
    e2e("peak_rss_mb", "MB", Lower, 0.20, "VmHWM of the process at exit"),
];

/// One layer each. Measured in the traced run only, never gated.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "fabric.parse_ms",
        "ms",
        Lower,
        "format::text::parse_network",
    ),
    layer("fabric.degrade_ms", "ms", Lower, "degrade::remove"),
    layer(
        "fabric.connectivity_ms",
        "ms",
        Lower,
        "Network::is_strongly_connected",
    ),
    layer(
        "core.route_cold_ms",
        "ms",
        Lower,
        "DfSssp::route_in on the same view (the cost delta avoids)",
    ),
    layer("core.sssp_ms", "ms", Lower, "phase sssp of the cold route"),
    layer(
        "core.cdg_build_ms",
        "ms",
        Lower,
        "phase cdg_build of the cold route",
    ),
    layer(
        "core.cycle_search_ms",
        "ms",
        Lower,
        "phase cycle_search of the cold route",
    ),
    layer(
        "core.layer_assign_ms",
        "ms",
        Lower,
        "phase layer_assign of the cold route",
    ),
    layer(
        "core.balance_ms",
        "ms",
        Lower,
        "phase balance of the cold route",
    ),
    layer(
        "core.deadlock_report_ms",
        "ms",
        Lower,
        "verify::deadlock_report",
    ),
    layer(
        "core.paths_routed",
        "count",
        Higher,
        "ordered terminal pairs routed by the cold routes, total",
    ),
    layer(
        "core.cycles_broken",
        "count",
        Lower,
        "counter cycles_broken of the cold routes, total",
    ),
    layer(
        "core.vls_used",
        "count",
        Lower,
        "Routes::num_layers, maximum over the run",
    ),
    layer(
        "core.pool_par_tasks",
        "count",
        Higher,
        "counter par_tasks of the serving engine, total",
    ),
    layer(
        "core.pool_steal_count",
        "count",
        Lower,
        "counter steal_count of the serving engine, total",
    ),
    layer(
        "delta.route_ms",
        "ms",
        Lower,
        "DeltaEngine::route_in on a shadow engine fed the same views",
    ),
    layer(
        "delta.dirty_ms",
        "ms",
        Lower,
        "phase delta_dirty of the shadow engine",
    ),
    layer(
        "delta.patch_ms",
        "ms",
        Lower,
        "phase delta_patch of the shadow engine",
    ),
    layer(
        "delta.taken_ratio",
        "ratio",
        Higher,
        "events with last_outcome().delta / events rerouted",
    ),
    layer(
        "delta.fallbacks",
        "count",
        Lower,
        "events rerouted by a full recompute, total",
    ),
    layer(
        "delta.dirty_dests_sum",
        "count",
        Lower,
        "counter delta_dirty_dsts, total",
    ),
    layer(
        "delta.dirty_fraction_mean",
        "ratio",
        Lower,
        "dirty destinations / terminals, mean over events",
    ),
    layer(
        "delta.union_acyclic_ratio",
        "ratio",
        Higher,
        "events with last_outcome().union_acyclic / events rerouted",
    ),
    layer(
        "delta.vs_cold_ratio",
        "ratio",
        Higher,
        "core.route_cold_ms / delta.route_ms (base: delta.route_ms)",
    ),
    layer("vet.existence_ms", "ms", Lower, "vet::existence"),
    layer(
        "vet.check_ms",
        "ms",
        Lower,
        "vet::check, the full publish gate",
    ),
    layer(
        "vet.scoped_ms",
        "ms",
        Lower,
        "vet::analyze_scoped on the event's dirty destinations",
    ),
    layer(
        "vet.errors",
        "count",
        Lower,
        "Report::num_errors of the publish gate, total",
    ),
    layer(
        "vet.undecided_ratio",
        "ratio",
        Lower,
        "vet::existence verdicts that are Undecided / verdicts",
    ),
    layer(
        "subnet.handle_ms",
        "ms",
        Lower,
        "EventOutcome::elapsed of the live operation",
    ),
    layer(
        "subnet.sm_run_ms",
        "ms",
        Lower,
        "SubnetManager::run over a second shadow engine",
    ),
    layer("subnet.discover_ms", "ms", Lower, "discovery::discover"),
    layer(
        "subnet.program_ms",
        "ms",
        Lower,
        "LidMap::assign + FabricTables::program",
    ),
    layer(
        "subnet.walk_validate_ms",
        "ms",
        Lower,
        "FabricTables::walk over every ordered terminal pair",
    ),
    layer("subnet.remap_ms", "ms", Lower, "transition::remap_routes"),
    layer(
        "subnet.plan_ms",
        "ms",
        Lower,
        "transition::plan_update (boots, and events the planner missed)",
    ),
    layer(
        "subnet.diff_plan_ms",
        "ms",
        Lower,
        "DeltaPlanner::diff_plan",
    ),
    layer(
        "subnet.diff_plan_hit_ratio",
        "ratio",
        Higher,
        "diff_plan answers that are Some / calls",
    ),
    layer(
        "subnet.plan_direct_ratio",
        "ratio",
        Higher,
        "live EventOutcome plans with direct == true / events",
    ),
    layer("subnet.lft_diff_ms", "ms", Lower, "FabricTables::diff"),
    layer(
        "subnet.lft_entries_changed",
        "count",
        Lower,
        "live LftDiff::entries_changed, total",
    ),
    layer(
        "serve.publish_ms",
        "ms",
        Lower,
        "SnapshotStore::publish on a shadow store (clones + gate + swap)",
    ),
    layer(
        "serve.publish_diff_ms",
        "ms",
        Lower,
        "SnapshotStore::publish_diff with the event's dirty scope",
    ),
    layer(
        "serve.swap_pause_us",
        "us",
        Lower,
        "phase epoch_swap of the live store, per publish",
    ),
    layer(
        "serve.epochs_published",
        "count",
        Higher,
        "counter epochs_published of the live stores, total",
    ),
    layer("serve.read_ns", "ns", Lower, "SnapshotStore::read"),
    layer("serve.answer_ns", "ns", Lower, "Snapshot::answer"),
    layer(
        "serve.answer_qps",
        "1/s",
        Higher,
        "SnapshotStore::read + Snapshot::answer per second on one thread (beside the event writer on serve-mixed), calibrated, median of the 100 ms windows",
    ),
    layer(
        "serve.batch_qps",
        "1/s",
        Higher,
        "QueryEngine::query_batch of 64, closed loop",
    ),
    layer(
        "serve.open_p50_us_25k",
        "us",
        Lower,
        "open loop, Poisson 25k/s, latency from the due time, p50",
    ),
    layer(
        "serve.open_p99_us_25k",
        "us",
        Lower,
        "open loop, Poisson 25k/s, latency from the due time, p99 (limit 1000 us)",
    ),
    layer(
        "serve.open_p50_us_100k",
        "us",
        Lower,
        "open loop, Poisson 100k/s, latency from the due time, p50",
    ),
    layer(
        "serve.open_p99_us_100k",
        "us",
        Lower,
        "open loop, Poisson 100k/s, latency from the due time, p99 (limit 1000 us)",
    ),
    layer(
        "serve.open_gen_lag_p99_us",
        "us",
        Lower,
        "how late the open-loop generator submitted, p99 over both rates",
    ),
    layer(
        "serve.coalesced_ratio",
        "ratio",
        Higher,
        "counter queries_coalesced / queries submitted to the recorded engine",
    ),
    layer(
        "serve.rejected",
        "count",
        Lower,
        "counter queries_rejected, total",
    ),
    layer(
        "serve.expired",
        "count",
        Lower,
        "counter queries_expired, total",
    ),
    layer("serve.shed", "count", Lower, "counter queries_shed, total"),
    layer(
        "serve.stale_reads",
        "count",
        Lower,
        "counter stale_reads, total",
    ),
    layer(
        "tail.boot_p90_ms",
        "ms",
        Lower,
        "boot_ms of the traced run, p90 (or the highest percentile with 10 samples beyond it)",
    ),
    layer(
        "tail.event_to_answer_p95_ms",
        "ms",
        Lower,
        "per-event latency of the traced run, p95 (same rule)",
    ),
    layer(
        "tail.query_rtt_p99_us",
        "us",
        Lower,
        "query_rtt_us of the traced run, p99 (same rule)",
    ),
    layer(
        "telemetry.collector_overhead_pct",
        "%",
        Lower,
        "query RTT with a Collector against Noop, interleaved blocks",
    ),
    layer(
        "telemetry.trace_overhead_pct",
        "%",
        Lower,
        "traced against untraced median of the workload's primary operation",
    ),
    layer(
        "host.calibration_ms",
        "ms",
        Lower,
        "the calibration kernel of calib.rs (reference: 0.25 ms), median over the run",
    ),
    layer(
        "trace.unattributed_pct",
        "%",
        Lower,
        "share of a live boot/event the replayed layer spans do not cover, median over operations",
    ),
];

/// The reference fabric a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// `random_topology(64 switches, radix 24, 8 terminals each, 160
    /// cables)`: 512 terminals, a fresh seeded fabric per boot.
    Irregular,
    /// `kary_ntree(16, 2)`: 256 terminals.
    FatTree,
    /// `torus(&[8, 8], 2)`: 128 terminals.
    Torus,
}

/// One workload: a fabric, and how the run's seconds are shared between
/// the three segments that every workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Reference fabric.
    pub fabric: Fabric,
    /// Shares of the run given to cold boots, cable events and
    /// closed-loop queries. They sum to 1.
    pub shares: [f64; 3],
    /// Whether a snapshot reader runs on a second thread beside the
    /// event writer.
    pub mixed: bool,
    /// The end-to-end metric tracing overhead is judged on.
    pub primary: &'static str,
}

/// Every workload, in report order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "boot-irregular",
        why: "cold boots of seeded irregular 512-terminal fabrics: core's sweep, CDG build, cycle search and layer assignment dominate; delta's patch path is idle",
        fabric: Fabric::Irregular,
        shares: [0.50, 0.40, 0.10],
        mixed: false,
        primary: "boot_ms",
    },
    Workload {
        name: "churn-fattree",
        why: "single-cable events on a warm 16-ary 2-tree: acyclic CDG, direct plans, events dirty 16 or all 256 trees so delta's patch and its fallback both run",
        fabric: Fabric::FatTree,
        shares: [0.15, 0.65, 0.20],
        mixed: false,
        primary: "event_to_answer_ms",
    },
    Workload {
        name: "churn-torus",
        why: "the same events on torus(8x8,2): cyclic CDG on all 8 VLs, staged+drain plans, vet's existence walks dominate; a fat-tree gain that costs the torus shows here",
        fabric: Fabric::Torus,
        shares: [0.15, 0.65, 0.20],
        mixed: false,
        primary: "event_to_answer_ms",
    },
    Workload {
        name: "serve-steady",
        why: "mostly a static epoch of the fat tree under one closed-loop query client: core, delta, vet and subnet do nothing during the queries, so only serve can move query_rtt_us here",
        fabric: Fabric::FatTree,
        shares: [0.15, 0.15, 0.70],
        mixed: false,
        primary: "query_rtt_us",
    },
    Workload {
        name: "serve-mixed",
        why: "reads beside writes: the fat-tree event stream back to back on one thread while a second thread runs the reader loop; a Swap or publish gain that costs readers shows here",
        fabric: Fabric::FatTree,
        shares: [0.15, 0.65, 0.20],
        mixed: true,
        primary: "event_to_answer_ms",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Look a metric up by name, in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
