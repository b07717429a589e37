//! # dfsssp — Deadlock-Free Oblivious Routing for Arbitrary Topologies
//!
//! A from-scratch Rust reproduction of Domke, Hoefler & Nagel (IPDPS
//! 2011): the **DFSSSP** routing algorithm — balanced shortest-path
//! routing made deadlock-free by assigning paths to virtual layers whose
//! channel dependency graphs are acyclic — together with every substrate
//! and baseline the paper's evaluation needs.
//!
//! ## Quick start
//!
//! ```
//! use dfsssp::prelude::*;
//!
//! // A 2D torus: minimal routing deadlocks here without virtual lanes.
//! let net = dfsssp::topo::torus(&[4, 4], 1);
//!
//! // Route it deadlock-free under the paper's schedule (chunk 1; the
//! // serving stack configures `ComputeOpts::new().chunk(net.num_terminals())`).
//! let engine = DfSssp::new();
//! let routes = engine.route(&net).unwrap();
//! assert!(routes.num_layers() >= 2);
//!
//! // Verify the Dally & Seitz condition holds per layer.
//! dfsssp::verify::verify_deadlock_free(&net, &routes).unwrap();
//!
//! // Measure the effective bisection bandwidth.
//! let opts = EbbOptions { patterns: 100, ..Default::default() };
//! let ebb = effective_bisection_bandwidth(&net, &routes, &opts).unwrap();
//! assert!(ebb.mean > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`fabric`] | network model, topology generators, forwarding tables |
//! | [`core`] | SSSP, DFSSSP, CDGs, the APP problem, verification |
//! | [`baselines`] | MinHop, Up*/Down*, DOR, LASH, FatTree |
//! | [`orcs`] | congestion simulator (effective bisection bandwidth) |
//! | [`flitsim`] | buffer-level simulator with deadlock detection |
//! | [`subnet`] | OpenSM-like subnet manager (sweep, LIDs, LFTs) |
//! | [`appsim`] | Netgauge / all-to-all / NAS workload models |
//! | [`vet`] | static analyzer for routing artifacts (lints V001–V006) |
//! | [`telemetry`] | phase timers, counters, histograms, run manifests |
//! | [`serve`] | epoch-versioned snapshots, batched concurrent query engine |
//! | [`delta`] | incremental rerouting: O(change) epoch recompute |
//!
//! ## Measuring a run
//!
//! ```
//! use dfsssp::prelude::*;
//! use std::sync::Arc;
//!
//! let net = dfsssp::topo::torus(&[4, 4], 1);
//! let collector = Arc::new(Collector::new());
//!
//! // Attach the collector to the engine, wrap it so `route` itself is
//! // timed, and run.
//! let config = EngineConfig::new().recorder(collector.clone());
//! let engine = Recorded::new(DfSssp::new().with_config(config), collector.clone());
//! let routes = engine.route(&net).unwrap();
//! assert!(routes.num_layers() >= 2);
//!
//! // All five DFSSSP phases plus the whole-route span were measured.
//! let snapshot = collector.snapshot();
//! for phase in ["sssp", "cdg_build", "cycle_search", "layer_assign", "balance", "route_total"] {
//!     assert!(snapshot.phases.contains_key(phase), "missing {phase}");
//! }
//!
//! // Snapshot -> versioned artifact (what `--metrics out.json` writes).
//! let manifest = RunManifest::new("doc-test").engine("DFSSSP").metrics(snapshot);
//! let doc = dfsssp::telemetry::json::parse(&manifest.to_json()).unwrap();
//! assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some(dfsssp::telemetry::SCHEMA));
//! let phases = doc.get("metrics").and_then(|m| m.get("phases")).unwrap();
//! assert!(phases.get("route_total").is_some());
//! ```
//!
//! See `DESIGN.md` for the paper-to-module inventory and `EXPERIMENTS.md`
//! for the reproduced tables and figures.

pub use appsim;
pub use baselines;
pub use delta;
pub use dfsssp_core as core;
pub use fabric;
pub use flitsim;
pub use orcs;
pub use serve;
pub use subnet;
pub use telemetry;
pub use vet;

/// Topology generators, re-exported from [`fabric`].
pub use fabric::topo;

/// Deadlock-freedom and minimality verification, re-exported from
/// [`core`](dfsssp_core).
pub use dfsssp_core::verify;

/// The most common imports in one place.
pub mod prelude {
    pub use appsim::{alltoall_time, netgauge_ebb, Allocation, NasBenchmark};
    pub use baselines::{Dor, FatTree, Lash, MinHop, UpDown};
    pub use delta::{DeltaConfig, DeltaEngine, DeltaOutcome};
    pub use dfsssp_core::{
        Budget, ComputeOpts, CycleBreakHeuristic, DeadlockFree, DfSssp, EngineConfig,
        LayerAssignMode, Recorded, RouteError, RoutingEngine, Sssp,
    };
    pub use fabric::{Network, NetworkBuilder, Routes};
    pub use flitsim::{simulate, Outcome, SimConfig, Workload};
    pub use orcs::{effective_bisection_bandwidth, EbbOptions, Pattern};
    pub use serve::{PathAnswer, PathQuery, QueryEngine, RouteServer, SnapshotStore};
    pub use subnet::{FabricEvent, Rung, SmLoop, SubnetManager};
    pub use telemetry::{Collector, Recorder, RecorderHandle, RunManifest};
    pub use vet::check;
}
