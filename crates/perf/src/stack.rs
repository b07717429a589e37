//! The serving stack under test, its one configuration, and the seeded
//! inputs every workload feeds it.
//!
//! The seed drives the random fabrics, the cable choices and the query
//! pairs; the stack only ever sees the generated inputs.

use crate::catalog::Fabric;
use appsim::traffic::{self, Arrivals, Mix, Shape, TraceQuery, TraceSpec};
use delta::{DeltaConfig, DeltaEngine};
use dfsssp_core::{ComputeCtx, ComputeOpts, DfSssp, EngineConfig, RoutingEngine};
use fabric::topo::{self, RandomTopoSpec};
use fabric::{degrade, format, ChannelId, Network, NodeId};
use serve::{PathAnswer, QueryOpts, RouteServer, Snapshot, SnapshotStore};
use std::sync::Arc;
use subnet::FabricEvent;
use telemetry::RecorderHandle;

/// Hardware virtual lanes the subnet manager programs (its default).
pub const HW_VLS: usize = 8;

/// Full-size fabrics for the benchmark, tiny ones for `cargo test`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// A few dozen terminals: every code path, seconds in a debug build.
    Tiny,
}

/// SplitMix64: the benchmark's own seeded stream for fabric seeds and
/// cable choices (query pairs come from `appsim::traffic`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th reference fabric of a run. Only the irregular fabric
/// depends on the seed and the index; the regular ones are fixed.
pub fn build_fabric(kind: Fabric, size: Size, seed: u64, index: u64) -> Network {
    match (kind, size) {
        (Fabric::Irregular, _) => {
            let spec = match size {
                Size::Full => RandomTopoSpec {
                    switches: 64,
                    radix: 24,
                    terminals_per_switch: 8,
                    interswitch_links: 160,
                },
                Size::Tiny => RandomTopoSpec {
                    switches: 8,
                    radix: 12,
                    terminals_per_switch: 3,
                    interswitch_links: 14,
                },
            };
            let mut state = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
            topo::random_topology(&spec, splitmix64(&mut state))
        }
        (Fabric::FatTree, Size::Full) => topo::kary_ntree(16, 2),
        (Fabric::FatTree, Size::Tiny) => topo::kary_ntree(4, 2),
        (Fabric::Torus, Size::Full) => topo::torus(&[8, 8], 2),
        (Fabric::Torus, Size::Tiny) => topo::torus(&[4, 4], 1),
    }
}

/// Uniform `(src, dst)` terminal pairs with `src != dst`, as reference
/// ids, reusing the Poisson/uniform generator of `appsim::traffic`.
pub fn query_pairs(net: &Network, seed: u64, size: Size) -> Vec<(NodeId, NodeId)> {
    let duration_ms = match size {
        Size::Full => 64,
        Size::Tiny => 4,
    };
    poisson_trace(net, seed, 1_000_000.0, duration_ms)
        .iter()
        .map(|q| (q.src, q.dst))
        .collect()
}

/// A Poisson arrival trace over uniform pairs at `rate_qps`.
pub fn poisson_trace(net: &Network, seed: u64, rate_qps: f64, duration_ms: u64) -> Vec<TraceQuery> {
    traffic::generate(
        net,
        &TraceSpec {
            rate_qps,
            duration_ms,
            seed,
            bulk_permille: 0,
            mix: Mix::Uniform,
            arrivals: Arrivals::Poisson,
            shape: Shape::Flat,
        },
    )
}

/// The seeded single-cable event stream: `CableDown(c)` then
/// `CableUp(c)` over switch-to-switch cables that are not bridges, so the
/// fabric is pristine after every second event and no event strands a
/// terminal.
pub struct EventStream {
    cables: Vec<ChannelId>,
    state: u64,
    down: Option<ChannelId>,
}

impl EventStream {
    /// The stream for `reference`, a function of `seed` alone.
    pub fn new(reference: &Network, seed: u64) -> Self {
        let bridges = degrade::cable_bridges(reference);
        let cables = reference
            .channels()
            .filter(|(id, ch)| {
                reference.is_switch(ch.src)
                    && reference.is_switch(ch.dst)
                    && ch.rev.is_some_and(|r| r.0 > id.0)
                    && !bridges.contains(id)
            })
            .map(|(id, _)| id)
            .collect();
        EventStream {
            cables,
            state: seed ^ 0x00C0_FFEE_00CA_B1E5,
            down: None,
        }
    }

    /// Whether the fabric has a cable the stream may fail.
    pub fn is_empty(&self) -> bool {
        self.cables.is_empty()
    }

    /// The next event, and the cable that is down once it is applied.
    pub fn next_event(&mut self) -> (FabricEvent, Option<ChannelId>) {
        match self.down.take() {
            Some(c) => (FabricEvent::CableUp(c), None),
            None => {
                let pick = splitmix64(&mut self.state) % self.cables.len() as u64;
                let c = self.cables[pick as usize];
                self.down = Some(c);
                (FabricEvent::CableDown(c), Some(c))
            }
        }
    }
}

/// The engine configuration every workload serves with: sequential
/// compute under the snapshot schedule (`chunk` = terminal count), the
/// regime in which `DeltaEngine` patches instead of passing through.
pub fn engine_config(terminals: usize, recorder: Option<RecorderHandle>) -> EngineConfig {
    let cfg = EngineConfig::new().compute(ComputeOpts::new().threads(1).chunk(terminals));
    match recorder {
        Some(rec) => cfg.recorder(rec),
        None => cfg,
    }
}

/// The compute context `engine_config` resolves to.
pub fn compute_ctx(terminals: usize) -> ComputeCtx {
    engine_config(terminals, None).compute.resolve()
}

/// A fresh serving engine: `DeltaEngine` over `DfSssp`, default
/// `DeltaConfig` (`max_dirty_fraction` 0.5).
pub fn serving_engine(terminals: usize, recorder: Option<RecorderHandle>) -> DeltaEngine {
    DeltaEngine::new(DfSssp::new().with_config(engine_config(terminals, recorder)))
}

/// The cold reference engine: plain `DfSssp` under the same schedule.
pub fn cold_engine(terminals: usize, recorder: Option<RecorderHandle>) -> DfSssp {
    DfSssp::new().with_config(engine_config(terminals, recorder))
}

/// Query-engine options: defaults apart from `workers` (one worker plus
/// one client is the two threads the reference host has).
pub fn query_opts(recorder: Option<RecorderHandle>) -> QueryOpts {
    QueryOpts {
        workers: 1,
        recorder: recorder.unwrap_or_else(telemetry::noop),
        ..QueryOpts::default()
    }
}

/// The serving configuration as `(key, value)` pairs, for the report.
pub fn describe_config() -> Vec<(&'static str, String)> {
    let q = query_opts(None);
    vec![
        ("engine", "DeltaEngine<DfSssp>".to_string()),
        ("compute_threads", "1".to_string()),
        (
            "compute_chunk",
            "terminal count (snapshot schedule)".to_string(),
        ),
        (
            "max_dirty_fraction",
            DeltaConfig::default().max_dirty_fraction.to_string(),
        ),
        ("plan_provider", "DeltaEngine::planner".to_string()),
        ("hardware_vls", HW_VLS.to_string()),
        ("query_workers", q.workers.to_string()),
        ("query_batch", q.batch.to_string()),
    ]
}

/// A brought-up route server and the reader side of its store.
pub struct Stack {
    /// The writer side.
    pub server: RouteServer<DeltaEngine>,
    /// The reader side.
    pub store: Arc<SnapshotStore>,
}

/// Topology text in, serving stack out: parse, bring the server up on
/// the serving configuration, install the delta planner. A `recorder`
/// is attached to the engine, the SM loop and the store alike.
pub fn boot(text: &str, recorder: Option<RecorderHandle>) -> Result<Stack, String> {
    let net = format::text::parse_network(text).map_err(|e| format!("parse: {e}"))?;
    let first = *net.terminals().first().ok_or("fabric has no terminals")?;
    let engine = serving_engine(net.num_terminals(), recorder.clone());
    let planner = engine.planner();
    let mut server = match recorder {
        Some(rec) => RouteServer::bring_up_recorded(engine, net, first, rec),
        None => RouteServer::bring_up(engine, net, first),
    }
    .map_err(|e| format!("bring-up: {e}"))?;
    server.sm().set_plan_provider(Some(Box::new(planner)));
    let store = server.store();
    Ok(Stack { server, store })
}

/// Check one served answer against the snapshot it must have come from:
/// the epoch is the expected one and the hops chain from `src` to `dst`
/// over channels of the served view.
pub fn check_answer(
    snap: &Snapshot,
    (src, dst): (NodeId, NodeId),
    answer: &PathAnswer,
    epoch: u64,
) -> Result<(), String> {
    if answer.epoch != epoch || snap.epoch != epoch {
        return Err(format!(
            "answer from epoch {} (snapshot {}), expected {epoch}",
            answer.epoch, snap.epoch
        ));
    }
    let (Some(mut at), Some(end)) = (snap.resolve(src), snap.resolve(dst)) else {
        return Err(format!("pair {src:?}->{dst:?} does not resolve"));
    };
    for &hop in &answer.hops {
        if hop.idx() >= snap.net.num_channels() {
            return Err(format!("hop {hop:?} is not a channel of the served view"));
        }
        let ch = snap.net.channel(hop);
        if ch.src != at {
            return Err(format!("hop {hop:?} does not leave {at:?}"));
        }
        at = ch.dst;
    }
    if at != end {
        return Err(format!("path ends at {at:?}, not {end:?}"));
    }
    Ok(())
}

/// Re-derive an answer from the snapshot's `Routes`, bypassing
/// `Snapshot::answer`.
pub fn rederive(
    snap: &Snapshot,
    (src, dst): (NodeId, NodeId),
    answer: &PathAnswer,
) -> Result<(), String> {
    let (Some(s), Some(d)) = (snap.resolve(src), snap.resolve(dst)) else {
        return Err(format!("pair {src:?}->{dst:?} does not resolve"));
    };
    let hops = snap
        .routes
        .path_channels(&snap.net, s, d)
        .map_err(|e| format!("re-derivation failed: {e}"))?;
    let layer = match (snap.net.terminal_index(s), snap.net.terminal_index(d)) {
        (Some(st), Some(dt)) => snap.routes.layer(st, dt),
        _ => return Err("resolved ids are not terminals".to_string()),
    };
    if hops != answer.hops || layer != answer.vl {
        return Err(format!(
            "answer for {src:?}->{dst:?} differs from the routes"
        ));
    }
    Ok(())
}

/// The served routes must equal a cold `DfSssp::route_in` of the same
/// view, bit for bit.
pub fn check_against_cold(snap: &Snapshot) -> Result<(), String> {
    let t = snap.net.num_terminals();
    let cold = cold_engine(t, None)
        .route_in(&snap.net, &compute_ctx(t))
        .map_err(|e| format!("cold route failed: {e}"))?;
    if cold != snap.routes {
        return Err(format!(
            "epoch {} differs from a cold recompute",
            snap.epoch
        ));
    }
    Ok(())
}
