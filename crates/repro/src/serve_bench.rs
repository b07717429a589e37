//! The route-serving benchmark behind the `serve_bench` binary and CI's
//! serve-smoke job: closed-loop query throughput scaling over client
//! threads, latency percentiles, and a concurrent chaos phase proving
//! epoch swaps never fail a query. Serialized as a versioned
//! `dfsssp-serve-bench/v1` report (`BENCH_pr5.json` in CI).
//!
//! The scaling ratio is hardware-dependent, so the report records the
//! host's core count. On a multi-core host N closed-loop clients
//! overlap their round trips and the read path scales out; on a single
//! core aggregate throughput of CPU-bound work cannot exceed 1× no
//! matter the thread count, and the ratio only reflects what the
//! engine's *batching* (one worker wakeup drains a whole queue) and
//! *coalescing* (duplicate in-flight pairs answered once) shave off
//! the per-query handoff cost.

use dfsssp_core::{DfSssp, RoutingEngine};
use fabric::rng::splitmix64;
use fabric::{Network, NodeId};
use serve::{PathQuery, QueryEngine, QueryOpts, RouteServer, ServedOutcome};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use subnet::FabricEvent;
use telemetry::json::{self, Value};
use telemetry::Collector;

/// Serve-bench report schema; bump only on breaking shape changes.
pub const SCHEMA: &str = "dfsssp-serve-bench/v1";

/// One closed-loop throughput measurement at a fixed client count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadPoint {
    /// Concurrent closed-loop client threads.
    pub threads: usize,
    /// Queries issued (and answered) across all clients.
    pub queries: u64,
    /// Answered queries per second.
    pub qps: u64,
    /// Median per-query latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: u64,
}

/// The concurrent chaos phase: epochs published under reader load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPhase {
    /// Epochs published while readers were querying.
    pub epochs: u64,
    /// Queries answered during the campaign.
    pub queries: u64,
    /// Queries that failed (must be 0: every target stayed served).
    pub failed: u64,
    /// Worst reader-visible swap pause, microseconds.
    pub max_swap_pause_us: u64,
}

/// The whole benchmark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeBenchReport {
    /// Always [`SCHEMA`] for reports this module writes.
    pub schema: String,
    /// Topology label the serving stack was brought up on.
    pub topology: String,
    /// Whether the reduced CI sweep ran.
    pub quick: bool,
    /// Seed for the query streams and the chaos schedule.
    pub seed: u64,
    /// Cores available on the measuring host (`available_parallelism`);
    /// the context `scaling_milli` must be read in.
    pub cores: usize,
    /// Throughput scaling, ascending thread counts (first is 1).
    pub points: Vec<ThreadPoint>,
    /// qps(max threads) / qps(1 thread), in thousandths.
    pub scaling_milli: u64,
    /// The concurrent chaos campaign.
    pub chaos: ChaosPhase,
}

/// All ordered terminal pairs of `net` (reference ids).
fn pairs(net: &Network) -> Vec<(NodeId, NodeId)> {
    let ts = net.terminals();
    let mut out = Vec::with_capacity(ts.len() * ts.len());
    for &a in ts {
        for &b in ts {
            if a != b {
                out.push((a, b));
            }
        }
    }
    out
}

/// One closed-loop point: `threads` clients each issue
/// `queries_per_thread` queries (seeded pair streams), per-query
/// latencies merged for the percentiles.
fn measure_point(
    engine: &QueryEngine,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    queries_per_thread: u64,
    seed: u64,
) -> ThreadPoint {
    let failed = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let failed = &failed;
            let latencies = &latencies;
            s.spawn(move || {
                let mut local = Vec::with_capacity(queries_per_thread as usize);
                let mut rng = seed ^ (t as u64).wrapping_mul(0x1234_5678_9ABC_DEF1);
                for _ in 0..queries_per_thread {
                    rng = splitmix64(rng);
                    let (src, dst) = pairs[(rng % pairs.len() as u64) as usize];
                    let q = Instant::now();
                    if engine.query(PathQuery::new(src, dst)).is_err() {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                    local.push(q.elapsed().as_micros() as u64);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let elapsed = started.elapsed();
    assert_eq!(
        failed.load(Ordering::Relaxed),
        0,
        "steady-state queries must not fail"
    );
    let mut lats = latencies.into_inner().unwrap();
    lats.sort_unstable();
    let pct = |p: f64| lats[(((lats.len() - 1) as f64) * p) as usize];
    let queries = threads as u64 * queries_per_thread;
    ThreadPoint {
        threads,
        queries,
        qps: (queries as f64 / elapsed.as_secs_f64()) as u64,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

/// Switch-switch cables whose loss keeps every terminal served (the
/// chaos phase only breaks redundant hardware, so zero failed queries
/// is a *requirement*, not luck). Shared with the loadgen bench.
pub(crate) fn safe_cables(net: &Network) -> Vec<fabric::ChannelId> {
    use telemetry::fx::FxHashSet;
    net.channels()
        .filter(|(id, ch)| {
            net.is_switch(ch.src) && net.is_switch(ch.dst) && ch.rev.is_none_or(|r| r.0 > id.0)
        })
        .filter(|&(id, ch)| {
            let mut dead: FxHashSet<fabric::ChannelId> = FxHashSet::default();
            dead.insert(id);
            if let Some(r) = ch.rev {
                dead.insert(r);
            }
            fabric::degrade::remove(net, &FxHashSet::default(), &dead).is_strongly_connected()
        })
        .map(|(id, _)| id)
        .collect()
}

/// The chaos phase: a writer publishes `epochs` epochs (down/up cycles
/// over redundant cables) while reader threads hammer queries. Every
/// query must succeed — targets stay served throughout.
fn chaos_phase(
    net: &Network,
    pairs: &[(NodeId, NodeId)],
    epochs: u64,
    readers: usize,
    seed: u64,
) -> ChaosPhase {
    let collector = Arc::new(Collector::new());
    let mut server = RouteServer::bring_up_recorded(
        DfSssp::new(),
        net.clone(),
        net.terminals()[0],
        collector.clone(),
    )
    .expect("bring-up on the example topology");
    let safe = safe_cables(net);
    assert!(!safe.is_empty(), "topology has no redundant cables");
    let store = server.store();
    let engine = QueryEngine::new(store, QueryOpts::default());
    let done = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let mut published = 0u64;
    std::thread::scope(|s| {
        for r in 0..readers {
            let (done, queries, failed) = (&done, &queries, &failed);
            let engine = &engine;
            s.spawn(move || {
                let mut rng = seed ^ 0xC0FFEE ^ (r as u64) << 17;
                while !done.load(Ordering::Relaxed) {
                    rng = splitmix64(rng);
                    let (src, dst) = pairs[(rng % pairs.len() as u64) as usize];
                    match engine.query(PathQuery::new(src, dst)) {
                        Ok(_) => queries.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
        // The writer: cycle redundant cables down and back up. Each
        // transition that reroutes publishes one epoch. Between epochs
        // the writer waits for reader progress — real fabric events are
        // not back-to-back with reroutes, and on a single core an
        // unpaced writer finishes its whole campaign before the reader
        // threads are even scheduled.
        let mut rng = seed;
        let mut events = 0u64;
        while published < epochs {
            rng = splitmix64(rng);
            let cable = safe[(rng % safe.len() as u64) as usize];
            for event in [FabricEvent::CableDown(cable), FabricEvent::CableUp(cable)] {
                if published >= epochs {
                    break;
                }
                events += 1;
                match server.handle(event) {
                    Ok(ServedOutcome { epoch: Some(_), .. }) => published += 1,
                    Ok(_) => {}
                    Err(e) => panic!("chaos event {events} failed: {e}"),
                }
                let target = queries.load(Ordering::Relaxed) + readers as u64 * 4;
                while queries.load(Ordering::Relaxed) + failed.load(Ordering::Relaxed) < target {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    drop(engine); // join workers before reading the counters
    let snapshot = collector.snapshot();
    ChaosPhase {
        epochs: published,
        queries: queries.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        max_swap_pause_us: snapshot
            .histograms
            .get(telemetry::hists::SWAP_PAUSE_US)
            .map(|h| h.max)
            .unwrap_or(0),
    }
}

/// Run the benchmark against `net`: the scaling sweep (1..=`max_threads`
/// doubling), then the chaos phase.
pub fn run(net: &Network, quick: bool, seed: u64, max_threads: usize) -> ServeBenchReport {
    let routes = DfSssp::new()
        .route_in(net, &dfsssp_core::ComputeCtx::seq())
        .expect("route the bench topology");
    let store = serve::SnapshotStore::open(net.clone(), routes, None).expect("vet-clean bring-up");
    let engine = QueryEngine::new(store, QueryOpts::default());
    let pairs = pairs(net);
    let queries_per_thread: u64 = if quick { 2_000 } else { 10_000 };

    let mut points = Vec::new();
    let mut threads = 1;
    while threads <= max_threads.max(1) {
        points.push(measure_point(
            &engine,
            &pairs,
            threads,
            queries_per_thread,
            seed,
        ));
        threads *= 2;
    }
    let scaling_milli = match (points.first(), points.last()) {
        (Some(one), Some(top)) if one.qps > 0 => top.qps * 1_000 / one.qps,
        _ => 0,
    };
    drop(engine);

    let (epochs, readers) = if quick { (6, 2) } else { (24, 4) };
    let chaos = chaos_phase(net, &pairs, epochs, readers, seed);

    ServeBenchReport {
        schema: SCHEMA.to_string(),
        topology: net.label().to_string(),
        quick,
        seed,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        points,
        scaling_milli,
        chaos,
    }
}

impl ServeBenchReport {
    /// Serialize (pretty, trailing newline — artifact-friendly).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"schema\": ");
        json::write_str(&mut s, &self.schema);
        s.push_str(",\n  \"topology\": ");
        json::write_str(&mut s, &self.topology);
        let _ = write!(
            s,
            ",\n  \"quick\": {},\n  \"seed\": {},\n  \"cores\": {}",
            self.quick, self.seed, self.cores
        );
        s.push_str(",\n  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let _ = write!(
                s,
                "{{\"threads\": {}, \"queries\": {}, \"qps\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
                p.threads, p.queries, p.qps, p.p50_us, p.p99_us
            );
        }
        let _ = write!(
            s,
            "\n  ],\n  \"scaling_milli\": {},\n  \"chaos\": {{\n    \
             \"epochs\": {},\n    \"queries\": {},\n    \"failed\": {},\n    \
             \"max_swap_pause_us\": {}\n  }}\n}}\n",
            self.scaling_milli,
            self.chaos.epochs,
            self.chaos.queries,
            self.chaos.failed,
            self.chaos.max_swap_pause_us
        );
        s
    }

    /// Parse a report back, verifying the schema version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("serve-bench: missing schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "schema mismatch: file says {schema:?}, this build expects {SCHEMA:?}"
            ));
        }
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("serve-bench: missing {name}"))
        };
        let num = |obj: &Value, name: &str, at: &str| {
            obj.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("serve-bench: bad {at}{name}"))
        };
        let mut points = Vec::new();
        for (i, p) in v
            .get("points")
            .and_then(Value::as_arr)
            .ok_or("serve-bench: missing points")?
            .iter()
            .enumerate()
        {
            let at = format!("points[{i}].");
            points.push(ThreadPoint {
                threads: num(p, "threads", &at)? as usize,
                queries: num(p, "queries", &at)?,
                qps: num(p, "qps", &at)?,
                p50_us: num(p, "p50_us", &at)?,
                p99_us: num(p, "p99_us", &at)?,
            });
        }
        let chaos = v.get("chaos").ok_or("serve-bench: missing chaos")?;
        Ok(ServeBenchReport {
            schema: schema.to_string(),
            topology: str_field("topology")?,
            quick: v
                .get("quick")
                .and_then(Value::as_bool)
                .ok_or("serve-bench: missing quick")?,
            seed: num(&v, "seed", "")?,
            cores: num(&v, "cores", "")? as usize,
            points,
            scaling_milli: num(&v, "scaling_milli", "")?,
            chaos: ChaosPhase {
                epochs: num(chaos, "epochs", "chaos.")?,
                queries: num(chaos, "queries", "chaos.")?,
                failed: num(chaos, "failed", "chaos.")?,
                max_swap_pause_us: num(chaos, "max_swap_pause_us", "chaos.")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    #[test]
    fn tiny_run_round_trips() {
        let net = topo::kary_ntree(4, 2);
        let mut report = run(&net, true, 7, 2);
        // Blunt the timing fields so the round trip is exact.
        assert_eq!(report.chaos.failed, 0);
        assert!(report.chaos.epochs >= 6);
        assert!(report.points.iter().all(|p| p.qps > 0));
        report.scaling_milli = 1_000;
        let back = ServeBenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let err =
            ServeBenchReport::from_json(r#"{"schema": "dfsssp-serve-bench/v0"}"#).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn safe_cables_keep_the_fabric_connected() {
        let net = topo::kary_ntree(4, 2);
        let safe = safe_cables(&net);
        assert!(!safe.is_empty());
    }
}
