//! The open-loop overload benchmark behind `repro loadgen` and CI's
//! overload-smoke job: replay a timestamped [`appsim::traffic`]
//! trace at a multiple of the serving stack's measured capacity, judge
//! per-class SLOs from recorded latency histograms, and verify every
//! response was either an epoch-consistent answer or a typed shed.
//! Serialized as a versioned `dfsssp-loadgen/v1` report
//! (`BENCH_pr7.json` in CI).
//!
//! **qps here is offered, not achieved**: the dispatchers submit at the
//! trace's arrival times whether or not the engine kept up, so the
//! report separates `offered_qps` (the trace) from `admitted_qps` (what
//! got answered). The gap between them — the typed rejections, the
//! deadline expiries, the shed floor — *is* the measurement.
//!
//! A chaos epoch is published mid-trace (a redundant cable down, later
//! back up), so the report also witnesses the tentpole interaction:
//! reroute storms during overload degrade answers, never availability.

use appsim::traffic::{self, Arrivals, Mix, Shape, TraceSpec, TrafficClass};
use dfsssp_core::{Budget, DfSssp, RouteError};
use fabric::{Network, NodeId};
use serve::{
    Admission, ClassPolicy, PathAnswer, PathQuery, QueryClass, QueryEngine, QueryOpts, RouteServer,
    ServeError, ShedConfig, SloPolicy, SloVerdict, Snapshot, Ticket,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use subnet::FabricEvent;
use telemetry::json::{self, Value};
use telemetry::Collector;

/// Loadgen report schema; bump only on breaking shape changes.
pub const SCHEMA: &str = "dfsssp-loadgen/v1";

/// Interactive p99 objective the report gates on (submit→redeem).
pub const INTERACTIVE_P99: Duration = Duration::from_millis(250);
/// Bulk p99 objective (informational — bulk is the class being shed).
pub const BULK_P99: Duration = Duration::from_secs(2);

/// Per-class outcome of one loadgen run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassReport {
    /// Class name (`interactive` / `bulk`).
    pub class: String,
    /// Queries the trace offered for this class.
    pub offered: u64,
    /// Queries answered with a path.
    pub answered: u64,
    /// Typed `Overloaded` rejections (shed gate or queue cap).
    pub rejected: u64,
    /// Deadline expiries (`BudgetExceeded`), in queue or at redeem.
    pub expired: u64,
    /// Median submit-to-redeem latency, microseconds (0 if unanswered).
    pub p50_us: u64,
    /// 99th-percentile submit-to-redeem latency, microseconds.
    pub p99_us: u64,
    /// The SLO target judged, microseconds.
    pub slo_target_us: u64,
    /// Whether the class met its objective ([`SloVerdict::met`]).
    pub slo_met: bool,
}

/// The whole benchmark.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadgenReport {
    /// Always [`SCHEMA`] for reports this module writes.
    pub schema: String,
    /// Topology label the serving stack was brought up on.
    pub topology: String,
    /// Traffic mix name (`uniform` / `hotspot` / `flash` / `nas`).
    pub mix: String,
    /// Whether the reduced CI trace ran.
    pub quick: bool,
    /// Seed for the trace and the chaos schedule.
    pub seed: u64,
    /// Cores on the measuring host (`available_parallelism`).
    pub cores: usize,
    /// Closed-loop capacity measured before the trace, queries/s.
    pub capacity_qps: u64,
    /// Offered rate of the trace, queries/s.
    pub offered_qps: u64,
    /// Answered queries per second of trace time.
    pub admitted_qps: u64,
    /// Trace length, milliseconds.
    pub duration_ms: u64,
    /// Per-class outcomes, interactive first.
    pub classes: Vec<ClassReport>,
    /// Deepest admitted rate the shed controller reached, permille
    /// (the floor proof: must stay ≥ 1).
    pub min_admitted_permille: u32,
    /// Epochs published by the mid-trace chaos writer.
    pub chaos_epochs: u64,
    /// Responses that were neither a verified epoch-consistent answer
    /// nor a typed shed. The whole point of the bench: must be 0.
    pub malformed: u64,
}

impl LoadgenReport {
    /// The robustness acceptance gate (what CI enforces). `Err` lists
    /// every violated clause.
    pub fn gate(&self) -> Result<(), String> {
        let mut fails = Vec::new();
        if self.malformed > 0 {
            fails.push(format!("{} malformed/stale responses", self.malformed));
        }
        if self.min_admitted_permille == 0 {
            fails.push("shed rate reached 100% (floor broken)".into());
        }
        if self.chaos_epochs == 0 {
            fails.push("no chaos epoch published mid-trace".into());
        }
        let interactive = self.classes.iter().find(|c| c.class == "interactive");
        match interactive {
            Some(c) if !c.slo_met => fails.push(format!(
                "interactive SLO violated: p99 {}us > {}us",
                c.p99_us, c.slo_target_us
            )),
            Some(c) if c.answered == 0 => fails.push("no interactive query was answered".into()),
            None => fails.push("report has no interactive class".into()),
            _ => {}
        }
        if let Some(bulk) = self.classes.iter().find(|c| c.class == "bulk") {
            if bulk.answered == 0 {
                fails.push("overload starved bulk entirely".into());
            }
            if bulk.rejected + bulk.expired == 0 {
                fails.push("overload shed no bulk traffic (not overdriven?)".into());
            }
        } else {
            fails.push("report has no bulk class".into());
        }
        if fails.is_empty() {
            Ok(())
        } else {
            Err(fails.join("; "))
        }
    }
}

fn mix_for(name: &str, net: &Network) -> Mix {
    match name {
        "uniform" => Mix::Uniform,
        "hotspot" => Mix::Hotspot {
            hot_permille: 700,
            targets: 2.max(net.num_terminals() / 16),
        },
        "nas" => Mix::Nas {
            bench: appsim::NasBenchmark::FT,
            ranks: net.num_terminals(),
        },
        // Default: a flash crowd on a uniform mix — the overload shape
        // the shed controller exists for.
        _ => Mix::Uniform,
    }
}

fn shape_for(name: &str, duration_ms: u64) -> Shape {
    match name {
        "flash" => Shape::FlashCrowd {
            at_ms: duration_ms / 4,
            for_ms: duration_ms / 4,
            boost: 3,
        },
        "diurnal" => Shape::Diurnal {
            period_ms: duration_ms / 2,
        },
        _ => Shape::Flat,
    }
}

/// Measure closed-loop capacity: one client, no deadline, interactive.
/// It redeems tickets, the path the trace then drives: a synchronous
/// `query` answers in the caller's thread and would size the trace for
/// a capacity the shard workers do not have. One burst's rate swings by
/// an order of magnitude with where the scheduler puts the client and
/// the workers, so the capacity is the median of independent rounds:
/// each on fresh workers from `engine`, a pause after the last.
fn calibrate(engine: impl Fn() -> QueryEngine, pairs: &[(NodeId, NodeId)]) -> u64 {
    const ROUNDS: usize = 9;
    const PER_ROUND: usize = 200;
    let mut rates: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            std::thread::sleep(Duration::from_millis(2));
            let engine = engine();
            let started = Instant::now();
            for i in round * PER_ROUND..(round + 1) * PER_ROUND {
                let (src, dst) = pairs[i % pairs.len()];
                engine
                    .submit(PathQuery::new(src, dst))
                    .and_then(Ticket::wait)
                    .expect("calibration query on a healthy fabric");
            }
            PER_ROUND as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_unstable_by(f64::total_cmp);
    rates[ROUNDS / 2] as u64
}

struct InFlight {
    ticket: Ticket,
    class: TrafficClass,
    src: NodeId,
    dst: NodeId,
}

#[derive(Default)]
struct ClassTally {
    offered: AtomicU64,
    answered: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
}

fn tally(t: &[ClassTally; 2], class: TrafficClass) -> &ClassTally {
    match class {
        TrafficClass::Interactive => &t[0],
        TrafficClass::Bulk => &t[1],
    }
}

/// Run the benchmark with explicit trace knobs (the public [`run`]
/// picks CI-appropriate ones). `rate_cap` bounds the offered rate so
/// tiny fast topologies don't explode the trace size.
pub(crate) fn run_inner(
    net: &Network,
    mix_name: &str,
    quick: bool,
    seed: u64,
    duration_ms: u64,
    rate_cap: f64,
) -> LoadgenReport {
    let collector = Arc::new(Collector::new());
    let mut server = RouteServer::bring_up_recorded(
        DfSssp::new(),
        net.clone(),
        net.terminals()[0],
        collector.clone(),
    )
    .expect("bring-up on the bench topology");
    // The chaos writer only breaks redundant hardware, so zero malformed
    // responses is a *requirement*, not luck.
    let safe = fabric::degrade::redundant_cables(net);
    assert!(!safe.is_empty(), "bench topology needs redundant cables");
    let opts = || QueryOpts {
        workers: 2,
        batch: 32,
        admission: Admission {
            interactive: ClassPolicy {
                weight: 8,
                max_queued: 4096,
                ..ClassPolicy::default()
            },
            bulk: ClassPolicy {
                budget: Budget::new().deadline(Duration::from_millis(60)),
                weight: 1,
                max_queued: 512,
                sheddable: true,
            },
        },
        shed: ShedConfig::default(),
        recorder: collector.clone(),
    };
    let store = server.store();

    // Closed-loop capacity, then the open-loop trace at 4x it.
    let ts = net.terminals();
    let cal_pairs: Vec<(NodeId, NodeId)> = (0..ts.len())
        .map(|i| (ts[i], ts[(i + 1) % ts.len()]))
        .filter(|(a, b)| a != b)
        .collect();
    let calibration = || QueryEngine::new(store.clone(), opts());
    let capacity_qps = calibrate(calibration, &cal_pairs).max(1);
    let engine = server.query_engine(opts());
    let shed = engine.shed_controller();
    let spec = TraceSpec {
        rate_qps: (capacity_qps as f64 * 4.0).min(rate_cap),
        duration_ms,
        seed,
        bulk_permille: 850,
        mix: mix_for(mix_name, net),
        arrivals: Arrivals::Poisson,
        shape: shape_for(mix_name, duration_ms),
    };
    let trace = traffic::generate(net, &spec);
    assert!(!trace.is_empty(), "trace generated no queries");

    let tallies: [ClassTally; 2] = Default::default();
    let malformed = AtomicU64::new(0);
    let samples: Mutex<Vec<(NodeId, NodeId, PathAnswer)>> = Mutex::new(Vec::new());
    let history: Mutex<Vec<serve::sync::Arc<Snapshot>>> = Mutex::new(vec![store.read()]);
    let chaos_epochs = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let rx = Mutex::new(rx);

    std::thread::scope(|s| {
        // Two waiters drain redeemed tickets; classification of every
        // outcome is the bench's whole point.
        for _ in 0..2 {
            let (rx, tallies, malformed, samples) = (&rx, &tallies, &malformed, &samples);
            s.spawn(move || {
                let mut n = 0u64;
                loop {
                    let item = match rx.lock().unwrap().recv() {
                        Ok(i) => i,
                        Err(_) => return, // dispatchers done, queue drained
                    };
                    n += 1;
                    match item.ticket.wait() {
                        Ok(a) => {
                            tally(tallies, item.class)
                                .answered
                                .fetch_add(1, Ordering::Relaxed);
                            if n.is_multiple_of(32) {
                                samples.lock().unwrap().push((item.src, item.dst, a));
                            }
                        }
                        Err(ServeError::Overloaded { retry_after }) => {
                            if retry_after.is_zero() {
                                malformed.fetch_add(1, Ordering::Relaxed);
                            }
                            tally(tallies, item.class)
                                .rejected
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Budget(RouteError::BudgetExceeded { .. })) => {
                            tally(tallies, item.class)
                                .expired
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            malformed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Two dispatchers replay interleaved halves of the trace at its
        // timestamps. When the wall clock is behind an arrival they
        // submit immediately — open-loop means the backlog is offered,
        // never dropped at the source.
        let start = Instant::now();
        for d in 0..2usize {
            let (trace, tx, tallies, malformed) = (&trace, tx.clone(), &tallies, &malformed);
            let engine = &engine;
            s.spawn(move || {
                for q in trace.iter().skip(d).step_by(2) {
                    let due = Duration::from_micros(q.at_us);
                    loop {
                        let elapsed = start.elapsed();
                        if elapsed >= due {
                            break;
                        }
                        let lag = due - elapsed;
                        if lag > Duration::from_micros(200) {
                            std::thread::sleep(lag - Duration::from_micros(100));
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    let class = match q.class {
                        TrafficClass::Interactive => QueryClass::Interactive,
                        TrafficClass::Bulk => QueryClass::Bulk,
                    };
                    tally(tallies, q.class)
                        .offered
                        .fetch_add(1, Ordering::Relaxed);
                    let query = PathQuery {
                        src: q.src,
                        dst: q.dst,
                        class,
                    };
                    match engine.submit(query) {
                        Ok(ticket) => {
                            let _ = tx.send(InFlight {
                                ticket,
                                class: q.class,
                                src: q.src,
                                dst: q.dst,
                            });
                        }
                        Err(ServeError::Overloaded { retry_after }) => {
                            if retry_after.is_zero() {
                                malformed.fetch_add(1, Ordering::Relaxed);
                            }
                            tally(tallies, q.class)
                                .rejected
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Budget(RouteError::BudgetExceeded { .. })) => {
                            tally(tallies, q.class)
                                .expired
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            malformed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        drop(tx); // waiters exit once both dispatchers hang up
                  // The chaos writer: one redundant cable down mid-trace, back up
                  // later — epochs must publish *during* the overload.
        let cable = safe[(seed % safe.len() as u64) as usize];
        for (at, event) in [
            (duration_ms * 45 / 100, FabricEvent::CableDown(cable)),
            (duration_ms * 70 / 100, FabricEvent::CableUp(cable)),
        ] {
            let due = Duration::from_millis(at);
            let lag = due.saturating_sub(start.elapsed());
            if !lag.is_zero() {
                std::thread::sleep(lag);
            }
            let served = server.handle(event).expect("chaos event");
            if served.epoch.is_some() {
                chaos_epochs.fetch_add(1, Ordering::Relaxed);
                history.lock().unwrap().push(store.read());
            }
        }
    });

    // Epoch-consistency verification: every sampled answer re-derives
    // exactly from the snapshot of the epoch it claims.
    let history = history.into_inner().unwrap();
    for (src, dst, a) in samples.into_inner().unwrap() {
        let ok = history
            .iter()
            .find(|s| s.epoch == a.epoch)
            .and_then(|snap| snap.answer(src, dst).ok())
            .is_some_and(|expected| expected == a);
        if !ok {
            malformed.fetch_add(1, Ordering::Relaxed);
        }
    }

    let metrics = collector.snapshot();
    let class_report = |class: QueryClass, target: Duration, t: &ClassTally| {
        let verdict = SloPolicy { class, p99: target }.judge(&metrics);
        let hist = metrics.histograms.get(match class {
            QueryClass::Interactive => telemetry::hists::WAIT_US_INTERACTIVE,
            QueryClass::Bulk => telemetry::hists::WAIT_US_BULK,
        });
        let q = |p: f64| hist.and_then(|h| h.quantile(p)).unwrap_or(0);
        ClassReport {
            class: class.name().to_string(),
            offered: t.offered.load(Ordering::Relaxed),
            answered: t.answered.load(Ordering::Relaxed),
            rejected: t.rejected.load(Ordering::Relaxed),
            expired: t.expired.load(Ordering::Relaxed),
            p50_us: q(0.50),
            p99_us: q(0.99),
            slo_target_us: target.as_micros() as u64,
            slo_met: matches!(verdict, SloVerdict::Met { .. }),
        }
    };
    let classes = vec![
        class_report(QueryClass::Interactive, INTERACTIVE_P99, &tallies[0]),
        class_report(QueryClass::Bulk, BULK_P99, &tallies[1]),
    ];
    let answered_total: u64 = classes.iter().map(|c| c.answered).sum();
    LoadgenReport {
        schema: SCHEMA.to_string(),
        topology: net.label().to_string(),
        mix: mix_name.to_string(),
        quick,
        seed,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        capacity_qps,
        offered_qps: (trace.len() as u64 * 1000) / duration_ms.max(1),
        admitted_qps: answered_total * 1000 / duration_ms.max(1),
        duration_ms,
        classes,
        min_admitted_permille: shed.min_admitted_permille(),
        chaos_epochs: chaos_epochs.load(Ordering::Relaxed),
        malformed: malformed.load(Ordering::Relaxed),
    }
}

/// Run the benchmark against `net` at 4x measured capacity.
pub fn run(net: &Network, mix_name: &str, quick: bool, seed: u64) -> LoadgenReport {
    let duration_ms = if quick { 1_200 } else { 4_000 };
    run_inner(net, mix_name, quick, seed, duration_ms, 400_000.0)
}

impl LoadgenReport {
    /// Serialize (pretty, trailing newline — artifact-friendly).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"schema\": ");
        json::write_str(&mut s, &self.schema);
        s.push_str(",\n  \"topology\": ");
        json::write_str(&mut s, &self.topology);
        s.push_str(",\n  \"mix\": ");
        json::write_str(&mut s, &self.mix);
        let _ = write!(
            s,
            ",\n  \"quick\": {},\n  \"seed\": {},\n  \"cores\": {},\n  \
             \"capacity_qps\": {},\n  \"offered_qps\": {},\n  \"admitted_qps\": {},\n  \
             \"duration_ms\": {}",
            self.quick,
            self.seed,
            self.cores,
            self.capacity_qps,
            self.offered_qps,
            self.admitted_qps,
            self.duration_ms
        );
        s.push_str(",\n  \"classes\": [");
        for (i, c) in self.classes.iter().enumerate() {
            s.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            s.push_str("\"class\": ");
            json::write_str(&mut s, &c.class);
            let _ = write!(
                s,
                ", \"offered\": {}, \"answered\": {}, \"rejected\": {}, \"expired\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"slo_target_us\": {}, \"slo_met\": {}}}",
                c.offered,
                c.answered,
                c.rejected,
                c.expired,
                c.p50_us,
                c.p99_us,
                c.slo_target_us,
                c.slo_met
            );
        }
        let _ = write!(
            s,
            "\n  ],\n  \"min_admitted_permille\": {},\n  \"chaos_epochs\": {},\n  \
             \"malformed\": {}\n}}\n",
            self.min_admitted_permille, self.chaos_epochs, self.malformed
        );
        s
    }

    /// Parse a report back, verifying the schema version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("loadgen: missing schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "schema mismatch: file says {schema:?}, this build expects {SCHEMA:?}"
            ));
        }
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("loadgen: missing {name}"))
        };
        let num = |obj: &Value, name: &str, at: &str| {
            obj.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("loadgen: bad {at}{name}"))
        };
        let mut classes = Vec::new();
        for (i, c) in v
            .get("classes")
            .and_then(Value::as_arr)
            .ok_or("loadgen: missing classes")?
            .iter()
            .enumerate()
        {
            let at = format!("classes[{i}].");
            classes.push(ClassReport {
                class: c
                    .get("class")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("loadgen: missing {at}class"))?
                    .to_string(),
                offered: num(c, "offered", &at)?,
                answered: num(c, "answered", &at)?,
                rejected: num(c, "rejected", &at)?,
                expired: num(c, "expired", &at)?,
                p50_us: num(c, "p50_us", &at)?,
                p99_us: num(c, "p99_us", &at)?,
                slo_target_us: num(c, "slo_target_us", &at)?,
                slo_met: c
                    .get("slo_met")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| format!("loadgen: missing {at}slo_met"))?,
            });
        }
        Ok(LoadgenReport {
            schema: schema.to_string(),
            topology: str_field("topology")?,
            mix: str_field("mix")?,
            quick: v
                .get("quick")
                .and_then(Value::as_bool)
                .ok_or("loadgen: missing quick")?,
            seed: num(&v, "seed", "")?,
            cores: num(&v, "cores", "")? as usize,
            capacity_qps: num(&v, "capacity_qps", "")?,
            offered_qps: num(&v, "offered_qps", "")?,
            admitted_qps: num(&v, "admitted_qps", "")?,
            duration_ms: num(&v, "duration_ms", "")?,
            classes,
            min_admitted_permille: num(&v, "min_admitted_permille", "")? as u32,
            chaos_epochs: num(&v, "chaos_epochs", "")?,
            malformed: num(&v, "malformed", "")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    #[test]
    fn tiny_run_round_trips_and_is_well_formed() {
        // A short trace on a small tree: coalescing absorbs most of the
        // "overload" here (few distinct pairs), so this does NOT gate —
        // it checks the machinery: classification, verification,
        // serialization. The gate runs in CI on a 64-terminal fabric.
        let net = topo::kary_ntree(4, 2);
        let report = run_inner(&net, "uniform", true, 7, 250, 30_000.0);
        assert_eq!(report.malformed, 0, "no malformed responses ever");
        assert!(report.chaos_epochs >= 1);
        assert!(report.min_admitted_permille > 0);
        let offered: u64 = report.classes.iter().map(|c| c.offered).sum();
        let handled: u64 = report
            .classes
            .iter()
            .map(|c| c.answered + c.rejected + c.expired)
            .sum();
        assert_eq!(offered, handled, "every offered query classified");
        let back = LoadgenReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let err = LoadgenReport::from_json(r#"{"schema": "dfsssp-loadgen/v0"}"#).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn the_gate_names_every_violation() {
        let net = topo::kary_ntree(4, 2);
        let mut report = run_inner(&net, "uniform", true, 7, 200, 20_000.0);
        report.malformed = 3;
        report.min_admitted_permille = 0;
        report.chaos_epochs = 0;
        let err = report.gate().unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        assert!(err.contains("floor"), "{err}");
        assert!(err.contains("chaos"), "{err}");
    }
}
