//! One workload, one process: set-up, the three timed segments, the
//! correctness gate, and — in the traced run — the per-layer replay and
//! the serve-only phases.
//!
//! Every workload runs the same three segments on its own fabric and
//! differs in how it shares the run's seconds between them
//! ([`Workload::shares`]), so every end-to-end metric exists on every
//! workload:
//!
//! 1. **boots** — topology text in, first answer out, on a cold stack;
//! 2. **events** — `CableDown`/`CableUp` pairs on the warm stack, each
//!    timed from `RouteServer::handle` to the first answer of the new
//!    epoch; on `serve-mixed` a second thread calls
//!    `store.read().answer(s, d)` beside them;
//! 3. **queries** — one closed-loop client against `workers: 1`.

use crate::affinity;
use crate::calib::Calibrator;
use crate::catalog::{Fabric, Metric, Workload, END_TO_END, PER_LAYER};
use crate::shadow::{Shadow, ATTRIBUTED};
use crate::stack::{
    boot, build_fabric, check_against_cold, check_answer, poisson_trace, query_opts, query_pairs,
    rederive, EventStream, Size, Stack,
};
use crate::stats::{mean, median, percentile, sorted, tail};
use crate::trace::Tracer;
use appsim::traffic::TraceQuery;
use fabric::{format, Network, NodeId};
use serve::{PathQuery, QueryEngine, ServeError, SnapshotStore};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{counters, phases, Collector, RecorderHandle};

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Wall-clock seconds, shared between the segments.
    Seconds(f64),
    /// A fixed number of operations per segment, so that counts repeat
    /// exactly; what `cargo test` uses.
    Ops(usize),
}

/// Everything that selects a run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the random fabrics, cable choices and query pairs.
    pub seed: u64,
    /// Run length.
    pub limit: Limit,
    /// Fabric sizes.
    pub size: Size,
    /// Whether this is the traced run (per-layer metrics) or the plain
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// One reported number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind it (1 for totals and ratios).
    pub samples: usize,
    /// Percentile the value is, when it is one.
    pub percentile: Option<f64>,
    /// The same statistic before calibration to reference speed, for
    /// the calibrated end-to-end timings (see `calib.rs`).
    pub raw: Option<f64>,
}

/// What one run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: &'static Workload,
    /// Whether it was the traced run.
    pub traced: bool,
    /// Operations attempted: boots, events, queries and reads.
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// End-to-end metrics (plain run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Where the spans went.
    pub trace_file: Option<PathBuf>,
}

impl RunResult {
    /// Whether every operation succeeded and passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Set-up repetitions before the first round (the last one is the first
/// round's warm stack); every later round starts with one more, so
/// `setup_s` samples the whole run like every other metric does.
const FIRST_SETUPS: usize = 3;
/// A timed plain run visits its three segments this many times in turn.
/// The reference host drifts between faster and slower phases that last
/// seconds; a metric measured in one contiguous slice would report
/// whichever phase it met.
const ROUNDS: usize = 10;
/// Rounds of a timed traced run: every visit runs at least one traced
/// operation and its replay, so many short visits would overrun.
const TRACED_ROUNDS: usize = 2;
/// A reader window in a timed run.
const WINDOW: Duration = Duration::from_millis(100);
/// A reader window in a counted run.
const WINDOW_READS: u64 = 2048;
/// Queries per closed-loop block.
const QUERY_BLOCK: usize = 32;
/// Blocks between two samples of the calibration kernel (~10 ms).
const BLOCKS_PER_CHUNK: usize = 128;
/// One answer in this many is re-derived from the snapshot's routes.
const REDERIVE_EVERY: u64 = 1024;
/// One event in this many is compared against a cold recompute.
const COLD_CHECK_EVERY: u64 = 10;
/// Share of a traced segment that runs untraced first, as the base of
/// `telemetry.trace_overhead_pct`.
const PLAIN_SHARE: f64 = 0.25;
/// Share of a traced run kept for the three segments; the rest goes to
/// the serve-only phases.
const TRACED_SEGMENTS: f64 = 0.7;

/// Counts attempted and failed operations and keeps the first reasons.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    fn op(&mut self, result: Result<(), String>) {
        self.bulk(1, u64::from(result.is_err()), result.err());
    }

    fn bulk(&mut self, attempted: u64, failed: u64, note: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(note) = note {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// The budget of one segment visit: a deadline or an operation count.
struct Segment {
    deadline: Option<Instant>,
    ops: usize,
    done: usize,
}

impl Segment {
    /// `seconds` of a timed run, or `ops_scale` times the counted run's
    /// operation count. Every visit runs at least one operation so no
    /// metric is ever empty.
    fn new(limit: Limit, seconds: f64, ops_scale: f64) -> Self {
        match limit {
            Limit::Seconds(_) => Segment {
                deadline: Some(Instant::now() + Duration::from_secs_f64(seconds)),
                ops: 1,
                done: 0,
            },
            Limit::Ops(n) => Segment {
                deadline: None,
                ops: ((n as f64 * ops_scale).ceil() as usize).max(1),
                done: 0,
            },
        }
    }

    /// A visit that ends only when its owner says so.
    fn unbounded() -> Self {
        Segment {
            deadline: None,
            ops: usize::MAX,
            done: 0,
        }
    }

    fn more(&mut self) -> bool {
        let go = match self.deadline {
            Some(deadline) => self.done < self.ops || Instant::now() < deadline,
            None => self.done < self.ops,
        };
        self.done += usize::from(go);
        go
    }
}

/// The warm stack and the inputs generated for it.
struct Warm {
    stack: Stack,
    reference: Network,
    text: String,
    pairs: Vec<(NodeId, NodeId)>,
    events: EventStream,
}

/// Samples of one quantity: as measured, and at reference speed.
#[derive(Default)]
struct Series {
    raw: Vec<f64>,
    calibrated: Vec<f64>,
}

impl Series {
    /// A duration; `factor` brings it to reference speed.
    fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.calibrated.push(raw * factor);
    }

    /// A rate: a host running slow by `factor` completes less per second.
    fn push_rate(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.calibrated.push(raw / factor);
    }

    fn median(&self) -> Measured {
        Measured {
            value: median(&self.calibrated),
            samples: self.calibrated.len(),
            percentile: Some(50.0),
            raw: Some(median(&self.raw)),
        }
    }
}

/// Samples of the segments and the reader.
#[derive(Default)]
struct Samples {
    setup_s: Series,
    boot_ms: Series,
    /// Every event on its own (for the tail).
    event_ms: Series,
    /// The mean of each `CableDown`/`CableUp` pair.
    pair_ms: Series,
    /// The median of each closed-loop chunk.
    rtt_us: Series,
    window_qps: Series,
}

struct Run<'a> {
    opts: &'a RunOpts,
    gate: Gate,
    /// Samples of untraced operations (all of them in the plain run; the
    /// overhead base in the traced run).
    plain: Samples,
    /// Samples of traced live operations.
    traced: Samples,
    tracer: Tracer,
    calib: Calibrator,
    /// Per-query round trips of the recorded engine (traced run only).
    traced_rtt_us: Vec<f64>,
    /// Recorder shared by every traced live stack and query engine.
    live_rec: Arc<Collector>,
    /// The traced twin of the first round's warm stack, with its own
    /// inputs, and its replay state.
    twin: Option<(Warm, Shadow)>,
    fabric_index: u64,
    next_pair: usize,
    events_seen: u64,
}

/// Run one workload once.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let mut run = Run {
        opts,
        gate: Gate::default(),
        plain: Samples::default(),
        traced: Samples::default(),
        tracer: Tracer::new(),
        calib: Calibrator::new(),
        traced_rtt_us: Vec::new(),
        live_rec: Arc::new(Collector::new()),
        twin: None,
        fabric_index: 0,
        next_pair: 0,
        events_seen: 0,
    };
    let w = opts.workload;
    let (seconds, rounds, first_setups) = match opts.limit {
        Limit::Seconds(s) if opts.trace => (s, TRACED_ROUNDS, FIRST_SETUPS),
        Limit::Seconds(s) => (s, ROUNDS, FIRST_SETUPS),
        Limit::Ops(_) => (0.0, 1, 2),
    };
    let scale = if opts.trace { TRACED_SEGMENTS } else { 1.0 };
    let slice = |share: f64| seconds * share * scale / rounds as f64;

    for _ in 1..first_setups {
        run.set_up()?;
    }
    let mut warm = run.set_up()?;
    for round in 0..rounds {
        // Every round of a plain run serves from a freshly set-up stack:
        // on the irregular workload that is another seeded fabric, so a
        // run's event and query numbers do not hang on one draw. A
        // traced run keeps the first, as old as its traced twin, so that
        // the two compare like with like.
        if round > 0 && !opts.trace {
            warm = run.set_up()?;
        }
        let engine = pinned_engine(&warm.stack.store, None);
        run.boots(&warm, slice(w.shares[0]));
        run.events(&mut warm, slice(w.shares[1]))?;
        run.queries(&warm, &engine, slice(w.shares[2]));
    }
    if opts.trace {
        run.serve_phases(&warm, seconds * (1.0 - scale));
    }
    Ok(run.finish())
}

/// A query engine whose one shard worker shares a CPU with whoever
/// holds a [`affinity::pin_to_one_cpu`] guard while querying it (see
/// `affinity.rs` for why).
fn pinned_engine(store: &Arc<SnapshotStore>, recorder: Option<RecorderHandle>) -> QueryEngine {
    let _pin = affinity::pin_to_one_cpu();
    QueryEngine::new(store.clone(), query_opts(recorder))
}

impl Run<'_> {
    fn recorder(&self) -> RecorderHandle {
        self.live_rec.clone()
    }

    /// Generate the next fabric of the run.
    fn next_fabric(&mut self) -> Network {
        let net = build_fabric(
            self.opts.workload.fabric,
            self.opts.size,
            self.opts.seed,
            self.fabric_index,
        );
        self.fabric_index += 1;
        net
    }

    fn next_pair(&mut self, pairs: &[(NodeId, NodeId)]) -> (NodeId, NodeId) {
        let pair = pairs[self.next_pair % pairs.len()];
        self.next_pair += 1;
        pair
    }

    /// One set-up repetition: generate the inputs, bring a stack up on
    /// them, take the first answer.
    fn set_up(&mut self) -> Result<Warm, String> {
        let (opts, index) = (self.opts, self.fabric_index);
        self.fabric_index += 1;
        let timed = self.calib.around(|| {
            let reference = build_fabric(opts.workload.fabric, opts.size, opts.seed, index);
            let text = format::text::write_network(&reference);
            let pairs = query_pairs(&reference, opts.seed, opts.size);
            let events = EventStream::new(&reference, opts.seed ^ index);
            if pairs.is_empty() || events.is_empty() {
                return Err("generated inputs are empty".to_string());
            }
            let stack = boot(&text, None)?;
            let snap = stack.store.read();
            let answer = snap
                .answer(pairs[0].0, pairs[0].1)
                .map_err(|e| format!("set-up: {e}"))?;
            Ok((
                Warm {
                    stack,
                    reference,
                    text,
                    pairs,
                    events,
                },
                snap,
                answer,
            ))
        });
        self.plain.setup_s.push(timed.seconds(), timed.factor);
        self.tracer.sample("host.calibration_ms", timed.kernel_ms);
        let (warm, snap, answer) = timed.out?;
        check_answer(&snap, warm.pairs[0], &answer, 0)?;
        Ok(warm)
    }

    /// One cold boot: text in, first answer out. Returns the stack for
    /// callers that keep it.
    fn boot_once(&mut self, text: &str, pair: (NodeId, NodeId), traced: bool) -> Option<Stack> {
        let recorder = traced.then(|| self.recorder());
        let timed = self.calib.around(|| {
            boot(text, recorder).and_then(|stack| {
                let snap = stack.store.read();
                let answer = snap.answer(pair.0, pair.1).map_err(|e| e.to_string())?;
                Ok((stack, snap, answer))
            })
        });
        let (ms, factor) = (timed.seconds() * 1e3, timed.factor);
        self.tracer.sample("host.calibration_ms", timed.kernel_ms);
        let (start, end) = (timed.start, timed.end);
        let (checked, stack) = match timed.out {
            Ok((stack, snap, answer)) => {
                let errors = snap.vet.num_errors();
                let checked = check_answer(&snap, pair, &answer, 0).and_then(|()| {
                    (errors == 0)
                        .then_some(())
                        .ok_or(format!("boot published with {errors} vet error(s)"))
                });
                (checked, Some(stack))
            }
            Err(e) => (Err(format!("boot: {e}")), None),
        };
        self.gate.op(checked);
        if traced {
            self.tracer.begin_op();
            self.tracer.record("boot", start, end);
        }
        let samples = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        samples.boot_ms.push(ms, factor);
        stack
    }

    /// A traced boot plus its per-layer replay.
    fn traced_boot(&mut self, text: &str, pair: (NodeId, NodeId)) -> Option<(Stack, Shadow)> {
        let stack = self.boot_once(text, pair, true)?;
        match Shadow::boot(text, &stack.store.read(), &mut self.tracer) {
            Ok(shadow) => Some((stack, shadow)),
            Err(e) => {
                self.gate.bulk(0, 1, Some(format!("boot replay: {e}")));
                None
            }
        }
    }

    /// The untraced and traced parts of one segment visit: all untraced
    /// in the plain run, [`PLAIN_SHARE`] untraced first in the traced one.
    fn parts(&self) -> impl Iterator<Item = (bool, f64)> {
        let plain = if self.opts.trace { PLAIN_SHARE } else { 1.0 };
        [(false, plain), (true, 1.0 - plain)]
            .into_iter()
            .filter(|&(_, part)| part > 0.0)
    }

    fn boots(&mut self, warm: &Warm, seconds: f64) {
        let irregular = self.opts.workload.fabric == Fabric::Irregular;
        for (traced, part) in self.parts() {
            let mut seg = Segment::new(self.opts.limit, seconds * part, part);
            while seg.more() {
                // A fresh seeded fabric per boot where the fabric is random.
                let fresh = irregular.then(|| {
                    let net = self.next_fabric();
                    // One answer per boot: the short pair list will do.
                    let pairs = query_pairs(&net, self.opts.seed, Size::Tiny);
                    (format::text::write_network(&net), pairs)
                });
                let (text, pairs) = match &fresh {
                    Some((text, pairs)) => (text.as_str(), pairs.as_slice()),
                    None => (warm.text.as_str(), warm.pairs.as_slice()),
                };
                let pair = self.next_pair(pairs);
                if traced {
                    self.traced_boot(text, pair);
                } else {
                    self.boot_once(text, pair, false);
                }
            }
        }
    }

    /// One event on `stack`: handle, then the first answer of the new
    /// epoch; with a shadow, the per-layer replay follows off the clock.
    /// Returns the latency in milliseconds and its calibration factor.
    fn event_once(
        &mut self,
        stack: &mut Stack,
        pairs: &[(NodeId, NodeId)],
        events: &mut EventStream,
        shadow: Option<&mut Shadow>,
    ) -> (f64, f64) {
        let (event, down) = events.next_event();
        let pair = self.next_pair(pairs);
        let expected = stack.store.epoch() + 1;
        let timed = self.calib.around(|| {
            let served = stack.server.handle(event);
            let snap = stack.store.read();
            let answer = snap.answer(pair.0, pair.1);
            (served, snap, answer)
        });
        let (start, end, factor) = (timed.start, timed.end, timed.factor);
        self.tracer.sample("host.calibration_ms", timed.kernel_ms);
        let (served, snap, answer) = timed.out;
        self.events_seen += 1;

        let mut checked = match (&served, &answer) {
            (Ok(served), Ok(answer)) => {
                if served.epoch != Some(expected) {
                    Err(format!(
                        "event published {:?}, expected epoch {expected}",
                        served.epoch
                    ))
                } else if snap.vet.num_errors() > 0 {
                    Err(format!("epoch {expected} published with vet errors"))
                } else {
                    check_answer(&snap, pair, answer, expected)
                }
            }
            (Err(e), _) => Err(format!("event refused: {e}")),
            (_, Err(e)) => Err(format!("first answer: {e}")),
        };
        match shadow {
            // The replay compares every epoch against a cold recompute.
            Some(shadow) => {
                let tr = &mut self.tracer;
                tr.begin_op();
                tr.record("event", start, end);
                if let Ok(served) = &served {
                    let o = &served.outcome;
                    tr.sample("subnet.handle", o.elapsed.as_secs_f64() * 1e3);
                    tr.add("subnet.events", 1.0);
                    tr.add("subnet.plan_direct", f64::from(u8::from(o.plan.direct)));
                    tr.add("subnet.lft_entries_changed", o.diff.entries_changed as f64);
                }
                if checked.is_ok() {
                    checked = shadow.event(down, &snap, tr);
                }
            }
            None if checked.is_ok() && self.events_seen.is_multiple_of(COLD_CHECK_EVERY) => {
                checked = check_against_cold(&snap);
            }
            None => {}
        }
        self.gate.op(checked);
        ((end - start).as_secs_f64() * 1e3, factor)
    }

    /// `CableDown`/`CableUp` pairs until the visit is spent, so the
    /// fabric is pristine whenever a visit ends.
    fn event_pairs(
        &mut self,
        stack: &mut Stack,
        mut shadow: Option<&mut Shadow>,
        pairs: &[(NodeId, NodeId)],
        events: &mut EventStream,
        mut seg: Segment,
    ) {
        let traced = shadow.is_some();
        while seg.more() {
            let (down, down_factor) = self.event_once(stack, pairs, events, shadow.as_deref_mut());
            let (up, up_factor) = self.event_once(stack, pairs, events, shadow.as_deref_mut());
            let samples = if traced {
                &mut self.traced
            } else {
                &mut self.plain
            };
            samples.event_ms.push(down, down_factor);
            samples.event_ms.push(up, up_factor);
            // The pair's mean, each half at reference speed.
            let mean = (down + up) / 2.0;
            samples
                .pair_ms
                .push(mean, (down * down_factor + up * up_factor) / 2.0 / mean);
        }
    }

    fn events(&mut self, warm: &mut Warm, seconds: f64) -> Result<(), String> {
        let limit = self.opts.limit;
        if self.opts.trace && self.twin.is_none() {
            // The traced twin of the warm stack, booted off the clock.
            let (stack, shadow) = self
                .traced_boot(&warm.text, warm.pairs[0])
                .ok_or("the traced warm stack did not come up")?;
            let twin = Warm {
                stack,
                reference: warm.reference.clone(),
                text: warm.text.clone(),
                pairs: warm.pairs.clone(),
                events: EventStream::new(&warm.reference, self.opts.seed),
            };
            self.twin = Some((twin, shadow));
        }
        let mut twin = self.twin.take();
        for (traced, part) in self.parts() {
            let (on, shadow) = match (&mut twin, traced) {
                (Some((twin, shadow)), true) => (twin, Some(shadow)),
                _ => (&mut *warm, None),
            };
            let (stack, pairs, events) = (&mut on.stack, &on.pairs, &mut on.events);
            let seg = Segment::new(limit, seconds * part, part);
            if !self.opts.workload.mixed {
                self.event_pairs(stack, shadow, pairs, events, seg);
                continue;
            }
            // Reads beside writes: the reader runs on a second thread for
            // as long as this visit's events take.
            let store = stack.store.clone();
            let stop = AtomicBool::new(false);
            let out = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    // Its own kernel: the writer's is busy on that thread.
                    let mut calib = Calibrator::new();
                    read_windows(
                        &store,
                        pairs,
                        &mut calib,
                        limit,
                        Segment::unbounded(),
                        Some(&stop),
                    )
                });
                self.event_pairs(stack, shadow, pairs, events, seg);
                stop.store(true, Ordering::SeqCst);
                reader.join()
            });
            self.absorb_reader(out.map_err(|_| "the reader thread panicked")?);
        }
        self.twin = twin;
        Ok(())
    }

    fn absorb_reader(&mut self, out: ReaderOut) {
        self.gate.bulk(out.reads, out.failed, out.note);
        for (qps, factor) in out.window_qps {
            self.plain.window_qps.push_rate(qps, factor);
        }
    }

    /// Closed loop: one client, `workers: 1`, both on one CPU.
    fn queries(&mut self, warm: &Warm, engine: &QueryEngine, seconds: f64) {
        let _pin = affinity::pin_to_one_cpu();
        let mut seg = Segment::new(self.opts.limit, seconds, 1.0);
        // One sample per chunk (its median round trip), calibrated by
        // the kernel runs on either side of it; memory stays flat over
        // the million-odd round trips of a run.
        let mut chunk = Vec::with_capacity(QUERY_BLOCK * BLOCKS_PER_CHUNK);
        while seg.more() {
            chunk.clear();
            self.calib.sample();
            for _ in 0..BLOCKS_PER_CHUNK {
                self.query_block(engine, warm, &mut chunk);
            }
            self.calib.sample();
            self.plain.rtt_us.push(median(&chunk), self.calib.factor());
        }
    }

    /// `QUERY_BLOCK` round trips, each timed and checked.
    fn query_block(&mut self, engine: &QueryEngine, warm: &Warm, rtt_us: &mut Vec<f64>) {
        let epoch = warm.stack.store.epoch();
        for _ in 0..QUERY_BLOCK {
            let pair = self.next_pair(&warm.pairs);
            let start = Instant::now();
            let answer = engine.query(PathQuery::new(pair.0, pair.1));
            rtt_us.push(start.elapsed().as_secs_f64() * 1e6);
            let checked = match answer {
                Ok(a) if a.epoch != epoch => Err(format!("query answered from epoch {}", a.epoch)),
                Ok(a) if self.gate.attempted.is_multiple_of(REDERIVE_EVERY) => {
                    let snap = warm.stack.store.read();
                    check_answer(&snap, pair, &a, epoch).and_then(|()| rederive(&snap, pair, &a))
                }
                Ok(_) => Ok(()),
                Err(e) => Err(format!("query: {e}")),
            };
            self.gate.op(checked);
        }
    }

    /// The serve-only phases of the traced run: recorder overhead, the
    /// batch interface, two open-loop rates, the reader loop, and
    /// read/answer in isolation. `seconds` are split evenly between them.
    fn serve_phases(&mut self, warm: &Warm, seconds: f64) {
        let limit = self.opts.limit;
        let store = &warm.stack.store;
        let part = seconds / 6.0;

        // Recorder overhead on the closed-loop path: interleaved blocks
        // cancel drift.
        let (mut noop_us, mut rec_us) = (Vec::new(), Vec::new());
        {
            let plain = pinned_engine(store, None);
            let recorded = pinned_engine(store, Some(self.recorder()));
            let _pin = affinity::pin_to_one_cpu();
            let mut seg = Segment::new(limit, part, 2.0);
            while seg.more() {
                self.query_block(&plain, warm, &mut noop_us);
                self.query_block(&recorded, warm, &mut rec_us);
            }
        }
        let base = median(&noop_us);
        self.tracer.sample(
            "telemetry.collector_overhead_pct",
            100.0 * (median(&rec_us) - base) / base,
        );
        self.traced_rtt_us = rec_us;

        // The batch and open-loop clients keep a CPU busy while the
        // worker drains, so these run unpinned.
        let recorded = QueryEngine::new(store.clone(), query_opts(Some(self.recorder())));

        // Batch interface, closed loop.
        let mut seg = Segment::new(limit, part, 1.0);
        let (mut answered, mut busy) = (0u64, Duration::ZERO);
        while seg.more() {
            let batch: Vec<PathQuery> = (0..64)
                .map(|_| {
                    let (s, d) = self.next_pair(&warm.pairs);
                    PathQuery::new(s, d)
                })
                .collect();
            let start = Instant::now();
            let answers = recorded.query_batch(&batch);
            busy += start.elapsed();
            let bad = answers.iter().filter(|a| a.is_err()).count() as u64;
            self.gate.bulk(
                64,
                bad,
                (bad > 0).then(|| format!("{bad} batch queries failed")),
            );
            answered += 64 - bad;
        }
        self.tracer
            .sample("serve.batch_qps", answered as f64 / busy.as_secs_f64());

        // Open loop at two Poisson rates.
        let duration_ms = match limit {
            Limit::Seconds(_) => (part * 1e3) as u64,
            Limit::Ops(_) => 20,
        };
        for (rate, p50, p99) in [
            (25_000.0, "serve.open_p50_us_25k", "serve.open_p99_us_25k"),
            (
                100_000.0,
                "serve.open_p50_us_100k",
                "serve.open_p99_us_100k",
            ),
        ] {
            let trace = poisson_trace(
                &warm.reference,
                self.opts.seed ^ rate as u64,
                rate,
                duration_ms.max(1),
            );
            let out = open_loop(&recorded, &trace);
            self.gate.bulk(trace.len() as u64, out.failed, out.note);
            let latencies = sorted(out.latency_us);
            self.tracer.sample(p50, percentile(&latencies, 50.0));
            self.tracer.sample(p99, percentile(&latencies, 99.0));
            for lag in out.lag_us {
                self.tracer.sample("serve.open_gen_lag_us", lag);
            }
        }

        // The reader loop on its own (serve-mixed ran it beside the events).
        if !self.opts.workload.mixed {
            let seg = Segment::new(limit, part, 1.0);
            let out = read_windows(store, &warm.pairs, &mut self.calib, limit, seg, None);
            self.absorb_reader(out);
        }

        // read() and answer() on their own.
        let n: u32 = match limit {
            Limit::Seconds(_) => 1 << 16,
            Limit::Ops(_) => 1 << 10,
        };
        let start = Instant::now();
        for _ in 0..n {
            black_box(store.read());
        }
        self.tracer.sample(
            "serve.read_ns",
            start.elapsed().as_nanos() as f64 / f64::from(n),
        );
        let snap = store.read();
        let start = Instant::now();
        for i in 0..n as usize {
            let (s, d) = warm.pairs[i % warm.pairs.len()];
            let _ = black_box(snap.answer(s, d));
        }
        self.tracer.sample(
            "serve.answer_ns",
            start.elapsed().as_nanos() as f64 / f64::from(n),
        );
    }

    fn finish(mut self) -> RunResult {
        let opts = self.opts;
        let mut metrics = BTreeMap::new();
        let mut trace_file = None;
        if opts.trace {
            for m in PER_LAYER {
                metrics.insert(m.name, self.layer_metric(m));
            }
            if let Some(path) = &opts.trace_out {
                match self.tracer.write_jsonl(path) {
                    Ok(()) => trace_file = Some(path.clone()),
                    Err(e) => {
                        self.gate
                            .bulk(0, 1, Some(format!("writing {}: {e}", path.display())))
                    }
                }
            }
        } else {
            let p = &self.plain;
            metrics.insert("setup_s", p.setup_s.median());
            metrics.insert("boot_ms", p.boot_ms.median());
            metrics.insert("event_to_answer_ms", p.pair_ms.median());
            metrics.insert("query_rtt_us", p.rtt_us.median());
            metrics.insert(
                "peak_rss_mb",
                Measured {
                    value: peak_rss_mb(),
                    samples: 1,
                    percentile: None,
                    raw: None,
                },
            );
            debug_assert_eq!(metrics.len(), END_TO_END.len());
        }
        RunResult {
            workload: opts.workload,
            traced: opts.trace,
            attempted: self.gate.attempted,
            failed: self.gate.failed,
            failures: self.gate.notes,
            metrics,
            trace_file,
        }
    }

    /// Derive one per-layer metric from the tracer and the recorders.
    fn layer_metric(&self, m: &Metric) -> Measured {
        let tr = &self.tracer;
        let live = self.live_rec.snapshot();
        let counter = |name: &str| live.counters.get(name).copied().unwrap_or(0) as f64;
        let measured = |value: f64, samples: usize, percentile: Option<f64>| Measured {
            value,
            samples,
            percentile,
            raw: None,
        };
        let total = |value: f64| measured(value, 1, None);
        let med = |v: &[f64]| measured(median(v), v.len(), Some(50.0));
        let tail_of = |v: &[f64], wanted: f64| {
            let (p, value) = tail(v, wanted);
            measured(value, v.len(), Some(p))
        };
        match m.name {
            "core.paths_routed"
            | "core.cycles_broken"
            | "core.vls_used"
            | "delta.fallbacks"
            | "delta.dirty_dests_sum"
            | "vet.errors"
            | "subnet.lft_entries_changed" => total(tr.total(m.name)),
            "core.pool_par_tasks" => total(counter(counters::PAR_TASKS)),
            "core.pool_steal_count" => total(counter(counters::STEAL_COUNT)),
            "delta.taken_ratio" => total(tr.ratio("delta.taken", "delta.events")),
            "delta.union_acyclic_ratio" => total(tr.ratio("delta.union_acyclic", "delta.events")),
            "delta.dirty_fraction_mean" => {
                let v = tr.samples("delta.dirty_fraction");
                measured(mean(v), v.len(), None)
            }
            "delta.vs_cold_ratio" => {
                let warm = median(tr.samples("delta.route"));
                total(if warm > 0.0 {
                    median(tr.samples("core.route_cold")) / warm
                } else {
                    0.0
                })
            }
            "vet.undecided_ratio" => {
                total(tr.ratio("vet.existence.undecided", "vet.existence.calls"))
            }
            "subnet.diff_plan_hit_ratio" => {
                total(tr.ratio("subnet.diff_plan.hits", "subnet.diff_plan.calls"))
            }
            "subnet.plan_direct_ratio" => total(tr.ratio("subnet.plan_direct", "subnet.events")),
            "serve.swap_pause_us" => {
                let swap = live.phases.get(phases::EPOCH_SWAP);
                measured(
                    swap.map_or(0.0, |p| p.nanos as f64 / 1e3 / p.count.max(1) as f64),
                    swap.map_or(0, |p| p.count as usize),
                    None,
                )
            }
            "serve.epochs_published" => total(counter(counters::EPOCHS_PUBLISHED)),
            "serve.coalesced_ratio" => {
                let served = counter(counters::QUERIES_SERVED);
                total(if served > 0.0 {
                    counter(counters::QUERIES_COALESCED) / served
                } else {
                    0.0
                })
            }
            "serve.rejected" => total(counter(counters::QUERIES_REJECTED)),
            "serve.expired" => total(counter(counters::QUERIES_EXPIRED)),
            "serve.shed" => total(counter(counters::QUERIES_SHED)),
            "serve.stale_reads" => total(counter(counters::STALE_READS)),
            "serve.open_gen_lag_p99_us" => tail_of(tr.samples("serve.open_gen_lag_us"), 99.0),
            "tail.boot_p90_ms" => tail_of(&self.traced.boot_ms.calibrated, 90.0),
            "tail.event_to_answer_p95_ms" => tail_of(&self.traced.event_ms.calibrated, 95.0),
            "tail.query_rtt_p99_us" => tail_of(&self.traced_rtt_us, 99.0),
            "telemetry.trace_overhead_pct" => {
                let (plain, traced) = match self.opts.workload.primary {
                    "boot_ms" => (&self.plain.boot_ms, &self.traced.boot_ms),
                    "event_to_answer_ms" => (&self.plain.pair_ms, &self.traced.pair_ms),
                    // On the query path the recorder is all that tracing adds.
                    _ => return med(tr.samples("telemetry.collector_overhead_pct")),
                };
                let base = median(&plain.calibrated);
                total(if base > 0.0 {
                    100.0 * (median(&traced.calibrated) - base) / base
                } else {
                    0.0
                })
            }
            "host.calibration_ms" => med(tr.samples(m.name)),
            "serve.answer_qps" => self.plain.window_qps.median(),
            // Per operation, so that one stalled replay span cannot
            // swing the figure.
            "trace.unattributed_pct" => med(&tr.uncovered_pct(&["boot", "event"], ATTRIBUTED)),
            // Everything else is the median of the samples taken under
            // the metric's own name, or under it minus the `_ms` suffix
            // (the span names).
            name => {
                let own = tr.samples(name);
                if own.is_empty() {
                    med(tr.samples(name.strip_suffix("_ms").unwrap_or(name)))
                } else {
                    med(own)
                }
            }
        }
    }
}

/// What a reader loop saw.
struct ReaderOut {
    /// Reads per second of each window, and its calibration factor.
    window_qps: Vec<(f64, f64)>,
    reads: u64,
    failed: u64,
    note: Option<String>,
}

/// `store.read().answer(s, d)` over the seeded pairs on the calling
/// thread, in windows, until the segment is spent or `stop` is raised.
/// Checks every answer's epoch never goes backwards and re-derives one
/// answer in [`REDERIVE_EVERY`] from the snapshot's routes.
fn read_windows(
    store: &SnapshotStore,
    pairs: &[(NodeId, NodeId)],
    calib: &mut Calibrator,
    limit: Limit,
    mut seg: Segment,
    stop: Option<&AtomicBool>,
) -> ReaderOut {
    let mut out = ReaderOut {
        window_qps: Vec::new(),
        reads: 0,
        failed: 0,
        note: None,
    };
    let fail = |out: &mut ReaderOut, why: String| {
        out.failed += 1;
        out.note.get_or_insert(why);
    };
    let mut next = 0usize;
    let mut newest = 0u64;
    while seg.more() && !stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
        calib.sample();
        let start = Instant::now();
        let mut reads = 0u64;
        let elapsed = loop {
            for _ in 0..64 {
                let pair = pairs[next];
                next = if next + 1 == pairs.len() { 0 } else { next + 1 };
                let snap = store.read();
                match snap.answer(pair.0, pair.1) {
                    Ok(answer) => {
                        if answer.epoch < newest {
                            fail(
                                &mut out,
                                format!("epoch went backwards: {} after {newest}", answer.epoch),
                            );
                        }
                        newest = answer.epoch;
                        if (out.reads + reads).is_multiple_of(REDERIVE_EVERY) {
                            if let Err(e) = rederive(&snap, pair, &answer) {
                                fail(&mut out, e);
                            }
                        }
                        black_box(&answer);
                    }
                    Err(e) => fail(&mut out, format!("read: {e}")),
                }
                reads += 1;
            }
            let elapsed = start.elapsed();
            let full = match limit {
                Limit::Seconds(_) => elapsed >= WINDOW,
                Limit::Ops(_) => reads >= WINDOW_READS,
            };
            if full {
                break elapsed;
            }
        };
        calib.sample();
        out.reads += reads;
        out.window_qps
            .push((reads as f64 / elapsed.as_secs_f64(), calib.factor()));
    }
    out
}

/// What an open-loop replay measured.
struct OpenLoopOut {
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    failed: u64,
    note: Option<String>,
}

/// Replay `trace` against `engine` from one client thread: every query
/// is submitted when it is due whether or not earlier ones were
/// answered, and its latency counts from the due time. Tickets are
/// redeemed oldest first between submissions; how late the generator
/// ran is reported beside the latencies. A typed overload refusal is a
/// measured outcome (`serve.rejected`), anything else a failure.
fn open_loop(engine: &QueryEngine, trace: &[TraceQuery]) -> OpenLoopOut {
    let mut out = OpenLoopOut {
        latency_us: Vec::with_capacity(trace.len()),
        lag_us: Vec::with_capacity(trace.len()),
        failed: 0,
        note: None,
    };
    let mut in_flight = VecDeque::new();
    let mut next = 0;
    let start = Instant::now();
    loop {
        while let Some(q) = trace.get(next) {
            let due = Duration::from_micros(q.at_us);
            let now = start.elapsed();
            if now < due {
                break;
            }
            out.lag_us.push((now - due).as_secs_f64() * 1e6);
            match engine.submit(PathQuery::new(q.src, q.dst)) {
                Ok(ticket) => in_flight.push_back((ticket, due)),
                Err(ServeError::Overloaded { .. }) => {}
                Err(e) => {
                    out.failed += 1;
                    out.note.get_or_insert(format!("open-loop submit: {e}"));
                }
            }
            next += 1;
        }
        match in_flight.pop_front() {
            Some((ticket, due)) => match ticket.wait() {
                Ok(_) => out
                    .latency_us
                    .push(start.elapsed().saturating_sub(due).as_secs_f64() * 1e6),
                Err(ServeError::Overloaded { .. }) => {}
                Err(e) => {
                    out.failed += 1;
                    out.note.get_or_insert(format!("open-loop answer: {e}"));
                }
            },
            None if next >= trace.len() => break,
            None => std::hint::spin_loop(),
        }
    }
    out
}

/// `VmHWM` of this process in MB; zero where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
