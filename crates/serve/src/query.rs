//! The batched path-query engine.
//!
//! [`QueryEngine`] answers [`PathQuery`]s from the store's current
//! [`Snapshot`] on a pool of shard workers (`std::thread`, one per
//! available core unless [`QueryOpts::workers`] says otherwise). Three
//! serving techniques carry the load:
//!
//! * **Sharding** — a query is routed to a shard by `(src, dst)` hash;
//!   each worker owns one shard's queues, so unrelated queries never
//!   contend on a lock.
//! * **Batching** — a worker drains its queues in batches and answers
//!   the whole batch from *one* snapshot read. Under load the queues are
//!   never empty, so per-query wakeup cost amortizes away — this is
//!   where closed-loop throughput scaling comes from.
//! * **Coalescing** — duplicate in-flight queries (same `(src, dst)`)
//!   share one [`AnswerCell`]: the worker computes once and fulfills
//!   once (a single `notify_all`), so a thundering herd asking for one
//!   hot pair costs one table walk and one wakeup, not N of each.
//!
//! Every answer is computed from a single `Arc<Snapshot>`, so its hops,
//! VL and epoch are internally consistent by construction — an epoch
//! swap mid-batch changes *future* batches, never a computed answer.
//!
//! # Admission under overload
//!
//! Each [`QueryClass`] runs under a [`ClassPolicy`]: a
//! [`dfsssp_core::Budget`] (the `max_nodes` axis refuses queries
//! against oversized views, the `deadline` axis bounds how stale a
//! redeemed ticket may be), a **deficit-weighted queue share**, a queue
//! cap, and a sheddable bit. Overload defenses fire in order of cost:
//!
//! 1. **Deficit-weighted round robin** — each shard keeps one queue per
//!    class; workers drain [`ClassPolicy::weight`] queries from a class
//!    per round ([`ShardState::pop_next`]), so a bulk backlog cannot
//!    starve interactive traffic.
//! 2. **Expired-in-queue shedding** — a query whose class deadline
//!    passed while it sat queued is failed with the budget trip *at the
//!    drain*, before a snapshot read is paid for it, and without
//!    consuming a batch slot.
//! 3. **Adaptive shed** — sheddable classes pass through the engine's
//!    [`ShedController`] (AIMD on admitted rate, keyed off the
//!    queue-delay EWMA workers report per batch).
//! 4. **Queue caps** — the backstop; a full class queue refuses with
//!    typed backpressure and tightens the shed controller.
//!
//! Both shed paths return [`ServeError::Overloaded`] carrying a
//! `retry_after` derived from the observed queue delay, so callers can
//! back off deterministically instead of hammering a saturated shard.

use crate::shed::{ShedConfig, ShedController};
use crate::snapshot::{Snapshot, SnapshotStore};
use crate::sync::{Arc, Condvar, Mutex};
use dfsssp_core::{Budget, BudgetGuard, RouteError};
use fabric::{ChannelId, NodeId};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::fx::FxHashMap;
use telemetry::{counters, hists, phases, RecorderHandle};

/// One path question: how do I get from `src` to `dst`? Ids are
/// *reference* node ids (the stable physical identity fabric events
/// use), valid across degraded epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PathQuery {
    /// Source terminal (reference id).
    pub src: NodeId,
    /// Destination terminal (reference id).
    pub dst: NodeId,
    /// Admission class.
    pub class: QueryClass,
}

impl PathQuery {
    /// An [`QueryClass::Interactive`] query.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        PathQuery {
            src,
            dst,
            class: QueryClass::Interactive,
        }
    }
}

/// Which admission policy a query runs under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Latency-sensitive traffic (the default).
    #[default]
    Interactive,
    /// Bulk / best-effort traffic (sweeps, prefetchers).
    Bulk,
}

impl QueryClass {
    /// Number of classes (queue-array dimension).
    pub const COUNT: usize = 2;

    /// All classes, in [`QueryClass::index`] order.
    pub const ALL: [QueryClass; QueryClass::COUNT] = [QueryClass::Interactive, QueryClass::Bulk];

    /// Dense index for per-class arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            QueryClass::Interactive => 0,
            QueryClass::Bulk => 1,
        }
    }

    /// Lower-case display name (also the metric-name suffix).
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Bulk => "bulk",
        }
    }
}

/// The answer: the channel hops of the path, the virtual layer the
/// path rides, and the epoch that produced both — always the *same*
/// epoch for all three fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathAnswer {
    /// Channels crossed, in order, in the answering epoch's view.
    pub hops: Vec<ChannelId>,
    /// Virtual layer of the path.
    pub vl: u8,
    /// Epoch the answer was computed from.
    pub epoch: u64,
}

/// Why a query was not answered. Every rejection under overload is one
/// of the *typed* variants ([`ServeError::Overloaded`] with a backoff
/// hint, or [`ServeError::Budget`] for an expired deadline) — callers
/// can always tell shed load from broken queries.
#[must_use = "a serve error distinguishes shed load from broken queries; inspect it"]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The terminal is quarantined (or gone) in the serving epoch.
    Quarantined(NodeId),
    /// The query is malformed (`src == dst`, a non-terminal id, …).
    BadQuery(String),
    /// The tables could not produce a path (should not happen for
    /// vet-clean epochs; surfaced instead of panicking).
    Unroutable(String),
    /// The query's class budget refused it (`max_nodes` admission or
    /// an expired `deadline` — including deadlines that passed while
    /// the query sat queued).
    Budget(RouteError),
    /// The shard shed this query: either the adaptive controller thinned
    /// a sheddable class, or the class queue hit its cap.
    Overloaded {
        /// How long to back off before resubmitting, derived from the
        /// observed queue delay. Always positive.
        retry_after: Duration,
    },
    /// The engine is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Quarantined(n) => write!(f, "terminal {} is quarantined", n.0),
            ServeError::BadQuery(why) => write!(f, "bad query: {why}"),
            ServeError::Unroutable(why) => write!(f, "unroutable: {why}"),
            ServeError::Budget(e) => write!(f, "admission refused: {e}"),
            ServeError::Overloaded { retry_after } => {
                write!(f, "overloaded: retry after {} us", retry_after.as_micros())
            }
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl Snapshot {
    /// Answer one `(src, dst)` reference pair from this epoch. All
    /// fields of the answer come from `self` — internal consistency is
    /// by construction.
    pub fn answer(&self, src: NodeId, dst: NodeId) -> Result<PathAnswer, ServeError> {
        if src == dst {
            return Err(ServeError::BadQuery("src == dst".into()));
        }
        let s = self.resolve(src).ok_or(ServeError::Quarantined(src))?;
        let d = self.resolve(dst).ok_or(ServeError::Quarantined(dst))?;
        let hops = self
            .routes
            .path_channels(&self.net, s, d)
            .map_err(|e| ServeError::Unroutable(e.to_string()))?;
        let (st, dt) = match (self.net.terminal_index(s), self.net.terminal_index(d)) {
            (Some(st), Some(dt)) => (st, dt),
            _ => return Err(ServeError::BadQuery("not a terminal".into())),
        };
        Ok(PathAnswer {
            hops,
            vl: self.routes.layer(st, dt),
            epoch: self.epoch,
        })
    }
}

/// Admission policy for one [`QueryClass`]: its budget, its weighted
/// share of each shard's drain capacity, and how it sheds.
#[derive(Clone, Debug)]
pub struct ClassPolicy {
    /// Size/deadline budget each query of this class runs under.
    pub budget: Budget,
    /// Deficit-weighted round-robin quantum: queries drained per visit
    /// when other classes are also backlogged. Relative weights are the
    /// fairness contract (8 vs 1 → 8:1 capacity split under overload).
    pub weight: u32,
    /// Per-shard queue cap; beyond it submissions are refused with
    /// [`ServeError::Overloaded`].
    pub max_queued: usize,
    /// Whether the adaptive [`ShedController`] may thin this class.
    /// Keep latency-sensitive classes `false` — they are protected by
    /// `weight` and shed only via deadline expiry and the queue cap.
    pub sheddable: bool,
}

impl Default for ClassPolicy {
    fn default() -> Self {
        ClassPolicy {
            budget: Budget::default(),
            weight: 1,
            max_queued: 4096,
            sheddable: false,
        }
    }
}

/// Per-class admission policies (weighted-fair across tenants).
#[derive(Clone, Debug)]
pub struct Admission {
    /// Policy for [`QueryClass::Interactive`] queries.
    pub interactive: ClassPolicy,
    /// Policy for [`QueryClass::Bulk`] queries.
    pub bulk: ClassPolicy,
}

impl Default for Admission {
    fn default() -> Self {
        Admission {
            interactive: ClassPolicy {
                weight: 8,
                ..ClassPolicy::default()
            },
            bulk: ClassPolicy {
                weight: 1,
                sheddable: true,
                ..ClassPolicy::default()
            },
        }
    }
}

impl Admission {
    fn policy(&self, class: QueryClass) -> &ClassPolicy {
        match class {
            QueryClass::Interactive => &self.interactive,
            QueryClass::Bulk => &self.bulk,
        }
    }

    /// The DWRR quanta, indexed by [`QueryClass::index`].
    fn quanta(&self) -> [u64; QueryClass::COUNT] {
        [
            u64::from(self.interactive.weight.max(1)),
            u64::from(self.bulk.weight.max(1)),
        ]
    }
}

/// Engine tunables.
#[derive(Clone, Debug)]
pub struct QueryOpts {
    /// Worker threads / shards (0 = [`std::thread::available_parallelism`]).
    pub workers: usize,
    /// Maximum queries a worker drains per batch.
    pub batch: usize,
    /// Admission control.
    pub admission: Admission,
    /// Adaptive shed controller tunables.
    pub shed: ShedConfig,
    /// Telemetry sink.
    pub recorder: RecorderHandle,
}

impl Default for QueryOpts {
    fn default() -> Self {
        QueryOpts {
            workers: 0,
            batch: 64,
            admission: Admission::default(),
            shed: ShedConfig::default(),
            recorder: telemetry::noop(),
        }
    }
}

pub(crate) type Key = (u32, u32);

#[derive(Default)]
pub(crate) struct AnswerState {
    pub(crate) answer: Option<Result<PathAnswer, ServeError>>,
    /// Waiters currently parked on `ready`; lets `fulfill` skip the
    /// wake syscall when every ticket-holder is still running.
    pub(crate) sleepers: usize,
}

/// A one-shot answer slot shared by *all* waiters coalesced onto one
/// in-flight `(src, dst)` key. The worker fulfills it exactly once.
pub(crate) struct AnswerCell {
    pub(crate) state: Mutex<AnswerState>,
    pub(crate) ready: Condvar,
}

impl AnswerCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(AnswerCell {
            state: Mutex::new(AnswerState::default()),
            ready: Condvar::new(),
        })
    }

    pub(crate) fn fulfill(&self, answer: Result<PathAnswer, ServeError>) {
        let mut st = self.state.lock().unwrap();
        if st.answer.is_none() {
            st.answer = Some(answer);
            if st.sleepers > 0 {
                self.ready.notify_all();
            }
        }
    }

    pub(crate) fn wait(&self) -> Result<PathAnswer, ServeError> {
        let mut st = self.state.lock().unwrap();
        while st.answer.is_none() {
            st.sleepers += 1;
            st = self.ready.wait(st).unwrap();
            st.sleepers -= 1;
        }
        st.answer.clone().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// A submitted query's handle; redeem it with [`Ticket::wait`]. A
/// dropped ticket abandons an answer somebody paid queue share for —
/// hence `#[must_use]`.
#[must_use = "a Ticket must be waited on; dropping it abandons the answer"]
pub struct Ticket {
    cell: Arc<AnswerCell>,
    guard: BudgetGuard,
    class: QueryClass,
    submitted: Instant,
    recorder: RecorderHandle,
}

impl Ticket {
    /// Block until the answer is in. A ticket redeemed after its class
    /// deadline gets the budget trip, not stale data. Records the
    /// submit-to-redeem latency into the class's SLO histogram when a
    /// recorder is attached.
    pub fn wait(self) -> Result<PathAnswer, ServeError> {
        let answer = self.cell.wait();
        if self.recorder.enabled() {
            self.recorder.observe(
                crate::slo::wait_hist(self.class),
                self.submitted.elapsed().as_micros() as u64,
            );
        }
        if let Err(e) = self.guard.check_deadline() {
            return Err(ServeError::Budget(e));
        }
        answer
    }

    /// The class this ticket was admitted under.
    pub fn class(&self) -> QueryClass {
        self.class
    }
}

/// One queued query: its coalescing key, when it was enqueued (for the
/// queue-delay signal) and when its class deadline expires (for
/// expired-in-queue shedding).
pub(crate) struct QueueEntry {
    pub(crate) key: Key,
    pub(crate) enqueued: Instant,
    /// `(expires_at, configured_deadline)`, from the class budget.
    pub(crate) deadline: Option<(Instant, Duration)>,
}

impl QueueEntry {
    /// An entry with no deadline, enqueued now (test/model helper).
    #[cfg(test)]
    pub(crate) fn immediate(key: Key) -> Self {
        QueueEntry {
            key,
            enqueued: Instant::now(),
            deadline: None,
        }
    }
}

/// One shard: its per-class work queues and the coalescing map, under a
/// single lock so a submit is one lock acquisition end to end.
pub(crate) struct ShardState {
    /// One FIFO per class, indexed by [`QueryClass::index`].
    pub(crate) queues: [VecDeque<QueueEntry>; QueryClass::COUNT],
    /// Deficit counters of the weighted round robin.
    pub(crate) deficit: [u64; QueryClass::COUNT],
    /// The class the round robin is currently serving.
    pub(crate) cursor: usize,
    /// In-flight keys: the cell their tickets share and how many
    /// tickets it has. Both change only under the shard lock, and the
    /// worker takes the count when it unlinks the entry.
    pub(crate) pending: FxHashMap<Key, (Arc<AnswerCell>, u64)>,
    /// The shard worker is parked on `work`; submitters only pay the
    /// wake syscall when this is set.
    pub(crate) parked: bool,
    pub(crate) closed: bool,
}

impl ShardState {
    /// `true` when no class has queued work.
    pub(crate) fn queues_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Deficit-weighted round-robin pop: the next entry to serve, or
    /// `None` when every queue is empty. A class arriving at the cursor
    /// with an exhausted deficit is granted its quantum (the "refill");
    /// it keeps the cursor until the quantum or its queue runs out, so
    /// backlogged classes split drain capacity in `quanta` proportion.
    pub(crate) fn pop_next(&mut self, quanta: &[u64; QueryClass::COUNT]) -> Option<QueueEntry> {
        if self.queues_empty() {
            return None;
        }
        loop {
            let c = self.cursor;
            if self.queues[c].is_empty() {
                self.deficit[c] = 0;
                self.cursor = (c + 1) % QueryClass::COUNT;
                continue;
            }
            if self.deficit[c] == 0 {
                // Fresh visit this round: grant the class its quantum.
                self.deficit[c] = quanta[c].max(1);
            }
            self.deficit[c] -= 1;
            let entry = self.queues[c].pop_front();
            if self.queues[c].is_empty() {
                self.deficit[c] = 0;
            }
            if self.deficit[c] == 0 {
                self.cursor = (c + 1) % QueryClass::COUNT;
            }
            return entry;
        }
    }
}

pub(crate) struct Shard {
    pub(crate) state: Mutex<ShardState>,
    pub(crate) work: Condvar,
}

impl Shard {
    pub(crate) fn new() -> Self {
        Shard {
            state: Mutex::new(ShardState {
                queues: std::array::from_fn(|_| VecDeque::new()),
                deficit: [0; QueryClass::COUNT],
                cursor: 0,
                pending: FxHashMap::default(),
                parked: false,
                closed: false,
            }),
            work: Condvar::new(),
        }
    }
}

struct Engine {
    store: Arc<SnapshotStore>,
    shards: Vec<Shard>,
    admission: Admission,
    shed: Arc<ShedController>,
    recorder: RecorderHandle,
}

/// The batched, coalescing path-query engine. See the module docs.
pub struct QueryEngine {
    inner: Arc<Engine>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryEngine {
    /// Spawn the shard workers over `store`'s snapshots.
    pub fn new(store: Arc<SnapshotStore>, opts: QueryOpts) -> Self {
        let shards = match opts.workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let inner = Arc::new(Engine {
            store,
            shards: (0..shards).map(|_| Shard::new()).collect(),
            admission: opts.admission,
            shed: Arc::new(ShedController::new(opts.shed)),
            recorder: opts.recorder,
        });
        let workers = (0..shards)
            .map(|shard| {
                let engine = inner.clone();
                let batch = opts.batch.max(1);
                std::thread::Builder::new()
                    .name(format!("serve-q{shard}"))
                    .spawn(move || engine.worker(shard, batch))
                    .expect("spawn shard worker")
            })
            .collect();
        QueryEngine { inner, workers }
    }

    /// Worker / shard count.
    pub fn workers(&self) -> usize {
        self.inner.shards.len()
    }

    /// The engine's adaptive shed controller (shared with the workers);
    /// lets a [`crate::RouteServer`] fold shed state into its event
    /// outcomes and benches report the admitted-rate floor.
    pub fn shed_controller(&self) -> Arc<ShedController> {
        self.inner.shed.clone()
    }

    /// Submit a query; the ticket blocks until a shard worker answers.
    pub fn submit(&self, query: PathQuery) -> Result<Ticket, ServeError> {
        let (guard, cell, submitted) = self.inner.submit(query)?;
        Ok(Ticket {
            cell,
            guard,
            class: query.class,
            submitted,
            recorder: self.inner.recorder.clone(),
        })
    }

    /// Submit and wait — the closed-loop client call.
    pub fn query(&self, query: PathQuery) -> Result<PathAnswer, ServeError> {
        self.submit(query)?.wait()
    }

    /// Submit a whole batch, then collect every answer, in order.
    pub fn query_batch(&self, queries: &[PathQuery]) -> Vec<Result<PathAnswer, ServeError>> {
        let tickets: Vec<Result<Ticket, ServeError>> =
            queries.iter().map(|&q| self.submit(q)).collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(e) => Err(e),
            })
            .collect()
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        for shard in &self.inner.shards {
            shard.state.lock().unwrap().closed = true;
            shard.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers drain their queues before exiting, so this is empty
        // unless a submit raced the close; fail those waiters — the
        // workers are gone, nobody else will.
        for shard in &self.inner.shards {
            let leftovers: Vec<Arc<AnswerCell>> = {
                let mut st = shard.state.lock().unwrap();
                for q in &mut st.queues {
                    q.clear();
                }
                st.pending.drain().map(|(_, (cell, _))| cell).collect()
            };
            for cell in leftovers {
                cell.fulfill(Err(ServeError::ShuttingDown));
            }
        }
    }
}

impl Engine {
    fn shard_of(key: Key) -> usize {
        // Fibonacci mix; shards are a small count, spread the pairs.
        let h = (u64::from(key.0) << 32 | u64::from(key.1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 33) as usize
    }

    fn submit(
        &self,
        query: PathQuery,
    ) -> Result<(BudgetGuard, Arc<AnswerCell>, Instant), ServeError> {
        let rec = &*self.recorder;
        let policy = self.admission.policy(query.class);
        let guard = policy.budget.start();
        // Admission: is the serving view within this class's size cap?
        if let Err(e) = guard.admit(&self.store.read().net) {
            rec.add(counters::QUERIES_REJECTED, 1);
            return Err(ServeError::Budget(e));
        }
        let now = Instant::now();
        let key: Key = (query.src.0, query.dst.0);
        let shard = &self.shards[Self::shard_of(key) % self.shards.len()];
        let mut st = shard.state.lock().unwrap();
        if st.closed {
            return Err(ServeError::ShuttingDown);
        }
        if let Some((cell, waiters)) = st.pending.get_mut(&key) {
            // Coalesce: ride the in-flight computation for this key.
            // Free for the fabric, so it bypasses the shed gates.
            *waiters += 1;
            let cell = cell.clone();
            drop(st);
            rec.add(counters::QUERIES_COALESCED, 1);
            return Ok((guard, cell, now));
        }
        // Adaptive shed: under sustained queue delay the AIMD
        // controller thins best-effort admissions before queues grow.
        if policy.sheddable && !self.shed.admit() {
            drop(st);
            rec.add(counters::QUERIES_SHED, 1);
            rec.add(counters::QUERIES_REJECTED, 1);
            return Err(ServeError::Overloaded {
                retry_after: self.shed.retry_after(),
            });
        }
        let class = query.class.index();
        if st.queues[class].len() >= policy.max_queued {
            drop(st);
            // A full queue means the backlog got ahead of the servo.
            self.shed.on_queue_full(rec);
            rec.add(counters::QUERIES_REJECTED, 1);
            return Err(ServeError::Overloaded {
                retry_after: self.shed.retry_after(),
            });
        }
        let cell = AnswerCell::new();
        st.pending.insert(key, (cell.clone(), 1));
        st.queues[class].push_back(QueueEntry {
            key,
            enqueued: now,
            deadline: policy.budget.deadline.map(|d| (now + d, d)),
        });
        let wake = st.parked;
        drop(st);
        if wake {
            shard.work.notify_one();
        }
        Ok((guard, cell, now))
    }

    fn worker(&self, shard: usize, batch: usize) {
        let rec = &*self.recorder;
        let quanta = self.admission.quanta();
        let shard = &self.shards[shard];
        let mut drained: Vec<(Key, Arc<AnswerCell>, u64)> = Vec::with_capacity(batch);
        // Expired-in-queue queries: fulfilled with the budget trip
        // outside the shard lock, charged no batch slot.
        let mut expired: Vec<(Arc<AnswerCell>, u64)> = Vec::new();
        loop {
            let mut max_wait_us = 0u64;
            let shutting_down = {
                let mut st = shard.state.lock().unwrap();
                let mut now = Instant::now();
                loop {
                    if drained.len() >= batch {
                        break;
                    }
                    if let Some(entry) = st.pop_next(&quanta) {
                        // Unlinking the cell here (under the shard
                        // lock) freezes its waiter count: later
                        // duplicates start a fresh entry.
                        let Some((cell, waiters)) = st.pending.remove(&entry.key) else {
                            continue;
                        };
                        let waited = now.saturating_duration_since(entry.enqueued);
                        max_wait_us = max_wait_us.max(waited.as_micros() as u64);
                        if let Some((at, total)) = entry.deadline {
                            if now >= at {
                                // Expired while queued: shed before a
                                // snapshot read is paid; no batch slot.
                                expired.push((cell, total.as_millis() as u64));
                                continue;
                            }
                        }
                        drained.push((entry.key, cell, waiters));
                        continue;
                    }
                    if !drained.is_empty() || !expired.is_empty() || st.closed {
                        break;
                    }
                    st.parked = true;
                    st = shard.work.wait(st).unwrap();
                    st.parked = false;
                    now = Instant::now();
                }
                drained.is_empty() && expired.is_empty() && st.closed
            };
            for (cell, limit) in expired.drain(..) {
                rec.add(counters::QUERIES_EXPIRED, 1);
                cell.fulfill(Err(ServeError::Budget(RouteError::BudgetExceeded {
                    resource: "deadline_ms",
                    limit,
                })));
            }
            if shutting_down {
                return; // closed and fully drained
            }
            if max_wait_us > 0 || !drained.is_empty() {
                // The shed controller's congestion signal: the worst
                // in-queue wait this drain observed.
                self.shed.observe_queue_delay(max_wait_us, rec);
                if rec.enabled() {
                    rec.observe(hists::QUEUE_DELAY_US, max_wait_us);
                }
            }
            if drained.is_empty() {
                continue;
            }
            // One snapshot serves the whole batch: consistent answers,
            // one store read amortized over every query drained.
            let snap = self.store.read();
            let keys = drained.len();
            let mut served = 0u64;
            telemetry::timed(rec, phases::SERVE_BATCH, || {
                for (key, cell, waiters) in drained.drain(..) {
                    let answer = snap.answer(NodeId(key.0), NodeId(key.1));
                    served += waiters;
                    cell.fulfill(answer);
                }
            });
            if rec.enabled() {
                rec.add(counters::QUERIES_SERVED, served);
                rec.observe(hists::SERVE_BATCH_SIZE, keys as u64);
                if snap.epoch < self.store.epoch() {
                    // An epoch swap landed mid-batch; these answers are
                    // one epoch behind — consistent, just not newest.
                    rec.add(counters::STALE_READS, served);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::{DfSssp, RoutingEngine};
    use fabric::topo;

    fn engine_over(net: &fabric::Network, opts: QueryOpts) -> (Arc<SnapshotStore>, QueryEngine) {
        let routes = DfSssp::new().route(net).unwrap();
        let store = SnapshotStore::open(net.clone(), routes, None).unwrap();
        let engine = QueryEngine::new(store.clone(), opts);
        (store, engine)
    }

    #[test]
    fn answers_match_direct_table_walks() {
        let net = topo::torus(&[3, 3], 1);
        let (store, engine) = engine_over(&net, QueryOpts::default());
        let snap = store.read();
        for &src in net.terminals() {
            for &dst in net.terminals() {
                if src == dst {
                    continue;
                }
                let a = engine.query(PathQuery::new(src, dst)).unwrap();
                assert_eq!(a.epoch, 0);
                assert_eq!(a.hops, snap.routes.path_channels(&net, src, dst).unwrap());
                let (st, dt) = (
                    net.terminal_index(src).unwrap(),
                    net.terminal_index(dst).unwrap(),
                );
                assert_eq!(a.vl, snap.routes.layer(st, dt));
            }
        }
    }

    #[test]
    fn batch_interface_answers_in_order() {
        let net = topo::kary_ntree(4, 2);
        let (_, engine) = engine_over(&net, QueryOpts::default());
        let ts = net.terminals();
        let queries: Vec<PathQuery> = (1..ts.len())
            .map(|i| PathQuery::new(ts[0], ts[i]))
            .collect();
        let answers = engine.query_batch(&queries);
        assert_eq!(answers.len(), queries.len());
        for a in answers {
            let a = a.unwrap();
            assert!(!a.hops.is_empty());
        }
    }

    #[test]
    fn duplicate_queries_coalesce() {
        let net = topo::torus(&[3, 3], 1);
        // std Arc: RecorderHandle is telemetry's alias, outside the shim.
        let collector = std::sync::Arc::new(telemetry::Collector::new());
        let opts = QueryOpts {
            recorder: collector.clone(),
            workers: 1,
            ..QueryOpts::default()
        };
        let (_, engine) = engine_over(&net, opts);
        let (a, b) = (net.terminals()[0], net.terminals()[1]);
        // Saturate one key from several client threads; at least some
        // must coalesce onto in-flight computations.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let engine = &engine;
                s.spawn(move || {
                    for _ in 0..200 {
                        engine.query(PathQuery::new(a, b)).unwrap();
                    }
                });
            }
        });
        // A worker counts its batch after fulfilling it: join the workers
        // before reading the counters.
        drop(engine);
        let snap = collector.snapshot();
        assert_eq!(
            snap.counters["queries_served"],
            8 * 200,
            "every query answered exactly once"
        );
        assert!(
            snap.counters.get("queries_coalesced").copied().unwrap_or(0) > 0,
            "a hot pair under concurrent load must coalesce"
        );
        assert!(snap.histograms.contains_key("serve_batch_size"));
        // Closed-loop clients redeem their tickets: the SLO histogram
        // for the class is populated.
        assert!(snap.histograms.contains_key("wait_us_interactive"));
    }

    #[test]
    fn bad_queries_are_typed_errors() {
        let net = topo::ring(4, 1);
        let (_, engine) = engine_over(&net, QueryOpts::default());
        let t = net.terminals()[0];
        assert!(matches!(
            engine.query(PathQuery::new(t, t)),
            Err(ServeError::BadQuery(_))
        ));
        let sw = net.switches()[0];
        assert!(matches!(
            engine.query(PathQuery::new(sw, t)),
            Err(ServeError::Quarantined(_))
        ));
    }

    #[test]
    fn admission_budget_rejects_oversized_views() {
        let net = topo::torus(&[4, 4], 1);
        let opts = QueryOpts {
            admission: Admission {
                // The torus view has 32 nodes; admit at most 8.
                interactive: ClassPolicy {
                    budget: Budget::new().max_nodes(8),
                    ..ClassPolicy::default()
                },
                ..Admission::default()
            },
            ..QueryOpts::default()
        };
        let (_, engine) = engine_over(&net, opts);
        let (a, b) = (net.terminals()[0], net.terminals()[1]);
        match engine.query(PathQuery::new(a, b)) {
            Err(ServeError::Budget(RouteError::BudgetExceeded { resource, .. })) => {
                assert_eq!(resource, "nodes")
            }
            other => panic!("expected budget rejection, got {other:?}"),
        }
        // Bulk class is not configured: it still flows.
        let bulk = PathQuery {
            class: QueryClass::Bulk,
            ..PathQuery::new(a, b)
        };
        assert!(engine.query(bulk).is_ok());
    }

    #[test]
    fn expired_deadline_surfaces_as_budget_trip() {
        let net = topo::ring(4, 1);
        let opts = QueryOpts {
            admission: Admission {
                interactive: ClassPolicy {
                    budget: Budget::new().deadline(Duration::ZERO),
                    ..ClassPolicy::default()
                },
                ..Admission::default()
            },
            ..QueryOpts::default()
        };
        let (_, engine) = engine_over(&net, opts);
        let (a, b) = (net.terminals()[0], net.terminals()[1]);
        match engine.query(PathQuery::new(a, b)) {
            Err(ServeError::Budget(RouteError::BudgetExceeded { resource, .. })) => {
                assert_eq!(resource, "deadline_ms")
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    #[test]
    fn expired_in_queue_sheds_without_a_batch_slot() {
        // A zero deadline expires every query *in the queue*: the drain
        // must fail it with the budget trip before paying a snapshot
        // read — queries_expired counts up, queries_served stays 0.
        let net = topo::ring(4, 1);
        let collector = std::sync::Arc::new(telemetry::Collector::new());
        let opts = QueryOpts {
            workers: 1,
            recorder: collector.clone(),
            admission: Admission {
                bulk: ClassPolicy {
                    budget: Budget::new().deadline(Duration::ZERO),
                    ..ClassPolicy::default()
                },
                ..Admission::default()
            },
            ..QueryOpts::default()
        };
        let (_, engine) = engine_over(&net, opts);
        let (a, b) = (net.terminals()[0], net.terminals()[1]);
        let q = PathQuery {
            class: QueryClass::Bulk,
            ..PathQuery::new(a, b)
        };
        for _ in 0..8 {
            match engine.query(q) {
                Err(ServeError::Budget(RouteError::BudgetExceeded { resource, .. })) => {
                    assert_eq!(resource, "deadline_ms")
                }
                other => panic!("expected in-queue expiry, got {other:?}"),
            }
        }
        drop(engine);
        let snap = collector.snapshot();
        assert!(snap.counters.get("queries_expired").copied().unwrap_or(0) >= 1);
        assert_eq!(
            snap.counters.get("queries_served").copied().unwrap_or(0),
            0,
            "an expired query must not consume a batch slot"
        );
    }

    #[test]
    fn full_class_queue_refuses_with_typed_backpressure() {
        let net = topo::kary_ntree(4, 2);
        let opts = QueryOpts {
            workers: 1,
            admission: Admission {
                bulk: ClassPolicy {
                    // Cap of zero: every non-coalesced bulk submit must
                    // bounce with a positive retry hint.
                    max_queued: 0,
                    sheddable: false,
                    ..ClassPolicy::default()
                },
                ..Admission::default()
            },
            ..QueryOpts::default()
        };
        let (_, engine) = engine_over(&net, opts);
        let (a, b) = (net.terminals()[0], net.terminals()[1]);
        let bulk = PathQuery {
            class: QueryClass::Bulk,
            ..PathQuery::new(a, b)
        };
        match engine.query(bulk) {
            Err(ServeError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected typed backpressure, got {other:?}"),
        }
        // Interactive queries are untouched by the bulk cap.
        assert!(engine.query(PathQuery::new(a, b)).is_ok());
    }

    #[test]
    fn weighted_drain_splits_capacity_by_quanta() {
        // Pure scheduling test over ShardState: both classes backlogged,
        // quanta 8:1 — 18 pops must split 16:2.
        let shard = Shard::new();
        let mut st = shard.state.lock().unwrap();
        for i in 0..100u32 {
            st.queues[0].push_back(QueueEntry::immediate((i, 1)));
            st.queues[1].push_back(QueueEntry::immediate((i, 2)));
        }
        let quanta = [8u64, 1u64];
        let mut by_class = [0usize; 2];
        for _ in 0..18 {
            let e = st.pop_next(&quanta).unwrap();
            by_class[(e.key.1 - 1) as usize] += 1;
        }
        assert_eq!(by_class, [16, 2], "DWRR must honor the 8:1 weights");
        // A lone backlogged class gets everything.
        st.queues[0].clear();
        st.deficit = [0, 0];
        for _ in 0..50 {
            let e = st.pop_next(&quanta).unwrap();
            assert_eq!(e.key.1, 2);
        }
    }

    #[test]
    fn shed_controller_thins_only_sheddable_classes() {
        let net = topo::kary_ntree(4, 2);
        let opts = QueryOpts {
            workers: 1,
            shed: ShedConfig {
                tick: Duration::from_millis(10),
                ..ShedConfig::default()
            },
            ..QueryOpts::default()
        };
        let (_, engine) = engine_over(&net, opts);
        // Force the controller to its floor by hand: one multiplicative
        // decrease fires per tick, so pace the pressure across ticks.
        let shed = engine.shed_controller();
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(11));
            shed.on_queue_full(&telemetry::Noop);
        }
        assert!(shed.shedding());
        let ts = net.terminals();
        let (mut ok, mut dropped) = (0u32, 0u32);
        for i in 0..200 {
            let q = PathQuery {
                class: QueryClass::Bulk,
                ..PathQuery::new(ts[i % ts.len()], ts[(i + 1) % ts.len()])
            };
            match engine.query(q) {
                Ok(_) => ok += 1,
                Err(ServeError::Overloaded { retry_after }) => {
                    assert!(retry_after > Duration::ZERO);
                    dropped += 1;
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(dropped > 0, "a floored controller must thin bulk traffic");
        assert!(ok > 0, "the floor must keep some bulk flowing");
        // Interactive is never rate-shed.
        for i in 0..50 {
            engine
                .query(PathQuery::new(ts[i % ts.len()], ts[(i + 1) % ts.len()]))
                .unwrap();
        }
    }

    #[test]
    fn shutdown_is_clean_under_load() {
        let net = topo::kary_ntree(4, 2);
        let (_, engine) = engine_over(&net, QueryOpts::default());
        let ts = net.terminals().to_vec();
        std::thread::scope(|s| {
            for off in 1..4 {
                let engine = &engine;
                let ts = &ts;
                s.spawn(move || {
                    for i in 0..500 {
                        let q = PathQuery::new(ts[i % ts.len()], ts[(i + off) % ts.len()]);
                        if q.src != q.dst {
                            let _ = engine.query(q);
                        }
                    }
                });
            }
        });
        drop(engine); // joins workers; must not hang or panic
    }
}
