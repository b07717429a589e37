//! The cooperative replay scheduler and DFS schedule explorer.
//!
//! One execution runs the model closure with every spawned thread mapped to
//! a real OS thread, but gated so exactly one thread is `active` at a time.
//! Each modeled operation is a *scheduling point*: the active thread picks
//! the next thread to run. When more than one thread could run, the choice
//! is recorded in a decision vector; the explorer re-runs the closure,
//! incrementing the last branchable decision depth-first, until the whole
//! tree is exhausted.
//!
//! Failure of any kind (panic, deadlock, livelock, `Arc` misuse) sets the
//! `aborting` flag; every gated thread then unwinds with the private
//! [`Abort`] payload so OS threads exit promptly and the explorer can
//! report the failing schedule.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard};

/// Panic payload used to unwind model threads once a failure is recorded.
/// Never observed by user code: the explorer swallows it.
struct Abort;

/// What a parked thread is waiting for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Block {
    /// Waiting to acquire model mutex `mid`.
    Mutex(usize),
    /// Waiting on model condvar `cid` (released its mutex first).
    Condvar(usize),
    /// Waiting for thread `tid` to finish.
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Eligible to be scheduled.
    Runnable,
    /// Called `yield_now`: only scheduled when no non-yielded thread is
    /// runnable. This is what bounds spin-wait loops.
    Yielded,
    Blocked(Block),
    Finished,
}

/// One recorded scheduling decision: which of `options` eligible threads
/// ran. Only branching points (`options > 1`) are recorded.
struct Choice {
    index: usize,
    options: usize,
}

struct MutexState {
    owner: Option<usize>,
}

struct CondvarState {
    /// FIFO of `(thread, mutex)` waiters; `notify_one` wakes the head.
    waiters: Vec<(usize, usize)>,
}

/// Logical lifecycle of one tracked `sync::Arc` allocation.
struct Alloc {
    /// Live handles; anything but zero at execution end is a leak.
    logical: isize,
    type_name: &'static str,
}

struct State {
    threads: Vec<Status>,
    /// The one thread allowed to run right now.
    active: usize,
    aborting: bool,
    failure: Option<String>,

    /// DFS decision vector, persisted across executions.
    schedule: Vec<Choice>,
    /// Cursor into `schedule` for the current execution.
    depth: usize,
    steps: usize,
    max_steps: usize,
    preemptions: usize,
    preemption_bound: Option<usize>,
    /// Ring of recent `(thread, op)` labels for failure reports.
    trace: Vec<String>,

    mutexes: Vec<MutexState>,
    condvars: Vec<CondvarState>,
    allocs: Vec<Alloc>,

    os_handles: Vec<std::thread::JoinHandle<()>>,
    /// Spawned OS threads that have not yet exited (root not included).
    live_os: usize,
}

const TRACE_CAP: usize = 64;

impl State {
    fn new(max_steps: usize, preemption_bound: Option<usize>) -> Self {
        State {
            threads: Vec::new(),
            active: 0,
            aborting: false,
            failure: None,
            schedule: Vec::new(),
            depth: 0,
            steps: 0,
            max_steps,
            preemptions: 0,
            preemption_bound,
            trace: Vec::new(),
            mutexes: Vec::new(),
            condvars: Vec::new(),
            allocs: Vec::new(),
            os_handles: Vec::new(),
            live_os: 0,
        }
    }

    /// Reset per-execution state; the decision vector survives so the next
    /// execution replays its prefix.
    fn reset(&mut self) {
        self.threads.clear();
        self.threads.push(Status::Runnable); // root = tid 0
        self.active = 0;
        self.aborting = false;
        self.depth = 0;
        self.steps = 0;
        self.preemptions = 0;
        self.trace.clear();
        self.mutexes.clear();
        self.condvars.clear();
        self.allocs.clear();
        self.live_os = 0;
    }

    fn note(&mut self, tid: usize, label: &str) {
        if self.trace.len() == TRACE_CAP {
            self.trace.remove(0);
        }
        self.trace.push(format!("t{tid}: {label}"));
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|s| matches!(s, Status::Finished))
    }

    fn describe_threads(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, s)| format!("t{i}={s:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

pub(crate) struct Shared {
    state: StdMutex<State>,
    cv: StdCondvar,
}

thread_local! {
    /// `(scheduler, my thread id)` when this OS thread is part of a model.
    static CURRENT: RefCell<Option<(StdArc<Shared>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(StdArc<Shared>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when the calling OS thread belongs to an active model execution.
pub(crate) fn in_model() -> bool {
    // During unwinding, modeled operations pass through to avoid panicking
    // inside destructors (a double panic would abort the process).
    !std::thread::panicking() && CURRENT.with(|c| c.borrow().is_some())
}

/// Record `msg` as the model failure, wake everyone, and unwind.
fn fail(sh: &Shared, mut st: StdGuard<'_, State>, msg: String) -> ! {
    if st.failure.is_none() {
        let detail = format!(
            "{msg}\n  threads: [{}]\n  recent ops:\n    {}",
            st.describe_threads(),
            st.trace.join("\n    "),
        );
        st.failure = Some(detail);
    }
    st.aborting = true;
    sh.cv.notify_all();
    drop(st);
    std::panic::panic_any(Abort);
}

/// Compute the threads eligible to run next, ordered so the current thread
/// (when eligible) comes first — depth-first search therefore explores the
/// no-preemption continuation before any context switch.
fn eligible(st: &mut State, me: usize) -> Vec<usize> {
    let mut opts: Vec<usize> = Vec::new();
    let mut yielded: Vec<usize> = Vec::new();
    for (tid, s) in st.threads.iter().enumerate() {
        match s {
            Status::Runnable => opts.push(tid),
            Status::Yielded => yielded.push(tid),
            _ => {}
        }
    }
    // A yielded thread runs only when nothing non-yielded can: this is what
    // keeps spin-wait loops from exploding the schedule tree.
    if opts.is_empty() {
        for &t in &yielded {
            st.threads[t] = Status::Runnable;
        }
        opts = yielded;
    }
    if let Some(p) = opts.iter().position(|&t| t == me) {
        opts.remove(p);
        opts.insert(0, me);
        // CHESS-style preemption bounding: once the budget is spent, a
        // runnable current thread keeps running.
        if let Some(bound) = st.preemption_bound {
            if st.preemptions >= bound {
                return vec![me];
            }
        }
    }
    opts
}

/// Replay or extend the decision vector; only branching points are stored.
fn pick(sh: &Shared, st: &mut StdGuard<'_, State>, options: usize) -> usize {
    if options <= 1 {
        return 0;
    }
    let d = st.depth;
    st.depth += 1;
    if d < st.schedule.len() {
        if st.schedule[d].options != options {
            // The model did something schedule-dependent outside weave's
            // view (e.g. real time, an untracked side channel). Surface it
            // rather than exploring garbage.
            if st.failure.is_none() {
                st.failure = Some(format!(
                    "nondeterministic replay: depth {d} had {} options, now {options}",
                    st.schedule[d].options
                ));
            }
            st.aborting = true;
            sh.cv.notify_all();
            std::panic::panic_any(Abort);
        }
        st.schedule[d].index
    } else {
        st.schedule.push(Choice { index: 0, options });
        0
    }
}

/// Park until this thread is the active one (or the model is aborting).
fn wait_turn<'a>(sh: &'a Shared, mut st: StdGuard<'a, State>, me: usize) -> StdGuard<'a, State> {
    loop {
        if st.aborting {
            drop(st);
            std::panic::panic_any(Abort);
        }
        if st.active == me {
            return st;
        }
        st = sh.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// The heart of the scheduler: pick who runs next and hand over the baton.
/// Returns once `me` is scheduled again (immediately if `me` was picked).
fn transfer<'a>(sh: &'a Shared, mut st: StdGuard<'a, State>, me: usize) -> StdGuard<'a, State> {
    let options = eligible(&mut st, me);
    if options.is_empty() {
        let msg = format!("deadlock: no runnable thread ({})", st.describe_threads());
        fail(sh, st, msg);
    }
    let idx = pick(sh, &mut st, options.len());
    let next = options[idx];
    if next != me && matches!(st.threads[me], Status::Runnable) {
        st.preemptions += 1;
    }
    st.threads[next] = Status::Runnable;
    st.active = next;
    if next != me {
        sh.cv.notify_all();
        st = wait_turn(sh, st, me);
    }
    st
}

/// Common prologue for every modeled operation: abort check, trace, step
/// budget, then a scheduling decision *before* the operation takes effect.
fn op_prologue<'a>(sh: &'a Shared, me: usize, label: &str) -> StdGuard<'a, State> {
    let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
    if st.aborting {
        drop(st);
        std::panic::panic_any(Abort);
    }
    st.note(me, label);
    st.steps += 1;
    if st.steps > st.max_steps {
        let max = st.max_steps;
        let msg = format!("livelock suspected: execution exceeded {max} steps");
        fail(sh, st, msg);
    }
    transfer(sh, st, me)
}

/// A plain scheduling point around one shared-memory operation.
pub(crate) fn sched_point(label: &str) {
    if let Some((sh, me)) = current() {
        if std::thread::panicking() {
            return;
        }
        let st = op_prologue(&sh, me, label);
        drop(st);
    }
}

// ---------------------------------------------------------------------------
// Mutex / Condvar protocol (logical ownership; real exclusion comes from the
// one-active-thread invariant).
// ---------------------------------------------------------------------------

pub(crate) fn register_mutex() -> usize {
    let (sh, _) = current().expect("register_mutex outside model");
    let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
    st.mutexes.push(MutexState { owner: None });
    st.mutexes.len() // 1-based so 0 can mean "unregistered"
}

pub(crate) fn register_condvar() -> usize {
    let (sh, _) = current().expect("register_condvar outside model");
    let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
    st.condvars.push(CondvarState {
        waiters: Vec::new(),
    });
    st.condvars.len()
}

pub(crate) fn mutex_lock(id: usize) {
    let Some((sh, me)) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let mid = id - 1;
    let mut st = op_prologue(&sh, me, "mutex.lock");
    loop {
        if st.mutexes[mid].owner.is_none() {
            st.mutexes[mid].owner = Some(me);
            return;
        }
        st.threads[me] = Status::Blocked(Block::Mutex(mid));
        st = transfer(&sh, st, me);
    }
}

pub(crate) fn mutex_unlock(id: usize) {
    let Some((sh, me)) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let mid = id - 1;
    let mut st = op_prologue(&sh, me, "mutex.unlock");
    debug_assert_eq!(st.mutexes[mid].owner, Some(me), "unlock by non-owner");
    st.mutexes[mid].owner = None;
    wake_mutex_waiters(&mut st, mid);
    let st = transfer(&sh, st, me);
    drop(st);
}

fn wake_mutex_waiters(st: &mut State, mid: usize) {
    for s in st.threads.iter_mut() {
        if *s == Status::Blocked(Block::Mutex(mid)) {
            *s = Status::Runnable;
        }
    }
}

/// Atomically release mutex `mid`, park on condvar `cid`, and on wake
/// re-acquire the mutex before returning. Lost wakeups therefore manifest
/// as a deadlock (the waiter never leaves `Blocked(Condvar)`).
pub(crate) fn condvar_wait(cid: usize, mutex_id: usize) {
    let Some((sh, me)) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let (cid, mid) = (cid - 1, mutex_id - 1);
    let mut st = op_prologue(&sh, me, "condvar.wait");
    debug_assert_eq!(st.mutexes[mid].owner, Some(me), "wait without the lock");
    st.mutexes[mid].owner = None;
    wake_mutex_waiters(&mut st, mid);
    st.condvars[cid].waiters.push((me, mid));
    st.threads[me] = Status::Blocked(Block::Condvar(cid));
    st = transfer(&sh, st, me);
    // Notified: re-acquire the mutex.
    loop {
        if st.mutexes[mid].owner.is_none() {
            st.mutexes[mid].owner = Some(me);
            return;
        }
        st.threads[me] = Status::Blocked(Block::Mutex(mid));
        st = transfer(&sh, st, me);
    }
}

pub(crate) fn condvar_notify(cid: usize, all: bool) {
    let Some((sh, me)) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let cid = cid - 1;
    let label = if all {
        "condvar.notify_all"
    } else {
        "condvar.notify_one"
    };
    let mut st = op_prologue(&sh, me, label);
    let woken: Vec<(usize, usize)> = if all {
        std::mem::take(&mut st.condvars[cid].waiters)
    } else if st.condvars[cid].waiters.is_empty() {
        Vec::new()
    } else {
        vec![st.condvars[cid].waiters.remove(0)]
    };
    for (tid, mid) in woken {
        // The waiter still has to re-acquire its mutex; park it there
        // directly if the mutex is held so the scheduler never wastes a
        // branch scheduling a thread that would immediately re-block.
        st.threads[tid] = if st.mutexes[mid].owner.is_some() {
            Status::Blocked(Block::Mutex(mid))
        } else {
            Status::Runnable
        };
    }
    let st = transfer(&sh, st, me);
    drop(st);
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

pub(crate) fn yield_model() {
    let Some((sh, me)) = current() else {
        std::thread::yield_now();
        return;
    };
    if std::thread::panicking() {
        return;
    }
    let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
    if st.aborting {
        drop(st);
        std::panic::panic_any(Abort);
    }
    st.note(me, "yield");
    st.steps += 1;
    if st.steps > st.max_steps {
        let max = st.max_steps;
        let msg = format!("livelock suspected: execution exceeded {max} steps");
        fail(&sh, st, msg);
    }
    st.threads[me] = Status::Yielded;
    let st = transfer(&sh, st, me);
    drop(st);
}

/// Spawn a model thread. Returns `(tid, result slot)`; the closure runs on
/// a real OS thread gated by the scheduler.
pub(crate) fn spawn_model<T: Send + 'static>(
    f: Box<dyn FnOnce() -> T + Send + 'static>,
) -> (usize, StdArc<StdMutex<Option<T>>>) {
    let (sh, me) = current().expect("spawn_model outside model");
    let slot = StdArc::new(StdMutex::new(None));
    let tid = {
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        st.threads.push(Status::Runnable);
        st.live_os += 1;
        st.threads.len() - 1
    };
    let sh2 = StdArc::clone(&sh);
    let slot2 = StdArc::clone(&slot);
    let os = std::thread::Builder::new()
        .name(format!("weave-t{tid}"))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((StdArc::clone(&sh2), tid)));
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Do not run a single instruction before being scheduled.
                let st = sh2.state.lock().unwrap_or_else(|e| e.into_inner());
                drop(wait_turn(&sh2, st, tid));
                f()
            }));
            CURRENT.with(|c| *c.borrow_mut() = None);
            let mut st = sh2.state.lock().unwrap_or_else(|e| e.into_inner());
            match result {
                Ok(v) => {
                    *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                    thread_end(&sh2, &mut st, tid, None);
                }
                Err(payload) => {
                    if payload.is::<Abort>() {
                        st.threads[tid] = Status::Finished;
                    } else {
                        thread_end(&sh2, &mut st, tid, Some(panic_message(payload)));
                    }
                }
            }
            st.live_os -= 1;
            sh2.cv.notify_all();
        })
        .expect("failed to spawn model thread");
    {
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        st.os_handles.push(os);
    }
    // The spawn itself is a scheduling point: the child may run first.
    sched_point("spawn");
    let _ = me;
    (tid, slot)
}

/// Mark `tid` finished, wake joiners, and schedule a successor. Called with
/// the state lock held, from the ending thread itself.
fn thread_end(sh: &Shared, st: &mut StdGuard<'_, State>, tid: usize, panic_msg: Option<String>) {
    st.threads[tid] = Status::Finished;
    for s in st.threads.iter_mut() {
        if *s == Status::Blocked(Block::Join(tid)) {
            *s = Status::Runnable;
        }
    }
    if let Some(msg) = panic_msg {
        if st.failure.is_none() {
            let detail = format!(
                "thread t{tid} panicked: {msg}\n  threads: [{}]\n  recent ops:\n    {}",
                st.describe_threads(),
                st.trace.join("\n    "),
            );
            st.failure = Some(detail);
        }
        st.aborting = true;
        sh.cv.notify_all();
        return;
    }
    if st.aborting || st.all_finished() {
        sh.cv.notify_all();
        return;
    }
    let options = eligible(st, tid);
    if options.is_empty() {
        let msg = format!("deadlock: no runnable thread ({})", st.describe_threads());
        if st.failure.is_none() {
            let detail = format!("{msg}\n  recent ops:\n    {}", st.trace.join("\n    "));
            st.failure = Some(detail);
        }
        st.aborting = true;
        sh.cv.notify_all();
        return;
    }
    let idx = pick_end(sh, st, options.len());
    st.threads[options[idx]] = Status::Runnable;
    st.active = options[idx];
    sh.cv.notify_all();
}

/// `pick` without the fail-on-divergence path (we already hold the guard in
/// a context that cannot unwind into `fail`): divergence here aborts too.
fn pick_end(sh: &Shared, st: &mut StdGuard<'_, State>, options: usize) -> usize {
    if options <= 1 {
        return 0;
    }
    let d = st.depth;
    st.depth += 1;
    if d < st.schedule.len() {
        if st.schedule[d].options != options {
            if st.failure.is_none() {
                st.failure = Some(format!(
                    "nondeterministic replay: depth {d} had {} options, now {options}",
                    st.schedule[d].options
                ));
            }
            st.aborting = true;
            sh.cv.notify_all();
            return 0;
        }
        st.schedule[d].index
    } else {
        st.schedule.push(Choice { index: 0, options });
        0
    }
}

pub(crate) fn join_model(tid: usize) {
    let Some((sh, me)) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let mut st = op_prologue(&sh, me, "join");
    while !matches!(st.threads[tid], Status::Finished) {
        st.threads[me] = Status::Blocked(Block::Join(tid));
        st = transfer(&sh, st, me);
    }
}

// ---------------------------------------------------------------------------
// Tracked Arc registry
// ---------------------------------------------------------------------------

/// Register a fresh allocation (logical count 1).
pub(crate) fn alloc_register(type_name: &'static str) -> usize {
    let (sh, me) = current().expect("alloc_register outside model");
    let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
    st.note(me, "arc.new");
    st.allocs.push(Alloc {
        logical: 1,
        type_name,
    });
    st.allocs.len() // 1-based; 0 = untracked
}

/// A clone (`delta` 1) or drop (`delta` -1) of allocation `id`: a
/// scheduling point that moves its logical count.
pub(crate) fn alloc_event(id: usize, label: &str, delta: isize) {
    let Some((sh, me)) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let mut st = op_prologue(&sh, me, label);
    st.allocs[id - 1].logical += delta;
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// Exploration statistics for a fully passed model.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Number of complete executions (distinct schedules) explored.
    pub executions: usize,
    /// True when the schedule tree was exhausted; false when the search
    /// stopped at the execution cap.
    pub complete: bool,
}

/// A failing interleaving: the message embeds thread states and the recent
/// operation trace; `schedule` is the branch-decision vector that reaches
/// the failure deterministically.
#[derive(Debug)]
pub struct Failure {
    /// Human-readable description (deadlock, panic, leaked Arc, …).
    pub message: String,
    /// 1-based index of the failing execution.
    pub execution: usize,
    /// Branch decisions (index per branching point) reproducing the failure.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\n  execution #{} with schedule {:?}",
            self.message, self.execution, self.schedule
        )
    }
}

impl std::error::Error for Failure {}

/// Configures and runs an exhaustive exploration. The defaults explore the
/// full tree (no preemption bound) with generous budgets; models with three
/// or more threads usually want `preemption_bound: Some(2)`.
#[derive(Debug, Clone, Copy)]
pub struct Builder {
    /// Max context switches away from a runnable thread per execution
    /// (CHESS-style). `None` = unbounded (full tree).
    pub preemption_bound: Option<usize>,
    /// Per-execution step budget; exceeding it reports a livelock.
    pub max_steps: usize,
    /// Cap on explored executions; hitting it yields `Report.complete =
    /// false` rather than an error.
    pub max_executions: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            preemption_bound: None,
            max_steps: 20_000,
            max_executions: 500_000,
        }
    }
}

impl Builder {
    /// Explore every schedule of `f`. Returns the first failure found, or a
    /// report once the tree is exhausted (or the execution cap is hit).
    pub fn check<F: Fn()>(&self, f: F) -> Result<Report, Failure> {
        assert!(current().is_none(), "nested weave models are not supported");
        let shared = StdArc::new(Shared {
            state: StdMutex::new(State::new(self.max_steps, self.preemption_bound)),
            cv: StdCondvar::new(),
        });
        let mut executions = 0usize;
        loop {
            executions += 1;
            {
                let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                st.reset();
            }
            CURRENT.with(|c| *c.borrow_mut() = Some((StdArc::clone(&shared), 0)));
            let result = catch_unwind(AssertUnwindSafe(&f));
            CURRENT.with(|c| *c.borrow_mut() = None);
            self.finish_execution(&shared, result);
            if let Some(failure) = self.cleanup_execution(&shared) {
                return Err(Failure {
                    message: failure,
                    execution: executions,
                    schedule: {
                        let st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                        st.schedule.iter().map(|c| c.index).collect()
                    },
                });
            }
            // Depth-first: bump the deepest branch with options left.
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match st.schedule.last_mut() {
                    None => {
                        return Ok(Report {
                            executions,
                            complete: true,
                        })
                    }
                    Some(c) if c.index + 1 < c.options => {
                        c.index += 1;
                        break;
                    }
                    Some(_) => {
                        st.schedule.pop();
                    }
                }
            }
            if executions >= self.max_executions {
                return Ok(Report {
                    executions,
                    complete: false,
                });
            }
        }
    }

    /// Handle the root closure's return: mark root finished, keep driving
    /// remaining threads, then wait for every OS thread to exit.
    fn finish_execution(
        &self,
        shared: &StdArc<Shared>,
        result: Result<(), Box<dyn std::any::Any + Send>>,
    ) {
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        match result {
            Ok(()) => {
                let mut guard = st;
                thread_end(shared, &mut guard, 0, None);
                st = guard;
            }
            Err(payload) => {
                if payload.is::<Abort>() {
                    st.threads[0] = Status::Finished;
                    // failure/aborting already recorded by `fail`.
                } else {
                    let mut guard = st;
                    thread_end(shared, &mut guard, 0, Some(panic_message(payload)));
                    st = guard;
                }
            }
        }
        while st.live_os > 0 {
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Leak check and handle reaping. Returns the recorded failure (if
    /// any) for this execution.
    fn cleanup_execution(&self, shared: &StdArc<Shared>) -> Option<String> {
        let (handles, failure) = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.failure.is_none() {
                let leaks: Vec<String> = st
                    .allocs
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.logical != 0)
                    .map(|(i, a)| format!("#{i} ({}) logical count {}", a.type_name, a.logical))
                    .collect();
                if !leaks.is_empty() {
                    st.failure = Some(format!(
                        "leaked Arc allocation(s): {}\n  recent ops:\n    {}",
                        leaks.join(", "),
                        st.trace.join("\n    "),
                    ));
                }
            }
            (std::mem::take(&mut st.os_handles), st.failure.take())
        };
        for h in handles {
            let _ = h.join();
        }
        failure
    }
}
