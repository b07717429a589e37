//! `weave`: a first-party exhaustive model checker for the small
//! concurrent cores in this workspace (the query engine's coalescing cell,
//! the worker park/wake handshake and its deficit-weighted pop).
//!
//! # Why not loom?
//!
//! The build is offline-first: external dev-dependencies cannot be assumed
//! present. `weave` reimplements the part of loom's design these models
//! actually need — exhaustive schedule enumeration over explicit yield
//! points — with a deliberately smaller contract:
//!
//! * **Sequential consistency only.** Every modeled atomic step is explored
//!   at SeqCst strength regardless of the `Ordering` argument. This is
//!   *sound* for code that uses SeqCst everywhere or shares state only
//!   under a mutex (as the modeled `serve` cores do) and *incomplete* for
//!   weaker orderings: weave will not find bugs that require a relaxed
//!   reordering to surface. Miri and TSan in CI cover that axis; see
//!   DESIGN.md §13.
//! * **Cooperative replay scheduling.** Model threads are real OS threads,
//!   but exactly one runs at a time. At every modeled operation the active
//!   thread consults a shared schedule and may hand the baton to another
//!   runnable thread. A depth-first search over these decision points
//!   enumerates every interleaving (optionally preemption-bounded).
//! * **Leak tracking, not borrow tracking.** The modeled [`sync::Arc`]
//!   keeps a logical strong count per allocation and turns a handle still
//!   alive at execution end into a model failure. It has no raw-pointer
//!   API, so a freed allocation cannot be reached at all; provenance is
//!   Miri's ground.
//!
//! # Detected failure classes
//!
//! * assertion/panic in any model thread, on any schedule;
//! * deadlock: no runnable thread while some thread is unfinished —
//!   this is also how *lost wakeups* surface (a waiter sleeps forever);
//! * livelock: a single execution exceeding its step budget;
//! * a leaked `Arc` at execution end.
//!
//! # Example
//!
//! ```
//! use weave::sync::atomic::{AtomicUsize, Ordering};
//! use weave::sync::Arc;
//!
//! weave::model(|| {
//!     let n = Arc::new(AtomicUsize::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = weave::thread::spawn(move || {
//!         n2.fetch_add(1, Ordering::SeqCst);
//!     });
//!     n.fetch_add(1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(n.load(Ordering::SeqCst), 2);
//! });
//! ```
//!
//! Outside of a [`model`] closure every primitive passes straight through
//! to its `std` counterpart, so production code can be compiled against
//! `weave::sync` under a test-only cfg without behavioural change when no
//! model is running.
//! [`shim`] is that switch, written once for the workspace: `std`'s
//! primitives by default, this crate's under the `weave` feature.

mod sched;
pub mod shim;
pub mod sync;
pub mod thread;

pub use sched::{Builder, Failure, Report};

/// Run `f` under the default [`Builder`] and panic with a schedule trace on
/// the first failing interleaving. Returns the exploration [`Report`] when
/// every interleaving passes.
pub fn model<F: Fn() + 'static>(f: F) -> Report {
    match Builder::default().check(f) {
        Ok(report) => report,
        Err(failure) => panic!("weave model failed:\n{failure}"),
    }
}
