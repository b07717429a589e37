//! Concurrent route serving: versioned snapshots, a batched query
//! engine, and the subnet-manager serving loop.
//!
//! Routing a fabric (the paper's subject) is the slow, occasional side
//! of the system; *answering* "how do I get from A to B right now" is
//! the fast, constant one. This crate is the fast side, built so the
//! two never get in each other's way:
//!
//! * [`Snapshot`] / [`SnapshotStore`] — epoch-versioned, immutable
//!   bundles of (network view, routes, VL assignment, vet report). A
//!   read clones the current `Arc` under a mutex a publish holds only
//!   to replace that pointer, so readers never wait on a reroute or
//!   its gate. The store's invariant is the crate's reason to
//!   exist: **a snapshot becomes visible only after `vet::check`
//!   passes**, so a bad reroute can never reach a reader — the
//!   last-good epoch keeps serving through engine failures, contained
//!   panics and rejected artifacts alike.
//! * [`QueryEngine`] — a sharded thread pool answering
//!   [`PathQuery`] → [`PathAnswer`] with per-batch snapshot reads
//!   (every answer internally consistent by construction), coalescing
//!   of duplicate in-flight queries, and weighted-fair admission per
//!   [`QueryClass`]: each class runs under a [`ClassPolicy`] (a
//!   [`dfsssp_core::Budget`] plus a deficit-weighted queue share), and
//!   overload is met in order by DWRR fairness, expired-in-queue
//!   shedding, the adaptive [`ShedController`] (AIMD on queue delay),
//!   and finally queue caps — every refusal a typed
//!   [`ServeError::Overloaded`] with a `retry_after` hint.
//! * [`SloPolicy`] / [`SloVerdict`] — per-class latency objectives
//!   judged from recorded histograms; what the overload bench and CI
//!   gate on.
//! * [`RouteServer`] — the writer loop: fabric events run through
//!   [`subnet::SmLoop`]'s escalation ladder under panic containment,
//!   and each successful reroute is offered to the store's vet gate.
//!
//! The crate is safe Rust throughout. Its concurrent cores take their
//! primitives from the [`sync`] shim, so `--features loom-tests`
//! compiles the exact production protocols (the query engine's
//! coalescing cell and its parked/wake handshake) against the `weave`
//! model checker (see `src/models.rs` and DESIGN.md §13).

#![warn(missing_docs)]

#[cfg(all(test, feature = "loom-tests"))]
mod models;
pub mod query;
pub mod server;
pub mod shed;
pub mod slo;
pub mod snapshot;
/// The workspace's one `std`-or-model-checker switch over sync primitives.
pub use weave::shim as sync;

pub use query::{
    Admission, ClassPolicy, PathAnswer, PathQuery, QueryClass, QueryEngine, QueryOpts, ServeError,
    Ticket,
};
pub use server::{RouteServer, ServedOutcome, ServerError};
pub use shed::{ShedConfig, ShedController};
pub use slo::{SloPolicy, SloVerdict};
pub use snapshot::{DiffScope, PublishError, Snapshot, SnapshotStore};
