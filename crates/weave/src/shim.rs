//! The synchronisation shim `serve`'s concurrent cores import their
//! primitives from (`serve::sync` is a re-export of this module).
//!
//! * Default build: straight re-exports of `std::sync` / `std::thread` /
//!   `std::hint` — zero cost, identical semantics.
//! * `--features weave` (what `serve`'s `loom-tests` feature turns
//!   on): this crate's model primitives. Outside a [`crate::model`] run
//!   those pass through to `std`, so ordinary tests still behave
//!   normally; inside a model every operation becomes an exhaustively
//!   explored scheduling point.
//!
//! The re-export is public so integration tests and the interleaving
//! models can name the same `Arc` type `serve`'s public signatures use
//! under either configuration.

#[cfg(feature = "weave")]
pub use crate::{
    hint::spin_loop,
    sync::{atomic, Arc, Condvar, Mutex, MutexGuard},
    thread::yield_now,
};

#[cfg(not(feature = "weave"))]
pub use std::{
    hint::spin_loop,
    sync::{atomic, Arc, Condvar, Mutex, MutexGuard},
    thread::yield_now,
};
