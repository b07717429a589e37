//! `perf`: the event-to-first-answer benchmark.
//!
//! One number matters to whoever runs this routing stack inside a subnet
//! manager: a fabric event goes in, how long until a query is answered
//! from the new epoch? This crate measures that number, the cold-boot
//! and steady-serving numbers beside it, and — in a separate traced run
//! — how each of them splits over the layers (`fabric`, `core`, `delta`,
//! `vet`, `subnet`, `serve`). It drives the production stack through
//! public functions only; no measured crate is instrumented for it.
//!
//! * [`catalog`] — every workload and metric, with units and bounds.
//! * [`affinity`] — one-CPU pinning for the closed-loop query segment.
//! * [`calib`] — the kernel that brings timings to reference speed.
//! * [`stack`] — the one serving configuration and the seeded inputs.
//! * [`run`] — one workload in one process: segments, gate, results.
//! * [`shadow`] / [`trace`] — the per-layer replay and its spans.
//! * [`report`] — the `dfsssp-perf/v1` report, `validate`, `compare`.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! what moves what.

pub mod affinity;
pub mod calib;
pub mod catalog;
pub mod report;
pub mod run;
pub mod shadow;
pub mod stack;
pub mod stats;
pub mod trace;
