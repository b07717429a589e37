//! Application-level benchmark models over the congestion simulator.
//!
//! The paper's §VI validates DFSSSP on the Deimos cluster with Netgauge's
//! effective-bisection-bandwidth benchmark, an all-to-all microbenchmark
//! and the NAS Parallel Benchmarks. We have no 724-node InfiniBand
//! cluster, so this crate models those workloads' *communication
//! patterns* and derives their timing from the same congestion simulator
//! the paper's §V uses (see DESIGN.md §3 for why this substitution
//! preserves the comparisons): compute time is routing-independent, so
//! every difference between routings comes from congestion on the modeled
//! traffic — exactly the paper's argument.
//!
//! * [`alloc`] — mapping benchmark ranks onto fabric terminals.
//! * [`netgauge`] — the eBB measurement (Fig 12).
//! * [`alltoall`] — phased all-to-all timing (Fig 13).
//! * [`nas`] — NAS BT/CG/FT/LU/MG/SP models (Figs 14–16, Table II).
//! * [`traffic`] — open-loop query traces (Poisson/bursty arrivals,
//!   NAS/hotspot/diurnal/flash-crowd mixes) for overload-testing the
//!   serving path.

pub mod alloc;
pub mod alltoall;
pub mod nas;
pub mod netgauge;
pub mod traffic;

pub use alloc::Allocation;
pub use alltoall::alltoall_time;
pub use nas::{NasBenchmark, NasResult};
pub use netgauge::{netgauge_ebb, point_to_point_reference};
pub use traffic::{Arrivals, Mix, Shape, TraceQuery, TraceSpec, TrafficClass};
