//! DFSSSP: deadlock-free single-source-shortest-path routing.
//!
//! This crate implements the primary contribution of *Deadlock-Free
//! Oblivious Routing for Arbitrary Topologies* (Domke, Hoefler, Nagel,
//! IPDPS 2011):
//!
//! * [`sssp`] — the balanced single-source-shortest-path routing the paper
//!   builds on (its Algorithm 1).
//! * [`cdg`] — channel dependency graphs with per-edge path bookkeeping and
//!   a resumable cycle search (the machinery of §III/§IV).
//! * [`app`] — the acyclic path partitioning (APP) problem: the formal
//!   model (§III-A), an exact solver for small instances, and the
//!   graph-coloring reduction used in the NP-completeness proof
//!   (Theorem 1).
//! * [`dfsssp`] — deadlock-free SSSP (Algorithm 2): the offline
//!   cycle-breaking layer assignment, the online LASH-style variant, and
//!   the layer-balancing step.
//! * [`heuristics`] — the three cycle-break heuristics of §IV (weakest
//!   edge, heaviest edge, first edge).
//! * [`verify`] — deadlock-freedom verification via the Dally & Seitz
//!   condition (per-layer CDG acyclicity) plus routing sanity checks.
//!
//! The crate exposes a single entry point for algorithms, the
//! [`RoutingEngine`] trait, producing [`fabric::Routes`] that the
//! simulator crates consume.

pub mod app;
pub mod balance;
pub mod budget;
pub mod cdg;
pub mod dfsssp;
pub mod dijkstra;
pub mod engine;
pub mod heuristics;
pub mod paths;
pub mod pool;
pub mod quality;
pub mod sssp;
pub mod verify;
pub mod wrapper;

pub use budget::{Budget, BudgetGuard};
pub use dfsssp::{DfSssp, LayerAssignMode};
pub use engine::*;
pub use heuristics::CycleBreakHeuristic;
pub use quality::{route_quality, RouteQuality};
pub use sssp::Sssp;
pub use wrapper::DeadlockFree;
