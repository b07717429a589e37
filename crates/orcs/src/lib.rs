//! ORCS — an Oblivious Routing Congestion Simulator.
//!
//! Reimplementation of the simulator the paper uses for its §V
//! evaluation: given a network, routing tables and a traffic pattern, it
//! counts how many flows cross each channel and charges every flow the
//! reciprocal of the worst congestion on its path. The *effective
//! bisection bandwidth* is the average flow bandwidth over many random
//! bisection patterns (random perfect matchings between two random
//! halves of the endpoints).
//!
//! Like the paper's ORCS it reports that one number: every figure calls
//! [`effective_bisection_bandwidth`] (or [`flow_bandwidths`] for one
//! explicit pattern) and nothing else.
//!
//! * [`patterns`] — pattern generators: random bisections, shifts,
//!   transpose, stencils, incast and all-to-all phases.
//! * [`sim`] — congestion accounting and the eBB driver (parallel over
//!   patterns on `dfsssp_core::pool`, deterministic per seed).
//! * [`report`] — small summary-statistics helpers shared by the
//!   reproduction binaries.

pub mod patterns;
pub mod report;
pub mod sim;

pub use patterns::Pattern;
pub use report::Summary;
pub use sim::{
    effective_bisection_bandwidth, effective_bisection_bandwidth_recorded, flow_bandwidths,
    EbbOptions,
};
