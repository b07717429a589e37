//! A buffer-level network simulator with virtual channels and deadlock
//! detection.
//!
//! This is the executable counterpart of the paper's §III deadlock
//! argument: switches have **finite input buffers per (channel, virtual
//! lane)**, a physical channel transmits one packet per cycle (shared by
//! its virtual lanes, credit-style: a packet only moves when the target
//! buffer has a free slot), and terminals always consume. A routing whose
//! channel dependency graph is cyclic can reach a configuration where
//! every buffer on a cycle is full and waits on the next — the simulator
//! detects this as a cycle with zero movement and reports
//! [`Outcome::Deadlock`]. DFSSSP's layer assignment provably avoids it;
//! `examples/ring_deadlock.rs` and the Fig 2 repro binary show both
//! sides.

pub mod sim;
pub mod workload;

pub use sim::{
    simulate, simulate_detailed, simulate_recorded, OccupancyStats, Outcome, SimConfig, SimStats,
};
pub use workload::Workload;
