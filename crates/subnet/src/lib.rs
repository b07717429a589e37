//! An OpenSM-like subnet manager for the simulated fabric.
//!
//! The paper implements DFSSSP inside the InfiniBand Open Subnet Manager;
//! this crate rebuilds that deployment surface:
//!
//! * [`discovery`] — a subnet sweep: starting from the SM's node, walk
//!   the fabric port by port and inventory nodes and links.
//! * [`lid`] — local-identifier assignment for every discovered port.
//! * [`lft`] — linear forwarding tables (LID → output port per switch),
//!   compiled from a routing engine's [`fabric::Routes`], plus SL→VL
//!   tables and path records carrying each pair's service level.
//! * [`manager`] — the orchestration: sweep → assign LIDs → run the
//!   routing engine → program tables → validate connectivity by walking
//!   the programmed LFTs (hardware semantics: ports, not channels).
//! * [`events`] — the fault-tolerance runtime: cable/switch down *and up*
//!   events, flap coalescing, and a graceful-degradation escalation
//!   ladder (widen the VL budget, fall back to Up*/Down*, quarantine
//!   stranded terminals).
//! * [`transition`] — safe table transitions: old∪new CDG union checks
//!   and destination-batched drain-and-swap plans for hazardous windows.
//! * [`chaos`] — a failure-campaign harness: seeded schedules of faults
//!   and recoveries with per-event repair-cost accounting.
//! * [`armor`] — panic containment for the serving path: `catch_unwind`
//!   around every engine call (a panic is retried a bounded number of
//!   times) and a circuit breaker over a crashing primary.

pub mod armor;
pub mod chaos;
pub mod discovery;
pub mod events;
pub mod lft;
pub mod lid;
pub mod manager;
pub mod transition;

pub use armor::{BreakerState, CircuitBreaker};
pub use chaos::{
    run_campaign, run_campaign_recorded, schedule, Batch, CampaignReport, CampaignSpec, EventRecord,
};
pub use discovery::{discover, DiscoveredFabric};
pub use events::{EventOutcome, FabricEvent, Rung, SmLoop};
pub use lft::{FabricTables, LftDiff, PathRecord, WalkError};
pub use lid::{Lid, LidMap};
pub use manager::{ProgrammedFabric, SmError, SubnetManager};
pub use transition::{plan_update, remap_routes, DiffPlanProvider, UpdatePlan, UpdateStage};
