//! Network fabric model for the DFSSSP reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`Network`] — a directed multigraph of switches and terminals connected
//!   by unidirectional *channels* (a bidirectional cable is a pair of
//!   channels that are each other's [`Channel::rev`]). This mirrors the
//!   channel model of Dally & Seitz that the paper's deadlock analysis uses.
//! * [`NetworkBuilder`] — incremental construction with port bookkeeping,
//!   mirroring how an InfiniBand fabric is cabled port-by-port.
//! * [`topo`] — generators for every topology family in the paper's
//!   evaluation (Table I, Figs 4–11): rings, meshes, tori, hypercubes,
//!   k-ary n-trees, extended generalized fat trees (XGFT), Kautz graphs,
//!   random irregular networks, and synthetic reconstructions of the six
//!   real-world systems.
//! * [`tables`] — forwarding tables + virtual-layer assignment, the artifact
//!   every routing engine produces and every simulator consumes.
//! * [`format`] — text and JSON interchange formats for networks and routes.
//! * [`degrade`] — link/switch failure injection to create the irregular
//!   networks the paper's introduction motivates.

pub mod builder;
pub mod degrade;
pub mod format;
pub mod graph;
pub mod rng;
pub mod stats;
pub mod tables;
pub mod topo;

pub use builder::NetworkBuilder;
pub use graph::{Channel, ChannelId, DepSlots, HopTable, Network, Node, NodeId, NodeKind};
pub use stats::TopologyStats;
pub use tables::{PathIter, Routes, RoutesError};
