//! The subnet manager: sweep, route, program, validate.
//!
//! A run checks the engine's answer twice, each with one pass over the
//! tables. The *guard* walks the engine's [`Routes`] by destination
//! (`vet`'s colored walk): broken tables and cyclic layers are refused
//! before anything is programmed. The *validation* then walks the
//! compiled LFTs port by port ([`FabricTables::validate`]) — hardware
//! semantics, the check that programming lost nothing. The guard's walk
//! is handed back to [`crate::events::SmLoop`], whose transition planner
//! reads the new routing's dependency edges from it instead of walking
//! the same tables again, and which keeps it as the base the next
//! event's guard walks from, as it keeps the programmed tables the next
//! validation carries unchanged columns from.

use crate::discovery::{discover, DiscoveredFabric};
use crate::lft::{FabricTables, WalkError};
use crate::lid::LidMap;
use crate::transition::{cyclic_layers, walk_artifact, Artifact};
use dfsssp_core::{RouteError, RoutingEngine};
use fabric::{Network, NodeId, Routes};
use telemetry::{phases, timed, Recorder};
use vet::TableWalk;

/// Errors of a subnet-manager run.
#[derive(Debug)]
pub enum SmError {
    /// The sweep did not reach every node.
    PartialDiscovery {
        /// Nodes found.
        found: usize,
        /// Live nodes in the fabric.
        total: usize,
    },
    /// The routing engine failed.
    Routing(RouteError),
    /// The engine's tables are broken (loop, missing entry, unusable
    /// next hop) before deadlock freedom is even a question. Carries the
    /// analyzer's first error finding with its witness.
    BrokenTables(vet::Diagnostic),
    /// The programmed tables fail the connectivity walk.
    Walk(WalkError),
    /// The routing needs more VLs than the hardware has.
    TooManyVls {
        /// VLs required by the routing.
        required: usize,
        /// VLs the hardware offers.
        available: usize,
    },
    /// The routing's dependency graph has a cyclic layer: unsafe to
    /// deploy (only possible for engines that are not deadlock-free).
    CyclicLayers(Vec<u8>),
    /// A fabric event referenced hardware the reference network does not
    /// have (or the wrong kind of node).
    InvalidEvent(String),
    /// The routing engine panicked; the payload message is attached.
    /// Produced by [`crate::armor::contain`] — the panic never crosses
    /// the serving loop.
    EnginePanicked(String),
}

impl std::fmt::Display for SmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmError::PartialDiscovery { found, total } => {
                write!(f, "sweep found {found} of {total} nodes")
            }
            SmError::Routing(e) => write!(f, "routing failed: {e}"),
            SmError::BrokenTables(d) => write!(f, "engine emitted broken tables: {d}"),
            SmError::Walk(e) => write!(f, "LFT validation failed: {e}"),
            SmError::TooManyVls {
                required,
                available,
            } => write!(f, "routing needs {required} VLs, hardware has {available}"),
            SmError::CyclicLayers(ls) => write!(f, "cyclic dependency layers: {ls:?}"),
            SmError::InvalidEvent(why) => write!(f, "invalid fabric event: {why}"),
            SmError::EnginePanicked(msg) => write!(f, "routing engine panicked: {msg}"),
        }
    }
}

impl std::error::Error for SmError {}

impl From<RouteError> for SmError {
    fn from(e: RouteError) -> Self {
        SmError::Routing(e)
    }
}

/// Everything a successful SM run programmed into the fabric.
pub struct ProgrammedFabric {
    /// Sweep result.
    pub discovery: DiscoveredFabric,
    /// LID assignment.
    pub lids: LidMap,
    /// The engine's routes (for simulators).
    pub routes: Routes,
    /// Compiled hardware tables.
    pub tables: FabricTables,
    /// Ordered terminal pairs validated by the LFT walk.
    pub pairs_validated: usize,
}

/// The subnet manager, parameterized by its routing engine — mirroring
/// `opensm -R <engine>`.
pub struct SubnetManager<E> {
    /// Routing engine to deploy.
    pub engine: E,
    /// Data VLs the hardware supports (8 on the paper's clusters).
    pub hardware_vls: usize,
}

impl<E: RoutingEngine> SubnetManager<E> {
    /// A production-configured SM: 8 VLs.
    pub fn new(engine: E) -> Self {
        SubnetManager {
            engine,
            hardware_vls: 8,
        }
    }

    /// Full cycle: sweep from `sm_node`, assign LIDs, run the engine,
    /// refuse broken tables and cyclic layers (the guard rail the paper
    /// argues every production fabric needs), program tables, validate by
    /// walking the LFTs for every ordered terminal pair.
    pub fn run(&self, net: &Network, sm_node: NodeId) -> Result<ProgrammedFabric, SmError> {
        self.run_walked(&self.engine, net, sm_node, None, None, &telemetry::Noop)
            .map(|(fabric, _)| fabric)
    }

    /// [`Self::run`] deploying `engine` instead of the configured one (a
    /// fallback engine goes through the same sweep/program/validate
    /// cycle), also returning the guard's walk of the new routing and
    /// timing the guard and the LFT validation as `sm_guard` /
    /// `sm_validate` on `rec`. The guard walks from `base`, the guard's
    /// walk of the routing programmed before, and the validation from
    /// `before`, the tables programmed before on their view, when there
    /// are such.
    pub(crate) fn run_walked(
        &self,
        engine: &dyn RoutingEngine,
        net: &Network,
        sm_node: NodeId,
        base: Option<vet::Base>,
        before: Option<(&Network, &FabricTables)>,
        rec: &dyn Recorder,
    ) -> Result<(ProgrammedFabric, TableWalk), SmError> {
        let discovery = discover(net, sm_node);
        if !discovery.complete(net) {
            return Err(SmError::PartialDiscovery {
                found: discovery.nodes.len(),
                total: net.num_terminals() + net.num_switches(),
            });
        }
        let routes = engine.route(net)?;
        if routes.num_layers() as usize > self.hardware_vls {
            return Err(SmError::TooManyVls {
                required: routes.num_layers() as usize,
                available: self.hardware_vls,
            });
        }
        let walk = timed(rec, phases::SM_GUARD, || guard(base, net, &routes))?;
        let lids = LidMap::assign(net);
        let tables = FabricTables::program(net, &routes, &lids);
        let pairs_validated = timed(rec, phases::SM_VALIDATE, || {
            tables.validate(net, &lids, before)
        })
        .map_err(SmError::Walk)?;
        let fabric = ProgrammedFabric {
            discovery,
            lids,
            routes,
            tables,
            pairs_validated,
        };
        Ok((fabric, walk))
    }
}

/// The deploy guard: walk the engine's tables once; refuse broken tables
/// (with the analyzer's first error finding) and cyclic layers.
fn guard(base: Option<vet::Base>, net: &Network, routes: &Routes) -> Result<TableWalk, SmError> {
    let walk = walk_artifact(base, net, routes, Artifact::New);
    if let Some(d) = walk
        .diagnostics()
        .iter()
        .find(|d| d.severity == vet::Severity::Error)
    {
        return Err(SmError::BrokenTables(d.clone()));
    }
    let cyclic = cyclic_layers(&walk);
    if !cyclic.is_empty() {
        return Err(SmError::CyclicLayers(
            cyclic.iter().map(|&(l, _)| l).collect(),
        ));
    }
    Ok(walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::{DfSssp, Sssp};
    use fabric::topo;

    #[test]
    fn dfsssp_deploys_on_a_torus() {
        let net = topo::torus(&[3, 3], 1);
        let sm = SubnetManager::new(DfSssp::new());
        let fabric = sm.run(&net, net.terminals()[0]).unwrap();
        assert_eq!(fabric.pairs_validated, 9 * 8);
        assert!(fabric.routes.num_layers() >= 2);
    }

    #[test]
    fn plain_sssp_is_refused_on_a_ring() {
        // The guard rail: SSSP's cyclic CDG on the ring must be refused.
        let net = topo::ring(5, 1);
        let sm = SubnetManager::new(Sssp::new());
        match sm.run(&net, net.terminals()[0]) {
            Err(SmError::CyclicLayers(layers)) => assert_eq!(layers, vec![0]),
            other => panic!("expected cyclic-layer refusal, got {:?}", other.err()),
        }
    }

    #[test]
    fn vl_budget_enforced() {
        let net = topo::ring(5, 1);
        let mut sm = SubnetManager::new(DfSssp::new());
        sm.hardware_vls = 1;
        match sm.run(&net, net.terminals()[0]) {
            Err(SmError::Routing(RouteError::NeedMoreLayers { .. })) => {}
            Err(SmError::TooManyVls { .. }) => {}
            other => panic!("expected VL failure, got {:?}", other.err()),
        }
    }

    #[test]
    fn partial_fabric_refused() {
        let mut b = fabric::NetworkBuilder::new();
        let s0 = b.add_switch("s0", 4);
        let t0 = b.add_terminal("t0");
        b.link(t0, s0).unwrap();
        let s1 = b.add_switch("s1", 4);
        let t1 = b.add_terminal("t1");
        b.link(t1, s1).unwrap();
        let net = b.build();
        let sm = SubnetManager::new(DfSssp::new());
        match sm.run(&net, t0) {
            Err(SmError::PartialDiscovery { found: 2, total: 4 }) => {}
            other => panic!("expected partial discovery, got {:?}", other.err()),
        }
    }

    #[test]
    fn deploys_on_deimos_reconstruction() {
        let net = fabric::topo::realworld::RealSystem::Deimos.build(0.05);
        let sm = SubnetManager::new(DfSssp::new());
        let fabric = sm.run(&net, net.terminals()[0]).unwrap();
        assert!(fabric.pairs_validated > 0);
    }
}
