//! Deadlock-freedom and routing-quality verification.
//!
//! [`verify_deadlock_free`] checks the Dally & Seitz sufficient condition
//! the whole paper rests on: for every virtual layer, the channel
//! dependency graph induced by the paths assigned to that layer must be
//! acyclic. Since PR "vet" the heavy lifting lives in the [`vet`] static
//! analyzer — this module is a thin adapter that keeps the engine-facing
//! API (and distinguishes *broken tables* from *deadlock hazards* instead
//! of conflating the two).

use fabric::{ChannelId, Network, NodeId, Routes};

/// Why verification failed.
#[derive(Clone, Debug)]
pub enum VerifyError {
    /// The forwarding tables are broken (loop, missing entry, invalid
    /// next hop) before deadlock freedom is even a question. Carries the
    /// analyzer's first error finding with its witness.
    BrokenTables(vet::Diagnostic),
    /// The tables walk fine but some layer's dependency graph is cyclic.
    DeadlockHazard {
        /// Layers containing a dependency cycle, ascending.
        cyclic_layers: Vec<u8>,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BrokenTables(d) => write!(f, "broken forwarding tables: {d}"),
            VerifyError::DeadlockHazard { cyclic_layers } => {
                write!(
                    f,
                    "cyclic channel dependencies in layer(s) {cyclic_layers:?}"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Per-layer acyclicity report.
#[derive(Clone, Debug, Default)]
pub struct DeadlockReport {
    /// Layers that contain a dependency cycle (deadlock hazard).
    pub cyclic_layers: Vec<u8>,
    /// Routed paths per layer.
    pub paths_per_layer: Vec<usize>,
    /// CDG edges per layer.
    pub edges_per_layer: Vec<usize>,
    /// One witness cycle per cyclic layer: the actual channel sequence
    /// (consecutive channels hold a dependency; the last feeds the first).
    pub cycles: Vec<(u8, Vec<ChannelId>)>,
}

impl DeadlockReport {
    /// Whether the routing satisfies the sufficient condition.
    pub fn is_deadlock_free(&self) -> bool {
        self.cyclic_layers.is_empty()
    }
}

/// Build the per-layer CDGs from `routes` and check each for cycles.
///
/// Delegates to [`vet::analyze_with`]: one colored table walk per
/// destination classifies every node and collects dependency edges, so the
/// whole check is O(destinations · V) instead of O(pairs · path length).
/// Broken tables surface as [`VerifyError::BrokenTables`] — they are *not*
/// an empty report.
pub fn deadlock_report(net: &Network, routes: &Routes) -> Result<DeadlockReport, VerifyError> {
    let cfg = vet::Config {
        // Cyclic layers are this function's *result*, not an error; and
        // minimality is verify_minimal's concern. Existence (V007) is a
        // question about the network, not this artifact — callers who
        // care ask `vet::existence` directly.
        deadlock_error: false,
        check_minimal: false,
        check_existence: false,
        ..vet::Config::default()
    };
    let report = vet::analyze_with(net, routes, &cfg);
    if let Some(d) = report
        .diagnostics
        .iter()
        .find(|d| d.severity == vet::Severity::Error)
    {
        return Err(VerifyError::BrokenTables(d.clone()));
    }
    let cycles = report
        .diagnostics
        .iter()
        .filter_map(|d| match &d.witness {
            vet::Witness::CdgCycle { layer, channels } => Some((*layer, channels.clone())),
            _ => None,
        })
        .collect();
    Ok(DeadlockReport {
        cyclic_layers: report.stats.cyclic_layers,
        paths_per_layer: report.stats.paths_per_layer,
        edges_per_layer: report.stats.edges_per_layer,
        cycles,
    })
}

/// Check deadlock freedom. Broken tables and cyclic layers produce
/// distinct [`VerifyError`] variants (historically both collapsed into an
/// unhelpful `Vec<u8>`, hiding table corruption as "no cyclic layers").
pub fn verify_deadlock_free(net: &Network, routes: &Routes) -> Result<(), VerifyError> {
    let report = deadlock_report(net, routes)?;
    if report.is_deadlock_free() {
        Ok(())
    } else {
        Err(VerifyError::DeadlockHazard {
            cyclic_layers: report.cyclic_layers,
        })
    }
}

/// Check that every routed path is hop-minimal; returns the first
/// offending (src, dst) pair otherwise. Pairs that cannot be walked at
/// all also fail.
pub fn verify_minimal(net: &Network, routes: &Routes) -> Result<(), (NodeId, NodeId)> {
    let cfg = vet::Config {
        deadlock_error: false,
        check_minimal: true,
        ..vet::Config::default()
    };
    let report = vet::analyze_with(net, routes, &cfg);
    if let Some(&pair) = report.stats.broken_pairs.first() {
        return Err(pair);
    }
    if let Some(vet::Witness::Stretch { src, dst, .. }) = report
        .diagnostics_for(vet::LintCode::NonMinimalPath)
        .map(|d| &d.witness)
        .next()
    {
        return Err((*src, *dst));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoutingEngine;
    use crate::{DfSssp, Sssp};
    use fabric::topo;

    #[test]
    fn sssp_on_ring_is_flagged() {
        let net = topo::ring(5, 1);
        let routes = Sssp::new().route(&net).unwrap();
        let report = deadlock_report(&net, &routes).unwrap();
        assert!(!report.is_deadlock_free());
        assert_eq!(report.cyclic_layers, vec![0]);
        // The hazard comes with a concrete witness cycle.
        let (layer, cycle) = &report.cycles[0];
        assert_eq!(*layer, 0);
        assert!(!cycle.is_empty());
        for w in cycle.windows(2) {
            assert_eq!(net.channel(w[0]).dst, net.channel(w[1]).src);
        }
        assert_eq!(
            net.channel(*cycle.last().unwrap()).dst,
            net.channel(cycle[0]).src
        );
    }

    #[test]
    fn dfsssp_on_ring_passes() {
        let net = topo::ring(5, 1);
        let routes = DfSssp::new().route(&net).unwrap();
        let report = deadlock_report(&net, &routes).unwrap();
        assert!(report.is_deadlock_free());
        assert!(report.cycles.is_empty());
        // All paths accounted for.
        let total: usize = report.paths_per_layer.iter().sum();
        assert_eq!(total, 5 * 4);
    }

    #[test]
    fn sssp_on_tree_passes_without_layers() {
        let net = topo::kary_ntree(2, 2);
        let routes = Sssp::new().route(&net).unwrap();
        assert!(verify_deadlock_free(&net, &routes).is_ok());
    }

    #[test]
    fn minimality_verified() {
        let net = topo::torus(&[4, 4], 1);
        let routes = Sssp::new().route(&net).unwrap();
        verify_minimal(&net, &routes).unwrap();
        let routes = DfSssp::new().route(&net).unwrap();
        verify_minimal(&net, &routes).unwrap();
    }

    #[test]
    fn report_counts_edges() {
        let net = topo::ring(4, 1);
        let routes = DfSssp::new().route(&net).unwrap();
        let report = deadlock_report(&net, &routes).unwrap();
        assert_eq!(report.edges_per_layer.len(), routes.num_layers() as usize);
        assert!(report.edges_per_layer.iter().sum::<usize>() > 0);
    }

    #[test]
    fn broken_tables_are_an_error_not_a_pass() {
        let net = topo::ring(5, 1);
        let mut routes = DfSssp::new().route(&net).unwrap();
        // Scrub one switch's entry toward terminal 0: the walk breaks.
        let sw = net.switches()[0];
        routes.clear_next(sw, 0);
        let err = verify_deadlock_free(&net, &routes).unwrap_err();
        assert!(
            matches!(err, VerifyError::BrokenTables(_)),
            "table corruption must not report as deadlock-free: {err}"
        );
        // And a cyclic CDG is the *other* variant.
        let sssp = Sssp::new().route(&net).unwrap();
        let err = verify_deadlock_free(&net, &sssp).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::DeadlockHazard { ref cyclic_layers } if cyclic_layers == &vec![0]
        ));
    }

    #[test]
    fn minimality_failure_names_the_pair() {
        let net = topo::ring(5, 1);
        let mut routes = Sssp::new().route(&net).unwrap();
        let sw = net.switches()[0];
        routes.clear_next(sw, 0);
        let (src, dst) = verify_minimal(&net, &routes).unwrap_err();
        assert!(net.is_terminal(src));
        assert_eq!(dst, net.terminals()[0]);
    }
}
