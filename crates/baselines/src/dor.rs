//! Dimension-order routing (DOR) for coordinate topologies.
//!
//! Routes correct coordinates one dimension at a time (dimension 0 first),
//! taking the shorter wrap direction on tori. Only defined on networks
//! whose switches carry coordinates (meshes, tori, hypercubes); on
//! anything else it fails like OpenSM's engine does on the paper's
//! irregular systems (the missing Fig 4 bars).
//!
//! DOR is deadlock-free on meshes but **not** on tori (wraparound links
//! close dependency cycles) — LASH is its cycle-free derivative.

use dfsssp_core::{RouteError, RoutingEngine};
use fabric::{ChannelId, Network, NodeId, Routes};

/// The DOR engine.
#[derive(Clone, Debug, Default)]
pub struct Dor;

impl Dor {
    /// New DOR engine.
    pub fn new() -> Self {
        Dor
    }

    /// Dimension extents, inferred as `max(coord) + 1` per dimension.
    fn extents(net: &Network) -> Result<Vec<u16>, RouteError> {
        let mut extents: Vec<u16> = Vec::new();
        for &s in net.switches() {
            let coord = net.node(s).coord.as_ref().ok_or_else(|| {
                RouteError::UnsupportedTopology(format!(
                    "switch {} has no coordinates",
                    net.node(s).name
                ))
            })?;
            if extents.is_empty() {
                extents = vec![0; coord.len()];
            }
            if coord.len() != extents.len() {
                return Err(RouteError::UnsupportedTopology(
                    "inconsistent coordinate dimensionality".into(),
                ));
            }
            for (d, &x) in coord.iter().enumerate() {
                extents[d] = extents[d].max(x + 1);
            }
        }
        if extents.is_empty() {
            return Err(RouteError::UnsupportedTopology("no switches".into()));
        }
        Ok(extents)
    }

    /// The switch a terminal hangs off.
    fn home_switch(net: &Network, t: NodeId) -> Result<NodeId, RouteError> {
        net.out_channels(t)
            .iter()
            .map(|&c| net.channel(c).dst)
            .find(|&s| net.is_switch(s))
            .ok_or_else(|| RouteError::UnsupportedTopology("terminal without switch".into()))
    }

    /// Per-dimension wraparound detection: dimension `d` wraps iff some
    /// switch pair differing only in `d` by `extent - 1` is connected.
    fn wrap_dims(net: &Network, extents: &[u16]) -> Vec<bool> {
        let mut wraps = vec![false; extents.len()];
        for (_, ch) in net.channels() {
            if !(net.is_switch(ch.src) && net.is_switch(ch.dst)) {
                continue;
            }
            let (Some(a), Some(b)) = (
                net.node(ch.src).coord.as_deref(),
                net.node(ch.dst).coord.as_deref(),
            ) else {
                continue;
            };
            let diffs: Vec<usize> = (0..a.len()).filter(|&d| a[d] != b[d]).collect();
            if let [d] = diffs[..] {
                if a[d].abs_diff(b[d]) == extents[d] - 1 && extents[d] > 2 {
                    wraps[d] = true;
                }
            }
        }
        wraps
    }

    /// Next coordinate from `at` toward `goal` in dimension-order:
    /// modular-shortest direction in wrapping dimensions, direct
    /// direction otherwise. `None` when already at `goal`.
    fn next_coord(at: &[u16], goal: &[u16], extents: &[u16], wraps: &[bool]) -> Option<Vec<u16>> {
        for d in 0..at.len() {
            if at[d] == goal[d] {
                continue;
            }
            let size = extents[d] as i32;
            let (a, g) = (at[d] as i32, goal[d] as i32);
            let step = if wraps[d] {
                let fwd = (g - a).rem_euclid(size);
                let bwd = (a - g).rem_euclid(size);
                if fwd <= bwd {
                    1
                } else {
                    size - 1
                }
            } else if g > a {
                1
            } else {
                size - 1 // -1 modulo size; never actually wraps since g < a
            };
            let mut next = at.to_vec();
            next[d] = ((a + step).rem_euclid(size)) as u16;
            return Some(next);
        }
        None
    }

    /// Channel from switch `s` to the neighboring switch at `coord`.
    fn channel_to_coord(net: &Network, s: NodeId, coord: &[u16]) -> Option<ChannelId> {
        net.out_channels(s).iter().copied().find(|&c| {
            let d = net.channel(c).dst;
            net.is_switch(d) && net.node(d).coord.as_deref() == Some(coord)
        })
    }
}

impl RoutingEngine for Dor {
    fn name(&self) -> &'static str {
        "DOR"
    }

    fn route(&self, net: &Network) -> Result<Routes, RouteError> {
        if !net.is_strongly_connected() {
            return Err(RouteError::Disconnected);
        }
        let extents = Self::extents(net)?;
        let wraps = Self::wrap_dims(net, &extents);
        let mut routes = Routes::new(net, self.name());
        for (dst_t, &dst) in net.terminals().iter().enumerate() {
            let home = Self::home_switch(net, dst)?;
            let goal = net.node(home).coord.clone().unwrap();
            // Terminals inject toward their own switch.
            for &t in net.terminals() {
                if t == dst {
                    continue;
                }
                let sw = Self::home_switch(net, t)?;
                let c = net
                    .channel_between(t, sw)
                    .ok_or_else(|| RouteError::UnsupportedTopology("parallel injection".into()))?;
                routes.set_next(t, dst_t, c);
            }
            // Switches correct dimensions in order.
            for &s in net.switches() {
                if s == home {
                    let c = net.channel_between(s, dst).ok_or_else(|| {
                        RouteError::UnsupportedTopology("missing delivery channel".into())
                    })?;
                    routes.set_next(s, dst_t, c);
                    continue;
                }
                let at = net.node(s).coord.as_ref().unwrap();
                let next = Self::next_coord(at, &goal, &extents, &wraps).ok_or_else(|| {
                    RouteError::UnsupportedTopology("duplicate switch coordinates".into())
                })?;
                let c = Self::channel_to_coord(net, s, &next).ok_or_else(|| {
                    RouteError::UnsupportedTopology(format!(
                        "no channel from {at:?} toward {next:?}"
                    ))
                })?;
                routes.set_next(s, dst_t, c);
            }
        }
        Ok(routes)
    }

    fn deadlock_free(&self) -> bool {
        false // deadlock-free on meshes, but not on tori
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::verify::{deadlock_report, verify_minimal};
    use fabric::topo;

    #[test]
    fn routes_mesh_minimally_and_deadlock_free() {
        let net = topo::mesh(&[4, 3], 1);
        let routes = Dor::new().route(&net).unwrap();
        let nt = net.num_terminals();
        assert_eq!(routes.validate_connectivity(&net).unwrap(), nt * (nt - 1));
        verify_minimal(&net, &routes).unwrap();
        // On a mesh, DOR's CDG is acyclic.
        assert!(deadlock_report(&net, &routes).unwrap().is_deadlock_free());
    }

    #[test]
    fn routes_torus_minimally_but_cyclically() {
        let net = topo::torus(&[4, 4], 1);
        let routes = Dor::new().route(&net).unwrap();
        verify_minimal(&net, &routes).unwrap();
        // Wraparound closes dependency cycles: the classical result.
        assert!(!deadlock_report(&net, &routes).unwrap().is_deadlock_free());
    }

    #[test]
    fn dimension_zero_corrected_first() {
        let net = topo::mesh(&[3, 3], 1);
        let routes = Dor::new().route(&net).unwrap();
        // From (0,0) to (2,2): path must go through (1,0), (2,0), (2,1).
        let src = net.terminals()[0]; // attached to s0 = (0,0)
        let dst = net.terminals()[8]; // attached to s8 = (2,2)
        let path = routes.path_channels(&net, src, dst).unwrap();
        let mids: Vec<&str> = path
            .iter()
            .map(|&c| net.node(net.channel(c).dst).name.as_str())
            .collect();
        assert_eq!(mids, vec!["s0", "s3", "s6", "s7", "s8", "t8"]);
    }

    #[test]
    fn torus_wrap_direction_is_shorter_side() {
        let net = topo::torus(&[5], 1);
        let routes = Dor::new().route(&net).unwrap();
        // s0 to s4 is one wrap hop, not four forward hops.
        let src = net.terminals()[0];
        let dst = net.terminals()[4];
        assert_eq!(routes.path_channels(&net, src, dst).unwrap().len(), 3);
    }

    #[test]
    fn fails_without_coordinates() {
        let net = topo::kary_ntree(2, 2);
        let err = Dor::new().route(&net).unwrap_err();
        assert!(matches!(err, RouteError::UnsupportedTopology(_)));
    }

    #[test]
    fn hypercube_supported() {
        let net = topo::hypercube(3, 1);
        let routes = Dor::new().route(&net).unwrap();
        verify_minimal(&net, &routes).unwrap();
    }
}
