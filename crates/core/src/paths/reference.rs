//! What [`TreePaths::move_victims`] replaced, kept as its oracle: list
//! the victims one by one, sort them by arrival, and walk, remove and
//! re-add each path.

use super::{PathId, Placement, TreePaths};
use crate::cdg::{Cdg, EdgeId};
use fabric::ChannelId;
use std::cell::Cell;

thread_local! {
    /// Whether every [`TreePaths::move_victims`] on this thread checks
    /// itself against [`TreePaths::move_per_path`].
    pub(crate) static CHECK_MOVES: Cell<bool> = const { Cell::new(false) };
    /// Breaks [`check_move`] passed on this thread, in layer 0 and above.
    pub(crate) static CHECKED_MOVES: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
}

impl TreePaths<'_> {
    /// The paths currently in `layer` that take channel `to` directly
    /// after `from`, ascending: the terminals of the subtree behind
    /// `from`'s tail in every tree that holds the window.
    pub(crate) fn paths_over(
        &self,
        from: u32,
        to: u32,
        path_layer: &[u8],
        layer: u8,
    ) -> Vec<PathId> {
        let (net, routes) = (self.net, self.routes);
        let (from, to) = (ChannelId(from), ChannelId(to));
        let (tail, head) = (net.channel(from).src, net.channel(from).dst);
        let (mut found, mut stack) = (Vec::new(), Vec::new());
        for (d, &dst) in net.terminals().iter().enumerate() {
            let held =
                routes.next_hop(tail, d) == Some(from) && routes.next_hop(head, d) == Some(to);
            if !held || tail == dst || head == dst {
                continue;
            }
            stack.push(tail);
            while let Some(v) = stack.pop() {
                let p = net.terminal_index(v).map(|src_t| self.id(src_t, d));
                found.extend(p.filter(|&p| path_layer[p as usize] == layer));
                for &c in net.in_channels(v) {
                    let u = net.channel(c).src;
                    if u != dst && c != from && routes.next_hop(u, d) == Some(c) {
                        stack.push(u);
                    }
                }
            }
        }
        found.sort_unstable();
        found
    }

    /// The per-path cycle break: every path of layer `layer` over `edge`
    /// of `lower`, in `(moved_at, id)` order, walked, removed from
    /// `lower` and added to `upper`.
    pub(crate) fn move_per_path(
        &self,
        edge: EdgeId,
        lower: &mut Cdg,
        upper: &mut Cdg,
        layer: u8,
        place: &mut Placement,
    ) {
        let (from, to) = (lower.edge(edge).from, lower.edge(edge).to);
        let mut victims = self.paths_over(from, to, &place.layer, layer);
        assert_eq!(victims.len(), lower.edge(edge).count as usize);
        victims.sort_by_key(|&p| place.moved_at[p as usize]);
        let mut channels = Vec::new();
        for p in victims {
            self.walk(p, &mut channels);
            lower.remove_path(&channels);
            upper.add_path(&channels);
            place.layer[p as usize] = layer + 1;
            place.moves += 1;
            place.moved_at[p as usize] = place.moves as u32;
        }
    }
}

/// Fails unless the per-path break of `edge`, run from `before` (layers
/// `i` and `i + 1`, and the placement), ends where the bulk one did.
pub(crate) fn check_move(
    paths: &TreePaths,
    edge: EdgeId,
    i: usize,
    before: (Vec<Cdg>, Placement),
    after: (&Cdg, &Cdg, &Placement),
) {
    let (mut layers, mut place) = before;
    let (lower, upper) = layers.split_at_mut(1);
    paths.move_per_path(edge, &mut lower[0], &mut upper[0], i as u8, &mut place);
    assert!(
        &layers[0] == after.0,
        "layer {i} after the break of edge {edge}"
    );
    assert!(
        &layers[1] == after.1,
        "layer {} after the break of edge {edge}",
        i + 1
    );
    assert!(
        &place == after.2,
        "placement after the break of edge {edge}"
    );
    let mut checked = CHECKED_MOVES.get();
    checked[usize::from(i > 0)] += 1;
    CHECKED_MOVES.set(checked);
}
