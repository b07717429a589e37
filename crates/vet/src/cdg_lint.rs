//! Cycle detection over per-layer channel dependency graphs.
//!
//! The walker hands over one edge set per virtual layer; an acyclic set
//! satisfies the Dally & Seitz condition for that layer. A cycle is
//! reported with its actual channel sequence as the witness.

use fabric::ChannelId;

/// Find a cycle among the dependency edges, if any. Returns the channel
/// sequence `c_0 → c_1 → … → c_k → c_0` (without repeating `c_0` at the
/// end); deterministic for a given edge *set* — repeated edges (the
/// union of several artifacts' sets, chained) change nothing, so no
/// union set has to be materialised.
pub(crate) fn find_cycle<'a>(
    num_channels: usize,
    edges: impl IntoIterator<Item = &'a (u32, u32)>,
) -> Option<Vec<ChannelId>> {
    let mut edges = edges.into_iter().peekable();
    edges.peek()?;
    // Sorted adjacency so the reported cycle does not depend on hash order.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_channels];
    for &(from, to) in edges {
        adj[from as usize].push(to);
    }
    for outs in &mut adj {
        outs.sort_unstable();
        outs.dedup();
    }

    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; num_channels];
    // DFS stack of (channel, next out-edge index); the grey path is the
    // stack itself, so a back edge yields the cycle as a stack suffix.
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for start in 0..num_channels as u32 {
        if color[start as usize] != WHITE {
            continue;
        }
        color[start as usize] = GREY;
        stack.push((start, 0));
        while let Some(top) = stack.last_mut() {
            let u = top.0 as usize;
            if top.1 < adj[u].len() {
                let v = adj[u][top.1];
                top.1 += 1;
                match color[v as usize] {
                    WHITE => {
                        color[v as usize] = GREY;
                        stack.push((v, 0));
                    }
                    GREY => {
                        let pos = stack
                            .iter()
                            .position(|&(w, _)| w == v)
                            .expect("grey node is on the DFS stack");
                        return Some(stack[pos..].iter().map(|&(w, _)| ChannelId(w)).collect());
                    }
                    _ => {}
                }
            } else {
                color[u] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::fx::FxHashSet;

    fn set(edges: &[(u32, u32)]) -> FxHashSet<(u32, u32)> {
        edges.iter().copied().collect()
    }

    #[test]
    fn acyclic_has_no_cycle() {
        assert!(find_cycle(4, &set(&[(0, 1), (1, 2), (0, 2), (2, 3)])).is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let cycle = find_cycle(2, &set(&[(1, 1)])).unwrap();
        assert_eq!(cycle, vec![ChannelId(1)]);
    }

    #[test]
    fn cycle_is_closed_and_chained() {
        let edges = set(&[(0, 1), (1, 2), (2, 3), (3, 1)]);
        let cycle = find_cycle(4, &edges).unwrap();
        assert!(!cycle.is_empty());
        for w in cycle.windows(2) {
            assert!(edges.contains(&(w[0].0, w[1].0)));
        }
        assert!(edges.contains(&(cycle.last().unwrap().0, cycle[0].0)));
        // Node 0 feeds the cycle but is not part of it.
        assert!(!cycle.contains(&ChannelId(0)));
    }

    #[test]
    fn empty_is_acyclic() {
        assert!(find_cycle(8, &FxHashSet::default()).is_none());
    }
}
