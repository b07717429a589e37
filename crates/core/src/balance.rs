//! Layer balancing (the tail of Algorithm 2).
//!
//! After cycle breaking, typically only a few of the available virtual
//! layers hold paths while the rest are empty; spreading each used
//! layer's paths over a group of layers equalizes per-VL buffer usage.
//! No cycle search is needed: **every subset of an acyclic layer's paths
//! generates a subgraph of that layer's CDG, and subgraphs of acyclic
//! graphs are acyclic** — the property the paper's balancing step relies
//! on (and which the seeded sweeps in `dfsssp`'s `tests/props.rs` check).

/// Spread paths from `used` layers over `available` layers.
///
/// Layer `i`'s paths are split round-robin across its group of
/// consecutive new layers; groups partition `0..available` and their
/// sizes differ by at most one. Returns the number of layers in use
/// afterwards. `path_layer` entries must all be `< used`.
pub fn balance_layers(path_layer: &mut [u8], used: usize, available: usize) -> usize {
    assert!(used >= 1, "at least one layer is always used");
    assert!(available <= u8::MAX as usize + 1);
    if available <= used || path_layer.is_empty() {
        return used;
    }
    let extra = available - used;
    // Group sizes: layer i gets 1 + extra/used (+1 for the first
    // extra % used layers).
    let mut group_base = vec![0usize; used + 1];
    for i in 0..used {
        let size = 1 + extra / used + usize::from(i < extra % used);
        group_base[i + 1] = group_base[i] + size;
    }
    debug_assert_eq!(group_base[used], available);
    // Round-robin within each group: a cursor per layer that wraps.
    let mut next = group_base[..used].to_vec();
    let mut max_layer = 0usize;
    for l in path_layer.iter_mut() {
        let i = *l as usize;
        assert!(i < used, "path layer {i} out of range (used = {used})");
        let new = next[i];
        next[i] = if new + 1 == group_base[i + 1] {
            group_base[i]
        } else {
            new + 1
        };
        *l = new as u8;
        max_layer = max_layer.max(new);
    }
    max_layer + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_spare_layers_is_identity() {
        let mut layers = vec![0, 1, 1, 0, 1];
        let out = balance_layers(&mut layers, 2, 2);
        assert_eq!(out, 2);
        assert_eq!(layers, vec![0, 1, 1, 0, 1]);
    }

    #[test]
    fn single_layer_spreads_over_all() {
        let mut layers = vec![0u8; 8];
        let out = balance_layers(&mut layers, 1, 4);
        assert_eq!(out, 4);
        // Round-robin: exactly 2 paths per layer.
        for l in 0..4u8 {
            assert_eq!(layers.iter().filter(|&&x| x == l).count(), 2);
        }
    }

    #[test]
    fn groups_stay_disjoint_and_ordered() {
        // 2 used layers over 5 available: groups {0,1,2} and {3,4}.
        let mut layers = vec![0, 0, 0, 1, 1, 1, 0, 1];
        let out = balance_layers(&mut layers, 2, 5);
        assert_eq!(out, 5);
        for (i, &l) in layers.iter().enumerate() {
            let orig = [0, 0, 0, 1, 1, 1, 0, 1][i];
            if orig == 0 {
                assert!(l <= 2, "layer-0 paths stay in group 0..=2");
            } else {
                assert!((3..=4).contains(&l), "layer-1 paths stay in group 3..=4");
            }
        }
    }

    #[test]
    fn balanced_counts_are_even() {
        let mut layers = vec![0u8; 100];
        balance_layers(&mut layers, 1, 8);
        let mut counts = [0usize; 8];
        for &l in &layers {
            counts[l as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 12 || c == 13));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_layer_rejected() {
        let mut layers = vec![3u8];
        balance_layers(&mut layers, 2, 4);
    }
}
