//! Traffic-pattern generators.
//!
//! A pattern is a list of flows `(src_t, dst_t)` over terminal indices.
//! The central one for the paper is [`Pattern::random_bisection`]; the
//! others serve the application models and the wider test surface.

use fabric::rng::Rng;

/// A traffic pattern: simultaneous flows between terminal indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    /// Flows as `(src_t, dst_t)` pairs, `src_t != dst_t`.
    pub flows: Vec<(u32, u32)>,
}

impl Pattern {
    /// A random bisection: the terminals are split into two random equal
    /// halves, matched one-to-one, and each pair exchanges traffic in
    /// both directions (Netgauge's eBB benchmark does 1 MiB ping-pongs).
    /// With an odd terminal count one endpoint sits out.
    pub fn random_bisection(num_terminals: usize, seed: u64) -> Pattern {
        let mut rng = Rng::seed_from_u64(seed);
        let mut ids: Vec<u32> = (0..num_terminals as u32).collect();
        rng.shuffle(&mut ids);
        let half = num_terminals / 2;
        let mut flows = Vec::with_capacity(2 * half);
        for i in 0..half {
            let (a, b) = (ids[i], ids[half + i]);
            flows.push((a, b));
            flows.push((b, a));
        }
        Pattern { flows }
    }

    /// Cyclic shift: terminal `i` sends to `i + k (mod n)`.
    pub fn shift(num_terminals: usize, k: usize) -> Pattern {
        let n = num_terminals as u32;
        let flows = (0..n)
            .filter(|&i| (i + k as u32) % n != i)
            .map(|i| (i, (i + k as u32) % n))
            .collect();
        Pattern { flows }
    }

    /// Matrix transpose on a `rows x cols` process grid laid out
    /// row-major over the first `rows*cols` terminals.
    pub fn transpose(rows: usize, cols: usize) -> Pattern {
        let mut flows = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let src = (r * cols + c) as u32;
                let dst = (c * rows + r) as u32;
                if src != dst && (c * rows + r) < rows * cols {
                    flows.push((src, dst));
                }
            }
        }
        Pattern { flows }
    }

    /// 2D nearest-neighbor stencil (4-point, non-periodic) on a
    /// `rows x cols` grid: each rank exchanges with its grid neighbors.
    pub fn stencil2d(rows: usize, cols: usize) -> Pattern {
        let mut flows = Vec::new();
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        for r in 0..rows {
            for c in 0..cols {
                if r + 1 < rows {
                    flows.push((id(r, c), id(r + 1, c)));
                    flows.push((id(r + 1, c), id(r, c)));
                }
                if c + 1 < cols {
                    flows.push((id(r, c), id(r, c + 1)));
                    flows.push((id(r, c + 1), id(r, c)));
                }
            }
        }
        Pattern { flows }
    }

    /// One phase of a phased all-to-all over `n` ranks: in phase `p`,
    /// rank `i` sends to `(i + p) mod n` — the classic ring schedule MPI
    /// implementations use for large messages.
    pub fn alltoall_phase(n: usize, phase: usize) -> Pattern {
        Pattern::shift(n, phase)
    }

    /// Hotspot: every rank sends to one victim (rank 0), modeling an
    /// incast (e.g. a parallel file system target).
    pub fn hotspot(num_terminals: usize, victim: u32) -> Pattern {
        let flows = (0..num_terminals as u32)
            .filter(|&i| i != victim)
            .map(|i| (i, victim))
            .collect();
        Pattern { flows }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the pattern has no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::fx::FxHashSet;

    #[test]
    fn bisection_is_perfect_matching_both_ways() {
        let p = Pattern::random_bisection(16, 1);
        assert_eq!(p.len(), 16);
        let mut sends = FxHashSet::default();
        let mut recvs = FxHashSet::default();
        for &(s, d) in &p.flows {
            assert_ne!(s, d);
            assert!(sends.insert(s), "each terminal sends once");
            assert!(recvs.insert(d), "each terminal receives once");
        }
        assert_eq!(sends.len(), 16);
    }

    #[test]
    fn bisection_deterministic_per_seed() {
        assert_eq!(
            Pattern::random_bisection(32, 7),
            Pattern::random_bisection(32, 7)
        );
        assert_ne!(
            Pattern::random_bisection(32, 7),
            Pattern::random_bisection(32, 8)
        );
    }

    #[test]
    fn odd_terminal_count_leaves_one_out() {
        let p = Pattern::random_bisection(9, 0);
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn shift_wraps() {
        let p = Pattern::shift(4, 1);
        assert_eq!(p.flows, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(Pattern::shift(4, 0).is_empty());
        assert!(Pattern::shift(4, 4).is_empty());
    }

    #[test]
    fn transpose_square() {
        let p = Pattern::transpose(3, 3);
        // Diagonal ranks don't send; 6 off-diagonal flows.
        assert_eq!(p.len(), 6);
        for &(s, d) in &p.flows {
            let (r, c) = (s / 3, s % 3);
            assert_eq!(d, c * 3 + r);
        }
    }

    #[test]
    fn stencil_flow_count() {
        // 3x3 grid: 12 undirected neighbor pairs => 24 flows.
        let p = Pattern::stencil2d(3, 3);
        assert_eq!(p.len(), 24);
    }

    #[test]
    fn hotspot_targets_one_victim() {
        let p = Pattern::hotspot(6, 2);
        assert_eq!(p.len(), 5);
        assert!(p.flows.iter().all(|&(s, d)| d == 2 && s != 2));
    }

    #[test]
    fn alltoall_phases_cover_everyone() {
        let n = 5;
        let mut seen = FxHashSet::default();
        for phase in 1..n {
            for &(s, d) in &Pattern::alltoall_phase(n, phase).flows {
                assert!(seen.insert((s, d)));
            }
        }
        assert_eq!(seen.len(), n * (n - 1));
    }
}
