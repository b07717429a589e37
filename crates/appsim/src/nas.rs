//! NAS Parallel Benchmark communication models (Figs 14–16, Table II).
//!
//! Each benchmark is reduced to its per-iteration communication phases
//! (pattern + bytes per flow) plus a routing-independent compute term:
//!
//! * **BT / SP / LU** — pencil/multipartition solvers: face exchanges
//!   with grid neighbors on a near-square process grid, several sweeps
//!   per iteration (SP sweeps most — its communication-to-computation
//!   ratio is higher, as the paper notes).
//! * **MG** — V-cycle neighbor exchanges, single variable.
//! * **CG** — row/column exchanges (modeled as a transpose) plus
//!   recursive-doubling reductions.
//! * **FT** — the 3D-FFT transpose: a full all-to-all, the most
//!   collective-heavy code (which is why the paper sees DFSSSP gains on
//!   FT "even for smaller numbers of cores").
//!
//! Phase durations come from the congestion simulator (slowest flow of
//! the phase); compute time is `flops / (P · RANK_GFLOPS)`. Absolute
//! Gflop/s are *not* calibrated against real NAS runs — only the
//! routing-induced differences and scaling shapes are meaningful
//! (DESIGN.md §3).

use crate::alloc::Allocation;
use fabric::{Network, Routes};
use orcs::Pattern;

/// Per-rank sustained compute rate (Gflop/s) of the modeled hosts
/// (Deimos-era Opteron cores).
pub const RANK_GFLOPS: f64 = 1.0;

/// Link bandwidth (MiB/s) of the modeled hosts (PCIe 1.1 HCAs, §VI).
pub const LINK_MIBS: f64 = 946.0;

/// The six modeled NAS kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NasBenchmark {
    /// Block-tridiagonal solver.
    BT,
    /// Conjugate gradient.
    CG,
    /// 3D FFT.
    FT,
    /// Lower-upper Gauss-Seidel.
    LU,
    /// Multigrid.
    MG,
    /// Scalar-pentadiagonal solver.
    SP,
}

/// Result of one modeled run.
#[derive(Clone, Copy, Debug)]
pub struct NasResult {
    /// Total Gflop/s across all ranks.
    pub gflops_total: f64,
    /// Fraction of iteration time spent communicating.
    pub comm_fraction: f64,
    /// Modeled communication seconds per iteration.
    pub comm_seconds: f64,
    /// Modeled compute seconds per iteration.
    pub comp_seconds: f64,
}

impl NasBenchmark {
    /// All six, alphabetical (the paper tables BT, CG, FT, LU*, MG, SP;
    /// LU is among the "similar characteristics" kernels of §VI-B).
    pub const ALL: [NasBenchmark; 6] = [
        NasBenchmark::BT,
        NasBenchmark::CG,
        NasBenchmark::FT,
        NasBenchmark::LU,
        NasBenchmark::MG,
        NasBenchmark::SP,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NasBenchmark::BT => "BT",
            NasBenchmark::CG => "CG",
            NasBenchmark::FT => "FT",
            NasBenchmark::LU => "LU",
            NasBenchmark::MG => "MG",
            NasBenchmark::SP => "SP",
        }
    }

    /// Grid extent of the modeled problem (class-C-like sizes).
    fn grid_n(self) -> f64 {
        match self {
            NasBenchmark::BT | NasBenchmark::SP => 162.0,
            NasBenchmark::LU => 162.0,
            NasBenchmark::MG => 512.0,
            NasBenchmark::FT => 512.0,
            NasBenchmark::CG => 150_000.0, // vector length
        }
    }

    /// Total floating-point operations per iteration.
    fn flops_per_iter(self) -> f64 {
        let n = self.grid_n();
        match self {
            NasBenchmark::BT => 250.0 * n * n * n,
            NasBenchmark::SP => 120.0 * n * n * n,
            NasBenchmark::LU => 180.0 * n * n * n,
            NasBenchmark::MG => 25.0 * n * n * n,
            NasBenchmark::FT => 5.0 * n * n * n * (n).log2(),
            NasBenchmark::CG => 2.0 * n * 15.0 * 20.0, // nnz sweeps
        }
    }

    /// Communication phases per iteration: `(pattern, bytes_per_flow,
    /// repeats)` in rank space.
    fn phases(self, cores: usize) -> Vec<(Pattern, f64, usize)> {
        let (r, c) = near_square(cores);
        let n = self.grid_n();
        let p = cores as f64;
        match self {
            NasBenchmark::BT | NasBenchmark::SP | NasBenchmark::LU => {
                // Face exchange: each rank owns n^3/P cells; a face is
                // (cells)^(2/3) entries of 5 doubles.
                let face = (n * n * n / p).powf(2.0 / 3.0) * 5.0 * 8.0;
                let sweeps = match self {
                    NasBenchmark::BT => 6,
                    NasBenchmark::SP => 12,
                    _ => 4,
                };
                vec![(Pattern::stencil2d(r, c), face, sweeps)]
            }
            NasBenchmark::MG => {
                let face = (n * n * n / p).powf(2.0 / 3.0) * 8.0;
                // V-cycle: exchanges at each level, roughly halving.
                vec![(Pattern::stencil2d(r, c), face * 2.0, 8)]
            }
            NasBenchmark::CG => {
                let seg = 8.0 * n / (p).sqrt();
                let mut phases = vec![(Pattern::transpose(r, c), seg, 2)];
                // Recursive-doubling allreduce of a scalar-ish payload.
                let mut k = 1;
                while k < cores {
                    phases.push((xor_pairs(cores, k), 64.0, 1));
                    k <<= 1;
                }
                phases
            }
            NasBenchmark::FT => {
                // Transpose all-to-all: 16 B/cell complex grid split P^2
                // ways, as ring phases.
                let per_pair = 16.0 * n * n * n / (p * p);
                (1..cores)
                    .map(|ph| (Pattern::alltoall_phase(cores, ph), per_pair, 1))
                    .collect()
            }
        }
    }

    /// The benchmark's per-iteration communication pairs in *rank*
    /// space, each phase's flows repeated by its sweep count. This is
    /// the raw material the open-loop trace generator
    /// ([`crate::traffic`]) replays as a query stream: the pair
    /// frequencies reproduce the kernel's traffic skew (stencil
    /// locality, transpose diagonals, FT's all-to-all) without any
    /// bandwidth modeling.
    pub fn comm_pairs(self, cores: usize) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for (pattern, _bytes, repeats) in self.phases(cores) {
            for _ in 0..repeats {
                pairs.extend_from_slice(&pattern.flows);
            }
        }
        pairs
    }

    /// Model the benchmark on `cores` ranks over the given fabric.
    pub fn run(
        self,
        net: &Network,
        routes: &Routes,
        cores: usize,
        alloc: Allocation,
    ) -> Result<NasResult, fabric::RoutesError> {
        let mut comm = 0.0;
        for (pattern, bytes, repeats) in self.phases(cores) {
            if pattern.is_empty() {
                continue;
            }
            let mapped = alloc.map_pattern(net, cores, &pattern);
            let bws = orcs::flow_bandwidths(net, routes, &mapped)?;
            let worst = bws.iter().copied().fold(f64::INFINITY, f64::min);
            let mib = bytes / (1024.0 * 1024.0);
            comm += repeats as f64 * mib / (LINK_MIBS * worst);
        }
        let comp = self.flops_per_iter() / (cores as f64 * RANK_GFLOPS * 1e9);
        let total = comm + comp;
        Ok(NasResult {
            gflops_total: self.flops_per_iter() / total / 1e9,
            comm_fraction: comm / total,
            comm_seconds: comm,
            comp_seconds: comp,
        })
    }
}

/// Near-square factorization `r * c = p`, `r <= c`, maximizing `r`.
fn near_square(p: usize) -> (usize, usize) {
    let mut r = (p as f64).sqrt() as usize;
    while r > 1 && !p.is_multiple_of(r) {
        r -= 1;
    }
    (r.max(1), p / r.max(1))
}

/// Recursive-doubling phase: every rank pairs with `rank ^ k` (flows in
/// both directions where the partner exists).
fn xor_pairs(cores: usize, k: usize) -> Pattern {
    let flows = (0..cores as u32)
        .filter_map(|i| {
            let j = i ^ (k as u32);
            ((j as usize) < cores && j != i).then_some((i, j))
        })
        .collect();
    Pattern { flows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::MinHop;
    use dfsssp_core::{DfSssp, RoutingEngine};
    use fabric::topo;

    #[test]
    fn near_square_factorizations() {
        assert_eq!(near_square(16), (4, 4));
        assert_eq!(near_square(121), (11, 11));
        assert_eq!(near_square(12), (3, 4));
        assert_eq!(near_square(7), (1, 7));
    }

    #[test]
    fn xor_pairs_are_symmetric() {
        let p = xor_pairs(8, 2);
        for &(a, b) in &p.flows {
            assert!(p.flows.contains(&(b, a)));
            assert_eq!(a ^ b, 2);
        }
    }

    #[test]
    fn comm_fraction_grows_with_scale() {
        // Strong scaling on an oversubscribed tree: communication share
        // must grow (the Fig 14/15 divergence mechanism).
        let net = topo::xgft(2, &[8, 8], &[2, 2]);
        let routes = DfSssp::new().route(&net).unwrap();
        let small = NasBenchmark::SP
            .run(&net, &routes, 16, Allocation::Spread)
            .unwrap();
        let large = NasBenchmark::SP
            .run(&net, &routes, 64, Allocation::Spread)
            .unwrap();
        assert!(large.comm_fraction > small.comm_fraction);
    }

    #[test]
    fn ft_prefers_better_routing_even_small() {
        // FT's all-to-all hits congestion immediately: DFSSSP must not
        // lose to MinHop on an oversubscribed fabric.
        let net = topo::xgft(2, &[8, 8], &[2, 2]);
        let minhop = MinHop::new().route(&net).unwrap();
        let dfsssp = DfSssp::new().route(&net).unwrap();
        let a = NasBenchmark::FT
            .run(&net, &minhop, 32, Allocation::Spread)
            .unwrap();
        let b = NasBenchmark::FT
            .run(&net, &dfsssp, 32, Allocation::Spread)
            .unwrap();
        assert!(
            b.gflops_total >= a.gflops_total * 0.99,
            "DFSSSP {} vs MinHop {}",
            b.gflops_total,
            a.gflops_total
        );
    }

    #[test]
    fn all_benchmarks_produce_finite_results() {
        let net = topo::kary_ntree(4, 2);
        let routes = DfSssp::new().route(&net).unwrap();
        for bench in NasBenchmark::ALL {
            let r = bench.run(&net, &routes, 16, Allocation::Packed).unwrap();
            assert!(r.gflops_total.is_finite() && r.gflops_total > 0.0);
            assert!((0.0..=1.0).contains(&r.comm_fraction));
            assert!(r.comm_seconds >= 0.0 && r.comp_seconds > 0.0);
        }
    }

    #[test]
    fn compute_term_is_routing_independent() {
        let net = topo::kary_ntree(2, 3);
        let a = NasBenchmark::BT
            .run(
                &net,
                &MinHop::new().route(&net).unwrap(),
                8,
                Allocation::Packed,
            )
            .unwrap();
        let b = NasBenchmark::BT
            .run(
                &net,
                &DfSssp::new().route(&net).unwrap(),
                8,
                Allocation::Packed,
            )
            .unwrap();
        assert_eq!(a.comp_seconds, b.comp_seconds);
    }
}
