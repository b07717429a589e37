//! Open-loop traffic traces: timestamped query streams for overload
//! testing.
//!
//! Closed-loop load (issue, wait, repeat) can never overdrive a server —
//! the client self-throttles to the server's pace, which is exactly how
//! real route-resolution traffic does *not* behave. This module builds
//! **open-loop** traces instead: every query carries an arrival time
//! drawn from a Poisson or bursty process, and the replayer submits at
//! those times whether or not the server kept up. Offered load is a
//! property of the trace, achieved load is the measurement.
//!
//! Three orthogonal axes compose a trace ([`TraceSpec`]):
//!
//! * [`Arrivals`] — the point process (Poisson, or on/off bursts with
//!   Poisson arrivals inside each burst);
//! * [`Mix`] — which `(src, dst)` pairs are asked for: uniform random,
//!   a hotspot concentration, or the communication pairs of a NAS
//!   kernel ([`NasBenchmark::comm_pairs`]) so the skew of a real
//!   application's traffic hits the serving path;
//! * [`Shape`] — rate modulation over the trace: flat, a diurnal
//!   triangle wave, or a flash crowd multiplying the rate inside a
//!   window.
//!
//! Generation uses Lewis–Shedler thinning at the peak rate, entirely
//! from a seeded [`SplitMix64`] stream: the same spec and seed produce
//! byte-identical traces on every platform — benches replay, CI gates.

use crate::alloc::Allocation;
use crate::nas::NasBenchmark;
use fabric::rng::{unit_f64, SplitMix64};
use fabric::{Network, NodeId};

/// The admission class a trace query should be submitted under. Mirrors
/// `serve::QueryClass` without a dependency on the serving crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficClass {
    /// Latency-sensitive traffic.
    Interactive,
    /// Best-effort traffic (sheddable under overload).
    Bulk,
}

/// One timestamped query of an open-loop trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceQuery {
    /// Arrival time, microseconds from trace start.
    pub at_us: u64,
    /// Source terminal.
    pub src: NodeId,
    /// Destination terminal (always distinct from `src`).
    pub dst: NodeId,
    /// Admission class.
    pub class: TrafficClass,
}

/// The arrival point process.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Memoryless arrivals at the shaped rate.
    Poisson,
    /// On/off bursts: Poisson arrivals during `on_ms`, silence during
    /// `off_ms`, repeating. The *average* rate stays the spec's rate —
    /// the on-phase rate is scaled up by `(on+off)/on` — so bursts
    /// stress queues without changing total offered work.
    Bursty {
        /// Burst length, milliseconds.
        on_ms: u64,
        /// Gap length, milliseconds.
        off_ms: u64,
    },
}

/// Which pairs the trace asks for.
#[derive(Clone, Debug)]
pub enum Mix {
    /// Uniform random distinct terminal pairs.
    Uniform,
    /// `hot_permille` of queries target one of the first `targets`
    /// terminals (an incast onto popular destinations); the rest are
    /// uniform.
    Hotspot {
        /// Fraction of queries aimed at the hot set, permille.
        hot_permille: u32,
        /// Size of the hot destination set.
        targets: usize,
    },
    /// Pairs drawn from a NAS kernel's communication structure, with
    /// each pair's frequency proportional to how often the kernel
    /// exercises it per iteration (`ranks` MPI ranks, spread-allocated
    /// over the fabric's terminals).
    Nas {
        /// The kernel whose traffic skew to replay.
        bench: NasBenchmark,
        /// MPI ranks (must not exceed the terminal count).
        ranks: usize,
    },
}

/// Rate modulation across the trace.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Constant rate.
    Flat,
    /// A triangle wave between 50% and 100% of the rate with the given
    /// period — a compressed diurnal cycle.
    Diurnal {
        /// Cycle period, milliseconds.
        period_ms: u64,
    },
    /// Baseline rate, multiplied by `boost` inside the window starting
    /// at `at_ms` for `for_ms`.
    FlashCrowd {
        /// Window start, milliseconds from trace start.
        at_ms: u64,
        /// Window length, milliseconds.
        for_ms: u64,
        /// Rate multiplier inside the window (≥ 1).
        boost: u32,
    },
}

/// A full trace specification; see the module docs for the axes.
#[derive(Clone, Debug)]
pub struct TraceSpec {
    /// Average offered rate, queries per second.
    pub rate_qps: f64,
    /// Trace length, milliseconds.
    pub duration_ms: u64,
    /// RNG seed; same spec + seed → identical trace.
    pub seed: u64,
    /// Fraction of queries submitted as [`TrafficClass::Bulk`], permille.
    pub bulk_permille: u32,
    /// Pair selection.
    pub mix: Mix,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Rate modulation.
    pub shape: Shape,
}

/// The shape's instantaneous rate multiplier at `t_us` (≤ its peak).
fn shape_factor(shape: &Shape, t_us: u64) -> f64 {
    match *shape {
        Shape::Flat => 1.0,
        Shape::Diurnal { period_ms } => {
            let period = (period_ms.max(1)) * 1000;
            let phase = (t_us % period) as f64 / period as f64; // [0,1)
                                                                // Triangle between 0.5 and 1.0: peak mid-period.
            let tri = 1.0 - (2.0 * phase - 1.0).abs(); // 0→0, .5→1, 1→0
            0.5 + 0.5 * tri
        }
        Shape::FlashCrowd {
            at_ms,
            for_ms,
            boost,
        } => {
            let (start, end) = (at_ms * 1000, (at_ms + for_ms) * 1000);
            if (start..end).contains(&t_us) {
                f64::from(boost.max(1))
            } else {
                1.0
            }
        }
    }
}

/// The largest multiplier `shape_factor` can return, for thinning.
fn shape_peak(shape: &Shape) -> f64 {
    match *shape {
        Shape::Flat | Shape::Diurnal { .. } => 1.0,
        Shape::FlashCrowd { boost, .. } => f64::from(boost.max(1)),
    }
}

/// Whether `t_us` falls inside a burst, and the on-phase rate scale
/// that keeps the average rate at spec.
fn burst_gate(arrivals: &Arrivals, t_us: u64) -> f64 {
    match *arrivals {
        Arrivals::Poisson => 1.0,
        Arrivals::Bursty { on_ms, off_ms } => {
            let on = on_ms.max(1) * 1000;
            let cycle = on + off_ms * 1000;
            if t_us % cycle < on {
                cycle as f64 / on as f64
            } else {
                0.0
            }
        }
    }
}

fn burst_peak(arrivals: &Arrivals) -> f64 {
    match *arrivals {
        Arrivals::Poisson => 1.0,
        Arrivals::Bursty { on_ms, off_ms } => {
            let on = on_ms.max(1) * 1000;
            let cycle = on + off_ms * 1000;
            cycle as f64 / on as f64
        }
    }
}

/// Generate the trace. Arrival times are strictly increasing; every
/// query's endpoints are distinct terminals of `net`.
///
/// # Panics
/// Panics if the network has fewer than two terminals, the rate is not
/// positive, or a [`Mix::Nas`] asks for more ranks than terminals.
pub fn generate(net: &Network, spec: &TraceSpec) -> Vec<TraceQuery> {
    let terminals = net.terminals();
    assert!(terminals.len() >= 2, "a trace needs at least two terminals");
    assert!(spec.rate_qps > 0.0, "offered rate must be positive");

    // For the NAS mix, materialize the kernel's weighted pair list once
    // (in terminal space); self-pairs are dropped up front.
    let nas_pairs: Vec<(NodeId, NodeId)> = match &spec.mix {
        Mix::Nas { bench, ranks } => {
            let place = Allocation::Spread.place(net, *ranks);
            bench
                .comm_pairs(*ranks)
                .into_iter()
                .map(|(s, d)| {
                    (
                        terminals[place[s as usize] as usize],
                        terminals[place[d as usize] as usize],
                    )
                })
                .filter(|(s, d)| s != d)
                .collect()
        }
        _ => Vec::new(),
    };

    let mut rng = SplitMix64(spec.seed);
    let peak_per_us =
        spec.rate_qps * shape_peak(&spec.shape) * burst_peak(&spec.arrivals) / 1_000_000.0;
    let horizon_us = spec.duration_ms * 1000;
    let mut queries = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential gap at the peak rate; thinning keeps the sub-peak
        // intervals honest (Lewis–Shedler).
        let u = unit_f64(rng.next_u64()).max(f64::MIN_POSITIVE);
        t += -u.ln() / peak_per_us;
        let at_us = t as u64;
        if at_us >= horizon_us {
            break;
        }
        let intensity = shape_factor(&spec.shape, at_us) * burst_gate(&spec.arrivals, at_us);
        if unit_f64(rng.next_u64()) * shape_peak(&spec.shape) * burst_peak(&spec.arrivals)
            >= intensity
        {
            continue; // thinned: this instant's rate is below peak
        }
        let (src, dst) = match &spec.mix {
            Mix::Uniform => pick_distinct(terminals, &mut rng),
            Mix::Hotspot {
                hot_permille,
                targets,
            } => {
                if rng.next_u64() % 1000 < u64::from(*hot_permille) {
                    let hot = (*targets).clamp(1, terminals.len());
                    let dst = terminals[(rng.next_u64() % hot as u64) as usize];
                    let src = loop {
                        let s = terminals[(rng.next_u64() % terminals.len() as u64) as usize];
                        if s != dst {
                            break s;
                        }
                    };
                    (src, dst)
                } else {
                    pick_distinct(terminals, &mut rng)
                }
            }
            Mix::Nas { .. } => nas_pairs[(rng.next_u64() % nas_pairs.len() as u64) as usize],
        };
        let class = if rng.next_u64() % 1000 < u64::from(spec.bulk_permille) {
            TrafficClass::Bulk
        } else {
            TrafficClass::Interactive
        };
        queries.push(TraceQuery {
            at_us,
            src,
            dst,
            class,
        });
    }
    queries
}

fn pick_distinct(terminals: &[NodeId], rng: &mut SplitMix64) -> (NodeId, NodeId) {
    let src = terminals[(rng.next_u64() % terminals.len() as u64) as usize];
    loop {
        let dst = terminals[(rng.next_u64() % terminals.len() as u64) as usize];
        if dst != src {
            return (src, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::topo;

    fn spec(mix: Mix, arrivals: Arrivals, shape: Shape) -> TraceSpec {
        TraceSpec {
            rate_qps: 50_000.0,
            duration_ms: 200,
            seed: 7,
            bulk_permille: 850,
            mix,
            arrivals,
            shape,
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let net = topo::kary_ntree(4, 2);
        let s = spec(Mix::Uniform, Arrivals::Poisson, Shape::Flat);
        let a = generate(&net, &s);
        let b = generate(&net, &s);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.at_us, x.src, x.dst, x.class),
                (y.at_us, y.src, y.dst, y.class)
            );
        }
        let c = generate(&net, &TraceSpec { seed: 8, ..s });
        assert_ne!(a.len(), c.len(), "different seed, different trace");
    }

    #[test]
    fn flat_poisson_hits_the_offered_rate() {
        let net = topo::kary_ntree(4, 2);
        let s = spec(Mix::Uniform, Arrivals::Poisson, Shape::Flat);
        let trace = generate(&net, &s);
        let expected = s.rate_qps * s.duration_ms as f64 / 1000.0;
        let got = trace.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "offered {expected}, generated {got}"
        );
        // Arrivals are ordered and in-horizon, with both classes present.
        assert!(trace.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(trace.iter().all(|q| q.at_us < s.duration_ms * 1000));
        assert!(trace.iter().any(|q| q.class == TrafficClass::Bulk));
        assert!(trace.iter().any(|q| q.class == TrafficClass::Interactive));
    }

    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let net = topo::kary_ntree(4, 2);
        let s = spec(
            Mix::Uniform,
            Arrivals::Poisson,
            Shape::FlashCrowd {
                at_ms: 100,
                for_ms: 20,
                boost: 8,
            },
        );
        let trace = generate(&net, &s);
        let window = trace
            .iter()
            .filter(|q| (100_000..120_000).contains(&q.at_us))
            .count();
        let baseline = trace
            .iter()
            .filter(|q| (60_000..80_000).contains(&q.at_us))
            .count();
        assert!(
            window > baseline * 4,
            "flash window {window} vs baseline {baseline}"
        );
    }

    #[test]
    fn bursty_arrivals_leave_silent_gaps_but_keep_the_average() {
        let net = topo::kary_ntree(4, 2);
        let s = spec(
            Mix::Uniform,
            Arrivals::Bursty {
                on_ms: 10,
                off_ms: 10,
            },
            Shape::Flat,
        );
        let trace = generate(&net, &s);
        assert!(
            trace.iter().all(|q| (q.at_us % 20_000) < 10_000),
            "arrival inside an off-gap"
        );
        let expected = s.rate_qps * s.duration_ms as f64 / 1000.0;
        let got = trace.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "bursts must conserve the average rate: {expected} vs {got}"
        );
    }

    #[test]
    fn hotspot_mix_concentrates_destinations() {
        let net = topo::kary_ntree(4, 2);
        let s = spec(
            Mix::Hotspot {
                hot_permille: 900,
                targets: 2,
            },
            Arrivals::Poisson,
            Shape::Flat,
        );
        let trace = generate(&net, &s);
        let hot: Vec<NodeId> = net.terminals()[..2].to_vec();
        let onto_hot = trace.iter().filter(|q| hot.contains(&q.dst)).count();
        assert!(
            onto_hot as f64 > trace.len() as f64 * 0.8,
            "hotspot mix not concentrated: {onto_hot}/{}",
            trace.len()
        );
    }

    #[test]
    fn nas_mix_replays_the_kernels_pairs() {
        let net = topo::kary_ntree(4, 2);
        let s = spec(
            Mix::Nas {
                bench: NasBenchmark::FT,
                ranks: 16,
            },
            Arrivals::Poisson,
            Shape::Flat,
        );
        let trace = generate(&net, &s);
        assert!(!trace.is_empty());
        let terminals = net.terminals();
        for q in &trace {
            assert_ne!(q.src, q.dst);
            assert!(terminals.contains(&q.src) && terminals.contains(&q.dst));
        }
    }

    #[test]
    fn diurnal_shape_modulates_but_preserves_order() {
        let net = topo::kary_ntree(4, 2);
        let s = spec(
            Mix::Uniform,
            Arrivals::Poisson,
            Shape::Diurnal { period_ms: 100 },
        );
        let trace = generate(&net, &s);
        assert!(!trace.is_empty());
        // Mid-period (peak of the triangle) must out-arrive the edges.
        let peak = trace
            .iter()
            .filter(|q| (40_000..60_000).contains(&(q.at_us % 100_000)))
            .count();
        let trough = trace
            .iter()
            .filter(|q| (q.at_us % 100_000) < 20_000)
            .count();
        assert!(peak > trough, "diurnal peak {peak} vs trough {trough}");
    }
}
