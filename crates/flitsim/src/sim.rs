//! The cycle-based simulation core.
//!
//! Model, per cycle:
//!
//! 1. Every physical channel transmits at most one packet: it arbitrates
//!    round-robin among the head packets (over all input buffers and
//!    injection queues at its source node, and all virtual lanes) that
//!    want it *and* whose target buffer `(channel, vl)` has a free slot
//!    (credit flow control).
//! 2. A packet arriving at its destination terminal is consumed
//!    immediately (terminals always sink — deadlock condition 4 can only
//!    come from switch buffers).
//!
//! Deadlock detection: if undelivered packets remain but no packet moved
//! during a full cycle, no packet can ever move again (the enabled-move
//! predicate is monotone in buffer occupancy, which is unchanged), so the
//! simulator reports [`Outcome::Deadlock`] immediately.

use crate::workload::Workload;
use fabric::{ChannelId, Network, NodeId, Routes};

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Packets each `(channel, vl)` input buffer can hold.
    pub buffer_capacity: usize,
    /// Hard cycle budget; exceeding it yields [`Outcome::CycleLimit`].
    pub max_cycles: u64,
    /// Flits per packet (virtual cut-through): a transmission occupies
    /// its channel for this many cycles and the packet only becomes
    /// forwardable at the next hop once its tail arrives. `1` recovers
    /// the pure packet model.
    pub packet_flits: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_capacity: 2,
            max_cycles: 1_000_000,
            packet_flits: 1,
        }
    }
}

/// Completed-run statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Packets delivered.
    pub delivered: usize,
    /// Cycles simulated.
    pub cycles: u64,
    /// Mean packet latency in cycles, from workload start (cycle 0) to
    /// consumption — includes source queuing time for burst workloads.
    pub avg_latency: f64,
    /// Worst packet latency.
    pub max_latency: u64,
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// All packets delivered.
    Completed(SimStats),
    /// No movement with packets outstanding: a genuine deadlock.
    Deadlock {
        /// Cycle at which the network wedged.
        cycle: u64,
        /// Packets stuck in buffers or queues.
        stuck: usize,
        /// Packets that made it out before the wedge.
        delivered: usize,
    },
    /// `max_cycles` exhausted (should not happen for sane configs).
    CycleLimit(SimStats),
}

impl Outcome {
    /// Whether the run delivered everything.
    pub fn completed(&self) -> bool {
        matches!(self, Outcome::Completed(_))
    }

    /// Whether the run wedged.
    pub fn deadlocked(&self) -> bool {
        matches!(self, Outcome::Deadlock { .. })
    }
}

#[derive(Clone, Copy)]
struct Packet {
    dst_t: u32,
    vl: u8,
    injected_at: u64,
}

/// One `(channel, vl)` input buffer: FIFO of packet ids.
type Buffer = std::collections::VecDeque<u32>;

/// Buffer-occupancy observations of one run.
#[derive(Clone, Debug, Default)]
pub struct OccupancyStats {
    /// Peak packets queued in any single `(channel, vl)` buffer, per VL.
    /// This is what the balancing step of Algorithm 2 equalizes: spread
    /// layers keep per-VL peaks low, concentrated layers pile onto VL 0.
    pub per_vl_peak: Vec<u32>,
}

impl OccupancyStats {
    /// The worst per-VL peak.
    pub fn max_peak(&self) -> u32 {
        self.per_vl_peak.iter().copied().max().unwrap_or(0)
    }
}

/// Run `workload` over `net`/`routes` under `config`.
///
/// Virtual lanes come from `routes` (a path's packets travel on its
/// assigned layer end to end, like InfiniBand SL-to-VL mapping).
pub fn simulate(
    net: &Network,
    routes: &Routes,
    workload: &Workload,
    config: &SimConfig,
) -> Outcome {
    simulate_detailed(net, routes, workload, config).0
}

/// [`simulate`] with telemetry: the run reports as one `flitsim` phase
/// and bumps the `packets_delivered` / `sim_cycles` counters from the
/// outcome (deadlocked runs report the packets that escaped before the
/// wedge). Identical outcome either way — the recorder only observes.
pub fn simulate_recorded(
    net: &Network,
    routes: &Routes,
    workload: &Workload,
    config: &SimConfig,
    rec: &dyn telemetry::Recorder,
) -> Outcome {
    let outcome = telemetry::timed(rec, telemetry::phases::FLITSIM, || {
        simulate(net, routes, workload, config)
    });
    if rec.enabled() {
        let (delivered, cycles) = match &outcome {
            Outcome::Completed(s) | Outcome::CycleLimit(s) => (s.delivered, s.cycles),
            Outcome::Deadlock {
                cycle, delivered, ..
            } => (*delivered, *cycle),
        };
        rec.add(telemetry::counters::PACKETS_DELIVERED, delivered as u64);
        rec.add(telemetry::counters::SIM_CYCLES, cycles);
    }
    outcome
}

/// [`simulate`] plus per-VL buffer occupancy statistics.
pub fn simulate_detailed(
    net: &Network,
    routes: &Routes,
    workload: &Workload,
    config: &SimConfig,
) -> (Outcome, OccupancyStats) {
    let num_vls = routes.num_layers() as usize;
    let nc = net.num_channels();
    assert_eq!(workload.queues.len(), net.num_terminals());
    assert!(config.buffer_capacity >= 1);
    assert!(config.packet_flits >= 1);
    let flits = config.packet_flits;

    let mut packets: Vec<Packet> = Vec::new();
    // Injection queues per terminal (front = next to inject).
    let mut inject: Vec<std::collections::VecDeque<u32>> = workload
        .queues
        .iter()
        .enumerate()
        .map(|(src_t, dsts)| {
            dsts.iter()
                .map(|&d| {
                    let id = packets.len() as u32;
                    packets.push(Packet {
                        dst_t: d,
                        vl: routes.layer(src_t, d as usize),
                        injected_at: 0,
                    });
                    id
                })
                .collect()
        })
        .collect();

    // buffers[c * num_vls + v] = input buffer at dst(c) for (c, v).
    let mut buffers: Vec<Buffer> = vec![Buffer::new(); nc * num_vls];
    // Round-robin arbitration pointer per channel.
    let mut rr: Vec<usize> = vec![0; nc];
    // Virtual cut-through: cycle until which each channel is serializing,
    // and the cycle each packet's tail arrives at its current buffer.
    let mut channel_busy_until: Vec<u64> = vec![0; nc];
    let mut ready_at: Vec<u64> = Vec::new();
    let mut occupancy = OccupancyStats {
        per_vl_peak: vec![0; num_vls],
    };

    let total = packets.len();
    ready_at.resize(total, 0);
    // A packet traverses at most one channel per cycle.
    let mut moved_at: Vec<u64> = vec![u64::MAX; total];
    let mut delivered = 0usize;
    let mut latency_sum = 0u64;
    let mut max_latency = 0u64;
    let mut cycle = 0u64;

    let terminals = net.terminals();
    // Per channel: the requester slots = (buffers at src node + injection
    // if src is a terminal) x vls. Precompute per-channel input lists.
    let in_slots: Vec<Vec<ChannelId>> = (0..net.num_nodes())
        .map(|n| net.in_channels(NodeId(n as u32)).to_vec())
        .collect();

    while delivered < total {
        if cycle >= config.max_cycles {
            return (
                Outcome::CycleLimit(stats(delivered, cycle, latency_sum, max_latency)),
                occupancy,
            );
        }
        let mut moved = false;

        // Each physical channel arbitrates one transmission.
        for (c, rr_c) in rr.iter_mut().enumerate() {
            if channel_busy_until[c] > cycle {
                continue; // still serializing a previous packet's flits
            }
            let ch = net.channel(ChannelId(c as u32));
            let src = ch.src;
            // Build the requester slot list lazily: slot index ->
            // (Some(in_channel) | None for injection, vl).
            let ins = &in_slots[src.idx()];
            let n_inject = usize::from(net.is_terminal(src));
            let n_slots = (ins.len() + n_inject) * num_vls;
            if n_slots == 0 {
                continue;
            }
            let start = *rr_c % n_slots;
            for k in 0..n_slots {
                let slot = (start + k) % n_slots;
                let (src_buf, vl) = (slot / num_vls, slot % num_vls);
                // Identify the candidate packet at this slot's head.
                let pkt = if src_buf < ins.len() {
                    buffers[ins[src_buf].idx() * num_vls + vl].front().copied()
                } else {
                    // Injection slot: terminal's next packet, if its vl
                    // matches this slot's vl (each packet occupies one
                    // virtual queue).
                    let ti = net.terminal_index(src).unwrap();
                    inject[ti]
                        .front()
                        .copied()
                        .filter(|&p| packets[p as usize].vl as usize == vl)
                };
                let Some(p) = pkt else { continue };
                if moved_at[p as usize] == cycle || ready_at[p as usize] > cycle {
                    continue; // already hopped, or tail still arriving
                }
                let pk = packets[p as usize];
                // Does this packet want channel c?
                let at = src;
                let next = routes.next_hop(at, pk.dst_t as usize);
                if next != Some(ChannelId(c as u32)) {
                    continue;
                }
                // Credit check on the target buffer.
                let tgt = c * num_vls + pk.vl as usize;
                if buffers[tgt].len() >= config.buffer_capacity {
                    continue;
                }
                // Transmit: pop from source, handle arrival.
                if src_buf < ins.len() {
                    buffers[ins[src_buf].idx() * num_vls + vl].pop_front();
                } else {
                    let ti = net.terminal_index(src).unwrap();
                    inject[ti].pop_front();
                }
                let arrive = ch.dst;
                channel_busy_until[c] = cycle + flits;
                if terminals.get(pk.dst_t as usize) == Some(&arrive) {
                    // Consumed at destination (when the tail lands).
                    delivered += 1;
                    let lat = cycle + flits - pk.injected_at;
                    latency_sum += lat;
                    max_latency = max_latency.max(lat);
                } else {
                    buffers[tgt].push_back(p);
                    ready_at[p as usize] = cycle + flits;
                    let occ = buffers[tgt].len() as u32;
                    let peak = &mut occupancy.per_vl_peak[pk.vl as usize];
                    *peak = (*peak).max(occ);
                }
                moved_at[p as usize] = cycle;
                moved = true;
                *rr_c = (slot + 1) % n_slots;
                break;
            }
        }

        cycle += 1;
        // With multi-flit packets, a quiet cycle can be transient: a
        // channel may still be serializing, or a tail may still be in
        // flight. Only an all-idle quiet cycle is a wedge.
        let transient = flits > 1
            && (channel_busy_until.iter().any(|&b| b >= cycle)
                || ready_at.iter().any(|&r| r >= cycle));
        if !moved && !transient {
            // Occupancies unchanged and the enabled-move predicate is
            // static: wedged forever.
            return (
                Outcome::Deadlock {
                    cycle,
                    stuck: total - delivered,
                    delivered,
                },
                occupancy,
            );
        }
    }
    (
        Outcome::Completed(stats(delivered, cycle, latency_sum, max_latency)),
        occupancy,
    )
}

fn stats(delivered: usize, cycles: u64, latency_sum: u64, max_latency: u64) -> SimStats {
    SimStats {
        delivered,
        cycles,
        avg_latency: if delivered > 0 {
            latency_sum as f64 / delivered as f64
        } else {
            0.0
        },
        max_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use baselines::MinHop;
    use dfsssp_core::{DfSssp, EngineConfig, RoutingEngine, Sssp};
    use fabric::topo;

    #[test]
    fn single_packet_traverses_cleanly() {
        let net = topo::kary_ntree(2, 2);
        let routes = Sssp::new().route(&net).unwrap();
        let mut w = Workload::new(net.num_terminals());
        w.queues[0] = vec![3];
        let out = simulate(&net, &routes, &w, &SimConfig::default());
        let Outcome::Completed(stats) = out else {
            panic!("expected completion, got {out:?}");
        };
        assert_eq!(stats.delivered, 1);
        // Latency = hop count of the path.
        let hops = routes
            .path_channels(&net, net.terminals()[0], net.terminals()[3])
            .unwrap()
            .len() as u64;
        assert_eq!(stats.max_latency, hops);
    }

    /// The paper's Figure 2: a 5-ring where everyone sends two hops
    /// clockwise deadlocks under SSSP routing with finite buffers...
    #[test]
    fn fig2_ring_deadlocks_under_sssp() {
        let net = topo::ring(5, 1);
        let routes = Sssp::new().route(&net).unwrap();
        let w = Workload::shift(5, 2, 8);
        let config = SimConfig {
            buffer_capacity: 1,
            max_cycles: 100_000,
            ..SimConfig::default()
        };
        let out = simulate(&net, &routes, &w, &config);
        assert!(out.deadlocked(), "expected deadlock, got {out:?}");
    }

    /// ...and completes under DFSSSP with the same buffers.
    #[test]
    fn fig2_ring_completes_under_dfsssp() {
        let net = topo::ring(5, 1);
        let routes = DfSssp::new().route(&net).unwrap();
        assert!(routes.num_layers() >= 2);
        let w = Workload::shift(5, 2, 8);
        let config = SimConfig {
            buffer_capacity: 1,
            max_cycles: 100_000,
            ..SimConfig::default()
        };
        let out = simulate(&net, &routes, &w, &config);
        let Outcome::Completed(stats) = out else {
            panic!("expected completion, got {out:?}");
        };
        assert_eq!(stats.delivered, 40);
    }

    #[test]
    fn heavy_torus_traffic_completes_under_dfsssp() {
        let net = topo::torus(&[3, 3], 1);
        let routes = DfSssp::new().route(&net).unwrap();
        let w = Workload::uniform_random(9, 20, 7);
        let out = simulate(&net, &routes, &w, &SimConfig::default());
        assert!(out.completed(), "got {out:?}");
    }

    #[test]
    fn minhop_can_wedge_on_odd_torus() {
        // MinHop is not deadlock-free; saturating an odd ring wedges it.
        let net = topo::ring(7, 1);
        let routes = MinHop::new().route(&net).unwrap();
        let w = Workload::shift(7, 3, 16);
        let config = SimConfig {
            buffer_capacity: 1,
            max_cycles: 100_000,
            ..SimConfig::default()
        };
        let out = simulate(&net, &routes, &w, &config);
        assert!(out.deadlocked(), "expected deadlock, got {out:?}");
    }

    #[test]
    fn bigger_buffers_do_not_prevent_deadlock_on_longer_paths() {
        // With deeper buffers, 2-hop ring paths drain under fair
        // arbitration — but 3-hop paths keep enough packets in flight to
        // wedge: buffer size changes *when* cyclic CDGs bite, never
        // *whether* they can.
        let net = topo::ring(8, 1);
        let routes = Sssp::new().route(&net).unwrap();
        for cap in [2, 3] {
            let config = SimConfig {
                buffer_capacity: cap,
                max_cycles: 100_000,
                ..SimConfig::default()
            };
            let out = simulate(&net, &routes, &Workload::shift(8, 3, 64), &config);
            assert!(
                out.deadlocked(),
                "cap {cap}: expected deadlock, got {out:?}"
            );
        }
        // Control: the same buffers with the 5-ring 2-hop pattern drain.
        let net5 = topo::ring(5, 1);
        let routes5 = Sssp::new().route(&net5).unwrap();
        let config = SimConfig {
            buffer_capacity: 2,
            max_cycles: 100_000,
            ..SimConfig::default()
        };
        let out = simulate(&net5, &routes5, &Workload::shift(5, 2, 64), &config);
        assert!(out.completed(), "got {out:?}");
    }

    #[test]
    fn multi_flit_packets_serialize() {
        // A single 8-flit packet: latency = hops * flits (store-and-
        // forward at packet granularity with 1 flit/cycle links).
        let net = topo::kary_ntree(2, 2);
        let routes = DfSssp::new().route(&net).unwrap();
        let mut w = Workload::new(net.num_terminals());
        w.queues[0] = vec![3];
        let hops = routes
            .path_channels(&net, net.terminals()[0], net.terminals()[3])
            .unwrap()
            .len() as u64;
        for flits in [1u64, 4, 8] {
            let config = SimConfig {
                packet_flits: flits,
                ..SimConfig::default()
            };
            let Outcome::Completed(stats) = simulate(&net, &routes, &w, &config) else {
                panic!("expected completion");
            };
            assert_eq!(stats.max_latency, hops * flits, "flits = {flits}");
        }
    }

    #[test]
    fn multi_flit_ring_still_deadlocks_under_sssp() {
        let net = topo::ring(5, 1);
        let routes = Sssp::new().route(&net).unwrap();
        let config = SimConfig {
            buffer_capacity: 1,
            packet_flits: 4,
            max_cycles: 100_000,
        };
        let out = simulate(&net, &routes, &Workload::shift(5, 2, 8), &config);
        assert!(out.deadlocked(), "got {out:?}");
    }

    #[test]
    fn multi_flit_dfsssp_still_drains() {
        let net = topo::ring(5, 1);
        let routes = DfSssp::new().route(&net).unwrap();
        let config = SimConfig {
            buffer_capacity: 1,
            packet_flits: 4,
            max_cycles: 200_000,
        };
        let out = simulate(&net, &routes, &Workload::shift(5, 2, 8), &config);
        let Outcome::Completed(stats) = out else {
            panic!("expected completion, got {out:?}");
        };
        assert_eq!(stats.delivered, 40);
    }

    #[test]
    fn bigger_packets_take_longer_under_contention() {
        let net = topo::kary_ntree(2, 2);
        let routes = DfSssp::new().route(&net).unwrap();
        let w = Workload::uniform_random(net.num_terminals(), 10, 4);
        let run = |flits| {
            let config = SimConfig {
                packet_flits: flits,
                ..SimConfig::default()
            };
            match simulate(&net, &routes, &w, &config) {
                Outcome::Completed(s) => s.cycles,
                o => panic!("{o:?}"),
            }
        };
        let short = run(1);
        let long = run(8);
        assert!(long > 4 * short, "8-flit run {long} vs 1-flit {short}");
    }

    #[test]
    fn balancing_lowers_per_vl_peaks() {
        // The tail of Algorithm 2 spreads paths over empty layers "to
        // equalize per-VL buffer usage" — observable in the simulator:
        // the balanced routing's busiest VL buffer peaks no higher (and
        // typically lower) than the unbalanced one's.
        let net = topo::ring(6, 2);
        let w = Workload::uniform_random(net.num_terminals(), 20, 9);
        let run = |balance: bool| {
            let routes = DfSssp {
                config: EngineConfig::new().balance(balance),
                ..DfSssp::new()
            }
            .route(&net)
            .unwrap();
            let (out, occ) = simulate_detailed(&net, &routes, &w, &SimConfig::default());
            assert!(out.completed(), "{out:?}");
            occ
        };
        let unbalanced = run(false);
        let balanced = run(true);
        assert!(
            balanced.max_peak() <= unbalanced.max_peak(),
            "balanced peak {} vs unbalanced {}",
            balanced.max_peak(),
            unbalanced.max_peak()
        );
        // And the balanced run actually uses more lanes.
        let used = |o: &OccupancyStats| o.per_vl_peak.iter().filter(|&&p| p > 0).count();
        assert!(used(&balanced) >= used(&unbalanced));
    }

    #[test]
    fn occupancy_is_bounded_by_capacity() {
        let net = topo::torus(&[3, 3], 1);
        let routes = DfSssp::new().route(&net).unwrap();
        let w = Workload::uniform_random(9, 30, 2);
        let config = SimConfig {
            buffer_capacity: 3,
            ..SimConfig::default()
        };
        let (out, occ) = simulate_detailed(&net, &routes, &w, &config);
        assert!(out.completed());
        assert!(occ.max_peak() as usize <= 3);
        assert_eq!(occ.per_vl_peak.len(), routes.num_layers() as usize);
    }

    #[test]
    fn empty_workload_completes_instantly() {
        let net = topo::ring(4, 1);
        let routes = DfSssp::new().route(&net).unwrap();
        let out = simulate(&net, &routes, &Workload::new(4), &SimConfig::default());
        let Outcome::Completed(stats) = out else {
            panic!()
        };
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn cycle_limit_reported() {
        let net = topo::ring(5, 1);
        let routes = DfSssp::new().route(&net).unwrap();
        let w = Workload::shift(5, 2, 100);
        let config = SimConfig {
            buffer_capacity: 1,
            max_cycles: 3,
            ..SimConfig::default()
        };
        let out = simulate(&net, &routes, &w, &config);
        assert!(matches!(out, Outcome::CycleLimit(_)));
    }

    #[test]
    fn latency_grows_with_congestion() {
        let net = topo::kary_ntree(2, 2);
        let routes = DfSssp::new().route(&net).unwrap();
        let light = Workload::uniform_random(4, 1, 3);
        let heavy = Workload::uniform_random(4, 50, 3);
        let Outcome::Completed(a) = simulate(&net, &routes, &light, &SimConfig::default()) else {
            panic!()
        };
        let Outcome::Completed(b) = simulate(&net, &routes, &heavy, &SimConfig::default()) else {
            panic!()
        };
        assert!(b.avg_latency > a.avg_latency);
        assert!(b.cycles > a.cycles);
    }
}
