//! A failure-campaign harness: seeded schedules of faults and
//! recoveries, replayed through the fault-tolerance loop with per-event
//! repair-cost accounting.
//!
//! A campaign is a list of [`Batch`]es — coalescing units of
//! [`FabricEvent`]s — generated deterministically from a seed by
//! [`schedule`]: random cable failures and repairs, correlated
//! switch-plus-cable bursts, a link-flap burst, and (by default) a heal
//! tail that restores every failed component so the campaign ends at the
//! reference state. [`run_campaign`] replays the schedule against any
//! topology and engine, re-vets every intermediate programmed state with
//! the static analyzer, and reports what each repair cost: reroute time,
//! SMP writes, the VL trajectory, quarantine counts, and which
//! escalation rung resolved each event.

use crate::events::{FabricEvent, SmLoop};
use crate::manager::SmError;
use dfsssp_core::RoutingEngine;
use fabric::rng::Rng;
use fabric::{ChannelId, Network, NodeId};
use telemetry::fx::FxHashSet;

/// What kind of campaign [`schedule`] generates.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Minimum number of events to schedule (before the heal tail).
    pub events: usize,
    /// RNG seed; same seed + same network = same schedule.
    pub seed: u64,
    /// Include a link-flap burst (down-up-down-up-down in one batch).
    pub flap_burst: bool,
    /// Include switch failures and correlated switch+cable bursts.
    pub switch_bursts: bool,
    /// Append a heal tail restoring every failed component.
    pub heal: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            events: 10,
            seed: 7,
            flap_burst: true,
            switch_bursts: true,
            heal: true,
        }
    }
}

/// One coalescing unit of the campaign: the loop handles the whole
/// batch with a single reroute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    /// What this batch models (for the report).
    pub label: String,
    /// The events, applied in order.
    pub events: Vec<FabricEvent>,
}

/// Generate a deterministic failure/recovery schedule for `net`.
///
/// Event ids refer to `net` as the reference network (see
/// [`FabricEvent`]). Concurrent failures are capped — at most a third
/// of the switch-switch cables and a quarter of the switches down at
/// once — so the campaign degrades the fabric without demolishing it.
pub fn schedule(net: &Network, spec: &CampaignSpec) -> Vec<Batch> {
    let mut rng = Rng::seed_from_u64(spec.seed);
    // Canonical (lower-id direction) switch-switch cables.
    let uplinks: Vec<ChannelId> = net
        .channels()
        .filter(|(id, ch)| {
            net.is_switch(ch.src) && net.is_switch(ch.dst) && ch.rev.is_none_or(|r| r.0 > id.0)
        })
        .map(|(id, _)| id)
        .collect();
    let switches: Vec<NodeId> = net.switches().to_vec();
    let cable_cap = (uplinks.len() / 3).max(1);
    let switch_cap = (switches.len() / 4).max(1);

    let mut down_c: FxHashSet<ChannelId> = FxHashSet::default();
    let mut down_s: FxHashSet<NodeId> = FxHashSet::default();
    let mut batches: Vec<Batch> = Vec::new();
    let mut total = 0usize;
    let mut flap_done = !spec.flap_burst;

    let pick = |rng: &mut Rng, n: usize| rng.range(0..n);

    while total < spec.events {
        // The flap burst goes second, after at least one plain event.
        if !flap_done && !batches.is_empty() {
            let ups: Vec<ChannelId> = uplinks
                .iter()
                .copied()
                .filter(|c| !down_c.contains(c))
                .collect();
            if !ups.is_empty() {
                let c = ups[pick(&mut rng, ups.len())];
                batches.push(Batch {
                    label: "flap-burst".into(),
                    events: vec![
                        FabricEvent::CableDown(c),
                        FabricEvent::CableUp(c),
                        FabricEvent::CableDown(c),
                        FabricEvent::CableUp(c),
                        FabricEvent::CableDown(c),
                    ],
                });
                down_c.insert(c);
                total += 5;
            }
            flap_done = true;
            continue;
        }

        let kind = pick(&mut rng, 10);
        // Candidate pools under the concurrency caps.
        let cables_up: Vec<ChannelId> = uplinks
            .iter()
            .copied()
            .filter(|c| !down_c.contains(c))
            .collect();
        let mut cables_down: Vec<ChannelId> = down_c.iter().copied().collect();
        cables_down.sort_unstable_by_key(|c| c.0);
        let switches_up: Vec<NodeId> = switches
            .iter()
            .copied()
            .filter(|s| !down_s.contains(s))
            .collect();
        let mut switches_down: Vec<NodeId> = down_s.iter().copied().collect();
        switches_down.sort_unstable_by_key(|s| s.0);

        let can_cable_down = !cables_up.is_empty() && down_c.len() < cable_cap;
        let can_switch_down =
            spec.switch_bursts && !switches_up.is_empty() && down_s.len() < switch_cap;

        let batch = match kind {
            0..=3 if can_cable_down => {
                let c = cables_up[pick(&mut rng, cables_up.len())];
                down_c.insert(c);
                Batch {
                    label: "cable-down".into(),
                    events: vec![FabricEvent::CableDown(c)],
                }
            }
            4..=5 if !cables_down.is_empty() => {
                let c = cables_down[pick(&mut rng, cables_down.len())];
                down_c.remove(&c);
                Batch {
                    label: "cable-up".into(),
                    events: vec![FabricEvent::CableUp(c)],
                }
            }
            6 if can_switch_down => {
                let s = switches_up[pick(&mut rng, switches_up.len())];
                down_s.insert(s);
                Batch {
                    label: "switch-down".into(),
                    events: vec![FabricEvent::SwitchDown(s)],
                }
            }
            7 if !switches_down.is_empty() => {
                let s = switches_down[pick(&mut rng, switches_down.len())];
                down_s.remove(&s);
                Batch {
                    label: "switch-up".into(),
                    events: vec![FabricEvent::SwitchUp(s)],
                }
            }
            8..=9 if can_switch_down => {
                // Correlated burst: a switch dies and takes unrelated
                // cables with it (a powered rack, a cut cable tray).
                let s = switches_up[pick(&mut rng, switches_up.len())];
                down_s.insert(s);
                let mut events = vec![FabricEvent::SwitchDown(s)];
                for _ in 0..2 {
                    let pool: Vec<ChannelId> = uplinks
                        .iter()
                        .copied()
                        .filter(|c| !down_c.contains(c))
                        .collect();
                    if pool.is_empty() || down_c.len() >= cable_cap {
                        break;
                    }
                    let c = pool[pick(&mut rng, pool.len())];
                    down_c.insert(c);
                    events.push(FabricEvent::CableDown(c));
                }
                Batch {
                    label: "correlated-burst".into(),
                    events,
                }
            }
            _ if can_cable_down => {
                let c = cables_up[pick(&mut rng, cables_up.len())];
                down_c.insert(c);
                Batch {
                    label: "cable-down".into(),
                    events: vec![FabricEvent::CableDown(c)],
                }
            }
            _ if !cables_down.is_empty() => {
                let c = cables_down[pick(&mut rng, cables_down.len())];
                down_c.remove(&c);
                Batch {
                    label: "cable-up".into(),
                    events: vec![FabricEvent::CableUp(c)],
                }
            }
            _ => continue,
        };
        total += batch.events.len();
        batches.push(batch);
    }

    if spec.heal {
        let mut switches_down: Vec<NodeId> = down_s.iter().copied().collect();
        switches_down.sort_unstable_by_key(|s| s.0);
        for s in switches_down {
            batches.push(Batch {
                label: "heal-switch".into(),
                events: vec![FabricEvent::SwitchUp(s)],
            });
        }
        let mut cables_down: Vec<ChannelId> = down_c.iter().copied().collect();
        cables_down.sort_unstable_by_key(|c| c.0);
        for c in cables_down {
            batches.push(Batch {
                label: "heal-cable".into(),
                events: vec![FabricEvent::CableUp(c)],
            });
        }
    }
    batches
}

/// One line of the campaign report: what handling a batch cost.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Batch label (`bring-up` for the initial programming).
    pub label: String,
    /// Events in the batch (coalesced into one reroute).
    pub events: usize,
    /// Whether a reroute actually ran.
    pub rerouted: bool,
    /// Reroute wall-clock time in milliseconds.
    pub elapsed_ms: f64,
    /// Reroute wall-clock time in nanoseconds (0 for no-op batches) —
    /// the resolution incremental rerouting is judged at, where
    /// milliseconds round every fast repair to 0.0.
    pub reroute_ns: u64,
    /// LFT entries rewritten (SMP write cost).
    pub entries_changed: usize,
    /// Switches with at least one rewritten entry.
    pub switches_touched: usize,
    /// Virtual layers of the serving routing after the batch.
    pub vls: usize,
    /// Terminals quarantined after the batch.
    pub quarantined: usize,
    /// The escalation rung that resolved the batch.
    pub resolved_by: String,
    /// The transition plan (`direct`, `staged(k)+drain`, `no-op`).
    pub plan: String,
    /// Error-severity findings when re-vetting the programmed state.
    pub vet_errors: usize,
}

/// The full result of a campaign run.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Topology label of the reference network.
    pub topology: String,
    /// Engine under test.
    pub engine: String,
    /// Schedule seed (0 when the schedule was hand-built).
    pub seed: u64,
    /// One record per batch, bring-up first.
    pub records: Vec<EventRecord>,
    /// Intermediate states that failed vetting: unvetted transition
    /// stages plus programmed states with error-severity findings.
    pub unsafe_states: usize,
    /// Terminals still quarantined when the campaign ended.
    pub final_quarantined: usize,
    /// Highest VL count any intermediate routing used.
    pub max_vls: usize,
    /// Routing epochs produced per second of reroute work: reroutes
    /// divided by total reroute wall-clock time. The campaign-level
    /// throughput figure incremental rerouting moves.
    pub epochs_per_sec: f64,
}

impl CampaignReport {
    /// The acceptance gate: every intermediate state was safe and no
    /// terminal was left behind.
    pub fn ok(&self) -> bool {
        self.unsafe_states == 0 && self.final_quarantined == 0
    }

    /// Render as an aligned human-readable table with a summary line.
    pub fn render_human(&self) -> String {
        let headers = [
            "event", "n", "reroute", "ms", "ns", "entries", "switches", "vls", "quar", "rung",
            "plan", "vet",
        ];
        let rows: Vec<Vec<String>> = self
            .records
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.events.to_string(),
                    if r.rerouted { "yes" } else { "-" }.to_string(),
                    format!("{:.1}", r.elapsed_ms),
                    r.reroute_ns.to_string(),
                    r.entries_changed.to_string(),
                    r.switches_touched.to_string(),
                    r.vls.to_string(),
                    r.quarantined.to_string(),
                    r.resolved_by.clone(),
                    r.plan.clone(),
                    if r.vet_errors == 0 {
                        "clean".to_string()
                    } else {
                        format!("{} error(s)", r.vet_errors)
                    },
                ]
            })
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "campaign: {} × {} (seed {})\n",
            self.topology, self.engine, self.seed
        ));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        out.push_str(&fmt_row(&head, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&format!(
            "unsafe states: {}  final quarantined: {}  max vls: {}  epochs/s: {:.1}  \
             verdict: {}\n",
            self.unsafe_states,
            self.final_quarantined,
            self.max_vls,
            self.epochs_per_sec,
            if self.ok() { "OK" } else { "UNSAFE" }
        ));
        out
    }

    /// Serialize the report as JSON.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"topology\": \"{}\",\n", esc(&self.topology)));
        out.push_str(&format!("  \"engine\": \"{}\",\n", esc(&self.engine)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"events\": {}, \"rerouted\": {}, \
                 \"elapsed_ms\": {:.3}, \"reroute_ns\": {}, \"entries_changed\": {}, \
                 \"switches_touched\": {}, \
                 \"vls\": {}, \"quarantined\": {}, \"resolved_by\": \"{}\", \
                 \"plan\": \"{}\", \"vet_errors\": {}}}{}\n",
                esc(&r.label),
                r.events,
                r.rerouted,
                r.elapsed_ms,
                r.reroute_ns,
                r.entries_changed,
                r.switches_touched,
                r.vls,
                r.quarantined,
                esc(&r.resolved_by),
                esc(&r.plan),
                r.vet_errors,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"unsafe_states\": {},\n", self.unsafe_states));
        out.push_str(&format!(
            "  \"final_quarantined\": {},\n",
            self.final_quarantined
        ));
        out.push_str(&format!("  \"max_vls\": {},\n", self.max_vls));
        out.push_str(&format!(
            "  \"epochs_per_sec\": {:.3},\n",
            self.epochs_per_sec
        ));
        out.push_str(&format!("  \"ok\": {}\n", self.ok()));
        out.push('}');
        out
    }
}

/// Replay `batches` against `net` with `engine`, vetting every
/// intermediate programmed state.
pub fn run_campaign<E: RoutingEngine>(
    engine: E,
    net: &Network,
    batches: &[Batch],
    seed: u64,
) -> Result<CampaignReport, SmError> {
    run_campaign_recorded(engine, net, batches, seed, telemetry::noop())
}

/// [`run_campaign`] with the subnet-manager loop's telemetry attached:
/// per-event reroute latency and escalation-rung counters land in
/// `recorder`.
pub fn run_campaign_recorded<E: RoutingEngine>(
    engine: E,
    net: &Network,
    batches: &[Batch],
    seed: u64,
    recorder: telemetry::RecorderHandle,
) -> Result<CampaignReport, SmError> {
    let engine_name = engine.name().to_string();
    let sm_node = net
        .terminals()
        .first()
        .copied()
        .ok_or(SmError::PartialDiscovery {
            found: 0,
            total: net.num_nodes(),
        })?;
    let mut sm = SmLoop::bring_up(engine, net.clone(), sm_node)?;
    sm.set_recorder(recorder);
    let mut report = CampaignReport {
        topology: net.label().to_string(),
        engine: engine_name,
        seed,
        records: Vec::new(),
        unsafe_states: 0,
        final_quarantined: 0,
        max_vls: 0,
        epochs_per_sec: 0.0,
    };
    record(&mut report, &sm, "bring-up", 0);
    for batch in batches {
        sm.handle_batch(&batch.events)?;
        record(&mut report, &sm, &batch.label, batch.events.len());
    }
    report.final_quarantined = sm.quarantined().len();
    let epochs = report.records.iter().filter(|r| r.rerouted).count();
    let reroute_secs: f64 = report
        .records
        .iter()
        .map(|r| r.reroute_ns as f64 / 1e9)
        .sum();
    if reroute_secs > 0.0 {
        report.epochs_per_sec = epochs as f64 / reroute_secs;
    }
    Ok(report)
}

/// Vet the loop's current programmed state and append a record.
fn record<E: RoutingEngine>(
    report: &mut CampaignReport,
    sm: &SmLoop<E>,
    label: &str,
    events: usize,
) {
    let outcome = sm.outcome();
    let cfg = vet::Config {
        hw_vls: Some(8),
        deadlock_error: true,
        check_minimal: false,
        ..vet::Config::default()
    };
    let vetted = vet::analyze_with(sm.network(), &sm.programmed().routes, &cfg);
    let vet_errors = vetted.num_errors();
    let unvetted_stages = outcome.plan.stages.iter().filter(|s| !s.vetted).count();
    report.unsafe_states += unvetted_stages + usize::from(vet_errors > 0);
    report.max_vls = report.max_vls.max(outcome.vls);
    report.records.push(EventRecord {
        label: label.to_string(),
        events,
        rerouted: outcome.rerouted,
        elapsed_ms: outcome.elapsed.as_secs_f64() * 1e3,
        reroute_ns: outcome.elapsed.as_nanos() as u64,
        entries_changed: outcome.diff.entries_changed,
        switches_touched: outcome.diff.switches_touched,
        vls: outcome.vls,
        quarantined: outcome.quarantined.len(),
        resolved_by: outcome.resolved_by().to_string(),
        plan: outcome.plan.describe(),
        vet_errors,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsssp_core::DfSssp;
    use fabric::topo;

    #[test]
    fn schedules_are_deterministic_and_heal() {
        let net = topo::torus(&[3, 3], 1);
        let spec = CampaignSpec::default();
        let a = schedule(&net, &spec);
        let b = schedule(&net, &spec);
        assert_eq!(a, b, "same seed must give the same schedule");
        let total: usize = a.iter().map(|b| b.events.len()).sum();
        assert!(total >= spec.events);
        assert!(a.iter().any(|b| b.label == "flap-burst"));
        // The heal tail restores everything: net down-effect is zero.
        let mut down_c = FxHashSet::default();
        let mut down_s = FxHashSet::default();
        for batch in &a {
            for &e in &batch.events {
                match e {
                    FabricEvent::CableDown(c) => {
                        down_c.insert(c);
                    }
                    FabricEvent::CableUp(c) => {
                        down_c.remove(&c);
                    }
                    FabricEvent::SwitchDown(s) => {
                        down_s.insert(s);
                    }
                    FabricEvent::SwitchUp(s) => {
                        down_s.remove(&s);
                    }
                }
            }
        }
        assert!(down_c.is_empty() && down_s.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let net = topo::torus(&[3, 3], 1);
        let a = schedule(&net, &CampaignSpec::default());
        let b = schedule(
            &net,
            &CampaignSpec {
                seed: 8,
                ..CampaignSpec::default()
            },
        );
        assert_ne!(a, b, "seeds 7 and 8 should diverge");
    }

    #[test]
    fn smoke_campaign_on_a_fat_tree() {
        let net = topo::kary_ntree(4, 2);
        let spec = CampaignSpec::default();
        let batches = schedule(&net, &spec);
        let report = run_campaign(DfSssp::new(), &net, &batches, spec.seed).unwrap();
        assert!(report.ok(), "campaign unsafe:\n{}", report.render_human());
        assert_eq!(report.records.len(), batches.len() + 1);
        let flap = report
            .records
            .iter()
            .find(|r| r.label == "flap-burst")
            .expect("flap burst scheduled");
        assert_eq!(flap.events, 5, "flap burst coalesces 5 events");
        assert!(flap.rerouted);
        let human = report.render_human();
        assert!(human.contains("verdict: OK"));
        assert!(human.contains("epochs/s:"));
        let json = report.to_json();
        assert!(json.contains("\"unsafe_states\""));
        assert!(json.contains("\"reroute_ns\""));
        assert!(json.contains("\"epochs_per_sec\""));
        // Every reroute took nonzero wall clock, so the rate is finite
        // and positive.
        assert!(report.epochs_per_sec > 0.0);
        assert!(report.epochs_per_sec.is_finite());
        for r in report.records.iter().filter(|r| r.rerouted) {
            assert!(r.reroute_ns > 0, "rerouted record must carry nanos");
        }
    }
}
