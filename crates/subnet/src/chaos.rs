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
    let uplinks = net.switch_cables();
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

    /// Serialize the report as JSON (times to three decimals).
    pub fn to_json(&self) -> String {
        let milli = |v: f64| (v * 1e3).round() / 1e3;
        let mut w = telemetry::json::Writer::default();
        w.obj().key("topology").str(&self.topology);
        w.key("engine").str(&self.engine);
        w.key("seed").u64(self.seed);
        w.key("records").arr();
        for r in &self.records {
            w.obj().key("label").str(&r.label);
            w.key("events").u64(r.events as u64);
            w.key("rerouted").bool(r.rerouted);
            w.key("elapsed_ms").f64(milli(r.elapsed_ms));
            w.key("reroute_ns").u64(r.reroute_ns);
            w.key("entries_changed").u64(r.entries_changed as u64);
            w.key("switches_touched").u64(r.switches_touched as u64);
            w.key("vls").u64(r.vls as u64);
            w.key("quarantined").u64(r.quarantined as u64);
            w.key("resolved_by").str(&r.resolved_by);
            w.key("plan").str(&r.plan);
            w.key("vet_errors").u64(r.vet_errors as u64).end();
        }
        w.end().key("unsafe_states").u64(self.unsafe_states as u64);
        w.key("final_quarantined")
            .u64(self.final_quarantined as u64);
        w.key("max_vls").u64(self.max_vls as u64);
        w.key("epochs_per_sec").f64(milli(self.epochs_per_sec));
        w.key("ok").bool(self.ok()).end();
        w.finish()
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

    /// Four records with three-decimal times, as `run_campaign` builds them.
    fn fixed_report() -> CampaignReport {
        let record = |label: &str, events, rerouted, elapsed_ms: f64, plan: &str| EventRecord {
            label: label.into(),
            events,
            rerouted,
            elapsed_ms,
            reroute_ns: (elapsed_ms * 1e6) as u64,
            entries_changed: 40 * events,
            switches_touched: 3 * events,
            vls: 2,
            quarantined: events / 5,
            resolved_by: "baseline".into(),
            plan: plan.into(),
            vet_errors: 0,
        };
        CampaignReport {
            topology: "kary_ntree(4,2)".into(),
            engine: "DFSSSP".into(),
            seed: u64::MAX,
            records: vec![
                record("bring-up", 0, true, 12.5, "direct"),
                record("cable-down", 1, true, 3.125, "staged(2)+drain"),
                record("flap-burst", 5, true, 2.75, "direct"),
                record("heal-cable", 1, false, 0.0, "no-op"),
            ],
            unsafe_states: 0,
            final_quarantined: 0,
            max_vls: 2,
            epochs_per_sec: 163.265,
        }
    }

    /// What `fixed_report().to_json()` printed before the shared writer
    /// (commit 3d6d1e6): the layout may move, the document may not.
    #[test]
    fn report_document_is_the_hand_rolled_writers() {
        let parent = r#"{
  "topology": "kary_ntree(4,2)",
  "engine": "DFSSSP",
  "seed": 18446744073709551615,
  "records": [
    {"label": "bring-up", "events": 0, "rerouted": true, "elapsed_ms": 12.500, "reroute_ns": 12500000, "entries_changed": 0, "switches_touched": 0, "vls": 2, "quarantined": 0, "resolved_by": "baseline", "plan": "direct", "vet_errors": 0},
    {"label": "cable-down", "events": 1, "rerouted": true, "elapsed_ms": 3.125, "reroute_ns": 3125000, "entries_changed": 40, "switches_touched": 3, "vls": 2, "quarantined": 0, "resolved_by": "baseline", "plan": "staged(2)+drain", "vet_errors": 0},
    {"label": "flap-burst", "events": 5, "rerouted": true, "elapsed_ms": 2.750, "reroute_ns": 2750000, "entries_changed": 200, "switches_touched": 15, "vls": 2, "quarantined": 1, "resolved_by": "baseline", "plan": "direct", "vet_errors": 0},
    {"label": "heal-cable", "events": 1, "rerouted": false, "elapsed_ms": 0.000, "reroute_ns": 0, "entries_changed": 40, "switches_touched": 3, "vls": 2, "quarantined": 0, "resolved_by": "baseline", "plan": "no-op", "vet_errors": 0}
  ],
  "unsafe_states": 0,
  "final_quarantined": 0,
  "max_vls": 2,
  "epochs_per_sec": 163.265,
  "ok": true
}"#;
        let text = fixed_report().to_json();
        let doc = telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(doc, telemetry::json::parse(parent).unwrap(), "{text}");
        assert!(text.contains("\"seed\": 18446744073709551615"), "{text}");
    }

    /// The parent escaped only `\\` and `"`: a tab in a topology label
    /// made `repro chaos --json` print a document no parser accepts.
    #[test]
    fn report_is_json_whatever_the_label_says() {
        let nasty = "a\tb\u{1}\"c\\";
        let mut b = fabric::NetworkBuilder::new();
        b.label(nasty);
        let switches: Vec<_> = (0..3).map(|i| b.add_switch(format!("s{i}"), 4)).collect();
        for (i, &s) in switches.iter().enumerate() {
            b.link(s, switches[(i + 1) % 3]).unwrap();
            let t = b.add_terminal(format!("t{i}"));
            b.link(t, s).unwrap();
        }
        let net = b.build();
        let spec = CampaignSpec {
            events: 2,
            switch_bursts: false,
            ..CampaignSpec::default()
        };
        let report = run_campaign(DfSssp::new(), &net, &schedule(&net, &spec), spec.seed).unwrap();
        let text = report.to_json();
        // Our own parser lets a raw control character inside a string
        // pass (Python's `json.load` does not), so look at the bytes too.
        assert!(!text.chars().any(|c| c.is_control() && c != '\n'), "{text}");
        let doc = telemetry::json::parse(&text).expect("valid JSON");
        let topology = doc.get("topology").and_then(telemetry::json::Value::as_str);
        assert_eq!(topology, Some(nasty));
        let records = doc.get("records").and_then(telemetry::json::Value::as_arr);
        assert_eq!(records.map(<[_]>::len), Some(report.records.len()));
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
