//! Chaos campaigns end-to-end: seeded failure/recovery schedules
//! against the fault-tolerance runtime, asserting that every
//! intermediate programmed state is vet-clean and that the fabric
//! returns to full strength when the faults heal.

mod common;

use dfsssp::prelude::*;
use dfsssp::subnet::{run_campaign, schedule, CampaignSpec};
use dfsssp::telemetry::{self, counters, phases};
use dfsssp::topo;

/// Run the default campaign and assert the acceptance conditions: every
/// intermediate programmed state vet-clean, the flap burst coalesced
/// into a single reroute, and zero quarantined terminals at quiescence.
fn assert_campaign(net: fabric::Network, seed: u64) {
    let spec = CampaignSpec {
        seed,
        ..CampaignSpec::default()
    };
    let batches = schedule(&net, &spec);
    let total: usize = batches.iter().map(|b| b.events.len()).sum();
    assert!(total >= 10, "campaign must have at least 10 events");
    let report = run_campaign(DfSssp::new(), &net, &batches, seed).unwrap();
    assert!(
        report.ok(),
        "unsafe intermediate state or leftover quarantine:\n{}",
        report.render_human()
    );
    for r in &report.records {
        assert_eq!(r.vet_errors, 0, "state after '{}' not vet-clean", r.label);
    }
    assert_eq!(report.final_quarantined, 0);
    // The flap burst is one record: five events, at most one reroute.
    let flaps: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.label == "flap-burst")
        .collect();
    assert_eq!(flaps.len(), 1, "exactly one flap-burst batch");
    assert_eq!(flaps[0].events, 5, "flap burst coalesces 5 events");
}

#[test]
fn torus_campaign_is_safe_throughout() {
    assert_campaign(topo::torus(&[4, 4], 1), 7);
}

#[test]
fn fat_tree_campaign_is_safe_throughout() {
    assert_campaign(topo::kary_ntree(4, 2), 7);
}

#[test]
fn quarantined_terminal_reconnects_after_matching_cable_up() {
    // A ring of 3 switches with a pendant switch: cutting the pendant's
    // only cable strands its terminal; repairing it reconnects.
    let mut b = NetworkBuilder::new();
    let s0 = b.add_switch("s0", 8);
    let s1 = b.add_switch("s1", 8);
    let s2 = b.add_switch("s2", 8);
    b.link(s0, s1).unwrap();
    b.link(s1, s2).unwrap();
    b.link(s2, s0).unwrap();
    let pendant = b.add_switch("pendant", 4);
    let (bridge, _) = b.link(pendant, s0).unwrap();
    for (i, &s) in [s0, s1, s2, pendant].iter().enumerate() {
        let t = b.add_terminal(format!("t{i}"));
        b.link(t, s).unwrap();
    }
    let net = b.build();
    let mut sm = SmLoop::bring_up(DfSssp::new(), net.clone(), net.terminals()[0]).unwrap();

    let outcome = sm.handle(FabricEvent::CableDown(bridge)).unwrap();
    assert!(matches!(outcome.resolved_by(), Rung::Quarantine { .. }));
    assert_eq!(outcome.quarantined.len(), 1);
    assert_eq!(sm.network().num_terminals(), 3);

    let outcome = sm.handle(FabricEvent::CableUp(bridge)).unwrap();
    assert!(outcome.quarantined.is_empty(), "repair must un-quarantine");
    assert_eq!(sm.network().num_terminals(), 4);
    let nt = 4;
    assert_eq!(sm.light_sweep().unwrap(), nt * (nt - 1));
}

#[test]
fn vl_starved_bring_up_escalates_on_a_torus() {
    // Budget 1 cannot route a torus deadlock-free; the ladder must widen
    // the budget rather than fail.
    let net = topo::torus(&[4, 4], 1);
    let engine = DfSssp {
        config: EngineConfig::new().max_layers(1),
        ..DfSssp::new()
    };
    let sm = SmLoop::bring_up(engine, net.clone(), net.terminals()[0]).unwrap();
    assert!(matches!(
        sm.outcome().resolved_by(),
        Rung::WidenedVls { .. }
    ));
    let nt = net.num_terminals();
    assert_eq!(sm.light_sweep().unwrap(), nt * (nt - 1));
}

/// Any seed's campaign keeps every intermediate state vet-clean and
/// ends with no quarantined terminals.
#[test]
fn campaigns_are_safe_for_any_seed() {
    common::sweep(0..16, |c| {
        let seed = c.draw("seed", 0u64..1_000);
        let net = topo::torus(&[3, 3], 1);
        let spec = CampaignSpec {
            seed,
            ..CampaignSpec::default()
        };
        let batches = schedule(&net, &spec);
        let report = run_campaign(DfSssp::new(), &net, &batches, seed).unwrap();
        assert!(
            report.ok(),
            "seed {} produced an unsafe campaign:\n{}",
            seed,
            report.render_human()
        );
    });
}

/// The campaigns of [`schedule`] (a flap, switch bursts, a heal tail)
/// through `SmLoop<DeltaEngine<DfSssp>>` under the snapshot schedule:
/// after every batch the served routes are a cold `DfSssp` route of the
/// same view and vet-clean, and every batch with a switch event that
/// keeps the live terminals and leaves some tree clean was patched, not
/// routed cold.
#[test]
fn campaigns_through_delta_patch_switch_events() {
    let mut switch_patches = 0;
    for net in [
        topo::kary_ntree(4, 2),
        topo::kary_ntree(4, 3),
        topo::torus(&[4, 4], 1),
    ] {
        let snapshot = ComputeOpts::new().chunk(net.num_terminals());
        let config = || EngineConfig::new().compute(snapshot);
        for seed in 0..16 {
            let label = format!("{} seed {seed}", net.label());
            let rec = std::sync::Arc::new(Collector::new());
            let engine =
                DeltaEngine::new(DfSssp::new().with_config(config().recorder(rec.clone())));
            let mut sm = SmLoop::bring_up(engine, net.clone(), net.terminals()[0]).expect(&label);
            let spec = CampaignSpec {
                seed,
                ..CampaignSpec::default()
            };
            for batch in schedule(&net, &spec) {
                let what = format!("{label} {}: {:?}", batch.label, batch.events);
                let terminals = sm.network().terminals().to_vec();
                let before = rec.snapshot();
                let outcome = sm.handle_batch(&batch.events).expect(&what);
                let after = rec.snapshot();
                if !outcome.rerouted {
                    continue;
                }
                let (view, routes) = (sm.network(), &sm.programmed().routes);
                let cold = DfSssp::new()
                    .with_config(config())
                    .route(view)
                    .expect(&what);
                assert_eq!(routes, &cold, "{what}: not the cold route");
                assert_eq!(check(view, routes).num_errors(), 0, "{what}: not vet-clean");
                let phase = |s: &telemetry::Snapshot, n| s.phases.get(n).map_or(0, |p| p.count);
                let counter = |s: &telemetry::Snapshot, n| s.counters.get(n).copied().unwrap_or(0);
                let dirty = counter(&after, counters::DELTA_DIRTY_DSTS)
                    - counter(&before, counters::DELTA_DIRTY_DSTS);
                let diffed =
                    phase(&after, phases::DELTA_DIRTY) - phase(&before, phases::DELTA_DIRTY);
                let patched =
                    phase(&after, phases::DELTA_PATCH) - phase(&before, phases::DELTA_PATCH);
                let switch = batch
                    .events
                    .iter()
                    .any(|e| matches!(e, FabricEvent::SwitchDown(_) | FabricEvent::SwitchUp(_)));
                if switch && view.terminals() == terminals {
                    assert_eq!(diffed, 1, "{what}: a kept roster is diffed");
                    let partial = (dirty as usize) < view.num_terminals();
                    assert_eq!(patched == 1, partial, "{what}: {dirty} trees dirty");
                    switch_patches += patched;
                }
            }
        }
    }
    assert!(switch_patches > 0, "no switch batch was patched");
}
