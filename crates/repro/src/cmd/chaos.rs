//! `repro chaos` — replay a seeded failure/recovery campaign against a
//! topology and routing engine, vetting every intermediate programmed
//! state (see `subnet::chaos`).
//!
//! ```text
//! repro chaos --topo fabric.topo [--format text|ibnetdiscover|json]
//!             | --gen torus:4x4 | --gen kary:4,2 | --gen ring:5
//!             [--engine dfsssp] [--events 10] [--seed 7] [--hw-vls 8]
//!             [--no-flap] [--no-switch-bursts] [--no-heal] [--json]
//!             [--metrics metrics.json]
//! ```
//!
//! Exit status is non-zero when any intermediate state failed vetting or
//! terminals were left quarantined at the end of the campaign.

use dfsssp_core::EngineConfig;
use fabric::TopologyStats;
use std::process::ExitCode;
use subnet::{run_campaign_recorded, schedule, CampaignSpec};

const EXTRA_USAGE: &str = " [--events N] [--hw-vls N] \
    [--no-flap] [--no-switch-bursts] [--no-heal]";

pub fn main() -> Result<ExitCode, String> {
    let mut spec = CampaignSpec::default();
    let mut hw_vls = 8usize;
    let mut bad = false;
    let mut cli = repro::Cli::parse_with(EXTRA_USAGE, |flag, val| match flag {
        "--events" => {
            spec.events = val().parse().unwrap_or_else(|_| {
                bad = true;
                0
            });
            true
        }
        "--hw-vls" => {
            hw_vls = val().parse().unwrap_or_else(|_| {
                bad = true;
                0
            });
            true
        }
        "--no-flap" => {
            spec.flap_burst = false;
            true
        }
        "--no-switch-bursts" => {
            spec.switch_bursts = false;
            true
        }
        "--no-heal" => {
            spec.heal = false;
            true
        }
        _ => false,
    });
    if bad {
        return Err("chaos: bad arguments (see --help)".into());
    }
    if let Some(seed) = cli.seed {
        spec.seed = seed;
    } else {
        cli.seed = Some(spec.seed);
    }

    let net = cli.network().map_err(|e| format!("error: {e}"))?;
    if !cli.json {
        println!("fabric: {}", TopologyStats::of(&net));
    }
    let batches = schedule(&net, &spec);
    let engine = cli
        .engine(EngineConfig::new().max_layers(hw_vls))
        .map_err(|e| format!("error: {e}"))?;
    let report = run_campaign_recorded(engine, &net, &batches, spec.seed, cli.recorder())
        .map_err(|e| format!("campaign aborted: {e}"))?;
    if cli.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    cli.finish()?;
    Ok(crate::gate(report.ok()))
}
