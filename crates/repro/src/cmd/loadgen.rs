//! `repro loadgen` — the open-loop overload benchmark: replay a timestamped
//! traffic trace at 4x measured serving capacity, judge per-class SLOs,
//! verify every response was an epoch-consistent answer or a typed
//! shed, and gate on the robustness invariants (CI's overload-smoke
//! job). Written as a versioned `dfsssp-loadgen/v1` report.
//!
//! ```text
//! repro loadgen --gen kary:8,2 [--quick] [--mix flash|uniform|hotspot|nas] \
//!               [--out BENCH_pr7.json] [--seed 7]
//! repro loadgen --validate BENCH_pr7.json    # parse + schema check only
//! ```

use std::process::ExitCode;

pub fn main() -> Result<ExitCode, String> {
    let mut quick = false;
    let mut out = "BENCH_pr7.json".to_string();
    let mut mix = "flash".to_string();
    let mut validate: Option<String> = None;
    let mut cli = repro::Cli::parse_with(
        " [--quick] [--mix <name>] [--out <file>] [--validate <file>]",
        |flag, val| match flag {
            "--quick" => {
                quick = true;
                true
            }
            "--mix" => {
                mix = val();
                true
            }
            "--out" => {
                out = val();
                true
            }
            "--validate" => {
                validate = Some(val());
                true
            }
            _ => false,
        },
    );

    if let Some(path) = validate {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report =
            repro::loadgen::LoadgenReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid {} report, {} mix at {} qps offered / {} answered, \
             {} chaos epochs, {} malformed",
            report.schema,
            report.mix,
            report.offered_qps,
            report.admitted_qps,
            report.chaos_epochs,
            report.malformed,
        );
        return Ok(ExitCode::SUCCESS);
    }

    let net = cli.network()?;
    let seed = cli.seed.unwrap_or(7);
    cli.seed = Some(seed);
    let report = repro::loadgen::run(&net, &mix, quick, seed);
    std::fs::write(&out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    for c in &report.classes {
        println!(
            "loadgen: {:<11} offered {:>7}  answered {:>7}  rejected {:>6}  expired {:>6}  \
             p50 {:>6} us  p99 {:>7} us  SLO {}us {}",
            c.class,
            c.offered,
            c.answered,
            c.rejected,
            c.expired,
            c.p50_us,
            c.p99_us,
            c.slo_target_us,
            if c.slo_met { "MET" } else { "VIOLATED" },
        );
    }
    println!(
        "loadgen: {} mix, capacity {} qps, offered {} qps (4x), answered {} qps, \
         shed floor {} permille, {} chaos epoch(s), {} malformed -> {out}",
        report.mix,
        report.capacity_qps,
        report.offered_qps,
        report.admitted_qps,
        report.min_admitted_permille,
        report.chaos_epochs,
        report.malformed,
    );
    report
        .gate()
        .map_err(|why| format!("loadgen: GATE FAILED: {why}"))?;
    println!("loadgen: gate passed");
    cli.finish()?;
    Ok(ExitCode::SUCCESS)
}
