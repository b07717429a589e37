//! `repro vet` — static analysis of a routing artifact from the command line.
//!
//! Loads a topology file and a routes artifact (as written by
//! `route_cli --out-routes`), runs the [`vet`] analyzer, and prints the
//! report. Exits non-zero when any error-severity finding is present, so
//! CI can gate on it.
//!
//! ```text
//! repro vet --topo fabric.topo [--format text|ibnetdiscover|json] | --gen <spec>
//!           --routes routes.json [--hw-vls 8] [--allow-cycles] [--no-minimal]
//!           [--max-diags N] [--json] [--metrics metrics.json]
//! ```

use fabric::format;
use std::process::ExitCode;

const EXTRA_USAGE: &str =
    " --routes <routes.json> [--hw-vls N] [--allow-cycles] [--no-minimal] [--max-diags N]";

pub fn main() -> Result<ExitCode, String> {
    let mut routes_path = String::new();
    let mut config = vet::Config::default();
    let mut bad = false;
    let mut cli = repro::Cli::parse_with(EXTRA_USAGE, |flag, val| match flag {
        "--routes" => {
            routes_path = val();
            true
        }
        "--hw-vls" => {
            config.hw_vls = val().parse().ok().or_else(|| {
                bad = true;
                None
            });
            true
        }
        "--allow-cycles" => {
            config.deadlock_error = false;
            true
        }
        "--no-minimal" => {
            config.check_minimal = false;
            true
        }
        "--max-diags" => {
            config.max_diagnostics_per_code = val().parse().unwrap_or_else(|_| {
                bad = true;
                0
            });
            true
        }
        _ => false,
    });
    if bad || routes_path.is_empty() {
        eprintln!("vet: bad or missing arguments (need --routes; see --help)");
        return Ok(ExitCode::from(2));
    }

    let net = cli.network().map_err(|e| format!("error: {e}"))?;
    let routes = std::fs::read_to_string(&routes_path)
        .map_err(|e| format!("cannot read {routes_path}: {e}"))
        .and_then(|json| format::routes_from_json(&json).map_err(|e| e.to_string()))
        .map_err(|e| format!("error: {e}"))?;
    let report = vet::analyze_with(&net, &routes, &config);
    if cli.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    cli.finish()?;
    Ok(crate::gate(report.clean()))
}
