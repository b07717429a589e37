//! `repro fuzz` — deterministic structure-aware fuzzing of every parser and
//! the budgeted routing path behind them.
//!
//! Replays `<corpus>/regressions/` first (past crashers must stay
//! fixed), then mutates the committed corpus for `--iters` rounds.
//! Exits non-zero if any input panics; panicking inputs are saved to
//! `--crashers` for triage and for promotion into the regression set.
//!
//! ```text
//! repro fuzz [--corpus tests/corpus] [--iters 10000] [--seed N]
//!            [--crashers fuzz-crashers] [--parse-only]
//! ```

use repro::fuzz::{self, FuzzConfig};
use std::path::PathBuf;
use std::process::ExitCode;

pub fn main() -> Result<ExitCode, String> {
    let mut corpus = PathBuf::from("tests/corpus");
    let mut cfg = FuzzConfig {
        crashers_dir: Some(PathBuf::from("fuzz-crashers")),
        ..FuzzConfig::default()
    };
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("fuzz: missing value for flag");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--corpus" => corpus = PathBuf::from(val()),
            "--iters" => {
                cfg.iters = match val().parse() {
                    Ok(n) => n,
                    Err(_) => return Ok(usage()),
                }
            }
            "--seed" => {
                cfg.seed = match val().parse() {
                    Ok(n) => n,
                    Err(_) => return Ok(usage()),
                }
            }
            "--crashers" => cfg.crashers_dir = Some(PathBuf::from(val())),
            "--parse-only" => cfg.route_budget = None,
            _ => return Ok(usage()),
        }
    }

    let seeds = fuzz::load_corpus(&corpus).map_err(|e| format!("error: {e}"))?;

    // Panics are expected to be *caught*; silence the default hook so a
    // campaign's output is the report, not backtrace noise.
    std::panic::set_hook(Box::new(|_| {}));

    let mut failed = false;
    let regressions = corpus.join("regressions");
    if regressions.is_dir() {
        let report = fuzz::replay(&regressions, &cfg).map_err(|e| format!("error: {e}"))?;
        println!("regressions: {}", report.summary());
        failed |= report.panics > 0;
    }

    let report = fuzz::run(&seeds, &cfg);
    println!(
        "fuzz (seed {:#x}, {} corpus seeds): {}",
        cfg.seed,
        seeds.len(),
        report.summary()
    );
    for c in &report.crashers {
        eprintln!("crasher saved: {}", c.display());
    }
    failed |= report.panics > 0;
    if failed {
        eprintln!("FUZZ FAILED: panics detected");
    }
    Ok(crate::gate(!failed))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro fuzz [--corpus <dir>] [--iters <N>] [--seed <N>] \
         [--crashers <dir>] [--parse-only]"
    );
    ExitCode::from(2)
}
