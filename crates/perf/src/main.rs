//! The `perf` binary: `run`, `run-all`, `list`, `validate`, `compare`.

use perf::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use perf::report;
use perf::run::{run, Limit, RunOpts};
use perf::stack::Size;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use telemetry::json::Value;

const USAGE: &str = "\
usage:
  perf run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--trace-out <file>]
      one workload in this process; the last line of standard output is
      {\"correct\", \"attempted\", \"failed\", \"metrics\"}
  perf run-all [--seed <n>] [--seconds <s>] [--out <file>]
      every workload, plain then traced, each in its own process; one dfsssp-perf/v1 report
  perf list
      every workload and metric, with units
  perf validate <file>
      check a report against the dfsssp-perf/v1 schema
  perf compare <A.json[,A2.json...]> <B.json[,B2.json...]>
      one row per workload x end-to-end metric: medians, B/A, bound, verdict";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("run-all") => cmd_run_all(&args[1..]),
        Some("list") => cmd_list(),
        Some("validate") => cmd_validate(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs; every key must be in `known`.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key.strip_prefix("--").filter(|n| known.contains(n));
        let (Some(name), Some(value)) = (name, it.next()) else {
            return Err(format!("unexpected argument {key:?}\n{USAGE}"));
        };
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(flags, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} {v:?} is not valid")),
        None => default.ok_or(format!("--{name} is required\n{USAGE}")),
    }
}

/// Spans land beside the build output, which `.gitignore` covers.
fn default_trace_path(workload: &str, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("perf-trace")
        .join(format!("{workload}-{seed}.jsonl"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        args,
        &["workload", "seed", "seconds", "trace", "out", "trace-out"],
    )?;
    let name = flag(&f, "workload").ok_or(format!("--workload is required\n{USAGE}"))?;
    let workload =
        catalog::workload(name).ok_or(format!("unknown workload {name:?}; try `perf list`"))?;
    let seed: u64 = parsed(&f, "seed", None)?;
    let seconds: f64 = parsed(&f, "seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match flag(&f, "trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    let opts = RunOpts {
        workload,
        seed,
        limit: Limit::Seconds(seconds),
        size: Size::Full,
        trace,
        trace_out: trace.then(|| {
            flag(&f, "trace-out")
                .map_or_else(|| default_trace_path(workload.name, seed), PathBuf::from)
        }),
    };
    let result = run(&opts)?;
    for failure in &result.failures {
        eprintln!("failed: {failure}");
    }
    if let Some(path) = flag(&f, "out") {
        let text = report::to_string(&report::build(seed, seconds, std::slice::from_ref(&result)));
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", report::contract_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn cmd_run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["seed", "seconds", "out"])?;
    let seed: u64 = parsed(&f, "seed", Some(1))?;
    let seconds: f64 = parsed(&f, "seconds", Some(15.0))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let scratch = default_trace_path("run-all", seed).with_extension("");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let mut parts = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let part = scratch.join(format!("{}-{trace}.json", w.name));
            eprintln!("perf: {} (trace {trace}) ...", w.name);
            // One process per run, so peak_rss_mb is that workload's own.
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name, "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--out")
                .arg(&part)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} (trace {trace}) exited with {status}", w.name));
            }
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("reading {}: {e}", part.display()))?;
            parts.push(report::validate(&text).map_err(|e| format!("{}: {e}", part.display()))?);
        }
    }
    let merged = report::merge(&parts)?;
    for entry in merged
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        let name = entry.get("name").and_then(Value::as_str).unwrap_or("?");
        for (section, run) in entry
            .get("runs")
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
        {
            all_correct &= run.get("correct").and_then(Value::as_bool) == Some(true);
            println!(
                "== {name} / {section}: attempted {} failed {}",
                run.get("attempted").and_then(Value::as_u64).unwrap_or(0),
                run.get("failed").and_then(Value::as_u64).unwrap_or(0),
            );
            for (metric, m) in run
                .get("metrics")
                .and_then(Value::as_obj)
                .into_iter()
                .flatten()
            {
                println!(
                    "{metric:<34} {:>16.4} {:<6} n={}",
                    m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Value::as_str).unwrap_or(""),
                    m.get("samples").and_then(Value::as_u64).unwrap_or(0),
                );
            }
        }
    }
    let text = report::to_string(&merged);
    match flag(&f, "out") {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_list() -> Result<ExitCode, String> {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<15} {}", w.name, w.why);
    }
    for (title, metrics) in [
        ("end-to-end metrics (plain run)", END_TO_END),
        ("per-layer metrics (traced run)", PER_LAYER),
    ] {
        println!("{title}:");
        for m in metrics {
            let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
            println!(
                "  {:<34} {:<6} {:<6}{bound}  {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.source
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn load(paths: &str) -> Result<Vec<Value>, String> {
    paths
        .split(',')
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
            report::validate(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(USAGE.to_string());
    };
    match load(path) {
        Ok(_) => {
            println!("{path}: valid {}", report::SCHEMA);
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let rows = report::compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two sides share no workload with end-to-end metrics".to_string());
    }
    print!("{}", report::render(&rows));
    let all_ok = rows.iter().all(|r| r.verdict == report::Verdict::Ok);
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
