//! The `dfsssp-perf/v1` report: written, read back, validated and
//! compared through `telemetry::json` values — no hand-rolled `to_json`.
//!
//! ```text
//! { "schema": "dfsssp-perf/v1",
//!   "host": { "nproc", "threads_used", "rustc", "commit" },
//!   "seed", "seconds", "scale": { "factor", "base_seconds" },
//!   "config": { <serving configuration> },
//!   "workloads": [ { "name", "why", "runs": {
//!       "end_to_end": { "attempted", "failed", "correct", "failures", "metrics": { name: M } },
//!       "per_layer":  { ... same, plus "trace_file" } } } ] }
//! M = { "value", "unit", "better", "samples", "percentile" | null,
//!       "bound" (end-to-end only), "raw" (calibrated timings only: the value before calibration) }
//! ```

use crate::catalog::{self, Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{Measured, RunResult};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::json::{self, Value};

/// Schema tag of every report this crate writes.
pub const SCHEMA: &str = "dfsssp-perf/v1";

/// Seconds per workload the issue sized its operation counts for; the
/// report's scale factor is the run's seconds over this.
pub const BASE_SECONDS: f64 = 20.0;

/// Threads a run keeps busy at once: event writer + reader, or query
/// client + the one shard worker.
pub const THREADS_USED: usize = 2;

fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Serialize a value tree, indented. Non-finite numbers become `null`.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(0));
    out.push('\n');
    out
}

/// `depth` is the indentation level of a pretty print; `None` writes
/// everything on one line.
fn write_value(out: &mut String, v: &Value, depth: Option<usize>) {
    let inner = depth.map(|d| d + 1);
    let pad = |out: &mut String, depth: Option<usize>| {
        if let Some(d) = depth {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Num(n) => json::write_f64(out, *n),
        Value::Str(s) => json::write_str(out, s),
        Value::Arr(items) if items.is_empty() => out.push_str("[]"),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, inner);
                write_value(out, item, inner);
            }
            pad(out, depth);
            out.push(']');
        }
        Value::Obj(map) if map.is_empty() => out.push_str("{}"),
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, inner);
                json::write_str(out, k);
                out.push(':');
                if depth.is_some() {
                    out.push(' ');
                }
                write_value(out, item, inner);
            }
            pad(out, depth);
            out.push('}');
        }
    }
}

/// The line the benchmark contract wants last on standard output:
/// `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
pub fn contract_line(result: &RunResult) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|(name, m)| {
            let unit = catalog::metric(name).map_or("", |c| c.unit);
            (
                name.to_string(),
                obj([("value", num(m.value)), ("unit", text(unit))]),
            )
        })
        .collect();
    let line = obj([
        ("correct", Value::Bool(result.correct())),
        ("attempted", num(result.attempted as f64)),
        ("failed", num(result.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    // One line: the driver reads the last line of standard output.
    let mut out = String::new();
    write_value(&mut out, &line, None);
    out
}

fn metric_value(spec: &Metric, m: &Measured) -> Value {
    let mut fields = BTreeMap::from([
        ("value".to_string(), num(m.value)),
        ("unit".to_string(), text(spec.unit)),
        ("better".to_string(), text(spec.better.as_str())),
        ("samples".to_string(), num(m.samples as f64)),
        (
            "percentile".to_string(),
            m.percentile.map_or(Value::Null, num),
        ),
    ]);
    if let Some(raw) = m.raw {
        fields.insert("raw".to_string(), num(raw));
    }
    if let Some(bound) = spec.bound {
        fields.insert("bound".to_string(), num(bound));
    }
    Value::Obj(fields)
}

/// The `runs.<section>` object of one run.
fn section_value(result: &RunResult) -> Value {
    let metrics = result
        .metrics
        .iter()
        .filter_map(|(name, m)| Some((name.to_string(), metric_value(catalog::metric(name)?, m))))
        .collect();
    let mut fields = BTreeMap::from([
        ("attempted".to_string(), num(result.attempted as f64)),
        ("failed".to_string(), num(result.failed as f64)),
        ("correct".to_string(), Value::Bool(result.correct())),
        (
            "failures".to_string(),
            Value::Arr(result.failures.iter().map(text).collect()),
        ),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]);
    if let Some(path) = &result.trace_file {
        fields.insert("trace_file".to_string(), text(path.display().to_string()));
    }
    Value::Obj(fields)
}

fn section_name(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// Facts about the machine and toolchain, best effort: `unknown` where a
/// tool is missing (the driver's checkout is not a git repository).
pub fn host_facts() -> Value {
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("nproc", num(nproc as f64)),
        ("threads_used", num(THREADS_USED as f64)),
        ("rustc", text(tool("rustc", &["--version"]))),
        ("commit", text(tool("git", &["rev-parse", "HEAD"]))),
    ])
}

/// A report holding `results` (any mix of plain and traced runs; two
/// runs of one workload land in the same entry).
pub fn build(seed: u64, seconds: f64, results: &[RunResult]) -> Value {
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let runs: BTreeMap<String, Value> = results
            .iter()
            .filter(|r| r.workload.name == w.name)
            .map(|r| (section_name(r.traced).to_string(), section_value(r)))
            .collect();
        if !runs.is_empty() {
            workloads.push(obj([
                ("name", text(w.name)),
                ("why", text(w.why)),
                ("runs", Value::Obj(runs)),
            ]));
        }
    }
    let config = crate::stack::describe_config()
        .into_iter()
        .map(|(k, v)| (k.to_string(), text(v)))
        .collect();
    obj([
        ("schema", text(SCHEMA)),
        ("host", host_facts()),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        (
            "scale",
            obj([
                ("factor", num(seconds / BASE_SECONDS)),
                ("base_seconds", num(BASE_SECONDS)),
            ]),
        ),
        ("config", Value::Obj(config)),
        ("workloads", Value::Arr(workloads)),
    ])
}

/// Merge the workload entries of several single-run reports (what
/// `perf run --out` writes) into one report, keeping the first report's
/// header.
pub fn merge(reports: &[Value]) -> Result<Value, String> {
    let first = reports.first().ok_or("nothing to merge")?;
    let mut merged: BTreeMap<String, Value> =
        first.as_obj().ok_or("report is not an object")?.clone();
    let mut by_name: BTreeMap<String, (Value, BTreeMap<String, Value>)> = BTreeMap::new();
    for report in reports {
        for entry in report
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or("workload without a name")?;
            let runs = entry
                .get("runs")
                .and_then(Value::as_obj)
                .ok_or("workload without runs")?;
            let slot = by_name
                .entry(name.to_string())
                .or_insert_with(|| (entry.clone(), BTreeMap::new()));
            slot.1.extend(runs.clone());
        }
    }
    let workloads = WORKLOADS
        .iter()
        .filter_map(|w| by_name.remove(w.name))
        .map(|(entry, runs)| {
            let mut entry = entry.as_obj().cloned().unwrap_or_default();
            entry.insert("runs".to_string(), Value::Obj(runs));
            Value::Obj(entry)
        })
        .collect();
    merged.insert("workloads".to_string(), Value::Arr(workloads));
    Ok(Value::Obj(merged))
}

/// Parse a report and check it against the schema: the tag, the header
/// fields, known workloads, and for each run section every catalog
/// metric with its unit (and bound, for end-to-end metrics). The parsed
/// value must also survive a write/parse round trip unchanged.
pub fn validate(input: &str) -> Result<Value, String> {
    let report = json::parse(input)?;
    match report.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema is {other:?}, expected {SCHEMA:?}")),
    }
    let host = report.get("host").ok_or("missing host")?;
    for key in ["nproc", "threads_used"] {
        host.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("host.{key} is not a whole number"))?;
    }
    for key in ["rustc", "commit"] {
        host.get(key)
            .and_then(Value::as_str)
            .ok_or(format!("host.{key} is not a string"))?;
    }
    report
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or("seed is not a whole number")?;
    report
        .get("seconds")
        .and_then(Value::as_f64)
        .ok_or("seconds is not a number")?;
    report
        .get("scale")
        .and_then(|s| s.get("factor"))
        .and_then(Value::as_f64)
        .ok_or("scale.factor is not a number")?;
    report
        .get("config")
        .and_then(Value::as_obj)
        .ok_or("config is not an object")?;
    let workloads = report
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("workloads is not an array")?;
    for entry in workloads {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        catalog::workload(name).ok_or(format!("unknown workload {name:?}"))?;
        let runs = entry
            .get("runs")
            .and_then(Value::as_obj)
            .ok_or("workload without runs")?;
        for (section, run) in runs {
            let expected = match section.as_str() {
                "end_to_end" => END_TO_END,
                "per_layer" => PER_LAYER,
                other => return Err(format!("{name}: unknown run section {other:?}")),
            };
            validate_section(run, expected).map_err(|e| format!("{name}.{section}: {e}"))?;
        }
    }
    if json::parse(&to_string(&report))? != report {
        return Err("report does not survive a write/parse round trip".to_string());
    }
    Ok(report)
}

fn validate_section(run: &Value, expected: &[Metric]) -> Result<(), String> {
    let attempted = run
        .get("attempted")
        .and_then(Value::as_u64)
        .ok_or("attempted missing")?;
    if attempted == 0 {
        return Err("attempted is 0".to_string());
    }
    run.get("failed")
        .and_then(Value::as_u64)
        .ok_or("failed missing")?;
    run.get("correct")
        .and_then(Value::as_bool)
        .ok_or("correct missing")?;
    let metrics = run
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("metrics missing")?;
    for spec in expected {
        let m = metrics
            .get(spec.name)
            .ok_or(format!("metric {} missing", spec.name))?;
        // A non-finite value was written as null and fails here.
        m.get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("{}: value is not a number", spec.name))?;
        m.get("samples")
            .and_then(Value::as_u64)
            .ok_or(format!("{}: samples missing", spec.name))?;
        if m.get("unit").and_then(Value::as_str) != Some(spec.unit) {
            return Err(format!("{}: unit is not {:?}", spec.name, spec.unit));
        }
        if m.get("better").and_then(Value::as_str) != Some(spec.better.as_str()) {
            return Err(format!(
                "{}: direction is not {:?}",
                spec.name,
                spec.better.as_str()
            ));
        }
        if m.get("bound").and_then(Value::as_f64) != spec.bound {
            return Err(format!("{}: bound is not {:?}", spec.name, spec.bound));
        }
    }
    if let Some(extra) = metrics
        .keys()
        .find(|k| !expected.iter().any(|s| s.name == k.as_str()))
    {
        return Err(format!("unexpected metric {extra:?}"));
    }
    Ok(())
}

/// The verdict of one compared pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Side B is no worse than side A by more than the bound.
    Ok,
    /// Side B is worse than side A by more than the bound.
    Worse,
    /// The run-to-run spread of a side is wider than the bound and the
    /// sides overlap, so the pairing decides nothing.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × end-to-end metric row of `perf compare`.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// The metric compared.
    pub metric: &'static Metric,
    /// Median of side A's reports (the base of the ratio).
    pub a: f64,
    /// Median of side B's reports.
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    /// The wider of the two sides' interquartile spreads, as a share of
    /// the median; `None` with fewer than two reports on both sides.
    pub spread: Option<f64>,
    /// See [`Verdict`].
    pub verdict: Verdict,
}

fn values_of(reports: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    reports
        .iter()
        .flat_map(|r| r.get("workloads").and_then(Value::as_arr).unwrap_or(&[]))
        .filter(|e| e.get("name").and_then(Value::as_str) == Some(workload))
        .filter_map(|e| {
            e.get("runs")?
                .get("end_to_end")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compare two sets of reports: medians of each side's values per
/// workload × end-to-end metric, judged against the metric's bound.
pub fn compare(a: &[Value], b: &[Value]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for metric in END_TO_END {
            let (va, vb) = (
                values_of(a, w.name, metric.name),
                values_of(b, w.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let bound = metric.bound.unwrap_or(0.0);
            let better = |x: f64, y: f64| match metric.better {
                Better::Lower => x < y,
                Better::Higher => x > y,
            };
            let worse_by = match metric.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = match (spread(&va), spread(&vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let b_dominates = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
            let verdict = if spread.is_some_and(|s| s > bound) && !b_dominates {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: w.name,
                metric,
                a: ma,
                b: mb,
                ratio: mb / ma,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// The rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<20} {:>6} {:>13} {:>13} {:>15} {:>8} {:>7}  {}\n",
        "workload",
        "metric",
        "unit",
        "A median",
        "B median",
        "B/A (base A)",
        "spread",
        "bound",
        "verdict"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<15} {:<20} {:>6} {:>13.4} {:>13.4} {:>15.4} {:>8} {:>7.2}  {}",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.a,
            r.b,
            r.ratio,
            r.spread.map_or("n/a".to_string(), |s| format!("{:.3}", s)),
            r.metric.bound.unwrap_or(0.0),
            r.verdict.as_str(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(workload: &str, metric: &str, value: f64) -> Value {
        let m = obj([("value", num(value))]);
        let metrics = obj([(metric, m)]);
        let runs = obj([("end_to_end", obj([("metrics", metrics)]))]);
        obj([(
            "workloads",
            Value::Arr(vec![obj([("name", text(workload)), ("runs", runs)])]),
        )])
    }

    fn side(values: &[f64]) -> Vec<Value> {
        values
            .iter()
            .map(|&v| report_with("churn-torus", "event_to_answer_ms", v))
            .collect()
    }

    #[test]
    fn compare_judges_against_the_bound() {
        // event_to_answer_ms: lower is better, bound 0.20.
        let a = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = compare(&a, &side(&[110.2, 110.9, 109.1, 110.4, 109.8]));
        assert_eq!(same.len(), 1);
        assert_eq!(same[0].verdict, Verdict::Ok);
        let slower = compare(&a, &side(&[130.0, 131.0, 129.0, 130.5, 129.5]));
        assert_eq!(slower[0].verdict, Verdict::Worse);
        assert!((slower[0].ratio - 1.3).abs() < 1e-9);
        let noisy = compare(&a, &side(&[70.0, 140.0, 95.0, 120.0, 100.0]));
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        // Wide spread, but every B run beats every A run: still decided.
        let faster = compare(&a, &side(&[30.0, 70.0, 45.0, 60.0, 40.0]));
        assert_eq!(faster[0].verdict, Verdict::Ok);
    }

    #[test]
    fn writer_round_trips() {
        let v = obj([
            (
                "a",
                Value::Arr(vec![num(1.5), Value::Null, Value::Bool(true)]),
            ),
            ("b", obj([("c", text("x\"y"))])),
            ("e", Value::Arr(vec![])),
        ]);
        assert_eq!(json::parse(&to_string(&v)).unwrap(), v);
        let mut compact = String::new();
        write_value(&mut compact, &v, None);
        assert!(!compact.contains('\n'));
        assert_eq!(json::parse(&compact).unwrap(), v);
    }
}
