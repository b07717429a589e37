//! Every workload at a tiny size: all metrics present, no failures, the
//! trace parses, exact-repeat counts repeat, the report round-trips, and
//! `BENCHMARK.json` says what the catalog says.

use perf::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use perf::report;
use perf::run::{run, Limit, RunOpts, RunResult};
use perf::stack::Size;
use std::path::PathBuf;
use std::sync::OnceLock;
use telemetry::json::{self, Value};

/// Operations per segment. A test constant, not a command-line option:
/// the benchmark proper is sized in seconds.
const TINY_OPS: usize = 2;
const SEED: u64 = 11;

fn trace_path(workload: &str, tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}.jsonl"))
}

fn tiny(workload: &'static perf::catalog::Workload, trace: bool, tag: &str) -> RunResult {
    let opts = RunOpts {
        workload,
        seed: SEED,
        limit: Limit::Ops(TINY_OPS),
        size: Size::Tiny,
        trace,
        trace_out: trace.then(|| trace_path(workload.name, tag)),
    };
    run(&opts).unwrap_or_else(|e| panic!("{} did not run: {e}", workload.name))
}

/// One plain and one traced run of every workload, shared by the tests.
fn results() -> &'static [(RunResult, RunResult)] {
    static RESULTS: OnceLock<Vec<(RunResult, RunResult)>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        WORKLOADS
            .iter()
            .map(|w| (tiny(w, false, "plain"), tiny(w, true, "first")))
            .collect()
    })
}

fn assert_metrics(result: &RunResult, expected: &[Metric]) {
    let name = result.workload.name;
    assert_eq!(result.failed, 0, "{name}: {:?}", result.failures);
    assert!(result.correct() && result.attempted > 0, "{name}");
    let names: Vec<&str> = result.metrics.keys().copied().collect();
    let mut wanted: Vec<&str> = expected.iter().map(|m| m.name).collect();
    wanted.sort_unstable();
    assert_eq!(names, wanted, "{name}: metric set");
    for m in expected {
        assert!(!m.unit.is_empty(), "{}: no unit", m.name);
        let value = result.metrics[m.name].value;
        assert!(value.is_finite(), "{name}: {} is {value}", m.name);
    }
}

#[test]
fn every_workload_reports_every_metric_and_nothing_fails() {
    for (plain, traced) in results() {
        assert_metrics(plain, END_TO_END);
        assert_metrics(traced, PER_LAYER);
        for m in END_TO_END {
            assert!(
                plain.metrics[m.name].value > 0.0,
                "{}: {} is 0",
                plain.workload.name,
                m.name
            );
        }
        // Both routing paths run under the production threshold.
        if plain.workload.name == "churn-fattree" {
            assert!(traced.metrics["delta.taken_ratio"].value > 0.0);
            assert!(traced.metrics["delta.fallbacks"].value > 0.0);
        }
        assert_eq!(traced.metrics["vet.errors"].value, 0.0);
    }
}

#[test]
fn exact_repeat_counts_repeat_for_one_seed() {
    const COUNTS: [&str; 6] = [
        "core.paths_routed",
        "core.vls_used",
        "delta.dirty_dests_sum",
        "delta.fallbacks",
        "serve.epochs_published",
        "subnet.lft_entries_changed",
    ];
    for (w, (_, first)) in WORKLOADS.iter().zip(results()) {
        let second = tiny(w, true, "second");
        for name in COUNTS {
            assert_eq!(
                first.metrics[name].value, second.metrics[name].value,
                "{}: {name} differs between two runs of seed {SEED}",
                w.name
            );
        }
        assert!(first.metrics["serve.epochs_published"].value > 0.0);
    }
}

#[test]
fn the_trace_parses_and_spans_of_an_operation_share_its_id() {
    for (_, traced) in results() {
        let path = traced
            .trace_file
            .as_ref()
            .expect("traced runs write their spans");
        let text = std::fs::read_to_string(path).unwrap();
        let spans: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert!(!spans.is_empty());
        let mut replays = 0;
        for (id, span) in spans.iter().enumerate() {
            assert_eq!(span.get("id").unwrap().as_u64(), Some(id as u64));
            let (start, end) = (
                span.get("start_ns").unwrap().as_u64().unwrap(),
                span.get("end_ns").unwrap().as_u64().unwrap(),
            );
            assert!(start <= end);
            let name = span.get("name").unwrap().as_str().unwrap();
            replays += usize::from(name == "replay");
            if let Some(parent) = span.get("parent").unwrap().as_u64() {
                let parent = &spans[parent as usize];
                assert_eq!(
                    parent.get("op"),
                    span.get("op"),
                    "{name}: parent is of another operation"
                );
                assert!(parent.get("start_ns").unwrap().as_u64().unwrap() <= start);
            }
        }
        assert!(
            replays > 0,
            "{}: nothing was replayed",
            traced.workload.name
        );
    }
}

#[test]
fn the_report_round_trips_and_a_schema_mismatch_is_rejected() {
    let all: Vec<RunResult> = results()
        .iter()
        .flat_map(|(plain, traced)| [plain.clone(), traced.clone()])
        .collect();
    let text = report::to_string(&report::build(SEED, 15.0, &all));
    let parsed = report::validate(&text).expect("own report validates");
    assert_eq!(
        parsed.get("workloads").unwrap().as_arr().unwrap().len(),
        WORKLOADS.len()
    );
    assert_eq!(
        parsed.get("scale").unwrap().get("factor").unwrap().as_f64(),
        Some(0.75)
    );
    // Merging the single-run reports `perf run --out` writes gives the same.
    let singles: Vec<Value> = all
        .iter()
        .map(|r| report::build(SEED, 15.0, std::slice::from_ref(r)))
        .collect();
    let merged = report::merge(&singles).unwrap();
    assert_eq!(merged.get("workloads"), parsed.get("workloads"));

    assert!(report::validate(&text.replace("dfsssp-perf/v1", "dfsssp-perf/v2")).is_err());
    assert!(report::validate(&text.replace("\"boot_ms\"", "\"boot_msec\"")).is_err());
    assert!(report::validate(&text.replace("\"unit\": \"ms\"", "\"unit\": \"s\"")).is_err());
    assert!(report::validate("{").is_err());
    // An A/A comparison of a report with itself is all `ok`.
    let rows = report::compare(std::slice::from_ref(&parsed), std::slice::from_ref(&parsed));
    assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
    assert!(rows.iter().all(|r| r.verdict == report::Verdict::Ok));
}

#[test]
fn benchmark_json_names_every_workload_and_metric_of_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b = json::parse(&text).unwrap();
    let entries = |key: &str| b.get(key).and_then(Value::as_arr).unwrap().to_vec();
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let workloads = entries("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (got, want) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "why"), want.why);
        assert!(
            want.why.len() <= 200,
            "{}: why is {} characters",
            want.name,
            want.why.len()
        );
    }
    for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = entries(key);
        assert_eq!(listed.len(), catalog.len(), "{key}");
        for (got, want) in listed.iter().zip(catalog) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better.as_str(), "{}", want.name);
            assert_eq!(
                got.get("bound").and_then(Value::as_f64),
                want.bound,
                "{}",
                want.name
            );
        }
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert_eq!(
        entries("paths")
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect::<Vec<_>>(),
        ["crates/perf"]
    );
}
