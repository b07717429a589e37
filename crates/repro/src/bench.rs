//! The fixed benchmark sweep behind the `bench` binary and CI's
//! bench-smoke job: a small topology × engine matrix, each cell measured
//! through its own [`Collector`] into a full [`RunManifest`], the whole
//! thing serialized as a versioned `dfsssp-bench/v1` report
//! (`BENCH_pr3.json` in CI).

use baselines::{Lash, MinHop};
use dfsssp_core::pool::map_stealing;
use dfsssp_core::{DfSssp, EngineConfig, Recorded, RoutingEngine, Sssp};
use fabric::{topo, Network};
use std::fmt::Write as _;
use std::sync::Arc;
use telemetry::json::{self, Value};
use telemetry::{Collector, RecorderHandle, RunManifest, TopologySummary};

/// Bench report schema identifier; bump only on breaking shape changes.
pub const SCHEMA: &str = "dfsssp-bench/v1";

/// One measured (topology, engine) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Topology label.
    pub topology: String,
    /// Terminal count of the topology.
    pub terminals: usize,
    /// Engine name as reported by the engine.
    pub engine: String,
    /// Whether routing succeeded.
    pub ok: bool,
    /// The failure, when `!ok`.
    pub error: Option<String>,
    /// Everything the cell's collector measured.
    pub manifest: RunManifest,
}

/// The whole sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Always [`SCHEMA`] for reports this module writes.
    pub schema: String,
    /// Whether the reduced CI sweep ran.
    pub quick: bool,
    /// Seed for the randomized topology point.
    pub seed: u64,
    /// One entry per (topology, engine), in sweep order.
    pub cases: Vec<BenchCase>,
}

fn topologies(quick: bool, seed: u64) -> Vec<Network> {
    let mut nets = vec![
        topo::ring(8, 1),
        topo::kary_ntree(4, 2),
        topo::torus(&[4, 4], 1),
    ];
    if !quick {
        nets.push(topo::kautz(2, 2, 64, true));
        nets.push(topo::xgft(2, &[8, 8], &[4, 4]));
        nets.push(topo::random_topology(
            &topo::RandomTopoSpec::fig9(150),
            seed,
        ));
    }
    nets
}

fn engines(rec: &RecorderHandle) -> Vec<Box<dyn RoutingEngine>> {
    let config = || EngineConfig::new().recorder(rec.clone());
    vec![
        Box::new(MinHop::new()),
        Box::new(Sssp::new()),
        Box::new(Lash::new().with_config(config())),
        Box::new(DfSssp::new().with_config(config())),
    ]
}

fn measure(net: &Network, seed: u64) -> Vec<BenchCase> {
    let summary = TopologySummary {
        label: net.label().to_string(),
        nodes: net.num_nodes(),
        switches: net.num_switches(),
        terminals: net.num_terminals(),
        channels: net.num_channels(),
    };
    let collector = Arc::new(Collector::new());
    let rec: RecorderHandle = collector.clone();
    engines(&rec)
        .into_iter()
        .map(|engine| {
            collector.reset();
            let recorded = Recorded::new(engine, rec.clone());
            let result = recorded.route_in(net, &recorded.config().compute.resolve());
            let manifest = RunManifest::new("bench")
                .topology(summary.clone())
                .engine(recorded.name())
                .seed(seed)
                .metrics(collector.snapshot());
            BenchCase {
                topology: summary.label.clone(),
                terminals: summary.terminals,
                engine: recorded.name().to_string(),
                ok: result.is_ok(),
                error: result.err().map(|e| e.to_string()),
                manifest,
            }
        })
        .collect()
}

/// Run the sweep: every engine in the lineup against every topology
/// (three small fabrics under `quick`, six otherwise). Topologies are
/// measured on worker threads — each cell has its own collector, and
/// [`map_stealing`] places results by index, so the report is identical
/// to the sequential one modulo the timings it measures.
pub fn run(quick: bool, seed: u64) -> BenchReport {
    let nets = topologies(quick, seed);
    let (cases, _) = map_stealing(nets.len(), serve::pool::default_workers(), |i| {
        measure(&nets[i], seed)
    });
    let cases = cases.into_iter().flatten().collect();
    BenchReport {
        schema: SCHEMA.to_string(),
        quick,
        seed,
        cases,
    }
}

impl BenchReport {
    /// Serialize (pretty, trailing newline — artifact-friendly).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"schema\": ");
        json::write_str(&mut s, &self.schema);
        let _ = write!(
            s,
            ",\n  \"quick\": {},\n  \"seed\": {}",
            self.quick, self.seed
        );
        s.push_str(",\n  \"cases\": [");
        for (i, case) in self.cases.iter().enumerate() {
            s.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            s.push_str("\n      \"topology\": ");
            json::write_str(&mut s, &case.topology);
            let _ = write!(s, ",\n      \"terminals\": {}", case.terminals);
            s.push_str(",\n      \"engine\": ");
            json::write_str(&mut s, &case.engine);
            let _ = write!(s, ",\n      \"ok\": {}", case.ok);
            s.push_str(",\n      \"error\": ");
            match &case.error {
                None => s.push_str("null"),
                Some(e) => json::write_str(&mut s, e),
            }
            s.push_str(",\n      \"manifest\": ");
            s.push_str(indent(case.manifest.to_json().trim_end(), 6).trim_start());
            s.push_str("\n    }");
        }
        s.push_str(if self.cases.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        s
    }

    /// Parse a report back, verifying the schema version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("bench: missing schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "schema mismatch: file says {schema:?}, this build expects {SCHEMA:?}"
            ));
        }
        let quick = v
            .get("quick")
            .and_then(Value::as_bool)
            .ok_or("bench: missing quick")?;
        let seed = v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("bench: missing seed")?;
        let mut cases = Vec::new();
        for (i, case) in v
            .get("cases")
            .and_then(Value::as_arr)
            .ok_or("bench: missing cases")?
            .iter()
            .enumerate()
        {
            let field = |name: &str| {
                case.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("bench: bad cases[{i}].{name}"))
            };
            cases.push(BenchCase {
                topology: field("topology")?,
                terminals: case
                    .get("terminals")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("bench: bad cases[{i}].terminals"))?
                    as usize,
                engine: field("engine")?,
                ok: case
                    .get("ok")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| format!("bench: bad cases[{i}].ok"))?,
                error: match case.get("error") {
                    None | Some(Value::Null) => None,
                    Some(e) => Some(
                        e.as_str()
                            .ok_or_else(|| format!("bench: bad cases[{i}].error"))?
                            .to_string(),
                    ),
                },
                manifest: RunManifest::from_value(
                    case.get("manifest")
                        .ok_or_else(|| format!("bench: missing cases[{i}].manifest"))?,
                )
                .map_err(|e| format!("cases[{i}]: {e}"))?,
            });
        }
        Ok(BenchReport {
            schema: schema.to_string(),
            quick,
            seed,
            cases,
        })
    }
}

/// Re-indent a pretty-printed JSON block by `pad` extra spaces.
fn indent(text: &str, pad: usize) -> String {
    let prefix = " ".repeat(pad);
    let mut out = String::with_capacity(text.len() + 64);
    for (i, line) in text.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&prefix);
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_round_trips() {
        let report = run(true, 7);
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.cases.len(), 3 * 4);
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn dfsssp_cells_carry_phase_timings() {
        let report = run(true, 7);
        let df = report
            .cases
            .iter()
            .find(|c| c.engine == "DFSSSP" && c.ok)
            .expect("a successful DFSSSP cell");
        for phase in [
            "sssp",
            "cdg_build",
            "cycle_search",
            "layer_assign",
            "balance",
        ] {
            assert!(
                df.manifest.metrics.phases.contains_key(phase),
                "missing phase {phase}"
            );
        }
        assert!(df.manifest.metrics.histograms.contains_key("path_length"));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut report = run(true, 7);
        report.schema = "dfsssp-bench/v0".into();
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }
}
