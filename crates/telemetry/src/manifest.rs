//! The versioned run manifest: what `--metrics <out.json>` writes.
//!
//! Schema stability contract (`dfsssp-metrics/v1`): the top-level keys
//! `schema`, `binary`, `topology`, `engine`, `seed`, `metrics` and the
//! shape of `metrics.{phases,counters,histograms}` never change within
//! a major schema version; *names* inside those maps may come and go as
//! instrumentation evolves. Consumers must key on names, not positions
//! (maps serialize ordered — `BTreeMap` — so diffs stay readable).
//!
//! Written with [`json::Writer`], the workspace's one JSON module, and
//! never read back by this workspace: the document is pinned by its
//! golden test instead.

use crate::hist::Hist;
use crate::json;
use std::collections::BTreeMap;

/// Manifest schema identifier; bump only on breaking shape changes.
pub const SCHEMA: &str = "dfsssp-metrics/v1";

/// Accumulated wall-clock time of one phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total nanoseconds across all spans.
    pub nanos: u64,
    /// Number of spans reported.
    pub count: u64,
}

impl PhaseStat {
    /// Total seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Everything a [`crate::Collector`] aggregated, in stable order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Phase timings by name.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Hist>,
}

/// The topology a run was measured against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologySummary {
    /// Human-readable topology label (e.g. `torus(4x4)`).
    pub label: String,
    /// Total nodes.
    pub nodes: usize,
    /// Switch count.
    pub switches: usize,
    /// Terminal count.
    pub terminals: usize,
    /// Directed channel count.
    pub channels: usize,
}

/// A versioned, self-describing record of one measured run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Always [`SCHEMA`] for manifests this crate writes.
    pub schema: String,
    /// The binary or harness that produced the run.
    pub binary: String,
    /// Topology routed/simulated, when one was in play.
    pub topology: Option<TopologySummary>,
    /// Routing engine name, when one was in play.
    pub engine: Option<String>,
    /// RNG seed, when the run was seeded.
    pub seed: Option<u64>,
    /// The measured values.
    pub metrics: Snapshot,
}

impl RunManifest {
    /// An empty manifest for `binary` under the current schema.
    pub fn new(binary: impl Into<String>) -> Self {
        RunManifest {
            schema: SCHEMA.to_string(),
            binary: binary.into(),
            topology: None,
            engine: None,
            seed: None,
            metrics: Snapshot::default(),
        }
    }

    /// Attach a topology summary.
    pub fn topology(mut self, t: TopologySummary) -> Self {
        self.topology = Some(t);
        self
    }

    /// Attach the engine name.
    pub fn engine(mut self, name: impl Into<String>) -> Self {
        self.engine = Some(name.into());
        self
    }

    /// Attach the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attach the measured values.
    pub fn metrics(mut self, snapshot: Snapshot) -> Self {
        self.metrics = snapshot;
        self
    }

    /// Serialize (pretty, trailing newline — artifact-friendly).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::default();
        w.obj().key("schema").str(&self.schema);
        w.key("binary").str(&self.binary);
        w.key("topology");
        match &self.topology {
            None => w.null(),
            Some(t) => {
                w.obj().key("label").str(&t.label);
                for (key, n) in [
                    ("nodes", t.nodes),
                    ("switches", t.switches),
                    ("terminals", t.terminals),
                    ("channels", t.channels),
                ] {
                    w.key(key).u64(n as u64);
                }
                w.end()
            }
        };
        w.key("engine");
        match &self.engine {
            None => w.null(),
            Some(e) => w.str(e),
        };
        w.key("seed");
        match self.seed {
            None => w.null(),
            Some(seed) => w.u64(seed),
        };
        w.key("metrics").obj().key("phases").obj();
        for (name, p) in &self.metrics.phases {
            w.key(name).obj().key("nanos").u64(p.nanos);
            w.key("count").u64(p.count).end();
        }
        w.end().key("counters").obj();
        for (name, &v) in &self.metrics.counters {
            w.key(name).u64(v);
        }
        w.end().key("histograms").obj();
        for (name, h) in &self.metrics.histograms {
            h.write_json(w.key(name));
        }
        w.end().end().end();
        w.finish() + "\n"
    }

    /// Write to `path` as JSON.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::{Collector, Recorder};

    fn sample() -> RunManifest {
        let c = Collector::new();
        c.phase("sssp", 1_000);
        c.add("paths_routed", 72);
        c.observe("path_length", 3);
        RunManifest::new("test")
            .topology(TopologySummary {
                label: "torus(4x4)".into(),
                nodes: 32,
                switches: 16,
                terminals: 16,
                channels: 96,
            })
            .engine("DFSSSP")
            .seed(7)
            .metrics(c.snapshot())
    }

    /// `v`'s `key` as a string, or a panic naming the key.
    fn str_at<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key}"))
    }

    /// `v`'s `key` as a `u64`, or a panic naming the key.
    fn u64_at(v: &Value, key: &str) -> u64 {
        v.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("{key}"))
    }

    #[test]
    fn round_trips_through_json() {
        // Whatever the label says, and a seed no `f64` holds exactly.
        let label = "a\tb\u{1}\"c\\";
        let mut m = sample().seed(u64::MAX);
        m.topology.as_mut().unwrap().label = label.into();
        let text = m.to_json();
        assert!(text.contains("18446744073709551615"), "{text}");
        let v = json::parse(&text).unwrap();
        assert_eq!(str_at(&v, "schema"), SCHEMA);
        assert_eq!(str_at(&v, "binary"), "test");
        assert_eq!(str_at(&v, "engine"), "DFSSSP");
        assert_eq!(u64_at(&v, "seed"), u64::MAX);
        let t = v.get("topology").unwrap();
        assert_eq!(str_at(t, "label"), label);
        for (key, n) in [
            ("nodes", 32),
            ("switches", 16),
            ("terminals", 16),
            ("channels", 96),
        ] {
            assert_eq!(u64_at(t, key), n, "{key}");
        }
        let metrics = v.get("metrics").unwrap();
        let sssp = metrics.get("phases").and_then(|p| p.get("sssp")).unwrap();
        assert_eq!((u64_at(sssp, "nanos"), u64_at(sssp, "count")), (1_000, 1));
        let counters = metrics.get("counters").unwrap();
        assert_eq!(u64_at(counters, "paths_routed"), 72);
        let hist = &m.metrics.histograms["path_length"];
        let h = metrics
            .get("histograms")
            .and_then(|h| h.get("path_length"))
            .unwrap();
        for (key, n) in [
            ("count", hist.count),
            ("sum", hist.sum),
            ("min", hist.min),
            ("max", hist.max),
        ] {
            assert_eq!(u64_at(h, key), n, "{key}");
        }
        let buckets: Vec<u64> = h
            .get("log2_buckets")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .collect();
        assert_eq!(buckets, hist.log2_buckets);
    }

    /// What `sample().to_json()` printed before the shared writer
    /// (commit 3d6d1e6): the layout may move, the document may not.
    #[test]
    fn document_is_the_hand_rolled_writers() {
        let parent = r#"{
  "schema": "dfsssp-metrics/v1",
  "binary": "test",
  "topology": {
    "label": "torus(4x4)",
    "nodes": 32,
    "switches": 16,
    "terminals": 16,
    "channels": 96
  },
  "engine": "DFSSSP",
  "seed": 7,
  "metrics": {
    "phases": {
      "sssp": {"nanos": 1000, "count": 1}
    },
    "counters": {
      "paths_routed": 72
    },
    "histograms": {
      "path_length": {"count": 1, "sum": 3, "min": 3, "max": 3, "log2_buckets": [0, 0, 1]}
    }
  }
}
"#;
        let text = sample().to_json();
        assert_eq!(json::parse(&text), json::parse(parent), "{text}");
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn optional_fields_round_trip_as_null() {
        let m = RunManifest::new("bare");
        let text = m.to_json();
        assert!(text.contains("\"topology\": null"), "{text}");
        assert!(text.contains("\"seed\": null"), "{text}");
        let v = json::parse(&text).unwrap();
        assert_eq!(str_at(&v, "binary"), "bare");
        for key in ["topology", "engine", "seed"] {
            assert_eq!(v.get(key), Some(&Value::Null), "{key}");
        }
        let metrics = v.get("metrics").unwrap();
        for key in ["phases", "counters", "histograms"] {
            let map = metrics.get(key).and_then(Value::as_obj);
            assert!(map.is_some_and(|m| m.is_empty()), "{key}");
        }
    }

    #[test]
    fn schema_shape_is_stable() {
        // The v1 contract: these exact top-level keys, these exact
        // metric sub-keys. A failure here means SCHEMA must be bumped.
        let v = json::parse(&sample().to_json()).unwrap();
        let obj = v.as_obj().unwrap();
        for key in ["schema", "binary", "topology", "engine", "seed", "metrics"] {
            assert!(obj.contains_key(key), "missing top-level key {key}");
        }
        assert_eq!(obj.len(), 6, "unexpected extra top-level keys");
        let metrics = obj["metrics"].as_obj().unwrap();
        for key in ["phases", "counters", "histograms"] {
            assert!(metrics.contains_key(key), "missing metrics key {key}");
        }
        let phase = metrics["phases"].get("sssp").unwrap().as_obj().unwrap();
        assert!(phase.contains_key("nanos") && phase.contains_key("count"));
        let hist = metrics["histograms"]
            .get("path_length")
            .unwrap()
            .as_obj()
            .unwrap();
        for key in ["count", "sum", "min", "max", "log2_buckets"] {
            assert!(hist.contains_key(key), "missing histogram key {key}");
        }
    }

    #[test]
    fn phase_seconds_convert() {
        let p = PhaseStat {
            nanos: 2_500_000_000,
            count: 2,
        };
        assert!((p.seconds() - 2.5).abs() < 1e-12);
    }
}
