//! Diagnostic model: lint codes, severities, witnesses, and the report a
//! [`crate::check`] run produces.

use fabric::{ChannelId, NodeId};
use telemetry::json;

/// Stable identifier of one lint. The numeric codes are part of the tool's
/// interface (CI greps for them; docs list them) — never renumber.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintCode {
    /// `V001`: walking the forwarding tables toward some destination
    /// revisits a node — packets cycle forever.
    ForwardingLoop,
    /// `V002`: a (node, destination) pair has no programmed next hop.
    MissingEntry,
    /// `V003`: a programmed next hop is unusable — the channel id is out
    /// of range (e.g. stale tables after a topology rebuild), does not
    /// originate at the node holding the entry, or enters a terminal that
    /// cannot forward.
    InvalidNextHop,
    /// `V004`: a virtual layer's channel dependency graph has a cycle, so
    /// the Dally & Seitz deadlock-freedom condition is violated.
    CdgCycle,
    /// `V005`: virtual-layer assignment problems — a path's layer is out
    /// of range, the layer count exceeds the hardware VL limit, or the
    /// layer population is badly imbalanced.
    VlOutOfRange,
    /// `V006`: a pair is routed over more hops than the shortest path.
    NonMinimalPath,
    /// `V007`: the *fabric itself* (not any particular artifact) fails —
    /// or cannot be certified to satisfy — the deadlock-free-routing
    /// existence condition of Mendlovic & Matias (arXiv:2503.04583): no
    /// assignment of paths on a single virtual layer can connect the
    /// required terminal pairs with an acyclic channel dependency graph.
    DeadlockExistence,
}

impl LintCode {
    /// All codes, in numeric order. `counts` arrays index by this order.
    pub const ALL: [LintCode; 7] = [
        LintCode::ForwardingLoop,
        LintCode::MissingEntry,
        LintCode::InvalidNextHop,
        LintCode::CdgCycle,
        LintCode::VlOutOfRange,
        LintCode::NonMinimalPath,
        LintCode::DeadlockExistence,
    ];

    /// The stable `V00x` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::ForwardingLoop => "V001",
            LintCode::MissingEntry => "V002",
            LintCode::InvalidNextHop => "V003",
            LintCode::CdgCycle => "V004",
            LintCode::VlOutOfRange => "V005",
            LintCode::NonMinimalPath => "V006",
            LintCode::DeadlockExistence => "V007",
        }
    }

    /// Short kebab-case name, matching the docs table.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::ForwardingLoop => "forwarding-loop",
            LintCode::MissingEntry => "missing-entry",
            LintCode::InvalidNextHop => "invalid-next-hop",
            LintCode::CdgCycle => "cdg-cycle",
            LintCode::VlOutOfRange => "vl-out-of-range",
            LintCode::NonMinimalPath => "non-minimal-path",
            LintCode::DeadlockExistence => "deadlock-existence",
        }
    }

    /// Position within [`LintCode::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            LintCode::ForwardingLoop => 0,
            LintCode::MissingEntry => 1,
            LintCode::InvalidNextHop => 2,
            LintCode::CdgCycle => 3,
            LintCode::VlOutOfRange => 4,
            LintCode::NonMinimalPath => 5,
            LintCode::DeadlockExistence => 6,
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.as_str(), self.name())
    }
}

/// How bad a finding is. `Error` findings make the `vet` binary exit
/// non-zero; `Warning` and `Info` are advisory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    /// Position within per-severity count arrays (info, warning, error).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// Machine-checkable evidence attached to a diagnostic. Every lint has a
/// witness shape that lets a reader (or a test) reproduce the finding
/// without re-running the analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum Witness {
    /// V001: the channel cycle a table walk toward `dst` falls into.
    /// Consecutive channels chain head-to-tail and the last feeds the
    /// first; never empty.
    TableLoop {
        dst: NodeId,
        channels: Vec<ChannelId>,
    },
    /// V002: the (node, destination) pair lacking an entry.
    Entry { node: NodeId, dst: NodeId },
    /// V003: the raw channel value programmed at `node` toward `dst`
    /// (kept as `u32` — it may not be a valid [`ChannelId`]).
    NextHop {
        node: NodeId,
        dst: NodeId,
        channel: u32,
    },
    /// V003 (shape variant): the artifact was sized for a different
    /// network than the one being vetted.
    Shape {
        table_nodes: usize,
        net_nodes: usize,
        table_terminals: usize,
        net_terminals: usize,
    },
    /// V004: the channel cycle inside one layer's dependency graph.
    /// Consecutive channels chain head-to-tail and the last feeds the
    /// first; never empty.
    CdgCycle { layer: u8, channels: Vec<ChannelId> },
    /// V005: the terminal pair whose layer assignment is out of range.
    Layer { src: NodeId, dst: NodeId, layer: u8 },
    /// V005 (imbalance / hardware-limit variants): routed paths per layer.
    LayerHistogram { populations: Vec<usize> },
    /// V006: the offending pair with its routed and minimal hop counts.
    Stretch {
        src: NodeId,
        dst: NodeId,
        hops: u32,
        minimal: u32,
    },
    /// V007: a terminal pair connected by the fabric in one direction but
    /// not the other (a half-dead cable, say) — no routing of any kind,
    /// deadlock-free or not, can serve it.
    OneWayPair { src: NodeId, dst: NodeId },
    /// V007: dependency edges *forced* by pairs whose only path through
    /// the fabric is unique close a cycle. Every single-layer routing
    /// must contain each forced edge, so every one violates Dally &
    /// Seitz: no deadlock-free routing exists on one layer. Consecutive
    /// channels chain head-to-tail and the last feeds the first.
    ForcedCycle { channels: Vec<ChannelId> },
    /// V007 (undecided): the pair the certificate could not cover — it
    /// is routable, but only over channels the up*/down* orientation
    /// cannot order (directed-only links), and no refutation was found.
    UncertifiedPair { src: NodeId, dst: NodeId },
}

impl Witness {
    /// `{"Variant": {fields…}}` with the fields in declaration order —
    /// the shape [`Report::to_json`] emits.
    fn write_json(&self, w: &mut json::Writer) {
        macro_rules! tagged {
            ($variant:literal: $($key:ident = $value:expr),*) => {{
                w.obj().key($variant).obj();
                $(w.key(stringify!($key)).u64($value as u64);)*
            }};
        }
        match self {
            Witness::TableLoop { dst, channels } => {
                tagged!("TableLoop": dst = dst.0);
                w.key("channels").u64s(ids(channels));
            }
            Witness::Entry { node, dst } => tagged!("Entry": node = node.0, dst = dst.0),
            Witness::NextHop { node, dst, channel } => {
                tagged!("NextHop": node = node.0, dst = dst.0, channel = *channel)
            }
            Witness::Shape {
                table_nodes,
                net_nodes,
                table_terminals,
                net_terminals,
            } => tagged!("Shape":
                table_nodes = *table_nodes,
                net_nodes = *net_nodes,
                table_terminals = *table_terminals,
                net_terminals = *net_terminals),
            Witness::CdgCycle { layer, channels } => {
                tagged!("CdgCycle": layer = *layer);
                w.key("channels").u64s(ids(channels));
            }
            Witness::Layer { src, dst, layer } => {
                tagged!("Layer": src = src.0, dst = dst.0, layer = *layer)
            }
            Witness::LayerHistogram { populations } => {
                tagged!("LayerHistogram":);
                w.key("populations").u64s(counts(populations));
            }
            Witness::Stretch {
                src,
                dst,
                hops,
                minimal,
            } => tagged!("Stretch": src = src.0, dst = dst.0, hops = *hops, minimal = *minimal),
            Witness::OneWayPair { src, dst } => tagged!("OneWayPair": src = src.0, dst = dst.0),
            Witness::ForcedCycle { channels } => {
                tagged!("ForcedCycle":);
                w.key("channels").u64s(ids(channels));
            }
            Witness::UncertifiedPair { src, dst } => {
                tagged!("UncertifiedPair": src = src.0, dst = dst.0)
            }
        }
        w.end().end();
    }
}

/// One finding: a lint code, its severity, a human message and a witness.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub code: LintCode,
    pub severity: Severity,
    pub message: String,
    pub witness: Witness,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {}: {}",
            self.code.as_str(),
            self.severity,
            self.code.name(),
            self.message
        )
    }
}

/// Aggregate facts about the artifact, computed alongside the lints.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    pub num_nodes: usize,
    pub num_switches: usize,
    pub num_terminals: usize,
    pub num_channels: usize,
    /// Ordered terminal pairs with distinct endpoints.
    pub pairs: usize,
    /// Pairs whose table walk reaches the destination.
    pub pairs_routed: usize,
    /// Pairs broken by a loop, missing entry or invalid next hop.
    pub pairs_broken: usize,
    /// Pairs with no physical path (expected to be unrouted).
    pub pairs_unreachable: usize,
    pub num_layers: u8,
    /// Routed paths assigned to each virtual layer.
    pub paths_per_layer: Vec<usize>,
    /// Dependency-graph edges per virtual layer.
    pub edges_per_layer: Vec<usize>,
    /// Layers whose dependency graph is cyclic, ascending.
    pub cyclic_layers: Vec<u8>,
    /// Longest routed path, in hops.
    pub max_hops: u32,
    /// Sample of terminal pairs whose table walk failed (broken or
    /// unreachable), capped at [`Stats::BROKEN_PAIR_SAMPLE`] entries.
    pub broken_pairs: Vec<(NodeId, NodeId)>,
    /// V007 verdict summary when the existence check ran: what the
    /// certificate proved (or why it couldn't), in one line.
    pub existence: Option<String>,
}

impl Stats {
    /// Cap on the [`Stats::broken_pairs`] sample.
    pub const BROKEN_PAIR_SAMPLE: usize = 16;
}

/// The outcome of one [`crate::check`] run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Engine name recorded in the routes artifact.
    pub engine: String,
    /// Topology label of the vetted network.
    pub network: String,
    pub stats: Stats,
    /// Retained diagnostics (per-code capped; see `suppressed`).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings per lint code, indexed like [`LintCode::ALL`]. Counts
    /// include suppressed findings.
    pub counts: [usize; 7],
    /// Findings per severity (info, warning, error), including suppressed.
    pub severity_counts: [usize; 3],
    /// Findings dropped by the per-code diagnostic cap.
    pub suppressed: usize,
}

impl Report {
    /// Total findings for `code`, including suppressed ones.
    #[inline]
    pub fn count(&self, code: LintCode) -> usize {
        self.counts[code.index()]
    }

    /// Whether any finding with `code` was emitted.
    #[inline]
    pub fn has(&self, code: LintCode) -> bool {
        self.count(code) > 0
    }

    /// Number of error-severity findings.
    #[inline]
    pub fn num_errors(&self) -> usize {
        self.severity_counts[Severity::Error.index()]
    }

    /// Number of warning-severity findings.
    #[inline]
    pub fn num_warnings(&self) -> usize {
        self.severity_counts[Severity::Warning.index()]
    }

    /// Whether the artifact passed: no error-severity findings.
    #[inline]
    pub fn clean(&self) -> bool {
        self.num_errors() == 0
    }

    /// Retained diagnostics carrying `code`.
    pub fn diagnostics_for(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Multi-line human rendering (what the `vet` binary prints).
    pub fn render_human(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let s = &self.stats;
        let _ = writeln!(
            out,
            "vet: engine={} network={} nodes={} ({} switches, {} terminals) channels={} layers={}",
            self.engine,
            self.network,
            s.num_nodes,
            s.num_switches,
            s.num_terminals,
            s.num_channels,
            s.num_layers,
        );
        let _ = writeln!(
            out,
            "     pairs: {} routed, {} broken, {} unreachable of {}; max path {} hops",
            s.pairs_routed, s.pairs_broken, s.pairs_unreachable, s.pairs, s.max_hops,
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        let _ = write!(
            out,
            "summary: {} error(s), {} warning(s), {} info",
            self.num_errors(),
            self.num_warnings(),
            self.severity_counts[Severity::Info.index()],
        );
        if self.suppressed > 0 {
            let _ = write!(
                out,
                " ({} finding(s) suppressed by per-code cap)",
                self.suppressed
            );
        }
        out.push('\n');
        out
    }

    /// JSON rendering of the full report: structs as objects, node and
    /// channel ids as numbers, `code` and `severity` as their variant
    /// names, witnesses tagged by variant (`{"Entry":{"node":3,"dst":0}}`).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut w = json::Writer::default();
        w.obj().key("engine").str(&self.engine);
        w.key("network").str(&self.network);
        w.key("stats").obj();
        for (key, n) in [
            ("num_nodes", s.num_nodes),
            ("num_switches", s.num_switches),
            ("num_terminals", s.num_terminals),
            ("num_channels", s.num_channels),
            ("pairs", s.pairs),
            ("pairs_routed", s.pairs_routed),
            ("pairs_broken", s.pairs_broken),
            ("pairs_unreachable", s.pairs_unreachable),
            ("num_layers", usize::from(s.num_layers)),
        ] {
            w.key(key).u64(n as u64);
        }
        w.key("paths_per_layer").u64s(counts(&s.paths_per_layer));
        w.key("edges_per_layer").u64s(counts(&s.edges_per_layer));
        w.key("cyclic_layers")
            .u64s(s.cyclic_layers.iter().map(|&l| u64::from(l)));
        w.key("max_hops").u64(u64::from(s.max_hops));
        w.key("broken_pairs").arr();
        for (a, b) in &s.broken_pairs {
            w.u64s([u64::from(a.0), u64::from(b.0)]);
        }
        w.end().key("existence");
        match &s.existence {
            Some(verdict) => w.str(verdict),
            None => w.null(),
        };
        w.end().key("diagnostics").arr();
        for d in &self.diagnostics {
            w.obj().key("code").str(&format!("{:?}", d.code));
            w.key("severity").str(&format!("{:?}", d.severity));
            w.key("message").str(&d.message);
            d.witness.write_json(w.key("witness"));
            w.end();
        }
        w.end().key("counts").u64s(counts(&self.counts));
        w.key("severity_counts").u64s(counts(&self.severity_counts));
        w.key("suppressed").u64(self.suppressed as u64).end();
        w.finish()
    }
}

fn ids(channels: &[ChannelId]) -> impl Iterator<Item = u64> + '_ {
    channels.iter().map(|c| u64::from(c.0))
}

fn counts(items: &[usize]) -> impl Iterator<Item = u64> + '_ {
    items.iter().map(|&n| n as u64)
}

/// Collects diagnostics during analysis, enforcing the per-code cap.
#[derive(Clone, Default)]
pub(crate) struct Emitter {
    pub diagnostics: Vec<Diagnostic>,
    pub counts: [usize; 7],
    pub severity_counts: [usize; 3],
    pub suppressed: usize,
    cap: usize,
}

impl Emitter {
    pub fn new(cap: usize) -> Self {
        Emitter {
            diagnostics: Vec::new(),
            counts: [0; 7],
            severity_counts: [0; 3],
            suppressed: 0,
            cap,
        }
    }

    pub fn emit(&mut self, code: LintCode, severity: Severity, message: String, witness: Witness) {
        self.counts[code.index()] += 1;
        self.severity_counts[severity.index()] += 1;
        if self.counts[code.index()] > self.cap {
            self.suppressed += 1;
            return;
        }
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            message,
            witness,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_indexed() {
        for (i, code) in LintCode::ALL.iter().enumerate() {
            assert_eq!(code.index(), i);
            assert_eq!(code.as_str(), format!("V{:03}", i + 1));
        }
    }

    /// `to_json` keeps the document serde's default representation used
    /// to produce; consumers key on these names.
    #[test]
    fn json_shape_is_pinned() {
        let (n, c) = (NodeId, ChannelId);
        let witnesses = [
            (
                Witness::TableLoop {
                    dst: n(2),
                    channels: vec![c(4), c(5)],
                },
                r#"{"TableLoop":{"dst":2,"channels":[4,5]}}"#,
            ),
            (
                Witness::Entry {
                    node: n(3),
                    dst: n(0),
                },
                r#"{"Entry":{"node":3,"dst":0}}"#,
            ),
            (
                Witness::NextHop {
                    node: n(1),
                    dst: n(2),
                    channel: u32::MAX,
                },
                r#"{"NextHop":{"node":1,"dst":2,"channel":4294967295}}"#,
            ),
            (
                Witness::Shape {
                    table_nodes: 4,
                    net_nodes: 5,
                    table_terminals: 2,
                    net_terminals: 3,
                },
                r#"{"Shape":{"table_nodes":4,"net_nodes":5,"table_terminals":2,"net_terminals":3}}"#,
            ),
            (
                Witness::CdgCycle {
                    layer: 1,
                    channels: vec![c(0)],
                },
                r#"{"CdgCycle":{"layer":1,"channels":[0]}}"#,
            ),
            (
                Witness::Layer {
                    src: n(0),
                    dst: n(1),
                    layer: 9,
                },
                r#"{"Layer":{"src":0,"dst":1,"layer":9}}"#,
            ),
            (
                Witness::LayerHistogram {
                    populations: vec![7, 0],
                },
                r#"{"LayerHistogram":{"populations":[7,0]}}"#,
            ),
            (
                Witness::Stretch {
                    src: n(0),
                    dst: n(1),
                    hops: 5,
                    minimal: 3,
                },
                r#"{"Stretch":{"src":0,"dst":1,"hops":5,"minimal":3}}"#,
            ),
            (
                Witness::OneWayPair {
                    src: n(6),
                    dst: n(7),
                },
                r#"{"OneWayPair":{"src":6,"dst":7}}"#,
            ),
            (
                Witness::ForcedCycle { channels: vec![] },
                r#"{"ForcedCycle":{"channels":[]}}"#,
            ),
            (
                Witness::UncertifiedPair {
                    src: n(8),
                    dst: n(9),
                },
                r#"{"UncertifiedPair":{"src":8,"dst":9}}"#,
            ),
        ];
        let report = Report {
            engine: "dfsssp".into(),
            network: "ring \"5\"".into(),
            stats: Stats {
                num_nodes: 4,
                paths_per_layer: vec![2, 0],
                cyclic_layers: vec![1],
                broken_pairs: vec![(n(2), n(3))],
                existence: Some("certified".into()),
                ..Stats::default()
            },
            diagnostics: witnesses
                .iter()
                .map(|(w, _)| Diagnostic {
                    code: LintCode::DeadlockExistence,
                    severity: Severity::Warning,
                    message: "line\nbreak".into(),
                    witness: w.clone(),
                })
                .collect(),
            counts: [0, 0, 0, 0, 0, 0, 11],
            severity_counts: [0, 11, 0],
            suppressed: 1,
        };
        let doc = json::parse(&report.to_json()).unwrap();
        let keys = |v: &json::Value| v.as_obj().unwrap().keys().cloned().collect::<Vec<_>>();
        assert_eq!(
            keys(&doc),
            [
                "counts",
                "diagnostics",
                "engine",
                "network",
                "severity_counts",
                "stats",
                "suppressed"
            ]
        );
        assert_eq!(
            keys(doc.get("stats").unwrap()),
            [
                "broken_pairs",
                "cyclic_layers",
                "edges_per_layer",
                "existence",
                "max_hops",
                "num_channels",
                "num_layers",
                "num_nodes",
                "num_switches",
                "num_terminals",
                "pairs",
                "pairs_broken",
                "pairs_routed",
                "pairs_unreachable",
                "paths_per_layer",
            ]
        );
        let expect = |text: &str| json::parse(text).unwrap();
        assert_eq!(doc.get("network"), Some(&expect(r#""ring \"5\"""#)));
        assert_eq!(doc.get("counts"), Some(&expect("[0,0,0,0,0,0,11]")));
        assert_eq!(doc.get("severity_counts"), Some(&expect("[0,11,0]")));
        assert_eq!(doc.get("suppressed"), Some(&expect("1")));
        let stats = doc.get("stats").unwrap();
        assert_eq!(stats.get("broken_pairs"), Some(&expect("[[2,3]]")));
        assert_eq!(stats.get("cyclic_layers"), Some(&expect("[1]")));
        assert_eq!(stats.get("edges_per_layer"), Some(&expect("[]")));
        assert_eq!(stats.get("existence"), Some(&expect(r#""certified""#)));
        let diags = doc.get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), witnesses.len());
        for (d, (_, witness)) in diags.iter().zip(&witnesses) {
            assert_eq!(keys(d), ["code", "message", "severity", "witness"]);
            assert_eq!(d.get("code"), Some(&expect(r#""DeadlockExistence""#)));
            assert_eq!(d.get("severity"), Some(&expect(r#""Warning""#)));
            assert_eq!(d.get("message"), Some(&expect(r#""line\nbreak""#)));
            assert_eq!(d.get("witness"), Some(&expect(witness)));
        }
        // The whole document is what the hand-rolled writer printed for
        // this report before the shared one (commit 3d6d1e6).
        assert_eq!(doc, expect(PARENT_DOCUMENT));
        // An absent verdict is `null`, an empty diagnostics list `[]`,
        // and the label is a JSON string whatever it holds.
        let empty = Report {
            network: "a\tb\u{1}\"c\\".into(),
            stats: Stats::default(),
            diagnostics: Vec::new(),
            ..report
        };
        let doc = json::parse(&empty.to_json()).unwrap();
        let network = doc.get("network").and_then(json::Value::as_str);
        assert_eq!(network, Some("a\tb\u{1}\"c\\"));
        assert_eq!(
            doc.get("stats").unwrap().get("existence"),
            Some(&json::Value::Null)
        );
        assert_eq!(doc.get("diagnostics"), Some(&expect("[]")));
    }

    const PARENT_DOCUMENT: &str = r#"{
  "engine": "dfsssp",
  "network": "ring \"5\"",
  "stats": {
    "num_nodes": 4,
    "num_switches": 0,
    "num_terminals": 0,
    "num_channels": 0,
    "pairs": 0,
    "pairs_routed": 0,
    "pairs_broken": 0,
    "pairs_unreachable": 0,
    "num_layers": 0,
    "paths_per_layer": [2, 0],
    "edges_per_layer": [],
    "cyclic_layers": [1],
    "max_hops": 0,
    "broken_pairs": [[2, 3]],
    "existence": "certified"
  },
  "diagnostics": [
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"TableLoop": {"dst": 2, "channels": [4, 5]}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"Entry": {"node": 3, "dst": 0}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"NextHop": {"node": 1, "dst": 2, "channel": 4294967295}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"Shape": {"table_nodes": 4, "net_nodes": 5, "table_terminals": 2, "net_terminals": 3}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"CdgCycle": {"layer": 1, "channels": [0]}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"Layer": {"src": 0, "dst": 1, "layer": 9}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"LayerHistogram": {"populations": [7, 0]}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"Stretch": {"src": 0, "dst": 1, "hops": 5, "minimal": 3}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"OneWayPair": {"src": 6, "dst": 7}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"ForcedCycle": {"channels": []}}},
    {"code": "DeadlockExistence", "severity": "Warning", "message": "line\nbreak", "witness": {"UncertifiedPair": {"src": 8, "dst": 9}}}
  ],
  "counts": [0, 0, 0, 0, 0, 0, 11],
  "severity_counts": [0, 11, 0],
  "suppressed": 1
}"#;

    #[test]
    fn emitter_caps_per_code() {
        let mut e = Emitter::new(2);
        for i in 0..5 {
            e.emit(
                LintCode::MissingEntry,
                Severity::Error,
                format!("missing {i}"),
                Witness::Entry {
                    node: NodeId(i),
                    dst: NodeId(0),
                },
            );
        }
        e.emit(
            LintCode::ForwardingLoop,
            Severity::Warning,
            "loop".into(),
            Witness::TableLoop {
                dst: NodeId(0),
                channels: vec![ChannelId(0)],
            },
        );
        assert_eq!(e.counts[LintCode::MissingEntry.index()], 5);
        assert_eq!(e.suppressed, 3);
        assert_eq!(e.diagnostics.len(), 3); // 2 capped + 1 loop
        assert_eq!(e.severity_counts[Severity::Error.index()], 5);
        assert_eq!(e.severity_counts[Severity::Warning.index()], 1);
    }
}
