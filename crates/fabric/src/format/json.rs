//! JSON round-tripping for [`Network`] and [`Routes`].
//!
//! Syntax is [`telemetry::json`]'s job (the workspace's one JSON
//! module); this file owns the two schemas. A JSON artifact is untrusted
//! input, and instead of reading the graph's internal arrays verbatim
//! (index maps, adjacency rows, reverse-channel ids — a hostile document
//! can make all of them lie), the reader re-derives the network through
//! [`crate::NetworkBuilder`], so every invariant is re-established or
//! the document is rejected with a typed [`ParseError`].
//!
//! Schema (`network_to_json`):
//!
//! ```json
//! {"label": "ring",
//!  "nodes": [{"kind": "switch", "name": "s0", "ports": 36,
//!             "coord": [0, 1], "level": 2}],
//!  "cables": [{"src": 0, "src_port": 1, "dst": 1, "dst_port": 1,
//!              "bidi": true}]}
//! ```
//!
//! Cable endpoints are indices into `nodes`; `bidi: true` is a paired
//! cable (two channels), `false` a single directed channel. Routes
//! (`routes_to_json`) serialize as next-hop channel ids (`null` = unset)
//! plus the per-pair virtual-layer table:
//!
//! ```json
//! {"engine": "dfsssp", "num_terminals": 2, "num_layers": 1,
//!  "next": [[null, 0], [1, null]], "vl": [0, 0, 0, 0]}
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::error::{FormatLimits, ParseError, ParseErrorKind};
use crate::{Network, NetworkBuilder, NodeId, NodeKind, Routes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::json::{write_str, Value};

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Serialize a network to a JSON string (inverse of
/// [`network_from_json`]). A degraded view writes its live nodes, numbered
/// in id order, and its live channels only: the format has no dead node
/// or tombstone.
pub fn network_to_json(net: &Network) -> String {
    let mut out = String::from("{\"label\":");
    write_str(&mut out, net.label());
    out.push_str(",\"nodes\":[");
    let live = net.nodes().filter(|&(id, _)| net.is_live(id));
    let mut at = vec![u32::MAX; net.num_nodes()];
    for (i, (id, node)) in live.enumerate() {
        at[id.idx()] = i as u32;
        if i > 0 {
            out.push(',');
        }
        let kind = match node.kind {
            NodeKind::Switch => "switch",
            NodeKind::Terminal => "terminal",
        };
        let _ = write!(out, "{{\"kind\":\"{kind}\",\"name\":");
        write_str(&mut out, &node.name);
        let _ = write!(out, ",\"ports\":{}", node.max_ports);
        if let Some(c) = &node.coord {
            out.push_str(",\"coord\":[");
            for (j, x) in c.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{x}");
            }
            out.push(']');
        }
        if let Some(l) = node.level {
            let _ = write!(out, ",\"level\":{l}");
        }
        out.push('}');
    }
    out.push_str("],\"cables\":[");
    let mut written = vec![false; net.num_channels()];
    let mut first = true;
    for (id, ch) in net.channels() {
        if written[id.idx()] {
            continue;
        }
        written[id.idx()] = true;
        if !first {
            out.push(',');
        }
        first = false;
        let bidi = match ch.rev {
            Some(r) => {
                written[r.idx()] = true;
                true
            }
            None => false,
        };
        let _ = write!(
            out,
            "{{\"src\":{},\"src_port\":{},\"dst\":{},\"dst_port\":{},\"bidi\":{bidi}}}",
            at[ch.src.idx()],
            ch.src_port,
            at[ch.dst.idx()],
            ch.dst_port
        );
    }
    out.push_str("]}");
    out
}

/// Serialize routes to a JSON string (inverse of [`routes_from_json`]).
pub fn routes_to_json(routes: &Routes) -> String {
    let nt = routes.num_terminals();
    let mut out = String::from("{\"engine\":");
    write_str(&mut out, routes.engine());
    let _ = write!(
        out,
        ",\"num_terminals\":{nt},\"num_layers\":{},\"next\":[",
        routes.num_layers()
    );
    for node in 0..routes.num_nodes() {
        if node > 0 {
            out.push(',');
        }
        out.push('[');
        for t in 0..nt {
            if t > 0 {
                out.push(',');
            }
            match routes.next_hop(NodeId(node as u32), t) {
                Some(c) => {
                    let _ = write!(out, "{}", c.0);
                }
                None => out.push_str("null"),
            }
        }
        out.push(']');
    }
    out.push_str("],\"vl\":[");
    for src_t in 0..nt {
        for dst_t in 0..nt {
            if src_t + dst_t > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", routes.layer(src_t, dst_t));
        }
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------

/// Parse a network from JSON with default [`FormatLimits`].
pub fn network_from_json(s: &str) -> Result<Network, ParseError> {
    network_from_json_with(s, &FormatLimits::default())
}

/// Parse a network from JSON, enforcing `limits`. The graph is rebuilt
/// through [`NetworkBuilder`], so port collisions, dangling endpoints and
/// self-loops in the document surface as typed structural errors.
pub fn network_from_json_with(s: &str, limits: &FormatLimits) -> Result<Network, ParseError> {
    limits.check_input(s.len())?;
    let doc = parse_value(s)?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| s_err("top-level value is not an object"))?;

    let label = match obj.get("label") {
        None => "",
        Some(v) => v.as_str().ok_or_else(|| s_err("`label` is not a string"))?,
    };
    let nodes = want_arr(obj, "nodes")?;
    let cables = want_arr(obj, "cables")?;

    let mut b = NetworkBuilder::new();
    b.label(label);
    let (mut num_switches, mut num_terminals) = (0usize, 0usize);
    for (i, node) in nodes.iter().enumerate() {
        let node = node
            .as_obj()
            .ok_or_else(|| s_err(format!("node {i} is not an object")))?;
        let kind = match want_str(node, "kind", i)? {
            "switch" => NodeKind::Switch,
            "terminal" => NodeKind::Terminal,
            other => return Err(s_err(format!("node {i}: unknown kind `{other}`"))),
        };
        match kind {
            NodeKind::Switch => num_switches += 1,
            NodeKind::Terminal => num_terminals += 1,
        }
        limits.check_nodes(0, num_switches, num_terminals)?;
        let name = want_str(node, "name", i)?;
        let ports = want_u64(node, "ports", i, u16::MAX as u64)? as u16;
        limits.check_ports(0, ports)?;
        let id = b.add_node(kind, name.to_string(), ports);
        if let Some(v) = node.get("coord") {
            let arr = v
                .as_arr()
                .ok_or_else(|| s_err(format!("node {i}: `coord` is not an array")))?;
            limits.check_coord(0, arr.len())?;
            let coord = arr
                .iter()
                .map(|x| x.as_u64().filter(|&x| x <= u16::MAX as u64))
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| s_err(format!("node {i}: bad coord component")))?;
            b.set_coord(id, coord.into_iter().map(|x| x as u16).collect());
        }
        if let Some(v) = node.get("level") {
            let level = v
                .as_u64()
                .filter(|&l| l <= u8::MAX as u64)
                .ok_or_else(|| s_err(format!("node {i}: bad level")))?;
            b.set_level(id, level as u8);
        }
    }
    for (i, cable) in cables.iter().enumerate() {
        let cable = cable
            .as_obj()
            .ok_or_else(|| s_err(format!("cable {i} is not an object")))?;
        let src = want_u64(cable, "src", i, u32::MAX as u64 - 1)? as u32;
        let dst = want_u64(cable, "dst", i, u32::MAX as u64 - 1)? as u32;
        let sp = want_u64(cable, "src_port", i, u16::MAX as u64)? as u16;
        let dp = want_u64(cable, "dst_port", i, u16::MAX as u64)? as u16;
        let bidi = match cable.get("bidi") {
            None => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| s_err(format!("cable {i}: `bidi` is not a bool")))?,
        };
        let res = if bidi {
            b.link_at(NodeId(src), sp, NodeId(dst), dp).map(|_| ())
        } else {
            b.add_channel_at(NodeId(src), sp, NodeId(dst), dp)
                .map(|_| ())
        };
        res.map_err(|e| s_err(format!("cable {i}: {e}")))?;
    }
    let net = b.build();
    // Builder output is consistent by construction; keep the check as a
    // backstop so a builder regression cannot ship a bad artifact.
    net.validate().map_err(s_err)?;
    Ok(net)
}

/// Parse routes from JSON with default [`FormatLimits`].
pub fn routes_from_json(s: &str) -> Result<Routes, ParseError> {
    routes_from_json_with(s, &FormatLimits::default())
}

/// Parse routes from JSON, enforcing `limits`. Table shapes (row widths,
/// the `vl` matrix size, layer range) are validated before construction,
/// so a corrupt artifact is rejected instead of panicking downstream.
pub fn routes_from_json_with(s: &str, limits: &FormatLimits) -> Result<Routes, ParseError> {
    limits.check_input(s.len())?;
    let doc = parse_value(s)?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| s_err("top-level value is not an object"))?;
    let engine = match obj.get("engine") {
        None => "unknown",
        Some(v) => v
            .as_str()
            .ok_or_else(|| s_err("`engine` is not a string"))?,
    };
    let nt = obj
        .get("num_terminals")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| s_err("missing or bad `num_terminals`"))? as usize;
    let next_rows = want_arr(obj, "next")?;
    limits.check_nodes(0, next_rows.len().saturating_sub(nt), nt)?;
    let mut next = Vec::with_capacity(next_rows.len());
    for (i, row) in next_rows.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| s_err(format!("next[{i}] is not an array")))?;
        let mut out = Vec::with_capacity(row.len());
        for v in row {
            out.push(match v {
                Value::Null => crate::graph::NONE_U32,
                v => v
                    .as_u64()
                    .filter(|&c| c < crate::graph::NONE_U32 as u64)
                    .ok_or_else(|| s_err(format!("next[{i}]: bad channel id")))?
                    as u32,
            });
        }
        next.push(out);
    }
    let vl_vals = want_arr(obj, "vl")?;
    let mut vl = Vec::with_capacity(vl_vals.len());
    for v in vl_vals {
        vl.push(
            v.as_u64()
                .filter(|&l| l <= 254)
                .ok_or_else(|| s_err("vl: virtual layer out of range (0..=254)"))?
                as u8,
        );
    }
    let routes = Routes::from_raw(next, vl, nt, engine.to_string()).map_err(s_err)?;
    if let Some(v) = obj.get("num_layers") {
        let claimed = v
            .as_u64()
            .ok_or_else(|| s_err("`num_layers` is not a number"))?;
        if claimed != routes.num_layers() as u64 {
            return Err(s_err(format!(
                "`num_layers` is {claimed} but the vl table implies {}",
                routes.num_layers()
            )));
        }
    }
    Ok(routes)
}

/// A structural (schema-level) rejection; positions are lost once the
/// document is a value tree, so these anchor to the whole input.
fn s_err(detail: impl Into<String>) -> ParseError {
    ParseError::whole_input(ParseErrorKind::Structure {
        detail: detail.into(),
    })
}

fn want_arr<'v>(
    obj: &'v BTreeMap<String, Value>,
    key: &'static str,
) -> Result<&'v [Value], ParseError> {
    obj.get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| s_err(format!("missing or non-array `{key}`")))
}

fn want_str<'v>(
    obj: &'v BTreeMap<String, Value>,
    key: &str,
    i: usize,
) -> Result<&'v str, ParseError> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| s_err(format!("entry {i}: missing or non-string `{key}`")))
}

fn want_u64(
    obj: &BTreeMap<String, Value>,
    key: &str,
    i: usize,
    max: u64,
) -> Result<u64, ParseError> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .filter(|&v| v <= max)
        .ok_or_else(|| s_err(format!("entry {i}: missing or out-of-range `{key}`")))
}

/// Parse one document, mapping the positioned syntax error onto
/// [`ParseErrorKind::Json`].
fn parse_value(input: &str) -> Result<Value, ParseError> {
    telemetry::json::parse(input).map_err(|e| {
        ParseError::new(e.line, ParseErrorKind::Json { detail: e.detail }).at_column(e.column)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo;

    #[test]
    fn network_round_trips() {
        let net = topo::ring(5, 2);
        let json = network_to_json(&net);
        let back = network_from_json(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes());
        assert_eq!(back.num_channels(), net.num_channels());
        assert_eq!(back.label(), net.label());
        for ((_, a), (_, b)) in net.nodes().zip(back.nodes()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.name, b.name);
            assert_eq!(a.max_ports, b.max_ports);
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.level, b.level);
        }
        for ((_, a), (_, b)) in net.channels().zip(back.channels()) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.src_port, b.src_port);
            assert_eq!(a.dst_port, b.dst_port);
            assert_eq!(a.rev, b.rev);
        }
    }

    #[test]
    fn tree_with_coords_round_trips() {
        let net = topo::kary_ntree(2, 3);
        let back = network_from_json(&network_to_json(&net)).unwrap();
        back.validate().unwrap();
        assert_eq!(back.num_channels(), net.num_channels());
        for ((_, a), (_, b)) in net.nodes().zip(back.nodes()) {
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.level, b.level);
        }
    }

    #[test]
    fn corrupt_json_is_rejected_with_position() {
        let e = network_from_json("{not json").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Json { .. }));
        assert_eq!(e.line, 1);
        assert_eq!(e.column, Some(2));

        let e = network_from_json("{\"label\": \"x\",\n  ?}").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.column, Some(3));

        // Columns count characters, also when a rejected escape leaves
        // the parser inside a multi-byte scalar.
        let e = network_from_json("{\n\"é\\é\"").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Json { .. }));
        assert_eq!((e.line, e.column), (2, Some(5)));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowing() {
        let hostile = "[".repeat(100_000);
        let e = network_from_json(&hostile).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Json { .. }));
        assert!(e.to_string().contains("nesting"));
    }

    #[test]
    fn inconsistent_network_is_rejected_not_panicking() {
        // Structurally valid JSON whose contents no builder would
        // produce: a cable to a node that does not exist, a port
        // collision, and a self-loop.
        let nodes = r#""nodes":[{"kind":"switch","name":"s0","ports":4},
                                 {"kind":"switch","name":"s1","ports":4}]"#;
        for cables in [
            r#"[{"src":0,"src_port":1,"dst":99,"dst_port":1,"bidi":true}]"#,
            r#"[{"src":0,"src_port":1,"dst":1,"dst_port":1,"bidi":true},
                {"src":0,"src_port":1,"dst":1,"dst_port":2,"bidi":true}]"#,
            r#"[{"src":0,"src_port":1,"dst":0,"dst_port":2,"bidi":true}]"#,
        ] {
            let doc = format!("{{{nodes},\"cables\":{cables}}}");
            let e = network_from_json(&doc).unwrap_err();
            assert!(
                matches!(e.kind, ParseErrorKind::Structure { .. }),
                "{doc} -> {e}"
            );
        }
    }

    #[test]
    fn limits_apply_to_json_networks() {
        let net = topo::ring(5, 1);
        let json = network_to_json(&net);
        let limits = FormatLimits {
            max_switches: 2,
            ..FormatLimits::default()
        };
        let e = network_from_json_with(&json, &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "switches",
                ..
            }
        ));
        let limits = FormatLimits {
            max_input_len: 8,
            ..FormatLimits::default()
        };
        let e = network_from_json_with(&json, &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "input length",
                ..
            }
        ));
    }

    #[test]
    fn routes_round_trip() {
        let net = topo::ring(4, 1);
        let mut r = Routes::new(&net, "test");
        let t0 = net.terminals()[0];
        r.set_next(t0, 1, net.out_channels(t0)[0]);
        r.set_layer(0, 1, 2);
        let back = routes_from_json(&routes_to_json(&r)).unwrap();
        assert_eq!(back.engine(), "test");
        assert_eq!(back.num_layers(), 3);
        assert_eq!(back.layer(0, 1), 2);
        assert_eq!(back.next_hop(t0, 1), r.next_hop(t0, 1));
        assert_eq!(back.num_terminals(), r.num_terminals());
        assert_eq!(back.num_nodes(), r.num_nodes());
    }

    #[test]
    fn corrupt_routes_are_rejected_not_panicking() {
        for doc in [
            // vl matrix too short for num_terminals.
            r#"{"num_terminals":2,"next":[[null,null],[null,null]],"vl":[0]}"#,
            // Ragged next rows.
            r#"{"num_terminals":2,"next":[[null],[null,null]],"vl":[0,0,0,0]}"#,
            // Layer out of the representable range.
            r#"{"num_terminals":1,"next":[[null]],"vl":[255]}"#,
            // num_layers contradicts the vl table.
            r#"{"num_terminals":1,"num_layers":7,"next":[[null]],"vl":[0]}"#,
            // Channel id colliding with the NONE sentinel.
            r#"{"num_terminals":1,"next":[[4294967295]],"vl":[0]}"#,
        ] {
            let e = routes_from_json(doc).unwrap_err();
            assert!(
                matches!(e.kind, ParseErrorKind::Structure { .. }),
                "{doc} -> {e}"
            );
        }
    }
}
