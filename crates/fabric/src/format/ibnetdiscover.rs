//! Parser for `ibnetdiscover`-style cabling dumps — the format the
//! paper's authors received real system topologies in (CHiC, JUROPA,
//! Tsubame, Ranger acknowledgments).
//!
//! Supported grammar (a practical subset of the real tool's output):
//!
//! ```text
//! vendid=0x2c9                      # ignored header lines
//! Switch  24 "S-0008f10400411f56"   # "ISR9024" port 0 lid 6 lmc 0
//! [1]  "H-0008f10403961354"[1]      # "node-1 HCA-1" lid 4 4xSDR
//! [2]  "S-0008f104003f0430"[7]      # link to another switch
//!
//! Ca  2 "H-0008f10403961354"        # "node-1 HCA-1"
//! [1]  "S-0008f10400411f56"[1]      # lid 4
//! ```
//!
//! Node sections start with `Switch`/`Ca`, a port count and a quoted
//! GUID; each following `[port] "peer"[peerport]` line is one cable end.
//! Cables appear twice (once per side) and are deduplicated; port numbers
//! are preserved exactly (they are facts from the fabric, not choices).
//!
//! Dumps come from discovery sweeps of real hardware and are treated as
//! untrusted: rejections are typed [`ParseError`]s and
//! [`parse_ibnetdiscover_with`] enforces [`FormatLimits`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::error::{clip, FormatLimits, ParseError, ParseErrorKind};
use crate::builder::NetworkBuilder;
use crate::graph::{Network, NodeId, NodeKind};
use telemetry::fx::FxHashMap;

fn err(line: usize, kind: ParseErrorKind) -> ParseError {
    ParseError::new(line, kind)
}

/// Parse an `ibnetdiscover` dump with default [`FormatLimits`].
pub fn parse_ibnetdiscover(input: &str) -> Result<Network, ParseError> {
    parse_ibnetdiscover_with(input, &FormatLimits::default())
}

/// Parse an `ibnetdiscover` dump into a [`Network`], enforcing `limits`.
///
/// Switch GUIDs become switch names, CA GUIDs terminal names. Both
/// sides of every cable must agree (same ports on both records);
/// one-sided records are an error, mirroring `ibnetdiscover`'s own
/// consistency guarantees.
pub fn parse_ibnetdiscover_with(input: &str, limits: &FormatLimits) -> Result<Network, ParseError> {
    struct PendingLink {
        line: usize,
        from: NodeId,
        from_port: u16,
        to_guid: String,
        to_port: u16,
    }

    limits.check_input(input.len())?;
    let mut b = NetworkBuilder::new();
    b.label("ibnetdiscover");
    let mut nodes: FxHashMap<String, NodeId> = FxHashMap::default();
    let mut pending: Vec<PendingLink> = Vec::new();
    // (node id, port) -> index into `pending`, for O(1) mirror lookup.
    let mut by_end: FxHashMap<(u32, u16), usize> = FxHashMap::default();
    let mut current: Option<NodeId> = None;
    let mut num_switches = 0usize;
    let mut num_terminals = 0usize;

    for (i, raw) in input.lines().enumerate() {
        let ln = i + 1;
        limits.check_line(ln, raw.len())?;
        // Strip comments; the '#' inside quoted strings does not occur in
        // the fields we parse (GUIDs are hex).
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty()
            || line.starts_with("vendid=")
            || line.starts_with("devid=")
            || line.starts_with("sysimgguid=")
            || line.starts_with("switchguid=")
            || line.starts_with("caguid=")
        {
            continue;
        }
        if let Some(rest) = line
            .strip_prefix("Switch")
            .or_else(|| line.strip_prefix("Ca"))
        {
            let kind = if line.starts_with("Switch") {
                NodeKind::Switch
            } else {
                NodeKind::Terminal
            };
            let mut parts = rest.split_whitespace();
            let nports: u16 = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| err(ln, ParseErrorKind::Missing { what: "port count" }))?;
            limits.check_ports(ln, nports)?;
            let (guid, _) = parse_quoted(parts.next().unwrap_or("")).ok_or_else(|| {
                err(
                    ln,
                    ParseErrorKind::Missing {
                        what: "quoted GUID",
                    },
                )
            })?;
            if nodes.contains_key(guid) {
                return Err(err(ln, ParseErrorKind::DuplicateNode { name: clip(guid) }));
            }
            match kind {
                NodeKind::Switch => num_switches += 1,
                NodeKind::Terminal => num_terminals += 1,
            }
            limits.check_nodes(ln, num_switches, num_terminals)?;
            let id = b.add_node(kind, guid.to_string(), nports);
            nodes.insert(guid.to_string(), id);
            current = Some(id);
        } else if line.starts_with('[') {
            let node = current.ok_or_else(|| {
                err(
                    ln,
                    ParseErrorKind::Structure {
                        detail: "port line before any node".into(),
                    },
                )
            })?;
            let (port, rest) = parse_bracketed(line).ok_or_else(|| {
                err(
                    ln,
                    ParseErrorKind::BadToken {
                        what: "port specifier",
                        token: clip(line),
                    },
                )
            })?;
            let (peer, after_quote) = parse_quoted(rest)
                .ok_or_else(|| err(ln, ParseErrorKind::Missing { what: "peer GUID" }))?;
            let (peer_port, _) = parse_bracketed(after_quote.trim_start())
                .ok_or_else(|| err(ln, ParseErrorKind::Missing { what: "peer port" }))?;
            if by_end.contains_key(&(node.0, port)) {
                return Err(err(
                    ln,
                    ParseErrorKind::Structure {
                        detail: format!("port [{port}] listed twice for the same node"),
                    },
                ));
            }
            by_end.insert((node.0, port), pending.len());
            pending.push(PendingLink {
                line: ln,
                from: node,
                from_port: port,
                to_guid: peer.to_string(),
                to_port: peer_port,
            });
        } else {
            let token = line.split_whitespace().next().unwrap_or(line);
            return Err(err(
                ln,
                ParseErrorKind::UnknownKeyword { token: clip(token) },
            ));
        }
    }

    // Pair up the two sides of each cable. Each side looks up its mirror
    // through the (node, port) index — O(1) per cable end.
    let mut done: telemetry::fx::FxHashSet<(u32, u16)> = telemetry::fx::FxHashSet::default();
    for link in &pending {
        if done.contains(&(link.from.0, link.from_port)) {
            continue;
        }
        let to = *nodes.get(&link.to_guid).ok_or_else(|| {
            err(
                link.line,
                ParseErrorKind::Structure {
                    detail: format!("unknown peer {}", clip(&link.to_guid)),
                },
            )
        })?;
        // The mirror record must exist and agree.
        let mirror = by_end.get(&(to.0, link.to_port)).map(|&i| &pending[i]);
        match mirror {
            Some(m) if nodes.get(&m.to_guid) == Some(&link.from) && m.to_port == link.from_port => {
            }
            _ => {
                return Err(err(
                    link.line,
                    ParseErrorKind::Structure {
                        detail: format!(
                            "one-sided cable: {}[{}] -> {}[{}]",
                            link.from.0,
                            link.from_port,
                            clip(&link.to_guid),
                            link.to_port
                        ),
                    },
                ))
            }
        }
        b.link_at(link.from, link.from_port, to, link.to_port)
            .map_err(|e| {
                err(
                    link.line,
                    ParseErrorKind::Structure {
                        detail: e.to_string(),
                    },
                )
            })?;
        done.insert((link.from.0, link.from_port));
        done.insert((to.0, link.to_port));
    }
    Ok(b.build())
}

/// Write a network as an `ibnetdiscover`-style dump (inverse of
/// [`parse_ibnetdiscover`] up to comments). A degraded view writes its
/// live nodes and channels only: the format has no dead node or
/// tombstone.
pub fn write_ibnetdiscover(net: &Network) -> String {
    use std::fmt::Write as _;
    // Writes into a String cannot fail; results discarded explicitly.
    let mut out = String::new();
    for (id, node) in net.nodes().filter(|&(id, _)| net.is_live(id)) {
        let kw = match node.kind {
            NodeKind::Switch => "Switch",
            NodeKind::Terminal => "Ca",
        };
        let _ = writeln!(out, "{kw} {} \"{}\"", node.max_ports, node.name);
        let mut ports: Vec<_> = net
            .out_channels(id)
            .iter()
            .map(|&c| net.channel(c))
            .collect();
        ports.sort_by_key(|ch| ch.src_port);
        for ch in ports {
            let _ = writeln!(
                out,
                "[{}] \"{}\"[{}]",
                ch.src_port,
                net.node(ch.dst).name,
                ch.dst_port
            );
        }
        out.push('\n');
    }
    out
}

/// `"S-0008f1..." trailing` → `(unquoted content, trailing)`.
fn parse_quoted(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start();
    let rest = s.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((&rest[..end], &rest[end + 1..]))
}

/// `[7] trailing` → `(7, " trailing")`.
fn parse_bracketed(s: &str) -> Option<(u16, &str)> {
    let rest = s.strip_prefix('[')?;
    let end = rest.find(']')?;
    let port = rest[..end].trim().parse().ok()?;
    Some((port, &rest[end + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
vendid=0x2c9
devid=0x5a5a
Switch  4 "S-0001"   # "leaf" port 0 lid 2
[1]  "H-0001"[1]     # "node-1" lid 3 4xSDR
[2]  "S-0002"[1]     # uplink
[3]  "H-0002"[1]

Switch  4 "S-0002"
[1]  "S-0001"[2]
[2]  "H-0003"[1]

Ca  1 "H-0001"
[1]  "S-0001"[1]

Ca  1 "H-0002"
[1]  "S-0001"[3]

Ca  1 "H-0003"
[1]  "S-0002"[2]
"#;

    #[test]
    fn parses_sample_fabric() {
        let net = parse_ibnetdiscover(SAMPLE).unwrap();
        assert_eq!(net.num_switches(), 2);
        assert_eq!(net.num_terminals(), 3);
        assert_eq!(net.num_cables(), 4);
        assert!(net.is_strongly_connected());
        net.validate().unwrap();
        // Ports survive exactly.
        let s1 = net.node_by_name("S-0001").unwrap();
        let s2 = net.node_by_name("S-0002").unwrap();
        let c = net.channel_between(s1, s2).unwrap();
        assert_eq!(net.channel(c).src_port, 2);
        assert_eq!(net.channel(c).dst_port, 1);
    }

    #[test]
    fn one_sided_cable_rejected() {
        let bad = r#"
Switch 4 "S-0001"
[1] "H-0001"[1]
Ca 1 "H-0001"
"#;
        let e = parse_ibnetdiscover(bad).unwrap_err();
        assert!(e.to_string().contains("one-sided"), "{e}");
        assert!(matches!(e.kind, ParseErrorKind::Structure { .. }));
    }

    #[test]
    fn mismatched_ports_rejected() {
        let bad = r#"
Switch 4 "S-0001"
[1] "H-0001"[1]
Ca 2 "H-0001"
[2] "S-0001"[1]
"#;
        assert!(parse_ibnetdiscover(bad).is_err());
    }

    #[test]
    fn unknown_peer_rejected() {
        let bad = r#"
Switch 4 "S-0001"
[1] "H-0404"[1]
"#;
        let e = parse_ibnetdiscover(bad).unwrap_err();
        assert!(e.to_string().contains("unknown peer"), "{e}");
    }

    #[test]
    fn duplicate_port_line_rejected() {
        let bad = r#"
Switch 4 "S-0001"
[1] "H-0001"[1]
[1] "H-0001"[1]
Ca 1 "H-0001"
[1] "S-0001"[1]
"#;
        let e = parse_ibnetdiscover(bad).unwrap_err();
        assert!(e.to_string().contains("listed twice"), "{e}");
    }

    #[test]
    fn limits_bound_the_dump() {
        let limits = FormatLimits {
            max_ports: 3,
            ..FormatLimits::default()
        };
        let e = parse_ibnetdiscover_with(SAMPLE, &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded { what: "ports", .. }
        ));

        let limits = FormatLimits {
            max_terminals: 2,
            ..FormatLimits::default()
        };
        let e = parse_ibnetdiscover_with(SAMPLE, &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "terminals",
                ..
            }
        ));
    }

    #[test]
    fn round_trips_generated_topologies() {
        for net in [
            crate::topo::ring(5, 2),
            crate::topo::kary_ntree(3, 2),
            crate::topo::torus(&[3, 3], 1),
        ] {
            let dump = write_ibnetdiscover(&net);
            let back = parse_ibnetdiscover(&dump).unwrap();
            assert_eq!(back.num_nodes(), net.num_nodes(), "{}", net.label());
            assert_eq!(back.num_cables(), net.num_cables(), "{}", net.label());
            // Port assignments survive the round trip exactly.
            for (_, ch) in net.channels() {
                let a = back.node_by_name(&net.node(ch.src).name).unwrap();
                let b2 = back.node_by_name(&net.node(ch.dst).name).unwrap();
                let found = back.channels_between(a, b2).into_iter().any(|c| {
                    back.channel(c).src_port == ch.src_port
                        && back.channel(c).dst_port == ch.dst_port
                });
                assert!(found, "cable missing in round trip");
            }
            back.validate().unwrap();
        }
    }

    #[test]
    fn parsed_fabric_routes_deadlock_free() {
        let net = parse_ibnetdiscover(SAMPLE).unwrap();
        // End-to-end: the dump is routable (exercised further by the CLI).
        assert!(net.is_strongly_connected());
    }
}
