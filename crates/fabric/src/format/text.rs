//! A minimal human-editable cabling format.
//!
//! ```text
//! # comment
//! switch s0 ports=36
//! switch s1 ports=36 coord=0,1 level=2
//! terminal t0
//! link s0 t0          # bidirectional cable, ports auto-assigned
//! channel s0 s1       # unidirectional channel
//! ```
//!
//! The parser treats its input as untrusted: every rejection is a typed
//! [`ParseError`] with line (and, where known, column) information, and
//! [`parse_network_with`] enforces [`FormatLimits`] so a hostile stream
//! cannot panic or OOM the loader.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::error::{clip, column_of, FormatLimits, ParseError, ParseErrorKind};
use crate::{Network, NetworkBuilder, NodeId};
use std::fmt::Write as _;
use telemetry::fx::FxHashMap;

fn err(line: usize, kind: ParseErrorKind) -> ParseError {
    ParseError::new(line, kind)
}

/// Parse a network from the text format with default [`FormatLimits`].
pub fn parse_network(input: &str) -> Result<Network, ParseError> {
    parse_network_with(input, &FormatLimits::default())
}

/// Parse a network from the text format, enforcing `limits`.
pub fn parse_network_with(input: &str, limits: &FormatLimits) -> Result<Network, ParseError> {
    limits.check_input(input.len())?;
    let mut b = NetworkBuilder::new();
    let mut names: FxHashMap<String, NodeId> = FxHashMap::default();
    let mut num_switches = 0usize;
    let mut num_terminals = 0usize;
    let lookup = |names: &FxHashMap<String, NodeId>, name: &str, ln: usize, raw: &str| {
        names.get(name).copied().ok_or_else(|| {
            let mut e = err(ln, ParseErrorKind::UnknownNode { name: clip(name) });
            if let Some(c) = column_of(raw, name) {
                e = e.at_column(c);
            }
            e
        })
    };
    for (i, raw) in input.lines().enumerate() {
        let ln = i + 1;
        limits.check_line(ln, raw.len())?;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(kw) = parts.next() else { continue };
        match kw {
            "label" => {
                let rest = line["label".len()..].trim();
                b.label(rest);
            }
            "switch" | "terminal" => {
                let name_tok = parts
                    .next()
                    .ok_or_else(|| err(ln, ParseErrorKind::Missing { what: "node name" }))?;
                if names.contains_key(name_tok) {
                    let mut e = err(
                        ln,
                        ParseErrorKind::DuplicateNode {
                            name: clip(name_tok),
                        },
                    );
                    if let Some(c) = column_of(raw, name_tok) {
                        e = e.at_column(c);
                    }
                    return Err(e);
                }
                let name = name_tok.to_string();
                let mut ports: u16 = if kw == "switch" { 36 } else { 2 };
                let mut coord = None;
                let mut level = None;
                for opt in parts {
                    let col = column_of(raw, opt);
                    let at = |mut e: ParseError| {
                        if let Some(c) = col {
                            e = e.at_column(c);
                        }
                        e
                    };
                    let (key, val) = opt.split_once('=').ok_or_else(|| {
                        at(err(
                            ln,
                            ParseErrorKind::BadToken {
                                what: "option",
                                token: clip(opt),
                            },
                        ))
                    })?;
                    match key {
                        "ports" => {
                            ports = val.parse().map_err(|_| {
                                at(err(
                                    ln,
                                    ParseErrorKind::BadToken {
                                        what: "port count",
                                        token: clip(val),
                                    },
                                ))
                            })?;
                            limits.check_ports(ln, ports)?;
                        }
                        "coord" => {
                            limits.check_coord(ln, val.split(',').count())?;
                            let c: Result<Vec<u16>, _> =
                                val.split(',').map(|x| x.parse()).collect();
                            coord = Some(c.map_err(|_| {
                                at(err(
                                    ln,
                                    ParseErrorKind::BadToken {
                                        what: "coord",
                                        token: clip(val),
                                    },
                                ))
                            })?);
                        }
                        "level" => {
                            level = Some(val.parse().map_err(|_| {
                                at(err(
                                    ln,
                                    ParseErrorKind::BadToken {
                                        what: "level",
                                        token: clip(val),
                                    },
                                ))
                            })?);
                        }
                        _ => {
                            return Err(at(err(
                                ln,
                                ParseErrorKind::BadToken {
                                    what: "option key",
                                    token: clip(key),
                                },
                            )))
                        }
                    }
                }
                if kw == "switch" {
                    num_switches += 1;
                } else {
                    num_terminals += 1;
                }
                limits.check_nodes(ln, num_switches, num_terminals)?;
                let id = if kw == "switch" {
                    b.add_switch(name.clone(), ports)
                } else {
                    b.add_node(crate::NodeKind::Terminal, name.clone(), ports)
                };
                if let Some(c) = coord {
                    b.set_coord(id, c);
                }
                if let Some(l) = level {
                    b.set_level(id, l);
                }
                names.insert(name, id);
            }
            "link" | "channel" => {
                let a = parts
                    .next()
                    .ok_or_else(|| err(ln, ParseErrorKind::Missing { what: "endpoint" }))?;
                let c = parts
                    .next()
                    .ok_or_else(|| err(ln, ParseErrorKind::Missing { what: "endpoint" }))?;
                let a = lookup(&names, a, ln, raw)?;
                let c = lookup(&names, c, ln, raw)?;
                let res = if kw == "link" {
                    b.link(a, c).map(|_| ())
                } else {
                    b.add_channel(a, c).map(|_| ())
                };
                res.map_err(|e| {
                    err(
                        ln,
                        ParseErrorKind::Structure {
                            detail: e.to_string(),
                        },
                    )
                })?;
            }
            _ => {
                let mut e = err(ln, ParseErrorKind::UnknownKeyword { token: clip(kw) });
                if let Some(c) = column_of(raw, kw) {
                    e = e.at_column(c);
                }
                return Err(e);
            }
        }
    }
    Ok(b.build())
}

/// Write a network in the text format (inverse of [`parse_network`] up to
/// port renumbering). A degraded view writes its live nodes and channels
/// only: the format has no dead node or tombstone.
pub fn write_network(net: &Network) -> String {
    // Writes into a String cannot fail; the results are discarded
    // explicitly so this path stays free of unwrap.
    let mut out = String::new();
    if !net.label().is_empty() {
        let _ = writeln!(out, "label {}", net.label());
    }
    for (_, node) in net.nodes().filter(|&(id, _)| net.is_live(id)) {
        let kw = match node.kind {
            crate::NodeKind::Switch => "switch",
            crate::NodeKind::Terminal => "terminal",
        };
        let _ = write!(out, "{kw} {} ports={}", node.name, node.max_ports);
        if let Some(c) = &node.coord {
            let _ = write!(
                out,
                " coord={}",
                c.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        if let Some(l) = node.level {
            let _ = write!(out, " level={l}");
        }
        out.push('\n');
    }
    let mut written = vec![false; net.num_channels()];
    for (id, ch) in net.channels() {
        if written[id.idx()] {
            continue;
        }
        written[id.idx()] = true;
        let a = &net.node(ch.src).name;
        let c = &net.node(ch.dst).name;
        match ch.rev {
            Some(r) => {
                written[r.idx()] = true;
                let _ = writeln!(out, "link {a} {c}");
            }
            None => {
                let _ = writeln!(out, "channel {a} {c}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo;

    #[test]
    fn parse_simple_network() {
        let net = parse_network(
            "# tiny\nlabel tiny\nswitch s0 ports=4\nswitch s1 ports=4 coord=1,2 level=3\n\
             terminal t0\nlink s0 s1\nlink t0 s0\nchannel s0 s1\n",
        )
        .unwrap();
        assert_eq!(net.label(), "tiny");
        assert_eq!(net.num_switches(), 2);
        assert_eq!(net.num_terminals(), 1);
        assert_eq!(net.num_channels(), 5);
        let s1 = net.node_by_name("s1").unwrap();
        assert_eq!(net.node(s1).coord.as_deref(), Some(&[1, 2][..]));
        assert_eq!(net.node(s1).level, Some(3));
        net.validate().unwrap();
    }

    #[test]
    fn round_trip_generated_topology() {
        let net = topo::kary_ntree(2, 2);
        let text = write_network(&net);
        let back = parse_network(&text).unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes());
        assert_eq!(back.num_channels(), net.num_channels());
        assert_eq!(back.num_cables(), net.num_cables());
        back.validate().unwrap();
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_network("switch s0\nlink s0 nope\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ParseErrorKind::UnknownNode { .. }));
        assert!(e.to_string().contains("unknown node"));

        let e = parse_network("frobnicate x\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(matches!(e.kind, ParseErrorKind::UnknownKeyword { .. }));

        let e = parse_network("switch s0\nswitch s0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn errors_carry_columns() {
        let e = parse_network("switch s0 ports=zap\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.column, Some(11), "column of the offending option");
        assert!(e.to_string().contains("bad port count `zap`"));

        let e = parse_network("switch s0\nlink s0 nope\n").unwrap_err();
        assert_eq!(e.column, Some(9), "column of the dangling name");
    }

    #[test]
    fn radix_violation_reported_at_line() {
        let e = parse_network("switch s0 ports=1\nterminal a\nterminal b\nlink a s0\nlink b s0\n")
            .unwrap_err();
        assert_eq!(e.line, 5);
        assert!(matches!(e.kind, ParseErrorKind::Structure { .. }));
        assert!(e.to_string().contains("no free port"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let net = parse_network("\n# a comment\nswitch s0   # trailing\n\n").unwrap();
        assert_eq!(net.num_switches(), 1);
    }

    #[test]
    fn limits_bound_nodes_ports_and_lines() {
        let limits = FormatLimits {
            max_switches: 2,
            ..FormatLimits::default()
        };
        let input = "switch a\nswitch b\nswitch c\n";
        let e = parse_network_with(input, &limits).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "switches",
                ..
            }
        ));

        let limits = FormatLimits {
            max_ports: 8,
            ..FormatLimits::default()
        };
        let e = parse_network_with("switch s ports=9\n", &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded { what: "ports", .. }
        ));

        let limits = FormatLimits {
            max_line_len: 16,
            ..FormatLimits::default()
        };
        let e = parse_network_with("switch very_long_switch_name\n", &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "line length",
                ..
            }
        ));

        let limits = FormatLimits {
            max_coord_dims: 2,
            ..FormatLimits::default()
        };
        let e = parse_network_with("switch s coord=1,2,3\n", &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "coord dimensions",
                ..
            }
        ));
    }

    #[test]
    fn huge_tokens_are_clipped_in_messages() {
        let input = format!("switch s ports={}\n", "9".repeat(10_000));
        let e = parse_network(&input).unwrap_err();
        assert!(e.to_string().len() < 120, "error stays one short line");
    }
}
