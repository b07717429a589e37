//! Interchange formats for networks and routes.
//!
//! * [`text`] — a minimal human-editable cabling format.
//! * [`ibnetdiscover`] — a parser for the real `ibnetdiscover` dump
//!   format the authors' tools consumed.
//! * [`json`] — JSON round-tripping of [`crate::Network`] and
//!   [`crate::Routes`] for the repro harness.
//!
//! All three parsers treat input as untrusted: every rejection is a
//! typed [`ParseError`] (line/column + [`ParseErrorKind`]) and the
//! `*_with` entry points enforce configurable [`FormatLimits`] so no
//! byte stream can panic or OOM the loader.

pub mod error;
pub mod ibnetdiscover;
pub mod json;
pub mod text;

pub use error::{FormatLimits, ParseError, ParseErrorKind};
pub use ibnetdiscover::{parse_ibnetdiscover, parse_ibnetdiscover_with, write_ibnetdiscover};
pub use json::{
    network_from_json, network_from_json_with, network_to_json, routes_from_json,
    routes_from_json_with, routes_to_json,
};
pub use text::{parse_network, parse_network_with, write_network};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{degrade, topo};

    /// Every writer writes a degraded view as the fabric it serves: a
    /// `kary_ntree(4,2)` with one dead spine and one dead leaf-to-spine
    /// cable parses back strongly connected, with the view's live
    /// switches, terminals and cables.
    #[test]
    fn a_degraded_view_round_trips_as_its_live_fabric() {
        let net = topo::kary_ntree(4, 2);
        let spine = *net
            .switches()
            .iter()
            .find(|&&s| net.node(s).level == Some(1))
            .unwrap();
        let cable = *net
            .switch_cables()
            .iter()
            .find(|&&c| ![net.channel(c).src, net.channel(c).dst].contains(&spine))
            .unwrap();
        let dead_c = [cable, net.channel(cable).rev.unwrap()];
        let view = degrade::remove(
            &net,
            &[spine].into_iter().collect(),
            &dead_c.into_iter().collect(),
        );
        assert!(view.is_strongly_connected());
        let counts = |n: &crate::Network| (n.num_switches(), n.num_terminals(), n.num_cables());
        assert_eq!(counts(&view), (7, 16, 16 + 12 - 1));
        let backs = [
            ("text", parse_network(&write_network(&view)).unwrap()),
            ("json", network_from_json(&network_to_json(&view)).unwrap()),
            (
                "ibnetdiscover",
                parse_ibnetdiscover(&write_ibnetdiscover(&view)).unwrap(),
            ),
        ];
        for (what, back) in backs {
            back.validate().unwrap();
            assert!(back.is_strongly_connected(), "{what}");
            assert_eq!(counts(&back), counts(&view), "{what}");
            assert_eq!(back.num_nodes(), 7 + 16, "{what}: no dead node written");
        }
    }
}
