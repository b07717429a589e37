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
