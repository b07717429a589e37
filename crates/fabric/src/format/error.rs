//! The typed error taxonomy and resource limits shared by every
//! interchange-format parser.
//!
//! Topology files are *untrusted input*: a subnet manager may receive a
//! cabling dump from a flaky discovery sweep, a user-edited text file,
//! or a JSON artifact produced by another tool. Every parser in
//! [`crate::format`] therefore reports failures as a structured
//! [`ParseError`] — location (line, column when known) plus a
//! [`ParseErrorKind`] naming the offending token or violated invariant —
//! and enforces configurable [`FormatLimits`] so no byte stream can make
//! the loader panic or allocate without bound.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// Longest token echoed back in an error message. Hostile inputs can
/// put megabytes on one line; errors must stay one line themselves.
const TOKEN_CLIP: usize = 48;

/// Copy `s` for an error message, truncating very long tokens.
pub(crate) fn clip(s: &str) -> String {
    if s.len() <= TOKEN_CLIP {
        return s.to_string();
    }
    let mut end = TOKEN_CLIP;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// What went wrong, structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A line started with a token no grammar rule accepts.
    UnknownKeyword {
        /// The offending token (clipped).
        token: String,
    },
    /// A required element was absent.
    Missing {
        /// What was expected (e.g. `"node name"`, `"peer port"`).
        what: &'static str,
    },
    /// A token was present but unparseable as what the grammar expects.
    BadToken {
        /// What the token should have been (e.g. `"port count"`).
        what: &'static str,
        /// The offending token (clipped).
        token: String,
    },
    /// A node name/GUID was declared twice.
    DuplicateNode {
        /// The duplicated name (clipped).
        name: String,
    },
    /// A link referenced a node never declared.
    UnknownNode {
        /// The dangling name (clipped).
        name: String,
    },
    /// The input parsed token-wise but violates a structural invariant
    /// (port collision, one-sided cable, inconsistent index maps, …).
    Structure {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A [`FormatLimits`] bound was exceeded.
    LimitExceeded {
        /// Which resource (e.g. `"switches"`, `"line length"`).
        what: &'static str,
        /// The configured bound.
        limit: u64,
        /// What the input asked for.
        found: u64,
    },
    /// The JSON layer itself rejected the input (syntax or schema).
    Json {
        /// The JSON parser's description.
        detail: String,
    },
}

impl std::fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseErrorKind::UnknownKeyword { token } => write!(f, "unknown keyword `{token}`"),
            ParseErrorKind::Missing { what } => write!(f, "missing {what}"),
            ParseErrorKind::BadToken { what, token } => write!(f, "bad {what} `{token}`"),
            ParseErrorKind::DuplicateNode { name } => write!(f, "duplicate node {name}"),
            ParseErrorKind::UnknownNode { name } => write!(f, "unknown node {name}"),
            ParseErrorKind::Structure { detail } => write!(f, "{detail}"),
            ParseErrorKind::LimitExceeded { what, limit, found } => {
                write!(f, "{what} limit exceeded: {found} > {limit}")
            }
            ParseErrorKind::Json { detail } => write!(f, "{detail}"),
        }
    }
}

/// Error raised while parsing any interchange format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number; 0 when the error is about the whole input
    /// (e.g. an input-size limit or a post-parse structural check).
    pub line: usize,
    /// 1-based byte column of the offending token, when known.
    pub column: Option<usize>,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl ParseError {
    /// An error at `line` with no column information.
    pub fn new(line: usize, kind: ParseErrorKind) -> Self {
        ParseError {
            line,
            column: None,
            kind,
        }
    }

    /// An error about the input as a whole (no line).
    pub fn whole_input(kind: ParseErrorKind) -> Self {
        Self::new(0, kind)
    }

    /// Attach a 1-based column.
    pub fn at_column(mut self, column: usize) -> Self {
        self.column = Some(column);
        self
    }

    /// The kind rendered as a message (without the location prefix).
    pub fn msg(&self) -> String {
        self.kind.to_string()
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.line, self.column) {
            (0, _) => write!(f, "{}", self.kind),
            (l, None) => write!(f, "line {l}: {}", self.kind),
            (l, Some(c)) => write!(f, "line {l}, col {c}: {}", self.kind),
        }
    }
}

impl std::error::Error for ParseError {}

/// 1-based byte column of `token` within `line`, when `token` is a
/// subslice of `line` (pointer arithmetic; returns `None` otherwise).
pub(crate) fn column_of(line: &str, token: &str) -> Option<usize> {
    let base = line.as_ptr() as usize;
    let tok = token.as_ptr() as usize;
    (tok >= base && tok + token.len() <= base + line.len()).then(|| tok - base + 1)
}

/// Resource bounds enforced while parsing untrusted topology input.
///
/// The defaults are generous — far above the largest fabric in the
/// paper's evaluation (Ranger: 3,936 nodes) — but finite, so a hostile
/// stream cannot make the loader allocate without bound. Tighten them
/// when loading input from less trusted sources:
///
/// ```
/// use fabric::format::{parse_network_with, FormatLimits};
/// let limits = FormatLimits {
///     max_switches: 64,
///     max_terminals: 256,
///     ..FormatLimits::default()
/// };
/// let err = parse_network_with(&"switch s ports=9999\n".repeat(100), &limits).unwrap_err();
/// assert!(err.to_string().contains("limit exceeded"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatLimits {
    /// Maximum total input size in bytes.
    pub max_input_len: usize,
    /// Maximum length of a single line in bytes.
    pub max_line_len: usize,
    /// Maximum number of switches.
    pub max_switches: usize,
    /// Maximum number of terminals.
    pub max_terminals: usize,
    /// Maximum port count (radix) of a single node.
    pub max_ports: u16,
    /// Maximum dimensions of a `coord=` vector.
    pub max_coord_dims: usize,
}

impl Default for FormatLimits {
    fn default() -> Self {
        FormatLimits {
            max_input_len: 1 << 30,
            max_line_len: 1 << 16,
            max_switches: 1 << 20,
            max_terminals: 1 << 22,
            max_ports: 4096,
            max_coord_dims: 64,
        }
    }
}

impl FormatLimits {
    /// No bounds at all (trusted, in-process input only).
    pub fn unlimited() -> Self {
        FormatLimits {
            max_input_len: usize::MAX,
            max_line_len: usize::MAX,
            max_switches: usize::MAX,
            max_terminals: usize::MAX,
            max_ports: u16::MAX,
            max_coord_dims: usize::MAX,
        }
    }

    /// Reject over-size input before scanning it.
    pub(crate) fn check_input(&self, len: usize) -> Result<(), ParseError> {
        check(0, "input length", len as u64, self.max_input_len as u64)
    }

    /// Reject an over-long line before tokenizing it.
    pub(crate) fn check_line(&self, line_no: usize, len: usize) -> Result<(), ParseError> {
        check(line_no, "line length", len as u64, self.max_line_len as u64)
    }

    /// Reject node populations beyond the configured bounds.
    pub(crate) fn check_nodes(
        &self,
        line_no: usize,
        switches: usize,
        terminals: usize,
    ) -> Result<(), ParseError> {
        check(
            line_no,
            "switches",
            switches as u64,
            self.max_switches as u64,
        )?;
        check(
            line_no,
            "terminals",
            terminals as u64,
            self.max_terminals as u64,
        )
    }

    /// Reject a per-node port count beyond the configured radix bound.
    pub(crate) fn check_ports(&self, line_no: usize, ports: u16) -> Result<(), ParseError> {
        check(line_no, "ports", ports as u64, self.max_ports as u64)
    }

    /// Reject an over-long coordinate vector.
    pub(crate) fn check_coord(&self, line_no: usize, dims: usize) -> Result<(), ParseError> {
        check(
            line_no,
            "coord dimensions",
            dims as u64,
            self.max_coord_dims as u64,
        )
    }
}

fn check(line: usize, what: &'static str, found: u64, limit: u64) -> Result<(), ParseError> {
    if found > limit {
        return Err(ParseError::new(
            line,
            ParseErrorKind::LimitExceeded { what, limit, found },
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = ParseError::new(
            3,
            ParseErrorKind::UnknownKeyword {
                token: "frob".into(),
            },
        );
        assert_eq!(e.to_string(), "line 3: unknown keyword `frob`");
        let e = e.at_column(7);
        assert_eq!(e.to_string(), "line 3, col 7: unknown keyword `frob`");
        let e = ParseError::whole_input(ParseErrorKind::Json {
            detail: "trailing garbage".into(),
        });
        assert_eq!(e.to_string(), "trailing garbage");
    }

    #[test]
    fn tokens_are_clipped() {
        let long = "x".repeat(4096);
        let clipped = clip(&long);
        assert!(clipped.len() < 64);
        assert!(clipped.ends_with('…'));
        // Clipping respects UTF-8 boundaries.
        let multi = "é".repeat(4096);
        let _ = clip(&multi);
    }

    #[test]
    fn column_of_subslice() {
        let line = "switch s0 ports=4";
        let tok = &line[7..9];
        assert_eq!(column_of(line, tok), Some(8));
        assert_eq!(column_of(line, "elsewhere"), None);
    }

    #[test]
    fn limits_trip_typed_errors() {
        let lim = FormatLimits {
            max_switches: 2,
            ..FormatLimits::default()
        };
        let e = lim.check_nodes(5, 3, 0).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(matches!(
            e.kind,
            ParseErrorKind::LimitExceeded {
                what: "switches",
                limit: 2,
                found: 3
            }
        ));
        assert!(lim.check_nodes(5, 2, 0).is_ok());
        assert!(FormatLimits::unlimited().check_input(usize::MAX).is_ok());
    }
}
