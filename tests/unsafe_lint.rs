//! Repo lint: every `unsafe` keyword in the tree must live in an allowlisted
//! file and be justified by a nearby `SAFETY` comment (or a `# Safety` doc
//! section for `unsafe fn` declarations, whose obligation sits on callers).
//!
//! This is the textual backstop behind the workspace-wide
//! `#![deny(unsafe_op_in_unsafe_fn)]`: the compiler proves each unsafe
//! *operation* is acknowledged, this test proves each acknowledgement is
//! *argued* — and that unsafe code cannot quietly spread to new files.
//! Growing the allowlist is a deliberate, reviewed act: add the file here
//! with a one-line reason.
//!
//! The scanner is deliberately dumb — line-based, strips `//` comments and
//! string literals before looking for the `unsafe` token — because the repo
//! style keeps one unsafe site per line. If it misfires on exotic
//! formatting, reformat the site rather than teaching the scanner tricks.

use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to contain `unsafe`, with why. Everything else must be
/// 100% safe Rust.
const ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/perf/src/affinity.rs",
        "sched_getaffinity/sched_setaffinity FFI pinning the benchmark's query threads",
    ),
    (
        "crates/weave/src/sync.rs",
        "modeled Mutex: an UnsafeCell guarded by the scheduler or a real lock",
    ),
];

/// How far above an `unsafe` site a `SAFETY` comment may sit.
const SAFETY_WINDOW: usize = 6;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == ".stubs" {
                continue;
            }
            rust_sources(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Strip string literals and `//` comments so `"unsafe states"` in a format
/// string or prose in a doc comment does not count as code.
fn code_only(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        if in_char {
            match c {
                '\\' => {
                    chars.next();
                }
                '\'' => in_char = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            // Only treat a quote as a char literal when it closes within a
            // couple of characters; lifetimes (`'a`) never do.
            '\'' => {
                let mut look = chars.clone();
                let mut n = 0;
                let mut closes = false;
                while let Some(lc) = look.next() {
                    n += 1;
                    if lc == '\\' {
                        look.next();
                        n += 1;
                        continue;
                    }
                    if lc == '\'' {
                        closes = true;
                        break;
                    }
                    if n > 3 {
                        break;
                    }
                }
                if closes {
                    in_char = true;
                }
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn has_unsafe_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(i) = code[from..].find("unsafe") {
        let start = from + i;
        let end = start + "unsafe".len();
        let pre_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let post_ok =
            end == bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if pre_ok && post_ok {
            // `unsafe fn(` / `unsafe extern` in *type* position is a
            // signature fact, not an operation; nothing to justify.
            let rest = code[end..].trim_start();
            let is_fn_ptr_type = rest.starts_with("fn(") || rest.starts_with("extern");
            if !is_fn_ptr_type {
                return true;
            }
        }
        from = end;
    }
    false
}

fn justified(lines: &[&str], idx: usize) -> bool {
    // Same line (e.g. `unsafe { ... } // SAFETY: ...` keeps the comment).
    if lines[idx].contains("SAFETY") {
        return true;
    }
    // `unsafe fn` declarations may discharge via a `# Safety` doc section.
    let decl = code_only(lines[idx]);
    let is_decl = decl.contains("unsafe fn") && !decl.trim_start().starts_with("let");
    let lo = idx.saturating_sub(if is_decl { 16 } else { SAFETY_WINDOW });
    lines[lo..idx]
        .iter()
        .any(|l| l.contains("SAFETY") || (is_decl && l.contains("# Safety")))
}

#[test]
fn unsafe_is_allowlisted_and_justified() {
    let root = repo_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("src"), &mut sources);
    rust_sources(&root.join("tests"), &mut sources);
    rust_sources(&root.join("examples"), &mut sources);
    sources.sort();

    let this = root.join("tests/unsafe_lint.rs");
    let mut violations = Vec::new();
    for path in sources {
        if path == this {
            continue;
        }
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let lines: Vec<&str> = text.lines().collect();
        let allowed = ALLOWLIST.iter().any(|(f, _)| *f == rel);
        let mut any_unsafe = false;
        for (i, raw) in lines.iter().enumerate() {
            let code = code_only(raw);
            if !has_unsafe_token(&code) {
                continue;
            }
            any_unsafe = true;
            if !allowed {
                violations.push(format!(
                    "{rel}:{}: `unsafe` outside the allowlist — add the file to \
                     tests/unsafe_lint.rs with a reason, or write it safely",
                    i + 1
                ));
                break;
            }
            if !justified(&lines, i) {
                violations.push(format!(
                    "{rel}:{}: `unsafe` without a `SAFETY:` comment within {} \
                     lines (or `# Safety` docs for an unsafe fn)",
                    i + 1,
                    SAFETY_WINDOW
                ));
            }
        }
        // Keep the allowlist honest: entries must still contain unsafe.
        if allowed && !any_unsafe {
            violations.push(format!(
                "{rel}: allowlisted but contains no `unsafe` — remove it from \
                 tests/unsafe_lint.rs"
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "unsafe hygiene violations:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn scanner_ignores_strings_and_comments() {
    assert!(!has_unsafe_token(&code_only(
        r#"println!("unsafe states: {}", n);"#
    )));
    assert!(!has_unsafe_token(&code_only("// unsafe in prose")));
    assert!(!has_unsafe_token(&code_only("/// docs about unsafe code")));
    assert!(!has_unsafe_token(&code_only(
        "dropper: unsafe fn(*const ())"
    )));
    assert!(has_unsafe_token(&code_only("let x = unsafe { *p };")));
    assert!(has_unsafe_token(&code_only(
        "unsafe impl<T> Send for Swap<T> {}"
    )));
    assert!(has_unsafe_token(&code_only("pub unsafe fn from_raw() {}")));
    assert!(!has_unsafe_token(&code_only("let unsafely = 3;")));
    assert!(!has_unsafe_token(&code_only(
        r#"let c = '"'; unsafe_marker"#
    )));
}
