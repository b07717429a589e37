//! Repo lint: the workspace depends on nothing outside itself
//! (DESIGN.md §4). Every dependency of every member must be first-party
//! (a `path`), and every `[workspace.dependencies]` entry must be named
//! by some member — a pin nobody uses is how unused crates linger in the
//! lock file.
//!
//! Two structural tripwires ride along: `repro` stays one binary, and
//! route compute stays sequential (DESIGN.md §15).
//!
//! Like `unsafe_lint.rs` the scanner is deliberately dumb: line-based,
//! one inline `name = …` entry per line under a `[…dependencies]` header.
//! If it misfires on exotic manifest syntax (`[dependencies.foo]` tables,
//! multi-line inline tables), reformat the manifest.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest plus `crates/*/Cargo.toml`. The offline stand-ins
/// under `crates/perf/stubs/` sit one level deeper and are not members.
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .flatten()
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    crates.sort();
    out.extend(crates);
    out
}

/// One `name = spec` line under a dependency table.
struct Dep {
    table: String,
    name: String,
    spec: String,
}

fn deps(manifest: &str) -> Vec<Dep> {
    let mut table = String::new();
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_matches(|c| c == '[' || c == ']').to_string();
        } else if table.ends_with("dependencies") {
            if let Some((name, spec)) = line.split_once('=') {
                out.push(Dep {
                    table: table.clone(),
                    name: name.trim().to_string(),
                    spec: spec.trim().to_string(),
                });
            }
        }
    }
    out
}

#[test]
fn dependencies_are_first_party() {
    let root = repo_root();
    let mut violations = Vec::new();
    // `[workspace.dependencies]` name -> whether it is a path entry.
    let mut pinned: BTreeMap<String, bool> = BTreeMap::new();
    let mut named: BTreeSet<String> = BTreeSet::new();
    let mut members = Vec::new();
    for path in manifests(&root) {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let text = fs::read_to_string(&path).expect("manifest is readable");
        for dep in deps(&text) {
            if dep.table == "workspace.dependencies" {
                pinned.insert(dep.name, dep.spec.contains("path"));
            } else {
                members.push((rel.clone(), dep));
            }
        }
    }
    for (rel, dep) in members {
        let first_party = if dep.spec.contains("workspace") {
            named.insert(dep.name.clone());
            match pinned.get(&dep.name) {
                Some(&is_path) => is_path,
                None => {
                    violations.push(format!(
                        "{rel}: `{}` is not pinned by the workspace",
                        dep.name
                    ));
                    continue;
                }
            }
        } else {
            dep.spec.contains("path")
        };
        if !first_party {
            violations.push(format!(
                "{rel}: [{}] names registry crate `{}`; DESIGN.md §4 allows none",
                dep.table, dep.name
            ));
        }
    }
    for name in pinned.keys().filter(|name| !named.contains(*name)) {
        violations.push(format!(
            "Cargo.toml: [workspace.dependencies] pins `{name}` but no member names it"
        ));
    }
    assert!(
        violations.is_empty(),
        "dependency policy violations:\n  {}",
        violations.join("\n  ")
    );
}

/// `repro` is one link step, not one per figure: `src/main.rs` is its
/// only bin target and new commands are rows of its table.
#[test]
fn repro_is_one_binary() {
    let krate = repo_root().join("crates/repro");
    assert!(krate.join("src/main.rs").is_file());
    assert!(
        !krate.join("src/bin").exists(),
        "crates/repro/src/bin/ is back: add a row to COMMANDS in src/main.rs instead"
    );
    let manifest = fs::read_to_string(krate.join("Cargo.toml")).expect("manifest is readable");
    assert!(
        !manifest.lines().any(|l| l.trim() == "[[bin]]"),
        "crates/repro/Cargo.toml declares an extra [[bin]] target"
    );
}

/// Every `.rs` file under `dir`, build output and dot-directories aside.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Route compute is sequential. `ComputeOpts::threads` survives as a
/// no-op only because `crates/perf/src/stack.rs` spells it, so nothing
/// first-party may call it; and `crates/core` may not reach for the pool
/// again, which exists for the sweeps *around* routing.
#[test]
fn compute_fan_out_stays_deleted() {
    let root = repo_root();
    let mut sources = Vec::new();
    rust_sources(&root, &mut sources);
    // Spelled in two halves so this file does not match itself.
    let call = concat!(".thre", "ads(");
    let mut violations = Vec::new();
    for path in sources {
        let rel = path.strip_prefix(&root).unwrap_or(&path);
        let text = fs::read_to_string(&path).expect("source is readable");
        // The no-op's own doc comment and unit test live in engine.rs.
        if text.contains(call)
            && !rel.starts_with("crates/perf")
            && rel != Path::new("crates/core/src/engine.rs")
        {
            violations.push(format!("{}: calls the `threads` no-op", rel.display()));
        }
        if text.contains("map_stealing")
            && rel.starts_with("crates/core/src")
            && !rel.ends_with("pool.rs")
            && !rel.ends_with("models.rs")
        {
            violations.push(format!("{}: core fans work over the pool", rel.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "route compute is sequential by construction:\n  {}",
        violations.join("\n  ")
    );
}
