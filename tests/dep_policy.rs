//! Repo lint: the workspace depends on nothing outside itself
//! (DESIGN.md §4). Every dependency of every member must be first-party
//! (a `path`), and every `[workspace.dependencies]` entry must be named
//! by some member — a pin nobody uses is how unused crates linger in the
//! lock file.
//!
//! Two structural tripwires ride along: `repro` stays one binary, and
//! route compute stays sequential (DESIGN.md §15).
//!
//! Three source scans follow them: a `pub mod` stays only while something
//! outside it names one of its items (DESIGN.md §6), JSON keys are spelled
//! only where `telemetry::json::Writer` is fed (§4), and the per-crate
//! code-line ledger every EXPERIMENTS.md entry quotes is computed here,
//! with a ceiling on the workspace total.
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
/// again — no `pool::` path outside `pool.rs`, neither `map` nor `join` —
/// which exists for the sweeps *around* routing and the event path's two
/// overlapped links.
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
        if text.contains("pool::")
            && rel.starts_with("crates/core/src")
            && !rel.ends_with("pool.rs")
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

/// An engine is configured once and routes with `route(net)`: the
/// per-call context, the shim that still takes it and the `_in` twins
/// are spelled only by `crates/perf` and by `crates/core/src/engine.rs`,
/// which keeps the shim for it.
#[test]
fn route_in_is_perfs_alone() {
    let root = repo_root();
    let mut sources = Vec::new();
    rust_sources(&root, &mut sources);
    // Spelled in halves so this file does not match itself.
    let names = [
        concat!("route", "_in("),
        concat!("Compute", "Ctx"),
        concat!("route_with_stats", "_in("),
        concat!("route_with_counts", "_in("),
        concat!("route_with_loads", "_in("),
    ];
    let mut violations = Vec::new();
    for path in sources {
        let rel = path.strip_prefix(&root).unwrap_or(&path);
        if rel.starts_with("crates/perf") || rel == Path::new("crates/core/src/engine.rs") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source is readable");
        for name in names.iter().filter(|name| text.contains(*name)) {
            violations.push(format!("{}: spells `{name}`", rel.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "engines route with `route(net)` under the config they hold:\n  {}",
        violations.join("\n  ")
    );
}

/// `path` relative to the repository root, `/`-separated.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// `text` without its `#[cfg(test)]` / `#[cfg(all(test, …))]` modules
/// and without the lines carrying a bare `#[cfg(test)]` attribute —
/// what PR 13's line rule and the key scan both call "not test code".
/// Brace counting is textual; a `{` inside a string literal of a test
/// module is counted like any other.
fn without_test_modules(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        i += 1;
        let bare = line.starts_with("#[cfg(test)]");
        if bare || line.starts_with("#[cfg(all(test") {
            if gated_item(&lines[i..]).starts_with("mod ") {
                // Skip to the module's closing brace (or its `;`).
                let (mut depth, mut opened) = (0i64, false);
                while i < lines.len() {
                    let l = lines[i];
                    i += 1;
                    depth += l.matches('{').count() as i64 - l.matches('}').count() as i64;
                    opened |= l.contains('{');
                    if (opened && depth <= 0) || (!opened && l.trim().ends_with(';')) {
                        break;
                    }
                }
                continue;
            }
            if bare {
                continue;
            }
        }
        out.push(lines[i - 1]);
    }
    out
}

/// The item a test-gating attribute applies to, from the lines after it:
/// the first that is not blank, a comment or a further attribute, without
/// its `pub` / `pub(crate)`.
fn gated_item<'a>(after: &[&'a str]) -> &'a str {
    let item = after
        .iter()
        .map(|l| l.trim())
        .find(|l| !(l.is_empty() || l.starts_with("//") || l.starts_with("#[")))
        .unwrap_or_default();
    let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
    item.strip_prefix("pub ").unwrap_or(item)
}

/// Where the files of the modules that `sources` declare behind a
/// `#[cfg(test)]` / `#[cfg(all(test, …))]` `mod name;` live: `name.rs`
/// and the directory `name/`, beside a `lib.rs`, `main.rs` or `mod.rs`
/// and in the declaring file's own directory otherwise. Every file at or
/// under one of them is test code, whatever its own attributes say.
fn test_gated_files(sources: &[PathBuf]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for path in sources {
        let text = fs::read_to_string(path).expect("source is readable");
        let lines: Vec<&str> = text.lines().collect();
        let dir = match path.file_stem().and_then(|s| s.to_str()) {
            Some("lib" | "main" | "mod") => path.parent().expect("a file sits in a dir").into(),
            _ => path.with_extension(""),
        };
        for (i, line) in lines.iter().map(|l| l.trim()).enumerate() {
            if !(line.starts_with("#[cfg(test)]") || line.starts_with("#[cfg(all(test")) {
                continue;
            }
            let item = gated_item(&lines[i + 1..]);
            if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
                out.push(dir.join(format!("{name}.rs")));
                out.push(dir.join(name));
            }
        }
    }
    out
}

/// The first-party crates as `(name, src dir)`, the umbrella package
/// last as `root`.
fn crate_sources(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out: Vec<(String, PathBuf)> = manifests(root)
        .iter()
        .skip(1)
        .map(|m| m.parent().expect("manifest sits in its crate"))
        .map(|dir| (rel(&root.join("crates"), dir), dir.join("src")))
        .collect();
    out.push(("root".into(), root.join("src")));
    out
}

/// The workspace's code-line ledger (PR 13's rule, the one every
/// EXPERIMENTS.md table since PR 16 uses): per crate, the lines under
/// `src/` that are not blank, not `//` comments and not test code as
/// [`without_test_modules`] and [`test_gated_files`] define it. Run with
/// `--nocapture` for the table, which lists the test-gated files it
/// skipped. The total only goes down: a PR that lowers it lowers
/// `CEILING` to its own result, one that must raise it says why here.
///
/// PR 25 raised it 20 146 → 20 186: `core::pool::join`, and an event
/// path whose existence check and planner run beside the links that do
/// not read them (`SmLoop::handle_batch_with`, the ladder as its own
/// method, `SnapshotStore::publish_vetted`), less the store's folded
/// install tail and the loop's one rollback.
///
/// The destination-major `Routes` (column accessors, the artifact's row
/// order transposed on the way in) and `vet::check_with_verdict` held it
/// at 20 186: the planner's slice-based column helpers and one stage
/// constructor in `subnet::transition` paid for them.
///
/// Taking the planner off the event's critical path raised it 20 186 →
/// 20 259: `fabric::HopTable`, the walk's
/// unbroken share and `vet::walk_scoped` behind the composed
/// broken-columns stage, the ladder's fields as a struct of their own so
/// the old end runs beside it, and bring-up through the gated path
/// (`SmLoop::bring_up_with`, `SnapshotStore::open_vetted`), less the
/// planner's snapshot/rollback helpers and the no-gate branch.
///
/// Deleting `PathSet` lowered it 20 259 → 20 211: the online assignment,
/// LASH and the APP bridge walk their paths on demand.
///
/// Making `DeltaEngine` a cache over `DfSssp` lowered it 20 211 →
/// 20 097: its transition certificate and the extension point that made
/// it generic over engines went.
///
/// Counting the files a test-gated `mod` declares as test code moved it
/// 20 097 → 19 299 without deleting a line: the 798 lines of the loom
/// models (`serve`, `core`) and the planner's reference oracle
/// (`subnet::transition::reference`) had been read as production code.
///
/// One engine configuration lowered it 19 299 → 19 203: engines route
/// with `route(net)` under the `EngineConfig` they hold, so the per-call
/// context, the `_in` twins, the mirrored config fields and the second
/// layer cap (`Budget::max_layers`) went.
///
/// The column kernels raised it 19 203 → 19 211. `vet`'s walk paid for
/// its classification pass and 8 lines more (the per-layer re-walk and
/// the per-source unwinding went; the walk it replaced is test code now,
/// as the oracle), and `fabric` for `HopTable::row_into` (`row` went).
/// `FabricTables::validate`'s port tables, built once per call so no
/// hop scans a node's channels, cost the 16 left.
///
/// The exact dirty set raised it 19 211 → 19 215: three lines in `core`
/// for `dijkstra::bfs_prefers`, the tie rule stated beside `bfs_to`, and
/// one in `delta`, which judges a restored channel's tie against the
/// tree's cached parent (a shorter channel index and a redundant roster
/// comparison paid for the rest of that check).
///
/// Walking only what changed raised it 19 215 → 19 651, almost all in
/// `vet` (+395). A walk now keeps what a later walk needs to carry a
/// column over: per-edge counts, each column's tally and the cycle
/// verdict. `vet::rewalk_tables` compares two artifacts under a view
/// map, moves the counts across, walks the changed columns out and in,
/// and counts a base on first use. The cycle search runs from gained
/// heads. `fabric::degrade::ViewMap` (+37) is the node and channel
/// matching `remap_routes` did inline, now shared. `subnet` (−2) and
/// `serve` (+6) keep their walks: the deleted `transition::Walked` paid
/// for the loop's kept walk and the old end's base. ROADMAP item 2's
/// deletions are where this is paid back.
///
/// Cutting the subnet manager's armour to what runs lowered it 19 651 →
/// 19 542. `subnet` (−105): the breaker is a plain `&mut self` state
/// machine (the packed atomic word, its CAS loops and the `weave` shim
/// went), the retry policy is a count (its backoff was computed and
/// thrown away), and the deploy guard has no off switch. `vet` (−4):
/// `analyze` was `check` under a second name, and the imbalance factor
/// nobody set is a constant.
///
/// V007 at sweep cost raised it 19 542 → 19 657, all in `vet` (+115).
/// The existence procedure now certifies a head two hops out in the
/// same pass as one hop out, builds no forced-edge set past the walk
/// budget, decides the one-way test off the cabling islands there
/// (their strong connectivity, each terminal's two directions) and
/// counts and covers pairs per island, and checks the up*/down* order
/// turn by turn; the cycle search that check replaced moved into the
/// test-gated reference module. ROADMAP item 2's deletions are where
/// this is paid back.
///
/// Deleting what nothing in production raced or read lowered it 19 657 →
/// 19 516. `core` (−32): the sweep pool's workers claim indices off one
/// atomic cursor, so the per-worker stealing deques and the `weave` shim
/// re-export went with their models. `telemetry` (−128): the run
/// manifest is written and never read, so its reader and the
/// histogram's went, and `Collector::reset` had no caller. `repro`
/// (+19): `summary` computes the four comparisons it prints instead of
/// claiming them.
///
/// Moving a cycle break's victims a subtree at a time raised it 19 516 →
/// 19 666, all in `core` (+150). `TreePaths::move_victims` (the
/// descent, the leaves-first pass, the ordered numbering of new
/// dependencies), its scratch and the per-path `Placement`, and the bulk
/// `Cdg` operations it stands on replace the victim list and the
/// per-path move loop, which moved into the test-gated
/// `paths/reference.rs` as its oracle. The gain is Algorithm 2's share of
/// every cold route and every patch of a cyclic fabric (EXPERIMENTS.md,
/// "Victims in bulk"); ROADMAP item 2's deletions are where this is
/// paid back.
///
/// Putting the serving epoch behind a mutex lowered it 19 666 → 19 381.
/// `serve` (−95): `SnapshotStore` holds a `Mutex<Arc<Snapshot>>`, so the
/// lock-free slot ring (`swap.rs`), the store's trailing epoch atomic and
/// the coalescing cell's atomic waiter count went. `weave` (−190): the
/// raw-pointer `Arc` API only the ring used, the keep-alive clone that
/// made catching a revived pointer memory-safe, `AtomicPtr` and the
/// modeled `spin_loop` went with it.
#[test]
fn code_lines_ratchet() {
    const CEILING: usize = 19_381;
    let root = repo_root();
    let code_lines = |path: &PathBuf| {
        let text = fs::read_to_string(path).expect("source is readable");
        without_test_modules(&text)
            .iter()
            .map(|l| l.trim())
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    };
    let mut total = 0;
    println!("| crate | code lines | test-gated files (lines) |\n|---|---|---|");
    for (name, src) in crate_sources(&root) {
        let mut sources = Vec::new();
        rust_sources(&src, &mut sources);
        let gated = test_gated_files(&sources);
        let (skipped, counted): (Vec<_>, Vec<_>) = sources
            .iter()
            .partition(|path| gated.iter().any(|g| path.starts_with(g)));
        let lines: usize = counted.into_iter().map(code_lines).sum();
        let skipped: Vec<String> = skipped
            .into_iter()
            .map(|path| format!("{} ({})", rel(&src, path), code_lines(path)))
            .collect();
        println!("| {name} | {lines} | {} |", skipped.join(", "));
        total += lines;
    }
    println!("| **total** | **{total}** | |");
    assert!(
        total <= CEILING,
        "the workspace grew to {total} code lines (ceiling {CEILING}): delete something, \
         or raise the ceiling in this file with the reason"
    );
}

/// Whether `text` names `word` as a whole identifier.
fn names(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + word.len()..].starts_with(ident))
}

/// An extension stays while something calls it (DESIGN.md §6): every
/// ungated `pub mod x;` of a first-party `lib.rs` (outside the frozen
/// `crates/perf`) must have a top-level `pub` item that some other
/// source file names — one of the same crate, or one that also names the
/// crate. The module's own files and the `lib.rs` that re-exports it do
/// not count. Dumb on purpose: a module used only through a glob import
/// or a method goes in `USED_OTHERWISE` with the reason.
#[test]
fn no_orphan_modules() {
    const USED_OTHERWISE: &[(&str, &str)] = &[(
        "weave::shim",
        "re-exports only; serve imports it as its `sync`",
    )];
    let root = repo_root();
    let mut all = Vec::new();
    rust_sources(&root, &mut all);
    let all: Vec<(String, String)> = all
        .iter()
        .map(|p| (rel(&root, p), fs::read_to_string(p).expect("readable")))
        .collect();
    let mut orphans = Vec::new();
    for (krate, src) in crate_sources(&root) {
        if krate == "perf" || krate == "root" {
            continue;
        }
        let lib = rel(&root, &src.join("lib.rs"));
        let lib_text = &all.iter().find(|(p, _)| *p == lib).expect("lib.rs").1;
        let crate_dir = format!("crates/{krate}/");
        // What other crates call this one (`dfsssp-core` is `dfsssp_core`,
        // and `core` through the umbrella's re-export).
        let manifest = fs::read_to_string(root.join(&crate_dir).join("Cargo.toml")).expect("toml");
        let idents: Vec<String> = manifest
            .lines()
            .filter_map(|l| l.strip_prefix("name = "))
            .map(|name| name.trim_matches('"').replace('-', "_"))
            .chain([krate.clone()])
            .collect();
        let lines: Vec<&str> = lib_text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(module) = line
                .strip_prefix("pub mod ")
                .and_then(|m| m.strip_suffix(';'))
            else {
                continue;
            };
            let id = format!("{krate}::{module}");
            if (i > 0 && lines[i - 1].starts_with("#[cfg"))
                || USED_OTHERWISE.iter().any(|(m, _)| *m == id)
            {
                continue;
            }
            let own = |p: &str| {
                p == format!("{crate_dir}src/{module}.rs")
                    || p.starts_with(&format!("{crate_dir}src/{module}/"))
            };
            let items: Vec<&str> = all
                .iter()
                .filter(|(p, _)| own(p))
                .flat_map(|(_, text)| text.lines())
                .filter_map(|l| l.strip_prefix("pub "))
                .filter_map(|l| {
                    [
                        "fn ", "struct ", "enum ", "trait ", "const ", "static ", "type ",
                    ]
                    .iter()
                    .find_map(|kw| l.strip_prefix(kw))
                })
                .map(|l| {
                    l.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .next()
                        .unwrap_or("")
                })
                .filter(|name| !name.is_empty())
                .collect();
            let called = all.iter().any(|(p, text)| {
                !own(p)
                    && *p != lib
                    && (p.starts_with(&crate_dir) || idents.iter().any(|c| names(text, c)))
                    && items.iter().any(|item| names(text, item))
            });
            if !called {
                orphans.push(format!("{id} ({} pub items)", items.len()));
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "pub modules nothing outside themselves names — delete them or give them a caller:\n  {}",
        orphans.join("\n  ")
    );
}

/// Reports are written by `telemetry::json::Writer`: outside test code,
/// no first-party source spells a JSON key inside a string literal (the
/// three-byte sequence backslash, quote, colon). The exceptions are the
/// writer's own module and the three writers DESIGN.md §4 keeps, each
/// for its stated reason.
#[test]
fn json_keys_go_through_the_writer() {
    const MAY_SPELL_KEYS: &[&str] = &[
        "crates/telemetry/src/json.rs",
        // Bulk arrays whose bytes `tests/route_golden.rs` fingerprints.
        "crates/fabric/src/format/json.rs",
        // ROADMAP 1(c) deletes the module whole.
        "crates/repro/src/loadgen.rs",
        // A mutation dictionary of input fragments, not a writer.
        "crates/repro/src/fuzz.rs",
    ];
    let root = repo_root();
    let key = concat!("\\", "\":");
    let mut violations = Vec::new();
    for (krate, src) in crate_sources(&root) {
        if krate == "perf" {
            continue; // frozen; its report.rs writes `json::Value`s
        }
        let mut sources = Vec::new();
        rust_sources(&src, &mut sources);
        for path in sources {
            let path_rel = rel(&root, &path);
            if MAY_SPELL_KEYS.contains(&path_rel.as_str()) {
                continue;
            }
            let text = fs::read_to_string(&path).expect("source is readable");
            let hits = without_test_modules(&text)
                .iter()
                .filter(|l| l.contains(key))
                .count();
            if hits > 0 {
                violations.push(format!("{path_rel}: {hits} line(s)"));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "hand-rolled JSON keys (use telemetry::json::Writer):\n  {}",
        violations.join("\n  ")
    );
}
