//! The command table of the one `repro` binary, driven as a user would.

use std::process::{Command, Output};

/// Every command, under the name its former `src/bin/<name>.rs` had
/// (`RunManifest.binary` and CI spell these).
const NAMES: [&str; 22] = [
    "summary",
    "fig02_ring_deadlock",
    "table1_topologies",
    "fig04_realworld_ebb",
    "fig05_xgft_ebb",
    "fig06_kautz_ebb",
    "fig07_runtime_trees",
    "fig08_runtime_realworld",
    "fig09_random_vls",
    "fig10_realworld_vls",
    "fig12_netgauge_deimos",
    "fig13_alltoall",
    "fig14_16_nas",
    "table2_nas_1024",
    "sec4_exact",
    "sec4_heuristics",
    "sec4_online_offline",
    "route_cli",
    "vet",
    "chaos",
    "fuzz",
    "loadgen",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// The `  <name>  <about>` lines of a command listing.
fn listed(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter_map(|line| line.split_once(' '))
        .map(|(name, about)| (name, about.trim()))
        .collect()
}

#[test]
fn help_lists_every_command_once_with_its_about() {
    let out = repro(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let rows = listed(&text);
    let names: Vec<&str> = rows.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, NAMES, "names are the old bin names, each once");
    for (name, about) in rows {
        assert!(!about.is_empty(), "{name} has no about line");
    }
}

#[test]
fn unknown_command_exits_2_with_the_list() {
    for args in [&["serve_bench"][..], &["--help"], &[]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let text = String::from_utf8(out.stderr).unwrap();
        let names: Vec<&str> = listed(&text).iter().map(|(name, _)| *name).collect();
        assert_eq!(names, NAMES, "{args:?}");
    }
}

/// A command parses what follows its name — its flags reach it, its
/// manifest records the name as `binary`, and a flag it does not know
/// is its own usage error.
#[test]
fn flags_after_the_command_name_reach_the_command() {
    let metrics = concat!(env!("CARGO_TARGET_TMPDIR"), "/fig02.metrics.json");
    let out = repro(&["fig02_ring_deadlock", "--metrics", metrics]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cdg-cyclic=true"), "{text}");
    assert!(text.contains("Completed"), "{text}");
    let manifest = std::fs::read_to_string(metrics).unwrap();
    assert!(
        manifest.contains(r#""binary": "fig02_ring_deadlock""#),
        "{manifest}"
    );

    let out = repro(&["vet", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.starts_with("usage: repro vet "), "{text}");
    assert!(text.contains("--routes"), "{text}");
}

/// `--gen` serves wherever `--topo` does, as the usage line offers: an
/// artifact routed on a generated fabric vets against the same spec.
#[test]
fn route_cli_and_vet_take_a_generated_fabric() {
    let routes = concat!(env!("CARGO_TARGET_TMPDIR"), "/kary-4-2.routes.json");
    for args in [
        ["route_cli", "--gen", "kary:4,2", "--out-routes", routes],
        ["vet", "--gen", "kary:4,2", "--routes", routes],
    ] {
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

/// An out-of-range `--gen` is a one-line diagnostic and exit 1, like a
/// malformed `--topo` file — not a generator's `assert!`.
#[test]
fn out_of_range_gen_spec_is_a_diagnostic() {
    let out = repro(&["chaos", "--gen", "ring:2"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stderr).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("ring:<N> (N >= 3)"), "{text}");
    assert!(!text.contains("panicked"), "{text}");
}

/// No layer budget panics. A budget of 0 is a one-line routing
/// diagnostic; LASH at 257 routes as at 256, the most a `u8` layer id
/// names; and `chaos` widens a zero budget from one instead of spinning.
#[test]
fn out_of_range_layer_budgets_are_diagnostics_not_panics() {
    let out = repro(&["route_cli", "--gen", "torus:4x4", "--max-vls", "0"]);
    let text = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(!text.contains("panicked"), "{text}");
    for args in [
        &[
            "route_cli",
            "--gen",
            "torus:4x4",
            "--engine",
            "lash",
            "--max-vls",
            "257",
        ][..],
        &[
            "chaos",
            "--gen",
            "torus:4x4",
            "--hw-vls",
            "0",
            "--events",
            "2",
        ],
    ] {
        let out = repro(args);
        let text = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {text}");
    }
}

/// §IV's exact column as a predicate over `sec4_exact --json`: on every
/// network the conflict-clique lower bound ≤ the exact APP minimum ≤ each
/// heuristic's layer count, at the path counts and optima pinned here.
#[test]
fn sec4_exact_bounds_every_heuristic() {
    let out = repro(&["sec4_exact", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let start = text.find("\n[\n").expect("a JSON table");
    let end = start + text[start..].find("\n]\n").expect("closed");
    let rows = telemetry::json::parse(&text[start..end + 2]).unwrap();
    let num = |row: &telemetry::json::Value, key| -> u32 {
        let cell = row.get(key).and_then(|v| v.as_str());
        cell.and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{key}"))
    };
    let mut pinned = Vec::new();
    for row in rows.as_arr().unwrap() {
        let (lower, exact) = (num(row, "lower bound"), num(row, "exact"));
        for heuristic in ["weakest", "heaviest", "first"] {
            assert!(lower <= exact && exact <= num(row, heuristic), "{row:?}");
        }
        pinned.push((num(row, "paths"), exact));
    }
    assert_eq!(pinned, [(12, 1), (20, 2), (30, 2), (72, 1), (30, 1)]);
}

/// `--chunk` configures every engine of the lineup: SSSP and DFSSSP
/// route the same paths at every chunk width (DFSSSP only adds layers),
/// so their eBB cells agree at the paper's chunk and the snapshot one.
#[test]
fn chunk_reaches_every_engine_of_the_lineup() {
    for chunk in ["1", "64"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fig05_xgft_ebb", "--json", "--chunk", chunk])
            .env("REPRO_MAX_ENDPOINTS", "64")
            .env("REPRO_PATTERNS", "20")
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(0));
        let text = String::from_utf8(out.stdout).unwrap();
        let start = text.find("\n[\n").expect("a JSON table");
        let rows = telemetry::json::parse(&text[start..]).unwrap();
        let rows = rows.as_arr().unwrap();
        assert!(!rows.is_empty(), "chunk {chunk}: no fabric under the cap");
        for row in rows {
            let cell = |engine| row.get(engine).and_then(|v| v.as_str());
            assert_eq!(cell("SSSP"), cell("DFSSSP"), "chunk {chunk}: {row:?}");
        }
    }
}
