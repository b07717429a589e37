//! The parser robustness contract: every input either parses or fails
//! with a typed [`ParseError`] — no panics, no overflows, no hangs.
//!
//! Deterministic exhaustive single-byte mutations run on every corpus
//! seed; a seeded sweep adds random byte damage at random positions;
//! and the committed regression corpus — inputs that once crashed (or
//! would have crashed) a parser — is replayed unmutated on every test
//! run.

mod common;

use fabric::format::{self, ParseError};
use repro::fuzz::{self, FuzzConfig, Kind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

fn quiet_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

/// Parse `input` with the parser for `kind`; `Err(())` = panic.
fn parse_no_panic(kind: Kind, input: &str) -> Result<Result<(), ParseError>, ()> {
    catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Text => format::parse_network(input).map(|_| ()),
        Kind::Ibnetdiscover => format::parse_ibnetdiscover(input).map(|_| ()),
        Kind::NetworkJson => format::network_from_json(input).map(|_| ()),
        Kind::RoutesJson => format::routes_from_json(input).map(|_| ()),
    }))
    .map_err(|_| ())
}

#[test]
fn corpus_seeds_parse_clean() {
    let seeds = fuzz::load_corpus(Path::new("tests/corpus")).unwrap();
    assert!(seeds.len() >= 5, "corpus shrank to {}", seeds.len());
    for seed in &seeds {
        let input = String::from_utf8(seed.data.clone()).unwrap();
        let result = parse_no_panic(seed.kind, &input).unwrap();
        assert!(
            result.is_ok(),
            "{} must parse: {:?}",
            seed.path.display(),
            result
        );
    }
}

#[test]
fn every_single_byte_mutation_parses_or_rejects_typed() {
    quiet_panics();
    let seeds = fuzz::load_corpus(Path::new("tests/corpus")).unwrap();
    let mut tried = 0usize;
    for seed in &seeds {
        for i in 0..seed.data.len() {
            // Three deterministic damage patterns per position: bit
            // flip, digit substitution, and structural byte.
            for replacement in [seed.data[i] ^ 0xFF, b'9', b'{'] {
                let mut mutated = seed.data.clone();
                mutated[i] = replacement;
                let input = String::from_utf8_lossy(&mutated);
                assert!(
                    parse_no_panic(seed.kind, &input).is_ok(),
                    "PANIC on {} byte {} -> {:#04x}",
                    seed.path.display(),
                    i,
                    replacement
                );
                tried += 1;
            }
        }
    }
    assert!(tried > 1_000, "mutation coverage collapsed: {tried}");
}

#[test]
fn truncation_at_every_point_is_safe() {
    quiet_panics();
    let seeds = fuzz::load_corpus(Path::new("tests/corpus")).unwrap();
    for seed in &seeds {
        for len in 0..seed.data.len() {
            let input = String::from_utf8_lossy(&seed.data[..len]);
            assert!(
                parse_no_panic(seed.kind, &input).is_ok(),
                "PANIC on {} truncated to {}",
                seed.path.display(),
                len
            );
        }
    }
}

#[test]
fn regression_corpus_stays_fixed() {
    quiet_panics();
    let report = fuzz::replay(
        Path::new("tests/corpus/regressions"),
        &FuzzConfig {
            crashers_dir: None,
            ..FuzzConfig::default()
        },
    )
    .unwrap();
    assert!(report.iterations >= 7, "regression corpus shrank");
    assert_eq!(report.panics, 0, "{}", report.summary());
    assert_eq!(
        report.parse_ok,
        0,
        "every regression input is malformed and must be rejected: {}",
        report.summary()
    );
}

#[test]
fn seeded_mutation_campaign_smoke() {
    quiet_panics();
    let seeds = fuzz::load_corpus(Path::new("tests/corpus")).unwrap();
    let report = fuzz::run(
        &seeds,
        &FuzzConfig {
            iters: 500,
            seed: 0xC0FFEE,
            crashers_dir: None,
            route_budget: None,
        },
    );
    assert_eq!(report.panics, 0, "{}", report.summary());
    assert_eq!(report.parse_ok + report.parse_err, 500);
}

/// Random single-byte damage on every corpus seed.
#[test]
fn random_byte_damage_is_typed() {
    quiet_panics();
    let seeds = fuzz::load_corpus(Path::new("tests/corpus")).unwrap();
    common::sweep(0..64, |c| {
        let pos = c.draw("pos", 0usize..1024);
        let byte = c.draw("byte", 0u8..=255);
        for seed in &seeds {
            let mut data = seed.data.clone();
            let i = pos % data.len();
            data[i] = byte;
            let input = String::from_utf8_lossy(&data).into_owned();
            assert!(
                parse_no_panic(seed.kind, &input).is_ok(),
                "PANIC on {} byte {i}",
                seed.path.display()
            );
        }
    });
}

/// `telemetry::json::parse` rejects a raw U+0000–U+001F inside a string
/// (see `regressions/raw-tab-in-string.json`); no committed benchmark
/// report pays for the rule.
#[test]
fn committed_bench_reports_still_parse() {
    let mut reports = 0;
    for entry in std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(&path).unwrap();
            telemetry::json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            reports += 1;
        }
    }
    assert!(reports >= 3, "found only {reports} BENCH_*.json");
}
