//! Structure-aware fuzzing of the parse → validate → route pipeline.
//!
//! Every artifact the toolchain reads from disk — text and
//! ibnetdiscover topologies, network and routes JSON — must either
//! parse or fail with a *typed* error; it must never panic, overflow
//! the stack, or hang. This module drives that contract: it mutates a
//! committed corpus with deterministic, format-shaped mutations (byte
//! edits, line surgery, token splices from a per-format dictionary,
//! digit blowups, chunk repetition) and feeds the result to the real
//! parsers under `catch_unwind`. Inputs that *do* parse are pushed one
//! stage further and routed under a tight [`Budget`], where the same
//! no-panic rule applies.
//!
//! The driver (`repro fuzz`) replays `tests/corpus/regressions/`
//! before fuzzing, so every crasher ever found stays fixed.

use dfsssp_core::{Budget, DfSssp, EngineConfig, RouteError, RoutingEngine};
use fabric::format::{self, ParseError};
use fabric::rng::Rng;
use fabric::Network;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Which parser a corpus entry exercises, derived from its file name:
/// `.topo` → text, `.ibnd` → ibnetdiscover, `*routes*.json` → routes
/// JSON, other `.json` → network JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `fabric::format::parse_network`.
    Text,
    /// `fabric::format::parse_ibnetdiscover`.
    Ibnetdiscover,
    /// `fabric::format::network_from_json`.
    NetworkJson,
    /// `fabric::format::routes_from_json`.
    RoutesJson,
}

impl Kind {
    /// Classify a corpus file by name; `None` for files the pipeline
    /// does not read (READMEs and the like).
    pub fn of(path: &Path) -> Option<Kind> {
        let name = path.file_name()?.to_str()?;
        if name.ends_with(".topo") {
            Some(Kind::Text)
        } else if name.ends_with(".ibnd") {
            Some(Kind::Ibnetdiscover)
        } else if name.ends_with(".json") {
            if name.contains("routes") {
                Some(Kind::RoutesJson)
            } else {
                Some(Kind::NetworkJson)
            }
        } else {
            None
        }
    }

    /// File extension for crashers of this kind.
    fn ext(self) -> &'static str {
        match self {
            Kind::Text => "topo",
            Kind::Ibnetdiscover => "ibnd",
            Kind::NetworkJson | Kind::RoutesJson => "json",
        }
    }

    /// Splice dictionary: tokens of the grammar this kind parses, plus
    /// universal troublemakers.
    fn dictionary(self) -> &'static [&'static str] {
        match self {
            Kind::Text => &[
                "switch ",
                "terminal ",
                "link ",
                "label ",
                "ports=",
                "coord=",
                "level=",
                "switch s ports=0\n",
                "link a b\n",
                "ports=99999",
                "0",
                "-1",
                "999999999999999999999999",
            ],
            Kind::Ibnetdiscover => &[
                "Switch ",
                "Ca ",
                "[",
                "]",
                "\"",
                "[1] \"x\"[2]\n",
                "Switch 8 \"s\"\n",
                "[0]",
                "[65536]",
                "0",
                "-1",
                "999999999999999999999999",
            ],
            Kind::NetworkJson | Kind::RoutesJson => &[
                "{",
                "}",
                "[",
                "]",
                ":",
                ",",
                "null",
                "\"nodes\"",
                "\"cables\"",
                "\"next\"",
                "\"vl\"",
                "\"ports\":",
                "[[[[[[[[",
                "1e308",
                "-1",
                "18446744073709551616",
            ],
        }
    }
}

/// One corpus entry: the parser it targets and the seed bytes.
#[derive(Clone, Debug)]
pub struct Seed {
    /// Which parser the entry exercises.
    pub kind: Kind,
    /// Original file (for reporting).
    pub path: PathBuf,
    /// Seed content.
    pub data: Vec<u8>,
}

/// Load every recognized file under `dir` (non-recursive). The
/// `regressions/` subdirectory is *not* included — replay it separately
/// with [`replay`].
pub fn load_corpus(dir: &Path) -> Result<Vec<Seed>, String> {
    let mut seeds = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read corpus {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        if let Some(kind) = Kind::of(&path) {
            let data =
                std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            seeds.push(Seed { kind, path, data });
        }
    }
    if seeds.is_empty() {
        return Err(format!("no corpus files under {}", dir.display()));
    }
    Ok(seeds)
}

/// Fuzzing campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Mutated inputs to try.
    pub iters: usize,
    /// RNG seed: the same seed replays the same campaign exactly.
    pub seed: u64,
    /// Where to save panicking inputs (`None`: keep in memory only).
    pub crashers_dir: Option<PathBuf>,
    /// Route parse-successes with this budget (`None`: parse only).
    pub route_budget: Option<Budget>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 10_000,
            seed: 0xDF55_5EED,
            crashers_dir: None,
            route_budget: Some(
                Budget::new()
                    .deadline(Duration::from_millis(200))
                    .max_nodes(50_000),
            ),
        }
    }
}

/// What a campaign (or a replay) observed.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Inputs tried.
    pub iterations: usize,
    /// Inputs that parsed into a valid artifact.
    pub parse_ok: usize,
    /// Inputs rejected with a typed [`ParseError`].
    pub parse_err: usize,
    /// Parsed networks that also routed.
    pub route_ok: usize,
    /// Parsed networks rejected by the engine with a typed error.
    pub route_err: usize,
    /// Panics caught (each one is a bug).
    pub panics: usize,
    /// Crasher files written (when a crashers dir was configured).
    pub crashers: Vec<PathBuf>,
}

impl FuzzReport {
    /// One-line summary for the driver.
    pub fn summary(&self) -> String {
        format!(
            "{} inputs: {} parsed ({} routed, {} route-rejected), {} rejected, {} PANICS",
            self.iterations,
            self.parse_ok,
            self.route_ok,
            self.route_err,
            self.parse_err,
            self.panics
        )
    }
}

/// Run one deterministic campaign over `seeds`.
pub fn run(seeds: &[Seed], cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut report = FuzzReport::default();
    for iter in 0..cfg.iters {
        let seed = &seeds[rng.range(0..seeds.len())];
        let mutated = mutate(&mut rng, seed);
        let input = String::from_utf8_lossy(&mutated).into_owned();
        check_one(seed.kind, &input, cfg, &mut report, |r| {
            save_crasher(cfg, seed.kind, iter, &mutated, r)
        });
    }
    report.iterations = cfg.iters;
    report
}

/// Replay every recognized file under `dir` unmutated — the regression
/// corpus of past crashers. Panics count exactly like in [`run`].
pub fn replay(dir: &Path, cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    let seeds = load_corpus(dir)?;
    let mut report = FuzzReport::default();
    for seed in &seeds {
        let input = String::from_utf8_lossy(&seed.data).into_owned();
        check_one(seed.kind, &input, cfg, &mut report, |r| {
            r.crashers.push(seed.path.clone());
        });
    }
    report.iterations = seeds.len();
    Ok(report)
}

/// Feed one input through parse (and, within budget, route), counting
/// the outcome; `on_panic` records the crasher.
fn check_one(
    kind: Kind,
    input: &str,
    cfg: &FuzzConfig,
    report: &mut FuzzReport,
    on_panic: impl FnOnce(&mut FuzzReport),
) {
    match parse_contained(kind, input) {
        Outcome::Parsed(net) => {
            report.parse_ok += 1;
            if let (Some(budget), Some(net)) = (&cfg.route_budget, net) {
                match route_contained(&net, budget) {
                    Some(Ok(())) => report.route_ok += 1,
                    Some(Err(_)) => report.route_err += 1,
                    None => {
                        report.panics += 1;
                        on_panic(report);
                    }
                }
            }
        }
        Outcome::Rejected(_) => report.parse_err += 1,
        Outcome::Panicked => {
            report.panics += 1;
            on_panic(report);
        }
    }
}

enum Outcome {
    /// Parsed; networks are carried forward for the routing stage
    /// (routes artifacts parse standalone and stop here).
    Parsed(Option<Box<Network>>),
    /// Rejected with a typed error — the contract held.
    Rejected(#[allow(dead_code)] ParseError),
    Panicked,
}

fn parse_contained(kind: Kind, input: &str) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Text => format::parse_network(input).map(|n| Some(Box::new(n))),
        Kind::Ibnetdiscover => format::parse_ibnetdiscover(input).map(|n| Some(Box::new(n))),
        Kind::NetworkJson => format::network_from_json(input).map(|n| Some(Box::new(n))),
        Kind::RoutesJson => format::routes_from_json(input).map(|_| None),
    }));
    match result {
        Ok(Ok(net)) => Outcome::Parsed(net),
        Ok(Err(e)) => Outcome::Rejected(e),
        Err(_) => Outcome::Panicked,
    }
}

/// Route a parsed (hence valid) network under `budget`; `None` = panic.
fn route_contained(net: &Network, budget: &Budget) -> Option<Result<(), RouteError>> {
    let engine = DfSssp::new().with_config(EngineConfig::new().budget(budget.clone()));
    catch_unwind(AssertUnwindSafe(|| engine.route(net).map(|_| ()))).ok()
}

fn save_crasher(cfg: &FuzzConfig, kind: Kind, iter: usize, data: &[u8], report: &mut FuzzReport) {
    let Some(dir) = &cfg.crashers_dir else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("crasher-{:08x}-{iter}.{}", cfg.seed, kind.ext()));
    if std::fs::write(&path, data).is_ok() {
        report.crashers.push(path);
    }
}

/// Apply 1–4 random mutations to a seed.
pub fn mutate(rng: &mut Rng, seed: &Seed) -> Vec<u8> {
    let mut data = seed.data.clone();
    for _ in 0..rng.range(1usize..=4) {
        data = mutate_once(rng, seed.kind, data);
        if data.len() > 1 << 20 {
            data.truncate(1 << 20);
        }
    }
    data
}

fn mutate_once(rng: &mut Rng, kind: Kind, mut data: Vec<u8>) -> Vec<u8> {
    match rng.range(0u32..8) {
        // Flip one byte.
        0 if !data.is_empty() => {
            let i = rng.range(0..data.len());
            data[i] = rng.range(0u8..=255);
            data
        }
        // Insert one byte.
        1 => {
            let i = rng.range(0..=data.len());
            data.insert(i, rng.range(0u8..=255));
            data
        }
        // Delete one byte.
        2 if !data.is_empty() => {
            data.remove(rng.range(0..data.len()));
            data
        }
        // Truncate.
        3 if !data.is_empty() => {
            data.truncate(rng.range(0..data.len()));
            data
        }
        // Duplicate or delete a random line.
        4 => {
            let mut lines: Vec<&[u8]> = data.split(|&b| b == b'\n').collect();
            if lines.is_empty() {
                return data;
            }
            let i = rng.range(0..lines.len());
            if rng.chance(0.5) {
                let line = lines[i];
                lines.insert(i, line);
            } else {
                lines.remove(i);
            }
            lines.join(&b'\n')
        }
        // Splice a dictionary token at a random offset.
        5 => {
            let dict = kind.dictionary();
            let token = dict[rng.range(0..dict.len())].as_bytes();
            let i = rng.range(0..=data.len());
            data.splice(i..i, token.iter().copied());
            data
        }
        // Repeat a random chunk (amplifies nesting and list lengths).
        6 if !data.is_empty() => {
            let start = rng.range(0..data.len());
            let len = rng.range(1..=((data.len() - start).min(64)));
            let chunk: Vec<u8> = data[start..start + len].to_vec();
            let times = rng.range(2usize..=64);
            let at = start + len;
            data.splice(
                at..at,
                chunk.iter().copied().cycle().take(chunk.len() * times),
            );
            data
        }
        // Blow up a digit run into a huge number.
        7 => {
            if let Some(pos) = data.iter().position(|b| b.is_ascii_digit()) {
                let end = data[pos..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map_or(data.len(), |e| pos + e);
                let huge = b"99999999999999999999";
                data.splice(pos..end, huge.iter().copied());
            }
            data
        }
        _ => data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_seed() -> Seed {
        Seed {
            kind: Kind::Text,
            path: PathBuf::from("inline.topo"),
            data: b"label t\nswitch s0 ports=4\nswitch s1 ports=4\nlink s0 s1\n\
                    terminal t0\nterminal t1\nlink t0 s0\nlink t1 s1\n"
                .to_vec(),
        }
    }

    #[test]
    fn kinds_classify_by_name() {
        assert_eq!(Kind::of(Path::new("a/x.topo")), Some(Kind::Text));
        assert_eq!(Kind::of(Path::new("x.ibnd")), Some(Kind::Ibnetdiscover));
        assert_eq!(Kind::of(Path::new("net.json")), Some(Kind::NetworkJson));
        assert_eq!(
            Kind::of(Path::new("my-routes.json")),
            Some(Kind::RoutesJson)
        );
        assert_eq!(Kind::of(Path::new("README.md")), None);
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let seed = text_seed();
        let a: Vec<Vec<u8>> = {
            let mut rng = Rng::seed_from_u64(42);
            (0..10).map(|_| mutate(&mut rng, &seed)).collect()
        };
        let b: Vec<Vec<u8>> = {
            let mut rng = Rng::seed_from_u64(42);
            (0..10).map(|_| mutate(&mut rng, &seed)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn short_campaign_never_panics() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run(
            &[text_seed()],
            &FuzzConfig {
                iters: 300,
                seed: 1,
                ..FuzzConfig::default()
            },
        );
        std::panic::set_hook(hook);
        assert_eq!(report.iterations, 300);
        assert_eq!(report.panics, 0, "{}", report.summary());
        assert_eq!(report.parse_ok + report.parse_err, 300);
    }
}
