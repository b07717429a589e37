//! The shared command-line surface of the `repro` binary's commands.
//!
//! Every command under `src/cmd/` (run as `repro <command> [flags]`)
//! parses the same common flags through [`Cli::parse`] (or
//! [`Cli::parse_with`] for command-specific extras), so `--topo`,
//! `--gen`, `--format`, `--engine`, `--seed`, `--json` and `--metrics`
//! spell and behave identically everywhere:
//!
//! * `--topo <file> [--format text|ibnetdiscover|json]` / `--gen
//!   torus:<X>x<Y>|kary:<k>,<n>|ring:<N>` — the input fabric, consumed
//!   by commands that route one topology ([`Cli::network`]). Commands
//!   that sweep their own topology series (the figure repros) accept
//!   but do not consume these.
//! * `--engine <name>` — engine selection ([`Cli::engine`] /
//!   [`Cli::engine_with`]).
//! * `--seed <N>` — RNG seed; recorded in the manifest.
//! * `--json` — machine-readable stdout where the command supports it
//!   ([`Cli::table`] switches the shared table printer to JSON rows).
//! * `--metrics <out.json>` — attach an in-memory [`Collector`] to
//!   everything this CLI constructs and, at [`Cli::finish`], write a
//!   versioned [`RunManifest`] (`dfsssp-metrics/v1`) including the
//!   whole-command `total` phase and the command's name as `binary`.

use baselines::{Dor, FatTree, Lash, MinHop, UpDown};
use dfsssp_core::{ComputeOpts, DfSssp, EngineConfig, Recorded, RoutingEngine, Sssp};
use fabric::{format, topo, Network};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Collector, Recorder, RecorderHandle, RunManifest, TopologySummary};

/// Parsed common flags plus the telemetry session of one command run.
#[derive(Debug)]
pub struct Cli {
    /// `--topo <file>`: topology file to load.
    pub topo: Option<String>,
    /// `--gen <spec>`: synthesize a topology instead of loading one.
    pub gen: Option<String>,
    /// `--format text|ibnetdiscover|json` for `--topo` (default `text`).
    pub format: String,
    /// `--engine <name>`, lower-cased (default `dfsssp`).
    pub engine: String,
    /// `--seed <N>`, when given.
    pub seed: Option<u64>,
    /// `--json`: machine-readable stdout.
    pub json: bool,
    /// `--metrics <out.json>`: manifest destination, when given.
    pub metrics: Option<String>,
    /// `--chunk <N>`: chunk width of the balanced sweep (default and
    /// `0`: the paper's `1`). Routes are a function of the fabric and
    /// this value.
    pub chunk: usize,
    binary: String,
    start: Instant,
    collector: Option<Arc<Collector>>,
    topology: Option<TopologySummary>,
    engine_name: Option<String>,
}

fn usage(binary: &str, extra: &str) -> ! {
    eprintln!(
        "usage: repro {binary} [--topo <file> [--format text|ibnetdiscover|json] | \
         --gen torus:<X>x<Y>|kary:<k>,<n>|ring:<N>] \
         [--engine minhop|updown|dor|lash|fattree|sssp|dfsssp] \
         [--seed <N>] [--json] [--metrics <out.json>] \
         [--chunk <N>]{extra}"
    );
    std::process::exit(2);
}

impl Cli {
    /// Parse the common flags only; any other flag is a usage error.
    pub fn parse() -> Cli {
        Self::parse_with("", |_, _| false)
    }

    /// Parse the common flags, deferring unknown flags to `extra`: it
    /// gets the flag and a value puller, and returns whether it consumed
    /// the flag (false exits with usage, including `extra_usage`).
    pub fn parse_with(
        extra_usage: &str,
        mut extra: impl FnMut(&str, &mut dyn FnMut() -> String) -> bool,
    ) -> Cli {
        // argv[0] is `repro`, argv[1] the command that is calling us; its
        // name is what the manifest records as `binary`.
        let mut it = std::env::args().skip(1);
        let binary = &it.next().unwrap_or_default();
        let mut cli = Cli {
            topo: None,
            gen: None,
            format: "text".into(),
            engine: "dfsssp".into(),
            seed: None,
            json: false,
            metrics: None,
            chunk: 0,
            binary: binary.clone(),
            start: Instant::now(),
            collector: None,
            topology: None,
            engine_name: None,
        };
        while let Some(flag) = it.next() {
            let mut val = || it.next().unwrap_or_else(|| usage(binary, extra_usage));
            match flag.as_str() {
                "--topo" => cli.topo = Some(val()),
                "--gen" => cli.gen = Some(val()),
                "--format" => cli.format = val(),
                "--engine" => cli.engine = val().to_lowercase(),
                "--seed" => {
                    cli.seed = Some(val().parse().unwrap_or_else(|_| usage(binary, extra_usage)))
                }
                "--json" => cli.json = true,
                "--metrics" => cli.metrics = Some(val()),
                "--chunk" => {
                    cli.chunk = val().parse().unwrap_or_else(|_| usage(binary, extra_usage))
                }
                "--help" | "-h" => usage(binary, extra_usage),
                other => {
                    if !extra(other, &mut val) {
                        usage(binary, extra_usage);
                    }
                }
            }
        }
        if cli.metrics.is_some() {
            cli.collector = Some(Arc::new(Collector::new()));
        }
        cli
    }

    /// The `--chunk` request of this run.
    pub fn compute(&self) -> ComputeOpts {
        ComputeOpts::new().chunk(self.chunk)
    }

    /// The telemetry sink of this run: the `--metrics` collector, or the
    /// shared no-op when metrics are off.
    pub fn recorder(&self) -> RecorderHandle {
        match &self.collector {
            Some(c) => c.clone(),
            None => telemetry::noop(),
        }
    }

    /// Load (`--topo`) or synthesize (`--gen`) the input fabric,
    /// validate it, and remember its summary for the manifest.
    pub fn network(&mut self) -> Result<Network, String> {
        let net = match (&self.topo, &self.gen) {
            (Some(_), Some(_)) => return Err("--topo and --gen are mutually exclusive".into()),
            (None, None) => return Err("need --topo <file> or --gen <spec>".into()),
            (None, Some(g)) => generate(g)?,
            (Some(path), None) => {
                let input = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                match self.format.as_str() {
                    "text" => format::parse_network(&input).map_err(|e| e.to_string())?,
                    "ibnetdiscover" => {
                        format::parse_ibnetdiscover(&input).map_err(|e| e.to_string())?
                    }
                    "json" => format::network_from_json(&input).map_err(|e| e.to_string())?,
                    other => return Err(format!("unknown format {other}")),
                }
            }
        };
        net.validate()?;
        self.note_topology(&net);
        Ok(net)
    }

    /// Remember `net` as the run's topology (for binaries that build
    /// their fabric without [`Cli::network`]).
    pub fn note_topology(&mut self, net: &Network) {
        self.topology = Some(TopologySummary {
            label: net.label().to_string(),
            nodes: net.num_nodes(),
            switches: net.num_switches(),
            terminals: net.num_terminals(),
            channels: net.num_channels(),
        });
    }

    /// Construct the `--engine` selection with `config` applied (plus
    /// this run's recorder), wrapped in [`Recorded`] when metrics are
    /// on so every engine measures `route_total` identically.
    pub fn engine(&mut self, config: EngineConfig) -> Result<Box<dyn RoutingEngine>, String> {
        self.engine_with(config, |d| d)
    }

    /// [`Cli::engine`] with a DFSSSP customizer for knobs outside
    /// [`EngineConfig`] (cycle-break heuristic, compaction).
    pub fn engine_with(
        &mut self,
        config: EngineConfig,
        tune_dfsssp: impl FnOnce(DfSssp) -> DfSssp,
    ) -> Result<Box<dyn RoutingEngine>, String> {
        let config = config.recorder(self.recorder()).compute(self.compute());
        let engine: Box<dyn RoutingEngine> = match self.engine.as_str() {
            "minhop" => Box::new(MinHop::new()),
            "updown" => Box::new(UpDown::new()),
            "dor" => Box::new(Dor::new()),
            "lash" => Box::new(Lash::new().with_config(config)),
            "fattree" => Box::new(FatTree::new()),
            "sssp" => Box::new(Sssp::new().with_config(config)),
            "dfsssp" => Box::new(tune_dfsssp(DfSssp::new()).with_config(config)),
            other => return Err(format!("unknown engine {other}")),
        };
        self.engine_name = Some(engine.name().to_string());
        Ok(if self.collector.is_some() {
            Box::new(Recorded::new(engine, self.recorder()))
        } else {
            engine
        })
    }

    /// The Fig 4/8 engine lineup, each engine configured with this
    /// run's recorder and `--chunk`.
    pub fn engines(&self) -> Vec<Box<dyn RoutingEngine + Send + Sync>> {
        let mut lineup = crate::engines();
        for engine in &mut lineup {
            let config = engine
                .config()
                .recorder(self.recorder())
                .compute(self.compute());
            engine.set_config(config);
        }
        lineup
    }

    /// Print `rows` under `headers`: fixed-width text by default, one
    /// JSON object per row under `--json`.
    pub fn table(&self, headers: &[&str], rows: &[Vec<String>]) {
        if !self.json {
            crate::print_table(headers, rows);
            return;
        }
        let mut w = telemetry::json::Writer::default();
        w.arr();
        for row in rows {
            w.obj();
            for (header, cell) in headers.iter().zip(row) {
                w.key(header).str(cell);
            }
            w.end();
        }
        w.end();
        println!("{}", w.finish());
    }

    /// Close the run: record the whole-command `total` phase and, when
    /// `--metrics` was given, write the [`RunManifest`].
    pub fn finish(self) -> Result<(), String> {
        let Some(path) = &self.metrics else {
            return Ok(());
        };
        let collector = self
            .collector
            .as_ref()
            .expect("collector exists iff metrics");
        collector.phase(
            telemetry::phases::TOTAL,
            self.start.elapsed().as_nanos() as u64,
        );
        let mut manifest = RunManifest::new(self.binary.as_str()).metrics(collector.snapshot());
        if let Some(t) = self.topology.clone() {
            manifest = manifest.topology(t);
        }
        if let Some(e) = self.engine_name.clone() {
            manifest = manifest.engine(e);
        }
        if let Some(s) = self.seed {
            manifest = manifest.seed(s);
        }
        manifest
            .write(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("metrics written to {path}");
        Ok(())
    }
}

/// Synthesize a topology from a `--gen` spec. The numbers are outside
/// input and the generators `assert!` their preconditions, so shape and
/// size are checked here first — the size against
/// [`format::FormatLimits`], the bound a topology *file* has to meet.
pub fn generate(spec: &str) -> Result<Network, String> {
    let limits = format::FormatLimits::default();
    let max_k = usize::from(limits.max_ports / 2);
    let bad = || {
        format!(
            "bad --gen {spec}: want torus:<X>x<Y>[x...] (extents >= 2), kary:<k>,<n> \
             (2 <= k <= {max_k}, n >= 1) or ring:<N> (N >= 3), of at most {} switches \
             and {} terminals",
            limits.max_switches, limits.max_terminals
        )
    };
    // `None` is a count that overflowed `usize`.
    let fits = |switches: Option<usize>, terminals: Option<usize>| {
        let ok = switches.is_some_and(|s| s <= limits.max_switches)
            && terminals.is_some_and(|t| t <= limits.max_terminals);
        ok.then_some(()).ok_or_else(bad)
    };
    let num = |s: &str| s.parse::<usize>().map_err(|_| bad());
    let (kind, rest) = spec.split_once(':').ok_or_else(bad)?;
    match kind {
        "torus" => {
            let extent = |d: &str| d.parse().ok().filter(|&d: &u16| d >= 2);
            let dims: Option<Vec<u16>> = rest.split('x').map(extent).collect();
            let dims = dims.ok_or_else(bad)?;
            let switches = dims
                .iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d.into()));
            fits(switches, switches).map(|()| topo::torus(&dims, 1))
        }
        "kary" => {
            let (k, n) = rest.split_once(',').ok_or_else(bad)?;
            let (k, n) = (num(k)?, num(n)?);
            if !(2..=max_k).contains(&k) || n < 1 {
                return Err(bad());
            }
            let per_level = u32::try_from(n - 1).ok().and_then(|e| k.checked_pow(e));
            let switches = per_level.and_then(|l| l.checked_mul(n));
            let terminals = per_level.and_then(|l| l.checked_mul(k));
            fits(switches, terminals).map(|()| topo::kary_ntree(k, n))
        }
        "ring" => {
            let n = num(rest).ok().filter(|&n| n >= 3).ok_or_else(bad)?;
            fits(Some(n), Some(n)).map(|()| topo::ring(n, 1))
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_parses_specs() {
        assert_eq!(generate("ring:5").unwrap().num_switches(), 5);
        assert_eq!(generate("torus:2x3").unwrap().num_switches(), 6);
        assert_eq!(generate("kary:2,2").unwrap().num_terminals(), 4);
        assert!(generate("blob:7").is_err());
        assert!(generate("ring").is_err());
        // Out of range is a diagnostic, not a generator's `assert!` or an
        // allocation the size of the spec's arithmetic.
        for spec in [
            "ring:2",
            "ring:0",
            "ring:99999999",
            "kary:1,1",
            "kary:2,0",
            "kary:99,9",
            "kary:2,64",
            "kary:2,99999999999",
            "kary:40000,1",
            "torus:1x1",
            "torus:0x0",
            "torus:",
            "torus:60000x60000",
            "torus:65535x65535x65535x65535x65535",
        ] {
            let err = generate(spec).expect_err(spec);
            assert!(!err.contains('\n'), "{spec}: {err}");
        }
        assert_eq!(generate("kary:2,1").unwrap().num_terminals(), 2);
    }
}
