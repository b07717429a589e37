//! `repro <command> [flags]` — every paper table/figure reproduction
//! and operator tool behind one link step (DESIGN.md §2 has the index).
//! A command's name is the `binary` its `--metrics` manifest records;
//! its flags are [`repro::Cli`]'s common set plus its own extras.

use cmd::*;
use std::process::ExitCode;
use Run::{Figure, Tool};

mod cmd {
    pub mod chaos;
    pub mod fig02_ring_deadlock;
    pub mod fig09_random_vls;
    pub mod fig10_realworld_vls;
    pub mod fig12_netgauge_deimos;
    pub mod fig13_alltoall;
    pub mod fig14_16_nas;
    pub mod fuzz;
    pub mod loadgen;
    pub mod route_cli;
    pub mod sec4_exact;
    pub mod sec4_heuristics;
    pub mod sec4_online_offline;
    pub mod summary;
    pub mod sweeps;
    pub mod table1_topologies;
    pub mod table2_nas_1024;
    pub mod vet;
}

/// A figure prints its table and fails only by panicking. A tool's exit
/// code is a gate CI reads: `Err` is a one-line diagnostic and exit 1.
enum Run {
    Figure(fn()),
    Tool(fn() -> Result<ExitCode, String>),
}

/// The exit code of a tool whose own gate held (`true`) or did not.
fn gate(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, about, entry point)`, in `repro help` order.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, Run)] = &[
    ("summary", "fast battery of the paper's headline claims", Figure(summary::main)),
    ("fig02_ring_deadlock", "Fig 2: ring(5) wedges under SSSP, not DFSSSP", Figure(fig02_ring_deadlock::main)),
    ("table1_topologies", "Table I: the topology sweeps behind Figs 5-7", Figure(table1_topologies::main)),
    ("fig04_realworld_ebb", "Fig 4: eBB of every engine on the six real systems", Figure(sweeps::fig04)),
    ("fig05_xgft_ebb", "Fig 5: eBB on XGFTs, 64..4096 endpoints", Figure(sweeps::fig05)),
    ("fig06_kautz_ebb", "Fig 6: eBB on Kautz graphs", Figure(sweeps::fig06)),
    ("fig07_runtime_trees", "Fig 7: routing runtime on k-ary n-trees", Figure(sweeps::fig07)),
    ("fig08_runtime_realworld", "Fig 8: routing runtime on the real systems", Figure(sweeps::fig08)),
    ("fig09_random_vls", "Fig 9: VLs on random topologies, LASH vs DFSSSP", Figure(fig09_random_vls::main)),
    ("fig10_realworld_vls", "Fig 10: VLs on the real systems", Figure(fig10_realworld_vls::main)),
    ("fig12_netgauge_deimos", "Fig 12: Netgauge eBB on Deimos", Figure(fig12_netgauge_deimos::main)),
    ("fig13_alltoall", "Fig 13: all-to-all runtime vs message size", Figure(fig13_alltoall::main)),
    ("fig14_16_nas", "Figs 14-16: NAS BT/SP/FT scaling on Deimos", Figure(fig14_16_nas::main)),
    ("table2_nas_1024", "Table II: every NAS kernel at the top core count", Figure(table2_nas_1024::main)),
    ("sec4_exact", "Sec III/IV: heuristics vs the exact APP optimum", Figure(sec4_exact::main)),
    ("sec4_heuristics", "Sec IV: cycle-break heuristics compared", Figure(sec4_heuristics::main)),
    ("sec4_online_offline", "Sec IV: online vs offline runtime", Figure(sec4_online_offline::main)),
    ("route_cli", "load a topology, route it, verify, export the tables", Tool(route_cli::main)),
    ("vet", "static analysis of a routing artifact; exit 1 on an error", Tool(vet::main)),
    ("chaos", "seeded failure/recovery campaign, every state vetted", Tool(chaos::main)),
    ("fuzz", "structure-aware fuzzing of every parser; exit 1 on a panic", Tool(fuzz::main)),
    ("loadgen", "open-loop 4x overload trace with a per-class SLO gate", Tool(loadgen::main)),
];

fn help() -> String {
    let mut out = String::from(
        "usage: repro <command> [flags]   (`--help` after a command lists its flags)\n\n",
    );
    for (name, about, _) in COMMANDS {
        out.push_str(&format!("  {name:<24} {about}\n"));
    }
    out
}

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    match COMMANDS.iter().find(|(n, ..)| *n == name) {
        Some((.., Figure(run))) => {
            run();
            ExitCode::SUCCESS
        }
        Some((.., Tool(run))) => run().unwrap_or_else(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        }),
        None if name == "help" => {
            print!("{}", help());
            ExitCode::SUCCESS
        }
        None => {
            eprint!("repro: unknown command `{name}`\n{}", help());
            ExitCode::from(2)
        }
    }
}
