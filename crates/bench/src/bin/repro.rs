//! `repro` — regenerate the paper's tables and figures.
//!
//! `repro <experiment>` prints an experiment's tables as markdown, or
//! with `--json` as JSON objects (title/headers/rows) for plotting
//! scripts; `repro all` runs every experiment and `repro list` names
//! them. Default sizes are chosen so `repro all` finishes in minutes on a
//! laptop while preserving the paper's shapes; pass `--qubits` to push
//! larger. End-to-end performance is measured by the `benchmark/`
//! harness, not here (see `benchmark/README.md`). `repro --help` lists
//! the flags; a usage error exits 2, a run failure 1. Once the reader of
//! stdout has gone away, `repro all` stops and exits 0.

use std::io::{self, Write};
use std::process::ExitCode;

use qgpu::cli::{self, Cli, Error};
use qgpu::experiments;
use qgpu_circuit::generators::Benchmark;

#[derive(Default)]
struct Args {
    qubits: Option<usize>,
    json: bool,
}

const CLI: Cli<Args> = Cli {
    usage: "usage: repro <experiment|all|list> [flags]",
    flags: qgpu::flags! { Args;
        "--qubits", "-q" <"N"> "simulated width (each experiment has its default)" => |o, v| o.qubits = Some(v.parse()?);
        "--json" "print each table as a JSON object instead of markdown" => |o, _| o.json = true;
    },
};

/// The experiment named in `args`, and its options; an unknown name, or
/// a width below the smallest its circuits are built at, is refused.
fn parse(args: &[String]) -> Result<(String, Args), Error> {
    let (o, rest) = CLI.parse(args)?;
    let [name] = <[String; 1]>::try_from(rest).map_err(|_| "give one experiment, all or list")?;
    let min = match name.as_str() {
        "list" => None,
        "all" => EXPERIMENTS.iter().map(|e| e.1).max(),
        name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
            Some(e) => Some(e.1),
            None => return Err(format!("unknown experiment '{name}' — try 'repro list'").into()),
        },
    };
    if let (Some(q), Some(min)) = (o.qubits, min) {
        cli::qubits(q, min).map_err(|e| e.on("--qubits"))?;
    }
    Ok((name, o))
}

/// Each experiment: its name, its smallest `--qubits` (4 where its
/// circuits include `qf`, 0 where it builds none at a small width) and
/// what it reproduces.
const EXPERIMENTS: &[(&str, usize, &str)] = &[
    ("fig2", 4, "baseline execution time breakdown"),
    ("fig3", 4, "naive version normalized time"),
    ("fig4", 4, "naive execution breakdown"),
    ("fig6", 2, "timeline of each optimization"),
    ("fig7", 2, "hchain amplitude distribution"),
    ("fig8", 0, "gs_5 reordering walk-through"),
    ("fig9", 2, "involvement under three gate orders"),
    ("fig10", 2, "residual distributions / compressibility"),
    (
        "fig12",
        4,
        "normalized execution time, all versions (headline)",
    ),
    ("fig13", 4, "normalized data transfer time"),
    ("fig14", 4, "compression/decompression overheads"),
    ("fig15", 2, "roofline analysis"),
    ("fig16", 2, "comparison with Qsim-Cirq and QDK"),
    ("fig17", 4, "V100 and A100 platforms"),
    ("fig19", 4, "multi-GPU platforms"),
    ("tab2", 4, "operations before full involvement (34 qubits)"),
    ("tab3", 2, "deep circuits"),
    ("scaling", 0, "figure 12 geomeans across qubit counts"),
    ("abl-chunks", 4, "ablation: chunk count"),
    ("abl-dynamic", 4, "ablation: dynamic vs fixed chunk size"),
    (
        "abl-reorder",
        4,
        "ablation: greedy vs forward-looking, end to end",
    ),
    ("abl-buffer", 4, "ablation: double-buffer split fraction"),
    (
        "abl-grid",
        4,
        "ablation: the full 2^4 optimization-flag grid",
    ),
    ("ext-batching", 4, "extension: gate batching over Q-GPU"),
];

fn collect(
    name: &str,
    qubits: Option<usize>,
) -> Result<(Vec<qgpu::experiments::Table>, String), String> {
    // Default sizes: simulation-bearing experiments run at 14 qubits
    // (seconds each), analysis-only ones at the paper's own sizes.
    let q_sim = qubits.unwrap_or(14);
    let mut extra = String::new();
    let tables = match name {
        "fig2" => vec![experiments::fig2::run(q_sim)],
        "fig3" => vec![experiments::fig3_4::run(q_sim).0],
        "fig4" => vec![experiments::fig3_4::run(q_sim).1],
        "fig6" => {
            extra = experiments::fig6::gantt(Benchmark::Qft, q_sim.min(10), 100);
            vec![experiments::fig6::run(Benchmark::Qft, q_sim.min(12))]
        }
        "fig7" => vec![experiments::fig7::run(
            qubits.unwrap_or(10),
            &[0, 30, 60, 90],
        )],
        "fig8" => vec![experiments::fig8::run()],
        "fig9" => vec![experiments::fig9::run(qubits.unwrap_or(22))],
        "fig10" => vec![experiments::fig10::run(qubits.unwrap_or(16))],
        "fig12" => vec![experiments::fig12::run(q_sim)],
        "fig13" => vec![experiments::fig13::run(q_sim)],
        "fig14" => vec![experiments::fig14::run(q_sim)],
        "fig15" => vec![experiments::fig15::run(q_sim)],
        "fig16" => {
            let (a, b) = experiments::fig16::run(q_sim);
            vec![a, b]
        }
        "fig17" => vec![experiments::fig17::run(q_sim)],
        "fig19" => vec![experiments::fig19::run(q_sim)],
        "tab2" => vec![experiments::tab2::run(qubits.unwrap_or(34))],
        "tab3" => vec![experiments::tab3::run(qubits.unwrap_or(12))],
        "scaling" => {
            let top = qubits.unwrap_or(14);
            let sizes: Vec<usize> = (10..=top).step_by(2).collect();
            vec![experiments::fig12::run_scaling(&sizes)]
        }
        "abl-chunks" => vec![experiments::ablations::chunk_count(q_sim)],
        "abl-dynamic" => vec![experiments::ablations::dynamic_chunk_size(q_sim)],
        "abl-reorder" => vec![experiments::ablations::reorder_strategy(q_sim)],
        "abl-buffer" => vec![experiments::ablations::buffer_split(q_sim)],
        "abl-grid" => vec![experiments::ablations::opt_grid(qubits.unwrap_or(12))],
        "ext-batching" => vec![experiments::ext_batching::run(q_sim)],
        other => return Err(format!("unknown experiment '{other}' — try 'repro list'")),
    };
    Ok((tables, extra))
}

fn show(
    out: &mut cli::Stdout,
    tables: &[experiments::Table],
    extra: &str,
    json: bool,
) -> io::Result<()> {
    for t in tables {
        if json {
            writeln!(out, "{}", t.to_json())?;
        } else {
            writeln!(out, "{t}")?;
        }
    }
    if !json && !extra.is_empty() {
        writeln!(out, "{extra}")?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let (name, args) = match parse(&cli::argv()) {
        Ok(a) => a,
        Err(e) => return CLI.exit(e),
    };
    let mut out = cli::Stdout::lock();
    let mut shown = Ok(());
    let names: Vec<&str> = match name.as_str() {
        "list" => {
            shown = EXPERIMENTS
                .iter()
                .try_for_each(|(name, _, desc)| writeln!(out, "{name:8} {desc}"));
            vec![]
        }
        "all" => EXPERIMENTS.iter().map(|e| e.0).collect(),
        name => vec![name],
    };
    for name in &names {
        if shown.is_err() || out.closed() {
            break;
        }
        if names.len() > 1 {
            eprintln!("[repro] running {name} …");
        }
        let (tables, extra) = match collect(name, args.qubits) {
            Ok(t) => t,
            Err(e) => return CLI.exit(Error::Usage(e)),
        };
        shown = show(&mut out, &tables, &extra, args.json);
    }
    match shown {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
#[path = "../../../../tests/census.rs"]
mod census;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_covers_every_entry() {
        let names = EXPERIMENTS.iter().map(|e| e.0).chain(["all", "list"]);
        census::check("repro", CLI.flags.iter().map(|f| f.long).chain(names));
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_row_is_in_the_help() {
        let help = CLI.help();
        for f in CLI.flags {
            assert!(help.contains(f.long), "{}", f.long);
        }
        assert!(help.contains("-q, --qubits <N>") && help.contains("--help"));
    }

    #[test]
    fn spellings_parse() {
        for line in [
            "list",
            "fig8 --json",
            "tab2",
            "fig2 -q 12",
            "all --qubits 4 --json",
            "--json fig7 -q 2",
        ] {
            assert!(parse(&argv(line)).is_ok(), "{line}");
        }
        assert_eq!(parse(&argv("--help")).err(), Some(Error::Help));
    }

    #[test]
    fn each_experiment_runs_at_its_smallest_width_and_not_below() {
        for &(name, min, _) in EXPERIMENTS {
            assert!(collect(name, Some(min)).is_ok(), "{name} at {min} qubits");
            if min > 0 {
                let below = std::panic::catch_unwind(|| collect(name, Some(min - 1)));
                assert!(below.is_err(), "{name} runs at {} qubits", min - 1);
            }
        }
    }

    #[test]
    fn hostile_lines_are_usage_errors() {
        let bad = [
            "",
            "fig2 fig3",
            "fig2 -q 1",
            "fig2 -q 3",
            "all -q 2",
            "tab2 -q 70",
            "fig7 -q 65",
            "fig2 --nope",
            "fig2 -q",
            "perf",
        ];
        for line in bad {
            assert!(
                matches!(parse(&argv(line)), Err(Error::Usage(_))),
                "{line:?} accepted"
            );
        }
    }
}
