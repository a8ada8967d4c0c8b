//! `repro` — regenerate the PIM-malloc paper's tables and figures.
//!
//! ```text
//! repro all [FLAGS]      run every experiment
//! repro <id> [FLAGS]     run one experiment (fig15, trace, ...)
//! repro list             list experiment ids with descriptions
//!
//! FLAGS:
//!   --quick       trim sweep sizes for a fast smoke run
//!   --seed N      override the stochastic experiments' workload seeds
//!                 (LLM trace, graph generator, synthetic traces);
//!                 defaults to each experiment's fixed seed
//!   --csv DIR     write each experiment's rows to DIR/<id>.csv
//!   --json DIR    write DIR/<id>.json (machine-readable, with
//!                 schema_version and the producing experiment id);
//!                 for `trace`, also writes the generated traces as
//!                 DIR/trace-<family>.trace.json
//! ```
//!
//! An unknown flag, a second experiment id, or a report that cannot be
//! written ends the run with a one-line message and exit status 1.

use std::env;
use std::path::Path;
use std::process::ExitCode;

use pim_bench::figures;

/// The flags `repro` accepts, for error messages.
const FLAGS: &str = "--quick, --seed N, --csv DIR and --json DIR";

/// A parsed command line.
#[derive(Default)]
struct Args {
    target: Option<String>,
    quick: bool,
    seed: Option<u64>,
    csv_dir: Option<String>,
    json_dir: Option<String>,
}

/// Parses the arguments after the program name. An unknown flag, a
/// flag missing its operand, or a second experiment id is an error.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut operand = |name: &str| match it.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{arg} requires a {name} operand")),
        };
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--csv" => parsed.csv_dir = Some(operand("DIR")?),
            "--json" => parsed.json_dir = Some(operand("DIR")?),
            "--seed" => {
                let s = operand("N")?;
                let n = s
                    .parse::<u64>()
                    .map_err(|_| format!("--seed needs a u64, got `{s}`"))?;
                parsed.seed = Some(n);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`; repro accepts {FLAGS}"));
            }
            id => {
                if let Some(first) = parsed.target.replace(id.to_owned()) {
                    return Err(format!(
                        "unexpected operand `{id}` after `{first}`; repro runs one experiment id \
                         and accepts {FLAGS}"
                    ));
                }
            }
        }
    }
    Ok(parsed)
}

/// Writes `contents` to `dir/file`, creating `dir` first.
fn write(dir: &str, file: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot write {dir}: {e}"))?;
    let path = Path::new(dir).join(file);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let Args {
        target,
        quick,
        seed,
        csv_dir,
        json_dir,
    } = args;
    // Writes one experiment's reports, then prints them.
    let emit = |experiments: Vec<pim_bench::Experiment>| -> Result<(), String> {
        if let Some(dir) = &csv_dir {
            for e in &experiments {
                write(dir, &format!("{}.csv", e.id), e.to_csv())?;
            }
        }
        if let Some(dir) = &json_dir {
            for e in &experiments {
                write(dir, &format!("{}.json", e.id), e.to_json())?;
            }
            // The trace experiment ships its generated traces alongside
            // the report, so a replay elsewhere starts from the same
            // files.
            if experiments.iter().any(|e| e.id == "trace") {
                for (file, contents) in figures::trace_artifact_files(
                    quick,
                    seed.unwrap_or(figures::TRACE_DEFAULT_SEED),
                ) {
                    write(dir, &file, contents)?;
                }
            }
        }
        for e in experiments {
            println!("{e}");
        }
        Ok(())
    };

    match target.as_deref().unwrap_or("all") {
        "list" => {
            let width = figures::all_ids().map(str::len).max().unwrap_or(0);
            for entry in &figures::CATALOG {
                println!("{:width$}  {}", entry.id, entry.description);
            }
            Ok(())
        }
        "all" => {
            println!(
                "# PIM-malloc reproduction — all experiments ({} mode)\n",
                if quick { "quick" } else { "full" }
            );
            // Experiments are independent; the executor runs them on
            // its workers and returns them in catalogue (paper) order.
            let catalog = &figures::CATALOG;
            pim_sim::parallel_indexed(catalog.len(), |i| figures::run(catalog[i].id, quick, seed))
                .into_iter()
                .try_for_each(emit)
        }
        id if figures::is_known(id) => emit(figures::run(id, quick, seed)),
        other => Err(format!("unknown experiment `{other}`; try `repro list`")),
    }
}
