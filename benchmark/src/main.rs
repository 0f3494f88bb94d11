//! The management-plane benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! runs one workload in this process and prints, as the last line of its
//! standard output, one JSON object `{correct, attempted, failed, metrics}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced layer sweep with `--trace 1`.  Without `--workload` it runs every
//! workload, each in its own child process, one after another, and prints a
//! table a person can read; with `--check` it does that twice with one seed
//! and fails unless the two sets agree.  See `README.md`.

mod check;
mod fixtures;
mod layers;
mod machine;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Run length the op counts in `BENCHMARK.json` were sized for.
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
    /// Internal: run one section of the traced sweep in this process.
    section: Option<String>,
}

fn usage() -> String {
    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark [--workload <{}>] --seed <u64> [--seconds <n>] [--trace <0|1>] [--check]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        section: None,
    };
    let mut seed_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--check" => args.check = true,
            "--section" => args.section = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seed_given {
        return Err("--seed is required: it decides goal order, churn victims and faults".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return if args.check {
            check::run(args.seed, args.seconds)
        } else {
            report::run_all(args.seed, args.seconds)
        };
    };
    let Some(workload) = workloads::find(name) else {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    if let Some(section) = &args.section {
        report::section_run(section, workload.name, args.seed)
    } else if args.trace {
        report::traced_run(workload, args.seed)
    } else {
        report::untraced_run(workload, args.seed, args.seconds)
    }
}
