//! `perf` — the repository's benchmark: four workloads at fixed sizes and
//! rates, end-to-end metrics from an untraced run, per-layer metrics from a
//! traced one, and a correctness check of every answer path. See the
//! README beside `Cargo.toml` for the workloads, metrics and how to read
//! the output.

mod batch_cold;
mod common;
mod compare;
mod gen;
mod ingest;
mod json;
mod metrics;
mod net;
mod probes;
mod procfs;
mod serve;
mod spans;
mod stats;

use common::Opts;
use metrics::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage:
  perf --workload <serve_uniform|serve_zipf|batch_cold|ingest_mixed|all> --seed <u64>
       [--seconds <1..60>] [--trace <0|1>] [--smoke] [--out <file>]
  perf compare <a.jsonl> <b.jsonl>

The first form runs one workload (or, with `all`, each in a process of
its own), prints every metric by name with its unit, and ends with one
JSON result line; `--out` appends that line, tagged with workload, seed
and trace, to a file `compare` reads. It exits non-zero if any answer,
conservation or durability check fails.";

struct Args {
    workload: String,
    opts: Opts,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 24.0;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            smoke,
        },
        out,
    })
}

fn run_workload(name: &str, opts: &Opts) -> RunResult {
    match name {
        "serve_uniform" => serve::run(opts, false),
        "serve_zipf" => serve::run(opts, true),
        "batch_cold" => batch_cold::run(opts),
        "ingest_mixed" => ingest::run(opts),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// Runs every workload in a child process of its own, so that each one's
/// peak memory is its own, relaying their output.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let child_args: Vec<String> = args
            .iter()
            .map(|a| {
                if a == "all" {
                    name.to_string()
                } else {
                    a.clone()
                }
            })
            .collect();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("start a child run");
        if !status.success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {failed:?}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.workload == "all" {
        return run_all(&args);
    }

    let opts = parsed.opts;
    let result = run_workload(&parsed.workload, &opts);
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}{}",
        parsed.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        if opts.smoke { " (smoke)" } else { "" },
    );
    for note in &result.notes {
        println!("{note}");
    }
    print!("{}", result.table(defs, false));
    if !opts.trace {
        println!("reported, not gated:");
        print!("{}", result.table(PER_LAYER, true));
    }
    println!(
        "attempted {} failed {} ({} violations)",
        result.attempted,
        result.failed,
        result.violations.len()
    );
    for v in &result.violations {
        println!("VIOLATION: {v}");
    }
    let line = result.json_line(defs);
    if let Some(path) = &parsed.out {
        let tagged = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            parsed.workload,
            opts.seed,
            u8::from(opts.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(tagged.as_bytes()))
            .unwrap_or_else(|e| panic!("append to {path}: {e}"));
    }
    println!("{line}");
    if result.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&args(
            "--workload batch_cold --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "batch_cold");
        assert_eq!(a.opts.seed, 7);
        assert_eq!(a.opts.seconds, 20.0);
        assert!(a.opts.trace && !a.opts.smoke);
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload all")).is_err());
        assert!(parse_args(&args("--workload all --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload all --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload all --seed")).is_err());
    }
}
