//! Reproduces one experiment (`repro e1` … `repro e16`; see DESIGN.md §5)
//! or all of them in sequence (`repro all`).
//!
//! Use `NNQ_SCALE=0.1` for a quick smoke run.
use nnq_bench::experiments::{run_all, EXPERIMENTS};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "all" {
        return run_all();
    }
    let named = |(name, _): &&(&str, fn())| name.eq_ignore_ascii_case(&arg);
    match EXPERIMENTS.iter().find(named) {
        Some((_, run)) => run(),
        None => {
            let names: Vec<_> = EXPERIMENTS
                .iter()
                .map(|(name, _)| name.to_lowercase())
                .collect();
            eprintln!("usage: repro <{}|all>", names.join("|"));
            std::process::exit(2);
        }
    }
}
