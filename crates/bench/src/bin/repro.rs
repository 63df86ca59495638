//! Reproduces one experiment (`repro e1` … `repro e16`; see DESIGN.md §5)
//! or all of them in sequence (`repro all`).
//!
//! Use `NNQ_SCALE=0.1` for a quick smoke run.
use nnq_bench::experiments::EXPERIMENTS;
use nnq_bench::Scale;
use std::time::Instant;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| arg == "all" || name.eq_ignore_ascii_case(&arg))
        .collect();
    if chosen.is_empty() {
        let names: Vec<_> = EXPERIMENTS
            .iter()
            .map(|(name, _)| name.to_lowercase())
            .collect();
        eprintln!("usage: repro <{}|all>", names.join("|"));
        std::process::exit(2);
    }
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let start = Instant::now();
    for (name, run) in &chosen {
        let t = Instant::now();
        for table in run(scale) {
            table.print();
        }
        if arg == "all" {
            eprintln!("[{name} finished in {:.1}s]", t.elapsed().as_secs_f64());
        }
    }
    if arg == "all" {
        eprintln!(
            "\nAll experiments finished in {:.1}s (NNQ_SCALE = {scale}).",
            start.elapsed().as_secs_f64()
        );
    }
}
