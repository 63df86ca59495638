//! `perf compare a.jsonl b.jsonl`: one row per workload and metric over two
//! sets of runs (files written with `--out`), judged against the metric's
//! bound. A is the baseline.

use crate::json::{self, Value};
use crate::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound, so a change of
    /// the size of the bound cannot be told from noise.
    Unresolved,
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two runs.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, med, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// How B's median compares with A's: the share of A's median by which it
/// is worse (negative when better), and the verdict under `def.bound`.
pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if def.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let noise = spread(a).max(spread(b));
    let every_b_beats_every_a = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if def.higher_is_better { y > x } else { y < x })
    });
    let verdict = if noise > def.bound {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > def.bound {
        Verdict::Worse
    } else if -worse_by > noise && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// (workload, traced, metric) -> one value per run; plus the runs that
/// reported themselves incorrect.
type Runs = BTreeMap<(String, bool, String), Vec<f64>>;

fn load(path: &str) -> Result<(Runs, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    let mut incorrect = 0;
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", no + 1))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("{path}:{}: no {k:?}", no + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_f64() == Some(1.0);
        let result = field("result")?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            incorrect += 1;
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                runs.entry((workload.clone(), traced, name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((runs, incorrect))
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, med, q3)) => format!("{med:.4} [{q1:.4} .. {q3:.4}] n={}", values.len()),
        None => format!("{:.4} n={}", median(values), values.len()),
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let ((a, bad_a), (b, bad_b)) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut worse = 0;
    println!("A = {path_a} (baseline), B = {path_b}; median [quartiles] runs; ratio = B median / A median");
    for workload in WORKLOADS {
        for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            for def in defs {
                let key = (workload.to_string(), traced, def.name.to_string());
                let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                    continue;
                };
                let ratio = median(vb) / median(va);
                let judged = if traced {
                    "reported, not gated".to_string()
                } else {
                    let (worse_by, verdict) = judge(def, va, vb);
                    worse += usize::from(verdict == Verdict::Worse);
                    format!(
                        "worse by {:+.4} of A, bound {:.2}: {verdict:?}",
                        worse_by, def.bound
                    )
                };
                println!(
                    "{workload:<14} {:<40} {:<6} A {:<44} B {:<44} ratio {ratio:.4}  {judged}",
                    def.name,
                    def.unit,
                    summary(va),
                    summary(vb),
                );
            }
        }
    }
    if bad_a + bad_b > 0 {
        println!("{bad_a} runs of A and {bad_b} runs of B failed their correctness checks");
    }
    if worse + bad_a + bad_b > 0 {
        println!("{worse} metrics worse");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a bound of 0.10, whatever the benchmark's own are.
    fn def(higher_is_better: bool) -> Def {
        Def {
            name: "m",
            unit: "u",
            higher_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let qps = &def(true);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let (by, v) = judge(qps, &steady, &[85.0, 86.0, 84.0, 85.5, 84.5]);
        assert!((by - 0.15).abs() < 1e-9);
        assert_eq!(v, Verdict::Worse);
        assert_eq!(
            judge(qps, &steady, &[97.0, 98.0, 96.0, 97.5, 96.5]).1,
            Verdict::Same
        );
        assert_eq!(
            judge(qps, &steady, &[120.0, 121.0, 119.0, 120.5, 119.5]).1,
            Verdict::Better
        );
        // A side that spreads wider than the bound resolves nothing...
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(qps, &noisy, &[80.0, 81.0, 79.0, 80.5, 79.5]).1,
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(qps, &noisy, &[150.0, 151.0, 149.0, 150.5, 149.5]).1,
            Verdict::Better
        );

        let lat = &def(false);
        assert_eq!(
            judge(lat, &steady, &[115.0, 116.0, 114.0, 115.5, 114.5]).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(lat, &steady, &[80.0, 81.0, 79.0, 80.5, 79.5]).1,
            Verdict::Better
        );
        // Single runs: no spread is known, the bound alone decides.
        assert_eq!(judge(lat, &[100.0], &[105.0]).1, Verdict::Same);
        assert_eq!(judge(lat, &[100.0], &[111.0]).1, Verdict::Worse);
    }

    #[test]
    fn result_files_load_by_workload_trace_and_metric() {
        let path = std::env::temp_dir().join(format!("perf-compare-{}.jsonl", std::process::id()));
        let line = |seed: u64, qps: f64, correct: bool| {
            format!(
                "{{\"workload\": \"serve_zipf\", \"seed\": {seed}, \"trace\": 0, \"result\": {{\"correct\": {correct}, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"qps_sat\": {{\"value\": {qps}, \"unit\": \"1/s\"}}}}}}}}\n"
            )
        };
        std::fs::write(&path, line(1, 10.0, true) + "\n" + &line(2, 12.0, false)).unwrap();
        let (runs, incorrect) = load(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(incorrect, 1);
        let key = ("serve_zipf".to_string(), false, "qps_sat".to_string());
        assert_eq!(runs.get(&key), Some(&vec![10.0, 12.0]));
        assert!(load("/nonexistent/file").is_err());
    }
}
