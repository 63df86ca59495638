//! The paper's tables as a golden: every deterministic column of the
//! reproduction experiments (pages, reads, nodes, pruning counts, hit
//! rates, fill, overlap and their ratios) at full precision, compared
//! with `tests/golden/eN.txt`. Wall-clock columns are left out, and so
//! is E13, whose table depends on the host's thread count.
//!
//! Each experiment runs at the smallest scale at which it still measures
//! something: E5's and E12's smallest buffers hold less than their tree.
//!
//! On a mismatch the test writes what it got under the test target's
//! temporary directory and prints the `cp` command that accepts it.

use nnq_bench::experiments::*;
use nnq_bench::table::Table;
use nnq_bench::Scale;
use std::path::Path;

fn check(name: &str, run: Experiment, scale: &str) {
    let scale = Scale::parse(scale).expect("a scale in range");
    let actual: String = run(scale).iter().map(Table::render_exact).collect();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual == expected {
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("create the output directory");
    let got = dir.join(format!("{name}.txt"));
    std::fs::write(&got, &actual).expect("write the actual table");
    let line = |text: &str, i: usize| text.lines().nth(i).unwrap_or("<end>").to_string();
    let n = expected.lines().count().max(actual.lines().count());
    let i = (0..n)
        .find(|&i| line(&expected, i) != line(&actual, i))
        .unwrap_or(n);
    panic!(
        "{name} differs from its golden at line {}\n  golden: {}\n  actual: {}\n\
         if the change is intended, accept it with\n  cp {} {}",
        i + 1,
        line(&expected, i),
        line(&actual, i),
        got.display(),
        golden.display()
    );
}

#[test]
fn e1_pages_vs_k() {
    check("e1", e1, "0.01");
}

#[test]
fn e2_abl_ordering() {
    check("e2", e2, "0.01");
}

#[test]
fn e3_pruning_ablation() {
    check("e3", e3, "0.01");
}

#[test]
fn e4_pages_vs_size() {
    check("e4", e4, "0.01");
}

#[test]
fn e5_buffer_size() {
    check("e5", e5, "0.05");
}

#[test]
fn e6_vs_scan() {
    check("e6", e6, "0.01");
}

#[test]
fn e7_build_method() {
    check("e7", e7, "0.01");
}

#[test]
fn e8_algorithms() {
    check("e8", e8, "0.01");
}

#[test]
fn e9_page_size() {
    check("e9", e9, "0.01");
}

#[test]
fn e10_query_distribution() {
    check("e10", e10, "0.01");
}

#[test]
fn e11_backends() {
    check("e11", e11, "0.01");
}

#[test]
fn e12_join_order() {
    check("e12", e12, "0.05");
}

#[test]
fn e14_refinement_io() {
    check("e14", e14, "0.01");
}

#[test]
fn e15_approximate() {
    check("e15", e15, "0.01");
}

#[test]
fn e16_intersection_join() {
    check("e16", e16, "0.01");
}
