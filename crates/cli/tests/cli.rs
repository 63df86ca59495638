//! End-to-end tests of the `nnq` tool, driving [`nnq_cli::run`] directly.

use nnq_cli::{run, CliError};

fn argv(s: &[&str]) -> Vec<String> {
    s.iter().map(|s| s.to_string()).collect()
}

fn run_ok(s: &[&str]) -> String {
    let mut out = Vec::new();
    run(&argv(s), &mut out).unwrap_or_else(|e| panic!("command {s:?} failed: {e}"));
    String::from_utf8(out).unwrap()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("nnq-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn full_workflow_gen_build_stats_query_bench() {
    let data = tmp("roads.csv");
    let index = tmp("roads.rtree");

    let out = run_ok(&[
        "gen", "--kind", "tiger", "--n", "5000", "--seed", "3", "--out", &data,
    ]);
    assert!(out.contains("5000 tiger segments"), "{out}");

    let out = run_ok(&[
        "build", "--input", &data, "--index", &index, "--method", "str",
    ]);
    assert!(out.contains("5000 entries"), "{out}");

    let out = run_ok(&["stats", "--index", &index]);
    assert!(out.contains("entries:      5000"), "{out}");
    assert!(out.contains("height:"), "{out}");

    let out = run_ok(&[
        "query",
        "--index",
        &index,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "-k",
        "3",
    ]);
    assert!(out.contains("3 results"), "{out}");
    assert!(out.contains("segment #"), "{out}");

    // Radius query.
    let out = run_ok(&[
        "query",
        "--index",
        &index,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "--radius",
        "5000",
    ]);
    assert!(out.contains("results"), "{out}");

    let out = run_ok(&[
        "bench",
        "--index",
        &index,
        "--data",
        &data,
        "--queries",
        "50",
        "-k",
        "5",
    ]);
    assert!(out.contains("µs/query"), "{out}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn dynamic_builds_work_too() {
    let data = tmp("pts.csv");
    let index = tmp("pts.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "2000", "--out", &data]);
    for method in ["linear", "quadratic", "rstar", "hilbert"] {
        let out = run_ok(&[
            "build", "--input", &data, "--index", &index, "--method", method,
        ]);
        assert!(out.contains("2000 entries"), "{method}: {out}");
    }
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn knn_results_are_sorted_and_k_limited() {
    let data = tmp("clustered.csv");
    let index = tmp("clustered.rtree");
    run_ok(&["gen", "--kind", "clustered", "--n", "3000", "--out", &data]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    let out = run_ok(&[
        "query",
        "--index",
        &index,
        "--data",
        &data,
        "--at",
        "1000,1000",
        "-k",
        "7",
    ]);
    let dists: Vec<f64> = out
        .lines()
        .filter_map(|l| l.split("dist ").nth(1))
        .map(|d| d.trim().parse().unwrap())
        .collect();
    assert_eq!(dists.len(), 7, "{out}");
    assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{out}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn a_k_beyond_the_data_returns_every_object() {
    // Through the binary: a k that the executor tried to preallocate for
    // aborted the process instead of returning.
    let data = tmp("huge-k.csv");
    let index = tmp("huge-k.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "2000", "--out", &data]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    let nnq = |cmd: &str, extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nnq"))
            .args([
                cmd,
                "--index",
                &index,
                "--data",
                &data,
                "-k",
                "100000000000",
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{cmd}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let out = nnq("query", &["--at", "1,2"]);
    assert!(out.contains("(2000 results"), "{out}");
    let out = nnq("bench", &["--queries", "3"]);
    assert!(out.contains("3 queries (k = 100000000000)"), "{out}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown command.
    let mut out = Vec::new();
    assert!(matches!(
        run(&argv(&["frobnicate"]), &mut out),
        Err(CliError::Usage(_))
    ));
    // Missing flags.
    assert!(matches!(
        run(&argv(&["gen", "--kind", "tiger"]), &mut out),
        Err(CliError::Usage(_))
    ));
    // Bad kind.
    assert!(matches!(
        run(
            &argv(&["gen", "--kind", "volcanic", "--out", "/tmp/x"]),
            &mut out
        ),
        Err(CliError::Usage(_))
    ));
    // Nonexistent index file.
    assert!(matches!(
        run(&argv(&["stats", "--index", "/nonexistent/idx"]), &mut out),
        Err(CliError::Run(_))
    ));
    // Help prints usage.
    let mut out = Vec::new();
    run(&argv(&["help"]), &mut out).unwrap();
    assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    // No command at all.
    assert!(matches!(run(&[], &mut Vec::new()), Err(CliError::Usage(_))));
}

#[test]
fn query_rejects_mismatched_data_file() {
    let data = tmp("a.csv");
    let other = tmp("b.csv");
    let index = tmp("a.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "500", "--out", &data]);
    run_ok(&["gen", "--kind", "uniform", "--n", "400", "--out", &other]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    let mut out = Vec::new();
    let err = run(
        &argv(&["query", "--index", &index, "--data", &other, "--at", "0,0"]),
        &mut out,
    )
    .unwrap_err();
    assert!(err.to_string().contains("wrong pairing"), "{err}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&other).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn bench_rejects_a_data_file_that_does_not_match_the_index() {
    let data = tmp("pair.csv");
    let short = tmp("pair-short.csv");
    let index = tmp("pair.rtree");
    let parted = tmp("pair-parted.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "3000", "--out", &data]);
    run_ok(&["gen", "--kind", "uniform", "--n", "500", "--out", &short]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    run_ok(&[
        "build",
        "--input",
        &data,
        "--index",
        &parted,
        "--method",
        "hilbert",
        "--partitions",
        "4",
    ]);
    // The real binary: a refiner indexing past the data file would panic
    // (exit 101) where the check exits 1 with its message.
    for (idx, extra) in [(&index, vec![]), (&parted, vec!["--threads", "2"])] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nnq"))
            .args(["bench", "--index", idx, "--data", &short, "--queries", "50"])
            .args(&extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr
                .contains("index has 3000 entries but data file has 500 segments — wrong pairing?"),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
    for path in [&data, &short, &index] {
        std::fs::remove_file(path).ok();
    }
    for i in 0..4 {
        std::fs::remove_file(format!("{parted}.p{i}")).ok();
    }
    std::fs::remove_file(format!("{parted}.manifest")).ok();
}

#[test]
fn a_corrupt_manifest_is_an_error_not_a_panic() {
    let data = tmp("corrupt.csv");
    let parted = tmp("corrupt-parted.rtree");
    let manifest = format!("{parted}.manifest");
    run_ok(&["gen", "--kind", "uniform", "--n", "500", "--out", &data]);
    run_ok(&[
        "build",
        "--input",
        &data,
        "--index",
        &parted,
        "--method",
        "hilbert",
        "--partitions",
        "4",
    ]);
    let good = std::fs::read_to_string(&manifest).unwrap();
    // A partition count the file does not back with part lines: the
    // largest one, and one line short.
    let short: String = good
        .lines()
        .take(good.lines().count() - 1)
        .collect::<Vec<_>>()
        .join("\n");
    for bad in [
        good.replace("partitions 4", "partitions 18446744073709551615"),
        short,
    ] {
        std::fs::write(&manifest, &bad).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nnq"))
            .args(["query", "--index", &parted, "--data", &data])
            .args(["--at", "1,1"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad}: {stderr}");
        assert!(stderr.contains("manifest"), "{bad}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad}: {stderr}");
    }
    std::fs::remove_file(&data).ok();
    for i in 0..4 {
        std::fs::remove_file(format!("{parted}.p{i}")).ok();
    }
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn a_partition_written_after_its_build_is_still_read() {
    // `ingest` commits to a partition file as to any tree. The manifest
    // records P alone, so what the build counted cannot refuse the
    // partitioned reads that follow.
    let nnq = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nnq"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let (built, extra, all) = (tmp("live.csv"), tmp("live-extra.csv"), tmp("live-all.csv"));
    let parted = tmp("live-parted.rtree");
    nnq(&["gen", "--kind", "uniform", "--n", "1000", "--out", &built]);
    nnq(&[
        "gen", "--kind", "uniform", "--n", "5", "--seed", "7", "--out", &extra,
    ]);
    nnq(&[
        "build",
        "--input",
        &built,
        "--index",
        &parted,
        "--method",
        "hilbert",
        "--partitions",
        "2",
    ]);
    let p0 = format!("{parted}.p0");
    nnq(&[
        "ingest",
        "--input",
        &extra,
        "--index",
        &p0,
        "--id-base",
        "1000",
    ]);
    // The data file holds every record: the built ones, then the ingested.
    let extra_text = std::fs::read_to_string(&extra).unwrap();
    std::fs::write(&all, std::fs::read_to_string(&built).unwrap() + &extra_text).unwrap();

    let first = extra_text.lines().find(|l| !l.starts_with('#')).unwrap();
    let at = first.split(',').take(2).collect::<Vec<_>>().join(",");
    let read = ["--data", &all];
    let out = nnq(&[&["query", "--index", &parted, "--at", &at][..], &read].concat());
    assert!(out.contains("1. segment #1000 "), "{out}");
    let out = nnq(&[&["bench", "--index", &parted, "--queries", "50"][..], &read].concat());
    assert!(
        out.contains("50 queries (k = 10) over 2 partition(s)"),
        "{out}"
    );

    for file in [&built, &extra, &all, &p0] {
        std::fs::remove_file(file).ok();
    }
    std::fs::remove_file(format!("{parted}.p1")).ok();
    std::fs::remove_file(format!("{parted}.manifest")).ok();
}

#[test]
fn explain_and_join_queries() {
    let data = tmp("ext.csv");
    let outer = tmp("ext-outer.csv");
    let index = tmp("ext.rtree");
    run_ok(&["gen", "--kind", "tiger", "--n", "3000", "--out", &data]);
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "200", "--seed", "9", "--out", &outer,
    ]);
    run_ok(&["build", "--input", &data, "--index", &index]);

    // Explain shows the decision trace.
    let out = run_ok(&[
        "explain",
        "--index",
        &index,
        "--at",
        "50000,50000",
        "-k",
        "2",
    ]);
    assert!(out.contains("node page#"), "{out}");
    assert!(out.contains("pruned"), "{out}");

    // Join runs both orderings and reports pairs.
    let out = run_ok(&[
        "join", "--index", &index, "--data", &data, "--outer", &outer, "-k", "2",
    ]);
    assert!(out.contains("as-given"), "{out}");
    assert!(out.contains("hilbert"), "{out}");
    assert!(out.contains("400 pairs"), "{out}"); // 200 outer * k=2

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&outer).ok();
    std::fs::remove_file(&index).ok();
}

/// `join` runs the outer points in two orderings on one opened index; each
/// line reports the node reads of its own pass. The first pass decodes
/// every node it reads, and the second finds all of them decoded in the
/// pool's frames.
#[test]
fn join_reports_each_orderings_own_node_cache_rate() {
    let data = tmp("joinrate.csv");
    let outer = tmp("joinrate-outer.csv");
    let index = tmp("joinrate.rtree");
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "2000", "--seed", "4", "--out", &data,
    ]);
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "3", "--seed", "5", "--out", &outer,
    ]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_nnq"))
        .args([
            "join", "--index", &index, "--data", &data, "--outer", &outer, "-k", "4",
        ])
        .output()
        .unwrap();
    assert!(run.status.success(), "{run:?}");
    let out = String::from_utf8(run.stdout).unwrap();
    let line = |label: &str| {
        out.lines()
            .find(|l| l.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no `{label}` line: {out}"))
            .to_string()
    };
    assert!(!line("as-given:").ends_with("node-cache 100.0%"), "{out}");
    assert!(line("hilbert:").ends_with("node-cache 100.0%"), "{out}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&outer).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn threads_and_pool_shards_flags() {
    let data = tmp("par.csv");
    let index = tmp("par.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "4000", "--out", &data]);
    run_ok(&["build", "--input", &data, "--index", &index]);

    // Extracts the "<x> pages/query" figure from the bench stats line —
    // the paper's metric, which must not move with threads or shards.
    let bench_pages = |threads: &str, shards: &str| -> (String, String) {
        let out = run_ok(&[
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--queries",
            "50",
            "--threads",
            threads,
            "--pool-shards",
            shards,
        ]);
        let pages = out
            .lines()
            .next()
            .unwrap()
            .split(", ")
            .find(|f| f.ends_with("pages/query"))
            .unwrap()
            .to_string();
        (pages, out)
    };
    let (pages_base, out) = bench_pages("1", "1");
    assert!(out.contains("1 thread(s), 1 pool shard(s)"), "{out}");
    for (threads, shards) in [("4", "1"), ("1", "8"), ("4", "8")] {
        let (pages, out) = bench_pages(threads, shards);
        assert_eq!(
            pages, pages_base,
            "threads={threads} shards={shards}: {out}"
        );
        assert!(
            out.contains(&format!("{threads} thread(s), {shards} pool shard(s)")),
            "{out}"
        );
    }

    // Query accepts both flags and reports them with the pool hit rate.
    let out = run_ok(&[
        "query",
        "--index",
        &index,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "-k",
        "3",
        "--threads",
        "2",
        "--pool-shards",
        "4",
    ]);
    assert!(
        out.contains("2 thread(s), 4 pool shard(s), pool hit rate"),
        "{out}"
    );

    // Bad values are usage errors on both commands.
    let mut sink = Vec::new();
    for bad in [
        vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--threads",
            "0",
        ],
        vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--pool-shards",
            "0",
        ],
        vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--pool-shards",
            "3",
        ],
        vec![
            "query",
            "--index",
            &index,
            "--data",
            &data,
            "--at",
            "0,0",
            "--threads",
            "0",
        ],
        vec![
            "query",
            "--index",
            &index,
            "--data",
            &data,
            "--at",
            "0,0",
            "--pool-shards",
            "6",
        ],
        vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--threads",
            "two",
        ],
    ] {
        assert!(
            matches!(run(&argv(&bad), &mut sink), Err(CliError::Usage(_))),
            "expected usage error for {bad:?}"
        );
    }

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn prefetch_and_io_latency_flags() {
    let data = tmp("pf.csv");
    let index = tmp("pf.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "4000", "--out", &data]);
    run_ok(&["build", "--input", &data, "--index", &index]);

    // Bench: the paper's pages/query metric must not move with prefetch,
    // and the stats line reports useful/wasted counts and the useful rate.
    let bench_out = |extra: &[&str]| -> String {
        let mut args = vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--queries",
            "40",
        ];
        args.extend_from_slice(extra);
        run_ok(&args)
    };
    let pages = |out: &str| -> String {
        out.lines()
            .next()
            .unwrap()
            .split(", ")
            .find(|f| f.ends_with("pages/query"))
            .unwrap()
            .to_string()
    };
    let base = bench_out(&[]);
    assert!(!base.contains("prefetch"), "{base}");
    let pf = bench_out(&["--prefetch", "adaptive", "--io-lat-us", "20"]);
    assert_eq!(pages(&pf), pages(&base), "{pf}");
    assert!(pf.contains("prefetch adaptive:"), "{pf}");
    assert!(pf.contains("useful"), "{pf}");
    assert!(pf.contains("wasted"), "{pf}");

    // The partitioned bench prints the same line, summed over every
    // partition's pool; its interleaved batches leave pages/query alone.
    // (A plain index beside it under the same name would be refused.)
    std::fs::remove_file(&index).unwrap();
    run_ok(&[
        "build",
        "--input",
        &data,
        "--index",
        &index,
        "--method",
        "hilbert",
        "--partitions",
        "4",
    ]);
    let parted = |extra: &[&str]| -> String {
        let mut args = vec!["--threads", "2"];
        args.extend_from_slice(extra);
        bench_out(&args)
    };
    let base = parted(&[]);
    assert!(!base.contains("prefetch"), "{base}");
    let pf = parted(&["--prefetch", "adaptive", "--io-lat-us", "20"]);
    assert_eq!(pages(&pf), pages(&base), "{pf}");
    let line = pf
        .lines()
        .find(|l| l.starts_with("prefetch adaptive:"))
        .unwrap_or_else(|| panic!("no prefetch line: {pf}"));
    assert!(
        line.contains("issued") && line.contains("useful rate"),
        "{pf}"
    );
    for i in 0..4 {
        std::fs::remove_file(format!("{index}.p{i}")).ok();
    }
    std::fs::remove_file(format!("{index}.manifest")).ok();

    // Bad values are usage errors on both commands; `query` runs one
    // query, which never interleaves, and takes no `--prefetch` at all.
    let mut sink = Vec::new();
    for bad in [
        vec![
            "query",
            "--index",
            &index,
            "--data",
            &data,
            "--at",
            "0,0",
            "--prefetch",
            "adaptive",
        ],
        vec![
            "query",
            "--index",
            &index,
            "--data",
            &data,
            "--at",
            "0,0",
            "--io-lat-us",
            "fast",
        ],
        vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--prefetch",
            "deep",
        ],
        vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--prefetch",
            "4",
        ],
        vec![
            "bench",
            "--index",
            &index,
            "--data",
            &data,
            "--io-lat-us",
            "-1",
        ],
    ] {
        assert!(
            matches!(run(&argv(&bad), &mut sink), Err(CliError::Usage(_))),
            "expected usage error for {bad:?}"
        );
    }

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn ingest_and_delete_roundtrip_with_wal() {
    let base = tmp("ing-base.csv");
    let extra = tmp("ing-extra.csv");
    let index = tmp("ing.rtree");
    let wal = tmp("ing.wal");

    run_ok(&[
        "gen", "--kind", "uniform", "--n", "1500", "--seed", "5", "--out", &base,
    ]);
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "400", "--seed", "6", "--out", &extra,
    ]);
    run_ok(&[
        "build",
        "--input",
        &base,
        "--index",
        &index,
        "--method",
        "quadratic",
    ]);

    // Journaled ingest of a second dataset under a disjoint id range.
    let out = run_ok(&[
        "ingest",
        "--input",
        &extra,
        "--index",
        &index,
        "--wal",
        &wal,
        "--group-commit-us",
        "0",
        "--id-base",
        "1000000",
    ]);
    assert!(out.contains("ingested 400 entries"), "{out}");
    assert!(out.contains("1900 total"), "{out}");
    assert!(out.contains("wal syncs"), "{out}");

    let out = run_ok(&["stats", "--index", &index]);
    assert!(out.contains("entries:      1900"), "{out}");

    // Journaled delete of exactly what was ingested restores the count;
    // a second delete finds nothing (idempotent from the caller's view).
    let out = run_ok(&[
        "delete",
        "--input",
        &extra,
        "--index",
        &index,
        "--wal",
        &wal,
        "--id-base",
        "1000000",
    ]);
    assert!(out.contains("deleted 400 entries"), "{out}");
    assert!(out.contains("1500 total"), "{out}");
    let out = run_ok(&[
        "delete",
        "--input",
        &extra,
        "--index",
        &index,
        "--wal",
        &wal,
        "--id-base",
        "1000000",
    ]);
    assert!(out.contains("deleted 0 entries"), "{out}");
    assert!(out.contains("400 not found"), "{out}");

    // The mutated index still answers queries.
    let out = run_ok(&[
        "query",
        "--index",
        &index,
        "--data",
        &base,
        "--at",
        "50000,50000",
        "-k",
        "3",
    ]);
    assert!(out.contains("3 results"), "{out}");

    for f in [&base, &extra, &index, &wal] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn partitioned_build_query_bench_match_single_tree() {
    let data = tmp("part.csv");
    let single = tmp("part-single.rtree");
    let parted = tmp("part-multi.rtree");
    run_ok(&[
        "gen", "--kind", "tiger", "--n", "4000", "--seed", "11", "--out", &data,
    ]);
    run_ok(&[
        "build", "--input", &data, "--index", &single, "--method", "hilbert",
    ]);
    let out = run_ok(&[
        "build",
        "--input",
        &data,
        "--index",
        &parted,
        "--method",
        "hilbert",
        "--partitions",
        "4",
    ]);
    assert!(out.contains("4 partition(s)"), "{out}");
    assert!(out.contains("manifest"), "{out}");
    for i in 0..4 {
        assert!(
            std::path::Path::new(&format!("{parted}.p{i}")).exists(),
            "missing partition file {i}"
        );
    }
    assert!(std::path::Path::new(&format!("{parted}.manifest")).exists());

    // kNN and radius hits are identical to the single tree, for both
    // sequential and parallel scatter.
    let hits = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.contains("segment #"))
            .map(str::to_string)
            .collect()
    };
    let single_knn = run_ok(&[
        "query",
        "--index",
        &single,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "-k",
        "5",
    ]);
    for threads in ["1", "4"] {
        let out = run_ok(&[
            "query",
            "--index",
            &parted,
            "--data",
            &data,
            "--at",
            "50000,50000",
            "-k",
            "5",
            "--threads",
            threads,
        ]);
        assert_eq!(hits(&out), hits(&single_knn), "threads={threads}: {out}");
        assert!(out.contains("partition(s) visited"), "{out}");
    }
    let single_radius = run_ok(&[
        "query",
        "--index",
        &single,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "--radius",
        "4000",
    ]);
    let parted_radius = run_ok(&[
        "query",
        "--index",
        &parted,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "--radius",
        "4000",
    ]);
    assert_eq!(
        hits(&parted_radius),
        hits(&single_radius),
        "{parted_radius}"
    );

    // Bench runs the scatter-gather batch path and reports the partition
    // accounting; pages/query must be thread-invariant.
    let bench = |threads: &str| -> String {
        run_ok(&[
            "bench",
            "--index",
            &parted,
            "--data",
            &data,
            "--queries",
            "40",
            "-k",
            "5",
            "--threads",
            threads,
        ])
    };
    let pages = |out: &str| -> String {
        out.lines()
            .next()
            .unwrap()
            .split(", ")
            .find(|f| f.ends_with("pages/query"))
            .unwrap()
            .to_string()
    };
    let b1 = bench("1");
    assert!(b1.contains("4 partition(s)"), "{b1}");
    assert!(b1.contains("visited/query"), "{b1}");
    let b4 = bench("4");
    assert_eq!(pages(&b1), pages(&b4), "{b1}\n{b4}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&single).ok();
    for i in 0..4 {
        std::fs::remove_file(format!("{parted}.p{i}")).ok();
    }
    std::fs::remove_file(format!("{parted}.manifest")).ok();
}

#[test]
fn partitioned_flag_validation() {
    let data = tmp("partv.csv");
    let index = tmp("partv.rtree");
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "600", "--seed", "2", "--out", &data,
    ]);
    let mut sink = Vec::new();
    // Zero / non-numeric partition counts are usage errors.
    for bad in ["0", "four", "-2"] {
        assert!(
            matches!(
                run(
                    &argv(&[
                        "build",
                        "--input",
                        &data,
                        "--index",
                        &index,
                        "--method",
                        "hilbert",
                        "--partitions",
                        bad,
                    ]),
                    &mut sink
                ),
                Err(CliError::Usage(_))
            ),
            "expected usage error for --partitions {bad}"
        );
    }
    // Dynamic-insertion methods cannot partition.
    assert!(matches!(
        run(
            &argv(&[
                "build",
                "--input",
                &data,
                "--index",
                &index,
                "--method",
                "quadratic",
                "--partitions",
                "4",
            ]),
            &mut sink
        ),
        Err(CliError::Usage(_))
    ));
    run_ok(&[
        "build",
        "--input",
        &data,
        "--index",
        &index,
        "--method",
        "str",
        "--partitions",
        "4",
    ]);
    std::fs::remove_file(&data).ok();
    for i in 0..4 {
        std::fs::remove_file(format!("{index}.p{i}")).ok();
    }
    std::fs::remove_file(format!("{index}.manifest")).ok();
}

#[test]
fn ingest_groups_records_into_batched_txns() {
    let data = tmp("gc.csv");
    let index = tmp("gc.rtree");
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "600", "--seed", "4", "--out", &data,
    ]);
    run_ok(&["build", "--input", &data, "--index", &index]);

    // A zero window degenerates to one COW transaction per record.
    let out = run_ok(&[
        "ingest",
        "--input",
        &data,
        "--index",
        &index,
        "--group-commit-us",
        "0",
        "--id-base",
        "10000",
    ]);
    assert!(out.contains("ingested 600 entries"), "{out}");
    assert!(out.contains("600 txns"), "{out}");

    // A wide window batches every record arriving inside it into one
    // transaction — far fewer commits than records.
    let out = run_ok(&[
        "ingest",
        "--input",
        &data,
        "--index",
        &index,
        "--group-commit-us",
        "1000000",
        "--id-base",
        "20000",
    ]);
    assert!(out.contains("ingested 600 entries"), "{out}");
    let txns: u64 = out
        .split(", ")
        .find_map(|f| f.strip_suffix(" txns"))
        .unwrap_or_else(|| panic!("no txn count in {out}"))
        .parse()
        .unwrap();
    assert!(txns < 600, "expected batching, got {txns} txns: {out}");
    assert!(out.contains("1800 total"), "{out}");

    // The batched path leaves a queryable tree behind.
    let out = run_ok(&["stats", "--index", &index]);
    assert!(out.contains("entries:      1800"), "{out}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

/// Polls a `--port-file` until the serving thread writes the bound port.
fn wait_port(path: &str) -> u16 {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            if let Ok(p) = s.trim().parse() {
                return p;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never reported its port in {path}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn serve_flag_validation() {
    // Every flag is validated before the listener binds or the index
    // opens, so bad values fail fast as usage errors with no index file
    // present at all.
    let mut sink = Vec::new();
    for bad in [
        vec!["serve", "--threads", "0"],
        vec!["serve", "--threads", "two"],
        vec!["serve", "--batch-max", "0"],
        vec!["serve", "--batch-max", "lots"],
        vec!["serve", "--inbox-cap", "0"],
        vec!["serve", "--port", "notaport"],
        vec!["serve", "--port", "70000"], // > u16::MAX
        vec!["serve", "--pool-shards", "3"],
        vec!["serve", "--prefetch", "sometimes"],
        vec!["serve", "--prefetch", "2"],
        vec!["serve"], // missing --index
    ] {
        assert!(
            matches!(run(&argv(&bad), &mut sink), Err(CliError::Usage(_))),
            "expected usage error for {bad:?}"
        );
    }
}

#[test]
fn serve_answers_like_query_and_reports_stats_on_shutdown() {
    use nnq_serve::{Client, Request, Response};

    let data = tmp("srv.csv");
    let index = tmp("srv.rtree");
    let port_file = tmp("srv.port");
    std::fs::remove_file(&port_file).ok();
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "3000", "--seed", "21", "--out", &data,
    ]);
    run_ok(&[
        "build", "--input", &data, "--index", &index, "--method", "str",
    ]);

    // Sequential baseline for the same query point.
    let seq = run_ok(&[
        "query",
        "--index",
        &index,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "-k",
        "5",
    ]);
    let seq_ids: Vec<u64> = seq
        .lines()
        .filter_map(|l| l.split("segment #").nth(1))
        .map(|rest| rest.split_whitespace().next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(seq_ids.len(), 5, "{seq}");
    let seq_reads: u64 = seq
        .lines()
        .find(|l| l.contains("nodes read"))
        .and_then(|l| l.split(" results, ").nth(1))
        .and_then(|r| r.split(" nodes read").next())
        .unwrap()
        .parse()
        .unwrap();

    let server = {
        let args = argv(&[
            "serve",
            "--index",
            &index,
            "--data",
            &data,
            "--port",
            "0",
            "--port-file",
            &port_file,
            "--threads",
            "2",
            "--batch-max",
            "8",
        ]);
        std::thread::spawn(move || -> Result<String, CliError> {
            let mut out = Vec::new();
            run(&args, &mut out)?;
            Ok(String::from_utf8(out).unwrap())
        })
    };
    let port = wait_port(&port_file);
    let mut client = Client::connect(("127.0.0.1", port)).unwrap();

    // Liveness check.
    match client.call(&Request::Ping { id: 7 }).unwrap() {
        Response::Pong { id } => assert_eq!(id, 7),
        other => panic!("expected pong, got {other:?}"),
    }

    // kNN over the wire returns the same neighbors — and the same
    // logical reads (the paper's pages-accessed metric) — as `nnq query`.
    let resp = client
        .call(&Request::Knn {
            id: 1,
            x: 50000.0,
            y: 50000.0,
            k: 5,
        })
        .unwrap();
    let Response::Ok {
        id,
        logical_reads,
        hits,
    } = resp
    else {
        panic!("expected ok, got {resp:?}");
    };
    assert_eq!(id, 1);
    let got_ids: Vec<u64> = hits.iter().map(|h| h.record).collect();
    assert_eq!(got_ids, seq_ids);
    assert_eq!(logical_reads, seq_reads);
    assert!(
        hits.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq),
        "{hits:?}"
    );

    // Radius query works over the same connection.
    let resp = client
        .call(&Request::Radius {
            id: 2,
            x: 50000.0,
            y: 50000.0,
            radius: 3000.0,
        })
        .unwrap();
    let Response::Ok { id, .. } = resp else {
        panic!("expected ok, got {resp:?}");
    };
    assert_eq!(id, 2);

    // A negative radius is answered with an error response (not a hang,
    // not a dropped connection) and the connection stays usable.
    let resp = client
        .call(&Request::Radius {
            id: 3,
            x: 0.0,
            y: 0.0,
            radius: -1.0,
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Error { id: 3, .. }),
        "expected error, got {resp:?}"
    );
    match client.call(&Request::Ping { id: 8 }).unwrap() {
        Response::Pong { id } => assert_eq!(id, 8),
        other => panic!("expected pong, got {other:?}"),
    }

    // Shutdown drains and acknowledges, then the command returns with
    // the stats lines.
    let resp = client.call(&Request::Shutdown).unwrap();
    assert!(matches!(resp, Response::Bye), "got {resp:?}");
    let out = server.join().unwrap().unwrap();
    assert!(out.contains("serving"), "{out}");
    assert!(out.contains("serve done: 2 served"), "{out}");
    assert!(out.contains("1 errors"), "{out}");
    assert!(out.contains("0 rejected"), "{out}");
    assert!(out.contains("1 connection(s)"), "{out}");
    assert!(out.contains("batches"), "{out}");
    // The batcher's write count: present, and at most one write per
    // served response (2 served).
    let writes: u64 = out
        .split(" socket write(s)")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no socket write count in {out}"));
    assert!((1..=2).contains(&writes), "{out}");
    assert!(out.contains("responses per write"), "{out}");
    assert!(out.contains("pool: hit rate"), "{out}");
    assert!(out.contains("node cache:"), "{out}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
    std::fs::remove_file(&port_file).ok();
}

#[test]
fn serve_partitioned_engine_smoke() {
    use nnq_serve::{Client, Request, Response};

    let data = tmp("srvp.csv");
    let index = tmp("srvp.rtree");
    let port_file = tmp("srvp.port");
    std::fs::remove_file(&port_file).ok();
    run_ok(&[
        "gen", "--kind", "tiger", "--n", "3000", "--seed", "23", "--out", &data,
    ]);
    run_ok(&[
        "build",
        "--input",
        &data,
        "--index",
        &index,
        "--method",
        "hilbert",
        "--partitions",
        "4",
    ]);
    let seq = run_ok(&[
        "query",
        "--index",
        &index,
        "--data",
        &data,
        "--at",
        "50000,50000",
        "-k",
        "5",
    ]);
    let seq_ids: Vec<u64> = seq
        .lines()
        .filter_map(|l| l.split("segment #").nth(1))
        .map(|rest| rest.split_whitespace().next().unwrap().parse().unwrap())
        .collect();

    let server = {
        let args = argv(&[
            "serve",
            "--index",
            &index,
            "--data",
            &data,
            "--port",
            "0",
            "--port-file",
            &port_file,
            "--threads",
            "2",
        ]);
        std::thread::spawn(move || -> Result<String, CliError> {
            let mut out = Vec::new();
            run(&args, &mut out)?;
            Ok(String::from_utf8(out).unwrap())
        })
    };
    let port = wait_port(&port_file);
    let mut client = Client::connect(("127.0.0.1", port)).unwrap();
    let resp = client
        .call(&Request::Knn {
            id: 1,
            x: 50000.0,
            y: 50000.0,
            k: 5,
        })
        .unwrap();
    let Response::Ok { hits, .. } = resp else {
        panic!("expected ok, got {resp:?}");
    };
    let got: Vec<u64> = hits.iter().map(|h| h.record).collect();
    assert_eq!(got, seq_ids);
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    let out = server.join().unwrap().unwrap();
    assert!(out.contains("serve done: 1 served"), "{out}");
    assert!(out.contains("4 partition(s)"), "{out}");

    std::fs::remove_file(&data).ok();
    for i in 0..4 {
        std::fs::remove_file(format!("{index}.p{i}")).ok();
    }
    std::fs::remove_file(format!("{index}.manifest")).ok();
    std::fs::remove_file(&port_file).ok();
}

#[test]
fn ingest_without_wal_and_unjournaled_flags() {
    let data = tmp("plain.csv");
    let index = tmp("plain.rtree");
    run_ok(&[
        "gen", "--kind", "uniform", "--n", "500", "--seed", "8", "--out", &data,
    ]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    let out = run_ok(&[
        "ingest",
        "--input",
        &data,
        "--index",
        &index,
        "--id-base",
        "5000",
    ]);
    assert!(out.contains("ingested 500 entries"), "{out}");
    assert!(out.contains("1000 total"), "{out}");
    assert!(!out.contains("wal syncs"), "{out}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

/// The real binary's exit code and stderr for `args`.
fn nnq_fails(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nnq"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_file_that_cannot_be_opened_is_named() {
    let data = tmp("named.csv");
    let index = tmp("named.rtree");
    let nope = tmp("named-nope");
    run_ok(&["gen", "--kind", "uniform", "--n", "300", "--out", &data]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    let at = ["--at", "1,1"];
    for args in [
        [&["query", "--index", &nope, "--data", &data][..], &at].concat(),
        vec!["stats", "--index", &nope],
        vec!["explain", "--index", &nope, "--at", "1,1"],
        [&["query", "--index", &index, "--data", &nope][..], &at].concat(),
        vec!["bench", "--index", &index, "--data", &nope],
        vec!["build", "--input", &nope, "--index", &index],
        vec!["ingest", "--input", &data, "--index", &nope],
        vec!["join", "--index", &index, "--data", &data, "--outer", &nope],
    ] {
        let (code, stderr) = nnq_fails(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("opening {nope}: ")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

/// Builds `<index>` over `data` as a 4-partition Hilbert index.
fn build_parted(data: &str, index: &str) {
    run_ok(&[
        "build",
        "--input",
        data,
        "--index",
        index,
        "--method",
        "hilbert",
        "--partitions",
        "4",
    ]);
}

fn remove_parted(index: &str) {
    for i in 0..4 {
        std::fs::remove_file(format!("{index}.p{i}")).ok();
    }
    std::fs::remove_file(format!("{index}.manifest")).ok();
}

#[test]
fn open_rule_a_missing_partition_file_names_the_manifest_and_the_file() {
    let data = tmp("lost.csv");
    let parted = tmp("lost-parted.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "800", "--out", &data]);
    build_parted(&data, &parted);
    let lost = format!("{parted}.p1");
    std::fs::remove_file(&lost).unwrap();
    let at = ["--at", "1,1"];
    for args in [
        [&["query", "--index", &parted, "--data", &data][..], &at].concat(),
        vec!["bench", "--index", &parted, "--data", &data],
        vec!["serve", "--index", &parted, "--data", &data, "--port", "0"],
        vec!["stats", "--index", &parted],
    ] {
        let (code, stderr) = nnq_fails(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        let want = format!("{parted}.manifest names 4 partitions but {lost} does not exist");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&data).ok();
    remove_parted(&parted);
}

#[test]
fn open_rule_a_plain_and_a_partitioned_index_under_one_name_are_refused() {
    let data = tmp("twice.csv");
    let index = tmp("twice.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "800", "--out", &data]);
    run_ok(&["build", "--input", &data, "--index", &index]);
    build_parted(&data, &index);
    let (code, stderr) = nnq_fails(&["query", "--index", &index, "--data", &data, "--at", "1,1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("plain index {index} ")),
        "{stderr}"
    );
    assert!(stderr.contains(&format!("{index}.manifest")), "{stderr}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
    remove_parted(&index);
}

#[test]
fn open_rule_an_index_from_an_earlier_build_opens_with_no_flag_and_answers_alike() {
    let data = tmp("v3.csv");
    let single = tmp("v3-single.rtree");
    let parted = tmp("v3-parted.rtree");
    run_ok(&[
        "gen", "--kind", "tiger", "--n", "2000", "--seed", "5", "--out", &data,
    ]);
    run_ok(&[
        "build", "--input", &data, "--index", &single, "--method", "hilbert",
    ]);
    build_parted(&data, &parted);
    // The manifest exactly as every earlier v3 build wrote it: the page
    // files' format is the tree's own.
    let v3 = "nnq-partition-manifest v3\npartitions 4\n";
    std::fs::write(format!("{parted}.manifest"), v3).unwrap();
    let hits = |index: &str, extra: &[&str]| -> Vec<String> {
        let args = [&["query", "--index", index, "--data", &data][..], extra].concat();
        let out = run_ok(&args);
        let hits: Vec<String> = out
            .lines()
            .filter(|l| l.contains("segment #"))
            .map(str::to_string)
            .collect();
        assert!(!hits.is_empty(), "{out}");
        hits
    };
    for extra in [
        &["--at", "50000,50000", "-k", "7"][..],
        &["--at", "20000,70000", "--radius", "3000"],
    ] {
        assert_eq!(hits(&parted, extra), hits(&single, extra), "{extra:?}");
    }
    let out = run_ok(&[
        "bench",
        "--index",
        &parted,
        "--data",
        &data,
        "--queries",
        "20",
    ]);
    assert!(out.contains("over 4 partition(s)"), "{out}");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&single).ok();
    remove_parted(&parted);
}

/// `stats` prints each tree of a partitioned index; the subcommands that
/// run on one tree refuse it, naming its manifest.
#[test]
fn single_tree_commands_name_the_manifest() {
    let data = tmp("single.csv");
    let parted = tmp("single-parted.rtree");
    run_ok(&["gen", "--kind", "uniform", "--n", "800", "--out", &data]);
    build_parted(&data, &parted);

    let out = run_ok(&["stats", "--index", &parted]);
    for i in 0..4 {
        assert!(
            out.contains(&format!("partition {i} of 4: {parted}.p{i}\n")),
            "{out}"
        );
    }
    let entries: u64 = out
        .lines()
        .filter_map(|l| l.strip_prefix("entries:"))
        .map(|v| v.trim().parse::<u64>().unwrap())
        .sum();
    assert_eq!(entries, 800, "{out}");

    let manifest = format!("{parted}.manifest");
    for args in [
        vec!["explain", "--index", &parted, "--at", "1,1"],
        vec![
            "join", "--index", &parted, "--data", &data, "--outer", &data,
        ],
        vec!["ingest", "--input", &data, "--index", &parted],
        vec!["delete", "--input", &data, "--index", &parted],
    ] {
        let (code, stderr) = nnq_fails(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&manifest), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&data).ok();
    remove_parted(&parted);
}
