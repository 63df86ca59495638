//! Bad invocations of the real `nnq` binary: each exits 2 with a message
//! naming the offending flag. None may panic (exit 101), print a made-up
//! average, or run with a flag silently dropped.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A 2 000-point dataset with a single-tree and a 4-partition index over
/// it, in a directory of its own that is removed on drop.
struct Fixture {
    dir: PathBuf,
    data: String,
    index: String,
    parted: String,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("nnq-usage-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |f: &str| dir.join(f).to_str().unwrap().to_string();
        let fx = Self {
            data: path("pts.csv"),
            index: path("pts.rtree"),
            parted: path("parted.rtree"),
            dir,
        };
        for argv in [
            vec!["gen", "--kind", "uniform", "--n", "2000", "--out", &fx.data],
            vec!["build", "--input", &fx.data, "--index", &fx.index],
            vec![
                "build",
                "--input",
                &fx.data,
                "--index",
                &fx.parted,
                "--method",
                "hilbert",
                "--partitions",
                "4",
            ],
        ] {
            let out = nnq(&argv);
            assert!(out.status.success(), "{argv:?}: {}", stderr(&out));
        }
        fx
    }

    /// `cmd --index <single tree> --data <data>` followed by `extra`.
    fn single(&self, cmd: &str, extra: &[&str]) -> Output {
        let mut argv = vec![cmd, "--index", &self.index, "--data", &self.data];
        argv.extend_from_slice(extra);
        nnq(&argv)
    }

    /// [`Fixture::single`] on the partitioned index.
    fn parted(&self, cmd: &str, extra: &[&str]) -> Output {
        let mut argv = vec![cmd, "--index", &self.parted, "--data", &self.data];
        argv.extend_from_slice(extra);
        nnq(&argv)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn nnq(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nnq"))
        .args(argv)
        .output()
        .unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts a usage error (exit 2, no output) whose message contains `want`.
fn assert_usage(out: &Output, want: &str, what: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "{what}: {err}");
    assert!(err.contains(want), "{what}: {err}");
    assert!(!err.contains("panicked"), "{what}: {err}");
    assert!(
        out.stdout.is_empty(),
        "{what}: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn zero_k_is_a_usage_error_on_every_subcommand() {
    let fx = Fixture::new("k");
    let want = "flag `--k` must be at least 1";
    let at = ["--at", "50000,50000", "-k", "0"];
    assert_usage(&fx.single("query", &at), want, "query");
    assert_usage(&fx.parted("query", &at), want, "query, partitioned");
    assert_usage(&fx.single("bench", &["-k", "0"]), want, "bench");
    assert_usage(
        &fx.parted("bench", &["-k", "0"]),
        want,
        "bench, partitioned",
    );
    assert_usage(
        &nnq(&["explain", "--index", &fx.index, "--at", "1,1", "-k", "0"]),
        want,
        "explain",
    );
    let join = [
        "join", "--index", &fx.index, "--data", &fx.data, "--outer", &fx.data, "-k", "0",
    ];
    assert_usage(&nnq(&join), want, "join");
}

#[test]
fn zero_queries_is_a_usage_error() {
    let fx = Fixture::new("queries");
    let want = "flag `--queries` must be at least 1";
    assert_usage(&fx.single("bench", &["--queries", "0"]), want, "bench");
    assert_usage(
        &fx.parted("bench", &["--queries", "0"]),
        want,
        "bench, partitioned",
    );
    // One query is the smallest batch, and its averages are real numbers.
    let out = fx.parted("bench", &["--queries", "1"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(text.contains("1 queries (k = 10)"), "{text}");
    assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
}

#[test]
fn unknown_and_removed_flags_are_refused() {
    fn with<'a>(flag: &'a str, value: &'a str) -> [&'a str; 4] {
        ["--at", "50000,50000", flag, value]
    }
    let fx = Fixture::new("flags");
    assert_usage(
        &fx.single("query", &with("--bogus", "3")),
        "unknown flag `--bogus`",
        "bogus",
    );
    // A typo is refused, not dropped.
    assert_usage(
        &fx.single("query", &with("--partition", "4")),
        "unknown flag `--partition`",
        "typo",
    );
    assert_usage(
        &fx.single("query", &with("--kernel", "scalar")),
        "unknown flag `--kernel`",
        "kernel",
    );
    // Generalized metrics are gone: a query ranks by Euclidean distance.
    assert_usage(
        &fx.single("query", &with("--metric", "l1")),
        "unknown flag `--metric`",
        "metric",
    );
    // The index's manifest, not a flag, says how many partitions it has.
    for (flag, value) in [("--tune", "adaptive"), ("--partitions", "4")] {
        for cmd in ["query", "bench", "serve"] {
            assert_usage(
                &fx.parted(cmd, &[flag, value]),
                &format!("unknown flag `{flag}`"),
                cmd,
            );
        }
    }
    // The batch deadline is gone: the batcher takes what is queued. No
    // index is named, so a binary that still took the flag fails on the
    // missing `--index` instead of serving.
    for value in ["100", "soon"] {
        assert_usage(
            &nnq(&["serve", "--batch-deadline-us", value]),
            "unknown flag `--batch-deadline-us`",
            value,
        );
    }
    // A flag one subcommand takes is still unknown to another.
    assert_usage(
        &nnq(&["stats", "--index", &fx.index, "--threads", "2"]),
        "unknown flag `--threads`",
        "stats --threads",
    );
    // The usage line of the command comes with the error.
    let err = stderr(&fx.single("bench", &["--radius", "5"]));
    assert!(err.contains("nnq bench  --index <FILE>"), "{err}");
    // `-k` and `--k` are the same listed flag.
    for k in ["-k", "--k"] {
        let out = fx.single("query", &with(k, "2"));
        assert!(out.status.success(), "{k}: {}", stderr(&out));
    }
}

#[test]
fn a_negative_or_non_finite_radius_is_a_usage_error() {
    let fx = Fixture::new("radius");
    let want = "flag `--radius` must be a finite number ≥ 0";
    for r in ["-1", "-0.5", "nan", "inf", "-inf", "1e999", "wide"] {
        let at = ["--at", "50000,50000", "--radius", r];
        assert_usage(&fx.single("query", &at), want, &format!("--radius {r}"));
        assert_usage(
            &fx.parted("query", &at),
            want,
            &format!("--radius {r}, partitioned"),
        );
    }
    // Zero is a radius: the query answers (with whatever lies on the point).
    let out = fx.single("query", &["--at", "50000,50000", "--radius", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn a_non_finite_point_is_a_usage_error() {
    let fx = Fixture::new("point");
    let want = "flag `--at`: bad number";
    for at in ["1,nan", "inf,1", "-inf,1", "1,1e999"] {
        let q = ["--at", at];
        assert_usage(&fx.single("query", &q), want, &format!("query --at {at}"));
        assert_usage(
            &fx.parted("query", &q),
            want,
            &format!("query --at {at}, partitioned"),
        );
        assert_usage(
            &nnq(&["explain", "--index", &fx.index, "--at", at]),
            want,
            &format!("explain --at {at}"),
        );
    }
}
