//! The benchmark's metric names — the same lists `BENCHMARK.json` holds
//! (a unit test keeps the two equal) — and the result of one run.

use crate::stats::Cycles;
use std::fmt::Write as _;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before `compare` calls it a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    e2e(name, unit, higher_is_better, 0.0)
}

pub const WORKLOADS: [&str; 4] = ["serve_uniform", "serve_zipf", "batch_cold", "ingest_mixed"];

/// What a user of the system sees. Every workload reports every one; what
/// `alt_ops_s`, `lat_a_p50_us` and `lat_b_p50_us` measure on each workload
/// is in the README's table. The bounds are as wide as they are because
/// this two-thread shared host drifts by a tenth within twenty minutes.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("qps_sat", "1/s", true, 0.25),
    e2e("alt_ops_s", "1/s", true, 0.25),
    e2e("cpu_us_per_req", "us", false, 0.25),
    e2e("lat_a_p50_us", "us", false, 0.25),
    e2e("lat_b_p50_us", "us", false, 0.25),
    e2e("pages_per_query", "pages", false, 0.08),
    e2e("peak_rss_mib", "MiB", false, 0.15),
];

/// Single layers, measured from outside in the `--trace 1` run. A layer a
/// workload does not reach reports 0.
pub const PER_LAYER: &[Def] = &[
    layer("geom.kernels.mindist_ns_per_entry", "ns", false),
    layer("geom.kernels.minmaxdist_ns_per_entry", "ns", false),
    layer("geom.kernels.entries_per_query", "count", false),
    layer("rtree.store.read_node_hit_ns", "ns", false),
    layer("rtree.store.read_node_decode_ns", "ns", false),
    layer("rtree.store.node_cache_hit_rate", "ratio", true),
    layer("storage.pool.fetch_hit_ns", "ns", false),
    layer("storage.pool.fetch_miss_ns", "ns", false),
    layer("storage.pool.hit_rate", "ratio", true),
    layer("storage.pool.phys_reads_per_query", "count", false),
    layer("storage.pool.evictions_per_query", "count", false),
    layer("storage.pool.prefetch_useful_rate", "ratio", true),
    layer("storage.pool.prefetch_issued_per_query", "count", false),
    layer("storage.pool.checkpoint_ms", "ms", false),
    layer("storage.wal.bytes_per_op", "B", false),
    layer("storage.wal.syncs_per_txn", "count", false),
    layer("storage.disk.writes_per_op", "count", false),
    layer("rtree.tree.insert_many_us_per_record", "us", false),
    layer("rtree.tree.delete_us", "us", false),
    layer("rtree.tree.snapshot_ns", "ns", false),
    layer("rtree.tree.pages_alloc_per_op", "count", false),
    layer("rtree.tree.index_bytes_per_record", "B", false),
    layer("rtree.bulk.load_s", "s", false),
    layer("core.branch_bound.knn_us_per_query", "us", false),
    layer("core.radius.us_per_query", "us", false),
    layer("core.branch_bound.nodes_per_query", "count", false),
    layer("core.branch_bound.pruned_share", "ratio", true),
    layer("core.parallel.batch32_us", "us", false),
    layer("core.parallel.scale_2t", "ratio", true),
    layer("core.parallel.worker_imbalance", "ratio", false),
    layer("core.scatter.partitions_visited_per_query", "count", false),
    layer("core.scatter.us_per_query_warm", "us", false),
    layer("core.result_cache.lookup_hit_ns", "ns", false),
    layer("core.result_cache.lookup_miss_ns", "ns", false),
    layer("core.result_cache.insert_ns", "ns", false),
    layer("core.result_cache.hit_rate", "ratio", true),
    layer("core.result_cache.evictions_per_req", "count", false),
    layer("serve.protocol.req_decode_ns", "ns", false),
    layer("serve.protocol.resp_encode_ns", "ns", false),
    layer("serve.inbox.admit_drain_ns", "ns", false),
    layer("serve.server.ping_rtt_us", "us", false),
    layer("serve.server.avg_batch_r2", "count", true),
    layer("serve.server.avg_batch_sat", "count", true),
    layer("serve.server.dedup_share", "ratio", true),
    layer("serve.server.replay_self_us", "us", false),
    layer("serve.server.unattributed_us", "us", false),
    layer("serve.server.rate_ok_qps", "1/s", true),
    layer("serve.server.r3_p50_us", "us", false),
    layer("serve.server.r3_reject_share", "ratio", false),
    layer("serve.server.lat_r2_p99_us", "us", false),
    layer("serve.server.lat_r1_p999_us", "us", false),
    layer("ingest.read_p99_us", "us", false),
    layer("ingest.commit_p99_us", "us", false),
    layer("lat_a_tail_us", "us", false),
    layer("lat_b_tail_us", "us", false),
    layer("fail_share", "ratio", false),
    layer("gen.late_p99_us", "us", false),
    layer("host.ref_mops", "Mop/s", true),
    layer("trace.overhead_share", "ratio", false),
];

/// What one run of one workload produced.
#[derive(Default)]
pub struct RunResult {
    pub metrics: Vec<(&'static str, Cycles)>,
    /// Operations attempted and failed (rejected, errored, unanswered,
    /// wrong, or lost by the durability check) in the gated phases.
    pub attempted: u64,
    pub failed: u64,
    /// Every check that failed; empty means the run was correct.
    pub violations: Vec<String>,
    /// Free-form lines printed above the metric table.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.cycles(name, Cycles(vec![value]));
    }

    pub fn cycles(&mut self, name: &'static str, values: Cycles) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "{name} reported twice"
        );
        self.metrics.push((name, values));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c.median())
    }

    /// Fails the run's correctness unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The metric table: one line per metric of `defs`, by name, with its
    /// unit and the spread of its per-cycle values; `only_set` leaves out
    /// the metrics this run has no value for.
    pub fn table(&self, defs: &[Def], only_set: bool) -> String {
        let mut out = String::new();
        for d in defs {
            let Some((_, c)) = self.metrics.iter().find(|(n, _)| *n == d.name) else {
                if only_set {
                    continue;
                }
                writeln!(
                    out,
                    "{:<44} {:>14} {:<6} (layer not on this workload's path)",
                    d.name, 0, d.unit
                )
                .expect("write to String");
                continue;
            };
            write!(out, "{:<44} {:>14.4} {:<6}", d.name, c.median(), d.unit)
                .expect("write to String");
            if c.0.len() > 1 {
                write!(
                    out,
                    " [{:.4} .. {:.4} over {}]",
                    c.min(),
                    c.max(),
                    c.0.len()
                )
                .expect("write to String");
            }
            out.push('\n');
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `defs` (0 where the run has none).
    pub fn json_line(&self, defs: &[Def]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self.value(d.name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` and the tables above must name the same metrics,
    /// units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
                let bound = entry.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
            }
        }
        let names: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = RunResult::default();
        r.cycles("qps_sat", Cycles(vec![3.0, 1.0, 2.0]));
        r.set("setup_s", 0.5);
        r.attempted = 10;
        let doc = json::parse(&r.json_line(END_TO_END)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let qps = doc.get("metrics").and_then(|m| m.get("qps_sat")).unwrap();
        assert_eq!(qps.get("value").and_then(Value::as_f64), Some(2.0));
        r.check(false, || "broken".into());
        let doc = json::parse(&r.json_line(END_TO_END)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert!(r.table(END_TO_END, false).contains("peak_rss_mib"));
        assert!(!r.table(END_TO_END, true).contains("peak_rss_mib"));
    }
}
