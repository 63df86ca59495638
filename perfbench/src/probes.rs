//! Unit-cost probes for the leaf layers, run only in `--trace 1` runs.
//! Inside a traversal their calls cannot be told apart from outside, so
//! each public function is timed alone on the workload's own tree;
//! multiplied by the counts of the same run (`entries_per_query`,
//! `nodes_per_query`, ..) they bound what a change to that layer can save.

use crate::common::{answer, ok_response, Opts};
use crate::gen;
use crate::metrics::RunResult;
use crate::spans::{self, Span};
use nnq_core::{BatchQuery, CachedAnswer, ResultCache};
use nnq_geom::{mindist_sq_batch, minmaxdist_sq_batch};
use nnq_rtree::RTree;
use nnq_serve::{Inbox, Request, ServeConfig};
use nnq_storage::PageId;
use std::hint::black_box;
use std::time::Instant;

/// Nodes probed: the first of the tree in breadth-first order.
const NODES: usize = 256;

fn ns_per(start: Instant, count: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / count.max(1) as f64
}

/// The first `NODES` pages of `tree`, breadth first from the root.
fn first_pages(tree: &RTree<2>) -> Vec<PageId> {
    let mut pages = vec![tree.root()];
    let mut at = 0;
    while at < pages.len() && pages.len() < NODES {
        let node = tree.read_node(pages[at]).expect("read node");
        if !node.is_leaf() {
            pages.extend(node.entries().iter().map(|e| e.child()));
        }
        at += 1;
    }
    pages.truncate(NODES);
    pages
}

/// geom.kernels, rtree.store, storage.pool and `snapshot`, on `tree`.
/// Leaves the pool and the node cache warm for these pages only.
pub fn tree_layers(res: &mut RunResult, tree: &RTree<2>, opts: &Opts) {
    let reps = if opts.smoke { 20 } else { 200 };
    let pages = first_pages(tree);
    let nodes: Vec<_> = pages
        .iter()
        .map(|&p| tree.read_node(p).expect("read node"))
        .collect();
    let entries: usize = nodes.iter().map(|n| n.entries().len()).sum();
    let seed = opts.sub_seed(0x9B0B);

    let mut out = Vec::new();
    for (name, kernel) in [
        (
            "geom.kernels.mindist_ns_per_entry",
            mindist_sq_batch::<2> as fn(&_, &_, &mut _),
        ),
        (
            "geom.kernels.minmaxdist_ns_per_entry",
            minmaxdist_sq_batch::<2>,
        ),
    ] {
        let start = Instant::now();
        for rep in 0..reps {
            let q = gen::point_at(seed, rep as u64);
            for node in &nodes {
                kernel(black_box(&q), node.soa(), &mut out);
                black_box(&out);
            }
        }
        res.set(name, ns_per(start, reps * entries));
    }

    let start = Instant::now();
    for _ in 0..reps {
        for &p in &pages {
            black_box(tree.read_node(p).expect("read node"));
        }
    }
    res.set(
        "rtree.store.read_node_hit_ns",
        ns_per(start, reps * pages.len()),
    );

    // Decode + SoA build: node cache emptied, pool still holding the pages.
    let rounds = reps / 10;
    let mut decode_ns = 0.0;
    for _ in 0..rounds {
        tree.store().clear_node_cache();
        let start = Instant::now();
        for &p in &pages {
            black_box(tree.read_node(p).expect("read node"));
        }
        decode_ns += ns_per(start, pages.len());
    }
    res.set("rtree.store.read_node_decode_ns", decode_ns / rounds as f64);

    let pool = tree.pool();
    let start = Instant::now();
    for _ in 0..reps {
        for &p in &pages {
            black_box(pool.fetch(p).expect("fetch")[0]);
        }
    }
    res.set(
        "storage.pool.fetch_hit_ns",
        ns_per(start, reps * pages.len()),
    );
    let mut miss_ns = 0.0;
    for _ in 0..rounds {
        pool.clear_cache().expect("clear pool cache");
        let start = Instant::now();
        for &p in &pages {
            black_box(pool.fetch(p).expect("fetch")[0]);
        }
        miss_ns += ns_per(start, pages.len());
    }
    res.set("storage.pool.fetch_miss_ns", miss_ns / rounds as f64);

    let start = Instant::now();
    for _ in 0..reps * NODES {
        black_box(tree.snapshot());
    }
    res.set("rtree.tree.snapshot_ns", ns_per(start, reps * NODES));
}

/// core.result_cache, serve.protocol and serve.inbox, on real requests
/// and their real answers.
pub fn serve_layers(res: &mut RunResult, tree: &RTree<2>, queries: Vec<BatchQuery<2>>) {
    let config = ServeConfig::default();
    let answers: Vec<CachedAnswer<2>> = queries
        .iter()
        .map(|q| {
            let (hits, stats) = answer(tree, q);
            CachedAnswer { hits, stats }
        })
        .collect();
    let (present, absent) = queries.split_at(queries.len() / 2);
    let reps = 20;

    let cache = ResultCache::<2>::new(config.result_cache);
    for (q, a) in present.iter().zip(&answers) {
        cache.insert(&q.canonical_key(), 1, a.clone());
    }
    for (name, set) in [
        ("core.result_cache.lookup_hit_ns", present),
        ("core.result_cache.lookup_miss_ns", absent),
    ] {
        let start = Instant::now();
        for _ in 0..reps {
            for q in set {
                black_box(cache.lookup(&q.canonical_key(), 1));
            }
        }
        res.set(name, ns_per(start, reps * set.len()));
    }
    // Inserts of new keys at changing versions: each takes a free slot or
    // evicts, like the fill of a missed request.
    let start = Instant::now();
    for rep in 0..reps {
        for (q, a) in queries.iter().zip(&answers) {
            cache.insert(&q.canonical_key(), 2 + rep as u64, a.clone());
        }
    }
    res.set(
        "core.result_cache.insert_ns",
        ns_per(start, reps * queries.len()),
    );

    let frames: Vec<Vec<u8>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| gen::wire_request(i as u64, q).encode())
        .collect();
    let start = Instant::now();
    for _ in 0..reps {
        for f in &frames {
            black_box(Request::decode(f).expect("own frame"));
        }
    }
    res.set(
        "serve.protocol.req_decode_ns",
        ns_per(start, reps * frames.len()),
    );
    let responses: Vec<_> = answers
        .iter()
        .enumerate()
        .map(|(i, a)| ok_response(i as u64, &(a.hits.clone(), a.stats)))
        .collect();
    let mut wire = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        for r in &responses {
            r.encode_into(&mut wire);
            black_box(&wire);
        }
    }
    res.set(
        "serve.protocol.resp_encode_ns",
        ns_per(start, reps * responses.len()),
    );

    // A full batch is queued before each drain, so the drain returns at
    // once: queue mechanics without the deadline wait.
    let inbox = Inbox::<u64>::new(config.inbox_cap);
    let batches = 2_000;
    let start = Instant::now();
    for b in 0..batches {
        for i in 0..config.batch_max {
            black_box(inbox.try_admit((b * config.batch_max + i) as u64));
        }
        black_box(inbox.drain_batch(config.batch_max, config.batch_deadline));
    }
    res.set(
        "serve.inbox.admit_drain_ns",
        ns_per(start, batches * config.batch_max),
    );
}

/// Writes the run's spans to `target/perf/<workload>.trace.json` and
/// returns a summary of self time per span name for the report.
pub fn write_trace(workload: &str, spans: &[Span]) -> String {
    let dir = std::path::Path::new("target/perf");
    std::fs::create_dir_all(dir).expect("create target/perf");
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, spans::to_json(spans)).expect("write the trace");
    let mut note = format!(
        "{} spans written to {}; self time by span name:",
        spans.len(),
        path.display()
    );
    for (name, count, self_ns) in spans::self_time_by_name(spans) {
        note.push_str(&format!(
            "\n  {name:<28} {count:>8} spans {:>12.3} ms self {:>10.3} us each",
            self_ns as f64 / 1e6,
            self_ns as f64 / 1e3 / count as f64
        ));
    }
    note
}
