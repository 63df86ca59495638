//! Wire-level contract of the snapshot-versioned result cache and the
//! intra-batch deduplication: enabling the cache, warming it, or merging
//! duplicate requests must never change a single response byte —
//! neighbor records, exact distance bits, and the `logical_reads` field
//! included. A cache hit replays the `SearchStats` its original
//! execution recorded, so even the accounting on the wire is identical.
//! Also pins the per-connection in-flight cap: a greedy pipeliner is
//! fast-rejected with a retry hint instead of filling the shared inbox.

use nnq_core::MbrRefiner;
use nnq_geom::Point;
use nnq_rtree::{BulkMethod, RTree, RTreeConfig};
use nnq_serve::{Client, Engine, Request, Response, ServeConfig, ServeReport, RETRY_AFTER_US};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, zipf_cluster_queries};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn build_tree(n: usize, seed: u64) -> (RTree<2>, Arc<BufferPool>) {
    let pts = uniform_points(n, &default_bounds(), seed);
    let items = points_to_items(&pts);
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 15));
    let tree = RTree::<2>::bulk_load(
        Arc::clone(&pool),
        RTreeConfig::default(),
        items,
        BulkMethod::Str,
        1.0,
    )
    .unwrap();
    (tree, pool)
}

/// A Zipf-skewed mixed kNN/radius request list — the workload a result
/// cache exists for: hot queries repeat.
fn zipf_requests(n: usize, seed: u64) -> Vec<Request> {
    let centers: Vec<Point<2>> = uniform_points(24, &default_bounds(), seed);
    let queries = zipf_cluster_queries(n, &centers, 0.9, 1_500.0, &default_bounds(), seed + 1);
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let id = i as u64;
            if i % 3 == 2 {
                Request::Radius {
                    id,
                    x: q[0],
                    y: q[1],
                    radius: 700.0 + (i % 4) as f64 * 500.0,
                }
            } else {
                Request::Knn {
                    id,
                    x: q[0],
                    y: q[1],
                    k: 1 + (i % 6) as u32,
                }
            }
        })
        .collect()
}

/// Runs one server over several strictly-ordered passes of requests on a
/// single pipelined connection: each pass is fully sent *and fully
/// answered* before the next begins, so a later pass's probes hit
/// whatever earlier passes memoized. Returns each pass's encoded
/// response bytes plus the final report.
fn serve_passes(
    tree: &RTree<2>,
    passes: &[&[Request]],
    config: &ServeConfig,
) -> (Vec<Vec<Vec<u8>>>, ServeReport) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        let mut all = Vec::new();
        for pass in passes {
            for req in *pass {
                client.send(req).unwrap();
            }
            let responses: Vec<Vec<u8>> = (0..pass.len())
                .map(|i| {
                    let resp = client.recv().unwrap();
                    assert!(
                        matches!(&resp, Response::Ok { id, .. } if *id == pass[i].id().unwrap()),
                        "request {i}: unexpected response {resp:?}"
                    );
                    resp.encode()
                })
                .collect();
            all.push(responses);
        }
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        let report = server.join().unwrap();
        let total: usize = passes.iter().map(|p| p.len()).sum();
        assert_eq!(report.served, total as u64);
        assert_eq!(report.rejected + report.errors + report.write_errors, 0);
        (all, report)
    })
}

/// The headline acceptance test: response bytes across result-cache
/// {off, on-cold, on-warm} × threads {1, 8} are all identical — the
/// cache is a latency knob, not a semantics knob. The second pass of the
/// cache-on runs is answered overwhelmingly from memoized entries
/// (`result_hits` proves it), yet its bytes — `logical_reads` field
/// included — match the cache-off run exactly.
#[test]
fn responses_bit_identical_across_cache_modes_and_threads() {
    let (tree, _pool) = build_tree(15_000, 71);
    let requests = zipf_requests(200, 73);
    // Two passes of the same ids: pass 0 is the cold pass (fills the
    // cache when enabled), pass 1 is the warm pass (hits it).
    let passes: [&[Request]; 2] = [&requests, &requests];

    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for threads in [1usize, 8] {
        for cache in [0usize, 1024] {
            let config = ServeConfig {
                threads,
                batch_max: 32,
                batch_deadline: Duration::from_micros(100),
                result_cache: cache,
                ..ServeConfig::default()
            };
            let (got, report) = serve_passes(&tree, &passes, &config);
            if cache == 0 {
                assert_eq!(
                    report.result_hits + report.result_inserts,
                    0,
                    "threads={threads}: a disabled cache must not serve or store"
                );
            } else {
                // Every warm-pass request finds its cold-pass entry (the
                // Zipf mix also hits within the cold pass whenever a hot
                // query repeats across batches).
                assert!(
                    report.result_hits >= requests.len() as u64,
                    "threads={threads}: warm pass should hit, got {} hits",
                    report.result_hits
                );
                assert_eq!(
                    report.result_stale, 0,
                    "threads={threads}: nothing commits, nothing may go stale"
                );
            }
            // Cold pass and warm pass are byte-identical to each other
            // and across every configuration.
            for (pass_no, pass) in got.iter().enumerate() {
                match &baseline {
                    None => baseline = Some(pass.clone()),
                    Some(want) => {
                        for (i, (g, w)) in pass.iter().zip(want).enumerate() {
                            assert_eq!(
                                g, w,
                                "cache={cache} threads={threads} pass={pass_no}: \
                                 response {i} not byte-identical"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Intra-batch deduplication at the wire level: one micro-batch full of
/// the same query under distinct request ids executes the traversal once
/// (`dedup_merged` counts the merges), yet every id gets its own
/// response, in admission order, with identical payloads. The cache is
/// off, isolating the dedup path.
#[test]
fn duplicate_requests_in_one_batch_answer_identically_in_order() {
    const COPIES: u64 = 16;
    let (tree, _pool) = build_tree(8_000, 79);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 4,
        // Size-triggered drain: the batch fires exactly when all COPIES
        // duplicates are admitted, so they share one micro-batch. The
        // long deadline keeps a partial batch from draining early.
        batch_max: COPIES as usize,
        batch_deadline: Duration::from_millis(500),
        result_cache: 0,
        ..ServeConfig::default()
    };
    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        for id in 0..COPIES {
            client
                .send(&Request::Knn {
                    id,
                    x: 41_000.0,
                    y: 58_000.0,
                    k: 5,
                })
                .unwrap();
        }
        let mut first: Option<(Vec<(u64, u64)>, u64)> = None;
        for want_id in 0..COPIES {
            let resp = client.recv().unwrap();
            let Response::Ok {
                id,
                logical_reads,
                hits,
            } = resp
            else {
                panic!("expected ok, got {resp:?}");
            };
            assert_eq!(id, want_id, "responses must come back in admission order");
            let answer: (Vec<(u64, u64)>, u64) = (
                hits.iter()
                    .map(|h| (h.record, h.dist_sq.to_bits()))
                    .collect(),
                logical_reads,
            );
            match &first {
                None => first = Some(answer),
                Some(want) => assert_eq!(
                    &answer, want,
                    "duplicate {want_id}: fanned-out answer diverged"
                ),
            }
        }
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        server.join().unwrap()
    });
    assert_eq!(report.served, COPIES);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.dedup_merged,
        COPIES - 1,
        "one batch of {COPIES} identical queries runs one traversal"
    );
}

/// Per-connection fairness: a pipeliner blasting past `max_in_flight`
/// while the batcher is deadline-parked gets explicit over-cap
/// rejections with a retry hint — the shared inbox stays available for
/// other connections — and the capped requests it did land are served.
#[test]
fn greedy_pipeliner_is_capped_with_fast_rejections() {
    const BURST: u64 = 12;
    const CAP: usize = 3;
    let (tree, _pool) = build_tree(4_000, 83);
    let queries = uniform_points(BURST as usize, &default_bounds(), 89);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 2,
        // The size trigger exceeds what the cap lets one connection
        // admit, so the batch waits out the full deadline — while the
        // burst arrives in well under that, guaranteeing the cap bites.
        batch_max: 64,
        batch_deadline: Duration::from_millis(300),
        inbox_cap: 1024,
        max_in_flight: CAP,
        ..ServeConfig::default()
    };
    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let queries = &queries;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        for id in 0..BURST {
            let q = &queries[id as usize];
            client
                .send(&Request::Knn {
                    id,
                    x: q[0],
                    y: q[1],
                    k: 3,
                })
                .unwrap();
        }
        let mut ok = 0u64;
        let mut rejected = 0u64;
        for _ in 0..BURST {
            match client.recv().expect("every request gets an answer") {
                Response::Ok { .. } => ok += 1,
                Response::Rejected {
                    retry_after_us,
                    shutting_down,
                    ..
                } => {
                    assert_eq!(
                        retry_after_us, RETRY_AFTER_US,
                        "over-cap rejection carries the fixed retry hint, not the deadline"
                    );
                    assert!(!shutting_down);
                    rejected += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(ok, CAP as u64, "exactly the cap's worth gets admitted");
        assert_eq!(ok + rejected, BURST);
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        server.join().unwrap()
    });
    assert_eq!(report.served, CAP as u64);
    assert_eq!(report.rejected, BURST - CAP as u64);
    assert_eq!(
        report.rejected_overcap,
        BURST - CAP as u64,
        "all rejections here are the per-connection cap, not inbox overload"
    );
    assert_eq!(report.errors, 0);
}

/// The per-entry cap on memoized answers (4 096 hits) is far above the
/// answers of the Zipf mix, so it must not cost a single cache hit. One
/// request per batch makes the probe sequence deterministic: the first
/// occurrence of a query misses and is inserted, every later one hits —
/// the same counts the uncapped fill produced.
#[test]
fn per_entry_cap_costs_ordinary_answers_no_hits() {
    let (tree, _pool) = build_tree(15_000, 71);
    let requests = zipf_requests(200, 73);
    let distinct = requests
        .iter()
        .map(|r| match *r {
            Request::Knn { x, y, k, .. } => (0u8, u64::from(k), x.to_bits(), y.to_bits()),
            Request::Radius { x, y, radius, .. } => (1, radius.to_bits(), x.to_bits(), y.to_bits()),
            _ => unreachable!(),
        })
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let config = ServeConfig {
        batch_max: 1,
        ..ServeConfig::default()
    };
    let (_, report) = serve_passes(&tree, &[&requests, &requests], &config);
    assert_eq!(report.result_inserts, distinct);
    assert_eq!(report.result_misses, distinct);
    assert_eq!(report.result_hits, 2 * requests.len() as u64 - distinct);
    assert_eq!(report.result_evictions, 0);
}

/// An answer over the per-entry cap is served — twice, byte-identically,
/// and identically to a cache-off server — but never memoized, while an
/// ordinary answer beside it still is: the cache's worst case is bounded
/// by entries × cap, not entries × the 64 MiB frame limit.
#[test]
fn over_cap_answer_is_served_correctly_twice_and_never_cached() {
    let (tree, _pool) = build_tree(15_000, 71);
    let pass = [
        Request::Radius {
            id: 1,
            x: 50_000.0,
            y: 50_000.0,
            radius: 40_000.0,
        },
        Request::Knn {
            id: 2,
            x: 50_000.0,
            y: 50_000.0,
            k: 4,
        },
    ];
    let cached = ServeConfig::default();
    let uncached = ServeConfig {
        result_cache: 0,
        ..ServeConfig::default()
    };
    let (want, _) = serve_passes(&tree, &[&pass], &uncached);
    let (got, report) = serve_passes(&tree, &[&pass, &pass], &cached);
    let Response::Ok { hits, .. } = Response::decode(&got[0][0]).unwrap() else {
        panic!("expected ok");
    };
    assert!(
        hits.len() > 4_096,
        "only {} hits: not over the cap",
        hits.len()
    );
    assert_eq!(got[0], want[0], "first service differs from cache-off");
    assert_eq!(got[1], want[0], "second service differs from cache-off");
    assert_eq!(report.result_inserts, 1, "only the kNN answer is memoized");
    assert_eq!(report.result_hits, 1, "and only it hits on the second pass");
    assert_eq!(report.result_misses, 3);
}
