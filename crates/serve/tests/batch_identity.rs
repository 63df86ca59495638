//! The serving layer's accounting contract, at the wire level: the
//! byte-for-byte encoded responses — neighbor records, exact distance
//! bits, and per-query logical reads — must be identical across every
//! (batch size, worker count) configuration, because micro-batching and
//! work-stealing are throughput knobs, not semantics — on either engine.

use nnq_core::{within_radius, MbrRefiner, NnSearch};
use nnq_geom::Point;
use nnq_rtree::{BulkMethod, PartitionedTree, RTree, RTreeConfig};
use nnq_serve::{Client, Engine, Hit, Request, Response, ServeConfig, ServeReport};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, zipf_cluster_queries};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Runs one server configuration over a fixed request sequence on a
/// single pipelined connection and returns each response's encoded
/// bytes, in request order, with the run's report.
fn serve_responses(
    engine: &Engine<'_>,
    requests: &[Request],
    config: &ServeConfig,
) -> (Vec<Vec<u8>>, ServeReport) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server =
            scope.spawn(move || nnq_serve::serve(engine, &MbrRefiner, listener, config).unwrap());
        let mut client = Client::connect(addr).unwrap();
        for req in requests {
            client.send(req).unwrap();
        }
        let responses: Vec<Vec<u8>> = (0..requests.len())
            .map(|i| {
                let resp = client.recv().unwrap();
                assert!(
                    matches!(&resp, Response::Ok { id, .. } if *id == requests[i].id().unwrap()),
                    "request {i}: unexpected response {resp:?}"
                );
                resp.encode()
            })
            .collect();
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        let report = server.join().unwrap();
        assert_eq!(report.served, requests.len() as u64);
        assert_eq!(report.rejected + report.errors + report.write_errors, 0);
        (responses, report)
    })
}

/// Zipf-clustered query points (hot neighborhoods make work stealing
/// uneven — the stress case for ordering bugs), mixed kNN and radius.
fn mixed_requests() -> Vec<Request> {
    let centers: Vec<Point<2>> = uniform_points(32, &default_bounds(), 62);
    let queries = zipf_cluster_queries(200, &centers, 0.9, 2_000.0, &default_bounds(), 63);
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
                    radius: 800.0 + (i % 5) as f64 * 600.0,
                }
            } else {
                Request::Knn {
                    id,
                    x: q[0],
                    y: q[1],
                    k: 1 + (i % 8) as u32,
                }
            }
        })
        .collect()
}

/// Serves `requests` under batch deadline {0 (the default), 100 µs} ×
/// batch {1, 32} × threads {1, 8} × `caches`, asserting the response
/// bytes never differ.
fn identical_across_knobs(engine: &Engine<'_>, requests: &[Request], caches: &[usize]) {
    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for &result_cache in caches {
        for batch_deadline in [Duration::ZERO, Duration::from_micros(100)] {
            for batch_max in [1usize, 32] {
                for threads in [1usize, 8] {
                    let config = ServeConfig {
                        threads,
                        batch_max,
                        batch_deadline,
                        inbox_cap: 1024,
                        result_cache,
                        ..ServeConfig::default()
                    };
                    let (got, _) = serve_responses(engine, requests, &config);
                    let want = baseline.get_or_insert_with(|| got.clone());
                    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                        assert_eq!(
                            g, w,
                            "deadline={batch_deadline:?} batch={batch_max} \
                             threads={threads} cache={result_cache}: \
                             response {i} not byte-identical to the first configuration"
                        );
                    }
                }
            }
        }
    }
}

fn partitioned(p: usize) -> PartitionedTree<2> {
    let items = points_to_items(&uniform_points(15_000, &default_bounds(), 61));
    let (config, method) = (RTreeConfig::default(), BulkMethod::Str);
    PartitionedTree::bulk_load_in_memory(items, p, config, method, 1.0, 1 << 13, 1).unwrap()
}

fn single_tree() -> RTree<2> {
    let items = points_to_items(&uniform_points(15_000, &default_bounds(), 61));
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 15));
    RTree::<2>::bulk_load(pool, RTreeConfig::default(), items, BulkMethod::Str, 1.0).unwrap()
}

#[test]
fn responses_are_byte_identical_across_batch_sizes_and_threads() {
    let tree = single_tree();
    let default_cache = ServeConfig::default().result_cache;
    identical_across_knobs(&Engine::Single(&tree), &mixed_requests(), &[default_cache]);
}

/// The single engine is served as a forest of one: its bytes must still be
/// those of the plain traversal of each request — the records, the exact
/// distance bits and the logical reads `nnq query` reports.
#[test]
fn the_single_engine_serves_the_plain_traversals_bytes() {
    let tree = single_tree();
    let requests = mixed_requests();
    let search = NnSearch::new(&tree);
    let want: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| {
            let (id, answer) = match *req {
                Request::Knn { id, x, y, k } => {
                    let q = Point::new([x, y]);
                    (id, search.query_refined(&q, k as usize, &MbrRefiner))
                }
                Request::Radius { id, x, y, radius } => {
                    let q = Point::new([x, y]);
                    (id, within_radius(&tree, &q, radius, &MbrRefiner))
                }
                _ => unreachable!(),
            };
            let (hits, stats) = answer.unwrap();
            let hits = hits.iter().map(|n| Hit {
                record: n.record.0,
                dist_sq: n.dist_sq,
            });
            let logical_reads = stats.nodes_visited;
            let hits = hits.collect();
            Response::Ok {
                id,
                logical_reads,
                hits,
            }
            .encode()
        })
        .collect();
    for threads in [1, 4] {
        let config = ServeConfig {
            threads,
            ..ServeConfig::default()
        };
        let (got, _) = serve_responses(&Engine::Single(&tree), &requests, &config);
        assert_eq!(got, want, "threads={threads}");
    }
}

#[test]
fn partitioned_responses_are_byte_identical_across_knobs_and_caching() {
    let tree = partitioned(4);
    identical_across_knobs(
        &Engine::Partitioned(tree.partitions()),
        &mixed_requests(),
        &[0, 1024],
    );
}

#[test]
fn one_partition_serves_the_single_engines_bytes() {
    let tree = partitioned(1);
    let requests = mixed_requests();
    let config = ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    };
    let (parted, _) = serve_responses(&Engine::Partitioned(tree.partitions()), &requests, &config);
    let (single, _) = serve_responses(&Engine::Single(&tree.partitions()[0]), &requests, &config);
    assert_eq!(parted, single);
}

#[test]
fn partitioned_batch_of_duplicates_runs_one_traversal() {
    const COPIES: u64 = 16;
    let tree = partitioned(4);
    let requests: Vec<Request> = (0..COPIES)
        .map(|id| Request::Knn {
            id,
            x: 41_000.0,
            y: 58_000.0,
            k: 5,
        })
        .collect();
    let config = ServeConfig {
        threads: 4,
        // Size-triggered drain: the batch fires exactly when all COPIES
        // duplicates are admitted; the long deadline keeps a partial
        // batch from draining early.
        batch_max: COPIES as usize,
        batch_deadline: Duration::from_millis(500),
        result_cache: 0,
        ..ServeConfig::default()
    };
    let (responses, report) =
        serve_responses(&Engine::Partitioned(tree.partitions()), &requests, &config);
    assert_eq!(report.dedup_merged, COPIES - 1);
    // Identical payloads apart from the request id each answer echoes.
    let payload = |bytes: &Vec<u8>| match Response::decode(bytes).unwrap() {
        Response::Ok {
            logical_reads,
            hits,
            ..
        } => (hits, logical_reads),
        other => panic!("expected Ok, got {other:?}"),
    };
    assert!(responses
        .iter()
        .all(|r| payload(r) == payload(&responses[0])));
}
