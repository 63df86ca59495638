//! End-to-end tests of the serving layer: concurrent mixed kNN/radius
//! traffic from many connections must be bit-identical to sequential
//! queries (results **and** per-query logical reads), overload must
//! surface as explicit fast rejections rather than hangs or silent
//! drops, and a graceful shutdown must drain every admitted request.

use nnq_core::{within_radius, MbrRefiner, NnOptions, NnSearch};
use nnq_geom::Point;
use nnq_rtree::{BulkMethod, RTree, RTreeConfig};
use nnq_serve::{Client, Engine, Request, Response, ServeConfig, RETRY_AFTER_US};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points, uniform_queries};
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

/// The request mix used throughout: one radius query for every two kNN
/// queries, with varying k and radius.
fn request_for(id: u64, q: &Point<2>) -> Request {
    if id % 3 == 2 {
        Request::Radius {
            id,
            x: q[0],
            y: q[1],
            radius: 500.0 + (id % 7) as f64 * 400.0,
        }
    } else {
        Request::Knn {
            id,
            x: q[0],
            y: q[1],
            k: 1 + (id % 10) as u32,
        }
    }
}

/// Sequential ground truth for [`request_for`]: neighbor records,
/// exact-bit squared distances, and the query's logical reads (node
/// accesses — the paper's "pages accessed").
fn sequential_answer(tree: &RTree<2>, req: &Request) -> (Vec<(u64, u64)>, u64) {
    let opts = NnOptions::default();
    let (hits, stats) = match *req {
        Request::Knn { x, y, k, .. } => {
            let q = Point::new([x, y]);
            NnSearch::with_options(tree, opts)
                .query_refined(&q, k as usize, &MbrRefiner)
                .unwrap()
        }
        Request::Radius { x, y, radius, .. } => {
            let q = Point::new([x, y]);
            within_radius(tree, &q, radius, &MbrRefiner).unwrap()
        }
        _ => unreachable!(),
    };
    (
        hits.iter()
            .map(|n| (n.record.0, n.dist_sq.to_bits()))
            .collect(),
        stats.nodes_visited,
    )
}

/// Flattens an OK response into the same comparable form.
fn response_answer(resp: &Response) -> (u64, Vec<(u64, u64)>, u64) {
    let Response::Ok {
        id,
        logical_reads,
        hits,
    } = resp
    else {
        panic!("expected ok, got {resp:?}");
    };
    (
        *id,
        hits.iter()
            .map(|h| (h.record, h.dist_sq.to_bits()))
            .collect(),
        *logical_reads,
    )
}

/// The headline acceptance test: ≥1000 concurrent mixed kNN/radius
/// requests from 4 client connections, every response bit-identical to
/// the sequential answer (records, distance bits, and logical reads),
/// zero dropped responses.
#[test]
fn concurrent_mixed_traffic_is_bit_identical_to_sequential() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 300; // 1200 total
    let (tree, _pool) = build_tree(20_000, 41);
    let queries = uniform_queries(
        (CLIENTS as u64 * PER_CLIENT) as usize,
        &default_bounds(),
        43,
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 4,
        batch_max: 32,
        batch_deadline: Duration::from_micros(200),
        inbox_cap: 4096, // above total outstanding: nothing may be rejected
        ..ServeConfig::default()
    };

    let (report, answers) = std::thread::scope(|scope| {
        let tree = &tree;
        let queries = &queries;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // Pipeline everything, then drain: the server's
                    // admitted-order write-back means this connection's
                    // responses come back in send order.
                    for i in 0..PER_CLIENT {
                        let id = c * PER_CLIENT + i;
                        client
                            .send(&request_for(id, &queries[id as usize]))
                            .unwrap();
                    }
                    (0..PER_CLIENT)
                        .map(|_| {
                            let resp = client.recv().expect("a response for every request");
                            response_answer(&resp)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut answers = Vec::new();
        for (c, h) in clients.into_iter().enumerate() {
            let got = h.join().unwrap();
            // Per-connection responses arrive in request order.
            let want_ids: Vec<u64> = (c as u64 * PER_CLIENT..(c as u64 + 1) * PER_CLIENT).collect();
            let got_ids: Vec<u64> = got.iter().map(|(id, _, _)| *id).collect();
            assert_eq!(got_ids, want_ids, "client {c} responses reordered");
            answers.extend(got);
        }
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        (server.join().unwrap(), answers)
    });

    // Zero drops, zero rejections: everything admitted and served.
    assert_eq!(report.served, CLIENTS as u64 * PER_CLIENT);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.errors, 0);
    assert_eq!(report.write_errors, 0);
    assert!(report.batches > 0);

    // Bit-identity against the sequential engine, request by request.
    for (id, hits, logical_reads) in answers {
        let (want_hits, want_reads) =
            sequential_answer(&tree, &request_for(id, &queries[id as usize]));
        assert_eq!(hits, want_hits, "request {id}: results diverged");
        assert_eq!(
            logical_reads, want_reads,
            "request {id}: logical reads diverged"
        );
    }
}

/// Overload control: with a tiny inbox and a deadline-paced batcher, a
/// burst far above capacity gets explicit fast rejections carrying a
/// retry hint — every request is answered one way or the other, no
/// hangs, no silent drops.
#[test]
fn overload_fast_rejects_instead_of_queueing_or_dropping() {
    const BURST: u64 = 200;
    let (tree, _pool) = build_tree(5_000, 47);
    let queries = uniform_queries(BURST as usize, &default_bounds(), 49);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 2,
        // The size trigger (8) exceeds the inbox capacity (4), so every
        // batch waits out the full 100 ms deadline — while the burst
        // arrives in well under that, guaranteeing rejections.
        batch_max: 8,
        batch_deadline: Duration::from_millis(100),
        inbox_cap: 4,
        ..ServeConfig::default()
    };

    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        for id in 0..BURST {
            client
                .send(&request_for(id, &queries[id as usize]))
                .unwrap();
        }
        let mut ok = 0u64;
        let mut rejected = 0u64;
        for _ in 0..BURST {
            match client.recv().expect("every request gets an answer") {
                Response::Ok { id, .. } => {
                    // Served responses are still exact.
                    ok += 1;
                    let _ = id;
                }
                Response::Rejected {
                    retry_after_us,
                    shutting_down,
                    ..
                } => {
                    assert_eq!(
                        retry_after_us, RETRY_AFTER_US,
                        "overload rejection carries the fixed retry hint, not the deadline"
                    );
                    assert!(!shutting_down);
                    rejected += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(ok + rejected, BURST, "an answer for every request");
        assert!(
            rejected > 0,
            "burst of {BURST} into a 4-slot inbox must reject"
        );
        assert!(ok > 0, "admitted requests still get served");
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        let report = server.join().unwrap();
        assert_eq!(report.served, ok);
        assert_eq!(report.rejected, rejected);
        report
    });
    assert_eq!(report.errors, 0);
    assert_eq!(report.write_errors, 0);
}

/// The shutdown-drain regression test: requests admitted before the
/// shutdown frame still get their responses (the batcher's 10 s deadline
/// proves the drain is triggered by the close, not by time), the
/// requester's Bye is ordered after those responses, and a request
/// arriving after the gate closed is explicitly rejected as
/// shutting-down.
///
/// Everything rides one connection, written in one burst: the per-
/// connection reader processes frames strictly in order, which makes the
/// interleaving deterministic.
#[test]
fn shutdown_drains_in_flight_requests_then_rejects_late_ones() {
    let (tree, _pool) = build_tree(5_000, 53);
    let queries = uniform_queries(4, &default_bounds(), 55);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 2,
        batch_max: 64,
        batch_deadline: Duration::from_secs(10),
        inbox_cap: 16,
        ..ServeConfig::default()
    };

    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        // Three queries parked in the batcher (the 10 s deadline hasn't
        // fired), then the shutdown frame, then a late query.
        for id in 0..3 {
            client
                .send(&request_for(id, &queries[id as usize]))
                .unwrap();
        }
        client.send(&Request::Shutdown).unwrap();
        client.send(&request_for(3, &queries[3])).unwrap();

        // The three in-flight requests are answered correctly...
        for id in 0..3u64 {
            let (got_id, hits, reads) = response_answer(&client.recv().unwrap());
            assert_eq!(got_id, id);
            let (want_hits, want_reads) =
                sequential_answer(tree, &request_for(id, &queries[id as usize]));
            assert_eq!(hits, want_hits);
            assert_eq!(reads, want_reads);
        }
        // ...then the shutdown is acknowledged...
        assert!(matches!(client.recv().unwrap(), Response::Bye));
        // ...and the late request is explicitly turned away.
        match client.recv().unwrap() {
            Response::Rejected {
                id, shutting_down, ..
            } => {
                assert_eq!(id, 3);
                assert!(shutting_down, "late request must cite the shutdown");
            }
            other => panic!("expected shutdown rejection, got {other:?}"),
        }
        server.join().unwrap()
    });
    assert_eq!(report.served, 3);
    assert_eq!(report.rejected_shutdown, 1);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.errors, 0);
}

/// Pings are answered from the reader thread (no batching) and malformed
/// parameters are answered with protocol errors without poisoning the
/// connection or the batcher.
#[test]
fn pings_and_invalid_parameters_answer_immediately() {
    let (tree, _pool) = build_tree(2_000, 59);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        // A deliberately glacial batcher: pings and validation errors
        // must not wait on it.
        batch_deadline: Duration::from_secs(10),
        batch_max: 64,
        ..ServeConfig::default()
    };
    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        match client.call(&Request::Ping { id: 11 }).unwrap() {
            Response::Pong { id } => assert_eq!(id, 11),
            other => panic!("expected pong, got {other:?}"),
        }
        // Negative radius, non-finite coordinates, and out-of-range k
        // never reach the query engine (the radius kernel would panic on
        // non-finite input, the kNN heap asserts k > 0, and an unbounded
        // k is an unbounded preallocation) — each gets an immediate
        // Error, and crucially the batcher stays alive to keep serving.
        for (id, bad) in [
            (
                20u64,
                Request::Radius {
                    id: 20,
                    x: 0.0,
                    y: 0.0,
                    radius: -2.0,
                },
            ),
            (
                21,
                Request::Knn {
                    id: 21,
                    x: f64::NAN,
                    y: 0.0,
                    k: 3,
                },
            ),
            (
                22,
                Request::Radius {
                    id: 22,
                    x: 0.0,
                    y: f64::INFINITY,
                    radius: 1.0,
                },
            ),
            (
                23,
                Request::Knn {
                    id: 23,
                    x: 0.0,
                    y: 0.0,
                    k: 0,
                },
            ),
            (
                24,
                Request::Knn {
                    id: 24,
                    x: 0.0,
                    y: 0.0,
                    k: u32::MAX,
                },
            ),
        ] {
            match client.call(&bad).unwrap() {
                Response::Error { id: got, .. } => assert_eq!(got, id),
                other => panic!("expected error for {bad:?}, got {other:?}"),
            }
        }
        // The connection survives and still serves queries (answered by
        // the shutdown drain — the 10 s deadline never fires).
        client
            .send(&Request::Knn {
                id: 30,
                x: 50_000.0,
                y: 50_000.0,
                k: 1,
            })
            .unwrap();
        // Ping barrier: the reader handles frames in order, so the pong
        // proves the query was admitted before the shutdown below closes
        // the inbox.
        match client.call(&Request::Ping { id: 31 }).unwrap() {
            Response::Pong { id } => assert_eq!(id, 31),
            other => panic!("expected pong, got {other:?}"),
        }
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        let resp = client.recv().unwrap();
        assert!(matches!(resp, Response::Ok { id: 30, .. }), "{resp:?}");
        server.join().unwrap()
    });
    assert_eq!(report.served, 1);
    assert_eq!(report.errors, 5);
}

/// Wire-level conservation under disconnect: connection A pipelines 256
/// requests and drops its socket without reading a byte; connection B
/// pipelines 256 with a Ping after every eighth. A's staged responses
/// fail (or vanish into a dead socket) without costing B anything: B
/// receives all 256 `Ok` in send order, bit-identical to the sequential
/// answers, and every batched request is accounted for exactly once —
/// served, a write error, or an error. Counter asserts only.
#[test]
fn disconnect_mid_pipeline_conserves_every_request_and_spares_the_neighbor() {
    const PER_CONN: u64 = 256;
    let (tree, _pool) = build_tree(20_000, 61);
    let queries = uniform_queries(2 * PER_CONN as usize, &default_bounds(), 67);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 2,
        inbox_cap: 4096, // above total outstanding: nothing may be rejected
        ..ServeConfig::default()
    };

    let (report, answers) = std::thread::scope(|scope| {
        let tree = &tree;
        let queries = &queries;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let a = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for id in 0..PER_CONN {
                client
                    .send(&request_for(id, &queries[id as usize]))
                    .unwrap();
            }
            // Dropped here: no response is ever read.
        });
        let b = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut pings = 0u64;
            for id in PER_CONN..2 * PER_CONN {
                client
                    .send(&request_for(id, &queries[id as usize]))
                    .unwrap();
                if id % 8 == 7 {
                    client.send(&Request::Ping { id }).unwrap();
                    pings += 1;
                }
            }
            // Pongs come from the reader thread and may land anywhere
            // between the batcher's writes — never inside one.
            let mut oks = Vec::new();
            let mut pongs = 0u64;
            while (oks.len() as u64) < PER_CONN || pongs < pings {
                match client.recv().expect("a response for every request") {
                    Response::Pong { .. } => pongs += 1,
                    resp => oks.push(response_answer(&resp)),
                }
            }
            oks
        });
        a.join().unwrap();
        let answers = b.join().unwrap();
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        (server.join().unwrap(), answers)
    });

    let got_ids: Vec<u64> = answers.iter().map(|(id, _, _)| *id).collect();
    assert_eq!(got_ids, (PER_CONN..2 * PER_CONN).collect::<Vec<u64>>());
    for (id, hits, logical_reads) in answers {
        let (want_hits, want_reads) =
            sequential_answer(&tree, &request_for(id, &queries[id as usize]));
        assert_eq!(hits, want_hits, "request {id}: results diverged");
        assert_eq!(logical_reads, want_reads, "request {id}: reads diverged");
    }
    // However much of A's pipeline the server read before the reset, each
    // request it batched ended exactly one way.
    assert_eq!(
        report.served + report.write_errors + report.errors,
        report.batched,
        "{report:?}"
    );
    assert!(report.served >= PER_CONN, "{report:?}");
    assert!(report.batched <= 2 * PER_CONN, "{report:?}");
    assert_eq!(report.rejected, 0);
    assert!(report.socket_writes <= report.served, "{report:?}");
}
