//! Serving while a writer ingests, with the result cache on. The COW
//! write path makes this safe by construction — every commit swaps the
//! root atomically and bumps the tree version, so a batch either sees
//! the old state or the new one, and a memoized answer keyed to an
//! older version becomes unreachable the instant the swap lands. These
//! tests drive that end to end over the wire: answers stay bit-identical
//! to ground truth under concurrent commits, version bumps demonstrably
//! invalidate the whole cache, and a hot cached answer is never replayed
//! once an insert has changed what the query must return. Both engines are
//! forests: a partitioned one pins every partition at one composed version
//! per batch, so each answer is that of one committed state, and every
//! tree is bounded by its own committed root MBR, which never freezes.

use nnq_core::{partitioned_knn, scatter_radius, within_radius, MbrRefiner, NnOptions, NnSearch};
use nnq_geom::{Point, Rect};
use nnq_rtree::{BulkMethod, PartitionedTree, RTree, RTreeConfig, RecordId, TreeAccess};
use nnq_serve::{Client, Engine, Request, Response, ServeConfig};
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

/// Mixed kNN/radius requests with deliberately *small* reach (low k,
/// short radius) so points the writer inserts far outside the data
/// bounds can never enter an answer — ground truth stays fixed across
/// every version the writer commits.
fn request_for(id: u64, q: &Point<2>) -> Request {
    if id % 3 == 2 {
        Request::Radius {
            id,
            x: q[0],
            y: q[1],
            radius: 400.0 + (id % 5) as f64 * 300.0,
        }
    } else {
        Request::Knn {
            id,
            x: q[0],
            y: q[1],
            k: 1 + (id % 4) as u32,
        }
    }
}

/// Sequential ground truth: neighbor records and exact-bit squared
/// distances. Logical reads are deliberately *not* part of it here —
/// they are version-dependent (the tree's shape changes as the writer
/// commits), so each response's reads are only required to be
/// self-consistent, not constant.
fn sequential_hits(tree: &RTree<2>, req: &Request) -> Vec<(u64, u64)> {
    let opts = NnOptions::default();
    let (hits, _stats) = match *req {
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
    hits.iter()
        .map(|n| (n.record.0, n.dist_sq.to_bits()))
        .collect()
}

fn response_hits(resp: &Response) -> (u64, Vec<(u64, u64)>) {
    let Response::Ok { id, hits, .. } = resp else {
        panic!("expected ok, got {resp:?}");
    };
    (
        *id,
        hits.iter()
            .map(|h| (h.record, h.dist_sq.to_bits()))
            .collect(),
    )
}

/// A point far outside `default_bounds()` — inserting it bumps the tree
/// version and reshapes the root region without ever being close enough
/// to appear in any of the test queries' answers.
fn remote_point(i: u64) -> Point<2> {
    Point::new([4.0e9 + i as f64 * 1.0e3, 4.0e9])
}

/// Writer commits COW transactions while the server answers with the
/// result cache on: every answer across every round matches the fixed
/// ground truth, a synchronous mid-run insert forces a full round of
/// stale probes (proving version-keyed entries die on commit), and once
/// the writer stops a final round is served entirely from the cache.
#[test]
fn serving_stays_exact_while_a_writer_commits() {
    let (tree, _pool) = build_tree(12_000, 101);
    let queries = uniform_queries(40, &default_bounds(), 103);
    let requests: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| request_for(i as u64, q))
        .collect();
    let want: Vec<Vec<(u64, u64)>> = requests.iter().map(|r| sequential_hits(&tree, r)).collect();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 2,
        batch_max: 8,
        batch_deadline: Duration::from_micros(100),
        result_cache: 1024,
        ..ServeConfig::default()
    };
    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        // Background writer: 30 far-region commits spread over the
        // first rounds of traffic.
        let writer = scope.spawn(move || {
            for i in 0..30u64 {
                tree.insert(&Rect::from_point(remote_point(i)), RecordId(1_000_000 + i))
                    .unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });

        let mut client = Client::connect(addr).unwrap();
        let mut round = |phase: &str| {
            for req in &requests {
                client.send(req).unwrap();
            }
            for (i, req) in requests.iter().enumerate() {
                let resp = client.recv().unwrap();
                let (id, hits) = response_hits(&resp);
                assert_eq!(id, req.id().unwrap());
                assert_eq!(
                    hits, want[i],
                    "{phase}: request {i} diverged from ground truth"
                );
            }
        };

        // Rounds A/B race the writer; answers must match regardless of
        // which committed state each batch pins.
        round("concurrent A");
        round("concurrent B");
        writer.join().unwrap();

        // Deterministic invalidation: this commit strictly succeeds
        // every entry the cache now holds, so the next round's probes
        // must all find their entries stale and re-execute.
        tree.insert(&Rect::from_point(remote_point(99)), RecordId(2_000_000))
            .unwrap();
        round("post-commit stale");
        // No more commits: this refill round and the final round run at
        // one version, so the final round is pure cache hits.
        round("refill");
        round("warm");

        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        server.join().unwrap()
    });

    let n = requests.len() as u64;
    assert_eq!(report.served, 5 * n);
    assert_eq!(report.errors + report.write_errors + report.rejected, 0);
    assert!(
        report.result_stale >= n,
        "the post-commit round must find every cached entry stale, got {}",
        report.result_stale
    );
    assert!(
        report.result_hits >= n,
        "the warm round after the last commit must hit, got {}",
        report.result_hits
    );
}

/// The sharp end of invalidation: a k=1 query is served hot from the
/// cache, then the writer inserts a record *at the query point*. From
/// that commit on, every response must name the new record at distance
/// zero — replaying the stale memoized answer even once fails the test.
#[test]
fn hot_cached_answer_dies_with_the_commit_that_outdates_it() {
    let (tree, _pool) = build_tree(6_000, 107);
    let q = Point::new([51_234.0, 48_765.0]);
    let request = Request::Knn {
        id: 0,
        x: q[0],
        y: q[1],
        k: 1,
    };
    let before = sequential_hits(&tree, &request);
    assert_eq!(before.len(), 1);
    assert_ne!(before[0].1, 0.0f64.to_bits(), "seed data must not sit on q");

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 2,
        batch_max: 4,
        batch_deadline: Duration::from_micros(100),
        result_cache: 1024,
        ..ServeConfig::default()
    };
    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        let mut ask = || {
            let resp = client.call(&request).unwrap();
            response_hits(&resp).1
        };

        // Warm the cache hot: same answer every time.
        for _ in 0..6 {
            assert_eq!(ask(), before, "pre-commit answers come from the old state");
        }
        // The insert lands a record exactly on q; the commit returns
        // only after the root swap, so every subsequent request runs
        // against (at least) that version.
        tree.insert(&Rect::from_point(q), RecordId(7_777_777))
            .unwrap();
        for i in 0..6 {
            let hits = ask();
            assert_eq!(
                hits.first(),
                Some(&(7_777_777, 0.0f64.to_bits())),
                "post-commit ask {i}: a stale cached answer was replayed: {hits:?}"
            );
        }
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        server.join().unwrap()
    });

    assert_eq!(report.served, 12);
    assert_eq!(report.errors, 0);
    assert!(
        report.result_hits >= 4,
        "the pre-commit phase must actually serve from the cache, got {} hits",
        report.result_hits
    );
    assert!(
        report.result_stale >= 1,
        "the first post-commit probe must see its entry stale"
    );
}

/// A single tree is served as a forest of one bounded by its committed
/// root MBR, so a tree that was empty when the server started still
/// answers with whatever is committed into it later.
#[test]
fn a_single_engine_on_an_empty_tree_serves_what_is_committed_later() {
    let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 1 << 10));
    let tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
    let q = Point::new([-7.5e6, 3.0e6]);
    let knn = Request::Knn {
        id: 0,
        x: q[0],
        y: q[1],
        k: 2,
    };
    let radius = Request::Radius {
        id: 1,
        x: q[0],
        y: q[1],
        radius: 10.0,
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig::default();
    let report = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(&Engine::Single(tree), &MbrRefiner, listener, &config).unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        for req in [&knn, &radius] {
            assert!(response_hits(&client.call(req).unwrap()).1.is_empty());
        }
        for i in 0..3u64 {
            let p = Point::new([q[0] + i as f64, q[1]]);
            tree.insert(&Rect::from_point(p), RecordId(40 + i)).unwrap();
        }
        for req in [&knn, &radius] {
            let (_, hits) = response_hits(&client.call(req).unwrap());
            assert_eq!(hits, sequential_hits(tree, req), "{req:?}");
        }
        assert_eq!(response_hits(&client.call(&knn).unwrap()).1.len(), 2);
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        server.join().unwrap()
    });
    assert_eq!((report.served, report.errors), (5, 0));
}

/// One served answer: the logical reads it reports and its hits.
type Served = (u64, Vec<(u64, u64)>);

/// What every request answers on `tree` as it stands: the standalone
/// scatter-gather queries the batch executor must reproduce.
fn answers_of(tree: &PartitionedTree<2>, requests: &[Request]) -> Vec<Served> {
    let opts = NnOptions::default();
    requests
        .iter()
        .map(|req| {
            let (hits, stats) = match *req {
                Request::Knn { x, y, k, .. } => {
                    let q = Point::new([x, y]);
                    partitioned_knn(tree, &q, k as usize, opts, &MbrRefiner, 1).unwrap()
                }
                Request::Radius { x, y, radius, .. } => {
                    let q = Point::new([x, y]);
                    scatter_radius(tree.partitions(), &q, radius, opts, &MbrRefiner, 1).unwrap()
                }
                _ => unreachable!(),
            };
            let hits = hits
                .iter()
                .map(|n| (n.record.0, n.dist_sq.to_bits()))
                .collect();
            (stats.search.nodes_visited, hits)
        })
        .collect()
}

/// The writer-under-traffic oracle on the partitioned engine: a writer
/// commits inserts through the partitions while the server answers with
/// the result cache on. Half of the writes land inside the partition they
/// go to, the other half deep inside a neighbour's region, outside the
/// bound the partition was built with; every partition bounds itself by
/// its committed root MBR, so each is found wherever it lies. Every answer
/// — hits and logical reads — must be the one some committed prefix of the
/// writes gives, and since a batch's answers are exact at the composed
/// version it pinned, every cache miss is filled.
#[test]
fn the_partitioned_engine_answers_from_one_committed_state_while_a_writer_commits() {
    let parted = || {
        let items = points_to_items(&uniform_points(12_000, &default_bounds(), 109));
        let (config, method) = (RTreeConfig::default(), BulkMethod::Hilbert);
        PartitionedTree::bulk_load_in_memory(items, 4, config, method, 1.0, 1 << 12, 1).unwrap()
    };
    let tree = parted();
    let built: Vec<Rect<2>> = tree.partitions().iter().map(|t| t.bounds()).collect();
    let centers: Vec<Point<2>> = built.iter().map(Rect::center).collect();
    // Three writes per partition, a step apart. Write j goes to partition
    // j mod 4; an even one lands beside that partition's own centre, an
    // odd one beside the next partition's.
    let writes: Vec<(usize, Point<2>)> = (0..12)
        .map(|j| {
            let c = centers[(j + j % 2) % 4];
            let p = Point::new([
                c[0] + 0.5 + (j / 4) as f64,
                c[1] + 0.25 * (1 + j % 2) as f64,
            ]);
            (j % 4, p)
        })
        .collect();
    for (j, (i, p)) in writes.iter().enumerate() {
        assert_eq!(built[*i].contains_point(p), j % 2 == 0, "write {j}");
    }
    let mut requests: Vec<Request> = Vec::new();
    for c in &centers {
        let (x, y, id) = (c[0], c[1], requests.len() as u64);
        requests.push(Request::Knn { id, x, y, k: 3 });
        requests.push(Request::Radius {
            id: id + 1,
            x,
            y,
            radius: 2.5,
        });
    }
    for q in uniform_queries(32, &default_bounds(), 110) {
        requests.push(request_for(requests.len() as u64, &q));
    }
    let n = requests.len() as u64;

    // The answers of every committed prefix of the writes, on a twin.
    let twin = parted();
    let mut states = vec![answers_of(&twin, &requests)];
    for (j, (i, p)) in writes.iter().enumerate() {
        let rid = RecordId(5_000_000 + j as u64);
        twin.partitions()[*i]
            .insert(&Rect::from_point(*p), rid)
            .unwrap();
        states.push(answers_of(&twin, &requests));
    }
    assert_ne!(
        states[0],
        states[writes.len()],
        "the writes must change answers"
    );
    // Once all are in, the radius query at each centre finds every write
    // within its reach, whichever partition holds it.
    for (c, centre) in centers.iter().enumerate() {
        let (_, hits) = &states[writes.len()][2 * c + 1];
        for (j, (_, p)) in writes.iter().enumerate() {
            if p.dist(centre) <= 2.5 {
                let rid = 5_000_000 + j as u64;
                assert!(hits.iter().any(|h| h.0 == rid), "centre {c}: write {j}");
            }
        }
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ServeConfig {
        threads: 2,
        batch_max: 8,
        batch_deadline: Duration::from_micros(100),
        result_cache: 1024,
        ..ServeConfig::default()
    };
    let (rounds, report) = std::thread::scope(|scope| {
        let tree = &tree;
        let server = scope.spawn(move || {
            nnq_serve::serve(
                &Engine::Partitioned(tree.partitions()),
                &MbrRefiner,
                listener,
                &config,
            )
            .unwrap()
        });
        let writes = &writes;
        let writer = scope.spawn(move || {
            for (j, (i, p)) in writes.iter().enumerate() {
                let rid = RecordId(5_000_000 + j as u64);
                tree.partitions()[*i]
                    .insert(&Rect::from_point(*p), rid)
                    .unwrap();
                std::thread::sleep(Duration::from_micros(500));
            }
        });

        let mut client = Client::connect(addr).unwrap();
        let mut round = |phase: &str| -> Vec<usize> {
            for req in &requests {
                client.send(req).unwrap();
            }
            (0..requests.len())
                .map(|r| {
                    let resp = client.recv().unwrap();
                    let Response::Ok {
                        id,
                        logical_reads,
                        hits,
                    } = resp
                    else {
                        panic!("{phase}: expected ok, got {resp:?}");
                    };
                    assert_eq!(id, requests[r].id().unwrap());
                    let bits = hits.iter().map(|h| (h.record, h.dist_sq.to_bits()));
                    let got: Served = (logical_reads, bits.collect());
                    states
                        .iter()
                        .position(|state| state[r] == got)
                        .unwrap_or_else(|| {
                            panic!("{phase}: request {r} matches no committed state")
                        })
                })
                .collect()
        };
        let mut rounds = 0;
        while rounds < 2 || !writer.is_finished() {
            round(&format!("concurrent round {rounds}"));
            rounds += 1;
        }
        writer.join().unwrap();
        // Quiet from here on: every answer is the last state's.
        for phase in ["settled", "warm"] {
            let last = round(phase);
            for (r, &state) in last.iter().enumerate() {
                assert_eq!(states[state][r], states[writes.len()][r], "{phase}: {r}");
            }
            rounds += 1;
        }
        let mut ctl = Client::connect(addr).unwrap();
        assert!(matches!(
            ctl.call(&Request::Shutdown).unwrap(),
            Response::Bye
        ));
        (rounds, server.join().unwrap())
    });

    assert_eq!(report.served, rounds * n);
    assert_eq!(report.errors + report.write_errors + report.rejected, 0);
    // No fill is skipped: every probe that found no current entry ran and
    // was memoized (the requests of a round are distinct, and no answer is
    // too large to cache).
    assert_eq!(
        report.result_inserts,
        report.result_misses + report.result_stale
    );
    assert!(
        report.result_hits >= n,
        "the warm round must hit, got {}",
        report.result_hits
    );
}
