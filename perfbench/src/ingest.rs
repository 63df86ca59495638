//! `ingest_mixed`: the tree and storage layers used for writing, beside
//! reads. 200 000 uniform points bulk-loaded at fill 0.7 onto a file-backed
//! device with a write-ahead log (8 192-frame pool, group-commit window
//! 1 000 µs — the CLI's default; the flush policy is part of the workload).
//!
//! One writer, closed loop: `insert_many` of 64 new records, then 64
//! single-record `delete` transactions of those records, and a checkpoint
//! every 8 192 record operations. One reader, closed loop: a snapshot and
//! a kNN query (k = 10) on it. A read-path gain that costs the
//! copy-on-write or logging path shows here.
//!
//! Durability is checked after the run from a crash image: the device file
//! as of the last completed checkpoint plus the log as last synced.

use crate::common::{self, Items, Opts};
use crate::gen;
use crate::metrics::RunResult;
use crate::probes;
use crate::procfs;
use crate::spans::{self, Recorder, NO_PARENT};
use crate::stats::{self, percentile_us, Cycles};
use nnq_core::{BatchQuery, NnSearch};
use nnq_geom::{Point, Rect};
use nnq_rtree::{BulkMethod, RTree, RTreeConfig, RecordId};
use nnq_storage::{BufferPool, DiskManager, FileDisk, Wal, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 200_000;
const FILL: f64 = 0.7;
const POOL_FRAMES: usize = 8_192;
const GROUP_COMMIT_US: u64 = 1_000;
/// Records per `insert_many`, each then deleted in a transaction of its own.
const ROUND: usize = 64;
/// Record operations between checkpoints.
const CHECKPOINT_EVERY: u64 = 8_192;
const K: usize = 10;
/// Queries answered on the freshly built tree and compared with brute
/// force (the first `BRUTE`); their mean page count is `pages_per_query`.
const VERIFY: usize = 4_096;
const BRUTE: usize = 1_000;
/// One concurrent read in this many is kept and checked after the run.
const SAMPLE_EVERY: u64 = 1_024;
/// The last round leaves this many of its records in the tree, so the
/// recovered tree must hold acknowledged inserts and miss acknowledged
/// deletes.
const LEFT_LIVE: usize = 32;

/// The scratch directory, inside the checkout and ignored by git.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Self {
        let dir = Path::new("target/perf").join(format!("ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `j`-th record the writer inserts.
fn new_record(seed: u64, n: usize, j: u64) -> (Rect<2>, RecordId) {
    (
        Rect::from_point(gen::point_at(seed, j)),
        RecordId(n as u64 + j),
    )
}

/// Keeps `BufferPool::checkpoint` and the end of a read apart. Dropping a
/// snapshot may free pages its epoch was the last to pin; `flush_all`
/// lists the dirty frames and writes them after releasing the shard lock,
/// so a page freed in between fails the checkpoint with `InvalidPage`
/// (seen within seconds on this workload). The program under test is not
/// changed by the benchmark's own PR, so until that race is fixed the
/// reader holds this lock shared for each read and the writer holds it
/// exclusively for each checkpoint; time the reader waits here is not in
/// its latencies but does lower its throughput.
type CheckpointGate = std::sync::RwLock<()>;

struct Writer<'a> {
    tree: &'a RTree<2>,
    gate: &'a CheckpointGate,
    dir: &'a WorkDir,
    seed: u64,
    n: usize,
    /// Records inserted so far.
    inserted: u64,
    ops_since_checkpoint: u64,
    /// Totals over the run.
    ops: u64,
    txns: u64,
    wal_bytes: u64,
    checkpoint_ms: Vec<f64>,
    insert_ns: Vec<u64>,
    delete_ns: Vec<u64>,
    rec: Option<Recorder>,
}

impl Writer<'_> {
    /// One round: insert `ROUND` records in one transaction, then delete
    /// all but the last `keep` of them one transaction each. Appends
    /// every transaction's latency to `txn_ns`; returns the time spent on
    /// the benchmark's own bookkeeping (copying the crash image).
    fn round(&mut self, keep: usize, txn_ns: &mut Vec<u64>) -> Duration {
        let recs: Vec<_> = (0..ROUND as u64)
            .map(|j| new_record(self.seed, self.n, self.inserted + j))
            .collect();
        let round = self.inserted / ROUND as u64;
        self.inserted += ROUND as u64;
        let mut own = Duration::ZERO;

        let start = Instant::now();
        self.tree.insert_many(&recs).expect("insert_many");
        let ns = start.elapsed().as_nanos() as u64;
        self.record("rtree.tree.insert_many", ns, round);
        self.insert_ns.push(ns);
        txn_ns.push(ns);
        own += self.acknowledged(ROUND as u64);

        for (mbr, rid) in &recs[..ROUND - keep] {
            let start = Instant::now();
            self.tree
                .delete(mbr, *rid)
                .expect("delete of an inserted record");
            let ns = start.elapsed().as_nanos() as u64;
            self.record("rtree.tree.delete", ns, rid.0);
            self.delete_ns.push(ns);
            txn_ns.push(ns);
            own += self.acknowledged(1);
        }
        own
    }

    fn record(&mut self, name: &'static str, ns: u64, req: u64) {
        if let Some(rec) = &mut self.rec {
            let end = rec.now_ns();
            rec.record(NO_PARENT, name, end - ns, end, req);
        }
    }

    /// Counts `ops` acknowledged record operations in one transaction and
    /// checkpoints when due.
    fn acknowledged(&mut self, ops: u64) -> Duration {
        self.ops += ops;
        self.txns += 1;
        self.ops_since_checkpoint += ops;
        if self.ops_since_checkpoint < CHECKPOINT_EVERY {
            return Duration::ZERO;
        }
        self.ops_since_checkpoint = 0;
        self.wal_bytes += file_len(&self.dir.path("index.wal"));
        let start = Instant::now();
        {
            let _no_reads = self.gate.write().expect("checkpoint gate");
            self.tree.pool().checkpoint().expect("checkpoint");
        }
        let ns = start.elapsed().as_nanos() as u64;
        self.record("storage.pool.checkpoint", ns, self.ops);
        self.checkpoint_ms.push(ns as f64 / 1e6);
        keep_crash_image(self.dir)
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("file metadata").len()
}

/// Copies the device file as it stands after a completed checkpoint: what
/// a crash would leave of it at the very least.
fn keep_crash_image(dir: &WorkDir) -> Duration {
    let start = Instant::now();
    std::fs::copy(dir.path("index.db"), dir.path("stale.db")).expect("copy the device file");
    start.elapsed()
}

struct Sample {
    query: Point<2>,
    found: Vec<(RecordId, u64)>,
}

#[derive(Default)]
struct ReaderOut {
    lat_ns: Vec<u64>,
    samples: Vec<Sample>,
}

/// Reads until `deadline`: a snapshot and a kNN query on it per turn.
fn read_until(
    tree: &RTree<2>,
    gate: &CheckpointGate,
    seed: u64,
    first: u64,
    deadline: Instant,
    rec: &mut Option<Recorder>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut i = first;
    while Instant::now() < deadline {
        let q = gen::point_at(seed, i);
        let _no_checkpoint = gate.read().expect("checkpoint gate");
        let start = Instant::now();
        let snap = tree.snapshot();
        let took_snapshot = start.elapsed();
        let found = NnSearch::new(&snap).query(&q, K).expect("concurrent query");
        let ns = start.elapsed().as_nanos() as u64;
        drop(snap);
        out.lat_ns.push(ns);
        if i.is_multiple_of(SAMPLE_EVERY) {
            if let Some(rec) = rec {
                let end = rec.now_ns();
                let root = rec.record(NO_PARENT, "read", end - ns, end, i);
                let mid = end - ns + took_snapshot.as_nanos() as u64;
                rec.record(root, "rtree.tree.snapshot", end - ns, mid, i);
                rec.record(root, "core.branch_bound.query", mid, end, i);
            }
            out.samples.push(Sample {
                query: q,
                found: found
                    .iter()
                    .map(|n| (n.record, n.dist_sq.to_bits()))
                    .collect(),
            });
        }
        i += 1;
    }
    out
}

/// A read taken beside the writer saw the base records plus whichever of
/// the writer's were live: it must be sorted, give each base record its
/// true distance, and be nowhere farther than `base`, the brute-force
/// answer over the base records alone.
fn sample_is_sound(items: &Items, s: &Sample, base: &[u64]) -> bool {
    s.found.len() == K
        && s.found
            .windows(2)
            .all(|w| f64::from_bits(w[0].1) <= f64::from_bits(w[1].1))
        && s.found
            .iter()
            .zip(base)
            .all(|(got, &want)| f64::from_bits(got.1) <= f64::from_bits(want))
        && s.found.iter().all(|&(rid, d)| {
            items
                .get(rid.0 as usize)
                .is_none_or(|(mbr, _)| nnq_geom::mindist_sq(&s.query, mbr).to_bits() == d)
        })
}

/// Recovers a tree from the crash image and checks it against what the
/// writer had been told was committed. Returns the number of misses.
fn check_durability(
    res: &mut RunResult,
    dir: &WorkDir,
    meta_page: nnq_storage::PageId,
    writer: &Writer<'_>,
) -> u64 {
    let disk = FileDisk::open(dir.path("stale.db"), PAGE_SIZE).expect("open the crash image");
    let wal = Wal::open(dir.path("stale.wal")).expect("open the crash image's log");
    wal.replay(&disk).expect("replay");
    disk.sync().expect("sync the recovered device");
    let pool = Arc::new(BufferPool::new(Box::new(disk), POOL_FRAMES));
    let tree = RTree::<2>::open(pool, meta_page).expect("reopen the recovered tree");

    let want_len = (writer.n + LEFT_LIVE) as u64;
    res.check(tree.len() == want_len, || {
        format!(
            "recovered tree holds {} records, {want_len} were acknowledged",
            tree.len()
        )
    });
    let valid = tree.validate_strict();
    res.check(valid.is_ok(), || {
        format!("recovered tree is invalid: {:?}", valid.as_ref().err())
    });
    // The last round's tail must be there; its head, and a sample of
    // earlier rounds' records, must be gone.
    let last_round = writer.inserted - ROUND as u64;
    let live = last_round + (ROUND - LEFT_LIVE) as u64..writer.inserted;
    let deleted = (last_round..live.start).chain((0..last_round).step_by(97).take(1_000));
    let holds = |j: u64| {
        let (mbr, rid) = new_record(writer.seed, writer.n, j);
        tree.point_query(mbr.lo())
            .expect("point query")
            .iter()
            .any(|(_, r)| *r == rid)
    };
    let lost = live.clone().filter(|&j| !holds(j)).count();
    let undead = deleted.filter(|&j| holds(j)).count();
    res.check(lost == 0, || {
        format!("{lost} acknowledged inserts are missing after recovery")
    });
    res.check(undead == 0, || {
        format!("{undead} acknowledged deletes are present after recovery")
    });
    (lost + undead) as u64 + u64::from(tree.len() != want_len)
}

pub fn run(opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let n = opts.scaled(N);
    let cycles = opts.cycles();
    let dir = WorkDir::new();
    let query_seed = opts.sub_seed(2);

    let mut load_s = Vec::new();
    let ((tree, items), setup_s) = common::timed_setups(|| {
        let items = points_to_items(&uniform_points(n, &default_bounds(), opts.sub_seed(1)));
        let disk =
            FileDisk::create(dir.path("index.db"), PAGE_SIZE).expect("create the device file");
        let wal = Wal::create(dir.path("index.wal")).expect("create the log");
        let pool = Arc::new(BufferPool::with_wal(Box::new(disk), POOL_FRAMES, wal));
        let start = Instant::now();
        let tree = RTree::<2>::bulk_load(
            Arc::clone(&pool),
            RTreeConfig::default(),
            items.clone(),
            BulkMethod::Hilbert,
            FILL,
        )
        .expect("bulk load");
        load_s.push(start.elapsed().as_secs_f64());
        pool.checkpoint().expect("checkpoint after build");
        tree.set_group_commit_us(GROUP_COMMIT_US);
        (tree, items)
    });
    res.cycles("setup_s", Cycles(setup_s));
    keep_crash_image(&dir);
    let pages_built = tree.pool().live_pages();

    // Before any write: answers against brute force, pages per query.
    let search = NnSearch::new(&tree);
    let verify = opts.scaled(VERIFY);
    let queries: Vec<_> = (0..verify as u64)
        .map(|i| BatchQuery::Knn {
            q: gen::point_at(opts.sub_seed(3), i),
            k: K,
        })
        .collect();
    let mut pages = 0;
    let mut found = Vec::with_capacity(verify);
    for query in &queries {
        let (hits, stats) = search.query_with_stats(query.point(), K).expect("query");
        pages += stats.nodes_visited;
        found.push(common::dist_bits(&hits));
    }
    let wrong = common::brute_force(&items, &queries[..BRUTE.min(verify)])
        .iter()
        .zip(&found)
        .filter(|(want, got)| want != got)
        .count();
    res.check(wrong == 0, || {
        format!("{wrong} answers on the built tree differ from brute force")
    });
    res.attempted += verify as u64;
    res.failed += wrong as u64;
    res.set("pages_per_query", pages as f64 / verify as f64);

    let epoch = Instant::now();
    let gate = CheckpointGate::default();
    let mut writer = Writer {
        tree: &tree,
        gate: &gate,
        dir: &dir,
        seed: opts.sub_seed(4),
        n,
        inserted: 0,
        ops_since_checkpoint: 0,
        ops: 0,
        txns: 0,
        wal_bytes: 0,
        checkpoint_ms: Vec::new(),
        insert_ns: Vec::new(),
        delete_ns: Vec::new(),
        rec: opts.trace.then(|| Recorder::new(epoch, 1 << 20)),
    };
    let mut reader_rec = opts.trace.then(|| Recorder::new(epoch, 1 << 16));
    let length = opts.phase(1.0);
    let disk0 = tree.pool().disk_stats();
    let syncs0 = tree.pool().wal().expect("pool has a log").sync_count();

    let mut read_qps = Cycles::default();
    let mut write_ops = Cycles::default();
    let mut cpu = Cycles::default();
    let (mut read_p50, mut read_p90, mut read_p99) = <(Cycles, Cycles, Cycles)>::default();
    let (mut commit_p50, mut commit_p90, mut commit_p99) = <(Cycles, Cycles, Cycles)>::default();
    let mut ref_mops = Cycles::default();
    let mut samples = Vec::new();
    let mut reads = 0u64;
    for _ in 0..cycles {
        ref_mops.push(common::ref_mops());
        let cpu0 = procfs::process_cpu_us();
        let start = Instant::now();
        let deadline = start + length;
        let ops0 = writer.ops;
        let (mut r, mut txn_ns, wrote_for) = std::thread::scope(|scope| {
            let reader = scope
                .spawn(|| read_until(&tree, &gate, query_seed, reads, deadline, &mut reader_rec));
            let mut txn_ns = Vec::new();
            let mut own = Duration::ZERO;
            while Instant::now() < deadline {
                own += writer.round(0, &mut txn_ns);
            }
            let wrote_for = start.elapsed() - own;
            (reader.join().expect("reader thread"), txn_ns, wrote_for)
        });
        let done = r.lat_ns.len() as u64;
        let ops = writer.ops - ops0;
        read_qps.push(done as f64 / length.as_secs_f64());
        write_ops.push(ops as f64 / wrote_for.as_secs_f64());
        cpu.push((procfs::process_cpu_us() - cpu0) / (done + ops) as f64);
        read_p50.push(percentile_us(&mut r.lat_ns, 0.5));
        read_p90.push(percentile_us(&mut r.lat_ns, 0.9));
        read_p99.push(percentile_us(&mut r.lat_ns, 0.99));
        commit_p50.push(percentile_us(&mut txn_ns, 0.5));
        commit_p90.push(percentile_us(&mut txn_ns, 0.9));
        commit_p99.push(percentile_us(&mut txn_ns, 0.99));
        reads += done;
        samples.append(&mut r.samples);
        res.attempted += done + ops;
    }

    // The crash: one more round that leaves records behind, the log synced
    // (which is what makes the acknowledged commits durable), no
    // checkpoint. The image is the device as last checkpointed plus the
    // log as it stands.
    writer.round(LEFT_LIVE, &mut Vec::new());
    let wal = tree.pool().wal().expect("pool has a log");
    wal.sync().expect("sync the log");
    std::fs::copy(dir.path("index.wal"), dir.path("stale.wal")).expect("copy the log");
    writer.wal_bytes += file_len(&dir.path("index.wal"));
    let lost = check_durability(&mut res, &dir, tree.meta_page(), &writer);
    res.attempted += (ROUND + LEFT_LIVE) as u64;
    res.failed += lost;

    let sample_queries: Vec<_> = samples
        .iter()
        .map(|s| BatchQuery::Knn { q: s.query, k: K })
        .collect();
    let unsound = samples
        .iter()
        .zip(common::brute_force(&items, &sample_queries))
        .filter(|(s, base)| !sample_is_sound(&items, s, base))
        .count();
    res.check(unsound == 0, || {
        format!(
            "{unsound} of {} reads taken beside the writer are unsound",
            samples.len()
        )
    });
    res.failed += unsound as u64;

    let txns = writer.txns.max(1) as f64;
    let ops = writer.ops.max(1) as f64;
    res.notes.push(format!(
        "n={n}, tree {pages_built} pages at fill {FILL} on a pool of {POOL_FRAMES}, group commit {GROUP_COMMIT_US} us, {cycles} segments of {:.2} s; {} record ops in {} txns, {} checkpoints, {:.0} B of log per record op, {} reads ({} checked beside the writer), host reference loop {:.0} Mop/s",
        length.as_secs_f64(),
        writer.ops,
        writer.txns,
        writer.checkpoint_ms.len(),
        writer.wal_bytes as f64 / ops,
        reads,
        samples.len(),
        ref_mops.median(),
    ));
    res.cycles("qps_sat", read_qps);
    res.cycles("alt_ops_s", write_ops);
    res.cycles("cpu_us_per_req", cpu);
    res.cycles("lat_a_p50_us", read_p50);
    res.cycles("lat_a_tail_us", read_p90);
    res.cycles("lat_b_p50_us", commit_p50);
    res.cycles("lat_b_tail_us", commit_p90);
    res.set("peak_rss_mib", procfs::peak_rss_mib());
    if !opts.trace {
        return res;
    }

    let disk1 = tree.pool().disk_stats();
    res.set("storage.wal.bytes_per_op", writer.wal_bytes as f64 / ops);
    res.set(
        "storage.wal.syncs_per_txn",
        (wal.sync_count() - syncs0) as f64 / txns,
    );
    res.set(
        "storage.disk.writes_per_op",
        (disk1.writes - disk0.writes) as f64 / ops,
    );
    res.set(
        "rtree.tree.pages_alloc_per_op",
        (disk1.allocations - disk0.allocations) as f64 / ops,
    );
    res.set(
        "storage.pool.checkpoint_ms",
        stats::median(&writer.checkpoint_ms),
    );
    res.set(
        "rtree.tree.insert_many_us_per_record",
        percentile_us(&mut writer.insert_ns, 0.5) / ROUND as f64,
    );
    res.set(
        "rtree.tree.delete_us",
        percentile_us(&mut writer.delete_ns, 0.5),
    );
    res.cycles("ingest.read_p99_us", read_p99);
    res.cycles("ingest.commit_p99_us", commit_p99);
    res.cycles("host.ref_mops", ref_mops);
    res.set("rtree.bulk.load_s", stats::median(&load_s));
    res.set(
        "fail_share",
        res.failed as f64 / res.attempted.max(1) as f64,
    );
    let pool = tree.pool().stats();
    res.set("storage.pool.hit_rate", pool.hit_rate());
    res.set(
        "storage.pool.phys_reads_per_query",
        pool.physical_reads as f64 / reads.max(1) as f64,
    );
    res.set(
        "storage.pool.evictions_per_query",
        pool.evictions as f64 / reads.max(1) as f64,
    );
    res.set(
        "rtree.store.node_cache_hit_rate",
        tree.store().cache_stats().hit_rate(),
    );

    // Space: the device file once everything is checkpointed.
    tree.pool().checkpoint().expect("final checkpoint");
    res.set(
        "rtree.tree.index_bytes_per_record",
        file_len(&dir.path("index.db")) as f64 / tree.len() as f64,
    );
    probes::tree_layers(&mut res, &tree, opts);

    let lists = vec![
        writer.rec.take().map(|r| r.spans),
        reader_rec.map(|r| r.spans),
    ];
    let merged = spans::merge(lists.into_iter().flatten().collect());
    res.notes.push(probes::write_trace("ingest_mixed", &merged));
    res
}
