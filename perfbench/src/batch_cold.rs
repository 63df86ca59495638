//! `batch_cold`: storage does the work. A million uniform points on a
//! device with 100 µs of **simulated** read latency (`LatencyDisk` over
//! memory: a sleep, not a device; sequential reads cost a quarter), behind
//! a pool that holds an eighth of the tree's pages, with two prefetch
//! workers and the adaptive prefetch policy.
//!
//! In-process closed loop, no TCP: fresh batches of 256 uniform kNN
//! queries (k = 10) through `par_knn_batch` on two threads, then the same
//! items as a four-partition tree through `partitioned_knn_batch`. This is
//! the workload that reaches the partitioned engine and the two-thread
//! work-stealing executor; the serve workloads run one worker.

use crate::common::{self, Items, Opts};
use crate::gen;
use crate::metrics::RunResult;
use crate::probes;
use crate::procfs;
use crate::spans::{self, Recorder, NO_PARENT};
use crate::stats::{self, percentile_us, Cycles};
use nnq_core::{
    par_knn_batch, par_knn_batch_stats, partitioned_knn, partitioned_knn_batch, BatchQuery,
    MbrRefiner, Neighbor, NnOptions, PrefetchPolicy,
};
use nnq_geom::Point;
use nnq_rtree::{BulkMethod, PartitionedTree, RTree, RTreeConfig};
use nnq_storage::{
    BufferPool, LatencyDisk, LatencyProfile, MemDisk, PoolStats, PrefetchStats, PAGE_SIZE,
};
use nnq_workloads::{default_bounds, points_to_items, uniform_points};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 1_000_000;
/// An eighth of the tree's ~9 900 pages.
const POOL_FRAMES: usize = 1_280;
const PARTS: usize = 4;
const PREFETCH_QUEUE: usize = 64;
const LATENCY_US: u64 = 100;
const K: usize = 10;
const BATCH: usize = 256;
const THREADS: usize = 2;
/// Batches whose answers are compared between the engines (and the first
/// 1 024 queries with brute force).
const VERIFY_BATCHES: u64 = 8;
const BRUTE: usize = 1_024;
/// Queries whose mean page count is `pages_per_query`.
const PAGE_COUNT_QUERIES: usize = 8_192;

type Disk = Arc<LatencyDisk<MemDisk>>;

fn cold_pool(frames: usize, prefetch_workers: usize) -> (Disk, Arc<BufferPool>) {
    let disk = Arc::new(LatencyDisk::new(
        MemDisk::new(PAGE_SIZE),
        LatencyProfile::symmetric_us(0),
    ));
    let mut pool = BufferPool::new(Box::new(Arc::clone(&disk)), frames);
    pool.start_prefetch(prefetch_workers, PREFETCH_QUEUE);
    (disk, Arc::new(pool))
}

/// Both engines over the same items, built at zero latency, then emptied
/// of cached pages and switched to the simulated latency.
struct Engines {
    disks: Vec<Disk>,
    single: RTree<2>,
    parted: PartitionedTree<2>,
}

impl Engines {
    fn build(items: &Items, load_s: &mut Vec<f64>) -> Self {
        let (disk, pool) = cold_pool(POOL_FRAMES, 2);
        let start = Instant::now();
        let single = RTree::<2>::bulk_load(
            pool,
            RTreeConfig::default(),
            items.clone(),
            BulkMethod::Hilbert,
            1.0,
        )
        .expect("bulk load");
        load_s.push(start.elapsed().as_secs_f64());
        let (mut disks, pools): (Vec<_>, Vec<_>) = (0..PARTS)
            .map(|_| cold_pool(POOL_FRAMES / PARTS, 1))
            .unzip();
        let parted = PartitionedTree::bulk_load_on(
            pools,
            RTreeConfig::default(),
            items.clone(),
            BulkMethod::Hilbert,
            1.0,
            THREADS,
        )
        .expect("partitioned bulk load");
        disks.push(disk);
        let engines = Self {
            disks,
            single,
            parted,
        };
        for tree in engines.trees() {
            tree.pool().flush_all().expect("flush after build");
        }
        engines.chill();
        engines
    }

    fn trees(&self) -> impl Iterator<Item = &RTree<2>> {
        self.parted
            .partitions()
            .iter()
            .chain(std::iter::once(&self.single))
    }

    fn set_latency(&self, us: u64) {
        for d in &self.disks {
            d.set_latency(LatencyProfile::symmetric_us(us));
        }
    }

    /// Empties pools and node caches and turns the simulated latency on.
    fn chill(&self) {
        for tree in self.trees() {
            tree.pool().clear_cache().expect("clear pool cache");
            tree.store().clear_node_cache();
        }
        self.set_latency(LATENCY_US);
    }
}

fn opts_adaptive() -> NnOptions {
    NnOptions::with_prefetch(PrefetchPolicy::Adaptive)
}

/// Batch `b` of the query stream.
fn batch(seed: u64, b: u64) -> Vec<Point<2>> {
    (0..BATCH as u64)
        .map(|j| gen::point_at(seed, b * BATCH as u64 + j))
        .collect()
}

fn same_answers(a: &[Vec<Neighbor<2>>], b: &[Vec<Neighbor<2>>]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| {
            x.len() != y.len()
                || x.iter().zip(*y).any(|(m, n)| {
                    m.record != n.record || m.dist_sq.to_bits() != n.dist_sq.to_bits()
                })
        })
        .count()
}

#[derive(Default)]
struct PhaseTotals {
    queries: u64,
    batch_ns: Vec<u64>,
    elapsed: Duration,
    cpu_us: f64,
}

/// Closed loop on one engine for `length`: fresh batches, one after the
/// other, each timed.
fn drive(
    length: Duration,
    next_batch: &mut u64,
    seed: u64,
    mut rec: Option<(&mut Recorder, &'static str)>,
    mut run: impl FnMut(&[Point<2>]) -> usize,
) -> PhaseTotals {
    let mut out = PhaseTotals::default();
    let cpu0 = procfs::process_cpu_us();
    let start = Instant::now();
    while start.elapsed() < length {
        let queries = batch(seed, *next_batch);
        let t0 = Instant::now();
        let answered = match rec.as_mut() {
            Some((r, name)) => r.time(NO_PARENT, name, *next_batch, || run(&queries)),
            None => run(&queries),
        };
        out.batch_ns.push(t0.elapsed().as_nanos() as u64);
        out.queries += answered as u64;
        *next_batch += 1;
    }
    out.elapsed = start.elapsed();
    out.cpu_us = procfs::process_cpu_us() - cpu0;
    out
}

/// Adds to `total` what `tree`'s pool and prefetcher counted since `then`
/// (a reading of `pool_counters`).
fn add_counts_since(
    total: &mut (PoolStats, PrefetchStats),
    tree: &RTree<2>,
    then: (PoolStats, PrefetchStats),
) {
    let now = pool_counters(tree);
    total.0.accumulate(PoolStats {
        logical_reads: now.0.logical_reads - then.0.logical_reads,
        hits: now.0.hits - then.0.hits,
        physical_reads: now.0.physical_reads - then.0.physical_reads,
        evictions: now.0.evictions - then.0.evictions,
        writebacks: now.0.writebacks - then.0.writebacks,
    });
    total.1.issued += now.1.issued - then.1.issued;
    total.1.useful += now.1.useful - then.1.useful;
    total.1.wasted += now.1.wasted - then.1.wasted;
}

fn pool_counters(tree: &RTree<2>) -> (PoolStats, PrefetchStats) {
    (tree.pool().stats(), tree.pool().prefetch_stats())
}

pub fn run(opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let n = opts.scaled(N);
    let cycles = opts.cycles();
    let query_seed = opts.sub_seed(2);

    let mut load_s = Vec::new();
    let ((engines, items), setup_s) = common::timed_setups(|| {
        let items = points_to_items(&uniform_points(n, &default_bounds(), opts.sub_seed(1)));
        (Engines::build(&items, &mut load_s), items)
    });
    res.cycles("setup_s", Cycles(setup_s));
    let single_pages = engines.single.pool().live_pages();

    // Pages per query: an exact count that neither latency nor caching
    // changes, so it is taken over a larger set at zero latency.
    engines.set_latency(0);
    let reads0 = engines.single.pool().stats().logical_reads;
    let counted = opts.scaled(PAGE_COUNT_QUERIES);
    let search = nnq_core::NnSearch::with_options(&engines.single, opts_adaptive());
    for i in 0..counted as u64 {
        search
            .query(&gen::point_at(opts.sub_seed(3), i), K)
            .expect("counting query");
    }
    res.set(
        "pages_per_query",
        (engines.single.pool().stats().logical_reads - reads0) as f64 / counted as f64,
    );
    engines.chill();

    // Verification set: both engines cold, answers equal.
    let mut next_batch = 0u64;
    let mut differ = 0;
    let mut sampled: Vec<(BatchQuery<2>, Vec<u64>)> = Vec::new();
    for b in 0..VERIFY_BATCHES {
        let queries = batch(query_seed, b);
        let one = par_knn_batch(
            &engines.single,
            &queries,
            K,
            opts_adaptive(),
            &MbrRefiner,
            THREADS,
        )
        .expect("single-tree batch");
        let (four, _) = partitioned_knn_batch(
            &engines.parted,
            &queries,
            K,
            opts_adaptive(),
            &MbrRefiner,
            THREADS,
        )
        .expect("partitioned batch");
        differ += same_answers(&one, &four);
        let room = opts.scaled(BRUTE).saturating_sub(sampled.len());
        sampled.extend(
            queries
                .iter()
                .zip(&one)
                .take(room)
                .map(|(q, found)| (BatchQuery::Knn { q: *q, k: K }, common::dist_bits(found))),
        );
        next_batch += 1;
    }
    let (brute_queries, got): (Vec<_>, Vec<_>) = sampled.into_iter().unzip();
    let checked = got.len();
    let brute_bad = common::brute_force(&items, &brute_queries)
        .iter()
        .zip(&got)
        .filter(|(want, got)| want != got)
        .count();
    let verified = VERIFY_BATCHES * BATCH as u64;
    res.check(differ == 0, || {
        format!("{differ} of {verified} partitioned answers differ from the single tree's")
    });
    res.check(brute_bad == 0, || {
        format!("{brute_bad} of {checked} answers differ from brute force")
    });
    res.attempted += 2 * verified;
    res.failed += (differ + brute_bad) as u64;

    let epoch = Instant::now();
    let mut rec = opts.trace.then(|| Recorder::new(epoch, 1 << 16));
    let length = opts.phase(2.25);
    let mut single_qps = Cycles::default();
    let mut part_qps = Cycles::default();
    let mut cpu = Cycles::default();
    let (mut single_p50, mut single_p90) = <(Cycles, Cycles)>::default();
    let (mut part_p50, mut part_p90) = <(Cycles, Cycles)>::default();
    let mut ref_mops = Cycles::default();
    // What the pool counted during the single-tree phases.
    let mut counted = (PoolStats::default(), PrefetchStats::default());
    let (mut single_queries, mut part_queries, mut visited) = (0u64, 0u64, 0u64);
    let sequential = nnq_core::NnSearch::new(&engines.single);
    for _ in 0..cycles {
        ref_mops.push(common::ref_mops());
        let before = pool_counters(&engines.single);
        let mut p = drive(
            length,
            &mut next_batch,
            query_seed,
            rec.as_mut().map(|r| (r, "core.parallel.batch")),
            |q| {
                par_knn_batch(&engines.single, q, K, opts_adaptive(), &MbrRefiner, THREADS)
                    .expect("single-tree batch")
                    .len()
            },
        );
        add_counts_since(&mut counted, &engines.single, before);
        single_qps.push(p.queries as f64 / p.elapsed.as_secs_f64());
        single_p50.push(percentile_us(&mut p.batch_ns, 0.5));
        single_p90.push(percentile_us(&mut p.batch_ns, 0.9));
        single_queries += p.queries;
        res.attempted += p.queries;

        let mut p = drive(
            length,
            &mut next_batch,
            query_seed,
            rec.as_mut().map(|r| (r, "core.scatter.batch")),
            |q| {
                let (found, stats) = partitioned_knn_batch(
                    &engines.parted,
                    q,
                    K,
                    opts_adaptive(),
                    &MbrRefiner,
                    THREADS,
                )
                .expect("partitioned batch");
                visited += stats.partitions_visited;
                found.len()
            },
        );
        part_queries += p.queries;
        part_qps.push(p.queries as f64 / p.elapsed.as_secs_f64());
        part_p50.push(percentile_us(&mut p.batch_ns, 0.5));
        part_p90.push(percentile_us(&mut p.batch_ns, 0.9));
        res.attempted += p.queries;

        // CPU per query with the waiting taken out: one thread, no
        // prefetch, the device at zero latency, the pool as cold as the
        // phases left it, so every miss still evicts, reads and decodes.
        // Under latency the process's CPU is mostly the cost of the
        // device's sleeps and wake-ups, which is the host's: it spread by
        // up to 28 % between runs of one binary.
        engines.set_latency(0);
        let cpu0 = procfs::process_cpu_us();
        let start = Instant::now();
        let mut done = 0u64;
        while start.elapsed() < length / 4 {
            for q in batch(query_seed, next_batch) {
                sequential.query(&q, K).expect("sequential query");
            }
            next_batch += 1;
            done += BATCH as u64;
        }
        cpu.push((procfs::process_cpu_us() - cpu0) / done as f64);
        res.attempted += done;
        engines.set_latency(LATENCY_US);
    }
    let (pool, prefetch) = counted;

    res.notes.push(format!(
        "n={n}, single tree {single_pages} pages on a pool of {POOL_FRAMES}, {PARTS} partitions on {} each, {LATENCY_US} us simulated read latency, {cycles} cycles of {:.2} s phases, batches of {BATCH}, {THREADS} threads, host reference loop {:.0} Mop/s",
        POOL_FRAMES / PARTS,
        length.as_secs_f64(),
        ref_mops.median(),
    ));
    res.cycles("qps_sat", single_qps);
    res.cycles("alt_ops_s", part_qps);
    res.cycles("cpu_us_per_req", cpu);
    res.cycles("lat_a_p50_us", single_p50);
    res.cycles("lat_a_tail_us", single_p90);
    res.cycles("lat_b_p50_us", part_p50);
    res.cycles("lat_b_tail_us", part_p90);
    res.set("peak_rss_mib", procfs::peak_rss_mib());
    let Some(mut rec) = rec else {
        return res;
    };

    // Counts at the pool boundary over the single-tree phases.
    let q = single_queries.max(1) as f64;
    res.set("storage.pool.hit_rate", pool.hit_rate());
    res.set(
        "storage.pool.phys_reads_per_query",
        pool.physical_reads as f64 / q,
    );
    res.set(
        "storage.pool.evictions_per_query",
        pool.evictions as f64 / q,
    );
    res.set(
        "storage.pool.prefetch_useful_rate",
        prefetch.useful as f64 / (prefetch.useful + prefetch.wasted).max(1) as f64,
    );
    res.set(
        "storage.pool.prefetch_issued_per_query",
        prefetch.issued as f64 / q,
    );
    let cache = engines.single.store().cache_stats();
    res.set("rtree.store.node_cache_hit_rate", cache.hit_rate());
    res.cycles("host.ref_mops", ref_mops);
    res.set("rtree.bulk.load_s", stats::median(&load_s));
    res.set(
        "fail_share",
        res.failed as f64 / res.attempted.max(1) as f64,
    );

    // Two threads against one, and how evenly the two shared the work.
    let mut qps = [0.0; 2];
    let mut imbalance = Vec::new();
    for (slot, threads) in [(0, 1), (1, THREADS)] {
        let start = Instant::now();
        let mut done = 0;
        while start.elapsed() < length / 2 {
            let queries = batch(query_seed, next_batch);
            next_batch += 1;
            let (found, stats) = par_knn_batch_stats(
                &engines.single,
                &queries,
                K,
                opts_adaptive(),
                &MbrRefiner,
                threads,
            )
            .expect("single-tree batch");
            done += found.len();
            if threads > 1 {
                let per = &stats.per_worker_queries;
                let (lo, hi) = (
                    per.iter().min().copied().unwrap_or(0),
                    per.iter().max().copied().unwrap_or(0),
                );
                imbalance.push(hi as f64 / lo.max(1) as f64);
            }
        }
        qps[slot] = done as f64 / start.elapsed().as_secs_f64();
    }
    res.set("core.parallel.scale_2t", qps[1] / qps[0]);
    res.set("core.parallel.worker_imbalance", stats::median(&imbalance));

    // Sequential queries with their own counters, still cold.
    let search = nnq_core::NnSearch::with_options(&engines.single, opts_adaptive());
    let mut totals = nnq_core::SearchStats::default();
    let root = rec.open(NO_PARENT, "sequential.pass", next_batch);
    let queries = batch(query_seed, next_batch);
    for (j, q) in queries.iter().enumerate() {
        let (_, stats) = rec.time(root, "core.branch_bound.query", j as u64, || {
            search.query_with_stats(q, K).expect("sequential query")
        });
        totals.accumulate(&stats);
    }
    rec.close(root);
    let pass = rec.spans[root as usize].end_ns - rec.spans[root as usize].start_ns;
    res.set(
        "core.branch_bound.knn_us_per_query",
        pass as f64 / 1e3 / BATCH as f64,
    );
    res.set(
        "core.branch_bound.nodes_per_query",
        totals.nodes_visited as f64 / BATCH as f64,
    );
    res.set(
        "core.branch_bound.pruned_share",
        totals.pruned_total() as f64 / (totals.pruned_total() + totals.nodes_visited).max(1) as f64,
    );
    res.set(
        "geom.kernels.entries_per_query",
        totals.dist_computations as f64 / BATCH as f64,
    );

    // Scatter-gather alone: the same partitions warm and without latency.
    engines.set_latency(0);
    let warm = PartitionedTree::bulk_load_in_memory(
        items[..items.len() / 5].to_vec(),
        PARTS,
        RTreeConfig::default(),
        BulkMethod::Hilbert,
        1.0,
        1 << 14,
        THREADS,
    )
    .expect("warm partitioned tree");
    let mut warm_ns = 0;
    for _pass in 0..2 {
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(
                partitioned_knn(&warm, q, K, NnOptions::default(), &MbrRefiner, 1)
                    .expect("scatter"),
            );
        }
        warm_ns = start.elapsed().as_nanos();
    }
    res.set(
        "core.scatter.us_per_query_warm",
        warm_ns as f64 / 1e3 / BATCH as f64,
    );
    res.set(
        "core.scatter.partitions_visited_per_query",
        visited as f64 / part_queries.max(1) as f64,
    );

    probes::tree_layers(&mut res, &engines.single, opts);
    res.notes.push(probes::write_trace(
        "batch_cold",
        &spans::merge(vec![rec.spans]),
    ));
    res
}
