//! The subcommands: gen, build, stats, query, bench, serve, explain, join.

use crate::args::{Args, CliError};
use nnq_core::{
    forest_batch, metric_knn, scatter_knn, scatter_radius, BatchQuery, FnRefiner, JoinOrder,
    MbrRefiner, NnOptions, NnSearch, PartitionedStats, PrefetchPolicy,
};
use nnq_geom::{Metric, Point, Rect, Segment};
use nnq_rtree::{
    BulkMethod, PartitionManifest, PartitionedTree, RTree, RTreeConfig, RecordId, SplitStrategy,
    TreeAccess,
};
use nnq_serve::Engine;
use nnq_storage::{
    BufferPool, CacheStats, DiskManager, FileDisk, LatencyDisk, LatencyProfile, PageId,
    PrefetchStats, Wal, PAGE_SIZE,
};
use nnq_workloads::{
    default_bounds, gaussian_clusters, load_segments_csv, save_segments_csv, segments_to_items,
    tiger_like_segments, uniform_points, TigerParams,
};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// `nnq gen` — write a synthetic dataset as a segment CSV.
pub fn generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let kind = args.req("kind")?;
    let n: usize = args.num("n", 10_000)?;
    let seed: u64 = args.num("seed", 0)?;
    let path = args.req("out")?;
    let bounds = default_bounds();
    let segments: Vec<Segment> = match kind {
        "tiger" => tiger_like_segments(&TigerParams {
            segments: n,
            seed,
            ..TigerParams::default()
        }),
        "uniform" => uniform_points(n, &bounds, seed)
            .into_iter()
            .map(|p| Segment::new(p, p))
            .collect(),
        "clustered" => gaussian_clusters(n, 32, 1_500.0, &bounds, seed)
            .into_iter()
            .map(|p| Segment::new(p, p))
            .collect(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --kind `{other}` (want tiger, uniform, or clustered)"
            )))
        }
    };
    save_segments_csv(path, &segments)?;
    writeln!(out, "wrote {} {kind} segments to {path}", segments.len())?;
    Ok(())
}

fn parse_build_method(name: &str) -> Result<Result<SplitStrategy, BulkMethod>, CliError> {
    Ok(match name {
        "linear" => Ok(SplitStrategy::Linear),
        "quadratic" => Ok(SplitStrategy::Quadratic),
        "rstar" => Ok(SplitStrategy::RStar),
        "str" => Err(BulkMethod::Str),
        "hilbert" => Err(BulkMethod::Hilbert),
        "lowx" => Err(BulkMethod::LowX),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --method `{other}` (want linear, quadratic, rstar, str, hilbert, or lowx)"
            )))
        }
    })
}

/// `--partitions P`: Hilbert-range partition count; `None` when absent
/// (single-tree mode), must be ≥ 1 when given.
fn parse_partitions(args: &Args) -> Result<Option<usize>, CliError> {
    match args.opt("partitions") {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) | Err(_) => Err(CliError::Usage(format!(
                "flag `--partitions` must be an integer ≥ 1, got `{v}`"
            ))),
            Ok(p) => Ok(Some(p)),
        },
    }
}

/// File layout of a partitioned index rooted at `index`: partition `i`'s
/// page file.
fn partition_file(index: &str, i: usize) -> String {
    format!("{index}.p{i}")
}

/// The manifest file beside a partitioned index.
fn manifest_file(index: &str) -> String {
    format!("{index}.manifest")
}

/// `nnq build` — build a persistent index file from a dataset.
pub fn build(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.req("input")?;
    let index = args.req("index")?;
    let method = parse_build_method(args.opt("method").unwrap_or("quadratic"))?;

    let segments = load_segments_csv(input)?;
    let items = segments_to_items(&segments);

    if let Some(partitions) = parse_partitions(args)? {
        let Err(bulk) = method else {
            return Err(CliError::Usage(
                "flag `--partitions` requires a bulk method (str, hilbert, or lowx): \
                 dynamic insertion builds one tree"
                    .into(),
            ));
        };
        return build_partitioned(index, items, partitions, bulk, out);
    }

    let disk = FileDisk::create(index, PAGE_SIZE)?;
    let pool = Arc::new(BufferPool::new(Box::new(disk), 4096));
    let start = Instant::now();
    let tree = match method {
        Ok(split) => {
            let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::with_split(split))?;
            for (mbr, rid) in &items {
                tree.insert(mbr, *rid)?;
            }
            tree
        }
        Err(bulk) => {
            RTree::<2>::bulk_load(Arc::clone(&pool), RTreeConfig::default(), items, bulk, 1.0)?
        }
    };
    pool.flush_all()?;
    let elapsed = start.elapsed();
    debug_assert_eq!(
        tree.meta_page(),
        PageId(0),
        "meta page is page 0 by construction"
    );
    let stats = tree.stats()?;
    writeln!(
        out,
        "built {index}: {} entries, height {}, {} pages, avg fill {:.2}, {:.0} ms",
        tree.len(),
        tree.height(),
        stats.nodes,
        stats.avg_fill,
        elapsed.as_secs_f64() * 1e3
    )?;
    Ok(())
}

/// Builds a Hilbert-range partitioned index: one page file per partition
/// (`<index>.p<i>`) plus the text manifest (`<index>.manifest`).
/// Partitions build in parallel, one thread per available core.
fn build_partitioned(
    index: &str,
    items: Vec<(Rect<2>, RecordId)>,
    partitions: usize,
    bulk: BulkMethod,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let pools: Vec<Arc<BufferPool>> = (0..partitions)
        .map(|i| {
            let disk = FileDisk::create(partition_file(index, i), PAGE_SIZE)?;
            Ok(Arc::new(BufferPool::new(Box::new(disk), 4096)))
        })
        .collect::<Result<_, CliError>>()?;
    let build_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let start = Instant::now();
    let tree = PartitionedTree::bulk_load_on(
        pools,
        RTreeConfig::default(),
        items,
        bulk,
        1.0,
        build_threads,
    )?;
    for part in tree.partitions() {
        part.pool().flush_all()?;
    }
    std::fs::write(manifest_file(index), tree.manifest().encode())
        .map_err(|e| CliError::Run(format!("writing manifest: {e}")))?;
    let elapsed = start.elapsed();
    let max_height = tree
        .partitions()
        .iter()
        .map(|p| p.height())
        .max()
        .unwrap_or(0);
    writeln!(
        out,
        "built {index}: {} entries across {partitions} partition(s), max height {max_height}, \
         {build_threads} build thread(s), {:.0} ms (manifest {})",
        tree.forest().len(),
        elapsed.as_secs_f64() * 1e3,
        manifest_file(index)
    )?;
    Ok(())
}

fn open_index(path: &str) -> Result<RTree<2>, CliError> {
    open_index_tuned(path, &ReadPathOpts::default())
}

/// Opens the index `query`, `bench` and `serve` read and runs `body` on
/// it; every read goes through [`Engine::forest`]. A plain index is one
/// tree, a forest of one. With `--partitions P` the index is one built by
/// [`build_partitioned`]: the manifest is decoded and checked against P,
/// and every partition file opens on its **own** pool.
fn with_index<T>(
    args: &Args,
    read: &ReadPathOpts,
    body: impl FnOnce(&Engine<'_>) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let index = args.req("index")?;
    let Some(expected) = parse_partitions(args)? else {
        return body(&Engine::Single(&open_index_tuned(index, read)?));
    };
    let manifest_path = manifest_file(index);
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| CliError::Run(format!("reading {manifest_path}: {e}")))?;
    let manifest = PartitionManifest::decode(&text)?;
    let named = manifest.partitions;
    if named != expected {
        // A manifest naming a partition file that does not exist is
        // corrupt; otherwise it is the flag that disagrees.
        let last = partition_file(index, named - 1);
        if !std::path::Path::new(&last).exists() {
            return Err(CliError::Run(format!(
                "{manifest_path} names {named} partitions but {last} does not exist"
            )));
        }
        return Err(CliError::Usage(format!(
            "--partitions {expected} does not match {manifest_path} ({named} partitions)"
        )));
    }
    let parts = (0..expected)
        .map(|i| open_index_tuned(&partition_file(index, i), read))
        .collect::<Result<_, _>>()?;
    let tree = PartitionedTree::from_parts(parts, manifest)?;
    body(&Engine::Partitioned(&tree))
}

/// Opens an index file on its own pool with the full I/O tuning surface:
/// pool shard count, injected per-access device latency (0 = raw disk),
/// and the prefetch pipeline's background I/O workers.
fn open_index_tuned(path: &str, opts: &ReadPathOpts) -> Result<RTree<2>, CliError> {
    let disk = FileDisk::open(path, PAGE_SIZE)?;
    let disk: Box<dyn DiskManager> = if opts.io_lat_us > 0 {
        Box::new(LatencyDisk::new(
            disk,
            LatencyProfile::symmetric_us(opts.io_lat_us),
        ))
    } else {
        Box::new(disk)
    };
    let mut pool = BufferPool::with_shards(disk, 4096, opts.pool_shards);
    if opts.prefetch != PrefetchPolicy::Off {
        pool.start_prefetch(2, 64);
    }
    Ok(RTree::<2>::open(Arc::new(pool), PageId(0))?)
}

/// The read-path flags `query`, `bench`, and `serve` share.
struct ReadPathOpts {
    /// `--threads N`: worker count for batch execution; must be ≥ 1.
    threads: usize,
    /// `--pool-shards N`: buffer-pool shard count; must be a power of two
    /// ≥ 1 (shards are selected by masking the page id's low bits).
    pool_shards: usize,
    /// `--prefetch <off|adaptive>`: whether batches interleave (`bench`
    /// and `serve`; `query` runs one query, which never does).
    prefetch: PrefetchPolicy,
    /// `--io-lat-us N`: injected per-access device latency (0 = raw disk).
    io_lat_us: u64,
}

impl Default for ReadPathOpts {
    fn default() -> Self {
        Self {
            threads: 1,
            pool_shards: 1,
            prefetch: PrefetchPolicy::Off,
            io_lat_us: 0,
        }
    }
}

impl ReadPathOpts {
    fn parse(args: &Args) -> Result<Self, CliError> {
        let default = Self::default();
        let threads = args.count("threads", default.threads)?;
        let pool_shards: usize = args.num("pool-shards", default.pool_shards)?;
        if pool_shards == 0 || !pool_shards.is_power_of_two() {
            return Err(CliError::Usage(
                "flag `--pool-shards` must be a power of two ≥ 1".into(),
            ));
        }
        Ok(Self {
            threads,
            pool_shards,
            prefetch: parse_named(args, "prefetch", default.prefetch)?,
            io_lat_us: args.num("io-lat-us", default.io_lat_us)?,
        })
    }
}

/// An optional flag whose parse error names what it wanted.
fn parse_named<T>(args: &Args, name: &str, default: T) -> Result<T, CliError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match args.opt(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(format!("flag `--{name}`: {e}"))),
    }
}

/// The prefetch line of `bench` and `serve`, when the pipeline
/// is on: the trees' counters summed, every pipeline quiesced first so
/// each issued hint has been classified.
fn prefetch_report(trees: &[RTree<2>], policy: PrefetchPolicy) -> Option<String> {
    let mut s = PrefetchStats::default();
    let mut workers = 0;
    for tree in trees {
        let pool = tree.pool();
        pool.prefetch_quiesce();
        let pf = pool.prefetch_stats();
        s.issued += pf.issued;
        s.useful += pf.useful;
        s.wasted += pf.wasted;
        s.dropped += pf.dropped;
        workers += pool.prefetch_workers();
    }
    (workers > 0).then(|| {
        format!(
            "prefetch {policy}: {} issued, {} useful, {} wasted, {} dropped, useful rate {:.1}%",
            s.issued,
            s.useful,
            s.wasted,
            s.dropped,
            s.useful_rate() * 100.0
        )
    })
}

/// The node-cache line of `bench` and `serve`: node reads that took the
/// decoded node their pool frame held, summed over the trees.
fn node_cache_report(trees: &[RTree<2>]) -> String {
    let (mut hits, mut reads) = (0, 0);
    for tree in trees {
        let c = tree.store().cache_stats();
        hits += c.hits;
        reads += c.hits + c.misses;
    }
    format!(
        "node cache: {hits} hits / {reads} reads ({:.1}% decode-free)",
        hits as f64 / reads.max(1) as f64 * 100.0
    )
}

/// Refuses an index and a data file that do not belong together: record
/// ids index the data file, so a shorter one would be read out of bounds.
fn check_pairing(entries: u64, segments: &[Segment]) -> Result<(), CliError> {
    if segments.len() as u64 != entries {
        return Err(CliError::Run(format!(
            "index has {entries} entries but data file has {} segments — wrong pairing?",
            segments.len()
        )));
    }
    Ok(())
}

/// `nnq stats` — print the structure of an index file.
pub fn stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let tree = open_index(args.req("index")?)?;
    let s = tree.stats()?;
    writeln!(out, "entries:      {}", tree.len())?;
    writeln!(out, "height:       {}", tree.height())?;
    writeln!(out, "nodes:        {} ({} leaves)", s.nodes, s.leaves)?;
    writeln!(out, "avg fill:     {:.2}", s.avg_fill)?;
    writeln!(out, "split:        {:?}", tree.config().split)?;
    writeln!(out, "nodes/level:  {:?}", s.nodes_per_level)?;
    let b = tree.bounds();
    if !b.is_empty() {
        writeln!(
            out,
            "bounds:       ({:.0}, {:.0}) .. ({:.0}, {:.0})",
            b.lo()[0],
            b.lo()[1],
            b.hi()[0],
            b.hi()[1]
        )?;
    }
    Ok(())
}

/// `--radius R`: `None` when absent; a usage error unless finite and ≥ 0.
fn parse_radius(args: &Args) -> Result<Option<f64>, CliError> {
    let Some(v) = args.opt("radius") else {
        return Ok(None);
    };
    match v.parse::<f64>() {
        Ok(r) if r.is_finite() && r >= 0.0 => Ok(Some(r)),
        _ => Err(CliError::Usage(format!(
            "flag `--radius` must be a finite number ≥ 0, got `{v}`"
        ))),
    }
}

/// `--metric <l1|l2|linf>`: `None` when absent.
fn parse_metric(args: &Args) -> Result<Option<Metric>, CliError> {
    let Some(metric) = args.opt("metric") else {
        return Ok(None);
    };
    let metric = match metric {
        "l2" | "euclidean" => Metric::Euclidean,
        "l1" | "manhattan" => Metric::Manhattan,
        "linf" | "chebyshev" => Metric::Chebyshev,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --metric `{other}` (want l1, l2, or linf)"
            )))
        }
    };
    if args.opt("partitions").is_some() {
        return Err(CliError::Usage(
            "flag `--metric` is not supported with `--partitions`: \
             generalized metrics run on a single tree"
                .into(),
        ));
    }
    Ok(Some(metric))
}

/// `nnq query` — kNN or radius query against an index + its dataset,
/// scatter-gather over its forest. The stats line reports how many trees
/// the MINDIST-to-bound schedule visited vs pruned (a plain index is one
/// tree, always visited).
pub fn query(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let read = ReadPathOpts::parse(args)?;
    let k = args.count("k", 1)?;
    let radius = parse_radius(args)?;
    let metric = parse_metric(args)?;
    with_index(args, &read, |engine| {
        let forest = engine.forest();
        let trees = forest.trees();
        let segments = load_segments_csv(args.req("data")?)?;
        check_pairing(forest.len(), &segments)?;
        let opts = NnOptions::default();
        let (x, y) = args.coords("at")?;
        let q = Point::new([x, y]);
        let refiner = FnRefiner::new(|rid: RecordId, _: &Rect<2>, p: &Point<2>| {
            segments[rid.0 as usize].dist_sq_to_point(p)
        });

        let start = Instant::now();
        let (hits, stats) = match (radius, metric) {
            (Some(radius), _) => scatter_radius(forest, &q, radius, opts, &refiner, read.threads)?,
            // Generalized metrics rank segment MBRs (centers for points);
            // the exact-geometry refiner is Euclidean-only.
            (None, Some(metric)) => {
                let (hits, search) = metric_knn(&trees[0], &q, k, metric)?;
                let stats = PartitionedStats {
                    search,
                    partitions_visited: 1,
                    partitions_pruned: 0,
                    rounds: 1,
                };
                (hits, stats)
            }
            (None, None) => scatter_knn(forest, &q, k, opts, &refiner, read.threads)?,
        };
        let elapsed = start.elapsed();

        for (rank, n) in hits.iter().enumerate() {
            let s = &segments[n.record.0 as usize];
            writeln!(
                out,
                "{:>3}. segment #{:<8} [{:.1},{:.1}]->[{:.1},{:.1}]  dist {:.1}",
                rank + 1,
                n.record.0,
                s.a[0],
                s.a[1],
                s.b[0],
                s.b[1],
                n.dist()
            )?;
        }
        // A single query point has nothing to fan out over but its trees;
        // `--threads` is echoed so scripts can treat the `query` and
        // `bench` stats lines uniformly.
        writeln!(
            out,
            "({} results, {} nodes read, {}/{} partition(s) visited ({} pruned, {} round(s)), \
             {} thread(s), {} pool shard(s), pool hit rate {:.1}%, {:.1} µs)",
            hits.len(),
            stats.search.nodes_visited,
            stats.partitions_visited,
            trees.len(),
            stats.partitions_pruned,
            stats.rounds,
            read.threads,
            trees[0].pool().shard_count(),
            forest.pool_stats().hit_rate() * 100.0,
            elapsed.as_secs_f64() * 1e6
        )?;
        Ok(())
    })
}

/// `nnq bench` — average query latency and page accesses over a batch of
/// random query points, run by the work-stealing batch executor over the
/// index's forest: each query is one scatter-gather item. Page accesses
/// are summed across every tree's pool, so pages/query does not depend on
/// how the index is partitioned.
pub fn bench(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let read = ReadPathOpts::parse(args)?;
    let n_queries = args.count("queries", 1000)?;
    let k = args.count("k", 10)?;
    let queries =
        nnq_workloads::uniform_queries(n_queries, &default_bounds(), args.num("seed", 1)?);
    let requests: Vec<BatchQuery<2>> = queries.iter().map(|&q| BatchQuery::Knn { q, k }).collect();
    with_index(args, &read, |engine| {
        let forest = engine.forest();
        let trees = forest.trees();
        let segments = load_segments_csv(args.req("data")?)?;
        check_pairing(forest.len(), &segments)?;
        let refiner = FnRefiner::new(|rid: RecordId, _: &Rect<2>, p: &Point<2>| {
            segments[rid.0 as usize].dist_sq_to_point(p)
        });

        forest.reset_stats();
        let start = Instant::now();
        let (answers, _) = forest_batch(
            forest,
            &requests,
            NnOptions::with_prefetch(read.prefetch),
            &refiner,
            read.threads,
            JoinOrder::AsGiven,
            None,
        )
        .map_err(|e| CliError::Run(e.to_string()))?;
        let mut pstats = PartitionedStats::default();
        for (_, ps) in &answers {
            pstats.accumulate(ps);
        }
        let elapsed = start.elapsed();
        // Per-query logical reads (the paper's "pages accessed") are
        // shard-, thread- and partition-count-independent.
        let pool = forest.pool_stats();
        let per_q = |v: u64| v as f64 / n_queries as f64;
        writeln!(
            out,
            "{} queries (k = {k}) over {} partition(s): {:.1} µs/query, {:.1} pages/query, \
             {:.1} physical reads/query, hit rate {:.1}%",
            n_queries,
            trees.len(),
            elapsed.as_secs_f64() * 1e6 / n_queries as f64,
            per_q(pool.logical_reads),
            per_q(pool.physical_reads),
            pool.hit_rate() * 100.0
        )?;
        writeln!(
            out,
            "{}, {} thread(s), {} pool shard(s)",
            node_cache_report(trees),
            read.threads,
            trees[0].pool().shard_count()
        )?;
        writeln!(
            out,
            "partitions: {:.2} visited/query, {:.2} pruned/query, {:.2} round(s)/query",
            per_q(pstats.partitions_visited),
            per_q(pstats.partitions_pruned),
            per_q(pstats.rounds),
        )?;
        if let Some(report) = prefetch_report(trees, read.prefetch) {
            writeln!(out, "{report}")?;
        }
        Ok(())
    })
}

/// `nnq explain` — print the branch-and-bound decision trace for one
/// query.
pub fn explain(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let k = args.count("k", 1)?;
    let tree = open_index(args.req("index")?)?;
    let (x, y) = args.coords("at")?;
    let q = Point::new([x, y]);
    let (hits, stats, trace) = NnSearch::new(&tree).query_traced(&q, k, &MbrRefiner)?;
    writeln!(out, "{}", trace.render())?;
    writeln!(
        out,
        "result: {} neighbors; {} nodes visited, {} branches/objects pruned",
        hits.len(),
        stats.nodes_visited,
        stats.pruned_total()
    )?;
    Ok(())
}

/// `nnq join` — for each point of a query CSV (degenerate segments), find
/// the k nearest indexed objects; reports throughput for both outer
/// orderings.
pub fn join(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let k = args.count("k", 4)?;
    let tree = open_index(args.req("index")?)?;
    let pool = tree.pool();
    let segments = load_segments_csv(args.req("data")?)?;
    let outer_segments = load_segments_csv(args.req("outer")?)?;
    let outer: Vec<Point<2>> = outer_segments.iter().map(Segment::midpoint).collect();
    let refiner = FnRefiner::new(
        |rid: nnq_rtree::RecordId, _: &nnq_geom::Rect<2>, p: &Point<2>| {
            segments[rid.0 as usize].dist_sq_to_point(p)
        },
    );
    for (label, order) in [
        ("as-given", JoinOrder::AsGiven),
        ("hilbert", JoinOrder::Hilbert),
    ] {
        pool.reset_stats();
        // The node-read counters are never reset: this ordering's own are
        // the difference across it.
        let before = tree.store().cache_stats();
        let start = Instant::now();
        let results = nnq_core::knn_join(
            &tree,
            &outer,
            k,
            nnq_core::NnOptions::default(),
            &refiner,
            order,
        )?;
        let secs = start.elapsed().as_secs_f64();
        let pstats = pool.stats();
        let produced: usize = results.iter().map(Vec::len).sum();
        let after = tree.store().cache_stats();
        let cstats = CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            ..CacheStats::default()
        };
        writeln!(
            out,
            "{label:>9}: {} pairs in {:.0} ms ({:.0} outer/s), {} physical reads, hit rate {:.1}%, node-cache {:.1}%",
            produced,
            secs * 1e3,
            outer.len() as f64 / secs,
            pstats.physical_reads,
            pstats.hit_rate() * 100.0,
            cstats.hit_rate() * 100.0
        )?;
    }
    Ok(())
}

/// `nnq serve` — run the long-running query server until a client sends a
/// shutdown frame, then print the run's counters.
///
/// The server answers kNN and radius requests over the length-prefixed
/// wire protocol (see `nnq-serve`), micro-batching whatever is queued
/// (up to `--batch-max`) whenever the batcher is free and executing each
/// batch against a fresh tree snapshot with the work-stealing executor.
/// Overload fast-rejects; results and per-query logical reads are
/// bit-identical to sequential `nnq query` invocations.
pub fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let read = ReadPathOpts::parse(args)?;
    let port: u16 = args.num("port", 0)?;
    let defaults = nnq_serve::ServeConfig::default();
    let batch_max = args.count("batch-max", defaults.batch_max)?;
    let inbox_cap = args.count("inbox-cap", defaults.inbox_cap)?;
    // `--result-cache off|N`: memoized-answer capacity. Safe to leave on —
    // hits replay the recorded answer and stats, so responses stay
    // bit-identical; `off` (or 0) is the escape hatch.
    let result_cache: usize = match args.opt("result-cache") {
        None => defaults.result_cache,
        Some("off") => 0,
        Some(v) => v.parse().map_err(|_| {
            CliError::Usage(format!(
                "flag `--result-cache` wants `off` or a capacity, got `{v}`"
            ))
        })?,
    };
    let max_in_flight = args.count("max-in-flight", defaults.max_in_flight)?;
    let index = args.req("index")?;
    let segments = load_segments_csv(args.req("data")?)?;
    let refiner = FnRefiner::new(|rid: RecordId, _: &Rect<2>, p: &Point<2>| {
        segments[rid.0 as usize].dist_sq_to_point(p)
    });
    let config = nnq_serve::ServeConfig {
        threads: read.threads,
        batch_max,
        inbox_cap,
        prefetch: read.prefetch,
        result_cache,
        max_in_flight,
        ..defaults
    };

    // Bind before opening the index so `--port 0` (ephemeral) reports the
    // real port immediately; tests discover it through `--port-file`.
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;

    let report = with_index(args, &read, |engine| {
        let forest = engine.forest();
        check_pairing(forest.len(), &segments)?;
        writeln!(
            out,
            "serving {index} on {addr} ({} thread(s), batch ≤ {batch_max}, \
             inbox {inbox_cap})",
            read.threads
        )?;
        out.flush()?;
        if let Some(path) = args.opt("port-file") {
            std::fs::write(path, addr.port().to_string())
                .map_err(|e| CliError::Run(format!("writing {path}: {e}")))?;
        }
        let report = nnq_serve::serve(engine, &refiner, listener, &config)?;
        let pstats = forest.pool_stats();
        writeln!(
            out,
            "pool: hit rate {:.1}%, {} logical reads, {} physical reads, \
             {} partition(s) × {} shard(s)",
            pstats.hit_rate() * 100.0,
            pstats.logical_reads,
            pstats.physical_reads,
            forest.trees().len(),
            forest.trees()[0].pool().shard_count()
        )?;
        writeln!(out, "{}", node_cache_report(forest.trees()))?;
        if let Some(r) = prefetch_report(forest.trees(), read.prefetch) {
            writeln!(out, "{r}")?;
        }
        Ok(report)
    })?;
    writeln!(
        out,
        "serve done: {} served, {} rejected ({} at shutdown), {} errors, \
         {} batches (max {}, avg {:.1}), {} connection(s), \
         {} socket write(s) ({:.1} responses per write)",
        report.served,
        report.rejected,
        report.rejected_shutdown,
        report.errors,
        report.batches,
        report.max_batch,
        report.avg_batch(),
        report.connections,
        report.socket_writes,
        report.served as f64 / report.socket_writes.max(1) as f64
    )?;
    if report.write_errors > 0 {
        writeln!(
            out,
            "({} response(s) undeliverable: client disconnected before its reply)",
            report.write_errors
        )?;
    }
    if report.accept_errors > 0 {
        writeln!(
            out,
            "({} transient accept failure(s) retried)",
            report.accept_errors
        )?;
    }
    if report.rejected_overcap > 0 {
        writeln!(
            out,
            "({} rejection(s) were per-connection in-flight cap, not inbox overload)",
            report.rejected_overcap
        )?;
    }
    if result_cache > 0 {
        let probes = report.result_hits + report.result_misses + report.result_stale;
        let rate = if probes == 0 {
            0.0
        } else {
            report.result_hits as f64 / probes as f64
        };
        writeln!(
            out,
            "result cache: {} hits / {} probes ({:.1}% traversal-free), \
             {} stale, {} inserted, {} evicted, {} dedup-merged",
            report.result_hits,
            probes,
            rate * 100.0,
            report.result_stale,
            report.result_inserts,
            report.result_evictions,
            report.dedup_merged
        )?;
    }
    Ok(())
}

enum MutateOp {
    Insert,
    Delete,
}

/// `nnq ingest` — insert a dataset into an existing index through the
/// copy-on-write write path, optionally journaled (`--wal`) with a
/// group-commit window (`--group-commit-us`).
pub fn ingest(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    mutate(args, out, MutateOp::Insert)
}

/// `nnq delete` — remove a dataset's entries from an existing index
/// (same flags as `ingest`; entries are matched by rectangle + record id).
pub fn delete(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    mutate(args, out, MutateOp::Delete)
}

fn mutate(args: &Args, out: &mut dyn Write, op: MutateOp) -> Result<(), CliError> {
    let index = args.req("index")?;
    let input = args.req("input")?;
    // Record ids are assigned per input line, offset by --id-base; `build`
    // numbers from 0, so deleting built entries wants the default, while
    // ingesting a second dataset should pass a disjoint base.
    let id_base: u64 = args.num("id-base", 0)?;
    let group_commit_us: u64 = args.num("group-commit-us", 1_000)?;
    let segments = load_segments_csv(input)?;
    let items = segments_to_items(&segments);

    let disk = FileDisk::open(index, PAGE_SIZE)?;
    let pool = match args.opt("wal") {
        Some(path) => {
            let wal = if std::path::Path::new(path).exists() {
                let wal = Wal::open(path)?;
                // Finish any interrupted commit before touching the tree.
                wal.replay(&disk)?;
                wal
            } else {
                Wal::create(path)?
            };
            Arc::new(BufferPool::with_wal(Box::new(disk), 4096, wal))
        }
        None => Arc::new(BufferPool::new(Box::new(disk), 4096)),
    };
    let tree = RTree::<2>::open(Arc::clone(&pool), PageId(0))?;
    tree.set_group_commit_us(group_commit_us);

    let start = Instant::now();
    let mut applied = 0u64;
    let mut missing = 0u64;
    let mut txns = 0u64;
    match op {
        MutateOp::Insert => {
            // Group commit at the transaction level, not just the WAL sync:
            // every record that arrives within one `--group-commit-us`
            // window joins a single copy-on-write transaction, so the
            // whole batch shares one path-copy amortization, one root
            // publish, and (when journaled) one WAL append. A zero window
            // degenerates to a transaction per record.
            let window = std::time::Duration::from_micros(group_commit_us);
            let mut batch: Vec<(Rect<2>, RecordId)> = Vec::new();
            let mut window_open = Instant::now();
            for (i, (mbr, _)) in items.iter().enumerate() {
                if batch.is_empty() {
                    window_open = Instant::now();
                }
                batch.push((*mbr, RecordId(id_base + i as u64)));
                if window.is_zero() || window_open.elapsed() >= window {
                    tree.insert_many(&batch)?;
                    applied += batch.len() as u64;
                    txns += 1;
                    batch.clear();
                }
            }
            if !batch.is_empty() {
                tree.insert_many(&batch)?;
                applied += batch.len() as u64;
                txns += 1;
            }
        }
        MutateOp::Delete => {
            for (i, (mbr, _)) in items.iter().enumerate() {
                let rid = RecordId(id_base + i as u64);
                match tree.delete(mbr, rid) {
                    Ok(()) => applied += 1,
                    Err(nnq_rtree::RTreeError::NotFound) => missing += 1,
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }
    let syncs = pool.wal().map(nnq_storage::Wal::sync_count);
    // A journaled run ends with a checkpoint (device standalone, journal
    // truncated); an unjournaled one just flushes.
    if pool.wal().is_some() {
        pool.checkpoint()?;
    } else {
        pool.flush_all()?;
    }
    let elapsed = start.elapsed();
    let verb = match op {
        MutateOp::Insert => "ingested",
        MutateOp::Delete => "deleted",
    };
    write!(
        out,
        "{verb} {applied} entries ({index}: {} total, height {})",
        tree.len(),
        tree.height()
    )?;
    if missing > 0 {
        write!(out, ", {missing} not found")?;
    }
    if matches!(op, MutateOp::Insert) {
        write!(out, ", {txns} txns")?;
    }
    if let Some(s) = syncs {
        write!(out, ", {s} wal syncs (group window {group_commit_us} us)")?;
    }
    writeln!(out, ", {:.0} ms", elapsed.as_secs_f64() * 1e3)?;
    Ok(())
}
