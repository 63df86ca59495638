//! Tree construction and query measurement.

use crate::datasets::Dataset;
use nnq_core::{NnOptions, NnSearch, Refiner, SearchStats};
use nnq_geom::{Point, Rect, Segment};
use nnq_rtree::{BulkMethod, RTree, RTreeConfig, RecordId, SplitStrategy};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to construct the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildMethod {
    /// One-at-a-time insertion with the given split strategy.
    Dynamic(SplitStrategy),
    /// Bottom-up packing.
    Bulk(BulkMethod),
}

impl BuildMethod {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            BuildMethod::Dynamic(SplitStrategy::Linear) => "linear",
            BuildMethod::Dynamic(SplitStrategy::Quadratic) => "quadratic",
            BuildMethod::Dynamic(SplitStrategy::RStar) => "R*",
            BuildMethod::Bulk(BulkMethod::Str) => "STR",
            BuildMethod::Bulk(BulkMethod::Hilbert) => "hilbert",
            BuildMethod::Bulk(BulkMethod::LowX) => "low-x '85",
        }
    }

    /// All six build methods, for experiment E7.
    pub fn all() -> [BuildMethod; 6] {
        [
            BuildMethod::Dynamic(SplitStrategy::Linear),
            BuildMethod::Dynamic(SplitStrategy::Quadratic),
            BuildMethod::Dynamic(SplitStrategy::RStar),
            BuildMethod::Bulk(BulkMethod::Str),
            BuildMethod::Bulk(BulkMethod::Hilbert),
            BuildMethod::Bulk(BulkMethod::LowX),
        ]
    }
}

/// A tree plus the pool it lives on and how long it took to build.
pub struct BuiltTree {
    /// The index.
    pub tree: RTree<2>,
    /// Its buffer pool (shared handle; reset stats between phases).
    pub pool: Arc<BufferPool>,
    /// Wall-clock build time.
    pub build_time: Duration,
}

/// Builds a tree over `items` on an in-memory disk with a pool of
/// `pool_frames` frames.
pub fn build_tree(
    items: &[(Rect<2>, RecordId)],
    method: BuildMethod,
    pool_frames: usize,
) -> BuiltTree {
    let pool = Arc::new(BufferPool::new(
        Box::new(MemDisk::new(PAGE_SIZE)),
        pool_frames,
    ));
    let start = Instant::now();
    let tree = match method {
        BuildMethod::Dynamic(split) => {
            let tree = RTree::create(Arc::clone(&pool), RTreeConfig::with_split(split)).unwrap();
            for (mbr, rid) in items {
                tree.insert(mbr, *rid).unwrap();
            }
            tree
        }
        BuildMethod::Bulk(bulk) => RTree::bulk_load(
            Arc::clone(&pool),
            RTreeConfig::default(),
            items.to_vec(),
            bulk,
            1.0,
        )
        .unwrap(),
    };
    let build_time = start.elapsed();
    BuiltTree {
        tree,
        pool,
        build_time,
    }
}

/// Default pool size for query experiments: large enough to hold any tree
/// we build, so `logical_reads` equals the paper's "pages accessed" with an
/// unbounded buffer.
pub const QUERY_POOL_FRAMES: usize = 1 << 17;

/// Averaged per-query measurements over a query batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryMeasurement {
    /// Mean logical page reads per query (the paper's "pages accessed").
    pub pages: f64,
    /// Mean physical device reads per query (buffer misses).
    pub physical: f64,
    /// Mean tree nodes visited.
    pub nodes: f64,
    /// Mean leaves visited.
    pub leaves: f64,
    /// Mean entries pruned by strategy 1 (downward).
    pub pruned_downward: f64,
    /// Mean objects pruned by strategy 2.
    pub pruned_object: f64,
    /// Mean entries pruned by strategy 3 (upward).
    pub pruned_upward: f64,
    /// Mean exact distance computations.
    pub dist_computations: f64,
    /// Mean wall-clock time per query, microseconds.
    pub time_us: f64,
}

/// Runs `f` once per query, averaging its [`SearchStats`] and the pool's
/// page counters.
pub fn measure<F>(pool: &BufferPool, queries: &[Point<2>], mut f: F) -> QueryMeasurement
where
    F: FnMut(&Point<2>) -> SearchStats,
{
    assert!(!queries.is_empty());
    pool.reset_stats();
    let mut acc = QueryMeasurement::default();
    let start = Instant::now();
    for q in queries {
        let s = f(q);
        acc.nodes += s.nodes_visited as f64;
        acc.leaves += s.leaves_visited as f64;
        acc.pruned_downward += s.pruned_downward as f64;
        acc.pruned_object += s.pruned_object as f64;
        acc.pruned_upward += s.pruned_upward as f64;
        acc.dist_computations += s.dist_computations as f64;
    }
    let elapsed = start.elapsed();
    let n = queries.len() as f64;
    let pstats = pool.stats();
    acc.pages = pstats.logical_reads as f64 / n;
    acc.physical = pstats.physical_reads as f64 / n;
    acc.nodes /= n;
    acc.leaves /= n;
    acc.pruned_downward /= n;
    acc.pruned_object /= n;
    acc.pruned_upward /= n;
    acc.dist_computations /= n;
    acc.time_us = elapsed.as_secs_f64() * 1e6 / n;
    acc
}

/// Measures the branch-and-bound search on a built tree.
pub fn measure_knn(
    built: &BuiltTree,
    queries: &[Point<2>],
    k: usize,
    opts: NnOptions,
    segments: Option<&[Segment]>,
) -> QueryMeasurement {
    let search = NnSearch::with_options(&built.tree, opts);
    match segments {
        None => measure(&built.pool, queries, |q| {
            search.query_with_stats(q, k).unwrap().1
        }),
        Some(segs) => {
            let refiner = SegmentRefiner { segments: segs };
            measure(&built.pool, queries, |q| {
                search.query_refined(q, k, &refiner).unwrap().1
            })
        }
    }
}

/// Exact point-to-segment refinement against a segment table (the map
/// workload's geometry store).
pub struct SegmentRefiner<'a> {
    /// Segment table indexed by record id.
    pub segments: &'a [Segment],
}

impl Refiner<2> for SegmentRefiner<'_> {
    fn dist_sq(&self, record: RecordId, _mbr: &Rect<2>, q: &Point<2>) -> f64 {
        self.segments[record.0 as usize].dist_sq_to_point(q)
    }
}

/// Convenience: query points for a dataset (uniform over the world).
pub fn queries_for(n: usize, seed: u64) -> Vec<Point<2>> {
    nnq_workloads::uniform_queries(n, &nnq_workloads::default_bounds(), seed)
}

/// Builds the default quadratic-split tree for a dataset with a
/// query-sized pool.
pub fn default_build(dataset: &Dataset) -> BuiltTree {
    build_tree(
        &dataset.items,
        BuildMethod::Dynamic(SplitStrategy::Quadratic),
        QUERY_POOL_FRAMES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnq_core::MbrRefiner;

    #[test]
    fn build_and_measure_roundtrip() {
        let d = Dataset::uniform(2000, 3);
        let built = default_build(&d);
        assert_eq!(built.tree.len(), 2000);
        let qs = queries_for(50, 1);
        let m = measure_knn(&built, &qs, 4, NnOptions::default(), None);
        assert!(m.pages > 0.0);
        assert!(m.nodes >= 1.0);
        assert!(m.time_us > 0.0);
        // Every visited node is one logical page read.
        assert!((m.pages - m.nodes).abs() < 1e-9);
    }

    #[test]
    fn all_build_methods_produce_equivalent_trees() {
        let d = Dataset::uniform(3000, 9);
        let qs = queries_for(20, 2);
        let reference: Vec<Vec<f64>> = {
            let built = default_build(&d);
            qs.iter()
                .map(|q| {
                    NnSearch::new(&built.tree)
                        .query(q, 5)
                        .unwrap()
                        .iter()
                        .map(|n| n.dist_sq)
                        .collect()
                })
                .collect()
        };
        for method in BuildMethod::all() {
            let built = build_tree(&d.items, method, QUERY_POOL_FRAMES);
            built.tree.validate().unwrap();
            for (q, want) in qs.iter().zip(&reference) {
                let got: Vec<f64> = NnSearch::new(&built.tree)
                    .query(q, 5)
                    .unwrap()
                    .iter()
                    .map(|n| n.dist_sq)
                    .collect();
                assert_eq!(&got, want, "{}", method.label());
            }
        }
    }

    #[test]
    fn segment_refiner_matches_direct_geometry() {
        let d = Dataset::tiger(500, 4);
        let segs = d.segments.as_ref().unwrap();
        let refiner = SegmentRefiner { segments: segs };
        let q = Point::new([50_000.0, 50_000.0]);
        let d0 = refiner.dist_sq(RecordId(0), &segs[0].mbr(), &q);
        assert_eq!(d0, segs[0].dist_sq_to_point(&q));
        let _ = MbrRefiner; // silence unused-import lint in cfg(test)
    }
}
