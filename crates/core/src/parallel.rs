//! Parallel batch queries.
//!
//! The paper's conclusion lists parallel nearest-neighbor search as future
//! work; this module provides the embarrassingly-parallel form: a batch of
//! independent queries fanned out over scoped worker threads. Both tree
//! backends are internally synchronized for reads (`&self` queries), so
//! workers share one tree.
//!
//! Every batch entry point in this crate — kNN and mixed batches here, the
//! scatter-gather rounds and partitioned batches in
//! [`scatter`](crate::scatter) — is a call of one private primitive,
//! [`steal_map`]. Scheduling is work-stealing over a shared atomic cursor
//! rather than static chunking: every worker claims a small block of items
//! at a time, so one expensive query (huge `k`, far-off point, dense
//! region) stalls only the worker that claimed it while the rest of the
//! batch drains through the other workers. The batch finishes in roughly
//! `max(most expensive single query, total work / threads)` instead of
//! `total work / threads + slowest static chunk`.
//!
//! Determinism: each query is computed independently from the shared tree
//! snapshot, so results are bit-identical to `threads = 1` regardless of
//! which worker claims which block.
//!
//! Scheduling order is orthogonal to result order: with
//! [`JoinOrder::Hilbert`] workers walk the batch along a Hilbert curve so
//! consecutive claimed queries touch overlapping subtrees — warmer node
//! cache, tighter prefetch reuse — while results still come back in
//! submission order.

use crate::branch_bound::{NnSearch, QueryCursor};
use crate::join::{hilbert_schedule, JoinOrder};
use crate::options::{Neighbor, NnOptions, SearchStats};
use crate::radius::within_radius_with;
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::Point;
use nnq_rtree::TreeAccess;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One request in a mixed query batch — the serving layer's unit of work.
///
/// kNN and radius queries ride the same micro-batch: both are point
/// queries against the same tree snapshot, so they share the Hilbert
/// claim schedule and the per-worker [`QueryCursor`] scratch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchQuery<const D: usize> {
    /// k-nearest-neighbor query at `q`.
    Knn {
        /// The query point.
        q: Point<D>,
        /// Neighbors requested.
        k: usize,
    },
    /// Distance-range query at `q` (linear radius, not squared).
    Radius {
        /// The query point.
        q: Point<D>,
        /// Inclusive distance cutoff; must be nonnegative.
        radius: f64,
    },
}

impl<const D: usize> BatchQuery<D> {
    /// The query point (the coordinate the Hilbert schedule orders by).
    pub fn point(&self) -> &Point<D> {
        match self {
            BatchQuery::Knn { q, .. } | BatchQuery::Radius { q, .. } => q,
        }
    }
}

/// How a [`par_knn_batch_stats`] run distributed its queries.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Workers spawned (1 for the sequential fast path).
    pub threads: usize,
    /// Queries claimed per cursor increment.
    pub block: usize,
    /// Queries each worker ended up executing. Sums to the batch length;
    /// under load imbalance the worker stuck on an expensive query claims
    /// fewer, which is the observable signature of stealing.
    pub per_worker_queries: Vec<usize>,
    /// Queries that actually ran a traversal. Equal to the batch length
    /// for the plain executors; smaller under
    /// [`par_mixed_batch_dedup`] when duplicates were merged
    /// (`len - executed` is the number of answers fanned out for free).
    pub executed: usize,
}

/// Block size for the shared cursor: small enough that an expensive query
/// can be compensated by the other workers (at most one block is claimed
/// blind), large enough that the atomic increment amortizes.
fn block_size(len: usize, threads: usize) -> usize {
    (len / (threads * 8)).clamp(1, 32)
}

/// The one batch executor: `f(scratch, i)` for every `i < len`, outputs in
/// index order. Up to `threads` scoped workers — each with its own scratch
/// from `init` — claim blocks of `block_override` (default [`block_size`])
/// positions off one atomic cursor; position `at` stands for item
/// `schedule[at]` (a permutation of `0..len`; `None` is the identity).
/// Which worker ran an item, in what order, and under what block size is
/// invisible in the output, so as long as `f` is a pure function of `i`
/// the result is bit-identical to a sequential loop.
///
/// One worker or one item runs inline on the caller's thread as a single
/// claim of the whole batch. An `Err` from `f` ends its worker's claiming
/// and fails the batch once every worker has been joined; a panic in `f`
/// propagates to the caller with its original payload.
pub(crate) fn steal_map<S, O: Send>(
    len: usize,
    threads: usize,
    block_override: Option<usize>,
    schedule: Option<&[usize]>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> Result<O> + Sync,
) -> Result<(Vec<O>, BatchStats)> {
    assert!(threads > 0, "need at least one worker");
    let workers = threads.min(len).max(1);
    let block = if workers == 1 {
        len
    } else {
        block_override.map_or_else(|| block_size(len, threads), |b| b.max(1))
    };
    let next = AtomicUsize::new(0);
    let work = || -> Result<Vec<(usize, O)>> {
        let mut scratch = init();
        let mut out = Vec::with_capacity(block.min(len));
        loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= len {
                return Ok(out);
            }
            for at in start..start.saturating_add(block).min(len) {
                let i = schedule.map_or(at, |s| s[at]);
                out.push((i, f(&mut scratch, i)?));
            }
        }
    };
    let outs = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };

    let mut slots: Vec<Option<O>> = (0..len).map(|_| None).collect();
    let mut per_worker_queries = Vec::with_capacity(workers);
    for out in outs {
        let pairs = out?;
        per_worker_queries.push(pairs.len());
        for (i, o) in pairs {
            slots[i] = Some(o);
        }
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("the schedule is a permutation of 0..len"))
        .collect();
    let stats = BatchStats {
        threads: workers,
        block,
        per_worker_queries,
        executed: len,
    };
    Ok((results, stats))
}

/// The claim schedule for `order` over a batch's query points: `None`
/// (identity) as given, else the batch's Hilbert-curve permutation (the
/// [`knn_join`](crate::join::knn_join) schedule), so queries claimed
/// back-to-back land in overlapping subtrees.
pub(crate) fn claim_order<const D: usize>(
    order: JoinOrder,
    points: impl Iterator<Item = Point<D>>,
) -> Option<Vec<usize>> {
    match order {
        JoinOrder::AsGiven => None,
        JoinOrder::Hilbert => Some(hilbert_schedule(&points.collect::<Vec<_>>())),
    }
}

/// Runs a kNN query for every point in `queries`, fanning the batch out
/// over `threads` worker threads that claim blocks from a shared cursor.
/// Results are returned in query order and are bit-identical to
/// `threads = 1`.
///
/// `threads = 1` degenerates to a sequential loop (no threads spawned).
///
/// ```
/// use nnq_core::{par_knn_batch, NnOptions, MbrRefiner};
/// use nnq_rtree::{MemRTree, RecordId};
/// use nnq_geom::{Point, Rect};
///
/// let mut tree = MemRTree::<2>::new();
/// for i in 0..1000u64 {
///     let p = Point::new([(i % 50) as f64, (i / 50) as f64]);
///     tree.insert(&Rect::from_point(p), RecordId(i)).unwrap();
/// }
/// let queries: Vec<_> = (0..64).map(|i| Point::new([i as f64, i as f64])).collect();
/// let results = par_knn_batch(&tree, &queries, 3, NnOptions::default(), &MbrRefiner, 4).unwrap();
/// assert_eq!(results.len(), 64);
/// assert!(results.iter().all(|r| r.len() == 3));
/// ```
pub fn par_knn_batch<const D: usize, T, R>(
    tree: &T,
    queries: &[Point<D>],
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<Vec<Vec<Neighbor<D>>>>
where
    T: TreeAccess<D> + Sync + ?Sized,
    R: Refiner<D> + Sync,
{
    par_knn_batch_stats(tree, queries, k, opts, refiner, threads).map(|(results, _)| results)
}

/// [`par_knn_batch`] plus the scheduling telemetry: how many queries each
/// worker claimed off the shared cursor.
pub fn par_knn_batch_stats<const D: usize, T, R>(
    tree: &T,
    queries: &[Point<D>],
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<(Vec<Vec<Neighbor<D>>>, BatchStats)>
where
    T: TreeAccess<D> + Sync + ?Sized,
    R: Refiner<D> + Sync,
{
    let order = JoinOrder::AsGiven;
    par_knn_batch_with_block(tree, queries, k, opts, refiner, threads, order, None)
}

/// [`par_knn_batch_stats`] with an explicit claim order and claim-block
/// override for the shared cursor (`None` uses the [`block_size`]
/// heuristic; the self-tuning controller's batch knob). Any schedule and
/// any block size yield bit-identical results because every query is
/// computed independently and results are reassembled in submission order
/// — they only change *when* each query executes (and so cache reuse and
/// steal behavior under imbalance), never *what* it computes.
#[allow(clippy::too_many_arguments)]
pub fn par_knn_batch_with_block<const D: usize, T, R>(
    tree: &T,
    queries: &[Point<D>],
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
    order: JoinOrder,
    block_override: Option<usize>,
) -> Result<(Vec<Vec<Neighbor<D>>>, BatchStats)>
where
    T: TreeAccess<D> + Sync + ?Sized,
    R: Refiner<D> + Sync,
{
    let schedule = claim_order(order, queries.iter().copied());
    steal_map(
        queries.len(),
        threads,
        block_override,
        schedule.as_deref(),
        // One cursor per worker: all per-query scratch (ABL buffers,
        // selection scratch, candidate heap) is reused across every query
        // the worker claims.
        || (NnSearch::with_options(tree, opts), QueryCursor::new()),
        |(search, cursor), i| {
            let (found, _) = search.query_refined_with(cursor, &queries[i], k, refiner)?;
            Ok(found)
        },
    )
}

/// Runs a mixed batch of kNN and radius queries (the `nnq serve` drain
/// path), fanning the batch out over `threads` workers claiming blocks
/// from a shared cursor, optionally in Hilbert claim order. Returns, in
/// submission order, each request's results **and** its per-query
/// [`SearchStats`] — the serving layer reports `nodes_visited` back to
/// the client as the query's logical page reads, the paper's cost unit.
///
/// Every request is computed independently from the shared tree (or
/// snapshot), so results and per-query stats are bit-identical to a
/// sequential loop regardless of thread count, claim-block size, or
/// schedule — the same contract as [`par_knn_batch`].
#[allow(clippy::type_complexity)]
pub fn par_mixed_batch<const D: usize, T, R>(
    tree: &T,
    requests: &[BatchQuery<D>],
    opts: NnOptions,
    refiner: &R,
    threads: usize,
    order: JoinOrder,
    block_override: Option<usize>,
) -> Result<(Vec<(Vec<Neighbor<D>>, SearchStats)>, BatchStats)>
where
    T: TreeAccess<D> + Sync + ?Sized,
    R: Refiner<D> + Sync,
{
    let schedule = claim_order(order, requests.iter().map(|r| *r.point()));
    steal_map(
        requests.len(),
        threads,
        block_override,
        schedule.as_deref(),
        || (NnSearch::with_options(tree, opts), QueryCursor::new()),
        // Radius queries take the standalone traversal (no cursor state),
        // kNN reuses the worker's cursor scratch.
        |(search, cursor), i| match requests[i] {
            BatchQuery::Knn { q, k } => search.query_refined_with(cursor, &q, k, refiner),
            BatchQuery::Radius { q, radius } => {
                within_radius_with(tree, &q, radius, refiner, opts.kernel)
            }
        },
    )
}

/// The intra-batch dedup fold: `run` executes only the first occurrence
/// of each [`canonical key`](BatchQuery::canonical_key), in
/// first-submission order (so with no duplicates `run` sees the batch
/// itself), and each answer fans out to every duplicate's
/// submission-order slot. The returned [`BatchStats`] are `run`'s.
pub(crate) fn dedup<const D: usize, A: Clone>(
    requests: &[BatchQuery<D>],
    run: impl FnOnce(&[BatchQuery<D>]) -> Result<(Vec<A>, BatchStats)>,
) -> Result<(Vec<A>, BatchStats)> {
    let mut first_of: HashMap<Vec<u8>, usize> = HashMap::with_capacity(requests.len());
    let mut unique: Vec<BatchQuery<D>> = Vec::with_capacity(requests.len());
    let mut slot_of: Vec<usize> = Vec::with_capacity(requests.len());
    for req in requests {
        let slot = *first_of.entry(req.canonical_key()).or_insert_with(|| {
            unique.push(*req);
            unique.len() - 1
        });
        slot_of.push(slot);
    }
    let (answers, bstats) = run(&unique)?;
    if unique.len() == requests.len() {
        return Ok((answers, bstats));
    }
    let fanned = slot_of.iter().map(|&slot| answers[slot].clone()).collect();
    Ok((fanned, bstats))
}

/// [`par_mixed_batch`] with **intra-batch deduplication**: requests whose
/// [`canonical key`](BatchQuery::canonical_key) bytes are identical
/// execute exactly once, and the single answer (results *and*
/// [`SearchStats`]) fans out to every duplicate's submission-order slot.
/// Under Zipf-skewed serving traffic a micro-batch routinely carries the
/// same hot query many times; there is no reason to traverse for it more
/// than once per batch.
///
/// Correctness rides on the same determinism contract as
/// [`par_mixed_batch`]: each request is a pure function of `(tree, query)`
/// for the duration of the batch, so a duplicate's answer is bit-identical
/// to what its own execution would have produced — including the stats.
/// Near-duplicates are never merged: the canonical key encodes `f64`
/// parameters as raw bits, so queries one ulp apart stay distinct.
///
/// The returned [`BatchStats`] describe the *deduplicated* execution:
/// `executed` (and the sum of `per_worker_queries`) is the number of
/// unique requests, so `requests.len() - executed` is the number of
/// traversals the merge saved.
#[allow(clippy::type_complexity)]
pub fn par_mixed_batch_dedup<const D: usize, T, R>(
    tree: &T,
    requests: &[BatchQuery<D>],
    opts: NnOptions,
    refiner: &R,
    threads: usize,
    order: JoinOrder,
    block_override: Option<usize>,
) -> Result<(Vec<(Vec<Neighbor<D>>, SearchStats)>, BatchStats)>
where
    T: TreeAccess<D> + Sync + ?Sized,
    R: Refiner<D> + Sync,
{
    dedup(requests, |unique| {
        par_mixed_batch(tree, unique, opts, refiner, threads, order, block_override)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use nnq_geom::Rect;
    use nnq_rtree::{MemRTree, RecordId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tree_and_queries(n: usize, nq: usize) -> (MemRTree<2>, Vec<Point<2>>) {
        let mut rng = StdRng::seed_from_u64(12);
        let tree = MemRTree::new();
        for i in 0..n {
            let p = Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            tree.insert(&Rect::from_point(p), RecordId(i as u64))
                .unwrap();
        }
        let queries = (0..nq)
            .map(|_| Point::new([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]))
            .collect();
        (tree, queries)
    }

    #[test]
    fn parallel_equals_sequential() {
        let (tree, queries) = tree_and_queries(5_000, 200);
        let seq = par_knn_batch(&tree, &queries, 5, NnOptions::default(), &MbrRefiner, 1).unwrap();
        for threads in [2, 4, 7] {
            let par = par_knn_batch(
                &tree,
                &queries,
                5,
                NnOptions::default(),
                &MbrRefiner,
                threads,
            )
            .unwrap();
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(
                    a.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    b.iter().map(|n| n.dist_sq).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (tree, _) = tree_and_queries(100, 0);
        let out = par_knn_batch(&tree, &[], 3, NnOptions::default(), &MbrRefiner, 4).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_queries() {
        let (tree, queries) = tree_and_queries(500, 3);
        let out = par_knn_batch(&tree, &queries, 2, NnOptions::default(), &MbrRefiner, 16).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn scheduler_accounts_for_every_query() {
        let (tree, queries) = tree_and_queries(2_000, 300);
        for threads in [1, 2, 4, 8] {
            let (out, stats) = par_knn_batch_stats(
                &tree,
                &queries,
                4,
                NnOptions::default(),
                &MbrRefiner,
                threads,
            )
            .unwrap();
            assert_eq!(out.len(), queries.len());
            assert_eq!(stats.threads, threads.min(stats.per_worker_queries.len()));
            assert_eq!(
                stats.per_worker_queries.iter().sum::<usize>(),
                queries.len(),
                "threads={threads}"
            );
            if threads > 1 {
                assert!(stats.block >= 1 && stats.block <= 32);
            }
        }
    }

    #[test]
    fn block_override_is_bit_identical() {
        let (tree, queries) = tree_and_queries(3_000, 250);
        let seq = par_knn_batch(&tree, &queries, 5, NnOptions::default(), &MbrRefiner, 1).unwrap();
        for block in [1, 3, 17, 64, 1000] {
            let (out, stats) = par_knn_batch_with_block(
                &tree,
                &queries,
                5,
                NnOptions::default(),
                &MbrRefiner,
                4,
                JoinOrder::AsGiven,
                Some(block),
            )
            .unwrap();
            assert_eq!(stats.block, block, "override not applied");
            for (a, b) in out.iter().zip(&seq) {
                assert_eq!(
                    a.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    b.iter().map(|n| n.dist_sq).collect::<Vec<_>>(),
                    "block={block}"
                );
            }
        }
    }

    #[test]
    fn block_size_is_small_and_bounded() {
        assert_eq!(block_size(10, 8), 1);
        assert_eq!(block_size(1_000, 4), 31);
        assert_eq!(block_size(100_000, 8), 32);
        assert_eq!(block_size(2, 8), 1);
    }

    /// `(worker, item)` pairs in execution order.
    type ClaimLog = Vec<(usize, usize)>;

    /// A `steal_map` run whose workers log `(worker, item)` in execution
    /// order; `fail_at` makes that item return `Err`. Every worker has
    /// started (and taken its id) before any item runs.
    fn logged_steal_map(
        len: usize,
        threads: usize,
        block: Option<usize>,
        schedule: Option<&[usize]>,
        fail_at: Option<usize>,
    ) -> (Result<(Vec<usize>, BatchStats)>, ClaimLog) {
        let log = std::sync::Mutex::new(Vec::new());
        let started = std::sync::Barrier::new(threads.min(len).max(1));
        let ids = std::sync::Mutex::new(0..);
        let out = steal_map(
            len,
            threads,
            block,
            schedule,
            || {
                started.wait();
                ids.lock().unwrap().next().unwrap()
            },
            |worker, i| {
                log.lock().unwrap().push((*worker, i));
                if fail_at == Some(i) {
                    return Err(nnq_rtree::RTreeError::NotFound);
                }
                Ok(i * 10)
            },
        );
        (out, log.into_inner().unwrap())
    }

    #[test]
    fn steal_map_error_fails_the_batch_and_stops_its_worker() {
        let (out, log) = logged_steal_map(40, 2, Some(1), None, Some(17));
        assert!(matches!(out, Err(nnq_rtree::RTreeError::NotFound)));
        // Both workers were joined: the survivor drained everything else.
        let mut ran: Vec<usize> = log.iter().map(|&(_, i)| i).collect();
        ran.sort_unstable();
        assert_eq!(ran, (0..40).collect::<Vec<_>>());
        // The erring worker claimed nothing after the failed item.
        let erring = log.iter().find(|&&(_, i)| i == 17).unwrap().0;
        let last = log.iter().rfind(|&&(w, _)| w == erring).unwrap();
        assert_eq!(last.1, 17);
        // Inline, the error ends the run on the spot.
        let (out, log) = logged_steal_map(40, 1, None, None, Some(17));
        assert!(out.is_err());
        assert_eq!(log.len(), 18);
    }

    #[test]
    fn steal_map_panic_propagates_with_its_payload() {
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                steal_map(
                    12,
                    threads,
                    Some(1),
                    None,
                    || (),
                    |(), i| {
                        if i == 5 {
                            panic!("boom at item {i}");
                        }
                        Ok(i)
                    },
                )
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic!");
            assert!(message.contains("boom at item 5"), "threads={threads}");
        }
    }

    #[test]
    fn steal_map_schedule_orders_claims_not_outputs() {
        let reversed: Vec<usize> = (0..30).rev().collect();
        let want: Vec<usize> = (0..30).map(|i| i * 10).collect();
        // One worker claims in exactly the scheduled order.
        let (out, log) = logged_steal_map(30, 1, None, Some(&reversed), None);
        assert_eq!(out.unwrap().0, want);
        let claimed: Vec<usize> = log.iter().map(|&(_, i)| i).collect();
        assert_eq!(claimed, reversed);
        // Several workers each walk their claims in scheduled order.
        let (out, log) = logged_steal_map(30, 4, Some(2), Some(&reversed), None);
        assert_eq!(out.unwrap().0, want);
        for worker in 0..4 {
            let mine: Vec<usize> = log.iter().filter(|e| e.0 == worker).map(|e| e.1).collect();
            assert!(mine.windows(2).all(|w| w[0] > w[1]), "worker {worker}");
        }
    }

    #[test]
    fn steal_map_stats_cover_every_shape() {
        let (out, _) = logged_steal_map(0, 4, None, None, None);
        let (results, stats) = out.unwrap();
        assert!(results.is_empty());
        assert_eq!((stats.threads, stats.block, stats.executed), (1, 0, 0));
        assert_eq!(stats.per_worker_queries, vec![0]);

        // More threads than items: one worker per item at most.
        let (out, _) = logged_steal_map(3, 16, None, None, None);
        let (results, stats) = out.unwrap();
        assert_eq!(results, vec![0, 10, 20]);
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.per_worker_queries.iter().sum::<usize>(), 3);

        // One thread or one item: inline, a single claim of everything.
        for (len, threads) in [(9, 1), (1, 8)] {
            let (out, _) = logged_steal_map(len, threads, Some(2), None, None);
            let stats = out.unwrap().1;
            assert_eq!((stats.threads, stats.block, stats.executed), (1, len, len));
            assert_eq!(stats.per_worker_queries, vec![len]);
        }

        for block in [1, 3, 64, 500] {
            let (out, _) = logged_steal_map(100, 4, Some(block), None, None);
            let (results, stats) = out.unwrap();
            assert_eq!(results, (0..100).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(
                (stats.threads, stats.block, stats.executed),
                (4, block, 100)
            );
            assert_eq!(stats.per_worker_queries.iter().sum::<usize>(), 100);
        }
        // `Some(0)` is clamped to single-item claims.
        let (out, _) = logged_steal_map(10, 2, Some(0), None, None);
        assert_eq!(out.unwrap().1.block, 1);
    }

    fn mixed_requests(queries: &[Point<2>]) -> Vec<BatchQuery<2>> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if i % 3 == 0 {
                    BatchQuery::Radius {
                        q: *q,
                        radius: 2.0 + (i % 7) as f64,
                    }
                } else {
                    BatchQuery::Knn {
                        q: *q,
                        k: 1 + i % 5,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn mixed_batch_bit_identical_across_threads_blocks_and_order() {
        let (tree, queries) = tree_and_queries(4_000, 180);
        let reqs = mixed_requests(&queries);
        let (seq, _) = par_mixed_batch(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            1,
            JoinOrder::AsGiven,
            None,
        )
        .unwrap();
        assert_eq!(seq.len(), reqs.len());
        for (threads, order, block) in [
            (2, JoinOrder::AsGiven, None),
            (4, JoinOrder::Hilbert, None),
            (8, JoinOrder::Hilbert, Some(1)),
            (3, JoinOrder::AsGiven, Some(64)),
        ] {
            let (par, bstats) = par_mixed_batch(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                order,
                block,
            )
            .unwrap();
            assert_eq!(bstats.per_worker_queries.iter().sum::<usize>(), reqs.len());
            for (i, ((a, sa), (b, sb))) in par.iter().zip(&seq).enumerate() {
                assert_eq!(sa, sb, "stats diverge at request {i} (threads={threads})");
                assert_eq!(a.len(), b.len(), "request {i}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.record, y.record, "request {i}");
                    assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits(), "request {i}");
                }
            }
        }
    }

    #[test]
    fn mixed_batch_matches_standalone_queries() {
        let (tree, queries) = tree_and_queries(2_000, 60);
        let reqs = mixed_requests(&queries);
        let (got, _) = par_mixed_batch(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        let search = NnSearch::new(&tree);
        for (req, (hits, stats)) in reqs.iter().zip(&got) {
            let (want, want_stats) = match *req {
                BatchQuery::Knn { q, k } => search.query_refined(&q, k, &MbrRefiner).unwrap(),
                BatchQuery::Radius { q, radius } => {
                    crate::within_radius(&tree, &q, radius, &MbrRefiner).unwrap()
                }
            };
            assert_eq!(stats, &want_stats);
            assert_eq!(hits.len(), want.len());
            for (x, y) in hits.iter().zip(&want) {
                assert_eq!(x.record, y.record);
                assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits());
            }
        }
    }

    #[test]
    fn dedup_executes_duplicates_once_in_admission_order() {
        let (tree, queries) = tree_and_queries(3_000, 40);
        let base = mixed_requests(&queries);
        // Interleave duplicates of a handful of hot requests between the
        // originals — classic Zipf shape inside one micro-batch.
        let mut reqs = Vec::new();
        for (i, req) in base.iter().enumerate() {
            reqs.push(*req);
            reqs.push(base[i % 5]);
        }
        let (plain, pstats) = par_mixed_batch(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        assert_eq!(pstats.executed, reqs.len(), "plain executor never merges");
        for threads in [1, 4] {
            let (deduped, dstats) = par_mixed_batch_dedup(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                None,
            )
            .unwrap();
            // Executor-level counter: exactly the unique requests ran.
            assert_eq!(dstats.executed, base.len(), "threads={threads}");
            assert_eq!(
                dstats.per_worker_queries.iter().sum::<usize>(),
                base.len(),
                "threads={threads}"
            );
            // Responses land in admission order, bit-identical to the
            // run that executed every duplicate.
            assert_eq!(deduped.len(), reqs.len());
            for (i, ((a, sa), (b, sb))) in deduped.iter().zip(&plain).enumerate() {
                assert_eq!(sa, sb, "stats diverge at request {i}");
                assert_eq!(a.len(), b.len(), "request {i}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.record, y.record, "request {i}");
                    assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits(), "request {i}");
                }
            }
        }
    }

    #[test]
    fn dedup_does_not_merge_near_duplicates() {
        let (tree, _) = tree_and_queries(1_000, 0);
        let q = Point::new([50.0, 50.0]);
        let bumped = Point::new([f64::from_bits(50.0f64.to_bits() + 1), 50.0]);
        let reqs = vec![
            // Same point, different k.
            BatchQuery::Knn { q, k: 3 },
            BatchQuery::Knn { q, k: 4 },
            // One-ulp coordinate difference.
            BatchQuery::Knn { q: bumped, k: 3 },
            // kNN vs radius at the same point.
            BatchQuery::Radius { q, radius: 3.0 },
            // Radii one ulp apart.
            BatchQuery::Radius {
                q,
                radius: f64::from_bits(3.0f64.to_bits() + 1),
            },
        ];
        let (out, stats) = par_mixed_batch_dedup(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            2,
            JoinOrder::AsGiven,
            None,
        )
        .unwrap();
        assert_eq!(out.len(), reqs.len());
        assert_eq!(stats.executed, reqs.len(), "nothing here may merge");
    }

    #[test]
    fn dedup_with_no_duplicates_is_bit_identical_to_plain() {
        let (tree, queries) = tree_and_queries(2_000, 80);
        let reqs = mixed_requests(&queries);
        let (plain, _) = par_mixed_batch(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        let (deduped, stats) = par_mixed_batch_dedup(
            &tree,
            &reqs,
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        assert_eq!(stats.executed, reqs.len());
        for ((a, sa), (b, sb)) in deduped.iter().zip(&plain) {
            assert_eq!(sa, sb);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.record, y.record);
                assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits());
            }
        }
    }

    #[test]
    fn mixed_batch_empty_is_fine() {
        let (tree, _) = tree_and_queries(100, 0);
        let (out, _) = par_mixed_batch(
            &tree,
            &[],
            NnOptions::default(),
            &MbrRefiner,
            4,
            JoinOrder::Hilbert,
            None,
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
