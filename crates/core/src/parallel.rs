//! Parallel batch queries.
//!
//! The paper's conclusion lists parallel nearest-neighbor search as future
//! work; this module provides the embarrassingly-parallel form: a batch of
//! independent queries fanned out over scoped worker threads. Both tree
//! backends are internally synchronized for reads (`&self` queries), so
//! workers share one tree.
//!
//! Every batch in this crate runs on one executor body,
//! [`forest_batch`](crate::forest_batch), over a forest of trees
//! ([`scatter`](crate::scatter)); the single-tree entry points here
//! ([`par_knn_batch`], [`par_mixed_batch_dedup`]) run it over a forest of
//! one. That body, and the scatter-gather rounds, are calls of one private
//! primitive, [`steal_map`]. Scheduling is work-stealing over a shared
//! atomic cursor rather than static chunking: every worker claims a small
//! block of items at a time, so one expensive query (huge `k`, far-off
//! point, dense region) stalls only the worker that claimed it while the
//! rest of the batch drains through the other workers. The batch finishes
//! in roughly `max(most expensive single query, total work / threads)`
//! instead of `total work / threads + slowest static chunk`.
//!
//! Items are **resumable**: a step of an item either finishes it or stops
//! in front of a page that is not loaded ([`Poll::Waiting`]). Where the
//! backend reads pages in the background and the batch's prefetch policy
//! is `Adaptive`, a worker **interleaves**: it holds up to [`IN_FLIGHT`]
//! claimed kNN traversals, resumes them oldest first, claims a new item for
//! every slot that frees up, and sleeps in a device read — its oldest
//! item's — only when every item it holds is waiting for a page. The wait of one
//! query is then another's compute time, and the pages the suspended
//! queries wait for are all being read at once. Everywhere else a worker
//! holds one item and every item finishes on its first step.
//!
//! Determinism: each query is computed independently from the shared tree
//! snapshot, and a suspended traversal continues exactly where it
//! stopped, so results are bit-identical to `threads = 1` regardless of
//! which worker claims which item, or how its steps interleave with
//! others'.
//!
//! Scheduling order is orthogonal to result order: with
//! [`JoinOrder::Hilbert`] workers walk the batch along a Hilbert curve so
//! consecutive claimed queries touch overlapping subtrees — warmer node
//! cache, tighter prefetch reuse — while results still come back in
//! submission order.

use crate::join::{hilbert_schedule, JoinOrder};
use crate::options::{Neighbor, NnOptions, PrefetchPolicy, SearchStats};
use crate::refine::Refiner;
use crate::scatter::{forest_batch, forest_batch_dedup};
use crate::Result;
use nnq_geom::Point;
use nnq_rtree::{Forest, TreeAccess};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

pub(crate) use crate::branch_bound::Poll;

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

/// How a batch run distributed its queries.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Workers spawned (1 for the sequential fast path).
    pub threads: usize,
    /// Queries claimed per cursor increment (1 when the workers
    /// interleaved: they claim one query per free in-flight slot).
    pub block: usize,
    /// Queries each worker ended up executing. Sums to the batch length;
    /// under load imbalance the worker stuck on an expensive query claims
    /// fewer, which is the observable signature of stealing.
    pub per_worker_queries: Vec<usize>,
    /// Queries that actually ran a traversal. Equal to the batch length
    /// for the plain executor; smaller under
    /// [`forest_batch_dedup`] when duplicates were merged
    /// (`len - executed` is the number of answers fanned out for free).
    pub executed: usize,
}

/// Block size for the shared cursor: small enough that an expensive query
/// can be compensated by the other workers (at most one block is claimed
/// blind), large enough that the atomic increment amortizes.
fn block_size(len: usize, threads: usize) -> usize {
    (len / (threads * 8)).clamp(1, 32)
}

/// Items an interleaving worker keeps in flight.
///
/// Chosen on the `batch_cold` setting (1 M points, pool of an eighth of
/// the tree, 100 µs simulated reads, 2 workers + 2 background readers,
/// batches of 256, k = 10). With the design emulated by threads passing a
/// run token: 4 in flight gave 6.0–6.6 k queries/s, **8 gave 6.2–7.1 k**,
/// 16 gave 5.9–6.5 k, against 4.2–4.8 k for one traversal per worker. On
/// this executor, two 4 s rounds each in one process: 2 in flight 5.7–6.9 k,
/// 4 in flight 7.3–8.5 k, **8 in flight 8.1–8.9 k**, 16 in flight
/// 7.6–8.5 k. Past the number of device reads the backend can have in
/// flight, more suspended queries only age each other's pages out of a
/// small pool.
const IN_FLIGHT: usize = 8;

/// Adapts an item that always runs to its end, `f(scratch, i)`, to
/// [`steal_map`]'s step signature: it finishes on its first step.
pub(crate) fn whole<S, O>(
    f: impl Fn(&mut S, usize) -> Result<O> + Sync,
) -> impl Fn(&mut S, usize, bool) -> Result<Poll<O>> + Sync {
    move |scratch, i, _wait| f(scratch, i).map(Poll::Ready)
}

/// The one batch executor: item `i` for every `i < len`, outputs in index
/// order. Up to `threads` scoped workers claim blocks of `block_override`
/// (default [`block_size`]) positions off one atomic cursor; position `at`
/// stands for item `schedule[at]` (a permutation of `0..len`; `None` is
/// the identity).
///
/// An item runs as calls of `step(scratch, i, wait)` on a scratch from
/// `init` that stays the item's own until it finishes: [`Poll::Ready`]
/// ends it, [`Poll::Waiting`] says it stopped in front of a page that is
/// not loaded and must be stepped again. `wait` tells the step that
/// nothing else is runnable, so it should sleep in that read rather than
/// return.
///
/// Without `interleave` a worker holds one item at a time, steps it with
/// `wait` set, and owns one scratch. With it, a worker holds up to
/// [`IN_FLIGHT`] items (a scratch each), claimed one per free slot so that
/// no claimed item sits unstarted while another worker idles at the tail
/// of the batch. It resumes them oldest first without `wait`, and only
/// when a whole pass moved nothing — every held item is waiting — steps
/// the oldest with `wait`. That rule is what guarantees progress whatever
/// the pool size: a suspended item holds no pin, so the blocking read can
/// always get a frame, and each one moves its item a node further.
///
/// Which worker ran an item, in what order, interleaved with what, and
/// under what block size is invisible in the output, so as long as an
/// item's result is a pure function of `i` the batch is bit-identical to a
/// sequential loop.
///
/// One worker or one item runs inline on the caller's thread (as a single
/// claim of the whole batch unless interleaving). An `Err` from `step`
/// ends its worker — the items it still held are abandoned — and fails the
/// batch once every worker has been joined; a panic in `step` propagates
/// to the caller with its original payload.
pub(crate) fn steal_map<S, O: Send>(
    len: usize,
    threads: usize,
    block_override: Option<usize>,
    schedule: Option<&[usize]>,
    interleave: bool,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, usize, bool) -> Result<Poll<O>> + Sync,
) -> Result<(Vec<O>, BatchStats)> {
    assert!(threads > 0, "need at least one worker");
    let workers = threads.min(len).max(1);
    let (width, block) = if interleave {
        (IN_FLIGHT, 1)
    } else if workers == 1 {
        (1, len)
    } else {
        let block = block_override.map_or_else(|| block_size(len, threads), |b| b.max(1));
        (1, block)
    };
    let next = AtomicUsize::new(0);
    let work = || -> Result<Vec<(usize, O)>> {
        let mut out = Vec::with_capacity(block.min(len));
        // Items in flight, oldest first, each with the scratch it runs on.
        let mut held: VecDeque<(usize, S)> = VecDeque::with_capacity(width);
        let mut spare = vec![init()];
        // Positions claimed off the cursor and not yet started.
        let mut claimed = 0..0;
        loop {
            while held.len() < width {
                if claimed.is_empty() {
                    let start = next.fetch_add(block, Ordering::Relaxed).min(len);
                    claimed = start..start.saturating_add(block).min(len);
                }
                let Some(at) = claimed.next() else { break };
                let i = schedule.map_or(at, |s| s[at]);
                held.push_back((i, spare.pop().unwrap_or_else(&init)));
            }
            if held.is_empty() {
                return Ok(out);
            }
            let mut moved = false;
            let mut at = 0;
            while at < held.len() {
                let (i, scratch) = &mut held[at];
                match step(scratch, *i, width == 1)? {
                    Poll::Ready(o) => {
                        out.push((*i, o));
                        spare.extend(held.remove(at).map(|(_, scratch)| scratch));
                        moved = true;
                    }
                    Poll::Waiting { advanced } => {
                        moved |= advanced;
                        at += 1;
                    }
                }
            }
            if !moved {
                let (i, scratch) = &mut held[0];
                if let Poll::Ready(o) = step(scratch, *i, true)? {
                    out.push((*i, o));
                    spare.extend(held.pop_front().map(|(_, scratch)| scratch));
                }
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

/// Whether a batch of kNN traversals over `trees` — one tree, or the
/// partitions a scatter-gather query reads — interleaves: the policy is
/// `Adaptive` and some tree's pool has background readers to take the
/// pages suspended queries wait for. Otherwise (policy off, in-memory
/// backend, no prefetcher) a "not yet" could never be answered, and the
/// workers run item by item. (A tree without background readers in an
/// interleaving batch just loads on demand: `try_access_node` has nobody
/// to queue the page for. A warm tree never suspends at all.)
pub(crate) fn interleaves<const D: usize, T: TreeAccess<D>>(trees: &[T], opts: &NnOptions) -> bool {
    opts.prefetch == PrefetchPolicy::Adaptive && trees.iter().any(|t| t.prefetch_workers() > 0)
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
    T: TreeAccess<D> + Sync,
    R: Refiner<D> + Sync,
{
    par_knn_batch_stats(tree, queries, k, opts, refiner, threads).map(|(results, _)| results)
}

/// [`par_knn_batch`] plus the scheduling telemetry: how many queries each
/// worker claimed off the shared cursor. The batch is a
/// [`forest_batch`](crate::forest_batch) over `tree` as a forest of one.
pub fn par_knn_batch_stats<const D: usize, T, R>(
    tree: &T,
    queries: &[Point<D>],
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<(Vec<Vec<Neighbor<D>>>, BatchStats)>
where
    T: TreeAccess<D> + Sync,
    R: Refiner<D> + Sync,
{
    let forest = Forest::of_one(tree);
    let requests: Vec<_> = queries.iter().map(|&q| BatchQuery::Knn { q, k }).collect();
    let order = JoinOrder::AsGiven;
    let (answers, stats) = forest_batch(forest, &requests, opts, refiner, threads, order, None)?;
    Ok((answers.into_iter().map(|(found, _)| found).collect(), stats))
}

/// A mixed kNN/radius batch over one tree with intra-batch deduplication
/// (the serving layer's drain path): [`forest_batch_dedup`] over `tree` as
/// a forest of one. Returns, in submission order, each request's results
/// **and** its per-query [`SearchStats`] — the serving layer reports
/// `nodes_visited` back to the client as the query's logical page reads,
/// the paper's cost unit — bit-identical to a sequential loop of
/// standalone queries whatever the thread count, claim-block size,
/// schedule or interleaving.
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
    T: TreeAccess<D> + Sync,
    R: Refiner<D> + Sync,
{
    let (answers, stats) = forest_batch_dedup(
        Forest::of_one(tree),
        requests,
        opts,
        refiner,
        threads,
        order,
        block_override,
    )?;
    let answers = answers
        .into_iter()
        .map(|(found, stats)| (found, stats.search))
        .collect();
    Ok((answers, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::NnSearch;
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

    /// A batch over `tree` as a forest of one, every request executed (no
    /// dedup), answers with their search counters.
    #[allow(clippy::type_complexity)]
    fn mixed_batch(
        tree: &MemRTree<2>,
        reqs: &[BatchQuery<2>],
        threads: usize,
        order: JoinOrder,
        block: Option<usize>,
    ) -> Result<(Vec<(Vec<Neighbor<2>>, SearchStats)>, BatchStats)> {
        let forest = Forest::of_one(tree);
        let opts = NnOptions::default();
        let (answers, stats) =
            forest_batch(forest, reqs, opts, &MbrRefiner, threads, order, block)?;
        let answers = answers.into_iter().map(|(hits, s)| (hits, s.search));
        Ok((answers.collect(), stats))
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
            let reqs: Vec<_> = queries
                .iter()
                .map(|&q| BatchQuery::Knn { q, k: 5 })
                .collect();
            let (out, stats) =
                mixed_batch(&tree, &reqs, 4, JoinOrder::AsGiven, Some(block)).unwrap();
            assert_eq!(stats.block, block, "override not applied");
            for ((a, _), b) in out.iter().zip(&seq) {
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
            false,
            || {
                started.wait();
                ids.lock().unwrap().next().unwrap()
            },
            whole(|worker: &mut usize, i| {
                log.lock().unwrap().push((*worker, i));
                if fail_at == Some(i) {
                    return Err(nnq_rtree::RTreeError::NotFound);
                }
                Ok(i * 10)
            }),
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
                    false,
                    || (),
                    whole(|(), i| {
                        if i == 5 {
                            panic!("boom at item {i}");
                        }
                        Ok(i)
                    }),
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

    /// Scratch that checks the executor's slot discipline: an item runs on
    /// one scratch from its first step to its last, and a scratch serves
    /// one unfinished item at a time.
    #[derive(Default)]
    struct Slot(Option<usize>);

    impl Slot {
        fn enter(&mut self, i: usize) {
            assert_eq!(*self.0.get_or_insert(i), i, "scratch shared by two items");
        }
        fn finish<O>(&mut self, o: O) -> Result<Poll<O>> {
            self.0 = None;
            Ok(Poll::Ready(o))
        }
    }

    #[test]
    fn steal_map_interleaving_resumes_oldest_first_and_waits_only_when_all_wait() {
        // Pages that never load in the background: an item's polls all say
        // "waiting, got nowhere", and only a waiting step finishes it.
        let len = IN_FLIGHT + 4;
        let log = std::sync::Mutex::new(Vec::new());
        let (out, stats) = steal_map(
            len,
            1,
            Some(16),
            None,
            true,
            Slot::default,
            |slot, i, wait| {
                slot.enter(i);
                log.lock().unwrap().push((i, wait));
                if wait {
                    slot.finish(i * 10)
                } else {
                    Ok(Poll::Waiting { advanced: false })
                }
            },
        )
        .unwrap();
        assert_eq!(out, (0..len).map(|i| i * 10).collect::<Vec<_>>());
        // Claims are one item per free slot, whatever the block override.
        assert_eq!((stats.threads, stats.block, stats.executed), (1, 1, len));
        // Each round: one pass over the held items, oldest first, then the
        // oldest is waited for; the slot it frees goes to the next item.
        let mut want = Vec::new();
        for oldest in 0..len {
            let newest = (oldest + IN_FLIGHT).min(len);
            want.extend((oldest..newest).map(|i| (i, false)));
            want.push((oldest, true));
        }
        assert_eq!(log.into_inner().unwrap(), want);
    }

    #[test]
    fn steal_map_interleaving_does_not_wait_while_anything_moves() {
        // Item `i` needs `i % 3` polls that get somewhere before the poll
        // that finishes it: something moves in every pass, so no step is
        // ever told to wait, and items finish out of claim order.
        let len = 40;
        let polls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let (out, stats) = steal_map(len, 3, None, None, true, Slot::default, |slot, i, wait| {
            slot.enter(i);
            assert!(!wait, "item {i} was told to wait while others could run");
            if polls[i].fetch_add(1, Ordering::Relaxed) == i % 3 {
                slot.finish(i)
            } else {
                Ok(Poll::Waiting { advanced: true })
            }
        })
        .unwrap();
        assert_eq!(out, (0..len).collect::<Vec<_>>());
        assert_eq!(stats.per_worker_queries.iter().sum::<usize>(), len);
        for (i, n) in polls.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), i % 3 + 1, "item {i}");
        }
    }

    #[test]
    fn steal_map_interleaving_claims_one_item_per_free_slot() {
        // Item 0's step does not return before all but IN_FLIGHT items are
        // done. Its worker holds at most IN_FLIGHT items (item 0 among
        // them), so that only happens if it claimed nothing it had no slot
        // for: everything else must have been left to the other worker.
        // (The deadline turns the hang of a greedier claim into a failure.)
        let len = 5 * IN_FLIGHT;
        let done = AtomicUsize::new(0);
        let (out, stats) = steal_map(
            len,
            2,
            Some(16),
            None,
            true,
            Slot::default,
            |slot, i, _wait| {
                slot.enter(i);
                if i == 0 {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                    while done.load(Ordering::Relaxed) < len - IN_FLIGHT {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "the other worker ran out of items to claim"
                        );
                        std::thread::yield_now();
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
                slot.finish(i)
            },
        )
        .unwrap();
        assert_eq!(out, (0..len).collect::<Vec<_>>());
        assert_eq!(stats.block, 1);
        let stuck = *stats.per_worker_queries.iter().min().unwrap();
        assert!(stuck <= IN_FLIGHT, "{:?}", stats.per_worker_queries);
    }

    #[test]
    fn steal_map_interleaving_error_fails_the_batch() {
        for threads in [1, 2] {
            let out = steal_map(
                30,
                threads,
                None,
                None,
                true,
                Slot::default,
                |slot, i, wait| {
                    slot.enter(i);
                    match (i, wait) {
                        (17, true) => Err(nnq_rtree::RTreeError::NotFound),
                        (_, true) => slot.finish(i),
                        (_, false) => Ok(Poll::Waiting { advanced: false }),
                    }
                },
            );
            assert!(matches!(out, Err(nnq_rtree::RTreeError::NotFound)));
        }
    }

    #[test]
    fn steal_map_item_by_item_always_waits_and_holds_one_item() {
        let log = std::sync::Mutex::new(Vec::new());
        let (out, stats) = steal_map(
            6,
            1,
            None,
            None,
            false,
            || 0usize,
            |polls, i, wait| {
                assert!(wait, "an item-by-item worker has nothing else to run");
                log.lock().unwrap().push(i);
                *polls += 1;
                // A resumable item would not stop under `wait`; if one
                // does, it is simply stepped again.
                Ok(if *polls % 3 == 0 {
                    Poll::Ready(i)
                } else {
                    Poll::Waiting { advanced: false }
                })
            },
        )
        .unwrap();
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(stats.block, 6);
        let want: Vec<usize> = (0..6).flat_map(|i| [i, i, i]).collect();
        assert_eq!(log.into_inner().unwrap(), want);
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
        let (seq, _) = mixed_batch(&tree, &reqs, 1, JoinOrder::AsGiven, None).unwrap();
        assert_eq!(seq.len(), reqs.len());
        for (threads, order, block) in [
            (2, JoinOrder::AsGiven, None),
            (4, JoinOrder::Hilbert, None),
            (8, JoinOrder::Hilbert, Some(1)),
            (3, JoinOrder::AsGiven, Some(64)),
        ] {
            let (par, bstats) = mixed_batch(&tree, &reqs, threads, order, block).unwrap();
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
        let (got, _) = mixed_batch(&tree, &reqs, 4, JoinOrder::Hilbert, None).unwrap();
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
        let (plain, pstats) = mixed_batch(&tree, &reqs, 4, JoinOrder::Hilbert, None).unwrap();
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
        let (plain, _) = mixed_batch(&tree, &reqs, 4, JoinOrder::Hilbert, None).unwrap();
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
        let (out, _) = mixed_batch(&tree, &[], 4, JoinOrder::Hilbert, None).unwrap();
        assert!(out.is_empty());
    }
}
