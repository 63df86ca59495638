//! The one read engine: scatter-gather queries over a [`Forest`].
//!
//! A forest is a slice of trees, each bounded by the root MBR its
//! committed meta holds ([`TreeAccess::bounds`]): the bound of exactly the
//! version the search reads, a live tree's or a snapshot's, so it contains
//! whatever was written to the tree. A Hilbert-range [`PartitionedTree`]
//! is the forest of its partitions; an unpartitioned tree is a forest of
//! one ([`Forest::of_one`]). Every batch, served request and CLI query
//! runs here.
//!
//! The paper's Theorem 1 justifies discarding a *subtree* whose MINDIST
//! exceeds the current k-th candidate distance; nothing in the argument
//! requires the subtree to hang off the same root. Applied one level up,
//! it discards a whole *tree* of the forest whose MINDIST-to-bound reaches
//! the k-th distance — the scale-out form of branch-and-bound kNN
//! ([`scatter_knn`] / [`scatter_radius`], batches in [`forest_batch`]).
//!
//! ## The shared-bound round protocol
//!
//! Trees are scheduled in ascending `(MINDIST(q, bound), tree index)`
//! order and executed in **rounds** of doubling size (1, 1, 2, 4, 8, …).
//! At the start of each round the bound — the k-th squared distance of
//! the candidates merged so far, `+∞` until there are k — is sampled
//! **once**:
//!
//! * every scheduled tree whose MINDIST is at or beyond the sample is
//!   pruned, along with the entire remaining schedule (the schedule is
//!   sorted by MINDIST and the bound only tightens, so the first pruned
//!   tree proves the rest);
//! * each of the round's survivors is searched through a [`QueryCursor`]
//!   pre-pruned by that *same* sampled bound
//!   ([`NnSearch::query_refined_bounded`]);
//! * once all of them are done, their results are merged into the
//!   candidate heap in schedule order, which tightens the bound for the
//!   next round.
//!
//! Sampling per round — never mid-flight — is a deliberate trade: a live
//! bound would sometimes prune a little more, but *which* pages a tree
//! reads would then depend on thread scheduling. With the round protocol,
//! every per-tree traversal is a pure function of `(tree, query, k, round
//! bound)`, so results, every [`SearchStats`] counter, and the summed
//! per-tree `logical_reads` are bit-identical however a round's trees are
//! run — the same accounting contract the rest of this crate keeps for
//! caches, kernels, and prefetch. The doubling round sizes bound the cost
//! of the serialization: the first two rounds establish a tight bound from
//! the nearest trees (one each), after which wide rounds exploit full
//! parallelism — at most ⌈log₂ P⌉ + 1 rounds for P trees.
//!
//! ## The first-round shortcut
//!
//! The first round searches the nearest tree alone at bound `+∞`, exactly
//! as a standalone query would, so its answer is that tree's exact k
//! nearest, sorted by `(distance, record)`. When the next scheduled tree's
//! MINDIST is at or beyond that answer's k-th distance (`+∞` while it
//! holds fewer than k), or no tree is left, the second round would prune
//! everything, and merging the answer into the empty heap would hand it
//! back unchanged: it is returned as it is, with no heap merge and no
//! re-sort. A forest of one always takes it — nothing follows its one
//! tree — so it costs what a bare single-tree traversal costs. A radius
//! query over one surviving tree likewise keeps that tree's sorted answer.
//!
//! ## One protocol, two drivers
//!
//! The protocol's whole state is plain data in a per-query scratch
//! (`ScatterCursor`): the schedule, the current round and its sampled
//! bound, the round's per-tree outputs in schedule order, the merged heap,
//! the [`PartitionedStats`] and one [`QueryCursor`]. A round's trees run
//! one of two ways:
//!
//! * [`scatter_knn`] (one query, [`partitioned_knn`]) runs them **in
//!   parallel**, one executor item per tree;
//! * a kNN item of a batch ([`forest_batch`]) runs them **one after
//!   another** — tree parallelism and batch parallelism would fight over
//!   the same cores — and is resumable: where the batch interleaves
//!   (§"Batch executor" in DESIGN.md), a tree's traversal stops in front
//!   of a page that is not loaded, that page goes as a certain hint to its
//!   own tree's pool, and the worker runs another query of the batch
//!   meanwhile.
//!
//! Both compute exactly what `scatter_knn(.., threads = 1)` computes.

use crate::branch_bound::{NnSearch, QueryCursor};
use crate::heap::{sort_hits, KnnHeap};
use crate::join::JoinOrder;
use crate::options::{Neighbor, NnOptions, SearchStats};
use crate::parallel::{claim_order, interleaves, steal_map, whole, BatchQuery, BatchStats, Poll};
use crate::radius::within_radius_with;
use crate::refine::Refiner;
use crate::Result;
use nnq_geom::{mindist_sq, Point};
use nnq_rtree::{Forest, PartitionedTree, TreeAccess};
use std::collections::HashMap;
use std::ops::Range;

/// Work counters for one scatter-gather query (or a batch of them).
///
/// `search` sums the per-tree traversal counters in schedule order; the
/// tree counters satisfy `partitions_visited + partitions_pruned == P`
/// for every query over P trees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionedStats {
    /// Summed per-tree traversal counters.
    pub search: SearchStats,
    /// Trees actually searched.
    pub partitions_visited: u64,
    /// Trees skipped because the MINDIST to their bound reached the shared
    /// bound (kNN) or exceeded the radius — including empty trees, whose
    /// empty bound has infinite MINDIST.
    pub partitions_pruned: u64,
    /// Rounds executed by the kNN protocol (1 for any non-empty radius
    /// scatter).
    pub rounds: u64,
}

impl PartitionedStats {
    /// Adds `other` counter-wise (batch aggregation).
    pub fn accumulate(&mut self, other: &PartitionedStats) {
        self.search.accumulate(&other.search);
        self.partitions_visited += other.partitions_visited;
        self.partitions_pruned += other.partitions_pruned;
        self.rounds += other.rounds;
    }
}

/// One scheduled tree: its MINDIST to the query and its index.
#[derive(Clone, Copy)]
struct Sched {
    mindist_sq: f64,
    part: usize,
}

/// Fills `sched` with the MINDIST-ascending schedule of `trees` by their
/// bounds (ties broken by tree index, so the order is total and
/// deterministic).
fn schedule<const D: usize, T: TreeAccess<D>>(sched: &mut Vec<Sched>, q: &Point<D>, trees: &[T]) {
    sched.clear();
    sched.extend(trees.iter().enumerate().map(|(part, tree)| Sched {
        // An empty tree's bound is `Rect::empty()` with infinite corners:
        // its MINDIST evaluates to +∞ and the schedule tail prunes it
        // without a special case.
        mindist_sq: mindist_sq(q, &tree.bounds()),
        part,
    }));
    sched.sort_by(|a, b| {
        a.mindist_sq
            .total_cmp(&b.mindist_sq)
            .then_with(|| a.part.cmp(&b.part))
    });
}

/// One kNN scatter-gather query's round protocol (module docs) as plain
/// data, reused across the queries its owner runs.
struct ScatterCursor<const D: usize> {
    /// The query's trees, MINDIST-ascending.
    sched: Vec<Sched>,
    /// The current round: the slots of `sched` it covers. Later rounds
    /// start at its end.
    round: Range<usize>,
    /// The bound the current round's trees are pre-pruned by.
    bound: f64,
    /// The current round's per-tree answers so far, in schedule order.
    outs: Vec<(Vec<Neighbor<D>>, SearchStats)>,
    /// The candidates of every finished round.
    heap: KnnHeap<D>,
    stats: PartitionedStats,
    /// The traversal of the tree under way (batch items only).
    cursor: QueryCursor<D>,
    /// Whether a query is under way.
    active: bool,
}

impl<const D: usize> ScatterCursor<D> {
    fn new() -> Self {
        Self {
            sched: Vec::new(),
            round: 0..0,
            bound: f64::INFINITY,
            outs: Vec::new(),
            heap: KnnHeap::new(1),
            stats: PartitionedStats::default(),
            cursor: QueryCursor::new(),
            active: false,
        }
    }

    /// Starts the `k`-NN query at `q` over `trees`.
    fn begin<T: TreeAccess<D>>(&mut self, q: &Point<D>, k: usize, trees: &[T]) {
        self.heap.reset(k);
        schedule(&mut self.sched, q, trees);
        self.round = 0..0;
        self.outs.clear();
        self.stats = PartitionedStats::default();
        self.active = true;
    }

    /// Opens the next round once the current one has answered; `false`
    /// when the query is over.
    fn next_round(&mut self) -> bool {
        !self.settled() && self.merge_and_open()
    }

    /// Whether the first round settled the query on its own (module docs,
    /// §"The first-round shortcut"): it searched one tree, and the next
    /// scheduled tree's MINDIST is at or beyond that answer's k-th
    /// distance, or there is none.
    fn settled(&self) -> bool {
        let [(found, _)] = self.outs.as_slice() else {
            return false;
        };
        let kth = found
            .get(self.heap.k() - 1)
            .map_or(f64::INFINITY, |n| n.dist_sq);
        self.stats.rounds == 1 && self.sched.get(1).is_none_or(|next| next.mindist_sq >= kth)
    }

    /// Merges the finished round's answers in schedule order, then samples
    /// the bound and opens the next round: 1, 1, 2, 4, 8, … trees — cheap
    /// serial rounds while the bound is loose, wide ones once it is tight
    /// — cut short at the first tree the bound prunes. `false` when there
    /// is none to open.
    fn merge_and_open(&mut self) -> bool {
        for (found, part_stats) in self.outs.drain(..) {
            self.stats.search.accumulate(&part_stats);
            for n in found {
                self.heap.offer(n.record, n.mbr, n.dist_sq);
            }
        }
        let size = match self.stats.rounds {
            0 | 1 => 1,
            r => 2usize.saturating_pow((r - 1) as u32),
        };
        self.bound = self.heap.bound_sq();
        let start = self.round.end;
        // The schedule is MINDIST-ascending and the bound is monotone, so
        // the first entry at/above the bound proves the whole tail.
        let take = self.sched[start..]
            .iter()
            .take(size)
            .take_while(|s| s.mindist_sq < self.bound)
            .count();
        self.round = start..start + take;
        self.stats.rounds += u64::from(take > 0);
        self.stats.partitions_visited += take as u64;
        take > 0
    }

    /// The query's answer, sorted by `(distance, record)`, and its
    /// counters; leaves the cursor ready for the next query.
    fn finish(&mut self) -> (Vec<Neighbor<D>>, PartitionedStats) {
        self.active = false;
        self.stats.partitions_pruned = self.sched.len() as u64 - self.stats.partitions_visited;
        // Only a settled first round leaves an answer unmerged.
        let found = match self.outs.pop() {
            Some((found, search)) => {
                self.stats.search = search;
                found
            }
            None => self.heap.drain_sorted(),
        };
        (found, self.stats)
    }

    /// One step of the query `(q, k)` as a batch item, running each
    /// round's trees one after another on the cursor's own
    /// [`QueryCursor`]: begins the query if none is under way, else goes
    /// on where the last step stopped (the caller passes the same `q` and
    /// `k` every time). Under `on.interleave` a tree's traversal is
    /// resumable and the step returns [`Poll::Waiting`] at the first page
    /// that is not loaded; `wait` makes the step's first read wait.
    fn step<T, R>(
        &mut self,
        on: &Scatter<'_, D, T, R>,
        q: &Point<D>,
        k: usize,
        mut wait: bool,
    ) -> Result<Poll<(Vec<Neighbor<D>>, PartitionedStats)>>
    where
        T: TreeAccess<D>,
        R: Refiner<D>,
    {
        if !self.active {
            self.begin(q, k, on.forest.trees());
        }
        let mut advanced = false;
        loop {
            // Once every tree of the round has answered, the next.
            if self.outs.len() == self.round.len() && !self.next_round() {
                return Ok(Poll::Ready(self.finish()));
            }
            let part = self.sched[self.round.start + self.outs.len()].part;
            let search = NnSearch::with_options(&on.forest.trees()[part], on.opts);
            let (cursor, bound) = (&mut self.cursor, self.bound);
            let polled = if on.interleave {
                search.resume(cursor, q, k, on.refiner, bound, wait)
            } else {
                search
                    .query_refined_bounded(cursor, q, k, on.refiner, bound)
                    .map(Poll::Ready)
            };
            match polled {
                Ok(Poll::Ready(out)) => {
                    self.outs.push(out);
                    advanced = true;
                    wait = false;
                }
                Ok(Poll::Waiting { advanced: moved }) => {
                    return Ok(Poll::Waiting {
                        advanced: advanced || moved,
                    })
                }
                Err(e) => {
                    self.active = false;
                    return Err(e);
                }
            }
        }
    }
}

/// What every kNN item of one batch scatters over, and how.
struct Scatter<'a, const D: usize, T, R> {
    forest: Forest<'a, T>,
    opts: NnOptions,
    refiner: &'a R,
    /// Whether the batch interleaves: tree traversals are resumable.
    interleave: bool,
}

/// Branch-and-bound kNN over `forest`, visiting trees in MINDIST order
/// under the shared-bound round protocol (module docs), each round's trees
/// in parallel over up to `threads` workers.
///
/// Results are the exact k nearest across all trees, sorted by
/// `(distance, record)` — and, like every counter in the returned
/// [`PartitionedStats`], independent of `threads`.
///
/// # Panics
/// Panics if `k == 0` or `threads == 0`.
pub fn scatter_knn<const D: usize, T, R>(
    forest: Forest<'_, T>,
    q: &Point<D>,
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<(Vec<Neighbor<D>>, PartitionedStats)>
where
    T: TreeAccess<D> + Sync,
    R: Refiner<D> + Sync,
{
    assert!(threads > 0, "need at least one worker");
    let mut sc = ScatterCursor::new();
    sc.begin(q, k, forest.trees());
    while sc.next_round() {
        let (round, bound) = (&sc.sched[sc.round.clone()], sc.bound);
        // One claim per tree, one cursor per worker.
        let (outs, _) = steal_map(
            round.len(),
            threads,
            Some(1),
            None,
            false,
            QueryCursor::new,
            whole(|qc, i| {
                NnSearch::with_options(&forest.trees()[round[i].part], opts)
                    .query_refined_bounded(qc, q, k, refiner, bound)
            }),
        )?;
        sc.outs = outs;
    }
    Ok(sc.finish())
}

/// Radius query over `forest`: trees whose MINDIST-to-bound exceeds the
/// (squared) radius are skipped outright; the rest are searched in
/// parallel in one round and the hits merged and sorted by
/// `(distance, record)` — the same output contract as
/// [`within_radius`](crate::within_radius) on a single tree.
///
/// # Panics
/// Panics if `radius` is negative or NaN, or `threads == 0`.
pub fn scatter_radius<const D: usize, T, R>(
    forest: Forest<'_, T>,
    q: &Point<D>,
    radius: f64,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<(Vec<Neighbor<D>>, PartitionedStats)>
where
    T: TreeAccess<D> + Sync,
    R: Refiner<D> + Sync,
{
    assert!(radius >= 0.0, "radius must be nonnegative");
    assert!(threads > 0, "need at least one worker");
    let radius_sq = radius * radius;
    let mut visit = Vec::with_capacity(forest.trees().len());
    schedule(&mut visit, q, forest.trees());
    // Unlike kNN there is no evolving bound: the survivor set is known up
    // front, so a single parallel round covers it.
    let survivors = visit
        .iter()
        .take_while(|s| s.mindist_sq <= radius_sq)
        .count();
    visit.truncate(survivors);
    let mut stats = PartitionedStats {
        partitions_visited: visit.len() as u64,
        partitions_pruned: (forest.trees().len() - visit.len()) as u64,
        rounds: u64::from(!visit.is_empty()),
        ..PartitionedStats::default()
    };

    let (outs, _) = steal_map(
        visit.len(),
        threads,
        Some(1),
        None,
        false,
        || (),
        whole(|(), i| {
            let tree = &forest.trees()[visit[i].part];
            within_radius_with(tree, q, radius, refiner, opts.kernel)
        }),
    )?;

    // One tree's answer is kept as it is: sorted already.
    let mut outs = outs.into_iter();
    let (mut merged, first) = outs.next().unwrap_or_default();
    stats.search = first;
    for (found, part_stats) in outs {
        stats.search.accumulate(&part_stats);
        merged.extend(found);
    }
    if visit.len() > 1 {
        sort_hits(&mut merged);
    }
    Ok((merged, stats))
}

/// kNN over a [`PartitionedTree`]: [`scatter_knn`] over its forest.
pub fn partitioned_knn<const D: usize, R: Refiner<D> + Sync>(
    tree: &PartitionedTree<D>,
    q: &Point<D>,
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<(Vec<Neighbor<D>>, PartitionedStats)> {
    scatter_knn(tree.forest(), q, k, opts, refiner, threads)
}

/// A batch of kNN queries over a [`PartitionedTree`]: [`forest_batch`]
/// over its forest, in submission order. The aggregate
/// [`PartitionedStats`] sums the per-query stats in submission order, so
/// both — and every query's answer and counters — are bit-identical to a
/// loop of [`partitioned_knn`] calls, whatever the thread count, prefetch
/// policy or interleaving.
pub fn partitioned_knn_batch<const D: usize, R: Refiner<D> + Sync>(
    tree: &PartitionedTree<D>,
    queries: &[Point<D>],
    k: usize,
    opts: NnOptions,
    refiner: &R,
    threads: usize,
) -> Result<(Vec<Vec<Neighbor<D>>>, PartitionedStats)> {
    let requests: Vec<_> = queries.iter().map(|&q| BatchQuery::Knn { q, k }).collect();
    let (answers, _) = forest_batch(
        tree.forest(),
        &requests,
        opts,
        refiner,
        threads,
        JoinOrder::AsGiven,
        None,
    )?;
    let mut totals = PartitionedStats::default();
    let results = answers
        .into_iter()
        .map(|(found, stats)| {
            totals.accumulate(&stats);
            found
        })
        .collect();
    Ok((results, totals))
}

/// The one batch executor body: a mixed kNN/radius batch over `forest`,
/// fanned out over `threads` workers that claim requests off a shared
/// cursor in `order` (claim blocks of `block_override`, default the
/// shared heuristic — the self-tuning controller's batch knob). Returns,
/// in submission order, every request's hits and its
/// [`PartitionedStats`], plus the run's [`BatchStats`].
///
/// A kNN request is one [`ScatterCursor`] item: each round's trees run one
/// after another (tree parallelism and batch parallelism would fight over
/// the same cores), and where some tree's pool reads pages in the
/// background and the prefetch policy is `Adaptive`, the item is resumable
/// and the batch interleaves — a worker keeps several queries in flight
/// and switches at a page that is not loaded, hinting that page to its
/// tree's pool. A radius request is one sequential [`scatter_radius`]
/// pass that finishes on its first step.
///
/// Every answer — hits and counters — equals the standalone
/// [`scatter_knn`] / [`scatter_radius`] call's, whatever the thread
/// count, claim-block size, order or interleaving: each request is
/// computed independently and results are reassembled in submission
/// order.
#[allow(clippy::type_complexity)]
pub fn forest_batch<const D: usize, T, R>(
    forest: Forest<'_, T>,
    requests: &[BatchQuery<D>],
    opts: NnOptions,
    refiner: &R,
    threads: usize,
    order: JoinOrder,
    block_override: Option<usize>,
) -> Result<(Vec<(Vec<Neighbor<D>>, PartitionedStats)>, BatchStats)>
where
    T: TreeAccess<D> + Sync,
    R: Refiner<D> + Sync,
{
    let on = Scatter {
        forest,
        opts,
        refiner,
        interleave: interleaves(forest.trees(), &opts),
    };
    let schedule = claim_order(order, requests.iter().map(|r| *r.point()));
    steal_map(
        requests.len(),
        threads,
        block_override,
        schedule.as_deref(),
        on.interleave,
        ScatterCursor::new,
        |sc, i, wait| match requests[i] {
            BatchQuery::Knn { q, k } => sc.step(&on, &q, k, wait),
            BatchQuery::Radius { q, radius } => {
                scatter_radius(forest, &q, radius, opts, refiner, 1).map(Poll::Ready)
            }
        },
    )
}

/// [`forest_batch`] with **intra-batch deduplication**: requests whose
/// [`canonical key`](BatchQuery::canonical_key) bytes are identical
/// execute exactly once, and the single answer (hits *and* stats) fans out
/// to every duplicate's submission-order slot. Under Zipf-skewed serving
/// traffic a micro-batch routinely carries the same hot query many times;
/// there is no reason to traverse for it more than once per batch.
///
/// Each request is a pure function of `(forest, query)` for the duration
/// of the batch, so a duplicate's answer is bit-identical to what its own
/// execution would have produced. Near-duplicates are never merged: the
/// canonical key encodes `f64` parameters as raw bits, so queries one ulp
/// apart stay distinct. The returned [`BatchStats`] describe the
/// deduplicated execution: `requests.len() - executed` is the number of
/// traversals the merge saved.
#[allow(clippy::type_complexity)]
pub fn forest_batch_dedup<const D: usize, T, R>(
    forest: Forest<'_, T>,
    requests: &[BatchQuery<D>],
    opts: NnOptions,
    refiner: &R,
    threads: usize,
    order: JoinOrder,
    block_override: Option<usize>,
) -> Result<(Vec<(Vec<Neighbor<D>>, PartitionedStats)>, BatchStats)>
where
    T: TreeAccess<D> + Sync,
    R: Refiner<D> + Sync,
{
    // Each unique request once, in first-submission order (so with no
    // duplicates the batch itself), then every answer fanned out to its
    // duplicates' slots.
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
    let (answers, bstats) = forest_batch(
        forest,
        &unique,
        opts,
        refiner,
        threads,
        order,
        block_override,
    )?;
    if unique.len() == requests.len() {
        return Ok((answers, bstats));
    }
    let fanned = slot_of.iter().map(|&slot| answers[slot].clone()).collect();
    Ok((fanned, bstats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::MbrRefiner;
    use crate::stalling::Stalling;
    use crate::within_radius;
    use nnq_geom::Rect;
    use nnq_rtree::{BulkMethod, RTreeConfig, RecordId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, seed: u64) -> Vec<(Rect<2>, RecordId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let p = Point::new([rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)]);
                (Rect::from_point(p), RecordId(i as u64))
            })
            .collect()
    }

    fn build(items: Vec<(Rect<2>, RecordId)>, p: usize) -> PartitionedTree<2> {
        PartitionedTree::bulk_load_in_memory(
            items,
            p,
            RTreeConfig::default(),
            BulkMethod::Hilbert,
            1.0,
            4096,
            1,
        )
        .unwrap()
    }

    #[test]
    fn knn_matches_brute_force_across_partition_counts() {
        let items = points(3000, 17);
        let q = Point::new([321.5, 654.2]);
        let mut dists: Vec<(f64, u64)> = items
            .iter()
            .map(|(r, rid)| {
                let c = r.center();
                let (dx, dy) = (c[0] - q[0], c[1] - q[1]);
                (dx * dx + dy * dy, rid.0)
            })
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for p in [1, 3, 8] {
            let tree = build(items.clone(), p);
            let (found, stats) =
                partitioned_knn(&tree, &q, 10, NnOptions::default(), &MbrRefiner, 1).unwrap();
            assert_eq!(found.len(), 10);
            for (n, (want_d, _)) in found.iter().zip(&dists) {
                assert_eq!(n.dist_sq, *want_d, "p={p}");
            }
            assert_eq!(
                stats.partitions_visited + stats.partitions_pruned,
                p as u64,
                "p={p}"
            );
        }
    }

    #[test]
    fn knn_is_thread_invariant() {
        let items = points(4000, 19);
        let tree = build(items, 8);
        let queries: Vec<Point<2>> = (0..20)
            .map(|i| Point::new([i as f64 * 47.0 % 1000.0, i as f64 * 131.0 % 1000.0]))
            .collect();
        for q in &queries {
            let (r1, s1) =
                partitioned_knn(&tree, q, 7, NnOptions::default(), &MbrRefiner, 1).unwrap();
            for threads in [2, 8] {
                let (rt, st) =
                    partitioned_knn(&tree, q, 7, NnOptions::default(), &MbrRefiner, threads)
                        .unwrap();
                assert_eq!(r1, rt, "threads={threads}");
                assert_eq!(s1, st, "threads={threads}");
            }
        }
    }

    #[test]
    fn far_partitions_are_pruned() {
        // Two clusters far apart: querying inside one cluster must prune
        // the partitions that cover the other.
        let mut items = points(1000, 23); // cluster A in [0,1000)^2
        let mut rng = StdRng::seed_from_u64(29);
        for i in 0..1000usize {
            let p = Point::new([
                1_000_000.0 + rng.random_range(0.0..1000.0),
                rng.random_range(0.0..1000.0),
            ]);
            items.push((Rect::from_point(p), RecordId((1000 + i) as u64)));
        }
        let tree = build(items, 8);
        let q = Point::new([500.0, 500.0]);
        let (found, stats) =
            partitioned_knn(&tree, &q, 5, NnOptions::default(), &MbrRefiner, 1).unwrap();
        assert_eq!(found.len(), 5);
        assert!(found.iter().all(|n| n.record.0 < 1000));
        assert!(
            stats.partitions_pruned > 0,
            "distant cluster should be pruned: {stats:?}"
        );
        assert_eq!(stats.partitions_visited + stats.partitions_pruned, 8);
    }

    #[test]
    fn empty_partitions_count_as_pruned() {
        let tree = build(points(3, 31), 8); // 5 empty partitions
        let (found, stats) = partitioned_knn(
            &tree,
            &Point::new([1.0, 1.0]),
            3,
            NnOptions::default(),
            &MbrRefiner,
            2,
        )
        .unwrap();
        assert_eq!(found.len(), 3);
        assert_eq!(stats.partitions_visited + stats.partitions_pruned, 8);
        assert!(stats.partitions_pruned >= 5);
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let tree = build(points(25, 37), 4);
        let (found, _) = partitioned_knn(
            &tree,
            &Point::new([0.0, 0.0]),
            100,
            NnOptions::default(),
            &MbrRefiner,
            2,
        )
        .unwrap();
        assert_eq!(found.len(), 25);
        for w in found.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
        }
    }

    #[test]
    fn radius_matches_single_tree() {
        let items = points(2500, 41);
        let single = build(items.clone(), 1);
        let q = Point::new([400.0, 400.0]);
        for radius in [0.0, 15.0, 60.0, 2000.0] {
            let (want, _) =
                within_radius(&single.partitions()[0], &q, radius, &MbrRefiner).unwrap();
            for p in [4usize, 16] {
                let tree = build(items.clone(), p);
                for threads in [1usize, 4] {
                    let (got, stats) = scatter_radius(
                        tree.forest(),
                        &q,
                        radius,
                        NnOptions::default(),
                        &MbrRefiner,
                        threads,
                    )
                    .unwrap();
                    assert_eq!(got, want, "p={p} threads={threads} radius={radius}");
                    assert_eq!(stats.partitions_visited + stats.partitions_pruned, p as u64);
                }
            }
        }
    }

    #[test]
    fn batch_matches_individual_queries_and_is_thread_invariant() {
        let items = points(3000, 43);
        let tree = build(items, 4);
        let queries: Vec<Point<2>> = (0..30)
            .map(|i| Point::new([(i * 97 % 1000) as f64, (i * 389 % 1000) as f64]))
            .collect();
        let (seq, seq_stats) =
            partitioned_knn_batch(&tree, &queries, 5, NnOptions::default(), &MbrRefiner, 1)
                .unwrap();
        // Individual queries agree.
        for (q, want) in queries.iter().zip(&seq) {
            let (got, _) =
                partitioned_knn(&tree, q, 5, NnOptions::default(), &MbrRefiner, 1).unwrap();
            assert_eq!(&got, want);
        }
        for threads in [2, 8] {
            let (par, par_stats) = partitioned_knn_batch(
                &tree,
                &queries,
                5,
                NnOptions::default(),
                &MbrRefiner,
                threads,
            )
            .unwrap();
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(seq_stats, par_stats, "threads={threads}");
        }
    }

    fn mixed_requests(n: usize) -> Vec<BatchQuery<2>> {
        (0..n)
            .map(|i| {
                let q = Point::new([(i * 97 % 1000) as f64, (i * 389 % 1000) as f64]);
                if i % 3 == 0 {
                    let radius = 10.0 + (i % 7) as f64 * 9.0;
                    BatchQuery::Radius { q, radius }
                } else {
                    BatchQuery::Knn { q, k: 1 + i % 6 }
                }
            })
            .collect()
    }

    /// The standalone answer the batch executor must reproduce bit for bit.
    fn standalone(
        tree: &PartitionedTree<2>,
        req: &BatchQuery<2>,
    ) -> (Vec<Neighbor<2>>, SearchStats) {
        let opts = NnOptions::default();
        let (hits, stats) = match *req {
            BatchQuery::Knn { q, k } => partitioned_knn(tree, &q, k, opts, &MbrRefiner, 1),
            BatchQuery::Radius { q, radius } => {
                scatter_radius(tree.forest(), &q, radius, opts, &MbrRefiner, 1)
            }
        }
        .unwrap();
        (hits, stats.search)
    }

    /// [`forest_batch_dedup`] over `tree`'s forest, answers with their
    /// search counters.
    #[allow(clippy::type_complexity)]
    fn dedup_batch(
        tree: &PartitionedTree<2>,
        reqs: &[BatchQuery<2>],
        opts: NnOptions,
        refiner: &MbrRefiner,
        threads: usize,
        order: JoinOrder,
        block: Option<usize>,
    ) -> Result<(Vec<(Vec<Neighbor<2>>, SearchStats)>, BatchStats)> {
        let (answers, bstats) =
            forest_batch_dedup(tree.forest(), reqs, opts, refiner, threads, order, block)?;
        let answers = answers.into_iter().map(|(hits, s)| (hits, s.search));
        Ok((answers.collect(), bstats))
    }

    fn assert_same_answers(
        got: &[(Vec<Neighbor<2>>, SearchStats)],
        want: &[(Vec<Neighbor<2>>, SearchStats)],
        what: &str,
    ) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, ((a, sa), (b, sb))) in got.iter().zip(want).enumerate() {
            assert_eq!(sa, sb, "stats of request {i}: {what}");
            let bits = |hits: &[Neighbor<2>]| -> Vec<(u64, u64)> {
                hits.iter()
                    .map(|n| (n.record.0, n.dist_sq.to_bits()))
                    .collect()
            };
            assert_eq!(bits(a), bits(b), "hits of request {i}: {what}");
        }
    }

    #[test]
    fn mixed_dedup_matches_standalone_queries_under_every_knob() {
        let items = points(3000, 53);
        for p in [1, 4] {
            let tree = build(items.clone(), p);
            let reqs = mixed_requests(45);
            let want: Vec<_> = reqs.iter().map(|r| standalone(&tree, r)).collect();
            for threads in [1, 4] {
                for order in [JoinOrder::AsGiven, JoinOrder::Hilbert] {
                    for block in [None, Some(1), Some(64)] {
                        let (got, bstats) = dedup_batch(
                            &tree,
                            &reqs,
                            NnOptions::default(),
                            &MbrRefiner,
                            threads,
                            order,
                            block,
                        )
                        .unwrap();
                        let what = format!("p={p} threads={threads} {order:?} block={block:?}");
                        assert_same_answers(&got, &want, &what);
                        assert_eq!(bstats.executed, reqs.len(), "{what}");
                        assert_eq!(
                            bstats.per_worker_queries.iter().sum::<usize>(),
                            reqs.len(),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_dedup_executes_duplicates_once_and_keeps_near_duplicates_apart() {
        let tree = build(points(2000, 59), 4);
        let base = mixed_requests(12);
        let mut reqs = Vec::new();
        for (i, req) in base.iter().enumerate() {
            reqs.push(*req);
            reqs.push(base[i % 3]);
        }
        let want: Vec<_> = reqs.iter().map(|r| standalone(&tree, r)).collect();
        for threads in [1, 4] {
            let (got, bstats) = dedup_batch(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                None,
            )
            .unwrap();
            assert_same_answers(&got, &want, "duplicates fan out");
            assert_eq!(bstats.executed, base.len(), "threads={threads}");
        }

        let q = Point::new([500.0, 500.0]);
        let bumped = Point::new([f64::from_bits(500.0f64.to_bits() + 1), 500.0]);
        let near = vec![
            BatchQuery::Knn { q, k: 3 },
            BatchQuery::Knn { q: bumped, k: 3 },
            BatchQuery::Radius { q, radius: 30.0 },
            BatchQuery::Radius {
                q,
                radius: f64::from_bits(30.0f64.to_bits() + 1),
            },
        ];
        let (_, bstats) = dedup_batch(
            &tree,
            &near,
            NnOptions::default(),
            &MbrRefiner,
            2,
            JoinOrder::AsGiven,
            None,
        )
        .unwrap();
        assert_eq!(bstats.executed, near.len(), "one ulp apart must not merge");
    }

    #[test]
    fn mixed_dedup_over_one_partition_is_the_single_tree_executor() {
        let tree = build(points(3000, 61), 1);
        let base = mixed_requests(30);
        let reqs: Vec<_> = base.iter().chain(&base[..10]).copied().collect();
        for threads in [1, 4] {
            tree.forest().reset_stats();
            let (want, want_stats) = crate::par_mixed_batch_dedup(
                &tree.partitions()[0],
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                None,
            )
            .unwrap();
            let want_reads = tree.forest().pool_stats().logical_reads;
            tree.forest().reset_stats();
            let (got, got_stats) = dedup_batch(
                &tree,
                &reqs,
                NnOptions::default(),
                &MbrRefiner,
                threads,
                JoinOrder::Hilbert,
                None,
            )
            .unwrap();
            assert_same_answers(&got, &want, "P=1 vs single tree");
            assert_eq!(tree.forest().pool_stats().logical_reads, want_reads);
            assert!(want_reads > 0);
            assert_eq!(got_stats.executed, want_stats.executed);
            assert_eq!(got_stats.executed, base.len());
        }
    }

    #[test]
    fn rounds_grow_geometrically() {
        // 64 partitions, uniform data, huge k: the bound stays loose, so
        // every partition is visited — in at most 1+1+2+4+8+16+32 → 7
        // rounds.
        let tree = build(points(2000, 47), 64);
        let (_, stats) = partitioned_knn(
            &tree,
            &Point::new([500.0, 500.0]),
            2000,
            NnOptions::default(),
            &MbrRefiner,
            4,
        )
        .unwrap();
        assert_eq!(stats.partitions_visited, 64);
        assert!(stats.rounds <= 7, "rounds = {}", stats.rounds);
    }

    /// An interleaving batch's view of `parts`.
    fn resumable<'a, 't>(parts: &'a [Stalling<'t>]) -> Scatter<'a, 2, Stalling<'t>, MbrRefiner> {
        Scatter {
            forest: Forest::new(parts),
            opts: NnOptions::default(),
            refiner: &MbrRefiner,
            interleave: true,
        }
    }

    /// Steps `sc` through the query `(q, k)` on `on` until it finishes,
    /// each step told to `wait` once a step has said "not yet"; returns the
    /// answer and the number of steps.
    fn drive(
        sc: &mut ScatterCursor<2>,
        on: &Scatter<'_, 2, Stalling<'_>, MbrRefiner>,
        q: &Point<2>,
        k: usize,
        wait: bool,
    ) -> ((Vec<Neighbor<2>>, PartitionedStats), usize) {
        let mut steps = 0;
        loop {
            steps += 1;
            match sc.step(on, q, k, wait && steps > 1).unwrap() {
                Poll::Ready(answer) => return (answer, steps),
                Poll::Waiting { advanced } => assert!(!wait || steps == 1 || advanced),
            }
        }
    }

    fn same_scatter_answer(
        got: &(Vec<Neighbor<2>>, PartitionedStats),
        want: &(Vec<Neighbor<2>>, PartitionedStats),
        what: &str,
    ) {
        assert_eq!(got.1, want.1, "{what}");
        let bits = |hits: &[Neighbor<2>]| -> Vec<(u64, u64)> {
            hits.iter()
                .map(|n| (n.record.0, n.dist_sq.to_bits()))
                .collect()
        };
        assert_eq!(bits(&got.0), bits(&want.0), "{what}");
    }

    #[test]
    fn a_scatter_item_suspended_before_every_node_read_equals_scatter_knn() {
        let items = points(3000, 67);
        let queries = [
            (Point::new([321.5, 654.2]), 7),
            (Point::new([999.0, 1.0]), 1),
            (Point::new([500.0, 500.0]), 300),
        ];
        for p in [1, 4] {
            let tree = build(items.clone(), p);
            let opts = NnOptions::default();
            for stalls in [0, 1, 3, usize::MAX] {
                let parts: Vec<Stalling<'_>> = tree
                    .partitions()
                    .iter()
                    .map(|t| Stalling::new(t, stalls))
                    .collect();
                let on = resumable(&parts);
                // One scratch for every query, as a batch worker's slot.
                let mut sc = ScatterCursor::new();
                for (q, k) in &queries {
                    let what = format!("p={p} stalls={stalls} k={k}");
                    let want = scatter_knn(tree.forest(), q, *k, opts, &MbrRefiner, 2).unwrap();
                    let reads = || parts.iter().map(|s| s.handed_out.get()).sum::<usize>();
                    let not_yets = || parts.iter().map(|s| s.not_yets.get()).sum::<usize>();
                    let (reads0, not_yets0) = (reads(), not_yets());
                    // Nothing ever loads in time: only waiting steps move
                    // the query, one node read each.
                    let waits = stalls == usize::MAX;
                    let (got, steps) = drive(&mut sc, &on, q, *k, waits);
                    same_scatter_answer(&got, &want, &what);
                    let nodes = want.1.search.nodes_visited as usize;
                    assert_eq!(reads() - reads0, nodes, "{what}: one read per node");
                    if waits {
                        assert_eq!(steps, nodes + 1, "{what}");
                    } else {
                        // Every "not yet" ends a step.
                        assert_eq!(not_yets() - not_yets0, stalls * nodes, "{what}");
                        assert_eq!(steps, stalls * nodes + 1, "{what}");
                    }
                    assert!(
                        !sc.active,
                        "{what}: a finished query leaves the scratch idle"
                    );
                }
            }
        }
    }

    #[test]
    fn a_failed_partition_read_ends_the_scatter_item_and_leaves_its_scratch_reusable() {
        let tree = build(points(3000, 71), 4);
        let opts = NnOptions::default();
        let q = Point::new([480.0, 510.0]);
        let want = scatter_knn(tree.forest(), &q, 12, opts, &MbrRefiner, 1).unwrap();
        let mut parts: Vec<Stalling<'_>> = tree
            .partitions()
            .iter()
            .map(|t| Stalling::new(t, 1))
            .collect();
        // The nearest partition's second read (its first leaf) fails.
        let first = schedule_of(&q, tree.partitions())[0];
        parts[first].fail_after = 1;
        let mut sc = ScatterCursor::new();
        let err = loop {
            match sc.step(&resumable(&parts), &q, 12, false) {
                Ok(Poll::Ready(_)) => panic!("the second read fails"),
                Ok(Poll::Waiting { .. }) => {}
                Err(e) => break e,
            }
        };
        assert!(matches!(err, nnq_rtree::RTreeError::NotFound));
        assert!(!sc.active);
        parts[first].fail_after = usize::MAX;
        let (got, _) = drive(&mut sc, &resumable(&parts), &q, 12, false);
        same_scatter_answer(&got, &want, "the query after the failed one");
    }

    /// The partition indices of `q`'s schedule, nearest first.
    fn schedule_of<T: TreeAccess<2>>(q: &Point<2>, trees: &[T]) -> Vec<usize> {
        let mut sched = Vec::new();
        schedule(&mut sched, q, trees);
        sched.iter().map(|s| s.part).collect()
    }

    #[test]
    fn empty_partition_list_yields_nothing() {
        let parts: Vec<nnq_rtree::MemRTree<2>> = Vec::new();
        let (found, stats) = scatter_knn(
            Forest::new(&parts),
            &Point::new([0.0, 0.0]),
            3,
            NnOptions::default(),
            &MbrRefiner,
            1,
        )
        .unwrap();
        assert!(found.is_empty());
        assert_eq!(stats, PartitionedStats::default());
    }

    /// In-memory trees, tree `i` holding the `(x, y, record)` points of
    /// `groups[i]` (and so bounded by their MBR).
    fn forest_of(groups: &[&[(f64, f64, u64)]]) -> Vec<nnq_rtree::MemRTree<2>> {
        let tree_of = |group: &[(f64, f64, u64)]| {
            let tree = nnq_rtree::MemRTree::new();
            for &(x, y, id) in group {
                let r = Rect::from_point(Point::new([x, y]));
                tree.insert(&r, RecordId(id)).unwrap();
            }
            tree
        };
        groups.iter().map(|group| tree_of(group)).collect()
    }

    /// The round protocol with the first-round shortcut taken out: every
    /// round's answers go through the heap.
    fn merge_path(
        forest: Forest<'_, nnq_rtree::MemRTree<2>>,
        q: &Point<2>,
        k: usize,
    ) -> (Vec<Neighbor<2>>, PartitionedStats) {
        let mut sc = ScatterCursor::new();
        sc.begin(q, k, forest.trees());
        while sc.merge_and_open() {
            let bound = sc.bound;
            sc.outs = sc.sched[sc.round.clone()]
                .iter()
                .map(|s| {
                    NnSearch::new(&forest.trees()[s.part])
                        .query_refined_bounded(&mut QueryCursor::new(), q, k, &MbrRefiner, bound)
                        .unwrap()
                })
                .collect();
        }
        sc.finish()
    }

    /// Whether the first round alone settles `(q, k)` on `forest`.
    fn first_round_settles(
        forest: Forest<'_, nnq_rtree::MemRTree<2>>,
        q: &Point<2>,
        k: usize,
    ) -> bool {
        let mut sc = ScatterCursor::new();
        sc.begin(q, k, forest.trees());
        assert!(sc.next_round(), "the first round searches the nearest tree");
        let nearest = &forest.trees()[sc.sched[0].part];
        sc.outs = vec![NnSearch::new(nearest)
            .query_refined(q, k, &MbrRefiner)
            .unwrap()];
        sc.settled()
    }

    /// The k nearest points of `groups` to `q` by `(distance, record)`.
    fn brute_force(groups: &[&[(f64, f64, u64)]], q: &Point<2>, k: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|&(x, y, id)| (id, mindist_sq(q, &Rect::from_point(Point::new([x, y])))))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Runs `(q, k)` through `scatter_knn` and a batch item and checks both against the
    /// merge path, hits and counters bit for bit; returns the answer.
    fn both_ways(
        forest: Forest<'_, nnq_rtree::MemRTree<2>>,
        q: &Point<2>,
        k: usize,
    ) -> (Vec<Neighbor<2>>, PartitionedStats) {
        let want = merge_path(forest, q, k);
        let opts = NnOptions::default();
        let got = scatter_knn(forest, q, k, opts, &MbrRefiner, 2).unwrap();
        same_scatter_answer(&got, &want, "scatter_knn vs the merge path");
        let reqs = [BatchQuery::Knn { q: *q, k }];
        let (batch, _) = forest_batch(
            forest,
            &reqs,
            opts,
            &MbrRefiner,
            1,
            JoinOrder::AsGiven,
            None,
        )
        .unwrap();
        same_scatter_answer(&batch[0], &want, "a batch item vs the merge path");
        got
    }

    fn records_and_dists(hits: &[Neighbor<2>]) -> Vec<(u64, f64)> {
        hits.iter().map(|n| (n.record.0, n.dist_sq)).collect()
    }

    #[test]
    fn a_next_bound_exactly_at_the_kth_distance_is_pruned_and_the_first_round_settles() {
        // From q = (0, 0): A holds distances² 1 and 4; B's MBR starts at
        // distance² 4, exactly A's 2nd — rounds take `mindist < bound`.
        let a: &[(f64, f64, u64)] = &[(1.0, 0.0, 1), (2.0, 0.0, 2)];
        let b: &[(f64, f64, u64)] = &[(0.0, 2.0, 3), (0.0, 3.0, 4)];
        let trees = forest_of(&[a, b]);
        let forest = Forest::new(&trees);
        let q = Point::new([0.0, 0.0]);
        assert!(first_round_settles(forest, &q, 2));
        let (hits, stats) = both_ways(forest, &q, 2);
        assert_eq!(records_and_dists(&hits), brute_force(&[a, b], &q, 2));
        assert_eq!(
            (
                stats.partitions_visited,
                stats.partitions_pruned,
                stats.rounds
            ),
            (1, 1, 1)
        );
        // One step closer and B can hold something nearer: no shortcut.
        let b_closer: &[(f64, f64, u64)] = &[(0.0, 1.9, 3), (0.0, 3.0, 4)];
        let trees = forest_of(&[a, b_closer]);
        let forest = Forest::new(&trees);
        assert!(!first_round_settles(forest, &q, 2));
        let (hits, stats) = both_ways(forest, &q, 2);
        assert_eq!(records_and_dists(&hits), brute_force(&[a, b_closer], &q, 2));
        assert_eq!(stats.partitions_visited, 2);
    }

    #[test]
    fn a_first_tree_with_fewer_than_k_records_leaves_the_bound_infinite_and_the_search_goes_on() {
        let a: &[(f64, f64, u64)] = &[(1.0, 0.0, 1), (2.0, 0.0, 2)];
        let b: &[(f64, f64, u64)] = &[(50.0, 0.0, 3), (60.0, 0.0, 4), (70.0, 0.0, 5)];
        let trees = forest_of(&[a, b]);
        let forest = Forest::new(&trees);
        let q = Point::new([0.0, 0.0]);
        assert!(!first_round_settles(forest, &q, 3));
        let (hits, stats) = both_ways(forest, &q, 3);
        assert_eq!(records_and_dists(&hits), brute_force(&[a, b], &q, 3));
        assert_eq!((stats.partitions_visited, stats.rounds), (2, 2));
        // With nothing scheduled after it, a short answer is the answer.
        let forest = Forest::of_one(&trees[0]);
        assert!(first_round_settles(forest, &q, 3));
        let (hits, stats) = both_ways(forest, &q, 3);
        assert_eq!(records_and_dists(&hits), brute_force(&[a], &q, 3));
        assert_eq!((stats.partitions_visited, stats.partitions_pruned), (1, 0));
    }

    #[test]
    fn equal_distances_straddling_trees_at_the_kth_place() {
        // Distances² from q = (0, 0): A = {r5: 1, r7: 4}, B = {r6: 4, r1: 9}.
        let a: &[(f64, f64, u64)] = &[(1.0, 0.0, 5), (2.0, 0.0, 7)];
        let b: &[(f64, f64, u64)] = &[(0.0, 2.0, 6), (0.0, 3.0, 1)];
        let trees = forest_of(&[a, b]);
        let forest = Forest::new(&trees);
        let q = Point::new([0.0, 0.0]);
        // k = 3: both tied records make the answer, ordered by record id
        // whichever tree they came from.
        assert!(!first_round_settles(forest, &q, 3));
        let (hits, _) = both_ways(forest, &q, 3);
        assert_eq!(records_and_dists(&hits), [(5, 1.0), (6, 4.0), (7, 4.0)]);
        assert_eq!(records_and_dists(&hits), brute_force(&[a, b], &q, 3));
        // k = 2: the tie sits at the k-th place itself. B's MBR is at
        // distance² 4, so B is pruned and the nearer-scheduled tree's
        // record keeps the place, on the shortcut and the merge path alike
        // (the heap refuses a candidate that only ties its bound); the
        // distances are brute force's.
        assert!(first_round_settles(forest, &q, 2));
        let (hits, _) = both_ways(forest, &q, 2);
        assert_eq!(records_and_dists(&hits), [(5, 1.0), (7, 4.0)]);
        let want: Vec<f64> = brute_force(&[a, b], &q, 2).iter().map(|h| h.1).collect();
        assert_eq!(hits.iter().map(|n| n.dist_sq).collect::<Vec<_>>(), want);
    }
}
