//! The RKV'95 branch-and-bound nearest-neighbor search.
//!
//! An ordered depth-first traversal of the R-tree. At each internal node
//! the child entries form the **Active Branch List (ABL)**; the list is
//! sorted by `MINDIST` or `MINMAXDIST`, pruned by the paper's three
//! strategies, and visited in order, re-applying upward pruning whenever
//! control returns from a subtree (the re-check happens naturally because
//! the candidate bound is consulted immediately before each descent).
//!
//! Strategy 1 needs only the node's own list, so it is applied before the
//! sort: the entries it prunes are counted in
//! [`SearchStats::pruned_downward`] and removed from the ABL before it is
//! sorted, and only the survivors are sorted and walked. While a [`Trace`]
//! is recorded the list keeps them, sorted among the rest, so that each
//! gets its `PrunedDownward` event in list order; the counts are the same
//! either way.
//!
//! ## One iterative, resumable traversal
//!
//! The depth-first order is kept by an explicit stack in the
//! [`QueryCursor`]: per depth the sorted ABL, the position of the next
//! entry to consider, and the node's strategy-1 bound. One loop
//! (`Ctx::traverse`) alternates "read the pending node, open it" with "take
//! the next surviving branch of the deepest open ABL"; every entry point —
//! `query*`, the bounded scatter-gather form, `query_traced`, and the batch
//! executor's [`NnSearch::resume`] — runs that loop. Between two node reads
//! the whole state of a query is plain data in its cursor, which holds no
//! page pin, latch or guard, so a traversal can stop in front of a node
//! read and continue later: under [`Reads::Suspending`] a read whose page
//! is not loaded (`TreeAccess::try_access_node` answers "not yet", having
//! queued the page for a background read) returns [`Poll::Waiting`] to the
//! caller instead of sleeping in the device. What a query computes — its
//! node-visit order, hits, distance bits, [`SearchStats`] and [`Trace`]
//! events — does not depend on whether, or where, it was suspended.
//!
//! ## Soundness of the pruning bounds for k > 1
//!
//! Strategy 1 and 2 use the k-th smallest `MINMAXDIST` *within one node's
//! entry list* as an upper bound on the k-th nearest-neighbor distance.
//! This is sound because the entries of a single node describe pairwise
//! disjoint subtrees (internal node) or distinct objects (leaf), so k
//! distinct entries guarantee k *distinct* objects within their respective
//! `MINMAXDIST`s. Mixing bounds across different tree levels would not be
//! sound — an ancestor's guaranteed object may be the same object as a
//! descendant's — so bounds are kept node-local, exactly as in the paper.
//!
//! ## Batched queries
//!
//! Each query needs an ABL per tree level, the per-node distance buffers
//! the kernels fill (`KernelMode::mindists`/`minmaxdists`), a selection
//! scratch vector, and the candidate heap. A crate-private
//! [`QueryCursor`] owns them all and is reused across queries
//! ([`NnSearch::query_refined_with`]) by `knn_join`, the scatter-gather
//! search and the batch executor, so a warm batch over a cached tree
//! performs no per-visit allocations; the public methods
//! ([`NnSearch::query`] etc.) create a throwaway cursor.

use crate::explain::{Decision, Trace, TraceEvent};
use crate::heap::KnnHeap;
use crate::options::{AblOrdering, Neighbor, NnOptions, SearchStats};
use crate::refine::{MbrRefiner, Refiner};
use crate::Result;
use nnq_geom::Point;
use nnq_rtree::{NodeView, RTree, TreeAccess};
use nnq_storage::PageId;

/// A nearest-neighbor query engine over an [`RTree`].
///
/// Cheap to construct; borrow one per query batch. See the crate docs for
/// an end-to-end example.
pub struct NnSearch<'t, const D: usize, T: TreeAccess<D> + ?Sized = RTree<D>> {
    tree: &'t T,
    opts: NnOptions,
}

/// Reusable per-query working memory for the branch-and-bound search:
/// one Active Branch List buffer per tree level, the per-node distance
/// and selection scratch, and the bounded candidate heap — and, while a
/// query is under way, its whole traversal state.
///
/// Construct once, pass to [`NnSearch::query_refined_with`] for every
/// query of a batch; after the first few queries the search reaches a
/// steady state with no allocations besides the result vector. A cursor
/// is plain data — independent of any particular tree — but must not be
/// shared across threads concurrently (give each worker its own, as
/// [`crate::par_knn_batch`] does).
pub(crate) struct QueryCursor<const D: usize> {
    heap: KnnHeap<D>,
    /// One ABL per tree depth. `levels[..open]` belong to the internal
    /// nodes on the path from the root to the node being visited, each
    /// still iterating its own list; deeper buffers are spare capacity.
    levels: Vec<Level>,
    /// How many of `levels` are open.
    open: usize,
    /// The node to read next: the root, or the branch last chosen.
    next: Option<PageId>,
    /// Work counters of the query under way.
    stats: SearchStats,
    /// Scratch for the k-th-smallest MINMAXDIST selections (S1/S2).
    minmax: Vec<f64>,
    /// Per-entry MINDIST of the node being visited.
    mindists: Vec<f64>,
    /// Per-entry MINMAXDIST of the internal node being opened.
    minmaxdists: Vec<f64>,
}

/// One open internal node of a traversal.
#[derive(Default)]
struct Level {
    /// The node's sorted ABL.
    abl: Vec<AblEntry>,
    /// Index of the next entry to consider.
    pos: usize,
    /// Strategy 1 bound: k-th smallest MINMAXDIST within this ABL.
    downward_bound: f64,
}

#[derive(Clone, Copy)]
struct AblEntry {
    mindist: f64,
    minmaxdist: f64,
    child: PageId,
}

impl<const D: usize> QueryCursor<D> {
    /// Creates an empty cursor. Buffers grow to fit the first queries and
    /// are retained afterwards.
    pub fn new() -> Self {
        Self {
            heap: KnnHeap::new(1),
            levels: Vec::new(),
            open: 0,
            next: None,
            stats: SearchStats::default(),
            minmax: Vec::new(),
            mindists: Vec::new(),
            minmaxdists: Vec::new(),
        }
    }

    /// Whether no query is under way (none begun, or the last one ran to
    /// its end or failed).
    fn is_idle(&self) -> bool {
        self.next.is_none() && self.open == 0
    }

    /// Starts a k-NN traversal at `root`.
    fn begin(&mut self, k: usize, root: Option<PageId>) {
        assert!(k > 0, "k must be at least 1");
        self.heap.reset(k);
        self.open = 0;
        self.next = root;
        self.stats = SearchStats::default();
    }
}

/// How a traversal treats a node whose page is not loaded.
#[derive(Clone, Copy)]
enum Reads {
    /// Wait for it, every time: the query runs to its end in one call and
    /// issues no hint.
    Blocking,
    /// Hand control back ([`Poll::Waiting`]) with the page queued for a
    /// background read — a *certain* hint: this query visits that page
    /// next. With `wait_first` the first read of the call waits instead,
    /// which is how a caller with nothing else runnable makes progress.
    Suspending { wait_first: bool },
}

/// The outcome of one step of a resumable batch item.
pub(crate) enum Poll<O> {
    /// The item finished.
    Ready(O),
    /// The item stopped in front of a page that is not loaded; `advanced`
    /// tells whether it got anywhere (visited a node) first.
    Waiting { advanced: bool },
}

impl<O> Poll<O> {
    /// The same outcome with a finished item's output passed through `f`.
    pub(crate) fn map<P>(self, f: impl FnOnce(O) -> P) -> Poll<P> {
        match self {
            Poll::Ready(o) => Poll::Ready(f(o)),
            Poll::Waiting { advanced } => Poll::Waiting { advanced },
        }
    }
}

impl<'t, const D: usize, T: TreeAccess<D> + ?Sized> NnSearch<'t, D, T> {
    /// Creates a search engine with the paper's full algorithm
    /// (MINDIST ordering, all pruning strategies on).
    pub fn new(tree: &'t T) -> Self {
        Self {
            tree,
            opts: NnOptions::default(),
        }
    }

    /// Creates a search engine with explicit options.
    pub fn with_options(tree: &'t T, opts: NnOptions) -> Self {
        Self { tree, opts }
    }

    /// The options in effect.
    pub fn options(&self) -> &NnOptions {
        &self.opts
    }

    /// Finds the `k` records nearest to `q`, treating each record's MBR as
    /// the object itself (exact for point and rectangle data).
    pub fn query(&self, q: &Point<D>, k: usize) -> Result<Vec<Neighbor<D>>> {
        self.query_refined(q, k, &MbrRefiner).map(|(n, _)| n)
    }

    /// Like [`NnSearch::query`], also returning per-query work counters.
    pub fn query_with_stats(
        &self,
        q: &Point<D>,
        k: usize,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
        self.query_refined(q, k, &MbrRefiner)
    }

    /// Finds the `k` objects nearest to `q`, using `refiner` for exact
    /// object distances (filter-refine; see [`Refiner`]).
    pub fn query_refined<R: Refiner<D>>(
        &self,
        q: &Point<D>,
        k: usize,
        refiner: &R,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
        let mut cursor = QueryCursor::new();
        self.run(&mut cursor, q, k, refiner, f64::INFINITY, None)
    }

    /// Like [`NnSearch::query_refined`], reusing `cursor`'s buffers — the
    /// batched entry point: one cursor amortizes all per-query scratch
    /// (ABL, selection scratch, candidate heap) across a whole workload.
    pub(crate) fn query_refined_with<R: Refiner<D>>(
        &self,
        cursor: &mut QueryCursor<D>,
        q: &Point<D>,
        k: usize,
        refiner: &R,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
        self.run(cursor, q, k, refiner, f64::INFINITY, None)
    }

    /// Like [`NnSearch::query_refined_with`], but the traversal starts
    /// with an externally supplied upper bound on the k-th nearest
    /// squared distance: branches and objects at `init_bound_sq` or
    /// beyond are pruned upward from the first node on, exactly as if a
    /// candidate at that distance were already in the heap.
    ///
    /// This is the scatter-gather entry point — a partition searched
    /// after its siblings starts pre-pruned by the best k-th distance
    /// they established. An unrelated caller can pass `f64::INFINITY`
    /// (equivalent to [`NnSearch::query_refined_with`]).
    ///
    /// The bound must be a *sound* upper bound on the true k-th distance
    /// (e.g. a k-full heap bound from other partitions); results closer
    /// than the bound are exact. Objects at or beyond it may still
    /// appear in the returned list while the local heap is not yet full
    /// — a gather stage that merges across partitions discards them by
    /// distance, so correctness is unaffected.
    pub(crate) fn query_refined_bounded<R: Refiner<D>>(
        &self,
        cursor: &mut QueryCursor<D>,
        q: &Point<D>,
        k: usize,
        refiner: &R,
        init_bound_sq: f64,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
        self.run(cursor, q, k, refiner, init_bound_sq, None)
    }

    /// Like [`NnSearch::query_refined`], additionally recording a full
    /// decision [`Trace`] of the traversal (see `explain.rs`).
    pub fn query_traced<R: Refiner<D>>(
        &self,
        q: &Point<D>,
        k: usize,
        refiner: &R,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats, Trace)> {
        let mut cursor = QueryCursor::new();
        let mut trace = Trace::default();
        let traced = Some(&mut trace);
        let (found, stats) = self.run(&mut cursor, q, k, refiner, f64::INFINITY, traced)?;
        Ok((found, stats, trace))
    }

    /// One step of the query `(q, k)` as a resumable batch item: begins it
    /// if `cursor` is idle, else continues it where its last step stopped
    /// (the caller passes the same `q`, `k`, `refiner` and `init_bound_sq`
    /// every time), and runs until it ends or reaches a page that is not
    /// loaded ([`Reads::Suspending`]; `wait` makes this step's first read
    /// wait). The finished query's answer is exactly
    /// [`NnSearch::query_refined_bounded`]'s — a single tree passes `+∞`,
    /// a scatter-gather partition its round's bound.
    pub(crate) fn resume<R: Refiner<D>>(
        &self,
        cursor: &mut QueryCursor<D>,
        q: &Point<D>,
        k: usize,
        refiner: &R,
        init_bound_sq: f64,
        wait: bool,
    ) -> Result<Poll<(Vec<Neighbor<D>>, SearchStats)>> {
        if cursor.is_idle() {
            cursor.begin(k, self.tree.access_root());
        }
        let ctx = Ctx {
            tree: self.tree,
            opts: self.opts,
            q: *q,
            refiner,
            cursor,
            trace: None,
            shared_bound_sq: init_bound_sq,
        };
        ctx.advance(Reads::Suspending { wait_first: wait })
    }

    /// A whole query, start to end, waiting for every page.
    fn run<R: Refiner<D>>(
        &self,
        cursor: &mut QueryCursor<D>,
        q: &Point<D>,
        k: usize,
        refiner: &R,
        init_bound_sq: f64,
        trace: Option<&mut Trace>,
    ) -> Result<(Vec<Neighbor<D>>, SearchStats)> {
        cursor.begin(k, self.tree.access_root());
        let ctx = Ctx {
            tree: self.tree,
            opts: self.opts,
            q: *q,
            refiner,
            cursor,
            trace,
            shared_bound_sq: init_bound_sq,
        };
        match ctx.advance(Reads::Blocking)? {
            Poll::Ready(answer) => Ok(answer),
            Poll::Waiting { .. } => unreachable!("a blocking traversal never suspends"),
        }
    }
}

struct Ctx<'t, 'r, const D: usize, T: ?Sized, R> {
    tree: &'t T,
    opts: NnOptions,
    q: Point<D>,
    refiner: &'r R,
    cursor: &'r mut QueryCursor<D>,
    trace: Option<&'r mut Trace>,
    /// Externally supplied upper bound on the k-th nearest squared
    /// distance (`+∞` outside scatter-gather): upward pruning compares
    /// against the tighter of this and the local heap's bound. Fixed for
    /// the duration of one traversal — the scatter protocol refreshes it
    /// only between partition rounds, which is what keeps page-access
    /// counts independent of scheduling (see `scatter.rs`).
    shared_bound_sq: f64,
}

/// k-th smallest value of `values` (`+∞` when fewer than k values).
fn kth_smallest(values: &mut [f64], k: usize) -> f64 {
    if values.len() < k {
        return f64::INFINITY;
    }
    let (_, kth, _) = values.select_nth_unstable_by(k - 1, f64::total_cmp);
    *kth
}

/// Strategy 1: a branch whose MINDIST exceeds the node's bound cannot hold
/// one of the k nearest (a NaN MINDIST is never pruned).
fn prunes_downward(mindist: f64, downward_bound: f64) -> bool {
    mindist > downward_bound
}

impl<const D: usize, T: TreeAccess<D> + ?Sized, R: Refiner<D>> Ctx<'_, '_, D, T, R> {
    /// Advances the traversal in the cursor under `reads`, to its answer
    /// or to the next page that is not loaded; an error ends it.
    fn advance(mut self, reads: Reads) -> Result<Poll<(Vec<Neighbor<D>>, SearchStats)>> {
        match self.traverse(reads) {
            Ok(poll) => Ok(poll.map(|()| (self.cursor.heap.drain_sorted(), self.cursor.stats))),
            Err(e) => {
                // Leave the cursor idle: its next use begins a new query.
                self.cursor.open = 0;
                self.cursor.next = None;
                Err(e)
            }
        }
    }

    /// The traversal loop: read the pending node and open it, then take
    /// the next surviving branch of the deepest open ABL as the new
    /// pending node, until no ABL is open (`Ready`) or the pending node's
    /// page is not loaded and `reads` says not to wait (`Waiting`, with
    /// the node still pending).
    fn traverse(&mut self, reads: Reads) -> Result<Poll<()>> {
        let mut wait = !matches!(reads, Reads::Suspending { wait_first: false });
        let mut advanced = false;
        loop {
            if let Some(page) = self.cursor.next {
                let node = if wait {
                    self.tree.access_node(page)?
                } else {
                    match self.tree.try_access_node(page)? {
                        Some(node) => node,
                        None => return Ok(Poll::Waiting { advanced }),
                    }
                };
                wait = matches!(reads, Reads::Blocking);
                advanced = true;
                self.cursor.next = None;
                self.enter(page, &node);
            }
            match self.next_branch() {
                Some(child) => self.cursor.next = Some(child),
                None => return Ok(Poll::Ready(())),
            }
        }
    }

    fn enter(&mut self, page: PageId, node: &NodeView<D>) {
        self.cursor.stats.nodes_visited += 1;
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.events.push(TraceEvent::EnterNode {
                page,
                level: node.level(),
                bound_sq: self.cursor.heap.bound_sq(),
            });
        }
        if node.is_leaf() {
            self.visit_leaf(node);
        } else {
            self.open_internal(node);
        }
    }

    /// The child to descend into next: the first entry at or past the
    /// position of the deepest open ABL that survives strategies 1 and 3,
    /// closing every ABL that runs out on the way. `None` once the root's
    /// list is exhausted (or the tree is empty): the traversal is over.
    fn next_branch(&mut self) -> Option<PageId> {
        while self.cursor.open > 0 {
            let level = &mut self.cursor.levels[self.cursor.open - 1];
            let Some(&a) = level.abl.get(level.pos) else {
                self.cursor.open -= 1;
                continue;
            };
            level.pos += 1;
            if self.opts.prune_downward && prunes_downward(a.mindist, level.downward_bound) {
                self.cursor.stats.pruned_downward += 1;
                self.trace_branch(a, Decision::PrunedDownward);
                continue;
            }
            // Strategy 3, consulted immediately before each descent — this
            // covers both the initial prune and the re-prune after control
            // returns from earlier siblings (the heap bound only shrinks).
            if self.opts.prune_upward && a.mindist >= self.pruning_bound_sq() {
                self.cursor.stats.pruned_upward += 1;
                self.trace_branch(a, Decision::PrunedUpward);
                continue;
            }
            self.trace_branch(a, Decision::Visited);
            return Some(a.child);
        }
        None
    }

    fn visit_leaf(&mut self, node: &NodeView<D>) {
        self.cursor.stats.leaves_visited += 1;
        let (q, kernel) = (self.q, self.opts.kernel);
        // The per-entry MINDISTs the object loop below reads.
        kernel.mindists(&q, node, &mut self.cursor.mindists);
        // Strategy 2 bound: the k-th smallest MINMAXDIST among this leaf's
        // entries guarantees k objects within that distance.
        let object_bound = if self.opts.prune_object {
            let k = self.cursor.heap.k();
            let cursor = &mut *self.cursor;
            kernel.minmaxdists(&q, node, &mut cursor.minmax);
            kth_smallest(&mut cursor.minmax, k)
        } else {
            f64::INFINITY
        };
        for (j, e) in node.entries().iter().enumerate() {
            let filter = self.cursor.mindists[j];
            if self.opts.prune_object && filter > object_bound {
                self.cursor.stats.pruned_object += 1;
                self.trace_object(e.record(), filter, None, Decision::PrunedObject, false);
                continue;
            }
            if self.opts.prune_upward && filter >= self.pruning_bound_sq() {
                self.cursor.stats.pruned_upward += 1;
                self.trace_object(e.record(), filter, None, Decision::PrunedUpward, false);
                continue;
            }
            let exact = self.refiner.dist_sq(e.record(), &e.mbr, &self.q);
            debug_assert!(
                exact + 1e-9 >= filter,
                "refiner returned a distance below the MBR filter bound"
            );
            self.cursor.stats.dist_computations += 1;
            let accepted = self.cursor.heap.offer(e.record(), e.mbr, exact);
            self.trace_object(e.record(), filter, Some(exact), Decision::Visited, accepted);
        }
    }

    /// The strategy-3 comparison bound: the k-th candidate's squared
    /// distance — or the externally supplied shared bound if tighter —
    /// shrunk by (1+ε)² for approximate queries (a branch whose MINDIST
    /// is within ε of the candidate bound may be skipped).
    fn pruning_bound_sq(&self) -> f64 {
        let bound = self.cursor.heap.bound_sq().min(self.shared_bound_sq);
        if self.opts.epsilon > 0.0 {
            let f = 1.0 + self.opts.epsilon;
            bound / (f * f)
        } else {
            bound
        }
    }

    fn trace_object(
        &mut self,
        record: nnq_rtree::RecordId,
        filter_sq: f64,
        exact_sq: Option<f64>,
        decision: Decision,
        accepted: bool,
    ) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.events.push(TraceEvent::Object {
                record,
                filter_sq,
                exact_sq,
                decision,
                accepted,
            });
        }
    }

    fn trace_branch(&mut self, a: AblEntry, decision: Decision) {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.events.push(TraceEvent::Branch {
                child: a.child,
                mindist_sq: a.mindist,
                minmaxdist_sq: a.minmaxdist,
                decision,
            });
        }
    }

    /// Opens the internal `node`: builds its sorted ABL and strategy-1
    /// bound in the next free level of the cursor.
    fn open_internal(&mut self, node: &NodeView<D>) {
        // Take this depth's reusable ABL buffer out of the cursor (the
        // kernels below borrow the cursor's scratch) and put it back, with
        // its capacity, once built.
        let depth = self.cursor.open;
        if self.cursor.levels.len() <= depth {
            self.cursor.levels.push(Level::default());
        }
        let mut abl = std::mem::take(&mut self.cursor.levels[depth].abl);
        abl.clear();

        // Generate the Active Branch List. Both kernel modes produce the
        // same bits per entry (see `nnq_geom`'s kernel contract), so the
        // stable sort below and every pruning comparison behave
        // identically.
        let (q, kernel) = (self.q, self.opts.kernel);
        let cursor = &mut *self.cursor;
        kernel.mindists(&q, node, &mut cursor.mindists);
        kernel.minmaxdists(&q, node, &mut cursor.minmaxdists);
        abl.extend(node.entries().iter().enumerate().map(|(j, e)| AblEntry {
            mindist: cursor.mindists[j],
            minmaxdist: cursor.minmaxdists[j],
            child: e.child(),
        }));
        self.cursor.stats.abl_entries += abl.len() as u64;

        // Strategy 1 bound: k-th smallest MINMAXDIST within this ABL.
        let downward_bound = if self.opts.prune_downward {
            let k = self.cursor.heap.k();
            let minmax = &mut self.cursor.minmax;
            minmax.clear();
            minmax.extend(abl.iter().map(|a| a.minmaxdist));
            kth_smallest(minmax, k)
        } else {
            f64::INFINITY
        };

        // Strategy 1 rejects an entry whatever its place in the list, so
        // the entries it prunes are counted here and leave the list before
        // the sort; `next_branch` walks only the survivors. A recorded
        // trace keeps them, since their events are what `explain` prints.
        if self.trace.is_none() && self.opts.prune_downward {
            let before = abl.len();
            abl.retain(|a| !prunes_downward(a.mindist, downward_bound));
            self.cursor.stats.pruned_downward += (before - abl.len()) as u64;
        }

        // Sort by the configured metric (the paper's E2 comparison). The
        // sort stays *stable* so sibling order under tied keys — and with
        // it the traversal's page-access sequence — is unchanged from the
        // pre-cursor implementation (a stable sort of the survivors is
        // the survivors' subsequence of the whole list's stable sort).
        match self.opts.ordering {
            AblOrdering::MinDist => {
                abl.sort_by(|a, b| a.mindist.total_cmp(&b.mindist));
            }
            AblOrdering::MinMaxDist => {
                abl.sort_by(|a, b| a.minmaxdist.total_cmp(&b.minmaxdist));
            }
        }

        self.cursor.levels[depth] = Level {
            abl,
            pos: 0,
            downward_bound,
        };
        self.cursor.open = depth + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stalling::Stalling;
    use nnq_geom::Rect;
    use nnq_rtree::{RTreeConfig, RecordId};
    use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
    use std::sync::Arc;

    fn grid_tree(n_side: u64, fanout: usize) -> RTree<2> {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 4096));
        let tree = RTree::<2>::create(pool, RTreeConfig::for_testing(fanout)).unwrap();
        for x in 0..n_side {
            for y in 0..n_side {
                let p = Point::new([x as f64, y as f64]);
                tree.insert(&Rect::from_point(p), RecordId(x * n_side + y))
                    .unwrap();
            }
        }
        tree
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 16));
        let tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
        let nn = NnSearch::new(&tree);
        assert!(nn.query(&Point::new([0.0, 0.0]), 5).unwrap().is_empty());
    }

    #[test]
    fn k_larger_than_dataset_returns_everything_sorted() {
        let tree = grid_tree(3, 4); // 9 points
        let nn = NnSearch::new(&tree);
        let out = nn.query(&Point::new([0.0, 0.0]), 100).unwrap();
        assert_eq!(out.len(), 9);
        for w in out.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
        }
    }

    #[test]
    fn exact_nearest_on_grid() {
        let tree = grid_tree(20, 6);
        let nn = NnSearch::new(&tree);
        let out = nn.query(&Point::new([7.3, 11.8]), 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].record, RecordId(7 * 20 + 12));
        let expected = 0.3f64 * 0.3 + 0.2 * 0.2;
        assert!((out[0].dist_sq - expected).abs() < 1e-9);
    }

    #[test]
    fn query_at_a_data_point_returns_it_first() {
        let tree = grid_tree(10, 5);
        let nn = NnSearch::new(&tree);
        let out = nn.query(&Point::new([4.0, 4.0]), 3).unwrap();
        assert_eq!(out[0].record, RecordId(44));
        assert_eq!(out[0].dist_sq, 0.0);
        assert_eq!(out[1].dist_sq, 1.0);
        assert_eq!(out[2].dist_sq, 1.0);
    }

    #[test]
    fn all_option_combinations_agree() {
        let tree = grid_tree(16, 5);
        let q = Point::new([3.7, 12.2]);
        let reference = NnSearch::with_options(&tree, NnOptions::no_pruning())
            .query(&q, 7)
            .unwrap();
        for ordering in [AblOrdering::MinDist, AblOrdering::MinMaxDist] {
            for s1 in [false, true] {
                for s2 in [false, true] {
                    for s3 in [false, true] {
                        let opts = NnOptions {
                            ordering,
                            prune_downward: s1,
                            prune_object: s2,
                            prune_upward: s3,
                            ..NnOptions::default()
                        };
                        let got = NnSearch::with_options(&tree, opts).query(&q, 7).unwrap();
                        let gd: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
                        let rd: Vec<f64> = reference.iter().map(|n| n.dist_sq).collect();
                        assert_eq!(gd, rd, "options {opts:?} changed the result");
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_reduces_nodes_visited() {
        let tree = grid_tree(32, 6); // 1024 points, deep tree
        let q = Point::new([10.1, 20.3]);
        let (_, none) = NnSearch::with_options(&tree, NnOptions::no_pruning())
            .query_with_stats(&q, 4)
            .unwrap();
        let (_, full) = NnSearch::new(&tree).query_with_stats(&q, 4).unwrap();
        assert!(
            full.nodes_visited * 4 < none.nodes_visited,
            "pruned {} vs unpruned {}",
            full.nodes_visited,
            none.nodes_visited
        );
        assert!(full.pruned_total() > 0);
        // Unpruned traversal visits the whole tree.
        let total_nodes = tree.stats().unwrap().nodes;
        assert_eq!(none.nodes_visited, total_nodes);
    }

    #[test]
    fn stats_count_distance_computations() {
        let tree = grid_tree(8, 4);
        let (out, stats) = NnSearch::new(&tree)
            .query_with_stats(&Point::new([4.0, 4.0]), 2)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(stats.dist_computations >= 2);
        assert!(stats.nodes_visited >= stats.leaves_visited);
        assert!(stats.leaves_visited >= 1);
    }

    #[test]
    fn refined_query_ranks_by_exact_distance() {
        // Two horizontal segments; the query is closer to segment 1's MBR
        // but closer to segment 0's geometry.
        use nnq_geom::Segment;
        let segments = [
            Segment::new(Point::new([0.0, 1.0]), Point::new([10.0, 1.0])),
            Segment::new(Point::new([4.0, -10.0]), Point::new([6.0, 10.0])),
        ];
        let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 64));
        let tree = RTree::<2>::create(pool, RTreeConfig::default()).unwrap();
        for (i, s) in segments.iter().enumerate() {
            tree.insert(&s.mbr(), RecordId(i as u64)).unwrap();
        }
        let refiner = crate::FnRefiner::new(|rid: RecordId, _: &Rect<2>, q: &Point<2>| {
            segments[rid.0 as usize].dist_sq_to_point(q)
        });
        let q = Point::new([1.0, 0.0]);
        let (out, _) = NnSearch::new(&tree).query_refined(&q, 2, &refiner).unwrap();
        // The query sits inside segment 1's (large) MBR but its exact
        // geometric distance to segment 0 is smaller: refinement must rank
        // by exact distance, not by MBR distance.
        assert_eq!(out[0].record, RecordId(0));
        assert_eq!(out[0].dist_sq, 1.0);
        assert_eq!(out[1].record, RecordId(1));
        assert_eq!(out[1].dist_sq, segments[1].dist_sq_to_point(&q));
        assert!(out[1].dist_sq > out[0].dist_sq);
    }

    #[test]
    fn cursor_reuse_matches_one_shot_queries() {
        let tree = grid_tree(24, 5);
        let nn = NnSearch::new(&tree);
        let mut cursor = QueryCursor::new();
        for (i, k) in [(0u64, 1usize), (7, 4), (13, 9), (200, 2), (555, 4)] {
            let q = Point::new([(i % 24) as f64 + 0.4, (i / 24) as f64 + 0.1]);
            let (with_cursor, cs) = nn
                .query_refined_with(&mut cursor, &q, k, &MbrRefiner)
                .unwrap();
            let (one_shot, os) = nn.query_refined(&q, k, &MbrRefiner).unwrap();
            assert_eq!(
                with_cursor.iter().map(|n| n.record).collect::<Vec<_>>(),
                one_shot.iter().map(|n| n.record).collect::<Vec<_>>()
            );
            assert_eq!(cs, os, "cursor reuse changed the traversal stats");
        }
    }

    fn same_answer(a: &(Vec<Neighbor<2>>, SearchStats), b: &(Vec<Neighbor<2>>, SearchStats)) {
        assert_eq!(a.1, b.1, "search stats differ");
        assert_eq!(a.0.len(), b.0.len());
        for (x, y) in a.0.iter().zip(&b.0) {
            assert_eq!(x.record, y.record);
            assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits());
        }
    }

    #[test]
    fn a_query_suspended_in_front_of_every_node_computes_the_same_answer() {
        let tree = grid_tree(24, 5);
        let q = Point::new([7.3, 15.9]);
        let want = NnSearch::new(&tree)
            .query_refined(&q, 6, &MbrRefiner)
            .unwrap();
        for stalls in [0, 1, 3] {
            let stalling = Stalling::new(&tree, stalls);
            let search = NnSearch::new(&stalling);
            let mut cursor = QueryCursor::new();
            let (mut steps, mut idle_steps) = (0, 0);
            let got = loop {
                steps += 1;
                match search
                    .resume(&mut cursor, &q, 6, &MbrRefiner, f64::INFINITY, false)
                    .unwrap()
                {
                    Poll::Ready(answer) => break answer,
                    Poll::Waiting { advanced } => idle_steps += usize::from(!advanced),
                }
            };
            same_answer(&got, &want);
            let nodes = want.1.nodes_visited as usize;
            assert_eq!(
                stalling.handed_out.get(),
                nodes,
                "one read per visited node"
            );
            assert_eq!(stalling.not_yets.get(), stalls * nodes);
            // Every "not yet" ends a step; only the first of a run of them
            // follows a node visit.
            assert_eq!(steps, stalls * nodes + 1);
            assert_eq!(
                idle_steps,
                stalls.saturating_sub(1) * nodes + usize::from(stalls > 0)
            );
            assert!(cursor.is_idle(), "a finished query leaves the cursor idle");
        }
    }

    #[test]
    fn a_waiting_step_blocks_on_its_first_read_only() {
        // Nothing ever loads in the background: only the waiting steps'
        // blocking reads move the query, one node each.
        let tree = grid_tree(16, 5);
        let q = Point::new([3.2, 9.9]);
        let want = NnSearch::new(&tree)
            .query_refined(&q, 4, &MbrRefiner)
            .unwrap();
        let stalling = Stalling::new(&tree, usize::MAX);
        let search = NnSearch::new(&stalling);
        let mut cursor = QueryCursor::new();
        assert!(matches!(
            search
                .resume(&mut cursor, &q, 4, &MbrRefiner, f64::INFINITY, false)
                .unwrap(),
            Poll::Waiting { advanced: false }
        ));
        let mut waits = 0;
        let got = loop {
            waits += 1;
            match search
                .resume(&mut cursor, &q, 4, &MbrRefiner, f64::INFINITY, true)
                .unwrap()
            {
                Poll::Ready(answer) => break answer,
                Poll::Waiting { advanced } => assert!(advanced),
            }
        };
        same_answer(&got, &want);
        assert_eq!(waits, want.1.nodes_visited);
    }

    #[test]
    fn interleaved_queries_on_their_own_cursors_do_not_disturb_each_other() {
        let tree = grid_tree(24, 5);
        let queries: Vec<(Point<2>, usize)> = (0..6)
            .map(|i| {
                (
                    Point::new([i as f64 * 3.7 + 0.2, 22.0 - i as f64 * 3.1]),
                    1 + i,
                )
            })
            .collect();
        let plain = NnSearch::new(&tree);
        let stalling = Stalling::new(&tree, 1);
        let search = NnSearch::new(&stalling);
        let mut cursors: Vec<QueryCursor<2>> = queries.iter().map(|_| QueryCursor::new()).collect();
        let mut answers: Vec<Option<(Vec<Neighbor<2>>, SearchStats)>> = vec![None; queries.len()];
        // Round-robin, one step each, until all are done.
        while answers.iter().any(Option::is_none) {
            for (i, (q, k)) in queries.iter().enumerate() {
                if answers[i].is_none() {
                    if let Poll::Ready(answer) = search
                        .resume(&mut cursors[i], q, *k, &MbrRefiner, f64::INFINITY, false)
                        .unwrap()
                    {
                        answers[i] = Some(answer);
                    }
                }
            }
        }
        for ((q, k), got) in queries.iter().zip(&answers) {
            same_answer(
                got.as_ref().unwrap(),
                &plain.query_refined(q, *k, &MbrRefiner).unwrap(),
            );
        }
        // A cursor that finished one query begins the next from scratch.
        let (q, k) = queries[4];
        let again = loop {
            if let Poll::Ready(answer) = search
                .resume(&mut cursors[0], &q, k, &MbrRefiner, f64::INFINITY, false)
                .unwrap()
            {
                break answer;
            }
        };
        same_answer(&again, answers[4].as_ref().unwrap());
    }

    #[test]
    fn a_failed_read_ends_the_query_and_leaves_the_cursor_reusable() {
        let tree = grid_tree(16, 5);
        let q = Point::new([8.1, 8.4]);
        let mut failing = Stalling::new(&tree, 1);
        failing.fail_after = 2;
        let mut cursor = QueryCursor::new();
        let search = NnSearch::new(&failing);
        let err = loop {
            match search.resume(&mut cursor, &q, 3, &MbrRefiner, f64::INFINITY, false) {
                Ok(Poll::Ready(_)) => panic!("the third read fails"),
                Ok(Poll::Waiting { .. }) => {}
                Err(e) => break e,
            }
        };
        assert!(matches!(err, nnq_rtree::RTreeError::NotFound));
        assert!(cursor.is_idle());
        assert!(NnSearch::new(&failing)
            .query_refined_with(&mut cursor, &q, 3, &MbrRefiner)
            .is_err());
        // The same cursor, on a tree that works, answers a whole query.
        let got = NnSearch::new(&tree)
            .query_refined_with(&mut cursor, &q, 3, &MbrRefiner)
            .unwrap();
        same_answer(
            &got,
            &NnSearch::new(&tree)
                .query_refined(&q, 3, &MbrRefiner)
                .unwrap(),
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let tree = grid_tree(2, 4);
        let _ = NnSearch::new(&tree).query(&Point::new([0.0, 0.0]), 0);
    }

    #[test]
    fn kth_smallest_helper() {
        let mut v = [5.0, 1.0, 3.0];
        assert_eq!(kth_smallest(&mut v, 1), 1.0);
        let mut v = [5.0, 1.0, 3.0];
        assert_eq!(kth_smallest(&mut v, 2), 3.0);
        let mut v = [5.0, 1.0, 3.0];
        assert_eq!(kth_smallest(&mut v, 3), 5.0);
        let mut v = [5.0, 1.0, 3.0];
        assert_eq!(kth_smallest(&mut v, 4), f64::INFINITY);
        let mut v: [f64; 0] = [];
        assert_eq!(kth_smallest(&mut v, 1), f64::INFINITY);
    }

    /// An untraced traversal drops the entries strategy 1 prunes before it
    /// sorts an ABL; a traced one keeps them, for their events. Both must read
    /// the same nodes and return the same hits (record and distance bits) and
    /// [`SearchStats`], for every query shape and option that reaches
    /// `open_internal`.
    mod traced_agreement {
        use super::*;
        use crate::options::KernelMode;
        use nnq_rtree::MemRTree;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Points and small rectangles on a coarse grid, so that many MINDISTs
        /// and MINMAXDISTs tie, some records lying on top of each other.
        fn items(seed: u64, n: usize) -> Vec<Rect<2>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let lo = [
                        rng.random_range(0..60) as f64,
                        rng.random_range(0..60) as f64,
                    ];
                    let (w, h) = if rng.random_range(0..2) == 0 {
                        (0.0, 0.0)
                    } else {
                        (rng.random_range(0..3) as f64, rng.random_range(0..3) as f64)
                    };
                    Rect::new(Point::new(lo), Point::new([lo[0] + w, lo[1] + h]))
                })
                .collect()
        }

        fn paged(items: &[Rect<2>], config: RTreeConfig) -> RTree<2> {
            let pool = Arc::new(BufferPool::new(Box::new(MemDisk::new(PAGE_SIZE)), 4096));
            let tree = RTree::<2>::create(pool, config).unwrap();
            for (i, r) in items.iter().enumerate() {
                tree.insert(r, RecordId(i as u64)).unwrap();
            }
            tree
        }

        fn mem(items: &[Rect<2>], fanout: usize) -> MemRTree<2> {
            let tree = MemRTree::with_config(RTreeConfig::default(), fanout);
            for (i, r) in items.iter().enumerate() {
                tree.insert(r, RecordId(i as u64)).unwrap();
            }
            tree
        }

        /// Every ordering × kernel × ε, k ∈ {1, 4, 17}: the plain query and
        /// one bounded by a finite k-th distance, each untraced against the
        /// same traversal recording a trace. Returns
        /// how many branches strategy 1 pruned in the plain queries, which must
        /// not be none for the check to mean anything.
        fn check<T: TreeAccess<2> + ?Sized>(tree: &T, seed: u64) -> u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pruned_downward = 0;
            for ordering in [AblOrdering::MinDist, AblOrdering::MinMaxDist] {
                for kernel in [KernelMode::Scalar, KernelMode::Batch] {
                    for epsilon in [0.0, 0.5] {
                        let opts = NnOptions {
                            ordering,
                            kernel,
                            epsilon,
                            ..NnOptions::default()
                        };
                        let nn = NnSearch::with_options(tree, opts);
                        for k in [1, 4, 17] {
                            let q = Point::new([
                                rng.random_range(-5.0..65.0),
                                rng.random_range(-5.0..65.0),
                            ]);
                            let traced = |bound: f64| {
                                let mut trace = Trace::default();
                                let mut cursor = QueryCursor::new();
                                let answer = nn
                                    .run(&mut cursor, &q, k, &MbrRefiner, bound, Some(&mut trace))
                                    .unwrap();
                                assert!(!trace.events.is_empty());
                                answer
                            };

                            let plain = nn.query_refined(&q, k, &MbrRefiner).unwrap();
                            let (hits, stats, _) = nn.query_traced(&q, k, &MbrRefiner).unwrap();
                            same_answer(&plain, &(hits, stats));
                            pruned_downward += plain.1.pruned_downward;

                            let bound = plain.0.last().map_or(f64::INFINITY, |n| n.dist_sq);
                            let mut cursor = QueryCursor::new();
                            let bounded = nn
                                .query_refined_bounded(&mut cursor, &q, k, &MbrRefiner, bound)
                                .unwrap();
                            same_answer(&bounded, &traced(bound));
                        }
                    }
                }
            }
            pruned_downward
        }

        #[test]
        fn on_random_paged_trees() {
            let small = paged(&items(11, 1_500), RTreeConfig::for_testing(6));
            assert!(check(&small, 12) > 0);
            let wide = paged(&items(13, 3_000), RTreeConfig::default());
            assert!(check(&wide, 14) > 0);
        }

        #[test]
        fn on_random_mem_trees() {
            for (seed, fanout) in [(21, 5), (22, 16), (23, 64)] {
                let tree = mem(&items(seed, 2_000), fanout);
                assert!(check(&tree, seed + 100) > 0, "fanout {fanout}");
            }
        }

        #[test]
        fn on_a_suspended_run() {
            let tree = paged(&items(31, 2_000), RTreeConfig::for_testing(8));
            let mut rng = StdRng::seed_from_u64(32);
            for ordering in [AblOrdering::MinDist, AblOrdering::MinMaxDist] {
                for k in [1, 4, 17] {
                    let opts = NnOptions {
                        ordering,
                        ..NnOptions::default()
                    };
                    let q = Point::new([rng.random_range(0.0..60.0), rng.random_range(0.0..60.0)]);
                    let stalling = Stalling::new(&tree, 1);
                    let search = NnSearch::with_options(&stalling, opts);
                    let mut cursor = QueryCursor::new();
                    let suspended = loop {
                        match search
                            .resume(&mut cursor, &q, k, &MbrRefiner, f64::INFINITY, false)
                            .unwrap()
                        {
                            Poll::Ready(answer) => break answer,
                            Poll::Waiting { .. } => {}
                        }
                    };
                    assert!(stalling.not_yets.get() > 0, "the run was suspended");
                    assert!(k == 17 || suspended.1.pruned_downward > 0);
                    let (hits, stats, _) = NnSearch::with_options(&tree, opts)
                        .query_traced(&q, k, &MbrRefiner)
                        .unwrap();
                    same_answer(&suspended, &(hits, stats));
                }
            }
        }
    }
}
