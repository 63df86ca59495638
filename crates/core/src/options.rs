//! Query options, results, and per-query statistics.

use nnq_geom::{
    intersects_batch, mindist_sq, mindist_sq_batch, minmaxdist_sq, minmaxdist_sq_batch, Point, Rect,
};
use nnq_rtree::{NodeView, RecordId};

/// How the Active Branch List is ordered before descending — the paper's
/// central experimental knob (experiment E2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AblOrdering {
    /// Sort child entries by `MINDIST` (optimistic). The paper found this
    /// ordering superior on average, and it is the default.
    #[default]
    MinDist,
    /// Sort child entries by `MINMAXDIST` (pessimistic).
    MinMaxDist,
}

/// Which distance-kernel implementation the traversals use for the
/// per-entry `MINDIST`, `MINMAXDIST` and intersection evaluations.
///
/// The two modes are **bit-identical** per entry (the batch kernels run
/// the same operation sequence over a struct-of-arrays node view — see
/// `nnq_geom::SoaRects`), so traversal order, tie-breaks, results, and
/// every [`SearchStats`] / page-access counter match exactly; only the
/// CPU time differs. `Scalar` is not a user-facing knob: it is the oracle
/// that the kernel-equivalence, kernel-mode and tracing suites compare
/// `Batch` against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Per-entry scalar metric calls over the entry array — the reference
    /// implementation.
    Scalar,
    /// One batched, auto-vectorizable kernel pass per node over the
    /// decoded node's cached SoA view. The default.
    #[default]
    Batch,
}

impl KernelMode {
    /// `MINDIST²` from `q` to every entry of `node`, written into `out`
    /// (cleared and refilled) — the one place a traversal's kernel choice
    /// is made. Both arms give the same bits per entry.
    pub(crate) fn mindists<const D: usize>(
        self,
        q: &Point<D>,
        node: &NodeView<D>,
        out: &mut Vec<f64>,
    ) {
        match self {
            KernelMode::Scalar => {
                out.clear();
                out.extend(node.entries().iter().map(|e| mindist_sq(q, &e.mbr)));
            }
            KernelMode::Batch => mindist_sq_batch(q, node.soa(), out),
        }
    }

    /// [`KernelMode::mindists`] for `MINMAXDIST²`.
    pub(crate) fn minmaxdists<const D: usize>(
        self,
        q: &Point<D>,
        node: &NodeView<D>,
        out: &mut Vec<f64>,
    ) {
        match self {
            KernelMode::Scalar => {
                out.clear();
                out.extend(node.entries().iter().map(|e| minmaxdist_sq(q, &e.mbr)));
            }
            KernelMode::Batch => minmaxdist_sq_batch(q, node.soa(), out),
        }
    }

    /// Whether each entry of `node` intersects `window`, written into
    /// `out` (cleared and refilled).
    pub(crate) fn intersects<const D: usize>(
        self,
        window: &Rect<D>,
        node: &NodeView<D>,
        out: &mut Vec<bool>,
    ) {
        match self {
            KernelMode::Scalar => {
                out.clear();
                out.extend(node.entries().iter().map(|e| e.mbr.intersects(window)));
            }
            KernelMode::Batch => intersects_batch(window, node.soa(), out),
        }
    }
}

/// Whether a batch may hand a cold page to the storage backend's
/// background readers and run another query while it loads.
///
/// The only hint any traversal issues is a *certain* one: the page an
/// interleaved query is suspended on, which that query reads next (see
/// `parallel.rs`). A query run on its own has nothing to overlap a wait
/// with, so it issues none.
///
/// A policy **never** changes results, traversal order, [`SearchStats`],
/// or the pool's `logical_reads` — only wall-clock time under real or
/// injected I/O latency. Prefetch activity is accounted separately
/// (`nnq_storage::PrefetchStats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrefetchPolicy {
    /// Never interleave: every batch runs item by item. The default, and
    /// the oracle the interleaved runs are compared against.
    #[default]
    Off,
    /// Interleave a batch when one of its trees' pools has background
    /// readers (`TreeAccess::prefetch_workers`).
    Adaptive,
}

impl PrefetchPolicy {
    /// Lower-case label for CLI/bench output.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchPolicy::Off => "off",
            PrefetchPolicy::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for PrefetchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for PrefetchPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(PrefetchPolicy::Off),
            "adaptive" => Ok(PrefetchPolicy::Adaptive),
            other => Err(format!(
                "unknown prefetch policy `{other}` (want off or adaptive)"
            )),
        }
    }
}

/// Options controlling the branch-and-bound search.
///
/// The defaults enable everything, matching the paper's full algorithm;
/// individual pruning strategies can be disabled for ablation studies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NnOptions {
    /// Active-branch-list ordering.
    pub ordering: AblOrdering,
    /// Strategy 1 — downward pruning: discard ABL entries whose `MINDIST`
    /// exceeds the k-th smallest `MINMAXDIST` bound discovered so far.
    pub prune_downward: bool,
    /// Strategy 2 — object pruning: skip exact distance computations (and
    /// candidate insertion) for objects whose filter distance exceeds the
    /// `MINMAXDIST` bound.
    pub prune_object: bool,
    /// Strategy 3 — upward pruning: discard ABL entries whose `MINDIST` is
    /// at least the distance to the current k-th nearest candidate.
    pub prune_upward: bool,
    /// Approximation slack ε ≥ 0 (extension; libspatialindex-style
    /// (1+ε)-approximate kNN). Branches are pruned as if they were a
    /// factor (1+ε) closer, so every reported distance is at most (1+ε)
    /// times the true k-th nearest distance. `0.0` (the default) is the
    /// exact algorithm.
    pub epsilon: f64,
    /// Distance-kernel implementation (scalar reference vs batched SoA);
    /// never changes results, only speed.
    pub kernel: KernelMode,
    /// Whether batches interleave (see [`PrefetchPolicy`]); never changes
    /// results or page-access accounting, only wall-clock under latency.
    pub prefetch: PrefetchPolicy,
}

impl Default for NnOptions {
    fn default() -> Self {
        Self {
            ordering: AblOrdering::MinDist,
            prune_downward: true,
            prune_object: true,
            prune_upward: true,
            epsilon: 0.0,
            kernel: KernelMode::default(),
            prefetch: PrefetchPolicy::default(),
        }
    }
}

impl NnOptions {
    /// The paper's full algorithm with the given ordering.
    pub fn with_ordering(ordering: AblOrdering) -> Self {
        Self {
            ordering,
            ..Self::default()
        }
    }

    /// All pruning disabled — exhaustive traversal, the ablation baseline.
    pub fn no_pruning() -> Self {
        Self {
            prune_downward: false,
            prune_object: false,
            prune_upward: false,
            ..Self::default()
        }
    }

    /// The paper's full algorithm with an explicit kernel mode.
    pub fn with_kernel(kernel: KernelMode) -> Self {
        Self {
            kernel,
            ..Self::default()
        }
    }

    /// The paper's full algorithm with an explicit prefetch policy.
    pub fn with_prefetch(prefetch: PrefetchPolicy) -> Self {
        Self {
            prefetch,
            ..Self::default()
        }
    }

    /// The exact algorithm relaxed to (1+ε)-approximate answers.
    ///
    /// # Panics
    /// Panics if `epsilon` is negative or not finite.
    pub fn approximate(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and nonnegative"
        );
        Self {
            epsilon,
            ..Self::default()
        }
    }
}

/// One result of a nearest-neighbor query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor<const D: usize> {
    /// The record found.
    pub record: RecordId,
    /// Its indexed bounding rectangle.
    pub mbr: Rect<D>,
    /// Its exact squared distance from the query point.
    pub dist_sq: f64,
}

impl<const D: usize> Neighbor<D> {
    /// The linear (square-rooted) distance.
    pub fn dist(&self) -> f64 {
        self.dist_sq.sqrt()
    }
}

/// Work counters for a single query.
///
/// `nodes_visited` (and the page counters kept by the buffer pool) are the
/// paper's cost unit; the pruning counters feed the E3 ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes read (internal + leaf).
    pub nodes_visited: u64,
    /// Leaf nodes read.
    pub leaves_visited: u64,
    /// ABL entries generated across all visited internal nodes.
    pub abl_entries: u64,
    /// Entries discarded by downward pruning (strategy 1).
    pub pruned_downward: u64,
    /// Objects skipped by object pruning (strategy 2).
    pub pruned_object: u64,
    /// Entries discarded by upward pruning (strategy 3), whether before
    /// the first descent or when control returned.
    pub pruned_upward: u64,
    /// Exact object distance computations performed.
    pub dist_computations: u64,
}

impl SearchStats {
    /// Total entries discarded by any strategy.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_downward + self.pruned_object + self.pruned_upward
    }

    /// Adds `other` counter-wise — how per-partition traversal stats sum
    /// to one dataset-wide figure in the scatter-gather search.
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.abl_entries += other.abl_entries;
        self.pruned_downward += other.pruned_downward;
        self.pruned_object += other.pruned_object;
        self.pruned_upward += other.pruned_upward;
        self.dist_computations += other.dist_computations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_full_algorithm() {
        let o = NnOptions::default();
        assert_eq!(o.ordering, AblOrdering::MinDist);
        assert!(o.prune_downward && o.prune_object && o.prune_upward);
    }

    #[test]
    fn no_pruning_disables_all() {
        let o = NnOptions::no_pruning();
        assert!(!o.prune_downward && !o.prune_object && !o.prune_upward);
    }

    #[test]
    fn kernel_mode_defaults_to_batch() {
        assert_eq!(NnOptions::default().kernel, KernelMode::Batch);
        assert_eq!(
            NnOptions::with_kernel(KernelMode::Scalar).kernel,
            KernelMode::Scalar
        );
    }

    #[test]
    fn prefetch_policy_parses_and_prints() {
        assert_eq!(
            "off".parse::<PrefetchPolicy>().unwrap(),
            PrefetchPolicy::Off
        );
        assert_eq!(
            "adaptive".parse::<PrefetchPolicy>().unwrap(),
            PrefetchPolicy::Adaptive
        );
        for bad in ["4", "0", "-2", "always"] {
            let err = bad.parse::<PrefetchPolicy>().unwrap_err();
            assert!(err.contains("off or adaptive"), "{err}");
        }
        assert_eq!(PrefetchPolicy::Off.to_string(), "off");
        assert_eq!(PrefetchPolicy::Adaptive.to_string(), "adaptive");
        assert_eq!(NnOptions::default().prefetch, PrefetchPolicy::Off);
        assert_eq!(
            NnOptions::with_prefetch(PrefetchPolicy::Adaptive).prefetch,
            PrefetchPolicy::Adaptive
        );
    }

    #[test]
    fn neighbor_distance_is_sqrt() {
        let n = Neighbor::<2> {
            record: RecordId(1),
            mbr: Rect::from_point(Point::new([0.0, 0.0])),
            dist_sq: 9.0,
        };
        assert_eq!(n.dist(), 3.0);
    }

    #[test]
    fn pruned_total_sums_strategies() {
        let s = SearchStats {
            pruned_downward: 2,
            pruned_object: 3,
            pruned_upward: 5,
            ..SearchStats::default()
        };
        assert_eq!(s.pruned_total(), 10);
    }
}
