//! Online self-tuning of backend performance knobs.
//!
//! PRs 1–6 grew a stack of runtime knobs — prefetch depth and worker
//! count, decoded-node cache capacity, work-stealing claim-block size,
//! per-partition cache budgets — that were all hand-set constants. This
//! module closes the feedback loop: a [`TuneController`] samples the
//! counters the system already maintains ([`BackendSignals`]: pool
//! hit/miss rates, prefetch useful/wasted classification, node-cache
//! hit/eviction rates; [`BatchStats`]: work-steal imbalance) at
//! query-batch granularity, smooths them with an EWMA, and retunes the
//! knobs between batches.
//!
//! # Accounting neutrality
//!
//! The controller may only touch knobs that are individually proven not
//! to change results, `logical_reads` (the paper's "pages accessed"), or
//! any [`SearchStats`](crate::SearchStats) counter:
//!
//! * **prefetch depth** — hints are advisory and accounted outside
//!   `PoolStats` (PR 4's contract);
//! * **prefetch workers** — workers only serve hints;
//! * **node-cache capacity** — `PagedStore::read` fetches the page
//!   *before* probing the cache, so page accounting never depends on
//!   cache contents (PR 1's contract, preserved by the in-place CLOCK
//!   ring resize);
//! * **claim-block size** — every query is computed independently and
//!   results are reassembled in submission order (PR 3's contract);
//! * **per-partition cache budget** — a vector of node-cache capacities.
//!
//! Because every knob is individually neutral, any schedule of
//! adjustments — including mid-run — leaves results and accounting
//! bit-identical to a run with tuning off. `tests/tests/tuning.rs` pins
//! exactly this.
//!
//! # Signals → knobs
//!
//! | signal (EWMA over batch deltas)       | knob                     |
//! |---------------------------------------|--------------------------|
//! | device reads per logical read         | prefetch depth (ladder)  |
//! | prefetch wasted rate                  | prefetch depth (back-off)|
//! | prefetch depth                        | worker count             |
//! | node-cache hit rate + evictions       | cache capacity (grow)    |
//! | node-cache hit rate + occupancy       | cache capacity (shrink)  |
//! | work-steal imbalance                  | claim-block size         |
//! | per-partition miss rates              | cache budget shares      |
//! | result-cache hit rate + evictions     | result capacity (grow)   |
//! | result-cache hit rate + occupancy     | result capacity (shrink) |

use crate::options::{PrefetchPolicy, TuneMode};
use crate::parallel::BatchStats;
use crate::result_cache::ResultCache;
use nnq_rtree::{rebalance_cache_budget, BackendSignals, TreeAccess};
use nnq_storage::CacheStats;

/// Hard bounds the controller keeps every knob inside.
#[derive(Clone, Copy, Debug)]
pub struct TuneBounds {
    /// Largest prefetch-hint depth (the bench sweeps found diminishing
    /// returns past 8; 16 leaves headroom).
    pub max_depth: usize,
    /// Most prefetch workers to keep active (clamped further by how many
    /// threads the pool actually spawned).
    pub max_workers: usize,
    /// Smallest decoded-node cache capacity (also the per-partition
    /// budget floor); never tune the cache away entirely.
    pub min_cache: usize,
    /// Largest decoded-node cache capacity (per partition, for
    /// partitioned trees).
    pub max_cache: usize,
    /// Smallest result-cache capacity the controller will shrink to
    /// (when a result cache is observed at all; a disabled cache —
    /// capacity 0 — is never tuned on).
    pub min_results: usize,
    /// Largest result-cache capacity the controller will grow to.
    pub max_results: usize,
}

impl Default for TuneBounds {
    fn default() -> Self {
        Self {
            max_depth: 16,
            max_workers: 4,
            min_cache: 64,
            max_cache: 8192,
            min_results: 256,
            max_results: 65536,
        }
    }
}

/// The knob settings a [`TuneController`] currently recommends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnobSettings {
    /// Prefetch-hint depth for the next batch (0 = no hints). Callers
    /// apply it via [`TuneController::prefetch_policy`].
    pub prefetch_depth: usize,
    /// Active prefetch workers (applied through
    /// `TreeAccess::set_prefetch_workers`).
    pub prefetch_workers: usize,
    /// Decoded-node cache capacity, per tree (applied through
    /// `TreeAccess::set_cache_capacity`; partitioned trees spread
    /// `capacity × partitions` by miss rate).
    pub cache_capacity: usize,
    /// Claim-block override for the work-stealing executor (`None` =
    /// the static heuristic).
    pub block_override: Option<usize>,
    /// Result-cache capacity (complete memoized answers, applied through
    /// [`ResultCache::resize`]). Adopted from the observed cache on first
    /// sighting so a `--result-cache N` choice is the starting point, not
    /// overridden.
    pub result_capacity: usize,
}

/// Online controller retuning backend knobs from their own counters.
///
/// Drive it at batch granularity: run a batch, then call
/// [`TuneController::observe_batch`] with the executor's stats and
/// [`TuneController::observe_trees`] with the trees — the latter samples
/// counters, updates the EWMAs, picks new knob values, and applies them
/// to the backend. Build the next batch's options with
/// [`TuneController::prefetch_policy`] and
/// [`TuneController::block_override`].
///
/// In [`TuneMode::Off`] every method is a no-op, so callers can keep one
/// unconditional code path.
#[derive(Debug)]
pub struct TuneController {
    mode: TuneMode,
    bounds: TuneBounds,
    /// EWMA smoothing factor for batch-delta rates: the weight of the
    /// newest batch. 0.5 reacts within ~2 batches of a workload shift
    /// while still riding out single-batch noise.
    alpha: f64,
    miss: Option<f64>,
    cache_hit: Option<f64>,
    wasted: Option<f64>,
    imbalance: Option<f64>,
    /// Counter snapshot at the previous observation (deltas are computed
    /// against it).
    last: Option<BackendSignals>,
    /// Result-cache counter snapshot at the previous
    /// [`TuneController::observe_result_cache`]. A separate delta stream
    /// from `last`: the result cache sits above the tree, and mixing its
    /// counters into the pool-delta stream would corrupt both.
    last_results: Option<CacheStats>,
    /// EWMA of the result-cache hit rate (hits / all probes, stale
    /// counted as non-hits).
    result_hit: Option<f64>,
    knobs: KnobSettings,
    adjustments: u64,
    samples: u64,
}

impl TuneController {
    /// A controller with default bounds. Initial knobs mirror the
    /// hand-set defaults the system ships with: cold-start prefetch
    /// depth, one worker per two depth steps, the `PagedStore` default
    /// cache capacity, heuristic block size.
    pub fn new(mode: TuneMode) -> Self {
        Self::with_bounds(mode, TuneBounds::default())
    }

    /// A controller with explicit knob bounds.
    pub fn with_bounds(mode: TuneMode, bounds: TuneBounds) -> Self {
        Self {
            mode,
            bounds,
            alpha: 0.5,
            miss: None,
            cache_hit: None,
            wasted: None,
            imbalance: None,
            last: None,
            last_results: None,
            result_hit: None,
            knobs: KnobSettings {
                prefetch_depth: PrefetchPolicy::COLD_START_DEPTH,
                prefetch_workers: 2,
                // `PagedStore::DEFAULT_CACHE_CAPACITY`, inside the bounds:
                // the sizing rule only moves a capacity with its signal.
                cache_capacity: 1024.min(bounds.max_cache).max(bounds.min_cache),
                block_override: None,
                // The serve layer's default; replaced by the observed
                // cache's actual capacity on first sighting.
                result_capacity: 1024,
            },
            adjustments: 0,
            samples: 0,
        }
    }

    /// The controller's mode.
    pub fn mode(&self) -> TuneMode {
        self.mode
    }

    /// Whether the controller is actively tuning.
    pub fn is_active(&self) -> bool {
        self.mode == TuneMode::Adaptive
    }

    /// Current knob recommendations.
    pub fn settings(&self) -> KnobSettings {
        self.knobs
    }

    /// How many observations changed at least one knob.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// How many observations the controller has consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The prefetch policy encoding the current depth knob — what callers
    /// put into `NnOptions.prefetch` for the next batch. Off-mode
    /// controllers return `None` (keep whatever the caller configured).
    pub fn prefetch_policy(&self) -> Option<PrefetchPolicy> {
        if !self.is_active() {
            return None;
        }
        Some(match self.knobs.prefetch_depth {
            0 => PrefetchPolicy::Off,
            n => PrefetchPolicy::Depth(n),
        })
    }

    /// The claim-block override for the next batch (`None` in off mode or
    /// when the heuristic is fine).
    pub fn block_override(&self) -> Option<usize> {
        if !self.is_active() {
            return None;
        }
        self.knobs.block_override
    }

    /// One-line report of the final knob state for CLI/bench stats lines.
    pub fn report(&self) -> String {
        let block = match self.knobs.block_override {
            Some(b) => b.to_string(),
            None => "auto".to_string(),
        };
        format!(
            "depth={} workers={} cache={} results={} block={} adjustments={} samples={}",
            self.knobs.prefetch_depth,
            self.knobs.prefetch_workers,
            self.knobs.cache_capacity,
            self.knobs.result_capacity,
            block,
            self.adjustments,
            self.samples,
        )
    }

    /// Feeds one batch's scheduling telemetry into the imbalance EWMA and
    /// retunes the claim-block knob. No-op in off mode or for sequential
    /// batches (one worker has no imbalance to measure).
    pub fn observe_batch(&mut self, stats: &BatchStats) {
        if !self.is_active() || stats.threads <= 1 || stats.per_worker_queries.is_empty() {
            return;
        }
        let total: usize = stats.per_worker_queries.iter().sum();
        if total == 0 {
            return;
        }
        let mean = total as f64 / stats.per_worker_queries.len() as f64;
        let max = *stats.per_worker_queries.iter().max().expect("non-empty") as f64;
        let imbalance = max / mean.max(1.0);
        self.imbalance = Some(ewma(self.imbalance, imbalance, self.alpha));

        // Heavy imbalance means some worker sat on an expensive claim
        // while others idled: shrink claims to single queries so stealing
        // is as fine-grained as possible. Near-even split: let the static
        // heuristic amortize the cursor.
        let new_block = if self.imbalance.expect("just set") > 1.5 {
            Some(1)
        } else {
            None
        };
        if new_block != self.knobs.block_override {
            self.knobs.block_override = new_block;
            self.adjustments += 1;
        }
    }

    /// Samples the backend counters of a forest's trees (one tree, or a
    /// partitioned tree's partitions), updates the EWMAs, picks new knob
    /// values, and applies them through [`TreeAccess`]: the worker knob
    /// to every tree's prefetcher, and the cache knob as a budget of
    /// `cache_capacity × trees` nodes redistributed toward the
    /// worst-missing trees ([`rebalance_cache_budget`], floored at
    /// `min_cache` per tree; one tree gets `cache_capacity`). The EWMAs
    /// run on the summed counters, the cache gauges normalized back to a
    /// per-tree figure so the ladder thresholds keep meaning. Call between
    /// batches. No-op in off mode.
    pub fn observe_trees<const D: usize, T: TreeAccess<D>>(&mut self, trees: &[T]) {
        if !self.is_active() {
            return;
        }
        let mut agg = BackendSignals::default();
        for tree in trees {
            agg.accumulate(&tree.backend_signals());
        }
        let p = trees.len().max(1);
        agg.cache_len /= p;
        agg.cache_capacity /= p;
        if self.step(agg) {
            rebalance_cache_budget(trees, self.knobs.cache_capacity * p, self.bounds.min_cache);
            for tree in trees {
                tree.set_prefetch_workers(self.knobs.prefetch_workers);
            }
        }
    }

    /// Samples a [`ResultCache`]'s counters, updates the result-hit EWMA,
    /// and grows/shrinks the cache through [`ResultCache::resize`] by the
    /// sizing rule the decoded-node cache knob uses. Runs on its own delta
    /// stream, so interleaving it with [`TuneController::observe_trees`]
    /// never corrupts the pool-counter deltas.
    ///
    /// A disabled cache (capacity 0, the `--result-cache off` escape
    /// hatch) is left alone: off means off.
    ///
    /// Accounting-neutral like every other knob: resizing changes which
    /// future answers are *memoized*, never what any executed query reads,
    /// and a hit replays the stats its original execution recorded.
    pub fn observe_result_cache<const D: usize>(&mut self, cache: &ResultCache<D>) {
        if !self.is_active() || !cache.is_enabled() {
            return;
        }
        let now = cache.stats();
        let Some(last) = self.last_results.replace(now) else {
            // First sighting: adopt the configured capacity as the knob's
            // starting point.
            self.knobs.result_capacity = now.capacity;
            return;
        };
        let probes = (now.hits + now.misses + now.stale)
            .saturating_sub(last.hits + last.misses + last.stale);
        if probes == 0 {
            return;
        }
        let hits = now.hits.saturating_sub(last.hits);
        let hit = ewma(self.result_hit, hits as f64 / probes as f64, self.alpha);
        self.result_hit = Some(hit);

        let old = self.knobs.result_capacity;
        self.knobs.result_capacity = sized(
            old,
            hit,
            now.evictions.saturating_sub(last.evictions),
            now.len,
            now.capacity,
            self.bounds.min_results,
            self.bounds.max_results,
        );
        if self.knobs.result_capacity != old {
            cache.resize(self.knobs.result_capacity);
            self.adjustments += 1;
        }
    }

    /// Core decision step: consume one counter snapshot, update EWMAs,
    /// recompute knobs. Returns whether the caller should (re-)apply the
    /// backend knobs — true whenever a delta was observed, so a mid-run
    /// external knob change is corrected even if the decision is
    /// unchanged.
    fn step(&mut self, now: BackendSignals) -> bool {
        let Some(last) = self.last.replace(now) else {
            // First sighting: nothing to delta against yet. Still apply
            // the initial knobs so controller and backend agree.
            self.samples += 1;
            return true;
        };
        let reads = now.logical_reads.saturating_sub(last.logical_reads);
        if reads == 0 {
            // No traffic since the last look; leave the EWMAs alone.
            return false;
        }
        self.samples += 1;

        // Device reads per logical read (`NodeStore::io_miss_rate`'s
        // signal, on this batch's deltas): a page a hint brought in and a
        // query claimed cost a device read like a demand miss did. Left
        // out, the ladder would step down exactly when hinting works.
        let device_reads = (now.physical_reads + now.prefetch_useful)
            .saturating_sub(last.physical_reads + last.prefetch_useful);
        self.miss = Some(ewma(
            self.miss,
            device_reads as f64 / reads as f64,
            self.alpha,
        ));

        let probes =
            (now.cache_hits + now.cache_misses).saturating_sub(last.cache_hits + last.cache_misses);
        if probes > 0 {
            let hits = now.cache_hits.saturating_sub(last.cache_hits);
            self.cache_hit = Some(ewma(
                self.cache_hit,
                hits as f64 / probes as f64,
                self.alpha,
            ));
        }

        let classified = (now.prefetch_useful + now.prefetch_wasted)
            .saturating_sub(last.prefetch_useful + last.prefetch_wasted);
        if classified > 0 {
            let wasted = now.prefetch_wasted.saturating_sub(last.prefetch_wasted);
            self.wasted = Some(ewma(
                self.wasted,
                wasted as f64 / classified as f64,
                self.alpha,
            ));
        }

        let old = self.knobs;

        // Prefetch depth: the Adaptive ladder, on the smoothed miss rate
        // instead of one query's instantaneous view...
        let miss = self.miss.expect("set above");
        let mut depth = if miss >= 0.5 {
            8
        } else if miss >= 0.05 {
            2
        } else {
            0
        };
        // ...backed off when classification says the hints mostly die
        // unclaimed (evicted before use: queue too deep for the pool).
        if self.wasted.unwrap_or(0.0) > 0.5 {
            depth /= 2;
        }
        self.knobs.prefetch_depth = depth.min(self.bounds.max_depth);

        // Workers follow depth: deep hinting under heavy misses wants
        // I/O overlap; shallow or no hinting needs one worker at most
        // (the floor set_prefetch_workers enforces anyway).
        self.knobs.prefetch_workers = match self.knobs.prefetch_depth {
            0..=1 => 1,
            2..=4 => 2,
            _ => self.bounds.max_workers,
        };

        if let Some(hit) = self.cache_hit {
            self.knobs.cache_capacity = sized(
                self.knobs.cache_capacity,
                hit,
                now.cache_evictions.saturating_sub(last.cache_evictions),
                now.cache_len,
                now.cache_capacity,
                self.bounds.min_cache,
                self.bounds.max_cache,
            );
        }

        if self.knobs != old {
            self.adjustments += 1;
        }
        true
    }
}

/// The sizing rule of both cache knobs: double `knob` under pressure (a
/// smoothed hit rate below 0.6 while the batch evicted: the ring is
/// smaller than the working set), halve it when comfortable (above 0.95)
/// and the cache is under a quarter full, else hold (the gap between the
/// thresholds prevents flapping). The result is clamped to `[min, max]`,
/// except that growing never lowers `knob` and shrinking never raises it:
/// a capacity configured outside the bounds only moves with the signal.
fn sized(
    knob: usize,
    hit: f64,
    evictions: u64,
    len: usize,
    capacity: usize,
    min: usize,
    max: usize,
) -> usize {
    if hit < 0.6 && evictions > 0 {
        (knob * 2).min(max).max(knob)
    } else if hit > 0.95 && len < capacity / 4 {
        (knob / 2).max(min).min(knob)
    } else {
        knob
    }
}

/// One EWMA step: `alpha` weights the new sample; a `None` state adopts
/// the sample outright.
fn ewma(state: Option<f64>, sample: f64, alpha: f64) -> f64 {
    match state {
        None => sample,
        Some(prev) => alpha * sample + (1.0 - alpha) * prev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(logical: u64, phys: u64, ch: u64, cm: u64, ev: u64) -> BackendSignals {
        BackendSignals {
            logical_reads: logical,
            pool_hits: logical - phys,
            physical_reads: phys,
            cache_hits: ch,
            cache_misses: cm,
            cache_evictions: ev,
            cache_len: 0,
            cache_capacity: 1024,
            ..BackendSignals::default()
        }
    }

    #[test]
    fn off_mode_never_moves() {
        let mut c = TuneController::new(TuneMode::Off);
        assert!(!c.is_active());
        assert_eq!(c.prefetch_policy(), None);
        assert_eq!(c.block_override(), None);
        c.observe_batch(&BatchStats {
            threads: 8,
            block: 4,
            per_worker_queries: vec![100, 0, 0, 0, 0, 0, 0, 0],
            executed: 100,
        });
        assert_eq!(c.adjustments(), 0);
        assert_eq!(c.samples(), 0);
    }

    #[test]
    fn miss_ladder_drives_depth_and_workers() {
        let mut c = TuneController::new(TuneMode::Adaptive);
        assert!(c.step(signals(0, 0, 0, 0, 0))); // baseline snapshot
                                                 // All-miss batch: depth jumps to the cold rung, workers follow.
        assert!(c.step(signals(1000, 1000, 0, 1000, 0)));
        assert_eq!(c.settings().prefetch_depth, 8);
        assert_eq!(c.settings().prefetch_workers, 4);
        assert_eq!(c.prefetch_policy(), Some(PrefetchPolicy::Depth(8)));
        // Warm batches: the EWMA decays the miss rate to the bottom rung.
        for i in 1..=8u64 {
            c.step(signals(1000 + i * 1000, 1000, 0, 1000, 0));
        }
        assert_eq!(c.settings().prefetch_depth, 0);
        assert_eq!(c.settings().prefetch_workers, 1);
        assert_eq!(c.prefetch_policy(), Some(PrefetchPolicy::Off));
    }

    #[test]
    fn depth_ladder_holds_when_hints_absorb_the_misses() {
        // The same cold pool twice: once every device read is a demand
        // miss, once nearly all of them are prefetches that queries then
        // claimed (pool hits). The depth may not tell the two apart.
        let batch = |i: u64, demand: u64, claimed: u64| {
            let mut s = signals(i * 1000, i * demand, 0, i * 1000, 0);
            s.prefetch_issued = i * claimed;
            s.prefetch_useful = i * claimed;
            s
        };
        for (demand, claimed, want_depth) in [
            (600, 0, 8),
            (10, 590, 8),
            (100, 0, 2),
            (0, 100, 2),
            (0, 10, 0),
        ] {
            let mut c = TuneController::new(TuneMode::Adaptive);
            for i in 0..=8 {
                c.step(batch(i, demand, claimed));
            }
            assert_eq!(
                c.settings().prefetch_depth,
                want_depth,
                "{demand} demand + {claimed} claimed reads per 1000"
            );
        }
    }

    #[test]
    fn wasted_prefetch_backs_depth_off() {
        let mut c = TuneController::new(TuneMode::Adaptive);
        c.step(signals(0, 0, 0, 0, 0));
        let mut s = signals(1000, 1000, 0, 1000, 0);
        s.prefetch_useful = 10;
        s.prefetch_wasted = 990;
        c.step(s);
        // Miss rate alone says 8; the wasted rate halves it.
        assert_eq!(c.settings().prefetch_depth, 4);
    }

    #[test]
    fn cache_grows_under_pressure_and_shrinks_when_idle() {
        let mut c = TuneController::new(TuneMode::Adaptive);
        c.step(signals(0, 0, 0, 0, 0));
        let start = c.settings().cache_capacity;
        // Thrashing: low hit rate with evictions → grow.
        c.step(signals(1000, 0, 100, 900, 500));
        assert_eq!(c.settings().cache_capacity, start * 2);
        // Comfortable and empty → shrink (cache_len 0 < capacity/4); the
        // EWMA needs a few near-perfect batches to clear the hysteresis
        // band.
        for i in 1..=6u64 {
            c.step(signals(1000 + i * 100_000, 0, i * 100_000, 900, 500));
        }
        assert!(c.settings().cache_capacity < start * 2);
    }

    #[test]
    fn bounds_are_hard() {
        let mut c = TuneController::with_bounds(
            TuneMode::Adaptive,
            TuneBounds {
                max_depth: 4,
                max_workers: 2,
                min_cache: 256,
                max_cache: 512,
                min_results: 256,
                max_results: 512,
            },
        );
        c.step(signals(0, 0, 0, 0, 0));
        for i in 1..=10u64 {
            // Permanent thrash: everything wants to grow.
            c.step(signals(i * 1000, i * 1000, i * 100, i * 900, i * 500));
        }
        let k = c.settings();
        assert!(k.prefetch_depth <= 4);
        assert!(k.prefetch_workers <= 2);
        assert!((256..=512).contains(&k.cache_capacity));
    }

    #[test]
    fn imbalance_shrinks_block_and_recovers() {
        let mut c = TuneController::new(TuneMode::Adaptive);
        c.observe_batch(&BatchStats {
            threads: 4,
            block: 8,
            per_worker_queries: vec![97, 1, 1, 1],
            executed: 100,
        });
        assert_eq!(c.block_override(), Some(1));
        let adj = c.adjustments();
        // Balanced batches decay the EWMA back under the threshold.
        for _ in 0..8 {
            c.observe_batch(&BatchStats {
                threads: 4,
                block: 8,
                per_worker_queries: vec![25, 25, 25, 25],
                executed: 100,
            });
        }
        assert_eq!(c.block_override(), None);
        assert!(c.adjustments() > adj);
    }

    #[test]
    fn result_cache_knob_grows_under_churn_and_shrinks_when_idle() {
        let cache = ResultCache::<2>::new(512);
        let mut c = TuneController::new(TuneMode::Adaptive);
        // First sighting adopts the configured capacity.
        c.observe_result_cache(&cache);
        assert_eq!(c.settings().result_capacity, 512);

        // Churn: fill past capacity so probes mostly miss and evictions
        // accumulate → the knob doubles and the resize is applied.
        for i in 0..2048u64 {
            let key = i.to_le_bytes();
            cache.lookup(&key, 1);
            cache.insert(
                &key,
                1,
                crate::result_cache::CachedAnswer {
                    hits: Vec::new(),
                    stats: Default::default(),
                },
            );
        }
        c.observe_result_cache(&cache);
        assert_eq!(c.settings().result_capacity, 1024);
        assert_eq!(cache.stats().capacity, 1024, "resize applied to cache");

        // Idle comfort: near-perfect hit rate on a tiny hot set while the
        // ring sits mostly empty → after the EWMA clears hysteresis the
        // knob halves, floored at min_results.
        cache.clear();
        cache.insert(
            b"hot",
            1,
            crate::result_cache::CachedAnswer {
                hits: Vec::new(),
                stats: Default::default(),
            },
        );
        for _ in 0..8 {
            for _ in 0..10_000 {
                cache.lookup(b"hot", 1);
            }
            c.observe_result_cache(&cache);
        }
        assert!(c.settings().result_capacity < 1024);
        assert!(c.settings().result_capacity >= c.bounds.min_results);
        assert_eq!(cache.stats().capacity, c.settings().result_capacity);
        assert!(c.adjustments() >= 2);
    }

    #[test]
    fn disabled_result_cache_is_never_tuned() {
        let cache = ResultCache::<2>::new(0);
        let mut c = TuneController::new(TuneMode::Adaptive);
        for _ in 0..4 {
            cache.lookup(b"k", 1);
            c.observe_result_cache(&cache);
        }
        assert_eq!(cache.stats().capacity, 0, "off means off");
        // Off-mode controller is equally inert on an enabled cache.
        let on = ResultCache::<2>::new(64);
        let mut off = TuneController::new(TuneMode::Off);
        off.observe_result_cache(&on);
        assert_eq!(off.adjustments(), 0);
    }

    #[test]
    fn result_knob_never_moves_against_its_signal_outside_the_bounds() {
        let empty = || crate::result_cache::CachedAnswer::<2> {
            hits: Vec::new(),
            stats: Default::default(),
        };
        // `--result-cache 100`, below `min_results`, with a tiny hot set:
        // the shrink branch may not grow it to the floor.
        let small = ResultCache::<2>::new(100);
        let mut c = TuneController::new(TuneMode::Adaptive);
        c.observe_result_cache(&small);
        small.insert(b"hot", 1, empty());
        for _ in 0..8 {
            for _ in 0..1_000 {
                small.lookup(b"hot", 1);
            }
            c.observe_result_cache(&small);
        }
        assert_eq!(small.stats().capacity, 100, "shrink grew the cache");
        assert_eq!(c.settings().result_capacity, 100);

        // `--result-cache 100000`, above `max_results`, under churn: the
        // grow branch may not cut it to the ceiling.
        let large = ResultCache::<2>::new(100_000);
        let mut c = TuneController::new(TuneMode::Adaptive);
        c.observe_result_cache(&large);
        for i in 0..120_000u64 {
            let key = i.to_le_bytes();
            large.lookup(&key, 1);
            large.insert(&key, 1, empty());
        }
        let evicted = large.stats().evictions;
        assert!(evicted > 0);
        c.observe_result_cache(&large);
        assert_eq!(large.stats().capacity, 100_000, "grow shrank the cache");
        assert_eq!(large.stats().evictions, evicted, "grow evicted answers");
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn quiet_batches_leave_state_alone() {
        let mut c = TuneController::new(TuneMode::Adaptive);
        c.step(signals(1000, 1000, 0, 1000, 0));
        c.step(signals(2000, 2000, 0, 2000, 0));
        let before = c.settings();
        let samples = c.samples();
        // Identical snapshot: zero reads since last look.
        assert!(!c.step(signals(2000, 2000, 0, 2000, 0)));
        assert_eq!(c.settings(), before);
        assert_eq!(c.samples(), samples);
    }
}
