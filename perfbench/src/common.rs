//! Pieces every workload uses: the run options, the reference answers the
//! program's outputs are checked against, and the host reference loop.

use crate::gen;
use nnq_core::{within_radius, BatchQuery, MbrRefiner, Neighbor, NnSearch, SearchStats};
use nnq_geom::Rect;
use nnq_rtree::{RecordId, TreeAccess};
use nnq_serve::{Hit, Response};
use std::time::{Duration, Instant};

/// Cycles of an end-to-end run. Every timing metric is the median of one
/// value per cycle.
const CYCLES: usize = 6;

#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Total measured time of an end-to-end run, shared out over the
    /// cycles' phases.
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the data and one short cycle: exercises every code path
    /// and check in a few seconds.
    pub smoke: bool,
}

impl Opts {
    /// A traced run keeps the phase length of the end-to-end run and runs
    /// fewer cycles; the time left goes to replay and probes.
    pub fn cycles(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => CYCLES,
        }
    }

    /// Length of one phase when a cycle holds `weight` phases' worth.
    pub fn phase(&self, weight: f64) -> Duration {
        let per_cycle = if self.smoke {
            0.5 * weight
        } else {
            self.seconds / CYCLES as f64
        };
        Duration::from_secs_f64(per_cycle / weight)
    }

    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            n / 10
        } else {
            n
        }
    }

    /// A seed for one purpose, independent of the others.
    pub fn sub_seed(&self, purpose: u64) -> u64 {
        gen::mix(self.seed, purpose)
    }
}

pub type Items = Vec<(Rect<2>, RecordId)>;
pub type Answer = (Vec<Neighbor<2>>, SearchStats);

/// The sequential in-process answer every other answer path must equal.
pub fn answer<T: TreeAccess<2> + ?Sized>(tree: &T, query: &BatchQuery<2>) -> Answer {
    match *query {
        BatchQuery::Knn { q, k } => NnSearch::new(tree).query_refined(&q, k, &MbrRefiner),
        BatchQuery::Radius { q, radius } => within_radius(tree, &q, radius, &MbrRefiner),
    }
    .expect("in-process query")
}

/// The Ok response the server must send for `answer`.
pub fn ok_response(id: u64, answer: &Answer) -> Response {
    Response::Ok {
        id,
        logical_reads: answer.1.nodes_visited,
        hits: answer
            .0
            .iter()
            .map(|n| Hit {
                record: n.record.0,
                dist_sq: n.dist_sq,
            })
            .collect(),
    }
}

/// Ascending squared distances of the brute-force answer to each query:
/// every item's distance is computed and the k smallest (or those within
/// the radius) are kept. Ties at equal distance may resolve to different
/// records in the index, so answers are compared by their distance lists.
/// Shares no code with the index or its heap. Items are walked once, in
/// cache-sized pieces, with all queries applied to each piece (the scan is
/// bound by memory otherwise), on two threads.
pub fn brute_force(items: &[(Rect<2>, RecordId)], queries: &[BatchQuery<2>]) -> Vec<Vec<u64>> {
    let scan = |queries: &[BatchQuery<2>]| -> Vec<Vec<u64>> {
        let mut kept: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
        for piece in items.chunks(2_048) {
            for (query, kept) in queries.iter().zip(&mut kept) {
                let q = query.point();
                // Squared distance from `q` to a rectangle, 0 inside it.
                let dist_sq = |mbr: &Rect<2>| -> f64 {
                    let dx = (mbr.lo()[0] - q[0]).max(q[0] - mbr.hi()[0]).max(0.0);
                    let dy = (mbr.lo()[1] - q[1]).max(q[1] - mbr.hi()[1]).max(0.0);
                    dx * dx + dy * dy
                };
                match *query {
                    BatchQuery::Knn { k, .. } => {
                        let mut worst = if kept.len() < k {
                            f64::INFINITY
                        } else {
                            kept[k - 1]
                        };
                        for (mbr, _) in piece {
                            let d = dist_sq(mbr);
                            if d < worst {
                                kept.insert(kept.partition_point(|&x| x <= d), d);
                                kept.truncate(k);
                                if kept.len() == k {
                                    worst = kept[k - 1];
                                }
                            }
                        }
                    }
                    BatchQuery::Radius { radius, .. } => {
                        kept.extend(
                            piece
                                .iter()
                                .map(|(mbr, _)| dist_sq(mbr))
                                .filter(|&d| d <= radius * radius),
                        );
                    }
                }
            }
        }
        kept.into_iter()
            .map(|mut d| {
                d.sort_by(f64::total_cmp);
                d.into_iter().map(f64::to_bits).collect()
            })
            .collect()
    };
    let (left, right) = queries.split_at(queries.len() / 2);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| scan(right));
        let mut out = scan(left);
        out.extend(other.join().expect("brute-force thread"));
        out
    })
}

pub fn dist_bits(hits: &[Neighbor<2>]) -> Vec<u64> {
    hits.iter().map(|n| n.dist_sq.to_bits()).collect()
}

/// A fixed scalar loop (dependent 64-bit multiplies and shifts), in
/// millions of steps per second. It touches no memory and none of the
/// program under test: when two runs of the same code disagree, a matching
/// change here says the host's speed drifted.
pub fn ref_mops() -> f64 {
    const STEPS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for i in 0..STEPS {
        x = gen::mix(x, i);
    }
    std::hint::black_box(x);
    STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Set-ups per run: `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Runs the set-up `f` `SETUP_REPS` times and returns the last result with
/// every run's wall time in seconds.
pub fn timed_setups<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}
