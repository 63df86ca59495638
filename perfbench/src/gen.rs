//! Everything the benchmark feeds the program is derived here from
//! `--seed`: datasets, query streams, the Zipf draw and the open-loop
//! arrival schedules. Streams are pure functions of `(seed, index)`, so a
//! phase can take any index range without storing the stream, and a
//! response can be checked from its id alone.

use nnq_core::BatchQuery;
use nnq_geom::Point;
use nnq_serve::Request;

/// Side of the square world (`nnq_workloads::default_bounds()`).
pub const WORLD: f64 = 100_000.0;

/// SplitMix64 finalizer over `seed` and a stream position or purpose tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to `[0, 1)`.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The `i`-th point of the uniform stream `seed`.
pub fn point_at(seed: u64, i: u64) -> Point<2> {
    let a = mix(seed, 2 * i);
    let b = mix(seed, 2 * i + 1);
    Point::new([unit(a) * WORLD, unit(b) * WORLD])
}

/// The serve workloads' request mix, by position: every third request is
/// a radius query (800..2 800 in steps of 500), the others are kNN with
/// k = 1, 3, .. 19.
pub fn request_rule(i: u64, q: Point<2>) -> BatchQuery<2> {
    if i % 3 == 2 {
        BatchQuery::Radius {
            q,
            radius: 800.0 + 500.0 * (i % 5) as f64,
        }
    } else {
        BatchQuery::Knn {
            q,
            k: 1 + 2 * (i % 10) as usize,
        }
    }
}

/// The wire form of `query` under correlation id `id`.
pub fn wire_request(id: u64, query: &BatchQuery<2>) -> Request {
    match *query {
        BatchQuery::Knn { q, k } => Request::Knn {
            id,
            x: q[0],
            y: q[1],
            k: k as u32,
        },
        BatchQuery::Radius { q, radius } => Request::Radius {
            id,
            x: q[0],
            y: q[1],
            radius,
        },
    }
}

/// Zipf(θ) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^θ`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// The rank whose CDF interval holds `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`: ascending intended
/// send times, in nanoseconds from the phase start, fixed before the run.
pub fn poisson_schedule(rate_per_s: f64, duration_ns: u64, seed: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    for i in 0.. {
        let u = unit(mix(seed, i)).max(1e-12);
        t += -u.ln() / rate_per_s * 1e9;
        if t >= duration_ns as f64 {
            break;
        }
        out.push(t as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<_> = (0..64).map(|i| point_at(7, i)).collect();
        let b: Vec<_> = (0..64).map(|i| point_at(7, i)).collect();
        let c: Vec<_> = (0..64).map(|i| point_at(8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|p| (0.0..WORLD).contains(&p[0]) && (0.0..WORLD).contains(&p[1])));
        // All-distinct: no two stream positions share a point.
        let mut keys: Vec<_> = a.iter().map(|p| (p[0].to_bits(), p[1].to_bits())).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn request_rule_mixes_knn_and_radius_by_position() {
        let q = Point::new([1.0, 2.0]);
        assert_eq!(request_rule(0, q), BatchQuery::Knn { q, k: 1 });
        assert_eq!(request_rule(1, q), BatchQuery::Knn { q, k: 3 });
        assert_eq!(
            request_rule(2, q),
            BatchQuery::Radius { q, radius: 1_800.0 }
        );
        assert_eq!(request_rule(19, q), BatchQuery::Knn { q, k: 19 });
        assert_eq!(request_rule(5, q), BatchQuery::Radius { q, radius: 800.0 });
        let wire = wire_request(9, &request_rule(2, q));
        assert_eq!(
            wire,
            Request::Radius {
                id: 9,
                x: 1.0,
                y: 2.0,
                radius: 1_800.0
            }
        );
    }

    #[test]
    fn zipf_is_reproducible_and_skewed() {
        let z = Zipf::new(512, 0.9);
        let draw =
            |seed| -> Vec<usize> { (0..20_000).map(|i| z.rank(unit(mix(seed, i)))).collect() };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let mut counts = vec![0usize; 512];
        for &r in &a {
            counts[r] += 1;
        }
        // Rank 0 carries 1/H of the mass, H = Σ r^-0.9; the last rank
        // 512^-0.9 ≈ 1/274 of that.
        let h: f64 = (1..=512).map(|r| (r as f64).powf(-0.9)).sum();
        let expect = 20_000.0 / h;
        assert!(
            (counts[0] as f64 - expect).abs() < 0.1 * expect,
            "{} vs {expect}",
            counts[0]
        );
        assert!(counts[0] > 50 * counts[511].max(1));
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999_999), 511);
    }

    #[test]
    fn poisson_schedule_is_reproducible_ascending_and_on_rate() {
        let a = poisson_schedule(10_000.0, 2_000_000_000, 3);
        assert_eq!(a, poisson_schedule(10_000.0, 2_000_000_000, 3));
        assert_ne!(a, poisson_schedule(10_000.0, 2_000_000_000, 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
        // 20 000 expected arrivals, standard deviation ≈ 141.
        assert!((19_300..20_700).contains(&a.len()), "{}", a.len());
    }
}
