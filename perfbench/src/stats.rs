//! Order statistics: percentiles of one phase's samples, the median over
//! per-cycle values every timing metric is reported as, and the quartiles
//! `compare` judges run-to-run spread by.

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice; `0`
/// for an empty one.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` (nanoseconds) and returns the percentile in
/// microseconds.
pub fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p) as f64 / 1_000.0
}

/// Median of `values` (mean of the two middle values for an even count);
/// `0` for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One metric's per-cycle values. The reported value is their median, so
/// one cycle hit by a host stall does not move it; min and max are printed
/// beside it.
#[derive(Clone, Debug, Default)]
pub struct Cycles(pub Vec<f64>);

impl Cycles {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the acceptance rule for this benchmark uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.001), 1);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        let mut unsorted = vec![3_000, 1_000, 2_000];
        assert_eq!(percentile_us(&mut unsorted, 0.5), 2.0);
    }

    #[test]
    fn median_of_cycles_ignores_one_stalled_cycle() {
        let c = Cycles(vec![470.0, 443.0, 466.0, 250_000.0, 455.0, 460.0]);
        assert_eq!(c.median(), 463.0);
        assert_eq!(c.min(), 443.0);
        assert_eq!(c.max(), 250_000.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), Some((2.0, 7.0, 10.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
