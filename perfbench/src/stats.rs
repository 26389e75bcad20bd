//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank-interpolated quantile `q` in `[0, 1]` of `xs` (linear
/// interpolation between closest ranks); `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentiles a timing may be reported at, highest first, in tenths
/// of a percent so the sample-count arithmetic stays exact.
const PERMILLES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile for it to mean
/// anything: with fewer, a single slow sample moves it.
const MIN_BEYOND: usize = 10;

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that `n`
/// samples support, i.e. with at least [`MIN_BEYOND`] samples beyond
/// it; `None` when not even the median is supported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERMILLES
        .into_iter()
        .find(|&pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    (n as f64 * (100.0 - p) / 100.0).round() as usize
}

/// A uniform random sample of at most `cap` values from a stream of any
/// length (reservoir sampling with a fixed seed). Its buffer is filled
/// when it is created, so keeping samples never raises the process's
/// resident memory while the program under test is being measured.
#[derive(Debug)]
pub struct Reservoir {
    kept: Vec<f64>,
    len: usize,
    seen: u64,
    state: u64,
}

impl Reservoir {
    pub fn new(cap: usize) -> Self {
        Self {
            kept: vec![0.0; cap.max(1)],
            len: 0,
            seen: 0,
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.len < self.kept.len() {
            self.kept[self.len] = x;
            self.len += 1;
            return;
        }
        // splitmix64 step; a draw below `len` replaces that sample.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let j = z % self.seen;
        if let Ok(j) = usize::try_from(j) {
            if j < self.len {
                self.kept[j] = x;
            }
        }
    }

    /// The kept samples.
    pub fn samples(&self) -> &[f64] {
        &self.kept[..self.len]
    }

    /// How many values were pushed in all.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.seen(), 100_000);
        assert_eq!(r.samples().len(), 1000);
        // A uniform sample of 0..100000 has its median near 50000.
        let m = median(r.samples());
        assert!((40_000.0..60_000.0).contains(&m), "{m}");
        let mut short = Reservoir::new(10);
        short.push(3.0);
        assert_eq!(short.samples(), [3.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.25), 25.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // p99.9 needs 10 000 samples, p99 needs 1 000, p95 needs 200.
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }
}
