//! Order statistics and the seeded generator every workload draws from.

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `v`; NaN if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartiles with the same method as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so the
/// spread the harness prints agrees with the one the acceptance check
/// computes over whole runs.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Overhead of `slow` over `base` in percent, from paired per-call times:
/// the median of the per-pair overheads and their interquartile spread.
/// Pairing the calls of one shape taken back to back cancels slow drift.
pub fn paired_overhead_pct(base: &[f64], slow: &[f64]) -> (f64, f64) {
    let pairs: Vec<f64> = base
        .iter()
        .zip(slow)
        .map(|(&b, &s)| (s / b - 1.0) * 100.0)
        .collect();
    let (q1, q3) = quartiles(&pairs);
    (median(&pairs), q3 - q1)
}

/// Interquartile range of `v` as a percentage of its median.
pub fn spread_pct(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v) * 100.0
}

/// How an overhead is printed: a delta inside the run's own spread is
/// noise, never a (possibly negative) overhead.
pub fn describe_overhead(median_pct: f64, iqr_pct: f64) -> String {
    if median_pct.abs() <= iqr_pct / 2.0 {
        format!("within noise ({median_pct:+.2} %, spread {iqr_pct:.2} %)")
    } else {
        format!("{median_pct:+.2} % (spread {iqr_pct:.2} %)")
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `n` values stratified over `lo..=hi`: one uniform draw from each of
    /// `n` equal strata, shuffled. Seeds change every value but not the
    /// spread of the set, so workload cost barely moves between seeds.
    pub fn stratified(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let width = (hi - lo) as f64 / n as f64;
        let mut v: Vec<usize> = (0..n)
            .map(|i| lo + ((i as f64 + self.unit()) * width) as usize)
            .map(|x| x.min(hi))
            .collect();
        self.shuffle(&mut v);
        v
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0]), (1.25, 4.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn small_overhead_prints_as_noise() {
        assert!(describe_overhead(-0.4, 2.0).starts_with("within noise"));
        assert!(describe_overhead(3.0, 2.0).starts_with("+3.00 %"));
    }

    #[test]
    fn stratified_values_cover_every_stratum() {
        let mut rng = Rng::new(7);
        let mut v = rng.stratified(8, 256, 384);
        v.sort_unstable();
        for (i, x) in v.iter().enumerate() {
            assert!((256 + i * 16..=256 + (i + 1) * 16).contains(x), "{v:?}");
        }
    }
}
