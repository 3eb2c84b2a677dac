//! Descriptive statistics for evaluation.
//!
//! The paper reports average throughputs with 95% confidence intervals
//! (Figs. 3-5..3-8), average absolute errors with standard deviations
//! (Figs. 4-2, 4-3), and medians over link populations (Table 5.1). This
//! module provides exactly those estimators.

/// Arithmetic mean of a slice. Returns 0.0 for an empty slice (the
/// evaluation code treats "no samples" as zero signal, never as NaN).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1 denominator). Returns 0.0 for fewer than
/// two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Half-width of the normal-approximation 95% confidence interval of the
/// mean (`1.96 · s/√n`). Returns 0.0 for fewer than two samples.
pub fn ci95(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * stddev(xs) / (xs.len() as f64).sqrt()
}

/// `q`-th percentile (0 ≤ q ≤ 100) by linear interpolation between closest
/// ranks. Returns 0.0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 100.0);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Numerically stable online mean/variance accumulator (Welford's
/// algorithm). Use when streaming samples through without storing them.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator with no samples.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance, n−1 denominator (0.0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// 95% CI half-width of the mean.
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest sample seen (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[3.0]), 0.0);
        assert_eq!(ci95(&[3.0]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn online_matches_batch() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        assert!((o.mean() - mean(&xs)).abs() < 1e-12);
        assert!((o.stddev() - stddev(&xs)).abs() < 1e-12);
        assert!((o.ci95() - ci95(&xs)).abs() < 1e-12);
        assert_eq!(o.count(), 100);
    }

    #[test]
    fn online_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.7).collect();
        let ys: Vec<f64> = (0..70).map(|i| 100.0 - i as f64).collect();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs.iter().for_each(|&x| a.push(x));
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        assert!((a.mean() - mean(&all)).abs() < 1e-9);
        assert!((a.stddev() - stddev(&all)).abs() < 1e-9);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 100.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = (a.mean(), a.stddev());
        a.merge(&OnlineStats::new());
        assert_eq!((a.mean(), a.stddev()), before);

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.mean(), a.mean());
    }
}
