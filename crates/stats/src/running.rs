/// Streaming mean and variance via Welford's algorithm.
///
/// Numerically stable for the extreme dynamic ranges that arise in
/// importance sampling, where a batch may mix likelihood ratios of `1e-7`
/// and exact zeros.
///
/// # Example
///
/// ```
/// use imc_stats::RunningStats;
///
/// let mut stats = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.count(), 4);
/// assert!((stats.mean() - 2.5).abs() < 1e-12);
/// assert!((stats.population_variance() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance `Σ(x−μ)²/n` (0 when fewer than 1 observation).
    ///
    /// The paper's estimators divide by `N`, not `N−1` (Algorithm 1 lines
    /// 22–23), so the population form is the default across this workspace.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance `Σ(x−μ)²/(n−1)` (0 when fewer than 2).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = RunningStats::new();
        stats.extend(iter);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let stats = RunningStats::new();
        assert_eq!(stats.count(), 0);
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.population_variance(), 0.0);
        assert_eq!(stats.sample_variance(), 0.0);
    }

    #[test]
    fn single_observation() {
        let stats: RunningStats = [5.0].into_iter().collect();
        assert_eq!(stats.mean(), 5.0);
        assert_eq!(stats.population_variance(), 0.0);
        assert_eq!(stats.min(), 5.0);
        assert_eq!(stats.max(), 5.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let stats: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((stats.mean() - mean).abs() < 1e-10);
        assert!((stats.population_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn extreme_dynamic_range_is_stable() {
        let mut stats = RunningStats::new();
        for _ in 0..1_000_000 {
            stats.push(1e-12);
        }
        stats.push(1.0);
        assert!(stats.population_variance() > 0.0);
        assert!(stats.mean() > 1e-12 && stats.mean() < 2e-6);
    }

    /// Property sweeps (seeded, no proptest offline).
    #[test]
    fn merge_equals_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        for case in 0..128 {
            let la = rng.gen_range(0..50usize);
            let lb = rng.gen_range(0..50usize);
            let a: Vec<f64> = (0..la).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let b: Vec<f64> = (0..lb).map(|_| rng.gen_range(-1e3..1e3)).collect();
            let mut merged: RunningStats = a.iter().copied().collect();
            let right: RunningStats = b.iter().copied().collect();
            merged.merge(&right);
            let sequential: RunningStats = a.iter().chain(b.iter()).copied().collect();
            assert_eq!(merged.count(), sequential.count(), "case {case}");
            assert!(
                (merged.mean() - sequential.mean()).abs() < 1e-9,
                "case {case}"
            );
            assert!(
                (merged.population_variance() - sequential.population_variance()).abs() < 1e-7,
                "case {case}"
            );
        }
    }

    #[test]
    fn variance_is_never_negative() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        for case in 0..128 {
            let len = rng.gen_range(0..100usize);
            let xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect();
            let stats: RunningStats = xs.into_iter().collect();
            assert!(stats.population_variance() >= 0.0, "case {case}");
            assert!(stats.sample_variance() >= 0.0, "case {case}");
        }
    }
}
