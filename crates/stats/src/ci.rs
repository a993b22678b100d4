use crate::normal_quantile;

/// A closed real interval `[lo, hi]`, the output of every estimator in this
/// workspace.
///
/// Probability estimates clamp to `[0, 1]` at construction via
/// [`ConfidenceInterval::clamped_to_unit`]; the raw constructors leave the
/// bounds untouched so callers can inspect pre-clamp values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    lo: f64,
    hi: f64,
}

impl ConfidenceInterval {
    /// Creates an interval from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "CI bounds must not be NaN");
        assert!(lo <= hi, "CI bounds out of order: [{lo}, {hi}]");
        ConfidenceInterval { lo, hi }
    }

    /// The symmetric interval `centre ± half_width`.
    ///
    /// # Panics
    ///
    /// Panics if `half_width < 0` or any value is NaN.
    pub fn centered(centre: f64, half_width: f64) -> Self {
        assert!(half_width >= 0.0, "half width must be non-negative");
        ConfidenceInterval::new(centre - half_width, centre + half_width)
    }

    /// Normal-approximation `(1−δ)` CI for a Bernoulli proportion estimated
    /// as `p_hat` from `n` samples (§II-C):
    /// `p̂ ± Φ⁻¹(1−δ/2) √(p̂(1−p̂)/n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `delta ∉ (0, 1)`.
    pub fn for_bernoulli(p_hat: f64, n: usize, delta: f64) -> Self {
        assert!(n > 0, "sample size must be positive");
        let q = normal_quantile(1.0 - delta / 2.0);
        let half = q * (p_hat * (1.0 - p_hat) / n as f64).sqrt();
        ConfidenceInterval::centered(p_hat, half)
    }

    /// Wilson score `(1−δ)` CI for a Bernoulli proportion with `hits`
    /// successes out of `n` trials.
    ///
    /// Unlike the Wald interval of [`ConfidenceInterval::for_bernoulli`],
    /// the Wilson interval stays inside `[0, 1]` by construction and keeps
    /// meaningful width at 0 or `n` hits — the regime crude Monte Carlo
    /// lands in on rare events.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `hits > n`, or `delta ∉ (0, 1)`.
    ///
    /// # Example
    ///
    /// ```
    /// use imc_stats::ConfidenceInterval;
    ///
    /// // Zero hits out of 1000: Wald collapses to [0, 0]; Wilson does not.
    /// let wilson = ConfidenceInterval::wilson_for_bernoulli(0, 1000, 0.05);
    /// assert_eq!(wilson.lo(), 0.0);
    /// assert!(wilson.hi() > 1e-3 && wilson.hi() < 5e-3);
    /// ```
    pub fn wilson_for_bernoulli(hits: u64, n: usize, delta: f64) -> Self {
        assert!(n > 0, "sample size must be positive");
        assert!(hits as usize <= n, "more hits than samples");
        let z = normal_quantile(1.0 - delta / 2.0);
        let n = n as f64;
        let p = hits as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = z / denom * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ConfidenceInterval::centered(centre, half).clamped_to_unit()
    }

    /// Normal-approximation `(1−δ)` CI for a mean estimated as `mean` with
    /// empirical standard deviation `std_dev` over `n` samples (§III-A):
    /// `γ̂ ± Φ⁻¹(1−δ/2) σ̂ / √n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `std_dev < 0`, or `delta ∉ (0, 1)`.
    pub fn for_mean(mean: f64, std_dev: f64, n: usize, delta: f64) -> Self {
        assert!(n > 0, "sample size must be positive");
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        let q = normal_quantile(1.0 - delta / 2.0);
        ConfidenceInterval::centered(mean, q * std_dev / (n as f64).sqrt())
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Mid-value `(lo + hi) / 2` (reported in Table II of the paper).
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Returns `true` if `value ∈ [lo, hi]`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }

    /// Returns `true` if `other` is entirely contained in `self`.
    pub fn encloses(&self, other: &ConfidenceInterval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Returns `true` if the two intervals share at least one point.
    pub fn intersects(&self, other: &ConfidenceInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Clamps both bounds into `[0, 1]`, for probability estimates whose
    /// normal approximation strayed outside the unit interval.
    pub fn clamped_to_unit(&self) -> ConfidenceInterval {
        ConfidenceInterval::new(self.lo.clamp(0.0, 1.0), self.hi.clamp(0.0, 1.0))
    }

    /// The smallest interval containing both `self` and `other`.
    pub fn hull(&self, other: &ConfidenceInterval) -> ConfidenceInterval {
        ConfidenceInterval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.6e}, {:.6e}]", self.lo, self.hi)
    }
}

/// Empirical coverage: the fraction of intervals containing `truth`
/// (Table II's headline metric).
///
/// Returns 0 for an empty slice.
///
/// # Example
///
/// ```
/// use imc_stats::{coverage, ConfidenceInterval};
///
/// let cis = vec![
///     ConfidenceInterval::new(0.0, 2.0),
///     ConfidenceInterval::new(3.0, 4.0),
/// ];
/// assert_eq!(coverage(&cis, 1.0), 0.5);
/// ```
pub fn coverage(intervals: &[ConfidenceInterval], truth: f64) -> f64 {
    if intervals.is_empty() {
        return 0.0;
    }
    let hits = intervals.iter().filter(|ci| ci.contains(truth)).count();
    hits as f64 / intervals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let ci = ConfidenceInterval::new(0.2, 0.6);
        assert_eq!(ci.lo(), 0.2);
        assert_eq!(ci.hi(), 0.6);
        assert!((ci.mid() - 0.4).abs() < 1e-15);
        assert!((ci.width() - 0.4).abs() < 1e-15);
        assert!(ci.contains(0.2) && ci.contains(0.6) && !ci.contains(0.61));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_reversed_bounds() {
        ConfidenceInterval::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        ConfidenceInterval::new(f64::NAN, 1.0);
    }

    #[test]
    fn bernoulli_ci_matches_hand_computation() {
        // p̂=0.5, n=100, δ=0.05: half width = 1.959964 * 0.05 = 0.0979982.
        let ci = ConfidenceInterval::for_bernoulli(0.5, 100, 0.05);
        assert!((ci.width() / 2.0 - 0.097_998_2).abs() < 1e-6);
        assert!((ci.mid() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn degenerate_bernoulli_ci_is_a_point() {
        let ci = ConfidenceInterval::for_bernoulli(0.0, 10, 0.05);
        assert_eq!(ci.width(), 0.0);
    }

    #[test]
    fn mean_ci_shrinks_with_n() {
        let narrow = ConfidenceInterval::for_mean(1.0, 2.0, 10_000, 0.05);
        let wide = ConfidenceInterval::for_mean(1.0, 2.0, 100, 0.05);
        assert!(narrow.width() < wide.width());
        assert!((wide.width() / narrow.width() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn set_operations() {
        let a = ConfidenceInterval::new(0.0, 1.0);
        let b = ConfidenceInterval::new(0.25, 0.5);
        let c = ConfidenceInterval::new(2.0, 3.0);
        assert!(a.encloses(&b));
        assert!(!b.encloses(&a));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let hull = a.hull(&c);
        assert_eq!((hull.lo(), hull.hi()), (0.0, 3.0));
    }

    #[test]
    fn clamping() {
        let ci = ConfidenceInterval::new(-0.2, 1.4).clamped_to_unit();
        assert_eq!((ci.lo(), ci.hi()), (0.0, 1.0));
    }

    #[test]
    fn wilson_brackets_wald_for_moderate_p() {
        // At p = 0.5 and large n the two intervals nearly coincide.
        let wald = ConfidenceInterval::for_bernoulli(0.5, 10_000, 0.05);
        let wilson = ConfidenceInterval::wilson_for_bernoulli(5_000, 10_000, 0.05);
        assert!((wald.lo() - wilson.lo()).abs() < 1e-4);
        assert!((wald.hi() - wilson.hi()).abs() < 1e-4);
    }

    #[test]
    fn wilson_stays_in_unit_interval_at_extremes() {
        let all = ConfidenceInterval::wilson_for_bernoulli(10, 10, 0.05);
        assert!(all.hi() <= 1.0);
        assert!(all.lo() < 1.0, "still uncertain after 10/10");
        let none = ConfidenceInterval::wilson_for_bernoulli(0, 10, 0.05);
        assert_eq!(none.lo(), 0.0);
        assert!(none.hi() > 0.2, "zero hits out of 10 leaves much room");
    }

    #[test]
    #[should_panic(expected = "more hits")]
    fn wilson_rejects_inconsistent_counts() {
        ConfidenceInterval::wilson_for_bernoulli(11, 10, 0.05);
    }

    #[test]
    fn coverage_counts_hits() {
        let cis: Vec<_> = (0..10)
            .map(|i| ConfidenceInterval::centered(i as f64, 0.6))
            .collect();
        // truth = 4.5 is inside intervals centred at 4 and 5 only.
        assert!((coverage(&cis, 4.5) - 0.2).abs() < 1e-15);
        assert_eq!(coverage(&[], 0.0), 0.0);
    }
}
