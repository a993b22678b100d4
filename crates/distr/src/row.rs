use rand::Rng;

use crate::dirichlet::draw_normalised;
use crate::{DistrError, Gamma};

/// One interval-constrained coordinate of a stochastic row:
/// bounds `[lo, hi]` around a learnt centre probability `â`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSpec {
    lo: f64,
    hi: f64,
    center: f64,
}

impl IntervalSpec {
    /// Creates a validated spec.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::InvalidInterval`] unless
    /// `0 ≤ lo ≤ center ≤ hi ≤ 1`.
    pub fn new(lo: f64, hi: f64, center: f64) -> Result<Self, DistrError> {
        let ok = lo.is_finite()
            && hi.is_finite()
            && center.is_finite()
            && (0.0..=1.0).contains(&lo)
            && (0.0..=1.0).contains(&hi)
            && lo <= center
            && center <= hi;
        if !ok {
            return Err(DistrError::InvalidInterval { lo, hi, center });
        }
        Ok(IntervalSpec { lo, hi, center })
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Centre probability `â`.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Interval half-width `ε`.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// Returns `true` if `p` lies inside the interval.
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo && p <= self.hi
    }
}

/// Cumulative rejection-sampling statistics of a [`ConstrainedRowSampler`].
///
/// The paper tunes the candidate generator by watching exactly these
/// quantities (§IV-C); they are exposed so experiments can report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionStats {
    /// Total candidate rows drawn (accepted + rejected).
    pub attempts: u64,
    /// Candidates rejected for violating an interval constraint, or because
    /// their Gamma vector could not be normalised (every coordinate
    /// underflowed, or a shape was not finite).
    pub rejections: u64,
    /// Number of λ-inflations of the concentration parameter.
    pub inflations: u64,
    /// Successfully returned samples.
    pub accepted: u64,
}

impl RejectionStats {
    /// Fraction of attempts that were rejected (0 when nothing attempted).
    pub fn rejection_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.rejections as f64 / self.attempts as f64
        }
    }
}

/// Generates random stochastic rows inside an interval box, per §IV of the
/// paper.
///
/// Given a learnt row `â_i` and per-transition intervals `[â ± ε]`, draws
/// candidates from `Dirichlet(K_i · â_i)` where the concentration is tuned
/// so each coordinate's standard deviation matches its interval half-width:
/// `K_ij = â(1−â)/ε² − 1`, `K_i = min_j K_ij` (§IV-B). Candidates violating
/// any interval are rejected and redrawn. Two of the paper's refinements are
/// implemented:
///
/// * **λ-inflation** (§IV-C1): if rejection persists, `K_i` is multiplied by
///   `λ = 1.1`, shrinking coordinate variances while preserving their means,
///   until candidates start landing inside the box;
/// * **split sampling** (§IV-C2): when the `K_ij` span several orders of
///   magnitude, the most constrained coordinate is drawn *uniformly* in its
///   feasible sub-interval first, and the remaining coordinates from a
///   Dirichlet scaled to the leftover mass `β`.
///
/// Coordinates with (near-)zero half-width are pinned to their centre and
/// excluded from the Dirichlet draw.
///
/// An attempt whose Gamma vector sums to zero (with shapes far below 1
/// every coordinate can underflow) or to a non-finite value is a rejected
/// attempt like any other, so λ-inflation and the attempt budget apply to
/// it.
///
/// The sampler keeps each attempt's Gamma shapes and draws, and the row it
/// returns, in buffers it owns: once a first draw has sized them, a draw
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct ConstrainedRowSampler {
    specs: Vec<IntervalSpec>,
    /// Indices sampled through the Dirichlet draw.
    free: Vec<usize>,
    /// Indices fixed to their centre value.
    pinned: Vec<usize>,
    /// Index drawn uniformly first (heterogeneous-K split), if any.
    split: Option<usize>,
    /// Base concentration `K_i` before inflation.
    base_k: f64,
    /// Current inflation multiplier (`λ^inflations`).
    inflation: f64,
    stats: RejectionStats,
    /// One attempt's `Gamma(K·â_j)` per free coordinate, in `free` order.
    gammas: Vec<Gamma>,
    /// One attempt's Gamma draws, normalised to the simplex.
    draws: Vec<f64>,
    /// The row of the latest attempt; pinned coordinates hold their centre.
    values: Vec<f64>,
}

/// Half-widths below this are treated as exact (pinned) coordinates.
const PIN_TOLERANCE: f64 = 1e-12;
/// Concentration floor: keeps Dirichlet parameters valid when an interval is
/// wider than any Dirichlet marginal can spread.
const MIN_K: f64 = 1e-2;
/// `max K_ij / min K_ij` beyond which the split sampler engages (§IV-C2).
const SPLIT_RATIO: f64 = 1e4;
/// Consecutive rejections before one λ-inflation (§IV-C1).
const REJECTS_BEFORE_INFLATE: u64 = 64;
/// λ-inflation factor; the paper suggests 1.1.
const LAMBDA: f64 = 1.1;
/// Hard budget per `sample` call.
const MAX_ATTEMPTS_PER_SAMPLE: u64 = 1_000_000;

impl ConstrainedRowSampler {
    /// Builds a sampler for one interval row.
    ///
    /// # Errors
    ///
    /// * [`DistrError::InvalidInterval`] if a spec is malformed (already
    ///   prevented by [`IntervalSpec::new`], re-checked defensively);
    /// * [`DistrError::InconsistentRow`] if `Σ lo > 1`, `Σ hi < 1`, or the
    ///   centres do not form a probability distribution.
    pub fn new(specs: &[IntervalSpec]) -> Result<Self, DistrError> {
        let lo_sum: f64 = specs.iter().map(|s| s.lo).sum();
        let hi_sum: f64 = specs.iter().map(|s| s.hi).sum();
        let center_sum: f64 = specs.iter().map(|s| s.center).sum();
        if lo_sum > 1.0 + 1e-9 || hi_sum < 1.0 - 1e-9 || (center_sum - 1.0).abs() > 1e-6 {
            return Err(DistrError::InconsistentRow { lo_sum, hi_sum });
        }

        let mut free = Vec::new();
        let mut pinned = Vec::new();
        for (j, spec) in specs.iter().enumerate() {
            if spec.half_width() <= PIN_TOLERANCE || spec.center <= 0.0 {
                pinned.push(j);
            } else {
                free.push(j);
            }
        }

        // Per-coordinate concentrations K_ij = â(1−â)/ε² − 1 over the free
        // coordinates only.
        let ks: Vec<(usize, f64)> = free
            .iter()
            .map(|&j| {
                let s = &specs[j];
                let eps = s.half_width();
                let k = (s.center * (1.0 - s.center) / (eps * eps) - 1.0).max(MIN_K);
                (j, k)
            })
            .collect();

        let (mut split, mut base_k) = (None, MIN_K);
        if !ks.is_empty() {
            let k_min = ks.iter().map(|&(_, k)| k).fold(f64::INFINITY, f64::min);
            let k_max_entry = ks
                .iter()
                .copied()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            // §IV-C2: when one coordinate is vastly more constrained than the
            // rest, taking K_i = min K_ij would leave it with far too much
            // variance — handle it by uniform pre-selection instead. Only
            // worthwhile with at least two other free coordinates (with one
            // remaining coordinate its value is forced by normalisation).
            if k_max_entry.1 / k_min > SPLIT_RATIO && free.len() >= 3 {
                split = Some(k_max_entry.0);
                free.retain(|&j| j != k_max_entry.0);
            }
            base_k = ks
                .iter()
                .filter(|&&(j, _)| Some(j) != split)
                .map(|&(_, k)| k)
                .fold(f64::INFINITY, f64::min);
            if !base_k.is_finite() {
                base_k = MIN_K;
            }
        }

        Ok(ConstrainedRowSampler {
            specs: specs.to_vec(),
            free,
            pinned,
            split,
            base_k,
            inflation: 1.0,
            stats: RejectionStats::default(),
            gammas: Vec::new(),
            draws: Vec::new(),
            values: specs.iter().map(IntervalSpec::center).collect(),
        })
    }

    /// The base concentration `K_i = min_j K_ij` before inflation.
    pub fn base_concentration(&self) -> f64 {
        self.base_k
    }

    /// Index of the split coordinate, if the heterogeneous-K path engaged.
    pub fn split_coordinate(&self) -> Option<usize> {
        self.split
    }

    /// Cumulative rejection statistics.
    pub fn stats(&self) -> RejectionStats {
        self.stats
    }

    /// Forgets the learnt λ-inflation, restoring the freshly-built
    /// concentration `K_i`.
    ///
    /// [`ConstrainedRowSampler::sample`] adapts `K_i` across calls
    /// (§IV-C1), which makes each draw depend on the sampler's history.
    /// Callers that need a draw to be a pure function of the RNG stream —
    /// the batched candidate search evaluates candidate `i` identically no
    /// matter which worker thread picks it up — reset before every draw.
    /// Cumulative [`RejectionStats`] are kept: they are diagnostics, not
    /// sampling state.
    pub fn reset_adaptation(&mut self) {
        self.inflation = 1.0;
    }

    /// Draws one stochastic row: values aligned with the input specs, each
    /// inside its interval, summing to one. The row lives in the sampler's
    /// own buffer until the next draw.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::RejectionBudgetExhausted`] if no in-box
    /// candidate is found within the attempt budget (pathological inputs
    /// only; λ-inflation makes acceptance probability grow towards 1).
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<&[f64], DistrError> {
        let pinned_mass: f64 = self.pinned.iter().map(|&j| self.specs[j].center).sum();

        let mut consecutive_rejects = 0u64;
        let mut attempts_this_call = 0u64;
        loop {
            attempts_this_call += 1;
            self.stats.attempts += 1;
            if attempts_this_call > MAX_ATTEMPTS_PER_SAMPLE {
                return Err(DistrError::RejectionBudgetExhausted {
                    attempts: attempts_this_call,
                });
            }

            if self.try_fill(pinned_mass, rng) {
                self.stats.accepted += 1;
                return Ok(&self.values);
            }
            self.stats.rejections += 1;
            consecutive_rejects += 1;
            if consecutive_rejects >= REJECTS_BEFORE_INFLATE {
                // §IV-C1: smoothly reduce coordinate variances while keeping
                // their relative means, to pull candidates into the box.
                self.inflation *= LAMBDA;
                self.stats.inflations += 1;
                consecutive_rejects = 0;
            }
        }
    }

    /// One candidate draw into `self.values`; returns `true` if all
    /// constraints hold.
    fn try_fill<R: Rng + ?Sized>(&mut self, pinned_mass: f64, rng: &mut R) -> bool {
        let mut remaining = 1.0 - pinned_mass;

        if let Some(j0) = self.split {
            // §IV-C2 step (i): uniform in [lo, hi] ∩ [1 − Σhi', 1 − Σlo'].
            let spec = &self.specs[j0];
            let others_hi: f64 = self.free.iter().map(|&j| self.specs[j].hi).sum();
            let others_lo: f64 = self.free.iter().map(|&j| self.specs[j].lo).sum();
            let lo = spec.lo.max(remaining - others_hi);
            let hi = spec.hi.min(remaining - others_lo);
            if lo > hi {
                return false;
            }
            let v = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            self.values[j0] = v;
            remaining -= v;
        }

        match self.free.len() {
            0 => true,
            1 => {
                // The last free coordinate is forced by normalisation.
                let j = self.free[0];
                self.values[j] = remaining;
                self.specs[j].contains(remaining)
            }
            _ => {
                // §IV-C2 step (ii): β-scaled Dirichlet over the rest. With no
                // split/pinned mass this reduces to the plain §IV-B draw.
                let beta = remaining;
                if beta <= 0.0 {
                    return false;
                }
                let k = self.effective_k(beta);
                // Every shape is checked before any Gamma is drawn.
                self.gammas.clear();
                for &j in &self.free {
                    match Gamma::new((k * self.specs[j].center).max(1e-12)) {
                        Ok(gamma) => self.gammas.push(gamma),
                        Err(_) => return false,
                    }
                }
                if !draw_normalised(&self.gammas, &mut self.draws, rng) {
                    return false;
                }
                for (&j, x) in self.free.iter().zip(&self.draws) {
                    self.values[j] = beta * x;
                    if !self.specs[j].contains(self.values[j]) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Concentration adjusted for the leftover mass β (eq. (12) of the
    /// paper): solving `VRel(βX_j) = ε_j²` for `K` gives
    /// `K_j = (â_j(β−â_j)/ε_j² − 1)/β`; we take the min over free
    /// coordinates, floored, then apply the current λ-inflation.
    fn effective_k(&self, beta: f64) -> f64 {
        let k = if (beta - 1.0).abs() < 1e-12 {
            self.base_k
        } else {
            self.free
                .iter()
                .map(|&j| {
                    let s = &self.specs[j];
                    let eps = s.half_width();
                    ((s.center * (beta - s.center).max(1e-12) / (eps * eps) - 1.0) / beta)
                        .max(MIN_K)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let k = if k.is_finite() { k } else { self.base_k };
        k.max(MIN_K) * self.inflation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dirichlet;
    use imc_stats::RunningStats;
    use rand::{RngCore, SeedableRng};

    fn spec(lo: f64, hi: f64, c: f64) -> IntervalSpec {
        IntervalSpec::new(lo, hi, c).unwrap()
    }

    #[test]
    fn spec_validation() {
        assert!(IntervalSpec::new(0.2, 0.1, 0.15).is_err()); // lo > hi
        assert!(IntervalSpec::new(0.1, 0.2, 0.3).is_err()); // centre outside
        assert!(IntervalSpec::new(-0.1, 0.2, 0.1).is_err()); // negative lo
        assert!(IntervalSpec::new(0.1, 1.2, 0.5).is_err()); // hi > 1
        let s = spec(0.1, 0.3, 0.2);
        assert!((s.half_width() - 0.1).abs() < 1e-15);
        assert!(s.contains(0.1) && s.contains(0.3) && !s.contains(0.31));
    }

    #[test]
    fn rejects_inconsistent_rows() {
        // Σ hi < 1.
        let row = [spec(0.0, 0.3, 0.3), spec(0.0, 0.3, 0.3)];
        assert!(matches!(
            ConstrainedRowSampler::new(&row),
            Err(DistrError::InconsistentRow { .. })
        ));
    }

    #[test]
    fn rejects_non_distribution_centres() {
        // Centres sum to 0.8.
        let row = [spec(0.0, 1.0, 0.4), spec(0.0, 1.0, 0.4)];
        assert!(ConstrainedRowSampler::new(&row).is_err());
    }

    #[test]
    fn samples_respect_box_and_simplex() {
        let row = [
            spec(0.25, 0.35, 0.3),
            spec(0.15, 0.25, 0.2),
            spec(0.45, 0.55, 0.5),
        ];
        let mut sampler = ConstrainedRowSampler::new(&row).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..2000 {
            let x = sampler.sample(&mut rng).unwrap();
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for (v, s) in x.iter().zip(&row) {
                assert!(s.contains(*v), "{v} outside [{}, {}]", s.lo(), s.hi());
            }
        }
        assert_eq!(sampler.stats().accepted, 2000);
    }

    #[test]
    fn samples_spread_across_the_box() {
        // K tuning should produce coordinate std-dev on the order of ε, not
        // collapse onto the centre: check the empirical spread is at least
        // a third of the half width.
        let row = [spec(0.25, 0.35, 0.3), spec(0.65, 0.75, 0.7)];
        let mut sampler = ConstrainedRowSampler::new(&row).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let stats: RunningStats = (0..4000)
            .map(|_| sampler.sample(&mut rng).unwrap()[0])
            .collect();
        assert!((stats.mean() - 0.3).abs() < 0.01, "mean {}", stats.mean());
        assert!(
            stats.population_std_dev() > 0.05 / 3.0,
            "std dev {} too small",
            stats.population_std_dev()
        );
        // And the full range gets visited.
        assert!(stats.min() < 0.27 && stats.max() > 0.33);
    }

    #[test]
    fn pinned_coordinates_stay_exact() {
        let row = [
            spec(0.3, 0.3, 0.3), // zero-width: pinned
            spec(0.3, 0.5, 0.4),
            spec(0.2, 0.4, 0.3),
        ];
        let mut sampler = ConstrainedRowSampler::new(&row).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let x = sampler.sample(&mut rng).unwrap();
            assert_eq!(x[0], 0.3);
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn two_coordinate_row_uses_forced_complement() {
        // With two free coordinates, sampling one forces the other.
        let row = [spec(0.0005, 0.0015, 0.001), spec(0.9985, 0.9995, 0.999)];
        let mut sampler = ConstrainedRowSampler::new(&row).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..1000 {
            let x = sampler.sample(&mut rng).unwrap();
            assert!((x[0] + x[1] - 1.0).abs() < 1e-12);
            assert!(row[0].contains(x[0]));
            assert!(row[1].contains(x[1]));
        }
    }

    #[test]
    fn heterogeneous_k_engages_split_sampler() {
        // Coordinate 0 is extremely constrained relative to the others:
        // K_0 ≈ 0.001·0.999/1e-10 ≈ 1e7 vs K ≈ 25 for the wide ones.
        let row = [
            spec(0.000_995, 0.001_005, 0.001),
            spec(0.2, 0.4, 0.3),
            spec(0.3, 0.5, 0.4),
            spec(0.199, 0.399, 0.299),
        ];
        let mut sampler = ConstrainedRowSampler::new(&row).unwrap();
        assert_eq!(sampler.split_coordinate(), Some(0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..1000 {
            let x = sampler.sample(&mut rng).unwrap();
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for (v, s) in x.iter().zip(&row) {
                assert!(s.contains(*v));
            }
        }
        // The split coordinate must actually vary across its narrow interval.
        let stats: RunningStats = (0..2000)
            .map(|_| sampler.sample(&mut rng).unwrap()[0])
            .collect();
        assert!(stats.max() - stats.min() > 1e-6);
    }

    #[test]
    fn inflation_rescues_tight_asymmetric_boxes() {
        // A narrow box far from the Dirichlet's natural spread: acceptance
        // relies on λ-inflation kicking in rather than looping forever.
        let row = [
            spec(0.499, 0.501, 0.5),
            spec(0.2495, 0.2505, 0.25),
            spec(0.2485, 0.2515, 0.25),
        ];
        let mut sampler = ConstrainedRowSampler::new(&row).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let x = sampler.sample(&mut rng).unwrap();
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_pinned_row_returns_centres() {
        let row = [spec(0.25, 0.25, 0.25), spec(0.75, 0.75, 0.75)];
        let mut sampler = ConstrainedRowSampler::new(&row).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = sampler.sample(&mut rng).unwrap();
        assert_eq!(x, vec![0.25, 0.75]);
    }

    /// Property sweep (seeded, no proptest offline): random interval rows
    /// must always sample members of their box-constrained simplex.
    #[test]
    fn random_rows_always_yield_members() {
        let mut meta = rand::rngs::StdRng::seed_from_u64(64);
        for case in 0..64u64 {
            let k = meta.gen_range(2..6usize);
            let centers: Vec<f64> = (0..k).map(|_| meta.gen_range(0.05..1.0)).collect();
            let rel_eps: f64 = meta.gen_range(0.01..0.5);
            // Normalise to a distribution, give each coordinate ±rel_eps·c.
            let total: f64 = centers.iter().sum();
            let specs: Vec<IntervalSpec> = centers
                .iter()
                .map(|&c| {
                    let c = c / total;
                    let eps = rel_eps * c;
                    IntervalSpec::new((c - eps).max(0.0), (c + eps).min(1.0), c).unwrap()
                })
                .collect();
            let mut sampler = ConstrainedRowSampler::new(&specs).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            let x = sampler.sample(&mut rng).unwrap();
            assert!(
                (x.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "case {case}: {x:?}"
            );
            for (v, s) in x.iter().zip(&specs) {
                assert!(s.contains(*v), "case {case}: {v} outside {s:?}");
            }
        }
    }

    /// Reference sampler: the same rejection loop, with a fresh `Dirichlet`
    /// built per attempt, whose `sample` redraws a vector that underflowed.
    /// The buffered sampler must match it bit for bit.
    fn reference_sample<R: Rng + ?Sized>(
        s: &mut ConstrainedRowSampler,
        rng: &mut R,
    ) -> Result<Vec<f64>, DistrError> {
        let mut values = vec![0.0; s.specs.len()];
        for &j in &s.pinned {
            values[j] = s.specs[j].center;
        }
        let pinned_mass: f64 = s.pinned.iter().map(|&j| s.specs[j].center).sum();
        let mut consecutive_rejects = 0u64;
        let mut attempts_this_call = 0u64;
        loop {
            attempts_this_call += 1;
            s.stats.attempts += 1;
            if attempts_this_call > MAX_ATTEMPTS_PER_SAMPLE {
                return Err(DistrError::RejectionBudgetExhausted {
                    attempts: attempts_this_call,
                });
            }
            if reference_try_fill(s, &mut values, pinned_mass, rng) {
                s.stats.accepted += 1;
                return Ok(values);
            }
            s.stats.rejections += 1;
            consecutive_rejects += 1;
            if consecutive_rejects >= REJECTS_BEFORE_INFLATE {
                s.inflation *= LAMBDA;
                s.stats.inflations += 1;
                consecutive_rejects = 0;
            }
        }
    }

    fn reference_try_fill<R: Rng + ?Sized>(
        s: &ConstrainedRowSampler,
        values: &mut [f64],
        pinned_mass: f64,
        rng: &mut R,
    ) -> bool {
        let mut remaining = 1.0 - pinned_mass;
        if let Some(j0) = s.split {
            let spec = &s.specs[j0];
            let others_hi: f64 = s.free.iter().map(|&j| s.specs[j].hi).sum();
            let others_lo: f64 = s.free.iter().map(|&j| s.specs[j].lo).sum();
            let lo = spec.lo.max(remaining - others_hi);
            let hi = spec.hi.min(remaining - others_lo);
            if lo > hi {
                return false;
            }
            let v = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            values[j0] = v;
            remaining -= v;
        }
        match s.free.len() {
            0 => true,
            1 => {
                let j = s.free[0];
                values[j] = remaining;
                s.specs[j].contains(remaining)
            }
            _ => {
                let beta = remaining;
                if beta <= 0.0 {
                    return false;
                }
                let k = s.effective_k(beta);
                let alphas: Vec<f64> = s
                    .free
                    .iter()
                    .map(|&j| (k * s.specs[j].center).max(1e-12))
                    .collect();
                let dirichlet = match Dirichlet::new(alphas) {
                    Ok(d) => d,
                    Err(_) => return false,
                };
                let draw = dirichlet.sample(rng);
                for (&j, x) in s.free.iter().zip(&draw) {
                    values[j] = beta * x;
                    if !s.specs[j].contains(values[j]) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// A row of `centers` (normalised) with half-widths `rel_eps · c`.
    fn relative_row(centers: &[f64], rel_eps: f64) -> Vec<IntervalSpec> {
        let total: f64 = centers.iter().sum();
        centers
            .iter()
            .map(|&c| {
                let c = c / total;
                let eps = rel_eps * c;
                spec((c - eps).max(0.0), (c + eps).min(1.0), c)
            })
            .collect()
    }

    /// Draws `draws` rows from `sampler` and from a clone of it through
    /// [`reference_sample`], each on its own copy of one seeded stream, and
    /// asserts after every draw that both returned the same bits, kept the
    /// same statistics and λ, and left their streams at the same `u64`.
    /// Returns the sampler's statistics.
    fn assert_matches_reference(
        mut sampler: ConstrainedRowSampler,
        seed: u64,
        draws: usize,
        reset: bool,
    ) -> RejectionStats {
        let mut reference = sampler.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        for draw in 0..draws {
            if reset {
                sampler.reset_adaptation();
                reference.reset_adaptation();
            }
            let got = sampler.sample(&mut rng).map(|x| x.to_vec());
            let want = reference_sample(&mut reference, &mut reference_rng);
            let bits = |r: &Result<Vec<f64>, DistrError>| {
                r.as_ref()
                    .map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .map_err(Clone::clone)
            };
            assert_eq!(bits(&got), bits(&want), "seed {seed}, draw {draw}");
            assert_eq!(
                sampler.stats(),
                reference.stats(),
                "seed {seed}, draw {draw}"
            );
            assert_eq!(sampler.inflation.to_bits(), reference.inflation.to_bits());
            assert_eq!(
                rng.clone().next_u64(),
                reference_rng.clone().next_u64(),
                "seed {seed}, draw {draw}: the streams parted"
            );
        }
        sampler.stats()
    }

    /// The buffered sampler draws exactly what a fresh `Dirichlet` per
    /// attempt drew, on every path of `try_fill`. Rows whose whole Gamma
    /// vector underflows are left out: there the reference redraws inside
    /// one attempt and the sampler rejects the attempt, by design.
    #[test]
    fn buffered_draws_match_the_per_attempt_reference() {
        let mut meta = rand::rngs::StdRng::seed_from_u64(2018);
        for case in 0..48u64 {
            // Plain rows: every coordinate free, β = 1.
            let k = meta.gen_range(2..7usize);
            let centers: Vec<f64> = (0..k).map(|_| meta.gen_range(0.05..1.0)).collect();
            let row = relative_row(&centers, meta.gen_range(0.01..0.5));
            let sampler = ConstrainedRowSampler::new(&row).unwrap();
            assert!(sampler.pinned.is_empty() && sampler.split.is_none());
            assert_matches_reference(sampler.clone(), case, 20, false);
            // The batched search resets λ before every draw.
            assert_matches_reference(sampler, case, 20, true);

            // Pinned coordinates: β < 1, so `effective_k` recomputes K.
            let mut row = relative_row(&centers, meta.gen_range(0.01..0.5));
            let mass: f64 = meta.gen_range(0.05..0.5);
            for s in &mut row {
                let c = s.center() * (1.0 - mass);
                *s = spec(s.lo() * (1.0 - mass), s.hi() * (1.0 - mass), c);
            }
            row.push(spec(mass, mass, mass));
            let sampler = ConstrainedRowSampler::new(&row).unwrap();
            assert!(!sampler.pinned.is_empty());
            assert_matches_reference(sampler, case, 20, false);
        }

        // Split rows: the uniform pre-draw changes β, and with it K, on
        // every attempt.
        let split_rows = [
            vec![
                spec(0.000_995, 0.001_005, 0.001),
                spec(0.2, 0.4, 0.3),
                spec(0.3, 0.5, 0.4),
                spec(0.199, 0.399, 0.299),
            ],
            vec![
                spec(0.2, 0.4, 0.3),
                spec(0.099_999, 0.100_001, 0.1),
                spec(0.1, 0.5, 0.3),
                spec(0.1, 0.5, 0.3),
            ],
        ];
        for (case, row) in split_rows.iter().enumerate() {
            let sampler = ConstrainedRowSampler::new(row).unwrap();
            assert!(sampler.split.is_some());
            for seed in 0..8 {
                assert_matches_reference(sampler.clone(), seed + 100 * case as u64, 50, false);
            }
        }

        // Shapes below 1 (the Gamma boost path), far from underflow.
        let wide = [
            spec(0.0, 0.2, 0.1),
            spec(0.0, 0.4, 0.2),
            spec(0.4, 1.0, 0.7),
        ];
        let sampler = ConstrainedRowSampler::new(&wide).unwrap();
        assert!(wide
            .iter()
            .all(|s| sampler.base_concentration() * s.center() < 1.0));
        for seed in 0..8 {
            assert_matches_reference(sampler.clone(), seed, 50, false);
        }

        // A box that λ-inflation pulls draws into: K follows the loose
        // third coordinate, so the two tight ones reject most draws.
        let third = 1.0 / 3.0;
        let tight = [
            spec(third - 2e-3, third + 2e-3, third),
            spec(third - 2e-3, third + 2e-3, third),
            spec(third - 0.05, third + 0.05, third),
        ];
        let sampler = ConstrainedRowSampler::new(&tight).unwrap();
        for seed in 0..4 {
            let stats = assert_matches_reference(sampler.clone(), seed, 5, seed % 2 == 1);
            assert!(stats.inflations > 0, "seed {seed}: {stats:?}");
        }

        // A non-finite shape rejects the attempt before any Gamma is drawn,
        // until the attempt budget runs out.
        for row in [&tight[..], &split_rows[0][..]] {
            let mut sampler = ConstrainedRowSampler::new(row).unwrap();
            sampler.inflation = f64::INFINITY;
            let stats = assert_matches_reference(sampler, 7, 1, false);
            assert_eq!(stats.accepted, 0);
            assert_eq!(stats.rejections, MAX_ATTEMPTS_PER_SAMPLE);
        }
    }
}
