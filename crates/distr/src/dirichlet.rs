use rand::Rng;

use crate::{DistrError, Gamma};

/// A Dirichlet distribution over the probability simplex.
///
/// Constructed from a vector of positive concentration parameters
/// `α = (α_0, …, α_m)`; samples are produced as normalised independent
/// Gamma(α_j) draws. The paper (§IV-B) parametrises candidates by
/// `α = K_i · â_i`, so the *relative* expected coordinate is
/// `E[X_j] = α_j / Σα` and the relative variance shrinks as `K_i` grows.
///
/// # Example
///
/// ```
/// use imc_distr::Dirichlet;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), imc_distr::DistrError> {
/// let dirichlet = Dirichlet::new(vec![20.0, 30.0, 50.0])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let x = dirichlet.sample(&mut rng);
/// assert_eq!(x.len(), 3);
/// assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    gammas: Vec<Gamma>,
    alphas: Vec<f64>,
}

impl Dirichlet {
    /// Creates a Dirichlet sampler from concentration parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError::InvalidParameter`] if fewer than two parameters
    /// are supplied or any is non-positive/non-finite.
    pub fn new(alphas: Vec<f64>) -> Result<Self, DistrError> {
        if alphas.len() < 2 {
            return Err(DistrError::InvalidParameter {
                name: "alphas.len()",
                value: alphas.len() as f64,
            });
        }
        let gammas = alphas
            .iter()
            .map(|&a| Gamma::new(a))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Dirichlet { gammas, alphas })
    }

    /// The concentration parameters.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Dimension of the sampled vectors.
    pub fn len(&self) -> usize {
        self.alphas.len()
    }

    /// Returns `true` if the distribution has no coordinates (never: the
    /// constructor requires at least two).
    pub fn is_empty(&self) -> bool {
        self.alphas.is_empty()
    }

    /// Mean of coordinate `j`: `α_j / Σα`.
    pub fn mean(&self, j: usize) -> f64 {
        self.alphas[j] / self.alphas.iter().sum::<f64>()
    }

    /// Variance of coordinate `j`: `α_j (β − α_j) / (β² (β + 1))` with
    /// `β = Σα` — the `V_Rel` of §IV-B.
    pub fn variance(&self, j: usize) -> f64 {
        let beta: f64 = self.alphas.iter().sum();
        let a = self.alphas[j];
        a * (beta - a) / (beta * beta * (beta + 1.0))
    }

    /// Draws one point on the simplex.
    ///
    /// A vector whose every coordinate underflowed is drawn again, so with
    /// all `α` far below 1 a call can take very long;
    /// [`ConstrainedRowSampler`](crate::ConstrainedRowSampler) counts such a
    /// vector as a rejected attempt instead.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut draws = Vec::with_capacity(self.gammas.len());
        while !draw_normalised(&self.gammas, &mut draws, rng) {}
        draws
    }
}

/// Draws one variate of each Gamma in `gammas`, in order, into `draws`
/// and divides each by their sum: one point on the simplex.
///
/// Returns `false` if the sum is zero or not finite. With shape < 1 a
/// Gamma draw can underflow to exactly 0, and a zero total (all
/// coordinates underflowed) cannot be normalised; `draws` then holds the
/// raw draws. Allocates nothing once `draws` has room for `gammas.len()`
/// values.
pub(crate) fn draw_normalised<R: Rng + ?Sized>(
    gammas: &[Gamma],
    draws: &mut Vec<f64>,
    rng: &mut R,
) -> bool {
    draws.clear();
    draws.extend(gammas.iter().map(|g| g.sample(rng)));
    let sum: f64 = draws.iter().sum();
    if !(sum > 0.0 && sum.is_finite()) {
        return false;
    }
    for d in draws.iter_mut() {
        *d /= sum;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_stats::RunningStats;
    use rand::SeedableRng;

    #[test]
    fn coordinates_match_analytic_moments() {
        let d = Dirichlet::new(vec![2.0, 3.0, 5.0]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut stats = [RunningStats::new(); 3];
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            for (s, v) in stats.iter_mut().zip(&x) {
                s.push(*v);
            }
        }
        for (j, stat) in stats.iter().enumerate() {
            assert!(
                (stat.mean() - d.mean(j)).abs() < 0.01,
                "coordinate {j}: {} vs {}",
                stat.mean(),
                d.mean(j)
            );
            assert!(
                (stat.population_variance() - d.variance(j)).abs() < 0.002,
                "coordinate {j} variance"
            );
        }
    }

    #[test]
    fn concentration_shrinks_variance() {
        // Multiplying α by K preserves means and divides variances ~K-fold:
        // the property the paper's K_i tuning relies on (§IV-B).
        let low = Dirichlet::new(vec![1.0, 2.0]).unwrap();
        let high = Dirichlet::new(vec![100.0, 200.0]).unwrap();
        assert!((low.mean(0) - high.mean(0)).abs() < 1e-15);
        assert!(low.variance(0) > 50.0 * high.variance(0));
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Dirichlet::new(vec![]).is_err());
        assert!(Dirichlet::new(vec![1.0]).is_err());
        assert!(Dirichlet::new(vec![1.0, 0.0]).is_err());
        assert!(Dirichlet::new(vec![1.0, -1.0]).is_err());
    }

    /// `sample` is the normalised Gamma vector bit for bit: one Gamma per
    /// coordinate drawn in order, summed left to right, each draw divided
    /// by the sum. The row sampler's buffered draw shares this step.
    #[test]
    fn sample_is_the_in_order_normalised_gamma_vector() {
        let mut meta = rand::rngs::StdRng::seed_from_u64(77);
        for case in 0..64u64 {
            let k = meta.gen_range(2..8usize);
            let alphas: Vec<f64> = (0..k).map(|_| meta.gen_range(0.05..50.0)).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            let mut expected_rng = rng.clone();
            let got = Dirichlet::new(alphas.clone()).unwrap().sample(&mut rng);
            let draws: Vec<f64> = alphas
                .iter()
                .map(|&a| Gamma::new(a).unwrap().sample(&mut expected_rng))
                .collect();
            let mut sum = 0.0;
            for x in &draws {
                sum += x;
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want: Vec<f64> = draws.iter().map(|x| x / sum).collect();
            assert_eq!(bits(&got), bits(&want), "case {case}");
            assert_eq!(rng, expected_rng, "case {case}");
        }
    }

    /// Property sweep (seeded, no proptest offline): random concentration
    /// vectors must always sample onto the simplex.
    #[test]
    fn samples_lie_on_simplex() {
        let mut meta = rand::rngs::StdRng::seed_from_u64(1000);
        for case in 0..256u64 {
            let k = meta.gen_range(2..8usize);
            let alphas: Vec<f64> = (0..k).map(|_| meta.gen_range(0.05..50.0)).collect();
            let d = Dirichlet::new(alphas.clone()).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            let x = d.sample(&mut rng);
            assert!(
                (x.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "case {case} ({alphas:?}): {x:?}"
            );
            assert!(
                x.iter().all(|&v| (0.0..=1.0).contains(&v)),
                "case {case} ({alphas:?}): {x:?}"
            );
        }
    }
}
