//! Okamoto / Chernoff–Hoeffding absolute-error bounds.
//!
//! For a Bernoulli mean estimated from `n` samples, the Okamoto bound [21 in
//! the paper] states `P(|p̂ − p| > ε) ≤ 2 exp(−2 n ε²)`. Solving for each
//! variable gives the two helpers below. The paper uses the bound twice:
//! to size SMC experiments, and in §II-B to derive the learning precision
//! `ε` of each transition from the visit count `n_i` and confidence `δ`.

/// The absolute error `ε` guaranteed with confidence `1 − δ` after `n`
/// samples: `ε = √(ln(2/δ) / (2n))`.
///
/// # Panics
///
/// Panics if `n == 0` or `delta ∉ (0, 1)`.
///
/// # Example
///
/// The paper's §II-B example: `δ = 1e-5`, `n = 1e4` gives `ε ≈ 0.025`.
///
/// ```
/// let eps = imc_stats::okamoto_epsilon(10_000, 1e-5);
/// assert!((eps - 0.0247).abs() < 1e-3);
/// ```
pub fn okamoto_epsilon(n: usize, delta: f64) -> f64 {
    assert!(n > 0, "sample size must be positive");
    assert!(
        delta > 0.0 && delta < 1.0,
        "confidence parameter must lie in (0, 1), got {delta}"
    );
    ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

/// The number of samples needed so that `P(|p̂ − p| > ε) ≤ δ`:
/// `n = ⌈ln(2/δ) / (2ε²)⌉`.
///
/// # Panics
///
/// Panics if `epsilon ∉ (0, 1)` or `delta ∉ (0, 1)`.
///
/// # Example
///
/// ```
/// let n = imc_stats::okamoto_sample_size(0.01, 0.05);
/// assert_eq!(n, 18_445);
/// ```
pub fn okamoto_sample_size(epsilon: f64, delta: f64) -> usize {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "absolute error must lie in (0, 1), got {epsilon}"
    );
    assert!(
        delta > 0.0 && delta < 1.0,
        "confidence parameter must lie in (0, 1), got {delta}"
    );
    ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_and_sample_size_are_inverses() {
        let delta = 1e-3;
        for &n in &[100usize, 1_000, 50_000] {
            let eps = okamoto_epsilon(n, delta);
            let back = okamoto_sample_size(eps, delta);
            // Ceiling can add at most one sample.
            assert!(back >= n && back <= n + 1, "n={n} -> eps={eps} -> {back}");
        }
    }

    #[test]
    fn paper_learning_example() {
        // §II-B: δ = 1e-5, n_i = 1e4 => ε ≈ 0.025.
        let eps = okamoto_epsilon(10_000, 1e-5);
        assert!((eps - 0.025).abs() < 5e-4, "got {eps}");
    }

    #[test]
    fn epsilon_decreases_with_n() {
        assert!(okamoto_epsilon(100, 0.01) > okamoto_epsilon(10_000, 0.01));
    }

    #[test]
    fn epsilon_decreases_with_larger_delta() {
        assert!(okamoto_epsilon(100, 1e-9) > okamoto_epsilon(100, 0.1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_samples_rejected() {
        okamoto_epsilon(0, 0.05);
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn bad_delta_rejected() {
        okamoto_sample_size(0.1, 1.5);
    }
}
