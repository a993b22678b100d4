//! The paper's illustrative example (Fig. 1): a 4-state chain where the
//! rare goal `s2` is guarded by a low-probability transition and a loop.
//!
//! ```text
//! s3 <-(1-a)- s0 -(a)-> s1 -(c)-> s2        s2, s3 absorbing
//!              ^---------(1-c)----'
//! ```
//!
//! `γ = P(reach s2 from s0) = a·c / (1 − a·d)` with `d = 1 − c`.

use imc_logic::Property;
use imc_markov::{Dtmc, DtmcBuilder, Imc, ModelError, StateSet};

/// Index of the initial state `s0`.
pub const S0: usize = 0;
/// Index of the intermediate state `s1`.
pub const S1: usize = 1;
/// Index of the goal state `s2`.
pub const S2: usize = 2;
/// Index of the sink state `s3`.
pub const S3: usize = 3;

/// The paper's Table I/II parameters: centre `â = 3e-4`.
pub const A_HAT: f64 = 3e-4;
/// Centre `ĉ = 0.0498`.
pub const C_HAT: f64 = 0.0498;
/// Half-width of the `a` interval: `a ∈ [0.5, 5.5]·10⁻⁴`.
pub const EPS_A: f64 = 2.5e-4;
/// Half-width of the `c` interval: `c ∈ [0.0493, 0.0503]`.
pub const EPS_C: f64 = 5e-4;
/// True value of `a` in the experiments (§III-B/§VI-A).
pub const A_TRUE: f64 = 1e-4;
/// True value of `c` in the experiments.
pub const C_TRUE: f64 = 0.05;

/// Builds the chain for given parameters `a` (escape from `s0`) and `c`
/// (success from `s1`).
///
/// # Panics
///
/// Panics if `a` or `c` is outside `(0, 1)`.
pub fn dtmc(a: f64, c: f64) -> Dtmc {
    assert!(a > 0.0 && a < 1.0, "a must be in (0, 1), got {a}");
    assert!(c > 0.0 && c < 1.0, "c must be in (0, 1), got {c}");
    let mut builder = DtmcBuilder::new(4);
    builder
        .set_initial(S0)
        .add_transition(S0, S1, a)
        .add_transition(S0, S3, 1.0 - a)
        .add_transition(S1, S2, c)
        .add_transition(S1, S0, 1.0 - c)
        .add_self_loop(S2)
        .add_self_loop(S3)
        .add_label(S2, "goal")
        .add_label(S3, "sink");
    builder
        .build()
        .expect("illustrative chain is well-formed by construction")
}

/// Closed-form `γ(a, c) = a·c / (1 − a·(1−c))`.
pub fn gamma(a: f64, c: f64) -> f64 {
    a * c / (1.0 - a * (1.0 - c))
}

/// The IMC `[Â]` centred on `(a_hat, c_hat)` with half-widths
/// `(eps_a, eps_c)` on the `a`- and `c`-parametrised transitions (and the
/// complementary transitions of the same rows).
///
/// # Errors
///
/// Propagates interval-consistency errors (impossible for valid inputs).
pub fn imc(a_hat: f64, c_hat: f64, eps_a: f64, eps_c: f64) -> Result<Imc, ModelError> {
    Imc::from_center(&dtmc(a_hat, c_hat), move |from, _| match from {
        S0 => eps_a,
        S1 => eps_c,
        _ => 0.0,
    })
}

/// The paper's exact experimental IMC (Table I/II parameters).
///
/// # Errors
///
/// Never fails for the built-in constants; kept fallible for uniformity.
pub fn paper_imc() -> Result<Imc, ModelError> {
    imc(A_HAT, C_HAT, EPS_A, EPS_C)
}

/// The property "reach `s2`" (with the sink as explicit avoid so traces
/// decide in finite time).
pub fn property() -> Property {
    Property::reach_avoid(
        StateSet::from_states(4, [S2]),
        StateSet::from_states(4, [S3]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_numeric::reach_avoid_probs;

    #[test]
    fn closed_form_matches_numeric_engine() {
        for &(a, c) in &[(1e-4, 0.05), (0.3, 0.7), (0.011, 0.002)] {
            let chain = dtmc(a, c);
            let solved = reach_avoid_probs(&chain, chain.labeled_states("goal"), &StateSet::new(4))
                .unwrap()[S0];
            assert!(
                (solved - gamma(a, c)).abs() < 1e-14,
                "a={a}, c={c}: {solved} vs {}",
                gamma(a, c)
            );
        }
    }

    #[test]
    fn paper_values() {
        // §III-B: γ(1e-4, 0.05) ≈ 5.0005e-6; γ(Â) = 1.4944e-5.
        assert!((gamma(A_TRUE, C_TRUE) - 5.0005e-6).abs() < 1e-9);
        assert!((gamma(A_HAT, C_HAT) - 1.4944e-5).abs() < 5e-9);
    }

    #[test]
    fn paper_imc_contains_truth_and_centre() {
        let imc = paper_imc().unwrap();
        assert!(imc.contains(&dtmc(A_TRUE, C_TRUE)));
        assert!(imc.contains(&dtmc(A_HAT, C_HAT)));
        // Interval ends.
        assert!(imc.contains(&dtmc(A_HAT - EPS_A, C_HAT + EPS_C)));
        // Outside.
        assert!(!imc.contains(&dtmc(6e-4, C_HAT)));
    }

    #[test]
    fn property_decides_sample_paths() {
        use imc_logic::Verdict;
        use imc_markov::Path;
        let prop = property();
        assert_eq!(
            prop.evaluate(&Path::new(vec![0, 1, 0, 1, 2])),
            Verdict::Accepted
        );
        assert_eq!(prop.evaluate(&Path::new(vec![0, 3])), Verdict::Rejected);
    }
}
