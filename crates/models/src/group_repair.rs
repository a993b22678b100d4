//! The group repair model (§VI-B): a 125-state failure/repair CTMC with
//! three component types, ported verbatim from the PRISM module in the
//! paper's appendix.
//!
//! Three subsystems of `n = 4` components fail independently with rates
//! `(α², α, α)` and are repaired with rate `μ = 1`, with priority by type:
//!
//! * type 1 is repaired *as a group* (all failed components at once) as
//!   soon as at least two have failed;
//! * type 2 likewise resets once two have failed, but only while type 1 is
//!   not pending repair (`state1 < 2`);
//! * type 3 is repaired one component at a time, only while neither type 1
//!   nor type 2 is pending (`state1 < 2 ∧ state2 < 2`).
//!
//! The property is `P=?[ "init" ∧ (X ¬"init" U "failure") ]` — from the
//! all-up state, all twelve components fail before the system returns to
//! all-up. For `α = 0.1` the paper reports `γ = 1.179e-7`.

use imc_ctmc::{CtmcModel, ExploredCtmc};
use imc_logic::Property;
use imc_markov::{Dtmc, Imc, ModelError};

/// Components per type.
pub const N: u8 = 4;
/// Repair rate `μ`.
pub const MU: f64 = 1.0;
/// The paper's true failure-rate parameter.
pub const ALPHA_TRUE: f64 = 0.1;
/// The paper's learnt estimate `α̂`.
pub const ALPHA_HAT: f64 = 0.0995;
/// Lower end of the paper's 99.9% confidence interval on `α`.
pub const ALPHA_LO: f64 = 0.098_52;
/// Upper end of the paper's 99.9% confidence interval on `α`.
pub const ALPHA_HI: f64 = 0.100_48;
/// Exact `γ` at `α = 0.1` as reported by the paper (PRISM).
pub const GAMMA_PAPER: f64 = 1.179e-7;

/// Structured state: failed components per type.
pub type State3 = [u8; 3];

/// The guarded-command model for a given failure parameter `α`.
///
/// # Panics
///
/// Panics if `alpha <= 0`.
pub fn model(alpha: f64) -> CtmcModel<State3> {
    assert!(alpha > 0.0, "alpha must be positive, got {alpha}");
    let alpha2 = alpha * alpha;
    CtmcModel::new([0u8; 3])
        // module type1
        .command(
            "fail1",
            |s: &State3| s[0] < N,
            move |s| f64::from(N - s[0]) * alpha2,
            |s| [s[0] + 1, s[1], s[2]],
        )
        .command(
            "repair1",
            |s: &State3| s[0] >= 2,
            |_| MU,
            |s| [0, s[1], s[2]],
        )
        // module type2
        .command(
            "fail2",
            |s: &State3| s[1] < N,
            move |s| f64::from(N - s[1]) * alpha,
            |s| [s[0], s[1] + 1, s[2]],
        )
        .command(
            "repair2",
            |s: &State3| s[1] >= 2 && s[0] < 2,
            |_| MU,
            |s| [s[0], 0, s[2]],
        )
        // module type3
        .command(
            "fail3",
            |s: &State3| s[2] < N,
            move |s| f64::from(N - s[2]) * alpha,
            |s| [s[0], s[1], s[2] + 1],
        )
        .command(
            "repair3",
            |s: &State3| s[2] > 0 && s[1] < 2 && s[0] < 2,
            |_| MU,
            |s| [s[0], s[1], s[2] - 1],
        )
        .label("init", |s: &State3| *s == [0, 0, 0])
        .label("failure", |s: &State3| *s == [N, N, N])
}

/// Explores the CTMC (125 states for any positive `α`).
///
/// # Panics
///
/// Panics if exploration fails — impossible for this closed model.
pub fn explored(alpha: f64) -> ExploredCtmc<State3> {
    model(alpha)
        .explore(1_000)
        .expect("group repair state space is 125 states")
}

/// The embedded jump chain at parameter `α`, with `init`/`failure` labels.
///
/// Reach-before-return probabilities of the CTMC coincide with those of
/// this chain, which is what the paper's property measures.
pub fn jump_chain(alpha: f64) -> Dtmc {
    explored(alpha)
        .ctmc
        .embedded_dtmc()
        .expect("embedded chain of a valid CTMC is well-formed")
}

/// The paper's property: all components fail before returning to all-up.
pub fn property(chain: &Dtmc) -> Property {
    Property::failure_before_return(chain, "failure")
}

/// The IMC `[A(α̂)]` induced by the confidence interval
/// `α ∈ [alpha_lo, alpha_hi]`, centred on `A(alpha_hat)`.
///
/// # Errors
///
/// Propagates model-construction errors (impossible for valid parameters).
pub fn imc(alpha_hat: f64, alpha_lo: f64, alpha_hi: f64) -> Result<Imc, ModelError> {
    crate::parametric_imc(jump_chain, alpha_hat, alpha_lo, alpha_hi, 9)
}

/// The paper's exact IMC (centred on `α̂ = 0.0995`).
///
/// # Errors
///
/// Never fails for the built-in constants; kept fallible for uniformity.
pub fn paper_imc() -> Result<Imc, ModelError> {
    imc(ALPHA_HAT, ALPHA_LO, ALPHA_HI)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_markov::StateSet;
    use imc_numeric::reach_before_return;

    #[test]
    fn state_space_is_125() {
        let explored = explored(ALPHA_TRUE);
        assert_eq!(explored.ctmc.num_states(), 125);
        assert_eq!(explored.ctmc.labeled_states("failure").len(), 1);
        assert_eq!(explored.ctmc.labeled_states("init").len(), 1);
        assert_eq!(explored.index_of(&[0, 0, 0]), Some(0));
    }

    #[test]
    fn gamma_matches_prism_value() {
        // The paper (via PRISM): γ = 1.179e-7 at α = 0.1.
        let chain = jump_chain(ALPHA_TRUE);
        let gamma = reach_before_return(&chain, chain.labeled_states("failure")).unwrap();
        assert!(
            (gamma - GAMMA_PAPER).abs() / GAMMA_PAPER < 5e-3,
            "γ = {gamma:e}, paper says {GAMMA_PAPER:e}"
        );
    }

    #[test]
    fn gamma_at_alpha_hat_matches_paper() {
        // γ(Â) = 1.117e-7 at α̂ = 0.0995 (§VI-B).
        let chain = jump_chain(ALPHA_HAT);
        let gamma = reach_before_return(&chain, chain.labeled_states("failure")).unwrap();
        assert!(
            (gamma - 1.117e-7).abs() / 1.117e-7 < 5e-3,
            "γ(Â) = {gamma:e}"
        );
    }

    #[test]
    fn imc_contains_all_alpha_chains_in_interval() {
        let imc = paper_imc().unwrap();
        for &alpha in &[ALPHA_LO, ALPHA_HAT, ALPHA_TRUE, ALPHA_HI] {
            assert!(
                imc.contains(&jump_chain(alpha)),
                "A({alpha}) escapes the IMC"
            );
        }
    }

    #[test]
    fn jump_chain_rows_are_stochastic() {
        let chain = jump_chain(ALPHA_TRUE);
        for s in 0..chain.num_states() {
            assert!(
                (chain.row(s).unwrap().sum() - 1.0).abs() < 1e-9,
                "state {s}"
            );
        }
        // The failure state is NOT absorbing in the CTMC (repairs fire),
        // so the property needs the avoid/target monitor, not absorption.
        let failure = chain.labeled_states("failure").iter().next().unwrap();
        assert!(!chain.row(failure).unwrap().is_empty());
    }

    #[test]
    fn property_is_x_reach_avoid_on_init() {
        let chain = jump_chain(ALPHA_TRUE);
        let prop = property(&chain);
        match prop {
            imc_logic::Property::XReachAvoid { ref avoid, .. } => {
                assert!(avoid.contains(chain.initial()));
                assert_eq!(avoid.len(), 1);
            }
            ref other => panic!("unexpected property {other:?}"),
        }
        // Sanity: γ > 0 (failure reachable before return).
        let gamma = reach_before_return(&chain, chain.labeled_states("failure")).unwrap();
        assert!(gamma > 0.0);
        let _ = StateSet::new(1);
    }
}
