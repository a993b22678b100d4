//! A synthetic 70-state Secure Water Treatment (SWaT) model (§VI-D).
//!
//! The paper learns a 70-state DTMC/IMC abstraction of the SWaT testbed
//! from proprietary execution logs and estimates the probability that the
//! water level indicator LIT301 exceeds 800 within 30 steps, reporting
//! `γ(Â) ∈ [5e-3, 2.5e-2]`. The logs are not public, so this module
//! provides a *synthetic ground truth* with the same interface: 70 states
//! (14 discretised level buckets × 5 operating modes), an initial failure
//! state that is repaired in about 5 steps, and a level-threshold property
//! whose probability is calibrated into the paper's reported range
//! (validated by a unit test against the numeric engine).
//!
//! The substitution preserves the paper's pipeline exactly: the ground
//! truth is only ever used to (a) generate logs, from which `imc-learn`
//! produces `Â ± ε` exactly as the authors did from testbed data, and
//! (b) validate coverage afterwards.
//!
//! Level mapping: bucket `b` corresponds to LIT301 ≈ `500 + 25·b` mm;
//! bucket 13 (≈ 825 mm) is the `"high"`-labelled overflow region.

use imc_logic::Property;
use imc_markov::{Dtmc, DtmcBuilder};

/// Number of discretised level buckets.
pub const BUCKETS: usize = 14;
/// Number of operating modes.
pub const MODES: usize = 5;
/// Total states (70, matching the paper's learnt abstraction).
pub const NUM_STATES: usize = BUCKETS * MODES;
/// The step bound of the property (30 step units).
pub const STEP_BOUND: usize = 30;

/// Operating modes of the abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nominal operation: level mean-reverts downwards.
    Normal = 0,
    /// Pump degradation: inflow exceeds outflow.
    PumpDegraded = 1,
    /// Valve stuck open: strong upward drift.
    ValveStuck = 2,
    /// Sensor drift: mild upward bias.
    SensorDrift = 3,
    /// Repair in progress (~5 steps), level drains.
    Repair = 4,
}

/// Dense state index of `(mode, bucket)`.
pub fn state_of(mode: Mode, bucket: usize) -> usize {
    assert!(bucket < BUCKETS, "bucket {bucket} out of range");
    mode as usize * BUCKETS + bucket
}

/// Inverse of [`state_of`].
pub fn decode(state: usize) -> (usize, usize) {
    (state / BUCKETS, state % BUCKETS)
}

/// Builds the synthetic ground-truth chain.
///
/// The initial state is a failure state (`Repair` mode, mid level) that
/// returns to `Normal` with probability 0.2 per step — i.e. is repaired in
/// about 5 step units, as the paper describes. Per-bucket heterogeneity is
/// deterministic (no RNG), so the ground truth is reproducible.
pub fn truth() -> Dtmc {
    let mut builder = DtmcBuilder::new(NUM_STATES);
    builder.set_initial(state_of(Mode::Repair, 6));

    for b in 0..BUCKETS {
        // Mild deterministic heterogeneity so learning is non-trivial.
        let tilt = 1.0 + 0.015 * (b as f64 - 6.0);
        // (up, down, mode switches): the remainder is "stay".
        // Normal: downward mean reversion + rare degradations.
        add_level_row(
            &mut builder,
            Mode::Normal,
            b,
            0.14 * tilt,
            0.30,
            &[
                (Mode::PumpDegraded, 0.006),
                (Mode::ValveStuck, 0.005),
                (Mode::SensorDrift, 0.004),
            ],
        );
        // Pump degradation: upward drift, eventually repaired.
        add_level_row(
            &mut builder,
            Mode::PumpDegraded,
            b,
            0.38 * tilt,
            0.12,
            &[(Mode::Repair, 0.09)],
        );
        // Valve stuck: strongest upward drift.
        add_level_row(
            &mut builder,
            Mode::ValveStuck,
            b,
            0.48 * tilt,
            0.06,
            &[(Mode::Repair, 0.09)],
        );
        // Sensor drift: mild upward bias, quickly detected.
        add_level_row(
            &mut builder,
            Mode::SensorDrift,
            b,
            0.28 * tilt,
            0.18,
            &[(Mode::Repair, 0.08)],
        );
        // Repair: drains the tank, exits to Normal w.p. 0.2 (≈5 steps).
        add_level_row(
            &mut builder,
            Mode::Repair,
            b,
            0.02,
            0.40,
            &[(Mode::Normal, 0.20)],
        );
    }

    for b in 0..BUCKETS {
        for m in 0..MODES {
            if b == BUCKETS - 1 {
                builder.add_label(m * BUCKETS + b, "high");
            }
        }
    }
    builder.add_label(state_of(Mode::Repair, 6), "init_failure");
    builder
        .build()
        .expect("synthetic SWaT chain is well-formed by construction")
}

/// Adds one state's row: up/down level moves within the mode plus mode
/// switches at the same bucket; leftover mass stays put.
fn add_level_row(
    builder: &mut DtmcBuilder,
    mode: Mode,
    bucket: usize,
    up: f64,
    down: f64,
    switches: &[(Mode, f64)],
) {
    let from = state_of(mode, bucket);
    let up_target = if bucket + 1 < BUCKETS {
        bucket + 1
    } else {
        bucket
    };
    let down_target = bucket.saturating_sub(1);
    let mut mass = 0.0;
    if up_target != bucket {
        builder.add_transition(from, state_of(mode, up_target), up);
        mass += up;
    }
    if down_target != bucket {
        builder.add_transition(from, state_of(mode, down_target), down);
        mass += down;
    }
    for &(to_mode, p) in switches {
        builder.add_transition(from, state_of(to_mode, bucket), p);
        mass += p;
    }
    builder.add_transition(from, from, 1.0 - mass);
}

/// The paper's property: LIT301 exceeds 800 (bucket 13) within 30 steps.
pub fn property(chain: &Dtmc) -> Property {
    Property::bounded_reach_label(chain, "high", STEP_BOUND)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_numeric::bounded_reach_probs;

    #[test]
    fn dimensions_match_the_paper() {
        let chain = truth();
        assert_eq!(chain.num_states(), 70);
        assert_eq!(chain.labeled_states("high").len(), MODES);
        assert_eq!(chain.initial(), state_of(Mode::Repair, 6));
    }

    #[test]
    fn level_mapping() {
        assert_eq!(decode(state_of(Mode::ValveStuck, 9)), (2, 9));
    }

    #[test]
    fn gamma_is_in_the_papers_range() {
        // §VI-D: γ(Â) ∈ [5e-3, 2.5e-2]. Our calibrated ground truth must
        // land inside (validated numerically, not by simulation).
        let chain = truth();
        let gamma =
            bounded_reach_probs(&chain, chain.labeled_states("high"), STEP_BOUND)[chain.initial()];
        assert!(
            (5e-3..=2.5e-2).contains(&gamma),
            "γ = {gamma:e} outside the paper's reported range"
        );
    }

    #[test]
    fn repair_exits_in_about_five_steps() {
        let chain = truth();
        let p_exit = chain.prob(state_of(Mode::Repair, 6), state_of(Mode::Normal, 6));
        assert!((p_exit - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rows_are_stochastic_everywhere() {
        let chain = truth();
        for s in 0..chain.num_states() {
            assert!(
                (chain.row(s).unwrap().sum() - 1.0).abs() < 1e-9,
                "state {s}"
            );
        }
    }
}
