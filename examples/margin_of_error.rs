//! The §III-B margin-of-error story, step by step: why importance sampling
//! against a learnt point model produces confidently wrong answers, and
//! how the interval model fixes it.
//!
//! The experiment setup (IMC, centre chain, IS distribution, property)
//! comes from the scenario registry — the same `illustrative` entry that
//! `imcis run --scenario illustrative` resolves.
//!
//! Run with: `cargo run --release --example margin_of_error`

use std::sync::Arc;

use imc_markov::StateSet;
use imc_models::{illustrative, ScenarioParams, ScenarioRegistry};
use imc_numeric::imc_reach_bounds;
use imcis_core::{ImcisSpec, Method, RunSpec, SampleSpec, ScenarioRef, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The true system (unknown to the analyst):
    let gamma = illustrative::gamma(illustrative::A_TRUE, illustrative::C_TRUE);
    println!(
        "true system:   a = {}, c = {}",
        illustrative::A_TRUE,
        illustrative::C_TRUE
    );
    println!("               γ = {gamma:.4e}");

    // What learning produced: point estimates plus intervals — the
    // registry's illustrative scenario wires the whole §VI-A setup.
    let registry = ScenarioRegistry::builtin();
    let setup = Arc::new(registry.build("illustrative", &ScenarioParams::empty())?);
    let gamma_hat = setup.gamma_center.expect("scenario knows γ(Â)");
    println!(
        "\nlearnt model:  â = {}, ĉ = {}",
        illustrative::A_HAT,
        illustrative::C_HAT
    );
    println!(
        "               γ(Â) = {gamma_hat:.4e}  <- {:.1}x the true value!",
        gamma_hat / gamma
    );

    // Perfect importance sampling *for the learnt model*.
    println!("\nperfect IS for Â (Fig. 1c):");
    println!("  b(s0 -> s1) = {:.6}", setup.b.prob(0, 1));
    println!("  b(s1 -> s2) = {:.6}", setup.b.prob(1, 2));
    println!("  b(s1 -> s0) = {:.6}", setup.b.prob(1, 0));

    let sample = SampleSpec::default();
    let spec_for = |method: Method| {
        RunSpec::new(
            ScenarioRef::named("illustrative"),
            method,
            RunSpec::DEFAULT_SEED,
        )
    };

    let is = Session::from_setup(setup.clone(), spec_for(Method::StandardIs(sample)))
        .run_outcomes()?
        .remove(0);
    println!("\nstandard IS over {} traces:", sample.n_traces);
    println!("  CI = {}  (zero width: every trace has L = γ(Â))", is.ci);
    println!(
        "  covers γ? {}  <- confidently wrong",
        is.ci.contains(gamma)
    );

    // IMCIS: optimise over every chain the intervals allow.
    let imcis_method = Method::Imcis(ImcisSpec {
        sample,
        ..ImcisSpec::default()
    });
    let out = Session::from_setup(setup.clone(), spec_for(imcis_method))
        .run_outcomes()?
        .remove(0)
        .imcis
        .expect("an imcis session reports the bracket");
    println!(
        "\nIMCIS over the same trace budget ({} optimisation rounds):",
        out.rounds
    );
    println!(
        "  γ̂ bracket = [{:.4e}, {:.4e}]",
        out.gamma_min, out.gamma_max
    );
    println!("  CI = {}", out.ci);
    println!("  covers γ(Â)? {}", out.ci.contains(gamma_hat));
    println!("  covers γ?    {}", out.ci.contains(gamma));

    // Sanity check the bracket against the exact extremal probabilities of
    // the interval model (interval value iteration).
    let target = StateSet::from_states(4, [illustrative::S2]);
    let (min, max) = imc_reach_bounds(&setup.imc, &target, &StateSet::new(4))?;
    println!(
        "\nexact envelope over the IMC: γ ∈ [{:.4e}, {:.4e}] (interval value iteration)",
        min[0], max[0]
    );
    Ok(())
}
