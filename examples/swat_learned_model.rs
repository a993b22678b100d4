//! The SWaT pipeline (§VI-D): learn a 70-state IMC from system logs, build
//! an importance-sampling distribution by cross-entropy, and estimate the
//! probability that the water level exceeds 800 within 30 steps — without
//! ever consulting the hidden ground truth.
//!
//! The log-generation → learning → CE wiring lives in the scenario
//! registry's `swat` entry (the same one `imcis run --scenario swat`
//! resolves); this example narrates what the scenario builds and then
//! drives the estimation through the Session layer.
//!
//! Run with: `cargo run --release --example swat_learned_model`

use std::sync::Arc;

use imc_models::{swat, ScenarioParams, ScenarioRegistry};
use imc_numeric::imc_bounded_reach_bounds;
use imcis_core::{ImcisSpec, Method, RunSpec, SampleSpec, ScenarioRef, Session};
use serde::json::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the whole pipeline from the registry: sample 2000 logs of
    //    500 steps from the hidden truth, learn the IMC (point estimates
    //    ± Okamoto intervals), train a cross-entropy IS chain against the
    //    learnt centre. The ground truth is *only* used to generate logs
    //    and validate coverage — exactly the information the paper's
    //    authors had.
    let params = ScenarioParams::from_pairs([
        ("n_logs".to_string(), Value::UInt(2000)),
        ("log_len".to_string(), Value::UInt(500)),
        ("seed".to_string(), Value::UInt(301)),
        ("ce_iterations".to_string(), Value::UInt(8)),
    ]);
    let setup = Arc::new(ScenarioRegistry::builtin().build("swat", &params)?);
    println!(
        "learnt model: {} states ({} buckets x {} modes), step bound {}",
        setup.center.num_states(),
        swat::BUCKETS,
        swat::MODES,
        swat::STEP_BOUND
    );

    // 2. The property and its exact values (for validation only).
    let gamma_center = setup.gamma_center.expect("scenario knows γ(Â)");
    let gamma_truth = setup.gamma_exact.expect("scenario knows the hidden γ");
    println!("γ(Â) = {gamma_center:.4e} (learnt), hidden truth γ = {gamma_truth:.4e}");

    // The exact probability envelope of the learnt IMC brackets both.
    let (lo, hi) = imc_bounded_reach_bounds(
        &setup.imc,
        setup.center.labeled_states("high"),
        &imc_markov::StateSet::new(setup.center.num_states()),
        swat::STEP_BOUND,
    );
    println!(
        "interval envelope over the IMC: [{:.4e}, {:.4e}]",
        lo[setup.center.initial()],
        hi[setup.center.initial()]
    );

    // 3. Estimate: standard IS vs IMCIS (99% CIs as in Fig. 4), through
    //    the same Session path as `imcis run --scenario swat`.
    let sample = SampleSpec {
        n_traces: 10_000,
        delta: 0.01,
        max_steps: 10_000,
    };
    let scenario = ScenarioRef {
        name: "swat".into(),
        params,
    };
    let is = Session::from_setup(
        setup.clone(),
        RunSpec::new(scenario.clone(), Method::StandardIs(sample), 301),
    )
    .run_outcomes()?
    .remove(0);
    println!(
        "\nstandard IS : γ̂ = {:.4e}, 99%-CI = {}",
        is.estimate, is.ci
    );

    let imcis_method = Method::Imcis(ImcisSpec {
        sample,
        ..ImcisSpec::default()
    });
    let out = Session::from_setup(setup, RunSpec::new(scenario, imcis_method, 301))
        .run_outcomes()?
        .remove(0)
        .imcis
        .expect("an imcis session reports the bracket");
    println!(
        "IMCIS       : bracket [{:.4e}, {:.4e}], 99%-CI = {}",
        out.gamma_min, out.gamma_max, out.ci
    );
    println!(
        "\ncovers hidden γ?  IS: {}, IMCIS: {}",
        is.ci.contains(gamma_truth),
        out.ci.contains(gamma_truth)
    );
    Ok(())
}
