//! Quickstart: estimate a rare-event probability on a *learnt* model with
//! IMCIS, and see why plain importance sampling is not enough — driven
//! through the `RunSpec → Session → Report` API on an ad-hoc model.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use imc_logic::Property;
use imc_markov::{DtmcBuilder, Imc, StateSet};
use imc_models::Setup;
use imc_sampling::zero_variance_is;
use imcis_core::{ImcisSpec, Method, RunSpec, SampleSpec, ScenarioRef, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A protection system: from OK, a fault arrives rarely; an unhandled
    // fault escalates to FAILURE, otherwise the system RECOVERs.
    //
    //   0 = OK,  1 = FAULT,  2 = FAILURE (absorbing),  3 = RECOVERED (absorbing)
    //
    // The *learnt* model (from logs) believes p(fault) = 3e-4 and
    // p(escalate) = 0.0498 — but the learning process only pins them down
    // to intervals.
    let mut builder = DtmcBuilder::new(4);
    builder
        .set_initial(0)
        .add_transition(0, 1, 3e-4)
        .add_transition(0, 3, 1.0 - 3e-4)
        .add_transition(1, 2, 0.0498)
        .add_transition(1, 0, 1.0 - 0.0498)
        .add_self_loop(2)
        .add_self_loop(3)
        .add_label(2, "failure");
    let learnt = builder.build()?;
    let imc = Imc::from_center(&learnt, |from, _| match from {
        0 => 2.5e-4, // p(fault) ∈ [0.5e-4, 5.5e-4]
        1 => 5e-4,   // p(escalate) ∈ [0.0493, 0.0503]
        _ => 0.0,
    })?;

    // The property: reach FAILURE (avoiding the RECOVERED sink).
    let property =
        Property::reach_avoid(StateSet::from_states(4, [2]), StateSet::from_states(4, [3]));

    // Importance sampling distribution: the zero-variance chain of the
    // learnt model, built from exact reachability probabilities.
    let b = zero_variance_is(&learnt, &StateSet::from_states(4, [2]), &StateSet::new(4))?;

    // An ad-hoc Setup is the same shape the scenario registry produces —
    // custom models plug into the Session layer exactly like the
    // registered benchmarks do.
    let setup = Arc::new(Setup {
        name: "protection system".into(),
        imc,
        center: learnt,
        b,
        property,
        gamma_center: None,
        gamma_exact: None,
    });
    let sample = SampleSpec::default();
    let spec_for =
        |method: Method| RunSpec::new(ScenarioRef::named("protection-system"), method, 42);

    // Standard IS trusts the learnt point estimates...
    let is = Session::from_setup(setup.clone(), spec_for(Method::StandardIs(sample)))
        .run_outcomes()?
        .remove(0);
    println!("standard IS:  γ̂ = {:.4e}, 95%-CI = {}", is.estimate, is.ci);

    // ...IMCIS widens the interval to cover every chain the data allows.
    let imcis_method = Method::Imcis(ImcisSpec {
        sample,
        ..ImcisSpec::default()
    });
    let session = Session::from_setup(setup, spec_for(imcis_method));
    let report = session.run()?;
    let run = &report.runs[0];
    let (gamma_min, gamma_max) = (
        run.gamma_min.expect("imcis reports a bracket"),
        run.gamma_max.expect("imcis reports a bracket"),
    );
    println!(
        "IMCIS:        γ̂ ∈ [{gamma_min:.4e}, {gamma_max:.4e}], 95%-CI = {}",
        run.ci
    );
    println!(
        "              ({} traces, {} successful, {} optimisation rounds)",
        report.spec.method.sample().n_traces,
        run.n_success,
        run.rounds.expect("imcis reports rounds"),
    );

    // If the real system has p(fault) = 1e-4, p(escalate) = 0.05, the true
    // probability is:
    let gamma_true = 1e-4 * 0.05 / (1.0 - 1e-4 * 0.95);
    println!("\ntrue γ = {gamma_true:.4e}");
    println!("  standard IS CI covers it: {}", is.ci.contains(gamma_true));
    println!(
        "  IMCIS CI covers it:       {}",
        run.ci.contains(gamma_true)
    );
    println!(
        "\nthe same run as a reviewable manifest (imcis run <spec.json>):\n{}",
        report.spec.to_json_string()
    );
    Ok(())
}
