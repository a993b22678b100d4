//! Reduced-scale coverage experiments: the Table II shape — IMCIS coverage
//! dominates IS coverage — must hold even at smoke-test scale.

use imc_markov::StateSet;
use imc_models::{illustrative, Setup};
use imc_sampling::zero_variance_is;
use imc_stats::coverage;
use imcis_core::{ImcisSpec, Method, Report, RunSpec, SampleSpec, ScenarioRef, Session};

/// The paper's illustrative IMC under the perfect IS chain for its centre.
fn paper_setup() -> Setup {
    let center = illustrative::dtmc(illustrative::A_HAT, illustrative::C_HAT);
    let imc = illustrative::paper_imc().expect("paper IMC consistent");
    let b = zero_variance_is(
        &center,
        &StateSet::from_states(4, [illustrative::S2]),
        &StateSet::new(4),
    )
    .expect("ZV exists");
    Setup {
        name: "illustrative".into(),
        imc,
        center,
        b,
        property: illustrative::property(),
        gamma_center: Some(illustrative::gamma(
            illustrative::A_HAT,
            illustrative::C_HAT,
        )),
        gamma_exact: Some(illustrative::gamma(
            illustrative::A_TRUE,
            illustrative::C_TRUE,
        )),
    }
}

fn imcis_spec(n_traces: usize, r_undefeated: usize, r_max: usize) -> ImcisSpec {
    ImcisSpec {
        sample: SampleSpec {
            n_traces,
            ..SampleSpec::default()
        },
        r_undefeated,
        r_max,
        ..ImcisSpec::default()
    }
}

/// `reps` repetitions of `method` from `seed` through a [`Session`].
fn repeat(setup: &Setup, method: Method, reps: usize, seed: u64) -> Report {
    let spec =
        RunSpec::new(ScenarioRef::named("illustrative"), method, seed).with_repetitions(reps);
    Session::from_setup(setup.clone(), spec)
        .run()
        .expect("repetitions succeed")
}

#[test]
fn table2_shape_on_the_illustrative_model() {
    let setup = paper_setup();
    let gamma = illustrative::gamma(illustrative::A_TRUE, illustrative::C_TRUE);
    let gamma_center = illustrative::gamma(illustrative::A_HAT, illustrative::C_HAT);

    let reps = 10;
    let spec = imcis_spec(2000, 150, 10_000);
    let is_report = repeat(&setup, Method::StandardIs(spec.sample), reps, 42);
    let imcis_report = repeat(&setup, Method::Imcis(spec), reps, 42);

    let is_cis: Vec<_> = is_report.runs.iter().map(|r| r.ci).collect();
    let imcis_cis: Vec<_> = imcis_report.runs.iter().map(|r| r.ci).collect();

    // IS: zero-width intervals at γ(Â) -> 0% coverage of the true γ.
    assert_eq!(coverage(&is_cis, gamma), 0.0);
    // IMCIS: full coverage of both references (paper: 100% / 100%).
    assert_eq!(coverage(&imcis_cis, gamma), 1.0);
    assert_eq!(coverage(&imcis_cis, gamma_center), 1.0);

    // The report counts the degenerate IS intervals as covering γ(Â)
    // (ulp tolerance), as the paper does.
    assert_eq!(is_report.coverage_gamma_hat, Some(1.0));
    assert_eq!(is_report.coverage_gamma_true, Some(0.0));

    // Every IS interval is inside every IMCIS interval of the same rep
    // (Fig. 2's nesting observation).
    for (is, im) in is_cis.iter().zip(&imcis_cis) {
        assert!(im.encloses(is) || im.intersects(is));
    }
}

#[test]
fn imcis_intervals_are_mutually_consistent() {
    // Fig. 4's observation, smoke scale: independent IMCIS intervals
    // pairwise intersect (they all cover the same truth).
    let runs = repeat(
        &paper_setup(),
        Method::Imcis(imcis_spec(1000, 100, 5_000)),
        6,
        9,
    )
    .runs;
    for i in 0..runs.len() {
        for j in i + 1..runs.len() {
            assert!(
                runs[i].ci.intersects(&runs[j].ci),
                "IMCIS CIs {i} and {j} are disjoint: {} vs {}",
                runs[i].ci,
                runs[j].ci
            );
        }
    }
}
