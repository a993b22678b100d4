//! §VI-C: the 40320-state repair model. The paper repeats IS and IMCIS
//! five times at `α = 1e-3` and then asks for which true `α` the intervals
//! still contain the exact `γ(A(α))`:
//! IS holds only for `α ∈ [0.99e-3, 1.1e-3]`, IMCIS for
//! `α ∈ [0.88e-3, 1.12e-3]`.
//!
//! Output: the per-repetition CIs, then a sweep over true `α` marking
//! which method's hull still contains `γ(A(α))`.

use imc_models::repair;
use imc_numeric::{linspace, reach_before_return};
use imc_stats::ConfidenceInterval;
use imcis_bench::{sci, BuiltScenario, Scale};
use imcis_core::Method;

fn main() {
    let scale = Scale::from_args();
    let reps = scale.reps.clamp(2, 5); // the paper uses 5
    eprintln!(
        "§VI-C large repair model: exploring 40320 states, {} reps, N = {}",
        reps, scale.n_traces
    );

    // The registry defaults are the paper's α̂ = 1e-3 and its interval.
    let scenario = BuiltScenario::new("repair", &[]);
    let s = scenario.setup();
    eprintln!(
        "γ(A(1e-3)) = {} (paper: {})",
        sci(s.gamma_exact.expect("numeric")),
        sci(repair::GAMMA_PAPER)
    );

    let sample = scale.sample(0.05);
    let is_runs = scenario.run(Method::StandardIs(sample), scale.seed, reps);
    let imcis_runs = scenario.run(Method::Imcis(scale.imcis(sample)), scale.seed, reps);

    println!("rep\tis_lo\tis_hi\timcis_lo\timcis_hi");
    for (rep, (is, im)) in is_runs.iter().zip(&imcis_runs).enumerate() {
        println!(
            "{rep}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}",
            is.ci.lo(),
            is.ci.hi(),
            im.ci.lo(),
            im.ci.hi()
        );
    }
    let hull = |cis: &[ConfidenceInterval]| cis.iter().skip(1).fold(cis[0], |acc, ci| acc.hull(ci));
    let is_hull = hull(&is_runs.iter().map(|o| o.ci).collect::<Vec<_>>());
    let imcis_hull = hull(&imcis_runs.iter().map(|o| o.ci).collect::<Vec<_>>());
    eprintln!(
        "IS captured values in    [{}, {}]",
        sci(is_hull.lo()),
        sci(is_hull.hi())
    );
    eprintln!(
        "IMCIS captured values in [{}, {}]",
        sci(imcis_hull.lo()),
        sci(imcis_hull.hi())
    );

    // Robustness sweep: for which true α does each hull still contain γ(α)?
    println!("\nalpha\tgamma\tin_is\tin_imcis");
    let grid = linspace(0.8e-3, 1.2e-3, 17);
    let mut is_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut imcis_range = (f64::INFINITY, f64::NEG_INFINITY);
    for &alpha in &grid {
        let chain = repair::jump_chain(alpha);
        let gamma =
            reach_before_return(&chain, chain.labeled_states("failure")).expect("solver converges");
        let in_is = is_hull.contains(gamma);
        let in_imcis = imcis_hull.contains(gamma);
        if in_is {
            is_range = (is_range.0.min(alpha), is_range.1.max(alpha));
        }
        if in_imcis {
            imcis_range = (imcis_range.0.min(alpha), imcis_range.1.max(alpha));
        }
        println!("{alpha:.6}\t{gamma:.6e}\t{in_is}\t{in_imcis}");
    }
    eprintln!(
        "IS holds for α ∈ [{:.4e}, {:.4e}] (paper: [0.99e-3, 1.1e-3]); \
         IMCIS holds for α ∈ [{:.4e}, {:.4e}] (paper: [0.88e-3, 1.12e-3])",
        is_range.0, is_range.1, imcis_range.0, imcis_range.1
    );
}
