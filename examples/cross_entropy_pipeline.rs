//! Comparing importance-sampling distributions on the same rare event:
//! crude Monte Carlo, balanced failure biasing, cross-entropy, and the
//! zero-variance chain (§III and reference [24] of the paper).
//!
//! Run with: `cargo run --release --example cross_entropy_pipeline`

use imc_logic::Property;
use imc_markov::{Dtmc, DtmcBuilder};
use imc_sampling::{
    cross_entropy_is, failure_bias, is_estimate, sample_is_run, zero_variance_is, IsConfig,
};
use imc_sim::{monte_carlo, SmcConfig};
use imcis_core::CrossEntropySpec;
use rand::SeedableRng;

/// A 12-stage failure cascade: each stage fails with probability 2e-2,
/// otherwise the system resets. γ = (2e-2)^3 = 8e-6 for a 3-deep failure.
fn cascade() -> Dtmc {
    let p = 2e-2;
    let mut builder = DtmcBuilder::new(5);
    builder
        .set_initial(0)
        .add_transition(0, 1, p)
        .add_transition(0, 4, 1.0 - p)
        .add_transition(1, 2, p)
        .add_transition(1, 4, 1.0 - p)
        .add_transition(2, 3, p)
        .add_transition(2, 4, 1.0 - p)
        .add_self_loop(3)
        .add_self_loop(4)
        .add_label(3, "meltdown")
        .add_label(4, "reset");
    builder.build().expect("cascade chain is well-formed")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chain = cascade();
    let gamma = 8e-6;
    let target = chain.labeled_states("meltdown");
    let avoid = chain.labeled_states("reset");
    let property = Property::reach_avoid(target.clone(), avoid.clone());
    let n = 20_000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    println!("rare event: 3-deep failure cascade, γ = {gamma:.1e}, N = {n}\n");

    // Crude Monte Carlo: expects γ·N = 0.16 hits — hopeless.
    let mc = monte_carlo(&chain, &property, &SmcConfig::new(n, 0.05), &mut rng);
    println!("crude MC        : {} hits, CI = {}", mc.hits, mc.ci);

    // Balanced failure biasing: each failure transition boosted to 50%.
    let fb = failure_bias(&chain, |from, to| to == from + 1 && to <= 3, 0.5)?;
    let run = sample_is_run(&fb, &property, &IsConfig::new(n), &mut rng);
    let est = is_estimate(&chain, &fb, &run, 0.05);
    println!(
        "failure biasing : {} hits, γ̂ = {:.4e}, CI = {} (covers γ: {})",
        run.n_success,
        est.gamma_hat,
        est.ci,
        est.ci.contains(gamma)
    );

    // Cross-entropy: learns the biasing automatically, with the manifest's
    // default training budget.
    let config = CrossEntropySpec::default().to_config();
    let ce = cross_entropy_is(&chain, &property, &config, &mut rng)?;
    let run = sample_is_run(&ce.b, &property, &IsConfig::new(n), &mut rng);
    let est = is_estimate(&chain, &ce.b, &run, 0.05);
    println!(
        "cross-entropy   : {} hits, γ̂ = {:.4e}, CI = {} (covers γ: {})",
        run.n_success,
        est.gamma_hat,
        est.ci,
        est.ci.contains(gamma)
    );
    println!(
        "                  learnt b(0->1) = {:.3} (ZV would be 1.0)",
        ce.b.prob(0, 1)
    );

    // Zero-variance: the theoretical optimum, needs the exact solution.
    let zv = zero_variance_is(&chain, target, avoid)?;
    let run = sample_is_run(&zv, &property, &IsConfig::new(n), &mut rng);
    let est = is_estimate(&chain, &zv, &run, 0.05);
    println!(
        "zero-variance   : {} hits, γ̂ = {:.4e}, CI width = {:.1e}",
        run.n_success,
        est.gamma_hat,
        est.ci.width()
    );
    Ok(())
}
