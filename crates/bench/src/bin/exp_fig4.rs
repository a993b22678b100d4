//! Figure 4: independent IS (thick/red) and IMCIS (thin/blue) 99%
//! confidence intervals on the (synthetic) SWaT model.
//!
//! Output: TSV — `rep  is_lo  is_hi  imcis_lo  imcis_hi`. The paper's
//! visual signature: the IS intervals are so narrow they do not even
//! intersect each other across repetitions, while the IMCIS intervals are
//! mutually consistent and typically contain the union of the IS ones.

use imcis_bench::{BuiltScenario, Scale};
use imcis_core::{Method, SampleSpec};
use serde::json::Value;

fn main() {
    let scale = Scale::from_args();
    // A deliberately rough IS chain (2 CE iterations): heavier likelihood
    // tails reproduce the paper's mutually inconsistent IS intervals.
    let scenario = BuiltScenario::new(
        "swat",
        &[
            ("n_logs", Value::UInt(4000)),
            ("log_len", Value::UInt(1000)),
            ("seed", Value::UInt(scale.seed)),
            ("ce_iterations", Value::UInt(2)),
        ],
    );
    let s = scenario.setup();
    eprintln!(
        "Figure 4: SWaT (synthetic), {} reps, N = {}, 99%-CIs; learnt γ(Â) = {:.4e}, \
         hidden-truth γ = {:.4e}",
        scale.reps,
        scale.n_traces,
        s.gamma_center.expect("numeric"),
        s.gamma_exact.expect("numeric"),
    );

    // The paper uses 99% CIs for this figure (δ = 0.01).
    let sample = SampleSpec {
        max_steps: 10_000,
        ..scale.sample(0.01)
    };
    let is_runs = scenario.run(Method::StandardIs(sample), scale.seed, scale.reps);
    let imcis_runs = scenario.run(Method::Imcis(scale.imcis(sample)), scale.seed, scale.reps);

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

    // The paper's qualitative observations, quantified.
    let mut disjoint_is_pairs = 0usize;
    for i in 0..is_runs.len() {
        for j in i + 1..is_runs.len() {
            if !is_runs[i].ci.intersects(&is_runs[j].ci) {
                disjoint_is_pairs += 1;
            }
        }
    }
    let union_in_imcis = imcis_runs
        .iter()
        .filter(|im| {
            is_runs
                .iter()
                .fold(None::<imc_stats::ConfidenceInterval>, |acc, is| {
                    Some(acc.map_or(is.ci, |a| a.hull(&is.ci)))
                })
                .is_some_and(|u| im.ci.encloses(&u))
        })
        .count();
    eprintln!(
        "disjoint IS CI pairs: {disjoint_is_pairs}; IMCIS CIs enclosing the union of all \
         IS CIs: {union_in_imcis}/{}",
        imcis_runs.len()
    );
}
