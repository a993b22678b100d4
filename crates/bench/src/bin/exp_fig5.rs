//! Figure 5: the exact probability curve `γ(A(α))` of the group repair
//! ("Ridder") model over the learnt confidence interval
//! `α ∈ [0.09852, 0.10048]` — computed by the numeric engine, standing in
//! for the PRISM runs of the paper.
//!
//! Output: TSV — `alpha  gamma`.

use imc_models::group_repair;
use imc_numeric::{linspace, reach_before_return, sweep};
use imcis_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let points = scale.reps.max(21); // reuse --reps as grid resolution
    eprintln!(
        "Figure 5: γ(A(α)) for α ∈ [{}, {}], {points} grid points",
        group_repair::ALPHA_LO,
        group_repair::ALPHA_HI
    );

    let grid = linspace(group_repair::ALPHA_LO, group_repair::ALPHA_HI, points);
    let curve = sweep(&grid, |alpha| {
        let chain = group_repair::jump_chain(alpha);
        reach_before_return(&chain, chain.labeled_states("failure"))
    })
    .expect("solver converges on every grid point");

    println!("alpha\tgamma");
    for (alpha, gamma) in &curve {
        println!("{alpha:.6}\t{gamma:.6e}");
    }
    let (lo, hi) = (
        curve.iter().map(|&(_, g)| g).fold(f64::INFINITY, f64::min),
        curve.iter().map(|&(_, g)| g).fold(0.0, f64::max),
    );
    eprintln!(
        "range of probabilities over the α interval: [{lo:.4e}, {hi:.4e}] \
         (paper Fig. 5 spans ≈ [1.06e-7, 1.18e-7])"
    );
}
