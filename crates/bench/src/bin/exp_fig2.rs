//! Figure 2: superposition of independent IS (thick/red) and IMCIS
//! (thin/blue) 95% confidence intervals on the group repair model, against
//! the exact `γ = 1.179e-7`.
//!
//! Output: one TSV row per repetition —
//! `rep  is_lo  is_hi  imcis_lo  imcis_hi` — plot-ready for gnuplot or
//! matplotlib. The paper's visual signature: IS intervals are almost
//! always strictly inside the IMCIS intervals, and IS frequently misses
//! the γ line while IMCIS does not.

use imc_stats::coverage;
use imcis_bench::{BuiltScenario, Scale};
use imcis_core::Method;

fn main() {
    let scale = Scale::from_args();
    let scenario = BuiltScenario::group_repair(scale.seed);
    let s = scenario.setup();
    let gamma = s.gamma_exact.expect("numeric engine");
    let gamma_center = s.gamma_center.expect("numeric engine");
    eprintln!(
        "Figure 2: group repair, {} reps, N = {}; γ = {gamma:.4e}, γ(Â) = {gamma_center:.4e}",
        scale.reps, scale.n_traces
    );

    let sample = scale.sample(0.05);
    let is_runs = scenario.run(Method::StandardIs(sample), scale.seed, scale.reps);
    let imcis_runs = scenario.run(Method::Imcis(scale.imcis(sample)), scale.seed, scale.reps);

    println!("# gamma\t{gamma:.6e}");
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

    let is_cis: Vec<_> = is_runs.iter().map(|o| o.ci).collect();
    let imcis_cis: Vec<_> = imcis_runs.iter().map(|o| o.ci).collect();
    let nested = is_cis
        .iter()
        .zip(&imcis_cis)
        .filter(|(is, im)| im.encloses(is))
        .count();
    eprintln!(
        "coverage of γ: IS {:.0}%, IMCIS {:.0}%; IS ⊂ IMCIS in {}/{} reps",
        100.0 * coverage(&is_cis, gamma),
        100.0 * coverage(&imcis_cis, gamma),
        nested,
        scale.reps
    );
}
