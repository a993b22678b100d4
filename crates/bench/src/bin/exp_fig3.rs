//! Figure 3: evolution of the IMCIS interval bounds during the
//! optimisation step on the group repair model (x in rounds, log scale in
//! the paper to show the fast early movement).
//!
//! Output: TSV — `round  gamma_min  gamma_max` at every improvement of
//! either extremum, in estimate units (γ = f/N).

use imcis_bench::{BuiltScenario, Scale};
use imcis_core::{ImcisSpec, Method};

fn main() {
    let scale = Scale::from_args();
    let scenario = BuiltScenario::group_repair(scale.seed);
    eprintln!(
        "Figure 3: single group-repair run, N = {}, R = {}",
        scale.n_traces, scale.r_undefeated
    );

    let method = Method::Imcis(ImcisSpec {
        record_trace: true,
        ..scale.imcis(scale.sample(0.05))
    });
    // One repetition: its RNG stream is seeded with `scale.seed` itself.
    // `min_found_at` and `max_found_at` live in the full IMCIS outcome.
    let out = scenario
        .run(method, scale.seed, 1)
        .remove(0)
        .imcis
        .expect("an IMCIS session yields IMCIS outcomes");

    println!("round\tgamma_min\tgamma_max");
    for p in &out.trace {
        println!("{}\t{:.6e}\t{:.6e}", p.round.max(1), p.f_min, p.f_max);
    }
    eprintln!(
        "final: γ̂(A_min) = {:.4e}, γ̂(A_max) = {:.4e}, CI = [{:.4e}, {:.4e}], {} rounds \
         (min found at {}, max at {})",
        out.gamma_min,
        out.gamma_max,
        out.ci.lo(),
        out.ci.hi(),
        out.rounds,
        out.min_found_at,
        out.max_found_at
    );
}
