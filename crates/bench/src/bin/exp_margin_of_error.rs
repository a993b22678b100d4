//! §III-B worked example: standard importance sampling against a learnt
//! point chain produces a degenerate, misleading confidence interval.
//!
//! Regenerates the numbers quoted in the paper: `γ ≈ 5.005e-6` for the
//! true chain, `γ̂(Â) = 1.4944e-5` ("almost three times the exact value"),
//! and the zero-width perfect-IS interval that misses `γ`.

use imcis_bench::{sci, BuiltScenario, Scale};
use imcis_core::Method;

fn main() {
    let scale = Scale::from_args();
    let scenario = BuiltScenario::new("illustrative", &[]);
    let setup = scenario.setup();
    let gamma = setup.gamma_exact.expect("closed form");
    let gamma_center = setup.gamma_center.expect("closed form");

    println!("§III-B margin-of-error example (illustrative model)");
    println!("  true parameters      a = 1e-4, c = 0.05");
    println!("  learnt parameters    â = 3e-4, ĉ = 0.0498");
    println!("  γ  = γ(a, c)       = {}", sci(gamma));
    println!(
        "  γ(Â) = γ(â, ĉ)     = {}  ({}x the exact value)",
        sci(gamma_center),
        (gamma_center / gamma).round()
    );

    // One repetition: its RNG stream is seeded with `scale.seed` itself.
    let out = scenario
        .run(Method::StandardIs(scale.sample(0.05)), scale.seed, 1)
        .remove(0);
    println!("\nPerfect IS for Â over {} traces:", scale.n_traces);
    println!("  γ̂(Â)   = {}", sci(out.estimate));
    println!("  σ̂      = {}", sci(out.sigma));
    println!(
        "  95%-CI = [{}, {}]  (width {})",
        sci(out.ci.lo()),
        sci(out.ci.hi()),
        sci(out.ci.width())
    );
    println!(
        "  covers γ(Â)? {}",
        out.ci.contains(gamma_center) || out.ci.width() < 1e-12
    );
    println!(
        "  covers γ?    {}   <- the §III-B failure mode",
        out.ci.contains(gamma)
    );
}
