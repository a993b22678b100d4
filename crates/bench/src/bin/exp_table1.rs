//! Table I: statistics of the random-search optimisation on the
//! illustrative example — rounds to convergence `nr` and the extremal
//! parameters `(a_min, c_min, a_max, c_max)` over repeated experiments.
//!
//! Paper values (100 reps, N = 10000, R = 1000):
//! `nr` avg 2181 / min 1244 / max 4119 / sd 580;
//! `a_min ≈ 5.02e-5`, `c_min ≈ 0.0496`, `a_max ≈ 5.48e-4`, `c_max ≈ 0.0501`.

use imc_models::illustrative;
use imc_stats::RunningStats;
use imcis_bench::{print_table, sci, BuiltScenario, Scale};
use imcis_core::{ImcisOutcome, ImcisSpec, Method};

fn main() {
    let scale = Scale::from_args();
    let scenario = BuiltScenario::new("illustrative", &[]);
    // Paper-verbatim Algorithm 2: every visited row is searched, so the
    // nr statistic and the partial convergence of Table I are reproduced
    // (the library's default closed-form fast path would solve the
    // single-observed-transition rows exactly, collapsing the spread).
    let method = Method::Imcis(ImcisSpec {
        force_sampling: true,
        ..scale.imcis(scale.sample(0.05))
    });

    eprintln!(
        "Table I: {} reps, N = {}, R = {} (use --paper for the full scale)",
        scale.reps, scale.n_traces, scale.r_undefeated
    );
    // The argmin/argmax rows live in the full IMCIS outcome.
    let outcomes: Vec<_> = scenario
        .run(method, scale.seed, scale.reps)
        .into_iter()
        .map(|o| o.imcis.expect("an IMCIS session yields IMCIS outcomes"))
        .collect();

    // nr: rounds until the search stopped (improvement phase + R undefeated).
    let stats =
        |value: fn(&ImcisOutcome) -> f64| -> RunningStats { outcomes.iter().map(value).collect() };
    let nr = stats(|o| o.rounds as f64);
    let a_min = stats(|o| {
        o.min_prob(illustrative::S0, illustrative::S1)
            .expect("row 0 optimised")
    });
    let c_min = stats(|o| {
        o.min_prob(illustrative::S1, illustrative::S2)
            .expect("row 1 optimised")
    });
    let a_max = stats(|o| {
        o.max_prob(illustrative::S0, illustrative::S1)
            .expect("row 0 optimised")
    });
    let c_max = stats(|o| {
        o.max_prob(illustrative::S1, illustrative::S2)
            .expect("row 1 optimised")
    });

    println!("\nTable I — illustrative example, a ∈ [0.5, 5.5]e-4, c ∈ [0.0493, 0.0503]");
    let stat = |s: &RunningStats| {
        vec![
            sci(s.mean()),
            sci(s.min()),
            sci(s.max()),
            sci(s.population_std_dev()),
        ]
    };
    let headers = ["", "nr", "a_min", "c_min", "a_max", "c_max"];
    let labels = ["average", "min", "max", "st. dev."];
    let cols = [
        stat(&nr),
        stat(&a_min),
        stat(&c_min),
        stat(&a_max),
        stat(&c_max),
    ];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let mut row = vec![(*label).to_string()];
            for col in &cols {
                row.push(col[i].clone());
            }
            row
        })
        .collect();
    print_table(&headers, &rows);

    println!(
        "\nPaper reference: nr avg 2181 [1244, 4119] sd 580; \
         a_min ≈ 5.02e-5, c_min ≈ 0.0496, a_max ≈ 5.48e-4, c_max ≈ 0.0501"
    );
}
