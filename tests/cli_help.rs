//! Help-text drift gates: `imcis help` is pinned byte-for-byte against a
//! golden file, and every `--flag` the help text documents is
//! cross-checked against the real parsers (and vice versa), so the
//! usage text and the argument handling cannot drift apart silently.
//!
//! Re-bless the golden deliberately with
//! `IMCIS_BLESS_GOLDEN=1 cargo test --test cli_help`.

use imcis_cli::{parse_args, run, CliError, USAGE};

const GOLDEN_USAGE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/usage.txt");

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(ToString::to_string).collect()
}

#[test]
fn help_output_matches_the_golden_file() {
    let help = run(&args(&["help"])).unwrap();
    if std::env::var_os("IMCIS_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_USAGE, format!("{help}\n")).expect("can write the golden usage");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_USAGE).expect("golden usage file exists");
    assert_eq!(
        format!("{help}\n"),
        golden,
        "`imcis help` drifted from tests/golden/usage.txt \
         (IMCIS_BLESS_GOLDEN=1 re-blesses it deliberately)"
    );
    // `--help`/`-h` and usage errors print the same text.
    assert_eq!(run(&args(&["--help"])).unwrap(), help);
    assert_eq!(help, USAGE);
}

/// Every subcommand the help text names actually dispatches (none fall
/// through to the legacy model-file parser's "missing model file").
#[test]
fn documented_subcommands_dispatch() {
    // Spec-layer subcommands: an empty invocation is a *subcommand
    // specific* usage error, not "unknown command".
    for (command, expect) in [
        ("run", "run needs a spec file"),
        ("suite", "suite takes exactly one"),
        ("dsl", "dsl takes exactly one"),
        ("submit", "submit takes exactly one"),
    ] {
        let err = run(&args(&[command])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("`imcis {command}` should be a usage error");
        };
        assert!(msg.contains(expect), "`imcis {command}`: {msg}");
    }
    // `serve`/`router` reject unknown flags with their own usage
    // messages (binding a socket is not needed to prove dispatch).
    let err = run(&args(&["serve", "--wat"])).unwrap_err();
    let CliError::Usage(msg) = err else {
        panic!("`imcis serve --wat` should be a usage error");
    };
    assert!(msg.contains("unexpected serve argument"), "{msg}");
    let err = run(&args(&["router", "--wat"])).unwrap_err();
    let CliError::Usage(msg) = err else {
        panic!("`imcis router --wat` should be a usage error");
    };
    assert!(msg.contains("unexpected router argument"), "{msg}");
    // Model-file subcommands parse through the legacy options parser.
    for command in ["info", "solve", "mttf", "smc", "envelope"] {
        assert!(
            parse_args(&args(&[command, "model.txt"])).is_ok(),
            "`imcis {command}` is documented but does not parse"
        );
    }
    // IMCIS on a model file is `run --scenario file`: `imcis` is not a
    // model-file command.
    let coin = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/coin.imc");
    let err = run(&args(&["imcis", coin, "--target", "heads"])).unwrap_err();
    let CliError::Usage(msg) = err else {
        panic!("`imcis imcis` should be a usage error");
    };
    assert!(msg.contains("unknown command `imcis`"), "{msg}");
    assert!(run(&args(&["scenarios"])).is_ok());
    assert!(run(&args(&["version"])).is_ok());
}

/// A bounded reach-avoid source: `property reach L within k`.
const BOUNDED_DSL: &str = r#"scenario "bounded"
model {
  state s0 initial {
    -> s1 0.5
    -> s0 0.5
  }
  state s1 label "goal" { -> s1 1.0 }
}
property reach "goal" within 30
is center
"#;

/// A repair-benchmark source: `property reach L before return`.
const BEFORE_RETURN_DSL: &str = r#"scenario "pump"
model {
  state up initial label "init" {
    -> up [0.99, 0.999] @ 0.999
    -> down [0.0005, 0.002] @ 0.001
  }
  state down label "failure" { -> up 1.0 }
}
property reach "failure" before return
is mixture(0.9) avoid initial
"#;

/// `imcis dsl <source>` prints a six-line summary whose property line
/// names each property shape the DSL can write.
#[test]
fn dsl_summary_names_the_model_and_its_property() {
    let illustrative = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/illustrative.dsl");
    assert_eq!(
        run(&args(&["dsl", illustrative])).unwrap(),
        "scenario: illustrative-dsl\n\
         states: 4 (initial s0)\n\
         transitions: 6\n\
         labels: goal(1) sink(1)\n\
         property: reach-avoid\n\
         cache key fingerprint: e3401a68075415d3"
    );
    let dir = std::env::temp_dir().join(format!("imcis_dsl_summary_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create a temp dir");
    for (name, source, property) in [
        ("bounded.dsl", BOUNDED_DSL, "reach-avoid (within 30)"),
        ("pump.dsl", BEFORE_RETURN_DSL, "reach before return"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, source).expect("can write the source");
        let summary = run(&args(&["dsl", path.to_str().unwrap()])).unwrap();
        let line = format!("property: {property}");
        assert!(summary.lines().any(|l| l == line), "{summary}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every `--flag` token in the help text is accepted by the matching
/// parser, and every flag the parsers accept appears in the help text.
#[test]
fn documented_flags_match_the_parsers() {
    // The complete flag vocabulary, by parser. Adding a flag to a parser
    // without documenting it (or vice versa) fails the audit below.
    let run_flags = [
        "--scenario",
        "--method",
        "--param",
        "--reps",
        "--n",
        "--delta",
        "--max-steps",
        "--seed",
        "--r",
        "--r-max",
        "--trace",
        "--threads",
        "--search-batch",
        "--search-threads",
        "--dry-run",
    ];
    let model_flags = [
        "--target",
        "--avoid",
        "--bound",
        "--n",
        "--delta",
        "--seed",
        "--threads",
    ];
    let dsl_flags = ["--param", "--emit-spec"];
    let serve_flags = ["--addr", "--workers", "--queue", "--rate"];
    let router_flags = ["--backend", "--addr", "--queue", "--heartbeat-ms"];
    let submit_flags = [
        "--addr",
        "--events",
        "--retry-ms",
        "--deadline-ms",
        "--ping",
        "--status",
        "--shutdown",
    ];

    // Forward direction: the parsers recognise each documented flag.
    // A recognised value-flag with a missing value yields "requires a
    // value" — never "unknown option"/"unexpected argument".
    for flag in [
        "--scenario",
        "--method",
        "--param",
        "--reps",
        "--n",
        "--delta",
        "--max-steps",
        "--seed",
        "--r",
        "--r-max",
        "--threads",
        "--search-batch",
        "--search-threads",
    ] {
        let err = run(&args(&["run", flag])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("run {flag}: expected usage error");
        };
        assert!(msg.contains("requires a value"), "run {flag}: {msg}");
    }
    // Boolean run flags need no value; with a scenario/method they build
    // a manifest (--trace is imcis-only, --dry-run prints the spec).
    assert!(run(&args(&[
        "run",
        "--scenario",
        "illustrative",
        "--method",
        "imcis",
        "--trace",
        "--dry-run"
    ]))
    .is_ok());
    for flag in model_flags {
        let err = parse_args(&args(&["solve", "m.txt", flag])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("solve {flag}: expected usage error");
        };
        assert!(msg.contains("requires a value"), "solve {flag}: {msg}");
    }
    // The IMCIS flags belong to `imcis run`, not to model files.
    for flag in ["--r", "--search-batch", "--search-threads"] {
        let err = parse_args(&args(&["smc", "m.txt", flag, "1"])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("smc {flag}: expected usage error");
        };
        assert!(msg.contains("unknown option"), "smc {flag}: {msg}");
    }
    // `dsl` accepts --param (valued) and --emit-spec (boolean); anything
    // else is its own usage error, not a fall-through.
    let err = run(&args(&["dsl", "--param"])).unwrap_err();
    let CliError::Usage(msg) = err else {
        panic!("dsl --param: expected usage error");
    };
    assert!(msg.contains("requires a value"), "dsl --param: {msg}");
    let err = run(&args(&["dsl", "--emit-spec"])).unwrap_err();
    let CliError::Usage(msg) = err else {
        panic!("dsl --emit-spec alone: expected usage error");
    };
    assert!(msg.contains("dsl takes exactly one"), "{msg}");
    let err = run(&args(&["dsl", "spec.dsl", "--wat"])).unwrap_err();
    let CliError::Usage(msg) = err else {
        panic!("dsl --wat: expected usage error");
    };
    assert!(msg.contains("unexpected dsl argument"), "{msg}");
    for flag in serve_flags {
        let err = run(&args(&["serve", flag])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("serve {flag}: expected usage error");
        };
        assert!(msg.contains("requires a value"), "serve {flag}: {msg}");
    }
    for flag in router_flags {
        let err = run(&args(&["router", flag])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("router {flag}: expected usage error");
        };
        assert!(msg.contains("requires a value"), "router {flag}: {msg}");
    }
    for flag in ["--addr", "--events", "--retry-ms", "--deadline-ms"] {
        let err = run(&args(&["submit", flag])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("submit {flag}: expected usage error");
        };
        assert!(msg.contains("requires a value"), "submit {flag}: {msg}");
    }
    // --ping/--status/--shutdown are boolean and mutually exclusive.
    for pair in [
        ["--ping", "--shutdown"],
        ["--ping", "--status"],
        ["--status", "--shutdown"],
    ] {
        let err = run(&args(&["submit", pair[0], pair[1]])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{pair:?}");
    }

    // Reverse direction: the help text documents no flag the parsers
    // would reject — every `--token` in USAGE is in the vocabulary.
    let vocabulary: std::collections::BTreeSet<&str> = run_flags
        .iter()
        .chain(&model_flags)
        .chain(&dsl_flags)
        .chain(&serve_flags)
        .chain(&router_flags)
        .chain(&submit_flags)
        .chain(["--help", "--version"].iter())
        .copied()
        .collect();
    for token in USAGE.split(|c: char| c.is_whitespace() || c == '/') {
        let flag = token.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '-');
        if flag.starts_with("--") {
            assert!(
                vocabulary.contains(flag),
                "help text documents `{flag}`, which no parser accepts"
            );
        }
    }
}
