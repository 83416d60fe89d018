//! The experiment runner: every run of the reproduction, selected by name
//! from [`REGISTRY`] with checked `key=value` parameters.
//!
//! Usage:
//!
//! ```text
//! experiment list
//! experiment <name> [key=value ...]
//! experiment all [seed=N]
//! ```
//!
//! A run writes its artifacts into `MOSQUITONET_METRICS_DIR` (default
//! `target/metrics`) — each number once, in the run's own metrics or
//! bench sidecar — and prints the paper-format report rendered from
//! those documents on stdout. `all`
//! runs the whole roster in report order — the source of EXPERIMENTS.md.
//! `help` or `--help` anywhere prints usage and runs nothing; an unknown
//! name or key, a non-integer or an out-of-range value exits 2 before any
//! run starts; an artifact that cannot be written exits 1.

use std::process::ExitCode;

use mosquitonet_testbed::experiments::{Experiment, Params, REGISTRY};
use mosquitonet_testbed::report;

const USAGE: &str = "usage: experiment list\n       \
                     experiment <name> [key=value ...]\n       \
                     experiment all [seed=N]";

/// Runs one entry: artifacts to the metrics directory, and the report
/// rendered from them to stdout.
fn run(exp: &Experiment, params: &Params) {
    let artifacts = (exp.run)(params);
    let stems: Vec<String> = artifacts.iter().map(|a| a.stem()).collect();
    assert_eq!(
        stems, exp.artifacts,
        "{} must write exactly the artifacts its registry entry declares",
        exp.name
    );
    print!("{}", exp.report(&artifacts));
    let dir = report::metrics_dir();
    for (artifact, stem) in artifacts.iter().zip(&stems) {
        match artifact.write_in(&dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            // Fatal, not a warning: a later step must never read a stale
            // file from an earlier run in this one's place.
            Err(e) => {
                eprintln!("error: could not write {stem} into {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
}

/// `experiment all [seed=N]`: every entry at its defaults, under one seed.
fn run_all(args: &[String]) -> Result<(), String> {
    if let Some(arg) = args.iter().find(|a| !a.starts_with("seed=")) {
        return Err(format!("`{arg}`: `all` takes only seed=N"));
    }
    // Check the seed against every entry before the first run starts.
    let mut runs = Vec::new();
    for exp in REGISTRY {
        let seeded = exp.params.iter().any(|p| p.key == "seed");
        runs.push((exp, Params::parse(exp, if seeded { args } else { &[] })?));
    }
    for (exp, params) in &runs {
        run(exp, params);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str);
    let entry = name.and_then(Experiment::find);
    let usage = entry.map_or_else(|| USAGE.to_string(), Experiment::usage);
    if args
        .iter()
        .any(|a| a == "help" || a == "--help" || a == "-h")
    {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    let result = match (name, entry) {
        (Some("list"), _) => {
            for exp in REGISTRY {
                println!("{:<26} {}", exp.name, exp.about);
            }
            Ok(())
        }
        (Some("all"), _) => run_all(&args[1..]),
        (_, Some(exp)) => Params::parse(exp, &args[1..]).map(|params| run(exp, &params)),
        (Some(name), None) => Err(format!(
            "`{name}` is not an experiment (see `experiment list`)"
        )),
        (None, None) => Err("no experiment named".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            ExitCode::from(2)
        }
    }
}
