//! The experiment runner: every run of the reproduction, selected by name
//! from [`REGISTRY`] with checked `key=value` parameters.
//!
//! Usage:
//!
//! ```text
//! experiment list
//! experiment <name> [key=value ...]
//! experiment all [seed=N] [json=FILE]
//! ```
//!
//! A run prints its paper-format report on stdout and writes its
//! artifacts into `MOSQUITONET_METRICS_DIR` (default `target/metrics`).
//! `all` runs the whole roster in report order — the source of
//! EXPERIMENTS.md — and with `json=FILE` additionally writes the raw
//! results as one JSON document for downstream plotting. `help` or
//! `--help` anywhere prints usage and runs nothing; an unknown name or
//! key, a non-integer or an out-of-range value exits 2 before any run
//! starts; an artifact that cannot be written exits 1.

use std::process::ExitCode;

use mosquitonet_sim::Json;
use mosquitonet_testbed::experiments::{Experiment, Params, REGISTRY};
use mosquitonet_testbed::report;

const USAGE: &str = "usage: experiment list\n       \
                     experiment <name> [key=value ...]\n       \
                     experiment all [seed=N] [json=FILE]";

/// Runs one entry: report to stdout, artifacts to the metrics directory.
/// Returns the run's members of the combined JSON document.
fn run(exp: &Experiment, params: &Params) -> Vec<(&'static str, Json)> {
    let outcome = (exp.run)(params);
    print!("{}", outcome.report);
    let stems: Vec<String> = outcome.artifacts.iter().map(|a| a.stem()).collect();
    assert_eq!(
        stems, exp.artifacts,
        "{} must write exactly the artifacts its registry entry declares",
        exp.name
    );
    let dir = report::metrics_dir();
    for (artifact, stem) in outcome.artifacts.iter().zip(&stems) {
        match artifact.write_in(&dir) {
            Ok(Some(path)) => eprintln!("wrote {}", path.display()),
            Ok(None) => {}
            // Fatal, not a warning: a later step must never read a stale
            // file from an earlier run in this one's place.
            Err(e) => {
                eprintln!("error: could not write {stem} into {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    outcome.json
}

/// `experiment all [seed=N] [json=FILE]`: every entry at its defaults,
/// under one seed.
fn run_all(args: &[String]) -> Result<(), String> {
    let mut seed_args: Vec<&String> = Vec::new();
    let mut json_path = None;
    for arg in args {
        match arg.split_once('=') {
            Some(("seed", _)) => seed_args.push(arg),
            Some(("json", path)) if !path.is_empty() && json_path.is_none() => {
                json_path = Some(path)
            }
            _ => {
                return Err(format!(
                    "`{arg}`: `all` takes only seed=N and one json=FILE"
                ))
            }
        }
    }
    // Check the seed against every entry before the first run starts.
    let mut runs = Vec::new();
    let mut seed = None;
    for exp in REGISTRY {
        let seeded = exp.params.iter().any(|p| p.key == "seed");
        let params = Params::parse(exp, if seeded { &seed_args[..] } else { &[] })?;
        if seeded {
            seed = Some(params.get("seed"));
        }
        runs.push((exp, params));
    }

    let mut all = vec![(
        "seed",
        Json::from(seed.expect("the roster has seeded runs")),
    )];
    for (exp, params) in &runs {
        all.extend(run(exp, params));
    }
    if let Some(path) = json_path {
        std::fs::write(path, Json::obj(all).render_pretty())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        eprintln!("wrote {path}");
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
        (_, Some(exp)) => Params::parse(exp, &args[1..]).map(|params| drop(run(exp, &params))),
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
