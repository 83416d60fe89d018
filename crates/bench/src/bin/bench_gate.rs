//! The benchmark regression gate.
//!
//! Measures the gated micro-benchmarks (`mosquitonet_bench::gate`: the
//! route/policy table lookups, the registration-backoff path, the event
//! core, one tunnelled hop's parse chain, and the S2/S3 wall-clock ids)
//! and compares each median
//! against the checked-in `bench/baseline.json`. Exits non-zero when any
//! benchmark runs more than `threshold` (default 1.25×) slower than its
//! baseline.
//!
//! * `UPDATE_BASELINE=1 cargo run --release -p mosquitonet-bench --bin
//!   bench_gate` — re-measure and rewrite the baseline.
//! * `BENCH_GATE_TOLERANCE=2.0` — widen the threshold (e.g. on shared CI
//!   runners with noisy neighbors).
//!
//! The baseline file is deliberately simple — a flat `"id": ns` map — so
//! this binary can parse it without a JSON dependency and a reviewer can
//! read a regression diff at a glance.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use criterion::Criterion;
use mosquitonet_sim::Json;

/// Regression threshold: fail when `measured > baseline * threshold`.
const DEFAULT_THRESHOLD: f64 = 1.25;

fn baseline_path() -> PathBuf {
    if let Some(p) = std::env::var_os("BENCH_BASELINE") {
        return PathBuf::from(p);
    }
    // crates/bench/ → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline.json")
}

/// Extracts every `"key": number` member of a flat JSON object. Ignores
/// anything it does not understand — the gate then reports the missing
/// baseline entry instead of a parse error.
fn parse_flat_object(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some((key_part, value_part)) = line.split_once(':') else {
            continue;
        };
        let key = key_part.trim().trim_matches('"');
        let value = value_part.trim().trim_end_matches(',');
        if let Ok(v) = value.parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

fn write_baseline(results: &[(String, f64)]) -> std::io::Result<PathBuf> {
    let path = baseline_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = Json::obj(
        results
            .iter()
            .map(|(id, ns)| (id.clone(), Json::UInt(ns.round() as u64))),
    );
    std::fs::write(&path, doc.render_pretty())?;
    Ok(path)
}

/// Prints the multi-thread scaling efficiency from the sharded S3 ids:
/// mt1 wall-ns/packet over mt4. 1.00x means four threads bought nothing
/// (expected on a single-core runner); 4.00x is perfect scaling. Purely
/// informational — the gate judges each id against its own baseline.
fn print_scaling_line(results: &[(String, f64)]) {
    let find = |id: &str| {
        results
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, ns)| *ns)
            .filter(|ns| *ns > 0.0)
    };
    if let (Some(mt1), Some(mt4)) = (find("s3/pps_mt1"), find("s3/pps_mt4")) {
        println!(
            "scaling: s3/pps_mt4 {mt4:.1} ns/pkt vs mt1 {mt1:.1} ns/pkt \
             = {:.2}x speedup at 4 threads",
            mt1 / mt4
        );
    }
}

fn main() -> ExitCode {
    let threshold: f64 = std::env::var("BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD);

    let mut c = Criterion::default()
        .configure_from_args()
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    let results: Vec<(String, f64)> = mosquitonet_bench::gate::run_all(&mut c)
        .into_iter()
        .filter(|(_, ns)| *ns > 0.0) // 0 = skipped by a name filter
        .collect();
    c.final_summary();

    print_scaling_line(&results);

    if std::env::var_os("UPDATE_BASELINE").is_some() {
        match write_baseline(&results) {
            Ok(path) => {
                println!("baseline updated: {}", path.display());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: could not write baseline: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let path = baseline_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: no baseline at {} ({e}); create one with UPDATE_BASELINE=1",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = parse_flat_object(&text);

    // Every id is measured and judged before the gate decides: a run with
    // several regressions reports all of them, not just the first.
    let mut regressions: Vec<(String, f64, f64, f64)> = Vec::new();
    let mut missing: Vec<(String, f64)> = Vec::new();
    println!("\nbench gate (threshold {threshold:.2}x):");
    for (id, measured) in &results {
        match baseline.iter().find(|(k, _)| k == id) {
            Some((_, base)) if *base > 0.0 => {
                let ratio = measured / base;
                let verdict = if ratio > threshold {
                    regressions.push((id.clone(), *measured, *base, ratio));
                    "FAIL"
                } else {
                    "ok"
                };
                println!(
                    "  {id:<36} {measured:>10.1} ns vs baseline {base:>8.0} ns \
                     ({ratio:>5.2}x) {verdict}"
                );
            }
            _ => {
                missing.push((id.clone(), *measured));
                println!("  {id:<36} {measured:>10.1} ns — MISSING from baseline");
            }
        }
    }
    // Baseline entries nothing measured any more are stale — a renamed or
    // deleted benchmark should drop its baseline row in the same change.
    let stale: Vec<&str> = baseline
        .iter()
        .filter(|(k, _)| !results.iter().any(|(id, _)| id == k))
        .map(|(k, _)| k.as_str())
        .collect();
    if !stale.is_empty() && results.len() >= baseline.len() {
        for id in &stale {
            println!("  {id:<36} baseline entry is stale (no such benchmark)");
        }
    }

    if !regressions.is_empty() || !missing.is_empty() {
        eprintln!(
            "bench gate: {} regression(s), {} missing baseline(s) at {threshold:.2}x:",
            regressions.len(),
            missing.len()
        );
        for (id, measured, base, ratio) in &regressions {
            eprintln!("  {id:<36} {measured:>10.1} ns vs {base:>8.0} ns = {ratio:.2}x");
        }
        for (id, measured) in &missing {
            eprintln!("  {id:<36} {measured:>10.1} ns — no baseline entry");
        }
        eprintln!("if intentional, regenerate with UPDATE_BASELINE=1");
        return ExitCode::FAILURE;
    }
    println!(
        "bench gate: all {} benchmarks within threshold",
        results.len()
    );
    ExitCode::SUCCESS
}
