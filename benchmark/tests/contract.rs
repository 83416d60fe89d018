//! The harness against its contract: `BENCHMARK.json` at the repository
//! root, the vocabulary in `names.rs`, the README and what a real run of
//! both binaries prints must all name the same things.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use mnbench::adapter::Json;
use mnbench::harness::DEFAULT_SECONDS;
use mnbench::names::{validate, END_TO_END, PER_LAYER, WORKLOADS};

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

fn keys(entry: &Json) -> Vec<&str> {
    match entry {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn benchmark_json_agrees_with_the_vocabulary() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_u64),
        Some(DEFAULT_SECONDS as u64),
        "run.sh's default --seconds is the driver's run_seconds"
    );
    assert_eq!(entries(&doc, "paths"), [Json::from("benchmark")]);
    assert_eq!(
        entries(&doc, "command"),
        [Json::from("bash"), Json::from("benchmark/run.sh")]
    );

    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!((text(entry, "name"), text(entry, "why")), (*name, *why));
    }

    let end_to_end = entries(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, m) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
        assert_eq!(
            entry.get("bound"),
            Some(&Json::Float(m.bound)),
            "{}",
            m.name
        );
    }

    let per_layer = entries(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
    }

    let pairs = |list: &'static str| -> Vec<(&str, &str)> {
        entries(&doc, list)
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit")))
            .collect()
    };
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(
        validate(&names, &pairs("end_to_end"), &pairs("per_layer")),
        Ok(())
    );
}

#[test]
fn readme_explains_every_workload_and_metric() {
    let readme = read("README.md");
    let names = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    let missing: Vec<&str> = names
        .filter(|name| !readme.contains(&format!("`{name}`")))
        .collect();
    assert!(missing.is_empty(), "README.md does not mention {missing:?}");
}

/// Runs one binary on one workload at smoke scale and returns the names
/// in the `metrics` object of its result line.
fn metrics_of_a_real_run(binary: &str, trace: &str) -> BTreeSet<String> {
    let output = Command::new(binary)
        .args(["--workload", "handoff", "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{binary} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the result line is JSON");
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    keys(doc.get("metrics").expect("metrics"))
        .into_iter()
        .map(str::to_string)
        .collect()
}

#[test]
fn real_runs_print_exactly_the_metrics_benchmark_json_names() {
    let doc = benchmark_json();
    let named = |list: &str| -> BTreeSet<String> {
        entries(&doc, list)
            .iter()
            .map(|e| text(e, "name").to_string())
            .collect()
    };
    assert_eq!(
        metrics_of_a_real_run(env!("CARGO_BIN_EXE_mnbench"), "0"),
        named("end_to_end")
    );
    assert_eq!(
        metrics_of_a_real_run(env!("CARGO_BIN_EXE_mnbench-traced"), "1"),
        named("per_layer")
    );
}
