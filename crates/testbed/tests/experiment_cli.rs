//! Drives the `experiment` runner binary the way a shell would: bad
//! input must be refused before any run starts, and `all` must hand its
//! seed to every run and print the report EXPERIMENTS.md pastes.

use std::path::PathBuf;
use std::process::{Command, Output};

use mosquitonet_sim::Json;
use mosquitonet_testbed::experiments::REGISTRY;

/// A fresh artifact directory per test, so parallel tests share nothing.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-metrics")
        .join(format!("experiment-cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn experiment(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiment"))
        .args(args)
        .env("MOSQUITONET_METRICS_DIR", dir)
        .output()
        .expect("spawn the experiment runner")
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let dir = scratch("help");
    let out = experiment(&dir, &["s2_ha_fleet", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.starts_with("usage: experiment s2_ha_fleet [shards=16 "),
        "{stdout}"
    );
    assert_eq!(stdout.lines().count(), 1, "usage only, no report: {stdout}");
    assert!(!dir.exists(), "--help must not write artifacts");
}

#[test]
fn an_unwritable_artifact_exits_1_naming_the_path() {
    // The metrics "directory" is an existing regular file.
    let dir = scratch("unwritable");
    std::fs::create_dir_all(dir.parent().expect("has a parent")).expect("scratch root");
    std::fs::write(&dir, "in the way").expect("plant the file");
    let out = experiment(&dir, &["s3_saturation", "pairs=1", "burst=1", "ticks=1"]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("s3_saturation.bench") && stderr.contains(&*dir.to_string_lossy()),
        "must name the stem and the path: {stderr}"
    );
    let _ = std::fs::remove_file(&dir);
}

#[test]
fn bad_parameters_exit_2_naming_the_token_and_run_nothing() {
    let dir = scratch("bad-params");
    for (args, token) in [
        (&["s2_ha_fleet", "shard=4"][..], "`shard=4`"),
        (
            &["c4_lossy_registration", "switches=four"],
            "`switches=four`",
        ),
        (&["s2_ha_fleet", "shards=300"], "`shards=300`"),
        (&["s3_saturation", "ticks=1", "ticks=2"], "`ticks=2`"),
        (&["all", "seed=1", "seed=2"], "`seed=2`"),
    ] {
        let out = experiment(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(
            stderr.contains(token),
            "{args:?} must name {token}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("experiment {} [", args[0])),
            "{args:?} must print the entry's usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not print a report");
    }
    assert!(!dir.exists(), "refused input must not write artifacts");
}

#[test]
fn all_hands_its_seed_to_every_run() {
    let dir = scratch("all");
    let json = dir.join("all.json");
    let json_arg = format!("json={}", json.display());
    let out = experiment(&dir, &["all", "seed=1996", &json_arg]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The same run holds EXPERIMENTS.md's pasted report to the binary.
    let pasted = include_str!("../../../EXPERIMENTS.md");
    let (_, block) = pasted
        .split_once("## Full report (seed 1996)\n\n```text\n")
        .expect("EXPERIMENTS.md has its full-report block");
    let (block, _) = block.split_once("\n```\n").expect("closing fence");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        stdout.trim(),
        block,
        "EXPERIMENTS.md's full report is stale: re-paste `experiment all seed=1996`"
    );
    let doc = Json::parse(&std::fs::read_to_string(&json).expect("json=FILE written"))
        .expect("valid JSON");
    let seed_of = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |j, key| j.get(key))
            .and_then(Json::as_u64)
    };
    assert_eq!(seed_of(&["seed"]), Some(1996));
    // The bench bodies echo the seed their run was configured with.
    assert_eq!(seed_of(&["s2", "seed"]), Some(1996));
    assert_eq!(seed_of(&["s3", "seed"]), Some(1996));
    // And the whole declared artifact set landed — each run having used
    // its declared defaults, which therefore must lie in their own ranges.
    for exp in REGISTRY {
        for p in exp.params {
            assert!(
                (p.min..=p.max).contains(&p.default),
                "{}: default of `{}` is out of its own range",
                exp.name,
                p.key
            );
        }
        for stem in exp.artifacts.iter().filter(|s| !s.ends_with(".pcap")) {
            assert!(
                dir.join(format!("{stem}.json")).exists(),
                "{} did not write {stem}.json",
                exp.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
