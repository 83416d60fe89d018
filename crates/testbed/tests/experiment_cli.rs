//! Drives the `experiment` runner binary the way a shell would: bad
//! input must be refused before any run starts, and `all` must hand its
//! seed to every run and print the report EXPERIMENTS.md pastes.

use std::path::PathBuf;
use std::process::{Command, Output};

use mosquitonet_sim::Json;
use mosquitonet_testbed::experiments::{run_c5, REGISTRY};
use mosquitonet_wire::PcapReader;

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
        (&["all", "json=out.json"], "`json=out.json`"),
        // The engine has one loop: there is no batching switch to take.
        (&["s2_ha_fleet", "batching=0"], "`batching=0`"),
        (&["s3_saturation", "batching=1"], "`batching=1`"),
        // One thread steps the shards: there is no worker count to take.
        (&["s2_ha_fleet", "threads=2"], "`threads=2`"),
        (&["s3_saturation", "threads=1"], "`threads=1`"),
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

/// The runs whose result lives nowhere but the leading `result` member
/// of their metrics sidecar.
const RESULT_FIRST: &[&str] = &[
    "tab1", "tab1_far", "fig6", "fig7", "c1", "c2", "c3", "a1", "a2", "a3",
];

#[test]
fn all_hands_its_seed_to_every_run() {
    let dir = scratch("all");
    // Not 1996, which is also `seed`'s default: an `all` that dropped the
    // seed would still print 1996 everywhere.
    let out = experiment(&dir, &["all", "seed=7"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The same run holds EXPERIMENTS.md's pasted report to the binary.
    let pasted = include_str!("../../../EXPERIMENTS.md");
    let (_, block) = pasted
        .split_once("## Full report (seed 7)\n")
        .and_then(|(_, section)| section.split_once("```text\n"))
        .expect("EXPERIMENTS.md has its full-report block");
    let (block, _) = block.split_once("\n```\n").expect("closing fence");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        stdout.trim(),
        block,
        "EXPERIMENTS.md's full report is stale: re-paste `experiment all seed=7`"
    );
    // The body (`bench` or `metrics` member) of the sidecar `stem`.
    let body = |stem: &str| {
        let path = dir.join(format!("{stem}.json"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let kind = stem.rsplit('.').next().expect("a kind");
        doc.get(kind)
            .cloned()
            .unwrap_or_else(|| panic!("{stem}: no {kind}"))
    };
    // The sidecars echo the seed their run was configured with.
    for stem in [
        "s2_fleet.bench",
        "s3_saturation.bench",
        "c5_ha_crash_recovery.metrics",
    ] {
        assert_eq!(
            body(stem).get("seed").and_then(Json::as_u64),
            Some(7),
            "{stem}"
        );
    }
    for name in RESULT_FIRST {
        let Json::Obj(members) = body(&format!("{name}.metrics")) else {
            panic!("{name}: the metrics body is an object");
        };
        assert_eq!(
            members[0].0, "result",
            "{name}'s metrics must open with result"
        );
    }
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
        for stem in exp.artifacts {
            // A sidecar's stem drops its `.json`; a capture's is its name.
            let file = match stem.ends_with(".pcap") {
                true => stem.to_string(),
                false => format!("{stem}.json"),
            };
            assert!(
                dir.join(&file).exists(),
                "{} did not write {file}",
                exp.name
            );
        }
    }
    // C5's capture reads back as Ethernet, one record per frame its run
    // captured at the router, byte for byte.
    let pcap = std::fs::read(dir.join("c5_ha_crash_recovery.pcap")).expect("c5's pcap");
    let pcap = PcapReader::parse_file(&pcap).expect("a well-formed pcap");
    let captures = run_c5(7).captures;
    assert!(!captures.is_empty(), "the router captured nothing");
    assert_eq!((pcap.link_type, pcap.frames.len()), (1, captures.len()));
    for (frame, capture) in pcap.frames.iter().zip(&captures) {
        assert_eq!(frame.ts_us, capture.at.as_micros());
        assert_eq!(frame.bytes, capture.bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
