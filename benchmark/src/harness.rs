//! One run of one workload: repeats, statistics, checks, and the result
//! line the benchmark driver reads.
//!
//! An untraced run is one discarded warm-up repeat (allocator growth made
//! the first repeat up to twice as slow) and then timed repeats of
//! identical fixed work until `--seconds` have passed; every end-to-end
//! metric is the median over those repeats, each repeat's times first
//! divided by the machine slowdown its two bracketing yardstick calls
//! measured (see [`crate::yardstick`]). A traced run spends its
//! `--seconds` on traced repeats of the workload, a short untraced run of
//! the sibling binary (for `trace.overhead_pct`) and the probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::adapter::{self, Json, Repeat, Scale, Workload};
use crate::names::{Source, END_TO_END, PER_LAYER};
use crate::probe::BATCHES;
use crate::spans::SpanLog;
use crate::stats::{median, summarize, Summary};
use crate::yardstick::{slowdown, Yardstick};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1996;
/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 24.0;
/// Default `--seconds` at `--smoke` scale.
pub const SMOKE_SECONDS: f64 = 0.5;
/// Fewest timed repeats of a run, however short `--seconds` is.
const MIN_REPEATS: usize = 3;
/// Repeats of the 1- and 2-thread comparison.
const MT_REPEATS: usize = 5;

/// Parsed command line, shared by the single-workload run and the suite.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--workload W`; `None` runs the whole suite.
    pub workload: Option<Workload>,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds S`: how long one run measures.
    pub seconds: f64,
    /// `--trace 1` / `--traced`.
    pub trace: bool,
    /// `--smoke`: checks only, at a scale whose numbers mean nothing.
    pub smoke: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--traced]
    /// [--smoke]`, in any order.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        };
        let mut seconds_given = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    out.workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    out.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    out.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    seconds_given = true;
                }
                "--trace" => {
                    out.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    };
                }
                "--traced" => out.trace = true,
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if out.smoke && !seconds_given {
            out.seconds = SMOKE_SECONDS;
        }
        Ok(out)
    }

    /// The repeat sizes this run uses.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: the median of `summary`, or a single reading.
    pub value: f64,
    /// Statistics over the repeats (or batches) behind the value.
    pub summary: Summary,
}

/// The outcome of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// All checks held.
    pub correct: bool,
    /// Operations attempted over the timed repeats.
    pub attempted: u64,
    /// Operations failed over the timed repeats.
    pub failed: u64,
    /// Every metric of the run's kind, in vocabulary order.
    pub metrics: Vec<Reported>,
    /// Checks that did not hold, by name.
    pub failures: Vec<String>,
    /// FNV-64 of the workload's deterministic result.
    pub sim_digest: u64,
    /// Engine events per repeat.
    pub events: u64,
    /// Median machine slowdown over the timed repeats.
    pub slowdown: f64,
    /// Uncorrected wall-clock medians of the timed end-to-end metrics.
    pub raw_wall: Vec<(&'static str, f64)>,
}

/// One timed repeat, how slow the machine was around it, and the
/// process's peak memory once it was done.
struct Timed {
    repeat: Repeat,
    slowdown: f64,
    peak_rss_mb: f64,
}

/// The end-to-end metrics that are times, in the order [`Timed::wall`]
/// returns them.
const TIMED: [&str; 3] = ["ops_per_s", "run_s", "setup_s"];

impl Timed {
    /// `[ops_per_s, run_s, setup_s]` of this repeat on the wall clock.
    fn wall(&self) -> [f64; 3] {
        let r = &self.repeat;
        [
            r.ops as f64 / seconds(r.window_ns),
            seconds(r.setup_ns + r.window_ns + r.collect_ns),
            seconds(r.setup_ns),
        ]
    }

    /// The same, corrected to the nominal machine.
    fn corrected(&self) -> [f64; 3] {
        let [rate, run_s, setup_s] = self.wall();
        [
            rate * self.slowdown,
            run_s / self.slowdown,
            setup_s / self.slowdown,
        ]
    }
}

fn single(value: f64) -> Summary {
    summarize(&[value])
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the warm-up repeat and then timed repeats until `budget` has
/// passed (at least [`MIN_REPEATS`]), one yardstick call between
/// repeats. Returns the timed repeats and the failures of the determinism
/// gate: digest, event count and operation count identical across all
/// repeats, the warm-up included.
fn timed_repeats(
    workload: Workload,
    args: &Args,
    budget: Duration,
    spans: &mut SpanLog,
) -> (Vec<Timed>, Vec<String>) {
    let scale = args.scale();
    let repeat = |n: usize, spans: &mut SpanLog| {
        let run = spans.begin_run(format!("{}#{n}", workload.name()));
        let r = adapter::run_repeat(workload, args.seed, &scale, spans);
        spans.end(run);
        r
    };
    let mut yardstick = Yardstick::new();
    let warm_up = repeat(0, spans);
    let mut failures = warm_up.failures.clone();
    let mut repeats: Vec<Timed> = Vec::new();
    let started = Instant::now();
    let mut before = yardstick.run_ns();
    while repeats.len() < MIN_REPEATS || started.elapsed() < budget {
        let r = repeat(repeats.len() + 1, spans);
        let after = yardstick.run_ns();
        failures.extend(r.failures.iter().cloned());
        if (r.digest, r.events, r.ops) != (warm_up.digest, warm_up.events, warm_up.ops) {
            failures.push(format!(
                "{}: repeat {} is not deterministic: digest {:016x} events {} ops {} vs {:016x} {} {}",
                workload.name(),
                repeats.len() + 1,
                r.digest,
                r.events,
                r.ops,
                warm_up.digest,
                warm_up.events,
                warm_up.ops
            ));
        }
        repeats.push(Timed {
            repeat: r,
            slowdown: slowdown(before, after),
            peak_rss_mb: peak_rss_mb(),
        });
        before = after;
    }
    failures.sort();
    failures.dedup();
    (repeats, failures)
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The untraced run: every end-to-end metric, tracing off.
pub fn run_untraced(workload: Workload, args: &Args) -> RunResult {
    let mut spans = SpanLog::new(false);
    let budget = Duration::from_secs_f64(args.seconds);
    let (repeats, failures) = timed_repeats(workload, args, budget, &mut spans);
    let column = |figures: fn(&Timed) -> [f64; 3], i: usize| -> Vec<f64> {
        repeats.iter().map(|t| figures(t)[i]).collect()
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let summary = match TIMED.iter().position(|name| *name == m.name) {
                Some(i) => summarize(&column(Timed::corrected, i)),
                // Read after the first timed repeat, so that it does not
                // depend on how many repeats the machine's speed let the
                // run fit in (freed memory is not always returned).
                None => single(repeats[0].peak_rss_mb),
            };
            Reported {
                name: m.name,
                unit: m.unit,
                value: summary.median,
                summary,
            }
        })
        .collect();
    let raw_wall = TIMED
        .iter()
        .enumerate()
        .map(|(i, name)| (*name, median(&column(Timed::wall, i))))
        .collect();
    finish(repeats, failures, metrics, raw_wall)
}

fn finish(
    repeats: Vec<Timed>,
    failures: Vec<String>,
    metrics: Vec<Reported>,
    raw_wall: Vec<(&'static str, f64)>,
) -> RunResult {
    RunResult {
        correct: failures.is_empty(),
        attempted: repeats.iter().map(|t| t.repeat.attempted).sum(),
        failed: repeats.iter().map(|t| t.repeat.failed).sum(),
        metrics,
        failures,
        sim_digest: repeats[0].repeat.digest,
        events: repeats[0].repeat.events,
        slowdown: median(&repeats.iter().map(|t| t.slowdown).collect::<Vec<_>>()),
        raw_wall,
    }
}

/// Runs the untraced sibling binary briefly and returns its `ops_per_s`,
/// the base `trace.overhead_pct` is measured against. The counting
/// allocator is linked into this binary, so the comparison has to be
/// made against the other one.
fn untraced_ops_per_s(workload: Workload, args: &Args, budget: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = exe.with_file_name("mnbench");
    let mut cmd = Command::new(&sibling);
    cmd.args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &format!("{budget:.3}")])
        .env_remove("MOSQUITONET_PROFILE");
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: {e}", sibling.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last)
        .ok()
        .and_then(|doc| number(doc.get("metrics")?.get("ops_per_s")?.get("value")?))
        .ok_or_else(|| format!("no ops_per_s in the untraced run's output: {last:?}"))
}

/// A JSON number as a float (the program's parser reads an integral
/// value back as an integer).
pub fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Float(f) => Some(*f),
        other => other.as_u64().map(|n| n as f64),
    }
}

/// The traced run: every per-layer metric, and `trace.<workload>.json`.
pub fn run_traced(workload: Workload, args: &Args, out_dir: &Path) -> RunResult {
    let scale = args.scale();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut spans = SpanLog::new(true);
    let mut layer: BTreeMap<&'static str, Summary> = BTreeMap::new();

    // 35 % of the time on traced repeats, 15 % on the untraced sibling,
    // 50 % on the probes.
    let budget = Duration::from_secs_f64(args.seconds * 0.35);
    let (repeats, mut failures) = timed_repeats(workload, args, budget, &mut spans);
    for (i, (name, _)) in repeats[0].repeat.layer.iter().enumerate() {
        let values: Vec<f64> = repeats.iter().map(|t| t.repeat.layer[i].1).collect();
        layer.insert(name, summarize(&values));
    }
    for (metric, span) in [
        ("testbed.build_ms", "testbed.build"),
        ("testbed.settle_ms", "testbed.settle"),
        ("testbed.collect_ms", "testbed.collect"),
        ("sim.metrics.export_ms", "sim.metrics.export"),
        ("sim.flightrec.export_ms", "sim.flightrec.export"),
    ] {
        // The first run is the warm-up repeat.
        let ms: Vec<f64> = spans
            .totals_by_run(span)
            .iter()
            .skip(1)
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        layer.insert(
            metric,
            if ms.is_empty() {
                single(0.0)
            } else {
                summarize(&ms)
            },
        );
    }

    // Both rates are corrected for machine speed, like every end-to-end
    // figure; the per-layer times below are as measured.
    let traced_rate = median(&repeats.iter().map(|t| t.corrected()[0]).collect::<Vec<_>>());
    let overhead = match untraced_ops_per_s(workload, args, args.seconds * 0.15) {
        Ok(untraced) => (untraced / traced_rate - 1.0) * 100.0,
        Err(e) => {
            failures.push(format!("trace.overhead_pct: {e}"));
            0.0
        }
    };
    layer.insert("trace.overhead_pct", single(overhead));

    let probes = PER_LAYER
        .iter()
        .filter(|m| m.source == Source::Probe)
        .count();
    let batch = Duration::from_secs_f64(args.seconds * 0.5 / (probes * BATCHES) as f64);
    let run = spans.begin_run("probes".to_string());
    for (name, value) in adapter::run_probes(args.seed, batch, cores, &mut spans) {
        layer.insert(name, single(value));
    }
    spans.end(run);
    // Extra windows only one workload has, last: the 2-thread runs leave
    // the machine slow for a while, which the probes must not see.
    let mut ns_1024 = single(0.0);
    let (mut mt2_rate, mut mt2_speedup) = (single(0.0), 0.0);
    match workload {
        Workload::BulkTunnel => {
            let run = spans.begin_run("bulk_tunnel.1024B".to_string());
            let (ns, f) = adapter::bulk_tunnel_1024(args.seed, &scale, &mut spans);
            spans.end(run);
            failures.extend(f);
            ns_1024 = single(ns);
        }
        Workload::BulkSharded if cores >= 2 => {
            let (t1, t2, f) = adapter::sharded_thread_pair(args.seed, &scale, MT_REPEATS);
            failures.extend(f);
            mt2_rate = summarize(&t2);
            mt2_speedup = mt2_rate.median / summarize(&t1).median;
        }
        _ => {}
    }
    layer.insert("sim.window.ns_per_pkt_1024B", ns_1024);
    layer.insert("sim.shard.mt2_pkts_per_s", mt2_rate);
    layer.insert("sim.shard.mt2_spread", single(mt2_rate.spread()));
    layer.insert("sim.shard.mt2_speedup", single(mt2_speedup));

    layer.insert("trace.spans", single(spans.len() as f64));

    // Counts the program makes exactly must repeat exactly across the
    // timed repeats.
    for m in PER_LAYER.iter().filter(|m| m.source == Source::Exact) {
        let s = layer[m.name];
        if s.min != s.max {
            failures.push(format!(
                "{}: exact count {} varies across repeats: {} to {}",
                workload.name(),
                m.name,
                s.min,
                s.max
            ));
        }
    }
    // The span tree must account for each run: self times add up to the
    // root (a child overrunning its parent would break this).
    for root in spans.roots() {
        let (total, selfs) = (spans.spans()[root].total_ns, spans.tree_self_ns(root));
        if selfs != total {
            failures.push(format!(
                "trace: self times of run span {root} sum to {selfs} ns, not {total} ns"
            ));
        }
    }
    let trace_file = out_dir.join(format!("trace.{}.json", workload.name()));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&trace_file, spans.to_json()))
    {
        failures.push(format!("{}: {e}", trace_file.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let summary = *layer
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
            Reported {
                name: m.name,
                unit: m.unit,
                value: summary.median,
                summary,
            }
        })
        .collect();
    failures.sort();
    failures.dedup();
    finish(repeats, failures, metrics, Vec::new())
}

/// The human-readable lines: `workload metric value unit
/// median/q1/q3/min/max n`, then the digest and any failed check.
pub fn render_lines(workload: Workload, args: &Args, result: &RunResult) -> String {
    let mut out = String::new();
    for m in &result.metrics {
        let s = m.summary;
        let _ = writeln!(
            out,
            "{} {} {} {} {}/{}/{}/{}/{} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n
        );
    }
    if !result.raw_wall.is_empty() {
        let raw: Vec<String> = result
            .raw_wall
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        let _ = writeln!(
            out,
            "{} machine slowdown {:.3} of nominal; uncorrected wall medians: {}",
            workload.name(),
            result.slowdown,
            raw.join(" ")
        );
    }
    let _ = writeln!(
        out,
        "{} sim_digest {:016x} events {} seed {} attempted {} failed {}{}",
        workload.name(),
        result.sim_digest,
        result.events,
        args.seed,
        result.attempted,
        result.failed,
        if args.smoke {
            " SMOKE-SCALE: numbers not comparable"
        } else {
            ""
        }
    );
    for f in &result.failures {
        let _ = writeln!(out, "FAILED CHECK {f}");
    }
    out
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    let metrics = result.metrics.iter().map(|m| {
        let entry = Json::obj([
            ("value", Json::Float(m.value)),
            ("unit", Json::from(m.unit)),
        ]);
        (m.name, entry)
    });
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::UInt(result.attempted.max(1))),
        ("failed", Json::UInt(result.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// Where traces and `results.json` go: `out/` in the package directory
/// the binary was built from, which is inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Entry point of both binaries. `traced_binary` says which one this is:
/// the counting allocator is linked only into `mnbench-traced`, so a
/// traced run must be made by that binary and an untraced one by
/// `mnbench` (`run.sh` picks).
pub fn main_with(traced_binary: bool) -> std::process::ExitCode {
    use std::process::ExitCode;
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mnbench: {e}");
            eprintln!(
                "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return crate::suite::run(&args);
    };
    if args.trace != traced_binary {
        eprintln!(
            "mnbench: --trace {} is served by the other binary (run.sh picks it)",
            u8::from(args.trace)
        );
        return ExitCode::from(2);
    }
    let result = if args.trace {
        adapter::enable_program_profiling();
        run_traced(workload, &args, &out_dir())
    } else {
        run_untraced(workload, &args)
    };
    print!("{}", render_lines(workload, &args, &result));
    println!("{}", result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "handoff",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Handoff));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        let d = parse(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, DEFAULT_SEED, false));
        assert!(parse(&["--traced", "--smoke"]).unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Reported {
                name: "setup_s",
                unit: "s",
                value: 0.25,
                summary: single(0.25),
            }],
            failures: Vec::new(),
            sim_digest: 1,
            events: 2,
            slowdown: 1.0,
            raw_wall: Vec::new(),
        };
        let doc = Json::parse(&result_line(&result)).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value"), Some(&Json::Float(0.25)));
        assert_eq!(number(&Json::UInt(3)), Some(3.0));
    }
}
