//! The whole suite: every workload, untraced then traced, each in its
//! own process (so `peak_rss_mb` is per workload), one line per metric,
//! and `out/results.json` with the machine record.

use std::process::{Command, ExitCode};

use crate::adapter::{Json, Workload};
use crate::harness::{out_dir, Args};

/// One metric line of a child run, parsed back:
/// `workload metric value unit median/q1/q3/min/max n`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricLine {
    /// Metric name.
    pub name: String,
    /// Reported value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// `[median, q1, q3, min, max]`.
    pub stats: [f64; 5],
    /// Samples behind the value.
    pub n: u64,
}

/// Parses one output line of a run; `None` for anything that is not a
/// metric line of `workload`.
pub fn parse_metric_line(workload: &str, line: &str) -> Option<MetricLine> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [w, name, value, unit, stats, n] = fields[..] else {
        return None;
    };
    if w != workload {
        return None;
    }
    let stats: Vec<f64> = stats
        .split('/')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some(MetricLine {
        name: name.to_string(),
        value: value.parse().ok()?,
        unit: unit.to_string(),
        stats: stats.try_into().ok()?,
        n: n.parse().ok()?,
    })
}

/// What one child process reported.
struct Child {
    ok: bool,
    stdout: String,
}

fn run_child(binary: &str, workload: Workload, args: &Args, trace: bool) -> Child {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe.with_file_name(binary));
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    match cmd.output() {
        Ok(out) => {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            Child {
                ok: out.status.success(),
                stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            }
        }
        Err(e) => Child {
            ok: false,
            stdout: format!("FAILED CHECK {binary}: {e}\n"),
        },
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn first_line_with(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(prefix))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine the numbers were taken on, recorded at the start of the
/// run (the load average before the suite adds its own).
pub fn machine_record() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::UInt(cores as u64)),
        ("rustc", Json::from(command_line("rustc", &["-V"]).as_str())),
        (
            "cpu",
            Json::from(first_line_with("/proc/cpuinfo", "model name").as_str()),
        ),
        (
            "loadavg",
            Json::from(
                std::fs::read_to_string("/proc/loadavg")
                    .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
                    .as_str(),
            ),
        ),
    ])
}

fn metrics_json(workload: &str, stdout: &str) -> Json {
    let lines = stdout
        .lines()
        .filter_map(|l| parse_metric_line(workload, l));
    Json::obj(lines.map(|m| {
        let [median, q1, q3, min, max] = m.stats.map(Json::Float);
        let entry = Json::obj([
            ("value", Json::Float(m.value)),
            ("unit", Json::from(m.unit)),
            ("median", median),
            ("q1", q1),
            ("q3", q3),
            ("min", min),
            ("max", max),
            ("n", Json::UInt(m.n)),
        ]);
        (m.name, entry)
    }))
}

/// Runs every workload untraced and traced, prints every line the runs
/// print, writes `out/results.json`, and fails if any check failed.
pub fn run(args: &Args) -> ExitCode {
    let machine = machine_record();
    println!("machine {}", machine.render());
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let untraced = run_child("mnbench", workload, args, false);
        print!("{}", untraced.stdout);
        let traced = run_child("mnbench-traced", workload, args, true);
        print!("{}", traced.stdout);
        let ok = untraced.ok && traced.ok;
        all_ok &= ok;
        let digest = untraced
            .stdout
            .lines()
            .find_map(|l| {
                l.strip_prefix(workload.name())?
                    .trim()
                    .strip_prefix("sim_digest ")
            })
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or("unknown");
        let entry = Json::obj([
            ("correct", Json::Bool(ok)),
            ("sim_digest", Json::from(digest)),
            (
                "end_to_end",
                metrics_json(workload.name(), &untraced.stdout),
            ),
            ("per_layer", metrics_json(workload.name(), &traced.stdout)),
        ]);
        workloads.push((workload.name(), entry));
    }
    let doc = Json::obj([
        ("schema", Json::from("mnbench.results/v1")),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("comparable", Json::Bool(!args.smoke)),
        ("machine", machine),
        ("workloads", Json::obj(workloads)),
    ])
    .render_pretty();
    let path = out_dir().join("results.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("FAILED CHECK {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one check did not hold (see FAILED CHECK lines)");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_and_other_lines_do_not() {
        let line = "handoff ops_per_s 4100.5 1/s 4100.5/4000/4200.25/3900/4300 24";
        let m = parse_metric_line("handoff", line).unwrap();
        assert_eq!(m.name, "ops_per_s");
        assert_eq!((m.value, m.unit.as_str(), m.n), (4100.5, "1/s", 24));
        assert_eq!(m.stats, [4100.5, 4000.0, 4200.25, 3900.0, 4300.0]);
        assert_eq!(parse_metric_line("bulk_tunnel", line), None);
        assert_eq!(
            parse_metric_line(
                "handoff",
                "handoff sim_digest 00ff events 3 seed 1 attempted 2 failed 0"
            ),
            None
        );
        assert_eq!(parse_metric_line("handoff", "{\"correct\": true}"), None);
    }

    #[test]
    fn results_document_is_valid_json() {
        let stdout = "w a.b 1.5 ns 1.5/1/2/1/2 5\nw c 2 count 2/2/2/2/2 1\nnoise\n";
        let doc = Json::parse(&metrics_json("w", stdout).render()).unwrap();
        assert_eq!(doc.get("a.b").unwrap().get("n").unwrap().as_u64(), Some(5));
        assert_eq!(
            doc.get("c").unwrap().get("unit").unwrap().as_str(),
            Some("count")
        );
        assert!(machine_record().get("nproc").unwrap().as_u64().unwrap() >= 1);
    }
}
