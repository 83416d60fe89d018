//! Flight-recorder inspector: renders the journeys sidecar an experiment
//! run wrote (`{exp}.journeys.json`) as human-readable summaries.
//!
//! Usage:
//!   inspect journeys [--dropped] [file-or-experiment]
//!   inspect blackout [--json] [file-or-experiment]
//!   inspect top-hops [--json] [file-or-experiment]
//!
//! `--json` emits a structured `mosquitonet.inspect/v1` document instead
//! of the plain-text table, so a test can diff machine-readable output.
//!
//! The target may be a path to a sidecar file or an experiment-name
//! prefix (e.g. `c5`), resolved against `MOSQUITONET_METRICS_DIR`
//! (default `target/metrics`). With no target, the lone sidecar in that
//! directory is used. Output is deterministic for a given sidecar, so
//! `tests/goldens.rs` diffs it against a pinned copy.

use std::path::PathBuf;
use std::process::ExitCode;

use mosquitonet_sim::Json;
use mosquitonet_testbed::report::{metrics_dir, SidecarKind};

const USAGE: &str =
    "usage: inspect <journeys [--dropped] | blackout [--json] | top-hops [--json]> \
     [file-or-experiment]";

/// Schema tag stamped into every `--json` output document.
const INSPECT_SCHEMA: &str = "mosquitonet.inspect/v1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut dropped_only = false;
    let mut json_mode = false;
    let mut target: Option<&str> = None;
    for a in &args[1..] {
        if a == "--dropped" {
            dropped_only = true;
        } else if a == "--json" {
            json_mode = true;
        } else if target.is_none() {
            target = Some(a);
        } else {
            eprintln!("unexpected argument: {a}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if dropped_only && cmd != "journeys" {
        eprintln!("--dropped only applies to `journeys`\n{USAGE}");
        return ExitCode::from(2);
    }
    if json_mode && cmd != "blackout" && cmd != "top-hops" {
        eprintln!("--json only applies to `blackout` and `top-hops`\n{USAGE}");
        return ExitCode::from(2);
    }
    let path = match resolve(target) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let doc = match load(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let journeys = doc.get("journeys").cloned().unwrap_or(Json::Null);
    let experiment = doc
        .get("experiment")
        .and_then(|e| e.as_str())
        .unwrap_or("?")
        .to_string();
    let out = match cmd.as_str() {
        "journeys" => render_journeys(&experiment, &journeys, dropped_only),
        "blackout" if json_mode => json_blackout(&experiment, &journeys),
        "top-hops" if json_mode => json_top_hops(&experiment, &journeys),
        "blackout" => render_blackout(&experiment, &journeys),
        "top-hops" => render_top_hops(&experiment, &journeys),
        other => {
            eprintln!("unknown command: {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print!("{out}");
    ExitCode::SUCCESS
}

/// Resolves the target argument to a sidecar path: an existing file wins;
/// otherwise it is an experiment-name prefix matched against
/// `{dir}/{prefix}*.journeys.json`. No target: the directory must hold
/// exactly one sidecar.
fn resolve(target: Option<&str>) -> Result<PathBuf, String> {
    if let Some(t) = target {
        let p = PathBuf::from(t);
        if p.is_file() {
            return Ok(p);
        }
    }
    let dir = metrics_dir();
    let prefix = target.unwrap_or("");
    let mut matches: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".journeys.json"))
        })
        .collect();
    matches.sort();
    match matches.len() {
        1 => Ok(matches.remove(0)),
        0 => Err(format!(
            "no journeys sidecar matching `{prefix}*` in {} — run an experiment first",
            dir.display()
        )),
        _ => Err(format!(
            "ambiguous target `{prefix}`; candidates:\n{}",
            matches
                .iter()
                .map(|p| format!("  {}", p.display()))
                .collect::<Vec<_>>()
                .join("\n")
        )),
    }
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text)?;
    let want = SidecarKind::Journeys.schema();
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == want => Ok(doc),
        Some(s) => Err(format!("unexpected schema {s:?} (want {want:?})")),
        None => Err("not a journeys sidecar (no schema member)".to_string()),
    }
}

fn uint(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

fn summary_line(j: &Json, key: &str) -> String {
    let Some(s) = j.get(key) else {
        return "n/a".to_string();
    };
    let count = uint(s, "count");
    if count == 0 {
        return "no samples".to_string();
    }
    let sum = uint(s, "sum_us");
    format!(
        "count {count}  min {}us  max {}us  mean {}us",
        uint(s, "min_us"),
        uint(s, "max_us"),
        sum / count
    )
}

fn render_journeys(experiment: &str, j: &Json, dropped_only: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!("experiment: {experiment}\n"));
    if !dropped_only {
        let outcomes = j.get("outcomes").cloned().unwrap_or(Json::Null);
        out.push_str(&format!(
            "flights: {} (delivered {}, dropped {}, pending {})\n",
            uint(j, "flights"),
            uint(&outcomes, "delivered"),
            uint(&outcomes, "dropped"),
            uint(&outcomes, "pending"),
        ));
        out.push_str(&format!(
            "hops: {} (overwritten {}, truncated flights {})\n",
            uint(j, "hops"),
            uint(j, "hops_overwritten"),
            uint(j, "truncated_flights"),
        ));
        out.push_str(&format!("e2e delay: {}\n", summary_line(j, "delay_us")));
        out.push_str(&format!(
            "per-hop delay: {}\n",
            summary_line(j, "per_hop_us")
        ));
    }
    let drops = j.get("drops").and_then(|d| d.as_arr()).unwrap_or(&[]);
    let omitted = uint(j, "drops_omitted");
    out.push_str(&format!(
        "dropped flights shown: {}{}\n",
        drops.len(),
        if omitted > 0 {
            format!(" (+{omitted} omitted)")
        } else {
            String::new()
        }
    ));
    for d in drops {
        let label = d
            .get("label")
            .and_then(|l| l.as_str())
            .map(|l| format!(" label={l}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "flight {} reason={}{}\n",
            uint(d, "flight"),
            d.get("reason").and_then(|r| r.as_str()).unwrap_or("?"),
            label,
        ));
        for h in d.get("hops").and_then(|h| h.as_arr()).unwrap_or(&[]) {
            out.push_str(&format!(
                "  {:>12}us  {:<14} {:<8} {}\n",
                uint(h, "us"),
                h.get("host").and_then(|v| v.as_str()).unwrap_or("?"),
                h.get("point").and_then(|v| v.as_str()).unwrap_or("?"),
                h.get("action").and_then(|v| v.as_str()).unwrap_or("?"),
            ));
        }
    }
    out
}

fn render_blackout(experiment: &str, j: &Json) -> String {
    let mut out = String::new();
    out.push_str(&format!("experiment: {experiment}\n"));
    match j.get("blackout") {
        Some(b) if *b != Json::Null => {
            out.push_str(&format!(
                "origin: {}\n",
                b.get("origin").and_then(|o| o.as_str()).unwrap_or("?")
            ));
            out.push_str(&format!("lost: {}\n", uint(b, "lost")));
            out.push_str(&format!("first_us: {}\n", uint(b, "first_us")));
            out.push_str(&format!("last_us: {}\n", uint(b, "last_us")));
        }
        _ => out.push_str("no blackout recorded\n"),
    }
    out
}

/// Structured `blackout` output: the sidecar's blackout member (or
/// `null`) wrapped in a schema-tagged envelope. Pretty-rendered, so the
/// golden table diffs it like any other sidecar.
fn json_blackout(experiment: &str, j: &Json) -> String {
    let blackout = j.get("blackout").cloned().unwrap_or(Json::Null);
    let doc = Json::obj([
        ("schema", Json::from(INSPECT_SCHEMA)),
        ("command", Json::from("blackout")),
        ("experiment", Json::from(experiment)),
        ("blackout", blackout),
    ]);
    format!("{}\n", doc.render_pretty().trim_end())
}

/// Structured `top-hops` output: the sidecar's per-(host, action) hop
/// counts in their deterministic export order.
fn json_top_hops(experiment: &str, j: &Json) -> String {
    let rows = j.get("top_hops").cloned().unwrap_or_else(|| Json::arr([]));
    let doc = Json::obj([
        ("schema", Json::from(INSPECT_SCHEMA)),
        ("command", Json::from("top-hops")),
        ("experiment", Json::from(experiment)),
        ("top_hops", rows),
    ]);
    format!("{}\n", doc.render_pretty().trim_end())
}

fn render_top_hops(experiment: &str, j: &Json) -> String {
    let mut out = String::new();
    out.push_str(&format!("experiment: {experiment}\n"));
    let rows = j.get("top_hops").and_then(|t| t.as_arr()).unwrap_or(&[]);
    if rows.is_empty() {
        out.push_str("no hops recorded\n");
        return out;
    }
    out.push_str(&format!("{:>10}  {:<14} action\n", "count", "host"));
    for r in rows {
        out.push_str(&format!(
            "{:>10}  {:<14} {}\n",
            uint(r, "count"),
            r.get("host").and_then(|v| v.as_str()).unwrap_or("?"),
            r.get("action").and_then(|v| v.as_str()).unwrap_or("?"),
        ));
    }
    out
}
