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
//! `tests/goldens.rs` diffs it against a pinned copy. A member the export
//! always writes that is missing or mistyped exits 1 naming it; only a
//! flight's `label` may be absent, and the `blackout` may be `null`.

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
    let out = match cmd.as_str() {
        "journeys" => render_journeys(&doc, dropped_only),
        "blackout" if json_mode => json_member(&doc, "blackout"),
        "top-hops" if json_mode => json_member(&doc, "top_hops"),
        "blackout" => render_blackout(&doc),
        "top-hops" => render_top_hops(&doc),
        other => {
            eprintln!("unknown command: {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match out {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        // A member the export always writes is missing or mistyped: say
        // which, rather than print a plausible zero in its place.
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
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

/// The document's `experiment` name and its `journeys` body.
fn parts(doc: &Json) -> Result<(&str, &Json), String> {
    Ok((doc.try_at("experiment")?, doc.try_at("journeys")?))
}

fn summary_line(j: &Json, key: &str) -> Result<String, String> {
    let s = j.try_at::<&Json>(key)?;
    let count = s.try_at::<u64>("count")?;
    if count == 0 {
        return Ok("no samples".to_string());
    }
    let sum = s.try_at::<u64>("sum_us")?;
    Ok(format!(
        "count {count}  min {}us  max {}us  mean {}us",
        s.try_at::<u64>("min_us")?,
        s.try_at::<u64>("max_us")?,
        sum / count
    ))
}

fn render_journeys(doc: &Json, dropped_only: bool) -> Result<String, String> {
    let (experiment, j) = parts(doc)?;
    let n = |path: &str| j.try_at::<u64>(path);
    let mut out = String::new();
    out.push_str(&format!("experiment: {experiment}\n"));
    if !dropped_only {
        out.push_str(&format!(
            "flights: {} (delivered {}, dropped {}, pending {})\n",
            n("flights")?,
            n("outcomes.delivered")?,
            n("outcomes.dropped")?,
            n("outcomes.pending")?,
        ));
        out.push_str(&format!(
            "hops: {} (overwritten {}, truncated flights {})\n",
            n("hops")?,
            n("hops_overwritten")?,
            n("truncated_flights")?,
        ));
        out.push_str(&format!("e2e delay: {}\n", summary_line(j, "delay_us")?));
        out.push_str(&format!(
            "per-hop delay: {}\n",
            summary_line(j, "per_hop_us")?
        ));
    }
    let drops = j.try_at::<&[Json]>("drops")?;
    let omitted = n("drops_omitted")?;
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
            d.try_at::<u64>("flight")?,
            d.try_at::<&str>("reason")?,
            label,
        ));
        for h in d.try_at::<&[Json]>("hops")? {
            let text = |key: &str| h.try_at::<&str>(key);
            out.push_str(&format!(
                "  {:>12}us  {:<14} {:<8} {}\n",
                h.try_at::<u64>("us")?,
                text("host")?,
                text("point")?,
                text("action")?,
            ));
        }
    }
    Ok(out)
}

fn render_blackout(doc: &Json) -> Result<String, String> {
    let (experiment, j) = parts(doc)?;
    let mut out = String::new();
    out.push_str(&format!("experiment: {experiment}\n"));
    match j.try_at::<&Json>("blackout")? {
        Json::Null => out.push_str("no blackout recorded\n"),
        b => {
            out.push_str(&format!("origin: {}\n", b.try_at::<&str>("origin")?));
            for key in ["lost", "first_us", "last_us"] {
                out.push_str(&format!("{key}: {}\n", b.try_at::<u64>(key)?));
            }
        }
    }
    Ok(out)
}

/// Structured output: the journeys member `key` — the blackout (or
/// `null`), or the per-(host, action) hop counts in their deterministic
/// export order — wrapped in a schema-tagged envelope whose `command` is
/// `key` spelled with a dash. Pretty-rendered, so the golden table diffs
/// it like any other sidecar.
fn json_member(doc: &Json, key: &str) -> Result<String, String> {
    let (experiment, j) = parts(doc)?;
    let doc = Json::obj([
        ("schema", Json::from(INSPECT_SCHEMA)),
        ("command", Json::from(key.replace('_', "-"))),
        ("experiment", Json::from(experiment)),
        (key, j.try_at::<&Json>(key)?.clone()),
    ]);
    Ok(format!("{}\n", doc.render_pretty().trim_end()))
}

fn render_top_hops(doc: &Json) -> Result<String, String> {
    let (experiment, j) = parts(doc)?;
    let mut out = String::new();
    out.push_str(&format!("experiment: {experiment}\n"));
    let rows = j.try_at::<&[Json]>("top_hops")?;
    if rows.is_empty() {
        out.push_str("no hops recorded\n");
        return Ok(out);
    }
    out.push_str(&format!("{:>10}  {:<14} action\n", "count", "host"));
    for r in rows {
        out.push_str(&format!(
            "{:>10}  {:<14} {}\n",
            r.try_at::<u64>("count")?,
            r.try_at::<&str>("host")?,
            r.try_at::<&str>("action")?,
        ));
    }
    Ok(out)
}
