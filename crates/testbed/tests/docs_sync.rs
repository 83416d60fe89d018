//! Documentation-sync checks: drop-reason codes against
//! `docs/telemetry.md`, the experiment roster in `EXPERIMENTS.md` against
//! the registry, DESIGN.md's crate and dependency tables against the
//! manifests, its module hook list against `trait Module`, the shape of
//! `BENCH_trajectory.json`, and that the docs cite no deleted instrument
//! and no ledger metric `BENCHMARK.json` does not declare.
//!
//! Drop reasons are stable, greppable tokens: the same `drop.{reason}`
//! string appears in trace lines, metric names, and flight-recorder hop
//! records. `docs/telemetry.md` is the registry of those codes, so every
//! code used anywhere in workspace source must appear there — a new drop
//! site without a doc row fails this test.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use mosquitonet_sim::Json;
use mosquitonet_testbed::experiments::REGISTRY;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A JSON document at the workspace root.
fn read_json(name: &str) -> Json {
    let text = std::fs::read_to_string(workspace_root().join(name)).expect(name);
    Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let p = entry.expect("dir entry").path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Extracts `drop.{reason}` codes from source text. A code is `drop.`
/// followed by lowercase/digit/underscore/dot characters (trailing dots
/// trimmed). A match immediately followed by `(` is a method call on a
/// counter field (`stats.drop.inc()`), not a code, and a bare `drop.`
/// with nothing after it (e.g. the `drop.{reason}` placeholder in prose)
/// is ignored.
fn drop_codes(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find("drop.") {
        let start = from + pos;
        let mut end = start + "drop.".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_'
                || bytes[end] == b'.')
        {
            end += 1;
        }
        let mut code = &text[start..end];
        while code.ends_with('.') {
            code = &code[..code.len() - 1];
        }
        if code.len() > "drop.".len() && bytes.get(end).copied() != Some(b'(') {
            out.insert(code.to_string());
        }
        from = end.max(start + 1);
    }
    out
}

#[test]
fn every_drop_code_in_source_is_documented_in_telemetry_md() {
    let root = workspace_root();
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    assert!(files.len() > 10, "scanner must see the workspace sources");
    let mut codes = BTreeSet::new();
    for f in &files {
        codes.extend(drop_codes(
            &std::fs::read_to_string(f).expect("read source"),
        ));
    }
    // Scanner sanity: codes known to be in the tree must be found.
    for known in ["drop.no_route", "drop.ttl", "drop.medium_loss"] {
        assert!(codes.contains(known), "scanner failed to find {known}");
    }
    // And the method-call false positive must not be. (The code is
    // assembled at runtime so this test file does not plant it.)
    let method_call = format!("drop.{}", "inc");
    assert!(
        !codes.contains(&method_call),
        "scanner must skip counter method calls"
    );

    let doc = std::fs::read_to_string(root.join("docs/telemetry.md")).expect("docs/telemetry.md");
    let missing: Vec<&String> = codes.iter().filter(|c| !doc.contains(c.as_str())).collect();
    assert!(
        missing.is_empty(),
        "drop codes used in source but missing from docs/telemetry.md: \
         {missing:?} — every stable drop.{{reason}} code needs a row there"
    );
}

/// `EXPERIMENTS.md` is the roster of reproduction artifacts, and
/// [`REGISTRY`] is the roster the code runs from: every entry has a row
/// whose Parameters cell is each declared `key=default` in declaration
/// order (`—` when there are none), and every artifact stem it declares
/// is named in the document, so a reader can go from the doc to the
/// artifact and back. (That a run writes exactly its declared stems is
/// asserted by the runner itself on every run; `experiment all` iterates
/// the same table, so the documented regenerate-everything command cannot
/// miss one.)
#[test]
fn experiments_md_lists_every_registry_entry_and_artifact() {
    let doc =
        std::fs::read_to_string(workspace_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    assert!(REGISTRY.len() >= 17, "the roster has at least today's runs");
    for exp in REGISTRY {
        let params = exp
            .params
            .iter()
            .map(|p| format!("{}={}", p.key, p.default));
        let params = params.collect::<Vec<_>>().join(" ");
        let row = match params.is_empty() {
            true => format!("| `{}` | — |", exp.name),
            false => format!("| `{}` | `{params}` |", exp.name),
        };
        assert!(doc.contains(&row), "EXPERIMENTS.md's roster lacks {row}");
        for stem in exp.artifacts {
            assert!(
                doc.contains(&format!("`{stem}`")),
                "{} writes {stem:?} but EXPERIMENTS.md never mentions it",
                exp.name
            );
        }
    }
}

/// The backticked names in the first column of the table under a
/// DESIGN.md heading.
fn design_table_names(design: &str, heading: &str) -> BTreeSet<String> {
    design
        .lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l.split('`').next().expect("first piece").to_string())
        .collect()
}

/// DESIGN.md §5 names the workspace's dependencies and §3 its crates;
/// both tables are checked against the manifests so they cannot drift
/// again (§5 once listed `rand`, `serde` and a real `criterion`).
#[test]
fn design_md_tables_match_the_manifests() {
    let root = workspace_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("Cargo.toml");

    // The keys of the `[workspace.dependencies]` table that are not
    // members of the workspace itself.
    let external: BTreeSet<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once(" = "))
        .map(|(name, _)| name.to_string())
        .filter(|name| !name.starts_with("mosquitonet-"))
        .collect();
    assert_eq!(
        design_table_names(&design, "## 5."),
        external,
        "DESIGN.md §5 must list exactly the non-workspace entries of \
         [workspace.dependencies]"
    );

    let mut crates: BTreeSet<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").file_name())
        .map(|name| format!("mosquitonet-{}", name.to_string_lossy()))
        .collect();
    // Plus the root façade package, which §3 lists last.
    crates.insert("mosquitonet".to_string());
    assert_eq!(
        design_table_names(&design, "## 3."),
        crates,
        "DESIGN.md §3 must have one row per directory under crates/ plus the root package"
    );
}

/// DESIGN.md §3 names the hooks a protocol module can implement; the list
/// is the `fn` names of `trait Module`, in declaration order (it once
/// named a `dyn Protocol` and an `on_ip_deliver` that never existed).
#[test]
fn design_md_hook_list_is_trait_module() {
    let root = workspace_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let proto = std::fs::read_to_string(root.join("crates/stack/src/proto.rs")).expect("proto.rs");

    let (_, list) = design
        .split_once("The trait is the whole hook surface:")
        .expect("DESIGN.md §3 introduces the hook list");
    let (list, _) = list.split_once('.').expect("the list ends its sentence");
    let documented: Vec<&str> = list.split('`').skip(1).step_by(2).collect();

    let (_, body) = proto
        .split_once("pub trait Module: Any {")
        .expect("trait Module");
    let (body, _) = body.split_once("\n}\n").expect("end of trait Module");
    let declared: Vec<&str> = body
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("fn "))
        .map(|l| l.split('(').next().expect("fn name"))
        .collect();
    assert_eq!(documented, declared);
}

/// `BENCH_trajectory.json` (ROADMAP item 1) is appended to by hand, one
/// point per measured PR: hold its shape, the order of its points, and
/// that the newest point covers the workloads the benchmark declares.
#[test]
fn bench_trajectory_is_well_formed_and_current() {
    const ROW: &str = "ops_per_s run_s setup_s peak_rss_mb events_per_op allocs_per_op \
        alloc_bytes_per_op frames_per_op batch_mean trace_entries_per_op drops_per_op sim_digest";
    let doc = read_json("BENCH_trajectory.json");
    let declared = read_json("BENCHMARK.json");
    let schema = doc.get("schema").and_then(Json::as_str);
    assert_eq!(schema, Some("mosquitonet.trajectory/v1"));
    let (mut prs, mut newest) = (Vec::new(), BTreeSet::new());
    for point in doc.get("points").and_then(Json::as_arr).expect("points") {
        prs.push(point.get("pr").and_then(Json::as_u64).expect("pr"));
        for key in ["commit", "date", "machine", "source"] {
            assert!(point.get(key).and_then(Json::as_str).is_some(), "{key}");
        }
        let Some(Json::Obj(workloads)) = point.get("workloads") else {
            panic!("PR {prs:?}: workloads")
        };
        for (name, row) in workloads {
            let missing = ROW.split_whitespace().find(|key| row.get(key).is_none());
            assert_eq!(missing, None, "PR {prs:?}, {name}");
        }
        newest = workloads.iter().map(|(name, _)| name.as_str()).collect();
    }
    assert!(prs.windows(2).all(|w| w[0] < w[1]), "PR order: {prs:?}");
    let declared = declared.get("workloads").and_then(Json::as_arr);
    let declared = declared.expect("workloads").iter();
    assert_eq!(
        newest,
        declared.filter_map(|w| w.get("name")?.as_str()).collect()
    );
}

/// The files under `dir` (from the workspace root) with extension `ext`.
fn files_in(dir: &str, ext: &str) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(workspace_root().join(dir)).expect("read_dir");
    let paths = entries.map(|e| e.expect("dir entry").path());
    paths
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect()
}

/// `a.{b,c}_ns` → `a.b_ns`, `a.c_ns`.
fn expand_braces(token: &str) -> Vec<String> {
    let Some((head, rest)) = token.split_once('{') else {
        return vec![token.to_string()];
    };
    let (alts, tail) = rest.split_once('}').unwrap_or((rest, ""));
    let each = alts.split(',');
    each.flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}

/// `benchmark/` and its trajectory are the one wall-clock instrument
/// (PR 17 deleted the gate crate and the `experiment` wall companions):
/// (a) no document or workflow names a deleted one, and (b) a backticked
/// `layer.word…` token in the prose is a `per_layer` row of
/// `BENCHMARK.json` — a performance sentence cannot cite a metric nobody
/// measures.
#[test]
fn docs_cite_only_the_instrument_and_the_metrics_that_exist() {
    // Each name in two pieces, so that a grep for it finds nothing, this
    // file included.
    const GONE: &str = "bench_|gate bench/|baseline.json mosquitonet-|bench BENCH_|s2 BENCH_|s3";
    const LAYERS: &str = "sim wire link stack core dhcp testbed trace";
    let root = workspace_root();
    let mut prose = vec![root.join("README.md"), root.join("DESIGN.md")];
    prose.extend(files_in("docs", "md"));
    assert!(prose.len() > 10, "scanner must see docs/");
    let mut all = prose.clone();
    all.push(root.join("EXPERIMENTS.md"));
    all.extend(files_in(".github/workflows", "yml"));
    let declared = read_json("BENCHMARK.json");
    let per_layer = declared.get("per_layer").and_then(Json::as_arr);
    let per_layer = per_layer.expect("per_layer").iter();
    let per_layer: BTreeSet<&str> = per_layer.filter_map(|m| m.get("name")?.as_str()).collect();
    let is_word =
        |w: &str| !w.is_empty() && w.bytes().all(|b| b == b'_' || b.is_ascii_alphanumeric());
    let metric_shaped = |name: &String| {
        let (layer, words) = name.split_once('.').unwrap_or((name, ""));
        LAYERS.split(' ').any(|l| l == layer) && words.split('.').all(is_word)
    };
    let mut cited = 0;
    for path in &all {
        let text = std::fs::read_to_string(path).expect("read doc");
        for gone in GONE.split(' ').map(|name| name.replace('|', "")) {
            assert!(!text.contains(&gone), "{} names {gone}", path.display());
        }
        if !prose.contains(path) {
            continue;
        }
        for token in text.split('`').skip(1).step_by(2) {
            let names = expand_braces(token);
            if !names.iter().all(metric_shaped) {
                continue;
            }
            for name in &names {
                cited += 1;
                assert!(
                    per_layer.contains(name.as_str()),
                    "{} cites `{name}`, which BENCHMARK.json does not declare",
                    path.display()
                );
            }
        }
    }
    assert!(cited > 20, "scanner must find the docs' metric citations");
}
