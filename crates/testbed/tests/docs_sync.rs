//! Documentation-sync checks: drop-reason codes and every golden
//! sidecar's metric names against `docs/telemetry.md`, the experiment
//! roster in `EXPERIMENTS.md` and
//! DESIGN.md's experiment index against the registry, DESIGN.md's crate
//! and dependency tables against the
//! manifests, its module hook list against `trait Module`, the shape of
//! `BENCH_trajectory.json` and that it lags CHANGES.md by at most one
//! performance PR, that the docs cite no deleted instrument and
//! no ledger metric `BENCHMARK.json` does not declare, that every
//! file they link or cite exists, that every `Type::member` they cite is
//! defined beside its type, that every test `docs/limits.md` holds a bound
//! with exists, that no file cites a ROADMAP item by number, that
//! every function `docs/benchmarks.md`'s inlining table names is
//! `#[inline]`, and that program code hashes with `IdHasher`, never over
//! `RandomState`.
//!
//! Drop reasons are stable, greppable tokens: the same `drop.{reason}`
//! string appears in metric names, flight-recorder hop records and module
//! trace lines. `docs/telemetry.md` is the registry of those codes, so
//! every code used anywhere in workspace source must appear there — a new
//! drop site without a doc row fails this test — and every `drop.*` or
//! `fault.*` code in its tables must be spelled by some source file.

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

/// Extracts `{prefix}{name}` codes (`drop.no_route`, `fault.drop`) from
/// text. A code is the prefix followed by lowercase/digit/underscore/dot
/// characters (trailing dots trimmed). A match immediately followed by
/// `(` is a method call on a counter field (`stats.drop.inc()`), not a
/// code, and a bare prefix with nothing after it (e.g. the
/// `drop.{reason}` placeholder in prose) is ignored.
fn code_tokens(text: &str, prefix: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(prefix) {
        let start = from + pos;
        let mut end = start + prefix.len();
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
        if code.len() > prefix.len() && bytes.get(end).copied() != Some(b'(') {
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
    // This file names codes only to check the scanner; it is no drop site.
    files.retain(|f| !f.ends_with("tests/docs_sync.rs"));
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("read source"))
        .collect();
    let codes: BTreeSet<String> = sources
        .iter()
        .flat_map(|s| code_tokens(s, "drop."))
        .collect();
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

    // The other way: a code in the doc's tables names something a source
    // file spells, so a row cannot outlive its drop site.
    let tables: String = doc.lines().filter(|l| l.starts_with('|')).collect();
    let documented = ["drop.", "fault."]
        .iter()
        .flat_map(|p| code_tokens(&tables, p));
    let documented: BTreeSet<String> = documented.collect();
    assert!(
        documented.contains("fault.delay"),
        "scanner must read the tables"
    );
    let stale: Vec<&String> = documented
        .iter()
        .filter(|c| !sources.iter().any(|s| s.contains(c.as_str())))
        .collect();
    assert!(
        stale.is_empty(),
        "codes in docs/telemetry.md's tables that no source file spells: {stale:?}"
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

/// DESIGN.md §4 indexes every run: each [`REGISTRY`] name is the
/// regenerate command of a row of its table.
#[test]
fn design_md_index_names_every_registry_entry() {
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let rows: Vec<&str> = design
        .lines()
        .skip_while(|l| !l.starts_with("## 4."))
        .take_while(|l| !l.starts_with("## 4b."))
        .filter(|l| l.starts_with("| **"))
        .collect();
    for exp in REGISTRY {
        let command = format!(" {}`", exp.name);
        assert!(
            rows.iter().any(|row| row.contains(&command)),
            "DESIGN.md §4's index has no row regenerated by `experiment {}`",
            exp.name
        );
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

/// `BENCH_trajectory.json` is appended to by hand, one point per
/// measured PR: hold its shape, the order of its points, and
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

/// The PR number a CHANGES.md entry opens with (`- PR <n> [perf_opt] …`,
/// `PR <n>: [perf_opt] …`).
fn pr_of(entry: &str) -> Option<u64> {
    let rest = entry.split("PR ").nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// ROADMAP [bench-v2]'s rule: the trajectory may lag CHANGES.md by one
/// performance PR (a point is measured after its PR's entry is written),
/// never by two — the newest point may not predate the second-newest
/// entry marked `[perf_opt]` or `(perf_opt)`.
#[test]
fn bench_trajectory_is_at_most_one_perf_pr_behind() {
    let doc = read_json("BENCH_trajectory.json");
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    let newest = points.last().and_then(|p| p.get("pr")?.as_u64());
    let newest = newest.expect("the newest point's pr");
    let changes = std::fs::read_to_string(workspace_root().join("CHANGES.md")).expect("CHANGES.md");
    let perf = changes
        .lines()
        .filter(|l| l.contains("[perf_opt]") || l.contains("(perf_opt)"));
    let mut perf: Vec<u64> = perf.filter_map(pr_of).collect();
    perf.sort_unstable();
    if let Some(&due) = perf.iter().rev().nth(1) {
        assert!(
            newest >= due,
            "BENCH_trajectory.json's newest point is PR {newest}, but CHANGES.md has \
             perf PRs {due} and {} after it: append a whole-suite point (docs/benchmarks.md)",
            perf[perf.len() - 1]
        );
    }
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

/// Every relative `[text](path)` link in the prose, and every backticked
/// repo path in it (a token with a `/` that ends in `.rs`, `.md`, `.json`
/// or `.yml`), names a file that exists, relative to the document or to
/// the workspace root. Generated `target/` and `benchmark/out/` paths are
/// exempt: a fresh checkout has neither.
#[test]
fn docs_link_and_cite_only_files_that_exist() {
    let root = workspace_root();
    let mut docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .map(|d| root.join(d))
        .to_vec();
    docs.extend(files_in("docs", "md"));
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("read doc");
        let links = text.split("](").skip(1).filter_map(|rest| {
            let (link, _) = rest.split_once(')')?;
            let link = link.split('#').next().expect("first piece");
            (!link.is_empty() && !link.contains(':')).then_some(link)
        });
        let cited = text.split('`').skip(1).step_by(2).filter(|token| {
            token.contains('/')
                && !token.contains(char::is_whitespace)
                && [".rs", ".md", ".json", ".yml"]
                    .iter()
                    .any(|ext| token.ends_with(ext))
        });
        for path in links.chain(cited) {
            let generated = path.starts_with("target/") || path.starts_with("benchmark/out/");
            let dir = doc.parent().expect("a doc has a directory");
            checked += 1;
            if !generated && !dir.join(path).exists() && !root.join(path).exists() {
                missing.push(format!("{}: {path}", doc.display()));
            }
        }
    }
    assert!(checked > 100, "scanner must find the docs' links and paths");
    assert!(missing.is_empty(), "docs name missing files: {missing:#?}");
}

fn ident_char(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(ident_char)
}

/// `[path::]Type::member`, `Type::member(…)` or `Type::{a, b}` (`Type`
/// capitalised, each path segment lower-case): the type and its members.
fn cited_members(token: &str) -> Option<(&str, Vec<&str>)> {
    let capital = |s: &str| s.starts_with(|c: char| c.is_ascii_uppercase());
    let token = token.split_once('(').map_or(token, |(head, _)| head);
    let (path, last) = token.rsplit_once("::")?;
    let (modules, ty) = path.rsplit_once("::").unwrap_or(("", path));
    let module = |m: &str| is_ident(m) && !capital(m);
    if !capital(ty) || !is_ident(ty) || !(modules.is_empty() || modules.split("::").all(module)) {
        return None;
    }
    let members: Vec<&str> = match last.strip_prefix('{').and_then(|l| l.strip_suffix('}')) {
        Some(list) => list.split(',').map(str::trim).collect(),
        None => vec![last],
    };
    members.iter().all(|m| is_ident(m)).then_some((ty, members))
}

/// Whether `source` defines a `struct`, `enum`, `trait`, `type` or
/// `union` named `ty`.
fn defines(source: &str, ty: &str) -> bool {
    source.lines().any(|line| {
        let line = line.trim_start();
        let line = match line.strip_prefix("pub") {
            Some(rest) => rest.split_once(' ').map_or("", |(_, rest)| rest),
            None => line,
        };
        ["struct ", "enum ", "trait ", "type ", "union "]
            .iter()
            .any(|kw| {
                let rest = line.strip_prefix(kw).and_then(|l| l.strip_prefix(ty));
                rest.is_some_and(|r| !r.starts_with(ident_char))
            })
    })
}

/// Whether `source` has a `fn`, field, `const` or (capitalised) variant
/// named `member`.
fn has_member(source: &str, member: &str) -> bool {
    let word = |needle: String| {
        let mut at = source
            .match_indices(&needle)
            .map(|(at, _)| at + needle.len());
        at.any(|end| !source[end..].starts_with(ident_char))
    };
    let field = source.match_indices(&format!("{member}:")).any(|(at, _)| {
        !source[..at].ends_with(ident_char) && !source[at + member.len() + 1..].starts_with(':')
    });
    let variant = member.starts_with(|c: char| c.is_ascii_uppercase())
        && source.lines().any(|line| {
            let rest = line.trim_start().strip_prefix(member);
            rest.is_some_and(|r| r.is_empty() || r.starts_with(['(', '{', ',', ' ']))
        });
    word(format!("fn {member}")) || word(format!("const {member}")) || field || variant
}

/// Every backticked `Type::member` the docs cite, where the workspace
/// defines `Type`, names a `fn`, field, `const` or variant of the file
/// that defines it (any one file, when several define a `Type`): a doc
/// cannot go on citing a method that was deleted. Only that file is
/// searched, so an unrelated `fn find` elsewhere cannot stand in for a
/// `find` deleted from the cited type.
#[test]
fn docs_cite_only_members_that_exist() {
    let root = workspace_root();
    let mut docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .map(|d| root.join(d))
        .to_vec();
    docs.extend(files_in("docs", "md"));
    let mut files = Vec::new();
    rs_files(&root, &mut files);
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("read source"))
        .collect();
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in &docs {
        let text = std::fs::read_to_string(doc).expect("read doc");
        for token in text.split('`').skip(1).step_by(2) {
            let Some((ty, members)) = cited_members(token) else {
                continue;
            };
            let homes: Vec<&String> = sources.iter().filter(|s| defines(s, ty)).collect();
            if homes.is_empty() {
                continue; // a std or foreign type
            }
            for member in members {
                checked += 1;
                if !homes.iter().any(|s| has_member(s, member)) {
                    let doc = doc.strip_prefix(&root).unwrap_or(doc);
                    missing.push(format!("{}: `{token}` ({ty}::{member})", doc.display()));
                }
            }
        }
    }
    assert!(checked > 40, "scanner must find the docs' member citations");
    assert!(
        missing.is_empty(),
        "docs cite members their type's file does not define: {missing:#?}"
    );
}

/// Every test `docs/limits.md`'s "Held by" column names exists: each
/// backticked test name there (braces expanded) is, by its last `::`
/// segment, a `fn` somewhere in the workspace. A bound cannot go on citing
/// a test that was deleted or renamed.
#[test]
fn limits_md_holds_its_bounds_with_tests_that_exist() {
    let root = workspace_root();
    let doc = std::fs::read_to_string(root.join("docs/limits.md")).expect("docs/limits.md");
    let mut rows = doc.lines().filter(|l| l.starts_with('|'));
    let header = rows.next().expect("a table").split('|');
    let column = header.clone().position(|c| c.trim() == "Held by");
    let column = column.expect("a Held by column");
    let mut files = Vec::new();
    rs_files(&root, &mut files);
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("read source"))
        .collect();
    // A test name, not a file path: `a::b::{c, d}` and the like.
    let is_name = |t: &&str| {
        t.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"_:{}, ".contains(&b))
    };
    let (mut cited, mut missing) = (0, Vec::new());
    for row in rows.skip(1) {
        let cell = row.split('|').nth(column).expect("a Held by cell");
        for token in cell.split('`').skip(1).step_by(2).filter(is_name) {
            for name in expand_braces(token) {
                let test = name.rsplit("::").next().expect("a segment").trim();
                cited += 1;
                if !sources.iter().any(|s| s.contains(&format!("fn {test}("))) {
                    missing.push(test.to_string());
                }
            }
        }
    }
    assert!(cited >= 10, "scanner must find the Held by column's tests");
    assert!(
        missing.is_empty(),
        "docs/limits.md's Held by column names tests that do not exist: {missing:?}"
    );
}

/// Every file under `dir`, `.git` and build output (`target/`) left out.
fn every_file(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let p = entry.expect("dir entry").path();
        if p.is_dir() {
            if !p.file_name().is_some_and(|n| n == "target" || n == ".git") {
                every_file(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}

/// ROADMAP items are cited by their stable bracketed tag (`[lines]`,
/// `[one-loop]`, …): item numbers shift at every re-anchor, so a citation
/// by number ends up pointing at the wrong item. Checked: every file in
/// the workspace's directories, and the root's own documentation of the
/// program. The root's planning and reference files (ROADMAP.md itself,
/// the CHANGES.md history, the paper notes) may say "item" and a number.
#[test]
fn roadmap_items_are_cited_by_tag_not_number() {
    const NEEDLE: &str = "ROADMAP item";
    const ROOT_DOCS: [&str; 4] = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "BENCH_trajectory.json",
    ];
    let root = workspace_root();
    let mut files = Vec::new();
    every_file(&root, &mut files);
    files.retain(|p| p.parent() != Some(&*root) || ROOT_DOCS.iter().any(|d| p.ends_with(d)));
    assert!(files.len() > ROOT_DOCS.len(), "the walk found the tree");
    let mut cited = Vec::new();
    for path in files {
        let relative = path.strip_prefix(&root).expect("under the root");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // not text
        };
        for (i, line) in text.lines().enumerate() {
            let numbered = line.match_indices(NEEDLE).any(|(at, _)| {
                let rest = &line[at + NEEDLE.len()..];
                let rest = rest.strip_prefix('s').unwrap_or(rest);
                rest.strip_prefix(' ')
                    .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
            });
            if numbered {
                cited.push(format!("{}:{}", relative.display(), i + 1));
            }
        }
    }
    assert!(cited.is_empty(), "cite the item's [tag]: {cited:?}");
}

/// The names of every registry metric in `doc`: the members whose value
/// is a `{"type": "counter" | "histogram", …}` object, at any depth.
fn metric_names(doc: &Json, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(members) => {
            for (key, value) in members {
                match value.get("type").and_then(Json::as_str) {
                    Some("counter" | "histogram") => {
                        out.insert(key.clone());
                    }
                    _ => metric_names(value, out),
                }
            }
        }
        Json::Arr(items) => items.iter().for_each(|item| metric_names(item, out)),
        _ => {}
    }
}

/// The metric names `docs/telemetry.md`'s naming table documents, as
/// patterns: each row's backticked prefix with its `…` replaced by each
/// backticked name in the row's last column (a row without `…` names one
/// metric itself).
fn naming_table_patterns(doc: &str) -> BTreeSet<String> {
    let section = doc.split_once("## Naming scheme").expect("the section").1;
    let rows = section.lines().skip_while(|l| !l.starts_with('|')).skip(2);
    let mut patterns = BTreeSet::new();
    for row in rows.take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.split('|').collect();
        let prefix = cells[1].split('`').nth(1).expect("a backticked prefix");
        let Some(stem) = prefix.strip_suffix('…') else {
            patterns.insert(prefix.to_string());
            continue;
        };
        // `{host}/ip/drop.…` and `drop.ttl` make `{host}/ip/drop.ttl`.
        let leaf_stem = &stem[stem.rfind('/').map_or(0, |i| i + 1)..];
        let names = cells[cells.len() - 2].split('`').skip(1).step_by(2);
        for name in names.flat_map(expand_braces) {
            let leaf = name.strip_prefix(leaf_stem).unwrap_or(&name);
            patterns.insert(format!("{stem}{leaf}"));
        }
    }
    patterns
}

/// `pattern` against one path segment: each `{…}` placeholder stands for
/// one or more characters.
fn segment_matches(pattern: &str, segment: &str) -> bool {
    let Some((head, rest)) = pattern.split_once('{') else {
        return pattern == segment;
    };
    let tail = rest.split_once('}').map_or("", |(_, tail)| tail);
    segment.strip_prefix(head).is_some_and(|s| {
        (1..=s.len()).any(|i| s.is_char_boundary(i) && segment_matches(tail, &s[i..]))
    })
}

/// `pattern` against a metric name, segment by segment; a leading
/// `{host}` stands for one or more segments (a host name, or the
/// `{exp}/{part}` scope an experiment binds a host's families under).
fn name_matches(pattern: &str, name: &str) -> bool {
    let pattern: Vec<&str> = pattern.split('/').collect();
    let name: Vec<&str> = name.split('/').collect();
    let same = |p: &[&str], n: &[&str]| {
        p.len() == n.len() && p.iter().zip(n).all(|(p, n)| segment_matches(p, n))
    };
    match pattern.split_first() {
        Some((&"{host}", rest)) => (1..name.len()).any(|skip| same(rest, &name[skip..])),
        _ => same(&pattern, &name),
    }
}

/// Every metric a golden metrics sidecar carries is named in
/// `docs/telemetry.md`'s naming table, with the host and `if{n}.{dev}`
/// segments generalised: a counter registered without a row fails here.
#[test]
fn every_sidecar_metric_is_named_in_telemetry_md() {
    let doc = std::fs::read_to_string(workspace_root().join("docs/telemetry.md"))
        .expect("docs/telemetry.md");
    let patterns = naming_table_patterns(&doc);
    assert!(
        patterns.contains("{host}/if{n}.{dev}/arp.failures"),
        "the table parses: {patterns:?}"
    );
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    let mut missing = BTreeSet::new();
    for entry in std::fs::read_dir(&goldens).expect("tests/golden") {
        let file = entry.expect("dir entry").file_name();
        let file = file.to_str().expect("a UTF-8 name");
        if !file.ends_with(".metrics.json") {
            continue;
        }
        let text = std::fs::read_to_string(goldens.join(file)).expect("golden");
        let mut names = BTreeSet::new();
        metric_names(&Json::parse(&text).expect(file), &mut names);
        checked += names.len();
        for name in names {
            if !patterns.iter().any(|p| name_matches(p, &name)) {
                missing.insert(format!("{file}: {name}"));
            }
        }
    }
    assert!(checked > 1_000, "the walk found the goldens' metrics");
    assert!(
        missing.is_empty(),
        "metrics in golden sidecars that docs/telemetry.md's naming table \
         does not name: {missing:#?}"
    );
}

/// The type a top-level `impl` line implements for: `Bytes` in
/// `impl<const N: usize> From<[u8; N]> for Bytes {`, `Sim` in
/// `impl<W> Sim<W> {`, `Bytes` in `impl<'a> IntoIterator for &'a Bytes {`.
fn impl_self_type(header: &str) -> String {
    let header = header.split('{').next().expect("a first piece");
    let ty = match header.rsplit_once(" for ") {
        Some((_, ty)) => ty,
        None => {
            let rest = header.strip_prefix("impl").expect("an impl line");
            // Skip the impl's own generics, `<…>`, nested brackets included.
            let mut depth = 0;
            let end = rest.char_indices().find_map(|(at, c)| {
                depth += i32::from(c == '<') - i32::from(c == '>');
                (depth == 0).then_some(at)
            });
            if rest.starts_with('<') {
                &rest[end.expect("closed generics") + 1..]
            } else {
                rest
            }
        }
    };
    let ty = ty.trim_start().trim_start_matches('&');
    // A borrowed self type's lifetime: `&'a Bytes`.
    let ty = match ty.strip_prefix('\'') {
        Some(rest) => rest.split_once(' ').map_or(rest, |(_, ty)| ty),
        None => ty,
    };
    ty.chars().take_while(|&c| ident_char(c)).collect()
}

/// Each `fn` of `source` above its `#[cfg(test)]` tail, as
/// `(line, owner, name)`: `owner` is the self type of the top-level `impl`
/// around it, `None` for a free function.
fn functions(source: &str) -> Vec<(usize, Option<String>, String)> {
    let (mut owner, mut out) = (None, Vec::new());
    for (at, line) in source.lines().enumerate() {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        if line.starts_with("impl") {
            owner = Some(impl_self_type(line));
        } else if line.starts_with('}') {
            owner = None;
        }
        let indent = line.len() - line.trim_start().len();
        let mut rest = line.trim_start();
        for prefix in ["pub(crate) ", "pub(super) ", "pub ", "const "] {
            rest = rest.strip_prefix(prefix).unwrap_or(rest);
        }
        let Some(rest) = rest.strip_prefix("fn ") else {
            continue;
        };
        let name: String = rest.chars().take_while(|&c| ident_char(c)).collect();
        match (indent, &owner) {
            (0, _) => out.push((at, None, name)),
            (4, Some(ty)) => out.push((at, Some(ty.clone()), name)),
            _ => {}
        }
    }
    out
}

/// Whether the attributes and comments directly above line `at` hold an
/// `#[inline]`.
fn inline_above(lines: &[&str], at: usize) -> bool {
    let above = lines[..at].iter().rev().map(|l| l.trim());
    let mut attrs = above.take_while(|l| l.starts_with("#[") || l.starts_with("//"));
    attrs.any(|l| l == "#[inline]")
}

/// Every function `docs/benchmarks.md`'s "Inlining across crates" table
/// names carries `#[inline]` among the attributes directly above it. The
/// table's rows are `| file | functions |`, a function being `free_fn`,
/// `Type::method` or `Type::{a, b}` (every method of that name in every
/// `impl` for `Type`). Without the attribute a later cleanup could delete
/// it as noise, and the call goes back to crossing its crate boundary.
#[test]
fn hot_path_functions_are_inline() {
    let root = workspace_root();
    let doc = std::fs::read_to_string(root.join("docs/benchmarks.md")).expect("benchmarks.md");
    let (_, section) = doc
        .split_once("## Inlining across crates")
        .expect("docs/benchmarks.md has an \"Inlining across crates\" section");
    let (mut checked, mut failures) = (0, Vec::new());
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let mut cells = row.split('|').skip(1);
        let file = cells.next().expect("a file cell").trim().trim_matches('`');
        let source = std::fs::read_to_string(root.join(file)).expect(file);
        let lines: Vec<&str> = source.lines().collect();
        let found = functions(&source);
        let cell = cells.next().expect("a functions cell");
        for name in cell.split('`').skip(1).step_by(2).flat_map(expand_braces) {
            let (owner, name) = match name.rsplit_once("::") {
                Some((ty, name)) => (Some(ty.trim().to_string()), name.trim().to_string()),
                None => (None, name.trim().to_string()),
            };
            let shown = match &owner {
                Some(ty) => format!("{ty}::{name}"),
                None => name.clone(),
            };
            let at = found.iter().filter(|(_, o, n)| *o == owner && *n == name);
            let at: Vec<usize> = at.map(|(at, _, _)| *at).collect();
            if at.is_empty() {
                failures.push(format!("{file}: no fn {shown}"));
            }
            for at in at {
                checked += 1;
                if !inline_above(&lines, at) {
                    failures.push(format!("{file}:{}: {shown} lacks #[inline]", at + 1));
                }
            }
        }
    }
    assert!(checked > 100, "scanner must find the table's functions");
    assert!(
        failures.is_empty(),
        "docs/benchmarks.md's inlining table and the code disagree: {failures:#?}"
    );
}

/// Program code hashes with `IdHasher`: no `std` `HashMap` or `HashSet`
/// over the default `RandomState` (SipHash, keyed afresh in every
/// process) in any crate's `src/` above its `#[cfg(test)]` tail. The
/// `IdHashMap`/`IdHashSet` aliases are the one place the `std` names
/// stand, with their hasher given. Comments may name them.
#[test]
fn program_code_hashes_with_the_id_hasher() {
    const STD: [&str; 4] = ["HashMap", "HashSet", "RandomState", "DefaultHasher"];
    let root = workspace_root();
    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates") {
        rs_files(&entry.expect("dir entry").path().join("src"), &mut files);
    }
    let mut found = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path).expect("read source");
        let program = source
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"));
        for (i, line) in program.enumerate() {
            let code = line.split("//").next().expect("a first piece").trim_start();
            if code.starts_with("pub type Id") {
                continue;
            }
            let named = STD.iter().any(|name| {
                code.match_indices(name).any(|(at, _)| {
                    let before = code[..at].chars().next_back();
                    let after = code[at + name.len()..].chars().next();
                    !before.is_some_and(ident_char) && !after.is_some_and(ident_char)
                })
            });
            if named {
                let file = path.strip_prefix(&root).unwrap_or(path);
                found.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(files.len() > 60, "the walk found the crates' sources");
    assert!(
        found.is_empty(),
        "program code uses a std map or set over RandomState; use IdHashMap/IdHashSet: {found:#?}"
    );
}
