//! The run's sidecars, and the paper-style report rendered from them.
//!
//! Every experiment writes its numbers once, into *sidecars* via
//! [`write_sidecar_in`]: the machine-readable dump of the run's metric
//! registries (schema documented in `docs/telemetry.md`), led by a
//! `result` member when the run's result has no other file, plus any
//! journeys or bench body, for downstream plotting and regression
//! diffing.
//!
//! The report is a view of those documents. Each renderer takes the
//! bodies of one run's sidecars and its parameters — never the runner's
//! state — and prints the same rows/series the paper reports, prefixed
//! with the paper's own numbers so a reader can compare shape at a
//! glance. Every read goes through [`Json::at`], so a member a document
//! lacks stops the report instead of printing as zero.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mosquitonet_sim::{CapturedFrame, Histogram, Json};
use mosquitonet_wire::PcapWriter;

use crate::experiments::{A1Mode, Fig6Scenario};

/// The three byte-stable sidecar documents an experiment can write. The
/// kind fixes the schema tag, the file-name infix and the envelope member
/// that carries the body — nothing else differs between them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SidecarKind {
    /// End-of-run dump of the run's metric registries.
    Metrics,
    /// The flight recorder's per-packet journeys export.
    Journeys,
    /// A benchmark's deterministic result body. Only virtual-time/counter
    /// quantities belong in it — wall-clock numbers would break the
    /// byte-stability the golden diff relies on.
    Bench,
}

impl SidecarKind {
    /// Schema tag stamped into every sidecar file of this kind.
    pub fn schema(self) -> &'static str {
        match self {
            SidecarKind::Metrics => "mosquitonet.metrics-sidecar/v1",
            SidecarKind::Journeys => "mosquitonet.journeys/v1",
            SidecarKind::Bench => "mosquitonet.bench/v1",
        }
    }

    /// The file-name infix (`{experiment}.{key}.json`) and the envelope
    /// member holding the body.
    pub fn key(self) -> &'static str {
        match self {
            SidecarKind::Metrics => "metrics",
            SidecarKind::Journeys => "journeys",
            SidecarKind::Bench => "bench",
        }
    }
}

/// Wraps an experiment's document in the sidecar envelope.
fn sidecar(kind: SidecarKind, experiment: &str, body: &Json) -> Json {
    Json::obj([
        ("schema", Json::from(kind.schema())),
        ("experiment", Json::from(experiment)),
        (kind.key(), body.clone()),
    ])
}

/// Writes `{dir}/{experiment}.{kind}.json` (pretty-printed, byte-stable
/// for a given run) and returns its path.
pub fn write_sidecar_in(
    dir: &Path,
    kind: SidecarKind,
    experiment: &str,
    body: &Json,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{experiment}.{}.json", kind.key()));
    std::fs::write(&path, sidecar(kind, experiment, body).render_pretty())?;
    Ok(path)
}

/// Where a run's artifacts go: `target/metrics/`, overridable with the
/// `MOSQUITONET_METRICS_DIR` environment variable.
pub fn metrics_dir() -> PathBuf {
    std::env::var_os("MOSQUITONET_METRICS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/metrics"))
}

/// Writes `{dir}/{experiment}.pcap` from the run's captured wire frames
/// (an empty capture writes the header alone).
pub fn write_pcap_in(
    dir: &Path,
    experiment: &str,
    frames: &[CapturedFrame],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut w = PcapWriter::new();
    for f in frames {
        w.frame(f.at.as_micros(), &f.bytes);
    }
    let path = dir.join(format!("{experiment}.pcap"));
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

const RULE: &str = "================================================================";

fn hr(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n{RULE}\n{title}\n{RULE}");
}

/// The unsigned integers at the space-separated `paths` of `doc`, in
/// order. Panics naming a missing member, or when there are not `N` paths.
fn nums<const N: usize>(doc: &Json, paths: &str) -> [u64; N] {
    let values: Vec<u64> = paths.split_whitespace().map(|path| doc.at(path)).collect();
    let n = values.len();
    values
        .try_into()
        .unwrap_or_else(|_| panic!("{n} paths for {N} numbers"))
}

/// The loss histogram of the `rows` entry whose `key` member is `value`.
fn histogram_of(rows: &[Json], key: &str, value: &str) -> Histogram {
    let row = rows.iter().find(|r| r.at::<&str>(key) == value);
    let row = row.unwrap_or_else(|| panic!("no {key} `{value}`"));
    Histogram::from_json(row.at("histogram"))
}

/// One `  {label}{count:>6}` line per `(label, path)` of `doc`, each label
/// padded to `width`.
fn counts(out: &mut String, doc: &Json, width: usize, rows: &[(&str, &str)]) {
    for (label, path) in rows {
        let _ = writeln!(out, "  {label:<width$}{:>6}", doc.at::<u64>(path));
    }
}

/// Renders the Table 1 (same-subnet switch) report.
pub fn render_tab1(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let [interval_ms, iterations, max_loss] = nums(r, "interval_ms iterations max_loss");
    let histogram = Histogram::from_json(r.at("histogram"));
    let mut out = String::new();
    hr(
        &mut out,
        "TABLE 1 — Same-subnet care-of address switch (paper §4)",
    );
    let _ = writeln!(
        out,
        "Workload: UDP echo every {interval_ms} ms; {iterations} iterations."
    );
    let _ = writeln!(
        out,
        "Paper: \"sixteen tests showed no packet loss, and the other four\n\
         tests lost one packet each\" -> switch interval < 10 ms.\n"
    );
    let _ = writeln!(out, "Measured (iterations by packets lost):");
    out.push_str(&histogram.render("  same-subnet switch"));
    let _ = writeln!(
        out,
        "  max loss in any iteration: {max_loss} packet(s)\n  mean loss: {:.2}",
        histogram.mean()
    );
    out
}

/// Renders the distant-correspondent variant of Table 1 as the one-line
/// note the full report prints under the table.
pub fn render_tab1_far(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let [iterations, max_loss] = nums(r, "iterations max_loss");
    format!(
        "
  (distant correspondent variant: {} of {iterations} iterations lost 0; max {max_loss} —
            \"we received similar results for a correspondent host located on
            a campus network outside the department\", §4)\n",
        Histogram::from_json(r.at("histogram")).count(0)
    )
}

/// Renders the Figure 6 (device switching) report.
pub fn render_fig6(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let [interval_ms, iterations] = nums(r, "interval_ms iterations");
    let mut out = String::new();
    hr(&mut out, "FIGURE 6 — Device switching overhead (paper §4)");
    let _ = writeln!(
        out,
        "Workload: UDP echo every {interval_ms} ms; {iterations} iterations per scenario."
    );
    let _ = writeln!(
        out,
        "Paper: cold switches lose packets over an interval \"generally\n\
         less than 1.25 seconds\" (~<=5 packets at 250 ms); hot switches\n\
         usually lose none (one observed radio drop).\n"
    );
    for scenario in Fig6Scenario::all() {
        let histogram = histogram_of(r.at("scenarios"), "scenario", scenario.key());
        out.push_str(&histogram.render(&format!("  {}", scenario.label())));
        let mean = histogram.mean();
        let seconds = mean * interval_ms as f64 / 1000.0;
        let _ = writeln!(
            out,
            "    mean {mean:.2} lost  (~{seconds:.2} s of disruption)\n"
        );
    }
    out
}

/// Renders the Figure 7 (registration time-line) report.
pub fn render_fig7(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let ms = |path: &str| r.at::<f64>(path) / 1000.0;
    let mut out = String::new();
    hr(&mut out, "FIGURE 7 — Registration time-line (paper §4)");
    let _ = writeln!(
        out,
        "{} same-subnet re-registrations, mean (stddev), ms:\n",
        r.at::<u64>("runs")
    );
    // One line per phase: label, the phase's summary member, the paper.
    let row = |(label, phase, paper): (&str, &str, &str)| {
        let [mean, stddev] = ["mean", "stddev"].map(|k| ms(&format!("{phase}.{k}")));
        format!("  {label:<28} {mean:>7.2} ({stddev:>5.3})   paper: {paper}\n")
    };
    out.extend(
        [
            ("configure interface", "configure_us", "~1.2 (pre-reg part)"),
            ("change route table", "route_us", "~0.6 (pre-reg part)"),
            ("request -> reply", "request_reply_us", "4.79"),
        ]
        .map(row),
    );
    let _ = writeln!(
        out,
        "  {:<28} {:>7.2}           paper: 1.48",
        "  of which HA processing",
        ms("ha_processing_us")
    );
    out.extend(
        [
            ("post-registration", "post_us", "~0.8"),
            ("TOTAL address switch", "total_us", "7.39"),
        ]
        .map(row),
    );
    out
}

/// Renders the C1 (encapsulation overhead) table.
pub fn render_c1(docs: &[&Json]) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "C1 — Encapsulation overhead (paper §3.2: \"20 bytes or more\")",
    );
    let _ = writeln!(
        out,
        "  {:>8} {:>8} {:>12} {:>9} {:>9}",
        "payload", "plain", "encapsulated", "overhead", "pct"
    );
    for r in docs[0].at::<&[Json]>("result") {
        let [payload, plain, encap, overhead] = nums(r, "payload plain encapsulated overhead");
        let pct = r.at::<f64>("overhead_pct");
        let _ = writeln!(
            out,
            "  {payload:>8} {plain:>8} {encap:>12} {overhead:>9} {pct:>8.1}%"
        );
    }
    out
}

/// Renders the C2 (radio characterization) report.
pub fn render_c2(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let [mean, min, max] = ["mean", "min", "max"].map(|k| r.at::<f64>(&format!("rtt_ms.{k}")));
    let [goodput, theoretical] = ["goodput_kbps", "theoretical_kbps"].map(|k| r.at::<f64>(k));
    let mut out = String::new();
    hr(&mut out, "C2 — Metricom radio characteristics (paper §4)");
    let _ = writeln!(
        out,
        "  HA<->MH echo RTT over radio : mean {mean:.0} ms, min {min:.0}, max {max:.0}\n\
         \x20   paper: \"200~250ms\""
    );
    let _ = writeln!(
        out,
        "  bulk UDP goodput            : {goodput:.1} kb/s (theoretical {theoretical:.0} kb/s)\n\
         \x20   paper: \"in practice 30-40 Kbits/second is the best we achieve\""
    );
    out
}

/// Renders the C3 (triangle route) report.
pub fn render_c3(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let tunnel = r.at::<f64>("tunnel_rtt_ms.mean");
    let triangle = r.at::<f64>("triangle_rtt_ms.mean");
    let [fell_back, delivered] =
        ["fallback_triggered", "post_fallback_delivery"].map(|k| r.at::<bool>(k));
    let mut out = String::new();
    hr(
        &mut out,
        "C3 — Triangle-route optimization and filter fallback (paper §3.2)",
    );
    let _ = writeln!(
        out,
        "  MH->far-CH echo RTT, reverse tunnel : mean {tunnel:.1} ms"
    );
    let _ = writeln!(
        out,
        "  MH->far-CH echo RTT, triangle route : mean {triangle:.1} ms  (saves {:.1} ms)",
        tunnel - triangle
    );
    let _ = writeln!(
        out,
        "  with a transit-filtering foreign router:\n\
         \x20   probe fell back to the tunnel : {fell_back}\n\
         \x20   connectivity after fallback   : {delivered}"
    );
    out
}

/// Renders the C4 (lossy-registration chaos) report.
pub fn render_c4(docs: &[&Json]) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "C4 — Registration under injected loss (chaos sweep)",
    );
    let _ = writeln!(
        out,
        "  loss%  completed  requests  retries  drops   p50 ms   p90 ms   max ms"
    );
    for row in docs[0].at::<&[Json]>("rows") {
        let [loss, completed, switches, requests, retries, drops, p50, p90, max] = nums(
            row,
            "loss_pct completed switches requests_sent retries drops_injected p50_us p90_us max_us",
        );
        let [p50, p90, max] = [p50, p90, max].map(|us| us as f64 / 1_000.0);
        let _ = writeln!(
            out,
            "  {loss:>4}   {completed:>4}/{switches:<4}  {requests:>7}  {retries:>7}  {drops:>5}  \
             {p50:>7.1}  {p90:>7.1}  {max:>7.1}"
        );
    }
    let _ = writeln!(
        out,
        "  (every switch re-registers through exponential backoff with\n\
         \x20  deterministic jitter; an exhausted retry budget degrades to a\n\
         \x20  fresh attempt sequence rather than giving up)"
    );
    out
}

/// Renders the C5 (home-agent crash recovery) report.
pub fn render_c5(docs: &[&Json]) -> String {
    let m = docs[0];
    let [reconverged, replayed, epoch, changes] = nums(
        m.at("recovery"),
        "reconverged_ms journal_replayed ha_epoch epoch_changes",
    );
    let mut out = String::new();
    hr(&mut out, "C5 — Home-agent crash recovery (journal replay)");
    let _ = writeln!(
        out,
        "Mid-session crash of the (separate-host) home agent; journal\n\
         survives, agent restarts with a new boot epoch.\n"
    );
    counts(
        &mut out,
        m,
        23,
        &[
            ("echo probes sent", "echo.sent"),
            ("echo replies received", "echo.received"),
            ("lost before crash", "echo.lost_before"),
            ("lost during outage", "echo.lost_during"),
            ("lost after recovery", "echo.lost_after"),
        ],
    );
    let _ = writeln!(
        out,
        "  reconverged in         {reconverged:>6} ms after the crash"
    );
    let _ = writeln!(
        out,
        "  journal records replayed {replayed:>4}; boot epoch {epoch} \
         (MH detected {changes} change{})",
        if changes == 1 { "" } else { "s" },
    );
    let _ = writeln!(
        out,
        "  (the restarted agent resumes proxy ARP and tunneling from the\n\
         \x20  replayed journal before the MH even re-registers; the epoch\n\
         \x20  bump in the next reply triggers a from-scratch registration)"
    );
    out
}

/// Renders the C6 (standby failover) report.
pub fn render_c6(docs: &[&Json]) -> String {
    let m = docs[0];
    let failover = m.at::<&Json>("failover");
    let [failover_ms, failovers, degradations, lookups] = nums(
        failover,
        "failover_ms ha_failovers degradations direct_encap_lookups",
    );
    let [replicas, accepted, tunneled] = nums(
        failover,
        "replicas_applied standby_accepted standby_encapsulated",
    );
    let mut out = String::new();
    hr(&mut out, "C6 — Failover to the standby home agent");
    let _ = writeln!(
        out,
        "Primary home agent crashes for good; the standby has been\n\
         absorbing binding replicas and takes over when the MH's retry\n\
         budget exhausts and it rotates agents.\n"
    );
    counts(
        &mut out,
        m,
        24,
        &[
            ("inbound probes sent", "echo.in_sent"),
            ("inbound replies", "echo.in_received"),
            ("inbound lost in outage", "echo.in_lost_during"),
            ("inbound lost after", "echo.in_lost_after"),
            ("outbound lost after", "echo.out_lost_after"),
        ],
    );
    let _ = writeln!(
        out,
        "  failed over in          {failover_ms:>6} ms after the crash"
    );
    let _ = writeln!(
        out,
        "  failovers {failovers} / degradations {degradations} / direct-encap lookups {lookups}"
    );
    let _ = writeln!(
        out,
        "  standby: {replicas} replicas applied, {accepted} registrations accepted,\n\
         \x20  {tunneled} packets tunneled to the MH after takeover"
    );
    let _ = writeln!(
        out,
        "  (while no agent answered, reverse tunnels degraded to direct\n\
         \x20  encapsulation so outbound traffic kept the home address)"
    );
    out
}

/// Renders the C7 (spoofed/replayed registration) report.
pub fn render_c7(docs: &[&Json]) -> String {
    let m = docs[0];
    let attack = m.at::<&Json>("attack");
    let [spoofs, replays, accepted, auth_failures, auth_replays, denied, epoch] = nums(
        attack,
        "spoofs replays attacker_accepted auth_failures auth_replays attacker_denied ha_epoch",
    );
    let intact = if attack.at("binding_intact") {
        "yes"
    } else {
        "NO"
    };
    let mut out = String::new();
    hr(&mut out, "C7 — Spoofed and replayed registrations");
    let _ = writeln!(
        out,
        "The home agent requires authenticated registrations; an on-subnet\n\
         attacker injects forgeries and byte-exact replays, then the agent\n\
         crashes and restarts (journal intact) and the replay repeats.\n"
    );
    counts(
        &mut out,
        m,
        24,
        &[
            ("echo probes sent", "echo.sent"),
            ("echo replies received", "echo.received"),
            ("lost during attack", "echo.lost_attack"),
            ("lost after recovery", "echo.lost_after"),
        ],
    );
    let _ = writeln!(
        out,
        "  injected: {spoofs} forgeries, {replays} replays; accepted {accepted}"
    );
    let _ = writeln!(
        out,
        "  home agent denied: {auth_failures} auth failures, {auth_replays} replays \
         (attacker saw {denied} denials)"
    );
    let _ = writeln!(out, "  binding intact: {intact}; boot epoch {epoch}");
    let _ = writeln!(
        out,
        "  (the replay floor is journaled with each accepted binding, so\n\
         \x20  the restarted agent refuses the pre-crash capture too)"
    );
    out
}

/// Renders the A1 (foreign-agent ablation) report.
pub fn render_a1(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let [interval_ms, iterations] = nums(r, "interval_ms iterations");
    let mut out = String::new();
    hr(
        &mut out,
        "A1 — Hand-off loss: agentless vs. foreign agents (paper §5.1)",
    );
    let _ = writeln!(
        out,
        "Workload: UDP echo every {interval_ms} ms; {iterations} hand-offs between two foreign\n\
         networks per mode. Paper's claim: a previous foreign agent can\n\
         forward in-flight packets, trimming the loss window.\n"
    );
    for mode in A1Mode::all() {
        let histogram = histogram_of(r.at("per_mode"), "mode", mode.key());
        out.push_str(&histogram.render(&format!("  {}", mode.label())));
        let _ = writeln!(out, "    mean {:.2} lost per hand-off\n", histogram.mean());
    }
    out
}

/// Renders the A2 (home-agent scaling) table.
pub fn render_a2(docs: &[&Json]) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "A2 — Home agent scaling (paper §4: \"the home agent should be able\n\
         to deal with a large number of mobile hosts simultaneously\")",
    );
    let _ = writeln!(
        out,
        "  {:>6} {:>10} {:>14} {:>13} {:>13} {:>10}",
        "MHs", "completed", "mean reply ms", "p95 reply ms", "max reply ms", "span ms"
    );
    for r in docs[0].at::<&[Json]>("result") {
        let [hosts, completed] = nums(r, "mobile_hosts completed");
        let [mean, p95, max, span] =
            ["mean_reply_ms", "p95_reply_ms", "max_reply_ms", "span_ms"].map(|k| r.at::<f64>(k));
        let _ = writeln!(
            out,
            "  {hosts:>6} {completed:>10} {mean:>14.2} {p95:>13.2} {max:>13.2} {span:>10.1}"
        );
    }
    let _ = writeln!(
        out,
        "\n  (1.48 ms of serialized service time bounds throughput at\n\
         \x20  ~675 registrations/second.)"
    );
    out
}

/// Renders the A3 (DHCP address reuse) report.
pub fn render_a3(docs: &[&Json]) -> String {
    let r = docs[0].at::<&Json>("result");
    let [first_available, lru] = nums(r, "first_available_misdelivered lru_misdelivered");
    let different = r.at::<bool>("lru_gave_different_address");
    let mut out = String::new();
    hr(
        &mut out,
        "A3 — DHCP address reuse after abrupt departure (paper §5.1)",
    );
    let _ = writeln!(
        out,
        "The mobile host vanishes without deregistering; its binding keeps\n\
         tunneling packets to the stale care-of address. A newcomer then\n\
         leases an address from the same pool.\n"
    );
    let _ = writeln!(
        out,
        "  first-available reuse : {first_available} tunneled packets mis-delivered to the newcomer"
    );
    let _ = writeln!(
        out,
        "  least-recently-used   : {lru} mis-delivered (different address handed out: {different})"
    );
    let _ = writeln!(
        out,
        "\n  Paper: \"a well-written DHCP server would avoid reassigning the\n\
         \x20 same IP address for as long as possible.\""
    );
    out
}

/// Renders the S1 many-correspondents scale run (decision cache at scale).
pub fn render_s1(docs: &[&Json]) -> String {
    let m = docs[0];
    let mut out = String::new();
    hr(
        &mut out,
        "S1 — Decision cache at scale (many correspondents)",
    );
    let _ = writeln!(out, "  correspondents: {}", m.at::<u64>("correspondents"));
    let _ = writeln!(
        out,
        "  phase          sends     hits   misses  flushes  entries"
    );
    for row in m.at::<&[Json]>("rows") {
        let phase = row.at::<&str>("phase");
        let [sends, hits, misses, flushes, entries] =
            nums(row, "sends hits misses invalidations cache_entries");
        let _ = writeln!(
            out,
            "  {phase:<12} {sends:>7}  {hits:>7}  {misses:>7}  {flushes:>7}  {entries:>7}"
        );
    }
    let _ = writeln!(
        out,
        "  (one probe per correspondent per phase; the mid-run re-registration\n\
         \x20  moves the validity token, so `rewarm` re-resolves what `warm`\n\
         \x20  replayed from the cache)"
    );
    out
}

/// The members of an S3 bench row the reports print, in column order.
const S3_ROW: &str = "sent delivered events batches pps ns_per_packet";

/// Renders the S3 whole-system saturation run from its two bench bodies:
/// the classic engine's per-mode virtual-time rates, then the sharded
/// run's aggregated row with its partition parameters.
pub fn render_s3(docs: &[&Json]) -> String {
    let (classic, sharded) = (docs[0], docs[1]);
    let [pairs, burst, ticks, seed] = nums(classic, "pairs burst ticks seed");
    let batching = if classic.at("batching") { "on" } else { "off" };
    let mut out = String::new();
    hr(
        &mut out,
        "S3 — Whole-system saturation (batched per-tick packet path)",
    );
    let _ = writeln!(
        out,
        "  {pairs} pairs x {burst} datagrams per 10 ms tick x {ticks} ticks, seed {seed}, \
         batching {batching}"
    );
    let _ = writeln!(
        out,
        "  {:>7} {:>9} {:>10} {:>10} {:>9} {:>10} {:>12}",
        "mode", "sent", "delivered", "events", "batches", "vpps", "ns/pkt(v)"
    );
    for row in classic.at::<&[Json]>("modes") {
        let mode = row.at::<&str>("mode");
        let [sent, delivered, events, batches, pps, ns] = nums(row, S3_ROW);
        let _ = writeln!(
            out,
            "  {mode:>7} {sent:>9} {delivered:>10} {events:>10} {batches:>9} {pps:>10} {ns:>12}"
        );
    }
    let _ = writeln!(
        out,
        "  (vpps / ns-per-packet are virtual-time rates — exact and seed-stable)"
    );

    let [shards, pairs, burst, ticks, seed, resets] =
        nums(sharded, "shards pairs burst ticks seed arena_resets");
    let [sent, delivered, events, batches, pps, ns] = nums(sharded.at("row"), S3_ROW);
    hr(
        &mut out,
        "S3 (sharded) — parallel campus domains over a backbone trunk",
    );
    let _ = writeln!(
        out,
        "  {shards} shards x {pairs} pairs, {burst} datagrams per 10 ms tick x {ticks} ticks, \
         seed {seed}"
    );
    let _ = writeln!(
        out,
        "  sent {sent}  delivered {delivered}  events {events}  batches {batches}  vpps {pps}  \
         ns/pkt(v) {ns}"
    );
    let _ = writeln!(
        out,
        "  rounds with cross-shard sends {resets}  (barrier rounds in which a \
         shard sent frames over the backbone, summed over shards)"
    );
    out
}

/// Renders the S2 sharded home-agent fleet run from its bench body: the
/// aggregated row plus its partition parameters.
pub fn render_s2(docs: &[&Json]) -> String {
    let bench = docs[0];
    let [shards, hosts, burst, ticks, seed, resets] =
        nums(bench, "shards mobile_hosts burst ticks seed arena_resets");
    let row = bench.at::<&Json>("row");
    let [sent, misdirected, redirected, accepted, denied] =
        nums(row, "sent misdirected redirected accepted denied");
    let [processed, wrong_shard, replicas_sent, replicas_applied] = nums(
        row,
        "ha_processed wrong_shard replicas_sent replicas_applied",
    );
    let [active, standby, journal] = nums(row, "live_bindings standby_bindings journal_records");
    let [regs, p99_ns, bytes, events, batches] = nums(
        row,
        "regs_per_sec p99_latency_ns bytes_per_binding events batches",
    );
    let mut out = String::new();
    hr(
        &mut out,
        "S2 — Sharded home-agent fleet under Zipf registration churn",
    );
    let _ = writeln!(
        out,
        "  {shards} shards (active+standby pairs) x {hosts} mobile hosts, {burst} Zipf \
         draws per 10 ms tick x {ticks} ticks, seed {seed}"
    );
    let _ = writeln!(
        out,
        "  sent {sent}  (misdirected {misdirected}  redirected {redirected})  \
         accepted {accepted}  denied {denied}"
    );
    let _ = writeln!(
        out,
        "  fleet: processed {processed}  wrong-shard denials {wrong_shard}  \
         replicas {replicas_sent}->{replicas_applied}"
    );
    let _ = writeln!(
        out,
        "  bindings: active {active}  standby {standby} (lock-step)  journal records {journal}"
    );
    let _ = writeln!(
        out,
        "  regs/s {regs} (virtual)  p99 latency {:.2} ms (virtual)  bytes/binding {bytes}",
        p99_ns as f64 / 1_000_000.0
    );
    let _ = writeln!(
        out,
        "  events {events}  batches {batches}  rounds with cross-shard sends {resets}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_sim::Summary;

    #[test]
    fn an_empty_capture_writes_a_header_only_pcap() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-metrics/pcap");
        let path = write_pcap_in(&dir, "empty", &[]).expect("written");
        let file = mosquitonet_wire::PcapReader::parse_file(&std::fs::read(path).expect("read"));
        let file = file.expect("a well-formed pcap");
        assert_eq!((file.link_type, file.frames.len()), (1, 0));
    }

    #[test]
    fn tab1_render_mentions_key_facts() {
        let mut h = Histogram::new(5);
        for _ in 0..16 {
            h.record(0);
        }
        for _ in 0..4 {
            h.record(1);
        }
        let body = Json::obj([(
            "result",
            Json::obj([
                ("iterations", Json::from(20u64)),
                ("interval_ms", Json::from(10u64)),
                ("histogram", h.to_json()),
                ("max_loss", Json::from(1u64)),
            ]),
        )]);
        let s = render_tab1(&[&body]);
        assert!(s.contains("TABLE 1"));
        assert!(s.contains("10 ms"));
        assert!(s.contains("max loss in any iteration: 1"));
    }

    #[test]
    fn fig7_render_includes_paper_reference_values() {
        let mk = |v: f64| Summary::from_samples(&[v]).to_json();
        let body = Json::obj([(
            "result",
            Json::obj([
                ("runs", Json::from(10u64)),
                ("configure_us", mk(1200.0)),
                ("route_us", mk(600.0)),
                ("request_reply_us", mk(4790.0)),
                ("ha_processing_us", Json::from(1480.0)),
                ("post_us", mk(800.0)),
                ("total_us", mk(7390.0)),
            ]),
        )]);
        let s = render_fig7(&[&body]);
        assert!(s.contains("4.79"));
        assert!(s.contains("7.39"));
        assert!(s.contains("1.48"));
    }

    #[test]
    #[should_panic(expected = "`max_loss`: no member `max_loss`")]
    fn a_report_never_prints_a_member_its_document_lacks() {
        let body = Json::obj([(
            "result",
            Json::obj([
                ("iterations", Json::from(20u64)),
                ("interval_ms", Json::from(10u64)),
                ("histogram", Histogram::new(2).to_json()),
            ]),
        )]);
        render_tab1(&[&body]);
    }

    #[test]
    fn metrics_sidecar_envelope_is_stable() {
        let body = Json::obj([("x", Json::from(1u64))]);
        assert_eq!(
            sidecar(SidecarKind::Metrics, "tab1", &body).render(),
            r#"{"schema":"mosquitonet.metrics-sidecar/v1","experiment":"tab1","metrics":{"x":1}}"#
        );
    }

    #[test]
    fn sidecar_writer_creates_the_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-metrics")
            .join("report-sidecar-test");
        let body = Json::obj([("y", Json::from(2u64))]);
        let path = write_sidecar_in(&dir, SidecarKind::Metrics, "unit", &body).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"schema\": \"mosquitonet.metrics-sidecar/v1\""));
        assert!(text.contains("\"experiment\": \"unit\""));
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn c1_render_is_tabular() {
        let rows = crate::experiments::run_c1();
        let body = Json::obj([("result", rows.clone())]);
        let s = render_c1(&[&body]);
        assert!(s.contains("payload"));
        assert!(s.lines().count() >= rows.at::<&[Json]>("").len() + 4);
        assert!(s.contains("20"), "20-byte overhead visible");
    }
}
