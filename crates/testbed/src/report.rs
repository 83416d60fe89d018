//! Paper-style rendering of experiment results.
//!
//! Each renderer prints the same rows/series the paper reports, prefixed
//! with the paper's own numbers so a reader can compare shape at a glance.
//!
//! Besides the human-readable reports, every experiment writes a
//! *metrics sidecar* via [`write_sidecar_in`]: the machine-readable
//! dump of the run's metric registries (schema documented in
//! `docs/telemetry.md`), led by a `result` member when the run's typed
//! result has no other file, for downstream plotting and regression
//! diffing.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mosquitonet_sim::{CapturedFrame, Json};
use mosquitonet_wire::PcapWriter;

use crate::experiments::{
    A1Result, A2Row, C1Row, C2Result, C3Result, C4Result, Fig6Result, Fig7Result, Tab1Result,
};

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

/// Writes `{dir}/{experiment}.pcap` from the run's captured wire frames.
/// Returns `None` — writing nothing — when the capture is empty, which is
/// the normal case unless the run was built with `MOSQUITONET_PCAP` set.
pub fn write_pcap_in(
    dir: &Path,
    experiment: &str,
    frames: &[CapturedFrame],
) -> std::io::Result<Option<PathBuf>> {
    if frames.is_empty() {
        return Ok(None);
    }
    std::fs::create_dir_all(dir)?;
    let mut w = PcapWriter::new();
    for f in frames {
        w.frame(f.at.as_micros(), &f.bytes);
    }
    let path = dir.join(format!("{experiment}.pcap"));
    std::fs::write(&path, w.finish())?;
    Ok(Some(path))
}

fn hr(out: &mut String, title: &str) {
    let _ = writeln!(
        out,
        "\n================================================================"
    );
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "================================================================"
    );
}

/// Renders the Table 1 (same-subnet switch) result.
pub fn render_tab1(r: &Tab1Result) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "TABLE 1 — Same-subnet care-of address switch (paper §4)",
    );
    let _ = writeln!(
        out,
        "Workload: UDP echo every {} ms; {} iterations.",
        r.interval_ms, r.iterations
    );
    let _ = writeln!(
        out,
        "Paper: \"sixteen tests showed no packet loss, and the other four\n\
         tests lost one packet each\" -> switch interval < 10 ms.\n"
    );
    let _ = writeln!(out, "Measured (iterations by packets lost):");
    out.push_str(&r.histogram.render("  same-subnet switch"));
    let _ = writeln!(
        out,
        "  max loss in any iteration: {} packet(s)\n  mean loss: {:.2}",
        r.max_loss,
        r.histogram.mean()
    );
    out
}

/// Renders the distant-correspondent variant of Table 1 as the one-line
/// note the full report prints under the table.
pub fn render_tab1_far(r: &Tab1Result) -> String {
    format!(
        "
  (distant correspondent variant: {} of {} iterations lost 0; max {} —
            \"we received similar results for a correspondent host located on
            a campus network outside the department\", §4)\n",
        r.histogram.count(0),
        r.iterations,
        r.max_loss
    )
}

/// Renders the Figure 6 (device switching) result.
pub fn render_fig6(r: &Fig6Result) -> String {
    let mut out = String::new();
    hr(&mut out, "FIGURE 6 — Device switching overhead (paper §4)");
    let _ = writeln!(
        out,
        "Workload: UDP echo every {} ms; {} iterations per scenario.",
        r.interval_ms, r.iterations
    );
    let _ = writeln!(
        out,
        "Paper: cold switches lose packets over an interval \"generally\n\
         less than 1.25 seconds\" (~<=5 packets at 250 ms); hot switches\n\
         usually lose none (one observed radio drop).\n"
    );
    for (scenario, histogram) in &r.scenarios {
        out.push_str(&histogram.render(&format!("  {}", scenario.label())));
        let _ = writeln!(
            out,
            "    mean {:.2} lost  (~{:.2} s of disruption)\n",
            histogram.mean(),
            histogram.mean() * r.interval_ms as f64 / 1000.0
        );
    }
    out
}

/// Renders the Figure 7 (registration time-line) result.
pub fn render_fig7(r: &Fig7Result) -> String {
    let mut out = String::new();
    hr(&mut out, "FIGURE 7 — Registration time-line (paper §4)");
    let _ = writeln!(
        out,
        "{} same-subnet re-registrations, mean (stddev), ms:\n",
        r.runs
    );
    let row = |label: &str, s: &mosquitonet_sim::Summary, paper: &str| {
        format!(
            "  {label:<28} {:>7.2} ({:>5.3})   paper: {paper}\n",
            s.mean() / 1000.0,
            s.stddev() / 1000.0
        )
    };
    out.push_str(&row(
        "configure interface",
        &r.configure_us,
        "~1.2 (pre-reg part)",
    ));
    out.push_str(&row(
        "change route table",
        &r.route_us,
        "~0.6 (pre-reg part)",
    ));
    out.push_str(&row("request -> reply", &r.request_reply_us, "4.79"));
    let _ = writeln!(
        out,
        "  {:<28} {:>7.2}           paper: 1.48",
        "  of which HA processing",
        r.ha_processing_us / 1000.0
    );
    out.push_str(&row("post-registration", &r.post_us, "~0.8"));
    out.push_str(&row("TOTAL address switch", &r.total_us, "7.39"));
    out
}

/// Renders the C1 (encapsulation overhead) table.
pub fn render_c1(rows: &[C1Row]) -> String {
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
    for r in rows {
        let _ = writeln!(
            out,
            "  {:>8} {:>8} {:>12} {:>9} {:>8.1}%",
            r.payload, r.plain, r.encapsulated, r.overhead, r.overhead_pct
        );
    }
    out
}

/// Renders the C2 (radio characterization) result.
pub fn render_c2(r: &C2Result) -> String {
    let mut out = String::new();
    hr(&mut out, "C2 — Metricom radio characteristics (paper §4)");
    let _ = writeln!(
        out,
        "  HA<->MH echo RTT over radio : mean {:.0} ms, min {:.0}, max {:.0}\n\
         \x20   paper: \"200~250ms\"",
        r.rtt_ms.mean(),
        r.rtt_ms.min().unwrap_or(0.0),
        r.rtt_ms.max().unwrap_or(0.0)
    );
    let _ = writeln!(
        out,
        "  bulk UDP goodput            : {:.1} kb/s (theoretical {:.0} kb/s)\n\
         \x20   paper: \"in practice 30-40 Kbits/second is the best we achieve\"",
        r.goodput_kbps, r.theoretical_kbps
    );
    out
}

/// Renders the C3 (triangle route) result.
pub fn render_c3(r: &C3Result) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "C3 — Triangle-route optimization and filter fallback (paper §3.2)",
    );
    let _ = writeln!(
        out,
        "  MH->far-CH echo RTT, reverse tunnel : mean {:.1} ms",
        r.tunnel_rtt_ms.mean()
    );
    let _ = writeln!(
        out,
        "  MH->far-CH echo RTT, triangle route : mean {:.1} ms  (saves {:.1} ms)",
        r.triangle_rtt_ms.mean(),
        r.tunnel_rtt_ms.mean() - r.triangle_rtt_ms.mean()
    );
    let _ = writeln!(
        out,
        "  with a transit-filtering foreign router:\n\
         \x20   probe fell back to the tunnel : {}\n\
         \x20   connectivity after fallback   : {}",
        r.fallback_triggered, r.post_fallback_delivery
    );
    out
}

/// Renders the C4 (lossy-registration chaos) result.
pub fn render_c4(r: &C4Result) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "C4 — Registration under injected loss (chaos sweep)",
    );
    let _ = writeln!(
        out,
        "  loss%  completed  requests  retries  drops   p50 ms   p90 ms   max ms"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "  {:>4}   {:>4}/{:<4}  {:>7}  {:>7}  {:>5}  {:>7.1}  {:>7.1}  {:>7.1}",
            row.loss_pct,
            row.completed,
            row.switches,
            row.requests_sent,
            row.retries,
            row.drops_injected,
            row.p50_us as f64 / 1_000.0,
            row.p90_us as f64 / 1_000.0,
            row.max_us as f64 / 1_000.0,
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

/// Renders the C5 (home-agent crash recovery) result.
pub fn render_c5(r: &crate::experiments::C5Result) -> String {
    let mut out = String::new();
    hr(&mut out, "C5 — Home-agent crash recovery (journal replay)");
    let _ = writeln!(
        out,
        "Mid-session crash of the (separate-host) home agent; journal\n\
         survives, agent restarts with a new boot epoch.\n"
    );
    let _ = writeln!(out, "  echo probes sent       {:>6}", r.sent);
    let _ = writeln!(out, "  echo replies received  {:>6}", r.received);
    let _ = writeln!(out, "  lost before crash      {:>6}", r.lost_before);
    let _ = writeln!(out, "  lost during outage     {:>6}", r.lost_during);
    let _ = writeln!(out, "  lost after recovery    {:>6}", r.lost_after);
    let _ = writeln!(
        out,
        "  reconverged in         {:>6} ms after the crash",
        r.reconverged_ms
    );
    let _ = writeln!(
        out,
        "  journal records replayed {:>4}; boot epoch {} (MH detected {} change{})",
        r.journal_replayed,
        r.ha_epoch,
        r.epoch_changes,
        if r.epoch_changes == 1 { "" } else { "s" },
    );
    let _ = writeln!(
        out,
        "  (the restarted agent resumes proxy ARP and tunneling from the\n\
         \x20  replayed journal before the MH even re-registers; the epoch\n\
         \x20  bump in the next reply triggers a from-scratch registration)"
    );
    out
}

/// Renders the C6 (standby failover) result.
pub fn render_c6(r: &crate::experiments::C6Result) -> String {
    let mut out = String::new();
    hr(&mut out, "C6 — Failover to the standby home agent");
    let _ = writeln!(
        out,
        "Primary home agent crashes for good; the standby has been\n\
         absorbing binding replicas and takes over when the MH's retry\n\
         budget exhausts and it rotates agents.\n"
    );
    let _ = writeln!(out, "  inbound probes sent     {:>6}", r.in_sent);
    let _ = writeln!(out, "  inbound replies         {:>6}", r.in_received);
    let _ = writeln!(out, "  inbound lost in outage  {:>6}", r.in_lost_during);
    let _ = writeln!(out, "  inbound lost after      {:>6}", r.in_lost_after);
    let _ = writeln!(out, "  outbound lost after     {:>6}", r.out_lost_after);
    let _ = writeln!(
        out,
        "  failed over in          {:>6} ms after the crash",
        r.failover_ms
    );
    let _ = writeln!(
        out,
        "  failovers {} / degradations {} / direct-encap lookups {}",
        r.ha_failovers, r.degradations, r.direct_encap_lookups
    );
    let _ = writeln!(
        out,
        "  standby: {} replicas applied, {} registrations accepted,\n\
         \x20  {} packets tunneled to the MH after takeover",
        r.replicas_applied, r.standby_accepted, r.standby_encapsulated
    );
    let _ = writeln!(
        out,
        "  (while no agent answered, reverse tunnels degraded to direct\n\
         \x20  encapsulation so outbound traffic kept the home address)"
    );
    out
}

/// Renders the C7 (spoofed/replayed registration) result.
pub fn render_c7(r: &crate::experiments::C7Result) -> String {
    let mut out = String::new();
    hr(&mut out, "C7 — Spoofed and replayed registrations");
    let _ = writeln!(
        out,
        "The home agent requires authenticated registrations; an on-subnet\n\
         attacker injects forgeries and byte-exact replays, then the agent\n\
         crashes and restarts (journal intact) and the replay repeats.\n"
    );
    let _ = writeln!(out, "  echo probes sent        {:>6}", r.sent);
    let _ = writeln!(out, "  echo replies received   {:>6}", r.received);
    let _ = writeln!(out, "  lost during attack      {:>6}", r.lost_attack);
    let _ = writeln!(out, "  lost after recovery     {:>6}", r.lost_after);
    let _ = writeln!(
        out,
        "  injected: {} forgeries, {} replays; accepted {}",
        r.spoofs, r.replays, r.attacker_accepted
    );
    let _ = writeln!(
        out,
        "  home agent denied: {} auth failures, {} replays (attacker saw {} denials)",
        r.auth_failures, r.auth_replays, r.attacker_denied
    );
    let _ = writeln!(
        out,
        "  binding intact: {}; boot epoch {}",
        if r.binding_intact { "yes" } else { "NO" },
        r.ha_epoch
    );
    let _ = writeln!(
        out,
        "  (the replay floor is journaled with each accepted binding, so\n\
         \x20  the restarted agent refuses the pre-crash capture too)"
    );
    out
}

/// Renders the A1 (foreign-agent ablation) result.
pub fn render_a1(r: &A1Result) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "A1 — Hand-off loss: agentless vs. foreign agents (paper §5.1)",
    );
    let _ = writeln!(
        out,
        "Workload: UDP echo every {} ms; {} hand-offs between two foreign\n\
         networks per mode. Paper's claim: a previous foreign agent can\n\
         forward in-flight packets, trimming the loss window.\n",
        r.interval_ms, r.iterations
    );
    for (mode, histogram) in &r.per_mode {
        out.push_str(&histogram.render(&format!("  {}", mode.label())));
        let _ = writeln!(out, "    mean {:.2} lost per hand-off\n", histogram.mean());
    }
    out
}

/// Renders the A2 (home-agent scaling) table.
pub fn render_a2(rows: &[A2Row]) -> String {
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
    for r in rows {
        let _ = writeln!(
            out,
            "  {:>6} {:>10} {:>14.2} {:>13.2} {:>13.2} {:>10.1}",
            r.mobile_hosts, r.completed, r.mean_reply_ms, r.p95_reply_ms, r.max_reply_ms, r.span_ms
        );
    }
    let _ = writeln!(
        out,
        "\n  (1.48 ms of serialized service time bounds throughput at\n\
         \x20  ~675 registrations/second.)"
    );
    out
}

/// Renders the A3 (DHCP address reuse) result.
pub fn render_a3(r: &crate::experiments::A3Result) -> String {
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
        "  first-available reuse : {} tunneled packets mis-delivered to the newcomer",
        r.first_available_misdelivered
    );
    let _ = writeln!(
        out,
        "  least-recently-used   : {} mis-delivered (different address handed out: {})",
        r.lru_misdelivered, r.lru_gave_different_address
    );
    let _ = writeln!(
        out,
        "\n  Paper: \"a well-written DHCP server would avoid reassigning the\n\
         \x20 same IP address for as long as possible.\""
    );
    out
}

/// Renders the S1 many-correspondents scale run (decision cache at scale).
pub fn render_s1(r: &crate::experiments::S1Result) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "S1 — Decision cache at scale (many correspondents)",
    );
    let _ = writeln!(out, "  correspondents: {}", r.correspondents);
    let _ = writeln!(
        out,
        "  phase          sends     hits   misses  flushes  entries"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "  {:<12} {:>7}  {:>7}  {:>7}  {:>7}  {:>7}",
            row.phase, row.sends, row.hits, row.misses, row.invalidations, row.cache_entries,
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

/// Renders the S3 whole-system saturation run: the virtual-time rates of
/// the result rows, the same numbers the golden-diffed bench sidecar holds.
pub fn render_s3(r: &crate::experiments::S3Result) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "S3 — Whole-system saturation (batched per-tick packet path)",
    );
    let _ = writeln!(
        out,
        "  {} pairs x {} datagrams per 10 ms tick x {} ticks, seed {}, batching {}",
        r.cfg.pairs,
        r.cfg.burst,
        r.cfg.ticks,
        r.cfg.seed,
        if r.cfg.batching { "on" } else { "off" },
    );
    let _ = writeln!(
        out,
        "  {:>7} {:>9} {:>10} {:>10} {:>9} {:>10} {:>12}",
        "mode", "sent", "delivered", "events", "batches", "vpps", "ns/pkt(v)"
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "  {:>7} {:>9} {:>10} {:>10} {:>9} {:>10} {:>12}",
            row.mode, row.sent, row.delivered, row.events, row.batches, row.pps, row.ns_per_packet,
        );
    }
    let _ = writeln!(
        out,
        "  (vpps / ns-per-packet are virtual-time rates — exact and seed-stable)"
    );
    out
}

/// Renders the sharded S3 run: the aggregated row plus the partition
/// and threading parameters. Everything but the thread count it echoes
/// is byte-identical across thread counts.
pub fn render_s3_sharded(r: &crate::experiments::S3ShardedResult) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "S3 (sharded) — parallel campus domains over a backbone trunk",
    );
    let _ = writeln!(
        out,
        "  {} shards x {} pairs, {} datagrams per 10 ms tick x {} ticks, \
         seed {}, {} thread(s)",
        r.shards, r.cfg.pairs, r.cfg.burst, r.cfg.ticks, r.cfg.seed, r.threads,
    );
    let row = &r.row;
    let _ = writeln!(
        out,
        "  sent {}  delivered {}  events {}  batches {}  vpps {}  \
         ns/pkt(v) {}",
        row.sent, row.delivered, row.events, row.batches, row.pps, row.ns_per_packet,
    );
    let _ = writeln!(
        out,
        "  rounds with cross-shard sends {}  (barrier rounds in which a \
         shard sent frames over the backbone, summed over shards)",
        r.arena_resets,
    );
    out
}

/// Renders the S2 sharded home-agent fleet run: the aggregated row plus
/// the partition and threading parameters. Everything but the thread
/// count it echoes is byte-identical across thread counts.
pub fn render_s2(r: &crate::experiments::S2Result) -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "S2 — Sharded home-agent fleet under Zipf registration churn",
    );
    let _ = writeln!(
        out,
        "  {} shards (active+standby pairs) x {} mobile hosts, {} Zipf \
         draws per 10 ms tick x {} ticks, seed {}, {} thread(s)",
        r.cfg.shards, r.cfg.mobile_hosts, r.cfg.burst, r.cfg.ticks, r.cfg.seed, r.threads,
    );
    let row = &r.row;
    let _ = writeln!(
        out,
        "  sent {}  (misdirected {}  redirected {})  accepted {}  denied {}",
        row.sent, row.misdirected, row.redirected, row.accepted, row.denied,
    );
    let _ = writeln!(
        out,
        "  fleet: processed {}  wrong-shard denials {}  replicas {}->{}",
        row.ha_processed, row.wrong_shard, row.replicas_sent, row.replicas_applied,
    );
    let _ = writeln!(
        out,
        "  bindings: active {}  standby {} (lock-step)  journal records {}",
        row.live_bindings, row.standby_bindings, row.journal_records,
    );
    let _ = writeln!(
        out,
        "  regs/s {} (virtual)  p99 latency {:.2} ms (virtual)  bytes/binding {}",
        row.regs_per_sec,
        row.p99_latency_ns as f64 / 1_000_000.0,
        row.bytes_per_binding,
    );
    let _ = writeln!(
        out,
        "  events {}  batches {}  rounds with cross-shard sends {}",
        row.events, row.batches, r.arena_resets,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_sim::{Histogram, Summary};

    #[test]
    fn tab1_render_mentions_key_facts() {
        let mut h = Histogram::new(5);
        for _ in 0..16 {
            h.record(0);
        }
        for _ in 0..4 {
            h.record(1);
        }
        let r = Tab1Result {
            iterations: 20,
            interval_ms: 10,
            histogram: h,
            max_loss: 1,
            metrics: Json::Null,
        };
        let s = render_tab1(&r);
        assert!(s.contains("TABLE 1"));
        assert!(s.contains("10 ms"));
        assert!(s.contains("max loss in any iteration: 1"));
    }

    #[test]
    fn fig7_render_includes_paper_reference_values() {
        let mk = |v: f64| Summary::from_samples(&[v]);
        let r = Fig7Result {
            runs: 10,
            configure_us: mk(1200.0),
            route_us: mk(600.0),
            request_reply_us: mk(4790.0),
            ha_processing_us: 1480.0,
            post_us: mk(800.0),
            total_us: mk(7390.0),
            metrics: Json::Null,
        };
        let s = render_fig7(&r);
        assert!(s.contains("4.79"));
        assert!(s.contains("7.39"));
        assert!(s.contains("1.48"));
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
        let s = render_c1(&rows);
        assert!(s.contains("payload"));
        assert!(s.lines().count() >= rows.len() + 4);
        assert!(s.contains("20"), "20-byte overhead visible");
    }
}
