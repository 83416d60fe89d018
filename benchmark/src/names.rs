//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, by the names later issues refer to.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test holds the two in agreement. Every run prints every metric of its
//! kind (untraced: end-to-end; traced: per-layer) on every workload. A
//! layer metric reads 0 on a workload that does not exercise that layer —
//! the "no change" prediction made visible.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Where a per-layer value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// From the workload's traced repeats (spans, registry deltas,
    /// profiler cells); the median over repeats.
    Window,
    /// As [`Source::Window`], and a count the program makes exactly: it
    /// must be identical across the repeats of a run.
    Exact,
    /// A probe: a loop over one public function of the layer with
    /// workload-shaped inputs; the median over batches.
    Probe,
    /// An exact count taken around a probe's loop.
    ProbeExact,
}

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name, `<layer>.<part>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
}

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "bulk_tunnel",
        "data plane: 64-byte reverse-tunnel flows on the Figure-5 testbed; sim, link, stack \
         fastpath hits and wire encap/decap do all the work, core does none",
    ),
    (
        "reg_churn",
        "control plane at fleet scale: 16 home-agent shards, 100k homes at 60% of capacity; \
         core (agent, journal, directory, replicas) dominates",
    ),
    (
        "handoff",
        "the paper's namesake: six kinds of handoff with DHCP and policy probes; the write \
         side of the caches (flush, refill, timer cancel) that bulk_tunnel only reads",
    ),
    (
        "bulk_sharded",
        "the sharded engine on one thread at ~2 packets per barrier round; sim::shard \
         windows, barriers and the envelope arena dominate",
    ),
];

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Exact, Probe, ProbeExact, Window};

/// The per-layer metrics, printed by every traced run. Layers are the
/// program's crates; `trace.*` describes the tracing itself and the last
/// three are whole-run checks the untraced line cannot carry (an
/// end-to-end metric must be reported by every workload and never be 0).
pub const PER_LAYER: &[Layer] = &[
    // ------------------------------------------------------------ sim
    layer("sim.window.ns_per_event", "ns", Lower, Window),
    layer("sim.window.events_per_op", "count", Lower, Exact),
    layer("sim.window.batch_mean", "count", Higher, Exact),
    // Counted exactly, but a hash table's resizes depend on its random
    // seed, so repeats differ by a few allocations in millions.
    layer("sim.window.allocs_per_op", "count", Lower, Window),
    layer("sim.window.alloc_bytes_per_op", "B", Lower, Window),
    layer("sim.window.ns_per_pkt_1024B", "ns", Lower, Window),
    layer("sim.engine.self_ns_per_event", "ns", Lower, Window),
    layer("sim.metrics.export_ms", "ms", Lower, Window),
    layer("sim.flightrec.export_ms", "ms", Lower, Window),
    layer("sim.trace.entries_per_op", "count", Lower, Exact),
    layer("sim.shard.rounds_per_op", "count", Lower, Exact),
    layer("sim.shard.self_share_t1", "ratio", Lower, Window),
    layer("sim.shard.mt2_pkts_per_s", "1/s", Higher, Window),
    layer("sim.shard.mt2_spread", "ratio", Lower, Window),
    layer("sim.shard.mt2_speedup", "x", Higher, Window),
    layer("sim.engine.noop_ns_q64", "ns", Lower, Probe),
    layer("sim.engine.noop_ns_q4096", "ns", Lower, Probe),
    layer("sim.engine.noop_allocs", "count", Lower, ProbeExact),
    layer("sim.engine.cancel_ns", "ns", Lower, Probe),
    layer("sim.metrics.counter_inc_ns", "ns", Lower, Probe),
    layer("sim.flightrec.hop_ns_on", "ns", Lower, Probe),
    layer("sim.trace.record_ns", "ns", Lower, Probe),
    layer("sim.shard.empty_round_ns_t1", "ns", Lower, Probe),
    layer("sim.shard.empty_round_ns_t2", "ns", Lower, Probe),
    // ----------------------------------------------------------- wire
    layer("wire.ipv4.parse_ns", "ns", Lower, Probe),
    layer("wire.ipv4.parse_allocs", "count", Lower, ProbeExact),
    layer("wire.ipv4.write_ns", "ns", Lower, Probe),
    layer("wire.ipip.encap_ns", "ns", Lower, Probe),
    layer("wire.ipip.decap_ns", "ns", Lower, Probe),
    layer("wire.udp.parse_ns", "ns", Lower, Probe),
    layer("wire.udp.write_ns", "ns", Lower, Probe),
    layer("wire.checksum.ns_64B", "ns", Lower, Probe),
    layer("wire.lpm.lookup_ns", "ns", Lower, Probe),
    layer("wire.pktbuf.cycle_ns", "ns", Lower, Probe),
    layer("wire.pktbuf.cycle_allocs", "count", Lower, ProbeExact),
    layer("wire.mac.keyed_ns", "ns", Lower, Probe),
    // ----------------------------------------------------------- link
    layer("link.frame.parse_ns", "ns", Lower, Probe),
    layer("link.frame.write_ns", "ns", Lower, Probe),
    layer("link.device.tx_ns", "ns", Lower, Probe),
    layer("link.lan.recipients_ns", "ns", Lower, Probe),
    layer("link.lan.recipients_allocs", "count", Lower, ProbeExact),
    layer("link.frames_per_op", "count", Lower, Exact),
    layer("link.drops_per_op", "count", Lower, Exact),
    // ---------------------------------------------------------- stack
    layer("stack.fastpath.hit_ns", "ns", Lower, Probe),
    layer("stack.fastpath.miss_ns", "ns", Lower, Probe),
    layer("stack.fastpath.flush_ns_4096", "ns", Lower, Probe),
    layer("stack.route.lookup_ns", "ns", Lower, Probe),
    layer("stack.arp.lookup_ns", "ns", Lower, Probe),
    layer("stack.ip.send_ns", "ns", Lower, Probe),
    layer("stack.ip.send_allocs", "count", Lower, ProbeExact),
    layer("stack.ip.input_ns", "ns", Lower, Probe),
    layer("stack.fastpath.hit_ratio", "ratio", Higher, Exact),
    layer("stack.fastpath.invalidations_per_op", "count", Lower, Exact),
    layer("stack.arp.requests_per_op", "count", Lower, Exact),
    layer("stack.drops_per_op", "count", Lower, Exact),
    layer("stack.sender.module_ns_per_pkt", "ns", Lower, Window),
    // ----------------------------------------------------------- core
    layer("core.messages.request_parse_ns", "ns", Lower, Probe),
    layer("core.messages.request_encode_ns", "ns", Lower, Probe),
    layer("core.messages.reply_encode_ns", "ns", Lower, Probe),
    layer("core.messages.verify_ns", "ns", Lower, Probe),
    layer("core.journal.append_ns", "ns", Lower, Probe),
    layer("core.journal.replay_ns_per_rec", "ns", Lower, Probe),
    layer("core.binding.bind_ns", "ns", Lower, Probe),
    layer("core.binding.get_ns", "ns", Lower, Probe),
    layer("core.fleet.resolve_ns", "ns", Lower, Probe),
    layer("core.policy.lookup_ns", "ns", Lower, Probe),
    layer("core.backoff.next_delay_ns", "ns", Lower, Probe),
    layer("core.ha.module_ns_per_reg", "ns", Lower, Window),
    layer("core.mh.module_ns_per_handoff", "ns", Lower, Window),
    layer("core.ha.journal_recs_per_reg", "count", Lower, Exact),
    layer("core.ha.replicas_per_reg", "count", Lower, Exact),
    layer("core.ha.wrong_shard_per_reg", "count", Lower, Exact),
    layer("core.mh.requests_per_handoff", "count", Lower, Exact),
    // ----------------------------------------------------------- dhcp
    layer("dhcp.messages.parse_ns", "ns", Lower, Probe),
    layer("dhcp.messages.encode_ns", "ns", Lower, Probe),
    layer("dhcp.exchanges_per_handoff", "count", Lower, Exact),
    // -------------------------------------------------------- testbed
    layer("testbed.build_ms", "ms", Lower, Window),
    layer("testbed.settle_ms", "ms", Lower, Window),
    layer("testbed.collect_ms", "ms", Lower, Window),
    layer("testbed.churn.module_ns_per_reg", "ns", Lower, Window),
    // ---------------------------------------------------------- trace
    layer("trace.overhead_pct", "%", Lower, Window),
    layer("trace.spans", "count", Lower, Window),
    // ----------------------------------------------- whole-run checks
    layer("fail_ratio", "ratio", Lower, Exact),
    layer("virt_reg_ms_p99", "ms", Lower, Exact),
    layer("paper_err_pct", "%", Lower, Exact),
];

/// Most end-to-end metrics a benchmark may define.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics a benchmark may define.
pub const MAX_PER_LAYER: usize = 128;

fn well_formed(name: &str, max: usize, extra: &[char]) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(&c))
}

/// A name is at most 64 letters, digits, `_`, `.` and `-`, and starts
/// with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    well_formed(name, 64, &['_', '.', '-'])
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// A unit is at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    well_formed(unit, 16, &['_', '/', '%', '.', '-'])
}

/// Checks a whole vocabulary — `(name, unit)` pairs of the end-to-end and
/// per-layer metrics plus the workload names — against the benchmark
/// contract: well-formed names and units, every name used once, counts
/// within the limits, and a `setup_s` end-to-end metric.
pub fn validate(
    workloads: &[&str],
    end_to_end: &[(&str, &str)],
    per_layer: &[(&str, &str)],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, need 2 to 8", workloads.len()));
    }
    if !(1..=MAX_END_TO_END).contains(&end_to_end.len()) {
        return Err(format!("{} end-to-end metrics", end_to_end.len()));
    }
    if !(1..=MAX_PER_LAYER).contains(&per_layer.len()) {
        return Err(format!("{} per-layer metrics", per_layer.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    let metrics = end_to_end.iter().chain(per_layer);
    for (name, unit) in workloads
        .iter()
        .map(|w| (w, &"count"))
        .chain(metrics.map(|(n, u)| (n, u)))
    {
        if !valid_name(name) {
            return Err(format!("malformed name {name:?}"));
        }
        if !valid_unit(unit) {
            return Err(format!("malformed unit {unit:?} on {name}"));
        }
        if !seen.insert(*name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    if !end_to_end.contains(&("setup_s", "s")) {
        return Err("no setup_s end-to-end metric in seconds".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Pairs = Vec<(&'static str, &'static str)>;

    fn own_tables() -> (Vec<&'static str>, Pairs, Pairs) {
        (
            WORKLOADS.iter().map(|w| w.0).collect(),
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        )
    }

    #[test]
    fn own_vocabulary_is_valid() {
        let (w, e, l) = own_tables();
        assert_eq!(validate(&w, &e, &l), Ok(()));
        assert_eq!((w.len(), e.len(), l.len()), (4, 4, 85));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("sim.window.ns_per_pkt_1024B"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn duplicates_and_overlong_lists_are_refused() {
        let (w, e, l) = own_tables();
        let mut dup = l.clone();
        dup.push(("setup_s", "s"));
        assert!(validate(&w, &e, &dup).unwrap_err().contains("twice"));
        let many: Vec<(&str, &str)> = (0..129).map(|_| ("x", "ns")).collect();
        assert!(validate(&w, &e, &many).is_err());
        let many_e: Vec<(&str, &str)> = (0..17).map(|_| ("x", "ns")).collect();
        assert!(validate(&w, &many_e, &l).is_err());
        assert!(validate(&w[..1], &e, &l).is_err());
        let no_setup: Vec<(&str, &str)> = e.iter().copied().filter(|m| m.0 != "setup_s").collect();
        assert!(validate(&w, &no_setup, &l).unwrap_err().contains("setup_s"));
    }
}
