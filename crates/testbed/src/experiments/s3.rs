//! Scale run S3: whole-system saturation, on the classic engine in three
//! forwarding topologies and on the sharded engine across four campuses.

use std::net::Ipv4Addr;

use mosquitonet_core::SendMode;
use mosquitonet_sim::{Json, Sim, SimDuration, SimTime};
use mosquitonet_stack::{self as stack, ModuleId, Network};
use mosquitonet_wire::Cidr;

use super::common::{
    rate_per_sec, run_fleet, settle_fa_mh_on_foreign, settle_on_dept, Fleet, Span,
};
use super::{Artifact, Experiment, Param, SEED};
use crate::report::{self, SidecarKind};
use crate::topology::{build, MhMode, ShardedCampus, TestbedConfig, CH_DEPT};
use crate::workload::{SaturationSender, SaturationSink};

/// Base port for the S3 per-pair sinks.
const S3_PORT_BASE: u16 = 9000;

/// Virtual gap between sender ticks, milliseconds.
const S3_TICK_MS: u64 = 10;

/// Payload bytes per S3 datagram.
const S3_PAYLOAD_LEN: usize = 64;

/// Drain window after the last tick so every in-flight frame lands. The
/// offered load deliberately exceeds the 10 Mb/s + 800 µs/frame Ethernet
/// model (~1.1 kframes/s), so frames queue behind the transmitter and the
/// tail needs roughly `sent × 874 µs` beyond the send window to land.
const S3_DRAIN: SimDuration = SimDuration::from_secs(5);

/// Configuration of one S3 saturation run.
#[derive(Clone, Copy, Debug)]
pub struct S3Config {
    /// MH↔correspondent pairs pumping concurrently.
    pub pairs: u32,
    /// Datagrams per sender tick.
    pub burst: u32,
    /// Sender ticks (run length = `ticks` × 10 ms of virtual time).
    pub ticks: u32,
    /// RNG seed.
    pub seed: u64,
    /// Always `true`: the engine has one loop, the per-instant drain.
    /// Frozen until ROADMAP [bench-v2] because `benchmark/` constructs it,
    /// and echoed as the bench sidecars' `"batching": true` member.
    pub batching: bool,
}

/// Forwarding topology an S3 mode pushes its traffic through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum S3Mode {
    /// MH → home agent (encap) → correspondent: the §3.2 reverse tunnel.
    ReverseTunnel,
    /// MH → correspondent directly, IP-in-IP encapsulated end to end.
    DirectEncap,
    /// MH attached through a foreign agent; traffic follows whatever the
    /// FA client's routing dictates.
    ForeignAgent,
}

impl S3Mode {
    /// The three modes of the standard report.
    pub fn all() -> [S3Mode; 3] {
        [
            S3Mode::ReverseTunnel,
            S3Mode::DirectEncap,
            S3Mode::ForeignAgent,
        ]
    }

    /// Stable key used in sidecars and bench ids.
    pub fn key(self) -> &'static str {
        match self {
            S3Mode::ReverseTunnel => "tunnel",
            S3Mode::DirectEncap => "direct",
            S3Mode::ForeignAgent => "fa",
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            S3Mode::ReverseTunnel => "reverse tunnel via home agent",
            S3Mode::DirectEncap => "direct IP-in-IP to correspondent",
            S3Mode::ForeignAgent => "foreign-agent attachment",
        }
    }

    /// What the mode changes about the run: the test-bed it builds, the
    /// Mobile Policy Table entries the MH is taught, and whether the
    /// department correspondent decapsulates the IP-in-IP traffic
    /// addressed to it (paper §3.2: "transparent IP-in-IP
    /// decapsulation").
    fn setup(self, seed: u64) -> (TestbedConfig, &'static [(Ipv4Addr, SendMode)], bool) {
        let cfg = TestbedConfig {
            seed,
            ..TestbedConfig::default()
        };
        match self {
            S3Mode::ReverseTunnel => (cfg, &[(CH_DEPT, SendMode::ReverseTunnel)], false),
            S3Mode::DirectEncap => (cfg, &[(CH_DEPT, SendMode::DirectEncap)], true),
            S3Mode::ForeignAgent => {
                let cfg = TestbedConfig {
                    with_foreign_site: true,
                    with_foreign_agents: true,
                    mh_mode: MhMode::ForeignAgent,
                    ..cfg
                };
                (cfg, &[], false)
            }
        }
    }
}

/// One S3 mode's measured row. Every field except `wall_ns` is a
/// deterministic virtual-time quantity; `wall_ns` is real elapsed time
/// and is deliberately excluded from [`S3Row::to_json`] so the bench
/// sidecar stays byte-stable.
#[derive(Debug, Default)]
pub struct S3Row {
    /// Mode key (`tunnel`, `direct`, `fa`, `sharded`).
    pub mode: &'static str,
    /// Datagrams the senders queued.
    pub sent: u64,
    /// Datagrams the sinks received.
    pub delivered: u64,
    /// Payload bytes the sinks received.
    pub bytes: u64,
    /// MH `ip/output` delta over the run.
    pub mh_output: u64,
    /// MH packets IP-in-IP encapsulated.
    pub mh_encapsulated: u64,
    /// Home-agent-host packets forwarded.
    pub ha_forwarded: u64,
    /// Home-agent-host packets decapsulated (reverse-tunnel inner hop).
    pub ha_decapsulated: u64,
    /// Engine events executed during the measurement window.
    pub events: u64,
    /// Engine drains (one per virtual instant reached) during the
    /// measurement window.
    pub batches: u64,
    /// Virtual span between first and last sink arrival, nanoseconds.
    pub span_ns: u64,
    /// Delivered packets per second of *virtual* time (integer math).
    pub pps: u64,
    /// Virtual nanoseconds per delivered packet.
    pub ns_per_packet: u64,
    /// Real nanoseconds the measurement window took. Never golden-pinned
    /// or printed; its one reader is `benchmark/`'s adapter (`bulk_sharded`).
    pub wall_ns: u64,
}

impl S3Row {
    /// Renders the deterministic fields (everything but `wall_ns`).
    /// `deliveries` and `max_batch` are frozen `mosquitonet.bench/v1`
    /// members, derived: every datagram is its own delivery.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::from(self.mode)),
            ("sent", Json::UInt(self.sent)),
            ("delivered", Json::UInt(self.delivered)),
            ("bytes", Json::UInt(self.bytes)),
            ("deliveries", Json::UInt(self.delivered)),
            ("max_batch", Json::UInt((self.delivered > 0) as u64)),
            ("mh_output", Json::UInt(self.mh_output)),
            ("mh_encapsulated", Json::UInt(self.mh_encapsulated)),
            ("ha_forwarded", Json::UInt(self.ha_forwarded)),
            ("ha_decapsulated", Json::UInt(self.ha_decapsulated)),
            ("events", Json::UInt(self.events)),
            ("batches", Json::UInt(self.batches)),
            ("span_ns", Json::UInt(self.span_ns)),
            ("pps", Json::UInt(self.pps)),
            ("ns_per_packet", Json::UInt(self.ns_per_packet)),
        ])
    }

    /// Adds one sink's deliveries to the row and its arrivals to `span`.
    fn tally_sink(&mut self, span: &mut Span, sink: &SaturationSink) {
        self.delivered += sink.datagrams;
        self.bytes += sink.bytes;
        span.widen(sink.first_at, sink.last_at);
    }

    /// Sets the arrival span and the virtual-time rates that follow from
    /// it, once every sink is tallied.
    fn set_span(&mut self, span: Span) {
        self.span_ns = span.ns();
        self.pps = rate_per_sec(self.delivered, self.span_ns);
        self.ns_per_packet = self.span_ns.checked_div(self.delivered).unwrap_or(0);
    }
}

/// One throwaway datagram to `dst`'s spare port, sent ahead of the
/// measured window to warm ARP along the path (the reply is an ICMP
/// port-unreachable, which warms the reverse direction too).
fn s3_arp_primer(dst: Ipv4Addr) -> Box<SaturationSender> {
    Box::new(SaturationSender::new(
        (dst, S3_PORT_BASE - 1),
        1,
        SimDuration::from_millis(1),
        1,
    ))
}

/// Pair `pair`'s measured sender toward `dst`.
fn s3_sender(dst: Ipv4Addr, pair: u32, burst: u32, ticks: u32) -> Box<SaturationSender> {
    let mut sender = SaturationSender::new(
        (dst, S3_PORT_BASE + pair as u16),
        burst,
        SimDuration::from_millis(S3_TICK_MS),
        ticks,
    );
    sender.payload_len = S3_PAYLOAD_LEN;
    Box::new(sender)
}

/// The run parameters every S3 bench body opens with.
fn s3_params_json(cfg: &S3Config) -> Vec<(&'static str, Json)> {
    vec![
        ("pairs", Json::from(cfg.pairs)),
        ("burst", Json::from(cfg.burst)),
        ("ticks", Json::from(cfg.ticks)),
        ("tick_ms", Json::UInt(S3_TICK_MS)),
        ("payload_len", Json::UInt(S3_PAYLOAD_LEN as u64)),
        ("seed", Json::UInt(cfg.seed)),
        ("batching", Json::from(cfg.batching)),
    ]
}

/// Runs one S3 mode and returns its row.
pub fn run_s3_mode(mode: S3Mode, cfg: &S3Config) -> S3Row {
    assert!(cfg.batching, "the engine has no unbatched loop");
    let (testbed, policy, ch_decaps) = mode.setup(cfg.seed);
    let mut tb = build(testbed);
    let (mh, ch) = (tb.mh, tb.ch_dept);

    // Settle the MH away from home before any bulk traffic flows.
    if mode == S3Mode::ForeignAgent {
        settle_fa_mh_on_foreign(&mut tb);
    } else {
        settle_on_dept(&mut tb);
    }
    for &(dst, send_mode) in policy {
        tb.mh_module().policy.set(Cidr::host(dst), send_mode);
    }
    if ch_decaps {
        tb.sim.world_mut().host_mut(ch).core.ipip_decap = true;
    }

    // Prime ARP along the path. Without this the first measured burst
    // races ARP resolution and overflows the pending-ARP queue.
    stack::add_module(&mut tb.sim, mh, s3_arp_primer(CH_DEPT));
    tb.run_for(SimDuration::from_millis(500));

    // One sink on the department correspondent + one sender per pair.
    let mut sinks: Vec<ModuleId> = Vec::new();
    let mut senders: Vec<ModuleId> = Vec::new();
    for i in 0..cfg.pairs {
        let sink = Box::new(SaturationSink::new(S3_PORT_BASE + i as u16));
        sinks.push(stack::add_module(&mut tb.sim, ch, sink));
        let sender = s3_sender(CH_DEPT, i, cfg.burst, cfg.ticks);
        senders.push(stack::add_module(&mut tb.sim, mh, sender));
    }

    // Baselines, then the measurement window.
    let mh_out0 = tb.sim.world().host(tb.mh).core.stats.ip_output.get();
    let mh_enc0 = tb.sim.world().host(tb.mh).core.stats.encapsulated.get();
    let ha = tb.ha_host;
    let ha_fwd0 = tb.sim.world().host(ha).core.stats.forwarded.get();
    let ha_dec0 = tb.sim.world().host(ha).core.stats.decapsulated.get();
    let events0 = tb.sim.events_executed();
    let batches0 = tb.sim.batches_executed();

    let wall_start = std::time::Instant::now();
    tb.run_for(SimDuration::from_millis(S3_TICK_MS * cfg.ticks as u64) + S3_DRAIN);
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let mut row = S3Row {
        mode: mode.key(),
        mh_output: tb.sim.world().host(tb.mh).core.stats.ip_output.get() - mh_out0,
        mh_encapsulated: tb.sim.world().host(tb.mh).core.stats.encapsulated.get() - mh_enc0,
        ha_forwarded: tb.sim.world().host(ha).core.stats.forwarded.get() - ha_fwd0,
        ha_decapsulated: tb.sim.world().host(ha).core.stats.decapsulated.get() - ha_dec0,
        events: tb.sim.events_executed() - events0,
        batches: tb.sim.batches_executed() - batches0,
        wall_ns,
        ..S3Row::default()
    };
    for mid in &senders {
        row.sent += tb.module::<SaturationSender>(tb.mh, *mid).sent;
    }
    let mut span = Span::default();
    for mid in &sinks {
        row.tally_sink(&mut span, tb.module(ch, *mid));
    }
    row.set_span(span);
    row
}

/// Runs the S3 saturation experiment: sustained bursts through `pairs`
/// MH↔correspondent pairs across the reverse-tunnel, direct-encap, and
/// foreign-agent topologies. Returns the bench-sidecar body: the run
/// parameters, then one row per mode under `modes`. Every reported
/// quantity is an exact counter or virtual-time delta, so it is
/// byte-stable for a fixed config.
pub fn run_s3(cfg: &S3Config) -> Json {
    let rows = S3Mode::all().map(|mode| run_s3_mode(mode, cfg).to_json());
    let mut doc = s3_params_json(cfg);
    doc.push(("modes", Json::arr(rows)));
    Json::obj(doc)
}

// ------------------------------------------------------- S3 (sharded)

/// Settle window before the measured senders start: long enough for the
/// ARP primers to warm every path, including across the backbone.
const S3_SHARD_PRIME: SimDuration = SimDuration::from_millis(600);

/// Shard count of S3's sharded variant.
const S3_SHARDS: u32 = 4;

/// The sharded S3 result: the aggregated row plus the merged sidecar
/// documents. Everything except `row.wall_ns` is deterministic: the
/// same config gives the same bytes. `benchmark/`'s adapter reads the row's wall clock beside the documents; the report
/// reads the documents alone.
#[derive(Debug)]
pub struct S3ShardedResult {
    /// The configuration measured.
    pub cfg: S3Config,
    /// Shard count the topology was partitioned into.
    pub shards: u32,
    /// Aggregated measurement row (mode key `sharded`).
    pub row: S3Row,
    /// Merged flight-recorder journeys document.
    pub journeys: Json,
    /// Merged metrics snapshot document.
    pub metrics: Json,
    /// Barrier rounds in which a shard sent cross-shard frames, summed
    /// over shards.
    pub arena_resets: u64,
}

impl S3ShardedResult {
    /// The deterministic bench-sidecar body: parameters, the aggregated
    /// row, and the cross-shard round counter. Byte-identical for a fixed
    /// config (the golden table diffs exactly this).
    pub fn to_json(&self) -> Json {
        let mut doc = s3_params_json(&self.cfg);
        doc.extend([
            ("shards", Json::from(self.shards)),
            ("arena_resets", Json::UInt(self.arena_resets)),
            ("row", self.row.to_json()),
        ]);
        Json::obj(doc)
    }
}

/// Runs the sharded S3 saturation experiment: `shards` single-LAN campus
/// domains, each with a gateway, a source host, and a sink host, joined
/// by a fixed-latency backbone portal. Each campus pumps `cfg.pairs`
/// saturation flows, alternating between its local sink (intra-shard)
/// and the next campus's sink (cross-shard via the backbone) — the mixed
/// local/remote split the determinism proptest leans on.
///
/// Every deterministic output (rows, journeys, metrics) is
/// byte-identical from run to run, which `tests/shard_determinism.rs`
/// pins. `threads` is ignored: the shards step on the caller's thread. It
/// is frozen until ROADMAP [bench-v2] because `benchmark/` passes it.
pub fn run_s3_sharded(cfg: &S3Config, shards: u32, _threads: usize) -> S3ShardedResult {
    ShardedCampus::check_shards(shards);
    assert!(cfg.batching, "the engine has no unbatched loop");
    let deadline = SimTime::ZERO
        + S3_SHARD_PRIME
        + SimDuration::from_millis(S3_TICK_MS * cfg.ticks as u64)
        + S3_DRAIN;

    let build = |s: u32| -> Sim<Network> {
        let mut campus = ShardedCampus::wire(s, shards, cfg.seed, ["gw", "src", "dst"]);
        campus.power_up();
        let ShardedCampus {
            mut sim,
            leaves: [(src, _), (dst, _)],
            ..
        } = campus;
        stack::start(&mut sim);

        // Sinks for every pair port: even pairs feed from the local
        // source, odd pairs from the previous campus across the trunk.
        for i in 0..cfg.pairs {
            let port = S3_PORT_BASE + i as u16;
            stack::add_module(&mut sim, dst, Box::new(SaturationSink::new(port)));
        }
        // ARP primers: one to the local sink and one to the next
        // campus's sink.
        let local_sink = ShardedCampus::addr(s, 3);
        let next_sink = ShardedCampus::addr((s + 1) % shards, 3);
        for target in [local_sink, next_sink] {
            stack::add_module(&mut sim, src, s3_arp_primer(target));
        }
        // The measured senders start after the priming window.
        let (pairs, burst, ticks) = (cfg.pairs, cfg.burst, cfg.ticks);
        sim.schedule_at(SimTime::ZERO + S3_SHARD_PRIME, move |sim| {
            for i in 0..pairs {
                let target = if i % 2 == 0 { local_sink } else { next_sink };
                stack::add_module(sim, src, s3_sender(target, i, burst, ticks));
            }
        });
        sim
    };

    // Each shard's hosts and sinks add their counts straight into the one
    // row, and their arrivals into the one span.
    let tally = |w: &mut Network, _: SimTime, row: &mut S3Row, span: &mut Span| {
        for h in 0..w.hosts.len() {
            let host = &mut w.hosts[h];
            // Host order per shard is fixed: gw, src, dst. The src/gw
            // counters include the two ARP primers per shard —
            // deterministic.
            match h {
                0 => {
                    row.ha_forwarded += host.core.stats.forwarded.get();
                    row.ha_decapsulated += host.core.stats.decapsulated.get();
                }
                1 => {
                    row.mh_output += host.core.stats.ip_output.get();
                    row.mh_encapsulated += host.core.stats.encapsulated.get();
                }
                _ => {}
            }
            for m in 0..host.module_count() {
                let mid = ModuleId(m);
                if let Some(snd) = host.module_mut::<SaturationSender>(mid) {
                    // Skip the ARP primers (they target the spare port).
                    if snd.dst.1 >= S3_PORT_BASE {
                        row.sent += snd.sent;
                    }
                } else if let Some(snk) = host.module_mut::<SaturationSink>(mid) {
                    row.tally_sink(span, snk);
                }
            }
        }
    };

    let wall_start = std::time::Instant::now();
    let Fleet {
        mut row,
        span,
        events,
        batches,
        arena_resets,
        wall_ns,
        journeys,
        metrics,
    } = run_fleet(shards, wall_start, deadline, build, tally);
    row.mode = "sharded";
    row.wall_ns = wall_ns;
    row.events = events;
    row.batches = batches;
    row.set_span(span);
    S3ShardedResult {
        cfg: *cfg,
        shards,
        row,
        journeys,
        metrics,
        arena_resets,
    }
}

pub(super) const S3: Experiment = Experiment {
    name: "s3_saturation",
    about: "S3: whole-system saturation, classic engine and four sharded campuses",
    params: &[
        Param {
            key: "pairs",
            default: 4,
            min: 1,
            // One UDP port per pair, counting up from the base port.
            max: (u16::MAX - S3_PORT_BASE) as u64,
        },
        Param::count("burst", 16),
        Param::count("ticks", 50),
        SEED,
    ],
    artifacts: &[
        "s3_saturation.bench",
        "s3_sharded.bench",
        "s3_sharded.journeys",
        "s3_sharded.metrics",
    ],
    run: |p| {
        let cfg = S3Config {
            pairs: p.get_u32("pairs"),
            burst: p.get_u32("burst"),
            ticks: p.get_u32("ticks"),
            seed: p.get("seed"),
            batching: true,
        };
        let classic = run_s3(&cfg);
        let sharded = run_s3_sharded(&cfg, S3_SHARDS, 1);
        vec![
            Artifact::Sidecar(SidecarKind::Bench, "s3_saturation", classic),
            Artifact::Sidecar(SidecarKind::Bench, "s3_sharded", sharded.to_json()),
            Artifact::Sidecar(SidecarKind::Journeys, "s3_sharded", sharded.journeys),
            Artifact::Sidecar(SidecarKind::Metrics, "s3_sharded", sharded.metrics),
        ]
    },
    render: report::render_s3,
};
