//! The one file through which the benchmark touches the program.
//!
//! Everything here goes through public functions of the repository's
//! crates (`README.md` lists the signatures relied on); the rest of the
//! harness sees only [`Workload`], [`Scale`], [`Repeat`] and the
//! `(name, value)` pairs of the per-layer metrics. The program receives
//! only inputs generated from the run's seed.
//!
//! Time is kept in two clocks and never mixed: *virtual* time is what the
//! simulated network takes (`SimDuration`, link rates, the 7.39 ms of
//! Figure 7); *wall* time is what this code takes to simulate it
//! (`Instant`). Every rate the benchmark reports is per wall second.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes};
use mosquitonet_core::timing::{
    REGISTRATION_RETRY, REGISTRATION_RETRY_BUDGET, REGISTRATION_RETRY_MAX,
};
use mosquitonet_core::{
    AddressPlan, BindingJournal, BindingTable, DirectoryEntry, JournalRecord, MobilePolicyTable,
    RegistrationReply, RegistrationRequest, ReplyCode, RetryBackoff, SendMode, ShardDirectory,
    SwitchPlan, SwitchStyle,
};
use mosquitonet_dhcp::DhcpMessage;
use mosquitonet_link::{presets, Attachment, AttachmentKey, EtherType, Frame};
use mosquitonet_sim::{
    run_sharded, FlightRecorder, HopAction, MetricValue, MetricsRegistry, ShardEnvelope,
    ShardWorld, Sim, SimDuration, SimTime, Snapshot, Trace, TraceKind,
};
use mosquitonet_stack::{
    self as stack, ArpState, FastPath, Host, HostId, IfaceId, ModuleId, RouteDecision, RouteEntry,
    RouteTable, SendOptions, SourceSel,
};
use mosquitonet_testbed::experiments::{run_s2, run_s3_sharded, S2Config, S3Config, ECHO_PORT};
use mosquitonet_testbed::topology::{
    self, Testbed, TestbedConfig, CH_DEPT, COA_DEPT, COA_DEPT_ALT, COA_RADIO, MH_HOME, ROUTER_DEPT,
    ROUTER_RADIO,
};
use mosquitonet_testbed::workload::{
    SaturationSender, SaturationSink, UdpEchoResponder, UdpEchoSender,
};
use mosquitonet_wire::{
    internet_checksum, ipip, keyed_mac, Cidr, IpProto, Ipv4Header, Ipv4Packet, LpmTrie, MacAddr,
    PacketBuf, UdpDatagram,
};

use crate::alloc;
use crate::probe::{time_chunks, time_op, Timing};
use crate::spans::SpanLog;
use crate::stats::median;

/// The program's JSON document type, reused for the harness's own files.
pub use mosquitonet_sim::Json;

/// Turns on the program's profiler for the two `experiments::` workloads,
/// which read this switch when they build each shard; the testbed
/// workloads enable the profiler on the `Sim` they build themselves.
/// Call once, before any thread is spawned.
pub fn enable_program_profiling() {
    std::env::set_var("MOSQUITONET_PROFILE", "1");
}

// ------------------------------------------------------------ workloads

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Data plane: reverse-tunnel saturation flows on the testbed.
    BulkTunnel,
    /// Control plane: registration churn against the home-agent fleet.
    RegChurn,
    /// Six kinds of handoff with DHCP, an echo stream and policy probes.
    Handoff,
    /// The sharded engine on one worker thread.
    BulkSharded,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkTunnel,
        Workload::RegChurn,
        Workload::Handoff,
        Workload::BulkSharded,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkTunnel => "bulk_tunnel",
            Workload::RegChurn => "reg_churn",
            Workload::Handoff => "handoff",
            Workload::BulkSharded => "bulk_sharded",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size of one repeat. The full scale is what the committed numbers are
/// measured at; the smoke scale only exercises the checks.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `bulk_tunnel` sender ticks (4 flows × 2 datagrams each).
    pub tunnel_ticks: u32,
    /// `reg_churn` shards, homes and churn ticks (burst 4).
    pub churn: (u32, u32, u32),
    /// `handoff` handoffs per repeat (a multiple of the six kinds).
    pub handoffs: u32,
    /// `bulk_sharded` sender ticks (4 shards × 4 pairs × 2 datagrams).
    pub sharded_ticks: u32,
    /// Sender ticks of the 1- and 2-thread comparison runs.
    pub mt_ticks: u32,
}

impl Scale {
    /// The measured scale: each repeat is ~0.5 s of wall time, so a run
    /// holds tens of repeats and reports a steady median.
    pub const FULL: Scale = Scale {
        tunnel_ticks: 25_000,
        churn: (16, 100_000, 1_500),
        handoffs: 1_200,
        sharded_ticks: 5_000,
        mt_ticks: 500,
    };

    /// Checks only; numbers at this scale are not comparable.
    pub const SMOKE: Scale = Scale {
        tunnel_ticks: 200,
        churn: (4, 4_000, 60),
        handoffs: 24,
        sharded_ticks: 100,
        mt_ticks: 50,
    };
}

/// What one repeat of a workload measured.
#[derive(Clone, Debug, Default)]
pub struct Repeat {
    /// Wall time up to the start of the measured window.
    pub setup_ns: u64,
    /// Wall time of the measured window.
    pub window_ns: u64,
    /// Wall time of result and sidecar collection after the window.
    pub collect_ns: u64,
    /// Operations completed in the window: delivered datagrams, accepted
    /// registrations or completed handoffs.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Engine events executed in the window.
    pub events: u64,
    /// FNV-64 of the deterministic result (rows and counters).
    pub digest: u64,
    /// Correctness checks that did not hold, by name.
    pub failures: Vec<String>,
    /// Per-layer values of this repeat (traced runs only).
    pub layer: Vec<(&'static str, f64)>,
}

/// Runs one repeat of `workload` from `seed` at `scale`.
pub fn run_repeat(workload: Workload, seed: u64, scale: &Scale, spans: &mut SpanLog) -> Repeat {
    match workload {
        Workload::BulkTunnel => bulk_tunnel(seed, scale.tunnel_ticks, 2, 64, spans),
        Workload::RegChurn => reg_churn(seed, scale.churn, spans),
        Workload::Handoff => handoff(seed, scale.handoffs, spans),
        Workload::BulkSharded => bulk_sharded(seed, scale.sharded_ticks, 1, spans).0,
    }
}

/// 64-bit FNV-1a, the digest every workload folds its result into.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Counter values by registry name: from a live registry snapshot, or
/// from the merged metrics document an `experiments::` runner returns.
#[derive(Clone, Debug, Default)]
struct Counters(BTreeMap<String, u64>);

impl Counters {
    fn from_snapshot(snapshot: &Snapshot) -> Counters {
        Counters(
            snapshot
                .iter()
                .filter_map(|(name, value)| match value {
                    MetricValue::Counter(v) => Some((name.to_string(), *v)),
                    _ => None,
                })
                .collect(),
        )
    }

    fn from_metrics_doc(doc: &Json) -> Counters {
        let mut map = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("metrics") {
            for (name, cell) in members {
                if cell.get("type").and_then(Json::as_str) == Some("counter") {
                    if let Some(v) = cell.get("value").and_then(Json::as_u64) {
                        map.insert(name.clone(), v);
                    }
                }
            }
        }
        Counters(map)
    }

    /// `self − earlier`, name by name (a name absent earlier counts 0).
    fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.0.get(k).copied().unwrap_or(0)))
                .collect(),
        )
    }

    fn sum(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.0.iter().filter(|(k, _)| pick(k)).map(|(_, v)| v).sum()
    }

    fn sum_suffix(&self, suffix: &str) -> u64 {
        self.sum(|k| k.ends_with(suffix))
    }

    /// Total wall nanoseconds the profiler charged to cells ending in
    /// `cell` (`profile/…` on a testbed, `profile/shard/{id}/…` merged).
    fn profile_ns(&self, cell: &str) -> u64 {
        self.sum(|k| k.starts_with("profile/") && k.ends_with(cell))
    }

    /// Folds every deterministic counter (wall-clock `profile/` cells
    /// excluded) into `digest`.
    fn digest_into(&self, digest: &mut Fnv) {
        for (name, value) in self.0.iter().filter(|(k, _)| !k.starts_with("profile/")) {
            digest.bytes(name.as_bytes());
            digest.u64(*value);
        }
    }
}

/// What one measured window did: the source of a [`Repeat`] and of the
/// per-layer window metrics.
#[derive(Default)]
struct WindowFacts {
    ops: u64,
    attempted: u64,
    window_ns: u64,
    events: u64,
    batches: u64,
    counters: Counters,
    allocs: (u64, u64),
    trace_entries: u64,
    handoffs: u64,
    regs: u64,
    journal_records: u64,
    arena_resets: u64,
    sharded: bool,
    virt_reg_ms_p99: f64,
    paper_err_pct: f64,
}

impl WindowFacts {
    fn failed(&self) -> u64 {
        self.attempted - self.ops.min(self.attempted)
    }

    /// The repeat these facts describe; the per-layer values are worked
    /// out only when tracing.
    fn into_repeat(
        self,
        setup_ns: u64,
        collect_ns: u64,
        digest: Fnv,
        failures: Vec<String>,
        traced: bool,
    ) -> Repeat {
        Repeat {
            setup_ns,
            window_ns: self.window_ns,
            collect_ns,
            ops: self.ops,
            attempted: self.attempted,
            failed: self.failed(),
            events: self.events,
            digest: digest.0,
            failures,
            layer: if traced {
                window_layers(&self)
            } else {
                Vec::new()
            },
        }
    }
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The per-layer values one traced window yields. Span-derived values
/// (`testbed.*_ms`, `sim.*.export_ms`) are added by the harness, which
/// owns the span log.
fn window_layers(f: &WindowFacts) -> Vec<(&'static str, f64)> {
    let c = &f.counters;
    let body_ns = c.profile_ns("/batch/total_ns");
    let (hits, misses) = (
        c.sum_suffix("/fastpath/hit"),
        c.sum_suffix("/fastpath/miss"),
    );
    let link_drops = c.sum(|k| {
        ["/drop.tx_down", "/drop.tx_mtu", "/drop.rx_down"]
            .iter()
            .any(|suffix| k.ends_with(suffix))
    });
    // The client's count; the DHCP server keeps one of the same name.
    let dhcp_grants = c.0.get("mh/dhcp/grants").copied().unwrap_or(0);
    let runner_share = if f.sharded {
        1.0 - per(body_ns, f.window_ns)
    } else {
        0.0
    };
    vec![
        ("sim.window.ns_per_event", per(f.window_ns, f.events)),
        ("sim.window.events_per_op", per(f.events, f.ops)),
        ("sim.window.batch_mean", per(f.events, f.batches)),
        ("sim.window.allocs_per_op", per(f.allocs.0, f.ops)),
        ("sim.window.alloc_bytes_per_op", per(f.allocs.1, f.ops)),
        (
            "sim.engine.self_ns_per_event",
            per(f.window_ns.saturating_sub(body_ns), f.events),
        ),
        ("sim.trace.entries_per_op", per(f.trace_entries, f.ops)),
        ("sim.shard.rounds_per_op", per(f.arena_resets, f.ops)),
        ("sim.shard.self_share_t1", runner_share),
        ("link.frames_per_op", per(c.sum_suffix("/tx_frames"), f.ops)),
        ("link.drops_per_op", per(link_drops, f.ops)),
        ("stack.fastpath.hit_ratio", per(hits, hits + misses)),
        (
            "stack.fastpath.invalidations_per_op",
            per(c.sum_suffix("/fastpath/invalidate"), f.ops),
        ),
        (
            "stack.arp.requests_per_op",
            per(c.sum_suffix("/arp.resolutions"), f.ops),
        ),
        (
            "stack.drops_per_op",
            per(c.sum(|k| k.contains("/ip/drop.")), f.ops),
        ),
        (
            "stack.sender.module_ns_per_pkt",
            per(c.profile_ns("/module.sat-sender/total_ns"), f.ops),
        ),
        (
            "core.ha.module_ns_per_reg",
            per(c.profile_ns("/module.home-agent/total_ns"), f.regs),
        ),
        (
            "core.mh.module_ns_per_handoff",
            per(c.profile_ns("/module.mobile-host/total_ns"), f.handoffs),
        ),
        (
            "core.ha.journal_recs_per_reg",
            per(f.journal_records, f.regs),
        ),
        (
            "core.ha.replicas_per_reg",
            per(c.sum_suffix("/reg/replicas_sent"), f.regs),
        ),
        (
            "core.ha.wrong_shard_per_reg",
            per(c.sum_suffix("/reg/wrong_shard"), f.regs),
        ),
        (
            "core.mh.requests_per_handoff",
            per(c.sum_suffix("/reg/requests_sent"), f.handoffs),
        ),
        ("dhcp.exchanges_per_handoff", per(dhcp_grants, f.handoffs)),
        (
            "testbed.churn.module_ns_per_reg",
            per(c.profile_ns("/module.fleet-churn/total_ns"), f.regs),
        ),
        ("fail_ratio", per(f.failed(), f.attempted)),
        ("virt_reg_ms_p99", f.virt_reg_ms_p99),
        ("paper_err_pct", f.paper_err_pct),
    ]
}

// --------------------------------------------- testbed-built workloads

/// Builds the Figure-5 testbed and, when tracing, enables the program's
/// own profiler on it.
fn build_testbed(cfg: TestbedConfig, spans: &mut SpanLog) -> Testbed {
    let s = spans.begin("testbed.build");
    let mut tb = topology::build(cfg);
    if spans.is_enabled() {
        let registry = tb.sim.metrics().clone();
        tb.sim.profiler_mut().enable(&registry);
    }
    spans.end(s);
    tb
}

fn eth_plan(tb: &Testbed, address: AddressPlan, style: SwitchStyle) -> SwitchPlan {
    SwitchPlan {
        iface: tb.mh_eth,
        address,
        style,
    }
}

fn static_dept(addr: Ipv4Addr) -> AddressPlan {
    AddressPlan::Static {
        addr,
        subnet: topology::dept_subnet(),
        router: ROUTER_DEPT,
    }
}

/// Carries the mobile host to the department net and registers
/// `COA_DEPT` there with a cold switch.
fn settle_on_dept(tb: &mut Testbed) {
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = eth_plan(tb, static_dept(COA_DEPT), SwitchStyle::Cold);
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(
        tb.mh_module().away_status().is_some_and(|s| s.2),
        "the mobile host failed to settle on the department net"
    );
}

fn module<T: stack::Module>(tb: &mut Testbed, host: HostId, id: ModuleId) -> &mut T {
    tb.sim
        .world_mut()
        .host_mut(host)
        .module_mut(id)
        .expect("module installed by this workload")
}

/// Runs `window` on the testbed as the measured window: timed, spanned,
/// and — when tracing — bracketed by registry snapshots whose difference
/// feeds the per-layer counts. The allocation count is read innermost,
/// so the snapshots themselves stay outside it.
fn measured_window(
    tb: &mut Testbed,
    spans: &mut SpanLog,
    window: impl FnOnce(&mut Testbed, &mut SpanLog),
) -> WindowFacts {
    let traced = spans.is_enabled();
    let counters_at = |tb: &Testbed| {
        if traced {
            Counters::from_snapshot(&tb.sim.metrics().snapshot())
        } else {
            Counters::default()
        }
    };
    let before = counters_at(tb);
    let (events, batches) = (tb.sim.events_executed(), tb.sim.batches_executed());
    let trace_entries = tb.sim.trace().entries().len();
    let allocs = alloc::counts();
    let s = spans.begin("sim.window");
    let started = Instant::now();
    window(tb, spans);
    let window_ns = elapsed_ns(started);
    spans.end(s);
    let allocs_after = alloc::counts();
    WindowFacts {
        window_ns,
        events: tb.sim.events_executed() - events,
        batches: tb.sim.batches_executed() - batches,
        counters: counters_at(tb).since(&before),
        allocs: (allocs_after.0 - allocs.0, allocs_after.1 - allocs.1),
        trace_entries: (tb.sim.trace().entries().len() - trace_entries) as u64,
        ..WindowFacts::default()
    }
}

/// Sidecar collection of a testbed run — what the experiment binaries do
/// after their window: export the metrics registry and the flight
/// recorder's journeys. Both go into `digest`, the wall-clock `profile/`
/// cells of a traced run excepted.
fn collect_sidecars(tb: &Testbed, spans: &mut SpanLog, digest: &mut Fnv) {
    let s = spans.begin("sim.metrics.export");
    let snapshot = tb.sim.metrics().snapshot();
    black_box(snapshot.to_json().render());
    spans.end(s);
    let s = spans.begin("sim.flightrec.export");
    let names: Vec<String> = tb
        .sim
        .world()
        .hosts
        .iter()
        .map(|h| h.core.name.clone())
        .collect();
    let journeys = tb.sim.flights().export(&names, None).render();
    spans.end(s);
    digest.bytes(journeys.as_bytes());
    Counters::from_snapshot(&snapshot).digest_into(digest);
}

const TICK_MS: u64 = 10;
const PORT_BASE: u16 = 9000;
const FLOWS: u32 = 4;

/// `bulk_tunnel`: MH settled on the department net, policy
/// `ReverseTunnel`, ARP primed, `FLOWS` saturation flows of `burst`
/// datagrams per 10 ms tick, 5 s of virtual drain. Offered load stays
/// below the ~1.1 kframes/s Ethernet model, so every datagram lands.
fn bulk_tunnel(
    seed: u64,
    ticks: u32,
    burst: u32,
    payload_len: usize,
    spans: &mut SpanLog,
) -> Repeat {
    let started = Instant::now();
    let mut tb = build_testbed(
        TestbedConfig {
            seed,
            ..TestbedConfig::default()
        },
        spans,
    );
    let s = spans.begin("testbed.settle");
    settle_on_dept(&mut tb);
    tb.mh_module()
        .policy
        .set(Cidr::host(CH_DEPT), SendMode::ReverseTunnel);
    // One throwaway datagram warms ARP along the whole path (the ICMP
    // port-unreachable reply warms the way back).
    let (mh, ch) = (tb.mh, tb.ch_dept);
    let primer = SaturationSender::new((CH_DEPT, PORT_BASE - 1), 1, SimDuration::from_millis(1), 1);
    stack::add_module(&mut tb.sim, mh, Box::new(primer));
    tb.run_for(SimDuration::from_millis(500));
    let mut sinks = Vec::new();
    let mut senders = Vec::new();
    // The seed sets each flow's phase within the tick (the Ethernet model
    // itself draws nothing from the RNG), so seeds differ in how the
    // flows' bursts interleave on the wire.
    let mut phases = Inputs(seed);
    for i in 0..FLOWS {
        let port = PORT_BASE + i as u16;
        sinks.push(stack::add_module(
            &mut tb.sim,
            ch,
            Box::new(SaturationSink::new(port)),
        ));
        tb.run_for(SimDuration::from_micros(phases.next() % 2_000));
        let mut sender = SaturationSender::new(
            (CH_DEPT, port),
            burst,
            SimDuration::from_millis(TICK_MS),
            ticks,
        );
        sender.payload_len = payload_len;
        senders.push(stack::add_module(&mut tb.sim, mh, Box::new(sender)));
    }
    spans.end(s);
    let setup_ns = elapsed_ns(started);

    let mut facts = measured_window(&mut tb, spans, |tb, _| {
        tb.run_for(
            SimDuration::from_millis(TICK_MS * u64::from(ticks)) + SimDuration::from_secs(5),
        );
    });

    let collect_started = Instant::now();
    let s = spans.begin("collect");
    let mut digest = Fnv::new();
    let t = spans.begin("testbed.collect");
    let mut sent = 0;
    for mid in senders {
        sent += module::<SaturationSender>(&mut tb, mh, mid).sent;
    }
    let (mut delivered, mut bytes) = (0, 0);
    for mid in sinks {
        let sink: &mut SaturationSink = module(&mut tb, ch, mid);
        delivered += sink.datagrams;
        bytes += sink.bytes;
    }
    spans.end(t);
    collect_sidecars(&tb, spans, &mut digest);
    spans.end(s);
    for v in [sent, delivered, bytes, facts.events, facts.batches] {
        digest.u64(v);
    }
    let collect_ns = elapsed_ns(collect_started);

    let offered = u64::from(FLOWS * burst * ticks);
    let mut failures = Vec::new();
    if delivered != sent || sent != offered {
        failures.push(format!(
            "bulk_tunnel: delivered {delivered} != sent {sent} (offered {offered})"
        ));
    }
    facts.ops = delivered;
    facts.attempted = sent;
    facts.into_repeat(setup_ns, collect_ns, digest, failures, spans.is_enabled())
}

/// One extra traced `bulk_tunnel` repeat at 1 024-byte payload, burst 1:
/// wall nanoseconds per delivered datagram. It equals the 64-byte figure
/// only if the packet path is copy-free.
pub fn bulk_tunnel_1024(seed: u64, scale: &Scale, spans: &mut SpanLog) -> (f64, Vec<String>) {
    let r = bulk_tunnel(seed, scale.tunnel_ticks / 4, 1, 1024, spans);
    (per(r.window_ns, r.ops), r.failures)
}

/// Correspondents the `handoff` workload keeps in the Mobile Policy
/// Table, cycling the four send modes.
const CORRESPONDENTS: u32 = 32;
const MODES: [SendMode; 4] = [
    SendMode::ReverseTunnel,
    SendMode::Triangle,
    SendMode::DirectEncap,
    SendMode::DirectLocal,
];
/// IP protocol of the policy probes: nothing handles it, so a probe costs
/// one route resolution and one transmit on the sending host.
const PROBE_PROTO: u8 = 253;
/// Figure 7: total same-subnet address-switch time.
const PAPER_SWITCH_US: f64 = 7_390.0;

/// Handoffs 2 and 3 of each cycle of six switch the address on the same
/// subnet: the switch Figure 7 times.
fn is_same_subnet(i: usize) -> bool {
    matches!(i % 6, 2 | 3)
}

/// Starts handoff number `i` of the six-kind cycle.
fn start_handoff(tb: &mut Testbed, i: u32) {
    let radio = SwitchPlan {
        iface: tb.mh_radio,
        address: AddressPlan::Static {
            addr: COA_RADIO,
            subnet: topology::radio_subnet(),
            router: ROUTER_RADIO,
        },
        style: SwitchStyle::Hot,
    };
    let hot_eth = |tb: &Testbed, address| eth_plan(tb, address, SwitchStyle::Hot);
    match i % 6 {
        0 | 4 => tb.with_mh(|m, ctx| m.start_switch(ctx, radio)),
        1 => {
            let plan = hot_eth(tb, static_dept(COA_DEPT));
            tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
        }
        2 => tb.with_mh(|m, ctx| m.switch_address(ctx, static_dept(COA_DEPT_ALT))),
        3 => tb.with_mh(|m, ctx| m.switch_address(ctx, static_dept(COA_DEPT))),
        _ => {
            let plan = hot_eth(tb, AddressPlan::Dhcp);
            tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
        }
    }
}

/// `handoff`: testbed with standby home agent and DHCP, a 250 ms echo
/// stream CH→MH, and `handoffs` switches cycling six kinds — hot
/// Ethernet→radio, hot radio→Ethernet (static), same-subnet to
/// `COA_DEPT_ALT`, back to `COA_DEPT`, hot Ethernet→radio, hot
/// radio→Ethernet by DHCP. Each gets 1.5 s of virtual time: 0.5 s for the
/// switch (more if a radio loss forces a registration retry), then the
/// correspondents are re-learned (a move forgets them) and probed twice —
/// the first round misses the flushed decision cache, the second hits it
/// — and 1 s for the probes to drain.
fn handoff(seed: u64, handoffs: u32, spans: &mut SpanLog) -> Repeat {
    let started = Instant::now();
    let mut tb = build_testbed(
        TestbedConfig {
            seed,
            with_standby_ha: true,
            with_dhcp: true,
            ..TestbedConfig::default()
        },
        spans,
    );
    let s = spans.begin("testbed.settle");
    let (mh, ch) = (tb.mh, tb.ch_dept);
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    let echo = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, ECHO_PORT),
            SimDuration::from_millis(250),
        )),
    );
    settle_on_dept(&mut tb);
    // Hot switches need both devices powered (§4).
    let radio = tb.mh_radio;
    tb.power_up_mh_iface(radio);
    tb.run_for(SimDuration::from_secs(2));
    // The seed picks which /24 of the unrouted 36.200/16 block the
    // correspondents live in.
    let block = (seed % 251) as u8;
    let correspondents: Vec<Ipv4Addr> = (0..CORRESPONDENTS)
        .map(|i| Ipv4Addr::new(36, 200, block, i as u8))
        .collect();
    let first_timeline = tb.mh_module().timelines.len();
    let journal_before = tb.ha_module().journal.len();
    spans.end(s);
    let setup_ns = elapsed_ns(started);

    let mut completed = 0u64;
    let mut facts = measured_window(&mut tb, spans, |tb, spans| {
        for i in 0..handoffs {
            let done_before = tb.mh_module().timelines.len();
            let t = spans.tick();
            start_handoff(tb, i);
            spans.aggregate("core.mh.start_switch", t);
            tb.run_for(SimDuration::from_millis(500));
            // A frame lost on the radio costs a registration retry (1 s
            // and up); wait it out rather than count it as a failure.
            let mut waited = 0;
            while tb.mh_module().timelines.len() == done_before && waited < 1_200 {
                tb.run_for(SimDuration::from_millis(100));
                waited += 1;
            }
            if tb.mh_module().timelines.len() == done_before {
                // A switch is still in progress; the next cannot start.
                break;
            }
            completed += 1;
            let policy = &mut tb.mh_module().policy;
            for (k, &c) in correspondents.iter().enumerate() {
                policy.learn(c, MODES[k % 4]);
            }
            for _round in 0..2 {
                for &c in &correspondents {
                    let header =
                        Ipv4Header::new(Ipv4Addr::UNSPECIFIED, c, IpProto::Other(PROBE_PROTO));
                    let packet = Ipv4Packet::new(header, Bytes::from_static(b"mnbench-probe"));
                    let t = spans.tick();
                    stack::ip_send_packet(&mut tb.sim, mh, packet, SendOptions::default());
                    spans.aggregate("stack.ip.send", t);
                }
            }
            // Let the probes clear the transmitter, so the next
            // registration does not queue behind them.
            tb.run_for(SimDuration::from_millis(1_000));
        }
        tb.run_for(SimDuration::from_secs(2));
    });

    let collect_started = Instant::now();
    let s = spans.begin("collect");
    let mut digest = Fnv::new();
    let t = spans.begin("testbed.collect");
    let registered = tb.mh_module().away_status().is_some_and(|s| s.2);
    let timelines = tb.mh_module().timelines[first_timeline..].to_vec();
    let complete = timelines.iter().filter(|tl| tl.total().is_some()).count() as u64;
    let same_subnet_us: Vec<f64> = timelines
        .iter()
        .enumerate()
        .filter(|(i, _)| is_same_subnet(*i))
        .filter_map(|(_, tl)| tl.total())
        .map(|d| d.as_nanos() as f64 / 1_000.0)
        .collect();
    for tl in &timelines {
        for at in [tl.start, tl.request_sent, tl.reply_received, tl.done] {
            digest.u64(at.map_or(u64::MAX, SimTime::as_nanos));
        }
    }
    let sender: &mut UdpEchoSender = module(&mut tb, ch, echo);
    let (echo_sent, echo_received) = (sender.sent(), sender.received());
    let journal_records = (tb.ha_module().journal.len() - journal_before) as u64;
    spans.end(t);
    collect_sidecars(&tb, spans, &mut digest);
    spans.end(s);
    for v in [
        completed,
        echo_sent,
        echo_received,
        journal_records,
        facts.events,
    ] {
        digest.u64(v);
    }
    let collect_ns = elapsed_ns(collect_started);

    let attempted = u64::from(handoffs);
    let ok = completed.min(complete);
    let mut failures = Vec::new();
    if ok != attempted {
        failures.push(format!(
            "handoff: {completed} of {attempted} switches completed, {complete} timelines complete"
        ));
    }
    if !registered {
        failures.push("handoff: the mobile host did not end registered".to_string());
    }
    let paper_err_pct = if same_subnet_us.is_empty() {
        0.0
    } else {
        (median(&same_subnet_us) - PAPER_SWITCH_US).abs() / PAPER_SWITCH_US * 100.0
    };
    if paper_err_pct > 0.5 {
        failures.push(format!(
            "handoff: simulated same-subnet switch is {paper_err_pct:.2} % off Figure 7's 7.39 ms"
        ));
    }
    facts.ops = ok;
    facts.attempted = attempted;
    facts.handoffs = ok;
    facts.regs = facts.counters.sum_suffix("/reg/accepted");
    facts.journal_records = journal_records;
    facts.paper_err_pct = paper_err_pct;
    facts.into_repeat(setup_ns, collect_ns, digest, failures, spans.is_enabled())
}

// --------------------------------------------- experiments:: workloads

/// Times one `experiments::` call from outside. The runner reports the
/// wall time of its own window (`wall_ns`: shard build, stepping and
/// per-shard finish); the remainder of the call — the in-call result
/// merge, which cannot be split further from outside — is what
/// `setup_s` reports for these two workloads. Returns the result, the
/// facts known so far and that remainder.
fn outer_call<R>(
    spans: &mut SpanLog,
    call: impl FnOnce() -> R,
    wall_ns: impl Fn(&R) -> u64,
) -> (R, WindowFacts, u64) {
    let allocs = alloc::counts();
    let span_start = spans.now_ns();
    let started = Instant::now();
    let result = call();
    let outer_ns = elapsed_ns(started);
    let allocs_after = alloc::counts();
    let window_ns = wall_ns(&result).min(outer_ns);
    spans.record("sim.window", span_start, span_start + window_ns);
    spans.record(
        "testbed.collect",
        span_start + window_ns,
        span_start + outer_ns,
    );
    let facts = WindowFacts {
        window_ns,
        allocs: (allocs_after.0 - allocs.0, allocs_after.1 - allocs.1),
        sharded: true,
        ..WindowFacts::default()
    };
    (result, facts, outer_ns - window_ns)
}

/// Renders the sidecars an `experiments::` runner hands back (what its
/// binary writes to disk), folds the deterministic ones into the digest
/// and returns it with the merged counters and the time all that took.
fn render_sidecars(
    bench: &Json,
    metrics: &Json,
    journeys: &Json,
    spans: &mut SpanLog,
) -> (Fnv, Counters, u64) {
    let started = Instant::now();
    let collect = spans.begin("collect");
    let mut digest = Fnv::new();
    digest.bytes(bench.render().as_bytes());
    let s = spans.begin("sim.metrics.export");
    black_box(metrics.render());
    spans.end(s);
    let s = spans.begin("sim.flightrec.export");
    digest.bytes(journeys.render().as_bytes());
    spans.end(s);
    let counters = Counters::from_metrics_doc(metrics);
    counters.digest_into(&mut digest);
    spans.end(collect);
    (digest, counters, elapsed_ns(started))
}

/// `reg_churn`: `experiments::run_s2` on one worker thread — 6 400
/// registrations per virtual second offered to 16 shards, about 60 % of
/// the fleet's virtual capacity, so every request is answered.
fn reg_churn(seed: u64, (shards, homes, ticks): (u32, u32, u32), spans: &mut SpanLog) -> Repeat {
    let cfg = S2Config {
        shards,
        mobile_hosts: homes,
        burst: 4,
        ticks,
        seed,
        batching: true,
    };
    let (result, mut facts, setup_ns) = outer_call(spans, || run_s2(&cfg, 1), |r| r.row.wall_ns);
    let (digest, counters, collect_ns) =
        render_sidecars(&result.to_json(), &result.metrics, &result.journeys, spans);
    let row = &result.row;
    let mut failures = Vec::new();
    if row.accepted != row.sent || row.denied != 0 {
        failures.push(format!(
            "reg_churn: sent {} accepted {} denied {}",
            row.sent, row.accepted, row.denied
        ));
    }
    if row.live_bindings != row.standby_bindings {
        failures.push(format!(
            "reg_churn: live bindings {} != standby bindings {}",
            row.live_bindings, row.standby_bindings
        ));
    }
    facts.ops = row.accepted;
    facts.attempted = row.sent;
    facts.events = row.events;
    facts.batches = row.batches;
    facts.counters = counters;
    facts.regs = row.accepted;
    facts.journal_records = row.journal_records;
    facts.arena_resets = result.arena_resets;
    facts.virt_reg_ms_p99 = row.p99_latency_ns as f64 / 1e6;
    facts.into_repeat(setup_ns, collect_ns, digest, failures, spans.is_enabled())
}

/// `bulk_sharded`: `experiments::run_s3_sharded`, 4 shards × 4 pairs × 2
/// datagrams per tick. Also returns the rendered bench sidecar, which
/// must be byte-identical at every thread count.
fn bulk_sharded(seed: u64, ticks: u32, threads: usize, spans: &mut SpanLog) -> (Repeat, String) {
    let cfg = S3Config {
        pairs: 4,
        burst: 2,
        ticks,
        seed,
        batching: true,
    };
    let (result, mut facts, setup_ns) = outer_call(
        spans,
        || run_s3_sharded(&cfg, 4, threads),
        |r| r.row.wall_ns,
    );
    let bench = result.to_json();
    let (digest, counters, collect_ns) =
        render_sidecars(&bench, &result.metrics, &result.journeys, spans);
    let row = &result.row;
    let mut failures = Vec::new();
    if row.delivered != row.sent || row.sent == 0 {
        failures.push(format!(
            "bulk_sharded: delivered {} != sent {}",
            row.delivered, row.sent
        ));
    }
    facts.ops = row.delivered;
    facts.attempted = row.sent;
    facts.events = row.events;
    facts.batches = row.batches;
    facts.counters = counters;
    facts.arena_resets = result.arena_resets;
    let repeat = facts.into_repeat(setup_ns, collect_ns, digest, failures, spans.is_enabled());
    (repeat, bench.render())
}

/// The 2-thread comparison: `repeats` runs of the sharded workload at
/// `scale.mt_ticks` on 1 and on 2 worker threads. Returns the wall rates
/// (delivered datagrams per second) at each thread count and any failed
/// check — the bench sidecar must be byte-identical across the two.
pub fn sharded_thread_pair(
    seed: u64,
    scale: &Scale,
    repeats: usize,
) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let mut quiet = SpanLog::new(false);
    let (mut t1, mut t2, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repeats {
        let (one, bench1) = bulk_sharded(seed, scale.mt_ticks, 1, &mut quiet);
        let (two, bench2) = bulk_sharded(seed, scale.mt_ticks, 2, &mut quiet);
        t1.push(per(one.ops * 1_000_000_000, one.window_ns));
        t2.push(per(two.ops * 1_000_000_000, two.window_ns));
        failures.extend(one.failures);
        failures.extend(two.failures);
        if bench1 != bench2 || one.digest != two.digest {
            failures.push("bulk_sharded: 1- and 2-thread results differ".to_string());
        }
    }
    failures.dedup();
    (t1, t2, failures)
}

// --------------------------------------------------------------- probes

/// Deterministic input stream: SplitMix64 from the seed. The harness
/// keeps its own generator rather than the program's `SimRng`, so a
/// change to the program cannot change the inputs it is measured on.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn payload(&mut self, len: usize) -> Bytes {
        Bytes::from((0..len).map(|_| self.next() as u8).collect::<Vec<u8>>())
    }
}

/// Home address `i` of the fleet population (the S2 plan: 36.0.0.0/8).
fn home(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x2400_0000 + 256 + i)
}

/// Collects `(metric, value)` pairs, one span per probe.
struct Probes<'a> {
    batch: Duration,
    spans: &'a mut SpanLog,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Runs one probe under a span named after it and records
    /// nanoseconds per `calls` (1 unless one call of the loop does many
    /// units of work).
    fn spanned(
        &mut self,
        name: &'static str,
        calls: u64,
        probe: impl FnOnce() -> Timing,
    ) -> Timing {
        let s = self.spans.begin(name);
        let t = probe();
        self.spans.end(s);
        self.out.push((name, t.ns_per_op / calls as f64));
        t
    }

    fn time(&mut self, name: &'static str, op: impl FnMut()) -> Timing {
        self.time_per(name, 1, op)
    }

    fn time_per(&mut self, name: &'static str, calls: u64, op: impl FnMut()) -> Timing {
        let batch = self.batch;
        self.spanned(name, calls, || time_op(batch, op))
    }

    fn time_restored(
        &mut self,
        name: &'static str,
        chunk: u64,
        op: impl FnMut(),
        untimed: impl FnMut(),
    ) -> Timing {
        let batch = self.batch;
        self.spanned(name, 1, || time_chunks(batch, chunk, op, untimed))
    }
}

const PROBE_KEY: u64 = 0x6d6f_7371_7569_746f;
const PROBE_SPI: u32 = 0x100;

/// Runs every probe: a loop over one public function of a layer with
/// workload-shaped inputs (64-byte UDP in IPv4, an IP-in-IP outer, signed
/// registrations over a 100 000-home population), `batch` of wall time
/// per batch. Returns one `(metric, value)` pair per probe metric; times
/// are wall nanoseconds per call, allocation counts are exact.
pub fn run_probes(
    seed: u64,
    batch: Duration,
    threads_available: usize,
    spans: &mut SpanLog,
) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        batch,
        spans,
        out: Vec::new(),
    };
    let mut inputs = Inputs(seed);
    probe_sim(&mut p, &mut inputs);
    probe_wire(&mut p, &mut inputs);
    probe_link(&mut p, &mut inputs);
    probe_stack(&mut p, &mut inputs, seed);
    probe_core(&mut p, &mut inputs);
    probe_dhcp(&mut p, &mut inputs);
    probe_two_threads(&mut p, threads_available);
    p.out
}

/// A self-rescheduling no-op event: the engine's cost per event with the
/// smallest possible body. It captures a word, as real events do, so the
/// boxed closure allocates.
fn reschedule(sim: &mut Sim<u64>, period: u64) {
    *sim.world_mut() += 1;
    sim.schedule_in(SimDuration::from_nanos(period), move |sim| {
        reschedule(sim, period)
    });
}

fn engine_at_depth(depth: u64) -> Sim<u64> {
    let mut sim = Sim::new(0u64);
    for i in 0..depth {
        sim.schedule_at(SimTime::from_nanos(i), move |sim| reschedule(sim, depth));
    }
    sim
}

/// An idle shard: one timer per lookahead, nothing crosses shards, so a
/// round costs only the runner's own windows and barriers.
struct IdleShard;

impl ShardWorld for IdleShard {
    type Payload = ();
    fn shard_outbox(_sim: &mut Sim<Self>) -> Vec<ShardEnvelope<()>> {
        Vec::new()
    }
    fn shard_inject(_sim: &mut Sim<Self>, _env: ShardEnvelope<()>) {}
}

fn idle_tick(sim: &mut Sim<IdleShard>, every: SimDuration) {
    sim.schedule_in(every, move |sim| idle_tick(sim, every));
}

const IDLE_ROUNDS: u64 = 2_000;

fn idle_rounds(threads: usize) {
    let lookahead = SimDuration::from_micros(50);
    let deadline = SimTime::ZERO + lookahead * IDLE_ROUNDS;
    let done = run_sharded(
        4,
        threads,
        lookahead,
        deadline,
        |_| {
            let mut sim = Sim::new(IdleShard);
            idle_tick(&mut sim, lookahead);
            sim
        },
        |_, sim| sim.events_executed(),
    );
    black_box(done);
}

fn probe_sim(p: &mut Probes<'_>, inputs: &mut Inputs) {
    let mut q64 = engine_at_depth(64);
    let t = p.time("sim.engine.noop_ns_q64", || {
        q64.step();
    });
    p.out.push(("sim.engine.noop_allocs", t.allocs_per_op));
    let mut q4096 = engine_at_depth(4096);
    p.time("sim.engine.noop_ns_q4096", || {
        q4096.step();
    });

    // A timer armed and cancelled before it fires, then skipped at the
    // head of the queue: the whole life of a cancelled event.
    let mut sim = Sim::new(0u64);
    p.time("sim.engine.cancel_ns", || {
        let id = sim.schedule_in(SimDuration::from_nanos(1), |sim| *sim.world_mut() += 1);
        black_box(sim.cancel(id));
        black_box(sim.next_event_at());
    });

    let registry = MetricsRegistry::new();
    let counter = registry.counter("probe/counter");
    p.time("sim.metrics.counter_inc_ns", || black_box(&counter).inc());

    let mut recorder = FlightRecorder::new();
    recorder.set_enabled(true);
    let flight = recorder.begin_flight(None);
    let host = (inputs.next() % 8) as u32;
    p.time("sim.flightrec.hop_ns_on", || {
        recorder.hop(
            black_box(flight),
            SimTime::ZERO,
            host,
            "udp",
            HopAction::Sent,
        );
    });

    // One trace string per packet is what the stack pays today; the log
    // is cleared at a high-water mark so the probe measures the append.
    let mut trace = Trace::new();
    let mut n = inputs.next() % 1_000;
    p.time("sim.trace.record_ns", || {
        if trace.entries().len() >= 4096 {
            trace.clear();
        }
        n += 1;
        trace.record(
            SimTime::from_nanos(n),
            TraceKind::PacketSent,
            "mh",
            format!("udp 36.135.0.9:4000 -> 36.8.0.7:9000 seq {n}"),
        );
    });

    p.time_per("sim.shard.empty_round_ns_t1", IDLE_ROUNDS, || {
        idle_rounds(1)
    });
}

/// The 2-thread runner probe, kept for last: a spell of two busy threads
/// leaves this sandbox slow for a while, which no other probe should see.
fn probe_two_threads(p: &mut Probes<'_>, threads_available: usize) {
    if threads_available >= 2 {
        p.time_per("sim.shard.empty_round_ns_t2", IDLE_ROUNDS, || {
            idle_rounds(2)
        });
    } else {
        // No second core to run the second worker on.
        p.out.push(("sim.shard.empty_round_ns_t2", 0.0));
    }
}

/// The `bulk_tunnel` datagram: 64 bytes of UDP payload, MH → CH.
fn udp_in_ipv4(inputs: &mut Inputs) -> (UdpDatagram, Ipv4Packet) {
    let dgram = UdpDatagram::new(4000, PORT_BASE, inputs.payload(64));
    let header = Ipv4Header::new(MH_HOME, CH_DEPT, IpProto::Udp);
    let packet = Ipv4Packet::new(header, dgram.to_bytes(MH_HOME, CH_DEPT));
    (dgram, packet)
}

/// Link + IP + IP-in-IP headroom, as the stack reserves it.
const HEADROOM: usize = 14 + 20 + 20;

fn probe_wire(p: &mut Probes<'_>, inputs: &mut Inputs) {
    let (dgram, inner) = udp_in_ipv4(inputs);
    let inner_bytes = inner.to_bytes();
    let t = p.time("wire.ipv4.parse_ns", || {
        black_box(Ipv4Packet::parse(black_box(&inner_bytes)).expect("valid packet"));
    });
    p.out.push(("wire.ipv4.parse_allocs", t.allocs_per_op));
    p.time("wire.ipv4.write_ns", || {
        let mut buf = PacketBuf::with_headroom(HEADROOM);
        black_box(&inner).write_into(&mut buf);
        black_box(buf.len());
    });
    // Take a buffer, copy the written inner packet in, prepend the outer
    // header in place: the encapsulating host's work per packet.
    p.time("wire.ipip.encap_ns", || {
        let mut buf = PacketBuf::with_headroom(HEADROOM);
        buf.put_slice(black_box(&inner_bytes));
        ipip::prepend_outer(&mut buf, 0, COA_DEPT, topology::ROUTER_HOME);
        black_box(buf.len());
    });
    let outer = ipip::encapsulate(&inner, COA_DEPT, topology::ROUTER_HOME);
    p.time("wire.ipip.decap_ns", || {
        black_box(ipip::decapsulate(black_box(&outer)).expect("ip-in-ip"));
    });
    let udp_bytes = dgram.to_bytes(MH_HOME, CH_DEPT);
    p.time("wire.udp.parse_ns", || {
        black_box(UdpDatagram::parse(black_box(&udp_bytes), MH_HOME, CH_DEPT).expect("valid"));
    });
    p.time("wire.udp.write_ns", || {
        black_box(black_box(&dgram).to_bytes(MH_HOME, CH_DEPT));
    });
    let block = inputs.payload(64);
    p.time("wire.checksum.ns_64B", || {
        black_box(internet_checksum(black_box(&block), 0));
    });

    let mut trie = LpmTrie::new();
    for i in 0..4096u32 {
        let prefix = Cidr::new(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24);
        trie.insert(prefix, i);
    }
    let targets: Vec<Ipv4Addr> = (0..256)
        .map(|_| {
            let r = inputs.next();
            Ipv4Addr::new(10, (r >> 8) as u8 % 16, r as u8, (r >> 16) as u8)
        })
        .collect();
    let mut k = 0usize;
    p.time("wire.lpm.lookup_ns", || {
        k = (k + 1) % targets.len();
        black_box(trie.lookup(black_box(targets[k])));
    });

    let t = p.time("wire.pktbuf.cycle_ns", || {
        let mut buf = PacketBuf::with_headroom(HEADROOM);
        buf.put_slice(black_box(&block));
        black_box(buf.freeze().len());
    });
    p.out.push(("wire.pktbuf.cycle_allocs", t.allocs_per_op));

    let body = signed_request(0, 1).to_bytes();
    p.time("wire.mac.keyed_ns", || {
        black_box(keyed_mac(black_box(&body), PROBE_SPI, PROBE_KEY));
    });
}

fn probe_link(p: &mut Probes<'_>, inputs: &mut Inputs) {
    let (_, packet) = udp_in_ipv4(inputs);
    let frame = Frame::new(
        MacAddr::from_index(11),
        MacAddr::from_index(20),
        EtherType::Ipv4,
        packet.to_bytes(),
    );
    let frame_bytes = frame.to_bytes();
    p.time("link.frame.parse_ns", || {
        black_box(Frame::parse(black_box(&frame_bytes)).expect("valid frame"));
    });
    p.time("link.frame.write_ns", || {
        black_box(black_box(&frame).to_bytes());
    });

    let mut device = presets::wired_ethernet("eth0", MacAddr::from_index(20));
    let ready = device.begin_bring_up(SimTime::ZERO);
    device.poll(ready);
    let len = frame_bytes.len();
    p.time("link.device.tx_ns", || {
        black_box(device.schedule_tx(SimTime::ZERO, black_box(len)));
        black_box(device.note_tx(len));
    });

    // The department net of the testbed holds a handful of stations.
    let mut lan = presets::ethernet_lan("net-36-8");
    for i in 0..6u32 {
        lan.attach(Attachment {
            key: AttachmentKey(u64::from(i)),
            mac: MacAddr::from_index(10 + i),
            promiscuous: false,
        });
    }
    let (dst, src) = (MacAddr::from_index(11), MacAddr::from_index(14));
    let t = p.time("link.lan.recipients_ns", || {
        black_box(lan.recipients(black_box(dst), src));
    });
    p.out.push(("link.lan.recipients_allocs", t.allocs_per_op));
}

/// A standalone host with four addressed interfaces, a default route and
/// `routes` /24 nets — what the decision-cache probes resolve against.
fn routed_host(routes: u32) -> Host {
    let mut host = Host::new(HostId(0), "probe");
    for i in 0..4u32 {
        let iface = host.core.add_iface(presets::pcmcia_ethernet(
            format!("eth{i}"),
            MacAddr::from_index(i + 1),
        ));
        host.core.iface_mut(iface).add_addr(
            Ipv4Addr::new(10, 0, 0, 2 + i as u8),
            Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8),
        );
    }
    host.core.routes = route_table(routes);
    host
}

fn route_table(routes: u32) -> RouteTable {
    let mut table = RouteTable::new();
    table.add(RouteEntry {
        dest: Cidr::DEFAULT,
        gateway: Some(Ipv4Addr::new(10, 0, 0, 1)),
        iface: IfaceId(0),
        metric: 0,
    });
    for i in 0..routes {
        table.add(RouteEntry {
            dest: Cidr::new(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24),
            gateway: None,
            iface: IfaceId((i % 4) as usize),
            metric: 0,
        });
    }
    table
}

fn probe_stack(p: &mut Probes<'_>, inputs: &mut Inputs, seed: u64) {
    let mut host = routed_host(512);
    let dst = Ipv4Addr::new(10, 0, (inputs.next() % 200) as u8, 9);
    assert!(
        stack::resolve_route(&mut host, dst, SourceSel::Unspecified, None).is_some(),
        "the probe host must route"
    );
    p.time("stack.fastpath.hit_ns", || {
        black_box(stack::resolve_route(
            black_box(&mut host),
            dst,
            SourceSel::Unspecified,
            None,
        ));
    });
    p.time("stack.fastpath.miss_ns", || {
        host.fastpath.flush();
        black_box(stack::resolve_route(
            black_box(&mut host),
            dst,
            SourceSel::Unspecified,
            None,
        ));
    });

    // Flushing a cache that holds 4 096 decisions (refilled, untimed,
    // before every flush) — what each handoff pays at scale.
    let mut cache = FastPath::new();
    let decision = RouteDecision {
        iface: IfaceId(0),
        src: Ipv4Addr::new(10, 0, 0, 2),
        next_hop: Ipv4Addr::new(10, 0, 0, 1),
        encap: None,
    };
    let token = 7;
    let cache_cell = std::cell::RefCell::new(&mut cache);
    p.time_restored(
        "stack.fastpath.flush_ns_4096",
        1,
        || cache_cell.borrow_mut().flush(),
        || {
            let mut cache = cache_cell.borrow_mut();
            black_box(cache.lookup(
                token,
                &(Ipv4Addr::UNSPECIFIED, SourceSel::Unspecified, None),
            ));
            for i in 0..4096u32 {
                let key = (
                    Ipv4Addr::from(0x0a00_0000 + i),
                    SourceSel::Unspecified,
                    None,
                );
                cache.insert(token, key, decision, None);
            }
        },
    );

    let table = route_table(512);
    p.time("stack.route.lookup_ns", || {
        black_box(table.lookup(black_box(dst)));
    });

    let mut arp = ArpState::new();
    for i in 0..64u32 {
        arp.insert(
            Ipv4Addr::from(0x2408_0000 + i),
            MacAddr::from_index(i),
            SimTime::ZERO,
        );
    }
    let neighbour = Ipv4Addr::from(0x2408_0000 + (inputs.next() % 64) as u32);
    p.time("stack.arp.lookup_ns", || {
        black_box(arp.lookup(black_box(neighbour)));
    });

    // `ip_send_packet` on a settled mobile host, reverse-tunnelled like
    // the bulk flows; the events each send schedules are drained untimed.
    let mut quiet = SpanLog::new(false);
    let mut tb = build_testbed(
        TestbedConfig {
            seed,
            ..TestbedConfig::default()
        },
        &mut quiet,
    );
    settle_on_dept(&mut tb);
    tb.mh_module()
        .policy
        .set(Cidr::host(CH_DEPT), SendMode::ReverseTunnel);
    let (mh, ch) = (tb.mh, tb.ch_dept);
    stack::add_module(&mut tb.sim, ch, Box::new(SaturationSink::new(PORT_BASE)));
    let (_, packet) = udp_in_ipv4(inputs);
    let mut unsourced = packet.clone();
    unsourced.header.src = Ipv4Addr::UNSPECIFIED;
    let tb_cell = std::cell::RefCell::new(&mut tb);
    let t = p.time_restored(
        "stack.ip.send_ns",
        16,
        || {
            let mut tb = tb_cell.borrow_mut();
            stack::ip_send_packet(&mut tb.sim, mh, unsourced.clone(), SendOptions::default());
        },
        || tb_cell.borrow_mut().run_for(SimDuration::from_secs(1)),
    );
    p.out.push(("stack.ip.send_allocs", t.allocs_per_op));
    // Local delivery at the correspondent: parse UDP, find the socket,
    // dispatch to the bound sink.
    let ch_iface = IfaceId(0);
    p.time_restored(
        "stack.ip.input_ns",
        16,
        || {
            let mut tb = tb_cell.borrow_mut();
            stack::ip_input(&mut tb.sim, ch, Some(ch_iface), packet.clone(), 0);
        },
        || tb_cell.borrow_mut().run_for(SimDuration::from_secs(1)),
    );
}

fn signed_request(i: u32, ident: u64) -> RegistrationRequest {
    RegistrationRequest {
        lifetime: 300,
        home_addr: home(i),
        home_agent: topology::ROUTER_HOME,
        care_of: COA_DEPT,
        ident,
        auth: None,
    }
    .sign(PROBE_SPI, PROBE_KEY)
}

const POPULATION: u32 = 100_000;

fn probe_core(p: &mut Probes<'_>, inputs: &mut Inputs) {
    let request = signed_request((inputs.next() % u64::from(POPULATION)) as u32, 1996);
    assert!(request.verify(PROBE_KEY), "the probe request must verify");
    let request_bytes = request.to_bytes();
    p.time("core.messages.request_parse_ns", || {
        black_box(RegistrationRequest::parse(black_box(&request_bytes)).expect("valid request"));
    });
    p.time("core.messages.request_encode_ns", || {
        black_box(black_box(&request).to_bytes());
    });
    let reply = RegistrationReply {
        code: ReplyCode::Accepted,
        lifetime: 300,
        home_addr: request.home_addr,
        home_agent: request.home_agent,
        epoch: 1,
        ident: request.ident,
        auth: None,
    }
    .sign(PROBE_SPI, PROBE_KEY);
    p.time("core.messages.reply_encode_ns", || {
        black_box(black_box(&reply).to_bytes());
    });
    p.time("core.messages.verify_ns", || {
        black_box(black_box(&request).verify(black_box(PROBE_KEY)));
    });

    let bind = |i: u32, ident: u64| JournalRecord::Bind {
        home: home(i),
        care_of: COA_DEPT,
        lifetime: SimDuration::from_secs(300),
        ident,
        at: SimTime::ZERO,
    };
    let mut journal = BindingJournal::new();
    let record = bind(7, 1);
    p.time("core.journal.append_ns", || {
        if journal.len() >= 4096 {
            journal.clear();
        }
        journal.append(black_box(record));
    });
    // 50 000 records over the 100 000-home population, Zipf-free: every
    // record a distinct or repeated home as the stream falls.
    const RECORDS: u64 = 50_000;
    let mut history = BindingJournal::new();
    for ident in 1..=RECORDS {
        history.append(bind((inputs.next() % u64::from(POPULATION)) as u32, ident));
    }
    p.time_per("core.journal.replay_ns_per_rec", RECORDS, || {
        black_box(history.replay());
    });

    let mut table = BindingTable::new();
    let lifetime = SimDuration::from_secs(300);
    for i in 0..POPULATION {
        table.bind(home(i), COA_DEPT, lifetime, 1, SimTime::ZERO);
    }
    let order: Vec<u32> = (0..4096)
        .map(|_| (inputs.next() % u64::from(POPULATION)) as u32)
        .collect();
    let (mut k, mut ident) = (0usize, 1u64);
    p.time("core.binding.bind_ns", || {
        k = (k + 1) % order.len();
        ident += 1;
        let care_of = if ident % 2 == 0 {
            COA_DEPT_ALT
        } else {
            COA_DEPT
        };
        black_box(table.bind(home(order[k]), care_of, lifetime, ident, SimTime::ZERO));
    });
    p.time("core.binding.get_ns", || {
        k = (k + 1) % order.len();
        black_box(table.get(home(order[k]), SimTime::ZERO));
    });

    let directory = ShardDirectory::new(
        1,
        (0..16u16).map(|s| DirectoryEntry {
            shard: s,
            active: Ipv4Addr::new(10, s as u8, 0, 1),
            standby: Ipv4Addr::new(10, s as u8, 0, 2),
        }),
    );
    p.time("core.fleet.resolve_ns", || {
        k = (k + 1) % order.len();
        black_box(directory.resolve(home(order[k])));
    });

    let mut policy = MobilePolicyTable::new(SendMode::ReverseTunnel);
    for i in 0..CORRESPONDENTS {
        policy.learn(Ipv4Addr::new(36, 200, 0, i as u8), MODES[i as usize % 4]);
    }
    p.time("core.policy.lookup_ns", || {
        k = (k + 1) % order.len();
        black_box(policy.lookup(Ipv4Addr::new(36, 200, 0, (order[k] % CORRESPONDENTS) as u8)));
    });

    let mut backoff = RetryBackoff::new(
        REGISTRATION_RETRY,
        REGISTRATION_RETRY_MAX,
        REGISTRATION_RETRY_BUDGET,
        inputs.next(),
    );
    p.time("core.backoff.next_delay_ns", || {
        if backoff.budget_left() == 0 {
            backoff.reset();
        }
        black_box(backoff.next_delay());
    });
}

fn probe_dhcp(p: &mut Probes<'_>, inputs: &mut Inputs) {
    let mac = MacAddr::from_index(20);
    let mut offer = DhcpMessage::discover(inputs.next() as u32, mac);
    offer.yiaddr = COA_DEPT;
    offer.server = topology::DHCP_DEPT;
    offer.prefix_len = 16;
    offer.router = ROUTER_DEPT;
    offer.lease_secs = 600;
    let request = DhcpMessage::request(offer.xid, mac, &offer);
    let bytes = request.to_bytes();
    p.time("dhcp.messages.parse_ns", || {
        black_box(DhcpMessage::parse(black_box(&bytes)).expect("valid message"));
    });
    p.time("dhcp.messages.encode_ns", || {
        black_box(black_box(&request).to_bytes());
    });
}
