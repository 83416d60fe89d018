//! Experiment runners: one function per paper table/figure/claim, and
//! the registry that lists them.
//!
//! Each runner builds a fresh test-bed, drives the scenario, and returns a
//! serializable result the report module renders in the paper's own
//! format. [`REGISTRY`] is the one roster of runs — name, checked integer
//! parameters, the files written — that the `experiment` binary, the
//! docs-sync test and the golden table all work from. The experiment
//! index lives in `DESIGN.md`; paper-vs-measured numbers are recorded in
//! `EXPERIMENTS.md`.

use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use mosquitonet_core::{
    AddressPlan, DirectoryEntry, HomeAgent, HomeAgentConfig, RegistrationRequest, SendMode,
    ShardDirectory, SwitchPlan, SwitchStyle, REPLICA_LEN, REPLY_LEN, REQUEST_LEN,
};
use mosquitonet_dhcp::{DhcpClientModule, ReusePolicy};
use mosquitonet_link::{presets, FaultKind, FaultPlan, HostFaultEvent, HostFaultPlan};
use mosquitonet_sim::{
    run_sharded, shard_seed, CapturedFrame, FlightDump, FlightRecorder, Histogram, Json,
    MetricsRegistry, MetricsScope, Sim, SimDuration, SimTime, Snapshot, Summary,
};
use mosquitonet_stack::{self as stack, ModuleId, Network, SendOptions};
use mosquitonet_wire::{Cidr, IpProto, Ipv4Header, Ipv4Packet, MacAddr};

use crate::report::{self, SidecarKind};
use crate::topology::{
    self, build, MhMode, ShardedCampus, Testbed, TestbedConfig, ATTACKER_DEPT, CH_DEPT, CH_FAR,
    COA_DEPT, COA_DEPT_ALT, COA_FOREIGN, COA_FOREIGN2, COA_RADIO, FOREIGN_ROUTER, HA_SEPARATE,
    MH_HOME, ROUTER_DEPT, ROUTER_RADIO, STANDBY_HA,
};
use crate::workload::{
    BulkSender, FleetChurn, RegistrationAttacker, RegistrationStorm, SaturationSender,
    SaturationSink, UdpEchoResponder, UdpEchoSender,
};

/// Echo port used by all loss experiments.
pub const ECHO_PORT: u16 = 7;

/// The plain Figure-5 test-bed under `seed`.
fn default_testbed(seed: u64) -> Testbed {
    build(TestbedConfig {
        seed,
        ..TestbedConfig::default()
    })
}

/// Starts the standard loss probe: an echo responder on the MH and, on
/// correspondent `ch`, a sender toward the MH's home address.
fn install_echo_from(tb: &mut Testbed, ch: stack::HostId, interval: SimDuration) -> ModuleId {
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new((MH_HOME, ECHO_PORT), interval)),
    )
}

fn install_echo(tb: &mut Testbed, interval: SimDuration) -> ModuleId {
    install_echo_from(tb, tb.ch_dept, interval)
}

fn sender_mut(tb: &mut Testbed, mid: ModuleId) -> &mut UdpEchoSender {
    tb.module(tb.ch_dept, mid)
}

/// Host index → display-name table for the journey export.
fn host_names(net: &Network) -> Vec<String> {
    net.hosts.iter().map(|h| h.core.name.clone()).collect()
}

/// Exports the run's flight-recorder document, naming hosts and (when
/// `origin` is set) deriving the blackout window for flights born there.
fn journeys_json(tb: &Testbed, origin: Option<&str>) -> Json {
    tb.sim.flights().export(&host_names(tb.sim.world()), origin)
}

/// Appends the engine profile to a metrics document when profiling was
/// enabled for the run (`MOSQUITONET_PROFILE`); a no-op otherwise so the
/// golden sidecars stay byte-identical.
fn append_profile(tb: &Testbed, metrics: &mut Json) {
    if tb.sim.profiler().is_enabled() {
        if let Json::Obj(members) = metrics {
            members.push(("profile".to_string(), tb.sim.profiler().to_json()));
        }
    }
}

/// The static plan for care-of address `addr` on the department net.
fn dept_address(addr: Ipv4Addr) -> AddressPlan {
    AddressPlan::Static {
        addr,
        subnet: topology::dept_subnet(),
        router: ROUTER_DEPT,
    }
}

/// Commands a same-subnet switch to `addr` on the department net.
fn switch_dept_address(tb: &mut Testbed, addr: Ipv4Addr) {
    tb.with_mh(|mh, ctx| mh.switch_address(ctx, dept_address(addr)));
}

fn radio_plan(iface: stack::IfaceId, style: SwitchStyle) -> SwitchPlan {
    SwitchPlan {
        iface,
        address: AddressPlan::Static {
            addr: COA_RADIO,
            subnet: topology::radio_subnet(),
            router: ROUTER_RADIO,
        },
        style,
    }
}

fn eth_plan(iface: stack::IfaceId, style: SwitchStyle) -> SwitchPlan {
    SwitchPlan {
        iface,
        address: dept_address(COA_DEPT),
        style,
    }
}

fn settle_on_dept(tb: &mut Testbed) {
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = eth_plan(tb.mh_eth, SwitchStyle::Cold);
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(
        tb.mh_module().away_status().map(|s| s.2).unwrap_or(false),
        "failed to settle on the department net"
    );
}

/// The static plan for `COA_FOREIGN` in the foreign site's first cell.
fn foreign_address() -> AddressPlan {
    AddressPlan::Static {
        addr: COA_FOREIGN,
        subnet: topology::foreign_subnet(),
        router: FOREIGN_ROUTER,
    }
}

/// Moves the MH to the foreign site and registers `COA_FOREIGN` (cold).
fn settle_on_foreign(tb: &mut Testbed) {
    tb.move_mh_eth(tb.lan_foreign);
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: foreign_address(),
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
}

/// Moves the FA-mode MH to the foreign site's first cell and registers
/// through that cell's foreign agent.
fn settle_fa_mh_on_foreign(tb: &mut Testbed) {
    tb.move_mh_eth(tb.lan_foreign);
    let (mh, eth) = (tb.mh, tb.mh_eth);
    stack::bring_iface_up(&mut tb.sim, mh, eth);
    tb.run_for(SimDuration::from_secs(1));
    tb.with_fa_mh(|m, ctx| m.moved(ctx));
    tb.run_for(SimDuration::from_secs(3));
    assert!(
        tb.fa_mh_module().current_fa().is_some(),
        "FA-mode MH failed to register"
    );
}

/// Steps the test-bed in 100 ms slices until `done` holds. Returns false
/// when `cap` of virtual time went by first.
fn poll_until(
    tb: &mut Testbed,
    cap: SimDuration,
    mut done: impl FnMut(&mut Testbed) -> bool,
) -> bool {
    let slice = SimDuration::from_millis(100);
    let mut waited = SimDuration::ZERO;
    while !done(tb) {
        if waited >= cap {
            return false;
        }
        tb.run_for(slice);
        waited += slice;
    }
    true
}

/// The chaos experiments' reconvergence predicate: the MH has seen the
/// restarted agent's new boot epoch and holds an accepted registration.
fn reconverged_after_restart(tb: &mut Testbed) -> bool {
    let m = tb.mh_module();
    m.reg.stats.epoch_changes.get() >= 1 && m.away_status().map(|s| s.2).unwrap_or(false)
}

/// Scripts one crash of the home-agent host at `at` (journal intact,
/// back after `restart_after`), with the plan's counters registered under
/// `scope` of the experiment's own registry.
fn script_ha_crash(
    tb: &mut Testbed,
    scope: &MetricsScope,
    at: SimTime,
    restart_after: SimDuration,
) {
    let plan = HostFaultPlan::scripted(vec![HostFaultEvent {
        at,
        restart_after,
        lose_journal: false,
    }]);
    plan.register_metrics(scope);
    let ha_host = tb.ha_host;
    tb.sim.world_mut().host_mut(ha_host).fault = Some(plan);
    stack::install_host_faults(&mut tb.sim, ha_host);
    // Rebind host metrics so the plan's counters also appear in the run
    // registry under `{host}/fault.*`.
    stack::register_metrics(&mut tb.sim);
}

/// The `p`-th percentile of an ascending slice by the nearest-rank rule
/// every table here uses (the type's zero for an empty slice).
fn percentile<T: Copy + Default>(sorted: &[T], p: usize) -> T {
    match sorted.len() {
        0 => T::default(),
        n => sorted[(n - 1) * p / 100],
    }
}

/// Summary statistics of a set of durations, in milliseconds.
fn summary_ms(samples: &[SimDuration]) -> Summary {
    let mut summary = Summary::new();
    for d in samples {
        summary.add(d.as_millis_f64());
    }
    summary
}

/// First-to-last arrival window of a measured stream.
#[derive(Clone, Copy, Default, Debug)]
struct Span {
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl Span {
    /// Widens the window to cover another observer's first/last instants.
    fn widen(&mut self, first: Option<SimTime>, last: Option<SimTime>) {
        self.first = [self.first, first].into_iter().flatten().min();
        self.last = [self.last, last].into_iter().flatten().max();
    }

    /// The window's length in virtual nanoseconds (0 when empty).
    fn ns(&self) -> u64 {
        match (self.first, self.last) {
            (Some(f), Some(l)) if l > f => (l - f).as_nanos(),
            _ => 0,
        }
    }
}

/// `count` per second over a window of `ns` nanoseconds, in integer math
/// (0 for an empty window).
fn rate_per_sec(count: u64, ns: u64) -> u64 {
    (count as u128 * 1_000_000_000)
        .checked_div(ns as u128)
        .unwrap_or(0) as u64
}

// ---------------------------------------------------------------- Table 1

/// Result of the same-subnet address-switch experiment (§4, reported here
/// as Table 1): the paper saw, in 20 iterations at 10 ms spacing, sixteen
/// runs with no loss and four runs losing one packet.
#[derive(Debug)]
pub struct Tab1Result {
    /// Iterations run.
    pub iterations: u32,
    /// Echo spacing in milliseconds.
    pub interval_ms: u64,
    /// Iterations vs. packets lost.
    pub histogram: Histogram,
    /// Largest per-iteration loss.
    pub max_loss: usize,
    /// End-of-run dump of every host's metric registry (the sidecar body).
    pub metrics: Json,
}

/// Runs the Table 1 experiment with the correspondent on the department
/// net (the paper's primary configuration).
pub fn run_tab1(iterations: u32, seed: u64) -> Tab1Result {
    run_tab1_inner(iterations, seed, false)
}

/// Runs the Table 1 experiment with the correspondent on a campus network
/// beyond the Internet cloud — the paper: "we received similar results
/// for a correspondent host located on a campus network outside the
/// department" (§4).
pub fn run_tab1_far(iterations: u32, seed: u64) -> Tab1Result {
    run_tab1_inner(iterations, seed, true)
}

fn run_tab1_inner(iterations: u32, seed: u64, far: bool) -> Tab1Result {
    let interval = SimDuration::from_millis(10);
    let mut tb = build(TestbedConfig {
        seed,
        with_far_ch: far,
        ..TestbedConfig::default()
    });
    let ch = if far {
        tb.ch_far.expect("far CH built")
    } else {
        tb.ch_dept
    };
    let sender_mid = install_echo_from(&mut tb, ch, interval);
    settle_on_dept(&mut tb);

    let mut windows = Vec::new();
    for i in 0..iterations {
        let target = if i % 2 == 0 { COA_DEPT_ALT } else { COA_DEPT };
        // Randomize the switch phase against the 10 ms echo clock, as
        // wall-clock scheduling did for the paper's runs.
        let phase = tb.sim.rng().range_u64(0..interval.as_nanos());
        tb.run_for(SimDuration::from_nanos(phase));
        let t0 = tb.sim.now();
        switch_dept_address(&mut tb, target);
        // The switch completes in ~7 ms; a 100 ms window comfortably
        // bounds the loss region, then settle before the next iteration.
        tb.run_for(SimDuration::from_millis(100));
        windows.push((t0, tb.sim.now()));
        tb.run_for(SimDuration::from_millis(400));
    }
    // Drain stragglers before counting.
    tb.run_for(SimDuration::from_secs(2));

    let mut histogram = Histogram::new(10);
    let mut max_loss = 0;
    let s: &mut UdpEchoSender = tb.module(ch, sender_mid);
    for (t0, t1) in windows {
        let lost = s.lost_in_window(t0, t1) as usize;
        histogram.record(lost);
        max_loss = max_loss.max(lost);
    }
    let metrics = tb.sim.metrics().to_json();
    Tab1Result {
        iterations,
        interval_ms: interval.as_millis(),
        histogram,
        max_loss,
        metrics,
    }
}

// ---------------------------------------------------------------- Figure 6

/// The four device-switch scenarios of Figure 6.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fig6Scenario {
    /// Cold switch, Ethernet → radio.
    ColdWiredToWireless,
    /// Cold switch, radio → Ethernet.
    ColdWirelessToWired,
    /// Hot switch, Ethernet → radio.
    HotWiredToWireless,
    /// Hot switch, radio → Ethernet.
    HotWirelessToWired,
}

impl Fig6Scenario {
    /// All four, in the paper's order.
    pub fn all() -> [Fig6Scenario; 4] {
        [
            Fig6Scenario::ColdWiredToWireless,
            Fig6Scenario::ColdWirelessToWired,
            Fig6Scenario::HotWiredToWireless,
            Fig6Scenario::HotWirelessToWired,
        ]
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Scenario::ColdWiredToWireless => "cold  wired->wireless",
            Fig6Scenario::ColdWirelessToWired => "cold  wireless->wired",
            Fig6Scenario::HotWiredToWireless => "hot   wired->wireless",
            Fig6Scenario::HotWirelessToWired => "hot   wireless->wired",
        }
    }

    fn is_hot(self) -> bool {
        matches!(
            self,
            Fig6Scenario::HotWiredToWireless | Fig6Scenario::HotWirelessToWired
        )
    }

    fn to_radio(self) -> bool {
        matches!(
            self,
            Fig6Scenario::ColdWiredToWireless | Fig6Scenario::HotWiredToWireless
        )
    }
}

/// Result of the Figure 6 device-switch experiment.
#[derive(Debug)]
pub struct Fig6Result {
    /// Iterations per scenario.
    pub iterations: u32,
    /// Echo spacing in milliseconds (the paper's 250 ms).
    pub interval_ms: u64,
    /// Per-scenario loss histograms.
    pub scenarios: Vec<(Fig6Scenario, Histogram)>,
    /// Per-scenario metric registries, keyed by [`Fig6Scenario::key`]
    /// (each scenario runs its own test-bed).
    pub metrics: Json,
}

/// Runs one Figure 6 scenario for `iterations` measured switches.
///
/// Returns the loss histogram plus the end-of-run dump of the test-bed's
/// metric registry (every host, every counter).
pub fn run_fig6_scenario(scenario: Fig6Scenario, iterations: u32, seed: u64) -> (Histogram, Json) {
    let interval = SimDuration::from_millis(250);
    let mut tb = default_testbed(seed);
    let sender_mid = install_echo(&mut tb, interval);
    settle_on_dept(&mut tb);

    let style = if scenario.is_hot() {
        SwitchStyle::Hot
    } else {
        SwitchStyle::Cold
    };
    let plan_fwd = radio_plan(tb.mh_radio, style);
    let plan_back = eth_plan(tb.mh_eth, style);
    // For the wireless->wired scenarios the measured direction is the
    // reverse one.
    let (measured, unmeasured) = if scenario.to_radio() {
        (plan_fwd, plan_back)
    } else {
        (plan_back, plan_fwd)
    };

    if scenario.is_hot() {
        // Both devices stay powered: "both of the interfaces are
        // available and we just switch" (§4).
        let radio = tb.mh_radio;
        tb.power_up_mh_iface(radio);
        tb.run_for(SimDuration::from_secs(2));
    }
    if !scenario.to_radio() {
        // Start each iteration from the radio side.
        tb.with_mh(|mh, ctx| mh.start_switch(ctx, unmeasured));
        tb.run_for(SimDuration::from_secs(4));
    }

    let mut windows = Vec::new();
    for _ in 0..iterations {
        // Randomize the switch phase against the echo clock.
        let phase = tb.sim.rng().range_u64(0..interval.as_nanos());
        tb.run_for(SimDuration::from_nanos(phase));
        let t0 = tb.sim.now();
        tb.with_mh(|mh, ctx| mh.start_switch(ctx, measured));
        // Cold switches over the radio need bring-up (0.75 s) plus a
        // radio-RTT registration; 2.5 s bounds the loss window.
        tb.run_for(SimDuration::from_millis(2_500));
        windows.push((t0, tb.sim.now()));
        // Switch back (unmeasured) and settle.
        tb.with_mh(|mh, ctx| mh.start_switch(ctx, unmeasured));
        tb.run_for(SimDuration::from_secs(4));
    }
    tb.run_for(SimDuration::from_secs(2));

    let mut histogram = Histogram::new(12);
    let s = sender_mut(&mut tb, sender_mid);
    for (t0, t1) in windows {
        histogram.record(s.lost_in_window(t0, t1) as usize);
    }
    (histogram, tb.sim.metrics().to_json())
}

/// Runs all four Figure 6 scenarios.
pub fn run_fig6(iterations: u32, seed: u64) -> Fig6Result {
    let mut scenarios = Vec::new();
    let mut metrics = Vec::new();
    for (i, sc) in Fig6Scenario::all().into_iter().enumerate() {
        let (histogram, m) = run_fig6_scenario(sc, iterations, seed + i as u64);
        scenarios.push((sc, histogram));
        metrics.push((sc.key(), m));
    }
    Fig6Result {
        iterations,
        interval_ms: 250,
        scenarios,
        metrics: Json::obj(metrics),
    }
}

// ---------------------------------------------------------------- Figure 7

/// Result of the Figure 7 registration time-line experiment. All values
/// in microseconds.
#[derive(Debug)]
pub struct Fig7Result {
    /// Runs measured.
    pub runs: u32,
    /// Configure-interface step.
    pub configure_us: Summary,
    /// Route-table change step.
    pub route_us: Summary,
    /// Registration request sent → reply received.
    pub request_reply_us: Summary,
    /// Home-agent service time (configured constant).
    pub ha_processing_us: f64,
    /// Post-registration processing.
    pub post_us: Summary,
    /// Total address-switch time.
    pub total_us: Summary,
    /// `{"phases": ..., "hosts": ...}` — a dedicated registry of
    /// per-phase latency histograms (one sample per measured run, fixed
    /// bucket bounds, so the export is golden-file stable) plus the
    /// end-of-run host registry dump.
    pub metrics: Json,
}

/// Bucket bounds (µs) for the Figure 7 phase histograms. Chosen around
/// the paper's own numbers (total switch 7.39 ms) so each phase lands in
/// an interior bucket and the export stays meaningful if timing drifts.
pub const FIG7_PHASE_BOUNDS_US: &[u64] = &[
    250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000,
];

/// Runs the Figure 7 experiment: `runs` same-subnet re-registrations.
pub fn run_fig7(runs: u32, seed: u64) -> Fig7Result {
    let mut tb = default_testbed(seed);
    settle_on_dept(&mut tb);

    // One extra unmeasured switch warms the router's ARP cache for the
    // alternate address (the paper's repeated runs have warm caches).
    for i in 0..=runs {
        let target = if i % 2 == 0 { COA_DEPT_ALT } else { COA_DEPT };
        switch_dept_address(&mut tb, target);
        tb.run_for(SimDuration::from_millis(500));
    }

    // The five phases, in this order everywhere below.
    const PHASES: [&str; 5] = ["configure", "route", "request_reply", "post", "total"];
    let mut summaries = PHASES.map(|_| Summary::new());
    // The registration-phase registry: one fixed-bucket latency histogram
    // per Figure 7 phase, one sample per measured run. This is what the
    // golden-file test pins down.
    let phases = MetricsRegistry::new();
    let histograms = PHASES.map(|name| {
        let h = mosquitonet_sim::LatencyHistogram::with_bounds(FIG7_PHASE_BOUNDS_US);
        phases.register_histogram(format!("mh/reg_phase/{name}"), &h);
        h
    });
    let timelines = tb.mh_module().timelines.clone();
    // Skip the settle switch (bring-up included) and the ARP warm-up run.
    for tl in timelines.iter().skip(2) {
        let start = tl.start.expect("start");
        let iface_configured = tl.iface_configured.expect("complete timeline");
        let durations = [
            iface_configured - start,
            tl.route_changed.expect("complete timeline") - iface_configured,
            tl.request_to_reply().expect("complete timeline"),
            tl.done.expect("complete timeline") - tl.reply_received.expect("reply"),
            tl.total().expect("complete timeline"),
        ];
        for ((summary, histogram), d) in summaries.iter_mut().zip(&histograms).zip(durations) {
            summary.add(d.as_nanos() as f64 / 1_000.0);
            histogram.record(d);
        }
    }
    let [configure_us, route_us, request_reply_us, post_us, total_us] = summaries;
    Fig7Result {
        runs,
        configure_us,
        route_us,
        request_reply_us,
        ha_processing_us: mosquitonet_core::timing::HA_PROCESSING.as_nanos() as f64 / 1_000.0,
        post_us,
        total_us,
        metrics: Json::obj([
            ("phases", phases.to_json()),
            ("hosts", tb.sim.metrics().to_json()),
        ]),
    }
}

// ---------------------------------------------------------------- C4

/// One sweep point of the lossy-registration chaos experiment.
#[derive(Debug)]
pub struct C4Row {
    /// Uniform frame-loss probability injected on the department LAN, %.
    pub loss_pct: u32,
    /// Address switches commanded at this loss rate.
    pub switches: u32,
    /// Switches whose registration completed within the per-switch cap.
    pub completed: u32,
    /// Registration requests transmitted during the sweep (first sends
    /// and retransmissions).
    pub requests_sent: u64,
    /// Retransmissions among those.
    pub retries: u64,
    /// Frames the fault plan deleted on the department LAN.
    pub drops_injected: u64,
    /// Median completion latency over the completed switches, µs.
    pub p50_us: u64,
    /// 90th-percentile completion latency, µs.
    pub p90_us: u64,
    /// Worst completion latency, µs.
    pub max_us: u64,
}

impl C4Row {
    /// Renders the row. Every field is an integer, so the export is
    /// byte-stable across same-seed runs.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("loss_pct", Json::UInt(u64::from(self.loss_pct))),
            ("switches", Json::UInt(u64::from(self.switches))),
            ("completed", Json::UInt(u64::from(self.completed))),
            ("requests_sent", Json::UInt(self.requests_sent)),
            ("retries", Json::UInt(self.retries)),
            ("drops_injected", Json::UInt(self.drops_injected)),
            ("p50_us", Json::UInt(self.p50_us)),
            ("p90_us", Json::UInt(self.p90_us)),
            ("max_us", Json::UInt(self.max_us)),
        ])
    }
}

/// The C4 result: one row per loss rate plus the sidecar metrics.
pub struct C4Result {
    /// One row per sweep point.
    pub rows: Vec<C4Row>,
    /// `{"sweep": ..., "rows": ...}` — per-loss completion histograms and
    /// each fault plan's own `fault.{kind}` counters under `c4/loss_XX/`,
    /// plus the row table.
    pub metrics: Json,
}

impl C4Result {
    /// Renders the row table for the combined-results JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([("rows", Json::arr(self.rows.iter().map(C4Row::to_json)))])
    }
}

/// The loss sweep: uniform frame loss from 0 to 50 %.
pub const C4_LOSS_PCTS: &[u32] = &[0, 10, 20, 30, 40, 50];

/// Bucket bounds (µs) for the completion-latency histograms. A lossless
/// same-subnet switch takes ~7.4 ms; every lost request or reply adds a
/// backoff interval (1 s doubling to 8 s), so completions spread over
/// decades.
pub const C4_COMPLETION_BOUNDS_US: &[u64] = &[
    8_000,
    16_000,
    32_000,
    64_000,
    128_000,
    500_000,
    1_000_000,
    2_000_000,
    4_000_000,
    8_000_000,
    16_000_000,
    32_000_000,
    64_000_000,
    128_000_000,
];

/// How long one switch may run before the sweep stops waiting for it.
/// Registration itself never gives up (an exhausted retry budget degrades
/// to a fresh attempt sequence), so this is a reporting bound, not a
/// protocol one.
const C4_SWITCH_CAP: SimDuration = SimDuration::from_secs(240);

/// Runs the chaos experiment: `switches` same-subnet address switches per
/// loss rate of [`C4_LOSS_PCTS`], with uniform frame loss injected on the
/// department LAN by a seeded [`FaultPlan`]. Everything — including every
/// injected fault — derives from `seed`, so a rerun reproduces the result
/// byte for byte.
pub fn run_c4(switches: u32, seed: u64) -> C4Result {
    let sweep = MetricsRegistry::new();
    let mut rows = Vec::new();
    for &pct in C4_LOSS_PCTS {
        let scope_name = format!("c4/loss_{pct:02}");
        let h_completion = mosquitonet_sim::LatencyHistogram::with_bounds(C4_COMPLETION_BOUNDS_US);
        sweep.register_histogram(format!("{scope_name}/completion"), &h_completion);

        let mut tb = default_testbed(seed);
        settle_on_dept(&mut tb);

        // Install the plan only after the clean settle: the sweep measures
        // re-registration under loss, not bring-up under loss.
        let plan =
            FaultPlan::uniform_loss(f64::from(pct) / 100.0, seed ^ (0xC4_00 + u64::from(pct)));
        plan.register_metrics(&sweep.scope(&scope_name));
        tb.sim.world_mut().lans[tb.lan_dept.0].set_fault_plan(Some(plan));
        // Rebind host metrics so the plan's counters also appear in the
        // run registry under `lan.net-36-8/fault.*`.
        stack::register_metrics(&mut tb.sim);

        let (req0, ret0) = {
            let m = tb.mh_module();
            (m.reg.stats.requests_sent.get(), m.reg.stats.retries.get())
        };
        let mut totals_ns: Vec<u64> = Vec::new();
        for i in 0..switches {
            let target = if i % 2 == 0 { COA_DEPT_ALT } else { COA_DEPT };
            let idx = tb.mh_module().timelines.len();
            switch_dept_address(&mut tb, target);
            // A timeline is recorded only when the switch completes.
            if !poll_until(&mut tb, C4_SWITCH_CAP, |tb| {
                tb.mh_module().timelines.len() > idx
            }) {
                // Still mid-switch; `switch_address` refuses to preempt,
                // so stop sweeping this loss point.
                break;
            }
            let total = tb.mh_module().timelines[idx].total().expect("completed");
            totals_ns.push(total.as_nanos());
            h_completion.record(total);
        }
        let (req1, ret1) = {
            let m = tb.mh_module();
            (m.reg.stats.requests_sent.get(), m.reg.stats.retries.get())
        };
        let drops = tb.sim.world().lans[tb.lan_dept.0]
            .fault
            .as_ref()
            .map(|p| p.injected(FaultKind::Drop))
            .unwrap_or(0);
        totals_ns.sort_unstable();
        rows.push(C4Row {
            loss_pct: pct,
            switches,
            completed: totals_ns.len() as u32,
            requests_sent: req1 - req0,
            retries: ret1 - ret0,
            drops_injected: drops,
            p50_us: percentile(&totals_ns, 50) / 1_000,
            p90_us: percentile(&totals_ns, 90) / 1_000,
            max_us: percentile(&totals_ns, 100) / 1_000,
        });
    }
    let metrics = Json::obj([
        ("sweep", sweep.to_json()),
        ("rows", Json::arr(rows.iter().map(C4Row::to_json))),
    ]);
    C4Result { rows, metrics }
}

// ---------------------------------------------------------------- C1

/// One row of the encapsulation-overhead table (claim C1, §3.2).
#[derive(Debug)]
pub struct C1Row {
    /// Inner payload bytes.
    pub payload: usize,
    /// Plain packet length.
    pub plain: usize,
    /// Encapsulated length.
    pub encapsulated: usize,
    /// Added bytes.
    pub overhead: usize,
    /// Overhead as a percentage of the plain length.
    pub overhead_pct: f64,
}

/// Measures the byte overhead of IP-in-IP encapsulation across sizes.
pub fn run_c1() -> Vec<C1Row> {
    use mosquitonet_wire::{ipip, IpProto, Ipv4Header, Ipv4Packet};
    [0usize, 64, 256, 512, 1024, 1452]
        .into_iter()
        .map(|payload| {
            let inner = Ipv4Packet::new(
                Ipv4Header::new(CH_DEPT, MH_HOME, IpProto::Udp),
                vec![0u8; payload].into(),
            );
            let outer = ipip::encapsulate(&inner, topology::ROUTER_HOME, COA_DEPT);
            let plain = inner.total_len();
            let encapsulated = outer.total_len();
            C1Row {
                payload,
                plain,
                encapsulated,
                overhead: encapsulated - plain,
                overhead_pct: (encapsulated - plain) as f64 * 100.0 / plain as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- C2

/// Result of the radio characterization (claim C2, §4).
#[derive(Debug)]
pub struct C2Result {
    /// Echo RTT over the radio, milliseconds.
    pub rtt_ms: Summary,
    /// Measured bulk goodput, kb/s.
    pub goodput_kbps: f64,
    /// The radios' theoretical rate, kb/s.
    pub theoretical_kbps: f64,
    /// End-of-run dump of every host's metric registry.
    pub metrics: Json,
}

/// Runs the C2 radio characterization.
pub fn run_c2(pings: u32, seed: u64) -> C2Result {
    let mut tb = default_testbed(seed);
    // Move onto the radio (cold switch from home).
    let plan = radio_plan(tb.mh_radio, SwitchStyle::Cold);
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(6));
    assert!(tb.mh_module().away_status().map(|s| s.2).unwrap_or(false));

    // RTT: the router (home agent's machine) pings the care-of address
    // directly over the radio — the paper's "round-trip time between the
    // home agent and the mobile host through the radio interface". The
    // replies go out in the MH's local role (no encapsulation).
    tb.with_mh(|m, _| {
        m.policy
            .set(Cidr::host(ROUTER_RADIO), SendMode::DirectLocal)
    });
    let responder_port = 9;
    let mh = tb.mh;
    stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(UdpEchoResponder::new(responder_port)),
    );
    let router = tb.router;
    let mut rtt_sender =
        UdpEchoSender::new((COA_RADIO, responder_port), SimDuration::from_millis(400));
    rtt_sender.padding = 0; // a minimal ping, as the paper's RTT figure implies
    let rtt_mid = stack::add_module(&mut tb.sim, router, Box::new(rtt_sender));
    tb.run_for(SimDuration::from_millis(400) * u64::from(pings) + SimDuration::from_secs(2));
    let rtt_ms = {
        let s: &mut UdpEchoSender = tb.module(router, rtt_mid);
        s.stop();
        summary_ms(&s.rtts())
    };

    // Throughput: bulk UDP from the MH to the department CH in the
    // mobile host's local role (no encapsulation, pure radio path).
    tb.with_mh(|mh, _| mh.policy.set(Cidr::host(CH_DEPT), SendMode::DirectLocal));
    let ch = tb.ch_dept;
    let sink_mid = stack::add_module(&mut tb.sim, ch, Box::new(SaturationSink::new(5001)));
    let mh = tb.mh;
    let mut bulk = BulkSender::new((CH_DEPT, 5001), 500, 60);
    bulk.gap = SimDuration::ZERO;
    stack::add_module(&mut tb.sim, mh, Box::new(bulk));
    tb.run_for(SimDuration::from_secs(90));
    let sink: &mut SaturationSink = tb.module(ch, sink_mid);
    let goodput_kbps = sink.goodput_kbps().expect("transfer completed");
    let metrics = tb.sim.metrics().to_json();
    C2Result {
        rtt_ms,
        goodput_kbps,
        theoretical_kbps: 100.0,
        metrics,
    }
}

// ---------------------------------------------------------------- C3

/// Result of the triangle-route comparison (claim C3, §3.2).
#[derive(Debug)]
pub struct C3Result {
    /// Echo RTT through the reverse tunnel, ms.
    pub tunnel_rtt_ms: Summary,
    /// Echo RTT with the triangle route, ms.
    pub triangle_rtt_ms: Summary,
    /// With a filtering foreign router: did the probe fall back?
    pub fallback_triggered: bool,
    /// After fallback, do echoes still flow (via the tunnel)?
    pub post_fallback_delivery: bool,
    /// Metric registries for both phases (the RTT comparison and the
    /// transit-filter fallback run their own test-beds).
    pub metrics: Json,
}

/// One C3 phase's test-bed: a separate (off-router) home agent so the
/// tunnel detour is visible, an echo responder on the distant CH, and the
/// MH settled on the foreign site — which forbids transit traffic when
/// `foreign_transit_filter` is set.
fn c3_testbed(seed: u64, foreign_transit_filter: bool) -> Testbed {
    let mut tb = build(TestbedConfig {
        seed,
        ha_on_router: false,
        with_far_ch: true,
        with_foreign_site: true,
        foreign_transit_filter,
        ..TestbedConfig::default()
    });
    let ch_far_host = tb.ch_far.expect("far CH");
    stack::add_module(
        &mut tb.sim,
        ch_far_host,
        Box::new(UdpEchoResponder::new(ECHO_PORT)),
    );
    settle_on_foreign(&mut tb);
    tb
}

/// Starts the MH pinging the distant CH every 200 ms.
fn ping_far_ch(tb: &mut Testbed) -> ModuleId {
    let mh = tb.mh;
    stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(UdpEchoSender::new(
            (CH_FAR, ECHO_PORT),
            SimDuration::from_millis(200),
        )),
    )
}

/// Runs the C3 triangle-route experiment.
pub fn run_c3(seed: u64) -> C3Result {
    // Phase 1: RTT comparison from the foreign site to the distant CH.
    let mut tb = c3_testbed(seed, false);
    assert!(tb.mh_module().away_status().map(|s| s.2).unwrap_or(false));

    // The MH pings the far CH: first tunneled, then triangled.
    let mh = tb.mh;
    let probe_mid = ping_far_ch(&mut tb);
    tb.run_for(SimDuration::from_secs(4));
    let tunnel_rtts: Vec<SimDuration> = tb.module::<UdpEchoSender>(mh, probe_mid).rtts();
    tb.with_mh(|m, _| m.policy.set(Cidr::host(CH_FAR), SendMode::Triangle));
    tb.run_for(SimDuration::from_secs(4));
    let all_rtts: Vec<SimDuration> = {
        let s: &mut UdpEchoSender = tb.module(mh, probe_mid);
        s.stop();
        s.rtts()
    };
    let tunnel_rtt_ms = summary_ms(&tunnel_rtts);
    let triangle_rtt_ms = summary_ms(&all_rtts[tunnel_rtts.len()..]);

    let phase1_metrics = tb.sim.metrics().to_json();

    // Phase 2: same topology but the foreign site forbids transit
    // traffic. The probe must fail and fall back to the tunnel.
    let mut tb = c3_testbed(seed ^ 0x5a5a, true);
    // Probe the triangle route; it should time out and revert.
    tb.with_mh(|mh, ctx| mh.probe_triangle(ctx, CH_FAR));
    tb.run_for(SimDuration::from_secs(5));
    let fallback_triggered = tb.mh_module().policy.lookup(CH_FAR) == SendMode::ReverseTunnel;
    // Echoes flow after the fallback.
    let echo_mid = ping_far_ch(&mut tb);
    tb.run_for(SimDuration::from_secs(4));
    let post_fallback_delivery = {
        let s: &mut UdpEchoSender = tb.module(tb.mh, echo_mid);
        s.received() >= s.sent().saturating_sub(2) && s.received() > 0
    };

    C3Result {
        tunnel_rtt_ms,
        triangle_rtt_ms,
        fallback_triggered,
        post_fallback_delivery,
        metrics: Json::obj([
            ("rtt_comparison", phase1_metrics),
            ("filter_fallback", tb.sim.metrics().to_json()),
        ]),
    }
}

// ---------------------------------------------------------------- A1

/// Hand-off strategies compared in the A1 ablation (§5.1 "Packet loss").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum A1Mode {
    /// MosquitoNet: no foreign agents anywhere.
    Agentless,
    /// Foreign agents, but the old FA does not forward in-flight packets.
    FaNoForwarding,
    /// Foreign agents with previous-FA forwarding (binding updates).
    FaForwarding,
}

impl A1Mode {
    /// All modes, report order.
    pub fn all() -> [A1Mode; 3] {
        [
            A1Mode::Agentless,
            A1Mode::FaNoForwarding,
            A1Mode::FaForwarding,
        ]
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            A1Mode::Agentless => "MosquitoNet (agentless)",
            A1Mode::FaNoForwarding => "foreign agents, no forwarding",
            A1Mode::FaForwarding => "foreign agents + previous-FA forwarding",
        }
    }
}

/// Result of the A1 foreign-agent ablation.
#[derive(Debug)]
pub struct A1Result {
    /// Measured hand-offs per mode.
    pub iterations: u32,
    /// Echo spacing, ms.
    pub interval_ms: u64,
    /// Loss histograms per mode.
    pub per_mode: Vec<(A1Mode, Histogram)>,
    /// Per-mode metric registries, keyed by [`A1Mode::key`] (each mode
    /// runs its own test-bed).
    pub metrics: Json,
}

fn run_a1_mode(mode: A1Mode, iterations: u32, seed: u64) -> (Histogram, Json) {
    let interval = SimDuration::from_millis(20);
    let fa = mode != A1Mode::Agentless;
    let mut tb = build(TestbedConfig {
        seed,
        with_foreign_site: true,
        with_foreign_agents: fa,
        ha_notify_previous: mode == A1Mode::FaForwarding,
        mh_mode: if fa {
            MhMode::ForeignAgent
        } else {
            MhMode::Mosquito
        },
        ..TestbedConfig::default()
    });
    let sender_mid = install_echo(&mut tb, interval);

    // The A1 scenario is localized roaming far from home: the MH moves
    // between two adjacent cells of one foreign site, while the home
    // agent (and the correspondent) sit across the Internet cloud —
    // exactly where a previous-FA rescue has room to win.
    let lan_f1 = tb.lan_foreign.expect("foreign site");
    let lan_f2 = tb.lan_foreign2.expect("second foreign cell");
    if fa {
        settle_fa_mh_on_foreign(&mut tb);
    } else {
        settle_on_foreign(&mut tb);
        assert!(tb.mh_module().away_status().map(|st| st.2).unwrap_or(false));
    }

    // The MH starts in the first cell, so even hops land in the second.
    let cells = [
        (
            lan_f2,
            AddressPlan::Static {
                addr: COA_FOREIGN2,
                subnet: topology::foreign2_subnet(),
                router: topology::FOREIGN2_ROUTER,
            },
        ),
        (lan_f1, foreign_address()),
    ];
    let mut windows = Vec::new();
    for hop in 0..iterations {
        let (target_lan, address) = cells[hop as usize % 2];
        // Random phase against the echo clock.
        let phase = tb.sim.rng().range_u64(0..interval.as_nanos());
        tb.run_for(SimDuration::from_nanos(phase));
        let t0 = tb.sim.now();
        tb.move_mh_eth(Some(target_lan));
        if fa {
            tb.with_fa_mh(|m, ctx| m.moved(ctx));
        } else {
            tb.with_mh(|m, ctx| m.switch_address(ctx, address));
        }
        tb.run_for(SimDuration::from_millis(1_500));
        windows.push((t0, tb.sim.now()));
        tb.run_for(SimDuration::from_secs(2));
    }
    tb.run_for(SimDuration::from_secs(2));

    let mut histogram = Histogram::new(40);
    let s = sender_mut(&mut tb, sender_mid);
    for (t0, t1) in windows {
        histogram.record(s.lost_in_window(t0, t1) as usize);
    }
    (histogram, tb.sim.metrics().to_json())
}

/// Runs the A1 ablation across all three modes.
pub fn run_a1(iterations: u32, seed: u64) -> A1Result {
    let mut per_mode = Vec::new();
    let mut metrics = Vec::new();
    for m in A1Mode::all() {
        let (histogram, reg) = run_a1_mode(m, iterations, seed);
        per_mode.push((m, histogram));
        metrics.push((m.key(), reg));
    }
    A1Result {
        iterations,
        interval_ms: 20,
        per_mode,
        metrics: Json::obj(metrics),
    }
}

// ---------------------------------------------------------------- A2

/// One row of the home-agent scaling table (A2).
#[derive(Debug)]
pub struct A2Row {
    /// Simultaneously registering mobile hosts.
    pub mobile_hosts: u32,
    /// Completed registrations.
    pub completed: u32,
    /// Mean reply latency, ms.
    pub mean_reply_ms: f64,
    /// 95th-percentile reply latency, ms.
    pub p95_reply_ms: f64,
    /// Worst reply latency, ms.
    pub max_reply_ms: f64,
    /// Time from first request sent to last reply received, ms.
    pub span_ms: f64,
}

/// Runs the A2 scaling experiment for each burst size.
///
/// Returns the per-size rows plus the per-burst metric registries keyed
/// `burst_{n}` (each burst size runs a fresh two-net world).
pub fn run_a2(sizes: &[u32], seed: u64) -> (Vec<A2Row>, Json) {
    let mut metrics = Vec::new();
    let rows = sizes
        .iter()
        .map(|&n| {
            // A minimal two-net topology with a wide home subnet so
            // thousands of logical mobile hosts fit.
            let mut net = Network::new();
            let home: Cidr = "36.135.0.0/16".parse().expect("const");
            let dept = topology::dept_subnet();
            let lan_home = net.add_lan(presets::ethernet_lan("home"));
            let lan_dept = net.add_lan(presets::ethernet_lan("dept"));
            let router = net.add_host("router-ha");
            net.host_mut(router).core.forwarding = true;
            net.host_mut(router).core.ipip_decap = true;
            let r_home = topology::add_numbered_iface(
                &mut net,
                router,
                presets::wired_ethernet("eth0", MacAddr::from_index(1)),
                topology::ROUTER_HOME,
                home,
            );
            let r_dept = topology::add_numbered_iface(
                &mut net,
                router,
                presets::wired_ethernet("eth1", MacAddr::from_index(2)),
                ROUTER_DEPT,
                dept,
            );
            let ha_cfg =
                mosquitonet_core::HomeAgentConfig::new(topology::ROUTER_HOME, r_home, home);
            net.host_mut(router)
                .add_module(Box::new(mosquitonet_core::HomeAgent::new(ha_cfg)));

            net.attach(router, r_home, lan_home);
            net.attach(router, r_dept, lan_dept);

            let (storm_host, s_if) = topology::add_leaf_host(
                &mut net,
                "storm",
                3,
                COA_DEPT,
                dept,
                ROUTER_DEPT,
                lan_dept,
            );
            let storm_mid = net
                .host_mut(storm_host)
                .add_module(Box::new(RegistrationStorm::new(
                    topology::ROUTER_HOME,
                    Ipv4Addr::new(36, 135, 4, 1),
                    n,
                    COA_DEPT,
                )));

            let mut sim = Sim::with_seed(net, seed);
            stack::bring_iface_up(&mut sim, router, r_home);
            stack::bring_iface_up(&mut sim, router, r_dept);
            stack::bring_iface_up(&mut sim, storm_host, s_if);
            sim.run();
            // Warm both ARP caches so the burst measures home-agent
            // service time, not neighbor discovery (the storm does not
            // retransmit, and a cold ARP queue would shed the burst).
            let t = sim.now();
            sim.world_mut().hosts[storm_host.0].core.arp[s_if.0].insert(
                ROUTER_DEPT,
                MacAddr::from_index(2),
                t,
            );
            sim.world_mut().hosts[router.0].core.arp[r_dept.0].insert(
                COA_DEPT,
                MacAddr::from_index(3),
                t,
            );
            stack::start(&mut sim);
            // Generous budget: N × (stagger + processing) + slack.
            sim.run_for(SimDuration::from_millis(u64::from(n) * 2 + 2_000));

            let storm: &mut RegistrationStorm = sim
                .world_mut()
                .host_mut(storm_host)
                .module_mut(storm_mid)
                .expect("storm");
            let latencies = storm.latencies();
            let completed = latencies.len() as u32;
            let mean = summary_ms(&latencies);
            let mut sorted_ms: Vec<f64> = latencies.iter().map(|l| l.as_millis_f64()).collect();
            sorted_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p95 = percentile(&sorted_ms, 95);
            let span_ms = storm
                .completions
                .iter()
                .map(|(_, s, _)| *s)
                .min()
                .zip(storm.completions.iter().map(|(_, _, r)| *r).max())
                .map(|(first, last)| (last - first).as_millis_f64())
                .unwrap_or(0.0);
            metrics.push((format!("burst_{n}"), sim.metrics().to_json()));
            A2Row {
                mobile_hosts: n,
                completed,
                mean_reply_ms: mean.mean(),
                p95_reply_ms: p95,
                max_reply_ms: mean.max().unwrap_or(0.0),
                span_ms,
            }
        })
        .collect();
    (rows, Json::obj(metrics))
}

// ---------------------------------------------------------------- A3

/// Result of the DHCP address-reuse experiment (A3, §5.1 security note).
#[derive(Debug)]
pub struct A3Result {
    /// Tunneled packets mis-delivered to the newcomer under
    /// first-available reuse.
    pub first_available_misdelivered: u64,
    /// Same under least-recently-used reuse.
    pub lru_misdelivered: u64,
    /// Did the LRU server hand the newcomer a different address?
    pub lru_gave_different_address: bool,
    /// Metric registries for both reuse-policy runs.
    pub metrics: Json,
}

fn run_a3_policy(policy: ReusePolicy, seed: u64) -> (u64, bool, Json) {
    let mut tb = build(TestbedConfig {
        seed,
        with_dhcp: true,
        dhcp_policy: policy,
        dhcp_lease: SimDuration::from_secs(20),
        ..TestbedConfig::default()
    });
    // Continuous stream toward the MH's home address.
    install_echo(&mut tb, SimDuration::from_millis(50));
    // MH acquires its care-of via DHCP on the dept net.
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Dhcp,
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(8));
    let (_, mh_coa, registered) = tb.mh_module().away_status().expect("away");
    assert!(registered, "MH must be registered before departing");

    // The MH vanishes without deregistering or releasing its lease
    // (battery died / drove out of coverage). The HA keeps tunneling.
    tb.move_mh_eth(None);
    // Wait out the DHCP lease so the address becomes reassignable.
    tb.run_for(SimDuration::from_secs(30));

    // A newcomer arrives and runs DHCP.
    let (newcomer, newcomer_mid, n_if) = {
        let net = tb.sim.world_mut();
        let h = net.add_host("newcomer");
        let ifc = net
            .host_mut(h)
            .core
            .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(90)));
        let mid = net
            .host_mut(h)
            .add_module(Box::new(DhcpClientModule::new(ifc)));
        net.attach(h, ifc, tb.lan_dept);
        (h, mid, ifc)
    };
    stack::bring_iface_up(&mut tb.sim, newcomer, n_if);
    tb.run_for(SimDuration::from_secs(1));
    // Start the newcomer's modules (it was added after world start).
    stack::dispatch(&mut tb.sim, newcomer, newcomer_mid, |m, ctx| {
        m.on_start(ctx)
    });
    tb.run_for(SimDuration::from_secs(5));
    let newcomer_addr = {
        let c: &mut DhcpClientModule = tb.module(newcomer, newcomer_mid);
        c.lease().expect("newcomer got a lease").addr
    };

    // Measure mis-delivery for a fixed window while the stale binding
    // still tunnels the mobile host's traffic.
    let before = tb.sim.world().host(newcomer).core.stats.unclaimed.get();
    tb.run_for(SimDuration::from_secs(10));
    let misdelivered = tb.sim.world().host(newcomer).core.stats.unclaimed.get() - before;
    (
        misdelivered,
        newcomer_addr != mh_coa,
        tb.sim.metrics().to_json(),
    )
}

/// Runs the A3 experiment under both reuse policies.
pub fn run_a3(seed: u64) -> A3Result {
    let (first_available_misdelivered, _, fa_metrics) =
        run_a3_policy(ReusePolicy::FirstAvailable, seed);
    let (lru_misdelivered, lru_gave_different_address, lru_metrics) =
        run_a3_policy(ReusePolicy::LeastRecentlyUsed, seed);
    A3Result {
        first_available_misdelivered,
        lru_misdelivered,
        lru_gave_different_address,
        metrics: Json::obj([
            ("first_available", fa_metrics),
            ("least_recently_used", lru_metrics),
        ]),
    }
}

// ------------------------------------------------------------ JSON export
//
// Hand-rolled (the build has no serde): every result type renders itself
// with [`mosquitonet_sim::Json`], which keeps key order stable so the
// sidecar files diff cleanly between runs.

impl Fig6Scenario {
    /// Stable machine-readable key used in JSON exports.
    pub fn key(self) -> &'static str {
        match self {
            Fig6Scenario::ColdWiredToWireless => "cold_wired_to_wireless",
            Fig6Scenario::ColdWirelessToWired => "cold_wireless_to_wired",
            Fig6Scenario::HotWiredToWireless => "hot_wired_to_wireless",
            Fig6Scenario::HotWirelessToWired => "hot_wireless_to_wired",
        }
    }
}

impl A1Mode {
    /// Stable machine-readable key used in JSON exports.
    pub fn key(self) -> &'static str {
        match self {
            A1Mode::Agentless => "agentless",
            A1Mode::FaNoForwarding => "fa_no_forwarding",
            A1Mode::FaForwarding => "fa_forwarding",
        }
    }
}

impl Tab1Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("iterations", Json::from(self.iterations)),
            ("interval_ms", Json::from(self.interval_ms)),
            ("histogram", self.histogram.to_json()),
            ("max_loss", Json::from(self.max_loss)),
            ("metrics", self.metrics.clone()),
        ])
    }
}

impl Fig6Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("iterations", Json::from(self.iterations)),
            ("interval_ms", Json::from(self.interval_ms)),
            (
                "scenarios",
                Json::arr(self.scenarios.iter().map(|(sc, h)| {
                    Json::obj([
                        ("scenario", Json::from(sc.key())),
                        ("histogram", h.to_json()),
                    ])
                })),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }
}

impl Fig7Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("runs", Json::from(self.runs)),
            ("configure_us", self.configure_us.to_json()),
            ("route_us", self.route_us.to_json()),
            ("request_reply_us", self.request_reply_us.to_json()),
            ("ha_processing_us", Json::from(self.ha_processing_us)),
            ("post_us", self.post_us.to_json()),
            ("total_us", self.total_us.to_json()),
            ("metrics", self.metrics.clone()),
        ])
    }
}

impl C1Row {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("payload", Json::from(self.payload)),
            ("plain", Json::from(self.plain)),
            ("encapsulated", Json::from(self.encapsulated)),
            ("overhead", Json::from(self.overhead)),
            ("overhead_pct", Json::from(self.overhead_pct)),
        ])
    }
}

impl C2Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rtt_ms", self.rtt_ms.to_json()),
            ("goodput_kbps", Json::from(self.goodput_kbps)),
            ("theoretical_kbps", Json::from(self.theoretical_kbps)),
            ("metrics", self.metrics.clone()),
        ])
    }
}

impl C3Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tunnel_rtt_ms", self.tunnel_rtt_ms.to_json()),
            ("triangle_rtt_ms", self.triangle_rtt_ms.to_json()),
            ("fallback_triggered", Json::from(self.fallback_triggered)),
            (
                "post_fallback_delivery",
                Json::from(self.post_fallback_delivery),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }
}

impl A1Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("iterations", Json::from(self.iterations)),
            ("interval_ms", Json::from(self.interval_ms)),
            (
                "per_mode",
                Json::arr(self.per_mode.iter().map(|(mode, h)| {
                    Json::obj([("mode", Json::from(mode.key())), ("histogram", h.to_json())])
                })),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }
}

impl A2Row {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mobile_hosts", Json::from(self.mobile_hosts)),
            ("completed", Json::from(self.completed)),
            ("mean_reply_ms", Json::from(self.mean_reply_ms)),
            ("p95_reply_ms", Json::from(self.p95_reply_ms)),
            ("max_reply_ms", Json::from(self.max_reply_ms)),
            ("span_ms", Json::from(self.span_ms)),
        ])
    }
}

impl A3Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "first_available_misdelivered",
                Json::from(self.first_available_misdelivered),
            ),
            ("lru_misdelivered", Json::from(self.lru_misdelivered)),
            (
                "lru_gave_different_address",
                Json::from(self.lru_gave_different_address),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }
}

// ---------------------------------------------------------------- S1

/// Send modes cycled across the S1 correspondent population, so every
/// cacheable decision shape (tunnel, triangle, direct-encap, local
/// source) appears in the cache at scale.
const S1_MODES: [SendMode; 4] = [
    SendMode::ReverseTunnel,
    SendMode::Triangle,
    SendMode::DirectEncap,
    SendMode::DirectLocal,
];

/// IP protocol number carried by the S1 probes. Nothing in the stack
/// handles it — the experiment measures route resolution on the sending
/// host, not end-to-end delivery.
const S1_PROTO: u8 = 253;

/// Cap on the mid-experiment re-registration wait. Generous because the
/// switch rides through self-induced congestion at large populations: the
/// routers answer every probe with an ICMP unreachable, and at 10 Mb/s
/// tens of thousands of those serialize on the department router's
/// transmitter for several sim-seconds — the registration reply queues
/// behind them and the mobile host's deterministic retry backoff carries
/// the switch to completion.
const S1_SWITCH_CAP: SimDuration = SimDuration::from_secs(120);

/// Drain window between phases: long enough for every in-flight frame
/// (and the routers' deterministic ICMP unreachables) to settle.
const S1_DRAIN: SimDuration = SimDuration::from_secs(2);

/// The `i`-th correspondent's address. The 36.200.0.0/16 block has no
/// subnet anywhere in the test-bed, so probes leave the mobile host on
/// its real egress path and die upstream with a no-route drop.
fn s1_correspondent(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(36, 200, (i >> 8) as u8, (i & 0xff) as u8)
}

/// One phase of the S1 scale run: exact deltas of the mobile host's
/// `fastpath` counters over the phase.
#[derive(Debug)]
pub struct S1Row {
    /// Phase label (`cold`, `warm`, `reregister`, `rewarm`, `steady`).
    pub phase: &'static str,
    /// Probe packets sent during the phase.
    pub sends: u32,
    /// Decision-cache hits charged during the phase.
    pub hits: u64,
    /// Full resolutions (cache misses) charged during the phase.
    pub misses: u64,
    /// Whole-cache flushes (validity-token moves) during the phase.
    pub invalidations: u64,
    /// Live cache entries when the phase ended.
    pub cache_entries: u64,
}

impl S1Row {
    /// Renders the row. Every field is an integer, so the export is
    /// byte-stable across same-seed runs.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("phase", Json::from(self.phase)),
            ("sends", Json::from(self.sends)),
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("invalidations", Json::UInt(self.invalidations)),
            ("cache_entries", Json::UInt(self.cache_entries)),
        ])
    }
}

/// The S1 result: one row per phase plus the sidecar metrics.
#[derive(Debug)]
pub struct S1Result {
    /// Correspondent population size.
    pub correspondents: u32,
    /// One row per phase, in run order.
    pub rows: Vec<S1Row>,
    /// Deterministic sidecar body (rows plus per-mode policy totals).
    pub metrics: Json,
}

impl S1Result {
    /// Renders as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correspondents", Json::from(self.correspondents)),
            ("rows", Json::arr(self.rows.iter().map(S1Row::to_json))),
            ("metrics", self.metrics.clone()),
        ])
    }
}

fn s1_counters(tb: &Testbed) -> (u64, u64, u64) {
    let fp = &tb.sim.world().host(tb.mh).fastpath;
    (
        fp.stats.hit.get(),
        fp.stats.miss.get(),
        fp.stats.invalidate.get(),
    )
}

/// Runs `act` and records the fast-path counter deltas it caused.
fn s1_phase(
    tb: &mut Testbed,
    rows: &mut Vec<S1Row>,
    phase: &'static str,
    sends: u32,
    act: impl FnOnce(&mut Testbed),
) {
    let before = s1_counters(tb);
    act(tb);
    let after = s1_counters(tb);
    rows.push(S1Row {
        phase,
        sends,
        hits: after.0 - before.0,
        misses: after.1 - before.1,
        invalidations: after.2 - before.2,
        cache_entries: tb.sim.world().host(tb.mh).fastpath.len() as u64,
    });
}

/// One probe to every correspondent, back to back at the current instant
/// — the per-packet work is exactly one route resolution plus transmit.
fn s1_send_round(tb: &mut Testbed, correspondents: u32) {
    for i in 0..correspondents {
        let header = Ipv4Header::new(
            Ipv4Addr::UNSPECIFIED,
            s1_correspondent(i),
            IpProto::Other(S1_PROTO),
        );
        let packet = Ipv4Packet::new(header, Bytes::from_static(b"s1-probe"));
        stack::ip_send_packet(&mut tb.sim, tb.mh, packet, SendOptions::default());
    }
}

/// Runs the many-correspondents scale experiment (S1).
///
/// A mobile host registered away from home holds `correspondents` learned
/// Mobile Policy Table entries (cycling all four send modes) and sends one
/// probe per correspondent per phase:
///
/// * `cold` — first contact; every probe is a full resolution that fills
///   the unified decision cache.
/// * `warm` — the same population again; steady state should be pure
///   cache replay.
/// * `reregister` — a same-subnet care-of switch. No probes; the row
///   captures the control traffic's own lookups and the validity-token
///   move that flushes the cache.
/// * `rewarm` / `steady` — the refill after invalidation and the return
///   to pure replay.
///
/// Every row is an exact counter delta and every RNG derives from `seed`,
/// so the sidecar is byte-stable for a fixed (correspondents, seed).
pub fn run_s1(correspondents: u32, seed: u64) -> S1Result {
    assert!(
        (1..=65_536).contains(&correspondents),
        "correspondent population must fit the 36.200.0.0/16 plan"
    );
    let mut tb = default_testbed(seed);
    settle_on_dept(&mut tb);

    // The population: learned host entries cycling the four send modes.
    {
        let m = tb.mh_module();
        for i in 0..correspondents {
            m.policy
                .learn(s1_correspondent(i), S1_MODES[(i % 4) as usize]);
        }
    }

    let mut rows = Vec::new();
    let send_phases = |tb: &mut Testbed, rows: &mut Vec<S1Row>, phases: [&'static str; 2]| {
        for phase in phases {
            s1_phase(tb, rows, phase, correspondents, |tb| {
                s1_send_round(tb, correspondents)
            });
            tb.run_for(S1_DRAIN);
        }
    };
    send_phases(&mut tb, &mut rows, ["cold", "warm"]);

    // The care-of address moves (same subnet, alternate address). The
    // MobileHost bumps its route generation when registration completes,
    // so the validity token moves and the next lookup flushes the cache.
    s1_phase(&mut tb, &mut rows, "reregister", 0, |tb| {
        let idx = tb.mh_module().timelines.len();
        switch_dept_address(tb, COA_DEPT_ALT);
        assert!(
            poll_until(tb, S1_SWITCH_CAP, |tb| tb.mh_module().timelines.len() > idx),
            "mid-experiment re-registration did not complete"
        );
    });

    send_phases(&mut tb, &mut rows, ["rewarm", "steady"]);

    let policy_mode_totals = {
        let m = tb.mh_module();
        Json::arr(S1_MODES.map(|mode| {
            let name = match mode {
                SendMode::ReverseTunnel => "reverse_tunnel",
                SendMode::Triangle => "triangle",
                SendMode::DirectEncap => "direct_encap",
                SendMode::DirectLocal => "direct_local",
            };
            Json::obj([
                ("mode", Json::from(name)),
                (
                    "lookups",
                    Json::UInt(m.policy.stats.counter_for(mode).get()),
                ),
            ])
        }))
    };
    let metrics = Json::obj([
        ("correspondents", Json::from(correspondents)),
        ("rows", Json::arr(rows.iter().map(S1Row::to_json))),
        ("policy_mode_totals", policy_mode_totals),
    ]);
    S1Result {
        correspondents,
        rows,
        metrics,
    }
}

// ---------------------------------------------------------------- S3

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
    /// Whether the engine drains per-tick batches (the default) or steps
    /// one event at a time; results must be byte-identical either way.
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
    /// Pairs split between a direct-encap correspondent on the department
    /// net and a reverse-tunnel correspondent across the cloud — the
    /// mixed tunnel/direct topology the determinism proptest runs on.
    Mixed,
}

impl S3Mode {
    /// The three modes of the standard report (Mixed is test-only).
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
            S3Mode::Mixed => "mixed",
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            S3Mode::ReverseTunnel => "reverse tunnel via home agent",
            S3Mode::DirectEncap => "direct IP-in-IP to correspondent",
            S3Mode::ForeignAgent => "foreign-agent attachment",
            S3Mode::Mixed => "mixed tunnel/direct split",
        }
    }
}

/// One S3 mode's measured row. Every field except `wall_ns` is a
/// deterministic virtual-time quantity; `wall_ns` is real elapsed time
/// and is deliberately excluded from [`S3Row::to_json`] so the bench
/// sidecar stays byte-stable.
#[derive(Debug, Default)]
pub struct S3Row {
    /// Mode key (`tunnel`, `direct`, `fa`, `mixed`).
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
    /// Engine batches drained during the measurement window (equals
    /// `events` when batching is off — every event is a batch of one).
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
}

/// The S3 result: one row per mode plus the run parameters.
#[derive(Debug)]
pub struct S3Result {
    /// The configuration measured.
    pub cfg: S3Config,
    /// One row per mode, report order.
    pub rows: Vec<S3Row>,
}

impl S3Result {
    /// The deterministic bench-sidecar body: parameters plus per-mode
    /// rows, integers only, byte-stable for a fixed config.
    pub fn to_json(&self) -> Json {
        let mut doc = s3_params_json(&self.cfg);
        doc.push(("modes", Json::arr(self.rows.iter().map(S3Row::to_json))));
        Json::obj(doc)
    }
}

impl S3Row {
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

/// Runs one S3 mode and returns its row plus the run's flight-recorder
/// journeys export (the determinism proptest compares both).
pub fn run_s3_mode(mode: S3Mode, cfg: &S3Config) -> (S3Row, Json) {
    let mut tb = match mode {
        S3Mode::ForeignAgent => build(TestbedConfig {
            seed: cfg.seed,
            with_foreign_site: true,
            with_foreign_agents: true,
            mh_mode: MhMode::ForeignAgent,
            ..TestbedConfig::default()
        }),
        S3Mode::Mixed => build(TestbedConfig {
            seed: cfg.seed,
            with_far_ch: true,
            ..TestbedConfig::default()
        }),
        S3Mode::ReverseTunnel | S3Mode::DirectEncap => default_testbed(cfg.seed),
    };
    tb.sim.set_batching(cfg.batching);

    // Settle the MH away from home before any bulk traffic flows.
    if mode == S3Mode::ForeignAgent {
        settle_fa_mh_on_foreign(&mut tb);
    } else {
        settle_on_dept(&mut tb);
    }

    // Teach the Mobile Policy Table the forwarding mode under test.
    match mode {
        S3Mode::ReverseTunnel => {
            tb.mh_module()
                .policy
                .set(Cidr::host(CH_DEPT), SendMode::ReverseTunnel);
        }
        S3Mode::DirectEncap => {
            tb.mh_module()
                .policy
                .set(Cidr::host(CH_DEPT), SendMode::DirectEncap);
        }
        S3Mode::Mixed => {
            let m = tb.mh_module();
            m.policy.set(Cidr::host(CH_DEPT), SendMode::DirectEncap);
            m.policy.set(Cidr::host(CH_FAR), SendMode::ReverseTunnel);
        }
        S3Mode::ForeignAgent => {}
    }

    // Direct-encap correspondents must decapsulate the IP-in-IP traffic
    // addressed to them (paper §3.2: "transparent IP-in-IP decapsulation").
    match mode {
        S3Mode::DirectEncap | S3Mode::Mixed => {
            let ch = tb.ch_dept;
            tb.sim.world_mut().host_mut(ch).core.ipip_decap = true;
        }
        S3Mode::ReverseTunnel | S3Mode::ForeignAgent => {}
    }

    // Prime ARP along every path. Without this the first measured burst
    // races ARP resolution and overflows the pending-ARP queue.
    {
        let mh = tb.mh;
        let mut dests = vec![CH_DEPT];
        if mode == S3Mode::Mixed {
            dests.push(CH_FAR);
        }
        for dst in dests {
            stack::add_module(&mut tb.sim, mh, s3_arp_primer(dst));
        }
        tb.run_for(SimDuration::from_millis(500));
    }

    // One sink + one sender per pair. Mixed alternates pairs between the
    // department (direct) and far (tunnel) correspondents.
    let mut sinks: Vec<(stack::HostId, ModuleId)> = Vec::new();
    let mut senders: Vec<ModuleId> = Vec::new();
    for i in 0..cfg.pairs {
        let (sink_host, dst_addr) = match mode {
            S3Mode::Mixed if i % 2 == 1 => (tb.ch_far.expect("far CH"), CH_FAR),
            _ => (tb.ch_dept, CH_DEPT),
        };
        let port = S3_PORT_BASE + i as u16;
        let sid = stack::add_module(&mut tb.sim, sink_host, Box::new(SaturationSink::new(port)));
        sinks.push((sink_host, sid));
        let sender = s3_sender(dst_addr, i, cfg.burst, cfg.ticks);
        let mh = tb.mh;
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
        batches: if cfg.batching {
            tb.sim.batches_executed() - batches0
        } else {
            tb.sim.events_executed() - events0
        },
        wall_ns,
        ..S3Row::default()
    };
    for mid in &senders {
        row.sent += tb.module::<SaturationSender>(tb.mh, *mid).sent;
    }
    let mut span = Span::default();
    for (host, mid) in &sinks {
        row.tally_sink(&mut span, tb.module(*host, *mid));
    }
    row.set_span(span);
    (row, journeys_json(&tb, None))
}

/// Runs the S3 saturation experiment: sustained bursts through `pairs`
/// MH↔correspondent pairs across the reverse-tunnel, direct-encap, and
/// foreign-agent topologies. Every reported quantity is an exact counter
/// or virtual-time delta, so the bench sidecar is byte-stable for a fixed
/// config.
pub fn run_s3(cfg: &S3Config) -> S3Result {
    let rows = S3Mode::all()
        .into_iter()
        .map(|mode| run_s3_mode(mode, cfg).0)
        .collect();
    S3Result { cfg: *cfg, rows }
}

// ------------------------------------------------------- S3 (sharded)

/// Settle window before the measured senders start: long enough for the
/// ARP primers to warm every path, including across the backbone.
const S3_SHARD_PRIME: SimDuration = SimDuration::from_millis(600);

/// What one shard's `finish` hook hands back across the thread boundary
/// in every sharded run (S2 and S3), and the fold of those in shard
/// order: plain counters, metrics snapshots, and flight-recorder
/// segments — everything the merge needs, nothing that isn't `Send`.
#[derive(Default)]
struct ShardTotals {
    names: Vec<String>,
    snapshots: Vec<Snapshot>,
    dumps: Vec<FlightDump>,
    events: u64,
    batches: u64,
    arena_resets: u64,
    /// First-to-last instant of whatever the experiment measures.
    span: Span,
}

impl ShardTotals {
    /// Shard `s`'s totals at the deadline, its hops moved out of `sim` (the span
    /// is the caller's to widen: only it knows which modules observe the stream).
    fn of_shard(s: u32, sim: &mut Sim<Network>, batching: bool) -> ShardTotals {
        let events = sim.events_executed();
        ShardTotals {
            names: host_names(sim.world()),
            snapshots: vec![sim.metrics().snapshot()],
            dumps: vec![sim.flights_mut().dump(s, s * ShardedCampus::HOSTS)],
            events,
            // With batching off every event is a batch of one.
            batches: if batching {
                sim.batches_executed()
            } else {
                events
            },
            arena_resets: sim.world().arena_resets(),
            span: Span::default(),
        }
    }

    /// Folds the next shard in. Called in shard order, so host names
    /// concatenate to match the `host_base` offsets of the flight dumps.
    fn merge(&mut self, next: ShardTotals) {
        self.names.extend(next.names);
        self.snapshots.extend(next.snapshots);
        self.dumps.extend(next.dumps);
        self.events += next.events;
        self.batches += next.batches;
        self.arena_resets += next.arena_resets;
        self.span.widen(next.span.first, next.span.last);
    }

    /// The deterministic merged documents, `(journeys, metrics)`: flight
    /// segments merge into (time, shard, seq) order, metrics snapshots
    /// union-and-sum.
    fn documents(self) -> (Json, Json) {
        (
            FlightRecorder::merged(self.dumps).export(&self.names, None),
            Snapshot::merged(self.snapshots).to_json(),
        )
    }
}

/// The sharded S3 result: the aggregated row plus the merged sidecar
/// documents. Everything except `row.wall_ns` is deterministic and
/// byte-identical for any `threads` from 1 to `shards`.
#[derive(Debug)]
pub struct S3ShardedResult {
    /// The configuration measured.
    pub cfg: S3Config,
    /// Shard count the topology was partitioned into.
    pub shards: u32,
    /// Worker threads the run actually used.
    pub threads: usize,
    /// Aggregated measurement row (mode key `sharded`).
    pub row: S3Row,
    /// Merged flight-recorder journeys document.
    pub journeys: Json,
    /// Merged metrics snapshot document.
    pub metrics: Json,
    /// Cross-shard staging-arena recycles, summed over shards.
    pub arena_resets: u64,
}

impl S3ShardedResult {
    /// The deterministic bench-sidecar body: parameters, the aggregated
    /// row, and the envelope-arena counter. Byte-identical for a fixed
    /// config at every thread count (the golden table diffs exactly this).
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
/// `threads` only chooses how many workers step the shards; every
/// deterministic output (rows, journeys, metrics) is byte-identical
/// across thread counts, which `tests/shard_determinism.rs` pins.
pub fn run_s3_sharded(cfg: &S3Config, shards: u32, threads: usize) -> S3ShardedResult {
    ShardedCampus::check_shards(shards);
    let deadline = SimTime::ZERO
        + S3_SHARD_PRIME
        + SimDuration::from_millis(S3_TICK_MS * cfg.ticks as u64)
        + S3_DRAIN;

    let build = |s: u32| -> Sim<Network> {
        let mut campus =
            ShardedCampus::wire(s, shards, cfg.seed, cfg.batching, ["gw", "src", "dst"]);
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

    let finish = |s: u32, mut sim: Sim<Network>| -> (ShardTotals, S3Row) {
        let mut totals = ShardTotals::of_shard(s, &mut sim, cfg.batching);
        let mut row = S3Row::default();
        let w = sim.world_mut();
        for h in 0..w.hosts.len() {
            let host = &mut w.hosts[h];
            // Host order per shard is fixed: gw, src, dst.
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
                    row.tally_sink(&mut totals.span, snk);
                }
            }
        }
        (totals, row)
    };

    let wall_start = std::time::Instant::now();
    let outs = run_sharded(
        shards,
        threads,
        presets::TRUNK_ONE_WAY,
        deadline,
        build,
        finish,
    );
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let mut totals = ShardTotals::default();
    let mut row = S3Row {
        mode: "sharded",
        wall_ns,
        ..S3Row::default()
    };
    for (shard_totals, part) in outs {
        totals.merge(shard_totals);
        row.sent += part.sent;
        row.delivered += part.delivered;
        row.bytes += part.bytes;
        // The src/gw counters include the two ARP primers per shard —
        // deterministic, and identical at every thread count.
        row.mh_output += part.mh_output;
        row.mh_encapsulated += part.mh_encapsulated;
        row.ha_forwarded += part.ha_forwarded;
        row.ha_decapsulated += part.ha_decapsulated;
    }
    row.events = totals.events;
    row.batches = totals.batches;
    row.set_span(totals.span);
    let arena_resets = totals.arena_resets;
    let (journeys, metrics) = totals.documents();
    S3ShardedResult {
        cfg: *cfg,
        shards,
        threads,
        row,
        journeys,
        metrics,
        arena_resets,
    }
}

// --------------------------------------------------- S2 (HA fleet)

/// Virtual gap between churn ticks, milliseconds.
const S2_TICK_MS: u64 = 10;

/// Settle window before the churn starts (interfaces up, sockets bound).
const S2_PRIME: SimDuration = SimDuration::from_millis(600);

/// Drain window after the last churn tick: long enough for every queued
/// registration (the home agent serializes at 1.48 ms each) plus the
/// wrong-shard detours to complete. Idle virtual time costs no events,
/// so this is generous by design.
const S2_DRAIN: SimDuration = SimDuration::from_secs(12);

/// The home network every fleet shard stands in for: one wide prefix,
/// partitioned across shards by the rendezvous directory rather than by
/// sub-prefix, so hot spots cannot pin themselves to one shard.
fn s2_home_prefix() -> Cidr {
    "36.0.0.0/8".parse().expect("cidr")
}

/// Home address of global mobile host `i`.
fn s2_home(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(36, 0, 0, 1)) + i)
}

/// Campus host numbers of a fleet shard: the active home agent doubles
/// as the shard's backbone gateway at `.1`, the standby sits at `.2`, and
/// the churn host (this shard's slice of the MH population) at `.3`.
const S2_ACTIVE: u8 = 1;
const S2_STANDBY: u8 = 2;
const S2_CHURN: u8 = 3;

/// The fleet's shard directory: epoch 1, one (active, standby) pair per
/// shard. Every host in the experiment derives routing from this one
/// deterministic table.
pub fn s2_directory(shards: u32) -> ShardDirectory {
    ShardDirectory::new(
        1,
        (0..shards)
            .map(|s| DirectoryEntry {
                shard: s as u16,
                active: ShardedCampus::addr(s, S2_ACTIVE),
                standby: ShardedCampus::addr(s, S2_STANDBY),
            })
            .collect::<Vec<_>>(),
    )
}

/// Configuration of one S2 fleet run.
#[derive(Clone, Copy, Debug)]
pub struct S2Config {
    /// Home-agent shards (each an active+standby pair in its own domain).
    pub shards: u32,
    /// Mobile hosts across the whole fleet (directory-partitioned).
    pub mobile_hosts: u32,
    /// Zipf draws per churn tick per shard.
    pub burst: u32,
    /// Churn ticks (run length = `ticks` × 10 ms of virtual time).
    pub ticks: u32,
    /// RNG seed.
    pub seed: u64,
    /// Whether the engine drains per-tick batches; results must be
    /// byte-identical either way.
    pub batching: bool,
}

/// The aggregated S2 measurement row. Every field except `wall_ns` is a
/// deterministic virtual-time quantity; `wall_ns` is real elapsed time
/// and is excluded from [`S2Row::to_json`] so the sidecar stays
/// byte-stable.
#[derive(Debug, Default)]
pub struct S2Row {
    /// First-attempt registrations the churn sources sent.
    pub sent: u64,
    /// First attempts deliberately misdirected to a neighbour shard.
    pub misdirected: u64,
    /// Re-sends to the true owner after a wrong-shard denial.
    pub redirected: u64,
    /// Accepted completions observed by the churn sources.
    pub accepted: u64,
    /// Terminal denials observed by the churn sources (expected 0).
    pub denied: u64,
    /// Requests the active agents processed (replies sent).
    pub ha_processed: u64,
    /// Registrations the active agents accepted.
    pub ha_accepted: u64,
    /// Wrong-shard denials at the fleet (one per misdirect).
    pub wrong_shard: u64,
    /// Binding replicas the actives streamed to their standbys.
    pub replicas_sent: u64,
    /// Replicas the standbys applied.
    pub replicas_applied: u64,
    /// Live bindings across the active agents at the deadline.
    pub live_bindings: u64,
    /// Live bindings across the standby agents (lock-step: must equal
    /// `live_bindings`).
    pub standby_bindings: u64,
    /// Write-ahead journal records across the active agents.
    pub journal_records: u64,
    /// Engine events executed, summed over shards.
    pub events: u64,
    /// Engine batches drained, summed over shards.
    pub batches: u64,
    /// Virtual span from first to last accepted reply, nanoseconds.
    pub span_ns: u64,
    /// Accepted registrations per second of virtual time.
    pub regs_per_sec: u64,
    /// 99th-percentile registration latency (first send → accepted
    /// reply, wrong-shard detours included), nanoseconds.
    pub p99_latency_ns: u64,
    /// Registration-request bytes on the wire (first sends + redirects).
    pub request_bytes: u64,
    /// Registration-reply bytes on the wire.
    pub reply_bytes: u64,
    /// Binding-replica bytes on the wire.
    pub replica_bytes: u64,
    /// Steady-state protocol bytes per live binding.
    pub bytes_per_binding: u64,
    /// Real elapsed nanoseconds. Never golden-pinned or printed; its one
    /// reader is `benchmark/`'s adapter (`reg_churn`).
    pub wall_ns: u64,
}

impl S2Row {
    /// Renders the deterministic fields (everything but `wall_ns`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sent", Json::UInt(self.sent)),
            ("misdirected", Json::UInt(self.misdirected)),
            ("redirected", Json::UInt(self.redirected)),
            ("accepted", Json::UInt(self.accepted)),
            ("denied", Json::UInt(self.denied)),
            ("ha_processed", Json::UInt(self.ha_processed)),
            ("ha_accepted", Json::UInt(self.ha_accepted)),
            ("wrong_shard", Json::UInt(self.wrong_shard)),
            ("replicas_sent", Json::UInt(self.replicas_sent)),
            ("replicas_applied", Json::UInt(self.replicas_applied)),
            ("live_bindings", Json::UInt(self.live_bindings)),
            ("standby_bindings", Json::UInt(self.standby_bindings)),
            ("journal_records", Json::UInt(self.journal_records)),
            ("events", Json::UInt(self.events)),
            ("batches", Json::UInt(self.batches)),
            ("span_ns", Json::UInt(self.span_ns)),
            ("regs_per_sec", Json::UInt(self.regs_per_sec)),
            ("p99_latency_ns", Json::UInt(self.p99_latency_ns)),
            ("request_bytes", Json::UInt(self.request_bytes)),
            ("reply_bytes", Json::UInt(self.reply_bytes)),
            ("replica_bytes", Json::UInt(self.replica_bytes)),
            ("bytes_per_binding", Json::UInt(self.bytes_per_binding)),
        ])
    }
}

/// The S2 result: the aggregated row plus the merged sidecar documents.
/// Everything except `row.wall_ns` is deterministic and byte-identical
/// for any `threads` from 1 to `cfg.shards`.
#[derive(Debug)]
pub struct S2Result {
    /// The configuration measured.
    pub cfg: S2Config,
    /// Worker threads the run actually used.
    pub threads: usize,
    /// Aggregated measurement row.
    pub row: S2Row,
    /// Merged flight-recorder journeys document.
    pub journeys: Json,
    /// Merged metrics snapshot document.
    pub metrics: Json,
    /// Cross-shard staging-arena recycles, summed over shards.
    pub arena_resets: u64,
}

impl S2Result {
    /// The deterministic bench-sidecar body: parameters, the aggregated
    /// row, and the envelope-arena counter. Byte-identical for a fixed
    /// config at every thread count (the golden table diffs exactly this).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shards", Json::from(self.cfg.shards)),
            ("mobile_hosts", Json::from(self.cfg.mobile_hosts)),
            ("burst", Json::from(self.cfg.burst)),
            ("ticks", Json::from(self.cfg.ticks)),
            ("tick_ms", Json::UInt(S2_TICK_MS)),
            ("seed", Json::UInt(self.cfg.seed)),
            ("batching", Json::from(self.cfg.batching)),
            ("arena_resets", Json::UInt(self.arena_resets)),
            ("row", self.row.to_json()),
        ])
    }
}

/// Runs the S2 sharded home-agent fleet experiment: `cfg.shards` LAN
/// domains joined by a backbone trunk, each holding one (active,
/// standby) home-agent pair and a churn host standing in for the
/// shard's slice of a `cfg.mobile_hosts`-wide population. The binding
/// table is partitioned by the rendezvous [`ShardDirectory`]; churn
/// registrations arrive in Zipf-distributed bursts, a deterministic
/// 1/32 of them misdirected to a neighbour shard first (denied
/// `wrong_shard`, then redirected).
///
/// `threads` only chooses how many workers step the shards; every
/// deterministic output is byte-identical across thread counts.
pub fn run_s2(cfg: &S2Config, threads: usize) -> S2Result {
    ShardedCampus::check_shards(cfg.shards);
    assert!(cfg.mobile_hosts >= cfg.shards, "every shard needs homes");
    let deadline = SimTime::ZERO
        + S2_PRIME
        + SimDuration::from_millis(S2_TICK_MS * cfg.ticks as u64)
        + S2_DRAIN;
    let shards = cfg.shards;

    // The population partitioned once into per-shard slices, each in Zipf
    // rank order. Part of the build, so inside the measured window.
    let wall_start = std::time::Instant::now();
    let directory = s2_directory(shards);
    let mut homes_of = vec![Vec::new(); shards as usize];
    for home in (0..cfg.mobile_hosts).map(s2_home) {
        homes_of[directory.resolve(home) as usize].push(home);
    }

    let build = |s: u32| -> Sim<Network> {
        let addr = move |host: u8| ShardedCampus::addr(s, host);
        let mac = |host: u8| ShardedCampus::mac(s, host);
        let mut campus =
            ShardedCampus::wire(s, shards, cfg.seed, cfg.batching, ["ha", "sb", "churn"]);
        let (ha, ha_campus_if, ha_bb_if) = (campus.gw, campus.gw_campus_if, campus.gw_backbone_if);
        let [(sb, sb_if), (churn, churn_if)] = campus.leaves;

        // The agents must be installed before bring-up: they are modules
        // of the world the stack starts, not late joiners.
        let mut ha_cfg = HomeAgentConfig::new(addr(S2_ACTIVE), ha_campus_if, s2_home_prefix());
        ha_cfg.replicate_to = Some(addr(S2_STANDBY));
        ha_cfg.fleet = Some((s as u16, directory.clone()));
        let mut sb_cfg = HomeAgentConfig::new(addr(S2_STANDBY), sb_if, s2_home_prefix());
        sb_cfg.fleet = Some((s as u16, directory.clone()));
        for (host, agent_cfg) in [(ha, ha_cfg), (sb, sb_cfg)] {
            campus
                .sim
                .world_mut()
                .host_mut(host)
                .add_module(Box::new(HomeAgent::new(agent_cfg)));
        }
        campus.power_up();
        let mut sim = campus.sim;

        // Warm every ARP path the churn exercises, so the measured window
        // starts with neighbor discovery already settled (as A2 does).
        let t0 = sim.now();
        {
            let w = sim.world_mut();
            w.hosts[churn.0].core.arp[churn_if.0].insert(addr(S2_ACTIVE), mac(S2_ACTIVE), t0);
            w.hosts[ha.0].core.arp[ha_campus_if.0].insert(addr(S2_CHURN), mac(S2_CHURN), t0);
            w.hosts[ha.0].core.arp[ha_campus_if.0].insert(addr(S2_STANDBY), mac(S2_STANDBY), t0);
            w.hosts[sb.0].core.arp[sb_if.0].insert(addr(S2_ACTIVE), mac(S2_ACTIVE), t0);
            for t in (0..shards).filter(|&t| t != s) {
                w.hosts[ha.0].core.arp[ha_bb_if.0].insert(
                    ShardedCampus::backbone_addr(t),
                    ShardedCampus::backbone_mac(t),
                    t0,
                );
            }
        }
        stack::start(&mut sim);

        let homes = homes_of[s as usize].clone();
        let next_active = ShardedCampus::addr((s + 1) % shards, S2_ACTIVE);
        let (burst, ticks) = (cfg.burst, cfg.ticks);
        let churn_seed = shard_seed(cfg.seed, s) ^ 0x5A5A_5A5A_5A5A_5A5A;
        sim.schedule_at(SimTime::ZERO + S2_PRIME, move |sim| {
            stack::add_module(
                sim,
                churn,
                Box::new(FleetChurn::new(
                    addr(S2_ACTIVE),
                    next_active,
                    homes,
                    burst,
                    SimDuration::from_millis(S2_TICK_MS),
                    ticks,
                    churn_seed,
                )),
            );
        });
        sim
    };

    let finish = |s: u32, mut sim: Sim<Network>| -> (ShardTotals, S2Row, Vec<u64>) {
        let now = sim.now();
        let mut totals = ShardTotals::of_shard(s, &mut sim, cfg.batching);
        let mut row = S2Row::default();
        let mut latencies_ns = Vec::new();
        let w = sim.world_mut();
        for h in 0..w.hosts.len() {
            let host = &mut w.hosts[h];
            for m in 0..host.module_count() {
                let mid = ModuleId(m);
                if let Some(HomeAgent { machine: agent }) = host.module_mut::<HomeAgent>(mid) {
                    // Host order per shard is fixed: ha, sb, churn.
                    if h == 0 {
                        row.ha_processed += agent.stats.processed.get();
                        row.ha_accepted += agent.stats.accepted.get();
                        row.wrong_shard += agent.stats.wrong_shard.get();
                        row.replicas_sent += agent.stats.replicas_sent.get();
                        row.live_bindings += agent.bindings.live(now).len() as u64;
                        row.journal_records += agent.journal.len() as u64;
                    } else {
                        row.replicas_applied += agent.stats.replicas_applied.get();
                        row.standby_bindings += agent.bindings.live(now).len() as u64;
                    }
                } else if let Some(churn) = host.module_mut::<FleetChurn>(mid) {
                    row.sent += churn.sent;
                    row.misdirected += churn.misdirected;
                    row.redirected += churn.redirected;
                    row.accepted += churn.accepted;
                    row.denied += churn.denied;
                    latencies_ns.append(&mut churn.latencies_ns);
                    totals.span.widen(churn.first_accept, churn.last_accept);
                }
            }
        }
        (totals, row, latencies_ns)
    };

    let outs = run_sharded(
        shards,
        threads,
        presets::TRUNK_ONE_WAY,
        deadline,
        build,
        finish,
    );
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let mut totals = ShardTotals::default();
    let mut row = S2Row {
        wall_ns,
        ..S2Row::default()
    };
    let mut latencies = Vec::new();
    for (shard_totals, part, shard_latencies) in outs {
        totals.merge(shard_totals);
        latencies.extend(shard_latencies);
        row.sent += part.sent;
        row.misdirected += part.misdirected;
        row.redirected += part.redirected;
        row.accepted += part.accepted;
        row.denied += part.denied;
        row.ha_processed += part.ha_processed;
        row.ha_accepted += part.ha_accepted;
        row.wrong_shard += part.wrong_shard;
        row.replicas_sent += part.replicas_sent;
        row.replicas_applied += part.replicas_applied;
        row.live_bindings += part.live_bindings;
        row.standby_bindings += part.standby_bindings;
        row.journal_records += part.journal_records;
    }
    row.events = totals.events;
    row.batches = totals.batches;
    row.span_ns = totals.span.ns();
    row.regs_per_sec = rate_per_sec(row.accepted, row.span_ns);
    latencies.sort_unstable();
    row.p99_latency_ns = percentile(&latencies, 99);
    row.request_bytes = (row.sent + row.redirected) * REQUEST_LEN as u64;
    // `ha_processed` already counts the wrong-shard denial replies: the
    // denying agent is just another shard's active.
    row.reply_bytes = row.ha_processed * REPLY_LEN as u64;
    row.replica_bytes = row.replicas_sent * REPLICA_LEN as u64;
    row.bytes_per_binding = (row.request_bytes + row.reply_bytes + row.replica_bytes)
        .checked_div(row.live_bindings)
        .unwrap_or(0);

    let arena_resets = totals.arena_resets;
    let (journeys, metrics) = totals.documents();
    S2Result {
        cfg: *cfg,
        threads,
        row,
        journeys,
        metrics,
        arena_resets,
    }
}

// ---------------------------------------------------------------- C5

/// Result of the home-agent crash/recovery chaos experiment (claim C5):
/// a correspondent's in-flight echo session rides out a home-agent crash
/// because the restarted agent replays its binding journal and resumes
/// proxying/tunneling, and the mobile host notices the new boot epoch in
/// the next registration reply and re-registers from scratch.
#[derive(Debug)]
pub struct C5Result {
    /// Echo probes the correspondent sent over the whole run.
    pub sent: u64,
    /// Echo replies it got back.
    pub received: u64,
    /// Probes lost in the settled window before the crash (expect 0).
    pub lost_before: u64,
    /// Probes lost between the crash and MH reconvergence.
    pub lost_during: u64,
    /// Probes lost after reconvergence (acceptance: 0).
    pub lost_after: u64,
    /// Crash-to-reconvergence, milliseconds.
    pub reconverged_ms: u64,
    /// Boot-epoch changes the MH detected (expect 1).
    pub epoch_changes: u64,
    /// Journal records the restarted agent replayed.
    pub journal_replayed: u64,
    /// The agent's boot epoch at the end of the run (expect 1).
    pub ha_epoch: u64,
    /// The metrics sidecar document.
    pub metrics: Json,
    /// The flight-recorder journeys sidecar document.
    pub journeys: Json,
    /// Blackout window reconstructed purely from correspondent-origin
    /// flights, as `(lost, first_us, last_us)`. `None` when no flight
    /// from the correspondent was dropped.
    pub blackout: Option<(u64, u64, u64)>,
    /// Send times (µs) of the probes the sender itself counted lost in
    /// the crash-to-reconvergence window — the ground truth the flight
    /// recorder's blackout must match exactly.
    pub lost_during_times_us: Vec<u64>,
    /// Wire frames captured at the router for pcap export. Empty unless
    /// the run was built with `MOSQUITONET_PCAP` set.
    pub captures: Vec<CapturedFrame>,
}

impl C5Result {
    /// Renders the summary scalars for the combined-results JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sent", Json::UInt(self.sent)),
            ("received", Json::UInt(self.received)),
            ("lost_before", Json::UInt(self.lost_before)),
            ("lost_during", Json::UInt(self.lost_during)),
            ("lost_after", Json::UInt(self.lost_after)),
            ("reconverged_ms", Json::UInt(self.reconverged_ms)),
            ("epoch_changes", Json::UInt(self.epoch_changes)),
            ("journal_replayed", Json::UInt(self.journal_replayed)),
            ("ha_epoch", Json::UInt(self.ha_epoch)),
        ])
    }
}

/// Echo probe spacing for the crash experiments.
const C5_ECHO_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Quiet, settled time before the crash fires.
const C5_CRASH_AFTER: SimDuration = SimDuration::from_secs(10);
/// How long the agent stays down.
const C5_DOWNTIME: SimDuration = SimDuration::from_secs(6);
/// Post-reconvergence observation window.
const C5_POST: SimDuration = SimDuration::from_secs(10);
/// Loss windows stop this far before the run end so in-flight probes
/// are not miscounted as lost.
const C5_TAIL_MARGIN: SimDuration = SimDuration::from_secs(1);
/// Reconvergence poll cap; well past the worst backoff schedule.
const C5_RECONVERGE_CAP: SimDuration = SimDuration::from_secs(120);
/// Short binding lifetime so renewals land inside the run.
const C5_LIFETIME_SECS: u16 = 30;

/// Runs claim C5: crash the (separate-host) home agent mid-session with
/// its journal intact, restart it, and measure the correspondent's echo
/// stream around the outage. Everything derives from `seed`.
pub fn run_c5(seed: u64) -> C5Result {
    let reg = MetricsRegistry::new();
    let mut tb = build(TestbedConfig {
        seed,
        ha_on_router: false,
        mh_lifetime: C5_LIFETIME_SECS,
        ..TestbedConfig::default()
    });
    let sender_mid = install_echo(&mut tb, C5_ECHO_INTERVAL);
    settle_on_dept(&mut tb);
    let settled = tb.sim.now();
    // Reset the flight recorder at the settled mark so the journeys
    // export — and the blackout derived from it — covers exactly the
    // window the loss accounting does. Probes dropped while the MH was
    // still switching onto the department net are setup noise, not part
    // of the measured outage.
    tb.sim.flights_mut().clear();

    let crash_at = settled + C5_CRASH_AFTER;
    script_ha_crash(&mut tb, &reg.scope("c5/ha"), crash_at, C5_DOWNTIME);

    // Ride through the crash and the restart...
    tb.run_for(C5_CRASH_AFTER + C5_DOWNTIME);
    // ...then poll until the MH has seen the new boot epoch and holds an
    // accepted registration again.
    assert!(
        poll_until(&mut tb, C5_RECONVERGE_CAP, reconverged_after_restart),
        "MH failed to reconverge after the home agent restart"
    );
    let reconverged = tb.sim.now();
    tb.run_for(C5_POST);
    let end = tb.sim.now();

    let (epoch_changes, requests, retries) = {
        let m = tb.mh_module();
        (
            m.reg.stats.epoch_changes.get(),
            m.reg.stats.requests_sent.get(),
            m.reg.stats.retries.get(),
        )
    };
    let (ha_epoch, journal_replayed, journal_len) = {
        let ha = tb.ha_module();
        (
            u64::from(ha.epoch()),
            ha.stats.journal_replayed.get(),
            ha.journal.len() as u64,
        )
    };
    stack::Module::register_metrics(tb.mh_module(), &reg.scope("c5/mh"));
    tb.ha_module().register_metrics(&reg.scope("c5/ha"));

    let s = sender_mut(&mut tb, sender_mid);
    let sent = s.sent();
    let received = s.received();
    let lost_before = s.lost_in_window(settled, crash_at);
    let lost_during = s.lost_in_window(crash_at, reconverged);
    let lost_after = s.lost_in_window(reconverged, end - C5_TAIL_MARGIN);
    let lost_during_times_us: Vec<u64> = s
        .lost_sent_times(crash_at, reconverged)
        .into_iter()
        .map(|t| t.as_micros())
        .collect();
    let reconverged_ms = reconverged.saturating_since(crash_at).as_millis();

    let mut metrics = Json::obj([
        ("seed", Json::UInt(seed)),
        (
            "timeline_ms",
            Json::obj([
                ("settled", Json::UInt(settled.as_millis())),
                ("crash", Json::UInt(crash_at.as_millis())),
                ("restart", Json::UInt((crash_at + C5_DOWNTIME).as_millis())),
                ("reconverged", Json::UInt(reconverged.as_millis())),
                ("end", Json::UInt(end.as_millis())),
            ]),
        ),
        (
            "echo",
            Json::obj([
                ("sent", Json::UInt(sent)),
                ("received", Json::UInt(received)),
                ("lost_before", Json::UInt(lost_before)),
                ("lost_during", Json::UInt(lost_during)),
                ("lost_after", Json::UInt(lost_after)),
            ]),
        ),
        (
            "recovery",
            Json::obj([
                ("reconverged_ms", Json::UInt(reconverged_ms)),
                ("epoch_changes", Json::UInt(epoch_changes)),
                ("journal_replayed", Json::UInt(journal_replayed)),
                ("journal_len", Json::UInt(journal_len)),
                ("ha_epoch", Json::UInt(ha_epoch)),
                ("requests_sent", Json::UInt(requests)),
                ("retries", Json::UInt(retries)),
            ]),
        ),
        ("registry", reg.to_json()),
    ]);
    append_profile(&tb, &mut metrics);
    let journeys = journeys_json(&tb, Some("ch-dept"));
    let ch = tb.ch_dept;
    let blackout = tb
        .sim
        .flights()
        .blackout(ch.0 as u32)
        .map(|b| (b.lost, b.first.as_micros(), b.last.as_micros()));
    let captures = tb.sim.flights().captures().to_vec();
    C5Result {
        sent,
        received,
        lost_before,
        lost_during,
        lost_after,
        reconverged_ms,
        epoch_changes,
        journal_replayed,
        ha_epoch,
        metrics,
        journeys,
        blackout,
        lost_during_times_us,
        captures,
    }
}

// ---------------------------------------------------------------- C6

/// Result of the standby-failover chaos experiment (claim C6): the
/// primary home agent crashes for good, and the mobile host — after its
/// retry budget exhausts and a brief agent-less degradation — fails over
/// to the standby agent, which has been absorbing binding replicas and
/// takes over proxy ARP and tunneling.
#[derive(Debug)]
pub struct C6Result {
    /// Inbound (CH→MH) probes sent / replies received.
    pub in_sent: u64,
    /// Inbound replies received.
    pub in_received: u64,
    /// Inbound probes lost between the crash and failover completion.
    pub in_lost_during: u64,
    /// Inbound probes lost after failover (acceptance: 0).
    pub in_lost_after: u64,
    /// Outbound (MH→CH) probes lost after failover (acceptance: 0).
    pub out_lost_after: u64,
    /// Crash-to-failover, milliseconds.
    pub failover_ms: u64,
    /// MH home-agent failovers (expect 1).
    pub ha_failovers: u64,
    /// MH entries into degraded agent-less forwarding (expect 1).
    pub degradations: u64,
    /// Policy lookups resolved as DirectEncap — the degraded window's
    /// footprint (expect > 0).
    pub direct_encap_lookups: u64,
    /// Registrations the standby accepted directly (expect >= 1).
    pub standby_accepted: u64,
    /// Binding replicas the standby applied while passive.
    pub replicas_applied: u64,
    /// Packets the standby tunneled to the MH after taking over.
    pub standby_encapsulated: u64,
    /// The metrics sidecar document.
    pub metrics: Json,
    /// The flight-recorder journeys sidecar document.
    pub journeys: Json,
}

impl C6Result {
    /// Renders the summary scalars for the combined-results JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("in_sent", Json::UInt(self.in_sent)),
            ("in_received", Json::UInt(self.in_received)),
            ("in_lost_during", Json::UInt(self.in_lost_during)),
            ("in_lost_after", Json::UInt(self.in_lost_after)),
            ("out_lost_after", Json::UInt(self.out_lost_after)),
            ("failover_ms", Json::UInt(self.failover_ms)),
            ("ha_failovers", Json::UInt(self.ha_failovers)),
            ("degradations", Json::UInt(self.degradations)),
            (
                "direct_encap_lookups",
                Json::UInt(self.direct_encap_lookups),
            ),
            ("standby_accepted", Json::UInt(self.standby_accepted)),
            ("replicas_applied", Json::UInt(self.replicas_applied)),
            (
                "standby_encapsulated",
                Json::UInt(self.standby_encapsulated),
            ),
        ])
    }
}

/// Settled time before the primary dies.
const C6_CRASH_AFTER: SimDuration = SimDuration::from_secs(5);
/// The primary never comes back inside the run.
const C6_NO_RESTART: SimDuration = SimDuration::from_secs(600);
/// Post-failover observation window.
const C6_POST: SimDuration = SimDuration::from_secs(15);
/// Failover poll cap: renewal loss, a full retry budget, the binding
/// lapse, and a second budget all fit well inside this.
const C6_FAILOVER_CAP: SimDuration = SimDuration::from_secs(180);

/// Runs claim C6: kill the primary home agent permanently and measure
/// the failover to the replica-fed standby. Everything derives from
/// `seed`.
pub fn run_c6(seed: u64) -> C6Result {
    let reg = MetricsRegistry::new();
    let mut tb = build(TestbedConfig {
        seed,
        ha_on_router: false,
        with_standby_ha: true,
        mh_lifetime: C5_LIFETIME_SECS,
        ..TestbedConfig::default()
    });
    let in_mid = install_echo(&mut tb, C5_ECHO_INTERVAL);
    // An outbound stream too: MH → department correspondent. During the
    // degraded window its packets leave as direct encapsulation, so the
    // correspondent must decapsulate.
    let ch = tb.ch_dept;
    stack::add_module(&mut tb.sim, ch, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    tb.sim.world_mut().host_mut(ch).core.ipip_decap = true;
    let mh = tb.mh;
    let out_mid = stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(UdpEchoSender::new((CH_DEPT, ECHO_PORT), C5_ECHO_INTERVAL)),
    );
    settle_on_dept(&mut tb);
    let settled = tb.sim.now();
    let standby_host = tb.standby_host.expect("standby built");
    let standby_encap = |tb: &Testbed| {
        tb.sim
            .world()
            .host(standby_host)
            .core
            .stats
            .encapsulated
            .get()
    };
    let encap0 = standby_encap(&tb);

    let crash_at = settled + C6_CRASH_AFTER;
    script_ha_crash(&mut tb, &reg.scope("c6/primary"), crash_at, C6_NO_RESTART);

    tb.run_for(C6_CRASH_AFTER);
    // Poll until the MH holds an accepted registration *at the standby*.
    let at_standby = poll_until(&mut tb, C6_FAILOVER_CAP, |tb| {
        let m = tb.mh_module();
        m.reg.home_agent() == STANDBY_HA && m.away_status().map(|s| s.2).unwrap_or(false)
    });
    assert!(
        at_standby,
        "MH failed to fail over to the standby home agent"
    );
    let failover = tb.sim.now();
    tb.run_for(C6_POST);
    let end = tb.sim.now();

    let (ha_failovers, degradations, exhausted, lapses, direct_encap_lookups) = {
        let m = tb.mh_module();
        (
            m.reg.stats.ha_failovers.get(),
            m.reg.stats.degradations.get(),
            m.reg.stats.backoff_exhausted.get(),
            m.reg.stats.binding_lapses.get(),
            m.policy.stats.counter_for(SendMode::DirectEncap).get(),
        )
    };
    let (standby_accepted, replicas_applied) = {
        let sb = tb.standby_module();
        (sb.stats.accepted.get(), sb.stats.replicas_applied.get())
    };
    let standby_encapsulated = standby_encap(&tb) - encap0;
    stack::Module::register_metrics(tb.mh_module(), &reg.scope("c6/mh"));
    tb.standby_module()
        .register_metrics(&reg.scope("c6/standby"));

    let (in_sent, in_received, in_lost_during, in_lost_after) = {
        let s = sender_mut(&mut tb, in_mid);
        (
            s.sent(),
            s.received(),
            s.lost_in_window(crash_at, failover),
            s.lost_in_window(failover, end - C5_TAIL_MARGIN),
        )
    };
    let (out_lost_during, out_lost_after) = {
        let s: &mut UdpEchoSender = tb.module(mh, out_mid);
        (
            s.lost_in_window(crash_at, failover),
            s.lost_in_window(failover, end - C5_TAIL_MARGIN),
        )
    };
    let failover_ms = failover.saturating_since(crash_at).as_millis();

    let mut metrics = Json::obj([
        ("seed", Json::UInt(seed)),
        (
            "timeline_ms",
            Json::obj([
                ("settled", Json::UInt(settled.as_millis())),
                ("crash", Json::UInt(crash_at.as_millis())),
                ("failover", Json::UInt(failover.as_millis())),
                ("end", Json::UInt(end.as_millis())),
            ]),
        ),
        (
            "echo",
            Json::obj([
                ("in_sent", Json::UInt(in_sent)),
                ("in_received", Json::UInt(in_received)),
                ("in_lost_during", Json::UInt(in_lost_during)),
                ("in_lost_after", Json::UInt(in_lost_after)),
                ("out_lost_during", Json::UInt(out_lost_during)),
                ("out_lost_after", Json::UInt(out_lost_after)),
            ]),
        ),
        (
            "failover",
            Json::obj([
                ("failover_ms", Json::UInt(failover_ms)),
                ("ha_failovers", Json::UInt(ha_failovers)),
                ("degradations", Json::UInt(degradations)),
                ("backoff_exhausted", Json::UInt(exhausted)),
                ("binding_lapses", Json::UInt(lapses)),
                ("direct_encap_lookups", Json::UInt(direct_encap_lookups)),
                ("standby_accepted", Json::UInt(standby_accepted)),
                ("replicas_applied", Json::UInt(replicas_applied)),
                ("standby_encapsulated", Json::UInt(standby_encapsulated)),
            ]),
        ),
        ("registry", reg.to_json()),
    ]);
    append_profile(&tb, &mut metrics);
    let journeys = journeys_json(&tb, Some("ch-dept"));
    C6Result {
        in_sent,
        in_received,
        in_lost_during,
        in_lost_after,
        out_lost_after,
        failover_ms,
        ha_failovers,
        degradations,
        direct_encap_lookups,
        standby_accepted,
        replicas_applied,
        standby_encapsulated,
        metrics,
        journeys,
    }
}

// ---------------------------------------------------------------- C7

/// Result of the spoofed/replayed-registration chaos experiment (claim
/// C7): with registration authentication required, an on-subnet attacker
/// injecting forged and byte-exact replayed registrations — before and
/// after a home-agent crash/restart — never moves the binding, never
/// gets a registration accepted, and never perturbs the mobile host's
/// traffic outside the crash window itself.
#[derive(Debug)]
pub struct C7Result {
    /// Echo probes the correspondent sent over the whole run.
    pub sent: u64,
    /// Echo replies it got back.
    pub received: u64,
    /// Probes lost across the spoof + replay phases (acceptance: 0 — the
    /// attack must not disturb the session).
    pub lost_attack: u64,
    /// Probes lost after the post-crash reconvergence (acceptance: 0).
    pub lost_after: u64,
    /// Forged registrations injected (unsigned and wrong-key).
    pub spoofs: u64,
    /// Byte-exact replayed registrations injected (incl. post-restart).
    pub replays: u64,
    /// Injections the home agent accepted (acceptance: 0).
    pub attacker_accepted: u64,
    /// Denial replies the attacker collected (expect = injections).
    pub attacker_denied: u64,
    /// Home-agent `reg/auth_fail` count (expect = spoofs).
    pub auth_failures: u64,
    /// Home-agent `reg/auth_replay` count (expect = replays).
    pub auth_replays: u64,
    /// True when the binding pointed at the genuine care-of address at
    /// every checkpoint (acceptance: true).
    pub binding_intact: bool,
    /// The agent's boot epoch at the end of the run (expect 1).
    pub ha_epoch: u64,
    /// The metrics sidecar document.
    pub metrics: Json,
    /// The flight-recorder journeys sidecar document.
    pub journeys: Json,
}

impl C7Result {
    /// Renders the summary scalars for the combined-results JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sent", Json::UInt(self.sent)),
            ("received", Json::UInt(self.received)),
            ("lost_attack", Json::UInt(self.lost_attack)),
            ("lost_after", Json::UInt(self.lost_after)),
            ("spoofs", Json::UInt(self.spoofs)),
            ("replays", Json::UInt(self.replays)),
            ("attacker_accepted", Json::UInt(self.attacker_accepted)),
            ("attacker_denied", Json::UInt(self.attacker_denied)),
            ("auth_failures", Json::UInt(self.auth_failures)),
            ("auth_replays", Json::UInt(self.auth_replays)),
            ("binding_intact", Json::Bool(self.binding_intact)),
            ("ha_epoch", Json::UInt(self.ha_epoch)),
        ])
    }
}

/// SPI provisioned for the MH/HA pair in the keyed topology.
const C7_SPI: u32 = 0x100;
/// The shared key. In a real deployment this comes from out-of-band
/// provisioning; in the testbed it is part of the topology (the attacker
/// does not have it — that is the point).
const C7_KEY: u64 = 0x6d6f_7371_7569_746f;
/// Identification the forger guesses. Far above anything the MH will
/// use, proving the upfront auth check (not the replay window) stops it.
const C7_SPOOF_IDENT: u64 = 1 << 40;
/// Observation window after each injection batch.
const C7_PHASE: SimDuration = SimDuration::from_secs(2);
/// How long the agent stays down.
const C7_DOWNTIME: SimDuration = SimDuration::from_secs(4);
/// Post-reconvergence observation window.
const C7_POST: SimDuration = SimDuration::from_secs(6);

/// Runs claim C7: spoof and replay registrations at a home agent that
/// requires authentication, crash/restart the agent in between, and
/// verify the binding never moves and the replay floor survives the
/// restart. Everything derives from `seed`.
pub fn run_c7(seed: u64) -> C7Result {
    let reg = MetricsRegistry::new();
    let mut tb = build(TestbedConfig {
        seed,
        ha_on_router: false,
        mh_lifetime: C5_LIFETIME_SECS,
        mh_auth: Some((C7_SPI, C7_KEY)),
        ha_auth_key: Some((C7_SPI, C7_KEY)),
        with_attacker: true,
        ..TestbedConfig::default()
    });
    let sender_mid = install_echo(&mut tb, C5_ECHO_INTERVAL);
    let attacker_host = tb.attacker_host.expect("attacker host");
    let att_mid = stack::add_module(
        &mut tb.sim,
        attacker_host,
        Box::new(RegistrationAttacker::new(HA_SEPARATE)),
    );

    settle_on_dept(&mut tb);
    let settled = tb.sim.now();
    let binding_at = |tb: &mut Testbed| {
        let now = tb.sim.now();
        tb.ha_module().bindings.get(MH_HOME, now).map(|b| b.care_of)
    };
    let mut binding_intact = binding_at(&mut tb) == Some(COA_DEPT);

    // Phase A — forgery. The attacker knows the protocol and the MH's
    // home address but not the key: one unsigned request, one signed
    // with a guessed key, both pointing the binding at the attacker.
    let forged = RegistrationRequest {
        lifetime: 600,
        home_addr: MH_HOME,
        home_agent: HA_SEPARATE,
        care_of: ATTACKER_DEPT,
        ident: C7_SPOOF_IDENT,
        auth: None,
    };
    let wrong_key = forged.sign(C7_SPI, 0x4141_4141_4141_4141);
    {
        let a = tb.module::<RegistrationAttacker>(attacker_host, att_mid);
        a.inject(forged.to_bytes(), "attacker injects unsigned forgery");
        a.inject(wrong_key.to_bytes(), "attacker injects wrong-key forgery");
    }
    tb.run_for(C7_PHASE);
    binding_intact &= binding_at(&mut tb) == Some(COA_DEPT);

    // Phase B — replay. Being on the visited LAN, the attacker could
    // capture the MH's registration off the wire; the MAC is over the
    // message, so the capture carries a valid signature. Reconstruct the
    // byte-exact capture from the agent's accepted state (signing is
    // deterministic) and play it back twice: verbatim and one older.
    let floor = tb.ha_module().bindings.last_ident(MH_HOME);
    assert!(floor > 0, "MH never registered");
    let captured = |ident: u64| {
        RegistrationRequest {
            lifetime: C5_LIFETIME_SECS,
            home_addr: MH_HOME,
            home_agent: HA_SEPARATE,
            care_of: COA_DEPT,
            ident,
            auth: None,
        }
        .sign(C7_SPI, C7_KEY)
        .to_bytes()
    };
    {
        let a = tb.module::<RegistrationAttacker>(attacker_host, att_mid);
        a.inject(captured(floor), "attacker injects verbatim replay");
        a.inject(
            captured(floor.saturating_sub(1)),
            "attacker injects stale replay",
        );
    }
    tb.run_for(C7_PHASE);
    binding_intact &= binding_at(&mut tb) == Some(COA_DEPT);
    let attack_end = tb.sim.now();

    // Phase C — the PR 4 restart path. Crash the agent (journal intact),
    // let the MH reconverge, then replay the pre-crash capture again:
    // the journal-restored floor must still refuse it.
    let crash_at = attack_end;
    script_ha_crash(&mut tb, &reg.scope("c7/ha"), crash_at, C7_DOWNTIME);

    tb.run_for(C7_DOWNTIME);
    assert!(
        poll_until(&mut tb, C5_RECONVERGE_CAP, reconverged_after_restart),
        "MH failed to reconverge after the home agent restart"
    );
    let reconverged = tb.sim.now();
    tb.module::<RegistrationAttacker>(attacker_host, att_mid)
        .inject(captured(floor), "attacker injects post-restart replay");
    tb.run_for(C7_POST);
    let end = tb.sim.now();
    binding_intact &= binding_at(&mut tb) == Some(COA_DEPT);

    let (auth_failures, auth_replays, ha_epoch) = {
        let ha = tb.ha_module();
        (
            ha.stats.auth_fail.get(),
            ha.stats.auth_replay.get(),
            u64::from(ha.epoch()),
        )
    };
    stack::Module::register_metrics(tb.mh_module(), &reg.scope("c7/mh"));
    tb.ha_module().register_metrics(&reg.scope("c7/ha"));
    let (injected, attacker_accepted, attacker_denied) = {
        let a = tb.module::<RegistrationAttacker>(attacker_host, att_mid);
        stack::Module::register_metrics(a, &reg.scope("c7/attacker"));
        (a.injected.get(), a.accepted.get(), a.denied.get())
    };
    let spoofs = 2;
    let replays = injected - spoofs;

    let s = sender_mut(&mut tb, sender_mid);
    let sent = s.sent();
    let received = s.received();
    let lost_attack = s.lost_in_window(settled, attack_end);
    let lost_during = s.lost_in_window(crash_at, reconverged);
    let lost_after = s.lost_in_window(reconverged, end - C5_TAIL_MARGIN);

    let mut metrics = Json::obj([
        ("seed", Json::UInt(seed)),
        (
            "timeline_ms",
            Json::obj([
                ("settled", Json::UInt(settled.as_millis())),
                ("attack_end", Json::UInt(attack_end.as_millis())),
                ("crash", Json::UInt(crash_at.as_millis())),
                ("restart", Json::UInt((crash_at + C7_DOWNTIME).as_millis())),
                ("reconverged", Json::UInt(reconverged.as_millis())),
                ("end", Json::UInt(end.as_millis())),
            ]),
        ),
        (
            "echo",
            Json::obj([
                ("sent", Json::UInt(sent)),
                ("received", Json::UInt(received)),
                ("lost_attack", Json::UInt(lost_attack)),
                ("lost_during_crash", Json::UInt(lost_during)),
                ("lost_after", Json::UInt(lost_after)),
            ]),
        ),
        (
            "attack",
            Json::obj([
                ("spoofs", Json::UInt(spoofs)),
                ("replays", Json::UInt(replays)),
                ("injected", Json::UInt(injected)),
                ("attacker_accepted", Json::UInt(attacker_accepted)),
                ("attacker_denied", Json::UInt(attacker_denied)),
                ("auth_failures", Json::UInt(auth_failures)),
                ("auth_replays", Json::UInt(auth_replays)),
                ("replay_floor", Json::UInt(floor)),
                ("binding_intact", Json::Bool(binding_intact)),
                ("ha_epoch", Json::UInt(ha_epoch)),
            ]),
        ),
        ("registry", reg.to_json()),
    ]);
    append_profile(&tb, &mut metrics);
    let journeys = journeys_json(&tb, Some("ch-dept"));
    C7Result {
        sent,
        received,
        lost_attack,
        lost_after,
        spoofs,
        replays,
        attacker_accepted,
        attacker_denied,
        auth_failures,
        auth_replays,
        binding_intact,
        ha_epoch,
        metrics,
        journeys,
    }
}

// ---------------------------------------------------------------- registry
//
// The roster of runs, once: the `experiment` binary, the docs-sync test
// and the golden table all look runs up here instead of keeping a copy.

/// One integer parameter of an experiment: `key=value` on the command
/// line, checked against the allowed range before anything runs.
#[derive(Clone, Copy, Debug)]
pub struct Param {
    /// The key, as typed.
    pub key: &'static str,
    /// Value used when the key is not given.
    pub default: u64,
    /// Smallest allowed value.
    pub min: u64,
    /// Largest allowed value.
    pub max: u64,
}

impl Param {
    /// A count that must be positive and fit the runners' `u32`.
    const fn count(key: &'static str, default: u64) -> Param {
        Param {
            key,
            default,
            min: 1,
            max: u32::MAX as u64,
        }
    }
}

/// Every seeded run takes the same seed parameter.
const SEED: Param = Param {
    key: "seed",
    default: 1996,
    min: 0,
    max: u64::MAX,
};

/// Engine batching on (1, the default) or off (0); results must be
/// byte-identical either way.
const BATCHING: Param = Param {
    key: "batching",
    default: 1,
    min: 0,
    max: 1,
};

/// Worker threads stepping the shards; any count gives the same bytes.
const THREADS: Param = Param {
    key: "threads",
    default: 1,
    min: 1,
    max: ShardedCampus::MAX_SHARDS as u64,
};

/// The checked parameter values of one run: every declared key, at its
/// given or default value.
#[derive(Clone, Debug)]
pub struct Params(Vec<(&'static str, u64)>);

impl Params {
    /// Parses `key=value` arguments against `exp`'s declared parameters.
    /// Unknown keys, repeated keys, non-integers and out-of-range values
    /// are errors that name the offending token; nothing is defaulted
    /// silently.
    pub fn parse<S: AsRef<str>>(exp: &Experiment, args: &[S]) -> Result<Params, String> {
        let mut values: Vec<(&'static str, u64)> =
            exp.params.iter().map(|p| (p.key, p.default)).collect();
        for (i, arg) in args.iter().enumerate() {
            let arg = arg.as_ref();
            let (key, value) = arg
                .split_once('=')
                .ok_or_else(|| format!("`{arg}` is not a key=value parameter"))?;
            let (param, slot) = exp
                .params
                .iter()
                .zip(&mut values)
                .find(|(p, _)| p.key == key)
                .ok_or_else(|| format!("`{arg}`: {} has no parameter `{key}`", exp.name))?;
            let same_key = |a: &S| a.as_ref().split_once('=').is_some_and(|(k, _)| k == key);
            if args[..i].iter().any(same_key) {
                return Err(format!("`{arg}`: {key} is given more than once"));
            }
            let v: u64 = value
                .parse()
                .map_err(|_| format!("`{arg}`: `{value}` is not an unsigned integer"))?;
            if !(param.min..=param.max).contains(&v) {
                return Err(format!(
                    "`{arg}`: {key} must be in {}..={}",
                    param.min, param.max
                ));
            }
            slot.1 = v;
        }
        Ok(Params(values))
    }

    /// The value of a declared parameter. Panics on an undeclared key —
    /// a bug in the registry entry, not a user error.
    pub fn get(&self, key: &str) -> u64 {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("parameter `{key}` is not declared"))
            .1
    }

    /// [`Params::get`] for the runners' `u32` arguments; the declared
    /// range guarantees the fit.
    fn get_u32(&self, key: &str) -> u32 {
        u32::try_from(self.get(key)).expect("range declared within u32")
    }
}

/// One file a run writes into the artifact directory.
#[derive(Debug)]
pub enum Artifact {
    /// A byte-stable sidecar `{name}.{kind}.json`.
    Sidecar(SidecarKind, &'static str, Json),
    /// A wire capture `{name}.pcap`; written only when the capture is
    /// non-empty, i.e. the run was built with `MOSQUITONET_PCAP` set.
    Pcap(&'static str, Vec<CapturedFrame>),
}

impl Artifact {
    /// The file name minus its final extension, as declared in
    /// [`Experiment::artifacts`].
    pub fn stem(&self) -> String {
        match self {
            Artifact::Sidecar(kind, name, _) => format!("{name}.{}", kind.key()),
            Artifact::Pcap(name, _) => format!("{name}.pcap"),
        }
    }

    /// Writes the file into `dir`; `None` when there was nothing to write
    /// (an empty capture).
    pub fn write_in(&self, dir: &Path) -> std::io::Result<Option<PathBuf>> {
        match self {
            Artifact::Sidecar(kind, name, body) => {
                report::write_sidecar_in(dir, *kind, name, body).map(Some)
            }
            Artifact::Pcap(name, frames) => report::write_pcap_in(dir, name, frames),
        }
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The paper-format report, printed to stdout.
    pub report: String,
    /// The run's members of the combined `experiment all json=FILE`
    /// document.
    pub json: Vec<(&'static str, Json)>,
    /// The files to write, one per declared artifact stem.
    pub artifacts: Vec<Artifact>,
}

/// One entry of the experiment roster.
pub struct Experiment {
    /// The name the run is selected by.
    pub name: &'static str,
    /// One line on what it reproduces.
    pub about: &'static str,
    /// Its parameters, in usage order.
    pub params: &'static [Param],
    /// Stems of the files it writes (see [`Artifact::stem`]).
    pub artifacts: &'static [&'static str],
    /// Runs it.
    pub run: fn(&Params) -> Outcome,
}

impl Experiment {
    /// The one-line usage string, with each parameter's default and
    /// allowed range.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: experiment {}", self.name);
        for p in self.params {
            out.push_str(&format!(
                " [{}={} ({}..={})]",
                p.key, p.default, p.min, p.max
            ));
        }
        out
    }

    /// Looks an entry up by name.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        REGISTRY.iter().find(|e| e.name == name)
    }
}

/// An outcome whose one artifact is the metrics sidecar `name`.
fn with_metrics(
    report: String,
    json: (&'static str, Json),
    name: &'static str,
    metrics: Json,
) -> Outcome {
    Outcome {
        report,
        json: vec![json],
        artifacts: vec![Artifact::Sidecar(SidecarKind::Metrics, name, metrics)],
    }
}

/// A chaos outcome: metrics and journeys sidecars under `name`.
fn with_journeys(
    report: String,
    json: (&'static str, Json),
    name: &'static str,
    metrics: Json,
    journeys: Json,
) -> Outcome {
    let mut out = with_metrics(report, json, name, metrics);
    out.artifacts
        .push(Artifact::Sidecar(SidecarKind::Journeys, name, journeys));
    out
}

/// Shard count of S3's sharded variant; 1, 2, and 4 threads all divide
/// it evenly, so the golden table's thread loop covers every split.
const S3_SHARDS: u32 = 4;

/// Every run of the reproduction, in report order. `experiment all` runs
/// them top to bottom; EXPERIMENTS.md lists each name and artifact stem
/// (held in sync by `tests/docs_sync.rs`).
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        name: "tab1_same_subnet",
        about: "Table 1: packet loss switching care-of addresses on one subnet (§4)",
        params: &[Param::count("iterations", 20), SEED],
        artifacts: &["tab1.metrics"],
        run: |p| {
            let r = run_tab1(p.get_u32("iterations"), p.get("seed"));
            let json = ("tab1", r.to_json());
            with_metrics(report::render_tab1(&r), json, "tab1", r.metrics)
        },
    },
    Experiment {
        name: "tab1_far_correspondent",
        about: "Table 1 with the correspondent on a campus net beyond the cloud (§4)",
        params: &[SEED],
        artifacts: &["tab1_far.metrics"],
        run: |p| {
            let r = run_tab1_far(20, p.get("seed"));
            let json = ("tab1_far", r.to_json());
            with_metrics(report::render_tab1_far(&r), json, "tab1_far", r.metrics)
        },
    },
    Experiment {
        name: "fig6_device_switch",
        about: "Figure 6: packet loss for cold/hot Ethernet<->radio switches (§4)",
        params: &[Param::count("iterations", 10), SEED],
        artifacts: &["fig6.metrics"],
        run: |p| {
            let r = run_fig6(p.get_u32("iterations"), p.get("seed"));
            let json = ("fig6", r.to_json());
            with_metrics(report::render_fig6(&r), json, "fig6", r.metrics)
        },
    },
    Experiment {
        name: "fig7_registration",
        about: "Figure 7: the registration time-line breakdown (§4)",
        params: &[Param::count("runs", 10), SEED],
        artifacts: &["fig7.metrics"],
        run: |p| {
            let r = run_fig7(p.get_u32("runs"), p.get("seed"));
            let json = ("fig7", r.to_json());
            with_metrics(report::render_fig7(&r), json, "fig7", r.metrics)
        },
    },
    Experiment {
        name: "c1_encap_overhead",
        about: "C1: IP-in-IP encapsulation byte overhead (§3.2)",
        params: &[],
        artifacts: &["c1.metrics"],
        run: |_| {
            let rows = run_c1();
            let json = ("c1", Json::arr(rows.iter().map(C1Row::to_json)));
            // C1 is analytic (no simulated hosts); the sidecar carries an
            // empty registry so downstream tooling sees a uniform file set.
            let metrics = MetricsRegistry::new().to_json();
            with_metrics(report::render_c1(&rows), json, "c1", metrics)
        },
    },
    Experiment {
        name: "c2_radio_characteristics",
        about: "C2: radio RTT (200-250 ms) and effective throughput (30-40 kb/s) (§4)",
        params: &[Param::count("pings", 50), SEED],
        artifacts: &["c2.metrics"],
        run: |p| {
            let r = run_c2(p.get_u32("pings"), p.get("seed"));
            let json = ("c2", r.to_json());
            with_metrics(report::render_c2(&r), json, "c2", r.metrics)
        },
    },
    Experiment {
        name: "c3_triangle_route",
        about: "C3: triangle route vs. reverse tunnel, and the filter fallback (§3.2)",
        params: &[SEED],
        artifacts: &["c3.metrics"],
        run: |p| {
            let r = run_c3(p.get("seed"));
            let json = ("c3", r.to_json());
            with_metrics(report::render_c3(&r), json, "c3", r.metrics)
        },
    },
    Experiment {
        name: "c4_lossy_registration",
        about: "C4: address switches under a seeded 0-50 % frame-loss sweep",
        params: &[Param::count("switches", 4), SEED],
        artifacts: &["c4_lossy_registration.metrics"],
        run: |p| {
            let r = run_c4(p.get_u32("switches"), p.get("seed"));
            let json = ("c4", r.to_json());
            with_metrics(
                report::render_c4(&r),
                json,
                "c4_lossy_registration",
                r.metrics,
            )
        },
    },
    Experiment {
        name: "c5_ha_crash_recovery",
        about: "C5: the home agent crashes mid-session and restarts from its journal",
        params: &[SEED],
        artifacts: &[
            "c5_ha_crash_recovery.metrics",
            "c5_ha_crash_recovery.journeys",
            "c5_ha_crash_recovery.pcap",
        ],
        run: |p| {
            let r = run_c5(p.get("seed"));
            let mut out = with_journeys(
                report::render_c5(&r),
                ("c5", r.to_json()),
                "c5_ha_crash_recovery",
                r.metrics,
                r.journeys,
            );
            out.artifacts
                .push(Artifact::Pcap("c5_ha_crash_recovery", r.captures));
            out
        },
    },
    Experiment {
        name: "c6_standby_failover",
        about: "C6: the primary dies for good; the MH fails over to the standby",
        params: &[SEED],
        artifacts: &[
            "c6_standby_failover.metrics",
            "c6_standby_failover.journeys",
        ],
        run: |p| {
            let r = run_c6(p.get("seed"));
            with_journeys(
                report::render_c6(&r),
                ("c6", r.to_json()),
                "c6_standby_failover",
                r.metrics,
                r.journeys,
            )
        },
    },
    Experiment {
        name: "c7_spoofed_registration",
        about: "C7: forged and replayed registrations against an authenticating agent",
        params: &[SEED],
        artifacts: &[
            "c7_spoofed_registration.metrics",
            "c7_spoofed_registration.journeys",
        ],
        run: |p| {
            let r = run_c7(p.get("seed"));
            with_journeys(
                report::render_c7(&r),
                ("c7", r.to_json()),
                "c7_spoofed_registration",
                r.metrics,
                r.journeys,
            )
        },
    },
    Experiment {
        name: "a1_foreign_agent_ablation",
        about: "A1: hand-off loss with and without foreign agents / forwarding (§5.1)",
        params: &[Param::count("iterations", 10), SEED],
        artifacts: &["a1.metrics"],
        run: |p| {
            let r = run_a1(p.get_u32("iterations"), p.get("seed"));
            let json = ("a1", r.to_json());
            with_metrics(report::render_a1(&r), json, "a1", r.metrics)
        },
    },
    Experiment {
        name: "a2_ha_scaling",
        about: "A2: home-agent reply latency under simultaneous registration bursts (§4)",
        params: &[SEED],
        artifacts: &["a2.metrics"],
        run: |p| {
            let (rows, metrics) = run_a2(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512], p.get("seed"));
            let json = ("a2", Json::arr(rows.iter().map(A2Row::to_json)));
            let mut out = with_metrics(report::render_a2(&rows), json, "a2", metrics.clone());
            out.json.push(("a2_metrics", metrics));
            out
        },
    },
    Experiment {
        name: "a3_address_reuse",
        about: "A3: tunneled-packet mis-delivery under both DHCP reuse policies (§5.1)",
        params: &[SEED],
        artifacts: &["a3.metrics"],
        run: |p| {
            let r = run_a3(p.get("seed"));
            let json = ("a3", r.to_json());
            with_metrics(report::render_a3(&r), json, "a3", r.metrics)
        },
    },
    Experiment {
        name: "s1_many_correspondents",
        about: "S1: the route/policy decision cache across ~10 000 correspondents",
        params: &[
            Param {
                key: "correspondents",
                default: 10_000,
                min: 1,
                // The 36.200.0.0/16 correspondent plan.
                max: 65_536,
            },
            SEED,
        ],
        artifacts: &["s1_many_correspondents.metrics"],
        run: |p| {
            let r = run_s1(p.get_u32("correspondents"), p.get("seed"));
            let json = ("s1", r.to_json());
            with_metrics(
                report::render_s1(&r),
                json,
                "s1_many_correspondents",
                r.metrics,
            )
        },
    },
    Experiment {
        name: "s2_ha_fleet",
        about: "S2: a sharded home-agent fleet serving 100k mobile hosts under Zipf churn",
        params: &[
            Param {
                key: "shards",
                default: 16,
                min: ShardedCampus::MIN_SHARDS as u64,
                max: ShardedCampus::MAX_SHARDS as u64,
            },
            Param {
                key: "mobile_hosts",
                default: 100_000,
                min: ShardedCampus::MIN_SHARDS as u64,
                // Homes count up from 36.0.0.1 inside 36.0.0.0/8.
                max: (1 << 24) - 2,
            },
            Param::count("burst", 16),
            Param::count("ticks", 600),
            SEED,
            BATCHING,
            THREADS,
        ],
        artifacts: &["s2_fleet.bench", "s2_fleet.journeys", "s2_fleet.metrics"],
        run: |p| {
            let cfg = S2Config {
                shards: p.get_u32("shards"),
                mobile_hosts: p.get_u32("mobile_hosts"),
                burst: p.get_u32("burst"),
                ticks: p.get_u32("ticks"),
                seed: p.get("seed"),
                batching: p.get("batching") != 0,
            };
            let r = run_s2(&cfg, p.get("threads") as usize);
            Outcome {
                report: report::render_s2(&r),
                json: vec![("s2", r.to_json())],
                artifacts: vec![
                    Artifact::Sidecar(SidecarKind::Bench, "s2_fleet", r.to_json()),
                    Artifact::Sidecar(SidecarKind::Journeys, "s2_fleet", r.journeys),
                    Artifact::Sidecar(SidecarKind::Metrics, "s2_fleet", r.metrics),
                ],
            }
        },
    },
    Experiment {
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
            BATCHING,
            THREADS,
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
                batching: p.get("batching") != 0,
            };
            let r = run_s3(&cfg);
            let sharded = run_s3_sharded(&cfg, S3_SHARDS, p.get("threads") as usize);
            Outcome {
                report: report::render_s3(&r) + &report::render_s3_sharded(&sharded),
                json: vec![("s3", r.to_json()), ("s3_sharded", sharded.to_json())],
                artifacts: vec![
                    Artifact::Sidecar(SidecarKind::Bench, "s3_saturation", r.to_json()),
                    Artifact::Sidecar(SidecarKind::Bench, "s3_sharded", sharded.to_json()),
                    Artifact::Sidecar(SidecarKind::Journeys, "s3_sharded", sharded.journeys),
                    Artifact::Sidecar(SidecarKind::Metrics, "s3_sharded", sharded.metrics),
                ],
            }
        },
    },
];
