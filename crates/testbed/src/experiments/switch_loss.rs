//! Packet loss across a switch: Table 1's same-subnet switch, Figure 6's
//! device switches and the A1 foreign-agent ablation, all measured by
//! one phase-randomised switch-and-count loop.

use mosquitonet_core::{AddressPlan, SwitchStyle};
use mosquitonet_sim::{Histogram, Json, SimDuration};
use mosquitonet_stack::{HostId, ModuleId};

use super::common::{
    default_testbed, eth_plan, foreign_address, install_echo, install_echo_from, radio_plan,
    settle_fa_mh_on_foreign, settle_on_dept, settle_on_foreign, switch_dept_address,
};
use super::{metrics, with_result, Experiment, Param, SEED};
use crate::report;
use crate::topology::{
    self, build, MhMode, Testbed, TestbedConfig, COA_DEPT, COA_DEPT_ALT, COA_FOREIGN2,
};
use crate::workload::UdpEchoSender;

/// Extra time after the last switch for stragglers to land before the
/// windows are counted.
const DRAIN: SimDuration = SimDuration::from_secs(2);

/// The handover-loss method of "A Review: Study of Handover Performance
/// in Mobile IP" (PAPERS.md), shared by Table 1, Figure 6 and A1.
/// `iterations` times: wait a random phase of the `echo` sender's clock
/// (as wall-clock scheduling did for the paper's runs), run `switch(tb,
/// i)`, measure for `window`, then `settle`. After the drain, each
/// window's lost probes are recorded into a histogram with buckets
/// `0..=max_bucket`; the worst window comes back beside it.
fn count_switch_losses(
    tb: &mut Testbed,
    echo: (HostId, ModuleId),
    iterations: u32,
    window: SimDuration,
    max_bucket: usize,
    mut switch: impl FnMut(&mut Testbed, u32),
    mut settle: impl FnMut(&mut Testbed),
) -> (Histogram, usize) {
    let interval = tb.module::<UdpEchoSender>(echo.0, echo.1).interval;
    let mut windows = Vec::new();
    for i in 0..iterations {
        let phase = tb.sim.rng().range_u64(0..interval.as_nanos());
        tb.run_for(SimDuration::from_nanos(phase));
        let t0 = tb.sim.now();
        switch(tb, i);
        tb.run_for(window);
        windows.push((t0, tb.sim.now()));
        settle(tb);
    }
    tb.run_for(DRAIN);

    let mut histogram = Histogram::new(max_bucket);
    let mut max_loss = 0;
    let sender: &mut UdpEchoSender = tb.module(echo.0, echo.1);
    for (t0, t1) in windows {
        let lost = sender.lost_in_window(t0, t1) as usize;
        histogram.record(lost);
        max_loss = max_loss.max(lost);
    }
    (histogram, max_loss)
}

// ---------------------------------------------------------------- Table 1

/// Runs the same-subnet address-switch experiment (§4, reported here as
/// Table 1) with the correspondent on the department net (the paper's
/// primary configuration): the paper saw, in 20 iterations at 10 ms
/// spacing, sixteen runs with no loss and four runs losing one packet.
///
/// Returns the metrics body: `result` (`iterations`, `interval_ms`, the
/// iterations-by-packets-lost `histogram` and the worst iteration's
/// `max_loss`), then every host's registry.
pub fn run_tab1(iterations: u32, seed: u64) -> Json {
    run_tab1_inner(iterations, seed, false)
}

/// Runs the Table 1 experiment with the correspondent on a campus network
/// beyond the Internet cloud — the paper: "we received similar results
/// for a correspondent host located on a campus network outside the
/// department" (§4).
pub fn run_tab1_far(iterations: u32, seed: u64) -> Json {
    run_tab1_inner(iterations, seed, true)
}

fn run_tab1_inner(iterations: u32, seed: u64, far: bool) -> Json {
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

    // The switch completes in ~7 ms; a 100 ms window comfortably bounds
    // the loss region, then settle before the next iteration.
    let (histogram, max_loss) = count_switch_losses(
        &mut tb,
        (ch, sender_mid),
        iterations,
        SimDuration::from_millis(100),
        10,
        |tb, i| switch_dept_address(tb, if i % 2 == 0 { COA_DEPT_ALT } else { COA_DEPT }),
        |tb| tb.run_for(SimDuration::from_millis(400)),
    );
    let result = Json::obj([
        ("iterations", Json::from(iterations)),
        ("interval_ms", Json::from(interval.as_millis())),
        ("histogram", histogram.to_json()),
        ("max_loss", Json::from(max_loss)),
    ]);
    with_result(result, tb.sim.metrics().to_json())
}

pub(super) const TAB1: Experiment = Experiment {
    name: "tab1_same_subnet",
    about: "Table 1: packet loss switching care-of addresses on one subnet (§4)",
    params: &[Param::count("iterations", 20), SEED],
    artifacts: &["tab1.metrics"],
    run: |p| metrics("tab1", run_tab1(p.get_u32("iterations"), p.get("seed"))),
    render: report::render_tab1,
};

pub(super) const TAB1_FAR: Experiment = Experiment {
    name: "tab1_far_correspondent",
    about: "Table 1 with the correspondent on a campus net beyond the cloud (§4)",
    params: &[SEED],
    artifacts: &["tab1_far.metrics"],
    run: |p| metrics("tab1_far", run_tab1_far(20, p.get("seed"))),
    render: report::render_tab1_far,
};

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

    /// Stable machine-readable key used in JSON exports.
    pub fn key(self) -> &'static str {
        match self {
            Fig6Scenario::ColdWiredToWireless => "cold_wired_to_wireless",
            Fig6Scenario::ColdWirelessToWired => "cold_wireless_to_wired",
            Fig6Scenario::HotWiredToWireless => "hot_wired_to_wireless",
            Fig6Scenario::HotWirelessToWired => "hot_wireless_to_wired",
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

/// Runs one Figure 6 scenario for `iterations` measured switches.
///
/// Returns the loss histogram plus the end-of-run dump of the test-bed's
/// metric registry (every host, every counter).
pub fn run_fig6_scenario(scenario: Fig6Scenario, iterations: u32, seed: u64) -> (Histogram, Json) {
    let mut tb = default_testbed(seed);
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(250));
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

    // Cold switches over the radio need bring-up (0.75 s) plus a
    // radio-RTT registration; 2.5 s bounds the loss window. Then switch
    // back (unmeasured) and settle.
    let echo = (tb.ch_dept, sender_mid);
    let (histogram, _) = count_switch_losses(
        &mut tb,
        echo,
        iterations,
        SimDuration::from_millis(2_500),
        12,
        |tb, _| tb.with_mh(|mh, ctx| mh.start_switch(ctx, measured)),
        |tb| {
            tb.with_mh(|mh, ctx| mh.start_switch(ctx, unmeasured));
            tb.run_for(SimDuration::from_secs(4));
        },
    );
    (histogram, tb.sim.metrics().to_json())
}

/// Runs all four Figure 6 scenarios. Returns the metrics body: `result`
/// (`iterations` per scenario, the paper's 250 ms `interval_ms`, and each
/// `scenario` key's loss `histogram`), then each scenario's registries
/// under its [`Fig6Scenario::key`] (each scenario runs its own test-bed).
pub fn run_fig6(iterations: u32, seed: u64) -> Json {
    let mut scenarios = Vec::new();
    let mut metrics = Vec::new();
    for (i, sc) in Fig6Scenario::all().into_iter().enumerate() {
        let (histogram, m) = run_fig6_scenario(sc, iterations, seed + i as u64);
        scenarios.push(Json::obj([
            ("scenario", Json::from(sc.key())),
            ("histogram", histogram.to_json()),
        ]));
        metrics.push((sc.key(), m));
    }
    let result = Json::obj([
        ("iterations", Json::from(iterations)),
        ("interval_ms", Json::UInt(250)),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    with_result(result, Json::obj(metrics))
}

pub(super) const FIG6: Experiment = Experiment {
    name: "fig6_device_switch",
    about: "Figure 6: packet loss for cold/hot Ethernet<->radio switches (§4)",
    params: &[Param::count("iterations", 10), SEED],
    artifacts: &["fig6.metrics"],
    run: |p| metrics("fig6", run_fig6(p.get_u32("iterations"), p.get("seed"))),
    render: report::render_fig6,
};

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

    /// Stable machine-readable key used in JSON exports.
    pub fn key(self) -> &'static str {
        match self {
            A1Mode::Agentless => "agentless",
            A1Mode::FaNoForwarding => "fa_no_forwarding",
            A1Mode::FaForwarding => "fa_forwarding",
        }
    }
}

fn run_a1_mode(mode: A1Mode, iterations: u32, seed: u64) -> (Histogram, Json) {
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
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(20));

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
    let echo = (tb.ch_dept, sender_mid);
    let (histogram, _) = count_switch_losses(
        &mut tb,
        echo,
        iterations,
        SimDuration::from_millis(1_500),
        40,
        |tb, hop| {
            let (target_lan, address) = cells[hop as usize % 2];
            tb.move_mh_eth(Some(target_lan));
            if fa {
                tb.with_fa_mh(|m, ctx| m.moved(ctx));
            } else {
                tb.with_mh(|m, ctx| m.switch_address(ctx, address));
            }
        },
        |tb| tb.run_for(SimDuration::from_secs(2)),
    );
    (histogram, tb.sim.metrics().to_json())
}

/// Runs the A1 ablation across all three modes. Returns the metrics
/// body: `result` (measured hand-offs per mode as `iterations`, the echo
/// `interval_ms`, and each `mode` key's loss `histogram`), then each
/// mode's registries under its [`A1Mode::key`] (each mode runs its own
/// test-bed).
pub fn run_a1(iterations: u32, seed: u64) -> Json {
    let mut per_mode = Vec::new();
    let mut metrics = Vec::new();
    for m in A1Mode::all() {
        let (histogram, reg) = run_a1_mode(m, iterations, seed);
        per_mode.push(Json::obj([
            ("mode", Json::from(m.key())),
            ("histogram", histogram.to_json()),
        ]));
        metrics.push((m.key(), reg));
    }
    let result = Json::obj([
        ("iterations", Json::from(iterations)),
        ("interval_ms", Json::UInt(20)),
        ("per_mode", Json::Arr(per_mode)),
    ]);
    with_result(result, Json::obj(metrics))
}

pub(super) const A1: Experiment = Experiment {
    name: "a1_foreign_agent_ablation",
    about: "A1: hand-off loss with and without foreign agents / forwarding (§5.1)",
    params: &[Param::count("iterations", 10), SEED],
    artifacts: &["a1.metrics"],
    run: |p| metrics("a1", run_a1(p.get_u32("iterations"), p.get("seed"))),
    render: report::render_a1,
};
