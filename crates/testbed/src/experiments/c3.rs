//! Claim C3 (§3.2): the triangle route against the reverse tunnel, and
//! the fallback when a foreign site filters transit traffic.

use mosquitonet_core::SendMode;
use mosquitonet_sim::{Json, SimDuration};
use mosquitonet_stack::{self as stack, ModuleId};
use mosquitonet_wire::Cidr;

use super::common::{settle_on_foreign, summary_ms, ECHO_PORT};
use super::{metrics, with_result, Experiment, SEED};
use crate::report;
use crate::topology::{build, Testbed, TestbedConfig, CH_FAR};
use crate::workload::{UdpEchoResponder, UdpEchoSender};

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

/// Runs the triangle-route comparison (claim C3, §3.2). Returns the
/// metrics body: `result` (echo RTT summaries in ms through the reverse
/// tunnel and with the triangle route, `tunnel_rtt_ms` and
/// `triangle_rtt_ms`; with a filtering foreign router, whether the probe
/// fell back, `fallback_triggered`, and whether echoes still flowed via
/// the tunnel after it, `post_fallback_delivery`), then the registries of
/// both phases (each runs its own test-bed).
pub fn run_c3(seed: u64) -> Json {
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
    let tunnel_rtt_ms = summary_ms(&tunnel_rtts).to_json();
    let triangle_rtt_ms = summary_ms(&all_rtts[tunnel_rtts.len()..]).to_json();

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

    let result = Json::obj([
        ("tunnel_rtt_ms", tunnel_rtt_ms),
        ("triangle_rtt_ms", triangle_rtt_ms),
        ("fallback_triggered", Json::from(fallback_triggered)),
        ("post_fallback_delivery", Json::from(post_fallback_delivery)),
    ]);
    let metrics = Json::obj([
        ("rtt_comparison", phase1_metrics),
        ("filter_fallback", tb.sim.metrics().to_json()),
    ]);
    with_result(result, metrics)
}

pub(super) const C3: Experiment = Experiment {
    name: "c3_triangle_route",
    about: "C3: triangle route vs. reverse tunnel, and the filter fallback (§3.2)",
    params: &[SEED],
    artifacts: &["c3.metrics"],
    run: |p| metrics("c3", run_c3(p.get("seed"))),
    render: report::render_c3,
};
