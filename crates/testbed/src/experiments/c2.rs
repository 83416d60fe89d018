//! Claim C2 (§4): the Metricom radio's round-trip time and goodput.

use mosquitonet_core::{SendMode, SwitchStyle};
use mosquitonet_sim::{Json, SimDuration};
use mosquitonet_stack as stack;
use mosquitonet_wire::Cidr;

use super::common::{default_testbed, radio_plan, summary_ms};
use super::{metrics, with_result, Experiment, Param, SEED};
use crate::report;
use crate::topology::{CH_DEPT, COA_RADIO, ROUTER_RADIO};
use crate::workload::{SaturationSender, SaturationSink, UdpEchoResponder, UdpEchoSender};

/// Runs the radio characterization (claim C2, §4). Returns the metrics
/// body: `result` (the echo RTT over the radio as a summary in ms,
/// `rtt_ms`; the measured bulk `goodput_kbps`; the radios'
/// `theoretical_kbps`), then every host's registry.
pub fn run_c2(pings: u32, seed: u64) -> Json {
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
    let mut bulk = SaturationSender::new((CH_DEPT, 5001), 1, SimDuration::ZERO, 60);
    bulk.payload_len = 500;
    stack::add_module(&mut tb.sim, mh, Box::new(bulk));
    tb.run_for(SimDuration::from_secs(90));
    let sink: &mut SaturationSink = tb.module(ch, sink_mid);
    let goodput_kbps = sink.goodput_kbps().expect("transfer completed");
    let result = Json::obj([
        ("rtt_ms", rtt_ms.to_json()),
        ("goodput_kbps", Json::from(goodput_kbps)),
        ("theoretical_kbps", Json::from(100.0)),
    ]);
    with_result(result, tb.sim.metrics().to_json())
}

pub(super) const C2: Experiment = Experiment {
    name: "c2_radio_characteristics",
    about: "C2: radio RTT (200-250 ms) and effective throughput (30-40 kb/s) (§4)",
    params: &[Param::count("pings", 50), SEED],
    artifacts: &["c2.metrics"],
    run: |p| metrics("c2", run_c2(p.get_u32("pings"), p.get("seed"))),
    render: report::render_c2,
};
