//! Golden-file test for the text trace of one drop-heavy run.
//!
//! The metrics and journeys goldens pin how many packets died and where;
//! this one pins what the trace says about it. The run is the
//! `tests/telemetry_drops.rs` cold Ethernet → radio switch plus a fault
//! plan on the department LAN, a carried-away cable, an IGMP join, a
//! capture tap, a crashed host and one probe per drop reason, so every
//! line the stack can write appears. The same run with the trace off must
//! change nothing but the trace. After a deliberate wording change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test trace_golden
//! ```

mod common;

use std::net::Ipv4Addr;

use bytes::Bytes;
use common::assert_golden;
use mosquitonet_core::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet_link::{FaultPlan, FaultRates};
use mosquitonet_sim::SimDuration;
use mosquitonet_stack::{self as stack, DropReason, HostId, IfaceId, RouteEntry, SendOptions};
use mosquitonet_testbed::topology::{
    self, build, Testbed, TestbedConfig, CH_DEPT, CH_FAR, COA_DEPT, COA_RADIO, MH_HOME,
    ROUTER_DEPT, ROUTER_RADIO,
};
use mosquitonet_testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet_wire::{Cidr, IcmpMessage, IpProto, Ipv4Header, Ipv4Packet, UdpDatagram};

const ECHO_PORT: u16 = 7;
const GROUP: Ipv4Addr = Ipv4Addr::new(224, 0, 1, 9);
const NOWHERE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
const SPOOFED: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
const ABSENT_DEPT: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 99);
const BOUNCED: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

/// What one run leaves behind.
struct Outcome {
    trace: String,
    entries: usize,
    metrics: String,
    journeys: String,
}

fn send(tb: &mut Testbed, host: HostId, header: Ipv4Header, payload: Bytes) {
    let packet = Ipv4Packet::new(header, payload);
    stack::ip_send_packet(&mut tb.sim, host, packet, SendOptions::default());
}

/// An echo request of `len` payload bytes; an unspecified `src` engages
/// source selection, a concrete one is carried as-is (the spoofing probe).
fn ping(tb: &mut Testbed, host: HostId, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, len: usize) {
    let mut header = Ipv4Header::new(src, dst, IpProto::Icmp);
    header.ttl = ttl;
    let echo = IcmpMessage::EchoRequest {
        ident: 1,
        seq: 1,
        payload: Bytes::from(vec![0; len]),
    };
    send(tb, host, header, echo.to_bytes());
}

fn cold_switch(tb: &mut Testbed, iface: IfaceId, addr: Ipv4Addr, subnet: Cidr, router: Ipv4Addr) {
    let address = AddressPlan::Static {
        addr,
        subnet,
        router,
    };
    let plan = SwitchPlan {
        iface,
        address,
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(tb.mh_module().away_status().map(|s| s.2).unwrap_or(false));
}

fn run(trace_on: bool) -> Outcome {
    let mut tb = build(TestbedConfig {
        seed: 1996,
        with_far_ch: true,
        transit_filter: true,
        ..TestbedConfig::default()
    });
    if !trace_on {
        // Bring-up lines were recorded while `build` ran.
        tb.sim.trace_mut().set_enabled(false);
        tb.sim.trace_mut().clear();
    }
    let (mh, ch, router, lan_dept) = (tb.mh, tb.ch_dept, tb.router, tb.lan_dept);
    let (eth, radio, router_dept_if) = (tb.mh_eth, tb.mh_radio, tb.router_dept_if);
    let ch_far = tb.ch_far.expect("built with a far correspondent");
    let unspec = Ipv4Addr::UNSPECIFIED;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    let echo = UdpEchoSender::new((MH_HOME, ECHO_PORT), SimDuration::from_millis(50));
    let sender = stack::add_module(&mut tb.sim, ch, Box::new(echo));

    // Settle on the department Ethernet (registered, echoes tunneled).
    tb.move_mh_eth(Some(lan_dept));
    cold_switch(&mut tb, eth, COA_DEPT, topology::dept_subnet(), ROUTER_DEPT);

    // Every kind of injected fault on the department wire until the probes.
    let rates = FaultRates {
        drop: 0.05,
        duplicate: 0.05,
        reorder: 0.05,
        corrupt: 0.05,
        delay: 0.05,
    };
    let now = tb.sim.now();
    let plan = FaultPlan::new(rates, 1996).with_window(now, now + SimDuration::from_secs(6));
    tb.sim.world_mut().lans[lan_dept.0].set_fault_plan(Some(plan));
    stack::register_metrics(&mut tb.sim);
    tb.run_for(SimDuration::from_secs(1));

    // The router's ARP cache is warm for the care-of address: a frame is
    // on the wire when the cable is carried away, then plugged back in.
    ping(&mut tb, router, unspec, COA_DEPT, 64, 0);
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_millis(5));
    tb.move_mh_eth(Some(lan_dept));

    // A group member hears a neighbour's IGMP report.
    let router_core = &mut tb.sim.world_mut().host_mut(router).core;
    router_core.join_multicast(router_dept_if, GROUP);
    stack::dispatch(&mut tb.sim, ch, sender, |_, ctx| {
        ctx.join_multicast(IfaceId(0), GROUP)
    });

    // The telemetry_drops switch: frames die at the powered-down NIC.
    let radio_subnet = topology::radio_subnet();
    cold_switch(&mut tb, radio, COA_RADIO, radio_subnet, ROUTER_RADIO);

    // One probe per remaining drop reason, watched by a capture tap.
    tb.sim.world_mut().host_mut(ch).core.capture = true;
    ping(&mut tb, ch, unspec, CH_FAR, 1, 0); // drop.ttl
    ping(&mut tb, ch, unspec, NOWHERE, 64, 0); // drop.no_route
    ping(&mut tb, ch, SPOOFED, CH_FAR, 64, 0); // drop.filter.ingress
    ping(&mut tb, ch, unspec, ROUTER_DEPT, 64, 2000); // drop.tx_mtu
    for _ in 0..4 {
        // One more than the ARP queue holds: drop.arp_queue, then three
        // drop.arp_failure when the retries run out.
        ping(&mut tb, ch, unspec, ABSENT_DEPT, 64, 0);
    }
    let stray = UdpDatagram::new(4000, 4001, Bytes::from_static(b"?"));
    let to_router = |proto| Ipv4Header::new(CH_DEPT, ROUTER_DEPT, proto);
    let datagram = stray.to_bytes(CH_DEPT, ROUTER_DEPT);
    send(&mut tb, ch, to_router(IpProto::Udp), datagram); // drop.no_socket
    send(&mut tb, ch, to_router(IpProto::Other(99)), Bytes::new()); // drop.unclaimed

    // drop.not_local: the router bounces this net back at a host that
    // does not forward.
    let router_core = &mut tb.sim.world_mut().host_mut(router).core;
    router_core.routes.add(RouteEntry {
        dest: "198.51.100.0/24".parse().expect("const"),
        gateway: Some(CH_DEPT),
        iface: router_dept_if,
        metric: 0,
    });
    ping(&mut tb, ch, unspec, BOUNCED, 64, 0);
    tb.run_for(SimDuration::from_millis(200));
    tb.sim.world_mut().host_mut(ch).core.capture = false;

    // A node crash and reboot while the ARP retries run out.
    stack::crash_host(&mut tb.sim, ch_far);
    tb.run_for(SimDuration::from_secs(2));
    stack::restart_host(&mut tb.sim, ch_far, true);
    tb.run_for(SimDuration::from_secs(3));

    let hosts = &tb.sim.world().hosts;
    let names: Vec<String> = hosts.iter().map(|h| h.core.name.clone()).collect();
    Outcome {
        trace: tb.sim.trace().render(),
        entries: tb.sim.trace().entries().len(),
        metrics: tb.sim.metrics().to_json().render_pretty(),
        journeys: tb.sim.flights().export(&names, None).render_pretty(),
    }
}

#[test]
fn drop_heavy_trace_matches_golden() {
    let out = run(true);
    // The run is only worth pinning while every reason fires in it.
    for reason in DropReason::ALL {
        let code = reason.code();
        assert!(out.journeys.contains(code), "{code} never fired");
    }
    assert_golden("drop_heavy.trace.txt", &out.trace);
}

#[test]
fn disabling_the_trace_changes_nothing_else() {
    let (on, off) = (run(true), run(false));
    assert_eq!(off.entries, 0, "a disabled trace recorded something");
    assert_eq!(on.metrics, off.metrics, "metrics depend on the trace");
    assert_eq!(on.journeys, off.journeys, "journeys depend on the trace");
}
