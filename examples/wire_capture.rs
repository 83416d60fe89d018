//! Watching mobile IP happen on the wire: a promiscuous sniffer on the
//! visited LAN prints a `tcpdump`-style log while the mobile host arrives,
//! registers, and starts receiving tunneled traffic.
//!
//! Run with: `cargo run --example wire_capture`

use mosquitonet::link::presets;
use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{self, build, TestbedConfig, COA_DEPT, MH_HOME, ROUTER_DEPT};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet::wire::MacAddr;

fn main() {
    let mut tb = build(TestbedConfig::default());

    // A sniffer box taps the department Ethernet.
    let (sniffer, tap) = {
        let net = tb.sim.world_mut();
        let h = net.add_host("sniffer");
        let tap = net
            .host_mut(h)
            .core
            .add_iface(presets::wired_ethernet("tap0", MacAddr::from_index(250)));
        net.host_mut(h).core.capture = true;
        net.attach_promiscuous(h, tap, tb.lan_dept);
        (h, tap)
    };
    stack::bring_iface_up(&mut tb.sim, sniffer, tap);

    // Traffic + a roam onto the sniffed LAN.
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(250),
        )),
    );
    tb.run_for(SimDuration::from_secs(1));
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Static {
            addr: COA_DEPT,
            subnet: topology::dept_subnet(),
            router: ROUTER_DEPT,
        },
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_millis(1_800));

    println!("captured on net-36-8 (the visited LAN) during the hand-off:\n");
    for c in tb.sim.flights().captures() {
        println!(
            "{:>11}  {}",
            c.at.to_string(),
            stack::frame_summary(&c.bytes)
        );
    }
    println!(
        "\nnote the shape of agentless mobile IP: the registration request\n\
         leaves from the care-of address, the reply returns to it, and the\n\
         correspondent's packets arrive IPIP-encapsulated from the home\n\
         agent — no foreign agent anywhere on this network."
    );

    // Also dump the mobile host's tables — ifconfig/netstat/arp in one.
    println!("\n{}", tb.sim.world().host(tb.mh).core.render_tables());
}
