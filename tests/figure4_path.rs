//! Figure 4's dotted line, verified on the wire: an outgoing TCP packet
//! on the roaming mobile host flows TCP → IP → (policy) → VIF/IPIP → IP →
//! physical interface, and arrives at the home agent as an IP-in-IP
//! packet whose inner source is the *home* address and whose outer source
//! is the *care-of* address.

use mosquitonet::link::presets;
use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, TestbedConfig, CH_DEPT, COA_DEPT, MH_HOME, ROUTER_DEPT,
};
use mosquitonet::testbed::workload::{TcpEchoServer, TcpStreamClient};
use mosquitonet::wire::MacAddr;

#[test]
fn outgoing_tcp_takes_the_vif_path_and_wears_both_addresses() {
    let mut tb = build(TestbedConfig::default());
    // Sniffer on the visited LAN to observe the on-wire form.
    let (sniffer, tap) = {
        let net = tb.sim.world_mut();
        let h = net.add_host("sniffer");
        let tap = net
            .host_mut(h)
            .core
            .add_iface(presets::wired_ethernet("tap0", MacAddr::from_index(210)));
        net.host_mut(h).core.capture = true;
        net.attach_promiscuous(h, tap, tb.lan_dept);
        (h, tap)
    };
    stack::bring_iface_up(&mut tb.sim, sniffer, tap);

    // A TCP session bound to the home address, started while away.
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
    tb.run_for(SimDuration::from_secs(5));

    let ch = tb.ch_dept;
    stack::add_module(&mut tb.sim, ch, Box::new(TcpEchoServer::new(513)));
    let mh = tb.mh;
    let mut client = TcpStreamClient::new((MH_HOME, 1023), (CH_DEPT, 513));
    client.bursts = 3;
    client.interval = SimDuration::from_millis(200);
    let client_mid = stack::add_module(&mut tb.sim, mh, Box::new(client));
    tb.run_for(SimDuration::from_secs(5));

    // The session worked end to end...
    {
        let c: &mut TcpStreamClient = tb.module(mh, client_mid);
        assert_eq!(c.echoed.len(), 3 * 64, "stream echoed through the tunnel");
    }

    // ...and on the wire, the mobile host's TCP segments are IP-in-IP:
    // outer COA -> HA, inner HOME -> CH. That is precisely Figure 4's
    // "wide dashed line" leaving through the VIF.
    let expected = format!(
        "IPIP {COA_DEPT} > {} | TCP {MH_HOME}:1023 > {CH_DEPT}:513",
        topology::ROUTER_HOME
    );
    let captures = tb.sim.flights().captures().iter();
    let lines: Vec<String> = captures.map(|c| stack::frame_summary(&c.bytes)).collect();
    assert!(
        lines.iter().any(|l| l.contains(&expected)),
        "expected a capture line containing {expected:?}; got:\n{}",
        lines.join("\n")
    );
    // And the MH's own counters confirm it encapsulated (the VIF ran on
    // the mobile host, not on any agent in the network).
    assert!(tb.sim.world().host(mh).core.stats.encapsulated.get() > 0);
}
