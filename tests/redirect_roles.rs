//! §5.2's third transparency problem, exercised: "If a mobile host
//! communicates with a correspondent host on the network it is visiting,
//! the mobile host may receive routing redirects for the correspondent
//! host that would ordinarily override any default route."
//!
//! In MosquitoNet's design the redirect lands in the *kernel routing
//! table* (local role), while the Mobile Policy Table consults first for
//! home-role traffic — so a redirect steers direct traffic onto the
//! better gateway without ever bending the tunnel.

use std::any::Any;
use std::net::Ipv4Addr;

use mosquitonet::link::presets;
use mosquitonet::mip::{
    AddressPlan, HomeAgent, HomeAgentConfig, MobileHost, MobileHostConfig, SendMode, SwitchPlan,
    SwitchStyle,
};
use mosquitonet::sim::{Sim, SimDuration};
use mosquitonet::stack::{self, RouteEntry};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet::wire::{Cidr, MacAddr};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().expect("addr")
}

fn cidr(s: &str) -> Cidr {
    s.parse().expect("cidr")
}

/// home LAN — router(HA, sends redirects) — visited LAN — r2 — side LAN.
/// The side-LAN host is reachable from the visited LAN *better* via r2,
/// but the MH's default points at the main router.
#[test]
fn redirect_steers_local_role_but_not_the_tunnel() {
    let mut net = stack::Network::new();
    let lan_home = net.add_lan(presets::ethernet_lan("home"));
    let lan_visit = net.add_lan(presets::ethernet_lan("visited"));
    let lan_side = net.add_lan(presets::ethernet_lan("side"));

    // Main router = home agent, redirect-sending.
    let router = net.add_host("router");
    let r_home = net
        .host_mut(router)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(1)));
    let r_visit = net
        .host_mut(router)
        .core
        .add_iface(presets::wired_ethernet("eth1", MacAddr::from_index(2)));
    {
        let core = &mut net.host_mut(router).core;
        core.forwarding = true;
        core.send_redirects = true;
        core.ipip_decap = true;
        core.iface_mut(r_home)
            .add_addr(ip("10.1.0.1"), cidr("10.1.0.0/24"));
        core.iface_mut(r_visit)
            .add_addr(ip("10.2.0.1"), cidr("10.2.0.0/24"));
        core.routes.add(RouteEntry {
            dest: cidr("10.1.0.0/24"),
            gateway: None,
            iface: r_home,
            metric: 0,
        });
        core.routes.add(RouteEntry {
            dest: cidr("10.2.0.0/24"),
            gateway: None,
            iface: r_visit,
            metric: 0,
        });
        // The side net is reached via r2, which sits on the visited LAN:
        // forwarding side-bound traffic from the visited LAN goes back out
        // the same interface — the classic redirect condition.
        core.routes.add(RouteEntry {
            dest: cidr("10.3.0.0/24"),
            gateway: Some(ip("10.2.0.3")),
            iface: r_visit,
            metric: 0,
        });
    }
    net.attach(router, r_home, lan_home);
    net.attach(router, r_visit, lan_visit);
    let ha_mod = net
        .host_mut(router)
        .add_module(Box::new(HomeAgent::new(HomeAgentConfig::new(
            ip("10.1.0.1"),
            r_home,
            cidr("10.1.0.0/24"),
        ))));
    let _ = ha_mod;

    // r2: visited LAN <-> side LAN.
    let r2 = net.add_host("r2");
    let r2_visit = net
        .host_mut(r2)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(3)));
    let r2_side = net
        .host_mut(r2)
        .core
        .add_iface(presets::wired_ethernet("eth1", MacAddr::from_index(4)));
    {
        let core = &mut net.host_mut(r2).core;
        core.forwarding = true;
        core.iface_mut(r2_visit)
            .add_addr(ip("10.2.0.3"), cidr("10.2.0.0/24"));
        core.iface_mut(r2_side)
            .add_addr(ip("10.3.0.1"), cidr("10.3.0.0/24"));
        core.routes.add(RouteEntry {
            dest: cidr("10.2.0.0/24"),
            gateway: None,
            iface: r2_visit,
            metric: 0,
        });
        core.routes.add(RouteEntry {
            dest: cidr("10.3.0.0/24"),
            gateway: None,
            iface: r2_side,
            metric: 0,
        });
        core.routes.add(RouteEntry {
            dest: Cidr::DEFAULT,
            gateway: Some(ip("10.2.0.1")),
            iface: r2_visit,
            metric: 0,
        });
    }
    net.attach(r2, r2_visit, lan_visit);
    net.attach(r2, r2_side, lan_side);

    // The side-LAN destination (echoes on port 7).
    let side = net.add_host("side-host");
    let s_if = net
        .host_mut(side)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(5)));
    {
        let core = &mut net.host_mut(side).core;
        core.iface_mut(s_if)
            .add_addr(ip("10.3.0.9"), cidr("10.3.0.0/24"));
        core.routes.add(RouteEntry {
            dest: cidr("10.3.0.0/24"),
            gateway: None,
            iface: s_if,
            metric: 0,
        });
        core.routes.add(RouteEntry {
            dest: Cidr::DEFAULT,
            gateway: Some(ip("10.3.0.1")),
            iface: s_if,
            metric: 0,
        });
    }
    net.attach(side, s_if, lan_side);
    net.host_mut(side)
        .add_module(Box::new(UdpEchoResponder::new(7)));

    // A home-net correspondent (for home-role traffic).
    let ch = net.add_host("ch-home");
    let ch_if = net
        .host_mut(ch)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(6)));
    {
        let core = &mut net.host_mut(ch).core;
        core.iface_mut(ch_if)
            .add_addr(ip("10.1.0.7"), cidr("10.1.0.0/24"));
        core.routes.add(RouteEntry {
            dest: cidr("10.1.0.0/24"),
            gateway: None,
            iface: ch_if,
            metric: 0,
        });
        core.routes.add(RouteEntry {
            dest: Cidr::DEFAULT,
            gateway: Some(ip("10.1.0.1")),
            iface: ch_if,
            metric: 0,
        });
    }
    net.attach(ch, ch_if, lan_home);
    let ch_echo = net.host_mut(ch).add_module(Box::new(UdpEchoSender::new(
        (ip("10.1.0.9"), 7),
        SimDuration::from_millis(100),
    )));

    // The mobile host, starting at home.
    let mh = net.add_host("mh");
    let mh_eth = net
        .host_mut(mh)
        .core
        .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(7)));
    let mh_vif = net.host_mut(mh).core.add_vif(presets::loopback("vif0"));
    let mh_mod = net
        .host_mut(mh)
        .add_module(Box::new(MobileHost::new_at_home(
            MobileHostConfig {
                home_addr: ip("10.1.0.9"),
                home_subnet: cidr("10.1.0.0/24"),
                home_router: ip("10.1.0.1"),
                home_agent: ip("10.1.0.1"),
                standby_agents: Vec::new(),
                vif: mh_vif,
                lifetime: 300,
                auth: None,
            },
            mh_eth,
        )));
    net.host_mut(mh)
        .add_module(Box::new(UdpEchoResponder::new(7)));
    net.attach(mh, mh_eth, lan_home);

    let mut sim = Sim::new(net);
    for (h, i) in [
        (router, r_home),
        (router, r_visit),
        (r2, r2_visit),
        (r2, r2_side),
        (side, s_if),
        (ch, ch_if),
        (mh, mh_eth),
    ] {
        stack::bring_iface_up(&mut sim, h, i);
    }
    sim.run();
    stack::start(&mut sim);
    sim.run_for(SimDuration::from_secs(1));

    // Move the MH to the visited LAN and register.
    sim.world_mut().move_iface(mh, mh_eth, Some(lan_visit));
    stack::dispatch(&mut sim, mh, mh_mod, |m, ctx| {
        let m = (m as &mut dyn Any)
            .downcast_mut::<MobileHost>()
            .expect("mh");
        m.start_switch(
            ctx,
            SwitchPlan {
                iface: mh_eth,
                address: AddressPlan::Static {
                    addr: ip("10.2.0.42"),
                    subnet: cidr("10.2.0.0/24"),
                    router: ip("10.2.0.1"),
                },
                style: SwitchStyle::Cold,
            },
        );
    });
    sim.run_for(SimDuration::from_secs(5));

    // LOCAL ROLE: talk directly to the side-LAN host. The first packet
    // goes via the default router, which forwards it back onto the
    // visited LAN via r2 — and sends a redirect.
    stack::dispatch(&mut sim, mh, mh_mod, |m, _| {
        let m = (m as &mut dyn Any)
            .downcast_mut::<MobileHost>()
            .expect("mh");
        m.policy
            .set(Cidr::host(ip("10.3.0.9")), SendMode::DirectLocal);
    });
    let side_echo = stack::add_module(
        &mut sim,
        mh,
        Box::new(UdpEchoSender::new(
            (ip("10.3.0.9"), 7),
            SimDuration::from_millis(100),
        )),
    );
    sim.run_for(SimDuration::from_secs(2));

    // The redirect was sent and accepted: the MH now holds a /32 route to
    // the side host via r2.
    assert!(sim.world().host(router).core.stats.redirects_sent.get() >= 1);
    assert_eq!(sim.world().host(mh).core.stats.redirects_accepted.get(), 1);
    let rt = sim
        .world()
        .host(mh)
        .core
        .routes
        .lookup(ip("10.3.0.9"))
        .expect("route");
    assert_eq!(rt.gateway, Some(ip("10.2.0.3")), "local role steered to r2");
    {
        let s: &mut UdpEchoSender = sim
            .world_mut()
            .host_mut(mh)
            .module_mut(side_echo)
            .expect("echo");
        assert!(s.received() > 10, "direct traffic flows (now via r2)");
        s.stop();
    }

    // HOME ROLE: the tunnel is untouched by the redirect — the policy
    // table still routes home-role traffic through the home agent, and
    // the correspondent's stream keeps arriving.
    let before = {
        let s: &mut UdpEchoSender = sim
            .world_mut()
            .host_mut(ch)
            .module_mut(ch_echo)
            .expect("ch echo");
        s.received()
    };
    sim.run_for(SimDuration::from_secs(2));
    let s: &mut UdpEchoSender = sim
        .world_mut()
        .host_mut(ch)
        .module_mut(ch_echo)
        .expect("ch echo");
    assert!(
        s.received() > before + 15,
        "home-role stream unaffected by the redirect"
    );
}
