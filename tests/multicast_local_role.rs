//! §5.2: the visiting mobile host "might also join multicast groups via
//! the foreign network, rather than via the home network" — a local-role
//! action, running entirely on the visited LAN.

use std::any::Any;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack::{self, IfaceId, Module, ModuleCtx, SendOptions, SocketId, SourceSel};
use mosquitonet::testbed::topology::{self, build, TestbedConfig, COA_DEPT, ROUTER_DEPT};
use mosquitonet::wire::IcmpMessage;

const GROUP: Ipv4Addr = Ipv4Addr::new(224, 1, 9, 6);
const GROUP_PORT: u16 = 5353;

/// Subscribes to the group on a given interface and counts datagrams.
struct GroupListener {
    iface: IfaceId,
    received: u64,
}

impl Module for GroupListener {
    fn name(&self) -> &'static str {
        "group-listener"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.udp_bind(None, GROUP_PORT).expect("port free");
        ctx.join_multicast(self.iface, GROUP);
    }
    fn on_udp(
        &mut self,
        _ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        dst: Ipv4Addr,
        _payload: &Bytes,
    ) {
        if dst == GROUP {
            self.received += 1;
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Publishes to the group periodically on a pinned interface.
struct GroupPublisher {
    iface: IfaceId,
    sent: u64,
    sock: Option<SocketId>,
}

impl Module for GroupPublisher {
    fn name(&self) -> &'static str {
        "group-publisher"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        ctx.fx.set_timer(SimDuration::from_millis(100), 1);
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _token: u64) {
        self.sent += 1;
        ctx.fx.send_udp_opts(
            self.sock.expect("bound"),
            (GROUP, GROUP_PORT),
            Bytes::from_static(b"seminar announcement"),
            SendOptions {
                src: SourceSel::Unspecified,
                iface: Some(self.iface),
                ttl: Some(1),
                label: Some("multicast"),
            },
        );
        if self.sent < 20 {
            ctx.fx.set_timer(SimDuration::from_millis(100), 1);
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn visiting_mh_joins_a_group_on_the_foreign_network() {
    let mut tb = build(TestbedConfig::default());
    // The MH visits the department net.
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

    // The MH joins the group on its *foreign* interface (local role); the
    // department CH publishes to it.
    let mh = tb.mh;
    let eth = tb.mh_eth;
    let listener = stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(GroupListener {
            iface: eth,
            received: 0,
        }),
    );
    let ch = tb.ch_dept;
    let ch_if = IfaceId(0);
    let publisher = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(GroupPublisher {
            iface: ch_if,
            sent: 0,
            sock: None,
        }),
    );
    tb.run_for(SimDuration::from_secs(4));

    let sent = tb.module::<GroupPublisher>(ch, publisher).sent;
    assert_eq!(sent, 20);
    let l: &mut GroupListener = tb.module(mh, listener);
    assert_eq!(
        l.received, 20,
        "every group datagram arrived on the foreign link"
    );

    // Non-members on the same LAN do not get the traffic delivered: the
    // DHCP-less dept hosts (router) ignore it, and nothing was tunneled
    // through the home agent — this is pure local role.
    assert_eq!(
        tb.sim
            .world()
            .host(tb.ha_host)
            .core
            .stats
            .encapsulated
            .get(),
        0,
        "multicast never entered the mobile-IP tunnel"
    );
}

#[test]
fn leaving_the_group_stops_delivery() {
    let mut tb = build(TestbedConfig::default());
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
    let mh = tb.mh;
    let eth = tb.mh_eth;
    let listener = stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(GroupListener {
            iface: eth,
            received: 0,
        }),
    );
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(GroupPublisher {
            iface: IfaceId(0),
            sent: 0,
            sock: None,
        }),
    );
    tb.run_for(SimDuration::from_secs(1));
    // Leave mid-stream.
    stack::dispatch(&mut tb.sim, mh, listener, |m, ctx| {
        let l = m
            .as_any()
            .downcast_mut::<GroupListener>()
            .expect("listener");
        ctx.leave_multicast(l.iface, GROUP);
    });
    let at_leave = tb.module::<GroupListener>(mh, listener).received;
    tb.run_for(SimDuration::from_secs(2));
    let l: &mut GroupListener = tb.module(mh, listener);
    assert_eq!(
        l.received, at_leave,
        "no deliveries after leaving the group"
    );
    assert!(at_leave > 0, "but some arrived before");
}

/// Pings a destination once and counts the echo replies that come back.
struct Pinger {
    dst: Ipv4Addr,
    replies: u64,
}

impl Module for Pinger {
    fn name(&self) -> &'static str {
        "pinger"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.fx.send_ping(self.dst, 0x7e57, 1);
    }
    fn on_icmp(&mut self, _ctx: &mut ModuleCtx<'_>, _from: Ipv4Addr, msg: &IcmpMessage) {
        if matches!(msg, IcmpMessage::EchoReply { ident: 0x7e57, .. }) {
            self.replies += 1;
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// RFC 1122: echo requests to a multicast group are never answered, even
/// by members — a unicast ping to the same member still is.
#[test]
fn multicast_echo_requests_are_not_answered() {
    let mut tb = build(TestbedConfig::default());
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

    // The MH is a member of GROUP on the department LAN.
    let mh = tb.mh;
    let eth = tb.mh_eth;
    stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(GroupListener {
            iface: eth,
            received: 0,
        }),
    );
    tb.run_for(SimDuration::from_secs(1));

    // The CH pings the group: silence, even though the MH is a member.
    let ch = tb.ch_dept;
    let group_ping = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(Pinger {
            dst: GROUP,
            replies: 0,
        }),
    );
    tb.run_for(SimDuration::from_secs(2));
    let group_replies = tb.module::<Pinger>(ch, group_ping).replies;
    assert_eq!(group_replies, 0, "no echo reply to a multicast ping");

    // A unicast ping to the member's care-of address is answered.
    let unicast_ping = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(Pinger {
            dst: COA_DEPT,
            replies: 0,
        }),
    );
    tb.run_for(SimDuration::from_secs(2));
    let unicast_replies = tb.module::<Pinger>(ch, unicast_ping).replies;
    assert_eq!(unicast_replies, 1, "unicast ping still answered");
}
