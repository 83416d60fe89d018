//! Cross-crate tests of the registration protocol's protections: the
//! identification-based replay guard and the optional authentication
//! extension (§5.1: registrations "should be authenticated ... to protect
//! against denial-of-service attacks in the form of malicious fraudulent
//! registrations").

use std::net::Ipv4Addr;

use mosquitonet::mip::{
    AddressPlan, RegistrationReply, RegistrationRequest, ReplyCode, SwitchPlan, SwitchStyle,
    REGISTRATION_PORT,
};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack::{self, Module, ModuleCtx, SocketId};
use mosquitonet::testbed::topology::{
    self, build, MhMode, Testbed, TestbedConfig, COA_DEPT, FA_FOREIGN_ADDR, MH_HOME, ROUTER_DEPT,
};

fn settle(tb: &mut Testbed) {
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
}

/// An attacker on the department net replaying / forging registrations.
struct Attacker {
    /// The request bytes to fire, with a chosen identification.
    forged: RegistrationRequest,
    target: Ipv4Addr,
    sock: Option<SocketId>,
}

impl Module for Attacker {
    fn name(&self) -> &'static str {
        "attacker"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        ctx.fx.send_udp(
            self.sock.expect("bound"),
            (self.target, REGISTRATION_PORT),
            self.forged.to_bytes(),
        );
    }
}

#[test]
fn replayed_registration_does_not_move_the_binding() {
    let mut tb = build(TestbedConfig::default());
    settle(&mut tb);
    let now = tb.sim.now();
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("bound");
    assert_eq!(binding.care_of, COA_DEPT);
    let last_ident = tb.ha_module().bindings.last_ident(MH_HOME);

    // The attacker replays a registration with a stale identification,
    // pointing the binding at itself.
    let evil_coa = Ipv4Addr::new(36, 8, 0, 66);
    let forged = RegistrationRequest {
        lifetime: 300,
        home_addr: MH_HOME,
        home_agent: topology::ROUTER_HOME,
        care_of: evil_coa,
        ident: last_ident, // not advancing: replay
        auth: None,
    };
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(Attacker {
            forged,
            target: topology::ROUTER_HOME,
            sock: None,
        }),
    );
    tb.run_for(SimDuration::from_secs(2));

    let now = tb.sim.now();
    let binding = tb
        .ha_module()
        .bindings
        .get(MH_HOME, now)
        .expect("still bound");
    assert_eq!(
        binding.care_of, COA_DEPT,
        "replay rejected; binding unmoved"
    );
    assert!(tb.ha_module().stats.denied.get() >= 1, "denial recorded");
}

#[test]
fn signed_registration_succeeds_and_forgery_fails() {
    let key = (7u32, 0xfeed_f00d_u64);
    let mut tb = build(TestbedConfig {
        mh_auth: Some(key),
        ha_auth_key: Some(key),
        ..TestbedConfig::default()
    });
    settle(&mut tb);
    let now = tb.sim.now();
    assert!(
        tb.ha_module().bindings.get(MH_HOME, now).is_some(),
        "signed registration accepted"
    );

    // An unsigned forgery with a *higher* identification must still fail.
    let forged = RegistrationRequest {
        lifetime: 300,
        home_addr: MH_HOME,
        home_agent: topology::ROUTER_HOME,
        care_of: Ipv4Addr::new(36, 8, 0, 66),
        ident: u64::MAX / 2,
        auth: None,
    };
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(Attacker {
            forged,
            target: topology::ROUTER_HOME,
            sock: None,
        }),
    );
    tb.run_for(SimDuration::from_secs(2));
    let now = tb.sim.now();
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("bound");
    assert_eq!(binding.care_of, COA_DEPT, "forgery rejected");
}

#[test]
fn wrong_key_registrations_are_denied_and_mh_keeps_retrying() {
    let mut tb = build(TestbedConfig {
        mh_auth: Some((7, 0x1111)),
        ha_auth_key: Some((7, 0x2222)), // mismatched key
        ..TestbedConfig::default()
    });
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
    tb.run_for(SimDuration::from_secs(6));
    let status = tb.mh_module().away_status().expect("away");
    assert!(!status.2, "never registered with the wrong key");
    let denied = tb.ha_module().stats.denied.get();
    assert!(denied >= 2, "denials accumulate as MH retries");
    assert!(
        denied <= 10,
        "retries are paced at the retry interval, not a tight loop ({denied} in ~6s)"
    );
    let now = tb.sim.now();
    assert!(tb.ha_module().bindings.get(MH_HOME, now).is_none());
}

#[test]
fn wrong_home_agent_is_refused() {
    // A registration naming a different home agent address is refused
    // (DeniedUnknownHome) even though it reaches this agent's port.
    let mut tb = build(TestbedConfig::default());
    let forged = RegistrationRequest {
        lifetime: 300,
        home_addr: MH_HOME,
        home_agent: Ipv4Addr::new(36, 135, 0, 99), // not our HA
        care_of: Ipv4Addr::new(36, 8, 0, 66),
        ident: 1,
        auth: None,
    };
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(Attacker {
            forged,
            target: topology::ROUTER_HOME,
            sock: None,
        }),
    );
    tb.run_for(SimDuration::from_secs(2));
    assert_eq!(tb.ha_module().stats.accepted.get(), 0);
    assert!(tb.ha_module().stats.denied.get() >= 1);
    let now = tb.sim.now();
    assert!(tb.ha_module().bindings.get(MH_HOME, now).is_none());
}

#[test]
fn foreign_home_address_is_refused() {
    // Registering an address outside the served home subnet fails.
    let mut tb = build(TestbedConfig::default());
    let forged = RegistrationRequest {
        lifetime: 300,
        home_addr: Ipv4Addr::new(36, 8, 0, 7), // the CH's address!
        home_agent: topology::ROUTER_HOME,
        care_of: Ipv4Addr::new(36, 8, 0, 66),
        ident: 1,
        auth: None,
    };
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(Attacker {
            forged,
            target: topology::ROUTER_HOME,
            sock: None,
        }),
    );
    tb.run_for(SimDuration::from_secs(2));
    assert_eq!(tb.ha_module().stats.accepted.get(), 0);
    assert!(
        tb.sim
            .world()
            .host(tb.ha_host)
            .core
            .tunnel_to(Ipv4Addr::new(36, 8, 0, 7))
            .is_none(),
        "no tunnel hijack of a stationary host's address"
    );
}

#[test]
fn replay_after_the_mobile_host_returns_home_is_rejected() {
    // The §5.1 DoS the identification exists for: capture a registration,
    // wait for the host to come home and deregister, then replay the
    // capture to hijack its traffic. The replay floor must survive the
    // deregistration.
    let mut tb = build(TestbedConfig::default());
    settle(&mut tb);
    let captured_ident = tb.ha_module().bindings.last_ident(MH_HOME);

    // Home again (deregisters, binding removed).
    tb.move_mh_eth(Some(tb.lan_home));
    let eth = tb.mh_eth;
    tb.with_mh(|m, ctx| m.return_home(ctx, eth, SwitchStyle::Cold));
    tb.run_for(SimDuration::from_secs(5));
    let now = tb.sim.now();
    assert!(tb.ha_module().bindings.get(MH_HOME, now).is_none());

    // Replay the captured registration.
    let forged = RegistrationRequest {
        lifetime: 300,
        home_addr: MH_HOME,
        home_agent: topology::ROUTER_HOME,
        care_of: Ipv4Addr::new(36, 8, 0, 66),
        ident: captured_ident,
        auth: None,
    };
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(Attacker {
            forged,
            target: topology::ROUTER_HOME,
            sock: None,
        }),
    );
    tb.run_for(SimDuration::from_secs(2));
    let now = tb.sim.now();
    assert!(
        tb.ha_module().bindings.get(MH_HOME, now).is_none(),
        "replayed registration refused after deregistration"
    );
    assert!(
        tb.sim
            .world()
            .host(tb.ha_host)
            .core
            .tunnel_to(MH_HOME)
            .is_none(),
        "no hijack tunnel installed"
    );
}

#[test]
fn keyed_fa_mode_host_trusts_only_signed_replies_for_its_own_address() {
    // The foreign-agent baseline runs the agentless host's registration
    // client, so its keyed host verifies what it signs. The home agent here
    // holds no key: it accepts the signed requests and answers unsigned —
    // the right identification, no digest.
    let key = (7u32, 0xfeed_f00d_u64);
    let mut tb = build(TestbedConfig {
        with_foreign_site: true,
        with_foreign_agents: true,
        mh_mode: MhMode::ForeignAgent,
        mh_auth: Some(key),
        ..TestbedConfig::default()
    });
    tb.move_mh_eth(Some(tb.lan_foreign.expect("foreign site")));
    let (mh, eth) = (tb.mh, tb.mh_eth);
    stack::bring_iface_up(&mut tb.sim, mh, eth);
    tb.run_for(SimDuration::from_secs(1));
    tb.with_fa_mh(|m, ctx| m.moved(ctx));
    tb.run_for(SimDuration::from_secs(3));
    let answered = tb.ha_module().stats.accepted.get();
    assert!(answered >= 1, "the agent did answer");
    let stats = tb.fa_mh_module().reg.stats.clone();
    let auth_fails = tb.fa_mh_module().reg.auth_fail.clone();
    assert!(auth_fails.get() >= 1, "counted under reg/auth_fail");
    assert_eq!(stats.replies_accepted.get(), 0);
    assert_eq!(tb.fa_mh_module().current_fa(), None);

    // Forged `Accepted` replies carrying the right identification, handed
    // straight to the module: (whose address, signed with, counted as an
    // authentication failure, registers the host).
    let someone_else = Ipv4Addr::new(36, 135, 0, 77);
    for (home_addr, signed_with, auth_fail, registers) in [
        (MH_HOME, key.1 ^ 1, 1, false),
        (someone_else, key.1, 0, false),
        (MH_HOME, key.1, 0, true),
    ] {
        let (failures, retries) = (auth_fails.get(), stats.retries.get());
        tb.with_fa_mh(|m, ctx| {
            let forged = RegistrationReply {
                code: ReplyCode::Accepted,
                lifetime: 300,
                home_addr,
                home_agent: topology::ROUTER_HOME,
                epoch: 1,
                ident: m.reg.ident(),
                auth: None,
            };
            let bytes = forged.sign(key.0, signed_with).to_bytes();
            let from = (FA_FOREIGN_ADDR, REGISTRATION_PORT);
            m.on_udp(ctx, SocketId(0), from, MH_HOME, &bytes);
        });
        assert_eq!(auth_fails.get() - failures, auth_fail);
        assert_eq!(tb.fa_mh_module().current_fa().is_some(), registers);
        // An ignored reply leaves the retry timer armed.
        tb.run_for(SimDuration::from_secs(10));
        assert_eq!(stats.retries.get() > retries, !registers);
    }
}
