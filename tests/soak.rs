//! A long soak: dozens of hand-offs in one run, with continuous UDP echo
//! traffic. Checks for state leaks (pending-event growth, timeline
//! bookkeeping, binding consistency) that single-switch tests cannot see.

use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, TestbedConfig, COA_DEPT, COA_DEPT_ALT, COA_RADIO, MH_HOME, ROUTER_DEPT,
    ROUTER_RADIO,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};

#[test]
fn fifty_handoffs_without_leaks_or_stalls() {
    let mut tb = build(TestbedConfig::default());
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    let sender = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );

    // Initial move onto the department net.
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = SwitchPlan {
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

    let mut pending_samples = Vec::new();
    // 50 hand-offs: rotate address-switch / cold radio / cold back.
    for round in 0..50u32 {
        match round % 4 {
            0 => {
                // Same-subnet address flip.
                let target = if round % 8 == 0 {
                    COA_DEPT_ALT
                } else {
                    COA_DEPT
                };
                tb.with_mh(|m, ctx| {
                    m.switch_address(
                        ctx,
                        AddressPlan::Static {
                            addr: target,
                            subnet: topology::dept_subnet(),
                            router: ROUTER_DEPT,
                        },
                    )
                });
                tb.run_for(SimDuration::from_millis(600));
            }
            1 => {
                // Cold to radio.
                plan = SwitchPlan {
                    iface: tb.mh_radio,
                    address: AddressPlan::Static {
                        addr: COA_RADIO,
                        subnet: topology::radio_subnet(),
                        router: ROUTER_RADIO,
                    },
                    style: SwitchStyle::Cold,
                };
                tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
                tb.run_for(SimDuration::from_secs(4));
            }
            2 => {
                // Cold back to the wire.
                plan = SwitchPlan {
                    iface: tb.mh_eth,
                    address: AddressPlan::Static {
                        addr: COA_DEPT,
                        subnet: topology::dept_subnet(),
                        router: ROUTER_DEPT,
                    },
                    style: SwitchStyle::Cold,
                };
                tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
                tb.run_for(SimDuration::from_secs(3));
            }
            _ => {
                // Hot to radio and hot back.
                let radio = tb.mh_radio;
                tb.power_up_mh_iface(radio);
                tb.run_for(SimDuration::from_secs(1));
                plan = SwitchPlan {
                    iface: radio,
                    address: AddressPlan::Static {
                        addr: COA_RADIO,
                        subnet: topology::radio_subnet(),
                        router: ROUTER_RADIO,
                    },
                    style: SwitchStyle::Hot,
                };
                tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
                tb.run_for(SimDuration::from_secs(2));
                plan = SwitchPlan {
                    iface: tb.mh_eth,
                    address: AddressPlan::Static {
                        addr: COA_DEPT,
                        subnet: topology::dept_subnet(),
                        router: ROUTER_DEPT,
                    },
                    style: SwitchStyle::Hot,
                };
                tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
                tb.run_for(SimDuration::from_secs(2));
            }
        }
        assert!(
            !tb.mh_module().is_switching(),
            "round {round}: switch stuck in progress"
        );
        assert!(
            tb.mh_module().away_status().map(|s| s.2).unwrap_or(false),
            "round {round}: not registered"
        );
        pending_samples.push(tb.sim.pending_events());
    }

    // Every switch completed and was accounted for.
    let m = tb.mh_module();
    let handoffs = m.mobility.handoffs.get();
    assert!(handoffs >= 51, "all switches completed ({handoffs})");
    assert_eq!(m.timelines.len() as u64, handoffs, "one timeline each");
    assert!(
        m.timelines.iter().all(|t| t.total().is_some()),
        "every timeline complete"
    );
    // Timestamps within each timeline are monotone: the switch steps
    // happened in the paper's order.
    for t in &m.timelines {
        let seq = [
            t.start,
            t.iface_configured,
            t.route_changed,
            t.request_sent,
            t.reply_received,
            t.done,
        ];
        let times: Vec<_> = seq.into_iter().flatten().collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "timeline steps out of order: {t:?}"
        );
    }

    // No event-queue leak: pending events stay bounded (they would grow
    // monotonically if timers leaked per hand-off).
    let early_max = *pending_samples[..10].iter().max().expect("samples");
    let late_max = *pending_samples[40..].iter().max().expect("samples");
    assert!(
        late_max <= early_max + 10,
        "pending events crept up: early {early_max}, late {late_max}"
    );

    // The stream survived everything; exact losses vary, but the vast
    // majority of echoes made it.
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    let lost = s.sent() - s.received();
    assert!(
        (s.received() as f64) > 0.85 * s.sent() as f64,
        "soak delivery: {} sent, {} received, {lost} lost",
        s.sent(),
        s.received()
    );

    // The routing and address tables did not accrete stale state.
    let core = &tb.sim.world().host(mh).core;
    assert!(
        core.routes.len() <= 4,
        "route table stayed tidy: {:#?}",
        core.routes.entries()
    );
    let eth_addrs = core.ifaces[tb.mh_eth.0].addrs().len();
    assert!(eth_addrs <= 1, "one address per interface, got {eth_addrs}");
    let now = tb.sim.now();
    let current_coa = tb.mh_module().away_status().expect("away").1;
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("bound");
    assert_eq!(
        binding.care_of, current_coa,
        "home agent and mobile host agree on the final care-of address"
    );
}

/// Sums every `drop.*`-style counter (plus `unclaimed`) across all hosts.
fn total_drops(tb: &mosquitonet::testbed::topology::Testbed) -> u64 {
    tb.sim
        .world()
        .hosts
        .iter()
        .map(|h| {
            let s = &h.core.stats;
            s.dropped_no_route.get()
                + s.dropped_filter.get()
                + s.dropped_ttl.get()
                + s.dropped_arp_failure.get()
                + s.dropped_iface_down.get()
                + s.dropped_not_local.get()
                + s.dropped_malformed.get()
                + s.unclaimed.get()
        })
        .sum()
}

/// A crash soak: the home agent dies and reboots on a seeded random
/// schedule (one cycle occasionally losing the journal) while a
/// correspondent streams echoes the whole time. After every cycle the MH
/// must reconverge before the next crash lands, and once the last cycle
/// is absorbed the network must go fully quiet: zero further losses and
/// zero growth in any drop counter.
#[test]
fn ha_crash_restart_soak_always_reconverges() {
    use mosquitonet::link::HostFaultPlan;

    let mut tb = build(TestbedConfig {
        seed: 0xC5C6,
        ha_on_router: false,
        mh_lifetime: 30,
        ..TestbedConfig::default()
    });
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    let sender = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );

    // Settle on the department net first.
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
    assert!(tb.mh_module().away_status().map(|s| s.2).unwrap_or(false));

    // Four crash/restart cycles over six minutes; downtimes up to 15 s,
    // and each tenth cycle (seed-drawn) also loses the journal.
    let faults = HostFaultPlan::random(
        4,
        tb.sim.now() + SimDuration::from_secs(5),
        SimDuration::from_secs(360),
        SimDuration::from_secs(2),
        SimDuration::from_secs(15),
        0xBAD_C0FFEE,
    );
    let events = faults.events().to_vec();
    let ha_host = tb.ha_host;
    tb.sim.world_mut().host_mut(ha_host).fault = Some(faults);
    stack::install_host_faults(&mut tb.sim, ha_host);

    let slice = SimDuration::from_millis(100);
    for (i, ev) in events.iter().enumerate() {
        // Ride through this cycle's crash and restart...
        let back_up = ev.at + ev.restart_after;
        let now = tb.sim.now();
        if back_up > now {
            tb.run_for(back_up.saturating_since(now));
        }
        // ...then the MH must re-register before the next crash lands.
        let deadline = events
            .get(i + 1)
            .map(|next| next.at - SimDuration::from_secs(1))
            .unwrap_or(tb.sim.now() + SimDuration::from_secs(60));
        loop {
            if tb.mh_module().away_status().map(|s| s.2).unwrap_or(false) {
                break;
            }
            assert!(
                tb.sim.now() < deadline,
                "cycle {i}: MH failed to reconverge before the next crash \
                 (crash at {:?}, journal lost: {})",
                ev.at,
                ev.lose_journal
            );
            tb.run_for(slice);
        }
    }

    // Post-soak quiet period: reconverged means *converged* — no probe
    // is lost and no drop counter moves again.
    tb.run_for(SimDuration::from_secs(5));
    let drops_settled = total_drops(&tb);
    let quiet_from = tb.sim.now();
    tb.run_for(SimDuration::from_secs(20));
    let quiet_to = tb.sim.now() - SimDuration::from_secs(1);
    assert_eq!(
        total_drops(&tb) - drops_settled,
        0,
        "drop counters kept growing after reconvergence"
    );

    let crashes = {
        let h = tb.sim.world().host(ha_host);
        h.fault
            .as_ref()
            .expect("plan installed")
            .counters
            .crash
            .get()
    };
    assert_eq!(crashes, 4, "every scheduled crash fired");
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    assert_eq!(
        s.lost_in_window(quiet_from, quiet_to),
        0,
        "echoes still being lost after the last recovery"
    );
    assert!(s.received() > 0 && s.sent() > s.received());

    // The binding survived it all: the home agent (whatever its current
    // epoch) agrees with the MH on the care-of address.
    let now = tb.sim.now();
    let coa = tb.mh_module().away_status().expect("away").1;
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("bound");
    assert_eq!(binding.care_of, coa);
}
