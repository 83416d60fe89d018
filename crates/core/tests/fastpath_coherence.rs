//! Property test for the fast-path decision cache: a host that answers
//! route lookups through the per-destination cache must be observationally
//! identical to one that resolves every lookup from scratch — same
//! decisions *and* same per-mode policy counter totals — under any
//! interleaving of policy inserts, probe feedback, (re-)registrations,
//! kernel route churn, and tunnel-binding moves.
//!
//! Two identical hosts receive the identical operation sequence; the
//! "uncached" twin flushes its cache before every lookup, so any stale
//! entry the generation-token discipline failed to invalidate shows up as
//! a divergence.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use mosquitonet_core::{MobilePolicyTable, SendMode};
use mosquitonet_link::presets;
use mosquitonet_stack::{
    resolve_route, EncapSpec, Host, HostCore, HostId, IfaceId, Module, ModuleId, RouteAnswer,
    RouteDecision, RouteEntry, SourceSel,
};
use mosquitonet_wire::{Cidr, MacAddr};

const HOME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
const HOME_AGENT: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 1);

/// A policy-table module exercising the full cacheable-answer surface the
/// real mobile host uses: `Decide` with a replayable counter, `Pass` when
/// unregistered, and a side-effecting `Once(None)` fall-through when the
/// policy counter was charged but no route resolves.
struct PolicyModule {
    care_of: Ipv4Addr,
    registered: bool,
    route_gen: u64,
    policy: MobilePolicyTable,
}

impl Module for PolicyModule {
    fn name(&self) -> &'static str {
        "coherence-policy"
    }

    fn route_override(&mut self, core: &HostCore, dst: Ipv4Addr, _src: SourceSel) -> RouteAnswer {
        if !self.registered {
            return RouteAnswer::Pass;
        }
        let mode = self.policy.lookup(dst); // charges the per-mode counter
        let on_hit = Some(self.policy.stats.counter_for(mode).clone());
        let route_to = |target: Ipv4Addr| {
            let rt = core.routes.lookup(target)?;
            Some((rt.iface, rt.gateway.unwrap_or(target)))
        };
        let care_of = self.care_of;
        let decision = match mode {
            SendMode::ReverseTunnel => {
                route_to(HOME_AGENT).map(|(iface, next_hop)| RouteDecision {
                    iface,
                    src: HOME,
                    next_hop,
                    encap: Some(EncapSpec {
                        outer_src: care_of,
                        outer_dst: HOME_AGENT,
                    }),
                })
            }
            SendMode::Triangle => route_to(dst).map(|(iface, next_hop)| RouteDecision {
                iface,
                src: HOME,
                next_hop,
                encap: None,
            }),
            SendMode::DirectEncap => route_to(dst).map(|(iface, next_hop)| RouteDecision {
                iface,
                src: HOME,
                next_hop,
                encap: Some(EncapSpec {
                    outer_src: care_of,
                    outer_dst: dst,
                }),
            }),
            SendMode::DirectLocal => route_to(dst).map(|(iface, next_hop)| RouteDecision {
                iface,
                src: care_of,
                next_hop,
                encap: None,
            }),
        };
        match decision {
            Some(decision) => RouteAnswer::Decide { decision, on_hit },
            None => RouteAnswer::Once(None),
        }
    }

    fn route_generation(&self) -> Option<u64> {
        Some(self.route_gen.wrapping_add(self.policy.generation()))
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn build_host() -> Host {
    let mut host = Host::new(HostId(0), "coherent");
    for i in 0..2u32 {
        let ifc = host.core.add_iface(presets::pcmcia_ethernet(
            format!("eth{i}"),
            MacAddr::from_index(i + 1),
        ));
        host.core.iface_mut(ifc).add_addr(
            Ipv4Addr::new(10, i as u8, 0, 2),
            format!("10.{i}.0.0/16").parse().expect("cidr"),
        );
    }
    host.core.routes.add(RouteEntry {
        dest: "0.0.0.0/0".parse().expect("cidr"),
        gateway: Some(Ipv4Addr::new(10, 0, 0, 1)),
        iface: IfaceId(0),
        metric: 0,
    });
    host.add_module(Box::new(PolicyModule {
        care_of: Ipv4Addr::new(10, 0, 0, 66),
        registered: false,
        route_gen: 0,
        policy: MobilePolicyTable::new(SendMode::ReverseTunnel),
    }));
    host
}

/// One randomized step against both hosts.
#[derive(Clone, Debug)]
enum Op {
    /// Probe feedback: a per-host learned policy entry.
    Learn(Ipv4Addr, SendMode),
    /// A configured policy insert for a prefix.
    SetPolicy(Ipv4Addr, u8, SendMode),
    /// (Re-)registration to a care-of address.
    Reregister(Ipv4Addr),
    /// Registration lapse / return home.
    Deregister,
    /// Kernel route insert.
    AddRoute(Ipv4Addr, u8, bool),
    /// Kernel route removal.
    RemoveRoute(Ipv4Addr, u8),
    /// Home-agent style tunnel binding move.
    SetTunnel(Ipv4Addr, Ipv4Addr),
    /// Tunnel teardown.
    ClearTunnel(Ipv4Addr),
    /// Resolve a destination (pinned or unspecified source) — compared
    /// between the cached and uncached twins.
    Lookup(Ipv4Addr, bool),
}

fn with_module<R>(host: &mut Host, f: impl FnOnce(&mut PolicyModule) -> R) -> R {
    f(host
        .module_mut::<PolicyModule>(ModuleId(0))
        .expect("policy module"))
}

fn apply(host: &mut Host, op: &Op) {
    match op {
        Op::Learn(dst, mode) => with_module(host, |m| m.policy.learn(*dst, *mode)),
        Op::SetPolicy(addr, len, mode) => {
            with_module(host, |m| m.policy.set(Cidr::new(*addr, *len), *mode))
        }
        Op::Reregister(coa) => with_module(host, |m| {
            m.care_of = *coa;
            m.registered = true;
            m.route_gen += 1;
        }),
        Op::Deregister => with_module(host, |m| {
            m.registered = false;
            m.route_gen += 1;
        }),
        Op::AddRoute(addr, len, second_iface) => host.core.routes.add(RouteEntry {
            dest: Cidr::new(*addr, *len),
            gateway: None,
            iface: IfaceId(usize::from(*second_iface)),
            metric: 0,
        }),
        Op::RemoveRoute(addr, len) => {
            host.core.routes.remove(Cidr::new(*addr, *len));
        }
        Op::SetTunnel(home, coa) => {
            host.core.set_tunnel(*home, *coa);
        }
        Op::ClearTunnel(home) => {
            host.core.clear_tunnel(*home);
        }
        Op::Lookup(..) => unreachable!("lookups are compared, not applied"),
    }
}

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..3, 0u8..3, 1u8..6).prop_map(|(b, c, d)| Ipv4Addr::new(10, b, c, d))
}

fn arb_mode() -> impl Strategy<Value = SendMode> {
    prop_oneof![
        Just(SendMode::ReverseTunnel),
        Just(SendMode::Triangle),
        Just(SendMode::DirectEncap),
        Just(SendMode::DirectLocal),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_addr(), arb_mode()).prop_map(|(a, m)| Op::Learn(a, m)),
        (arb_addr(), 16u8..=32, arb_mode()).prop_map(|(a, l, m)| Op::SetPolicy(a, l, m)),
        arb_addr().prop_map(Op::Reregister),
        Just(Op::Deregister),
        (arb_addr(), 16u8..=32, any::<bool>()).prop_map(|(a, l, i)| Op::AddRoute(a, l, i)),
        (arb_addr(), 16u8..=32).prop_map(|(a, l)| Op::RemoveRoute(a, l)),
        (arb_addr(), arb_addr()).prop_map(|(h, c)| Op::SetTunnel(h, c)),
        arb_addr().prop_map(Op::ClearTunnel),
        // The lookup arm repeats so lookups dominate and each mutation is
        // probed from a warm cache (the shim's prop_oneof is unweighted).
        (arb_addr(), any::<bool>()).prop_map(|(a, p)| Op::Lookup(a, p)),
        (arb_addr(), any::<bool>()).prop_map(|(a, p)| Op::Lookup(a, p)),
        (arb_addr(), any::<bool>()).prop_map(|(a, p)| Op::Lookup(a, p)),
        (arb_addr(), any::<bool>()).prop_map(|(a, p)| Op::Lookup(a, p)),
    ]
}

proptest! {
    #[test]
    fn cached_resolution_matches_uncached(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut cached = build_host();
        let mut uncached = build_host();
        for op in &ops {
            if let Op::Lookup(dst, pinned) = op {
                let src_sel = if *pinned {
                    SourceSel::Addr(HOME)
                } else {
                    SourceSel::Unspecified
                };
                // The twin re-resolves from scratch every time.
                uncached.fastpath.flush();
                let want = resolve_route(&mut uncached, *dst, src_sel, None);
                let got = resolve_route(&mut cached, *dst, src_sel, None);
                prop_assert_eq!(got, want, "decision diverged for {}", dst);
            } else {
                apply(&mut cached, op);
                apply(&mut uncached, op);
            }
        }
        // Counter coherence: cache hits must have replayed the same
        // per-mode policy counters the uncached twin charged directly.
        let totals = |h: &mut Host| {
            with_module(h, |m| {
                [
                    SendMode::ReverseTunnel,
                    SendMode::Triangle,
                    SendMode::DirectEncap,
                    SendMode::DirectLocal,
                ]
                .map(|mode| m.policy.stats.counter_for(mode).get())
            })
        };
        let got = totals(&mut cached);
        let want = totals(&mut uncached);
        prop_assert_eq!(got, want, "per-mode policy counters diverged");
    }
}
