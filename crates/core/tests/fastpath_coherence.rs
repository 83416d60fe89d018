//! Property test for the fast-path decision cache: a host that answers
//! route lookups through the per-destination cache must be observationally
//! identical to one that resolves every lookup from scratch — same
//! decisions *and* same per-mode policy counter totals — under any
//! interleaving of policy inserts and removals, probe feedback and a
//! move's forget, (re-)registrations, kernel route churn, and
//! tunnel-binding moves.
//!
//! Two identical hosts receive the identical operation sequence; the
//! "uncached" twin flushes its cache before every lookup, so any stale
//! entry the generation-token discipline failed to invalidate shows up as
//! a divergence.
//!
//! A second property holds the home-agent side: a tunnel-binding change
//! forgets only its own home's cached decisions. The cache holds every
//! home's decision while bindings are set, moved and cleared for other
//! homes and for the looked-up home itself, one at a time and in bursts.
//! It must still agree with the uncached twin, and a step must leave
//! every home it did not touch with its decisions cached.

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

    fn route_generation(&self) -> u64 {
        self.route_gen.wrapping_add(self.policy.generation())
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
    /// Policy removal for a prefix, configured or (at /32) learned.
    RemovePolicy(Ipv4Addr, u8),
    /// A move's forget of every probe-learned entry.
    ForgetLearned,
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
    /// Several binding changes (a set, or a teardown when `None`) with no
    /// lookup between them.
    TunnelBurst(Vec<(Ipv4Addr, Option<Ipv4Addr>)>),
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
        Op::RemovePolicy(addr, len) => {
            with_module(host, |m| m.policy.remove(Cidr::new(*addr, *len)));
        }
        Op::ForgetLearned => with_module(host, |m| m.policy.forget_learned()),
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
        Op::SetTunnel(home, coa) => host.set_tunnel(*home, Some(*coa)),
        Op::ClearTunnel(home) => host.set_tunnel(*home, None),
        Op::TunnelBurst(changes) => {
            for (home, care_of) in changes {
                host.set_tunnel(*home, *care_of);
            }
        }
        Op::Lookup(..) => unreachable!("lookups are compared, not applied"),
    }
}

/// Resolves `dst` on both twins — the uncached one from scratch — and
/// asserts that they agree.
fn compare(cached: &mut Host, uncached: &mut Host, dst: Ipv4Addr, pinned: bool) {
    let src_sel = if pinned {
        SourceSel::Addr(HOME)
    } else {
        SourceSel::Unspecified
    };
    uncached.fastpath.flush();
    let want = resolve_route(uncached, dst, src_sel, None);
    let got = resolve_route(cached, dst, src_sel, None);
    assert_eq!(got, want, "decision diverged for {dst}");
}

/// The correspondents that probe feedback and /32 removals target; every
/// step re-resolves them.
const PROBED: [Ipv4Addr; 3] = [
    Ipv4Addr::new(10, 0, 1, 1),
    Ipv4Addr::new(10, 1, 2, 3),
    Ipv4Addr::new(10, 2, 0, 5),
];

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..3, 0u8..3, 1u8..6).prop_map(|(b, c, d)| Ipv4Addr::new(10, b, c, d))
}

fn arb_probed() -> impl Strategy<Value = Ipv4Addr> {
    (0..PROBED.len()).prop_map(|i| PROBED[i])
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
        (arb_probed(), arb_mode()).prop_map(|(a, m)| Op::Learn(a, m)),
        (arb_addr(), 16u8..=32, arb_mode()).prop_map(|(a, l, m)| Op::SetPolicy(a, l, m)),
        (arb_addr(), 16u8..=32).prop_map(|(a, l)| Op::RemovePolicy(a, l)),
        arb_probed().prop_map(|a| Op::RemovePolicy(a, 32)),
        Just(Op::ForgetLearned),
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
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let mut cached = build_host();
        let mut uncached = build_host();
        for op in &ops {
            if let Op::Lookup(dst, pinned) = op {
                compare(&mut cached, &mut uncached, *dst, *pinned);
            } else {
                apply(&mut cached, op);
                apply(&mut uncached, op);
            }
            // Every step ends with the probed hosts' decisions cached, so
            // the next mutation meets a warm entry for each of them.
            for dst in PROBED {
                for pinned in [false, true] {
                    compare(&mut cached, &mut uncached, dst, pinned);
                }
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

/// The home addresses the tunnel property binds; every step re-resolves
/// each of them, pinned and unpinned, so the cache holds them all.
const HOMES: u8 = 24;

fn home(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, i % 3, 1, i)
}

/// Resolves every home, pinned and unpinned, on both twins.
fn compare_homes(cached: &mut Host, uncached: &mut Host) {
    for i in 0..HOMES {
        for pinned in [false, true] {
            compare(cached, uncached, home(i), pinned);
        }
    }
}

fn arb_home() -> impl Strategy<Value = Ipv4Addr> {
    (0..HOMES).prop_map(home)
}

/// A burst of binding changes to `len` distinct consecutive homes: from 2
/// up to every home.
fn arb_burst() -> impl Strategy<Value = Op> {
    let most = usize::from(HOMES);
    (0..HOMES, 2..=most, any::<u64>(), arb_addr()).prop_map(move |(first, len, bits, coa)| {
        Op::TunnelBurst(
            (0..len)
                .map(|k| {
                    let h = home((first + k as u8) % HOMES);
                    // Bit k clear: a teardown; set: a move to a care-of
                    // address that differs per home.
                    let care_of =
                        (bits >> k & 1 == 1).then(|| Ipv4Addr::from(u32::from(coa) + k as u32));
                    (h, care_of)
                })
                .collect(),
        )
    })
}

fn arb_tunnel_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_home(), arb_addr()).prop_map(|(h, c)| Op::SetTunnel(h, c)),
        (arb_home(), arb_addr()).prop_map(|(h, c)| Op::SetTunnel(h, c)),
        arb_home().prop_map(Op::ClearTunnel),
        arb_burst(),
        (arb_addr(), 16u8..=32, any::<bool>()).prop_map(|(a, l, i)| Op::AddRoute(a, l, i)),
        (arb_addr(), 16u8..=32).prop_map(|(a, l)| Op::RemoveRoute(a, l)),
    ]
}

proptest! {
    #[test]
    fn a_binding_change_forgets_only_its_own_home(
        ops in proptest::collection::vec(arb_tunnel_op(), 1..80),
    ) {
        // The policy module stays unregistered, so it passes every lookup
        // on to the tunnel table and the kernel routes.
        let mut cached = build_host();
        let mut uncached = build_host();
        compare_homes(&mut cached, &mut uncached);
        for op in &ops {
            apply(&mut cached, op);
            apply(&mut uncached, op);
            let hits = cached.fastpath.stats.hit.get();
            compare_homes(&mut cached, &mut uncached);
            // Binding changes leave every other home's two cached
            // decisions in place, however many homes one step touches.
            let changed = match op {
                Op::SetTunnel(..) | Op::ClearTunnel(_) => 1,
                Op::TunnelBurst(changes) => changes.len(),
                _ => continue,
            };
            let kept = 2 * (u64::from(HOMES) - changed as u64);
            prop_assert!(
                cached.fastpath.stats.hit.get() - hits >= kept,
                "{op:?} cost other homes their cached decisions"
            );
        }
    }
}
