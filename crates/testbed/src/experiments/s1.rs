//! Scale run S1: the route/policy decision cache across a large
//! correspondent population.

use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_core::SendMode;
use mosquitonet_sim::{Json, SimDuration};
use mosquitonet_stack::{self as stack, SendOptions};
use mosquitonet_wire::{IpProto, Ipv4Header, Ipv4Packet};

use super::common::{default_testbed, poll_until, settle_on_dept, switch_dept_address};
use super::{metrics, Experiment, Param, SEED};
use crate::report;
use crate::topology::{Testbed, COA_DEPT_ALT};

/// Send modes cycled across the S1 correspondent population, so every
/// cacheable decision shape (tunnel, triangle, direct-encap, local
/// source) appears in the cache at scale.
const S1_MODES: [SendMode; 4] = [
    SendMode::ReverseTunnel,
    SendMode::Triangle,
    SendMode::DirectEncap,
    SendMode::DirectLocal,
];

/// IP protocol number carried by the S1 probes. Nothing in the stack
/// handles it — the experiment measures route resolution on the sending
/// host, not end-to-end delivery.
const S1_PROTO: u8 = 253;

/// Cap on the mid-experiment re-registration wait. Generous because the
/// switch rides through self-induced congestion at large populations: the
/// routers answer every probe with an ICMP unreachable, and at 10 Mb/s
/// tens of thousands of those serialize on the department router's
/// transmitter for several sim-seconds — the registration reply queues
/// behind them and the mobile host's deterministic retry backoff carries
/// the switch to completion.
const S1_SWITCH_CAP: SimDuration = SimDuration::from_secs(120);

/// Drain window between phases: long enough for every in-flight frame
/// (and the routers' deterministic ICMP unreachables) to settle.
const S1_DRAIN: SimDuration = SimDuration::from_secs(2);

/// The `i`-th correspondent's address. The 36.200.0.0/16 block has no
/// subnet anywhere in the test-bed, so probes leave the mobile host on
/// its real egress path and die upstream with a no-route drop.
fn s1_correspondent(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(36, 200, (i >> 8) as u8, (i & 0xff) as u8)
}

fn s1_counters(tb: &Testbed) -> (u64, u64, u64) {
    let fp = &tb.sim.world().host(tb.mh).fastpath;
    (
        fp.stats.hit.get(),
        fp.stats.miss.get(),
        fp.stats.invalidate.get(),
    )
}

/// Runs `act` and records one phase row: the `phase` label, the probes
/// it `sends`, then the exact deltas of the mobile host's `fastpath`
/// counters it caused — cache `hits`, full resolutions (`misses`),
/// whole-cache flushes (`invalidations`) — and the live `cache_entries`
/// when it ended.
fn s1_phase(
    tb: &mut Testbed,
    rows: &mut Vec<Json>,
    phase: &'static str,
    sends: u32,
    act: impl FnOnce(&mut Testbed),
) {
    let before = s1_counters(tb);
    act(tb);
    let after = s1_counters(tb);
    let entries = tb.sim.world().host(tb.mh).fastpath.len();
    rows.push(Json::obj([
        ("phase", Json::from(phase)),
        ("sends", Json::from(sends)),
        ("hits", Json::UInt(after.0 - before.0)),
        ("misses", Json::UInt(after.1 - before.1)),
        ("invalidations", Json::UInt(after.2 - before.2)),
        ("cache_entries", Json::from(entries)),
    ]));
}

/// One probe to every correspondent, back to back at the current instant
/// — the per-packet work is exactly one route resolution plus transmit.
fn s1_send_round(tb: &mut Testbed, correspondents: u32) {
    for i in 0..correspondents {
        let header = Ipv4Header::new(
            Ipv4Addr::UNSPECIFIED,
            s1_correspondent(i),
            IpProto::Other(S1_PROTO),
        );
        let packet = Ipv4Packet::new(header, Bytes::from_static(b"s1-probe"));
        stack::ip_send_packet(&mut tb.sim, tb.mh, packet, SendOptions::default());
    }
}

/// Runs the many-correspondents scale experiment (S1).
///
/// A mobile host registered away from home holds `correspondents` learned
/// Mobile Policy Table entries (cycling all four send modes) and sends one
/// probe per correspondent per phase:
///
/// * `cold` — first contact; every probe is a full resolution that fills
///   the unified decision cache.
/// * `warm` — the same population again; steady state should be pure
///   cache replay.
/// * `reregister` — a same-subnet care-of switch. No probes; the row
///   captures the control traffic's own lookups and the validity-token
///   move that flushes the cache.
/// * `rewarm` / `steady` — the refill after invalidation and the return
///   to pure replay.
///
/// Every row is an exact counter delta and every RNG derives from `seed`,
/// so the sidecar is byte-stable for a fixed (correspondents, seed).
/// Returns the metrics body: `correspondents`, the phase `rows` in run
/// order and the per-mode `policy_mode_totals`.
pub fn run_s1(correspondents: u32, seed: u64) -> Json {
    assert!(
        (1..=65_536).contains(&correspondents),
        "correspondent population must fit the 36.200.0.0/16 plan"
    );
    let mut tb = default_testbed(seed);
    settle_on_dept(&mut tb);

    // The population: learned host entries cycling the four send modes.
    {
        let m = tb.mh_module();
        for i in 0..correspondents {
            m.policy
                .learn(s1_correspondent(i), S1_MODES[(i % 4) as usize]);
        }
    }

    let mut rows = Vec::new();
    let send_phases = |tb: &mut Testbed, rows: &mut Vec<Json>, phases: [&'static str; 2]| {
        for phase in phases {
            s1_phase(tb, rows, phase, correspondents, |tb| {
                s1_send_round(tb, correspondents)
            });
            tb.run_for(S1_DRAIN);
        }
    };
    send_phases(&mut tb, &mut rows, ["cold", "warm"]);

    // The care-of address moves (same subnet, alternate address). The
    // MobileHost bumps its route generation when registration completes,
    // so the validity token moves and the next lookup flushes the cache.
    s1_phase(&mut tb, &mut rows, "reregister", 0, |tb| {
        let idx = tb.mh_module().timelines.len();
        switch_dept_address(tb, COA_DEPT_ALT);
        assert!(
            poll_until(tb, S1_SWITCH_CAP, |tb| tb.mh_module().timelines.len() > idx),
            "mid-experiment re-registration did not complete"
        );
    });

    send_phases(&mut tb, &mut rows, ["rewarm", "steady"]);

    let policy_mode_totals = {
        let m = tb.mh_module();
        Json::arr(S1_MODES.map(|mode| {
            let name = match mode {
                SendMode::ReverseTunnel => "reverse_tunnel",
                SendMode::Triangle => "triangle",
                SendMode::DirectEncap => "direct_encap",
                SendMode::DirectLocal => "direct_local",
            };
            Json::obj([
                ("mode", Json::from(name)),
                (
                    "lookups",
                    Json::UInt(m.policy.stats.counter_for(mode).get()),
                ),
            ])
        }))
    };
    Json::obj([
        ("correspondents", Json::from(correspondents)),
        ("rows", Json::Arr(rows)),
        ("policy_mode_totals", policy_mode_totals),
    ])
}

pub(super) const S1: Experiment = Experiment {
    name: "s1_many_correspondents",
    about: "S1: the route/policy decision cache across ~10 000 correspondents",
    params: &[
        Param {
            key: "correspondents",
            default: 10_000,
            min: 1,
            // The 36.200.0.0/16 correspondent plan.
            max: 65_536,
        },
        SEED,
    ],
    artifacts: &["s1_many_correspondents.metrics"],
    run: |p| {
        let body = run_s1(p.get_u32("correspondents"), p.get("seed"));
        metrics("s1_many_correspondents", body)
    },
    render: report::render_s1,
};
