//! Bodies of the regression-gated micro-benchmarks.
//!
//! `bench_gate` (the CI regression binary) calls these functions and
//! compares what they measure against `bench/baseline.json`. Each
//! function returns `(id, median ns/op)` pairs; a median of `0.0` means
//! the harness filter skipped that id.

use std::net::Ipv4Addr;

use criterion::{black_box, Criterion};
use mosquitonet_core::timing::{
    REGISTRATION_RETRY, REGISTRATION_RETRY_BUDGET, REGISTRATION_RETRY_MAX,
};
use mosquitonet_core::{BindingJournal, JournalRecord, MobilePolicyTable, RetryBackoff, SendMode};
use mosquitonet_link::{presets, EtherType, FaultPlan, FaultRates, Frame};
use mosquitonet_sim::{Sim, SimDuration, SimTime};
use mosquitonet_stack::{resolve_route, Host, HostId, IfaceId, RouteEntry, RouteTable, SourceSel};
use mosquitonet_wire::{ipip, IpProto, Ipv4Header, Ipv4Packet, LpmTrie, MacAddr, UdpDatagram};

/// Builds a routing table with a default route plus `entries` /24 nets.
pub fn route_table(entries: u32) -> RouteTable {
    let mut rt = RouteTable::new();
    rt.add(RouteEntry {
        dest: "0.0.0.0/0".parse().expect("cidr"),
        gateway: Some(Ipv4Addr::new(10, 0, 0, 1)),
        iface: IfaceId(0),
        metric: 0,
    });
    for i in 0..entries {
        let b = (i >> 8) as u8;
        let c = (i & 0xff) as u8;
        rt.add(RouteEntry {
            dest: format!("10.{b}.{c}.0/24").parse().expect("cidr"),
            gateway: None,
            iface: IfaceId((i % 4) as usize),
            metric: 0,
        });
    }
    rt
}

/// The `ip_rt_route()` fast path: kernel route lookup (three table
/// sizes) and the Mobile Policy Table lookup.
pub fn run_route_policy(c: &mut Criterion) -> Vec<(String, f64)> {
    let mut results = Vec::new();
    for n in [4u32, 64, 512] {
        let rt = route_table(n);
        let dst = Ipv4Addr::new(10, 0, 17, 9);
        let id = format!("route_lookup/{n}_entries");
        let med = c.bench_function(&id, |b| b.iter(|| rt.lookup(black_box(dst))));
        results.push((id, med));
    }
    let mut mpt = MobilePolicyTable::new(SendMode::ReverseTunnel);
    for i in 0..64u32 {
        mpt.learn(Ipv4Addr::from(0x0a00_0000 + i), SendMode::Triangle);
    }
    let dst = Ipv4Addr::new(10, 0, 0, 33);
    let id = "policy_lookup/64_learned_entries".to_string();
    let med = c.bench_function(&id, |b| b.iter(|| mpt.lookup(black_box(dst))));
    results.push((id, med));
    results
}

/// A standalone host with four addressed Ethernet interfaces (the route
/// fixture round-robins routes across four) and `routes` /24 nets plus a
/// default route — the fixture the decision-cache benchmarks resolve
/// against.
pub fn bench_host(routes: u32) -> Host {
    let mut host = Host::new(HostId(0), "bench");
    for i in 0..4u32 {
        let iface = host.core.add_iface(presets::pcmcia_ethernet(
            format!("eth{i}"),
            MacAddr::from_index(i + 1),
        ));
        host.core.iface_mut(iface).add_addr(
            Ipv4Addr::new(10, 0, 0, 2 + i as u8),
            "10.0.0.0/8".parse().expect("cidr"),
        );
    }
    host.core.routes = route_table(routes);
    host
}

/// The fast-path structures themselves: raw longest-prefix-match trie
/// lookups at two table sizes, then the unified decision cache fronting
/// `resolve_route` — one warm hit and one forced miss (flush + full
/// re-resolution) against a 512-entry table.
pub fn run_fast_path(c: &mut Criterion) -> Vec<(String, f64)> {
    let mut results = Vec::new();
    for n in [64u32, 4096] {
        let mut trie = LpmTrie::new();
        for i in 0..n {
            let b = (i >> 8) as u8;
            let sub = (i & 0xff) as u8;
            trie.insert(format!("10.{b}.{sub}.0/24").parse().expect("cidr"), i);
        }
        let dst = Ipv4Addr::new(10, 0, 17, 9);
        let id = format!("lpm_lookup/{n}_entries");
        let med = c.bench_function(&id, |b| b.iter(|| trie.lookup(black_box(dst))));
        results.push((id, med));
    }

    let mut host = bench_host(512);
    let dst = Ipv4Addr::new(10, 0, 17, 9);
    assert!(
        resolve_route(&mut host, dst, SourceSel::Unspecified, None).is_some(),
        "bench fixture must route"
    );
    let id = "fastpath/hit".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| resolve_route(black_box(&mut host), dst, SourceSel::Unspecified, None))
    });
    results.push((id, med));

    let id = "fastpath/miss".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| {
            host.fastpath.flush();
            resolve_route(black_box(&mut host), dst, SourceSel::Unspecified, None)
        })
    });
    results.push((id, med));
    results
}

/// The registration-retry control path: one backoff draw (including the
/// jitter RNG) and one fault-plan verdict (five rate draws plus the
/// corruption draws).
pub fn run_registration_backoff(c: &mut Criterion) -> Vec<(String, f64)> {
    let mut results = Vec::new();

    let mut backoff = RetryBackoff::new(
        REGISTRATION_RETRY,
        REGISTRATION_RETRY_MAX,
        REGISTRATION_RETRY_BUDGET,
        1996,
    );
    let id = "backoff/next_delay".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| match backoff.next_delay() {
            Some(d) => d,
            None => {
                backoff.reset();
                backoff.next_delay().expect("fresh budget")
            }
        })
    });
    results.push((id, med));

    let mut plan = FaultPlan::new(
        FaultRates {
            drop: 0.2,
            duplicate: 0.05,
            reorder: 0.05,
            corrupt: 0.05,
            delay: 0.05,
        },
        1996,
    );
    let now = SimTime::ZERO;
    let id = "fault/judge".to_string();
    let med = c.bench_function(&id, |b| b.iter(|| plan.judge(black_box(now), 64)));
    results.push((id, med));
    results
}

/// The home agent's write-ahead bookkeeping: one journal append (the
/// per-registration stable-storage cost that now sits on the accept
/// path). The journal is cleared at each 4096-record high-water mark so
/// the measurement stays an append, not a reallocation stampede.
pub fn run_journal(c: &mut Criterion) -> Vec<(String, f64)> {
    let mut journal = BindingJournal::new();
    let rec = JournalRecord::Bind {
        home: Ipv4Addr::new(36, 135, 0, 9),
        care_of: Ipv4Addr::new(36, 8, 0, 42),
        lifetime: SimDuration::from_secs(300),
        ident: 1,
        at: SimTime::ZERO,
    };
    let id = "journal/append".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| {
            if journal.len() >= 4096 {
                journal.clear();
            }
            journal.append(black_box(rec));
        })
    });
    vec![(id, med)]
}

/// The registration authentication path: one MAC verification over a
/// signed registration request's body — the per-message cost the home
/// agent now pays up front for every authenticated registration.
pub fn run_mac(c: &mut Criterion) -> Vec<(String, f64)> {
    let req = mosquitonet_core::RegistrationRequest {
        lifetime: 300,
        home_addr: Ipv4Addr::new(36, 135, 0, 9),
        home_agent: Ipv4Addr::new(36, 135, 0, 2),
        care_of: Ipv4Addr::new(36, 8, 0, 42),
        ident: 1996,
        auth: None,
    }
    .sign(0x100, 0x6d6f_7371_7569_746f);
    assert!(
        req.verify(0x6d6f_7371_7569_746f),
        "bench fixture must verify"
    );
    let id = "mac_verify".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| black_box(&req).verify(black_box(0x6d6f_7371_7569_746f)))
    });
    vec![(id, med)]
}

/// The flight recorder's disabled-mode hop cost: the branch every packet
/// touch pays when tracing is off. One call rounds to 0 ns (the baseline
/// format stores whole nanoseconds, and the gate treats 0 as "missing"),
/// so the closure batches 100 calls — the stored number is ns per 100
/// hops, and the observability budget of ≤ 2 ns/hop means the gate bound
/// is 200.
pub fn run_flightrec(c: &mut Criterion) -> Vec<(String, f64)> {
    let mut rec = mosquitonet_sim::FlightRecorder::new();
    assert!(!rec.is_enabled(), "fixture must measure the disabled path");
    let id = "flightrec/hop_disabled_x100".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| {
            for i in 0..100u64 {
                rec.hop(
                    black_box(i + 1),
                    SimTime::ZERO,
                    0,
                    "udp",
                    mosquitonet_sim::HopAction::Sent,
                );
            }
            rec.len()
        })
    });
    vec![(id, med)]
}

/// The event core by itself, with do-nothing events: one schedule plus one
/// pop-and-run against a queue that stays 64 deep, and the whole life of
/// a cancelled timer (armed, cancelled, its key skipped at the head of the
/// queue) — what every retransmission timer that never fires costs.
pub fn run_engine(c: &mut Criterion) -> Vec<(String, f64)> {
    let mut results = Vec::new();

    let mut sim = Sim::new(0u64);
    for i in 0..64 {
        sim.schedule_at(SimTime::from_nanos(i), |sim| *sim.world_mut() += 1);
    }
    let id = "engine/schedule_pop".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| {
            sim.schedule_in(SimDuration::from_nanos(64), |sim| *sim.world_mut() += 1);
            sim.step()
        })
    });
    results.push((id, med));

    let mut sim = Sim::new(0u64);
    let id = "engine/cancel".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| {
            let timer = sim.schedule_in(SimDuration::from_nanos(1), |sim| *sim.world_mut() += 1);
            (sim.cancel(timer), sim.next_event_at())
        })
    });
    results.push((id, med));
    results
}

/// The receive side of one tunnelled hop: a frame carrying a 64-byte UDP
/// datagram inside IP-in-IP, parsed the way it climbs the stack — frame,
/// outer IPv4, decapsulation, UDP — each layer a view of the one before.
pub fn run_parse_hop(c: &mut Criterion) -> Vec<(String, f64)> {
    let (mh, ch) = (Ipv4Addr::new(36, 135, 0, 9), Ipv4Addr::new(36, 8, 0, 7));
    let (coa, ha) = (Ipv4Addr::new(36, 8, 0, 42), Ipv4Addr::new(36, 135, 0, 1));
    let dgram = UdpDatagram::new(4000, 9000, vec![0xa5; 64].into());
    let inner = Ipv4Packet::new(
        Ipv4Header::new(mh, ch, IpProto::Udp),
        dgram.to_bytes(mh, ch),
    );
    let outer = ipip::encapsulate(&inner, coa, ha);
    let wire = Frame::new(
        MacAddr::from_index(2),
        MacAddr::from_index(1),
        EtherType::Ipv4,
        outer.to_bytes(),
    )
    .to_bytes();
    let id = "wire/parse_hop".to_string();
    let med = c.bench_function(&id, |b| {
        b.iter(|| {
            let frame = Frame::parse(black_box(&wire)).expect("frame");
            let outer = Ipv4Packet::parse(&frame.payload).expect("outer packet");
            let inner = ipip::decapsulate(&outer).expect("inner packet");
            UdpDatagram::parse(&inner.payload, mh, ch).expect("datagram")
        })
    });
    vec![(id, med)]
}

/// Gates a whole experiment run as wall nanoseconds per operation: the
/// closure's median ns/run divided by the operations (packets delivered,
/// registrations accepted) `run` reports it completed.
fn per_op(c: &mut Criterion, id: &str, mut run: impl FnMut() -> u64) -> (String, f64) {
    let mut ops = 0u64;
    let med = c.bench_function(id, |b| {
        b.iter(|| {
            ops = run();
            ops
        })
    });
    if med > 0.0 {
        assert!(ops > 0, "{id}: the fixture must complete operations");
        (id.to_string(), med / ops as f64)
    } else {
        (id.to_string(), 0.0)
    }
}

/// The smoke-scale S3 load both saturation fixtures drive: small enough
/// for criterion to iterate, large enough that per-packet work dominates
/// the fixed topology/settle cost.
const S3_FIXTURE: mosquitonet_testbed::experiments::S3Config =
    mosquitonet_testbed::experiments::S3Config {
        pairs: 2,
        burst: 8,
        ticks: 5,
        seed: 1996,
        batching: true,
    };

/// The S3 whole-system saturation path, gated as wall nanoseconds per
/// delivered packet: each iteration drives a small-but-saturating S3 run
/// (topology build, registration settle, batched bursts through the
/// engine, sink collection) and the closure's median ns/op is divided by
/// the packets a run delivers. The reverse-tunnel and direct-encap
/// topologies are gated separately — they stress different hop chains
/// (MH→HA→CH with decap-and-forward vs MH→CH with transparent decap).
pub fn run_saturation(c: &mut Criterion) -> Vec<(String, f64)> {
    use mosquitonet_testbed::experiments::{run_s3_mode, S3Mode};

    let mut results = Vec::new();
    for (mode, id) in [
        (S3Mode::ReverseTunnel, "s3/pps_tunnel"),
        (S3Mode::DirectEncap, "s3/pps_direct"),
    ] {
        results.push(per_op(c, id, || {
            run_s3_mode(black_box(mode), &S3_FIXTURE).0.delivered
        }));
    }
    results.extend(run_sharded_saturation(c));
    results
}

/// Gates the sharded S3 wall rate at 1 and 4 worker threads (4 shards
/// either way, so the partition overhead is identical and only the
/// threading differs). Each id is compared to its own baseline, so the
/// gate stays honest on any core count; `bench_gate` additionally prints
/// the mt4-vs-mt1 scaling efficiency from these two ids.
pub fn run_sharded_saturation(c: &mut Criterion) -> Vec<(String, f64)> {
    use mosquitonet_testbed::experiments::run_s3_sharded;

    [(1usize, "s3/pps_mt1"), (4, "s3/pps_mt4")]
        .into_iter()
        .map(|(threads, id)| {
            per_op(c, id, || {
                run_s3_sharded(&S3_FIXTURE, 4, black_box(threads))
                    .row
                    .delivered
            })
        })
        .collect()
}

/// The S2 sharded home-agent fleet registration path, gated as wall
/// nanoseconds per accepted registration (the id names the user-facing
/// rate, like the `s3/pps_*` ids, but the stored number is ns/op so the
/// gate's higher-is-worse comparison applies). Each iteration drives a
/// tiny two-shard fleet — directory resolution, wrong-shard detours,
/// batched HA service, standby replication — end to end.
pub fn run_fleet_registration(c: &mut Criterion) -> Vec<(String, f64)> {
    use mosquitonet_testbed::experiments::{run_s2, S2Config};

    let cfg = S2Config {
        shards: 2,
        mobile_hosts: 50,
        burst: 2,
        ticks: 5,
        seed: 1996,
        batching: true,
    };
    vec![per_op(c, "s2/regs_per_sec", || {
        run_s2(black_box(&cfg), 1).row.accepted
    })]
}

/// Every gated benchmark, in baseline order.
pub fn run_all(c: &mut Criterion) -> Vec<(String, f64)> {
    let mut results = run_route_policy(c);
    results.extend(run_fast_path(c));
    results.extend(run_registration_backoff(c));
    results.extend(run_journal(c));
    results.extend(run_mac(c));
    results.extend(run_flightrec(c));
    results.extend(run_engine(c));
    results.extend(run_parse_hop(c));
    results.extend(run_saturation(c));
    results.extend(run_fleet_registration(c));
    results
}
