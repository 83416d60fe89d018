//! Allocation budget of the packet path.
//!
//! A packet hop is meant to parse in place over the pooled frame it
//! arrived in and to build no scratch lists on the way out: what it may
//! still allocate is one boxed closure per event and one shared handle per
//! frozen frame. This test pins that with its own counting allocator, so
//! a copy or a per-frame `Vec` that creeps back in fails here, on the
//! commit that adds it, and not in a benchmark nobody reran.
//!
//! The counter is per thread: the test harness runs the tests of this file
//! on threads of their own, and each sees only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes};
use mosquitonet_core::{AddressPlan, SendMode, SwitchPlan, SwitchStyle};
use mosquitonet_link::{presets, EtherType, Frame, FRAME_HEADER_LEN};
use mosquitonet_sim::flightrec::DEFAULT_RING_CAPACITY;
use mosquitonet_sim::{
    run_sharded, FlightDump, FlightRecorder, HopAction, Json, Sim, SimDuration, SimTime,
};
use mosquitonet_stack::{self as stack, HostId, LanId, ModuleId, NetSim, Network, RouteEntry};
use mosquitonet_testbed::experiments::{run_s2, S2Config, S2Result};
use mosquitonet_testbed::topology::{self, TestbedConfig, CH_DEPT, COA_DEPT, MH_HOME, ROUTER_DEPT};
use mosquitonet_testbed::workload::{SaturationSender, SaturationSink};
use mosquitonet_wire::{
    ipip, Cidr, IpProto, Ipv4Header, Ipv4Packet, MacAddr, PacketBuf, UdpDatagram,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`,
/// `alloc_zeroed` and `realloc` calls.
struct CountingAlloc;

fn count() {
    // A thread that is being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer (no destructor, no allocation) and touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which only
        // ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

const PORT: u16 = 9000;
const FLOWS: u16 = 4;
const BURST: u32 = 2;
const TICK: SimDuration = SimDuration::from_millis(10);
const WARM_TICKS: u32 = 300;
const MEASURED_TICKS: u32 = 1_500;

/// Most allocations one delivered datagram may cost end to end on the
/// reverse-tunnel path (sender module, two frames, one receive event
/// each). The path measures 7.5; the margin is for the background of a
/// live testbed (registration renewals, ARP refreshes), not for a new
/// per-packet cost.
const BUDGET_PER_PACKET: f64 = 9.0;

/// Most engine events one delivered datagram may cost: the path measures
/// 2.5 (half a sender tick, two receive events). A second event per frame
/// per recipient, and the `Box` it carries, fails here first.
const EVENTS_PER_PACKET: f64 = 2.6;

/// Allocations, engine events and delivered packets of the measured window
/// of one reverse-tunnel flow set, with the flight recorder on or off.
fn reverse_tunnel_flow(recorder_on: bool) -> (u64, u64, u64) {
    // The Figure-5 testbed, mobile host settled on the department net and
    // reverse-tunnelling to its correspondent there: the `bulk_tunnel`
    // workload of the benchmark at a smaller scale.
    let mut tb = topology::build(TestbedConfig::default());
    tb.sim.flights_mut().set_enabled(recorder_on);
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
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(
        tb.mh_module().away_status().is_some_and(|s| s.2),
        "the mobile host failed to settle on the department net"
    );
    tb.mh_module()
        .policy
        .set(Cidr::host(CH_DEPT), SendMode::ReverseTunnel);

    let (mh, ch) = (tb.mh, tb.ch_dept);
    let mut sinks = Vec::new();
    for flow in 0..FLOWS {
        let sink = Box::new(SaturationSink::new(PORT + flow));
        sinks.push(stack::add_module(&mut tb.sim, ch, sink));
        let ticks = WARM_TICKS + MEASURED_TICKS;
        let sender = SaturationSender::new((CH_DEPT, PORT + flow), BURST, TICK, ticks);
        stack::add_module(&mut tb.sim, mh, Box::new(sender));
    }
    let delivered = |tb: &mut topology::Testbed| -> u64 {
        sinks
            .iter()
            .map(|&mid| tb.module::<SaturationSink>(ch, mid).datagrams)
            .sum()
    };

    // Warm-up: ARP resolves, the decision cache fills, the buffer pool,
    // the event slab and the heap grow to their working size.
    tb.run_for(TICK * u64::from(WARM_TICKS));
    let warm = delivered(&mut tb);
    assert!(warm > 0, "nothing was delivered during warm-up");

    let noted = |tb: &topology::Testbed| {
        let flights = tb.sim.flights();
        flights.notes().count() as u64 + flights.notes_overwritten()
    };
    let notes = noted(&tb);
    let events = tb.sim.events_executed();
    let (allocations, ()) = allocations_in(|| tb.run_for(TICK * u64::from(MEASURED_TICKS)));
    let packets = delivered(&mut tb) - warm;
    assert_eq!(
        packets,
        u64::from(FLOWS) * u64::from(BURST) * u64::from(MEASURED_TICKS),
        "every datagram offered in the window must land in it"
    );
    // A packet's fate is a counter and a hop: no packet writes a note.
    assert_eq!(noted(&tb), notes, "the packet path wrote a note");
    (allocations, tb.sim.events_executed() - events, packets)
}

#[test]
fn reverse_tunnel_flow_stays_within_the_allocation_budget() {
    let (allocations, events, packets) = reverse_tunnel_flow(true);
    let per_packet = allocations as f64 / packets as f64;
    assert!(
        per_packet <= BUDGET_PER_PACKET,
        "{per_packet:.2} allocations per delivered packet ({allocations} over {packets}), \
         budget {BUDGET_PER_PACKET}"
    );
    let per_packet = events as f64 / packets as f64;
    assert!(
        per_packet <= EVENTS_PER_PACKET,
        "{per_packet:.2} events per delivered packet ({events} over {packets}), \
         budget {EVENTS_PER_PACKET}"
    );
}

/// The packet path writes hops into rings reserved whole when the
/// recorder is switched on, and no note, so that one switch costs it no
/// allocation: not one per packet, not one `Vec` doubling.
#[test]
fn recording_a_trace_entry_allocates_nothing_of_its_own() {
    let (on, _, packets) = reverse_tunnel_flow(true);
    let (off, ..) = reverse_tunnel_flow(false);
    assert_eq!(
        on, off,
        "allocations with the recorder on and off, over {packets} packets"
    );
}

#[test]
fn parsing_a_tunnelled_frame_allocates_nothing() {
    let (coa, ha) = (COA_DEPT, topology::ROUTER_HOME);
    let dgram = UdpDatagram::new(4000, PORT, Bytes::from_static(&[0xa5; 64]));
    let inner = Ipv4Packet::new(
        Ipv4Header::new(MH_HOME, CH_DEPT, IpProto::Udp),
        dgram.to_bytes(MH_HOME, CH_DEPT),
    );
    let mut buf = PacketBuf::with_headroom(FRAME_HEADER_LEN + ipip::ENCAP_OVERHEAD);
    inner.write_into(&mut buf);
    ipip::prepend_outer(&mut buf, 0, coa, ha);
    Frame::write_header(
        MacAddr::from_index(2),
        MacAddr::from_index(1),
        EtherType::Ipv4,
        buf.prepend(FRAME_HEADER_LEN),
    );
    buf.put_slice(&[0; 2]);
    let wire = buf.freeze();

    let (n, frame) = allocations_in(|| Frame::parse(&wire).expect("frame"));
    assert_eq!(n, 0, "Frame::parse");
    let (n, outer) = allocations_in(|| Ipv4Packet::parse(&frame.payload).expect("outer"));
    assert_eq!(n, 0, "Ipv4Packet::parse");
    let (n, decapsulated) = allocations_in(|| ipip::decapsulate(&outer).expect("inner"));
    assert_eq!(n, 0, "ipip::decapsulate");
    let (n, delivered) = allocations_in(|| {
        UdpDatagram::parse(&decapsulated.payload, MH_HOME, CH_DEPT).expect("datagram")
    });
    assert_eq!(n, 0, "UdpDatagram::parse");
    assert_eq!(delivered, dgram);
}

/// The journeys document folds its totals over hops grouped in place: a per-flight
/// `Vec`, or a recording that allocates (enabling reserves the ring and names), fails here.
#[test]
fn exporting_a_full_ring_allocates_the_same_for_any_number_of_flights() {
    let export_allocs = |flights: u64| {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let (recording, ()) = allocations_in(|| {
            for i in 0..DEFAULT_RING_CAPACITY as u64 + 10 {
                let at = SimTime::ZERO + SimDuration::from_micros(i);
                rec.begin_flight(Some("s3"));
                rec.hop(1 + i % flights, at, (i % 3) as u32, "udp", HopAction::Sent);
            }
        });
        assert_eq!(
            recording, 0,
            "enabling reserves the ring and the name tables"
        );
        assert_eq!((rec.len(), rec.overwritten()), (DEFAULT_RING_CAPACITY, 10));
        let names = ["ch", "ha", "mh"].map(String::from);
        let (n, doc) = allocations_in(|| rec.export(&names, Some("ch")));
        assert_eq!(doc.get("flights"), Some(&Json::UInt(flights)));
        n
    };
    assert_eq!(export_allocs(100), export_allocs(30_000));
}

/// The sharded document groups the dumps' hops in place, whatever the
/// number of flights: a per-flight `Vec`, in the grouping or in the time
/// order of the flights that crossed shards, fails here.
#[test]
fn exporting_shard_dumps_allocates_the_same_for_any_number_of_flights() {
    const HOPS: u64 = 60_000;
    let export_allocs = |flights: u64| {
        let mut recs: Vec<FlightRecorder> = (0..4)
            .map(|shard| {
                let mut rec = FlightRecorder::new();
                rec.set_enabled(true);
                rec.set_flight_namespace(shard);
                rec
            })
            .collect();
        let ids: Vec<u64> = (0..flights)
            .map(|i| recs[(i % 4) as usize].begin_flight(Some("s3")))
            .collect();
        // Round r of a flight's hops lands r shards past its own: every
        // journey crosses shards, out of the dumps' position order.
        for i in 0..HOPS {
            let (flight, round) = (i % flights, i / flights);
            let shard = ((flight + round) % 4) as usize;
            let at = SimTime::ZERO + SimDuration::from_micros(i);
            let did = if round == 0 {
                HopAction::Sent
            } else {
                HopAction::Forwarded
            };
            recs[shard].hop(ids[flight as usize], at, (i % 3) as u32, "udp", did);
        }
        let dumps: Vec<FlightDump> = recs
            .iter_mut()
            .zip(0..)
            .map(|(r, s)| r.dump(s, 3 * s))
            .collect();
        let names = ["ch", "ha", "mh"].map(String::from);
        let (n, doc) = allocations_in(|| FlightDump::export(&dumps, &names, Some("ch")));
        assert_eq!(doc.get("flights"), Some(&Json::UInt(flights)));
        assert_eq!(doc.get("hops"), Some(&Json::UInt(HOPS)));
        n
    };
    assert_eq!(export_allocs(100), export_allocs(30_000));
}

/// Host `end` of the cross-shard flow on `lan`: end 0 at `10.99.0.1`
/// sends, end 1 at `10.99.0.2` receives.
fn add_flow_end(net: &mut Network, lan: LanId, end: u8) -> HostId {
    let subnet: Cidr = "10.99.0.0/24".parse().expect("cidr");
    let host = net.add_host(format!("end{end}"));
    let core = &mut net.host_mut(host).core;
    let device = presets::wired_ethernet("eth0", MacAddr::from_index(u32::from(end) + 1));
    let iface = core.add_iface(device);
    core.iface_mut(iface)
        .add_addr(Ipv4Addr::new(10, 99, 0, end + 1), subnet);
    core.routes.add(RouteEntry {
        dest: subnet,
        gateway: None,
        iface,
        metric: 0,
    });
    net.attach(host, iface, lan);
    host
}

/// Brings end `end`'s interface up and installs (and starts) its module on
/// the started stack.
fn install_flow_end(sim: &mut NetSim, host: HostId, end: u8) -> ModuleId {
    stack::bring_iface_up(sim, host, stack::IfaceId(0));
    let module: Box<dyn stack::Module> = if end == 0 {
        let to = (Ipv4Addr::new(10, 99, 0, 2), PORT);
        Box::new(SaturationSender::new(to, BURST, TICK, u32::MAX))
    } else {
        Box::new(SaturationSink::new(PORT))
    };
    stack::add_module(sim, host, module)
}

/// Allocations, engine events and delivered datagrams of `ticks` sender
/// ticks of one flow between two hosts on a backbone trunk: on one shard
/// each, stepped by `run_sharded`, or on one `Sim`. Either runs on a
/// thread of its own: the packet buffer pool is per thread, and a warm one
/// allocates less.
fn flow_over_the_trunk(sharded: bool, ticks: u32) -> (u64, u64, u64) {
    std::thread::scope(|s| s.spawn(|| flow_on_this_thread(sharded, ticks)).join())
        .expect("the flow panicked")
}

fn flow_on_this_thread(sharded: bool, ticks: u32) -> (u64, u64, u64) {
    let deadline = SimTime::ZERO + TICK * u64::from(ticks);
    let trunk = || presets::backbone_trunk("backbone", presets::TRUNK_ONE_WAY);
    if !sharded {
        let (n, (events, delivered)) = allocations_in(|| {
            let mut net = Network::new();
            let lan = net.add_lan(trunk());
            let ends = [0, 1].map(|end| add_flow_end(&mut net, lan, end));
            let mut sim = Sim::new(net);
            stack::start(&mut sim);
            let sink = [0, 1].map(|end| install_flow_end(&mut sim, ends[usize::from(end)], end))[1];
            sim.run_until(deadline);
            let host = &mut sim.world_mut().hosts[ends[1].0];
            let delivered = host
                .module_mut::<SaturationSink>(sink)
                .expect("sink")
                .datagrams;
            (sim.events_executed(), delivered)
        });
        return (n, events, delivered);
    }
    // Shard 0's build starts the count; shard 1's finish reads it.
    let start = Cell::new(0);
    let lookahead = presets::ETHERNET_TX_OVERHEAD + presets::TRUNK_ONE_WAY;
    let outs = run_sharded(
        2,
        1,
        lookahead,
        deadline,
        |s| {
            if s == 0 {
                start.set(ALLOCS.with(Cell::get));
            }
            let mut net = Network::new();
            net.enable_sharding(s, 2);
            let lan = net.add_lan(trunk());
            net.add_portal(lan, 0);
            let end = s as u8;
            let host = add_flow_end(&mut net, lan, end);
            assert_eq!(net.portal_lookahead(), Some(lookahead));
            let mut sim = Sim::new(net);
            stack::start(&mut sim);
            install_flow_end(&mut sim, host, end);
            sim
        },
        |s, mut sim| {
            let n = ALLOCS.with(Cell::get) - start.get();
            let delivered = match sim.world_mut().hosts[0].module_mut::<SaturationSink>(ModuleId(0))
            {
                Some(sink) if s == 1 => sink.datagrams,
                _ => 0,
            };
            (n, sim.events_executed(), delivered)
        },
    );
    let (_, events0, _) = outs[0];
    let (n, events1, delivered) = outs[1];
    (n, events0 + events1, delivered)
}

/// Once warm, a barrier round that carries envelopes allocates nothing of
/// its own, in `run_sharded` or in `Network`'s outbox: the exchange buffers
/// keep their capacity. So the allocations of ticks `N..2N` of a flow
/// across two shards equal those of the same flow on one `Sim`, which
/// has no rounds at all: the events' own boxes and frames.
#[test]
fn a_warm_round_allocates_nothing_of_its_own() {
    const N: u32 = 200;
    let steady = |sharded: bool| {
        let (n1, e1, d1) = flow_over_the_trunk(sharded, N);
        let (n2, e2, d2) = flow_over_the_trunk(sharded, 2 * N);
        (n2 - n1, e2 - e1, d2 - d1)
    };
    let (sharded, events, delivered) = steady(true);
    let (alone, events_alone, delivered_alone) = steady(false);
    assert_eq!(
        (events, delivered),
        (events_alone, delivered_alone),
        "the two runs must carry the same traffic"
    );
    assert_eq!(
        delivered,
        u64::from(N * BURST),
        "every datagram of the later ticks crosses"
    );
    assert_eq!(
        sharded, alone,
        "allocations over {events} events and {delivered} cross-shard datagrams"
    );
}

/// Home-agent shards of the control-plane budget's runs: a small
/// `reg_churn` (which runs 16), offered well under the fleet's capacity.
const S2_SHARDS: u32 = 2;

/// Most allocations one more accepted registration may cost across the
/// fleet: the request, the agent's reply and replica, their frames and
/// receive events, and the agents' share of gratuitous ARPs. It measures
/// 15.17 (15.93 while an ARP frame was serialized twice); the margin is
/// less than the cost of one more frame per four registrations.
const ALLOCS_PER_REGISTRATION: f64 = 15.3;

/// Allocations and the result of one S2 fleet run of `ticks` churn ticks.
fn s2_fleet(ticks: u32) -> (u64, S2Result) {
    let cfg = S2Config {
        shards: S2_SHARDS,
        mobile_hosts: 2_000,
        burst: 4,
        ticks,
        seed: 1996,
        batching: true,
    };
    allocations_in(|| run_s2(&cfg, 1))
}

/// The control plane's budget: what one more registration allocates (the
/// difference of two runs, so building the fleet is not counted), and a
/// home agent's decision cache that outlives the binding changes it makes.
#[test]
fn a_registration_stays_within_its_allocation_budget_and_the_agents_cache() {
    let (short_allocs, short) = s2_fleet(40);
    let (long_allocs, long) = s2_fleet(120);
    let regs = long.row.accepted - short.row.accepted;
    let per_reg = (long_allocs - short_allocs) as f64 / regs as f64;
    assert!(
        per_reg <= ALLOCS_PER_REGISTRATION,
        "{per_reg:.2} allocations per registration over {regs} more, \
         budget {ALLOCS_PER_REGISTRATION}"
    );
    for s in 0..S2_SHARDS {
        let count = |name: &str| {
            long.metrics
                .at::<u64>(&format!("metrics.ha{s}/fastpath/{name}.value"))
        };
        let (hit, miss) = (count("hit"), count("miss"));
        assert_eq!(count("invalidate"), 0, "ha{s} flushed its decision cache");
        assert!(
            hit as f64 >= 0.99 * (hit + miss) as f64,
            "ha{s}: {hit} hits, {miss} misses"
        );
    }
}
