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

use bytes::{BufMut, Bytes};
use mosquitonet_core::{AddressPlan, SendMode, SwitchPlan, SwitchStyle};
use mosquitonet_link::{EtherType, Frame, FRAME_HEADER_LEN};
use mosquitonet_sim::flightrec::DEFAULT_RING_CAPACITY;
use mosquitonet_sim::{FlightRecorder, HopAction, Json, SimDuration, SimTime};
use mosquitonet_stack as stack;
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
/// of one reverse-tunnel flow set, with the trace recording or not.
fn reverse_tunnel_flow(trace_on: bool) -> (u64, u64, u64) {
    // The Figure-5 testbed, mobile host settled on the department net and
    // reverse-tunnelling to its correspondent there: the `bulk_tunnel`
    // workload of the benchmark at a smaller scale.
    let mut tb = topology::build(TestbedConfig::default());
    tb.sim.trace_mut().set_enabled(trace_on);
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

    let entries = tb.sim.trace().entries().len();
    let events = tb.sim.events_executed();
    let (allocations, ()) = allocations_in(|| tb.run_for(TICK * u64::from(MEASURED_TICKS)));
    let packets = delivered(&mut tb) - warm;
    assert_eq!(
        packets,
        u64::from(FLOWS) * u64::from(BURST) * u64::from(MEASURED_TICKS),
        "every datagram offered in the window must land in it"
    );
    let recorded = (tb.sim.trace().entries().len() - entries) as u64;
    assert_eq!(recorded, if trace_on { packets } else { 0 });
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

/// A trace record is a `Vec` push: with the trace on, the window may
/// allocate more than with it off only where the entry `Vec` doubles —
/// never once per record, and nothing is built to be thrown away when off.
#[test]
fn recording_a_trace_entry_allocates_nothing_of_its_own() {
    let (on, _, packets) = reverse_tunnel_flow(true);
    let (off, ..) = reverse_tunnel_flow(false);
    let doublings = u64::from(usize::BITS);
    assert!(
        off <= on && on - off <= doublings,
        "{on} allocations with the trace on, {off} with it off, over {packets} records"
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
/// `Vec`, or a recording that allocates (enabling reserves ring and labels), fails here.
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
        assert_eq!(recording, 0, "enabling reserves the ring and the labels");
        assert_eq!((rec.len(), rec.overwritten()), (DEFAULT_RING_CAPACITY, 10));
        let names = ["ch", "ha", "mh"].map(String::from);
        let (n, doc) = allocations_in(|| rec.export(&names, Some("ch")));
        assert_eq!(doc.get("flights"), Some(&Json::UInt(flights)));
        n
    };
    assert_eq!(export_allocs(100), export_allocs(30_000));
}
