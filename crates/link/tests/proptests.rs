//! Property-based tests for the link layer: frame round-trips, the
//! in-place frame parser against the copying one it replaced, the
//! transmit queue's FIFO discipline, and medium delay bounds.

use bytes::{BufMut, Bytes};
use proptest::prelude::*;
use std::net::Ipv4Addr;

use mosquitonet_link::{presets, EtherType, Frame, FRAME_HEADER_LEN};
use mosquitonet_sim::{SimDuration, SimRng, SimTime};
use mosquitonet_wire::{
    ipip, pool_size, IpProto, Ipv4Header, Ipv4Packet, MacAddr, PacketBuf, UdpDatagram, WireError,
};

/// `Frame::parse` as it was before it parsed in place (the payload copied
/// into fresh storage) — the reference for the equivalence properties.
fn reference_parse(buf: &[u8]) -> Result<Frame, WireError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated {
            needed: FRAME_HEADER_LEN,
            got: buf.len(),
        });
    }
    let mac6 = |s: &[u8]| MacAddr([s[0], s[1], s[2], s[3], s[4], s[5]]);
    Ok(Frame {
        dst: mac6(&buf[0..6]),
        src: mac6(&buf[6..12]),
        ethertype: EtherType::from_number(u16::from_be_bytes([buf[12], buf[13]]))?,
        payload: Bytes::copy_from_slice(&buf[FRAME_HEADER_LEN..]),
    })
}

fn assert_inside(part: &Bytes, whole: &Bytes) {
    let (p, w) = (part.as_ptr_range(), whole.as_ptr_range());
    assert!(
        w.start <= p.start && p.end <= w.end,
        "payload {p:?} lies outside its source buffer {w:?}"
    );
}

/// The life of one tunnelled datagram's storage: written once into a
/// pooled buffer, parsed in place four layers deep, and back in the pool
/// only when the last view — a payload a module kept — is gone.
#[test]
fn pooled_vector_outlives_every_slice_parsed_from_it() {
    let (mh, ch) = (Ipv4Addr::new(36, 135, 0, 9), Ipv4Addr::new(36, 8, 0, 7));
    let (coa, ha) = (Ipv4Addr::new(36, 8, 0, 42), Ipv4Addr::new(36, 135, 0, 1));
    let dgram = UdpDatagram::new(4000, 9000, Bytes::from_static(&[0x5a; 64]));
    let inner_header = Ipv4Header::new(mh, ch, IpProto::Udp);
    let inner = Ipv4Packet::new(inner_header, dgram.to_bytes(mh, ch));

    // Start from a pool that is known to be empty: the buffer below is
    // then freshly allocated and its return is the only thing counted.
    while pool_size() > 0 {
        std::mem::forget(PacketBuf::with_headroom(0));
    }
    let mut buf = PacketBuf::with_headroom(FRAME_HEADER_LEN + ipip::ENCAP_OVERHEAD);
    inner.write_into(&mut buf);
    ipip::prepend_outer(&mut buf, 0, coa, ha);
    Frame::write_header(
        MacAddr::from_index(2),
        MacAddr::from_index(1),
        EtherType::Ipv4,
        buf.prepend(FRAME_HEADER_LEN),
    );
    buf.put_slice(&[0; 4]); // link padding behind the packet
    let wire = buf.freeze();

    let frame = Frame::parse(&wire).unwrap();
    let outer = Ipv4Packet::parse(&frame.payload).unwrap();
    let decapsulated = ipip::decapsulate(&outer).unwrap();
    let delivered = UdpDatagram::parse(&decapsulated.payload, mh, ch).unwrap();
    assert_eq!(decapsulated, inner);
    assert_eq!(delivered, dgram);
    for part in [
        &frame.payload,
        &outer.payload,
        &decapsulated.payload,
        &delivered.payload,
    ] {
        assert_inside(part, &wire);
    }

    let kept_by_module = delivered.payload.clone();
    drop(wire);
    assert_eq!(pool_size(), 0, "the frame's views hold the vector");
    drop(frame);
    assert_eq!(pool_size(), 0, "the outer packet holds the vector");
    drop(outer);
    assert_eq!(pool_size(), 0, "the inner packet holds the vector");
    drop(decapsulated);
    drop(delivered);
    assert_eq!(pool_size(), 0, "the module's payload holds the vector");
    assert_eq!(&kept_by_module[..], &[0x5a; 64]);
    drop(kept_by_module);
    assert_eq!(pool_size(), 1, "the last slice returned it");
}

proptest! {
    /// Frames round-trip for arbitrary addresses and payloads.
    #[test]
    fn frame_round_trips(
        dst in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
        is_arp in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let f = Frame::new(
            MacAddr(dst),
            MacAddr(src),
            if is_arp { EtherType::Arp } else { EtherType::Ipv4 },
            Bytes::from(payload),
        );
        let bytes = f.to_bytes();
        let back = Frame::parse(&bytes).unwrap();
        assert_inside(&back.payload, &bytes);
        prop_assert_eq!(Ok(&back), reference_parse(&bytes).as_ref());
        prop_assert_eq!(back, f);
    }

    /// On random bytes frame parsing never panics, and gives the copying
    /// reference's verdict — same error, or same fields with the payload
    /// inside the input.
    #[test]
    fn frame_parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let data = Bytes::from(data);
        let parsed = Frame::parse(&data);
        if let Ok(frame) = &parsed {
            assert_inside(&frame.payload, &data);
        }
        prop_assert_eq!(parsed, reference_parse(&data));
    }

    /// The transmit queue serializes: for any arrival pattern, completion
    /// times are strictly increasing and each frame takes at least its
    /// own serialization time after the later of (arrival, predecessor
    /// completion).
    #[test]
    fn transmit_queue_is_fifo_and_work_conserving(
        arrivals in proptest::collection::vec((0u64..1_000_000, 40usize..1_500), 1..50),
    ) {
        let mut dev = presets::metricom_radio("strip0", MacAddr::from_index(1));
        let ready = dev.begin_bring_up(SimTime::ZERO);
        dev.poll(ready);
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|(t, _)| *t);
        let mut last_done = SimTime::ZERO;
        for (t_ns, len) in arrivals {
            let now = SimTime::from_nanos(t_ns).max_sim(ready);
            let delay = dev.schedule_tx(now, len);
            let done = now + delay;
            let earliest_start = if last_done > now { last_done } else { now };
            let expected = earliest_start + dev.tx_time(len);
            prop_assert_eq!(done, expected, "work-conserving FIFO schedule");
            prop_assert!(done > last_done);
            last_done = done;
        }
    }

    /// Medium delays always fall within [base - jitter, base + jitter].
    #[test]
    fn lan_delay_within_bounds(seed in any::<u64>(), draws in 1usize..200) {
        let cell = presets::radio_cell("cell");
        let mut rng = SimRng::new(seed);
        let base = presets::RADIO_PROPAGATION_BASE.as_nanos();
        let jitter = presets::RADIO_PROPAGATION_JITTER.as_nanos();
        for _ in 0..draws {
            let d = cell.draw_delay(&mut rng).as_nanos();
            prop_assert!(d >= base - jitter && d <= base + jitter);
        }
    }

    /// tx_time is monotone in frame length and linear in the rate model.
    #[test]
    fn tx_time_monotone(len_a in 1usize..1_500, len_b in 1usize..1_500) {
        let dev = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
        let (short, long) = if len_a <= len_b { (len_a, len_b) } else { (len_b, len_a) };
        prop_assert!(dev.tx_time(short) <= dev.tx_time(long));
        let ser = dev.tx_time(long) - dev.tx_fixed_overhead;
        let expected = SimDuration::from_secs_f64(long as f64 * 8.0 / presets::ETHERNET_RATE_BPS as f64);
        let diff = ser.as_nanos().abs_diff(expected.as_nanos());
        prop_assert!(diff <= 1, "serialization within rounding of len*8/rate");
    }
}

/// Helper: `SimTime::max` (std `Ord::max` works, alias for readability).
trait MaxSim {
    fn max_sim(self, other: Self) -> Self;
}
impl MaxSim for SimTime {
    fn max_sim(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }
}
