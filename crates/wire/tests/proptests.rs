//! Property-based tests for the wire formats.
//!
//! Invariants: every packet we can construct round-trips through bytes;
//! every single-bit corruption of a checksummed region is detected or
//! yields a different parse (never a silent wrong-field success for the
//! checksummed formats); encapsulation is size-exact and invertible.

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use mosquitonet_wire::{
    internet_checksum, ipip, keyed_mac, ArpOp, ArpPacket, AuthTlv, Cidr, IcmpMessage, IpProto,
    Ipv4Header, Ipv4Packet, MacAddr, TcpFlags, TcpSegment, UdpDatagram, AUTH_TLV_LEN,
};

fn arb_ipv4_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_payload(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_proto() -> impl Strategy<Value = IpProto> {
    any::<u8>().prop_map(IpProto::from_number)
}

fn arb_ipv4_packet() -> impl Strategy<Value = Ipv4Packet> {
    (
        arb_ipv4_addr(),
        arb_ipv4_addr(),
        arb_proto(),
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<bool>(),
        arb_payload(256),
    )
        .prop_map(|(src, dst, protocol, ttl, tos, ident, df, payload)| {
            let mut h = Ipv4Header::new(src, dst, protocol);
            h.ttl = ttl;
            h.tos = tos;
            h.ident = ident;
            h.dont_fragment = df;
            Ipv4Packet::new(h, payload)
        })
}

proptest! {
    #[test]
    fn ipv4_round_trips(pkt in arb_ipv4_packet()) {
        let bytes = pkt.to_bytes();
        let back = Ipv4Packet::parse(&bytes).unwrap();
        prop_assert_eq!(back, pkt);
    }

    #[test]
    fn ipv4_header_bitflips_detected(pkt in arb_ipv4_packet(), bit in 0usize..(20 * 8)) {
        let mut bytes = pkt.to_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Any single-bit flip in the header must fail the checksum
        // (or trip version/IHL/length validation first).
        if let Ok(parsed) = Ipv4Packet::parse(&bytes.into()) {
            prop_assert!(false, "corrupted header parsed: {parsed:?}");
        }
    }

    #[test]
    fn udp_round_trips(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in arb_payload(256),
    ) {
        let d = UdpDatagram::new(sp, dp, payload);
        let back = UdpDatagram::parse(&d.to_bytes(src, dst), src, dst).unwrap();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn udp_bitflips_detected(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        payload in arb_payload(64),
        flip in any::<proptest::sample::Index>(),
    ) {
        let d = UdpDatagram::new(1000, 2000, payload);
        let mut bytes = d.to_bytes(src, dst).to_vec();
        let nbits = bytes.len() * 8;
        let bit = flip.index(nbits);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the parse fails, or — when the flip hit the checksum
        // field making it zero ("no checksum") — payload mismatch is not
        // possible since data is untouched. So: a successful parse must
        // equal the original except possibly when the checksum field
        // itself was zeroed.
        if let Ok(back) = UdpDatagram::parse(&bytes.into(), src, dst) {
            let checksum_bits = 6 * 8..8 * 8;
            prop_assert!(
                checksum_bits.contains(&bit),
                "flip of bit {bit} accepted: {back:?}"
            );
        }
    }

    #[test]
    fn icmp_echo_round_trips(ident in any::<u16>(), seq in any::<u16>(), payload in arb_payload(128)) {
        let msg = IcmpMessage::EchoRequest { ident, seq, payload };
        prop_assert_eq!(IcmpMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn icmp_bitflips_detected(ident in any::<u16>(), seq in any::<u16>(), flip in any::<proptest::sample::Index>()) {
        let msg = IcmpMessage::EchoRequest { ident, seq, payload: Bytes::from_static(b"0123456789") };
        let mut bytes = msg.to_bytes().to_vec();
        let bit = flip.index(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(IcmpMessage::parse(&bytes.into()).is_err(), "flip of bit {} accepted", bit);
    }

    #[test]
    fn arp_round_trips(
        op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
        smac in arb_mac(), tmac in arb_mac(),
        sip in arb_ipv4_addr(), tip in arb_ipv4_addr(),
    ) {
        let pkt = ArpPacket { op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip };
        prop_assert_eq!(ArpPacket::parse(&pkt.to_bytes()).unwrap(), pkt);
    }

    #[test]
    fn tcp_round_trips(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        flag_bits in 0u8..32, window in any::<u16>(),
        payload in arb_payload(256),
    ) {
        let seg = TcpSegment {
            src_port: sp, dst_port: dp, seq, ack,
            flags: tcp_flags_from_bits(flag_bits),
            window, payload,
        };
        let back = TcpSegment::parse(&seg.to_bytes(src, dst), src, dst).unwrap();
        prop_assert_eq!(back, seg);
    }

    #[test]
    fn ipip_is_invertible_and_size_exact(
        pkt in arb_ipv4_packet(),
        osrc in arb_ipv4_addr(), odst in arb_ipv4_addr(),
    ) {
        let outer = ipip::encapsulate(&pkt, osrc, odst);
        prop_assert_eq!(outer.total_len(), pkt.total_len() + ipip::ENCAP_OVERHEAD);
        prop_assert_eq!(outer.header.src, osrc);
        prop_assert_eq!(outer.header.dst, odst);
        prop_assert_eq!(ipip::decapsulate(&outer).unwrap(), pkt);
    }

    #[test]
    fn ipip_survives_the_wire(
        pkt in arb_ipv4_packet(),
        osrc in arb_ipv4_addr(), odst in arb_ipv4_addr(),
    ) {
        // Encapsulate, serialize, reparse, decapsulate — the full tunnel path.
        let outer = ipip::encapsulate(&pkt, osrc, odst);
        let wire = outer.to_bytes();
        let reparsed = Ipv4Packet::parse(&wire).unwrap();
        prop_assert_eq!(ipip::decapsulate(&reparsed).unwrap(), pkt);
    }

    #[test]
    fn checksum_verifies_after_fill(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // For any data with a zeroed 2-byte field at offset 0, writing the
        // computed checksum there makes the whole buffer verify.
        let mut buf = vec![0u8, 0u8];
        buf.extend_from_slice(&data);
        let ck = internet_checksum(&buf, 0);
        buf[0..2].copy_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(internet_checksum(&buf, 0), 0);
    }

    #[test]
    fn cidr_contains_network_and_broadcast(addr in arb_ipv4_addr(), len in 0u8..=32) {
        let c = Cidr::new(addr, len);
        prop_assert!(c.contains(c.network()));
        prop_assert!(c.contains(c.broadcast()));
        prop_assert!(c.contains(addr));
    }

    #[test]
    fn cidr_display_parse_round_trips(addr in arb_ipv4_addr(), len in 0u8..=32) {
        let c = Cidr::new(addr, len);
        let back: Cidr = c.to_string().parse().unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn mac_display_parse_round_trips(mac in arb_mac()) {
        let back: MacAddr = mac.to_string().parse().unwrap();
        prop_assert_eq!(back, mac);
    }

    #[test]
    fn parse_never_panics_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = ArpPacket::parse(&data);
        // The four payload-carrying parsers must also agree, variant for
        // variant and field for field, with the copying parsers they
        // replaced — and hand out payloads that lie inside `data`.
        assert_parsers_match_references(&Bytes::from(data));
    }

    #[test]
    fn parsers_match_references_on_valid_nested_packets(
        pkt in arb_ipv4_packet(),
        osrc in arb_ipv4_addr(), odst in arb_ipv4_addr(),
        pad in 0usize..8,
    ) {
        // Random bytes almost never get past a checksum; these do, so the
        // `Ok` side of the comparison is exercised at every layer.
        let src = pkt.header.src;
        let dst = pkt.header.dst;
        let udp = UdpDatagram::new(4000, 9000, pkt.payload.clone()).to_bytes(src, dst);
        let tcp = TcpSegment {
            src_port: 1023, dst_port: 513, seq: 1, ack: 2,
            flags: tcp_flags_from_bits(16), window: 4096, payload: pkt.payload.clone(),
        }.to_bytes(src, dst);
        let icmp = IcmpMessage::EchoRequest { ident: 1, seq: 2, payload: pkt.payload.clone() }.to_bytes();
        for body in [udp, tcp, icmp] {
            assert_parsers_match_references_at(&body, src, dst);
            let inner = Ipv4Packet::new(pkt.header, body);
            let mut wire = ipip::encapsulate(&inner, osrc, odst).to_bytes().to_vec();
            wire.extend(std::iter::repeat_n(0u8, pad)); // link padding
            let wire = Bytes::from(wire);
            assert_parsers_match_references(&wire);
            let outer = Ipv4Packet::parse(&wire).unwrap();
            prop_assert_eq!(ipip::decapsulate(&outer), reference::ipv4(&outer.payload));
            let back = ipip::decapsulate(&outer).unwrap();
            prop_assert_eq!(&back, &inner);
            assert_inside(&back.payload, &wire);
        }
    }

    // ---- truncation: every strict prefix of a valid packet is rejected,
    // never mis-parsed (this is what keeps an injected mid-frame cut from
    // turning into a silently shorter payload).

    #[test]
    fn ipv4_truncation_rejected(pkt in arb_ipv4_packet(), cut in any::<proptest::sample::Index>()) {
        let bytes = pkt.to_bytes();
        let len = cut.index(bytes.len()); // strictly shorter than the packet
        prop_assert!(
            Ipv4Packet::parse(&bytes.slice(..len)).is_err(),
            "prefix of {len} of {} parsed", bytes.len()
        );
    }

    #[test]
    fn udp_truncation_rejected(
        src in arb_ipv4_addr(), dst in arb_ipv4_addr(),
        payload in arb_payload(256),
        cut in any::<proptest::sample::Index>(),
    ) {
        let d = UdpDatagram::new(1000, 2000, payload);
        let bytes = d.to_bytes(src, dst);
        let len = cut.index(bytes.len());
        prop_assert!(
            UdpDatagram::parse(&bytes.slice(..len), src, dst).is_err(),
            "prefix of {len} of {} parsed", bytes.len()
        );
    }

    #[test]
    fn arp_truncation_rejected(
        smac in arb_mac(), sip in arb_ipv4_addr(), tip in arb_ipv4_addr(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let bytes = ArpPacket::request(smac, sip, tip).to_bytes();
        let len = cut.index(bytes.len());
        prop_assert!(ArpPacket::parse(&bytes[..len]).is_err(), "prefix of {len} parsed");
    }

    #[test]
    fn ipip_truncated_inner_rejected(
        pkt in arb_ipv4_packet(),
        osrc in arb_ipv4_addr(), odst in arb_ipv4_addr(),
        cut in any::<proptest::sample::Index>(),
    ) {
        // An IPIP packet whose inner datagram was cut short must fail at
        // decapsulation, not yield a shorter inner packet.
        let inner = pkt.to_bytes();
        let len = cut.index(inner.len());
        let outer = Ipv4Packet::new(
            Ipv4Header::new(osrc, odst, IpProto::IpIp),
            Bytes::from(inner[..len].to_vec()),
        );
        prop_assert!(ipip::decapsulate(&outer).is_err(), "inner prefix of {len} decapsulated");
    }

    // ---- corruption: ARP carries no checksum, but its fixed preamble
    // (htype/ptype/hlen/plen/op) is fully validated — any single-bit flip
    // there must be rejected.

    // ---- keyed MAC: the per-byte FNV step is a bijection of the state
    // (the prime is odd), so two equal-length bodies differing in a single
    // bit can NEVER share a digest — the property is exact, not
    // probabilistic, which is what lets signed-registration tampering
    // tests assert rejection instead of sampling it.

    #[test]
    fn keyed_mac_detects_any_single_bitflip(
        body in proptest::collection::vec(any::<u8>(), 1..64),
        spi in any::<u32>(),
        key in any::<u64>(),
        flip in any::<proptest::sample::Index>(),
    ) {
        let base = keyed_mac(&body, spi, key);
        let bit = flip.index(body.len() * 8);
        let mut mutated = body.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(keyed_mac(&mutated, spi, key), base, "bit {} collided", bit);
    }

    #[test]
    fn keyed_mac_is_deterministic_and_key_sensitive(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        spi in any::<u32>(),
        key in any::<u64>(),
        other_key in any::<u64>(),
    ) {
        prop_assert_eq!(keyed_mac(&body, spi, key), keyed_mac(&body, spi, key));
        if other_key != key {
            // Equal-length inputs under different initial states cannot
            // collide either: the whole compression is a bijection per key.
            prop_assert_ne!(keyed_mac(&body, spi, key), keyed_mac(&body, spi, other_key));
        }
    }

    #[test]
    fn auth_tlv_round_trips_and_verifies(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        spi in any::<u32>(),
        key in any::<u64>(),
        wrong in any::<u64>(),
    ) {
        let tlv = AuthTlv::compute(&body, spi, key);
        let mut buf = bytes::BytesMut::new();
        tlv.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), AUTH_TLV_LEN);
        prop_assert_eq!(AuthTlv::parse_trailing(&buf).unwrap(), Some(tlv));
        prop_assert!(tlv.verify(&body, key));
        if wrong != key {
            prop_assert!(!tlv.verify(&body, wrong));
        }
    }

    #[test]
    fn auth_tlv_truncation_rejected(
        spi in any::<u32>(),
        digest in any::<u64>(),
        cut in 1usize..AUTH_TLV_LEN,
    ) {
        let tlv = AuthTlv { spi, digest };
        let mut buf = bytes::BytesMut::new();
        tlv.encode_into(&mut buf);
        prop_assert!(
            AuthTlv::parse_trailing(&buf[..cut]).is_err(),
            "prefix of {} parsed", cut
        );
    }

    #[test]
    fn arp_preamble_bitflips_rejected(
        op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
        smac in arb_mac(), tmac in arb_mac(),
        sip in arb_ipv4_addr(), tip in arb_ipv4_addr(),
        bit in 0usize..(8 * 8),
    ) {
        let pkt = ArpPacket { op, sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip };
        let mut bytes = pkt.to_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(ArpPacket::parse(&bytes).is_err(), "flip of preamble bit {bit} accepted");
    }
}

/// The parsers as they were before they parsed in place: each copies its
/// payload into fresh storage. Kept here, and only here, as the reference
/// the in-place parsers are compared against.
mod reference {
    use super::*;
    use mosquitonet_wire::{pseudo_header_sum, UnreachableCode, WireError};

    fn need(buf: &[u8], needed: usize) -> Result<(), WireError> {
        if buf.len() < needed {
            return Err(WireError::Truncated {
                needed,
                got: buf.len(),
            });
        }
        Ok(())
    }

    pub fn ipv4(buf: &[u8]) -> Result<Ipv4Packet, WireError> {
        let header = Ipv4Packet::parse_header_prefix(buf)?;
        let total_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total_len < 20 {
            return Err(WireError::BadLength);
        }
        need(buf, total_len)?;
        Ok(Ipv4Packet {
            header,
            payload: Bytes::copy_from_slice(&buf[20..total_len]),
        })
    }

    pub fn udp(buf: &[u8], src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Result<UdpDatagram, WireError> {
        need(buf, 8)?;
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < 8 {
            return Err(WireError::BadLength);
        }
        need(buf, len)?;
        let stored_ck = u16::from_be_bytes([buf[6], buf[7]]);
        if stored_ck != 0 {
            let pseudo = pseudo_header_sum(src_ip, dst_ip, 17, len as u16);
            if internet_checksum(&buf[..len], pseudo) != 0 {
                return Err(WireError::BadChecksum);
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: Bytes::copy_from_slice(&buf[8..len]),
        })
    }

    pub fn tcp(buf: &[u8], src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Result<TcpSegment, WireError> {
        need(buf, 20)?;
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if data_offset != 20 {
            return Err(WireError::UnsupportedHeaderLen(buf[12] >> 4));
        }
        let pseudo = pseudo_header_sum(src_ip, dst_ip, 6, buf.len() as u16);
        if internet_checksum(buf, pseudo) != 0 {
            return Err(WireError::BadChecksum);
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: tcp_flags_from_bits(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            payload: Bytes::copy_from_slice(&buf[20..]),
        })
    }

    pub fn icmp(buf: &[u8]) -> Result<IcmpMessage, WireError> {
        need(buf, 8)?;
        if internet_checksum(buf, 0) != 0 {
            return Err(WireError::BadChecksum);
        }
        let (ty, code) = (buf[0], buf[1]);
        let rest = Bytes::copy_from_slice(&buf[8..]);
        match ty {
            8 | 0 => {
                let ident = u16::from_be_bytes([buf[4], buf[5]]);
                let seq = u16::from_be_bytes([buf[6], buf[7]]);
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest {
                        ident,
                        seq,
                        payload: rest,
                    }
                } else {
                    IcmpMessage::EchoReply {
                        ident,
                        seq,
                        payload: rest,
                    }
                })
            }
            3 => Ok(IcmpMessage::DestUnreachable {
                code: match code {
                    0 => UnreachableCode::Net,
                    1 => UnreachableCode::Host,
                    3 => UnreachableCode::Port,
                    13 => UnreachableCode::AdminProhibited,
                    other => {
                        return Err(WireError::UnknownValue {
                            field: "icmp unreachable code",
                            value: u16::from(other),
                        })
                    }
                },
                invoking: rest,
            }),
            5 => Ok(IcmpMessage::Redirect {
                gateway: Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7]),
                invoking: rest,
            }),
            11 => Ok(IcmpMessage::TimeExceeded { invoking: rest }),
            other => Err(WireError::UnknownValue {
                field: "icmp type",
                value: u16::from(other),
            }),
        }
    }
}

/// Asserts `part` views memory inside `whole` (it is a slice of it, not a
/// copy).
fn assert_inside(part: &Bytes, whole: &Bytes) {
    let (p, w) = (part.as_ptr_range(), whole.as_ptr_range());
    assert!(
        w.start <= p.start && p.end <= w.end,
        "payload {p:?} lies outside its source buffer {w:?}"
    );
}

fn icmp_payload(msg: &IcmpMessage) -> &Bytes {
    match msg {
        IcmpMessage::EchoRequest { payload, .. } | IcmpMessage::EchoReply { payload, .. } => {
            payload
        }
        IcmpMessage::DestUnreachable { invoking, .. }
        | IcmpMessage::Redirect { invoking, .. }
        | IcmpMessage::TimeExceeded { invoking } => invoking,
    }
}

/// Runs `data` through all four in-place parsers and their copying
/// references: same `Ok`/`Err` variant, same fields, and every parsed
/// payload inside `data`.
fn assert_parsers_match_references_at(data: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) {
    let ip = Ipv4Packet::parse(data);
    assert_eq!(ip, reference::ipv4(data));
    if let Ok(p) = &ip {
        assert_inside(&p.payload, data);
    }
    let udp = UdpDatagram::parse(data, src, dst);
    assert_eq!(udp, reference::udp(data, src, dst));
    if let Ok(d) = &udp {
        assert_inside(&d.payload, data);
    }
    let tcp = TcpSegment::parse(data, src, dst);
    assert_eq!(tcp, reference::tcp(data, src, dst));
    if let Ok(s) = &tcp {
        assert_inside(&s.payload, data);
    }
    let icmp = IcmpMessage::parse(data);
    assert_eq!(icmp, reference::icmp(data));
    if let Ok(m) = &icmp {
        assert_inside(icmp_payload(m), data);
    }
}

fn assert_parsers_match_references(data: &Bytes) {
    let a = Ipv4Addr::new(1, 2, 3, 4);
    assert_parsers_match_references_at(data, a, a);
}

/// Every `<!-- doc-sync: name -->` hex block of `docs/PROTOCOL.md` — the
/// encodings `crates/core/tests/doc_sync.rs` pins to the real encoders.
fn protocol_hex_corpus() -> Vec<(String, Vec<u8>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    let text = std::fs::read_to_string(path).expect("docs/PROTOCOL.md must exist");
    let mut corpus = Vec::new();
    let mut rest = text.as_str();
    while let Some((_, after)) = rest.split_once("<!-- doc-sync: ") {
        let (name, after) = after.split_once(" -->").expect("marker closes");
        let (_, body) = after.split_once("```").expect("fenced block follows");
        let (fence, tail) = body.split_once("```").expect("fence closes");
        let bytes = fence
            .split_whitespace()
            .map(|tok| u8::from_str_radix(tok, 16).expect("hex token"))
            .collect();
        corpus.push((name.to_string(), bytes));
        rest = tail;
    }
    corpus
}

#[test]
fn parsers_match_references_on_the_protocol_corpus() {
    let corpus = protocol_hex_corpus();
    assert!(
        corpus.len() >= 5,
        "PROTOCOL.md lost its examples: {corpus:?}"
    );
    let mh = Ipv4Addr::new(36, 8, 0, 42);
    let ha = Ipv4Addr::new(36, 135, 0, 2);
    for (name, message) in corpus {
        // As bare bytes (none of these is a valid packet of any kind) …
        assert_parsers_match_references(&Bytes::from(message.clone()));
        // … and as they travel: UDP port 434, in IPv4, in an IP-in-IP
        // tunnel, behind trailing link padding.
        let dgram = UdpDatagram::new(434, 434, Bytes::from(message.clone()));
        let inner = Ipv4Packet::new(
            Ipv4Header::new(mh, ha, IpProto::Udp),
            dgram.to_bytes(mh, ha),
        );
        let mut wire = ipip::encapsulate(&inner, mh, ha).to_bytes().to_vec();
        wire.extend_from_slice(&[0; 6]);
        let wire = Bytes::from(wire);
        assert_parsers_match_references(&wire);
        let outer = Ipv4Packet::parse(&wire).expect(&name);
        let back = ipip::decapsulate(&outer).expect(&name);
        assert_eq!(
            Ok(&back),
            reference::ipv4(&outer.payload).as_ref(),
            "{name}"
        );
        let parsed = UdpDatagram::parse(&back.payload, mh, ha).expect(&name);
        assert_eq!(
            Ok(&parsed),
            reference::udp(&back.payload, mh, ha).as_ref(),
            "{name}"
        );
        assert_eq!(parsed.payload, message[..], "{name}");
        assert_inside(&parsed.payload, &wire);
    }
}

fn tcp_flags_from_bits(b: u8) -> TcpFlags {
    TcpFlags {
        fin: b & 1 != 0,
        syn: b & 2 != 0,
        rst: b & 4 != 0,
        psh: b & 8 != 0,
        ack: b & 16 != 0,
    }
}
