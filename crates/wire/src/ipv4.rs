//! IPv4 headers and packets (RFC 791, options-free).

use bytes::{BufMut, Bytes};
use std::net::Ipv4Addr;

use crate::checksum::internet_checksum;
use crate::error::{need, WireError};
use crate::pktbuf::PacketBuf;

/// Length of the options-free IPv4 header this stack emits.
pub const IPV4_HEADER_LEN: usize = 20;

/// The default time-to-live for locally originated packets, as Linux of the
/// era used (RFC 1340 recommended 64).
pub const DEFAULT_TTL: u8 = 64;

/// Transport protocol numbers the MosquitoNet stack understands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// IP-in-IP encapsulation (4) — the tunnel protocol of the paper.
    IpIp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved for forwarding.
    Other(u8),
}

impl IpProto {
    /// The protocol field value.
    #[inline]
    pub fn number(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::IpIp => 4,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(n) => n,
        }
    }

    /// Decodes a protocol field value.
    #[inline]
    pub fn from_number(n: u8) -> IpProto {
        match n {
            1 => IpProto::Icmp,
            4 => IpProto::IpIp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// An options-free IPv4 header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: IpProto,
    /// Hops remaining.
    pub ttl: u8,
    /// Type-of-service byte (carried, not interpreted).
    pub tos: u8,
    /// Identification field (used only for diagnostics; this stack never
    /// fragments).
    pub ident: u16,
    /// The DF bit.
    pub dont_fragment: bool,
}

impl Ipv4Header {
    /// Creates a header with default TTL, zero TOS/ident, and DF set
    /// (this stack never fragments).
    #[inline]
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProto) -> Ipv4Header {
        Ipv4Header {
            src,
            dst,
            protocol,
            ttl: DEFAULT_TTL,
            tos: 0,
            ident: 0,
            dont_fragment: true,
        }
    }

    /// Serializes this header into exactly [`IPV4_HEADER_LEN`] bytes of
    /// `out`, with `total_len` as the total-length field and the checksum
    /// computed in place.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly [`IPV4_HEADER_LEN`] bytes.
    #[inline]
    pub fn write_header(&self, total_len: u16, out: &mut [u8]) {
        assert_eq!(out.len(), IPV4_HEADER_LEN, "header slice must be 20 bytes");
        out[0] = 0x45; // version 4, IHL 5
        out[1] = self.tos;
        out[2..4].copy_from_slice(&total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.ident.to_be_bytes());
        let flags: u16 = if self.dont_fragment { 0x4000 } else { 0 };
        out[6..8].copy_from_slice(&flags.to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.protocol.number();
        out[10..12].fill(0); // checksum placeholder
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let ck = internet_checksum(out, 0);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
    }
}

/// A full IPv4 packet: header plus opaque payload bytes.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::{Ipv4Packet, Ipv4Header, IpProto};
/// use std::net::Ipv4Addr;
///
/// let pkt = Ipv4Packet::new(
///     Ipv4Header::new("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), IpProto::Udp),
///     vec![0xde, 0xad].into(),
/// );
/// let bytes = pkt.to_bytes();
/// let back = Ipv4Packet::parse(&bytes).unwrap();
/// assert_eq!(back, pkt);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Packet {
    /// The header.
    pub header: Ipv4Header,
    /// Transport payload.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Assembles a packet.
    #[inline]
    pub fn new(header: Ipv4Header, payload: Bytes) -> Ipv4Packet {
        Ipv4Packet { header, payload }
    }

    /// Total on-wire length (header + payload) in bytes.
    #[inline]
    pub fn total_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// Serializes to wire bytes, computing the header checksum.
    ///
    /// # Panics
    ///
    /// Panics if the packet would exceed the 65 535-byte IPv4 total-length
    /// limit; the simulator never builds such packets.
    #[inline]
    pub fn to_bytes(&self) -> Bytes {
        let total = self.total_len();
        assert!(total <= u16::MAX as usize, "IPv4 packet too large: {total}");
        let mut buf = Vec::with_capacity(total);
        buf.resize(IPV4_HEADER_LEN, 0);
        self.header.write_header(total as u16, &mut buf[..]);
        buf.extend_from_slice(&self.payload);
        Bytes::from(buf)
    }

    /// Serializes into `buf` without an intermediate allocation,
    /// appending header then payload at the buffer's current tail.
    ///
    /// This is the transmit fast path: the caller reserves headroom for
    /// the outer layers (frame header, optional tunnel header), writes the
    /// packet once here, and the outer layers prepend in place.
    ///
    /// # Panics
    ///
    /// Panics if the packet would exceed the 65 535-byte IPv4 total-length
    /// limit; the simulator never builds such packets.
    #[inline]
    pub fn write_into(&self, buf: &mut PacketBuf) {
        let total = self.total_len();
        assert!(total <= u16::MAX as usize, "IPv4 packet too large: {total}");
        let at = buf.len();
        buf.put_slice(&[0u8; IPV4_HEADER_LEN]);
        buf.put_slice(&self.payload);
        self.header.write_header(
            total as u16,
            &mut buf.as_mut_slice()[at..at + IPV4_HEADER_LEN],
        );
    }

    /// Parses wire bytes, verifying version, lengths, and header checksum.
    /// The payload is a [`slice`](Bytes::slice) of `buf` — nothing is
    /// copied, and `buf`'s storage lives as long as the packet does.
    #[inline]
    pub fn parse(buf: &Bytes) -> Result<Ipv4Packet, WireError> {
        let raw: &[u8] = buf;
        let header = Ipv4Packet::parse_header_prefix(raw)?;
        let total_len = usize::from(u16::from_be_bytes([raw[2], raw[3]]));
        if total_len < IPV4_HEADER_LEN {
            return Err(WireError::BadLength);
        }
        need(raw, total_len)?;
        Ok(Ipv4Packet {
            header,
            payload: buf.slice(IPV4_HEADER_LEN..total_len),
        })
    }

    /// Parses just a header from the front of `buf`, without requiring the
    /// full payload to be present.
    ///
    /// This is how ICMP error handlers read the "invoking packet" quote,
    /// which carries only the header plus eight payload bytes.
    #[inline]
    pub fn parse_header_prefix(buf: &[u8]) -> Result<Ipv4Header, WireError> {
        need(buf, IPV4_HEADER_LEN)?;
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::BadVersion(version));
        }
        if buf[0] & 0x0f != 5 {
            return Err(WireError::UnsupportedHeaderLen(buf[0] & 0x0f));
        }
        if internet_checksum(&buf[..IPV4_HEADER_LEN], 0) != 0 {
            return Err(WireError::BadChecksum);
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok(Ipv4Header {
            tos: buf[1],
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            ttl: buf[8],
            protocol: IpProto::from_number(buf[9]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        })
    }

    /// The first `IPV4_HEADER_LEN + 8` wire bytes, as ICMP error messages
    /// quote them (RFC 792: "internet header + 64 bits of original data").
    /// Only those bytes are written: the header, with the whole packet's
    /// total length, and at most 8 payload bytes.
    ///
    /// # Panics
    ///
    /// Panics, as [`to_bytes`](Ipv4Packet::to_bytes) does, if the packet
    /// would exceed the 65 535-byte IPv4 total-length limit.
    pub fn invoking_quote(&self) -> Bytes {
        let total = self.total_len();
        assert!(total <= u16::MAX as usize, "IPv4 packet too large: {total}");
        let mut quote = [0u8; IPV4_HEADER_LEN + 8];
        self.header
            .write_header(total as u16, &mut quote[..IPV4_HEADER_LEN]);
        let tail = self.payload.len().min(8);
        quote[IPV4_HEADER_LEN..][..tail].copy_from_slice(&self.payload[..tail]);
        Bytes::copy_from_slice(&quote[..IPV4_HEADER_LEN + tail])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Header::new(
                Ipv4Addr::new(36, 135, 0, 9),
                Ipv4Addr::new(36, 8, 0, 7),
                IpProto::Udp,
            ),
            Bytes::from_static(&[1, 2, 3, 4, 5]),
        )
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut pkt = sample();
        pkt.header.ttl = 17;
        pkt.header.tos = 0x10;
        pkt.header.ident = 0xBEEF;
        pkt.header.dont_fragment = false;
        let back = Ipv4Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn serialized_length_fields_are_correct() {
        let pkt = sample();
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), 25);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 25);
        assert_eq!(bytes[0], 0x45);
        assert_eq!(bytes[9], 17); // UDP
    }

    #[test]
    fn checksum_is_valid_on_the_wire() {
        let bytes = sample().to_bytes();
        assert_eq!(internet_checksum(&bytes[..IPV4_HEADER_LEN], 0), 0);
    }

    #[test]
    fn parse_rejects_corrupted_header() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[16] ^= 0xff; // flip destination octet
        assert_eq!(
            Ipv4Packet::parse(&bytes.into()),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn parse_rejects_wrong_version_and_ihl() {
        let mut v6 = sample().to_bytes().to_vec();
        v6[0] = 0x65;
        assert_eq!(Ipv4Packet::parse(&v6.into()), Err(WireError::BadVersion(6)));
        let mut opts = sample().to_bytes().to_vec();
        opts[0] = 0x46;
        assert_eq!(
            Ipv4Packet::parse(&opts.into()),
            Err(WireError::UnsupportedHeaderLen(6))
        );
    }

    #[test]
    fn parse_rejects_truncation() {
        let bytes = sample().to_bytes();
        assert!(matches!(
            Ipv4Packet::parse(&bytes.slice(..10)),
            Err(WireError::Truncated { .. })
        ));
        // Header intact but payload shorter than total_length claims.
        assert!(matches!(
            Ipv4Packet::parse(&bytes.slice(..22)),
            Err(WireError::Truncated {
                needed: 25,
                got: 22
            })
        ));
    }

    #[test]
    fn parse_ignores_trailing_link_padding() {
        // Ethernet pads short frames; parse must honor total_length.
        let mut bytes = sample().to_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 30]);
        let pkt = Ipv4Packet::parse(&bytes.into()).unwrap();
        assert_eq!(pkt.payload.len(), 5);
    }

    #[test]
    fn proto_numbers_round_trip() {
        for p in [
            IpProto::Icmp,
            IpProto::IpIp,
            IpProto::Tcp,
            IpProto::Udp,
            IpProto::Other(89),
        ] {
            assert_eq!(IpProto::from_number(p.number()), p);
        }
        assert_eq!(IpProto::from_number(4), IpProto::IpIp);
    }

    #[test]
    fn invoking_quote_is_header_plus_8() {
        for len in [0usize, 5, 8, 100, 1400] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut pkt = Ipv4Packet::new(
                Ipv4Header::new(
                    Ipv4Addr::new(1, 1, 1, 1),
                    Ipv4Addr::new(2, 2, 2, 2),
                    IpProto::Udp,
                ),
                Bytes::from(payload),
            );
            pkt.header.ident = 0x1234;
            pkt.header.tos = 0x10;
            let whole = pkt.to_bytes();
            let quote = pkt.invoking_quote();
            assert_eq!(quote.len(), IPV4_HEADER_LEN + len.min(8), "payload {len}");
            assert_eq!(quote, whole.slice(..whole.len().min(28)), "payload {len}");
        }
        let short = sample();
        assert_eq!(short.invoking_quote().len(), 25);
    }

    #[test]
    fn parse_header_prefix_reads_quotes() {
        // ICMP error messages quote header + 8 bytes; the prefix parser
        // must work on exactly that.
        let pkt = Ipv4Packet::new(
            Ipv4Header::new(
                Ipv4Addr::new(36, 135, 0, 9),
                Ipv4Addr::new(36, 8, 0, 7),
                IpProto::Udp,
            ),
            Bytes::from(vec![0u8; 64]),
        );
        let quote = pkt.invoking_quote();
        let h = Ipv4Packet::parse_header_prefix(&quote).unwrap();
        assert_eq!(h.src, pkt.header.src);
        assert_eq!(h.dst, pkt.header.dst);
        assert_eq!(h.protocol, IpProto::Udp);
    }

    #[test]
    fn parse_header_prefix_rejects_corruption_and_short_input() {
        let pkt = sample();
        let mut quote = pkt.invoking_quote().to_vec();
        quote[16] ^= 0xff;
        assert_eq!(
            Ipv4Packet::parse_header_prefix(&quote),
            Err(WireError::BadChecksum)
        );
        assert!(matches!(
            Ipv4Packet::parse_header_prefix(&pkt.to_bytes()[..10]),
            Err(WireError::Truncated { .. })
        ));
        let mut v6 = pkt.to_bytes().to_vec();
        v6[0] = 0x65;
        assert_eq!(
            Ipv4Packet::parse_header_prefix(&v6),
            Err(WireError::BadVersion(6))
        );
    }

    #[test]
    fn write_into_matches_to_bytes() {
        let mut pkt = sample();
        pkt.header.ttl = 9;
        pkt.header.tos = 0x10;
        let mut buf = PacketBuf::with_headroom(14);
        pkt.write_into(&mut buf);
        assert_eq!(buf.as_slice(), &pkt.to_bytes()[..]);
        assert_eq!(buf.headroom(), 14, "headroom untouched by appends");
    }

    #[test]
    fn empty_payload_packet() {
        let pkt = Ipv4Packet::new(
            Ipv4Header::new(
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                IpProto::Icmp,
            ),
            Bytes::new(),
        );
        let back = Ipv4Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(back.total_len(), IPV4_HEADER_LEN);
        assert!(back.payload.is_empty());
    }
}
