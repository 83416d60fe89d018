//! IP-in-IP encapsulation (protocol 4), the paper's tunneling mechanism.
//!
//! "The home agent encapsulates each packet with an extra IP header that
//! directs the packet to the mobile host's current care-of address" (§2).
//! The same code runs in three places, exactly as the paper's Figure 4
//! describes vif/IPIP as one module: on the home agent (forward tunnel), on
//! the mobile host's VIF (reverse tunnel and direct-encapsulated sends),
//! and in every decapsulating receiver.

use std::net::Ipv4Addr;

use crate::error::WireError;
use crate::ipv4::{IpProto, Ipv4Header, Ipv4Packet};
use crate::pktbuf::PacketBuf;

/// Wraps `inner` in an outer IPv4 header from `outer_src` to `outer_dst`.
///
/// The outer header copies the inner TOS (so queueing treatment is
/// preserved through the tunnel) and uses a fresh default TTL: the tunnel
/// is one logical hop, as in the Linux `ipip` module of the era.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::{Ipv4Packet, Ipv4Header, IpProto, ipip};
/// use std::net::Ipv4Addr;
///
/// let inner = Ipv4Packet::new(
///     Ipv4Header::new("36.8.0.7".parse().unwrap(), "36.135.0.9".parse().unwrap(), IpProto::Udp),
///     vec![9; 16].into(),
/// );
/// let outer = ipip::encapsulate(&inner, "36.135.0.1".parse().unwrap(), "36.8.0.42".parse().unwrap());
/// let back = ipip::decapsulate(&outer).unwrap();
/// assert_eq!(back, inner);
/// ```
pub fn encapsulate(inner: &Ipv4Packet, outer_src: Ipv4Addr, outer_dst: Ipv4Addr) -> Ipv4Packet {
    let mut outer_header = Ipv4Header::new(outer_src, outer_dst, IpProto::IpIp);
    outer_header.tos = inner.header.tos;
    Ipv4Packet::new(outer_header, inner.to_bytes())
}

/// Unwraps an IP-in-IP packet, returning the inner packet, whose payload
/// is a slice of the outer packet's storage (nothing is copied).
///
/// Fails with [`WireError::UnknownValue`] if `outer` is not protocol 4, or
/// with the inner packet's parse error if the payload is not valid IPv4.
#[inline]
pub fn decapsulate(outer: &Ipv4Packet) -> Result<Ipv4Packet, WireError> {
    if outer.header.protocol != IpProto::IpIp {
        return Err(WireError::UnknownValue {
            field: "ipip outer protocol",
            value: u16::from(outer.header.protocol.number()),
        });
    }
    Ipv4Packet::parse(&outer.payload)
}

/// Prepends the outer IPv4 tunnel header **in place** onto a buffer that
/// already holds the serialized inner packet.
///
/// Byte-for-byte equivalent to [`encapsulate`] followed by
/// `to_bytes()`, but with zero copying of the inner packet: the 20 outer
/// bytes are written into the buffer's reserved headroom. `inner_tos` is
/// the inner header's TOS, copied to the outer header exactly as
/// [`encapsulate`] does.
///
/// # Panics
///
/// Panics if the buffer lacks [`ENCAP_OVERHEAD`] bytes of headroom or the
/// encapsulated packet would exceed the IPv4 total-length limit.
#[inline]
pub fn prepend_outer(buf: &mut PacketBuf, inner_tos: u8, outer_src: Ipv4Addr, outer_dst: Ipv4Addr) {
    let total = buf.len() + ENCAP_OVERHEAD;
    assert!(total <= u16::MAX as usize, "encapsulated packet too large");
    let mut outer = Ipv4Header::new(outer_src, outer_dst, IpProto::IpIp);
    outer.tos = inner_tos;
    outer.write_header(total as u16, buf.prepend(ENCAP_OVERHEAD));
}

/// The per-packet byte overhead of one level of encapsulation.
///
/// The paper: "Encapsulation adds 20 bytes or more to the packet length"
/// (§3.2). With no IP options, it is exactly 20.
pub const ENCAP_OVERHEAD: usize = crate::ipv4::IPV4_HEADER_LEN;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn inner() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Header::new(
                Ipv4Addr::new(36, 8, 0, 7),
                Ipv4Addr::new(36, 135, 0, 9),
                IpProto::Udp,
            ),
            Bytes::from_static(b"application bytes"),
        )
    }

    #[test]
    fn encapsulation_adds_exactly_20_bytes() {
        let i = inner();
        let o = encapsulate(
            &i,
            Ipv4Addr::new(36, 135, 0, 1),
            Ipv4Addr::new(36, 8, 0, 42),
        );
        assert_eq!(o.total_len(), i.total_len() + ENCAP_OVERHEAD);
        assert_eq!(o.header.protocol, IpProto::IpIp);
    }

    #[test]
    fn decapsulation_restores_the_inner_packet() {
        let i = inner();
        let o = encapsulate(
            &i,
            Ipv4Addr::new(36, 135, 0, 1),
            Ipv4Addr::new(36, 8, 0, 42),
        );
        assert_eq!(decapsulate(&o).unwrap(), i);
    }

    #[test]
    fn tos_is_copied_to_outer() {
        let mut i = inner();
        i.header.tos = 0x10; // low-delay
        let o = encapsulate(&i, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(o.header.tos, 0x10);
    }

    #[test]
    fn outer_ttl_is_fresh() {
        let mut i = inner();
        i.header.ttl = 3;
        let o = encapsulate(&i, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(o.header.ttl, crate::ipv4::DEFAULT_TTL);
        assert_eq!(
            decapsulate(&o).unwrap().header.ttl,
            3,
            "inner TTL preserved"
        );
    }

    #[test]
    fn double_encapsulation_nests() {
        let i = inner();
        let once = encapsulate(&i, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2));
        let twice = encapsulate(&once, Ipv4Addr::new(3, 3, 3, 3), Ipv4Addr::new(4, 4, 4, 4));
        assert_eq!(twice.total_len(), i.total_len() + 2 * ENCAP_OVERHEAD);
        assert_eq!(decapsulate(&decapsulate(&twice).unwrap()).unwrap(), i);
    }

    #[test]
    fn prepend_outer_matches_encapsulate() {
        let mut i = inner();
        i.header.tos = 0x08;
        let ha = Ipv4Addr::new(36, 135, 0, 1);
        let co = Ipv4Addr::new(36, 8, 0, 42);
        let reference = encapsulate(&i, ha, co).to_bytes();

        let mut buf = PacketBuf::with_headroom(ENCAP_OVERHEAD);
        i.write_into(&mut buf);
        prepend_outer(&mut buf, i.header.tos, ha, co);
        assert_eq!(buf.as_slice(), &reference[..]);
    }

    #[test]
    fn decapsulate_rejects_non_ipip() {
        let i = inner();
        assert!(matches!(
            decapsulate(&i),
            Err(WireError::UnknownValue {
                field: "ipip outer protocol",
                value: 17
            })
        ));
    }

    #[test]
    fn decapsulate_rejects_garbage_payload() {
        let bogus = Ipv4Packet::new(
            Ipv4Header::new(
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                IpProto::IpIp,
            ),
            Bytes::from_static(&[0xde, 0xad]),
        );
        assert!(matches!(
            decapsulate(&bogus),
            Err(WireError::Truncated { .. })
        ));
    }
}
