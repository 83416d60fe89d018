//! Link-layer frames.
//!
//! One frame format serves both media: Ethernet II framing for the wired
//! nets and the same header reused as the logical framing for STRIP (the
//! real STRIP driver encoded frames for the serial port, but preserved
//! exactly this addressing information — radio address, protocol, payload).

use bytes::{BufMut, Bytes, BytesMut};

use mosquitonet_wire::{MacAddr, WireError};

/// Frame header length (destination MAC, source MAC, EtherType).
pub const FRAME_HEADER_LEN: usize = 14;

/// Payload protocol carried in a frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
}

impl EtherType {
    /// The on-wire type value.
    pub fn number(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
        }
    }

    /// Decodes a type value.
    pub fn from_number(n: u16) -> Result<EtherType, WireError> {
        match n {
            0x0800 => Ok(EtherType::Ipv4),
            0x0806 => Ok(EtherType::Arp),
            other => Err(WireError::UnknownValue {
                field: "ethertype",
                value: other,
            }),
        }
    }
}

/// A link-layer frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Destination hardware address ([`MacAddr::BROADCAST`] for broadcast).
    pub dst: MacAddr,
    /// Source hardware address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Payload bytes (an IP packet or ARP message).
    pub payload: Bytes,
}

impl Frame {
    /// Assembles a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Bytes) -> Frame {
        Frame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// On-wire length in bytes (header + payload, no FCS modeled).
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }

    /// True when addressed to the broadcast MAC.
    pub fn is_broadcast(&self) -> bool {
        self.dst.is_broadcast()
    }

    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        let mut header = [0u8; FRAME_HEADER_LEN];
        Frame::write_header(self.dst, self.src, self.ethertype, &mut header);
        buf.put_slice(&header);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Writes the 14-byte frame header into `out` — the in-place prepend
    /// used by the pooled transmit path, which assembles the payload first
    /// and claims the header bytes from buffer headroom.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is exactly [`FRAME_HEADER_LEN`] bytes.
    pub fn write_header(dst: MacAddr, src: MacAddr, ethertype: EtherType, out: &mut [u8]) {
        assert_eq!(out.len(), FRAME_HEADER_LEN, "header slice must be 14 bytes");
        out[0..6].copy_from_slice(&dst.octets());
        out[6..12].copy_from_slice(&src.octets());
        out[12..14].copy_from_slice(&ethertype.number().to_be_bytes());
    }

    /// Parses from bytes. The payload is a [`slice`](Bytes::slice) of
    /// `bytes` — the arriving frame's storage, shared rather than copied.
    pub fn parse(bytes: &Bytes) -> Result<Frame, WireError> {
        let buf: &[u8] = bytes;
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
            payload: bytes.slice(FRAME_HEADER_LEN..),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let f = Frame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            Bytes::from_static(b"ip packet bytes"),
        );
        assert_eq!(Frame::parse(&f.to_bytes()).unwrap(), f);
        assert_eq!(f.wire_len(), 14 + 15);
    }

    #[test]
    fn write_header_matches_to_bytes() {
        let f = Frame::new(
            MacAddr::from_index(9),
            MacAddr::from_index(4),
            EtherType::Arp,
            Bytes::from_static(b"arp"),
        );
        let mut header = [0u8; FRAME_HEADER_LEN];
        Frame::write_header(f.dst, f.src, f.ethertype, &mut header);
        assert_eq!(&f.to_bytes()[..FRAME_HEADER_LEN], &header);
    }

    #[test]
    fn broadcast_detection() {
        let f = Frame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            EtherType::Arp,
            Bytes::new(),
        );
        assert!(f.is_broadcast());
    }

    #[test]
    fn unknown_ethertype_rejected() {
        let f = Frame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            Bytes::new(),
        );
        let mut bytes = f.to_bytes().to_vec();
        bytes[12] = 0x86;
        bytes[13] = 0xdd; // IPv6
        assert!(matches!(
            Frame::parse(&bytes.into()),
            Err(WireError::UnknownValue {
                field: "ethertype",
                value: 0x86dd
            })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Frame::parse(&Bytes::from_static(&[0u8; 13])),
            Err(WireError::Truncated {
                needed: 14,
                got: 13
            })
        ));
    }

    #[test]
    fn ethertype_numbers() {
        assert_eq!(EtherType::Ipv4.number(), 0x0800);
        assert_eq!(EtherType::Arp.number(), 0x0806);
        assert_eq!(EtherType::from_number(0x0800).unwrap(), EtherType::Ipv4);
    }
}
