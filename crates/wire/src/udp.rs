//! UDP datagrams (RFC 768) with pseudo-header checksums.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

use crate::checksum::{internet_checksum, pseudo_header_sum};
use crate::error::{need, WireError};

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram: ports plus payload.
///
/// Serialization requires the enclosing IP addresses because the UDP
/// checksum covers a pseudo-header (RFC 768); the same addresses must be
/// supplied to [`UdpDatagram::parse`].
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::UdpDatagram;
/// use std::net::Ipv4Addr;
///
/// let src = Ipv4Addr::new(36, 8, 0, 7);
/// let dst = Ipv4Addr::new(36, 135, 0, 9);
/// let dgram = UdpDatagram::new(5000, 7, b"ping".to_vec().into());
/// let bytes = dgram.to_bytes(src, dst);
/// assert_eq!(UdpDatagram::parse(&bytes, src, dst).unwrap(), dgram);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Assembles a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> UdpDatagram {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// On-wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Serializes with a checksum over the RFC 768 pseudo-header.
    ///
    /// # Panics
    ///
    /// Panics if the datagram exceeds 65 535 bytes.
    pub fn to_bytes(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.write_into(src_ip, dst_ip, &mut buf);
        buf.freeze()
    }

    /// Appends the serialized datagram — header, checksum over the RFC 768
    /// pseudo-header, payload — at `buf`'s tail. The output path writes
    /// straight into its headroomed [`PacketBuf`](crate::PacketBuf) this
    /// way, so the datagram is never assembled anywhere else first.
    ///
    /// # Panics
    ///
    /// Panics if the datagram exceeds 65 535 bytes.
    pub fn write_into(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr, buf: &mut impl BufMut) {
        let len = self.wire_len();
        assert!(len <= u16::MAX as usize, "UDP datagram too large: {len}");
        // The header is four 16-bit words (the checksum word zero while
        // summing), so its contribution folds into the initial sum and the
        // payload is summed where it lies.
        let header_sum = pseudo_header_sum(src_ip, dst_ip, 17, len as u16)
            + u32::from(self.src_port)
            + u32::from(self.dst_port)
            + len as u32;
        let mut ck = internet_checksum(&self.payload, header_sum);
        // RFC 768: a computed zero checksum is transmitted as all ones.
        if ck == 0 {
            ck = 0xffff;
        }
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(len as u16);
        buf.put_u16(ck);
        buf.put_slice(&self.payload);
    }

    /// Parses and verifies against the given pseudo-header addresses. The
    /// payload is a [`slice`](Bytes::slice) of `bytes`; nothing is copied.
    pub fn parse(
        bytes: &Bytes,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> Result<UdpDatagram, WireError> {
        let buf: &[u8] = bytes;
        need(buf, UDP_HEADER_LEN)?;
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len < UDP_HEADER_LEN {
            return Err(WireError::BadLength);
        }
        need(buf, len)?;
        let stored_ck = u16::from_be_bytes([buf[6], buf[7]]);
        // RFC 768: checksum zero means "not computed" (legal for UDP).
        if stored_ck != 0 {
            let pseudo = pseudo_header_sum(src_ip, dst_ip, 17, len as u16);
            if internet_checksum(&buf[..len], pseudo) != 0 {
                return Err(WireError::BadChecksum);
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: bytes.slice(UDP_HEADER_LEN..len),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    const DST: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 7);

    #[test]
    fn round_trip() {
        let d = UdpDatagram::new(434, 1024, Bytes::from_static(b"registration"));
        let back = UdpDatagram::parse(&d.to_bytes(SRC, DST), SRC, DST).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn checksum_binds_the_addresses() {
        // A datagram tunneled to the wrong host must fail verification:
        // the pseudo-header covers src/dst IPs.
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"x"));
        let bytes = d.to_bytes(SRC, DST);
        let other = Ipv4Addr::new(36, 134, 0, 3);
        assert_eq!(
            UdpDatagram::parse(&bytes, SRC, other),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn corrupted_payload_detected() {
        let d = UdpDatagram::new(7, 7, Bytes::from_static(b"echo data"));
        let mut bytes = d.to_bytes(SRC, DST).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(
            UdpDatagram::parse(&bytes.into(), SRC, DST),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn zero_checksum_means_unverified() {
        let d = UdpDatagram::new(9, 10, Bytes::from_static(b"lazy sender"));
        let mut bytes = d.to_bytes(SRC, DST).to_vec();
        bytes[6] = 0;
        bytes[7] = 0;
        // Must parse fine even with "wrong" addresses.
        let back = UdpDatagram::parse(&bytes.into(), DST, SRC).unwrap();
        assert_eq!(back.payload, d.payload);
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram::new(53, 53, Bytes::new());
        let bytes = d.to_bytes(SRC, DST);
        assert_eq!(bytes.len(), UDP_HEADER_LEN);
        assert_eq!(UdpDatagram::parse(&bytes, SRC, DST).unwrap(), d);
    }

    #[test]
    fn rejects_truncation_and_bad_length() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abcdef"));
        let bytes = d.to_bytes(SRC, DST);
        assert!(matches!(
            UdpDatagram::parse(&bytes.slice(..5), SRC, DST),
            Err(WireError::Truncated { .. })
        ));
        let mut short_len = bytes.to_vec();
        short_len[4] = 0;
        short_len[5] = 4; // length < 8
        assert_eq!(
            UdpDatagram::parse(&short_len.into(), SRC, DST),
            Err(WireError::BadLength)
        );
    }

    #[test]
    fn trailing_padding_is_ignored() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"pad me"));
        let mut bytes = d.to_bytes(SRC, DST).to_vec();
        bytes.extend_from_slice(&[0xAA; 16]);
        assert_eq!(UdpDatagram::parse(&bytes.into(), SRC, DST).unwrap(), d);
    }
}
