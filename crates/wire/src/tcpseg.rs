//! TCP segment headers (RFC 793, options-free).
//!
//! The paper's motivation for seamless switching is long-lived connections
//! — "remote logins with active processes" (§1) — so the stack implements
//! enough TCP to carry one. This module is only the segment wire format;
//! the connection state machine lives in `mosquitonet-stack`.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

use crate::checksum::{internet_checksum, pseudo_header_sum};
use crate::error::{need, WireError};

/// Options-free TCP header length.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgment field is significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
}

impl TcpFlags {
    /// SYN alone.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };

    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    /// ACK alone.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };

    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };

    /// RST alone.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_byte(self) -> u8 {
        (u8::from(self.fin))
            | (u8::from(self.syn) << 1)
            | (u8::from(self.rst) << 2)
            | (u8::from(self.psh) << 3)
            | (u8::from(self.ack) << 4)
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP segment: header fields plus payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or the SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgment (valid when `flags.ack`).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Sequence-number space consumed by this segment (payload plus one for
    /// SYN and one for FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Serializes with a pseudo-header checksum.
    pub fn to_bytes(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Bytes {
        let len = TCP_HEADER_LEN + self.payload.len();
        assert!(len <= u16::MAX as usize, "TCP segment too large: {len}");
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(5 << 4); // data offset 5 words, no options
        buf.put_u8(self.flags.to_byte());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(0); // urgent pointer
        buf.put_slice(&self.payload);
        let pseudo = pseudo_header_sum(src_ip, dst_ip, 6, len as u16);
        let ck = internet_checksum(&buf, pseudo);
        buf[16..18].copy_from_slice(&ck.to_be_bytes());
        buf.freeze()
    }

    /// Parses and verifies against the pseudo-header addresses.
    pub fn parse(
        bytes: &Bytes,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> Result<TcpSegment, WireError> {
        let buf: &[u8] = bytes;
        need(buf, TCP_HEADER_LEN)?;
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if data_offset != TCP_HEADER_LEN {
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
            flags: TcpFlags::from_byte(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            payload: bytes.slice(TCP_HEADER_LEN..),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    const DST: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 7);

    fn seg(flags: TcpFlags, payload: &'static [u8]) -> TcpSegment {
        TcpSegment {
            src_port: 1023,
            dst_port: 513, // rlogin, in the spirit of the paper
            seq: 0x01020304,
            ack: 0x0a0b0c0d,
            flags,
            window: 4096,
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn round_trip_with_payload() {
        let s = seg(TcpFlags::ACK, b"ls -l\n");
        assert_eq!(
            TcpSegment::parse(&s.to_bytes(SRC, DST), SRC, DST).unwrap(),
            s
        );
    }

    #[test]
    fn all_flag_combinations_round_trip() {
        for bits in 0..32u8 {
            let flags = TcpFlags::from_byte(bits);
            let s = seg(flags, b"");
            let back = TcpSegment::parse(&s.to_bytes(SRC, DST), SRC, DST).unwrap();
            assert_eq!(back.flags, flags);
        }
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        assert_eq!(seg(TcpFlags::SYN, b"").seq_len(), 1);
        assert_eq!(seg(TcpFlags::FIN_ACK, b"").seq_len(), 1);
        assert_eq!(seg(TcpFlags::ACK, b"abc").seq_len(), 3);
        let syn_with_data = seg(TcpFlags::SYN, b"xy");
        assert_eq!(syn_with_data.seq_len(), 3);
    }

    #[test]
    fn checksum_binds_addresses() {
        // Note: swapping src and dst does NOT change the checksum (one's
        // complement addition commutes), so test with a different address.
        let s = seg(TcpFlags::ACK, b"data");
        let bytes = s.to_bytes(SRC, DST);
        let other = Ipv4Addr::new(36, 134, 0, 3);
        assert_eq!(
            TcpSegment::parse(&bytes, SRC, other),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn rejects_options_bearing_header() {
        let s = seg(TcpFlags::SYN, b"");
        let mut bytes = s.to_bytes(SRC, DST).to_vec();
        bytes[12] = 6 << 4; // claim 24-byte header
        assert!(matches!(
            TcpSegment::parse(&bytes.into(), SRC, DST),
            Err(WireError::UnsupportedHeaderLen(6))
        ));
    }

    #[test]
    fn rejects_truncation() {
        assert!(matches!(
            TcpSegment::parse(&Bytes::from_static(&[0u8; 10]), SRC, DST),
            Err(WireError::Truncated { .. })
        ));
    }
}
