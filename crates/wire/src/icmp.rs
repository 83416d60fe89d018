//! ICMP messages (RFC 792): echo, destination unreachable, redirect,
//! time exceeded.
//!
//! The paper leans on ICMP twice: the mobile host's *local role* must answer
//! pings on the visited network (§5.2), and ICMP routing redirects are one
//! of the reasons full transparency fails (§5.2, third implication). Both
//! paths need real messages.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;
use std::ops::DerefMut;

use crate::arraybuf::ArrayBuf;
use crate::checksum::internet_checksum;
use crate::error::{need, WireError};

/// The longest message written on the stack: an error's 8-byte header
/// and its quote of a header and 8 payload bytes (28, see
/// [`Ipv4Packet::invoking_quote`](crate::Ipv4Packet::invoking_quote)) fit
/// with room to spare, and so does a short echo.
const ON_STACK: usize = 64;

/// Codes for destination-unreachable messages this stack emits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnreachableCode {
    /// Code 0: network unreachable (no route).
    Net,
    /// Code 1: host unreachable (ARP failure / down link).
    Host,
    /// Code 3: port unreachable (no socket bound).
    Port,
    /// Code 13: communication administratively prohibited — what a
    /// transit-traffic filter returns (when it deigns to answer at all).
    AdminProhibited,
}

impl UnreachableCode {
    const ALL: [UnreachableCode; 4] = [
        UnreachableCode::Net,
        UnreachableCode::Host,
        UnreachableCode::Port,
        UnreachableCode::AdminProhibited,
    ];

    fn code(self) -> u8 {
        match self {
            UnreachableCode::Net => 0,
            UnreachableCode::Host => 1,
            UnreachableCode::Port => 3,
            UnreachableCode::AdminProhibited => 13,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        UnreachableCode::ALL
            .into_iter()
            .find(|c| c.code() == code)
            .ok_or(WireError::UnknownValue {
                field: "icmp unreachable code",
                value: u16::from(code),
            })
    }
}

/// A parsed ICMP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IcmpMessage {
    /// Type 8: echo request.
    EchoRequest {
        /// Identifier, usually the pinging process.
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Opaque ping payload (timestamps etc.).
        payload: Bytes,
    },
    /// Type 0: echo reply.
    EchoReply {
        /// Identifier copied from the request.
        ident: u16,
        /// Sequence copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: Bytes,
    },
    /// Type 3: destination unreachable, quoting the invoking packet.
    DestUnreachable {
        /// Why.
        code: UnreachableCode,
        /// IP header + 8 bytes of the packet that triggered this.
        invoking: Bytes,
    },
    /// Type 5 code 1: redirect for host, pointing at a better gateway.
    Redirect {
        /// The gateway to use instead.
        gateway: Ipv4Addr,
        /// IP header + 8 bytes of the packet that triggered this.
        invoking: Bytes,
    },
    /// Type 11 code 0: TTL expired in transit.
    TimeExceeded {
        /// IP header + 8 bytes of the packet that triggered this.
        invoking: Bytes,
    },
}

impl IcmpMessage {
    /// Builds the reply for an echo request. Returns `None` for other
    /// message types.
    pub fn echo_reply_for(&self) -> Option<IcmpMessage> {
        match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => Some(IcmpMessage::EchoReply {
                ident: *ident,
                seq: *seq,
                payload: payload.clone(),
            }),
            _ => None,
        }
    }

    /// Serializes with the ICMP checksum filled in. A message of up to 64
    /// bytes (every error this stack sends) is written on the stack and
    /// costs one allocation.
    pub fn to_bytes(&self) -> Bytes {
        let len = 8 + match self {
            IcmpMessage::EchoRequest { payload, .. } | IcmpMessage::EchoReply { payload, .. } => {
                payload.len()
            }
            IcmpMessage::DestUnreachable { invoking, .. }
            | IcmpMessage::Redirect { invoking, .. }
            | IcmpMessage::TimeExceeded { invoking } => invoking.len(),
        };
        if len <= ON_STACK {
            Bytes::copy_from_slice(&self.write_into(ArrayBuf::<ON_STACK>::default()))
        } else {
            self.write_into(BytesMut::with_capacity(len)).freeze()
        }
    }

    /// Writes the message into `buf` and fills in its checksum.
    fn write_into<B: BufMut + DerefMut<Target = [u8]>>(&self, mut buf: B) -> B {
        match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                buf.put_u8(8);
                buf.put_u8(0);
                buf.put_u16(0);
                buf.put_u16(*ident);
                buf.put_u16(*seq);
                buf.put_slice(payload);
            }
            IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => {
                buf.put_u8(0);
                buf.put_u8(0);
                buf.put_u16(0);
                buf.put_u16(*ident);
                buf.put_u16(*seq);
                buf.put_slice(payload);
            }
            IcmpMessage::DestUnreachable { code, invoking } => {
                buf.put_u8(3);
                buf.put_u8(code.code());
                buf.put_u16(0);
                buf.put_u32(0); // unused
                buf.put_slice(invoking);
            }
            IcmpMessage::Redirect { gateway, invoking } => {
                buf.put_u8(5);
                buf.put_u8(1); // redirect for host
                buf.put_u16(0);
                buf.put_slice(&gateway.octets());
                buf.put_slice(invoking);
            }
            IcmpMessage::TimeExceeded { invoking } => {
                buf.put_u8(11);
                buf.put_u8(0);
                buf.put_u16(0);
                buf.put_u32(0); // unused
                buf.put_slice(invoking);
            }
        }
        let ck = internet_checksum(&buf, 0);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        buf
    }

    /// Parses and verifies an ICMP message.
    pub fn parse(bytes: &Bytes) -> Result<IcmpMessage, WireError> {
        let buf: &[u8] = bytes;
        need(buf, 8)?;
        if internet_checksum(buf, 0) != 0 {
            return Err(WireError::BadChecksum);
        }
        let (ty, code) = (buf[0], buf[1]);
        let rest = || bytes.slice(8..);
        match ty {
            8 | 0 => {
                let ident = u16::from_be_bytes([buf[4], buf[5]]);
                let seq = u16::from_be_bytes([buf[6], buf[7]]);
                let payload = rest();
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest {
                        ident,
                        seq,
                        payload,
                    }
                } else {
                    IcmpMessage::EchoReply {
                        ident,
                        seq,
                        payload,
                    }
                })
            }
            3 => Ok(IcmpMessage::DestUnreachable {
                code: UnreachableCode::from_code(code)?,
                invoking: rest(),
            }),
            5 => Ok(IcmpMessage::Redirect {
                gateway: Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7]),
                invoking: rest(),
            }),
            11 => Ok(IcmpMessage::TimeExceeded { invoking: rest() }),
            other => Err(WireError::UnknownValue {
                field: "icmp type",
                value: u16::from(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let req = IcmpMessage::EchoRequest {
            ident: 0x1234,
            seq: 7,
            payload: Bytes::from_static(b"timestamp"),
        };
        let back = IcmpMessage::parse(&req.to_bytes()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn echo_reply_copies_fields() {
        let req = IcmpMessage::EchoRequest {
            ident: 42,
            seq: 3,
            payload: Bytes::from_static(b"data"),
        };
        let reply = req.echo_reply_for().unwrap();
        match reply {
            IcmpMessage::EchoReply {
                ident,
                seq,
                ref payload,
            } => {
                assert_eq!((ident, seq), (42, 3));
                assert_eq!(payload.as_ref(), b"data");
            }
            _ => panic!("expected reply"),
        }
        assert!(reply.echo_reply_for().is_none());
    }

    #[test]
    fn unreachable_round_trip_all_codes() {
        for code in UnreachableCode::ALL {
            let msg = IcmpMessage::DestUnreachable {
                code,
                invoking: Bytes::from_static(&[0x45; 28]),
            };
            assert_eq!(IcmpMessage::parse(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn redirect_round_trip() {
        let msg = IcmpMessage::Redirect {
            gateway: Ipv4Addr::new(36, 8, 0, 1),
            invoking: Bytes::from_static(&[1; 28]),
        };
        assert_eq!(IcmpMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn time_exceeded_round_trip() {
        let msg = IcmpMessage::TimeExceeded {
            invoking: Bytes::from_static(&[2; 28]),
        };
        assert_eq!(IcmpMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn corrupted_message_rejected() {
        let msg = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: Bytes::from_static(b"x"),
        };
        let mut bytes = msg.to_bytes().to_vec();
        bytes[4] ^= 0xff;
        assert_eq!(
            IcmpMessage::parse(&bytes.into()),
            Err(WireError::BadChecksum)
        );
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = vec![42u8, 0, 0, 0, 0, 0, 0, 0];
        let ck = internet_checksum(&buf, 0);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(
            IcmpMessage::parse(&buf.into()),
            Err(WireError::UnknownValue {
                field: "icmp type",
                value: 42
            })
        );
    }

    #[test]
    fn unknown_unreachable_code_rejected() {
        let mut buf = vec![3u8, 7, 0, 0, 0, 0, 0, 0];
        let ck = internet_checksum(&buf, 0);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            IcmpMessage::parse(&buf.into()),
            Err(WireError::UnknownValue {
                field: "icmp unreachable code",
                ..
            })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            IcmpMessage::parse(&Bytes::from_static(&[8, 0, 0])),
            Err(WireError::Truncated { .. })
        ));
    }
}
