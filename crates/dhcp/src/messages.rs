//! The DHCP wire format (simplified, fixed-size).
//!
//! Every message is [`DHCP_MESSAGE_LEN`] = 30 bytes, big-endian; bytes
//! after them are ignored. A *reserved* byte is sent as zero and ignored
//! on receipt, so re-encoding a parsed message gives back the 30 bytes it
//! was parsed from with bytes 1 and 21 zeroed.
//!
//! | Offset | Size | Field |
//! |---:|---:|---|
//! | 0 | 1 | op: 1 discover, 2 offer, 3 request, 4 ack, 5 nak, 6 release |
//! | 1 | 1 | reserved (0) |
//! | 2 | 4 | transaction id |
//! | 6 | 6 | client hardware address |
//! | 12 | 4 | offered, requested or released address |
//! | 16 | 4 | server address |
//! | 20 | 1 | prefix length (0–32) |
//! | 21 | 1 | reserved (0) |
//! | 22 | 4 | default router |
//! | 26 | 4 | lease (seconds) |

use bytes::{BufMut, Bytes};
use std::net::Ipv4Addr;

use mosquitonet_wire::{need, ArrayBuf, Cidr, MacAddr, WireError};

/// UDP port the server listens on.
pub const DHCP_SERVER_PORT: u16 = 67;

/// UDP port the client listens on.
pub const DHCP_CLIENT_PORT: u16 = 68;

/// Serialized message length.
pub const DHCP_MESSAGE_LEN: usize = 30;

/// Message type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DhcpOp {
    /// Client broadcast: who can lease me an address?
    Discover,
    /// Server: here is an address reserved for you.
    Offer,
    /// Client: I accept (or: I'd like to renew) this address.
    Request,
    /// Server: the lease is yours.
    Ack,
    /// Server: request refused.
    Nak,
    /// Client: returning the address early.
    Release,
}

impl DhcpOp {
    const ALL: [DhcpOp; 6] = [
        DhcpOp::Discover,
        DhcpOp::Offer,
        DhcpOp::Request,
        DhcpOp::Ack,
        DhcpOp::Nak,
        DhcpOp::Release,
    ];

    fn number(self) -> u8 {
        match self {
            DhcpOp::Discover => 1,
            DhcpOp::Offer => 2,
            DhcpOp::Request => 3,
            DhcpOp::Ack => 4,
            DhcpOp::Nak => 5,
            DhcpOp::Release => 6,
        }
    }

    fn from_number(n: u8) -> Result<DhcpOp, WireError> {
        DhcpOp::ALL
            .into_iter()
            .find(|op| op.number() == n)
            .ok_or(WireError::UnknownValue {
                field: "dhcp op",
                value: u16::from(n),
            })
    }
}

/// One DHCP message.
///
/// # Examples
///
/// ```
/// use mosquitonet_dhcp::{DhcpMessage, DhcpOp};
/// use mosquitonet_wire::MacAddr;
///
/// let discover = DhcpMessage::discover(0xBEEF, MacAddr::from_index(9));
/// let back = DhcpMessage::parse(&discover.to_bytes()).unwrap();
/// assert_eq!(back, discover);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DhcpMessage {
    /// Message type.
    pub op: DhcpOp,
    /// Transaction id chosen by the client; replies echo it.
    pub xid: u32,
    /// The client's hardware address.
    pub client_mac: MacAddr,
    /// The address being offered / requested / released.
    pub yiaddr: Ipv4Addr,
    /// The server's address (filled by the server).
    pub server: Ipv4Addr,
    /// Subnet prefix length for `yiaddr`.
    pub prefix_len: u8,
    /// Default router for the subnet.
    pub router: Ipv4Addr,
    /// Lease duration in seconds.
    pub lease_secs: u32,
}

impl DhcpMessage {
    /// Builds a DISCOVER.
    pub fn discover(xid: u32, client_mac: MacAddr) -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Discover,
            xid,
            client_mac,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            server: Ipv4Addr::UNSPECIFIED,
            prefix_len: 0,
            router: Ipv4Addr::UNSPECIFIED,
            lease_secs: 0,
        }
    }

    /// Builds a REQUEST for an offered (or to-renew) lease.
    pub fn request(xid: u32, client_mac: MacAddr, offer: &DhcpMessage) -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Request,
            xid,
            client_mac,
            ..*offer
        }
    }

    /// Builds a RELEASE for a held lease.
    pub fn release(xid: u32, client_mac: MacAddr, addr: Ipv4Addr, server: Ipv4Addr) -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Release,
            xid,
            client_mac,
            yiaddr: addr,
            server,
            prefix_len: 0,
            router: Ipv4Addr::UNSPECIFIED,
            lease_secs: 0,
        }
    }

    /// The subnet the offered address lives in.
    pub fn subnet(&self) -> Cidr {
        Cidr::new(self.yiaddr, self.prefix_len)
    }

    /// Serializes to the fixed 30-byte format.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = ArrayBuf::<DHCP_MESSAGE_LEN>::default();
        buf.put_u8(self.op.number());
        buf.put_u8(0);
        buf.put_u32(self.xid);
        buf.put_slice(&self.client_mac.octets());
        buf.put_slice(&self.yiaddr.octets());
        buf.put_slice(&self.server.octets());
        buf.put_u8(self.prefix_len);
        buf.put_u8(0);
        buf.put_slice(&self.router.octets());
        buf.put_u32(self.lease_secs);
        Bytes::copy_from_slice(&buf)
    }

    /// Parses from bytes.
    pub fn parse(buf: &[u8]) -> Result<DhcpMessage, WireError> {
        need(buf, DHCP_MESSAGE_LEN)?;
        let op = DhcpOp::from_number(buf[0])?;
        let prefix_len = buf[20];
        if prefix_len > 32 {
            return Err(WireError::UnknownValue {
                field: "dhcp prefix",
                value: u16::from(prefix_len),
            });
        }
        Ok(DhcpMessage {
            op,
            xid: u32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]),
            client_mac: MacAddr([buf[6], buf[7], buf[8], buf[9], buf[10], buf[11]]),
            yiaddr: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            server: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            prefix_len,
            router: Ipv4Addr::new(buf[22], buf[23], buf[24], buf[25]),
            lease_secs: u32::from_be_bytes([buf[26], buf[27], buf[28], buf[29]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer() -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Offer,
            xid: 0x12345678,
            client_mac: MacAddr::from_index(9),
            yiaddr: Ipv4Addr::new(36, 8, 0, 42),
            server: Ipv4Addr::new(36, 8, 0, 2),
            prefix_len: 24,
            router: Ipv4Addr::new(36, 8, 0, 1),
            lease_secs: 600,
        }
    }

    #[test]
    fn round_trip_all_ops() {
        for op in DhcpOp::ALL {
            let mut m = offer();
            m.op = op;
            assert_eq!(DhcpMessage::parse(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn request_copies_offer_fields() {
        let o = offer();
        let r = DhcpMessage::request(o.xid, o.client_mac, &o);
        assert_eq!(r.op, DhcpOp::Request);
        assert_eq!(r.yiaddr, o.yiaddr);
        assert_eq!(r.server, o.server);
        assert_eq!(r.lease_secs, o.lease_secs);
    }

    #[test]
    fn subnet_derivation() {
        let o = offer();
        assert_eq!(o.subnet().to_string(), "36.8.0.0/24");
        assert!(o.subnet().contains(o.router));
    }

    #[test]
    fn rejects_bad_op_and_truncation() {
        let mut bytes = offer().to_bytes().to_vec();
        bytes[0] = 99;
        assert!(DhcpMessage::parse(&bytes).is_err());
        assert!(matches!(
            DhcpMessage::parse(&offer().to_bytes()[..10]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_invalid_prefix() {
        let mut bytes = offer().to_bytes().to_vec();
        bytes[20] = 40;
        assert!(DhcpMessage::parse(&bytes).is_err());
    }
}
