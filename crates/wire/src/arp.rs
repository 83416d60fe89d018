//! ARP (RFC 826) for IPv4 over Ethernet.
//!
//! ARP is load-bearing in the paper: on registration the home agent adds a
//! **proxy ARP** entry for the mobile host and broadcasts a **gratuitous
//! ARP** "to void any stale ARP cache entries on hosts in the same subnet
//! as the mobile host's home" (§3.1). Both are just ARP packets with
//! particular field values, built by the stack crate on top of this format.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

use crate::addr::MacAddr;
use crate::error::{need, WireError};

/// ARP packet length for Ethernet/IPv4.
pub const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpOp {
    /// Who-has (1).
    Request,
    /// Is-at (2).
    Reply,
}

/// An Ethernet/IPv4 ARP packet.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::{ArpPacket, ArpOp, MacAddr};
/// use std::net::Ipv4Addr;
///
/// let req = ArpPacket::request(
///     MacAddr::from_index(1),
///     Ipv4Addr::new(36, 135, 0, 1),
///     Ipv4Addr::new(36, 135, 0, 9),
/// );
/// let back = ArpPacket::parse(&req.to_bytes()).unwrap();
/// assert_eq!(back, req);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpPacket {
    /// Request or reply.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Builds a who-has request for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds the is-at reply to `request`, claiming `my_mac` for the
    /// requested IP. This is also how *proxy* ARP answers: the home agent
    /// calls this with its own MAC for the mobile host's IP.
    pub fn reply_to(request: &ArpPacket, my_mac: MacAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Builds a gratuitous ARP announcing that `ip` is at `mac`.
    ///
    /// Sent as a broadcast request with sender == target IP, the form that
    /// updates existing caches on every era-appropriate implementation.
    pub fn gratuitous(mac: MacAddr, ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::ZERO,
            target_ip: ip,
        }
    }

    /// True for a gratuitous announcement (sender IP == target IP).
    pub fn is_gratuitous(&self) -> bool {
        self.sender_ip == self.target_ip
    }

    /// Serializes the 28-byte Ethernet/IPv4 ARP body.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(ARP_LEN);
        self.write_into(&mut buf);
        buf.freeze()
    }

    /// Appends the 28-byte Ethernet/IPv4 ARP body to `buf` — the stack
    /// writes it straight into the frame it transmits.
    #[inline]
    pub fn write_into(&self, buf: &mut impl BufMut) {
        buf.put_u16(1); // hardware type: Ethernet
        buf.put_u16(0x0800); // protocol type: IPv4
        buf.put_u8(6); // hardware address length
        buf.put_u8(4); // protocol address length
        buf.put_u16(match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        });
        buf.put_slice(&self.sender_mac.octets());
        buf.put_slice(&self.sender_ip.octets());
        buf.put_slice(&self.target_mac.octets());
        buf.put_slice(&self.target_ip.octets());
    }

    /// Parses an Ethernet/IPv4 ARP body.
    pub fn parse(buf: &[u8]) -> Result<ArpPacket, WireError> {
        need(buf, ARP_LEN)?;
        let htype = u16::from_be_bytes([buf[0], buf[1]]);
        let ptype = u16::from_be_bytes([buf[2], buf[3]]);
        if htype != 1 || ptype != 0x0800 || buf[4] != 6 || buf[5] != 4 {
            return Err(WireError::UnsupportedArp);
        }
        let op = match u16::from_be_bytes([buf[6], buf[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => {
                return Err(WireError::UnknownValue {
                    field: "arp op",
                    value: other,
                })
            }
        };
        let mac6 = |s: &[u8]| MacAddr([s[0], s[1], s[2], s[3], s[4], s[5]]);
        Ok(ArpPacket {
            op,
            sender_mac: mac6(&buf[8..14]),
            sender_ip: Ipv4Addr::new(buf[14], buf[15], buf[16], buf[17]),
            target_mac: mac6(&buf[18..24]),
            target_ip: Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MH_IP: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    const HA_IP: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 1);

    #[test]
    fn request_round_trip() {
        let req = ArpPacket::request(MacAddr::from_index(3), HA_IP, MH_IP);
        assert_eq!(ArpPacket::parse(&req.to_bytes()).unwrap(), req);
        assert_eq!(req.target_mac, MacAddr::ZERO);
        assert!(!req.is_gratuitous());
    }

    #[test]
    fn reply_swaps_roles() {
        let req = ArpPacket::request(MacAddr::from_index(3), HA_IP, MH_IP);
        let reply = ArpPacket::reply_to(&req, MacAddr::from_index(9));
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_ip, MH_IP);
        assert_eq!(reply.sender_mac, MacAddr::from_index(9));
        assert_eq!(reply.target_ip, HA_IP);
        assert_eq!(reply.target_mac, MacAddr::from_index(3));
    }

    #[test]
    fn proxy_arp_reply_claims_foreign_ip() {
        // The HA answers a request for the MH's IP with the HA's own MAC.
        let req = ArpPacket::request(MacAddr::from_index(7), Ipv4Addr::new(36, 135, 0, 5), MH_IP);
        let ha_mac = MacAddr::from_index(1);
        let reply = ArpPacket::reply_to(&req, ha_mac);
        assert_eq!(reply.sender_ip, MH_IP);
        assert_eq!(reply.sender_mac, ha_mac);
    }

    #[test]
    fn gratuitous_arp_has_equal_ips() {
        let g = ArpPacket::gratuitous(MacAddr::from_index(1), MH_IP);
        assert!(g.is_gratuitous());
        let back = ArpPacket::parse(&g.to_bytes()).unwrap();
        assert!(back.is_gratuitous());
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let req = ArpPacket::request(MacAddr::from_index(1), HA_IP, MH_IP);
        let mut bytes = req.to_bytes().to_vec();
        bytes[1] = 6; // hardware type: IEEE 802 token ring, say
        assert_eq!(ArpPacket::parse(&bytes), Err(WireError::UnsupportedArp));
    }

    #[test]
    fn rejects_unknown_op_and_truncation() {
        let req = ArpPacket::request(MacAddr::from_index(1), HA_IP, MH_IP);
        let mut bytes = req.to_bytes().to_vec();
        bytes[7] = 9;
        assert!(matches!(
            ArpPacket::parse(&bytes),
            Err(WireError::UnknownValue {
                field: "arp op",
                ..
            })
        ));
        assert!(matches!(
            ArpPacket::parse(&bytes[..20]),
            Err(WireError::Truncated { .. })
        ));
    }
}
