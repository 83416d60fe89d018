//! From-scratch wire formats for the MosquitoNet reproduction.
//!
//! Everything a 1996 Linux 1.2.13 IP stack would put on an Ethernet is
//! implemented here at the byte level: IPv4 (RFC 791, options-free), UDP
//! (RFC 768, with pseudo-header checksum), ICMP (RFC 792 — echo,
//! destination-unreachable, redirect, time-exceeded), ARP (RFC 826), a TCP
//! segment header (RFC 793), and IP-in-IP encapsulation (protocol 4) as the
//! paper's home agent and VIF use for tunneling.
//!
//! Simulated links carry real serialized bytes, so byte-overhead claims in
//! the paper (e.g. "encapsulation adds 20 bytes or more to the packet
//! length", §3.2) are measured, not asserted.
//!
//! # Examples
//!
//! ```
//! use mosquitonet_wire::{Ipv4Packet, Ipv4Header, IpProto};
//! use std::net::Ipv4Addr;
//!
//! let inner = Ipv4Packet::new(
//!     Ipv4Header::new(
//!         Ipv4Addr::new(36, 135, 0, 9),
//!         Ipv4Addr::new(36, 8, 0, 7),
//!         IpProto::Udp,
//!     ),
//!     vec![1, 2, 3].into(),
//! );
//! let tunneled = mosquitonet_wire::ipip::encapsulate(
//!     &inner,
//!     Ipv4Addr::new(36, 135, 0, 1),   // home agent
//!     Ipv4Addr::new(36, 8, 0, 42),    // care-of address
//! );
//! assert_eq!(tunneled.total_len(), inner.total_len() + 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod arp;
mod arraybuf;
mod checksum;
mod error;
mod icmp;
mod igmp;
pub mod ipip;
mod ipv4;
mod lpm;
mod mac;
pub mod pcap;
mod pktbuf;
mod tcpseg;
mod udp;

pub use addr::{Cidr, MacAddr};
pub use arp::{ArpOp, ArpPacket};
pub use arraybuf::ArrayBuf;
pub use checksum::{internet_checksum, pseudo_header_sum, verify_checksum};
pub use error::{need, WireError};
pub use icmp::{IcmpMessage, UnreachableCode};
pub use igmp::{is_multicast, IgmpMessage, IGMP_LEN, IGMP_PROTO};
pub use ipv4::{IpProto, Ipv4Header, Ipv4Packet, IPV4_HEADER_LEN};
pub use lpm::LpmTrie;
pub use mac::{keyed_mac, AuthTlv, AUTH_TLV_LEN, AUTH_TLV_TYPE};
pub use pcap::{PcapFrame, PcapReader, PcapWriter};
pub use pktbuf::{pool_size, PacketBuf, PacketBytes};
pub use tcpseg::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;
