//! Frame summarization for packet capture — a `tcpdump` for the simulated
//! network.
//!
//! A host in capture mode (`HostCore::capture`) keeps the raw bytes of
//! every frame it receives in the flight recorder's capture buffer
//! (`sim.flights().captures()`); [`frame_summary`] renders one of them as
//! a line when somebody reads. Attach the host's interface promiscuously
//! with [`Network::attach_promiscuous`] and it hears the whole LAN,
//! exactly like a sniffer box on a 1996 Ethernet.
//!
//! [`Network::attach_promiscuous`]: crate::Network::attach_promiscuous

use bytes::Bytes;
use mosquitonet_link::{EtherType, Frame};
use mosquitonet_wire::{
    ArpOp, ArpPacket, IcmpMessage, IpProto, Ipv4Packet, TcpSegment, UdpDatagram,
};

/// Renders a one-line, `tcpdump`-flavored summary of a frame's wire bytes
/// (header included, as a captured frame holds them).
///
/// # Examples
///
/// ```
/// use mosquitonet_link::{EtherType, Frame};
/// use mosquitonet_stack::frame_summary;
/// use mosquitonet_wire::{ArpPacket, MacAddr};
/// use std::net::Ipv4Addr;
///
/// let arp = ArpPacket::request(
///     MacAddr::from_index(1),
///     Ipv4Addr::new(36, 135, 0, 1),
///     Ipv4Addr::new(36, 135, 0, 9),
/// );
/// let frame = Frame::new(MacAddr::BROADCAST, MacAddr::from_index(1), EtherType::Arp, arp.to_bytes());
/// assert_eq!(
///     frame_summary(&frame.to_bytes()),
///     "ARP who-has 36.135.0.9 tell 36.135.0.1"
/// );
/// ```
pub fn frame_summary(wire: &[u8]) -> String {
    let Ok(frame) = Frame::parse(&Bytes::copy_from_slice(wire)) else {
        return "<malformed frame>".to_string();
    };
    match frame.ethertype {
        EtherType::Arp => match ArpPacket::parse(&frame.payload) {
            Ok(arp) if arp.is_gratuitous() => {
                format!("ARP announce {} is-at {}", arp.sender_ip, arp.sender_mac)
            }
            Ok(arp) if arp.op == ArpOp::Request => {
                format!("ARP who-has {} tell {}", arp.target_ip, arp.sender_ip)
            }
            Ok(arp) => format!("ARP reply {} is-at {}", arp.sender_ip, arp.sender_mac),
            Err(_) => "ARP <malformed>".to_string(),
        },
        EtherType::Ipv4 => match Ipv4Packet::parse(&frame.payload) {
            Ok(pkt) => ip_summary(&pkt, 0),
            Err(_) => "IP <malformed>".to_string(),
        },
    }
}

fn ip_summary(pkt: &Ipv4Packet, depth: usize) -> String {
    let head = format!("{} > {}", pkt.header.src, pkt.header.dst);
    let body = match pkt.header.protocol {
        IpProto::Udp => match UdpDatagram::parse(&pkt.payload, pkt.header.src, pkt.header.dst) {
            Ok(d) => format!(
                "UDP {}:{} > {}:{} len {}",
                pkt.header.src,
                d.src_port,
                pkt.header.dst,
                d.dst_port,
                d.payload.len()
            ),
            Err(_) => format!("{head} UDP <bad checksum>"),
        },
        IpProto::Tcp => match TcpSegment::parse(&pkt.payload, pkt.header.src, pkt.header.dst) {
            Ok(seg) => {
                let mut flags = String::new();
                if seg.flags.syn {
                    flags.push('S');
                }
                if seg.flags.fin {
                    flags.push('F');
                }
                if seg.flags.rst {
                    flags.push('R');
                }
                if seg.flags.psh {
                    flags.push('P');
                }
                if seg.flags.ack {
                    flags.push('.');
                }
                format!(
                    "TCP {}:{} > {}:{} [{flags}] seq {} ack {} len {}",
                    pkt.header.src,
                    seg.src_port,
                    pkt.header.dst,
                    seg.dst_port,
                    seg.seq,
                    seg.ack,
                    seg.payload.len()
                )
            }
            Err(_) => format!("{head} TCP <bad checksum>"),
        },
        IpProto::Icmp => match IcmpMessage::parse(&pkt.payload) {
            Ok(IcmpMessage::EchoRequest { ident, seq, .. }) => {
                format!("ICMP {head} echo request id {ident} seq {seq}")
            }
            Ok(IcmpMessage::EchoReply { ident, seq, .. }) => {
                format!("ICMP {head} echo reply id {ident} seq {seq}")
            }
            Ok(IcmpMessage::DestUnreachable { code, .. }) => {
                format!("ICMP {head} unreachable ({code:?})")
            }
            Ok(IcmpMessage::Redirect { gateway, .. }) => {
                format!("ICMP {head} redirect to {gateway}")
            }
            Ok(IcmpMessage::TimeExceeded { .. }) => format!("ICMP {head} time exceeded"),
            Err(_) => format!("{head} ICMP <malformed>"),
        },
        IpProto::IpIp => {
            // Unfold the tunnel, bounded.
            if depth < 4 {
                match mosquitonet_wire::ipip::decapsulate(pkt) {
                    Ok(inner) => format!("IPIP {head} | {}", ip_summary(&inner, depth + 1)),
                    Err(_) => format!("IPIP {head} <bad inner>"),
                }
            } else {
                format!("IPIP {head} <too deep>")
            }
        }
        IpProto::Other(n) => format!("IP {head} proto {n} len {}", pkt.payload.len()),
    };
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_wire::{ipip, Ipv4Header, MacAddr};
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 7);
    const B: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);

    fn frame_of(pkt: &Ipv4Packet) -> Bytes {
        let (dst, src) = (MacAddr::from_index(2), MacAddr::from_index(1));
        Frame::new(dst, src, EtherType::Ipv4, pkt.to_bytes()).to_bytes()
    }

    #[test]
    fn udp_summary_shows_ports_and_length() {
        let d = UdpDatagram::new(5000, 7, Bytes::from_static(b"ping!"));
        let pkt = Ipv4Packet::new(Ipv4Header::new(A, B, IpProto::Udp), d.to_bytes(A, B));
        assert_eq!(
            frame_summary(&frame_of(&pkt)),
            "UDP 36.8.0.7:5000 > 36.135.0.9:7 len 5"
        );
    }

    #[test]
    fn tcp_summary_shows_flags() {
        let seg = TcpSegment {
            src_port: 1023,
            dst_port: 513,
            seq: 100,
            ack: 0,
            flags: mosquitonet_wire::TcpFlags::SYN,
            window: 4096,
            payload: Bytes::new(),
        };
        let pkt = Ipv4Packet::new(Ipv4Header::new(A, B, IpProto::Tcp), seg.to_bytes(A, B));
        let s = frame_summary(&frame_of(&pkt));
        assert!(
            s.starts_with("TCP 36.8.0.7:1023 > 36.135.0.9:513 [S]"),
            "{s}"
        );
        assert!(s.contains("seq 100"));
    }

    #[test]
    fn tunnel_summary_unfolds_one_level() {
        let d = UdpDatagram::new(5000, 7, Bytes::from_static(b"x"));
        let inner = Ipv4Packet::new(Ipv4Header::new(A, B, IpProto::Udp), d.to_bytes(A, B));
        let outer = ipip::encapsulate(
            &inner,
            Ipv4Addr::new(36, 135, 0, 1),
            Ipv4Addr::new(36, 8, 0, 42),
        );
        let s = frame_summary(&frame_of(&outer));
        assert_eq!(
            s,
            "IPIP 36.135.0.1 > 36.8.0.42 | UDP 36.8.0.7:5000 > 36.135.0.9:7 len 1"
        );
    }

    #[test]
    fn icmp_and_arp_summaries() {
        let req = IcmpMessage::EchoRequest {
            ident: 3,
            seq: 9,
            payload: Bytes::new(),
        };
        let pkt = Ipv4Packet::new(Ipv4Header::new(A, B, IpProto::Icmp), req.to_bytes());
        assert_eq!(
            frame_summary(&frame_of(&pkt)),
            "ICMP 36.8.0.7 > 36.135.0.9 echo request id 3 seq 9"
        );
        let g = ArpPacket::gratuitous(MacAddr::from_index(1), B);
        let f = Frame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            EtherType::Arp,
            g.to_bytes(),
        );
        assert_eq!(
            frame_summary(&f.to_bytes()),
            format!("ARP announce 36.135.0.9 is-at {}", MacAddr::from_index(1))
        );
    }

    #[test]
    fn malformed_payloads_are_flagged_not_panicked() {
        let f = Frame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Arp,
            Bytes::from_static(&[1, 2, 3]),
        );
        assert_eq!(frame_summary(&f.to_bytes()), "ARP <malformed>");
        let f = Frame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            Bytes::from_static(&[0x45, 0]),
        );
        assert_eq!(frame_summary(&f.to_bytes()), "IP <malformed>");
        assert_eq!(frame_summary(&[0; 3]), "<malformed frame>");
    }
}
