//! IGMP (RFC 1112 host-side subset): membership reports and leaves.
//!
//! The paper's visiting mobile host "might also join multicast groups via
//! the foreign network, rather than via the home network" (§5.2) — a
//! local-role action. The stack implements link-local multicast: joining
//! a group on an interface emits a membership report and filters incoming
//! group traffic; multicast is not routed between LANs (the paper's era
//! would have needed DVMRP, which is out of scope and noted in DESIGN.md).

use bytes::{BufMut, Bytes};
use std::net::Ipv4Addr;

use crate::arraybuf::ArrayBuf;
use crate::checksum::internet_checksum;
use crate::error::{need, WireError};

/// IGMP's IP protocol number.
pub const IGMP_PROTO: u8 = 2;

/// Length of an IGMP message.
pub const IGMP_LEN: usize = 8;

/// A host-side IGMP message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IgmpMessage {
    /// Type 0x11: a querier asks who is in `group` (group 0 = general).
    MembershipQuery {
        /// The group queried, or unspecified for a general query.
        group: Ipv4Addr,
    },
    /// Type 0x16: a host declares membership in `group`.
    MembershipReport {
        /// The group joined.
        group: Ipv4Addr,
    },
    /// Type 0x17: a host leaves `group`.
    LeaveGroup {
        /// The group left.
        group: Ipv4Addr,
    },
}

impl IgmpMessage {
    fn type_byte(self) -> u8 {
        match self {
            IgmpMessage::MembershipQuery { .. } => 0x11,
            IgmpMessage::MembershipReport { .. } => 0x16,
            IgmpMessage::LeaveGroup { .. } => 0x17,
        }
    }

    /// The group the message concerns.
    pub fn group(self) -> Ipv4Addr {
        match self {
            IgmpMessage::MembershipQuery { group }
            | IgmpMessage::MembershipReport { group }
            | IgmpMessage::LeaveGroup { group } => group,
        }
    }

    /// Serializes with the IGMP checksum.
    pub fn to_bytes(self) -> Bytes {
        let mut buf = ArrayBuf::<IGMP_LEN>::default();
        buf.put_u8(self.type_byte());
        buf.put_u8(0); // max response time (unused in this subset)
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.group().octets());
        let ck = internet_checksum(&buf, 0);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        Bytes::copy_from_slice(&buf)
    }

    /// Parses and verifies an IGMP message.
    pub fn parse(buf: &[u8]) -> Result<IgmpMessage, WireError> {
        need(buf, IGMP_LEN)?;
        if internet_checksum(&buf[..IGMP_LEN], 0) != 0 {
            return Err(WireError::BadChecksum);
        }
        let group = Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7]);
        match buf[0] {
            0x11 => Ok(IgmpMessage::MembershipQuery { group }),
            0x16 => Ok(IgmpMessage::MembershipReport { group }),
            0x17 => Ok(IgmpMessage::LeaveGroup { group }),
            other => Err(WireError::UnknownValue {
                field: "igmp type",
                value: u16::from(other),
            }),
        }
    }
}

/// True for class-D (multicast) addresses.
pub fn is_multicast(addr: Ipv4Addr) -> bool {
    addr.is_multicast()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUP: Ipv4Addr = Ipv4Addr::new(224, 1, 1, 1);

    #[test]
    fn round_trips_all_types() {
        for msg in [
            IgmpMessage::MembershipQuery { group: GROUP },
            IgmpMessage::MembershipReport { group: GROUP },
            IgmpMessage::LeaveGroup { group: GROUP },
        ] {
            assert_eq!(IgmpMessage::parse(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn corrupted_message_rejected() {
        let msg = IgmpMessage::MembershipReport { group: GROUP };
        let mut bytes = msg.to_bytes().to_vec();
        bytes[5] ^= 0x01;
        assert_eq!(IgmpMessage::parse(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = vec![0x42u8, 0, 0, 0, 224, 1, 1, 1];
        let ck = internet_checksum(&buf, 0);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            IgmpMessage::parse(&buf),
            Err(WireError::UnknownValue {
                field: "igmp type",
                ..
            })
        ));
    }

    #[test]
    fn truncation_rejected() {
        assert!(matches!(
            IgmpMessage::parse(&[0x16, 0, 0]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn multicast_class_detection() {
        assert!(is_multicast(GROUP));
        assert!(is_multicast(Ipv4Addr::new(239, 255, 255, 255)));
        assert!(!is_multicast(Ipv4Addr::new(36, 135, 0, 9)));
        assert!(!is_multicast(Ipv4Addr::BROADCAST));
    }
}
