//! Link-layer and network-prefix address types.

use core::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::error::WireError;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::MacAddr;
///
/// let mac: MacAddr = "02:00:24:87:00:09".parse().unwrap();
/// assert_eq!(mac.to_string(), "02:00:24:87:00:09");
/// assert!(!mac.is_broadcast());
/// assert!(MacAddr::BROADCAST.is_broadcast());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as the unknown/placeholder target in ARP
    /// requests.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a locally-administered unicast MAC from a small integer,
    /// convenient for simulated NIC assignment.
    pub fn from_index(index: u32) -> MacAddr {
        let b = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// True for the broadcast address.
    #[inline]
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }

    /// The raw octets.
    #[inline]
    pub fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for MacAddr {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in &mut octets {
            let part = parts.next().ok_or(WireError::BadLength)?;
            *octet = u8::from_str_radix(part, 16).map_err(|_| WireError::UnknownValue {
                field: "mac octet",
                value: 0,
            })?;
        }
        if parts.next().is_some() {
            return Err(WireError::BadLength);
        }
        Ok(MacAddr(octets))
    }
}

/// An IPv4 network prefix (address + mask length), e.g. `36.135.0.0/24`.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::Cidr;
/// use std::net::Ipv4Addr;
///
/// let net: Cidr = "36.135.0.0/24".parse().unwrap();
/// assert!(net.contains(Ipv4Addr::new(36, 135, 0, 9)));
/// assert!(!net.contains(Ipv4Addr::new(36, 8, 0, 9)));
/// assert_eq!(net.broadcast(), Ipv4Addr::new(36, 135, 0, 255));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    network: Ipv4Addr,
    prefix_len: u8,
}

impl Cidr {
    /// Creates a prefix, truncating `addr` to its network part.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    #[inline]
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Cidr {
        assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
        let mask = Cidr::mask_bits(prefix_len);
        Cidr {
            network: Ipv4Addr::from(u32::from(addr) & mask),
            prefix_len,
        }
    }

    /// The all-addresses prefix `0.0.0.0/0` (a default route).
    pub const DEFAULT: Cidr = Cidr {
        network: Ipv4Addr::UNSPECIFIED,
        prefix_len: 0,
    };

    /// A host route (`/32`) for one address.
    #[inline]
    pub fn host(addr: Ipv4Addr) -> Cidr {
        Cidr::new(addr, 32)
    }

    #[inline]
    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len))
        }
    }

    /// The network address.
    pub fn network(self) -> Ipv4Addr {
        self.network
    }

    /// The prefix length in bits.
    pub fn prefix_len(self) -> u8 {
        self.prefix_len
    }

    /// The netmask as an address, e.g. `255.255.255.0`.
    pub fn netmask(self) -> Ipv4Addr {
        Ipv4Addr::from(Cidr::mask_bits(self.prefix_len))
    }

    /// The subnet-directed broadcast address.
    pub fn broadcast(self) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.network) | !Cidr::mask_bits(self.prefix_len))
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Cidr::mask_bits(self.prefix_len) == u32::from(self.network)
    }

    /// The `i`-th host address in the subnet (1-based; 0 yields the network
    /// address itself). No bounds check beyond u32 arithmetic.
    pub fn host_at(self, i: u32) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.network) + i)
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.prefix_len)
    }
}

impl fmt::Debug for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Cidr {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(WireError::BadLength)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| WireError::UnknownValue {
            field: "cidr address",
            value: 0,
        })?;
        let len: u8 = len.parse().map_err(|_| WireError::UnknownValue {
            field: "cidr prefix",
            value: 0,
        })?;
        if len > 32 {
            return Err(WireError::UnknownValue {
                field: "cidr prefix",
                value: u16::from(len),
            });
        }
        Ok(Cidr::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_parse_round_trip() {
        let mac = MacAddr([0x02, 0x00, 0x24, 0x87, 0x00, 0x09]);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        assert_eq!(mac, parsed);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("not-a-mac".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("zz:11:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_from_index_is_unique_and_unicast() {
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        assert_ne!(a, b);
        assert_eq!(a.octets()[0] & 0x01, 0, "unicast bit clear");
        assert_eq!(a.octets()[0] & 0x02, 0x02, "locally administered");
    }

    #[test]
    fn cidr_truncates_host_bits() {
        let c = Cidr::new(Ipv4Addr::new(36, 135, 0, 77), 24);
        assert_eq!(c.network(), Ipv4Addr::new(36, 135, 0, 0));
        assert_eq!(c.netmask(), Ipv4Addr::new(255, 255, 255, 0));
    }

    #[test]
    fn cidr_contains_and_broadcast() {
        let c: Cidr = "36.134.0.0/16".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(36, 134, 200, 3)));
        assert!(!c.contains(Ipv4Addr::new(36, 135, 0, 3)));
        assert_eq!(c.broadcast(), Ipv4Addr::new(36, 134, 255, 255));
    }

    #[test]
    fn default_route_contains_everything() {
        assert!(Cidr::DEFAULT.contains(Ipv4Addr::new(8, 8, 8, 8)));
        assert_eq!(Cidr::DEFAULT.prefix_len(), 0);
        assert_eq!(Cidr::DEFAULT.netmask(), Ipv4Addr::UNSPECIFIED);
    }

    #[test]
    fn host_route_matches_only_itself() {
        let h = Cidr::host(Ipv4Addr::new(36, 135, 0, 9));
        assert!(h.contains(Ipv4Addr::new(36, 135, 0, 9)));
        assert!(!h.contains(Ipv4Addr::new(36, 135, 0, 10)));
    }

    #[test]
    fn host_at_indexes_from_network() {
        let c: Cidr = "36.8.0.0/24".parse().unwrap();
        assert_eq!(c.host_at(1), Ipv4Addr::new(36, 8, 0, 1));
        assert_eq!(c.host_at(42), Ipv4Addr::new(36, 8, 0, 42));
    }

    #[test]
    fn cidr_parse_rejects_bad_input() {
        assert!("36.8.0.0".parse::<Cidr>().is_err());
        assert!("36.8.0.0/33".parse::<Cidr>().is_err());
        assert!("foo/24".parse::<Cidr>().is_err());
    }

    #[test]
    #[should_panic(expected = "> 32")]
    fn cidr_new_rejects_long_prefix() {
        Cidr::new(Ipv4Addr::UNSPECIFIED, 33);
    }
}
