//! Logical network interfaces: a device plus its IP configuration.

use std::net::Ipv4Addr;

use mosquitonet_link::Device;
use mosquitonet_wire::Cidr;

/// Index of an interface within its host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IfaceId(pub usize);

/// Handle of a LAN within the network world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LanId(pub usize);

/// One configured address: the address and the subnet it lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IfaceAddr {
    /// The address.
    pub addr: Ipv4Addr,
    /// Its subnet.
    pub subnet: Cidr,
}

/// A logical interface: device, addresses, and attachment.
#[derive(Debug)]
pub struct Interface {
    /// The underlying device model.
    pub device: Device,
    /// Configured addresses (a mobile host's physical interface typically
    /// holds one care-of address; the home address lives on the VIF).
    /// Private so every change passes through the mutators below and bumps
    /// `generation` — the fast-path decision cache depends on it.
    addrs: Vec<IfaceAddr>,
    /// The LAN this interface's device is attached to, if any: the one
    /// record of it, kept by `Network::attach` and `detach`. `None`
    /// models an unplugged cable / out-of-range radio.
    pub lan: Option<LanId>,
    /// True for the virtual encapsulating interface — it owns the home
    /// address while the host is away, and packets routed to it are
    /// IP-in-IP encapsulated (§3.3).
    pub is_vif: bool,
    /// Bumped on every address change and power transition (bring-up,
    /// bring-down, crash); folded into the fast-path validity token.
    generation: u64,
}

impl Interface {
    /// Creates an interface around `device` with no addresses.
    pub fn new(device: Device) -> Interface {
        Interface {
            device,
            addrs: Vec::new(),
            lan: None,
            is_vif: false,
            generation: 0,
        }
    }

    /// The configured addresses, in configuration order.
    pub fn addrs(&self) -> &[IfaceAddr] {
        &self.addrs
    }

    /// A counter bumped on every address add/remove/clear and every power
    /// transition; see `generation`.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records a power transition (the world calls this when it brings the
    /// device down or completes a bring-up), invalidating cached route
    /// decisions that resolved through this interface.
    pub fn note_power_change(&mut self) {
        self.generation += 1;
    }

    /// Adds an address; replaces an identical address silently.
    pub fn add_addr(&mut self, addr: Ipv4Addr, subnet: Cidr) {
        self.remove_addr(addr);
        self.addrs.push(IfaceAddr { addr, subnet });
        self.generation += 1;
    }

    /// Removes an address; returns whether it was present.
    pub fn remove_addr(&mut self, addr: Ipv4Addr) -> bool {
        let before = self.addrs.len();
        self.addrs.retain(|a| a.addr != addr);
        let removed = self.addrs.len() != before;
        if removed {
            self.generation += 1;
        }
        removed
    }

    /// Removes every configured address (cold-switch deconfiguration).
    pub fn clear_addrs(&mut self) {
        if !self.addrs.is_empty() {
            self.addrs.clear();
            self.generation += 1;
        }
    }

    /// The interface's primary (first-configured) address.
    pub fn primary_addr(&self) -> Option<Ipv4Addr> {
        self.addrs.first().map(|a| a.addr)
    }

    /// True if `addr` is configured here.
    pub fn has_addr(&self, addr: Ipv4Addr) -> bool {
        self.addrs.iter().any(|a| a.addr == addr)
    }

    /// The configured subnet containing `dst`, if any (used for on-link
    /// determination and for choosing a source address on this subnet).
    pub fn subnet_containing(&self, dst: Ipv4Addr) -> Option<IfaceAddr> {
        self.addrs.iter().copied().find(|a| a.subnet.contains(dst))
    }

    /// True if `addr` is a directed broadcast for one of our subnets.
    pub fn is_subnet_broadcast(&self, addr: Ipv4Addr) -> bool {
        self.addrs.iter().any(|a| a.subnet.broadcast() == addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_link::presets;
    use mosquitonet_wire::MacAddr;

    fn iface() -> Interface {
        Interface::new(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)))
    }

    #[test]
    fn addresses_add_remove() {
        let mut i = iface();
        let net: Cidr = "36.135.0.0/24".parse().unwrap();
        i.add_addr(Ipv4Addr::new(36, 135, 0, 9), net);
        assert!(i.has_addr(Ipv4Addr::new(36, 135, 0, 9)));
        assert_eq!(i.primary_addr(), Some(Ipv4Addr::new(36, 135, 0, 9)));
        assert!(i.remove_addr(Ipv4Addr::new(36, 135, 0, 9)));
        assert!(!i.remove_addr(Ipv4Addr::new(36, 135, 0, 9)));
        assert_eq!(i.primary_addr(), None);
    }

    #[test]
    fn re_adding_same_addr_does_not_duplicate() {
        let mut i = iface();
        let net: Cidr = "36.135.0.0/24".parse().unwrap();
        i.add_addr(Ipv4Addr::new(36, 135, 0, 9), net);
        i.add_addr(Ipv4Addr::new(36, 135, 0, 9), net);
        assert_eq!(i.addrs().len(), 1);
    }

    #[test]
    fn subnet_containing_finds_on_link_destinations() {
        let mut i = iface();
        i.add_addr(
            Ipv4Addr::new(36, 135, 0, 9),
            "36.135.0.0/24".parse().unwrap(),
        );
        let hit = i.subnet_containing(Ipv4Addr::new(36, 135, 0, 77)).unwrap();
        assert_eq!(hit.addr, Ipv4Addr::new(36, 135, 0, 9));
        assert!(i.subnet_containing(Ipv4Addr::new(36, 8, 0, 1)).is_none());
    }

    #[test]
    fn subnet_broadcast_detection() {
        let mut i = iface();
        i.add_addr(
            Ipv4Addr::new(36, 135, 0, 9),
            "36.135.0.0/24".parse().unwrap(),
        );
        assert!(i.is_subnet_broadcast(Ipv4Addr::new(36, 135, 0, 255)));
        assert!(!i.is_subnet_broadcast(Ipv4Addr::new(36, 135, 0, 254)));
    }
}
