//! Hosts: the per-machine stack state plus installed protocol modules.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::rc::Rc;

use bytes::Bytes;
use mosquitonet_link::Device;
use mosquitonet_sim::{Counter, EventId, IdHashMap, MetricCell, MetricsScope, SimDuration};
use mosquitonet_wire::Cidr;

use crate::arp::ArpState;
use crate::iface::{IfaceId, Interface};
use crate::proto::{Module, ModuleId};
use crate::route::RouteTable;
use crate::tcp::{ConnId, TcpOut, TcpTable};
use crate::telemetry::DropReason;
use crate::udp::{SocketId, UdpTable};

/// Handle of a host within the network world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HostId(pub usize);

/// Packet-path counters, exposed to experiments.
///
/// Each field is a detached [`Counter`] cell created with the host;
/// [`HostStats::register_into`] binds them into a metrics registry (the
/// world does this for every host under `{host}/ip/...`, using the stable
/// drop-reason codes documented in `docs/telemetry.md`).
#[derive(Clone, Default, Debug)]
pub struct HostStats {
    /// Locally-originated packets submitted to IP.
    pub ip_output: Counter,
    /// Packets received by IP (before local/forward decision).
    pub ip_input: Counter,
    /// Packets forwarded.
    pub forwarded: Counter,
    /// Packets delivered to local protocols.
    pub delivered: Counter,
    /// Drops: no route to destination (`drop.no_route`).
    pub dropped_no_route: Counter,
    /// Drops: transit-traffic filter (`drop.filter.ingress`).
    pub dropped_filter: Counter,
    /// Drops: TTL expired (`drop.ttl`).
    pub dropped_ttl: Counter,
    /// Drops: ARP resolution failure (`drop.arp_failure`).
    pub dropped_arp_failure: Counter,
    /// Drops: egress interface down or unattached (`drop.iface_down`).
    pub dropped_iface_down: Counter,
    /// Drops: destination not local and forwarding disabled
    /// (`drop.not_local`).
    pub dropped_not_local: Counter,
    /// Drops: malformed packets (`drop.malformed`).
    pub dropped_malformed: Counter,
    /// Locally-addressed packets no protocol or module claimed (e.g.
    /// IP-in-IP arriving at a host with decapsulation disabled).
    pub unclaimed: Counter,
    /// Packets IP-in-IP encapsulated here.
    pub encapsulated: Counter,
    /// Packets IP-in-IP decapsulated here.
    pub decapsulated: Counter,
    /// ICMP redirects sent (routers) / accepted (hosts).
    pub redirects_sent: Counter,
    /// ICMP redirects accepted.
    pub redirects_accepted: Counter,
}

impl HostStats {
    /// Binds every counter under `scope` (typically `{host}/ip`). Drop
    /// counters take the stable `drop.<reason>` codes that hops, traces and
    /// tests match on from [`DropReason::code`].
    pub fn register_into(&self, scope: &MetricsScope) {
        let drops = DropReason::ALL
            .into_iter()
            .filter_map(|reason| reason.counter(self));
        for (name, cell) in [
            ("output", &self.ip_output),
            ("input", &self.ip_input),
            ("forwarded", &self.forwarded),
            ("delivered", &self.delivered),
            ("encap", &self.encapsulated),
            ("decap", &self.decapsulated),
            ("redirect.sent", &self.redirects_sent),
            ("redirect.accepted", &self.redirects_accepted),
        ]
        .into_iter()
        .chain(drops)
        {
            scope.register(name, MetricCell::Counter(cell.clone()));
        }
    }
}

/// Default per-packet receive-path processing cost on era hardware
/// (40 MHz 486 subnotebooks / Pentium 90 router; see the calibration notes
/// in `mosquitonet-link::presets`).
pub const DEFAULT_PROC_DELAY: SimDuration = SimDuration::from_micros(800);

/// The kernel-side state of one host.
///
/// Everything a protocol module may touch synchronously lives here;
/// anything requiring the event loop goes through
/// [`Effects`](crate::Effects).
pub struct HostCore {
    /// This host's handle.
    pub id: HostId,
    /// Host name for traces.
    pub name: String,
    /// `name` as the shared handle every trace entry of this host carries,
    /// taken when the host is made.
    pub(crate) who: Rc<str>,
    /// Interfaces, indexed by [`IfaceId`].
    pub ifaces: Vec<Interface>,
    /// Per-interface ARP state (parallel to `ifaces`).
    pub arp: Vec<ArpState>,
    /// The kernel routing table — untouched by mobility (§3.3).
    pub routes: RouteTable,
    /// UDP sockets.
    pub udp: UdpTable,
    /// TCP connections.
    pub tcp: TcpTable,
    /// VIF tunnel entries: packets to a key address are IP-in-IP
    /// encapsulated toward the value (care-of) address. The home agent
    /// maintains one entry per registered mobile host (§3.4). Private so
    /// every binding change passes through [`HostCore::set_tunnel`] /
    /// [`HostCore::clear_tunnel`] and bumps `route_config_gen`, which the
    /// fast-path decision cache folds into its validity token.
    tunnels: IdHashMap<Ipv4Addr, Ipv4Addr>,
    /// Bumped on every tunnel-binding change; see `tunnels`.
    route_config_gen: u64,
    /// Multicast group memberships, per interface. A visiting mobile host
    /// joins groups on the *foreign* interface in its local role (§5.2).
    pub multicast_groups: HashSet<(IfaceId, Ipv4Addr)>,
    /// IP forwarding (routers and home agents: "we simply turn on IP
    /// forwarding in the Linux kernel", §3.4).
    pub forwarding: bool,
    /// Drop forwarded packets egressing an upstream interface whose source
    /// is not local to this site ("security-conscious routers that forbid
    /// transit traffic", §3.2).
    pub transit_filter: bool,
    /// Interfaces pointing "out of the site" for the transit filter.
    pub upstream_ifaces: Vec<IfaceId>,
    /// Emit ICMP redirects when forwarding out the arrival interface.
    pub send_redirects: bool,
    /// Accept ICMP redirects by installing /32 routes (§5.2 discusses why
    /// a mobile host must be able to see these).
    pub accept_redirects: bool,
    /// Decapsulate IP-in-IP addressed to this host ("transparent IP-in-IP
    /// decapsulation capability such as is found in recent Linux
    /// development kernels", §3.2).
    pub ipip_decap: bool,
    /// Record a `tcpdump`-style summary of every frame this host's
    /// interfaces receive into the simulation trace.
    pub capture: bool,
    /// Per-packet receive-path processing cost: the host's stack takes a
    /// frame this long after it arrives. Read when the frame is
    /// transmitted (its one receive event is scheduled then), so a change
    /// applies to frames sent after it.
    pub proc_delay: SimDuration,
    /// Counters.
    pub stats: HostStats,
    /// TCP actions produced by synchronous `tcp_*` calls, drained by the
    /// world after the current module callback.
    pub(crate) pending_tcp: Vec<(ConnId, TcpOut)>,
    next_ident: u16,
}

impl HostCore {
    fn new(id: HostId, name: String) -> HostCore {
        HostCore {
            id,
            who: name.as_str().into(),
            name,
            ifaces: Vec::new(),
            arp: Vec::new(),
            routes: RouteTable::new(),
            udp: UdpTable::new(),
            tcp: TcpTable::new(),
            tunnels: IdHashMap::default(),
            route_config_gen: 0,
            multicast_groups: HashSet::new(),
            forwarding: false,
            transit_filter: false,
            upstream_ifaces: Vec::new(),
            send_redirects: false,
            accept_redirects: true,
            ipip_decap: false,
            capture: false,
            proc_delay: DEFAULT_PROC_DELAY,
            stats: HostStats::default(),
            pending_tcp: Vec::new(),
            next_ident: 1,
        }
    }

    /// Adds an interface around `device`; returns its id.
    pub fn add_iface(&mut self, device: Device) -> IfaceId {
        let id = IfaceId(self.ifaces.len());
        self.ifaces.push(Interface::new(device));
        self.arp.push(ArpState::new());
        id
    }

    /// Adds a VIF — the virtual encapsulating interface of §3.3. It holds
    /// addresses (the home address while roaming) but attaches to no LAN.
    pub fn add_vif(&mut self, device: Device) -> IfaceId {
        let id = self.add_iface(device);
        self.ifaces[id.0].is_vif = true;
        id
    }

    /// The interface with id `i`.
    pub fn iface(&self, i: IfaceId) -> &Interface {
        &self.ifaces[i.0]
    }

    /// Mutable interface access.
    pub fn iface_mut(&mut self, i: IfaceId) -> &mut Interface {
        &mut self.ifaces[i.0]
    }

    /// Per-interface ARP state.
    pub fn arp_mut(&mut self, i: IfaceId) -> &mut ArpState {
        &mut self.arp[i.0]
    }

    /// True if `addr` is configured on any interface (including the VIF).
    pub fn is_local_addr(&self, addr: Ipv4Addr) -> bool {
        self.ifaces.iter().any(|i| i.has_addr(addr))
    }

    /// True if `addr` is a broadcast this host should accept.
    pub fn is_broadcast_addr(&self, addr: Ipv4Addr) -> bool {
        addr == Ipv4Addr::BROADCAST || self.ifaces.iter().any(|i| i.is_subnet_broadcast(addr))
    }

    /// The interface holding `addr`, if any.
    pub fn iface_with_addr(&self, addr: Ipv4Addr) -> Option<IfaceId> {
        self.ifaces
            .iter()
            .position(|i| i.has_addr(addr))
            .map(IfaceId)
    }

    /// All subnets directly configured on this host (the transit filter's
    /// definition of "local").
    pub fn local_subnets(&self) -> impl Iterator<Item = Cidr> + '_ {
        self.ifaces
            .iter()
            .flat_map(|i| i.addrs().iter().map(|a| a.subnet))
    }

    /// Installs (or moves) a VIF tunnel: packets to `home` are IP-in-IP
    /// encapsulated toward `care_of`. Returns the previous binding.
    pub fn set_tunnel(&mut self, home: Ipv4Addr, care_of: Ipv4Addr) -> Option<Ipv4Addr> {
        let prev = self.tunnels.insert(home, care_of);
        if prev != Some(care_of) {
            self.route_config_gen += 1;
        }
        prev
    }

    /// Removes the tunnel for `home`; returns the binding it held.
    pub fn clear_tunnel(&mut self, home: Ipv4Addr) -> Option<Ipv4Addr> {
        let prev = self.tunnels.remove(&home);
        if prev.is_some() {
            self.route_config_gen += 1;
        }
        prev
    }

    /// Removes every tunnel entry at once (a node crash loses them all).
    /// Returns how many were installed; bumps the route-config generation
    /// if any were, flushing dependent fast-path decisions.
    pub fn clear_all_tunnels(&mut self) -> usize {
        let n = self.tunnels.len();
        if n > 0 {
            self.tunnels.clear();
            self.route_config_gen += 1;
        }
        n
    }

    /// The care-of address packets to `dst` tunnel toward, if any.
    pub fn tunnel_to(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.tunnels.get(&dst).copied()
    }

    /// A counter bumped on every tunnel-binding change; the fast-path
    /// decision cache folds it into its validity token so cached encap
    /// decisions never outlive a binding move.
    pub fn route_config_generation(&self) -> u64 {
        self.route_config_gen
    }

    /// Allocates an IP identification value.
    pub fn next_ident(&mut self) -> u16 {
        let v = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        v
    }

    /// Binds a UDP socket owned by `owner`. Port 0 allocates ephemeral.
    pub fn udp_bind(
        &mut self,
        owner: ModuleId,
        local_addr: Option<Ipv4Addr>,
        port: u16,
    ) -> Option<SocketId> {
        self.udp.bind(owner, local_addr, port)
    }

    /// Opens a TCP connection owned by `owner`; the SYN is transmitted
    /// after the current callback returns.
    pub fn tcp_connect(
        &mut self,
        owner: ModuleId,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
    ) -> ConnId {
        let (id, out) = self.tcp.connect(owner, local, remote);
        self.pending_tcp.push((id, out));
        id
    }

    /// Starts a TCP listener owned by `owner`.
    pub fn tcp_listen(&mut self, owner: ModuleId, local_addr: Option<Ipv4Addr>, port: u16) {
        self.tcp.listen(owner, local_addr, port);
    }

    /// Queues bytes on a connection; segments flow after the callback.
    pub fn tcp_send(&mut self, conn: ConnId, data: impl Into<Bytes>) {
        let data = data.into();
        let out = self.tcp.send(conn, &data);
        self.pending_tcp.push((conn, out));
    }

    /// Closes a connection gracefully.
    pub fn tcp_close(&mut self, conn: ConnId) {
        let out = self.tcp.close(conn);
        self.pending_tcp.push((conn, out));
    }

    /// Joins a multicast group on `iface`; returns `true` if newly joined
    /// (the caller should then emit a membership report).
    pub fn join_multicast(&mut self, iface: IfaceId, group: Ipv4Addr) -> bool {
        assert!(group.is_multicast(), "{group} is not a multicast group");
        self.multicast_groups.insert((iface, group))
    }

    /// Leaves a multicast group on `iface`; returns whether it was joined.
    pub fn leave_multicast(&mut self, iface: IfaceId, group: Ipv4Addr) -> bool {
        self.multicast_groups.remove(&(iface, group))
    }

    /// True if any interface has joined `group`, or specifically `iface`
    /// when given.
    pub fn is_multicast_member(&self, iface: Option<IfaceId>, group: Ipv4Addr) -> bool {
        match iface {
            Some(i) => self.multicast_groups.contains(&(i, group)),
            None => self.multicast_groups.iter().any(|(_, g)| *g == group),
        }
    }

    /// Renders the host's interfaces, addresses, routes, ARP entries and
    /// tunnel routes — `ifconfig` + `netstat -r` + `arp -a` in one string,
    /// for examples and debugging.
    pub fn render_tables(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} tables:", self.name);
        for (i, ifc) in self.ifaces.iter().enumerate() {
            let state = if ifc.device.is_up() { "UP" } else { "DOWN" };
            let lan = match ifc.lan {
                Some(l) => format!("lan{}", l.0),
                None => "unattached".to_string(),
            };
            let kind = if ifc.is_vif { " (vif)" } else { "" };
            let _ = write!(
                out,
                "  if{} {}{kind} [{state}, {lan}]",
                i,
                ifc.device.name()
            );
            for a in ifc.addrs() {
                let _ = write!(out, " {}/{}", a.addr, a.subnet.prefix_len());
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "  routes:");
        for r in self.routes.entries() {
            let gw = match r.gateway {
                Some(g) => format!("via {g}"),
                None => "on-link".to_string(),
            };
            let _ = writeln!(
                out,
                "    {:<20} {:<18} if{} metric {}",
                r.dest.to_string(),
                gw,
                r.iface.0,
                r.metric
            );
        }
        if !self.tunnels.is_empty() {
            let _ = writeln!(out, "  vif tunnels:");
            let mut entries: Vec<_> = self.tunnels.iter().collect();
            entries.sort();
            for (home, coa) in entries {
                let _ = writeln!(out, "    {home} encapsulate-to {coa}");
            }
        }
        out
    }
}

/// A host: kernel core plus installed modules.
pub struct Host {
    /// The kernel-side state.
    pub core: HostCore,
    /// The per-destination route/policy decision cache.
    pub fastpath: crate::fastpath::FastPath,
    /// Modules, each slot emptied while its callback runs.
    pub(crate) modules: Vec<Option<Box<dyn Module>>>,
    /// Armed module timers: (module, token) → scheduled event.
    pub(crate) module_timers: IdHashMap<(ModuleId, u64), EventId>,
    /// Armed TCP retransmission timers.
    pub(crate) tcp_timers: IdHashMap<ConnId, EventId>,
    /// Scheduled node crashes/restarts, if fault injection targets this
    /// host. Installed by experiments; applied by `world::install_host_faults`.
    pub fault: Option<mosquitonet_link::HostFaultPlan>,
}

impl Host {
    /// Creates a bare host.
    pub fn new(id: HostId, name: impl Into<String>) -> Host {
        Host {
            core: HostCore::new(id, name.into()),
            fastpath: crate::fastpath::FastPath::new(),
            modules: Vec::new(),
            module_timers: IdHashMap::default(),
            tcp_timers: IdHashMap::default(),
            fault: None,
        }
    }

    /// Installs a module; returns its id. Modules start when the world
    /// starts (or immediately via `world::start_module` if added later).
    pub fn add_module(&mut self, module: Box<dyn Module>) -> ModuleId {
        let id = ModuleId(self.modules.len());
        self.modules.push(Some(module));
        id
    }

    /// Number of installed modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Downcast access to a module for experiment inspection.
    ///
    /// # Panics
    ///
    /// Panics if the module is currently executing a callback.
    pub fn module_mut<T: Module>(&mut self, id: ModuleId) -> Option<&mut T> {
        self.modules[id.0]
            .as_mut()
            .expect("module is executing")
            .as_any()
            .downcast_mut::<T>()
    }

    pub(crate) fn take_module(&mut self, id: ModuleId) -> Option<Box<dyn Module>> {
        self.modules.get_mut(id.0).and_then(Option::take)
    }

    pub(crate) fn put_module(&mut self, id: ModuleId, module: Box<dyn Module>) {
        self.modules[id.0] = Some(module);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_link::presets;
    use mosquitonet_wire::MacAddr;

    fn host() -> Host {
        Host::new(HostId(0), "mh")
    }

    #[test]
    fn add_iface_and_address_lookup() {
        let mut h = host();
        let eth = h
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        h.core.iface_mut(eth).add_addr(
            Ipv4Addr::new(36, 135, 0, 9),
            "36.135.0.0/24".parse().unwrap(),
        );
        assert!(h.core.is_local_addr(Ipv4Addr::new(36, 135, 0, 9)));
        assert!(!h.core.is_local_addr(Ipv4Addr::new(36, 135, 0, 10)));
        assert_eq!(
            h.core.iface_with_addr(Ipv4Addr::new(36, 135, 0, 9)),
            Some(eth)
        );
    }

    #[test]
    fn vif_holds_addresses_without_a_lan() {
        let mut h = host();
        let vif = h.core.add_vif(presets::loopback("vif0"));
        h.core.iface_mut(vif).add_addr(
            Ipv4Addr::new(36, 135, 0, 9),
            "36.135.0.0/24".parse().unwrap(),
        );
        assert!(h.core.ifaces[vif.0].is_vif);
        assert!(h.core.iface(vif).lan.is_none());
        assert!(h.core.is_local_addr(Ipv4Addr::new(36, 135, 0, 9)));
    }

    #[test]
    fn broadcast_recognition() {
        let mut h = host();
        let eth = h
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        h.core.iface_mut(eth).add_addr(
            Ipv4Addr::new(36, 135, 0, 9),
            "36.135.0.0/24".parse().unwrap(),
        );
        assert!(h.core.is_broadcast_addr(Ipv4Addr::BROADCAST));
        assert!(h.core.is_broadcast_addr(Ipv4Addr::new(36, 135, 0, 255)));
        assert!(!h.core.is_broadcast_addr(Ipv4Addr::new(36, 8, 0, 255)));
    }

    #[test]
    fn local_subnets_enumerates_all_ifaces() {
        let mut h = host();
        let eth = h
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let radio = h
            .core
            .add_iface(presets::metricom_radio("strip0", MacAddr::from_index(2)));
        h.core
            .iface_mut(eth)
            .add_addr(Ipv4Addr::new(36, 8, 0, 42), "36.8.0.0/24".parse().unwrap());
        h.core.iface_mut(radio).add_addr(
            Ipv4Addr::new(36, 134, 0, 7),
            "36.134.0.0/16".parse().unwrap(),
        );
        let subnets: Vec<Cidr> = h.core.local_subnets().collect();
        assert_eq!(subnets.len(), 2);
        assert!(subnets.iter().any(|c| c.to_string() == "36.8.0.0/24"));
        assert!(subnets.iter().any(|c| c.to_string() == "36.134.0.0/16"));
    }

    #[test]
    fn ident_counter_wraps() {
        let mut h = host();
        h.core.next_ident = u16::MAX;
        assert_eq!(h.core.next_ident(), u16::MAX);
        assert_eq!(h.core.next_ident(), 0);
        assert_eq!(h.core.next_ident(), 1);
    }

    #[test]
    fn render_tables_shows_ifaces_routes_and_tunnels() {
        let mut h = host();
        let eth = h
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        h.core
            .iface_mut(eth)
            .add_addr(Ipv4Addr::new(36, 8, 0, 42), "36.8.0.0/24".parse().unwrap());
        h.core.routes.add(crate::route::RouteEntry {
            dest: "0.0.0.0/0".parse().unwrap(),
            gateway: Some(Ipv4Addr::new(36, 8, 0, 1)),
            iface: eth,
            metric: 0,
        });
        h.core
            .set_tunnel(Ipv4Addr::new(36, 135, 0, 9), Ipv4Addr::new(36, 8, 0, 42));
        let out = h.core.render_tables();
        assert!(out.contains("eth0"), "{out}");
        assert!(out.contains("36.8.0.42/24"), "{out}");
        assert!(out.contains("via 36.8.0.1"), "{out}");
        assert!(out.contains("36.135.0.9 encapsulate-to 36.8.0.42"), "{out}");
        assert!(out.contains("DOWN"), "device not yet up");
    }

    #[test]
    fn multicast_membership_tracking() {
        let mut h = host();
        let eth = h
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let group = Ipv4Addr::new(224, 1, 1, 1);
        assert!(h.core.join_multicast(eth, group), "new membership");
        assert!(!h.core.join_multicast(eth, group), "idempotent");
        assert!(h.core.is_multicast_member(Some(eth), group));
        assert!(h.core.is_multicast_member(None, group));
        assert!(!h.core.is_multicast_member(Some(IfaceId(5)), group));
        assert!(h.core.leave_multicast(eth, group));
        assert!(!h.core.leave_multicast(eth, group));
        assert!(!h.core.is_multicast_member(None, group));
    }

    #[test]
    #[should_panic(expected = "is not a multicast group")]
    fn joining_a_unicast_address_panics() {
        let mut h = host();
        let eth = h
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        h.core.join_multicast(eth, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn tcp_calls_queue_pending_outs() {
        let mut h = host();
        let conn = h.core.tcp_connect(
            ModuleId(0),
            (Ipv4Addr::new(36, 135, 0, 9), 1023),
            (Ipv4Addr::new(36, 8, 0, 7), 513),
        );
        assert_eq!(h.core.pending_tcp.len(), 1);
        h.core.tcp_send(conn, &b"ignored until established"[..]);
        assert_eq!(h.core.pending_tcp.len(), 2);
    }
}
