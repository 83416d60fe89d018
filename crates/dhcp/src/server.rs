//! The DHCP server module.

use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{Counter, Line, MetricCell, MetricsScope, SimDuration, SimTime};
use mosquitonet_stack::{IfaceId, Module, ModuleCtx, SendOptions, SocketId, SourceSel};
use mosquitonet_wire::{Cidr, MacAddr};

use crate::messages::{DhcpMessage, DhcpOp, DHCP_CLIENT_PORT, DHCP_SERVER_PORT};

/// How the server picks an address when several are free.
///
/// The paper (§5.1) notes that accidental eavesdropping after a mobile
/// host departs "should not happen in practice because a well-written DHCP
/// server would avoid reassigning the same IP address for as long as
/// possible" — that is [`ReusePolicy::LeastRecentlyUsed`]. The
/// [`ReusePolicy::FirstAvailable`] policy reassigns aggressively, and the
/// `a3_address_reuse` experiment measures the difference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReusePolicy {
    /// Prefer the address released longest ago (the "well-written" server).
    LeastRecentlyUsed,
    /// Hand out the lowest free address (reassigns immediately).
    FirstAvailable,
}

/// Server-side DHCP lifecycle counters (shared cells; `Clone` duplicates
/// the handles, not the values).
#[derive(Clone, Default, Debug)]
pub struct DhcpServerStats {
    /// DISCOVERs received that produced an offer.
    pub discovers_rx: Counter,
    /// OFFERs broadcast.
    pub offers_tx: Counter,
    /// Initial lease grants (ACK of a tentative or fresh binding).
    pub grants: Counter,
    /// Lease renewals (ACK re-confirming an established binding).
    pub renewals: Counter,
    /// NAKs sent (request refused).
    pub naks_tx: Counter,
    /// RELEASEs honoured.
    pub releases_rx: Counter,
    /// Leases reclaimed by the expiry sweep.
    pub expiries: Counter,
}

impl DhcpServerStats {
    /// Binds every counter into `scope` (conventionally `{host}/dhcp`).
    pub fn register_into(&self, scope: &MetricsScope) {
        for (name, cell) in [
            ("discovers_rx", &self.discovers_rx),
            ("offers_tx", &self.offers_tx),
            ("grants", &self.grants),
            ("renewals", &self.renewals),
            ("naks_tx", &self.naks_tx),
            ("releases_rx", &self.releases_rx),
            ("expiries", &self.expiries),
        ] {
            scope.register(name, MetricCell::Counter(cell.clone()));
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct LeaseRecord {
    mac: MacAddr,
    expires: SimTime,
    /// Offered but not yet acknowledged.
    tentative: bool,
}

/// A DHCP server serving one address pool on one interface.
pub struct DhcpServer {
    iface: IfaceId,
    subnet: Cidr,
    /// Host numbers `first..=last` within the subnet form the pool.
    first: u32,
    last: u32,
    router: Ipv4Addr,
    my_addr: Ipv4Addr,
    lease_time: SimDuration,
    /// Address-reuse policy.
    pub policy: ReusePolicy,
    leases: HashMap<Ipv4Addr, LeaseRecord>,
    /// When each address was last released (for LRU).
    released_at: HashMap<Ipv4Addr, SimTime>,
    sock: Option<SocketId>,
    /// Leases granted (instrumentation).
    pub granted: u64,
    /// Lifecycle counters for the metrics registry.
    pub stats: DhcpServerStats,
}

const TOKEN_EXPIRE_SWEEP: u64 = 1;
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(5);

impl DhcpServer {
    /// Creates a server for `subnet`, serving host numbers
    /// `first..=last`, announcing `router` as the default gateway.
    pub fn new(
        iface: IfaceId,
        subnet: Cidr,
        first: u32,
        last: u32,
        router: Ipv4Addr,
        my_addr: Ipv4Addr,
        lease_time: SimDuration,
    ) -> DhcpServer {
        assert!(first <= last, "empty pool");
        DhcpServer {
            iface,
            subnet,
            first,
            last,
            router,
            my_addr,
            lease_time,
            policy: ReusePolicy::LeastRecentlyUsed,
            leases: HashMap::new(),
            released_at: HashMap::new(),
            sock: None,
            granted: 0,
            stats: DhcpServerStats::default(),
        }
    }

    /// Active (non-tentative, unexpired) lease count.
    pub fn active_leases(&self, now: SimTime) -> usize {
        self.leases
            .values()
            .filter(|l| !l.tentative && l.expires > now)
            .count()
    }

    /// The lease currently held on `addr`, if any.
    pub fn lease_holder(&self, addr: Ipv4Addr, now: SimTime) -> Option<MacAddr> {
        self.leases
            .get(&addr)
            .filter(|l| l.expires > now)
            .map(|l| l.mac)
    }

    fn pick_address(&self, mac: MacAddr, now: SimTime) -> Option<Ipv4Addr> {
        // An existing (even expired) binding for this client is always
        // preferred — clients get their old address back when possible.
        for (addr, lease) in &self.leases {
            if lease.mac == mac {
                return Some(*addr);
            }
        }
        let free: Vec<Ipv4Addr> = (self.first..=self.last)
            .map(|i| self.subnet.host_at(i))
            .filter(|a| self.leases.get(a).is_none_or(|l| l.expires <= now))
            .collect();
        if free.is_empty() {
            return None;
        }
        match self.policy {
            ReusePolicy::FirstAvailable => free.first().copied(),
            ReusePolicy::LeastRecentlyUsed => {
                // Never-used addresses first (release time = epoch), then
                // the one released longest ago.
                free.into_iter()
                    .min_by_key(|a| self.released_at.get(a).copied().unwrap_or(SimTime::ZERO))
            }
        }
    }

    /// True if `addr` is one of the pool's handout addresses.
    fn in_pool(&self, addr: Ipv4Addr) -> bool {
        (self.first..=self.last).any(|i| self.subnet.host_at(i) == addr)
    }

    fn offer_for(&self, addr: Ipv4Addr, xid: u32, mac: MacAddr) -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Offer,
            xid,
            client_mac: mac,
            yiaddr: addr,
            server: self.my_addr,
            prefix_len: self.subnet.prefix_len(),
            router: self.router,
            lease_secs: self.lease_time.as_nanos().div_euclid(1_000_000_000) as u32,
        }
    }

    fn broadcast(&self, ctx: &mut ModuleCtx<'_>, msg: &DhcpMessage) {
        let opts = SendOptions {
            src: SourceSel::Addr(self.my_addr),
            iface: Some(self.iface),
            ttl: None,
            label: Some("dhcp"),
        };
        ctx.fx.send_udp_opts(
            self.sock.expect("socket bound"),
            (Ipv4Addr::BROADCAST, DHCP_CLIENT_PORT),
            msg.to_bytes(),
            opts,
        );
    }
}

impl Module for DhcpServer {
    fn name(&self) -> &'static str {
        "dhcp-server"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, DHCP_SERVER_PORT);
        assert!(self.sock.is_some(), "DHCP server port busy");
        ctx.fx.set_timer(SWEEP_INTERVAL, TOKEN_EXPIRE_SWEEP);
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        self.stats.register_into(&scope.scope("dhcp"));
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if token == TOKEN_EXPIRE_SWEEP {
            let now = ctx.now;
            let expired: Vec<Ipv4Addr> = self
                .leases
                .iter()
                .filter(|(_, l)| l.expires <= now)
                .map(|(a, _)| *a)
                .collect();
            for addr in expired {
                self.leases.remove(&addr);
                self.released_at.insert(addr, now);
                self.stats.expiries.inc();
                ctx.fx.trace(Line::new("dhcp lease expired: {}").addr(addr));
            }
            ctx.fx.set_timer(SWEEP_INTERVAL, TOKEN_EXPIRE_SWEEP);
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        let Ok(msg) = DhcpMessage::parse(payload) else {
            return;
        };
        let now = ctx.now;
        match msg.op {
            DhcpOp::Discover => {
                self.stats.discovers_rx.inc();
                let Some(addr) = self.pick_address(msg.client_mac, now) else {
                    return; // pool exhausted: silence, client retries
                };
                // Tentative reservation so parallel discovers don't collide.
                self.leases.insert(
                    addr,
                    LeaseRecord {
                        mac: msg.client_mac,
                        expires: now + SimDuration::from_secs(10),
                        tentative: true,
                    },
                );
                let offer = self.offer_for(addr, msg.xid, msg.client_mac);
                let line = Line::new("dhcp offer {} to {} (xid {})").addr(addr);
                ctx.fx
                    .trace(line.mac(msg.client_mac.octets()).hex(msg.xid.into()));
                self.stats.offers_tx.inc();
                self.broadcast(ctx, &offer);
            }
            DhcpOp::Request => {
                let addr = msg.yiaddr;
                let ours = self.subnet.contains(addr) && self.in_pool(addr);
                let conflict = self
                    .leases
                    .get(&addr)
                    .is_some_and(|l| l.mac != msg.client_mac && l.expires > now);
                if !ours || conflict {
                    let mut nak = self.offer_for(addr, msg.xid, msg.client_mac);
                    nak.op = DhcpOp::Nak;
                    self.stats.naks_tx.inc();
                    self.broadcast(ctx, &nak);
                    return;
                }
                // A re-request over an established (non-tentative) binding
                // by the same client is a renewal; everything else is an
                // initial grant.
                let renewal = self
                    .leases
                    .get(&addr)
                    .is_some_and(|l| l.mac == msg.client_mac && !l.tentative);
                self.leases.insert(
                    addr,
                    LeaseRecord {
                        mac: msg.client_mac,
                        expires: now + self.lease_time,
                        tentative: false,
                    },
                );
                self.granted += 1;
                if renewal {
                    self.stats.renewals.inc();
                } else {
                    self.stats.grants.inc();
                }
                let mut ack = self.offer_for(addr, msg.xid, msg.client_mac);
                ack.op = DhcpOp::Ack;
                let line = Line::new("dhcp ack {} to {} (xid {})").addr(addr);
                ctx.fx
                    .trace(line.mac(msg.client_mac.octets()).hex(msg.xid.into()));
                self.broadcast(ctx, &ack);
            }
            DhcpOp::Release => {
                if self
                    .leases
                    .get(&msg.yiaddr)
                    .is_some_and(|l| l.mac == msg.client_mac)
                {
                    self.leases.remove(&msg.yiaddr);
                    self.released_at.insert(msg.yiaddr, now);
                    self.stats.releases_rx.inc();
                    let line = Line::new("dhcp release {} by {}").addr(msg.yiaddr);
                    ctx.fx.trace(line.mac(msg.client_mac.octets()));
                }
            }
            DhcpOp::Offer | DhcpOp::Ack | DhcpOp::Nak => {} // server-to-client only
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> DhcpServer {
        DhcpServer::new(
            IfaceId(0),
            "36.8.0.0/24".parse().unwrap(),
            40,
            45,
            Ipv4Addr::new(36, 8, 0, 1),
            Ipv4Addr::new(36, 8, 0, 2),
            SimDuration::from_secs(600),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn pick_prefers_existing_binding() {
        let mut s = server();
        let mac = MacAddr::from_index(9);
        s.leases.insert(
            Ipv4Addr::new(36, 8, 0, 43),
            LeaseRecord {
                mac,
                expires: t(100),
                tentative: false,
            },
        );
        assert_eq!(s.pick_address(mac, t(0)), Some(Ipv4Addr::new(36, 8, 0, 43)));
        // Even after expiry the old binding is preferred.
        assert_eq!(
            s.pick_address(mac, t(1000)),
            Some(Ipv4Addr::new(36, 8, 0, 43))
        );
    }

    #[test]
    fn first_available_reuses_immediately() {
        let mut s = server();
        s.policy = ReusePolicy::FirstAvailable;
        // .40 was just released by an old client.
        s.released_at.insert(Ipv4Addr::new(36, 8, 0, 40), t(50));
        let got = s.pick_address(MacAddr::from_index(1), t(51));
        assert_eq!(got, Some(Ipv4Addr::new(36, 8, 0, 40)));
    }

    #[test]
    fn lru_avoids_recently_released_address() {
        let mut s = server();
        s.policy = ReusePolicy::LeastRecentlyUsed;
        // .40 released very recently; .41-.45 never used.
        s.released_at.insert(Ipv4Addr::new(36, 8, 0, 40), t(50));
        let got = s.pick_address(MacAddr::from_index(1), t(51)).unwrap();
        assert_ne!(
            got,
            Ipv4Addr::new(36, 8, 0, 40),
            "well-written server avoids the just-released address"
        );
    }

    #[test]
    fn lru_picks_oldest_release_when_all_used() {
        let mut s = server();
        s.policy = ReusePolicy::LeastRecentlyUsed;
        for (i, secs) in [
            (40u32, 30u64),
            (41, 10),
            (42, 50),
            (43, 20),
            (44, 40),
            (45, 60),
        ] {
            s.released_at.insert(s.subnet.host_at(i), t(secs));
        }
        let got = s.pick_address(MacAddr::from_index(1), t(100)).unwrap();
        assert_eq!(got, Ipv4Addr::new(36, 8, 0, 41), "released longest ago");
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut s = server();
        for i in 40..=45u32 {
            s.leases.insert(
                s.subnet.host_at(i),
                LeaseRecord {
                    mac: MacAddr::from_index(i),
                    expires: t(999),
                    tentative: false,
                },
            );
        }
        assert_eq!(s.pick_address(MacAddr::from_index(99), t(0)), None);
    }

    #[test]
    fn expired_leases_are_reusable() {
        let mut s = server();
        for i in 40..=45u32 {
            s.leases.insert(
                s.subnet.host_at(i),
                LeaseRecord {
                    mac: MacAddr::from_index(i),
                    expires: t(10),
                    tentative: false,
                },
            );
        }
        assert!(s.pick_address(MacAddr::from_index(99), t(11)).is_some());
        assert_eq!(s.active_leases(t(11)), 0);
        assert_eq!(s.active_leases(t(0)), 6);
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn reversed_pool_panics() {
        DhcpServer::new(
            IfaceId(0),
            "36.8.0.0/24".parse().unwrap(),
            45,
            40,
            Ipv4Addr::new(36, 8, 0, 1),
            Ipv4Addr::new(36, 8, 0, 2),
            SimDuration::from_secs(600),
        );
    }
}
