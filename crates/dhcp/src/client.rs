//! The DHCP client: a pure state machine plus a standalone module wrapper.
//!
//! The mobile-host manager embeds [`DhcpClientMachine`] directly because
//! care-of acquisition is one *step* of a hand-off (§3.1) whose completion
//! it must observe; simple hosts use [`DhcpClientModule`].

use std::any::Any;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{Counter, Line, MetricCell, MetricsScope, SimDuration, SimTime};
use mosquitonet_stack::{Effects, IfaceId, Module, ModuleCtx, SendOptions, SocketId, SourceSel};
use mosquitonet_wire::{Cidr, MacAddr};

use crate::messages::{DhcpMessage, DhcpOp, DHCP_CLIENT_PORT, DHCP_SERVER_PORT};

/// A granted lease.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lease {
    /// The leased address.
    pub addr: Ipv4Addr,
    /// Its subnet.
    pub subnet: Cidr,
    /// Default router announced by the server.
    pub router: Ipv4Addr,
    /// The granting server.
    pub server: Ipv4Addr,
    /// When the lease expires.
    pub expires: SimTime,
    /// Lease duration as granted.
    pub duration: SimDuration,
}

/// Timer token space used by the machine (namespaced by the embedder).
const RETRY_TOKEN: u64 = 0x1;
const RENEW_TOKEN: u64 = 0x2;

/// Retransmission interval for unanswered DISCOVER/REQUEST.
pub const DHCP_RETRY: SimDuration = SimDuration::from_secs(2);

/// Client-side DHCP lifecycle counters.
///
/// Cells are shared (`Clone` duplicates the handles, not the values), so
/// the embedder keeps one copy for metrics registration and clones another
/// into each [`DhcpClientMachine`] it creates — machines are often built
/// lazily, long after the registry bound the cells.
#[derive(Clone, Default, Debug)]
pub struct DhcpClientStats {
    /// DISCOVER broadcasts sent (including retransmissions).
    pub discovers_sent: Counter,
    /// OFFERs received and accepted into the handshake.
    pub offers_received: Counter,
    /// REQUEST broadcasts sent (including retransmissions and renewals).
    pub requests_sent: Counter,
    /// Initial lease grants (ACK while holding no lease).
    pub grants: Counter,
    /// Lease renewals (ACK re-confirming the held address).
    pub renewals: Counter,
    /// NAKs received (server refused; acquisition restarts).
    pub naks_received: Counter,
}

impl DhcpClientStats {
    /// Binds every counter into `scope` (conventionally `{host}/dhcp`).
    pub fn register_into(&self, scope: &MetricsScope) {
        for (name, cell) in [
            ("discovers_sent", &self.discovers_sent),
            ("offers_received", &self.offers_received),
            ("requests_sent", &self.requests_sent),
            ("grants", &self.grants),
            ("renewals", &self.renewals),
            ("naks_received", &self.naks_received),
        ] {
            scope.register(name, MetricCell::Counter(cell.clone()));
        }
    }
}

/// What the machine reports upward.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientEvent {
    /// Nothing interesting.
    None,
    /// A lease was acquired (initial or renewed).
    Acquired(Lease),
    /// The server refused; acquisition restarts from DISCOVER.
    Refused,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Idle,
    Discovering,
    Requesting,
    Bound,
}

/// The client state machine. The embedder supplies a bound wildcard socket
/// on [`DHCP_CLIENT_PORT`], forwards matching datagrams to
/// [`DhcpClientMachine::on_udp`], and forwards its timer tokens (offset by
/// the base passed to [`DhcpClientMachine::new`]) to
/// [`DhcpClientMachine::on_timer`].
#[derive(Debug)]
pub struct DhcpClientMachine {
    iface: IfaceId,
    mac: MacAddr,
    xid: u32,
    token_base: u64,
    state: State,
    offer: Option<DhcpMessage>,
    /// The current lease, if bound.
    pub lease: Option<Lease>,
    sock: SocketId,
    /// Lifecycle counters (shared cells; see [`DhcpClientStats`]).
    pub stats: DhcpClientStats,
}

impl DhcpClientMachine {
    /// Creates an idle machine for `iface`/`mac`, using timer tokens
    /// `token_base + {1, 2}` and transaction ids derived from `xid_seed`.
    pub fn new(
        iface: IfaceId,
        mac: MacAddr,
        sock: SocketId,
        token_base: u64,
        xid_seed: u32,
    ) -> Self {
        DhcpClientMachine {
            iface,
            mac,
            xid: xid_seed,
            token_base,
            state: State::Idle,
            offer: None,
            lease: None,
            sock,
            stats: DhcpClientStats::default(),
        }
    }

    /// True when a timer token belongs to this machine.
    pub fn owns_token(&self, token: u64) -> bool {
        token == self.token_base + RETRY_TOKEN || token == self.token_base + RENEW_TOKEN
    }

    fn broadcast(&self, fx: &mut Effects, msg: &DhcpMessage) {
        fx.send_udp_opts(
            self.sock,
            (Ipv4Addr::BROADCAST, DHCP_SERVER_PORT),
            msg.to_bytes(),
            SendOptions {
                src: SourceSel::Unspecified,
                iface: Some(self.iface),
                ttl: None,
                label: Some("dhcp"),
            },
        );
    }

    /// Begins (re)acquisition: broadcasts a DISCOVER and arms the retry
    /// timer.
    pub fn start(&mut self, fx: &mut Effects) {
        self.xid = self.xid.wrapping_add(1);
        self.state = State::Discovering;
        self.offer = None;
        let d = DhcpMessage::discover(self.xid, self.mac);
        self.stats.discovers_sent.inc();
        self.broadcast(fx, &d);
        fx.set_timer(DHCP_RETRY, self.token_base + RETRY_TOKEN);
    }

    /// Releases the current lease (sent directly to the server) and goes
    /// idle.
    pub fn release(&mut self, fx: &mut Effects) {
        if let Some(lease) = self.lease.take() {
            let msg = DhcpMessage::release(self.xid, self.mac, lease.addr, lease.server);
            fx.send_udp_opts(
                self.sock,
                (lease.server, DHCP_SERVER_PORT),
                msg.to_bytes(),
                SendOptions {
                    src: SourceSel::Addr(lease.addr),
                    iface: Some(self.iface),
                    ttl: None,
                    label: Some("dhcp"),
                },
            );
        }
        self.state = State::Idle;
        fx.push(mosquitonet_stack::Effect::CancelTimer {
            token: self.token_base + RETRY_TOKEN,
        });
        fx.push(mosquitonet_stack::Effect::CancelTimer {
            token: self.token_base + RENEW_TOKEN,
        });
    }

    /// Abandons any lease state without notifying the server (used when a
    /// mobile host departs abruptly — experiment A3's trigger).
    pub fn abandon(&mut self) {
        self.lease = None;
        self.offer = None;
        self.state = State::Idle;
    }

    /// Handles a timer token. Returns `true` if consumed.
    pub fn on_timer(&mut self, fx: &mut Effects, token: u64, now: SimTime) -> bool {
        if token == self.token_base + RETRY_TOKEN {
            match self.state {
                State::Discovering => {
                    let d = DhcpMessage::discover(self.xid, self.mac);
                    self.stats.discovers_sent.inc();
                    self.broadcast(fx, &d);
                    fx.set_timer(DHCP_RETRY, self.token_base + RETRY_TOKEN);
                }
                State::Requesting => {
                    if let Some(offer) = self.offer {
                        let r = DhcpMessage::request(self.xid, self.mac, &offer);
                        self.stats.requests_sent.inc();
                        self.broadcast(fx, &r);
                        fx.set_timer(DHCP_RETRY, self.token_base + RETRY_TOKEN);
                    }
                }
                _ => {}
            }
            true
        } else if token == self.token_base + RENEW_TOKEN {
            if self.state == State::Bound {
                // Renew by re-requesting our address (lease-refresh is part
                // of the mobile host's *local role*, §5.2).
                if let Some(lease) = self.lease {
                    let mut as_offer = DhcpMessage::discover(self.xid, self.mac);
                    as_offer.yiaddr = lease.addr;
                    as_offer.server = lease.server;
                    as_offer.prefix_len = lease.subnet.prefix_len();
                    as_offer.router = lease.router;
                    as_offer.lease_secs = (lease.duration.as_nanos() / 1_000_000_000) as u32;
                    let r = DhcpMessage::request(self.xid, self.mac, &as_offer);
                    self.state = State::Requesting;
                    self.offer = Some(as_offer);
                    self.stats.requests_sent.inc();
                    self.broadcast(fx, &r);
                    fx.set_timer(DHCP_RETRY, self.token_base + RETRY_TOKEN);
                }
            }
            let _ = now;
            true
        } else {
            false
        }
    }

    /// Handles a datagram on the client socket. Returns the resulting
    /// event.
    pub fn on_udp(&mut self, fx: &mut Effects, payload: &Bytes, now: SimTime) -> ClientEvent {
        let Ok(msg) = DhcpMessage::parse(payload) else {
            return ClientEvent::None;
        };
        if msg.xid != self.xid || msg.client_mac != self.mac {
            return ClientEvent::None; // someone else's transaction
        }
        match (msg.op, self.state) {
            (DhcpOp::Offer, State::Discovering) => {
                self.stats.offers_received.inc();
                self.offer = Some(msg);
                self.state = State::Requesting;
                let r = DhcpMessage::request(self.xid, self.mac, &msg);
                self.stats.requests_sent.inc();
                self.broadcast(fx, &r);
                fx.set_timer(DHCP_RETRY, self.token_base + RETRY_TOKEN);
                ClientEvent::None
            }
            (DhcpOp::Ack, State::Requesting) => {
                // An ACK re-confirming the address we already hold is a
                // renewal; anything else is an initial grant.
                if self.lease.is_some_and(|l| l.addr == msg.yiaddr) {
                    self.stats.renewals.inc();
                } else {
                    self.stats.grants.inc();
                }
                let duration = SimDuration::from_secs(u64::from(msg.lease_secs));
                let lease = Lease {
                    addr: msg.yiaddr,
                    subnet: msg.subnet(),
                    router: msg.router,
                    server: msg.server,
                    expires: now + duration,
                    duration,
                };
                self.lease = Some(lease);
                self.state = State::Bound;
                fx.push(mosquitonet_stack::Effect::CancelTimer {
                    token: self.token_base + RETRY_TOKEN,
                });
                fx.set_timer(duration / 2, self.token_base + RENEW_TOKEN);
                ClientEvent::Acquired(lease)
            }
            (DhcpOp::Nak, State::Requesting) => {
                self.stats.naks_received.inc();
                self.lease = None;
                self.start(fx);
                ClientEvent::Refused
            }
            _ => ClientEvent::None,
        }
    }
}

/// A standalone DHCP client module: acquires a lease on start, configures
/// the interface address, subnet route, and default route from it.
pub struct DhcpClientModule {
    iface: IfaceId,
    machine: Option<DhcpClientMachine>,
    /// Leases acquired so far (instrumentation).
    pub acquisitions: u64,
    /// Lifecycle counters, cloned into the machine at start so the
    /// registry can bind them before the machine exists.
    pub stats: DhcpClientStats,
}

impl DhcpClientModule {
    /// Creates a client that will configure `iface`.
    pub fn new(iface: IfaceId) -> DhcpClientModule {
        DhcpClientModule {
            iface,
            machine: None,
            acquisitions: 0,
            stats: DhcpClientStats::default(),
        }
    }

    /// The current lease.
    pub fn lease(&self) -> Option<Lease> {
        self.machine.as_ref().and_then(|m| m.lease)
    }
}

impl Module for DhcpClientModule {
    fn name(&self) -> &'static str {
        "dhcp-client"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let sock = ctx
            .udp_bind(None, DHCP_CLIENT_PORT)
            .expect("DHCP client port busy");
        let mac = ctx.core.iface(self.iface).device.mac();
        let mut machine = DhcpClientMachine::new(self.iface, mac, sock, 0x100, 1);
        machine.stats = self.stats.clone();
        machine.start(ctx.fx);
        self.machine = Some(machine);
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        self.stats.register_into(&scope.scope("dhcp"));
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if let Some(m) = &mut self.machine {
            m.on_timer(ctx.fx, token, ctx.now);
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
        let Some(m) = &mut self.machine else { return };
        if let ClientEvent::Acquired(lease) = m.on_udp(ctx.fx, payload, ctx.now) {
            self.acquisitions += 1;
            ctx.core
                .iface_mut(self.iface)
                .add_addr(lease.addr, lease.subnet);
            ctx.core.routes.add(mosquitonet_stack::RouteEntry {
                dest: lease.subnet,
                gateway: None,
                iface: self.iface,
                metric: 0,
            });
            ctx.core.routes.add(mosquitonet_stack::RouteEntry {
                dest: Cidr::DEFAULT,
                gateway: Some(lease.router),
                iface: self.iface,
                metric: 0,
            });
            // Announce the new binding: a gratuitous ARP voids any stale
            // neighbor-cache entries left by a previous holder of this
            // address (which is how the §5.1 mis-delivery scenario
            // becomes observable at all).
            ctx.fx.push(mosquitonet_stack::Effect::GratuitousArp {
                iface: self.iface,
                addr: lease.addr,
            });
            // A module cannot tell whether the trace is on, so it builds no
            // text: the interface goes by its id, as in the mobile host's
            // lines, not by the device name only the world could look up.
            let line = Line::new("dhcp bound {} on iface IfaceId({})");
            ctx.fx.trace(line.addr(lease.addr).num(self.iface.0 as u64));
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> DhcpClientMachine {
        DhcpClientMachine::new(IfaceId(0), MacAddr::from_index(9), SocketId(0), 0x100, 7)
    }

    fn offer_for(m: &DhcpClientMachine) -> DhcpMessage {
        DhcpMessage {
            op: DhcpOp::Offer,
            xid: m.xid,
            client_mac: m.mac,
            yiaddr: Ipv4Addr::new(36, 8, 0, 42),
            server: Ipv4Addr::new(36, 8, 0, 2),
            prefix_len: 24,
            router: Ipv4Addr::new(36, 8, 0, 1),
            lease_secs: 600,
        }
    }

    #[test]
    fn discover_offer_request_ack_binds() {
        let mut m = machine();
        let mut fx = Effects::new();
        m.start(&mut fx);
        assert!(!fx.is_empty(), "discover broadcast queued");
        let offer = offer_for(&m);
        let ev = m.on_udp(&mut fx, &offer.to_bytes(), SimTime::ZERO);
        assert_eq!(ev, ClientEvent::None, "offer triggers request, not bind");
        let mut ack = offer;
        ack.op = DhcpOp::Ack;
        let ev = m.on_udp(&mut fx, &ack.to_bytes(), SimTime::ZERO);
        match ev {
            ClientEvent::Acquired(lease) => {
                assert_eq!(lease.addr, Ipv4Addr::new(36, 8, 0, 42));
                assert_eq!(lease.router, Ipv4Addr::new(36, 8, 0, 1));
                assert_eq!(lease.duration, SimDuration::from_secs(600));
            }
            other => panic!("expected Acquired, got {other:?}"),
        }
        assert!(m.lease.is_some());
    }

    #[test]
    fn wrong_xid_is_ignored() {
        let mut m = machine();
        let mut fx = Effects::new();
        m.start(&mut fx);
        let mut offer = offer_for(&m);
        offer.xid ^= 0xFFFF;
        assert_eq!(
            m.on_udp(&mut fx, &offer.to_bytes(), SimTime::ZERO),
            ClientEvent::None
        );
        assert_eq!(m.state, State::Discovering, "still discovering");
    }

    #[test]
    fn nak_restarts_discovery() {
        let mut m = machine();
        let mut fx = Effects::new();
        m.start(&mut fx);
        let old_xid = m.xid;
        let offer = offer_for(&m);
        m.on_udp(&mut fx, &offer.to_bytes(), SimTime::ZERO);
        let mut nak = offer;
        nak.op = DhcpOp::Nak;
        assert_eq!(
            m.on_udp(&mut fx, &nak.to_bytes(), SimTime::ZERO),
            ClientEvent::Refused
        );
        assert_eq!(m.state, State::Discovering);
        assert_ne!(m.xid, old_xid, "fresh transaction");
    }

    #[test]
    fn retry_timer_retransmits_in_discovering() {
        let mut m = machine();
        let mut fx = Effects::new();
        m.start(&mut fx);
        let before = fx.drain().len();
        assert!(m.on_timer(&mut fx, 0x101, SimTime::ZERO));
        assert!(fx.drain().len() >= before, "discover retransmitted");
        assert!(!m.on_timer(&mut fx, 0x999, SimTime::ZERO), "foreign token");
    }

    #[test]
    fn abandon_forgets_lease_silently() {
        let mut m = machine();
        let mut fx = Effects::new();
        m.start(&mut fx);
        let offer = offer_for(&m);
        m.on_udp(&mut fx, &offer.to_bytes(), SimTime::ZERO);
        let mut ack = offer;
        ack.op = DhcpOp::Ack;
        m.on_udp(&mut fx, &ack.to_bytes(), SimTime::ZERO);
        fx.drain();
        m.abandon();
        assert!(m.lease.is_none());
        assert!(fx.is_empty(), "no RELEASE sent");
    }

    #[test]
    fn owns_token_namespacing() {
        let m = machine();
        assert!(m.owns_token(0x101));
        assert!(m.owns_token(0x102));
        assert!(!m.owns_token(0x103));
        assert!(!m.owns_token(0x1));
    }
}
