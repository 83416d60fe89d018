//! The MosquitoNet host network stack and simulated network world.
//!
//! This crate is the "Linux 1.2.13 kernel" of the reproduction: per-host
//! interfaces, ARP (with proxy and gratuitous support), a longest-prefix
//! routing table, IP input/output/forwarding with the paper's three
//! extension points (the `route_override` hook standing in for the
//! modified `ip_rt_route()`, VIF tunnel entries, and transparent IP-in-IP
//! decapsulation), ICMP, UDP sockets, and a miniature TCP.
//!
//! Hosts plus LANs form a [`Network`] world driven by the
//! `mosquitonet-sim` discrete-event engine. Mobility itself lives in
//! `mosquitonet-core`, attached through the [`Module`] framework — this
//! crate knows the *mechanisms* (encapsulation, proxy ARP, hooks) but no
//! mobile-IP *policy*, mirroring the paper's kernel/daemon split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arp;
mod fastpath;
mod host;
mod iface;
mod ip;
mod proto;
mod route;
mod sniff;
mod tcp;
mod telemetry;
mod udp;
mod world;

pub use arp::{ArpAction, ArpState, ArpStats, ARP_MAX_TRIES};
pub use fastpath::{CacheEntry, CacheKey, FastPath, FastPathStats};
pub use host::{Host, HostCore, HostId, HostStats, DEFAULT_PROC_DELAY};
pub use iface::{IfaceAddr, IfaceId, Interface, LanId};
pub use ip::{ip_input, ip_send_packet, resolve_route, udp_send};
pub use proto::{
    Effect, Effects, EncapSpec, Module, ModuleCtx, ModuleId, RouteAnswer, RouteDecision,
    SendOptions, SourceSel,
};
pub use route::{RouteEntry, RouteTable};
pub use sniff::frame_summary;
pub use tcp::{
    ConnId, TcpEvent, TcpListener, TcpOut, TcpState, TcpTable, TCP_INITIAL_RTO, TCP_MAX_RETRIES,
    TCP_MSS,
};
pub use telemetry::{render_notes, DropReason};
pub use udp::{SocketId, UdpSocket, UdpTable};
pub use world::{
    add_module, bring_iface_up, crash_host, dispatch, install_host_faults, register_metrics,
    restart_host, start, NetSim, Network, WireEnvelope, ARP_RETRY_INTERVAL,
};
