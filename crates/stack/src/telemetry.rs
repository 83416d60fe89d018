//! One way to report a packet's fate.
//!
//! What happens to a packet at a site is visible on two channels: a
//! [`HostStats`] counter and a flight-recorder hop. This module owns the
//! decision which [`Event`] moves which of them, and [`DropReason::code`]
//! is where a `drop.*` code comes from, so a site in [`crate::ip`] or
//! [`crate::world`] names the event once and the counter and the hop
//! cannot disagree. The flight recorder's notes are the control plane's
//! log (module lines, device up/down, crash and restart markers); no
//! packet writes to them. `docs/telemetry.md` documents the codes.

use std::fmt::Write;

use mosquitonet_sim::{Counter, HopAction as Hop, Line, TraceKind};

use crate::host::{HostId, HostStats};
use crate::world::NetSim;

/// Why a packet died: one variant per stable `drop.{reason}` code (and the
/// injected `fault.drop`) that this stack reports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DropReason {
    /// No route to the destination.
    NoRoute,
    /// TTL expired at a forwarder.
    Ttl,
    /// The transit-traffic filter refused a non-local source (§3.2).
    FilterIngress,
    /// ARP resolution of the next hop failed after every retry.
    ArpFailure,
    /// The interface was down or unattached.
    IfaceDown,
    /// Not addressed to this host, and forwarding is off.
    NotLocal,
    /// A frame, packet or transport header failed to parse.
    Malformed,
    /// Locally addressed, but no protocol or module claimed it.
    Unclaimed,
    /// UDP for a port nobody listens on.
    NoSocket,
    /// Evicted from a full ARP resolution queue by a newer packet.
    ArpQueue,
    /// The shared medium's loss model ate the frame.
    MediumLoss,
    /// The receiving interface left the LAN while the frame was in flight.
    LeftLan,
    /// Larger than the device MTU (counted by `link`'s device counters).
    TxMtu,
    /// Discarded by a fault-injection plan (counted by `link`'s plan).
    FaultDrop,
}

impl DropReason {
    /// Every reason, for tests and tables.
    pub const ALL: [DropReason; 14] = [
        DropReason::NoRoute,
        DropReason::Ttl,
        DropReason::FilterIngress,
        DropReason::ArpFailure,
        DropReason::IfaceDown,
        DropReason::NotLocal,
        DropReason::Malformed,
        DropReason::Unclaimed,
        DropReason::NoSocket,
        DropReason::ArpQueue,
        DropReason::MediumLoss,
        DropReason::LeftLan,
        DropReason::TxMtu,
        DropReason::FaultDrop,
    ];

    /// The stable code hops and metric names carry.
    pub const fn code(self) -> &'static str {
        match self {
            DropReason::NoRoute => "drop.no_route",
            DropReason::Ttl => "drop.ttl",
            DropReason::FilterIngress => "drop.filter.ingress",
            DropReason::ArpFailure => "drop.arp_failure",
            DropReason::IfaceDown => "drop.iface_down",
            DropReason::NotLocal => "drop.not_local",
            DropReason::Malformed => "drop.malformed",
            DropReason::Unclaimed => "drop.unclaimed",
            DropReason::NoSocket => "drop.no_socket",
            DropReason::ArpQueue => "drop.arp_queue",
            DropReason::MediumLoss => "drop.medium_loss",
            DropReason::LeftLan => "drop.left_lan",
            DropReason::TxMtu => "drop.tx_mtu",
            DropReason::FaultDrop => "fault.drop",
        }
    }

    /// The `{host}/ip` cell that counts this reason; `None` for the
    /// reasons that live on hops only.
    pub(crate) fn counter(self, stats: &HostStats) -> Option<&Counter> {
        match self {
            DropReason::NoRoute => Some(&stats.dropped_no_route),
            DropReason::Ttl => Some(&stats.dropped_ttl),
            DropReason::FilterIngress => Some(&stats.dropped_filter),
            DropReason::ArpFailure => Some(&stats.dropped_arp_failure),
            DropReason::IfaceDown => Some(&stats.dropped_iface_down),
            DropReason::NotLocal => Some(&stats.dropped_not_local),
            DropReason::Malformed => Some(&stats.dropped_malformed),
            DropReason::Unclaimed => Some(&stats.unclaimed),
            DropReason::NoSocket
            | DropReason::ArpQueue
            | DropReason::MediumLoss
            | DropReason::LeftLan
            | DropReason::TxMtu
            | DropReason::FaultDrop => None,
        }
    }
}

/// What happened at one site.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// The packet left its origin (hop).
    Sent,
    /// A router passed it on (`forwarded` counter, hop).
    Forwarded,
    /// It was wrapped in an IP-in-IP outer header (`encap` counter, hop).
    Encap,
    /// An outer header was removed (`decap` counter, hop).
    Decap,
    /// A local transport or module accepted it (hop).
    Delivered,
    /// The IP layer of this host lost it: the reason's counter, if it has
    /// one, and a `Dropped` hop.
    Drop(DropReason),
    /// It died on the wire or at the receiving device, before this host's
    /// IP layer saw it: as [`Event::Drop`], but `{host}/ip` counts nothing
    /// (`link`'s device and fault-plan counters keep that tally).
    WireDrop(DropReason),
}

/// Reports `event` for `flight` at `host`: bumps the paired counter and
/// records the hop at `point`. That is all a packet pays for its fate.
#[inline]
pub(crate) fn emit(sim: &mut NetSim, host: HostId, flight: u64, point: &'static str, event: Event) {
    // Looked up only by the events that count something.
    let stats = || &sim.world().hosts[host.0].core.stats;
    let (counter, action) = match event {
        Event::Sent => (None, Hop::Sent),
        Event::Forwarded => (Some(&stats().forwarded), Hop::Forwarded),
        Event::Encap => (Some(&stats().encapsulated), Hop::Encap),
        Event::Decap => (Some(&stats().decapsulated), Hop::Decap),
        Event::Delivered => (None, Hop::Delivered),
        Event::Drop(r) => (r.counter(stats()), Hop::Dropped(r.code())),
        Event::WireDrop(r) => (None, Hop::Dropped(r.code())),
    };
    if let Some(cell) = counter {
        cell.inc();
    }
    sim.record_hop(flight, host.0 as u32, point, action);
}

/// Appends a note for `host` to the flight recorder (no-op when it is
/// off): a control-plane line that belongs to no packet (crash and
/// restart, device up and down, module traces).
pub(crate) fn note(sim: &mut NetSim, host: HostId, kind: TraceKind, line: Line) {
    let now = sim.now();
    sim.flights_mut().note(now, host.0 as u32, kind, line);
}

/// The flight recorder's notes, oldest first, one line each:
/// `{at:>12} {kind:?} [{host}] {line}`, the host and its devices named
/// from the world.
pub fn render_notes(sim: &NetSim) -> String {
    let mut out = String::new();
    for note in sim.flights().notes() {
        let core = &sim.world().hosts[note.host as usize].core;
        let devices: Vec<&str> = core.ifaces.iter().map(|i| i.device.name()).collect();
        let _ = write!(
            out,
            "{:>12} {:?} [{}] ",
            note.at.to_string(),
            note.kind,
            core.name
        );
        let _ = note.line.write_named(&mut out, &devices);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_sim::MetricsRegistry;
    use std::collections::HashSet;

    #[test]
    fn codes_are_unique_and_name_their_counters() {
        let stats = HostStats::default();
        let registry = MetricsRegistry::new();
        stats.register_into(&registry.scope("ip"));
        let mut seen = HashSet::new();
        for reason in DropReason::ALL {
            let code = reason.code();
            assert!(seen.insert(code), "{code} appears twice");
            assert!(
                code.starts_with("drop.") || code.starts_with("fault."),
                "{code}"
            );
            // The one counter older than its code (docs/telemetry.md).
            let name = match reason {
                DropReason::Unclaimed => "unclaimed",
                _ => code,
            };
            match reason.counter(&stats) {
                Some(cell) => {
                    cell.inc();
                    assert_eq!(registry.snapshot().counter(&format!("ip/{name}")), 1);
                }
                None => assert!(registry.snapshot().get(&format!("ip/{code}")).is_none()),
            }
        }
    }
}
