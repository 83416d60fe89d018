//! One way to report a packet's fate.
//!
//! What happens to a packet at a site is visible on up to three channels:
//! a [`HostStats`] counter, a flight-recorder hop and a trace line. This
//! module owns the decision which [`Event`] moves which of them, and
//! [`DropReason::code`] is where a `drop.*` code comes from, so a site in
//! [`crate::ip`] or [`crate::world`] names the event once and the counter
//! and the hop cannot disagree; the template of its trace line spells the
//! code it leads with. `docs/telemetry.md` documents the codes.

use std::rc::Rc;

use mosquitonet_sim::{Counter, Detail, HopAction as Hop, Line, TraceKind};

use crate::host::{HostId, HostStats};
use crate::world::{NetSim, Network};

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

    /// The stable code hops, trace lines and metric names carry.
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

    /// The `{host}/ip` metric name and cell that count this reason; `None`
    /// for the reasons that live on hops and trace lines only.
    pub(crate) fn counter(self, stats: &HostStats) -> Option<(&'static str, &Counter)> {
        let cell = match self {
            DropReason::NoRoute => &stats.dropped_no_route,
            DropReason::Ttl => &stats.dropped_ttl,
            DropReason::FilterIngress => &stats.dropped_filter,
            DropReason::ArpFailure => &stats.dropped_arp_failure,
            DropReason::IfaceDown => &stats.dropped_iface_down,
            DropReason::NotLocal => &stats.dropped_not_local,
            DropReason::Malformed => &stats.dropped_malformed,
            // The counter predates the code and keeps its registry name.
            DropReason::Unclaimed => return Some(("unclaimed", &stats.unclaimed)),
            DropReason::NoSocket
            | DropReason::ArpQueue
            | DropReason::MediumLoss
            | DropReason::LeftLan
            | DropReason::TxMtu
            | DropReason::FaultDrop => return None,
        };
        Some((self.code(), cell))
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
    /// one, a `Dropped` hop, and a trace line that leads with the code.
    Drop(DropReason),
    /// It died on the wire or at the receiving device, before this host's
    /// IP layer saw it: as [`Event::Drop`], but `{host}/ip` counts nothing
    /// (`link`'s device and fault-plan counters keep that tally).
    WireDrop(DropReason),
}

/// The `line` of a site that has no trace line.
pub(crate) const SILENT: Option<Line> = None;

/// Reports `event` for `flight` at `host`: bumps the paired counter,
/// records the hop at `point`, and — for a site that passes a `line` —
/// appends it to the trace. The line is a typed value nobody renders
/// here, so a packet pays for the counter, the hop and one `Vec` push (a
/// branch, with the trace off). The template of a drop's line leads with
/// the code of its reason (`drop_heavy.trace.txt` holds every one).
#[inline]
pub(crate) fn emit(
    sim: &mut NetSim,
    host: HostId,
    flight: u64,
    point: &'static str,
    event: Event,
    line: Option<Line>,
) {
    use TraceKind::{Mobility, PacketDelivered, PacketDropped, PacketSent};
    // Looked up only by the events that count something.
    let stats = || &sim.world().hosts[host.0].core.stats;
    let (counter, action, kind) = match event {
        Event::Sent => (None, Hop::Sent, PacketSent),
        Event::Forwarded => (Some(&stats().forwarded), Hop::Forwarded, PacketSent),
        Event::Encap => (Some(&stats().encapsulated), Hop::Encap, Mobility),
        Event::Decap => (Some(&stats().decapsulated), Hop::Decap, Mobility),
        Event::Delivered => (None, Hop::Delivered, PacketDelivered),
        Event::Drop(r) => (
            r.counter(stats()).map(|c| c.1),
            Hop::Dropped(r.code()),
            PacketDropped,
        ),
        Event::WireDrop(r) => (None, Hop::Dropped(r.code()), PacketDropped),
    };
    if let Some(cell) = counter {
        cell.inc();
    }
    sim.record_hop(flight, host.0 as u32, point, action);
    if let Some(line) = line {
        note(sim, host, kind, line);
    }
}

/// Appends a host-scoped trace entry (no-op when the trace is off): the
/// line of an [`emit`], or one that belongs to no packet (crash and
/// restart, module traces).
pub(crate) fn note(sim: &mut NetSim, host: HostId, kind: TraceKind, detail: impl Into<Detail>) {
    if sim.trace().is_enabled() {
        let (who, now) = (Rc::clone(&sim.world().hosts[host.0].core.who), sim.now());
        sim.trace_mut().record(now, kind, who, detail);
    }
}

/// [`note`] for the cold lines that need a name from the world (a device,
/// a LAN, a capture summary): the text is built only while the trace is
/// enabled.
pub(crate) fn note_text(
    sim: &mut NetSim,
    host: HostId,
    kind: TraceKind,
    text: impl FnOnce(&Network) -> String,
) {
    if sim.trace().is_enabled() {
        let text = text(sim.world());
        note(sim, host, kind, text);
    }
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
                Some((registered, cell)) => {
                    assert_eq!(registered, name);
                    cell.inc();
                    assert_eq!(registry.snapshot().counter(&format!("ip/{name}")), 1);
                }
                None => assert!(registry.snapshot().get(&format!("ip/{code}")).is_none()),
            }
        }
    }
}
