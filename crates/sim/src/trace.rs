//! The control plane's log lines: what happens to hosts and protocols
//! (registrations, hand-offs, devices going up and down, crashes), kept
//! as notes by the flight recorder
//! ([`FlightRecorder::note`](crate::FlightRecorder::note)). A packet's
//! fate is a counter and a hop, never a line.
//!
//! Recording renders nothing: a [`Line`] is a static template with its
//! arguments still as numbers, and an interface argument is named only by
//! the reader that knows the devices ([`Line::write_named`]).

use std::fmt;
use std::net::Ipv4Addr;

use crate::time::{SimDuration, SimTime};

/// Category of a note.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceKind {
    /// A packet event; only `benchmark/`'s frozen [`Trace`] probe names it.
    PacketSent,
    /// A mobility protocol action (registration, binding change, hand-off).
    Mobility,
    /// A device state change (up, down, bring-up complete).
    Device,
    /// Free-form experiment marker emitted by harness code.
    Marker,
}

/// How one argument of a [`Line`] is displayed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ArgKind {
    Unused,
    Addr,
    Num,
    Hex,
    Mac,
    Span,
    Iface,
}

/// A log line that has not been rendered: a template whose `{}` are
/// filled, in order, by up to four arguments when the line is displayed.
/// Building one stores a few words and touches no heap. Arguments are
/// numbers (a `u64` and a byte saying how it displays); a word that varies
/// — a drop code, the name of an enum variant — is chosen with the template.
#[derive(Clone, Copy, Debug)]
pub struct Line {
    template: &'static str,
    vals: [u64; 4],
    kinds: [ArgKind; 4],
}

impl Line {
    /// A line over `template`, with no arguments yet.
    #[inline]
    pub const fn new(template: &'static str) -> Line {
        let (vals, kinds) = ([0; 4], [ArgKind::Unused; 4]);
        Line {
            template,
            vals,
            kinds,
        }
    }

    #[inline]
    fn push(mut self, kind: ArgKind, val: u64) -> Line {
        let slot = self.kinds.iter().position(|k| *k == ArgKind::Unused);
        let slot = slot.expect("a trace line takes at most four arguments");
        (self.kinds[slot], self.vals[slot]) = (kind, val);
        self
    }

    /// The next `{}` is an address.
    #[inline]
    pub fn addr(self, addr: Ipv4Addr) -> Line {
        self.push(ArgKind::Addr, u32::from(addr).into())
    }

    /// The next `{}` is a decimal number.
    #[inline]
    pub fn num(self, n: u64) -> Line {
        self.push(ArgKind::Num, n)
    }

    /// The next `{}` is a number shown as `{:#x}`.
    pub fn hex(self, n: u64) -> Line {
        self.push(ArgKind::Hex, n)
    }

    /// The next `{}` is a MAC address, `aa:bb:cc:dd:ee:ff`.
    pub fn mac(self, [a, b, c, d, e, f]: [u8; 6]) -> Line {
        self.push(ArgKind::Mac, u64::from_be_bytes([0, 0, a, b, c, d, e, f]))
    }

    /// The next `{}` is a duration.
    pub fn span(self, d: SimDuration) -> Line {
        self.push(ArgKind::Span, d.as_nanos())
    }

    /// The next `{}` is an interface, by index: a reader that knows the
    /// host's devices names it ([`Line::write_named`]); displayed without
    /// names it is `IfaceId(n)`.
    #[inline]
    pub fn iface(self, index: usize) -> Line {
        self.push(ArgKind::Iface, index as u64)
    }

    /// Writes the line with interface `i` named `ifaces[i]` (`IfaceId(i)`
    /// past the end).
    pub fn write_named(&self, out: &mut impl fmt::Write, ifaces: &[&str]) -> fmt::Result {
        let mut pieces = self.template.split("{}");
        out.write_str(pieces.next().unwrap_or(""))?;
        for ((kind, v), piece) in self.kinds.iter().zip(self.vals).zip(pieces) {
            match kind {
                ArgKind::Addr => write!(out, "{}", Ipv4Addr::from(v as u32))?,
                ArgKind::Num => write!(out, "{v}")?,
                ArgKind::Hex => write!(out, "{v:#x}")?,
                ArgKind::Mac => {
                    let [_, _, a, b, c, d, e, g] = v.to_be_bytes();
                    write!(out, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")?
                }
                ArgKind::Span => write!(out, "{}", SimDuration::from_nanos(v))?,
                ArgKind::Iface => match ifaces.get(v as usize) {
                    Some(name) => out.write_str(name)?,
                    None => write!(out, "IfaceId({v})")?,
                },
                ArgKind::Unused => debug_assert!(false, "{self:?} has a `{{}}` too many"),
            }
            out.write_str(piece)?;
        }
        Ok(())
    }
}

impl From<&'static str> for Line {
    fn from(template: &'static str) -> Line {
        Line::new(template)
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_named(f, &[])
    }
}

/// The string log `benchmark/` still names, frozen until it moves to the
/// flight recorder's notes: nothing in the workspace writes it, and
/// [`Sim::trace`](crate::Sim::trace) hands out an empty one.
#[derive(Debug, Default)]
pub struct Trace(Vec<(SimTime, TraceKind, String, String)>);

impl Trace {
    /// Creates an empty log.
    pub const fn new() -> Self {
        Trace(Vec::new())
    }

    /// Appends `(at, kind, who, detail)`.
    pub fn record(&mut self, at: SimTime, kind: TraceKind, who: &str, detail: String) {
        self.0.push((at, kind, who.to_string(), detail));
    }

    /// All entries in arrival order.
    pub fn entries(&self) -> &[(SimTime, TraceKind, String, String)] {
        &self.0
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shape a typed line takes, against the text the `format!` it
    /// replaced produced (strings copied from that code and from
    /// `drop_heavy.trace.txt`, not regenerated).
    #[test]
    fn typed_lines_render_as_the_format_strings_they_replaced() {
        let a = |d: u8| Ipv4Addr::new(36, 8, 0, d);
        let decap = Line::new("decapsulated {} -> {} (outer from {})");
        let unresolved = Line::new("drop.arp_failure: {} unresolved, {} packet(s)");
        let offer = Line::new("dhcp offer {} to {} (xid {})");
        let restart =
            Line::new("ha restart: epoch {}, journal replayed ({} binds, {} unbinds, {} expiries)");
        let igmp = Line::new("IGMP MembershipReport { group: {} } from {}");
        let done = Line::new("handoff complete in {}");
        let table = [
            (Line::from("returning home"), "returning home"),
            (
                decap.addr(a(9)).addr(a(7)).addr(a(42)),
                "decapsulated 36.8.0.9 -> 36.8.0.7 (outer from 36.8.0.42)",
            ),
            (
                unresolved.addr(a(1)).num(3),
                "drop.arp_failure: 36.8.0.1 unresolved, 3 packet(s)",
            ),
            (
                offer
                    .addr(a(50))
                    .mac([2, 0, 0, 0, 0xab, 7])
                    .hex(0x1f2e_3d4c),
                "dhcp offer 36.8.0.50 to 02:00:00:00:ab:07 (xid 0x1f2e3d4c)",
            ),
            (
                restart.num(3).num(5).num(0).num(u64::MAX),
                "ha restart: epoch 3, journal replayed \
                 (5 binds, 0 unbinds, 18446744073709551615 expiries)",
            ),
            (
                igmp.addr(a(3)).addr(a(7)),
                "IGMP MembershipReport { group: 36.8.0.3 } from 36.8.0.7",
            ),
            (
                done.span(SimDuration::from_nanos(460_669_600)),
                "handoff complete in 460669600ns",
            ),
            (
                done.span(SimDuration::from_micros(7_390)),
                "handoff complete in 7390us",
            ),
        ];
        let named = |line: Line, ifaces: &[&str]| {
            let mut out = String::new();
            line.write_named(&mut out, ifaces)
                .expect("a String takes any text");
            out
        };
        for (line, text) in table {
            assert_eq!(line.to_string(), text);
            assert_eq!(named(line, &["eth0"]), text, "no interface to name");
        }
        // An interface is named by the reader that knows the devices.
        let up = Line::new("{} up").iface(1);
        assert_eq!(named(up, &["eth0", "strip0"]), "strip0 up");
        assert_eq!(up.to_string(), "IfaceId(1) up");
        assert_eq!(named(up, &["eth0"]), "IfaceId(1) up");
    }
}
