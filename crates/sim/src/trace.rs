//! Structured event tracing for experiments.
//!
//! Experiments in the paper count packets — how many echoes a correspondent
//! host got back, when the registration reply arrived — so the trace is a
//! flat, queryable log of `(time, kind, detail)` entries that workload code
//! appends to and the harness filters afterwards.
//!
//! Recording renders nothing: an entry is a fixed-size value — the time,
//! the kind, a shared handle on the recorder's name, and a [`Detail`] that
//! on the packet and registration paths is a [`Line`], a static template
//! with its arguments still as numbers. Text exists only once a reader
//! asks ([`Trace::find`], [`Trace::render`], `detail.to_string()`).

use std::fmt;
use std::net::Ipv4Addr;
use std::rc::Rc;

use crate::metrics::SnapshotDelta;
use crate::time::{SimDuration, SimTime};

/// Category of a trace entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TraceKind {
    /// A packet was handed to a link for transmission.
    PacketSent,
    /// A packet was delivered to an application.
    PacketDelivered,
    /// A packet was dropped, with the reason in the detail string.
    PacketDropped,
    /// A mobility protocol action (registration, binding change, hand-off).
    Mobility,
    /// A device state change (up, down, bring-up complete).
    Device,
    /// Free-form experiment marker emitted by harness code.
    Marker,
    /// A frame summary recorded by an interface in capture mode.
    Capture,
    /// A metrics-delta report recorded by the harness (typically at
    /// experiment end), so text traces and JSON exports can't drift apart.
    Telemetry,
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
}

/// A trace line that has not been rendered: a template whose `{}` are
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
    pub const fn new(template: &'static str) -> Line {
        let (vals, kinds) = ([0; 4], [ArgKind::Unused; 4]);
        Line {
            template,
            vals,
            kinds,
        }
    }

    fn push(mut self, kind: ArgKind, val: u64) -> Line {
        let slot = self.kinds.iter().position(|k| *k == ArgKind::Unused);
        let slot = slot.expect("a trace line takes at most four arguments");
        (self.kinds[slot], self.vals[slot]) = (kind, val);
        self
    }

    /// The next `{}` is an address.
    pub fn addr(self, addr: Ipv4Addr) -> Line {
        self.push(ArgKind::Addr, u32::from(addr).into())
    }

    /// The next `{}` is a decimal number.
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
}

impl From<&'static str> for Line {
    fn from(template: &'static str) -> Line {
        Line::new(template)
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pieces = self.template.split("{}");
        f.write_str(pieces.next().unwrap_or(""))?;
        for ((kind, v), piece) in self.kinds.iter().zip(self.vals).zip(pieces) {
            match kind {
                ArgKind::Addr => Ipv4Addr::from(v as u32).fmt(f)?,
                ArgKind::Num => v.fmt(f)?,
                ArgKind::Hex => write!(f, "{v:#x}")?,
                ArgKind::Mac => {
                    let [_, _, a, b, c, d, e, g] = v.to_be_bytes();
                    write!(f, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")?
                }
                ArgKind::Span => SimDuration::from_nanos(v).fmt(f)?,
                ArgKind::Unused => debug_assert!(false, "{self:?} has a `{{}}` too many"),
            }
            f.write_str(piece)?;
        }
        Ok(())
    }
}

/// What a [`TraceEntry`] says: text that was already built (cold lines,
/// harness markers, telemetry reports) or a [`Line`] rendered on display.
#[derive(Clone, Debug)]
pub enum Detail {
    /// Finished text.
    Text(String),
    /// A typed line.
    Line(Line),
}

impl Detail {
    /// True when the displayed detail contains `needle` (renders it).
    pub fn contains(&self, needle: &str) -> bool {
        self.to_string().contains(needle)
    }
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Text(text) => f.write_str(text),
            Detail::Line(line) => line.fmt(f),
        }
    }
}

impl From<String> for Detail {
    fn from(text: String) -> Detail {
        Detail::Text(text)
    }
}

impl From<&str> for Detail {
    fn from(text: &str) -> Detail {
        Detail::Text(text.to_string())
    }
}

impl From<Line> for Detail {
    fn from(line: Line) -> Detail {
        Detail::Line(line)
    }
}

/// One trace record.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// When the event happened.
    pub at: SimTime,
    /// Category for filtering.
    pub kind: TraceKind,
    /// Short identifier of the entity (host name, device name); a host
    /// hands every entry of its own the same shared handle.
    pub who: Rc<str>,
    /// Human-readable detail, stable enough for tests to match on once
    /// displayed.
    pub detail: Detail,
}

/// An append-only log of [`TraceEntry`] records.
#[derive(Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    enabled: bool,
}

impl Trace {
    /// Creates an empty, enabled trace.
    pub fn new() -> Self {
        Trace {
            entries: Vec::new(),
            enabled: true,
        }
    }

    /// Enables or disables recording (long benches disable it).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an entry (no-op when disabled). A [`Line`] detail and a
    /// shared `who` make this one `Vec` push.
    pub fn record(
        &mut self,
        at: SimTime,
        kind: TraceKind,
        who: impl Into<Rc<str>>,
        detail: impl Into<Detail>,
    ) {
        if self.enabled {
            self.entries.push(TraceEntry {
                at,
                kind,
                who: who.into(),
                detail: detail.into(),
            });
        }
    }

    /// All entries in arrival order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Count of entries of one kind.
    pub fn count_kind(&self, kind: TraceKind) -> usize {
        self.of_kind(kind).count()
    }

    /// Records a [`TraceKind::Telemetry`] entry embedding the counter
    /// movements of `delta`, one metric per line ([`Trace::render`]
    /// indents them under the entry). No-op when the delta is empty or
    /// the trace is disabled.
    pub fn record_telemetry(
        &mut self,
        at: SimTime,
        who: impl Into<Rc<str>>,
        delta: &SnapshotDelta,
    ) {
        if delta.is_empty() || !self.enabled {
            return;
        }
        let rendered = delta.render();
        self.record(at, TraceKind::Telemetry, who, rendered.trim_end());
    }

    /// First entry whose displayed detail contains `needle`, if any;
    /// renders every typed line on the way there.
    pub fn find(&self, needle: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.detail.contains(needle))
    }

    /// Clears the log, keeping the enabled flag.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Renders entries as one line each, for debugging failed experiments.
    /// Multi-line details (telemetry deltas) continue on indented lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let detail = e.detail.to_string();
            let mut lines = detail.lines();
            let first = lines.next().unwrap_or("");
            out.push_str(&format!(
                "{:>12} {:?} [{}] {}\n",
                e.at.to_string(),
                e.kind,
                e.who,
                first
            ));
            for line in lines {
                out.push_str(&format!("{:>12}   | {}\n", "", line));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn records_and_filters_by_kind() {
        let mut tr = Trace::new();
        tr.record(
            t(1),
            TraceKind::PacketSent,
            "mh",
            "udp 36.135.0.9 -> 36.8.0.7",
        );
        tr.record(t(2), TraceKind::PacketDropped, "router", "ingress filter");
        tr.record(t(3), TraceKind::PacketSent, "ch", "echo reply");
        assert_eq!(tr.count_kind(TraceKind::PacketSent), 2);
        assert_eq!(tr.count_kind(TraceKind::PacketDropped), 1);
        assert_eq!(tr.count_kind(TraceKind::Mobility), 0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new();
        tr.set_enabled(false);
        tr.record(t(0), TraceKind::Marker, "x", "ignored");
        assert!(tr.entries().is_empty());
        tr.set_enabled(true);
        tr.record(t(0), TraceKind::Marker, "x", "kept");
        assert_eq!(tr.entries().len(), 1);
    }

    #[test]
    fn find_matches_detail_substring() {
        let mut tr = Trace::new();
        tr.record(
            t(5),
            TraceKind::Mobility,
            "ha",
            "registration accepted coa=36.8.0.42",
        );
        assert!(tr.find("coa=36.8.0.42").is_some());
        assert!(tr.find("rejected").is_none());
    }

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
        for (line, text) in table {
            assert_eq!(line.to_string(), text);
            assert!(Detail::from(line).contains(text));
        }
    }

    #[test]
    fn clear_resets_entries() {
        let mut tr = Trace::new();
        tr.record(t(1), TraceKind::Marker, "x", "a");
        tr.clear();
        assert!(tr.entries().is_empty());
        assert!(tr.is_enabled());
    }

    #[test]
    fn render_is_line_per_entry() {
        let mut tr = Trace::new();
        tr.record(t(1), TraceKind::Marker, "a", "one");
        tr.record(t(2), TraceKind::Marker, "b", "two");
        let s = tr.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("[a] one"));
    }

    #[test]
    fn telemetry_entries_embed_counter_deltas() {
        use crate::metrics::MetricsRegistry;
        let r = MetricsRegistry::new();
        let tx = r.counter("mh/ip/tx");
        let drop = r.counter("mh/ip/drop.no_route");
        let before = r.snapshot();
        tx.add(7);
        drop.inc();
        let delta = r.snapshot().diff(&before);

        let mut tr = Trace::new();
        tr.record_telemetry(t(9), "harness", &delta);
        assert_eq!(tr.count_kind(TraceKind::Telemetry), 1);
        let s = tr.render();
        assert!(s.contains("mh/ip/tx"), "{s}");
        assert!(s.contains("0 -> 7 (+7)"), "{s}");
        // The second metric continues on an indented line.
        assert!(
            s.contains("| mh/ip/tx") || s.contains("| mh/ip/drop.no_route"),
            "{s}"
        );
    }

    #[test]
    fn empty_delta_records_nothing() {
        use crate::metrics::MetricsRegistry;
        let r = MetricsRegistry::new();
        r.counter("x");
        let before = r.snapshot();
        let delta = r.snapshot().diff(&before);
        let mut tr = Trace::new();
        tr.record_telemetry(t(1), "harness", &delta);
        assert!(tr.entries().is_empty());
    }
}
