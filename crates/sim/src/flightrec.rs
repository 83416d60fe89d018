//! The packet flight recorder: per-packet journey tracking.
//!
//! Aggregate counters (the metrics registry) say *how many* packets a
//! crash window cost; the flight recorder says *which* packets, *where*
//! they died, and how long each hop took. Every packet leaving an origin
//! host is stamped with a compact **flight id** — carried in packet-buffer
//! metadata, never serialized onto the wire, so golden byte-for-byte
//! exports are unaffected — and every subsystem the packet crosses appends
//! a hop to a fixed-capacity ring buffer — 24 packed bytes; [`HopEvent`] is
//! the view a reader gets.
//!
//! From the ring the recorder reconstructs full [`Journey`]s
//! (correspondent → home agent → tunnel → mobile host and back), computes
//! end-to-end and per-hop one-way-delay statistics, and emits *drop
//! forensics*: for every `drop.{reason}` casualty, the last-known hop
//! chain of the victim packet.
//!
//! A second, small ring keeps the control plane's log: [`Note`]s, each a
//! typed [`Line`] rendered only when read.
//!
//! Recording is off by default and costs one predicted branch per call
//! site when off (a unit test holds that the disabled
//! [`FlightRecorder::hop`] allocates and records nothing). Flight ids come
//! from a plain counter — never the engine RNG — so enabling the recorder
//! cannot perturb a seeded run.

use crate::json::Json;
use crate::rng::IdHashMap;
use crate::time::SimTime;
use crate::trace::{Line, TraceKind};

/// The "no flight" sentinel: hops recorded against it are discarded.
/// Control-plane frames (ARP) and pre-recorder packets carry this.
pub const NO_FLIGHT: u64 = 0;

/// Default ring capacity, in hop events: 1.5 MiB of packed hops. The
/// Figure-5 experiments record ~10⁴ hops and keep them all; the fleet
/// run at benchmark scale records ~35 000 per shard (568 818 in all), so
/// each shard's ring still holds its whole run.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Most distinct recording points, most distinct actions (five plain ones
/// and every drop reason met), and most distinct flight labels ("none" and
/// every label met) one recorder tells apart by one-byte ids; the stack
/// has ~10 points, ~25 reasons and ~6 labels. A name first met after its
/// table is full is recorded, and reads back, as [`INTERN_OVERFLOW`].
pub const INTERN_MAX: usize = 255;
/// The point, the drop reason or the label beyond [`INTERN_MAX`].
pub const INTERN_OVERFLOW: &str = "flightrec.intern_overflow";

/// The label id of a hop that carries no label: `None` opens every
/// recorder's label table.
const NO_LABEL: u8 = 0;

/// Notes the note ring keeps (18 KiB); older ones are counted by
/// [`FlightRecorder::notes_overwritten`].
pub const NOTE_CAPACITY: usize = 256;

/// Most captured frames kept; later ones are counted by
/// [`FlightRecorder::captures_dropped`].
const CAPTURE_MAX_FRAMES: usize = 4096;

/// Most dropped-flight chains exported into the journeys document.
const EXPORT_MAX_DROPS: usize = 100;

/// Rows in the exported `top_hops` table.
const EXPORT_TOP_HOPS: usize = 10;

/// Bit position of the shard id inside namespaced flight ids: shard `s`
/// allocates ids `(s << FLIGHT_SHARD_SHIFT) + 1, + 2, …`, so ids from
/// different shards can never collide and a sharded document lists shard
/// 0's flights first. Shard 0's ids are numerically identical to an
/// unsharded run's.
pub const FLIGHT_SHARD_SHIFT: u32 = 48;

/// What happened to a packet at one hop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HopAction {
    /// The packet left its origin host.
    Sent,
    /// A router moved it one hop closer.
    Forwarded,
    /// It was wrapped in an IP-in-IP outer header.
    Encap,
    /// An outer header was removed.
    Decap,
    /// A local transport accepted it.
    Delivered,
    /// It died, with the stable `drop.{reason}` code.
    Dropped(&'static str),
}

impl HopAction {
    /// The action's stable lower-case name (`"dropped"` loses the reason;
    /// see [`HopAction::reason`]).
    pub fn name(self) -> &'static str {
        match self {
            HopAction::Sent => "sent",
            HopAction::Forwarded => "forwarded",
            HopAction::Encap => "encap",
            HopAction::Decap => "decap",
            HopAction::Delivered => "delivered",
            HopAction::Dropped(_) => "dropped",
        }
    }

    /// The drop reason, when this is a drop.
    pub fn reason(self) -> Option<&'static str> {
        match self {
            HopAction::Dropped(r) => Some(r),
            _ => None,
        }
    }
}

/// One hop as the ring and a [`FlightDump`] hold it: 24 bytes.
/// Its `seq` is its position (derived on read); `point`, `action` and
/// `label` are ids into the [`Names`] of whoever holds the record. Only a
/// flight's first hop carries its label.
#[derive(Clone, Copy, Debug)]
struct PackedHop {
    flight: u64,
    at: SimTime,
    host: u32,
    point: u8,
    action: u8,
    label: u8,
}

/// What a holder's packed hops name by id: recording points, actions (a
/// drop with its reason is one action) and flight labels. A recorder's
/// actions start with the five that carry no reason, so one a full table
/// turns away is always a drop; its labels start with `None` ([`NO_LABEL`]).
#[derive(Clone, Debug, Default)]
struct Names {
    points: Vec<&'static str>,
    actions: Vec<HopAction>,
    labels: Vec<Option<&'static str>>,
}

/// The id of `name` in `table`, added if new — found by content, so equal
/// literals at two addresses are one name. `u8::MAX` once the table is full.
fn intern<T: Copy + PartialEq>(table: &mut Vec<T>, name: T) -> u8 {
    match table.iter().position(|&t| t == name) {
        Some(id) => id as u8,
        None if table.len() < INTERN_MAX => {
            table.push(name);
            (table.len() - 1) as u8
        }
        None => u8::MAX,
    }
}

/// What `id` names in `table`: `overflow`, if the full table turned it away.
fn named<T: Copy>(table: &[T], id: u8, overflow: T) -> T {
    table.get(id as usize).copied().unwrap_or(overflow)
}

impl Names {
    /// `hop` as a reader sees it: its ids named, `seq` its position's.
    fn view(&self, hop: &PackedHop, seq: u64) -> HopEvent {
        HopEvent {
            seq,
            flight: hop.flight,
            at: hop.at,
            host: hop.host,
            point: named(&self.points, hop.point, INTERN_OVERFLOW),
            action: self.action(hop.action),
        }
    }

    fn action(&self, id: u8) -> HopAction {
        named(&self.actions, id, HopAction::Dropped(INTERN_OVERFLOW))
    }

    fn label(&self, id: u8) -> Option<&'static str> {
        named(&self.labels, id, Some(INTERN_OVERFLOW))
    }
}

/// One recorded hop of one flight, as read back from the packed ring.
#[derive(Clone, Copy, Debug)]
pub struct HopEvent {
    /// Global insertion sequence number (monotonic across the run).
    pub seq: u64,
    /// The flight this hop belongs to.
    pub flight: u64,
    /// Simulated time of the hop.
    pub at: SimTime,
    /// Host index (the world's host vector position).
    pub host: u32,
    /// Subsystem that recorded the hop (`"udp"`, `"ip.fwd"`, `"wire"`…).
    pub point: &'static str,
    /// What happened.
    pub action: HopAction,
}

/// A snapshot of one shard's recorder, produced by
/// [`FlightRecorder::dump`] when the shard finishes and read, beside the
/// other shards' dumps, by [`FlightDump::export`] after the run. It is the ring moved out, not copied: 24 bytes a hop, with the
/// shard's own name tables (shards meet names in different orders, so its
/// ids mean something only beside them). Rendering the document groups
/// the dumps' hops by flight in place: it adds 4 bytes a hop and 4 bytes
/// an id of the flight-id span, and copies no hop.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Stable shard id (same-instant tie-break in the document).
    pub shard: u32,
    /// Surviving hops in insertion order, host indices already offset
    /// into the run's host table, with the tables their ids index.
    hops: Vec<PackedHop>,
    names: Names,
    /// Hops this segment lost to ring wraparound.
    pub overwritten: u64,
}

/// One control-plane log line: 72 bytes, rendered only when read.
#[derive(Clone, Copy, Debug)]
pub struct Note {
    /// When it happened.
    pub at: SimTime,
    /// Host index (the world's host vector position).
    pub host: u32,
    /// Category.
    pub kind: TraceKind,
    /// What happened.
    pub line: Line,
}

/// A captured wire frame (pcap export feed).
#[derive(Clone, Debug)]
pub struct CapturedFrame {
    /// Arrival time at the capturing interface.
    pub at: SimTime,
    /// Capturing host index.
    pub host: u32,
    /// Raw frame bytes (header included).
    pub bytes: Vec<u8>,
}

/// One reconstructed journey: every surviving hop of one flight, in
/// recording order.
#[derive(Clone, Debug)]
pub struct Journey {
    /// The flight id.
    pub flight: u64,
    /// Origin label, when the sender tagged the flight (e.g. `"reg"`) and
    /// its first hop is still in the ring.
    pub label: Option<&'static str>,
    /// Hops in insertion order.
    pub hops: Vec<HopEvent>,
}

impl Journey {
    /// The journey's outcome: delivered anywhere wins, then dropped, then
    /// pending (still in flight when the run stopped, or hops lost to
    /// ring wraparound).
    pub fn outcome(&self) -> Outcome {
        self.hops
            .iter()
            .fold(Outcome::Pending, |o, h| o.then(h.action))
    }

    /// First recorded drop reason, if any.
    pub fn drop_reason(&self) -> Option<&'static str> {
        self.hops.iter().find_map(|h| h.action.reason())
    }
}

/// Journey outcome classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// A transport accepted the packet somewhere.
    Delivered,
    /// The packet died.
    Dropped,
    /// Neither: still in flight at run end, or evidence lost to
    /// wraparound.
    Pending,
}

impl Outcome {
    /// The outcome once one more hop is folded in: delivered anywhere wins
    /// (a tunnelled flight is decapsulated and delivered under one id),
    /// then dropped, then pending.
    fn then(self, action: HopAction) -> Outcome {
        match (self, action) {
            (Outcome::Delivered, _) | (_, HopAction::Delivered) => Outcome::Delivered,
            (_, HopAction::Dropped(_)) => Outcome::Dropped,
            (outcome, _) => outcome,
        }
    }
}

/// The blackout window reconstructed from one origin host's lost flights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blackout {
    /// Lost (dropped, never delivered) flights from the origin.
    pub lost: u64,
    /// Origin time of the first lost flight.
    pub first: SimTime,
    /// Origin time of the last lost flight.
    pub last: SimTime,
}

/// Integer summary of a sample set (all values exact, so exports stay
/// byte-stable across platforms).
#[derive(Clone, Copy, Debug, Default)]
pub struct DelaySummary {
    /// Samples seen.
    pub count: u64,
    /// Smallest sample, µs.
    pub min_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
    /// Sum of samples, µs.
    pub sum_us: u64,
}

impl DelaySummary {
    fn push(&mut self, us: u64) {
        if self.count == 0 {
            self.min_us = us;
            self.max_us = us;
        } else {
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }
        self.count += 1;
        self.sum_us += us;
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("min_us", Json::UInt(self.min_us)),
            ("max_us", Json::UInt(self.max_us)),
            ("sum_us", Json::UInt(self.sum_us)),
        ])
    }
}

/// The per-packet flight recorder: a bounded ring of packed hops plus
/// the flight-id allocator, a bounded ring of control-plane notes and a
/// bounded buffer of captured raw frames.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    enabled: bool,
    next_flight: u64,
    /// High bits OR-ed into every allocated flight id (zero outside
    /// sharded runs). See [`FlightRecorder::set_flight_namespace`].
    flight_base: u64,
    next_seq: u64,
    /// Ring storage; at most `capacity` entries, oldest overwritten first.
    ring: Vec<PackedHop>,
    /// What the ring's `point`, `action` and `label` ids name.
    names: Names,
    capacity: usize,
    /// Next ring slot to (over)write: the ring is two seq-sorted runs,
    /// `ring[head..]` (empty until it wraps) then `ring[..head]`.
    head: usize,
    /// Hop events lost to wraparound.
    overwritten: u64,
    /// The flight `begin_flight` minted last and its label's id, until
    /// that flight's next hop takes them.
    held: (u64, u8),
    /// Note ring: note `n` (from 0) lands in slot `n % NOTE_CAPACITY`.
    notes: Vec<Note>,
    notes_recorded: u64,
    /// Captured frames for pcap export (bounded).
    captures: Vec<CapturedFrame>,
    /// Frames not captured because the buffer was full.
    captures_dropped: u64,
}

impl FlightRecorder {
    /// Creates a disabled recorder with [`DEFAULT_RING_CAPACITY`].
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Creates a disabled recorder with an explicit ring capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero or 2³¹ or more (a document
    /// addresses a hop of either half of the ring in 32 bits).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight ring needs at least one slot");
        assert!(capacity < 1 << 31, "hop addresses are u32");
        use HopAction::{Decap, Delivered, Encap, Forwarded, Sent};
        let actions = vec![Sent, Forwarded, Encap, Decap, Delivered];
        let (points, labels) = (Vec::new(), vec![None]);
        FlightRecorder {
            capacity,
            names: Names {
                points,
                actions,
                labels,
            },
            ..FlightRecorder::default()
        }
    }

    /// Enables or disables recording. Flight ids allocated while enabled
    /// stay valid after a disable (their hops simply stop accumulating).
    /// Enabling reserves both rings and the name tables: recording moves none.
    pub fn set_enabled(&mut self, on: bool) {
        if on {
            self.ring.reserve_exact(self.capacity - self.ring.len());
            self.notes.reserve_exact(NOTE_CAPACITY - self.notes.len());
            let names = &mut self.names;
            names.points.reserve_exact(INTERN_MAX - names.points.len());
            names
                .actions
                .reserve_exact(INTERN_MAX - names.actions.len());
            names.labels.reserve_exact(INTERN_MAX - names.labels.len());
        }
        self.enabled = on;
    }

    /// True when recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Discards every recorded hop, the held label, every note and every
    /// captured frame. The enabled flag and the flight-id allocator are
    /// preserved, so ids stay unique across a clear.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.overwritten = 0;
        self.held = (NO_FLIGHT, NO_LABEL);
        self.notes.clear();
        self.notes_recorded = 0;
        self.captures.clear();
        self.captures_dropped = 0;
    }

    /// Partitions the flight-id space for a sharded run: ids allocated
    /// after this call are `(shard << FLIGHT_SHARD_SHIFT) + counter`, so
    /// per-shard recorders hand out globally unique ids without any
    /// coordination between shards. Shard 0 keeps the unsharded numbering.
    pub fn set_flight_namespace(&mut self, shard: u32) {
        self.flight_base = u64::from(shard) << FLIGHT_SHARD_SHIFT;
    }

    /// Allocates a flight id for a packet leaving its origin, optionally
    /// tagged with a static label. Returns [`NO_FLIGHT`] when disabled.
    ///
    /// The label is held for this flight's next hop — its Sent hop, which
    /// every sender records straight away — and lives exactly as long as
    /// that hop stays in the ring. Hops of other flights leave it held; the
    /// next `begin_flight` or a [`clear`](FlightRecorder::clear) drops it.
    #[inline]
    pub fn begin_flight(&mut self, label: Option<&'static str>) -> u64 {
        if !self.enabled {
            return NO_FLIGHT;
        }
        self.next_flight += 1;
        debug_assert!(self.next_flight < 1 << FLIGHT_SHARD_SHIFT);
        let id = self.flight_base + self.next_flight;
        self.held = (id, intern(&mut self.names.labels, label));
        id
    }

    /// Records one hop. A no-op when disabled or when `flight` is
    /// [`NO_FLIGHT`] — the disabled path is a single predicted branch; the
    /// benchmark's `sim.flightrec.hop_ns_on` probe times the enabled one.
    #[inline]
    pub fn hop(
        &mut self,
        flight: u64,
        at: SimTime,
        host: u32,
        point: &'static str,
        action: HopAction,
    ) {
        if !self.enabled || flight == NO_FLIGHT {
            return;
        }
        self.hop_slow(flight, at, host, point, action);
    }

    fn hop_slow(
        &mut self,
        flight: u64,
        at: SimTime,
        host: u32,
        point: &'static str,
        action: HopAction,
    ) {
        let label = if self.held.0 == flight {
            std::mem::replace(&mut self.held, (NO_FLIGHT, NO_LABEL)).1
        } else {
            NO_LABEL
        };
        let ev = PackedHop {
            flight,
            at,
            host,
            point: intern(&mut self.names.points, point),
            action: intern(&mut self.names.actions, action),
            label,
        };
        self.next_seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.overwritten += 1;
        }
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
    }

    /// Records one control-plane line `host` logged (no-op when
    /// disabled). Past [`NOTE_CAPACITY`] it overwrites the oldest.
    #[inline]
    pub fn note(&mut self, at: SimTime, host: u32, kind: TraceKind, line: Line) {
        if !self.enabled {
            return;
        }
        let slot = (self.notes_recorded % NOTE_CAPACITY as u64) as usize;
        self.notes_recorded += 1;
        let note = Note {
            at,
            host,
            kind,
            line,
        };
        match self.notes.get_mut(slot) {
            Some(old) => *old = note,
            None => self.notes.push(note),
        }
    }

    /// The surviving notes, oldest first.
    pub fn notes(&self) -> impl Iterator<Item = &Note> {
        let head = (self.notes_recorded % NOTE_CAPACITY as u64) as usize;
        let (newer, older) = self.notes.split_at(head);
        older.iter().chain(newer)
    }

    /// Notes lost to ring wraparound.
    pub fn notes_overwritten(&self) -> u64 {
        self.notes_recorded - self.notes.len() as u64
    }

    /// Stores one raw wire frame a capturing host received (no-op when
    /// disabled). Bounded: past 4 096 frames one is only counted, by
    /// [`FlightRecorder::captures_dropped`].
    pub fn capture_frame(&mut self, at: SimTime, host: u32, bytes: &[u8]) {
        if !self.enabled {
            return;
        }
        if self.captures.len() >= CAPTURE_MAX_FRAMES {
            self.captures_dropped += 1;
            return;
        }
        self.captures.push(CapturedFrame {
            at,
            host,
            bytes: bytes.to_vec(),
        });
    }

    /// Captured frames, in arrival order.
    pub fn captures(&self) -> &[CapturedFrame] {
        &self.captures
    }

    /// Frames not captured because the buffer was full.
    pub fn captures_dropped(&self) -> u64 {
        self.captures_dropped
    }

    /// Hop events recorded and still in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no hops are recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Hop events lost to ring wraparound.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Every surviving hop in insertion (seq) order.
    pub fn hops_in_order(&self) -> Vec<HopEvent> {
        let (newer, older) = self.ring.split_at(self.head);
        let seqs = self.next_seq - self.ring.len() as u64..;
        let hops = older.iter().chain(newer).zip(seqs);
        hops.map(|(hop, seq)| self.names.view(hop, seq)).collect()
    }

    /// The ring's hops grouped by flight, each flight's in recording order.
    fn grouped(&self) -> Grouped<'_> {
        let (newer, older) = self.ring.split_at(self.head);
        let names = &self.names;
        let run = |hops, seq| Run { hops, names, seq };
        let seq = self.next_seq - self.ring.len() as u64;
        let (older, newer) = (run(older, seq), run(newer, seq + older.len() as u64));
        Grouped::new(vec![older, newer], false)
    }

    /// Reconstructs every journey with surviving hops, ordered by flight
    /// id; hops within a journey are in recording order, so they can
    /// never be out of order or leak across flights.
    pub fn journeys(&self) -> Vec<Journey> {
        let grouped = self.grouped();
        let journeys = grouped.journeys().map(|journey| {
            let hops: Vec<HopEvent> = journey.iter().map(|&a| grouped.view(a)).collect();
            Journey {
                flight: hops[0].flight,
                label: grouped.label(journey),
                hops,
            }
        });
        journeys.collect()
    }

    /// The blackout window of `origin_host`: its lost (dropped, never
    /// delivered) flights and the origin-time span they cover. `None`
    /// when the host lost nothing.
    pub fn blackout(&self, origin_host: u32) -> Option<Blackout> {
        self.grouped().blackout(origin_host)
    }

    /// Moves this recorder's hops out as plain data for
    /// the sharded document ([`FlightDump::export`]), leaving it as after
    /// [`FlightRecorder::clear`]. `shard` is the segment's stable shard id
    /// (the tie-break for same-instant hops from different shards),
    /// `host_base` the offset that maps this shard's host indices into the
    /// run's host-name table.
    pub fn dump(&mut self, shard: u32, host_base: u32) -> FlightDump {
        let mut hops = std::mem::take(&mut self.ring);
        hops.rotate_left(self.head);
        for h in &mut hops {
            h.host += host_base;
        }
        let dump = FlightDump {
            shard,
            hops,
            names: self.names.clone(),
            overwritten: self.overwritten,
        };
        self.clear();
        dump
    }

    /// Renders the journeys document (`mosquitonet.journeys/v1` body):
    /// outcome totals, delay summaries, the blackout window of
    /// `blackout_origin` (a host name), drop forensics, and the busiest
    /// (host, action) pairs. `host_names[i]` names host index `i`;
    /// unknown indices render as `host{i}`.
    pub fn export(&self, host_names: &[String], blackout_origin: Option<&str>) -> Json {
        self.grouped()
            .export(host_names, blackout_origin, self.overwritten)
    }
}

impl FlightDump {
    /// Renders a sharded run's journeys document from its shards' dumps:
    /// the document [`FlightRecorder::export`] renders over one recorder
    /// holding every dump's hops in `(time, shard, seq)` order — the order
    /// one engine over the union topology would have recorded them — with
    /// `hops_overwritten` summed (the rings paid it; nothing is dropped
    /// here). Flight ids must be disjoint across dumps
    /// ([`FlightRecorder::set_flight_namespace`]).
    pub fn export(
        dumps: &[FlightDump],
        host_names: &[String],
        blackout_origin: Option<&str>,
    ) -> Json {
        let mut dumps: Vec<&FlightDump> = dumps.iter().collect();
        dumps.sort_by_key(|d| d.shard);
        let overwritten = dumps.iter().map(|d| d.overwritten).sum();
        let runs = dumps.iter().map(|d| Run {
            hops: &d.hops,
            names: &d.names,
            seq: 0, // the document prints none
        });
        Grouped::new(runs.collect(), true).export(host_names, blackout_origin, overwritten)
    }
}

/// Hops in recording order with the tables their ids index and the `seq`
/// of the first: a recorder's ring is two runs (its older half, then its
/// newer), a shard's dump one.
#[derive(Clone, Copy)]
struct Run<'a> {
    hops: &'a [PackedHop],
    names: &'a Names,
    seq: u64,
}

/// The hops of some runs grouped by flight, in place. A hop is named by
/// its address, `run << shift | index`: addresses order as the runs'
/// concatenation does, and nothing is copied.
struct Grouped<'a> {
    runs: Vec<Run<'a>>,
    shift: u32,
    /// Every hop's address once: flights ascending, each flight's side by side.
    order: Vec<u32>,
    /// Where in `order` each flight's addresses end, flights ascending;
    /// an end equal to the one before it is no flight.
    ends: Vec<u32>,
}

impl<'a> Grouped<'a> {
    /// Groups the hops of `runs` by flight in time linear in the hops and
    /// the flight-id span ([`FlightKeys`]). Each flight's hops keep their
    /// address order: recording order for one recorder, `(shard, seq)`
    /// for dumps in shard order, which `by_time` turns into
    /// `(time, shard, seq)` by sorting each flight whose hops are not
    /// already in time order (one that crossed shards) on `(time, address)`.
    fn new(runs: Vec<Run<'a>>, by_time: bool) -> Grouped<'a> {
        let longest = runs.iter().map(|run| run.hops.len()).max().unwrap_or(0);
        let shift = usize::BITS - longest.leading_zeros();
        assert!(
            (runs.len() as u64) << shift <= 1 << 32,
            "hop addresses are u32"
        );
        let mut grouped = Grouped {
            runs,
            shift,
            order: Vec::new(),
            ends: Vec::new(),
        };
        grouped.group();
        if by_time {
            // A run is time-sorted (virtual time never goes back inside a
            // shard) unless built by hand, and so is a flight within one.
            let sorted = grouped
                .runs
                .iter()
                .all(|run| run.hops.is_sorted_by_key(|h| h.at));
            let mut order = std::mem::take(&mut grouped.order);
            let mut start = 0;
            for &end in &grouped.ends {
                let journey = &mut order[start as usize..end as usize];
                start = end;
                let run_of = |address: Option<&u32>| address.map(|a| a >> shift);
                let one_run = run_of(journey.first()) == run_of(journey.last());
                if sorted && one_run || journey.is_sorted_by_key(|&a| grouped.hop(a).at) {
                    continue;
                }
                journey.sort_unstable_by_key(|&a| (grouped.hop(a).at, a));
            }
            grouped.order = order;
        }
        grouped
    }

    /// Fills `order` and `ends`: a counting sort on the flights' keys when
    /// they are dense — at most two a hop, as `begin_flight`'s ids are
    /// short of a flight parked across ring turns — else a sort on
    /// `(flight, address)`.
    fn group(&mut self) {
        let total: usize = self.runs.iter().map(|run| run.hops.len()).sum();
        let keys = FlightKeys::of(&self.runs);
        let shift = self.shift;
        if keys.len > 2 * total as u64 {
            let addresses = (0u32..)
                .zip(&self.runs)
                .flat_map(|(r, run)| (0..run.hops.len() as u32).map(move |i| r << shift | i));
            let mut order: Vec<u32> = addresses.collect();
            order.sort_unstable_by_key(|&a| (self.hop(a).flight, a));
            let journeys = order.chunk_by(|&a, &b| self.hop(a).flight == self.hop(b).flight);
            let ends = journeys.scan(0, |end, journey| {
                *end += journey.len() as u32;
                Some(*end)
            });
            self.ends = ends.collect();
            self.order = order;
            return;
        }
        // `next[k]` counts key k - 1's hops, then (summed) is where key k's
        // go, and once they are placed where they end.
        let mut next = vec![0u32; keys.len as usize + 1];
        let mut hint = 0;
        for run in &self.runs {
            for hop in run.hops {
                next[keys.key(hop.flight, &mut hint) + 1] += 1;
            }
        }
        let mut sum = 0;
        for n in &mut next {
            sum += *n;
            *n = sum;
        }
        let mut order = vec![0u32; total];
        for (r, run) in (0u32..).zip(&self.runs) {
            for (hop, i) in run.hops.iter().zip(0u32..) {
                let slot = &mut next[keys.key(hop.flight, &mut hint)];
                order[*slot as usize] = r << shift | i;
                *slot += 1;
            }
        }
        (self.order, self.ends) = (order, next);
    }

    /// The run `address` is in, and its index there.
    fn locate(&self, address: u32) -> (&Run<'a>, usize) {
        let index = address & ((1 << self.shift) - 1);
        (&self.runs[(address >> self.shift) as usize], index as usize)
    }

    fn hop(&self, address: u32) -> &PackedHop {
        let (run, index) = self.locate(address);
        &run.hops[index]
    }

    fn view(&self, address: u32) -> HopEvent {
        let (run, index) = self.locate(address);
        run.names.view(&run.hops[index], run.seq + index as u64)
    }

    /// The label a journey's hops carry: its flight's, if the flight had one
    /// and its first hop survives (read with the names of the run it is in).
    fn label(&self, journey: &[u32]) -> Option<&'static str> {
        journey.iter().find_map(|&a| {
            let (run, index) = self.locate(a);
            run.names.label(run.hops[index].label)
        })
    }

    /// Each flight's addresses, flights ascending.
    fn journeys(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        let spans = starts.zip(&self.ends).filter(|&(start, &end)| start < end);
        spans.map(|(start, &end)| &self.order[start as usize..end as usize])
    }

    /// One journey's [`Fate`], in one pass over its hops; `gap` sees the
    /// µs between each two consecutive ones.
    fn fate(&self, journey: &[u32], mut gap: impl FnMut(u64)) -> Fate {
        let first = self.view(journey[0]);
        let mut fate = Fate {
            first,
            outcome: Outcome::Pending,
            delay_us: 0,
        };
        fate.add(first);
        let mut prev = first.at;
        for hop in journey[1..].iter().map(|&a| self.view(a)) {
            gap(hop.at.saturating_since(prev).as_micros());
            prev = hop.at;
            fate.add(hop);
        }
        fate
    }

    /// [`FlightRecorder::blackout`] over these hops.
    fn blackout(&self, origin_host: u32) -> Option<Blackout> {
        let mut window = None;
        for journey in self.journeys() {
            self.fate(journey, |_| {}).widen(&mut window, origin_host);
        }
        window
    }

    /// A dropped journey as the document prints it: flight, first drop
    /// reason, label and every hop.
    fn drop_chain(&self, journey: &[u32], name_of: impl Fn(u32) -> String) -> Json {
        let hops = journey.iter().map(|&a| self.view(a));
        let chain = hops.clone().map(|h| {
            Json::obj([
                ("us", Json::UInt(h.at.as_micros())),
                ("host", Json::from(name_of(h.host))),
                ("point", Json::from(h.point)),
                (
                    "action",
                    Json::from(h.action.reason().unwrap_or(h.action.name())),
                ),
            ])
        });
        let flight = self.hop(journey[0]).flight;
        let reason = hops.clone().find_map(|h| h.action.reason());
        let mut members = vec![
            ("flight".to_string(), Json::UInt(flight)),
            (
                "reason".to_string(),
                Json::from(reason.unwrap_or("unknown")),
            ),
        ];
        if let Some(l) = self.label(journey) {
            members.push(("label".to_string(), Json::from(l)));
        }
        members.push(("hops".to_string(), Json::Arr(chain.collect())));
        Json::Obj(members)
    }

    /// [`FlightRecorder::export`] over these hops.
    fn export(
        &self,
        host_names: &[String],
        blackout_origin: Option<&str>,
        overwritten: u64,
    ) -> Json {
        let name_of = |idx: u32| -> String {
            host_names
                .get(idx as usize)
                .cloned()
                .unwrap_or_else(|| format!("host{idx}"))
        };
        let origin = blackout_origin.and_then(|name| host_names.iter().position(|n| n == name));
        let (mut flights, mut truncated) = (0u64, 0u64);
        let (mut delivered, mut dropped, mut pending) = (0u64, 0u64, 0u64);
        let mut e2e = DelaySummary::default();
        let mut per_hop = DelaySummary::default();
        let mut window = None;
        let mut drop_chains: Vec<Json> = Vec::new();
        let mut drops_omitted = 0u64;
        for journey in self.journeys() {
            flights += 1;
            let fate = self.fate(journey, |us| per_hop.push(us));
            if fate.first.action != HopAction::Sent {
                truncated += 1;
            }
            if let Some(origin) = origin {
                fate.widen(&mut window, origin as u32);
            }
            match fate.outcome {
                Outcome::Delivered => {
                    delivered += 1;
                    e2e.push(fate.delay_us);
                }
                Outcome::Dropped => {
                    dropped += 1;
                    if drop_chains.len() < EXPORT_MAX_DROPS {
                        drop_chains.push(self.drop_chain(journey, name_of));
                    } else {
                        drops_omitted += 1;
                    }
                }
                Outcome::Pending => pending += 1,
            }
        }
        // Counted run by run as the hops lie (order is nothing to a count),
        // by action id and then by action name: every drop reason is its
        // own id and one "dropped" row.
        let mut ids: IdHashMap<(u32, u8), u64> = IdHashMap::default();
        let mut rows: IdHashMap<(u32, &'static str), u64> = IdHashMap::default();
        for run in &self.runs {
            for h in run.hops {
                *ids.entry((h.host, h.action)).or_default() += 1;
            }
            for ((host, action), count) in ids.drain() {
                *rows
                    .entry((host, run.names.action(action).name()))
                    .or_default() += count;
            }
        }
        let mut top_rows: Vec<((u32, &'static str), u64)> = rows.into_iter().collect();
        top_rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top_rows.truncate(EXPORT_TOP_HOPS);
        let top_json: Vec<Json> = top_rows
            .into_iter()
            .map(|((host, action), count)| {
                Json::obj([
                    ("host", Json::from(name_of(host))),
                    ("action", Json::from(action)),
                    ("count", Json::UInt(count)),
                ])
            })
            .collect();
        let blackout_json = match (blackout_origin, window) {
            (Some(name), Some(b)) => Json::obj([
                ("origin", Json::from(name)),
                ("lost", Json::UInt(b.lost)),
                ("first_us", Json::UInt(b.first.as_micros())),
                ("last_us", Json::UInt(b.last.as_micros())),
            ]),
            _ => Json::Null,
        };
        Json::obj([
            ("flights", Json::UInt(flights)),
            ("hops", Json::UInt(self.order.len() as u64)),
            ("hops_overwritten", Json::UInt(overwritten)),
            ("truncated_flights", Json::UInt(truncated)),
            (
                "outcomes",
                Json::obj([
                    ("delivered", Json::UInt(delivered)),
                    ("dropped", Json::UInt(dropped)),
                    ("pending", Json::UInt(pending)),
                ]),
            ),
            ("delay_us", e2e.to_json()),
            ("per_hop_us", per_hop.to_json()),
            ("blackout", blackout_json),
            ("top_hops", Json::Arr(top_json)),
            ("drops_omitted", Json::UInt(drops_omitted)),
            ("drops", Json::Arr(drop_chains)),
        ])
    }
}

/// What one journey comes to: its first hop, its outcome and, when
/// delivered, the µs from the first hop to the last delivery.
struct Fate {
    first: HopEvent,
    outcome: Outcome,
    delay_us: u64,
}

impl Fate {
    /// Folds in one more hop.
    fn add(&mut self, hop: HopEvent) {
        self.outcome = self.outcome.then(hop.action);
        if hop.action == HopAction::Delivered {
            self.delay_us = hop.at.saturating_since(self.first.at).as_micros();
        }
    }

    /// Widens `window` by this flight if `origin_host` sent it and lost it.
    fn widen(&self, window: &mut Option<Blackout>, origin_host: u32) {
        let Fate { first, outcome, .. } = self;
        if first.host != origin_host
            || first.action != HopAction::Sent
            || *outcome != Outcome::Dropped
        {
            return;
        }
        let b = window.get_or_insert(Blackout {
            lost: 0,
            first: first.at,
            last: first.at,
        });
        b.lost += 1;
        b.first = b.first.min(first.at);
        b.last = b.last.max(first.at);
    }
}

/// Flight ids as dense keys that order as the ids do: each namespace met
/// (`id >> FLIGHT_SHARD_SHIFT`, ascending) spans its lowest offset to its
/// highest. `begin_flight` mints a namespace's ids one after another, so
/// the span is at most the ids the run minted.
struct FlightKeys {
    /// `(namespace, lowest offset, key of the lowest offset)`.
    spaces: Vec<(u64, u64, u64)>,
    /// Keys in all.
    len: u64,
}

impl FlightKeys {
    fn of(runs: &[Run<'_>]) -> FlightKeys {
        // `(namespace, lowest offset, highest offset)` first.
        let mut spaces: Vec<(u64, u64, u64)> = Vec::new();
        let mut hint = 0;
        for run in runs {
            for hop in run.hops {
                let (space, offset) = FlightKeys::split(hop.flight);
                if spaces.get(hint).is_none_or(|s| s.0 != space) {
                    hint = spaces.partition_point(|s| s.0 < space);
                    if spaces.get(hint).is_none_or(|s| s.0 != space) {
                        spaces.insert(hint, (space, offset, offset));
                    }
                }
                let s = &mut spaces[hint];
                (s.1, s.2) = (s.1.min(offset), s.2.max(offset));
            }
        }
        let mut len = 0;
        for s in &mut spaces {
            let span = s.2 - s.1 + 1;
            s.2 = len;
            len += span;
        }
        FlightKeys { spaces, len }
    }

    fn split(flight: u64) -> (u64, u64) {
        (
            flight >> FLIGHT_SHARD_SHIFT,
            flight & ((1 << FLIGHT_SHARD_SHIFT) - 1),
        )
    }

    /// `flight`'s key, looking in the namespace at `hint` first (a run's
    /// hops mostly share one) and leaving `hint` at the one it was in.
    fn key(&self, flight: u64, hint: &mut usize) -> usize {
        let (space, offset) = FlightKeys::split(flight);
        if self.spaces[*hint].0 != space {
            *hint = self.spaces.partition_point(|s| s.0 < space);
        }
        let (_, lowest, first) = self.spaces[*hint];
        (first + offset - lowest) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn disabled_recorder_allocates_and_records_nothing() {
        let mut rec = FlightRecorder::new();
        assert_eq!(rec.begin_flight(None), NO_FLIGHT);
        rec.hop(1, t(0), 0, "udp", HopAction::Sent);
        assert!(rec.is_empty());
        rec.capture_frame(t(0), 0, b"frame");
        assert!(rec.captures().is_empty());
        rec.note(t(0), 0, TraceKind::Marker, Line::new("ignored"));
        assert_eq!(rec.notes().count(), 0);
        assert_eq!(
            (rec.ring.capacity(), rec.notes.capacity()),
            (0, 0),
            "only enabling reserves"
        );
    }

    #[test]
    fn a_packed_hop_is_24_bytes() {
        assert_eq!(std::mem::size_of::<PackedHop>(), 24);
    }

    #[test]
    fn the_note_ring_keeps_the_newest_notes_in_order() {
        assert_eq!(std::mem::size_of::<Note>(), 72);
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let extra = 5;
        for i in 0..NOTE_CAPACITY + extra {
            let line = Line::new("note {}").num(i as u64);
            rec.note(t(i as u64), i as u32, TraceKind::Mobility, line);
        }
        let kept: Vec<u32> = rec.notes().map(|n| n.host).collect();
        let newest: Vec<u32> = (extra..NOTE_CAPACITY + extra).map(|i| i as u32).collect();
        assert_eq!(kept, newest, "the newest NOTE_CAPACITY, oldest first");
        let last = rec.notes().last().expect("a note");
        let (i, at) = (
            NOTE_CAPACITY + extra - 1,
            t((NOTE_CAPACITY + extra - 1) as u64),
        );
        assert_eq!((last.at, last.line.to_string()), (at, format!("note {i}")));
        assert_eq!(rec.notes_overwritten(), extra as u64);
        assert_eq!(rec.notes.capacity(), NOTE_CAPACITY, "reserved once, whole");
        rec.clear();
        assert_eq!((rec.notes().count(), rec.notes_overwritten()), (0, 0));
        rec.note(t(0), 7, TraceKind::Device, Line::new("after clear"));
        let _ = rec.dump(0, 0);
        assert_eq!((rec.notes().count(), rec.notes_overwritten()), (0, 0));
        assert!(rec.is_enabled(), "a dump leaves the switch on");
    }

    #[test]
    fn names_beyond_the_intern_bound_read_back_as_overflow() {
        let name = |i: usize| -> &'static str { format!("name.{i}").leak() };
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let distinct = INTERN_MAX + 20;
        for i in 0..distinct {
            let f = rec.begin_flight(Some(name(i)));
            rec.hop(f, t(0), 0, name(i), HopAction::Dropped(name(i)));
        }
        // Names met before the tables filled are still found, by content.
        rec.hop(1, t(0), 0, name(3), HopAction::Dropped(name(7)));
        let f = rec.begin_flight(None);
        rec.hop(f, t(0), 0, name(distinct), HopAction::Delivered);
        let hops = rec.hops_in_order();
        let got = |i: usize| (hops[i].point, hops[i].action);
        let journeys = rec.journeys();
        for (i, journey) in journeys.iter().enumerate().take(distinct) {
            let read = |bound: usize| if i < bound { name(i) } else { INTERN_OVERFLOW };
            // The action table began with the five plain actions, the
            // label table with "no label".
            let why = HopAction::Dropped(read(INTERN_MAX - 5));
            assert_eq!(got(i), (read(INTERN_MAX), why), "hop {i}");
            assert_eq!(journey.label, Some(read(INTERN_MAX - 1)), "flight {i}");
        }
        assert_eq!(got(distinct), ("name.3", HopAction::Dropped("name.7")));
        assert_eq!(got(distinct + 1), (INTERN_OVERFLOW, HopAction::Delivered));
        assert_eq!(
            journeys[distinct].label, None,
            "no label is not the overflow"
        );
    }

    #[test]
    fn journey_reconstruction_and_outcomes() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let a = rec.begin_flight(None);
        let b = rec.begin_flight(Some("reg"));
        assert_eq!((a, b), (1, 2));
        rec.hop(a, t(0), 0, "udp", HopAction::Sent);
        rec.hop(b, t(1), 1, "udp", HopAction::Sent);
        rec.hop(a, t(2), 2, "ip.fwd", HopAction::Forwarded);
        rec.hop(a, t(3), 3, "udp", HopAction::Delivered);
        rec.hop(b, t(4), 2, "wire", HopAction::Dropped("drop.medium_loss"));
        let js = rec.journeys();
        assert_eq!(js.len(), 2);
        assert_eq!(js[0].flight, a);
        assert_eq!(js[0].hops.len(), 3);
        assert_eq!(js[0].outcome(), Outcome::Delivered);
        assert_eq!(js[1].label, Some("reg"));
        assert_eq!(js[1].outcome(), Outcome::Dropped);
        assert_eq!(js[1].drop_reason(), Some("drop.medium_loss"));
    }

    #[test]
    fn blackout_covers_lost_origin_times_only() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        // Delivered flight from host 0 — not part of any blackout.
        let ok = rec.begin_flight(None);
        rec.hop(ok, t(5), 0, "udp", HopAction::Sent);
        rec.hop(ok, t(6), 1, "udp", HopAction::Delivered);
        // Two lost flights from host 0, one lost flight from host 1.
        for (host, ms) in [(0u32, 10u64), (0, 30), (1, 20)] {
            let f = rec.begin_flight(None);
            rec.hop(f, t(ms), host, "udp", HopAction::Sent);
            rec.hop(
                f,
                t(ms + 1),
                2,
                "wire",
                HopAction::Dropped("drop.iface_down"),
            );
        }
        let b = rec.blackout(0).expect("host 0 lost flights");
        assert_eq!(b.lost, 2);
        assert_eq!(b.first, t(10));
        assert_eq!(b.last, t(30));
        assert_eq!(rec.blackout(1).expect("host 1").lost, 1);
        assert!(rec.blackout(2).is_none());
    }

    #[test]
    fn clear_keeps_flags_and_id_allocator() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let f = rec.begin_flight(Some("reg"));
        rec.hop(f, t(0), 0, "udp", HopAction::Sent);
        rec.capture_frame(t(0), 0, b"frame");
        let held = rec.begin_flight(Some("s2"));
        rec.clear();
        assert!(rec.is_empty());
        assert!(rec.captures().is_empty());
        assert!(rec.is_enabled(), "clear keeps the enabled flag");
        rec.hop(held, t(1), 0, "udp", HopAction::Sent);
        assert_eq!(rec.journeys()[0].label, None, "clear drops the held label");
        assert!(
            rec.begin_flight(None) > held,
            "ids stay unique across clear"
        );
    }

    #[test]
    fn export_summarizes_outcomes_delays_and_blackout() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let ok = rec.begin_flight(None);
        rec.hop(ok, t(0), 0, "udp", HopAction::Sent);
        rec.hop(ok, t(2), 1, "ip.fwd", HopAction::Forwarded);
        rec.hop(ok, t(5), 2, "udp", HopAction::Delivered);
        let bad = rec.begin_flight(None);
        rec.hop(bad, t(10), 0, "udp", HopAction::Sent);
        rec.hop(bad, t(11), 1, "wire", HopAction::Dropped("drop.iface_down"));
        let names = vec!["ch".to_string(), "router".to_string(), "mh".to_string()];
        let doc = rec.export(&names, Some("ch"));
        let text = doc.render();
        assert!(text.contains("\"delivered\":1"));
        assert!(text.contains("\"dropped\":1"));
        assert!(text.contains("\"lost\":1"));
        assert!(text.contains("\"first_us\":10000"));
        assert!(text.contains("drop.iface_down"));
        assert!(text.contains("\"sum_us\":5000"), "e2e delay 5 ms: {text}");
    }

    #[test]
    fn namespaced_ids_merge_in_time_shard_seq_order() {
        // Shard 0: a flight that leaves, crosses to shard 1, and whose
        // reply lands back — recorded across two recorders.
        let mut a = FlightRecorder::new();
        a.set_enabled(true);
        a.set_flight_namespace(0);
        let mut b = FlightRecorder::new();
        b.set_enabled(true);
        b.set_flight_namespace(1);

        let f0 = a.begin_flight(Some("s3"));
        assert_eq!(f0, 1, "shard 0 keeps the unsharded numbering");
        // Shard 1 meets another label, under the id "s3" has on shard 0:
        // f0's label is read with the names of the dump holding its Sent hop.
        let f1 = b.begin_flight(Some("reg"));
        assert_eq!(f1, (1u64 << FLIGHT_SHARD_SHIFT) + 1);

        a.hop(f0, t(0), 0, "udp", HopAction::Sent);
        a.hop(f0, t(1), 1, "ip.fwd", HopAction::Forwarded);
        // Crosses into shard 1 (its host indices 0, 1 = run-wide 2, 3),
        // back to shard 0, and dies on shard 1 at that same instant.
        // A shard-1-local flight is interleaved with f0's hops there; each
        // shard records in time order, as a run does.
        b.hop(f0, t(2), 1, "ip.fwd", HopAction::Forwarded);
        b.hop(f1, t(2), 1, "udp", HopAction::Sent);
        a.hop(f0, t(3), 1, "ip.fwd", HopAction::Forwarded);
        b.hop(f0, t(3), 0, "wire", HopAction::Dropped("drop.iface_down"));
        b.hop(f1, t(4), 0, "udp", HopAction::Delivered);

        // Handed over out of shard order: the document orders the shards.
        let names = ["ch", "r0", "mh", "r1"].map(String::from);
        let dumps = [b.dump(1, 2), a.dump(0, 0)];
        let doc = FlightDump::export(&dumps, &names, Some("ch")).render();
        assert!(doc.contains(r#""flights":2,"hops":7,"#), "{doc}");
        assert!(doc.contains(r#""delivered":1,"dropped":1,"pending":0"#));
        // f0's hops stitched across the shards in (time, shard, seq)
        // order: its t(3) hop on shard 0 before the one on shard 1.
        let chain = [
            (0, "ch", "udp", "sent"),
            (1000, "r0", "ip.fwd", "forwarded"),
        ]
        .into_iter()
        .chain([(2000, "r1", "ip.fwd", "forwarded")])
        .chain([(3000, "r0", "ip.fwd", "forwarded")])
        .chain([(3000, "mh", "wire", "drop.iface_down")])
        .map(|(us, host, point, did)| {
            format!(r#"{{"us":{us},"host":"{host}","point":"{point}","action":"{did}"}}"#)
        });
        let chain = chain.collect::<Vec<_>>().join(",");
        let want = format!(
            r#""drops":[{{"flight":1,"reason":"drop.iface_down","label":"s3","hops":[{chain}]}}]"#
        );
        assert!(doc.contains(&want), "{doc}");
        // Blackout and e2e delay are read off the stitched journeys.
        assert!(doc.contains(r#""blackout":{"origin":"ch","lost":1,"first_us":0,"last_us":0}"#));
        assert!(doc.contains(r#""delay_us":{"count":1,"min_us":2000,"max_us":2000,"sum_us":2000}"#));
    }

    #[test]
    fn a_label_lives_as_long_as_its_flights_first_hop() {
        let mut rec = FlightRecorder::with_capacity(4);
        rec.set_enabled(true);
        // A parked flight whose Sent hop the ring overwrites before it
        // hops again, and one that is still whole.
        let parked = rec.begin_flight(Some("reg"));
        rec.hop(parked, t(0), 0, "udp", HopAction::Sent);
        let whole = rec.begin_flight(Some("s2"));
        // Another flight's hop does not take the held label.
        rec.hop(parked, t(1), 1, "ip.fwd", HopAction::Forwarded);
        rec.hop(whole, t(2), 0, "udp", HopAction::Sent);
        rec.hop(whole, t(3), 1, "ip.fwd", HopAction::Forwarded);
        rec.hop(whole, t(4), 2, "udp", HopAction::Delivered);
        let late = HopAction::Dropped("drop.arp_failure");
        rec.hop(parked, t(5), 1, "arp", late);
        assert_eq!(rec.overwritten(), 2);
        let labels: Vec<_> = rec.journeys().iter().map(|j| (j.flight, j.label)).collect();
        assert_eq!(labels, [(parked, None), (whole, Some("s2"))]);
        let doc = rec.export(&[], None).render();
        assert!(
            doc.contains(r#""reason":"drop.arp_failure","hops""#),
            "{doc}"
        );
    }

    #[test]
    fn capture_buffer_is_bounded() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        for _ in 0..(CAPTURE_MAX_FRAMES + 5) {
            rec.capture_frame(t(0), 0, b"f");
        }
        assert_eq!(rec.captures().len(), CAPTURE_MAX_FRAMES);
        assert_eq!(rec.captures_dropped(), 5);
        rec.clear();
        assert_eq!(rec.captures_dropped(), 0, "clear resets the overflow count");
    }
}
