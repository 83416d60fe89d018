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
//! Recording is off by default and costs one predicted branch per call
//! site when off (a unit test holds that the disabled
//! [`FlightRecorder::hop`] allocates and records nothing). Flight ids come
//! from a plain counter — never the engine RNG — so enabling the recorder
//! cannot perturb a seeded run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::json::Json;
use crate::rng::IdHashMap;
use crate::time::SimTime;

/// The "no flight" sentinel: hops recorded against it are discarded.
/// Control-plane frames (ARP) and pre-recorder packets carry this.
pub const NO_FLIGHT: u64 = 0;

/// Default ring capacity, in hop events: 1.5 MiB of packed hops. The
/// Figure-5 experiments record ~10⁴ hops and keep them all; the fleet
/// run at benchmark scale records ~35 000 per shard (568 818 in all), so
/// each shard's ring still holds its whole run.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Most distinct recording points, and most distinct actions (five plain
/// ones and every drop reason met), one recorder tells apart by one-byte
/// ids; the stack has ~10 points and ~25 reasons. A name first met after
/// its table is full is recorded, and reads back, as [`INTERN_OVERFLOW`].
pub const INTERN_MAX: usize = 255;
/// The point, or the drop reason, beyond [`INTERN_MAX`].
pub const INTERN_OVERFLOW: &str = "flightrec.intern_overflow";

/// Labels kept per ring slot: [`FlightRecorder::begin_flight`] prunes the
/// label table against the ring whenever it reaches this multiple of the
/// ring's capacity.
pub const LABELS_PER_RING_SLOT: usize = 2;

/// Most captured frames kept when pcap capture is on.
const CAPTURE_MAX_FRAMES: usize = 4096;

/// Most dropped-flight chains exported into the journeys document.
const EXPORT_MAX_DROPS: usize = 100;

/// Rows in the exported `top_hops` table.
const EXPORT_TOP_HOPS: usize = 10;

/// Bit position of the shard id inside namespaced flight ids: shard `s`
/// allocates ids `(s << FLIGHT_SHARD_SHIFT) + 1, + 2, …`, so ids from
/// different shards can never collide and a merged export sorts shard 0's
/// flights first. Shard 0's ids are numerically identical to an
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

/// One hop as the ring, a [`FlightDump`] and the merge hold it: 24 bytes.
/// Its `seq` is its position (derived on read); `point` and `action` are
/// ids into the [`Names`] of whoever holds the record.
#[derive(Clone, Copy, Debug)]
struct PackedHop {
    flight: u64,
    at: SimTime,
    host: u32,
    point: u8,
    action: u8,
}

/// What a holder's packed hops name by id: recording points, and actions (a
/// drop with its reason is one action). A recorder's actions start with the
/// five that carry no reason, so one a full table turns away is always a drop.
#[derive(Clone, Debug, Default)]
struct Names {
    points: Vec<&'static str>,
    actions: Vec<HopAction>,
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

/// A `Send` snapshot of one shard's recorder, produced by
/// [`FlightRecorder::dump`] on the worker thread that owns the shard and
/// consumed by [`FlightRecorder::merged`] after the run.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Stable shard id (same-instant tie-break during the merge).
    pub shard: u32,
    /// Surviving hops in insertion order, host indices already offset
    /// into the merged host table, with the tables their ids index.
    hops: Vec<PackedHop>,
    names: Names,
    /// Flight labels, sorted by flight id.
    pub labels: Vec<(u64, &'static str)>,
    /// Hops this segment lost to ring wraparound.
    pub overwritten: u64,
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
    /// Origin label, when the sender tagged the flight (e.g. `"reg"`).
    pub label: Option<&'static str>,
    /// Hops in insertion order.
    pub hops: Vec<HopEvent>,
}

impl Journey {
    /// The journey's outcome: delivered anywhere wins, then dropped, then
    /// pending (still in flight when the run stopped, or hops lost to
    /// ring wraparound).
    pub fn outcome(&self) -> Outcome {
        outcome_of(self.hops.iter().map(|h| h.action))
    }

    /// First recorded drop reason, if any.
    pub fn drop_reason(&self) -> Option<&'static str> {
        self.hops.iter().find_map(|h| h.action.reason())
    }

    /// Origin (first-hop) time, if the origin survived the ring.
    pub fn origin_time(&self) -> Option<SimTime> {
        self.hops.first().map(|h| h.at)
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

/// The outcome a flight's hops add up to: delivered anywhere wins (a
/// tunnelled flight is decapsulated and delivered under one id), then
/// dropped, then pending.
fn outcome_of(actions: impl Iterator<Item = HopAction>) -> Outcome {
    let mut outcome = Outcome::Pending;
    for action in actions {
        match action {
            HopAction::Delivered => return Outcome::Delivered,
            HopAction::Dropped(_) => outcome = Outcome::Dropped,
            _ => {}
        }
    }
    outcome
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
/// the flight-id allocator and (optional) raw-frame capture feed.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    enabled: bool,
    capture: bool,
    next_flight: u64,
    /// High bits OR-ed into every allocated flight id (zero outside
    /// sharded runs). See [`FlightRecorder::set_flight_namespace`].
    flight_base: u64,
    next_seq: u64,
    /// Ring storage; at most `capacity` entries, oldest overwritten first.
    ring: Vec<PackedHop>,
    /// What the ring's `point` and `action` ids name.
    names: Names,
    capacity: usize,
    /// Next ring slot to (over)write: the ring is two seq-sorted runs,
    /// `ring[head..]` (empty until it wraps) then `ring[..head]`.
    head: usize,
    /// Hop events lost to wraparound.
    overwritten: u64,
    /// Origin labels for tagged flights (registration traffic etc.),
    /// sorted by flight id — ids are handed out in increasing order, so
    /// tagging is a push and lookup a binary search. Bounded: see
    /// [`FlightRecorder::begin_flight`].
    labels: Vec<(u64, &'static str)>,
    /// Captured frames for pcap export (bounded).
    captures: Vec<CapturedFrame>,
    /// Frames not captured because the buffer was full.
    captures_dropped: u64,
}

fn same_flight(a: &(u64, u32), b: &(u64, u32)) -> bool {
    a.0 == b.0
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
    /// Panics when `capacity` is zero or does not fit a `u32`.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight ring needs at least one slot");
        assert!(u32::try_from(capacity).is_ok(), "hop positions are u32");
        use HopAction::{Decap, Delivered, Encap, Forwarded, Sent};
        let (points, actions) = (Vec::new(), vec![Sent, Forwarded, Encap, Decap, Delivered]);
        FlightRecorder {
            capacity,
            names: Names { points, actions },
            ..FlightRecorder::default()
        }
    }

    /// Enables or disables recording. Flight ids allocated while enabled
    /// stay valid after a disable (their hops simply stop accumulating).
    /// Enabling reserves the ring and the label and name tables: recording moves none.
    pub fn set_enabled(&mut self, on: bool) {
        if on {
            self.ring.reserve_exact(self.capacity - self.ring.len());
            let Names { points, actions } = &mut self.names;
            points.reserve_exact(INTERN_MAX - points.len());
            actions.reserve_exact(INTERN_MAX - actions.len());
            let labels = LABELS_PER_RING_SLOT * self.capacity;
            self.labels
                .reserve_exact(labels.saturating_sub(self.labels.len()));
        }
        self.enabled = on;
    }

    /// True when recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables raw-frame capture (the pcap feed). Only frames
    /// seen while both the recorder and this flag are on are kept.
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on;
    }

    /// True when the pcap capture feed is on.
    #[inline]
    pub fn capture_enabled(&self) -> bool {
        self.enabled && self.capture
    }

    /// Discards every recorded hop, label, and captured frame. The
    /// enabled/capture flags and the flight-id allocator are preserved —
    /// mirroring [`Trace::clear`](crate::Trace::clear) — so ids stay
    /// unique across a clear.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.overwritten = 0;
        self.labels.clear();
        self.captures.clear();
        self.captures_dropped = 0;
    }

    /// Partitions the flight-id space for a sharded run: ids allocated
    /// after this call are `(shard << FLIGHT_SHARD_SHIFT) + counter`, so
    /// per-shard recorders hand out globally unique ids without any
    /// cross-thread coordination. Shard 0 keeps the unsharded numbering.
    pub fn set_flight_namespace(&mut self, shard: u32) {
        self.flight_base = u64::from(shard) << FLIGHT_SHARD_SHIFT;
    }

    /// Allocates a flight id for a packet leaving its origin, optionally
    /// tagged with a static label. Returns [`NO_FLIGHT`] when disabled.
    ///
    /// The label table never holds more than [`LABELS_PER_RING_SLOT`] ×
    /// the ring capacity: on reaching that, labels of flights with no hop
    /// left in the ring are dropped (at most one label per ring slot
    /// survives, so the next prune is at least a ring's worth of labelled
    /// flights away). Such a flight has no journey to label — unless it
    /// records another hop later (a packet parked while the ring turned
    /// over, or one whose first hop is yet to come), in which case that
    /// journey is exported without its label. That is the one difference
    /// from keeping every label.
    pub fn begin_flight(&mut self, label: Option<&'static str>) -> u64 {
        if !self.enabled {
            return NO_FLIGHT;
        }
        self.next_flight += 1;
        debug_assert!(self.next_flight < 1 << FLIGHT_SHARD_SHIFT);
        let id = self.flight_base + self.next_flight;
        if let Some(l) = label {
            if self.labels.len() >= LABELS_PER_RING_SLOT * self.capacity {
                self.prune_labels();
            }
            debug_assert!(self.labels.last().is_none_or(|&(last, _)| last < id));
            self.labels.push((id, l));
        }
        id
    }

    /// Drops the label of every flight that has no hop in the ring.
    fn prune_labels(&mut self) {
        let mut live: Vec<u64> = self.ring.iter().map(|h| h.flight).collect();
        live.sort_unstable();
        live.dedup();
        self.labels
            .retain(|(flight, _)| live.binary_search(flight).is_ok());
    }

    /// The label `flight` was begun with, if it had one (and still has it:
    /// see [`FlightRecorder::begin_flight`]).
    fn label_of(&self, flight: u64) -> Option<&'static str> {
        let at = self
            .labels
            .binary_search_by_key(&flight, |&(f, _)| f)
            .ok()?;
        Some(self.labels[at].1)
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
        let ev = PackedHop {
            flight,
            at,
            host,
            point: intern(&mut self.names.points, point),
            action: intern(&mut self.names.actions, action),
        };
        self.next_seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.overwritten += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Stores one raw wire frame for pcap export (no-op unless capture is
    /// on; bounded at a few thousand frames).
    pub fn capture_frame(&mut self, at: SimTime, host: u32, bytes: &[u8]) {
        if !self.capture_enabled() {
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

    /// The `pos`-th oldest surviving hop as a [`HopEvent`]; `seq` is derived.
    fn view(&self, pos: u32) -> HopEvent {
        // `head` is the oldest hop's slot on a full ring, `ring.len()` before.
        let slot = self.head + pos as usize;
        let hop = &self.ring[slot.checked_sub(self.ring.len()).unwrap_or(slot)];
        HopEvent {
            seq: self.next_seq - self.ring.len() as u64 + u64::from(pos),
            flight: hop.flight,
            at: hop.at,
            host: hop.host,
            point: named(&self.names.points, hop.point, INTERN_OVERFLOW),
            action: self.action(hop.action),
        }
    }

    fn action(&self, id: u8) -> HopAction {
        named(&self.names.actions, id, HopAction::Dropped(INTERN_OVERFLOW))
    }

    /// Every surviving hop in insertion (seq) order.
    pub fn hops_in_order(&self) -> Vec<HopEvent> {
        (0..self.ring.len() as u32).map(|p| self.view(p)).collect()
    }

    /// Every surviving hop as `(flight, position in recording order)`, sorted
    /// in place: flights ascending, each flight's hops in recording order
    /// (`chunk_by(same_flight)`: a journey a slice). All a document costs per hop.
    fn by_flight(&self) -> Vec<(u64, u32)> {
        let (newer, older) = self.ring.split_at(self.head);
        let hops = older.iter().chain(newer).zip(0u32..);
        let mut hops: Vec<(u64, u32)> = hops.map(|(h, pos)| (h.flight, pos)).collect();
        hops.sort_unstable();
        hops
    }

    /// One journey of [`FlightRecorder::by_flight`], hop by hop.
    fn hops_of<'a>(
        &'a self,
        journey: &'a [(u64, u32)],
    ) -> impl DoubleEndedIterator<Item = HopEvent> + Clone + 'a {
        journey.iter().map(|&(_, pos)| self.view(pos))
    }

    /// [`FlightRecorder::blackout`] over [`FlightRecorder::by_flight`]'s hops.
    fn blackout_in(&self, by_flight: &[(u64, u32)], origin_host: u32) -> Option<Blackout> {
        let mut window: Option<Blackout> = None;
        for journey in by_flight.chunk_by(same_flight) {
            let origin = self.view(journey[0].1);
            if origin.host != origin_host
                || origin.action != HopAction::Sent
                || outcome_of(self.hops_of(journey).map(|h| h.action)) != Outcome::Dropped
            {
                continue;
            }
            let (lost, first, last) = (0, origin.at, origin.at);
            let b = window.get_or_insert(Blackout { lost, first, last });
            b.lost += 1;
            b.first = b.first.min(origin.at);
            b.last = b.last.max(origin.at);
        }
        window
    }

    /// Reconstructs every journey with surviving hops, ordered by flight
    /// id; hops within a journey are in recording order, so they can
    /// never be out of order or leak across flights.
    pub fn journeys(&self) -> Vec<Journey> {
        let by_flight = self.by_flight();
        let journeys = by_flight.chunk_by(same_flight).map(|hops| Journey {
            flight: hops[0].0,
            label: self.label_of(hops[0].0),
            hops: self.hops_of(hops).collect(),
        });
        journeys.collect()
    }

    /// The blackout window of `origin_host`: its lost (dropped, never
    /// delivered) flights and the origin-time span they cover. `None`
    /// when the host lost nothing.
    pub fn blackout(&self, origin_host: u32) -> Option<Blackout> {
        self.blackout_in(&self.by_flight(), origin_host)
    }

    /// Moves this recorder's hops and labels out as plain `Send` data for
    /// merging across shards, leaving it as after [`FlightRecorder::clear`].
    /// `shard` is the segment's stable shard id (the tie-break for
    /// same-instant hops from different shards), `host_base` the offset that
    /// maps this shard's host indices into the merged run's host-name table.
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
            labels: std::mem::take(&mut self.labels),
            overwritten: self.overwritten,
        };
        self.clear();
        dump
    }

    /// Builds a single recorder holding every shard's hops, merged in
    /// `(time, shard, seq)` order — the order a single-threaded run over
    /// the union topology would have recorded them. Virtual time never
    /// goes back inside a shard, so each dump already is in `(time, seq)`
    /// order (one that is not is sorted first) and a k-way merge on
    /// `(time, shard)` yields exactly that order. Flight ids must already be
    /// disjoint across dumps ([`FlightRecorder::set_flight_namespace`]); the
    /// merged ring holds every surviving hop, so merging never re-drops.
    pub fn merged(mut dumps: Vec<FlightDump>) -> FlightRecorder {
        dumps.sort_unstable_by_key(|d| d.shard);
        let total: usize = dumps.iter().map(|d| d.hops.len()).sum();
        let mut rec = FlightRecorder::with_capacity(total.max(1));
        rec.enabled = true; // not `set_enabled`: the labels arrive whole
        rec.ring.reserve_exact(total);
        // Shards meet names in different orders: each dump's ids → ours (a
        // full table's overflow id to itself).
        let mut ids = Vec::with_capacity(dumps.len());
        for d in &mut dumps {
            rec.overwritten += d.overwritten;
            rec.labels.append(&mut d.labels);
            if !d.hops.is_sorted_by_key(|h| h.at) {
                d.hops.sort_by_key(|h| h.at);
            }
            let mut map = [[u8::MAX; 256]; 2];
            for (id, &point) in map[0].iter_mut().zip(&d.names.points) {
                *id = intern(&mut rec.names.points, point);
            }
            for (id, &action) in map[1].iter_mut().zip(&d.names.actions) {
                *id = intern(&mut rec.names.actions, action);
            }
            ids.push(map);
        }
        // Shard `s` labels only flights of its own namespace, so the dumps
        // arrive in flight order; the sort is the table's invariant made
        // independent of that.
        rec.labels.sort_unstable_by_key(|&(flight, _)| flight);
        // Each dump's next unmerged hop, earliest on top (index = shard order).
        let mut next = vec![0usize; dumps.len()];
        let mut heads: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        let head_of = |i: usize, at: usize| Some(Reverse((dumps[i].hops.get(at)?.at, i)));
        heads.extend((0..dumps.len()).filter_map(|i| head_of(i, 0)));
        while let Some(Reverse((_, i))) = heads.pop() {
            let hop = dumps[i].hops[next[i]];
            rec.ring.push(PackedHop {
                point: ids[i][0][hop.point as usize],
                action: ids[i][1][hop.action as usize],
                ..hop
            });
            next[i] += 1;
            heads.extend(head_of(i, next[i]));
        }
        rec.next_seq = total as u64;
        rec
    }

    /// Renders the journeys document (`mosquitonet.journeys/v1` body):
    /// outcome totals, delay summaries, the blackout window of
    /// `blackout_origin` (a host name), drop forensics, and the busiest
    /// (host, action) pairs. `host_names[i]` names host index `i`;
    /// unknown indices render as `host{i}`.
    pub fn export(&self, host_names: &[String], blackout_origin: Option<&str>) -> Json {
        let name_of = |idx: u32| -> String {
            host_names
                .get(idx as usize)
                .cloned()
                .unwrap_or_else(|| format!("host{idx}"))
        };
        let by_flight = self.by_flight();
        let (mut flights, mut truncated) = (0u64, 0u64);
        let (mut delivered, mut dropped, mut pending) = (0u64, 0u64, 0u64);
        let mut e2e = DelaySummary::default();
        let mut per_hop = DelaySummary::default();
        let mut drop_chains: Vec<Json> = Vec::new();
        let mut drops_omitted = 0u64;
        for journey in by_flight.chunk_by(same_flight) {
            flights += 1;
            let mut hops = self.hops_of(journey);
            let first = self.view(journey[0].1);
            if first.action != HopAction::Sent {
                truncated += 1;
            }
            for (a, b) in hops.clone().zip(hops.clone().skip(1)) {
                per_hop.push(b.at.saturating_since(a.at).as_micros());
            }
            match outcome_of(hops.clone().map(|h| h.action)) {
                Outcome::Delivered => {
                    delivered += 1;
                    let done = hops
                        .rfind(|h| h.action == HopAction::Delivered)
                        .expect("delivered journey has a Delivered hop");
                    e2e.push(done.at.saturating_since(first.at).as_micros());
                }
                Outcome::Dropped => {
                    dropped += 1;
                    if drop_chains.len() < EXPORT_MAX_DROPS {
                        let chain: Vec<Json> = hops
                            .clone()
                            .map(|h| {
                                Json::obj([
                                    ("us", Json::UInt(h.at.as_micros())),
                                    ("host", Json::from(name_of(h.host))),
                                    ("point", Json::from(h.point)),
                                    (
                                        "action",
                                        Json::from(h.action.reason().unwrap_or(h.action.name())),
                                    ),
                                ])
                            })
                            .collect();
                        let reason = hops.find_map(|h| h.action.reason());
                        let mut members = vec![
                            ("flight".to_string(), Json::UInt(first.flight)),
                            (
                                "reason".to_string(),
                                Json::from(reason.unwrap_or("unknown")),
                            ),
                        ];
                        if let Some(l) = self.label_of(first.flight) {
                            members.push(("label".to_string(), Json::from(l)));
                        }
                        members.push(("hops".to_string(), Json::Arr(chain)));
                        drop_chains.push(Json::Obj(members));
                    } else {
                        drops_omitted += 1;
                    }
                }
                Outcome::Pending => pending += 1,
            }
        }
        // Counted over the ring as it lies: order is nothing to a count.
        let mut top: IdHashMap<(u32, u8), u64> = IdHashMap::default();
        for h in &self.ring {
            *top.entry((h.host, h.action)).or_default() += 1;
        }
        // Every drop reason is its own action id and one "dropped" row.
        let mut rows: IdHashMap<(u32, &'static str), u64> = IdHashMap::default();
        for ((host, action), count) in top {
            *rows.entry((host, self.action(action).name())).or_default() += count;
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
        let blackout_json = blackout_origin
            .and_then(|name| {
                let idx = host_names.iter().position(|n| n == name)? as u32;
                let b = self.blackout_in(&by_flight, idx)?;
                Some(Json::obj([
                    ("origin", Json::from(name)),
                    ("lost", Json::UInt(b.lost)),
                    ("first_us", Json::UInt(b.first.as_micros())),
                    ("last_us", Json::UInt(b.last.as_micros())),
                ]))
            })
            .unwrap_or(Json::Null);
        Json::obj([
            ("flights", Json::UInt(flights)),
            ("hops", Json::UInt(self.ring.len() as u64)),
            ("hops_overwritten", Json::UInt(self.overwritten)),
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
    }

    #[test]
    fn a_packed_hop_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<PackedHop>() <= 32);
    }

    #[test]
    fn names_beyond_the_intern_bound_read_back_as_overflow() {
        let name = |i: usize| -> &'static str { format!("name.{i}").leak() };
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        let distinct = INTERN_MAX + 20;
        for i in 0..distinct {
            rec.hop(1, t(0), 0, name(i), HopAction::Dropped(name(i)));
        }
        // Names met before the tables filled are still found, by content.
        rec.hop(1, t(0), 0, name(3), HopAction::Dropped(name(7)));
        rec.hop(1, t(0), 0, name(distinct), HopAction::Delivered);
        let merged = FlightRecorder::merged(vec![rec.dump(0, 0)]);
        let hops = merged.hops_in_order();
        let got = |i: usize| (hops[i].point, hops[i].action);
        for i in 0..distinct {
            let read = |bound: usize| if i < bound { name(i) } else { INTERN_OVERFLOW };
            // The action table began with the five plain actions.
            let why = HopAction::Dropped(read(INTERN_MAX - 5));
            assert_eq!(got(i), (read(INTERN_MAX), why), "hop {i}");
        }
        assert_eq!(got(distinct), ("name.3", HopAction::Dropped("name.7")));
        assert_eq!(got(distinct + 1), (INTERN_OVERFLOW, HopAction::Delivered));
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
        rec.set_capture(true);
        let f = rec.begin_flight(Some("reg"));
        rec.hop(f, t(0), 0, "udp", HopAction::Sent);
        rec.capture_frame(t(0), 0, b"frame");
        rec.clear();
        assert!(rec.is_empty());
        assert!(rec.captures().is_empty());
        assert!(rec.is_enabled(), "clear keeps the enabled flag");
        assert!(rec.capture_enabled(), "clear keeps the capture flag");
        assert!(rec.begin_flight(None) > f, "ids stay unique across clear");
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
        let f1 = b.begin_flight(None);
        assert_eq!(f1, (1u64 << FLIGHT_SHARD_SHIFT) + 1);

        a.hop(f0, t(0), 0, "udp", HopAction::Sent);
        a.hop(f0, t(1), 1, "ip.fwd", HopAction::Forwarded);
        // Crosses into shard 1 (its host index 0 = merged index 2).
        b.hop(f0, t(3), 0, "udp", HopAction::Delivered);
        // A shard-1-local flight, interleaved in time with f0's hops.
        b.hop(f1, t(2), 1, "udp", HopAction::Sent);
        b.hop(f1, t(4), 0, "udp", HopAction::Delivered);

        let merged = FlightRecorder::merged(vec![a.dump(0, 0), b.dump(1, 2)]);
        let hops = merged.hops_in_order();
        let times: Vec<u64> = hops.iter().map(|h| h.at.as_micros()).collect();
        assert_eq!(times, vec![0, 1000, 2000, 3000, 4000], "time-ordered");
        assert_eq!(hops[3].host, 2, "host indices offset by the shard base");
        let js = merged.journeys();
        assert_eq!(js.len(), 2);
        assert_eq!(js[0].flight, f0);
        assert_eq!(js[0].label, Some("s3"));
        assert_eq!(js[0].outcome(), Outcome::Delivered);
        assert_eq!(js[0].hops.len(), 3, "cross-shard hops stitched together");
        assert_eq!(js[1].flight, f1);
    }

    #[test]
    fn labels_are_bounded_and_pruning_loses_no_exported_label() {
        const CAPACITY: usize = 64;
        let bound = LABELS_PER_RING_SLOT * CAPACITY;
        let mut rec = FlightRecorder::with_capacity(CAPACITY);
        rec.set_enabled(true);
        let mut every_label = Vec::new();
        // More than four rings' worth of labelled flights, two hops each,
        // with unlabelled and dropped flights mixed in.
        for i in 0..(7 * CAPACITY as u64) {
            let label = match i % 3 {
                0 => Some("reg"),
                1 => Some("s3"),
                _ => None,
            };
            let f = rec.begin_flight(label);
            every_label.extend(label.map(|l| (f, l)));
            assert!(rec.labels.len() <= bound, "{} labels", rec.labels.len());
            rec.hop(f, t(i), 0, "udp", HopAction::Sent);
            let fate = if i % 5 == 0 {
                HopAction::Dropped("drop.medium_loss")
            } else {
                HopAction::Delivered
            };
            rec.hop(
                f,
                t(i) + crate::SimDuration::from_micros(300),
                1,
                "udp",
                fate,
            );
        }
        assert!(
            every_label.len() > 4 * CAPACITY,
            "the run outgrew the bound"
        );
        assert!(rec.labels.len() < every_label.len(), "labels were pruned");

        // The same ring under a label table that never forgot anything.
        let unpruned = FlightRecorder {
            enabled: true,
            next_seq: rec.next_seq,
            ring: rec.ring.clone(),
            names: rec.names.clone(),
            capacity: rec.capacity,
            head: rec.head,
            overwritten: rec.overwritten,
            labels: every_label,
            ..FlightRecorder::default()
        };
        let names = vec!["ch".to_string(), "mh".to_string()];
        let doc = rec.export(&names, Some("ch")).render();
        assert_eq!(doc, unpruned.export(&names, Some("ch")).render());
        assert!(
            doc.contains("\"label\":\"reg\""),
            "labels are exported: {doc}"
        );
    }

    #[test]
    fn a_pruned_label_is_gone_even_if_its_flight_hops_again() {
        // The documented edge: a flight with no hop left in the ring loses
        // its label at the next prune, and a hop it records afterwards
        // starts an unlabelled journey.
        let mut rec = FlightRecorder::with_capacity(2);
        rec.set_enabled(true);
        let parked = rec.begin_flight(Some("reg"));
        rec.hop(parked, t(0), 0, "udp", HopAction::Sent);
        for i in 1..=(LABELS_PER_RING_SLOT as u64 * 2) {
            let f = rec.begin_flight(Some("s3"));
            rec.hop(f, t(i), 0, "udp", HopAction::Sent);
        }
        rec.hop(
            parked,
            t(9),
            1,
            "arp",
            HopAction::Dropped("drop.arp_failure"),
        );
        let journey = rec.journeys().into_iter().find(|j| j.flight == parked);
        assert_eq!(journey.expect("the late hop is recorded").label, None);
    }

    #[test]
    fn capture_buffer_is_bounded() {
        let mut rec = FlightRecorder::new();
        rec.set_enabled(true);
        rec.set_capture(true);
        for _ in 0..(CAPTURE_MAX_FRAMES + 5) {
            rec.capture_frame(t(0), 0, b"f");
        }
        assert_eq!(rec.captures().len(), CAPTURE_MAX_FRAMES);
    }
}
