//! Property-based tests for the simulation engine and statistics.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mosquitonet_sim::flightrec::LABELS_PER_RING_SLOT;
use mosquitonet_sim::{
    EventId, FlightDump, FlightRecorder, Histogram, HopAction, HopEvent, Line, Sim, SimDuration,
    SimTime, Summary,
};

/// Host names of the journeys differential test; hops also name an
/// index beyond them, and `HOSTS[0]` is the blackout origin.
const HOSTS: [&str; 3] = ["ch", "ha", "mh"];

/// Hop points and drop reasons of the flight-recorder tests; the last two
/// of each are the first two again at another address.
#[rustfmt::skip]
fn names() -> [[&'static str; 5]; 2] {
    [["udp", "ip.fwd", "wire", &"_udp"[1..], &"_ip.fwd"[1..]],
     ["drop.ttl", "drop.medium_loss", "drop.iface_down", &"_drop.ttl"[1..], &"_drop.medium_loss"[1..]]]
}

/// The journeys document the way it was first written — every journey
/// built as a `Vec`, each asked for its own outcome — as compact JSON.
fn reference_export(
    by_flight: &BTreeMap<u64, Vec<HopEvent>>,
    label_of: impl Fn(u64) -> Option<&'static str>,
    overwritten: usize,
) -> String {
    let name_of = |i: u32| {
        HOSTS
            .get(i as usize)
            .map_or(format!("host{i}"), |n| n.to_string())
    };
    let summary = |us: &[u64]| {
        let (min, max) = (us.iter().min().unwrap_or(&0), us.iter().max().unwrap_or(&0));
        let (count, sum) = (us.len(), us.iter().sum::<u64>());
        format!(r#"{{"count":{count},"min_us":{min},"max_us":{max},"sum_us":{sum}}}"#)
    };
    let (mut e2e, mut per_hop, mut lost_at, mut drops) = (vec![], vec![], vec![], vec![]);
    let (mut delivered, mut dropped, mut truncated, mut hop_count) = (0, 0, 0, 0);
    let mut top: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    for (flight, hops) in by_flight {
        hop_count += hops.len();
        truncated += usize::from(hops[0].action != HopAction::Sent);
        per_hop.extend(hops.windows(2).map(|w| (w[1].at - w[0].at).as_micros()));
        for h in hops {
            *top.entry((h.host, h.action.name())).or_default() += 1;
        }
        if let Some(done) = hops.iter().rfind(|h| h.action == HopAction::Delivered) {
            delivered += 1;
            e2e.push((done.at - hops[0].at).as_micros());
        } else if let Some(reason) = hops.iter().find_map(|h| h.action.reason()) {
            dropped += 1;
            if hops[0].host == 0 && hops[0].action == HopAction::Sent {
                lost_at.push(hops[0].at.as_micros());
            }
            let chain = hops.iter().map(|h| {
                let (us, host, point) = (h.at.as_micros(), name_of(h.host), h.point);
                let did = h.action.reason().unwrap_or(h.action.name());
                format!(r#"{{"us":{us},"host":"{host}","point":"{point}","action":"{did}"}}"#)
            });
            let chain = chain.collect::<Vec<_>>().join(",");
            let label = label_of(*flight).map_or(String::new(), |l| format!(r#""label":"{l}","#));
            drops.push(format!(
                r#"{{"flight":{flight},"reason":"{reason}",{label}"hops":[{chain}]}}"#
            ));
        }
    }
    let mut top: Vec<_> = top.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let top = top.iter().take(10).map(|((host, action), n)| {
        let host = name_of(*host);
        format!(r#"{{"host":"{host}","action":"{action}","count":{n}}}"#)
    });
    let (origin, lost) = (HOSTS[0], lost_at.len());
    let blackout = match (lost_at.iter().min(), lost_at.iter().max()) {
        (Some(first), Some(last)) => {
            format!(r#"{{"origin":"{origin}","lost":{lost},"first_us":{first},"last_us":{last}}}"#)
        }
        _ => "null".to_string(),
    };
    let (flights, omitted) = (by_flight.len(), drops.len().saturating_sub(100));
    drops.truncate(100);
    format!(
        r#"{{"flights":{flights},"hops":{hop_count},"hops_overwritten":{overwritten},"truncated_flights":{truncated},"outcomes":{{"delivered":{delivered},"dropped":{dropped},"pending":{}}},"delay_us":{},"per_hop_us":{},"blackout":{blackout},"top_hops":[{}],"drops_omitted":{omitted},"drops":[{}]}}"#,
        flights - delivered - dropped,
        summary(&e2e),
        summary(&per_hop),
        top.collect::<Vec<_>>().join(","),
        drops.join(",")
    )
}

/// What a model-test event does when it fires, besides logging its label.
#[derive(Clone, Copy, Debug)]
enum Action {
    Nothing,
    /// Schedule a (do-nothing) child this long after the firing instant —
    /// zero lands it in the batch being drained.
    Spawn(u64),
    /// Cancel the `n`-th handle ever issued (modulo how many there are):
    /// an event still pending, possibly later in this very batch; one that
    /// fired long ago and whose slab slot has a new occupant; one already
    /// cancelled; or the firing event itself.
    Cancel(usize),
}

/// World of the engine under test: what fired (and what each in-handler
/// cancel returned), and every handle issued, in issue order.
#[derive(Default)]
struct Observed {
    log: Vec<(u32, Option<bool>)>,
    handles: Vec<EventId>,
}

fn fire(sim: &mut Sim<Observed>, label: u32, action: Action) {
    let outcome = match action {
        Action::Nothing => None,
        Action::Spawn(delay) => {
            let child = sim.world().handles.len() as u32;
            let id = sim.schedule_in(SimDuration::from_nanos(delay), move |sim| {
                fire(sim, child, Action::Nothing)
            });
            sim.world_mut().handles.push(id);
            None
        }
        Action::Cancel(n) => {
            let id = sim.world().handles[n % sim.world().handles.len()];
            Some(sim.cancel(id))
        }
    };
    sim.world_mut().log.push((label, outcome));
}

/// The reference scheduler: pending events in a `Vec` kept sorted by
/// `(at, seq)`, nothing else.
#[derive(Default)]
struct Model {
    now: u64,
    next_seq: u64,
    /// `(at, seq, label, action)`, sorted.
    pending: Vec<(u64, u64, u32, Action)>,
    /// Sequence number behind each handle, in issue order.
    handles: Vec<u64>,
    log: Vec<(u32, Option<bool>)>,
    executed: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, action: Action) {
        let (seq, label) = (self.next_seq, self.handles.len() as u32);
        self.next_seq += 1;
        self.handles.push(seq);
        let pos = self.pending.partition_point(|e| (e.0, e.1) < (at, seq));
        self.pending.insert(pos, (at, seq, label, action));
    }

    fn cancel(&mut self, n: usize) -> bool {
        let seq = self.handles[n % self.handles.len()];
        let before = self.pending.len();
        self.pending.retain(|e| e.1 != seq);
        self.pending.len() != before
    }

    /// Runs the head event if it is due by `deadline`.
    fn run_next(&mut self, deadline: u64) -> bool {
        if self.pending.first().is_none_or(|e| e.0 > deadline) {
            return false;
        }
        let (at, _, label, action) = self.pending.remove(0);
        self.now = at;
        self.executed += 1;
        let outcome = match action {
            Action::Nothing => None,
            Action::Spawn(delay) => {
                self.schedule(at + delay, Action::Nothing);
                None
            }
            Action::Cancel(n) => Some(self.cancel(n)),
        };
        self.log.push((label, outcome));
        true
    }
}

proptest! {
    /// Events always execute in nondecreasing time order, FIFO among ties.
    #[test]
    fn events_execute_in_time_then_fifo_order(delays in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut sim = Sim::new(Vec::<(u64, usize)>::new());
        for (idx, &d) in delays.iter().enumerate() {
            sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                let t = sim.now().as_nanos();
                sim.world_mut().push((t, idx));
            });
        }
        sim.run();
        let log = sim.into_world();
        prop_assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among same-time events");
            }
        }
        // Each event fired exactly at its scheduled time.
        for (t, idx) in log {
            prop_assert_eq!(t, delays[idx]);
        }
    }

    /// Cancelling a random subset prevents exactly those events.
    #[test]
    fn cancellation_is_exact(
        delays in proptest::collection::vec(1u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let mut sim = Sim::new(Vec::<usize>::new());
        let mut ids = Vec::new();
        for (idx, &d) in delays.iter().enumerate() {
            ids.push(sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                sim.world_mut().push(idx);
            }));
        }
        let mut expected: Vec<usize> = Vec::new();
        for (idx, id) in ids.into_iter().enumerate() {
            if cancel_mask[idx] {
                sim.cancel(id);
            } else {
                expected.push(idx);
            }
        }
        sim.run();
        let mut fired = sim.into_world();
        fired.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(fired, expected);
    }

    /// `run_until` is equivalent to `run` filtered by deadline, and the
    /// remainder still executes afterwards.
    #[test]
    fn run_until_partitions_execution(
        delays in proptest::collection::vec(0u64..1_000, 1..100),
        deadline in 0u64..1_000,
    ) {
        let mut sim = Sim::new(Vec::<u64>::new());
        for &d in &delays {
            sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                sim.world_mut().push(d);
            });
        }
        sim.run_until(SimTime::from_nanos(deadline));
        let early: Vec<u64> = sim.world().clone();
        prop_assert!(early.iter().all(|&t| t <= deadline));
        sim.run();
        let all = sim.into_world();
        prop_assert_eq!(all.len(), delays.len());
    }

    /// The slab engine against the sorted-`Vec` reference, under random
    /// interleavings of every way to schedule, cancel and advance: same
    /// execution order, same cancel verdicts (stale and repeated handles
    /// included), same `pending_events`, `events_executed`, `next_event_at`
    /// and clock after every operation, batching on and off.
    #[test]
    fn engine_matches_reference_scheduler(
        ops in proptest::collection::vec((0u8..12, 0u64..4, 0usize..64), 1..300),
        batching in any::<bool>(),
    ) {
        let mut sim = Sim::new(Observed::default());
        sim.set_batching(batching);
        let mut model = Model::default();
        for (step, &(op, delay, n)) in ops.iter().enumerate() {
            match op {
                // Schedule (half of all operations, so the queue stays
                // populated): plain, spawning, or cancelling events, by
                // absolute and by relative time. Delays of 0..4 ns pile
                // events onto shared instants.
                0..=5 => {
                    let action = match op {
                        0 | 1 => Action::Nothing,
                        2 | 3 => Action::Spawn(n as u64 % 3),
                        _ => Action::Cancel(n),
                    };
                    let label = model.handles.len() as u32;
                    let id = if op % 2 == 0 {
                        let at = SimTime::from_nanos(model.now + delay);
                        sim.schedule_at(at, move |sim| fire(sim, label, action))
                    } else {
                        let delay = SimDuration::from_nanos(delay);
                        sim.schedule_in(delay, move |sim| fire(sim, label, action))
                    };
                    sim.world_mut().handles.push(id);
                    model.schedule(model.now + delay, action);
                }
                6 | 7 if !model.handles.is_empty() => {
                    let id = sim.world().handles[n % model.handles.len()];
                    prop_assert_eq!(sim.cancel(id), model.cancel(n), "cancel at op {}", step);
                    // Whatever that returned, a second cancel finds nothing.
                    prop_assert!(!sim.cancel(id), "double cancel at op {}", step);
                }
                8 | 9 => {
                    prop_assert_eq!(sim.step(), model.run_next(u64::MAX), "step at op {}", step);
                }
                10 => {
                    let deadline = model.now + delay;
                    sim.run_until(SimTime::from_nanos(deadline));
                    while model.run_next(deadline) {}
                    model.now = deadline;
                }
                11 => {
                    let end = model.now + delay + 1;
                    sim.run_window(SimTime::from_nanos(end));
                    while model.run_next(end - 1) {}
                }
                _ => {}
            }
            prop_assert_eq!(&sim.world().log, &model.log, "execution order after op {}", step);
            prop_assert_eq!(sim.now().as_nanos(), model.now, "clock after op {}", step);
            prop_assert_eq!(sim.pending_events(), model.pending.len(), "pending after op {}", step);
            prop_assert_eq!(sim.events_executed(), model.executed, "executed after op {}", step);
            prop_assert_eq!(
                sim.next_event_at().map(|t| t.as_nanos()),
                model.pending.first().map(|e| e.0),
                "next event after op {}", step
            );
        }
        // Whatever is left runs to completion identically.
        sim.run();
        while model.run_next(u64::MAX) {}
        prop_assert_eq!(&sim.world().log, &model.log);
        prop_assert_eq!(sim.pending_events(), 0);
        prop_assert_eq!(sim.events_executed(), model.executed);
    }

    /// Welford mean/stddev match the naive two-pass computation.
    #[test]
    fn summary_matches_naive(samples in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let s = Summary::from_samples(&samples);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.stddev() - var.sqrt()).abs() <= 1e-6 * var.sqrt().max(1.0));
        prop_assert_eq!(s.count(), samples.len() as u64);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), Some(min));
        prop_assert_eq!(s.max(), Some(max));
    }

    /// Merging summaries in any split equals the single-pass result.
    #[test]
    fn summary_merge_any_split(
        samples in proptest::collection::vec(-1e3f64..1e3, 2..100),
        split in any::<proptest::sample::Index>(),
    ) {
        let k = split.index(samples.len());
        let whole = Summary::from_samples(&samples);
        let mut merged = Summary::from_samples(&samples[..k]);
        merged.merge(&Summary::from_samples(&samples[k..]));
        prop_assert!((whole.mean() - merged.mean()).abs() < 1e-9 * whole.mean().abs().max(1.0));
        prop_assert!((whole.stddev() - merged.stddev()).abs() < 1e-6);
    }

    /// Histogram counts are conserved: in-range + overflow = total.
    #[test]
    fn histogram_conserves_counts(
        values in proptest::collection::vec(0usize..40, 0..300),
        buckets in 1usize..20,
    ) {
        let mut h = Histogram::new(buckets);
        for &v in &values {
            h.record(v);
        }
        let in_range: u64 = h.buckets().iter().sum();
        prop_assert_eq!(in_range + h.overflow(), h.total());
        prop_assert_eq!(h.total(), values.len() as u64);
        for v in 0..=buckets {
            let expected = values.iter().filter(|&&x| x == v).count() as u64;
            prop_assert_eq!(h.count(v), expected);
        }
    }

    /// Seeded RNG streams are reproducible and the range contract holds.
    #[test]
    fn typed_trace_lines_render_as_format_did(
        (a, b) in (any::<u32>(), any::<u32>()),
        n in any::<u64>(),
        mac in any::<[u8; 6]>(),
        ns in any::<u64>(),
    ) {
        let (a, b) = (std::net::Ipv4Addr::from(a), std::net::Ipv4Addr::from(b));
        let span = SimDuration::from_nanos(ns);
        // Six arguments take two lines of at most four.
        let head = Line::new("drop.ttl: {} -> {}: ident {} (xid {})");
        let head = head.addr(a).addr(b).num(n).hex(n);
        let tail = Line::new(" by {} in {}").mac(mac).span(span);
        let m = mac.map(|o| format!("{o:02x}")).join(":");
        prop_assert_eq!(
            format!("{head}{tail}"),
            format!("drop.ttl: {a} -> {b}: ident {n} (xid {n:#x}) by {m} in {span}")
        );
    }

    #[test]
    fn rng_reproducible_and_in_range(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        use mosquitonet_sim::SimRng;
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..100 {
            let x = a.range_u64(lo..lo + span);
            let y = b.range_u64(lo..lo + span);
            prop_assert_eq!(x, y);
            prop_assert!((lo..lo + span).contains(&x));
        }
    }

    /// The streaming journeys document against a reference that builds
    /// every journey, on streams that wrap the ring, prune labels and drop
    /// more flights than the document prints. On the way: the survivors
    /// are exactly the newest `capacity` hops in recording order, and
    /// `journeys()` partitions them by flight.
    #[test]
    fn flight_export_matches_a_reference_that_builds_every_journey(
        ops in proptest::collection::vec((any::<u8>(), 0usize..8, 0u32..4, 0usize..5), 0..2000),
        capacity in 1usize..1500,
    ) {
        use HopAction::{Decap, Delivered, Dropped, Encap, Forwarded, Sent};
        let [points, reasons] = names();
        let mut rec = FlightRecorder::with_capacity(capacity);
        rec.set_enabled(true);
        let (mut live, mut model, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &(pick, act, host, name)) in ops.iter().enumerate() {
            let dropped = Dropped(reasons[(act + name) % 5]);
            let acts = [Forwarded, Forwarded, Encap, Decap, Delivered, dropped, dropped, dropped];
            let (flight, action) = if live.is_empty() || pick % 3 == 0 {
                let label = [Some("reg"), Some("s3"), None][pick as usize / 3 % 3];
                if label.is_some() && labels.len() >= LABELS_PER_RING_SLOT * capacity {
                    let ring: &[(u64, _, _, _, _)] = &model[model.len().saturating_sub(capacity)..];
                    labels.retain(|&(f, _)| ring.iter().any(|h| h.0 == f));
                }
                live.push(rec.begin_flight(label));
                labels.extend(label.map(|l| (live[live.len() - 1], l)));
                (live[live.len() - 1], Sent)
            } else {
                // A flight stays live (may hop again) unless it dies of `acts[7]`.
                let slot = pick as usize % live.len();
                (if act == 7 { live.swap_remove(slot) } else { live[slot] }, acts[act])
            };
            let at = SimTime::from_nanos(i as u64 * 700);
            rec.hop(flight, at, host, points[name], action);
            model.push((flight, at, host, points[name], action));
        }

        let kept = rec.hops_in_order();
        let lost = model.len().saturating_sub(capacity);
        prop_assert_eq!(rec.overwritten(), lost as u64);
        let seen: Vec<_> = kept.iter().map(|h| (h.flight, h.at, h.host, h.point, h.action)).collect();
        prop_assert_eq!(&seen, &model[lost..]);
        prop_assert!(kept.windows(2).all(|w| w[0].seq < w[1].seq), "ring out of order");

        let mut by_flight: BTreeMap<u64, Vec<HopEvent>> = BTreeMap::new();
        for h in &kept {
            by_flight.entry(h.flight).or_default().push(*h);
        }
        let label_of = |f| labels.iter().find(|l| l.0 == f).map(|l| l.1);
        let seqs = |hops: &[HopEvent]| hops.iter().map(|h| h.seq).collect::<Vec<_>>();
        let journeys = rec.journeys().into_iter().map(|j| (j.flight, j.label, seqs(&j.hops)));
        let want = by_flight.iter().map(|(&f, hops)| (f, label_of(f), seqs(hops)));
        prop_assert_eq!(journeys.collect::<Vec<_>>(), want.collect::<Vec<_>>());
        let doc = rec.export(&HOSTS.map(String::from), Some(HOSTS[0])).render();
        prop_assert_eq!(doc, reference_export(&by_flight, label_of, lost));
    }

    /// `merged` of time-sorted dumps whose flights cross shards is, hop for hop and name for
    /// name (each shard met them in its own order), the `(time, shard, seq)` sort of the rings.
    #[test]
    fn merged_dumps_equal_the_time_shard_seq_sort(
        hops in proptest::collection::vec((0usize..5, 0u64..3, 1u64..40, 0u32..3, 0usize..10), 0..300),
        capacity in 1usize..80,
    ) {
        let [points, reasons] = names();
        let mut recs: Vec<_> = (0..5).map(|_| FlightRecorder::with_capacity(capacity)).collect();
        let mut model: [Vec<_>; 5] = Default::default();
        let mut now = 0;
        for &(shard, step, flight, host, name) in &hops {
            now += step; // zero: this hop shares its instant with the one before
            let at = SimTime::from_nanos(now);
            let did = [HopAction::Forwarded, HopAction::Dropped(reasons[name % 5])][name / 5];
            recs[shard].set_enabled(true);
            recs[shard].hop(flight, at, host, points[name % 5], did);
            model[shard].push((at, shard, model[shard].len(), flight, host + 3 * shard as u32, points[name % 5], did));
        }
        let dumps = recs.iter_mut().zip(0u32..5).rev().map(|(r, s)| r.dump(s, 3 * s));
        let dumps: Vec<FlightDump> = dumps.collect();
        let kept = model.iter().flat_map(|m| &m[m.len().saturating_sub(capacity)..]);
        let mut want: Vec<_> = kept.map(|w| (w.0, w.1, w.2, (w.0, w.3, w.4, w.5, w.6))).collect();
        want.sort_unstable_by_key(|w| (w.0, w.1, w.2));
        let merged = FlightRecorder::merged(dumps);
        prop_assert_eq!(merged.overwritten() as usize, hops.len() - want.len());
        let got = merged.hops_in_order();
        prop_assert!(got.iter().zip(0..).all(|(h, seq)| h.seq == seq), "renumbered in order");
        let got: Vec<_> = got.iter().map(|h| (h.at, h.flight, h.host, h.point, h.action)).collect();
        prop_assert_eq!(got, want.iter().map(|w| w.3).collect::<Vec<_>>());
    }
}
