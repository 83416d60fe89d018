//! Network device state machines.

use mosquitonet_sim::{SimDuration, SimTime};
use mosquitonet_wire::MacAddr;

/// What physical technology a device is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceKind {
    /// Wired Ethernet (the Linksys PCMCIA card of the paper).
    Ethernet,
    /// Metricom packet radio in Starmode, via the STRIP serial driver.
    StripRadio,
    /// The local loopback pseudo-device.
    Loopback,
}

/// How long state transitions take.
///
/// "Bringing an interface up or down usually just involves configuration in
/// software, but some devices may also require hardware interaction" (§4).
/// The bring-up figure is the dominant term in cold-switch packet loss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PowerModel {
    /// Time from `begin_bring_up` until the device can carry traffic.
    pub bring_up: SimDuration,
    /// Time to quiesce the device on the way down.
    pub bring_down: SimDuration,
}

/// Administrative/operational state of a device.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceState {
    /// Inactive; transmits are dropped.
    Down,
    /// Transitioning up; usable at the contained instant.
    BringingUp {
        /// When the transition completes.
        ready_at: SimTime,
    },
    /// Carrying traffic.
    Up,
}

mosquitonet_sim::counters! {
    /// Transmit/receive counters, surfaced in experiment reports: detached
    /// cells the world binds per interface under `{host}/if{n}.{dev}/...`.
    /// Cloning shares the cells.
    pub struct DeviceCounters {
        /// Frames handed to the medium.
        pub tx_frames => "tx_frames",
        /// Bytes handed to the medium.
        pub tx_bytes => "tx_bytes",
        /// Frames delivered up the stack.
        pub rx_frames => "rx_frames",
        /// Bytes delivered up the stack.
        pub rx_bytes => "rx_bytes",
        /// Transmits attempted while the device was not up (`drop.iface_down`
        /// at the device level).
        pub tx_dropped_down => "drop.tx_down",
        /// Transmits dropped because the packet exceeded the MTU (this stack
        /// does not fragment; see DESIGN.md §6).
        pub tx_dropped_mtu => "drop.tx_mtu",
        /// Frames that arrived while the device was not up.
        pub rx_dropped_down => "drop.rx_down",
        /// Completed down→up transitions.
        pub up_transitions => "up_transitions",
        /// Up/bringing-up→down transitions.
        pub down_transitions => "down_transitions",
    }
}

/// A simulated network device.
///
/// The device does not queue or schedule anything itself; the owning host
/// asks it for transmission timing and consults its state. This mirrors how
/// a driver exposes state to the kernel rather than owning the event loop.
///
/// # Examples
///
/// ```
/// use mosquitonet_link::presets;
/// use mosquitonet_sim::SimTime;
/// use mosquitonet_wire::MacAddr;
///
/// let mut eth = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
/// assert!(!eth.is_up());
/// let ready = eth.begin_bring_up(SimTime::ZERO);
/// eth.poll(ready);
/// assert!(eth.is_up());
/// ```
#[derive(Clone, Debug)]
pub struct Device {
    name: String,
    mac: MacAddr,
    kind: DeviceKind,
    state: DeviceState,
    /// Effective data rate used for serialization delay, bits per second.
    pub data_rate_bps: u64,
    /// Per-frame fixed transmit-path latency inside the device (driver +
    /// firmware), excluding the medium.
    pub tx_fixed_overhead: SimDuration,
    /// Power-state transition timing.
    pub power: PowerModel,
    /// Largest IP packet the device carries (no fragmentation support).
    pub mtu: usize,
    /// Counters.
    pub counters: DeviceCounters,
    /// Transmitter busy until this instant (frames queue behind it).
    next_free: SimTime,
}

impl Device {
    /// Creates a device in the `Down` state.
    pub fn new(
        name: impl Into<String>,
        mac: MacAddr,
        kind: DeviceKind,
        data_rate_bps: u64,
        tx_fixed_overhead: SimDuration,
        power: PowerModel,
    ) -> Device {
        Device {
            name: name.into(),
            mac,
            kind,
            state: DeviceState::Down,
            data_rate_bps,
            tx_fixed_overhead,
            power,
            mtu: 1500,
            counters: DeviceCounters::default(),
            next_free: SimTime::ZERO,
        }
    }

    /// Device name (e.g. `eth0`, `strip0`, `lo`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hardware address.
    #[inline]
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Technology.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Current state.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// True when the device can carry traffic.
    #[inline]
    pub fn is_up(&self) -> bool {
        matches!(self.state, DeviceState::Up)
    }

    /// Starts bringing the device up; returns when it will be ready.
    ///
    /// Idempotent: if already up, returns `now`; if already coming up,
    /// returns the existing completion time.
    pub fn begin_bring_up(&mut self, now: SimTime) -> SimTime {
        match self.state {
            DeviceState::Up => now,
            DeviceState::BringingUp { ready_at } => ready_at,
            DeviceState::Down => {
                let ready_at = now + self.power.bring_up;
                self.state = DeviceState::BringingUp { ready_at };
                ready_at
            }
        }
    }

    /// Advances the state machine to `now` (completes a pending bring-up).
    pub fn poll(&mut self, now: SimTime) {
        if let DeviceState::BringingUp { ready_at } = self.state {
            if now >= ready_at {
                self.state = DeviceState::Up;
                self.counters.up_transitions.inc();
            }
        }
    }

    /// Takes the device down immediately, returning how long the
    /// quiesce takes (the caller accounts for it in switch timing).
    pub fn bring_down(&mut self) -> SimDuration {
        let was_down = matches!(self.state, DeviceState::Down);
        self.state = DeviceState::Down;
        if was_down {
            SimDuration::ZERO
        } else {
            self.counters.down_transitions.inc();
            self.power.bring_down
        }
    }

    /// Serialization plus fixed device delay for a frame of `len` bytes.
    /// Serialization is `len · 8 / data_rate_bps` seconds in whole
    /// nanoseconds, rounded half up and computed in integers: at the
    /// preset rates it is the value `SimDuration::from_secs_f64` gives
    /// for the same quotient, and it saturates instead of overflowing.
    #[inline]
    pub fn tx_time(&self, len: usize) -> SimDuration {
        let ser = serialization_ns(len, self.data_rate_bps);
        self.tx_fixed_overhead
            .saturating_add(SimDuration::from_nanos(ser))
    }

    /// Books a transmission at `now`: the frame queues behind any frame
    /// still serializing, and the returned delay is from `now` until this
    /// frame has fully left the device.
    #[inline]
    pub fn schedule_tx(&mut self, now: SimTime, len: usize) -> SimDuration {
        let start = if self.next_free > now {
            self.next_free
        } else {
            now
        };
        let done = start + self.tx_time(len);
        self.next_free = done;
        done - now
    }

    /// Records a transmit attempt; returns `false` (and counts a drop)
    /// when the device is not up.
    #[inline]
    pub fn note_tx(&mut self, len: usize) -> bool {
        if self.is_up() {
            self.counters.tx_frames.inc();
            self.counters.tx_bytes.add(len as u64);
            true
        } else {
            self.counters.tx_dropped_down.inc();
            false
        }
    }

    /// Records a receive; returns `false` (and counts a drop) when the
    /// device is not up — frames in flight to a downed interface are lost,
    /// which is exactly the loss window the paper measures.
    #[inline]
    pub fn note_rx(&mut self, len: usize) -> bool {
        if self.is_up() {
            self.counters.rx_frames.inc();
            self.counters.rx_bytes.add(len as u64);
            true
        } else {
            self.counters.rx_dropped_down.inc();
            false
        }
    }
}

/// Nanoseconds `len` bytes take at `rate` bits per second, rounded half
/// up, in one `u64` division. Past ~2.3 GB the dividend saturates at
/// `u64::MAX` rather than overflow, and a zero rate divides as one bit
/// per second; no frame comes near either.
#[inline]
fn serialization_ns(len: usize, rate: u64) -> u64 {
    /// Nanoseconds one byte takes at one bit per second.
    const NS_PER_BYTE: u64 = 8 * 1_000_000_000;
    (len as u64)
        .saturating_mul(NS_PER_BYTE)
        .saturating_add(rate / 2)
        / rate.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn starts_down_and_comes_up_after_bring_up_time() {
        let mut d = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
        assert_eq!(d.state(), DeviceState::Down);
        let ready = d.begin_bring_up(t(0));
        assert_eq!(ready, SimTime::ZERO + d.power.bring_up);
        d.poll(ready - ms(1));
        assert!(!d.is_up(), "not up before ready_at");
        d.poll(ready);
        assert!(d.is_up());
    }

    #[test]
    fn begin_bring_up_is_idempotent() {
        let mut d = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
        let first = d.begin_bring_up(t(0));
        let second = d.begin_bring_up(t(1));
        assert_eq!(first, second, "in-progress bring-up is not restarted");
        d.poll(first);
        assert_eq!(d.begin_bring_up(t(999)), t(999), "already up: ready now");
    }

    #[test]
    fn bring_down_quiesce_time_only_when_active() {
        let mut d = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
        assert_eq!(d.bring_down(), SimDuration::ZERO, "down->down is free");
        let ready = d.begin_bring_up(t(0));
        d.poll(ready);
        assert_eq!(d.bring_down(), d.power.bring_down);
        assert!(!d.is_up());
    }

    #[test]
    fn tx_time_scales_with_length_and_rate() {
        let d = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
        let short = d.tx_time(64);
        let long = d.tx_time(1500);
        assert!(long > short);
        // 1500 bytes at 10 Mb/s = 1.2 ms serialization.
        let expected = SimDuration::from_micros(1200) + d.tx_fixed_overhead;
        assert_eq!(long, expected);
    }

    #[test]
    fn radio_is_much_slower_than_ethernet() {
        let eth = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
        let radio = presets::metricom_radio("strip0", MacAddr::from_index(2));
        // Same frame, at least two orders of magnitude slower over radio.
        assert!(radio.tx_time(500) > eth.tx_time(500) * 100);
    }

    #[test]
    fn counters_track_drops_when_down() {
        let mut d = presets::pcmcia_ethernet("eth0", MacAddr::from_index(1));
        assert!(!d.note_tx(100));
        assert!(!d.note_rx(100));
        assert_eq!(d.counters.tx_dropped_down.get(), 1);
        assert_eq!(d.counters.rx_dropped_down.get(), 1);
        let ready = d.begin_bring_up(t(0));
        d.poll(ready);
        assert!(d.note_tx(100));
        assert!(d.note_rx(50));
        assert_eq!(d.counters.tx_frames.get(), 1);
        assert_eq!(d.counters.tx_bytes.get(), 100);
        assert_eq!(d.counters.rx_frames.get(), 1);
        assert_eq!(d.counters.rx_bytes.get(), 50);
        assert_eq!(d.counters.up_transitions.get(), 1);
        d.bring_down();
        assert_eq!(d.counters.down_transitions.get(), 1);
    }

    #[test]
    fn loopback_is_instant() {
        let lo = presets::loopback("lo");
        assert_eq!(lo.power.bring_up, SimDuration::ZERO);
        assert_eq!(lo.tx_time(10_000), SimDuration::ZERO + lo.tx_fixed_overhead);
    }
}
