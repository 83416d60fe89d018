//! Calibrated device and medium presets matching the paper's test-bed (§4).
//!
//! Sources for the numbers:
//!
//! * **Ethernet**: 10 Mb/s Linksys PCMCIA card. The fixed per-frame transmit
//!   overhead (driver + protocol processing on a 40 MHz 486 subnotebook)
//!   is set so that the measured registration request→reply latency on one
//!   Ethernet reproduces Figure 7's 4.79 ms with the home agent's 1.48 ms
//!   processing time in the middle: one way ≈ (4.79 − 1.48)/2 ≈ 1.65 ms ≈
//!   `ETHERNET_TX_OVERHEAD` + serialization + `ETHERNET_PROPAGATION` + the
//!   receiver's stack cost.
//! * **Metricom radio via STRIP**: "In theory, Metricom radios can send
//!   100 Kbits/second through the air, but in practice 30-40 Kbits/second is
//!   the best we achieve" (§4) — we use 35 kb/s effective. "The round-trip
//!   time between the home agent and the mobile host through the radio
//!   interface is 200~250ms" (§4) — the propagation base + jitter +
//!   serialization of a small UDP echo reproduce that RTT band.
//! * **Bring-up times**: Figure 6's cold-switch loss is "generally less than
//!   1.25 seconds" of packets at 250 ms spacing, dominated by interface
//!   bring-up; the radio (serial port + radio handshake) is slower to start
//!   than the PCMCIA Ethernet card.

use mosquitonet_sim::SimDuration;
use mosquitonet_wire::MacAddr;

use crate::device::{Device, DeviceKind, PowerModel};
use crate::lan::{DelayModel, Lan, LanKind};

/// Ethernet line rate: 10 Mb/s.
pub const ETHERNET_RATE_BPS: u64 = 10_000_000;

/// Fixed per-frame transmit-path cost on the era hardware (driver + stack).
pub const ETHERNET_TX_OVERHEAD: SimDuration = SimDuration::from_micros(800);

/// PCMCIA Ethernet bring-up: card power, reset, configuration.
pub const ETHERNET_BRING_UP: SimDuration = SimDuration::from_millis(400);

/// Ethernet quiesce time on the way down.
pub const ETHERNET_BRING_DOWN: SimDuration = SimDuration::from_millis(50);

/// One-way propagation + repeater latency on a building Ethernet segment.
pub const ETHERNET_PROPAGATION: SimDuration = SimDuration::from_micros(5);

/// Metricom effective airtime rate ("30-40 Kbits/second is the best we
/// achieve", §4).
pub const RADIO_RATE_BPS: u64 = 35_000;

/// Fixed per-frame cost of the serial link + radio firmware turnaround.
pub const RADIO_TX_OVERHEAD: SimDuration = SimDuration::from_millis(8);

/// Radio bring-up: serial port setup plus radio acquisition of the poletop
/// network.
pub const RADIO_BRING_UP: SimDuration = SimDuration::from_millis(750);

/// Radio quiesce time on the way down.
pub const RADIO_BRING_DOWN: SimDuration = SimDuration::from_millis(100);

/// One-way base latency through the Metricom poletop network.
pub const RADIO_PROPAGATION_BASE: SimDuration = SimDuration::from_millis(92);

/// Symmetric jitter on the radio path.
pub const RADIO_PROPAGATION_JITTER: SimDuration = SimDuration::from_millis(10);

/// Probability the radio medium drops a frame. The paper observed exactly
/// one radio-level drop across its switching experiments, so this is small.
pub const RADIO_LOSS_PROBABILITY: f64 = 0.003;

/// A 10 Mb/s PCMCIA Ethernet card, as in the paper's Handbook 486s.
pub fn pcmcia_ethernet(name: impl Into<String>, mac: MacAddr) -> Device {
    Device::new(
        name,
        mac,
        DeviceKind::Ethernet,
        ETHERNET_RATE_BPS,
        ETHERNET_TX_OVERHEAD,
        PowerModel {
            bring_up: ETHERNET_BRING_UP,
            bring_down: ETHERNET_BRING_DOWN,
        },
    )
}

/// A wired-infrastructure Ethernet port (routers, home agents, servers) —
/// same electrical characteristics, but "bring-up" is irrelevant for
/// machines that never switch, so it is instantaneous.
pub fn wired_ethernet(name: impl Into<String>, mac: MacAddr) -> Device {
    Device::new(
        name,
        mac,
        DeviceKind::Ethernet,
        ETHERNET_RATE_BPS,
        ETHERNET_TX_OVERHEAD,
        PowerModel {
            bring_up: SimDuration::ZERO,
            bring_down: SimDuration::ZERO,
        },
    )
}

/// The STRIP driver's MTU (the serial framing bounded radio packets well
/// below Ethernet's 1500).
pub const RADIO_MTU: usize = 1100;

/// A Metricom radio in Starmode behind the STRIP driver.
pub fn metricom_radio(name: impl Into<String>, mac: MacAddr) -> Device {
    let mut dev = Device::new(
        name,
        mac,
        DeviceKind::StripRadio,
        RADIO_RATE_BPS,
        RADIO_TX_OVERHEAD,
        PowerModel {
            bring_up: RADIO_BRING_UP,
            bring_down: RADIO_BRING_DOWN,
        },
    );
    dev.mtu = RADIO_MTU;
    dev
}

/// The loopback pseudo-device.
pub fn loopback(name: impl Into<String>) -> Device {
    Device::new(
        name,
        MacAddr::ZERO,
        DeviceKind::Loopback,
        u64::MAX,
        SimDuration::ZERO,
        PowerModel {
            bring_up: SimDuration::ZERO,
            bring_down: SimDuration::ZERO,
        },
    )
}

/// An Ethernet segment medium.
pub fn ethernet_lan(name: impl Into<String>) -> Lan {
    Lan::new(
        name,
        LanKind::Ethernet,
        DelayModel::fixed(ETHERNET_PROPAGATION),
        0.0,
    )
}

/// A Metricom radio cell medium.
pub fn radio_cell(name: impl Into<String>) -> Lan {
    Lan::new(
        name,
        LanKind::RadioCell,
        DelayModel {
            base: RADIO_PROPAGATION_BASE,
            jitter: RADIO_PROPAGATION_JITTER,
        },
        RADIO_LOSS_PROBABILITY,
    )
}

/// A long-haul "rest of the Internet" pipe between campus routers, modeled
/// as a point-to-point segment with wide-area latency.
pub fn internet_cloud(name: impl Into<String>, one_way: SimDuration) -> Lan {
    Lan::new(name, LanKind::Ethernet, DelayModel::fixed(one_way), 0.0)
}

/// Default one-way latency of the inter-shard backbone trunk: a campus
/// backbone hop (switch fabric + a few hundred meters of fiber), well
/// above the intra-LAN 5 µs. It is one term of the sharded scheduler's
/// lookahead; the sending device's fixed transmit cost
/// ([`ETHERNET_TX_OVERHEAD`] on the campus gateways) is the other.
pub const TRUNK_ONE_WAY: SimDuration = SimDuration::from_micros(50);

/// The inter-shard backbone segment. Its delay is **fixed and lossless by
/// contract**: the sharded engine's conservative lookahead counts on it,
/// so a trunk must never deliver a frame earlier than
/// `tx_time + one_way` and must not draw engine randomness (a draw for a
/// foreign frame would shift the receiving shard's own RNG stream). [`Lan::min_latency`] on
/// the returned segment is the trunk's term of the lookahead, added to
/// the smallest fixed transmit cost of a device attached to it.
pub fn backbone_trunk(name: impl Into<String>, one_way: SimDuration) -> Lan {
    assert!(
        one_way > SimDuration::ZERO,
        "a zero-latency trunk gives the sharded scheduler no lookahead"
    );
    Lan::new(name, LanKind::Ethernet, DelayModel::fixed(one_way), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_sim::SimRng;

    /// The paper's radio RTT claim: a small echo frame should see a
    /// 200–250 ms round trip (two transmissions + two propagations).
    #[test]
    fn radio_rtt_matches_paper_band() {
        let radio = metricom_radio("strip0", MacAddr::from_index(1));
        let cell = radio_cell("net-36-134");
        let mut rng = SimRng::new(3);
        // 60-byte echo frame each way.
        for _ in 0..200 {
            let one_way_a = radio.tx_time(60) + cell.delay().draw(&mut rng);
            let one_way_b = radio.tx_time(60) + cell.delay().draw(&mut rng);
            let rtt = (one_way_a + one_way_b).as_millis();
            assert!(
                (200..=250).contains(&rtt),
                "radio RTT {rtt}ms outside the paper's 200-250ms band"
            );
        }
    }

    /// The paper's effective-throughput claim: bulk transfer should land in
    /// the 30–40 kb/s band (we model exactly 35 kb/s plus overheads).
    #[test]
    fn radio_bulk_throughput_in_band() {
        let radio = metricom_radio("strip0", MacAddr::from_index(1));
        // 10 frames of 500 bytes back to back.
        let total_bits = 10.0 * 500.0 * 8.0;
        let total_time: f64 = (0..10).map(|_| radio.tx_time(500).as_secs_f64()).sum();
        let kbps = total_bits / total_time / 1000.0;
        assert!(
            (25.0..=40.0).contains(&kbps),
            "radio goodput {kbps:.1} kb/s outside 30-40 kb/s band (25 allows framing overhead)"
        );
    }

    #[test]
    fn ethernet_is_fast_and_lossless() {
        let lan = ethernet_lan("net-36-135");
        assert_eq!(lan.loss_probability, 0.0);
        let mut rng = SimRng::new(1);
        assert!(!rng.chance(lan.loss_probability));
        assert_eq!(lan.delay().draw(&mut rng), ETHERNET_PROPAGATION);
    }

    #[test]
    fn infrastructure_ports_need_no_bring_up() {
        let d = wired_ethernet("eth0", MacAddr::from_index(1));
        assert_eq!(d.power.bring_up, SimDuration::ZERO);
    }

    #[test]
    fn mobile_devices_have_substantial_bring_up() {
        let eth = pcmcia_ethernet("eth0", MacAddr::from_index(1));
        let radio = metricom_radio("strip0", MacAddr::from_index(2));
        assert!(radio.power.bring_up > eth.power.bring_up);
        // Cold-switch budget: bring-down + bring-up must stay under the
        // paper's observed 1.25 s window (registration adds the rest).
        let worst = eth.power.bring_down + radio.power.bring_up;
        assert!(worst < SimDuration::from_millis(1250));
    }

    #[test]
    fn backbone_trunk_latency_is_the_lookahead_bound() {
        let trunk = backbone_trunk("backbone", TRUNK_ONE_WAY);
        assert_eq!(trunk.min_latency(), TRUNK_ONE_WAY);
        assert_eq!(trunk.loss_probability, 0.0, "trunks are lossless");
        let mut rng = SimRng::new(9);
        // Fixed delay: no randomness is drawn, so the trunk never
        // perturbs a shard's RNG stream.
        assert_eq!(trunk.delay().draw(&mut rng), TRUNK_ONE_WAY);
        let jittery = radio_cell("cell");
        assert_eq!(
            jittery.min_latency(),
            RADIO_PROPAGATION_BASE - RADIO_PROPAGATION_JITTER,
            "min_latency subtracts jitter"
        );
    }

    #[test]
    fn internet_cloud_delay_is_configurable() {
        let cloud = internet_cloud("cloud", SimDuration::from_millis(30));
        let mut rng = SimRng::new(2);
        assert_eq!(cloud.delay().draw(&mut rng), SimDuration::from_millis(30));
    }
}
