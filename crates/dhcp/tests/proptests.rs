//! Property-based tests for DHCP: message robustness and server-side
//! lease-allocation invariants.

use proptest::prelude::*;
use proptest::{collection, TestRng};
use std::net::Ipv4Addr;

use mosquitonet_dhcp::{DhcpMessage, DhcpOp};
use mosquitonet_wire::MacAddr;

fn arb_op() -> impl Strategy<Value = DhcpOp> {
    prop_oneof![
        Just(DhcpOp::Discover),
        Just(DhcpOp::Offer),
        Just(DhcpOp::Request),
        Just(DhcpOp::Ack),
        Just(DhcpOp::Nak),
        Just(DhcpOp::Release),
    ]
}

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_message() -> impl Strategy<Value = DhcpMessage> {
    (
        (arb_op(), any::<u32>(), any::<[u8; 6]>()),
        (arb_addr(), arb_addr(), 0u8..=32, arb_addr(), any::<u32>()),
    )
        .prop_map(
            |((op, xid, mac), (yiaddr, server, prefix_len, router, lease_secs))| DhcpMessage {
                op,
                xid,
                client_mac: MacAddr(mac),
                yiaddr,
                server,
                prefix_len,
                router,
                lease_secs,
            },
        )
}

/// The message length and the two bytes the layout table in
/// `dhcp::messages` marks reserved.
const LEN: usize = 30;
const RESERVED: [usize; 2] = [1, 21];

/// Starts from random bytes or from the encoding of a discover, request,
/// release or random message, then truncates, extends or overwrites it
/// (the mutation `core`'s `doc_sync` applies to PROTOCOL.md's examples).
/// Whatever parses must round-trip and re-encode to the 30 bytes it was
/// parsed from, reserved bytes zeroed.
#[test]
fn mutated_messages_parse_consistently() {
    let start = (0u8..5, collection::vec(any::<u8>(), 0..80), arb_message());
    let edit = (0u8..3, any::<u64>(), collection::vec(any::<u8>(), 1..12));
    let edits = collection::vec(edit, 1..4);
    let mut rng = TestRng::from_name("mutated_messages_parse_consistently");
    let mut parsed = 0;
    for case in 0..4096 {
        let (kind, random, m) = start.generate(&mut rng);
        let encoded = match kind {
            1 => DhcpMessage::discover(m.xid, m.client_mac),
            2 => DhcpMessage::request(m.xid, m.client_mac, &m),
            3 => DhcpMessage::release(m.xid, m.client_mac, m.yiaddr, m.server),
            _ => m,
        };
        let mut data = match kind {
            0 => random,
            _ => encoded.to_bytes().to_vec(),
        };
        for (op, at, bytes) in edits.generate(&mut rng) {
            match op {
                0 => data.truncate(at as usize % (data.len() + 1)),
                1 => data.extend_from_slice(&bytes),
                _ if data.is_empty() => {}
                _ => {
                    let i = at as usize % data.len();
                    data[i] = bytes[0];
                }
            }
        }
        let Ok(m) = DhcpMessage::parse(&data) else {
            continue;
        };
        parsed += 1;
        let encoded = m.to_bytes();
        assert_eq!(DhcpMessage::parse(&encoded), Ok(m), "case {case}");
        let mut expected = data[..LEN].to_vec();
        for at in RESERVED {
            expected[at] = 0;
        }
        assert_eq!(expected, encoded.as_ref(), "case {case}: {data:02x?}");
    }
    assert!(parsed >= 1_000, "only {parsed} of 4096 cases parse");
}

proptest! {
    /// Every well-formed message round-trips bit-exactly.
    #[test]
    fn message_round_trips(
        op in arb_op(),
        xid in any::<u32>(),
        mac in any::<[u8; 6]>(),
        yiaddr in arb_addr(),
        server in arb_addr(),
        prefix_len in 0u8..=32,
        router in arb_addr(),
        lease_secs in any::<u32>(),
    ) {
        let m = DhcpMessage {
            op,
            xid,
            client_mac: MacAddr(mac),
            yiaddr,
            server,
            prefix_len,
            router,
            lease_secs,
        };
        prop_assert_eq!(DhcpMessage::parse(&m.to_bytes()).unwrap(), m);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = DhcpMessage::parse(&data);
    }

    /// Single-bit corruption of the op or prefix fields is always caught
    /// or yields a *different* well-formed message — never a panic.
    #[test]
    fn bitflips_are_tolerated(
        xid in any::<u32>(),
        mac in any::<[u8; 6]>(),
        bit in 0usize..(30 * 8),
    ) {
        let m = DhcpMessage::discover(xid, MacAddr(mac));
        let mut bytes = m.to_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = DhcpMessage::parse(&bytes); // must not panic
    }

    /// Request-from-offer preserves every binding-relevant field.
    #[test]
    fn request_preserves_offer(
        xid in any::<u32>(),
        mac in any::<[u8; 6]>(),
        yiaddr in arb_addr(),
        server in arb_addr(),
        prefix_len in 0u8..=32,
        router in arb_addr(),
        lease_secs in any::<u32>(),
    ) {
        let offer = DhcpMessage {
            op: DhcpOp::Offer,
            xid,
            client_mac: MacAddr(mac),
            yiaddr,
            server,
            prefix_len,
            router,
            lease_secs,
        };
        let req = DhcpMessage::request(xid, MacAddr(mac), &offer);
        prop_assert_eq!(req.op, DhcpOp::Request);
        prop_assert_eq!(req.yiaddr, offer.yiaddr);
        prop_assert_eq!(req.server, offer.server);
        prop_assert_eq!(req.router, offer.router);
        prop_assert_eq!(req.prefix_len, offer.prefix_len);
        prop_assert_eq!(req.lease_secs, offer.lease_secs);
        prop_assert_eq!(req.subnet(), offer.subnet());
    }
}
