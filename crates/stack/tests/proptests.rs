//! Property-based tests for the stack's core data structures: the routing
//! table against a naive model, the UDP socket table, the ARP state
//! machine, and TCP stream delivery under arbitrary loss/duplication.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use mosquitonet_sim::SimTime;
use mosquitonet_stack::{ArpState, IfaceId, ModuleId, RouteEntry, RouteTable, TcpTable, UdpTable};
use mosquitonet_wire::{ArpOp, ArpPacket, Cidr, MacAddr};

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    // A small address universe so prefixes actually collide.
    (0u32..4, 0u32..4, 0u32..4, 0u32..8)
        .prop_map(|(a, b, c, d)| Ipv4Addr::new(10, (a * 4 + b) as u8, c as u8, d as u8))
}

fn arb_route() -> impl Strategy<Value = RouteEntry> {
    (arb_addr(), 0u8..=32, 0usize..4, 0u32..4, any::<bool>()).prop_map(
        |(addr, len, iface, metric, has_gw)| RouteEntry {
            dest: Cidr::new(addr, len),
            gateway: has_gw.then_some(Ipv4Addr::new(10, 0, 0, 1)),
            iface: IfaceId(iface),
            metric,
        },
    )
}

/// The specification: longest prefix wins; lower metric breaks ties;
/// among full ties, the later-added entry (same dest+iface replaces).
fn model_lookup(entries: &[RouteEntry], dst: Ipv4Addr) -> Option<(u8, u32)> {
    entries
        .iter()
        .filter(|e| e.dest.contains(dst))
        .map(|e| (e.dest.prefix_len(), e.metric))
        .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
}

proptest! {
    /// The routing table agrees with the naive longest-prefix model on
    /// prefix length and metric of the winner.
    #[test]
    fn route_table_matches_model(
        routes in proptest::collection::vec(arb_route(), 0..40),
        lookups in proptest::collection::vec(arb_addr(), 1..20),
    ) {
        let mut rt = RouteTable::new();
        let mut kept: Vec<RouteEntry> = Vec::new();
        for r in &routes {
            // Mirror the replace-on-same-(dest, iface) semantics.
            kept.retain(|e| !(e.dest == r.dest && e.iface == r.iface));
            kept.push(*r);
            rt.add(*r);
        }
        for dst in lookups {
            match (rt.lookup(dst), model_lookup(&kept, dst)) {
                (None, None) => {}
                (Some(hit), Some((len, metric))) => {
                    prop_assert_eq!(hit.dest.prefix_len(), len);
                    prop_assert_eq!(hit.metric, metric);
                    prop_assert!(hit.dest.contains(dst));
                }
                (got, want) => prop_assert!(false, "mismatch: got {got:?}, want {want:?}"),
            }
        }
    }

    /// remove_iface removes exactly the routes through that interface.
    #[test]
    fn remove_iface_is_exact(routes in proptest::collection::vec(arb_route(), 0..30), iface in 0usize..4) {
        let mut rt = RouteTable::new();
        for r in &routes {
            rt.add(*r);
        }
        let before = rt.len();
        let via: usize = rt.entries().iter().filter(|e| e.iface == IfaceId(iface)).count();
        let removed = rt.remove_iface(IfaceId(iface));
        prop_assert_eq!(removed, via);
        prop_assert_eq!(rt.len(), before - via);
        prop_assert!(rt.entries().iter().all(|e| e.iface != IfaceId(iface)));
    }

    /// UDP delivery: exact binds beat wildcards; the chosen socket always
    /// matches the port; no socket found implies none matches.
    #[test]
    fn udp_table_delivery_respects_specificity(
        binds in proptest::collection::vec((any::<bool>(), 1u16..6, 0usize..3), 0..12),
        dst_port in 1u16..6,
        dst_addr_idx in 0usize..3,
    ) {
        let addrs = [
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 3),
        ];
        let mut table = UdpTable::new();
        let mut ok_binds = Vec::new();
        for (wild, port, addr_idx) in binds {
            let addr = (!wild).then_some(addrs[addr_idx]);
            if let Some(id) = table.bind(ModuleId(0), addr, port) {
                ok_binds.push((id, addr, port));
            }
        }
        let dst = addrs[dst_addr_idx];
        match table.deliver_to(dst, dst_port) {
            Some(sock) => {
                let (_, addr, port) = ok_binds.iter().find(|(id, _, _)| *id == sock).expect("known socket");
                prop_assert_eq!(*port, dst_port);
                // If an exact bind exists for (dst, port), the match must be exact.
                let exact_exists = ok_binds.iter().any(|(_, a, p)| *p == dst_port && *a == Some(dst));
                if exact_exists {
                    prop_assert_eq!(*addr, Some(dst));
                } else {
                    prop_assert_eq!(*addr, None);
                }
            }
            None => {
                let any_match = ok_binds
                    .iter()
                    .any(|(_, a, p)| *p == dst_port && (a.is_none() || *a == Some(dst)));
                prop_assert!(!any_match);
            }
        }
    }

    /// ARP: whatever sequence of inputs arrives, a reply is only ever
    /// generated for our own or proxied addresses, and a resolved cache
    /// entry reflects the most recent claim.
    #[test]
    fn arp_replies_only_for_owned_or_proxied(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u8..4), 1..40),
    ) {
        let me = Ipv4Addr::new(10, 0, 0, 1);
        let proxied = Ipv4Addr::new(10, 0, 0, 2);
        let my_mac = MacAddr::from_index(1);
        let mut arp = ArpState::new();
        arp.add_proxy(proxied);
        let addr = |i: u8| Ipv4Addr::new(10, 0, 0, i);
        for (op, sender, target) in ops {
            let pkt = ArpPacket {
                op: if op == 0 { ArpOp::Reply } else { ArpOp::Request },
                sender_mac: MacAddr::from_index(u32::from(sender) + 10),
                sender_ip: addr(sender),
                target_mac: MacAddr::ZERO,
                target_ip: addr(target),
            };
            let (_, action) = arp.input(&pkt, my_mac, |a| a == me, SimTime::ZERO);
            match action {
                mosquitonet_stack::ArpAction::Reply(r) => {
                    prop_assert!(r.sender_ip == me || r.sender_ip == proxied);
                    prop_assert_eq!(r.sender_mac, my_mac);
                }
                mosquitonet_stack::ArpAction::None => {}
            }
        }
    }

    /// TCP: under arbitrary per-segment drop/duplicate decisions (with
    /// retransmission timers fired whenever the exchange stalls), the
    /// receiver ends up with exactly the sent stream, in order.
    #[test]
    fn tcp_stream_survives_drops_and_duplicates(
        payload_len in 1usize..3000,
        chaos in proptest::collection::vec(0u8..4, 1..400),
    ) {
        let a_ip = Ipv4Addr::new(10, 0, 0, 1);
        let b_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut client = TcpTable::new();
        let mut server = TcpTable::new();
        server.listen(ModuleId(0), None, 80);
        let (cid, out) = client.connect(ModuleId(0), (a_ip, 2000), (b_ip, 80));
        let data: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();

        let mut to_server: Vec<_> = out.send;
        let mut to_client: Vec<_> = Vec::new();
        let mut received: Vec<u8> = Vec::new();
        let mut sent_data = false;
        // Finite chaos: once the script is exhausted, segments deliver
        // normally, so progress is guaranteed.
        let mut chaos_iter = chaos.into_iter();
        let mut sid = None;

        // Drive until the full stream arrives (bounded rounds).
        for _round in 0..10_000 {
            if received.len() >= data.len() {
                break;
            }
            // Move one segment each way, subject to chaos: 0 = deliver,
            // 1 = drop, 2 = duplicate, 3 = deliver.
            if let Some(seg) = (!to_server.is_empty()).then(|| to_server.remove(0)) {
                let c = chaos_iter.next().unwrap_or(0);
                let copies = match c { 1 => 0, 2 => 2, _ => 1 };
                for _ in 0..copies {
                    let id = match server.lookup(b_ip, 80, a_ip, 2000) {
                        Some(id) => id,
                        None => {
                            if seg.flags.syn && !seg.flags.ack {
                                let l = server.lookup_listener(b_ip, 80).expect("listener");
                                let (id, o) = server.accept(l, (b_ip, 80), (a_ip, 2000), &seg);
                                to_client.extend(o.send);
                                sid = Some(id);
                                continue;
                            }
                            continue;
                        }
                    };
                    sid = Some(id);
                    let o = server.on_segment(id, &seg);
                    for ev in &o.events {
                        if let mosquitonet_stack::TcpEvent::Data(d) = ev {
                            received.extend_from_slice(d);
                        }
                    }
                    to_client.extend(o.send);
                }
            } else if let Some(seg) = (!to_client.is_empty()).then(|| to_client.remove(0)) {
                let c = chaos_iter.next().unwrap_or(0);
                let copies = match c { 1 => 0, 2 => 2, _ => 1 };
                for _ in 0..copies {
                    let o = client.on_segment(cid, &seg);
                    to_server.extend(o.send);
                    if o.events.contains(&mosquitonet_stack::TcpEvent::Connected) && !sent_data {
                        sent_data = true;
                        let o2 = client.send(cid, &data);
                        to_server.extend(o2.send);
                    }
                }
            } else {
                // Stalled: fire retransmission timers.
                let o = client.on_rto(cid);
                to_server.extend(o.send);
                if let Some(id) = sid {
                    let o = server.on_rto(id);
                    to_client.extend(o.send);
                }
                if !sent_data && client.get(cid).expect("conn").state
                    == mosquitonet_stack::TcpState::Established
                {
                    sent_data = true;
                    let o2 = client.send(cid, &data);
                    to_server.extend(o2.send);
                }
            }
        }
        prop_assert_eq!(&received, &data, "stream delivered exactly, in order");
    }
}
