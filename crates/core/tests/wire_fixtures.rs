//! The exact wire bytes of the messages whose encoders write into a stack
//! array: registration requests and replies (unkeyed and keyed), binding
//! replicas, ICMP errors quoting a 28-byte invoking packet, binding
//! updates, agent advertisements, IGMP messages and DHCP messages.
//!
//! The hex literals are the output of the earlier encoders, which built
//! each message in a growable `BytesMut`. How a message is buffered must
//! not move a byte of it, so each literal is held byte for byte.

use bytes::Bytes;
use mosquitonet_core::{
    AgentAdvertisement, BindingReplica, BindingUpdate, RegistrationReply, RegistrationRequest,
    ReplicaOp, ReplyCode,
};
use mosquitonet_dhcp::{DhcpMessage, DhcpOp};
use mosquitonet_wire::{
    IcmpMessage, IgmpMessage, IpProto, Ipv4Header, Ipv4Packet, MacAddr, UnreachableCode,
};
use std::net::Ipv4Addr;

const HOME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
const AGENT: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 1);
const CARE_OF: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 42);
const SPI: u32 = 7;
const KEY: u64 = 0xdead_beef_cafe_f00d;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn request() -> RegistrationRequest {
    RegistrationRequest {
        lifetime: 300,
        home_addr: HOME,
        home_agent: AGENT,
        care_of: CARE_OF,
        ident: 0x0102_0304_0506,
        auth: None,
    }
}

fn reply() -> RegistrationReply {
    RegistrationReply {
        code: ReplyCode::DeniedIdent,
        lifetime: 300,
        home_addr: HOME,
        home_agent: AGENT,
        epoch: 3,
        ident: 0x0a0b_0c0d,
        auth: None,
    }
}

/// The quote an ICMP error carries: a 20-byte header and the first 8 of
/// the 40 payload bytes of a UDP packet whose TTL ran out.
fn quote() -> Bytes {
    let mut header = Ipv4Header::new(CARE_OF, Ipv4Addr::new(171, 64, 15, 9), IpProto::Udp);
    header.ident = 0x1234;
    header.ttl = 1;
    let quote =
        Ipv4Packet::new(header, Bytes::from((0u8..40).collect::<Vec<u8>>())).invoking_quote();
    assert_eq!(quote.len(), 28);
    quote
}

#[test]
fn registration_requests_keep_their_bytes() {
    assert_eq!(
        hex(&request().to_bytes()),
        "0100012c24870009248700012408002a010203040506877d"
    );
    assert_eq!(
        hex(&request().sign(SPI, KEY).to_bytes()),
        "0100012c24870009248700012408002a010203040506877d200e00000007aa7e1447014aafe5"
    );
}

#[test]
fn registration_replies_keep_their_bytes() {
    assert_eq!(
        hex(&reply().to_bytes()),
        "0385012c248700092487000100030a0b0c0d9c1b"
    );
    assert_eq!(
        hex(&reply().sign(SPI, KEY).to_bytes()),
        "0385012c248700092487000100030a0b0c0d9c1b200e00000007f4653e3a184bcf8c"
    );
}

#[test]
fn binding_replicas_keep_their_bytes() {
    let bind = BindingReplica {
        op: ReplicaOp::Bind,
        lifetime: 300,
        home_addr: HOME,
        care_of: CARE_OF,
        ident: 0x0102_0304_0506,
    };
    let unbind = BindingReplica {
        op: ReplicaOp::Unbind,
        lifetime: 0,
        care_of: Ipv4Addr::UNSPECIFIED,
        ident: 0x0102_0304_0507,
        ..bind
    };
    assert_eq!(
        hex(&bind.to_bytes()),
        "0500012c248700092408002a010203040506a805"
    );
    assert_eq!(
        hex(&unbind.to_bytes()),
        "050100002487000900000000010203040507cd61"
    );
}

#[test]
fn icmp_errors_keep_their_bytes() {
    let unreachable = IcmpMessage::DestUnreachable {
        code: UnreachableCode::Port,
        invoking: quote(),
    };
    let expired = IcmpMessage::TimeExceeded { invoking: quote() };
    assert_eq!(
        hex(&unreachable.to_bytes()),
        "0303f0ec000000004500003c12344000011189022408002aab400f090001020304050607"
    );
    assert_eq!(
        hex(&expired.to_bytes()),
        "0b00e8ef000000004500003c12344000011189022408002aab400f090001020304050607"
    );
}

#[test]
fn binding_updates_and_advertisements_keep_their_bytes() {
    let update = BindingUpdate {
        lifetime: 10,
        home_addr: HOME,
        new_care_of: CARE_OF,
    };
    let advert = AgentAdvertisement {
        seq: 0x0102,
        agent_addr: AGENT,
    };
    assert_eq!(hex(&update.to_bytes()), "0400000a248700092408002a");
    assert_eq!(hex(&advert.to_bytes()), "1000010224870001");
}

#[test]
fn igmp_messages_keep_their_bytes() {
    let group = Ipv4Addr::new(224, 0, 0, 251);
    assert_eq!(
        hex(&IgmpMessage::MembershipQuery { group }.to_bytes()),
        "11000e04e00000fb"
    );
    assert_eq!(
        hex(&IgmpMessage::MembershipReport { group }.to_bytes()),
        "16000904e00000fb"
    );
    assert_eq!(
        hex(&IgmpMessage::LeaveGroup { group }.to_bytes()),
        "17000804e00000fb"
    );
}

#[test]
fn dhcp_messages_keep_their_bytes() {
    let mac = MacAddr::from_index(20);
    let discover = DhcpMessage::discover(0x1122_3344, mac);
    let offer = DhcpMessage {
        op: DhcpOp::Offer,
        yiaddr: CARE_OF,
        server: Ipv4Addr::new(36, 8, 0, 2),
        prefix_len: 16,
        router: Ipv4Addr::new(36, 8, 0, 1),
        lease_secs: 600,
        ..discover
    };
    let request = DhcpMessage::request(offer.xid, mac, &offer);
    let release = DhcpMessage::release(0x5566_7788, mac, CARE_OF, offer.server);
    assert_eq!(
        hex(&discover.to_bytes()),
        "010011223344020000000014000000000000000000000000000000000000"
    );
    assert_eq!(
        hex(&offer.to_bytes()),
        "0200112233440200000000142408002a2408000210002408000100000258"
    );
    assert_eq!(
        hex(&request.to_bytes()),
        "0300112233440200000000142408002a2408000210002408000100000258"
    );
    assert_eq!(
        hex(&release.to_bytes()),
        "0600556677880200000000142408002a2408000200000000000000000000"
    );
}
