//! Keeps `docs/PROTOCOL.md` honest: every example encoding and every
//! layout constant the document states is re-derived here from the real
//! encoders. If an encoder changes, this test fails until the document
//! (and the goldens) are updated with it.

use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_core::{
    classify, AgentAdvertisement, BindingReplica, BindingUpdate, MessageKind, RegistrationReply,
    RegistrationRequest, ReplicaOp, ReplyCode, AUTH_EXT_LEN, IDENT_WIRE_BITS, REGISTRATION_PORT,
    REPLICA_LEN, REPLY_IDENT_WIRE_BITS, REPLY_LEN, REQUEST_LEN,
};
use mosquitonet_wire::{internet_checksum, WireError, AUTH_TLV_LEN, AUTH_TLV_TYPE};
use proptest::prelude::*;
use proptest::{collection, TestRng};

/// The worked example's parameters, as stated in the document.
const HOME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
const AGENT: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 2);
const CARE_OF: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 42);
const FA: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 4);
const SPI: u32 = 0x100;
const KEY: u64 = 0x6d6f_7371_7569_746f;

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    std::fs::read_to_string(path).expect("docs/PROTOCOL.md must exist")
}

/// Collapses all whitespace runs to single spaces, so assertions are
/// immune to the document's line wrapping.
fn normalized(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Extracts the hex bytes of the fenced block tagged
/// `<!-- doc-sync: name -->`.
fn example(text: &str, name: &str) -> Vec<u8> {
    let marker = format!("<!-- doc-sync: {name} -->");
    let after = text
        .split_once(&marker)
        .unwrap_or_else(|| panic!("marker {marker:?} missing from PROTOCOL.md"))
        .1;
    let fence = after
        .split_once("```")
        .and_then(|(_, rest)| rest.split_once("```"))
        .unwrap_or_else(|| panic!("no fenced block after {marker:?}"))
        .0;
    fence
        .split_whitespace()
        .map(|tok| {
            u8::from_str_radix(tok, 16)
                .unwrap_or_else(|_| panic!("bad hex token {tok:?} under {marker:?}"))
        })
        .collect()
}

fn request() -> RegistrationRequest {
    RegistrationRequest {
        lifetime: 300,
        home_addr: HOME,
        home_agent: AGENT,
        care_of: CARE_OF,
        ident: 7,
        auth: None,
    }
}

fn reply() -> RegistrationReply {
    RegistrationReply {
        code: ReplyCode::Accepted,
        lifetime: 300,
        home_addr: HOME,
        home_agent: AGENT,
        epoch: 1,
        ident: 7,
        auth: None,
    }
}

#[test]
fn doc_protocol_sync_examples_match_encoders() {
    let text = doc();

    let unsigned = request().to_bytes();
    assert_eq!(example(&text, "request-unsigned"), unsigned.as_ref());
    assert_eq!(unsigned.len(), REQUEST_LEN);

    let signed = request().sign(SPI, KEY).to_bytes();
    assert_eq!(example(&text, "request-signed"), signed.as_ref());
    assert_eq!(signed.len(), REQUEST_LEN + AUTH_EXT_LEN);
    assert_eq!(
        &signed[..REQUEST_LEN],
        unsigned.as_ref(),
        "signing must only append, never rewrite the base layout"
    );
    assert!(
        RegistrationRequest::parse(&signed)
            .expect("parse")
            .verify(KEY),
        "the documented signed example must verify with the documented key"
    );

    let reply_unsigned = reply().to_bytes();
    assert_eq!(example(&text, "reply-unsigned"), reply_unsigned.as_ref());
    assert_eq!(reply_unsigned.len(), REPLY_LEN);

    let reply_signed = reply().sign(SPI, KEY).to_bytes();
    assert_eq!(example(&text, "reply-signed"), reply_signed.as_ref());
    assert_eq!(&reply_signed[..REPLY_LEN], reply_unsigned.as_ref());
    assert!(RegistrationReply::parse(&reply_signed)
        .expect("parse")
        .verify(KEY));

    let update = BindingUpdate {
        lifetime: 30,
        home_addr: HOME,
        new_care_of: CARE_OF,
    }
    .to_bytes();
    assert_eq!(example(&text, "update"), update.as_ref());
    assert_eq!(update.len(), 12);

    let replica = BindingReplica {
        op: ReplicaOp::Bind,
        lifetime: 300,
        home_addr: HOME,
        care_of: CARE_OF,
        ident: 7,
    }
    .to_bytes();
    assert_eq!(example(&text, "replica"), replica.as_ref());
    assert_eq!(replica.len(), REPLICA_LEN);

    let advert = AgentAdvertisement {
        seq: 9,
        agent_addr: FA,
    }
    .to_bytes();
    assert_eq!(example(&text, "advertisement"), advert.as_ref());
    assert_eq!(advert.len(), 8);
}

#[test]
fn doc_protocol_sync_tables_state_the_real_constants() {
    let text = normalized(&doc());
    for needed in [
        format!("UDP port {REGISTRATION_PORT}"),
        // Fixed lengths.
        format!("Fixed length {REQUEST_LEN} bytes"),
        format!("Fixed length {REPLY_LEN} bytes"),
        format!("Fixed length {REPLICA_LEN} bytes"),
        "Fixed length 12 bytes".to_string(),
        "Fixed length 8 bytes".to_string(),
        // The authentication TLV.
        format!("extension type = {AUTH_TLV_TYPE}"),
        format!("extension length = {AUTH_TLV_LEN}"),
        format!("{AUTH_TLV_LEN}-byte authentication extension"),
        // Identification widths.
        format!("identification ({IDENT_WIRE_BITS} bits, strictly increasing"),
        format!("identification echo (low {REPLY_IDENT_WIRE_BITS} bits)"),
        // Checksum offsets: always the last two fixed bytes.
        format!(
            "| {} | 2 | Internet checksum over bytes 0–{} |",
            REQUEST_LEN - 2,
            REQUEST_LEN - 3
        ),
        format!(
            "| {} | 2 | Internet checksum over bytes 0–{} |",
            REPLY_LEN - 2,
            REPLY_LEN - 3
        ),
        // The extension trails the fixed layout.
        format!("| {REQUEST_LEN} | {AUTH_EXT_LEN} | authentication extension (optional, below) |"),
        format!("| {REPLY_LEN} | {AUTH_EXT_LEN} | authentication extension (optional) |"),
    ] {
        assert!(
            text.contains(&needed),
            "PROTOCOL.md no longer states {needed:?} — update the document \
             to match the code (or this test to match the document)"
        );
    }
}

/// Every `doc-sync` example in the document.
const EXAMPLES: [&str; 7] = [
    "request-unsigned",
    "request-signed",
    "reply-unsigned",
    "reply-signed",
    "update",
    "replica",
    "advertisement",
];

/// The `(type, offset, size)` of every field a message table marks
/// reserved, read from the `| offset | size | field |` rows under each
/// `… (type N)` heading.
fn reserved_fields(text: &str) -> Vec<(u8, usize, usize)> {
    let mut fields = Vec::new();
    let mut kind = None;
    for line in text.lines() {
        if line.starts_with('#') {
            let heading = line.trim_end().strip_suffix(')');
            kind = heading
                .and_then(|h| h.rsplit_once("type "))
                .and_then(|(_, n)| n.parse::<u8>().ok());
        } else if let (Some(kind), Some(row)) = (kind, line.strip_prefix('|')) {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            if let [offset, size, field, ..] = cells[..] {
                if let (true, Ok(offset), Ok(size)) =
                    (field.contains("reserved"), offset.parse(), size.parse())
                {
                    fields.push((kind, offset, size));
                }
            }
        }
    }
    fields
}

/// Rewrites the trailing body checksum of a checksummed message (types 1,
/// 3 and 5) so it matches the bytes before it, when `buf` is long enough
/// to hold it.
fn reseal(buf: &mut [u8]) {
    let at = match buf.first() {
        Some(1) => REQUEST_LEN - 2,
        Some(3) => REPLY_LEN - 2,
        Some(5) => REPLICA_LEN - 2,
        _ => return,
    };
    if buf.len() >= at + 2 {
        let sum = internet_checksum(&buf[..at], 0);
        buf[at..at + 2].copy_from_slice(&sum.to_be_bytes());
    }
}

/// One parser's verdict on `data`: on success, its kind and its
/// re-encoding, which must parse back to the same message.
fn verdict<M: PartialEq + std::fmt::Debug>(
    kind: MessageKind,
    data: &[u8],
    parse: fn(&[u8]) -> Result<M, WireError>,
    encode: fn(&M) -> Bytes,
) -> Option<(MessageKind, Bytes)> {
    let message = parse(data).ok()?;
    let bytes = encode(&message);
    assert_eq!(
        parse(&bytes),
        Ok(message),
        "{kind:?} re-parses its own encoding"
    );
    Some((kind, bytes))
}

/// Random bytes almost never pass a 16-bit body checksum, so a fuzzer over
/// raw bytes rarely reaches the parsers' success path. This one starts
/// from the document's examples, truncates, extends or overwrites them,
/// and re-seals the checksum. Whatever parses must be the one message
/// `classify` names, must round-trip, and must re-encode to the bytes it
/// consumed, except for fields the document marks reserved (sent as zero,
/// ignored on receipt).
#[test]
fn resealed_mutations_of_the_doc_examples_parse_consistently() {
    let text = doc();
    let examples = EXAMPLES.map(|name| example(&text, name));
    let reserved = reserved_fields(&text);
    let edit = (0u8..3, any::<u64>(), collection::vec(any::<u8>(), 1..12));
    let edits = collection::vec(edit, 1..4);
    let mut rng = TestRng::from_name("resealed_mutations_of_the_doc_examples");
    let mut successes = std::collections::HashMap::new();
    for case in 0..4096 {
        let mut data = examples[case % examples.len()].clone();
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
        reseal(&mut data);
        let verdicts: Vec<_> = [
            verdict(
                MessageKind::Request,
                &data,
                RegistrationRequest::parse,
                RegistrationRequest::to_bytes,
            ),
            verdict(
                MessageKind::Reply,
                &data,
                RegistrationReply::parse,
                RegistrationReply::to_bytes,
            ),
            verdict(
                MessageKind::Update,
                &data,
                BindingUpdate::parse,
                BindingUpdate::to_bytes,
            ),
            verdict(
                MessageKind::Replica,
                &data,
                BindingReplica::parse,
                BindingReplica::to_bytes,
            ),
            verdict(
                MessageKind::Advertisement,
                &data,
                AgentAdvertisement::parse,
                AgentAdvertisement::to_bytes,
            ),
        ]
        .into_iter()
        .flatten()
        .collect();
        assert!(verdicts.len() <= 1, "case {case}: {data:02x?} parses twice");
        let Some((kind, encoded)) = verdicts.into_iter().next() else {
            continue;
        };
        assert_eq!(classify(&data), Some(kind), "case {case}: {data:02x?}");
        *successes.entry(format!("{kind:?}")).or_insert(0) += 1;
        // The consumed prefix, with reserved fields zeroed and the checksum
        // re-sealed over them, is exactly what the encoder writes.
        assert!(encoded.len() <= data.len(), "case {case}: {data:02x?}");
        let mut expected = data[..encoded.len()].to_vec();
        for &(_, offset, size) in reserved.iter().filter(|r| r.0 == data[0]) {
            expected[offset..offset + size].fill(0);
        }
        reseal(&mut expected);
        assert_eq!(
            expected,
            encoded.as_ref(),
            "case {case}: {kind:?} drops a field PROTOCOL.md does not mark reserved"
        );
    }
    assert_eq!(
        successes.len(),
        5,
        "every parser succeeds somewhere: {successes:?}"
    );
}
