//! The MosquitoNet registration protocol wire format.
//!
//! Modeled on the IETF Mobile IP draft the paper based its implementation
//! on (Perkins, "IP Mobility Support", July 1995 — later RFC 2002):
//! registration requests and replies on UDP port 434, an identification
//! field for replay protection, and an optional authentication extension.
//! The paper implemented no authentication ("We do not yet implement any
//! special security measures", §2) but names the requirement (§5.1), so
//! the extension is here and off by default.
//!
//! A *binding update* message (used by the foreign-agent baseline's
//! previous-FA forwarding, §5.1 "Packet loss"), the home agents' *binding
//! replica* and the FA's *agent advertisement* are also defined here.
//!
//! Every message is a type byte and a fixed body. Requests, replies and
//! replicas end that body in a 16-bit Internet checksum; requests and
//! replies may be followed by one authentication extension. `open` checks
//! that framing for every parser and `seal` writes the trailer for every
//! encoder.

use bytes::{BufMut, Bytes};
use std::net::Ipv4Addr;

use mosquitonet_wire::{internet_checksum, need, verify_checksum, ArrayBuf, AuthTlv, WireError};

/// UDP port for registration traffic (RFC 2002's 434).
pub const REGISTRATION_PORT: u16 = 434;

/// Fixed length of a registration request (without extensions): a 22-byte
/// body followed by a 16-bit Internet checksum over that body. UDP's
/// pseudo-header checksum already guards the datagram in flight, but
/// registrations change routing state, so the message carries its own
/// end-to-end checksum — a corrupt request or reply must be *detected and
/// counted*, never acted on. The checksum's two bytes come out of the
/// identification field (48 bits on the wire instead of the draft's 64;
/// see [`IDENT_WIRE_BITS`]), so the frame is the same size as the
/// checksum-less original and the calibrated Figure 7 time-line is
/// unchanged.
pub const REQUEST_LEN: usize = 24;

/// Fixed length of a registration reply (without extensions): an 18-byte
/// body followed by the same trailing 16-bit checksum as [`REQUEST_LEN`].
pub const REPLY_LEN: usize = 20;

/// Width of the identification field on the wire. The draft carries
/// 64 bits; this format spends two of those bytes on the end-to-end body
/// checksum instead. Identifications are monotonically increasing
/// per-binding counters, so 2^48 values are unreachable in practice —
/// serialization masks to this width and replay comparison is unaffected.
pub const IDENT_WIRE_BITS: u32 = 48;

/// Width of the identification echo in a *reply*. Two further bytes of
/// the reply's identification field carry the home agent's boot
/// [`RegistrationReply::epoch`], leaving 32 bits for the echo — still far
/// beyond any reachable counter value. An agent that has never restarted
/// sends epoch 0, which makes the encoding byte-identical to the earlier
/// 48-bit layout for all reachable identifications.
pub const REPLY_IDENT_WIRE_BITS: u32 = 32;

/// Masks an identification down to its wire width.
#[inline]
fn ident_wire(ident: u64) -> u64 {
    ident & ((1 << IDENT_WIRE_BITS) - 1)
}

/// Reads a 48-bit big-endian identification from `b`.
#[inline]
fn ident_from_wire(b: &[u8]) -> u64 {
    u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
}

/// Reads the IPv4 address at `buf[at..at + 4]`.
#[inline]
fn addr_at(buf: &[u8], at: usize) -> Ipv4Addr {
    Ipv4Addr::new(buf[at], buf[at + 1], buf[at + 2], buf[at + 3])
}

/// Reads the big-endian `u16` at `buf[at..at + 2]`.
#[inline]
fn u16_at(buf: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([buf[at], buf[at + 1]])
}

/// The framing check every parser shares, in this order: at least `len`
/// bytes, type byte `ty`, and — for a `summed` message — a valid body
/// checksum in the last two of those `len` bytes.
#[inline]
fn open(buf: &[u8], ty: u8, len: usize, summed: bool) -> Result<(), WireError> {
    need(buf, len)?;
    if buf[0] != ty {
        return Err(WireError::UnknownValue {
            field: "registration type",
            value: u16::from(buf[0]),
        });
    }
    if summed && !verify_checksum(&buf[..len], 0) {
        return Err(WireError::BadChecksum);
    }
    Ok(())
}

/// A checksummed message under construction, written in place on the
/// stack. Its capacity is the longest such message: a request and its
/// authentication extension.
type Body = ArrayBuf<{ REQUEST_LEN + AUTH_EXT_LEN }>;

/// The trailer every checksummed encoder writes: the 16-bit Internet
/// checksum over `body`, then the authentication extension when present.
/// The sealed message is copied out in one allocation.
#[inline]
fn seal(mut body: Body, auth: Option<AuthTlv>) -> Bytes {
    body.put_u16(internet_checksum(&body, 0));
    if let Some(a) = auth {
        a.encode_into(&mut body);
    }
    Bytes::copy_from_slice(&body)
}

/// Body length of a request, excluding the trailing checksum.
const REQUEST_BODY_LEN: usize = REQUEST_LEN - 2;

/// Body length of a reply, excluding the trailing checksum.
const REPLY_BODY_LEN: usize = REPLY_LEN - 2;

/// Length of the optional authentication extension (see
/// [`mosquitonet_wire::AUTH_TLV_LEN`] — the encoding lives in the wire
/// crate alongside the checksum it complements).
pub const AUTH_EXT_LEN: usize = mosquitonet_wire::AUTH_TLV_LEN;

/// Reply codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplyCode {
    /// Registration accepted.
    Accepted,
    /// Denied: identification did not advance (replay suspected).
    DeniedIdent,
    /// Denied: authentication missing or wrong.
    DeniedAuth,
    /// Denied: this agent is not the home agent for that address.
    DeniedUnknownHome,
    /// Denied: requested lifetime too long (reply carries the cap).
    DeniedLifetime,
}

impl ReplyCode {
    const ALL: [ReplyCode; 5] = [
        ReplyCode::Accepted,
        ReplyCode::DeniedIdent,
        ReplyCode::DeniedAuth,
        ReplyCode::DeniedUnknownHome,
        ReplyCode::DeniedLifetime,
    ];

    #[inline]
    fn number(self) -> u8 {
        match self {
            ReplyCode::Accepted => 0,
            ReplyCode::DeniedIdent => 133,
            ReplyCode::DeniedAuth => 131,
            ReplyCode::DeniedUnknownHome => 136,
            ReplyCode::DeniedLifetime => 134,
        }
    }

    #[inline]
    fn from_number(n: u8) -> Result<ReplyCode, WireError> {
        ReplyCode::ALL
            .into_iter()
            .find(|c| c.number() == n)
            .ok_or(WireError::UnknownValue {
                field: "reply code",
                value: u16::from(n),
            })
    }
}

/// A registration request (type 1): "please forward my packets to this
/// care-of address".
///
/// With `lifetime == 0` (or `care_of == home_addr`) this is a
/// *deregistration* — the mobile host has come home.
///
/// # Examples
///
/// ```
/// use mosquitonet_core::RegistrationRequest;
/// use std::net::Ipv4Addr;
///
/// let req = RegistrationRequest {
///     lifetime: 300,
///     home_addr: Ipv4Addr::new(36, 135, 0, 9),
///     home_agent: Ipv4Addr::new(36, 135, 0, 1),
///     care_of: Ipv4Addr::new(36, 8, 0, 42),
///     ident: 1,
///     auth: None,
/// }
/// .sign(7, 0xdead_beef);
/// let parsed = RegistrationRequest::parse(&req.to_bytes()).unwrap();
/// assert!(parsed.verify(0xdead_beef));
/// assert!(!parsed.is_deregistration());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegistrationRequest {
    /// Requested binding lifetime in seconds (0 = deregister).
    pub lifetime: u16,
    /// The mobile host's permanent home address.
    pub home_addr: Ipv4Addr,
    /// The home agent being addressed.
    pub home_agent: Ipv4Addr,
    /// The care-of address — in MosquitoNet, the mobile host's own
    /// temporary address ("we have collocated a simple foreign agent on
    /// the mobile host itself", §2).
    pub care_of: Ipv4Addr,
    /// Monotonically increasing value for replay protection.
    pub ident: u64,
    /// Optional authentication: a keyed digest over the body.
    pub auth: Option<AuthTlv>,
}

impl RegistrationRequest {
    /// True when this request de-registers the mobile host.
    pub fn is_deregistration(&self) -> bool {
        self.lifetime == 0 || self.care_of == self.home_addr
    }

    #[inline]
    fn body_bytes(&self) -> Body {
        let mut buf = Body::default();
        buf.put_u8(1); // type
        buf.put_u8(0); // flags (reserved)
        buf.put_u16(self.lifetime);
        buf.put_slice(&self.home_addr.octets());
        buf.put_slice(&self.home_agent.octets());
        buf.put_slice(&self.care_of.octets());
        buf.put_slice(&ident_wire(self.ident).to_be_bytes()[2..]);
        debug_assert_eq!(buf.len(), REQUEST_BODY_LEN);
        buf
    }

    /// Serializes; if `auth` is present its digest must already be set
    /// (use [`RegistrationRequest::sign`]). The 16-bit Internet checksum
    /// over the body is appended before any extension.
    #[inline]
    pub fn to_bytes(&self) -> Bytes {
        seal(self.body_bytes(), self.auth)
    }

    /// Attaches an authentication extension computed with `key`.
    pub fn sign(mut self, spi: u32, key: u64) -> RegistrationRequest {
        self.auth = Some(AuthTlv::compute(&self.body_bytes(), spi, key));
        self
    }

    /// Verifies the attached extension against `key`.
    pub fn verify(&self, key: u64) -> bool {
        self.auth.is_some_and(|a| a.verify(&self.body_bytes(), key))
    }

    /// Parses from bytes, verifying the trailing body checksum.
    #[inline]
    pub fn parse(buf: &[u8]) -> Result<RegistrationRequest, WireError> {
        open(buf, 1, REQUEST_LEN, true)?;
        let auth = AuthTlv::parse_trailing(&buf[REQUEST_LEN..])?;
        Ok(RegistrationRequest {
            lifetime: u16_at(buf, 2),
            home_addr: addr_at(buf, 4),
            home_agent: addr_at(buf, 8),
            care_of: addr_at(buf, 12),
            ident: ident_from_wire(&buf[16..22]),
            auth,
        })
    }
}

/// A registration reply (type 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegistrationReply {
    /// Acceptance or denial.
    pub code: ReplyCode,
    /// Granted lifetime in seconds (may be shorter than requested).
    pub lifetime: u16,
    /// The home address the reply concerns.
    pub home_addr: Ipv4Addr,
    /// The replying home agent.
    pub home_agent: Ipv4Addr,
    /// The agent's boot epoch: incremented on every restart, so a mobile
    /// host can detect that the agent rebooted (and may have lost state)
    /// even when the reply itself is an accept. Carried in the top 16 bits
    /// of the draft's identification field (see [`REPLY_IDENT_WIRE_BITS`]).
    pub epoch: u16,
    /// Echo of the request's identification.
    pub ident: u64,
    /// Optional authentication. A keyed home agent signs its replies so a
    /// mobile host can reject forged denials (an off-path attacker must
    /// not be able to knock down a binding by spoofing a `DeniedAuth`).
    pub auth: Option<AuthTlv>,
}

impl RegistrationReply {
    #[inline]
    fn body_bytes(&self) -> Body {
        let mut buf = Body::default();
        buf.put_u8(3);
        buf.put_u8(self.code.number());
        buf.put_u16(self.lifetime);
        buf.put_slice(&self.home_addr.octets());
        buf.put_slice(&self.home_agent.octets());
        buf.put_u16(self.epoch);
        buf.put_u32((self.ident & u64::from(u32::MAX)) as u32);
        debug_assert_eq!(buf.len(), REPLY_BODY_LEN);
        buf
    }

    /// Serializes to bytes, appending the 16-bit body checksum and then
    /// the authentication extension when present (same trailer order as a
    /// request, so an unkeyed reply is byte-identical to the pre-auth
    /// layout).
    #[inline]
    pub fn to_bytes(&self) -> Bytes {
        seal(self.body_bytes(), self.auth)
    }

    /// Attaches an authentication extension computed with `key`.
    pub fn sign(mut self, spi: u32, key: u64) -> RegistrationReply {
        self.auth = Some(AuthTlv::compute(&self.body_bytes(), spi, key));
        self
    }

    /// Verifies the attached extension against `key`.
    pub fn verify(&self, key: u64) -> bool {
        self.auth.is_some_and(|a| a.verify(&self.body_bytes(), key))
    }

    /// Parses from bytes, verifying the trailing body checksum.
    #[inline]
    pub fn parse(buf: &[u8]) -> Result<RegistrationReply, WireError> {
        open(buf, 3, REPLY_LEN, true)?;
        let auth = AuthTlv::parse_trailing(&buf[REPLY_LEN..])?;
        Ok(RegistrationReply {
            code: ReplyCode::from_number(buf[1])?,
            lifetime: u16_at(buf, 2),
            home_addr: addr_at(buf, 4),
            home_agent: addr_at(buf, 8),
            epoch: u16_at(buf, 12),
            ident: u64::from(u32::from_be_bytes([buf[14], buf[15], buf[16], buf[17]])),
            auth,
        })
    }
}

/// A binding update (type 4): the home agent tells a *previous* foreign
/// agent where the mobile host went, enabling in-flight forwarding (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BindingUpdate {
    /// Grace period during which the old agent forwards, in seconds.
    pub lifetime: u16,
    /// The mobile host's home address.
    pub home_addr: Ipv4Addr,
    /// Its new care-of address.
    pub new_care_of: Ipv4Addr,
}

impl BindingUpdate {
    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = ArrayBuf::<12>::default();
        buf.put_u8(4);
        buf.put_u8(0);
        buf.put_u16(self.lifetime);
        buf.put_slice(&self.home_addr.octets());
        buf.put_slice(&self.new_care_of.octets());
        Bytes::copy_from_slice(&buf)
    }

    /// Parses from bytes.
    pub fn parse(buf: &[u8]) -> Result<BindingUpdate, WireError> {
        open(buf, 4, 12, false)?;
        Ok(BindingUpdate {
            lifetime: u16_at(buf, 2),
            home_addr: addr_at(buf, 4),
            new_care_of: addr_at(buf, 8),
        })
    }
}

/// Fixed length of a binding replica: an 18-byte body followed by the
/// same trailing 16-bit checksum as [`REQUEST_LEN`].
pub const REPLICA_LEN: usize = 20;

/// Body length of a replica, excluding the trailing checksum.
const REPLICA_BODY_LEN: usize = REPLICA_LEN - 2;

/// The operation a [`BindingReplica`] carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicaOp {
    /// Install or refresh a binding.
    Bind,
    /// Remove a binding (deregistration at the primary).
    Unbind,
}

impl ReplicaOp {
    const ALL: [ReplicaOp; 2] = [ReplicaOp::Bind, ReplicaOp::Unbind];

    #[inline]
    fn number(self) -> u8 {
        match self {
            ReplicaOp::Bind => 0,
            ReplicaOp::Unbind => 1,
        }
    }

    #[inline]
    fn from_number(n: u8) -> Result<ReplicaOp, WireError> {
        ReplicaOp::ALL
            .into_iter()
            .find(|op| op.number() == n)
            .ok_or(WireError::UnknownValue {
                field: "replica op",
                value: u16::from(n),
            })
    }
}

/// A binding replica (type 5): the primary home agent streams each
/// accepted binding change to its standby so the standby can take over
/// serving with warm state when the mobile host's registrations fail over
/// to it. Like requests and replies it changes routing state, so it
/// carries its own end-to-end body checksum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BindingReplica {
    /// What happened at the primary.
    pub op: ReplicaOp,
    /// Remaining binding lifetime in seconds (0 for [`ReplicaOp::Unbind`]).
    pub lifetime: u16,
    /// The mobile host's home address.
    pub home_addr: Ipv4Addr,
    /// Its care-of address (unspecified for [`ReplicaOp::Unbind`]).
    pub care_of: Ipv4Addr,
    /// The identification the primary accepted, so the standby's replay
    /// floor matches the primary's.
    pub ident: u64,
}

impl BindingReplica {
    /// Serializes to bytes, appending the 16-bit body checksum.
    #[inline]
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = Body::default();
        buf.put_u8(5);
        buf.put_u8(self.op.number());
        buf.put_u16(self.lifetime);
        buf.put_slice(&self.home_addr.octets());
        buf.put_slice(&self.care_of.octets());
        buf.put_slice(&ident_wire(self.ident).to_be_bytes()[2..]);
        debug_assert_eq!(buf.len(), REPLICA_BODY_LEN);
        seal(buf, None)
    }

    /// Parses from bytes, verifying the trailing body checksum.
    #[inline]
    pub fn parse(buf: &[u8]) -> Result<BindingReplica, WireError> {
        open(buf, 5, REPLICA_LEN, true)?;
        Ok(BindingReplica {
            op: ReplicaOp::from_number(buf[1])?,
            lifetime: u16_at(buf, 2),
            home_addr: addr_at(buf, 4),
            care_of: addr_at(buf, 8),
            ident: ident_from_wire(&buf[12..18]),
        })
    }
}

/// A foreign agent's periodic advertisement (type 16), broadcast on the
/// visited LAN so mobile hosts can discover it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AgentAdvertisement {
    /// Monotonic sequence number.
    pub seq: u16,
    /// The advertising foreign agent's address (= care-of address offered).
    pub agent_addr: Ipv4Addr,
}

impl AgentAdvertisement {
    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = ArrayBuf::<8>::default();
        buf.put_u8(16);
        buf.put_u8(0);
        buf.put_u16(self.seq);
        buf.put_slice(&self.agent_addr.octets());
        Bytes::copy_from_slice(&buf)
    }

    /// Parses from bytes.
    pub fn parse(buf: &[u8]) -> Result<AgentAdvertisement, WireError> {
        open(buf, 16, 8, false)?;
        Ok(AgentAdvertisement {
            seq: u16_at(buf, 2),
            agent_addr: addr_at(buf, 4),
        })
    }
}

/// Classifies a registration-port datagram by its type byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MessageKind {
    /// A [`RegistrationRequest`].
    Request,
    /// A [`RegistrationReply`].
    Reply,
    /// A [`BindingUpdate`].
    Update,
    /// A [`BindingReplica`].
    Replica,
    /// An [`AgentAdvertisement`].
    Advertisement,
}

/// Peeks at the message type without a full parse.
#[inline]
pub fn classify(buf: &[u8]) -> Option<MessageKind> {
    match buf.first()? {
        1 => Some(MessageKind::Request),
        3 => Some(MessageKind::Reply),
        4 => Some(MessageKind::Update),
        5 => Some(MessageKind::Replica),
        16 => Some(MessageKind::Advertisement),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn request() -> RegistrationRequest {
        RegistrationRequest {
            lifetime: 300,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            home_agent: Ipv4Addr::new(36, 135, 0, 1),
            care_of: Ipv4Addr::new(36, 8, 0, 42),
            ident: 0x1122_3344_5566, // 48-bit wire width, see IDENT_WIRE_BITS
            auth: None,
        }
    }

    #[test]
    fn request_round_trip() {
        let r = request();
        assert_eq!(RegistrationRequest::parse(&r.to_bytes()).unwrap(), r);
        assert!(!r.is_deregistration());
    }

    #[test]
    fn deregistration_detection() {
        let mut r = request();
        r.lifetime = 0;
        assert!(r.is_deregistration());
        let mut r2 = request();
        r2.care_of = r2.home_addr;
        assert!(r2.is_deregistration());
    }

    #[test]
    fn signed_request_round_trips_and_verifies() {
        let r = request().sign(7, 0xdead_beef);
        let back = RegistrationRequest::parse(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
        assert!(back.verify(0xdead_beef));
        assert!(!back.verify(0xdead_beee), "wrong key fails");
    }

    #[test]
    fn tampered_signed_request_fails_verification() {
        let r = request().sign(7, 0xdead_beef);
        let mut bytes = r.to_bytes().to_vec();
        bytes[12] ^= 0x01; // flip a care-of bit
                           // A deliberate tamperer can fix up the wire checksum...
        let ck = internet_checksum(&bytes[..REQUEST_BODY_LEN], 0);
        bytes[REQUEST_BODY_LEN..REQUEST_LEN].copy_from_slice(&ck.to_be_bytes());
        let back = RegistrationRequest::parse(&bytes).unwrap();
        // ...but the keyed digest still refuses it.
        assert!(!back.verify(0xdead_beef));
    }

    #[test]
    fn corrupt_request_fails_checksum() {
        let mut bytes = request().to_bytes().to_vec();
        bytes[5] ^= 0x40; // random in-flight bit flip (home address)
        assert!(matches!(
            RegistrationRequest::parse(&bytes),
            Err(WireError::BadChecksum)
        ));
    }

    #[test]
    fn corrupt_reply_fails_checksum() {
        let r = RegistrationReply {
            code: ReplyCode::Accepted,
            lifetime: 120,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            home_agent: Ipv4Addr::new(36, 135, 0, 1),
            epoch: 3,
            ident: 42,
            auth: None,
        };
        let mut bytes = r.to_bytes().to_vec();
        bytes[3] ^= 0x08; // flip a lifetime bit
        assert!(matches!(
            RegistrationReply::parse(&bytes),
            Err(WireError::BadChecksum)
        ));
        // Every single-bit flip past the type byte is caught.
        let clean = r.to_bytes().to_vec();
        for byte in 1..clean.len() {
            for bit in 0..8 {
                let mut b = clean.clone();
                b[byte] ^= 1 << bit;
                assert!(
                    RegistrationReply::parse(&b).is_err(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn unsigned_request_never_verifies() {
        assert!(!request().verify(0));
    }

    #[test]
    fn reply_round_trip_all_codes() {
        for code in ReplyCode::ALL {
            let r = RegistrationReply {
                code,
                lifetime: 120,
                home_addr: Ipv4Addr::new(36, 135, 0, 9),
                home_agent: Ipv4Addr::new(36, 135, 0, 1),
                epoch: 7,
                ident: 42,
                auth: None,
            };
            assert_eq!(RegistrationReply::parse(&r.to_bytes()).unwrap(), r);
        }
    }

    /// A never-restarted agent (epoch 0) serializes byte-identically to
    /// the pre-epoch 48-bit-identification layout, so calibrated frame
    /// timings and golden sidecars are unaffected.
    #[test]
    fn epoch_zero_reply_matches_legacy_layout() {
        let r = RegistrationReply {
            code: ReplyCode::Accepted,
            lifetime: 300,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            home_agent: Ipv4Addr::new(36, 135, 0, 1),
            epoch: 0,
            ident: 42,
            auth: None,
        };
        let bytes = r.to_bytes();
        // Legacy layout: 48-bit ident at [12..18].
        let mut legacy = BytesMut::with_capacity(REPLY_LEN);
        legacy.put_u8(3);
        legacy.put_u8(0);
        legacy.put_u16(300);
        legacy.put_slice(&r.home_addr.octets());
        legacy.put_slice(&r.home_agent.octets());
        legacy.put_slice(&ident_wire(42).to_be_bytes()[2..]);
        legacy.put_u16(internet_checksum(&legacy, 0));
        assert_eq!(&bytes[..], &legacy[..]);
    }

    #[test]
    fn replica_round_trip_both_ops() {
        let bind = BindingReplica {
            op: ReplicaOp::Bind,
            lifetime: 180,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            care_of: Ipv4Addr::new(36, 8, 0, 42),
            ident: 9,
        };
        assert_eq!(BindingReplica::parse(&bind.to_bytes()).unwrap(), bind);
        let unbind = BindingReplica {
            op: ReplicaOp::Unbind,
            lifetime: 0,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            care_of: Ipv4Addr::UNSPECIFIED,
            ident: 10,
        };
        assert_eq!(BindingReplica::parse(&unbind.to_bytes()).unwrap(), unbind);
        assert_eq!(classify(&bind.to_bytes()), Some(MessageKind::Replica));
    }

    #[test]
    fn corrupt_replica_fails_checksum() {
        let mut bytes = BindingReplica {
            op: ReplicaOp::Bind,
            lifetime: 180,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            care_of: Ipv4Addr::new(36, 8, 0, 42),
            ident: 9,
        }
        .to_bytes()
        .to_vec();
        bytes[9] ^= 0x20; // flip a care-of bit
        assert!(matches!(
            BindingReplica::parse(&bytes),
            Err(WireError::BadChecksum)
        ));
    }

    #[test]
    fn binding_update_round_trip() {
        let u = BindingUpdate {
            lifetime: 10,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            new_care_of: Ipv4Addr::new(36, 40, 0, 3),
        };
        assert_eq!(BindingUpdate::parse(&u.to_bytes()).unwrap(), u);
    }

    #[test]
    fn advertisement_round_trip() {
        let a = AgentAdvertisement {
            seq: 17,
            agent_addr: Ipv4Addr::new(36, 8, 0, 4),
        };
        assert_eq!(AgentAdvertisement::parse(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn classify_dispatches_by_type() {
        assert_eq!(classify(&request().to_bytes()), Some(MessageKind::Request));
        let reply = RegistrationReply {
            code: ReplyCode::Accepted,
            lifetime: 0,
            home_addr: Ipv4Addr::UNSPECIFIED,
            home_agent: Ipv4Addr::UNSPECIFIED,
            epoch: 0,
            ident: 0,
            auth: None,
        };
        assert_eq!(classify(&reply.to_bytes()), Some(MessageKind::Reply));
        assert_eq!(classify(&[6]), None, "type 6 is not a message");
        assert_eq!(classify(&[99]), None);
        assert_eq!(classify(&[]), None);
    }

    #[test]
    fn parse_rejects_wrong_type_and_truncation() {
        let mut bytes = request().to_bytes().to_vec();
        bytes[0] = 3;
        assert!(RegistrationRequest::parse(&bytes).is_err());
        assert!(matches!(
            RegistrationRequest::parse(&bytes[..10]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn signed_reply_round_trips_and_verifies() {
        let r = RegistrationReply {
            code: ReplyCode::Accepted,
            lifetime: 120,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            home_agent: Ipv4Addr::new(36, 135, 0, 1),
            epoch: 2,
            ident: 42,
            auth: None,
        }
        .sign(7, 0xdead_beef);
        let back = RegistrationReply::parse(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
        assert!(back.verify(0xdead_beef));
        assert!(!back.verify(0xdead_beee), "wrong key fails");
    }

    #[test]
    fn forged_denial_fails_reply_verification() {
        // An off-path attacker forges a DeniedAuth to knock the binding
        // down; without the key its digest cannot match.
        let forged = RegistrationReply {
            code: ReplyCode::DeniedAuth,
            lifetime: 0,
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            home_agent: Ipv4Addr::new(36, 135, 0, 1),
            epoch: 0,
            ident: 42,
            auth: None,
        }
        .sign(7, 0x4141_4141); // attacker's guess at the key
        let back = RegistrationReply::parse(&forged.to_bytes()).unwrap();
        assert!(!back.verify(0xdead_beef));
    }
}
