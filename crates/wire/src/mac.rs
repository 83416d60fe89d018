//! A deterministic keyed message-authentication code and its trailing
//! extension (TLV) encoding.
//!
//! This is the authentication substrate for the registration protocol:
//! a keyed variant of the same cheap integrity machinery the rest of the
//! crate uses (the Internet checksum guards against *accident*; this MAC
//! guards against *forgery by anyone without the key*). The digest is a
//! keyed FNV-1a-64 — an interface-compatible stand-in for the Mobile IP
//! draft's keyed-MD5, **not cryptographically secure**; it exists to
//! exercise the sign/verify/replay protocol paths the paper prescribes
//! for production use ("the packets exchanged ... are not currently
//! authenticated, although we plan to add this", §5.1).
//!
//! One property *is* load-bearing and tested: the per-byte mixing step
//! `h ← (h ⊕ b) · P` is a bijection of the 64-bit state for any byte `b`
//! (the FNV prime `P` is odd, so multiplication mod 2⁶⁴ is invertible).
//! Two messages of equal length differing in even a single bit therefore
//! *always* produce different digests — a bit-flipped signed registration
//! can never verify, which is exactly the guarantee the wire proptests
//! pin down.

use bytes::BufMut;

use crate::error::WireError;

/// Extension type byte of the trailing authentication TLV (the Mobile IP
/// draft's mobile–home authentication extension).
pub const AUTH_TLV_TYPE: u8 = 32;

/// Total encoded length of the authentication TLV: type (1) + length (1)
/// + SPI (4) + digest (8).
pub const AUTH_TLV_LEN: usize = 14;

/// FNV-1a-64 offset basis (the keyed MAC's initial state is this XOR the
/// key).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 prime. Odd, so each mixing step is a bijection of the state.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Computes the keyed MAC over `body`: a keyed FNV-1a-64 digest of the
/// message bytes, the SPI, and the key.
///
/// The key enters three ways — it perturbs the initial state, and both
/// the SPI and the key itself are mixed in after the body — so neither a
/// body extension nor an SPI substitution can be compensated without
/// knowing the key.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::keyed_mac;
///
/// let mac = keyed_mac(b"registration body", 7, 0xdead_beef);
/// assert_eq!(mac, keyed_mac(b"registration body", 7, 0xdead_beef));
/// assert_ne!(mac, keyed_mac(b"registration body", 7, 0xdead_bee0));
/// assert_ne!(mac, keyed_mac(b"registration bodz", 7, 0xdead_beef));
/// ```
pub fn keyed_mac(body: &[u8], spi: u32, key: u64) -> u64 {
    let mut h: u64 = FNV_OFFSET ^ key;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for &b in body {
        mix(b);
    }
    for b in spi.to_be_bytes() {
        mix(b);
    }
    for b in key.to_be_bytes() {
        mix(b);
    }
    h
}

/// The trailing authentication TLV carried after a registration message's
/// fixed body: an SPI naming the key and the keyed digest over the body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuthTlv {
    /// Security parameter index selecting the key.
    pub spi: u32,
    /// Keyed digest over the message body (see [`keyed_mac`]).
    pub digest: u64,
}

impl AuthTlv {
    /// Computes the TLV for `body` under `(spi, key)`.
    #[inline]
    pub fn compute(body: &[u8], spi: u32, key: u64) -> AuthTlv {
        AuthTlv {
            spi,
            digest: keyed_mac(body, spi, key),
        }
    }

    /// True when the digest matches `body` under `key` (with this TLV's
    /// own SPI).
    #[inline]
    pub fn verify(&self, body: &[u8], key: u64) -> bool {
        keyed_mac(body, self.spi, key) == self.digest
    }

    /// Appends the encoded TLV to `buf`.
    #[inline]
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u8(AUTH_TLV_TYPE);
        buf.put_u8(AUTH_TLV_LEN as u8);
        buf.put_u32(self.spi);
        buf.put_u64(self.digest);
    }

    /// Parses the bytes trailing a fixed-length message: empty means no
    /// TLV; anything else must be exactly one well-formed authentication
    /// TLV (truncated, oversized, or unknown-type trailers are errors —
    /// a mangled extension must never pass for "unauthenticated").
    #[inline]
    pub fn parse_trailing(rest: &[u8]) -> Result<Option<AuthTlv>, WireError> {
        if rest.is_empty() {
            return Ok(None);
        }
        if rest.len() != AUTH_TLV_LEN || rest[0] != AUTH_TLV_TYPE || rest[1] != AUTH_TLV_LEN as u8 {
            return Err(WireError::BadLength);
        }
        Ok(Some(AuthTlv {
            spi: u32::from_be_bytes([rest[2], rest[3], rest[4], rest[5]]),
            digest: u64::from_be_bytes([
                rest[6], rest[7], rest[8], rest[9], rest[10], rest[11], rest[12], rest[13],
            ]),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn mac_depends_on_key_spi_and_body() {
        let body = b"registration body";
        let d1 = keyed_mac(body, 1, 100);
        assert_ne!(d1, keyed_mac(body, 1, 101), "key matters");
        assert_ne!(d1, keyed_mac(body, 2, 100), "spi matters");
        assert_ne!(d1, keyed_mac(b"registration bodz", 1, 100), "body matters");
        assert_eq!(d1, keyed_mac(body, 1, 100), "deterministic");
    }

    #[test]
    fn tlv_round_trips() {
        let tlv = AuthTlv::compute(b"some body", 9, 0xfeed);
        let mut buf = BytesMut::new();
        tlv.encode_into(&mut buf);
        assert_eq!(buf.len(), AUTH_TLV_LEN);
        assert_eq!(AuthTlv::parse_trailing(&buf).unwrap(), Some(tlv));
        assert!(tlv.verify(b"some body", 0xfeed));
        assert!(!tlv.verify(b"some body", 0xfeee));
        assert!(!tlv.verify(b"some bodz", 0xfeed));
    }

    #[test]
    fn empty_trailer_is_no_tlv() {
        assert_eq!(AuthTlv::parse_trailing(&[]).unwrap(), None);
    }

    #[test]
    fn malformed_trailers_rejected() {
        let tlv = AuthTlv::compute(b"x", 1, 2);
        let mut buf = BytesMut::new();
        tlv.encode_into(&mut buf);
        // Truncated.
        assert!(AuthTlv::parse_trailing(&buf[..AUTH_TLV_LEN - 1]).is_err());
        // Oversized trailer.
        let mut long = buf.to_vec();
        long.push(0);
        assert!(AuthTlv::parse_trailing(&long).is_err());
        // Wrong type byte.
        let mut wrong = buf.to_vec();
        wrong[0] = 33;
        assert!(AuthTlv::parse_trailing(&wrong).is_err());
        // Wrong length byte.
        let mut wrong = buf.to_vec();
        wrong[1] = 13;
        assert!(AuthTlv::parse_trailing(&wrong).is_err());
    }

    #[test]
    fn equal_length_bodies_never_collide_on_single_bit() {
        // Spot-check the bijectivity argument: flip each bit of a body in
        // turn; every digest must differ from the original's.
        let body = *b"0123456789abcdef012345";
        let base = keyed_mac(&body, 7, 42);
        for byte in 0..body.len() {
            for bit in 0..8 {
                let mut b = body;
                b[byte] ^= 1 << bit;
                assert_ne!(keyed_mac(&b, 7, 42), base, "byte {byte} bit {bit}");
            }
        }
    }
}
