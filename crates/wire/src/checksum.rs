//! The Internet checksum (RFC 1071) and the UDP/TCP pseudo-header.

use std::net::Ipv4Addr;

/// Computes the 16-bit one's-complement Internet checksum over `data`,
/// starting from `initial` (an already-folded partial sum, e.g. the
/// pseudo-header contribution).
///
/// The returned value is ready to be stored in a header checksum field.
/// Verification: a buffer whose checksum field is filled in sums to zero.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::internet_checksum;
///
/// // RFC 1071 worked example.
/// let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(internet_checksum(&data, 0), !0xddf2u16);
/// ```
#[inline]
pub fn internet_checksum(data: &[u8], initial: u32) -> u16 {
    let mut sum = initial;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Partial sum of the UDP/TCP pseudo-header: source address, destination
/// address, zero+protocol, and transport length.
///
/// Feed the result into [`internet_checksum`] as `initial`.
#[inline]
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, length: u16) -> u32 {
    let s = src.octets();
    let d = dst.octets();
    u32::from(u16::from_be_bytes([s[0], s[1]]))
        + u32::from(u16::from_be_bytes([s[2], s[3]]))
        + u32::from(u16::from_be_bytes([d[0], d[1]]))
        + u32::from(u16::from_be_bytes([d[2], d[3]]))
        + u32::from(protocol)
        + u32::from(length)
}

/// Verifies a buffer whose checksum field is already populated.
///
/// Returns `true` when the one's-complement sum (including `initial`)
/// folds to zero, i.e. the checksum matches.
#[inline]
pub fn verify_checksum(data: &[u8], initial: u32) -> bool {
    internet_checksum(data, initial) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_checksums_to_all_ones() {
        assert_eq!(internet_checksum(&[], 0), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // 0x0102 + 0x0300 = 0x0402 -> !0x0402
        assert_eq!(internet_checksum(&[1, 2, 3], 0), !0x0402u16);
    }

    #[test]
    fn verify_round_trip() {
        let mut buf = vec![
            0x45u8, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        buf.extend_from_slice(&[36, 135, 0, 9, 36, 8, 0, 7]);
        let ck = internet_checksum(&buf, 0);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_checksum(&buf, 0));
        buf[0] ^= 0x10; // corrupt a nibble
        assert!(!verify_checksum(&buf, 0));
    }

    #[test]
    fn carry_folding_handles_many_ff_words() {
        let data = vec![0xffu8; 4096];
        // Sum of 2048 0xffff words folds to 0xffff, complement is 0.
        assert_eq!(internet_checksum(&data, 0), 0);
    }

    #[test]
    fn pseudo_header_sum_is_order_independent_between_src_dst() {
        let a = Ipv4Addr::new(36, 135, 0, 9);
        let b = Ipv4Addr::new(36, 8, 0, 7);
        assert_eq!(
            pseudo_header_sum(a, b, 17, 100),
            pseudo_header_sum(b, a, 17, 100)
        );
    }

    #[test]
    fn initial_value_contributes() {
        let data = [0u8; 2];
        let without = internet_checksum(&data, 0);
        let with = internet_checksum(&data, 0x1234);
        assert_ne!(without, with);
        assert_eq!(with, !0x1234u16);
    }
}
