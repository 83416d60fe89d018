//! Parse errors shared by all wire formats.

use core::fmt;

/// Why a byte buffer failed to parse as a given format.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Buffer shorter than the fixed header, or shorter than a length field
    /// claims.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// A checksum did not verify.
    BadChecksum,
    /// IPv4 version field was not 4.
    BadVersion(u8),
    /// IPv4 IHL other than 5 (options are not supported in this stack).
    UnsupportedHeaderLen(u8),
    /// A length field was internally inconsistent.
    BadLength,
    /// ARP hardware/protocol types other than Ethernet/IPv4.
    UnsupportedArp,
    /// A container file's magic number was not recognized (pcap export).
    BadMagic(u32),
    /// An enumerated field held an unknown discriminant.
    UnknownValue {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: u16,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated packet: need {needed} bytes, got {got}")
            }
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadVersion(v) => write!(f, "IP version {v} is not 4"),
            WireError::UnsupportedHeaderLen(ihl) => {
                write!(f, "IPv4 IHL {ihl} unsupported (options not implemented)")
            }
            WireError::BadLength => write!(f, "inconsistent length field"),
            WireError::UnsupportedArp => write!(f, "non-Ethernet/IPv4 ARP"),
            WireError::BadMagic(m) => write!(f, "unrecognized file magic {m:#010x}"),
            WireError::UnknownValue { field, value } => {
                write!(f, "unknown value {value} in field {field}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Checks that `buf` holds at least `needed` bytes.
#[inline]
pub fn need(buf: &[u8], needed: usize) -> Result<(), WireError> {
    if buf.len() < needed {
        Err(WireError::Truncated {
            needed,
            got: buf.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            WireError::Truncated { needed: 20, got: 3 }.to_string(),
            "truncated packet: need 20 bytes, got 3"
        );
        assert_eq!(WireError::BadChecksum.to_string(), "checksum mismatch");
        assert!(WireError::BadVersion(6).to_string().contains("6"));
    }

    #[test]
    fn need_checks_length() {
        assert!(need(&[0; 4], 4).is_ok());
        assert_eq!(
            need(&[0; 3], 4),
            Err(WireError::Truncated { needed: 4, got: 3 })
        );
    }
}
