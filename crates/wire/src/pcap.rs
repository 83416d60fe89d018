//! Classic pcap (libpcap) capture files: writer and reader.
//!
//! The simulator's interface capture mode collects raw Ethernet frames;
//! this module serializes them into the classic `pcap` container
//! (24-byte global header, 16-byte per-record headers) so any external
//! analyzer — Wireshark, `tcpdump -r` — opens them directly. The format
//! is the original microsecond-resolution one: magic `0xa1b2c3d4`,
//! version 2.4, link type `LINKTYPE_ETHERNET` (1).
//!
//! The [`PcapReader`] exists for round-trip validation (and the `inspect`
//! CLI): it accepts both byte orders, keyed off the magic, so captures
//! from either endianness parse.
//!
//! # Examples
//!
//! ```
//! use mosquitonet_wire::pcap::{PcapWriter, PcapReader};
//!
//! let mut w = PcapWriter::new();
//! w.frame(1_000_000, &[0xAA; 14]);
//! let file = w.finish();
//! let frames = PcapReader::parse(&file).expect("well-formed");
//! assert_eq!(frames.len(), 1);
//! assert_eq!(frames[0].ts_us, 1_000_000);
//! assert_eq!(frames[0].bytes, vec![0xAA; 14]);
//! ```

use crate::error::{need, WireError};

/// Classic pcap magic for microsecond timestamps, writer byte order.
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;

/// `LINKTYPE_ETHERNET`: records are Ethernet II frames.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Largest record the header advertises (standard tcpdump default).
const SNAPLEN: u32 = 65_535;

/// Major/minor format version (2.4, unchanged since 1998).
const VERSION: (u16, u16) = (2, 4);

/// An incremental classic-pcap file writer (little-endian records, as
/// the magic declares).
#[derive(Debug)]
pub struct PcapWriter {
    out: Vec<u8>,
}

impl Default for PcapWriter {
    fn default() -> Self {
        PcapWriter::new()
    }
}

impl PcapWriter {
    /// Starts a capture file: writes the global header.
    pub fn new() -> PcapWriter {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.0.to_le_bytes());
        out.extend_from_slice(&VERSION.1.to_le_bytes());
        out.extend_from_slice(&0i32.to_le_bytes()); // thiszone (UTC)
        out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        out.extend_from_slice(&SNAPLEN.to_le_bytes());
        out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        PcapWriter { out }
    }

    /// Appends one frame captured at `ts_us` microseconds since the
    /// epoch (simulated time zero).
    pub fn frame(&mut self, ts_us: u64, bytes: &[u8]) {
        let len = bytes.len().min(SNAPLEN as usize) as u32;
        self.out
            .extend_from_slice(&((ts_us / 1_000_000) as u32).to_le_bytes());
        self.out
            .extend_from_slice(&((ts_us % 1_000_000) as u32).to_le_bytes());
        self.out.extend_from_slice(&len.to_le_bytes());
        self.out
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&bytes[..len as usize]);
    }

    /// Finishes and returns the complete file image.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// One frame recovered from a capture file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapFrame {
    /// Capture timestamp, microseconds.
    pub ts_us: u64,
    /// Captured bytes (possibly truncated to the snap length).
    pub bytes: Vec<u8>,
    /// Original on-wire length (≥ `bytes.len()`).
    pub orig_len: u32,
}

/// A parsed classic-pcap file: the link type plus every record.
#[derive(Debug)]
pub struct PcapReader {
    /// The capture's link type (1 = Ethernet).
    pub link_type: u32,
    /// All frames, in file order.
    pub frames: Vec<PcapFrame>,
}

impl PcapReader {
    /// Parses a complete capture file, auto-detecting byte order from
    /// the magic. Returns the frames in file order.
    pub fn parse(data: &[u8]) -> Result<Vec<PcapFrame>, WireError> {
        Ok(PcapReader::parse_file(data)?.frames)
    }

    /// Parses a complete capture file including its header fields.
    pub fn parse_file(data: &[u8]) -> Result<PcapReader, WireError> {
        need(data, 24)?;
        let magic_le = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
        let magic_be = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
        let big_endian = match (magic_le, magic_be) {
            (PCAP_MAGIC, _) => false,
            (_, PCAP_MAGIC) => true,
            _ => return Err(WireError::BadMagic(magic_be)),
        };
        let u32_at = |at: usize| -> u32 {
            let b = [data[at], data[at + 1], data[at + 2], data[at + 3]];
            if big_endian {
                u32::from_be_bytes(b)
            } else {
                u32::from_le_bytes(b)
            }
        };
        let link_type = u32_at(20);
        let mut frames = Vec::new();
        let mut at = 24usize;
        while at < data.len() {
            need(&data[at..], 16)?;
            let ts_sec = u32_at(at) as u64;
            let ts_usec = u32_at(at + 4) as u64;
            let incl_len = u32_at(at + 8) as usize;
            let orig_len = u32_at(at + 12);
            at += 16;
            need(&data[at..], incl_len)?;
            frames.push(PcapFrame {
                ts_us: ts_sec * 1_000_000 + ts_usec,
                bytes: data[at..at + incl_len].to_vec(),
                orig_len,
            });
            at += incl_len;
        }
        Ok(PcapReader { link_type, frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_are_standard() {
        let file = PcapWriter::new().finish();
        assert_eq!(file.len(), 24);
        assert_eq!(&file[0..4], &PCAP_MAGIC.to_le_bytes());
        assert_eq!(u16::from_le_bytes([file[4], file[5]]), 2);
        assert_eq!(u16::from_le_bytes([file[6], file[7]]), 4);
        let parsed = PcapReader::parse_file(&file).expect("parse");
        assert_eq!(parsed.link_type, LINKTYPE_ETHERNET);
        assert!(parsed.frames.is_empty());
    }

    #[test]
    fn round_trip_preserves_bytes_and_timestamps() {
        let mut w = PcapWriter::new();
        let frames: Vec<(u64, Vec<u8>)> = vec![
            (0, vec![0u8; 14]),
            (1_500_000, (0..60).collect()),
            (u32::MAX as u64 * 1_000_000 + 999_999, vec![0xFF; 14]),
        ];
        for (ts, bytes) in &frames {
            w.frame(*ts, bytes);
        }
        let file = w.finish();
        let parsed = PcapReader::parse(&file).expect("parse");
        assert_eq!(parsed.len(), frames.len());
        for (got, (ts, bytes)) in parsed.iter().zip(&frames) {
            assert_eq!(got.ts_us, *ts);
            assert_eq!(&got.bytes, bytes);
            assert_eq!(got.orig_len as usize, bytes.len());
        }
    }

    #[test]
    fn big_endian_captures_parse_too() {
        // Hand-build a big-endian file with one 4-byte record.
        let mut file = Vec::new();
        file.extend_from_slice(&PCAP_MAGIC.to_be_bytes());
        file.extend_from_slice(&2u16.to_be_bytes());
        file.extend_from_slice(&4u16.to_be_bytes());
        file.extend_from_slice(&0u32.to_be_bytes());
        file.extend_from_slice(&0u32.to_be_bytes());
        file.extend_from_slice(&65_535u32.to_be_bytes());
        file.extend_from_slice(&1u32.to_be_bytes());
        file.extend_from_slice(&3u32.to_be_bytes()); // ts_sec
        file.extend_from_slice(&7u32.to_be_bytes()); // ts_usec
        file.extend_from_slice(&4u32.to_be_bytes()); // incl_len
        file.extend_from_slice(&4u32.to_be_bytes()); // orig_len
        file.extend_from_slice(&[1, 2, 3, 4]);
        let frames = PcapReader::parse(&file).expect("big-endian parse");
        assert_eq!(frames[0].ts_us, 3_000_007);
        assert_eq!(frames[0].bytes, vec![1, 2, 3, 4]);
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(PcapReader::parse(&[]).is_err());
        assert!(PcapReader::parse(&[0u8; 24]).is_err(), "bad magic");
        let mut w = PcapWriter::new();
        w.frame(0, &[1, 2, 3]);
        let mut file = w.finish();
        file.truncate(file.len() - 1);
        assert!(PcapReader::parse(&file).is_err(), "truncated body");
        file.truncate(24 + 8);
        assert!(PcapReader::parse(&file).is_err(), "truncated record header");
    }
}
