//! Offline stand-in for the `bytes` crate.
//!
//! The build sandbox has no access to crates.io, so the workspace vendors a
//! minimal, API-compatible subset of `bytes`: [`Bytes`] (cheap-to-clone,
//! immutable, sliceable), [`BytesMut`] (growable builder), and the
//! [`BufMut`] write trait. Semantics match the real crate for every call
//! site in this repository, and so do the costs that matter to a packet
//! path: clone is an `Arc` bump, `slice` is a range narrowing,
//! `From<Vec<u8>>` and [`Bytes::from_owner`] adopt their argument without
//! copying it, and every constructor makes at most one allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

/// Where the bytes live. Every shared variant is one reference-counted
/// allocation; cloning or slicing a `Bytes` never copies.
#[derive(Clone)]
enum Storage {
    /// Borrowed for the life of the program: no allocation at all.
    Static(&'static [u8]),
    /// Copied in once, length and bytes in the same allocation.
    Shared(Arc<[u8]>),
    /// Whatever the owner holds, kept alive (and dropped, running the
    /// owner's `Drop`) by the last view. See [`Bytes::from_owner`].
    Owner(Arc<dyn AsRef<[u8]> + Send + Sync>),
}

impl Storage {
    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Static(s) => s,
            Storage::Shared(a) => a,
            Storage::Owner(o) => (**o).as_ref(),
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Bytes {
    /// Creates an empty `Bytes` (no allocation).
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Creates `Bytes` borrowing a static slice (no allocation, no copy).
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            data: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Creates `Bytes` by copying `data` into one allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            data: Storage::Shared(Arc::from(data)),
            start: 0,
            end: data.len(),
        }
    }

    /// Creates `Bytes` over whatever `owner` exposes, without copying it:
    /// the owner moves into one shared allocation, every clone and
    /// [`slice`](Bytes::slice) keeps it alive, and it is dropped — its
    /// `Drop` runs — when the last of them goes. This is how a pooled
    /// packet buffer finds its way back to the pool.
    ///
    /// The owner must return the same slice every time it is asked. (The
    /// real crate asks only that it be `Send`; a stand-in that forbids
    /// `unsafe` cannot vouch for `Sync` itself, so it asks for that too —
    /// every owner in this repository holds a plain vector.)
    pub fn from_owner<T>(owner: T) -> Bytes
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes {
            data: Storage::Owner(Arc::new(owner)),
            start: 0,
            end,
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a slice of self for the provided range, without copying.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector over as it is (one allocation for the shared
    /// handle, none for the bytes).
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes::from_owner(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Bytes {
        Bytes::copy_from_slice(&a)
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter().copied().collect::<Vec<u8>>().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.data, f)
    }
}

/// Write-side buffer trait: big-endian integer and slice appends.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(s2.to_vec(), vec![2, 3]);
    }

    #[test]
    fn bytes_equality_and_clone_are_cheap_views() {
        let b = Bytes::from_static(b"hello");
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b, b"hello"[..]);
        assert!(b.slice(5..5).is_empty());
    }

    #[test]
    fn bytes_mut_builder() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0x45);
        m.put_u16(0xbeef);
        m.put_u32(0x01020304);
        m.put_slice(b"xy");
        m[0] = 0x46; // DerefMut patch-up, as checksum writers do
        let b = m.freeze();
        assert_eq!(
            &b[..],
            &[0x46, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, b'x', b'y']
        );
    }

    #[test]
    fn owner_is_dropped_with_the_last_view() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static DROPPED: AtomicBool = AtomicBool::new(false);
        struct Owner(Vec<u8>);
        impl AsRef<[u8]> for Owner {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Owner {
            fn drop(&mut self) {
                DROPPED.store(true, Ordering::SeqCst);
            }
        }
        let whole = Bytes::from_owner(Owner(vec![1, 2, 3, 4]));
        let tail = whole.slice(2..);
        let inner = tail.slice(1..);
        drop(whole);
        drop(tail);
        assert!(
            !DROPPED.load(Ordering::SeqCst),
            "a slice of a slice holds on"
        );
        assert_eq!(&inner[..], &[4]);
        drop(inner);
        assert!(DROPPED.load(Ordering::SeqCst));
    }

    #[test]
    fn from_vec_adopts_the_vector() {
        let v = vec![7u8; 32];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "no copy");
        assert!(Bytes::from(Vec::new()).is_empty());
    }

    #[test]
    fn bytes_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bytes>();
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from_static(b"ab").slice(0..3);
    }
}
