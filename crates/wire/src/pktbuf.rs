//! Pooled, headroom-reserving packet assembly buffers.
//!
//! The transmit path historically serialized a packet once per layer: the
//! IP packet into fresh bytes, IP-in-IP encapsulation into another copy,
//! and the link frame into a third. [`PacketBuf`] assembles a packet
//! exactly once: the payload is written at an offset that reserves
//! *headroom*, and each outer layer (the IP-in-IP header on the mobile
//! host or home agent, then the 14-byte frame header) is **prepended in
//! place** into that headroom — the discipline of BSD mbufs and Linux
//! `skb_push`.
//!
//! Backing vectors come from a bounded thread-local free list. A finished
//! buffer is [frozen](PacketBuf::freeze) into a [`PacketBytes`]: the
//! pooled vector itself, handed to [`Bytes`] as its owner, plus the
//! flight id. Fan-out clones bump a reference count, and the receive
//! side's parsers ([`Ipv4Packet::parse`](crate::Ipv4Packet::parse) and
//! friends) return payloads that are [`slice`](Bytes::slice)s of the same
//! storage — only fault-injected `corrupt` copies pay for their own.
//! When the last clone *or slice* drops, the backing vector returns to
//! the pool of the thread that dropped it, so steady-state forwarding
//! allocates one shared handle per frame and copies nothing.

use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;

use bytes::{BufMut, Bytes};

/// Largest backing vector the pool keeps; anything bigger (jumbo
/// diagnostics, never real frames) is released to the allocator.
const POOL_MAX_CAPACITY: usize = 16 * 1024;

/// Most vectors the pool holds; beyond this, returned buffers are freed.
const POOL_MAX_ENTRIES: usize = 32;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn pool_take() -> Vec<u8> {
    POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

#[inline]
fn pool_give(mut v: Vec<u8>) {
    if v.capacity() == 0 || v.capacity() > POOL_MAX_CAPACITY {
        return;
    }
    v.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_MAX_ENTRIES {
            pool.push(v);
        }
    });
}

/// Number of buffers currently resting in the thread-local pool
/// (diagnostics and tests).
pub fn pool_size() -> usize {
    POOL.with(|p| p.borrow().len())
}

/// A growable packet-assembly buffer with reserved headroom.
///
/// Appends go at the tail ([`BufMut`] writes or
/// [`put_slice`](BufMut::put_slice)); outer headers claim bytes *before*
/// the current start via [`prepend`](PacketBuf::prepend), without moving
/// what was already written.
///
/// # Examples
///
/// ```
/// use mosquitonet_wire::PacketBuf;
/// use bytes::BufMut;
///
/// let mut buf = PacketBuf::with_headroom(14);
/// buf.put_slice(b"payload");
/// buf.prepend(14).copy_from_slice(&[0u8; 14]); // frame header, in place
/// assert_eq!(buf.len(), 21);
/// let bytes = buf.freeze();
/// assert_eq!(&bytes[14..], b"payload");
/// ```
pub struct PacketBuf {
    data: Vec<u8>,
    start: usize,
    /// Flight-recorder id riding alongside the bytes (never serialized;
    /// `0` = untracked).
    flight: u64,
}

impl PacketBuf {
    /// Creates a buffer whose first write lands after `headroom` reserved
    /// bytes. The backing vector is drawn from the thread-local pool.
    #[inline]
    pub fn with_headroom(headroom: usize) -> PacketBuf {
        let mut data = pool_take();
        data.resize(headroom, 0);
        PacketBuf {
            data,
            start: headroom,
            flight: 0,
        }
    }

    /// Tags the buffer with a flight-recorder id. The id is sidecar
    /// metadata: it survives [`freeze`](PacketBuf::freeze) and
    /// [`PacketBytes`] clones but is never written into the bytes, so the
    /// wire image is identical with or without tracing.
    #[inline]
    pub fn set_flight(&mut self, flight: u64) {
        self.flight = flight;
    }

    /// The flight id riding on this buffer (`0` = untracked).
    #[inline]
    pub fn flight(&self) -> u64 {
        self.flight
    }

    /// Bytes of headroom still available for [`prepend`](PacketBuf::prepend).
    #[inline]
    pub fn headroom(&self) -> usize {
        self.start
    }

    /// Length of the assembled content (headroom excluded).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The assembled content.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    /// Mutable view of the assembled content (checksum patch-ups).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data[self.start..]
    }

    /// Claims `n` bytes of headroom immediately before the current
    /// content and returns them for writing. The bytes become part of the
    /// content — this is how an outer header wraps an inner packet with
    /// zero copying.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes of headroom remain; callers size
    /// headroom up front (`FRAME_HEADER_LEN + ENCAP_OVERHEAD` on the
    /// transmit path).
    #[inline]
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        assert!(
            self.start >= n,
            "PacketBuf headroom exhausted: need {n}, have {}",
            self.start
        );
        self.start -= n;
        &mut self.data[self.start..self.start + n]
    }

    /// Freezes into an immutable, cheaply-cloneable [`PacketBytes`],
    /// carrying the flight id along.
    #[inline]
    pub fn freeze(mut self) -> PacketBytes {
        let data = std::mem::take(&mut self.data);
        let start = std::mem::take(&mut self.start);
        PacketBytes {
            bytes: Bytes::from_owner(PooledVec { data, start }),
            flight: self.flight,
        }
    }
}

impl Drop for PacketBuf {
    #[inline]
    fn drop(&mut self) {
        pool_give(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PacketBuf")
            .field("len", &self.len())
            .field("headroom", &self.headroom())
            .finish()
    }
}

impl BufMut for PacketBuf {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// The owner behind a frozen buffer's [`Bytes`]; returns its vector to the
/// pool when the last view of it drops.
struct PooledVec {
    data: Vec<u8>,
    /// Unclaimed headroom in front of the content.
    start: usize,
}

impl AsRef<[u8]> for PooledVec {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl Drop for PooledVec {
    fn drop(&mut self) {
        pool_give(std::mem::take(&mut self.data));
    }
}

/// A frozen [`PacketBuf`]: its wire bytes as a [`Bytes`] (which it
/// dereferences to) plus the flight id riding beside them.
///
/// Clones and slices share the backing vector (a reference-count bump),
/// which is what broadcast fan-out, fault-plan `duplicate` deliveries and
/// in-place parsing use; the pooled storage is recycled once every one of
/// them is gone.
#[derive(Clone)]
pub struct PacketBytes {
    bytes: Bytes,
    /// Flight-recorder id (metadata only; clones share it, the wire
    /// image never contains it).
    flight: u64,
}

impl PacketBytes {
    /// Wraps an owned vector (the fault-injection `corrupt` path, which
    /// genuinely needs its own mutated copy). The copy starts untracked;
    /// use [`with_flight`](PacketBytes::with_flight) to re-attach the
    /// original packet's flight id.
    #[inline]
    pub fn from_vec(data: Vec<u8>) -> PacketBytes {
        PacketBytes {
            bytes: Bytes::from_owner(PooledVec { data, start: 0 }),
            flight: 0,
        }
    }

    /// Returns the same bytes tagged with `flight` (used when a mutated
    /// copy must keep the original packet's identity).
    #[inline]
    pub fn with_flight(mut self, flight: u64) -> PacketBytes {
        self.flight = flight;
        self
    }

    /// The flight id riding on these bytes (`0` = untracked).
    #[inline]
    pub fn flight(&self) -> u64 {
        self.flight
    }
}

impl Deref for PacketBytes {
    type Target = Bytes;
    #[inline]
    fn deref(&self) -> &Bytes {
        &self.bytes
    }
}

impl AsRef<[u8]> for PacketBytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for PacketBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.bytes, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_prepend_wraps_in_place() {
        let mut b = PacketBuf::with_headroom(34);
        b.put_slice(b"inner");
        assert_eq!(b.len(), 5);
        assert_eq!(b.headroom(), 34);
        b.prepend(20).copy_from_slice(&[0xAA; 20]);
        assert_eq!(b.len(), 25);
        assert_eq!(b.headroom(), 14);
        b.prepend(14).copy_from_slice(&[0xBB; 14]);
        assert_eq!(b.len(), 39);
        let bytes = b.freeze();
        assert_eq!(&bytes[..14], &[0xBB; 14]);
        assert_eq!(&bytes[14..34], &[0xAA; 20]);
        assert_eq!(&bytes[34..], b"inner");
    }

    #[test]
    #[should_panic(expected = "headroom exhausted")]
    fn prepend_past_headroom_panics() {
        let mut b = PacketBuf::with_headroom(4);
        b.prepend(5);
    }

    #[test]
    fn bufmut_writes_are_big_endian() {
        let mut b = PacketBuf::with_headroom(0);
        b.put_u8(1);
        b.put_u16(0x0203);
        b.put_u32(0x04050607);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn clones_share_storage() {
        let mut b = PacketBuf::with_headroom(2);
        b.put_slice(b"xyz");
        let a = b.freeze();
        let c = a.clone();
        assert_eq!(&a[..], &c[..]);
        assert_eq!(&a[..], b"xyz");
    }

    #[test]
    fn pool_recycles_dropped_buffers() {
        // Drain whatever other tests left behind.
        while pool_take().capacity() > 0 {}
        let mut b = PacketBuf::with_headroom(8);
        b.put_slice(&[7; 100]);
        let frozen = b.freeze();
        let dup = frozen.clone();
        let tail = frozen.slice(90..);
        drop(frozen);
        assert_eq!(pool_size(), 0, "still referenced by the clone");
        drop(dup);
        assert_eq!(pool_size(), 0, "still referenced by the slice");
        drop(tail);
        assert_eq!(pool_size(), 1, "last view returns the vector");
        let reused = PacketBuf::with_headroom(4);
        assert!(reused.data.capacity() >= 100, "backing vector reused");
        assert_eq!(pool_size(), 0);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        while pool_take().capacity() > 0 {}
        let mut b = PacketBuf::with_headroom(0);
        b.put_slice(&vec![0u8; POOL_MAX_CAPACITY + 1]);
        drop(b.freeze());
        assert_eq!(pool_size(), 0);
    }

    #[test]
    fn flight_id_rides_outside_the_bytes() {
        let mut b = PacketBuf::with_headroom(2);
        b.put_slice(b"payload");
        b.set_flight(42);
        assert_eq!(b.flight(), 42);
        let before = b.as_slice().to_vec();
        let frozen = b.freeze();
        assert_eq!(frozen.flight(), 42, "freeze carries the id");
        assert_eq!(frozen.clone().flight(), 42, "clones share the id");
        assert_eq!(&frozen[..], &before[..], "bytes unchanged by tagging");
        let copy = PacketBytes::from_vec(frozen.to_vec());
        assert_eq!(copy.flight(), 0, "fresh copies start untracked");
        assert_eq!(copy.with_flight(42).flight(), 42);
    }

    #[test]
    fn from_vec_owns_its_copy() {
        let v = vec![1, 2, 3];
        let p = PacketBytes::from_vec(v);
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_vec(), vec![1, 2, 3]);
        assert!(!p.is_empty());
    }
}
